"""Material response: closed-form values, branch selection, derivative
consistency and the plasma identities."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph
from dopshift.errors import (DegenerateMedium, EvanescentRegime,
                             FrequencyOutOfRange, ZeroFrequency)
from dopshift.units import omega_from_thz, thz_from_omega

LORENTZ = disp.lorentz_from_thz()


class TestPermittivity:
    def test_plasma_direct_substitution(self):
        m = disp.ColdPlasma(omega_p=1.0)
        assert disp.permittivity(m, 2.0) == 0.75

    def test_plasma_cutoff(self):
        m = disp.ColdPlasma(omega_p=1.0)
        assert disp.permittivity(m, 1.0) == 0.0

    def test_plasma_zero_frequency_raises(self):
        with pytest.raises(ZeroFrequency):
            disp.permittivity(disp.ColdPlasma(omega_p=1.0), 0.0)

    def test_lorentz_high_frequency_limit(self):
        w = omega_from_thz(1e6)
        assert abs(disp.permittivity(LORENTZ, w) - 1.0) < 1e-4

    def test_lorentz_static_value(self):
        # at omega = 0 the single-resonance response is 1 + (w_P/w_T)**2
        expected = 1.0 + (298.42 / 409.82) ** 2
        got = disp.permittivity(LORENTZ, 0.0)
        assert got.imag == 0.0
        assert got.real == pytest.approx(expected, rel=1e-12)


class TestPermeability:
    def test_plasma_is_vacuum(self):
        m = disp.ColdPlasma(omega_p=1.0)
        for w in (0.5, 1.0, 7.0):
            assert disp.permeability(m, w) == 1.0

    def test_lorentz_static_value(self):
        expected = 1.0 + (171.09 / 397.89) ** 2
        assert disp.permeability(LORENTZ, 0.0).real == pytest.approx(
            expected, rel=1e-12)

    def test_nondispersive_constant(self):
        assert disp.permeability(disp.NonDispersive(eps=2.0, mu=3.0), 5.0) == 3.0


class TestRefractionIndex:
    def test_vacuum(self):
        assert disp.branch_sqrt_product(1.0, 1.0) == 1.0

    def test_double_negative_gives_negative_real_part(self):
        n = disp.branch_sqrt_product(-1.0 + 1e-9j, -1.0 + 1e-9j)
        assert n.real == pytest.approx(-1.0, abs=1e-8)

    def test_lorentz_band_is_left_handed(self):
        n = disp.refraction_index(LORENTZ, omega_from_thz(420.0))
        assert n.real < 0

    def test_degenerate_medium_raises(self):
        with pytest.raises(DegenerateMedium):
            disp.branch_sqrt_product(0.0, 1.0)

    def test_square_recovers_product_randomized(self):
        # branch choice must keep n**2 == eps*mu for eps, mu off the cut
        rng = np.random.default_rng(3)
        for _ in range(200):
            eps = complex(rng.uniform(-5, 5), rng.uniform(1e-6, 5))
            mu = complex(rng.uniform(-5, 5), rng.uniform(1e-6, 5))
            n = disp.branch_sqrt_product(eps, mu)
            assert abs(n * n - eps * mu) <= 1e-12 * abs(eps * mu)


class TestSample:
    def test_plasma_velocity_identity_point(self):
        s = disp.sample(disp.ColdPlasma(omega_p=1.0), 2.0)
        assert s.v_phase == pytest.approx(2.0 / math.sqrt(3.0), rel=1e-14)
        assert s.v_group == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-14)
        assert s.v_phase * s.v_group == pytest.approx(1.0, rel=1e-12)

    def test_plasma_velocity_identity_sweep(self):
        m = disp.ColdPlasma(omega_p=1.0)
        for w in np.linspace(1.01, 40.0, 200):
            s = disp.sample(m, float(w))
            assert s.v_phase * s.v_group == pytest.approx(1.0, rel=1e-12)

    def test_plasma_evanescent_branch(self):
        s = disp.sample(disp.ColdPlasma(omega_p=2.0), 1.0)
        assert not s.propagating
        assert s.k.real == 0.0 and s.k.imag == pytest.approx(math.sqrt(3.0))
        assert s.v_group is None

    def test_nondispersive_no_dispersion(self):
        s = disp.sample(disp.NonDispersive(eps=1.0, mu=1.0), 3.7)
        assert s.v_phase == s.v_group == 1.0
        assert s.k_second == 0.0

    def test_lorentz_marker_phase_velocity(self):
        s = disp.sample(LORENTZ, omega_from_thz(417.82))
        assert s.v_phase == pytest.approx(-0.31673, abs=5e-4)

    def test_band_negativity_grid(self):
        for f in np.linspace(410.0, 432.0, 100):
            assert disp.sample(LORENTZ, omega_from_thz(float(f))).n.real < 0

    def test_pure_function(self):
        w = omega_from_thz(421.3)
        a, b = disp.sample(LORENTZ, w), disp.sample(LORENTZ, w)
        assert a == b

    def test_sample_matches_pointwise_ops(self):
        w = omega_from_thz(424.0)
        s = disp.sample(LORENTZ, w)
        assert s.eps == disp.permittivity(LORENTZ, w)
        assert s.mu == disp.permeability(LORENTZ, w)
        assert s.n == disp.refraction_index(LORENTZ, w)
        assert abs(s.n * s.n - s.eps * s.mu) <= 1e-12 * abs(s.eps * s.mu)

    def test_sample_eps_mu_bitwise_on_grid(self):
        # sample and permittivity/permeability share one resonance formula;
        # w**2 through libm pow and w*w can differ in the last bit
        for w in omega_from_thz(np.linspace(380.0, 520.0, 2001)).tolist() + [
                0.6146128402223965, 0.6155481110634424]:
            s = disp.sample(LORENTZ, w)
            assert s.eps == disp.permittivity(LORENTZ, w)
            assert s.mu == disp.permeability(LORENTZ, w)


def _scalar_route(model, omegas):
    """Re n, |n| and the propagating flag from scalar ``sample`` calls; a
    point where ``sample`` raises counts as not propagating with n = 0.
    Checks on the way that the scalar ``index_and_flag`` gives Re n and the
    flag bit for bit as ``sample`` does, and raises where it raises."""
    re, mag, flag = [], [], []
    for w in map(float, omegas):
        try:
            s = disp.sample(model, w)
        except (DegenerateMedium, ZeroFrequency) as err:
            with pytest.raises(type(err)):
                disp.index_and_flag(model, w)
            re.append(0.0), mag.append(0.0), flag.append(False)
            continue
        n_real, propagating = disp.index_and_flag(model, w)
        assert type(propagating) is bool and propagating == s.propagating
        assert repr(n_real) == repr(s.n.real), w
        re.append(s.n.real), mag.append(abs(s.n)), flag.append(s.propagating)
    return np.array(re), np.array(mag), np.array(flag)


def _edge_grid(omega_edge, n=2001):
    return np.linspace(omega_edge * (1 - 1e-6), omega_edge * (1 + 1e-6), n)


class TestIndexAndMask:
    """The array route ``wavenumber_and_group`` equals the scalar routes:
    its finite-v_g mask the propagating flag exactly, Re k to 1e-12 of
    |omega n| (numpy and Python divide complex numbers with different
    roundings).  The scalar ``index_and_flag`` equals ``sample`` bit for
    bit and raises what it raises."""

    @pytest.mark.parametrize("model,omegas", [
        (LORENTZ, omega_from_thz(np.linspace(380.0, 520.0, 14001))),
        # the strip above the electric resonance where Im n ~ |Re n|
        (LORENTZ, omega_from_thz(np.linspace(409.82, 409.84, 4001))),
        # upper edge of the left-handed band (mu = 0) and the eps zero
        (LORENTZ, _edge_grid(math.hypot(LORENTZ.omega_tm, LORENTZ.omega_pm))),
        (LORENTZ, _edge_grid(math.hypot(LORENTZ.omega_te, LORENTZ.omega_pe))),
        (disp.ColdPlasma(omega_p=1.0), np.linspace(-3.0, 3.0, 6001)),
        (disp.ColdPlasma(omega_p=1.0), _edge_grid(1.0)),
        (disp.ColdPlasma(omega_p=1.0), -_edge_grid(1.0)),
        (disp.NonDispersive(eps=2.0, mu=1.5), np.linspace(0.1, 10.0, 101)),
    ])
    def test_equals_scalar_sample(self, model, omegas):
        k, vg = disp.wavenumber_and_group(model, omegas)
        re, mag, flag = _scalar_route(model, omegas)
        if not isinstance(model, disp.NonDispersive):
            assert flag.any() and not flag.all()    # the grid meets an edge
        np.testing.assert_array_equal(np.isfinite(vg), flag)
        assert np.all(np.abs(k - omegas * re) <= 1e-12 * np.abs(omegas) * mag)

    @pytest.mark.parametrize("angle", [0.0, 1e-11, -1e-11])
    def test_band_edges_equal_scalar_sample(self, rotate_array_index, angle):
        # the band table bisects each edge to within an ulp of where the
        # propagating rule flips, so there the two routes' roundings could
        # disagree.  A window end where the array route reads v_g NaN steps
        # inward, so each end of the scans' grid has a finite v_g and the
        # scalar route, on which the scans polish, propagates there; also
        # with the array n turned 20 times further off than numpy's
        rotate_array_index(angle)
        ends, moved = set(), 0
        for f0 in np.linspace(380.0, 1000.0, 63):
            for band in sph._bands(LORENTZ, omega_from_thz(f0)):
                w, _, vg = sph._base_grid(LORENTZ, (band,), 4001)
                assert np.isfinite(vg[[0, -1]]).all()
                ends |= {float(w[0]), float(w[-1])}
                moved += (w[0], w[-1]) != band
        assert all(disp.index_and_flag(LORENTZ, e)[1] for e in ends)
        assert moved or not angle

    @pytest.mark.parametrize("model,omega,error", [
        (LORENTZ, math.nan, ValueError),
        (disp.ColdPlasma(omega_p=1.0), math.inf, ValueError),
        (disp.NonDispersive(), -math.inf, ValueError),
        (disp.ColdPlasma(omega_p=1.0), 0.0, ZeroFrequency),
        (disp.ColdPlasma(omega_p=1.0), -0.0, ZeroFrequency),
        # lossless resonances with w**2 = omega_t**2 + omega_p**2 exactly
        (disp.LorentzMetamaterial(4.0, 3.0, 0.0, 1.0, 1.0, 0.0), 5.0,
         DegenerateMedium),
        (disp.LorentzMetamaterial(1.0, 1.0, 0.0, 4.0, 3.0, 0.0), 5.0,
         DegenerateMedium),
        (LORENTZ, 1e52, FrequencyOutOfRange),
        # on the pole of a lossless oscillator, w = omega_t exactly
        (disp.LorentzMetamaterial(4.0, 3.0, 0.0, 1.0, 1.0, 0.0), 3.0,
         DegenerateMedium),
        (disp.LorentzMetamaterial(1.0, 1.0, 0.0, 4.0, 3.0, 0.0), 3.0,
         DegenerateMedium),
    ])
    def test_scalar_routes_raise_alike(self, model, omega, error):
        with pytest.raises(error):
            disp.sample(model, omega)
        with pytest.raises(error):
            disp.index_and_flag(model, omega)
        with pytest.raises(error):
            disp._wave_floats(model, omega)

    def test_zero_frequency_plasma_not_propagating(self):
        k, vg = disp.wavenumber_and_group(disp.ColdPlasma(omega_p=1.0),
                                          np.array([0.0, 2.0]))
        assert np.isnan(vg[0]) and np.isfinite(vg[1])
        assert k[0] == 0.0

    def test_nonfinite_raises(self):
        for model in (LORENTZ, disp.ColdPlasma(omega_p=1.0),
                      disp.NonDispersive()):
            for w in (math.nan, math.inf, -math.inf):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match="finite"):
                        disp.wavenumber_and_group(model, np.array([1.0, w]))

    def test_branch_sqrt_product_arrays(self):
        rng = np.random.default_rng(5)
        eps = rng.uniform(-5, 5, 200) + 1j * rng.uniform(1e-6, 5, 200)
        mu = rng.uniform(-5, 5, 200) + 1j * rng.uniform(1e-6, 5, 200)
        n = disp.branch_sqrt_product(eps, mu)
        for a, b, got in zip(eps, mu, n):
            want = disp.branch_sqrt_product(complex(a), complex(b))
            assert abs(got - want) <= 1e-14 * abs(want)
        zero = disp.branch_sqrt_product(np.array([0j, 1 + 0j]),
                                        np.array([1 + 0j, 0j]))
        assert zero.tolist() == [0j, 0j]


def _flag(model, w):
    """index_and_flag's flag; a point where it raises (an exact pole or
    zero of a lossless oscillator) counts as not propagating."""
    try:
        return disp.index_and_flag(model, w)[1]
    except DegenerateMedium:
        return False


def _flags(model, omegas):
    return np.array([_flag(model, w) for w in omegas.tolist()])


def _table_mask(model, omegas):
    return np.any([(lo <= omegas) & (omegas <= hi)
                   for lo, hi in disp._band_table(model)], axis=0)


LOSSLESS = disp.lorentz_from_thz(gamma_e=0.0, gamma_m=0.0)
TABLE_MODELS = [LORENTZ, LOSSLESS, disp.ColdPlasma(omega_p=1.0),
                disp.ColdPlasma(omega_p=0.0), disp.NonDispersive(eps=2.0)]
lorentz_models = st.builds(
    disp.LorentzMetamaterial,
    omega_pe=st.floats(0.0, 5.0), omega_te=st.floats(0.1, 10.0),
    gamma_e=st.one_of(st.just(0.0), st.floats(1e-5, 0.2)),
    omega_pm=st.floats(0.0, 5.0), omega_tm=st.floats(0.1, 10.0),
    gamma_m=st.one_of(st.just(0.0), st.floats(1e-5, 0.2)))


class TestBandTable:
    """``dispersion._band_table``: polynomial roots polished to the
    adjacent floats where ``index_and_flag`` flips."""

    def _check_edges(self, model):
        table = disp._band_table(model)
        for (lo, hi), nxt in zip(table, table[1:]):
            assert lo < hi < nxt[0]
        for lo, hi in table:
            for edge, outward in ((lo, -math.inf), (hi, math.inf)):
                if 0.0 < edge < math.inf:
                    assert _flag(model, edge)
                    assert not _flag(model, math.nextafter(edge, outward))
        return table

    def test_default_lorentz_edges(self):
        table = self._check_edges(LORENTZ)
        edges = [round(thz_from_omega(e), 6) for band in table for e in band
                 if 0.0 < e < math.inf]
        assert edges == [397.889981, 409.820054, 433.114546, 506.958505]
        assert table[0][0] == 0.0 and table[-1][1] == math.inf

    @pytest.mark.parametrize("model", TABLE_MODELS)
    def test_edges_flip(self, model):
        self._check_edges(model)

    def test_plasma_edge_is_the_cutoff(self):
        ((lo, hi),) = disp._band_table(disp.ColdPlasma(omega_p=1.0))
        assert lo == math.nextafter(1.0, 2.0) and hi == math.inf
        assert disp._band_table(disp.NonDispersive()) == ((0.0, math.inf),)

    @settings(max_examples=200, deadline=None)
    @given(model=lorentz_models)
    def test_drawn_lorentz_edges_flip(self, model):
        self._check_edges(model)

    @pytest.mark.parametrize("model", TABLE_MODELS)
    def test_mask_equals_index_and_mask(self, model):
        # random frequencies over every edge, plus the edges and their
        # neighbouring floats, against the scalar flag that defines the table
        rng = np.random.default_rng(5)
        edges = [e for band in disp._band_table(model) for e in band
                 if 0.0 < e < math.inf]
        top = 2.0 * max(edges, default=1.0)
        omegas = np.r_[rng.uniform(0.0, top, 20000),
                       [e + k * np.spacing(e) for e in edges
                        for k in range(-3, 4)]]
        np.testing.assert_array_equal(_table_mask(model, omegas),
                                      _flags(model, omegas))

    @settings(max_examples=200, deadline=None)
    @given(model=lorentz_models)
    # a triple root at omega_te, which np.roots returns as a complex cluster
    @example(model=disp.LorentzMetamaterial(
        omega_pe=0.00188, omega_te=0.1015625, gamma_e=0.0, omega_pm=0.0,
        omega_tm=0.1015625, gamma_m=0.0))
    def test_drawn_lorentz_mask_equals_index_and_mask(self, model):
        rng = np.random.default_rng(6)
        top = 1.5 * max(model.omega_te, model.omega_tm,
                        math.hypot(model.omega_te, model.omega_pe),
                        math.hypot(model.omega_tm, model.omega_pm))
        omegas = rng.uniform(1e-9, top, 2000)
        np.testing.assert_array_equal(_table_mask(model, omegas),
                                      _flags(model, omegas))

    def test_numpy_fields_do_not_share_a_table(self):
        # a model with numpy.float64 fields hashes equal to the float one
        # and used to round apart, so the table cached for whichever came
        # first served both; the fields are stored as floats now
        thz = dict(f_pe=157.54199897866545, gamma_e=0.4911147169339933,
                   f_te=6.647642948167066, f_pm=154.4035677186596,
                   gamma_m=283.94241078882663, f_tm=1e-12)
        disp._band_table.cache_clear()
        numpy_model = disp.lorentz_from_thz(
            **{k: np.float64(v) for k, v in thz.items()})
        disp._band_table(numpy_model)
        model = disp.lorentz_from_thz(**thz)
        assert disp._band_table(model) == disp._band_table.__wrapped__(model)
        for m in (numpy_model, disp.ColdPlasma(omega_p=np.float64(2.0)),
                  disp.NonDispersive(eps=np.float64(2.0), mu=np.int64(1))):
            assert all(type(v) is float for v in vars(m).values())

    def test_built_on_first_use(self):
        model = disp.lorentz_from_thz(f_te=420.0)
        before = disp._band_table.cache_info()
        assert disp._band_table(model) is disp._band_table(model)
        after = disp._band_table.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) \
            == (1, 1)


def _chain_reference(model, w):
    """eps, mu, n, Re k, k' and k'' of the metamaterial written as one
    function, as the chain stood before its first-derivative part became a
    helper of its own (the reference for bit-equality)."""
    eps, mu, n, de, dm = disp._lorentz_index(model, w)
    pe2, pm2 = model.omega_pe ** 2, model.omega_pm ** 2
    ge = 2.0 * w + 1j * model.gamma_e
    gm = 2.0 * w + 1j * model.gamma_m
    deps = pe2 * ge / de ** 2
    dmu = pm2 * gm / dm ** 2
    d2eps = pe2 * (2.0 / de ** 2 + 2.0 * ge ** 2 / (de * (de * de)))
    d2mu = pm2 * (2.0 / dm ** 2 + 2.0 * gm ** 2 / (dm * (dm * dm)))
    p1 = deps * mu + eps * dmu
    p2 = d2eps * mu + 2.0 * deps * dmu + eps * d2mu
    dn = p1 / (2.0 * n)
    d2n = (p2 - 2.0 * dn * dn) / (2.0 * n)
    return (eps, mu, n, w * n.real, n.real + w * dn.real,
            2.0 * dn.real + w * d2n.real)


def _bits(values):
    return [np.asarray(v).tobytes() for v in values]


class TestLorentzSlope:
    """``_lorentz_slope`` (eps, mu, n, k, k') and ``_lorentz_chain`` built
    on it give the one-function chain's values bit for bit, on arrays and
    scalars, and ``wavenumber_and_group`` its k and 1/k'."""

    def _check(self, model, w):
        with np.errstate(all="ignore"):
            ref = _chain_reference(model, w)
            first = disp._lorentz_slope(model, w)[0]
            assert _bits(disp._lorentz_chain(model, w)) == _bits(ref)
            assert _bits(first) == _bits(ref[:5])
            k, vg = disp.wavenumber_and_group(model, w)
            n, kp = ref[2], ref[4]
            ok = disp._wave_dominated(n) & (n.real != 0) & (kp != 0)
            assert _bits((k, vg)) == _bits((ref[3], np.divide(
                1.0, kp, out=np.full(w.shape, np.nan), where=ok)))
        for x in map(float, w[::97]):
            assert _bits(disp._lorentz_chain(model, x)) \
                == _bits(_chain_reference(model, x))

    def test_random_grids(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(0.1, 1.2, 2))
            self._check(LORENTZ, np.sort(rng.uniform(lo, hi, 2000)))

    @settings(max_examples=100, deadline=None)
    @given(model=lorentz_models, seed=st.integers(0, 2 ** 32 - 1))
    def test_drawn_models(self, model, seed):
        top = 1.5 * max(model.omega_te, model.omega_tm,
                        math.hypot(model.omega_te, model.omega_pe),
                        math.hypot(model.omega_tm, model.omega_pm))
        rng = np.random.default_rng(seed)
        self._check(model, np.sort(rng.uniform(1e-9, top, 500)))


class TestWavenumberAndGroup:
    @pytest.mark.parametrize("model,omegas", [
        (LORENTZ, omega_from_thz(np.linspace(380.0, 520.0, 1401))),
        (LORENTZ, omega_from_thz(np.geomspace(0.42, 4200.0, 401))),
        (disp.ColdPlasma(omega_p=1.0), np.linspace(0.5, 8.0, 301)),
        (disp.NonDispersive(eps=2.0, mu=1.5), np.linspace(0.1, 10.0, 101)),
    ])
    def test_equals_scalar_sample(self, model, omegas):
        k, vg = disp.wavenumber_and_group(model, omegas)
        for w, k_w, vg_w in zip(map(float, omegas), k, vg):
            s = disp.sample(model, w)
            assert abs(k_w - s.k.real) <= 1e-12 * w * abs(s.n)
            if s.v_group is None:
                assert math.isnan(vg_w)
            else:
                assert abs(vg_w - s.v_group) <= 1e-11 * abs(s.v_group)

    def test_no_warning_up_to_a_carrier_of_1e12(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w0 in (1e-12, 1.0, 1e12):
                disp.wavenumber_and_group(
                    LORENTZ, np.geomspace(1e-3 * w0, 10.0 * w0, 2001))


class TestLorentzOverflow:
    def test_typed_error_where_the_chain_overflows(self):
        assert disp.sample(LORENTZ, 1e50).v_group == pytest.approx(1.0)
        for route in (lambda w: disp.sample(LORENTZ, w),
                      lambda w: disp.wavenumber_and_group(LORENTZ, [1.0, w]),
                      lambda w: disp.index_and_flag(LORENTZ, w)):
            for w in (1e52, -1e52, 1e200):
                with pytest.raises(FrequencyOutOfRange):
                    route(w)

    def test_band_scan_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(FrequencyOutOfRange):
                fld.metamaterial_doppler_1d(LORENTZ, 1e200, 0.5)


class TestWaveFloats:
    """``_wave_floats`` is ``sample``'s (k.real, v_group, k_second) bit for
    bit, and raises EvanescentRegime where v_group is None."""

    @pytest.mark.parametrize("model,omegas", [
        (LORENTZ, omega_from_thz(np.linspace(380.0, 520.0, 2801))),
        (LORENTZ, _edge_grid(math.hypot(LORENTZ.omega_tm, LORENTZ.omega_pm))),
        (LORENTZ, omega_from_thz(np.geomspace(0.42, 4200.0, 401))),
        (disp.ColdPlasma(omega_p=1.0), np.linspace(-3.0, 3.0, 601)),
        (disp.ColdPlasma(omega_p=1.0), _edge_grid(1.0)),
        (disp.NonDispersive(eps=2.0, mu=1.5), np.linspace(0.0, 10.0, 101)),
    ])
    def test_equals_sample(self, model, omegas):
        kinds = set()
        for w in map(float, omegas):
            try:
                s = disp.sample(model, w)
            except ZeroFrequency:
                with pytest.raises(ZeroFrequency):
                    disp._wave_floats(model, w)
                continue
            kinds.add(s.v_group is None)
            if s.v_group is None:
                with pytest.raises(EvanescentRegime):
                    disp._wave_floats(model, w)
            else:
                assert repr(disp._wave_floats(model, w)) \
                    == repr((s.k.real, s.v_group, s.k_second))
        if not isinstance(model, disp.NonDispersive):
            assert kinds == {True, False}    # the grid meets an edge


class TestGroupVelocityDerivatives:
    """v_group must equal 1/k' with k' cross-checked by central differences."""

    @pytest.mark.parametrize("model,omegas", [
        (disp.ColdPlasma(omega_p=1.0), np.linspace(1.2, 8.0, 25)),
        (disp.NonDispersive(eps=2.0, mu=1.5), np.linspace(0.5, 5.0, 10)),
        (LORENTZ, omega_from_thz(np.linspace(411.0, 432.5, 25))),
    ])
    def test_against_finite_difference(self, model, omegas):
        for w in np.atleast_1d(omegas):
            w = float(w)
            s = disp.sample(model, w)
            h = 1e-6 * w
            kp = (disp.sample(model, w + h).k.real
                  - disp.sample(model, w - h).k.real) / (2 * h)
            assert abs(s.v_group - 1.0 / kp) <= 1e-5 * abs(s.v_group)

    def test_k_second_against_finite_difference(self):
        for w in omega_from_thz(np.linspace(412.0, 432.0, 15)):
            w = float(w)
            s = disp.sample(LORENTZ, w)
            h = 1e-5 * w
            kpp = (disp.sample(LORENTZ, w + h).k.real
                   - 2 * disp.sample(LORENTZ, w).k.real
                   + disp.sample(LORENTZ, w - h).k.real) / h ** 2
            assert kpp == pytest.approx(s.k_second, rel=1e-4)


def test_model_validation():
    with pytest.raises(ValueError):
        disp.NonDispersive(eps=-1.0, mu=1.0)
    with pytest.raises(ValueError):
        disp.ColdPlasma(omega_p=-0.1)
    with pytest.raises(ValueError):
        disp.LorentzMetamaterial(omega_pe=1, omega_te=0.0, gamma_e=0,
                                 omega_pm=1, omega_tm=1, gamma_m=0)
