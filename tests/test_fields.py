"""Field assembly, closed-form Doppler formulas, planar metamaterial solver
and the Cherenkov gate."""

import math
import sys
import threading

import numpy as np
import pytest

from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift import validation as val
from dopshift.errors import (BelowCutoff, GroupVelocityMatchesSource,
                             NoCherenkovRoot, NoRootInBand, SuperluminalMach)
from dopshift.units import omega_from_thz, thz_from_omega

PLASMA = disp.ColdPlasma(omega_p=1.0)
VACUUM = disp.NonDispersive(eps=1.0, mu=1.0)
LORENTZ = disp.lorentz_from_thz()


class TestPlasmaClosedForm:
    def test_zero_mach_is_exact(self):
        assert fld.plasma_doppler_closed_form(2.0, 1.0, 0.0, True) == 2.0
        assert fld.plasma_doppler_closed_form(2.0, 1.0, 0.0, False) == 2.0

    def test_zero_plasma_frequency_limit(self):
        up = fld.plasma_doppler_closed_form(2.0, 0.0, 0.5, True)
        dn = fld.plasma_doppler_closed_form(2.0, 0.0, 0.5, False)
        assert abs(up - 4.0) <= 1e-12 * 4.0
        assert abs(dn - 4.0 / 3.0) <= 1e-12 * 4.0 / 3.0

    def test_reference_value_and_residual(self):
        # the returned root must satisfy the Doppler equation exactly
        w = fld.plasma_doppler_closed_form(2.0, 1.0, 0.5, True)
        assert w == pytest.approx((2.0 + 0.5 * math.sqrt(3.25)) / 0.75,
                                  rel=1e-14)
        assert -math.sqrt(w * w - 1.0) * 0.5 + (w - 2.0) == pytest.approx(
            0.0, abs=1e-12)

    def test_guards(self):
        with pytest.raises(SuperluminalMach):
            fld.plasma_doppler_closed_form(2.0, 1.0, 1.0, True)
        with pytest.raises(BelowCutoff):
            fld.plasma_doppler_closed_form(0.9, 1.0, 0.5, True)

    def test_carrier_one_ulp_above_cutoff(self):
        # w0 > wp and 0 <= M < 1 give disc >= w0**2 - wp**2 >= 0 in floats
        # too, so both branches answer right above the cutoff
        for omega_p in (0.3, 1.0, 7.0):
            w0 = math.nextafter(omega_p, math.inf)
            for mach in (0.0, 0.999):
                for approaching in (True, False):
                    w = fld.plasma_doppler_closed_form(w0, omega_p, mach,
                                                       approaching)
                    assert math.isfinite(w) and w > 0


# (medium, carrier THz, v, sign, repr of the roots).  The non-dispersive
# 420 THz sign +1 root was 0.37725210395130276, one ulp above
# w0/(1 + n v), until the band clip became exactly 10 omega0 instead of
# the last march point: its scan grid moved, and its root is now w0/1.75.
GOLDEN_ROOTS = [
    ("lorentz", 415.0, 0.5, +1, ["0.6807042906557053"]),
    ("lorentz", 428.0, 0.3, +1, ["0.6807932004724463"]),
    ("lorentz", 600.0, 0.5, +1, ["0.8170654170073607"]),
    ("lorentz", 600.0, 0.5, -1, ["1.7921188835978645"]),
    ("nondispersive", 420.0, 0.5, +1, ["0.3772521039513027"]),
    ("nondispersive", 420.0, 0.5, -1, ["2.640764727659119"]),
    ("nondispersive", 431.7, 0.3, -1, ["1.2337858581498284"]),
]


def _window(model, omega0):
    """The window of ``stationary_phase._bands`` that holds omega0: the
    range the band scan takes when given none."""
    return next(b for b in sph._bands(model, omega0) if b[0] <= omega0 <= b[1])


def _scalar_scan_roots(model, omega0, v, sign, omega_range, n_scan=4001):
    """The collinear scan with every grid point taken from scalar sample."""
    def g(w):
        s = disp.sample(model, w)
        return w * (1.0 + sign * s.n.real * v) - omega0 if s.propagating \
            else math.nan

    grid = np.linspace(omega_range[0], omega_range[1], n_scan).tolist()
    vals = [g(w) for w in grid]
    roots = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if math.isnan(fa) or math.isnan(fb):
            continue
        if fa == 0.0:
            roots.append(a)
        elif fa * fb < 0:
            roots.append(sph._brentq(g, a, b, xtol=1e-14, rtol=1e-15))
    if vals[-1] == 0.0:
        roots.append(grid[-1])
    return sorted(roots)


class TestDoppler1D:
    def test_vacuum_both_signs(self):
        w0 = 3.0
        plus = fld.metamaterial_doppler_1d(VACUUM, w0, 0.5, +1)
        minus = fld.metamaterial_doppler_1d(VACUUM, w0, 0.5, -1)
        assert plus == [pytest.approx(2.0 * w0 / 3.0, rel=1e-12)]
        assert minus == [pytest.approx(2.0 * w0, rel=1e-12)]

    def test_lorentz_band_root_satisfies_equation(self):
        w0 = omega_from_thz(420.0)
        roots = fld.metamaterial_doppler_1d(LORENTZ, w0, 0.5, +1)
        assert len(roots) == 1
        w = roots[0]
        n = disp.sample(LORENTZ, w).n.real
        assert w * (1.0 + 0.5 * n) == pytest.approx(w0, rel=1e-12)

    def test_no_root_raises(self):
        # minus branch has no root inside the left-handed band
        with pytest.raises(NoRootInBand):
            fld.metamaterial_doppler_1d(LORENTZ, omega_from_thz(420.0), 0.5, -1)

    def test_flag_outside_every_band_raises(self):
        # an overdamped magnetic oscillator (gamma_m far above f_tm): near
        # omega_tm the propagating flag is rounding noise, and here it
        # propagates between the table's bands
        model = disp.lorentz_from_thz(
            f_pe=157.54199897866545, gamma_e=0.4911147169339933,
            f_te=6.647642948167066, f_pm=154.4035677186596,
            gamma_m=283.94241078882663, f_tm=1e-12)
        w0 = 1.8080194274339623e-15
        assert disp.index_and_flag(model, w0)[1]
        assert not any(lo <= w0 <= hi for lo, hi in disp._band_table(model))
        with pytest.raises(NoRootInBand, match="no propagating band holds"):
            fld.metamaterial_doppler_1d(model, w0, 0.5)

    @pytest.mark.parametrize("omega0",
                             [0.0, -1.0, 1e-322, 1e308, math.inf, math.nan])
    @pytest.mark.parametrize("model", [LORENTZ, PLASMA, VACUUM],
                             ids=["lorentz", "plasma", "vacuum"])
    def test_carrier_not_above_zero_raises(self, model, omega0):
        # refused before the plasma index, which diverges at 0, is sampled,
        # and wherever the cut [1e-3, 10] omega0 underflows to 0 or
        # overflows (1e-322, 1e308), which would reach log2(0) or round(inf)
        with pytest.raises(NoRootInBand, match="no propagating band holds"):
            fld.metamaterial_doppler_1d(model, omega0, 0.5)

    @pytest.mark.parametrize("model", [LORENTZ, PLASMA, VACUUM],
                             ids=["lorentz", "plasma", "vacuum"])
    @pytest.mark.filterwarnings("error")
    def test_nonfinite_range_raises(self, model):
        for omega_range in ((1.0, math.inf), (math.nan, 2.0)):
            with pytest.raises(ValueError, match="frequency must be finite"):
                fld.metamaterial_doppler_1d(model, 1.5, 0.5,
                                            omega_range=omega_range)

    @pytest.mark.parametrize("angle", [0.0, 1e-11, -1e-11])
    @pytest.mark.parametrize("medium,f0_thz,v,sign,golden", GOLDEN_ROOTS)
    def test_golden_roots(self, rotate_array_index, medium, f0_thz, v, sign,
                          golden, angle):
        # repr values of the scalar-scan implementation that preceded the
        # array grid and the in-house Brent polish: the roots are unchanged
        # to the last bit, also with the array route's n turned 20 times
        # further off than numpy's rounding
        model = LORENTZ if medium == "lorentz" else disp.NonDispersive(
            eps=2.25, mu=1.0)
        rotate_array_index(angle)
        roots = fld.metamaterial_doppler_1d(model, omega_from_thz(f0_thz), v,
                                            sign)
        assert [repr(w) for w in roots] == golden

    def test_golden_roots_given_range(self):
        # the collinear reference check's approach-branch scan
        w0 = omega_from_thz(420.0)
        band = (math.hypot(LORENTZ.omega_te, LORENTZ.omega_pe), w0 / 0.5)
        roots = fld.metamaterial_doppler_1d(LORENTZ, w0, 0.5, -1,
                                            omega_range=band)
        assert [repr(w) for w in roots] == ["0.838222733649669",
                                            "1.1220044686557629"]

    @pytest.mark.parametrize("angle", [0.0, 1e-11, -1e-11])
    def test_root_on_grid_end(self, rotate_array_index, angle):
        # a range that starts or ends on a root puts a residual within
        # rounding of zero on the grid
        w0 = omega_from_thz(415.0)
        lo, hi = _window(LORENTZ, w0)
        root = fld.metamaterial_doppler_1d(LORENTZ, w0, 0.5)[0]
        rotate_array_index(angle)
        for band in [(lo, root), (root, hi)]:
            want = _scalar_scan_roots(LORENTZ, w0, 0.5, +1, band)
            if not want:
                with pytest.raises(NoRootInBand):
                    fld.metamaterial_doppler_1d(LORENTZ, w0, 0.5,
                                                omega_range=band)
                continue
            assert fld.metamaterial_doppler_1d(LORENTZ, w0, 0.5,
                                               omega_range=band) == want


class TestBandCaches:
    """The band table and the scan grid (``stationary_phase._base_grid``,
    which ``solve_line`` reads too) are cached; the cached arrays are
    read-only and equal a fresh evaluation."""

    def test_cached_grid_is_read_only(self):
        band = _window(LORENTZ, omega_from_thz(420.0))
        for a in sph._base_grid(LORENTZ, (band,), 4001):
            with pytest.raises(ValueError):
                a[0] = a[1]

    @pytest.mark.parametrize("model,f0", [
        (LORENTZ, 420.0), (LORENTZ, 600.0),
        (disp.NonDispersive(eps=2.25), 420.0), (PLASMA, 1000.0)])
    def test_cached_grid_equals_fresh_evaluation(self, model, f0):
        w0 = omega_from_thz(f0)
        fld.metamaterial_doppler_1d(model, w0, 0.5)
        band = _window(model, w0)
        grid = np.linspace(*band, 4001)
        for cached, fresh in zip(
                sph._base_grid(model, (band,), 4001),
                (grid, *disp.wavenumber_and_group(model, grid))):
            assert cached.tobytes() == fresh.tobytes()

    def test_one_table_and_one_grid_per_band(self):
        # 800 scans of the 409.82-433.11 THz band: one table, one grid
        disp._band_table.cache_clear()
        sph._base_grid.cache_clear()
        for f0 in np.linspace(410.0, 432.0, 400):
            for sign in (+1, -1):
                try:
                    fld.metamaterial_doppler_1d(LORENTZ, omega_from_thz(f0),
                                                0.5, sign)
                except NoRootInBand:
                    pass
        tables, grids = disp._band_table.cache_info(), \
            sph._base_grid.cache_info()
        assert (tables.misses, tables.hits) == (1, 799)
        assert (grids.misses, grids.hits) == (1, 799)

    def test_line_scan_and_band_scan_in_either_order(self):
        # solve_line and the band scan read one grid cache; whichever runs
        # first, both return the same bits
        w0, v = omega_from_thz(420.0), 0.5
        ctx = sph.PhaseContext(t=2.0, x=(0.01, 1.595, 0.0), omega0=w0,
                               trajectory=trj.OffsetLine(v=v),
                               dispersion=LORENTZ)

        def line():
            return [repr((p.omega_s, p.tau_s, p.det, p.residual_norm))
                    for p in sph.solve_line(ctx)]

        def scan():
            out = []
            for band in [None, *sph._bands(LORENTZ, w0, v)]:
                for sign in (+1, -1):
                    try:
                        out.append(repr(fld.metamaterial_doppler_1d(
                            LORENTZ, w0, v, sign, band)))
                    except NoRootInBand:
                        out.append(None)
            return out

        runs = []
        for order in ((line, scan), (scan, line)):
            sph._base_grid.cache_clear()
            runs.append({f.__name__: f() for f in order})
        assert runs[0] == runs[1] and runs[0]["line"]
        assert any(runs[0]["scan"])

    def test_threaded_scans_equal_serial(self):
        # every thread starts on empty caches; a torn cache entry or a
        # grid written by another scan would change a root
        models = [LORENTZ, disp.lorentz_from_thz(gamma_m=0.05),
                  disp.NonDispersive(eps=2.25), PLASMA]
        carriers = [(m, omega_from_thz(f)) for m in models
                    for f in np.linspace(412.0, 430.0, 12)]

        def scan(model, w0):
            out = []
            for sign in (+1, -1):
                try:
                    out.append(fld.metamaterial_doppler_1d(model, w0, 0.5,
                                                           sign))
                except NoRootInBand:
                    out.append(None)
            return out

        serial = [scan(*c) for c in carriers]
        disp._band_table.cache_clear()
        sph._base_grid.cache_clear()
        results = [None] * len(carriers)

        def work(k):
            for i in range(k, len(carriers), 6):
                results[i] = scan(*carriers[i])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == serial


class TestBrent:
    """The in-house Brent port returns scipy.optimize.brentq's float."""

    SMOOTH = [
        (lambda x: x ** 3 - 2.0 * x - 5.0, 1.0, 3.0),
        (math.cos, 0.1, 3.0),
        (lambda x: math.exp(x) - 3.0, -2.8, 3.4),
        (lambda x: 1e-3 * math.atan(x - 0.3), -0.13, 0.43),
        (lambda x: math.sin(10.0 * x) + 0.1 * x, -0.2, 0.25),
        (lambda x: x * x * x - 1e-9, -2.9, 2.3),
    ]

    @pytest.mark.parametrize("xtol,rtol", [(2e-12, 8.9e-16), (1e-14, 1e-15),
                                           (1e-6, 1e-10)])
    def test_matches_scipy_on_smooth_functions(self, xtol, rtol):
        optimize = pytest.importorskip("scipy.optimize")
        for f, a, b in self.SMOOTH:
            assert sph._brentq(f, a, b, xtol=xtol, rtol=rtol) == \
                optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)

    def test_matches_scipy_on_scan_brackets(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        calls = []
        port = sph._brentq

        def recording(f, a, b, **tol):
            root = port(f, a, b, **tol)
            calls.append((f, a, b, tol, root))
            return root

        monkeypatch.setattr(sph, "_brentq", recording)
        for f0 in np.linspace(405.0, 720.0, 22):
            for model in (LORENTZ, disp.NonDispersive(eps=2.25, mu=1.0)):
                for sign in (+1, -1):
                    try:
                        fld.metamaterial_doppler_1d(
                            model, omega_from_thz(float(f0)), 0.5, sign)
                    except NoRootInBand:
                        pass
        assert len(calls) > 40
        for f, a, b, tol, root in calls:
            assert root == optimize.brentq(f, a, b, **tol)

    def test_no_sign_change_raises(self):
        with pytest.raises(ValueError):
            sph._brentq(math.cos, 0.1, 0.2, xtol=1e-15, rtol=1e-15)

    def test_nan_raises(self):
        with pytest.raises(ValueError):
            sph._brentq(lambda x: math.nan if 0.4 < x < 0.6 else x - 0.45,
                        0.0, 1.0, xtol=1e-15, rtol=1e-15)

    def test_no_convergence_raises(self):
        with pytest.raises(RuntimeError):
            # cos has no float zero, so a zero tolerance is never met
            sph._brentq(math.cos, 0.1, 3.0, xtol=0.0, rtol=0.0)


class TestRetard1D:
    def test_frozen_group(self):
        assert fld.retard_1d(0.5, 0.0, 3.0, 7.0) == pytest.approx(6.0)

    def test_collocated(self):
        assert fld.retard_1d(0.5, 0.25, 0.5 * 7.0, 7.0) == pytest.approx(7.0)

    def test_matching_speeds_raise(self):
        with pytest.raises(GroupVelocityMatchesSource):
            fld.retard_1d(0.5, 0.5, 1.0, 2.0)


def _planar_point(w0, v, x1, x2, t):
    """The causal point nearest the carrier on the planar context (x3 = 0,
    offset H = 0), and the stationary-identity residual
    |omega_s - omega0 - Re k v_rad| there."""
    traj = trj.OffsetLine(v=v, H=0.0)
    sp = fld._nearest_point(sph.PhaseContext(
        t=t, x=(x1, x2, 0.0), omega0=w0, trajectory=traj,
        dispersion=LORENTZ), w0)
    k = disp.sample(LORENTZ, sp.omega_s).k.real
    v_rad = trj.geometry(traj, (x1, x2, 0.0), sp.tau_s).v_rad
    return sp, abs(sp.omega_s - w0 - k * v_rad)


class TestDoppler2D:
    def test_stationary_limit(self):
        w0 = omega_from_thz(420.0)
        sp, ident = _planar_point(w0, 0.0, 0.01, 1.595, 2.0)
        s = disp.sample(LORENTZ, w0)
        r = math.hypot(0.01, 1.595)
        assert sp.omega_s == pytest.approx(w0, abs=1e-12)
        assert sp.tau_s == pytest.approx(2.0 - r / s.v_group, rel=1e-12)
        assert ident <= 1e-10

    def test_slow_source_matches_planar_closed_form(self):
        # slow enough that the retarded root exists inside the band; the
        # planar Doppler relation is the stationary identity
        w0 = omega_from_thz(424.0)
        sp, ident = _planar_point(w0, 0.002, 0.005, 0.05, 20.0)
        assert sp.converged
        assert ident <= 1e-10

    def test_collinear_limit_is_continuous(self):
        # x1 -> 0 must approach the 1-D collinear answers monotonically
        w0 = omega_from_thz(424.0)
        v = 0.002
        roots = fld.metamaterial_doppler_1d(LORENTZ, w0, v, -1)
        w_1d = min(roots, key=lambda q: abs(q - w0))
        gaps = []
        for x1 in (1e-1, 1e-2, 1e-3):
            sp, ident = _planar_point(w0, v, x1, 0.05, 20.0)
            assert ident <= 1e-10
            gaps.append(abs(sp.omega_s - w_1d))
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < gaps[1] / 10.0        # quadratic approach in x1

    def test_collinear_point_next_to_the_band_top(self):
        # event B: the causal point nearest the carrier sits in the last
        # cell below the 433.1145 THz band top; the 1-D reference scan finds
        # it, as the enumerated route does
        w0, v = omega_from_thz(441.6937004289885), -0.6122854815120783
        x2, t = 0.8581163197374959, 3.0052730629750757
        w, tau, grad = fld._collinear_point(LORENTZ, w0, v, x2, t)
        assert thz_from_omega(w) == pytest.approx(433.11454, abs=1e-5)
        sp = fld._nearest_point(sph.PhaseContext(
            t=t, x=(0.0, x2, 0.0), omega0=w0,
            trajectory=trj.OffsetLine(v=v, H=0.0), dispersion=LORENTZ), w0)
        assert (w, tau) == pytest.approx((sp.omega_s, sp.tau_s), rel=1e-10)
        assert t - tau > 0 and grad <= 1e-9

class TestMetamaterialReferenceTargets:
    """The validation targets recomputed without _lorentz_chain or Newton:
    Re n from refraction_index, v_g by a central difference of omega Re n,
    and the reduced stationary equations solved by bisection."""

    @staticmethod
    def _bisect(fn, a, b):
        fa = fn(a)
        assert fa * fn(b) < 0
        for _ in range(80):
            m = 0.5 * (a + b)
            fm = fn(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        return 0.5 * (a + b)

    @staticmethod
    def _v_group(w, rel_step=1e-5):
        def k(x):
            return x * disp.refraction_index(LORENTZ, x).real

        h = rel_step * w
        return 2.0 * h / (k(w + h) - k(w - h))

    def test_marker_group_velocity(self):
        vg = self._v_group(omega_from_thz(val.REF_F_MARKER_THZ))
        assert vg == pytest.approx(val.REF_V_GROUP, rel=1e-5)

    @pytest.mark.parametrize("x1, ref", [(0.01, val.REF_2D), (0.0, val.REF_1D)])
    def test_causal_stationary_point(self, x1, ref):
        p = val.SCENARIO_2D
        w0 = omega_from_thz(p["f0_thz"])

        def doppler_root(tau):
            d2 = p["x2"] - p["v"] * tau
            v_rad = p["v"] * d2 / math.hypot(x1, d2)
            # At v_rad near 0.5 the positive-index band holds two roots,
            # near 533 and 714 THz; a tau-scan over [-20, 2) meets the
            # retardation equation on the upper one only.
            return self._bisect(
                lambda w: w - w0 - w * disp.refraction_index(
                    LORENTZ, w).real * v_rad,
                omega_from_thz(620.0), omega_from_thz(840.0))

        def retardation(tau):
            r = math.hypot(x1, p["x2"] - p["v"] * tau)
            return r / self._v_group(doppler_root(tau)) - (p["t"] - tau)

        tau = self._bisect(retardation, -5.0, p["t"] - 0.1)
        assert p["t"] - tau > 0
        assert abs(tau - ref["tau"]) < 1e-4
        assert abs(thz_from_omega(doppler_root(tau)) - ref["f_thz"]) < 1e-3


class TestMovingSourceFields:
    def test_zero_envelope_zero_fields(self):
        src = fld.SourceModel(omega0=2.0, envelope=lambda t: 0.0)
        out = fld.moving_source_fields(
            src, trj.StraightLine(velocity=(0.0, 0.5, 0.0)), PLASMA,
            (0.0, 4.0, 0.0), 1.0)
        assert len(out) == 1
        assert not out[0].H.any() and not out[0].E.any()

    def test_inverse_range_scaling(self):
        # observers along one fixed off-axis ray from a common emission
        # point, arrival times matched: identical (omega_s, tau_s, det),
        # so |H| must scale exactly as 1/r
        src = fld.SourceModel(omega0=2.0)
        traj = trj.StraightLine(velocity=(0.0, 0.5, 0.0))
        tau_ref = -3.0
        emit = trj.position(traj, tau_ref)
        ray = np.array([0.6, 0.8, 0.0])
        out = []
        for r in (5.0, 10.0):
            x = emit + r * ray
            t = tau_ref + r                    # c = 1: arrival after range r
            c = fld.moving_source_fields(src, traj, VACUUM, tuple(x), t)
            assert len(c) == 1
            assert c[0].point.tau_s == pytest.approx(tau_ref, abs=1e-9)
            out.append(c[0])
        a, b = out
        assert a.point.omega_s == pytest.approx(b.point.omega_s, rel=1e-12)
        assert a.point.det == pytest.approx(b.point.det, rel=1e-12)
        ratio = np.linalg.norm(a.H) / np.linalg.norm(b.H)
        assert ratio == pytest.approx(2.0, rel=1e-9)

    def test_stationary_source_reduction(self):
        # motionless modulated source: omega_s = omega0, det = -1, sgn = 0,
        # magnetic amplitude k |u x e| a / (4 pi r)
        src = fld.SourceModel(omega0=2.0, polarization=(0.0, 0.0, 1.0))
        out = fld.moving_source_fields(src, trj.OffsetLine(v=0.0, H=0.0),
                                       PLASMA, (0.0, 3.0, 0.0), 2.0)
        assert len(out) == 1
        c = out[0]
        s = disp.sample(PLASMA, 2.0)
        assert c.instantaneous_frequency == pytest.approx(2.0, abs=1e-12)
        assert c.point.det == pytest.approx(-1.0, rel=1e-12)
        assert c.point.signature == 0
        assert c.retarded_time == pytest.approx(3.0 / s.v_group, rel=1e-10)
        expected_h = s.k.real * 1.0 / (4.0 * math.pi * 3.0)
        assert np.linalg.norm(c.H) == pytest.approx(expected_h, rel=1e-9)
        assert c.doppler_shift == pytest.approx(0.0, abs=1e-12)

    def test_no_stationary_point_gives_empty_list(self):
        src = fld.SourceModel(omega0=omega_from_thz(420.0))
        out = fld.moving_source_fields(
            src, trj.OffsetLine(v=0.5, H=0.0), LORENTZ,
            (0.01, 1.595, 0.0), 2.0)
        assert out == []

    # The fold event's five causal points by the route of
    # TestMetamaterialReferenceTargets (Re n from refraction_index, v_g by a
    # central difference of omega Re n, here with step 1e-7 omega): at each
    # tau the Doppler equation is bisected in omega, and the retardation
    # mismatch then in tau, within (THz, tau) brackets that hold one point.
    FOLD_BRACKETS = [(415.5, 416.5, -24.0, -21.0),
                     (409.9, 410.5, 14.197, 14.217),
                     (397.1, 397.7, 14.38, 14.44),
                     (395.2, 395.6, 17.2, 17.6),
                     (429.5, 430.2, 32.0, 33.0)]

    @staticmethod
    def _fold_reference_point(w0, v, x, t, f_lo, f_hi, tau_lo, tau_hi):
        ref = TestMetamaterialReferenceTargets

        def doppler_root(tau):
            d2 = x[1] - v * tau
            v_rad = v * d2 / math.hypot(x[0], d2)
            return ref._bisect(lambda w: w - w0 - w * disp.refraction_index(
                LORENTZ, w).real * v_rad, omega_from_thz(f_lo),
                omega_from_thz(f_hi))

        def retardation(tau):
            r = math.hypot(x[0], x[1] - v * tau)
            return r / ref._v_group(doppler_root(tau), 1e-7) - (t - tau)

        tau = ref._bisect(retardation, tau_lo, tau_hi)
        return doppler_root(tau), tau

    def test_two_arrivals_near_group_velocity_fold(self):
        # a source slightly faster than the band's group-velocity minimum:
        # the carrier map omega0(omega) folds and several frequencies arrive
        # simultaneously; contributions come back sorted by emission time
        v, x, t = 0.007, (0.002, 0.1, 0.0), 40.0
        w0 = omega_from_thz(427.8)
        src = fld.SourceModel(omega0=w0)
        out = fld.moving_source_fields(
            src, trj.OffsetLine(v=v, H=0.0), LORENTZ, x, t,
            seed_box=((omega_from_thz(411.0), omega_from_thz(432.9)),
                      (-60.0, 39.0)), n_seeds=(12, 8))
        assert len(out) == 5
        taus = [c.point.tau_s for c in out]
        assert taus == sorted(taus)
        for c in out:
            s = disp.sample(LORENTZ, c.point.omega_s)
            g = trj.geometry(trj.OffsetLine(v=v, H=0.0), x, c.point.tau_s)
            assert abs(c.doppler_shift - s.k.real * g.v_rad) <= 1e-9
        for bracket in self.FOLD_BRACKETS:
            w, tau = self._fold_reference_point(w0, v, x, t, *bracket)
            assert len([c for c in out if (c.point.omega_s, c.point.tau_s)
                        == pytest.approx((w, tau), rel=1e-8)]) == 1


class TestCherenkov:
    def test_vacuum_refuses(self):
        with pytest.raises(NoCherenkovRoot):
            fld.cherenkov_solve(VACUUM, (0.0, 0.0, 0.5), (0.3, 0.4, 0.2), 2.0)

    def test_plasma_refuses(self):
        # phase velocity above c everywhere: no radiating point for v < 1
        with pytest.raises(NoCherenkovRoot):
            fld.cherenkov_solve(PLASMA, (0.0, 0.0, 0.9), (0.3, 0.4, 0.2), 2.0)

    def test_keeps_a_point_of_the_newton_search(self):
        # the pin is the point of Newton from 12 geometric starts, a route
        # independent of the enumeration
        contr = fld.cherenkov_solve(
            LORENTZ, (0.0, 0.0, 0.7727188172282535),
            (-0.9595425525798269, 0.8912013625972119, -0.729824274981469),
            2.0002757138240024)
        assert abs(contr.point.omega_s - 0.40674156684085017) <= 1e-9
        assert abs(contr.point.tau_s + 3.381540771017001) <= 1e-9
        assert contr.gate

    def test_answers_a_draw_the_newton_search_refused(self):
        # Newton from 12 geometric starts finds no root here; the point is
        # checked on the stationary identities
        v, t = 0.9025220936968503, 1.0484748362708456
        x = (0.2984807381089507, 0.7431116910505926, -0.18380306388803147)
        sp = fld.cherenkov_solve(LORENTZ, (0.0, 0.0, v), x, t).point
        assert abs(sp.omega_s - 0.34317905239153856) <= 1e-9
        assert abs(sp.tau_s + 1.2003131208403628) <= 1e-9
        s = disp.sample(LORENTZ, sp.omega_s)
        g = trj.geometry(trj.StraightLine(velocity=(0.0, 0.0, v)), x,
                         sp.tau_s)
        assert abs(sp.omega_s - s.k.real * g.v_rad) <= 1e-10
        assert abs(g.r / s.v_group - (t - sp.tau_s)) <= 1e-10
        assert t - sp.tau_s > 0

    def test_cone_angle(self):
        model = disp.NonDispersive(eps=4.0, mu=1.0)
        contr = fld.cherenkov_solve(model, (0.0, 0.0, 0.75), (0.3, 0.4, 0.2),
                                    2.0)
        g = trj.geometry(trj.StraightLine(velocity=(0.0, 0.0, 0.75)),
                         (0.3, 0.4, 0.2), contr.point.tau_s)
        assert math.acos(g.v_rad / 0.75) == pytest.approx(
            math.acos(2.0 / 3.0), abs=1e-8)

    def test_gate_flag_both_sides(self):
        model = disp.NonDispersive(eps=4.0, mu=1.0)
        # surface at x3 = v t - |x'| sqrt(beta**2-1) with beta = 1.5
        surf = 0.75 * 2.0 - 0.5 * math.sqrt(1.25)
        inside = fld.cherenkov_solve(model, (0.0, 0.0, 0.75),
                                     (0.3, 0.4, surf - 0.1), 2.0)
        outside = fld.cherenkov_solve(model, (0.0, 0.0, 0.75),
                                      (0.3, 0.4, surf + 0.1), 2.0)
        assert inside.gate and not outside.gate
        assert not outside.H.any() and not outside.E.any()

    def test_degenerate_point_has_zero_fields(self):
        model = disp.NonDispersive(eps=4.0, mu=1.0)
        contr = fld.cherenkov_solve(model, (0.0, 0.0, 0.75), (0.3, 0.4, 0.2),
                                    2.0)
        assert contr.point.degenerate
        assert not contr.H.any() and not contr.E.any()
        assert contr.instantaneous_frequency == 0.0


class TestClassification:
    def test_usual_blue_shift(self):
        assert fld.doppler_classification(2.0, 0.3) is fld.DopplerClass.BLUE_SHIFT

    def test_usual_red_shift(self):
        assert fld.doppler_classification(2.0, -0.3) is fld.DopplerClass.RED_SHIFT

    def test_inverse_band_reverses(self):
        assert fld.doppler_classification(-2.0, 0.3) is fld.DopplerClass.RED_SHIFT
        assert fld.doppler_classification(-2.0, -0.3) is fld.DopplerClass.BLUE_SHIFT

    def test_no_shift(self):
        assert fld.doppler_classification(2.0, 0.0) is fld.DopplerClass.NO_SHIFT


class TestStationaryIdentitySuite:
    def test_randomized_contexts(self):
        from dopshift.validation import CHECKS
        r = CHECKS["stationary-identity"]()
        assert r.passed, r.details
