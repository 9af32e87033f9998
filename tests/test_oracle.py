"""Oscillatory-integral quadrature: analytic values, cutoff independence,
linearity, conjugation, the phase-operator identity, the
integration-by-parts regularizer, and the pooled block loop: golden values,
independence of the worker count and callbacks kept on the calling thread."""

import threading

import numpy as np
import pytest

from dopshift import oracle as orc
from dopshift.errors import (GradientVanishesUnbounded, NoConvergenceInR,
                             PhaseComplexOnBox)

GAUSS2 = lambda w, t: np.exp(-0.5 * (w ** 2 + t ** 2))


class TestBump:
    @pytest.mark.parametrize("profile", ["exp", "exp2"])
    def test_plateau_and_support(self, profile):
        u = np.array([-1.2, -1.0, -0.5, 0.0, 0.3, 0.5, 1.0, 2.0])
        chi = orc.smooth_bump(u, profile)
        assert np.all(chi[np.abs(u) <= 0.5] == 1.0)
        assert np.all(chi[np.abs(u) >= 1.0] == 0.0)
        assert np.all((0.0 <= chi) & (chi <= 1.0))

    def test_profiles_differ_in_transition(self):
        u = np.array([0.7])
        assert orc.smooth_bump(u, "exp") != orc.smooth_bump(u, "exp2")


class TestQuadrature:
    def test_fresnel_value(self):
        ig, val, _ = orc.fresnel_case(40.0)
        res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
        assert abs(res.value - val) / abs(val) <= 1e-3
        assert res.estimated_error <= 1e-6 * abs(res.value) * 1.01

    def test_hyperbolic_saddle_vs_asymptotics(self):
        lam = 30.0
        ig, asym, exact = orc.hyperbolic_saddle_case(lam)
        res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
        assert abs(res.value - exact) / abs(exact) <= 1e-5
        assert abs(res.value - asym) / abs(res.value) <= 3.0 / lam

    def test_cutoff_profile_independence(self):
        ig, _, exact = orc.gaussian_saddle_case(25.0)
        a = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6, profile="exp")
        b = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6, profile="exp2")
        assert abs(a.value - b.value) <= 2e-6 * abs(a.value)

    def test_linearity(self):
        lam = 20.0
        phase = lambda w, t: 0.5 * (w ** 2 + t ** 2)
        grad = lambda w, t: (w * np.ones_like(t), t * np.ones_like(w))
        f = GAUSS2
        g = lambda w, t: np.exp(-((w - 0.3) ** 2 + t ** 2))
        mk = lambda amp: orc.OscillatoryIntegrand(amplitude=amp, phase=phase,
                                                  lam=lam, phase_grad=grad)
        fa = orc.oscillatory_integral_2d(mk(f), R0=3.0, tol=1e-7).value
        ga = orc.oscillatory_integral_2d(mk(g), R0=3.0, tol=1e-7).value
        combo = lambda w, t: 2.0 * f(w, t) - 0.7j * g(w, t)
        ca = orc.oscillatory_integral_2d(mk(combo), R0=3.0, tol=1e-7).value
        assert abs(ca - (2.0 * fa - 0.7j * ga)) <= 1e-6 * abs(ca)

    def test_conjugation(self):
        lam = 20.0
        grad = lambda w, t: (w * np.ones_like(t), t * np.ones_like(w))
        plus = orc.OscillatoryIntegrand(
            amplitude=GAUSS2, phase=lambda w, t: 0.5 * (w ** 2 + t ** 2),
            lam=lam, phase_grad=grad)
        minus = orc.OscillatoryIntegrand(
            amplitude=GAUSS2, phase=lambda w, t: -0.5 * (w ** 2 + t ** 2),
            lam=lam, phase_grad=lambda w, t: (-w * np.ones_like(t),
                                              -t * np.ones_like(w)))
        a = orc.oscillatory_integral_2d(plus, R0=3.0, tol=1e-7).value
        b = orc.oscillatory_integral_2d(minus, R0=3.0, tol=1e-7).value
        assert abs(b - np.conjugate(a)) <= 1e-6 * abs(a)

    def test_complex_phase_rejected(self):
        ig = orc.OscillatoryIntegrand(
            amplitude=GAUSS2,
            phase=lambda w, t: (w + 1j * t) * np.ones_like(w), lam=10.0)
        with pytest.raises(PhaseComplexOnBox):
            orc.oscillatory_integral_2d(ig, R0=2.0, tol=1e-5)

    def test_doubling_budget_exhausted(self, monkeypatch):
        ig, _, _ = orc.gaussian_saddle_case(20.0)
        monkeypatch.setattr(orc, "_MAX_DOUBLINGS", 0)
        with pytest.raises(NoConvergenceInR):
            orc.oscillatory_integral_2d(ig, R0=2.0, tol=1e-6)

    def test_node_budget_raises_before_a_pass(self, monkeypatch):
        # a budget of exactly the R = 2 pass's nodes: that pass runs, and the
        # R = 4 pass raises, naming its node count, instead of running
        ig, _, _ = orc.gaussian_saddle_case(20.0)
        grid, gx, gy, _, ext_x, ext_y = orc._probe_box(ig, 2.0)
        nx, ny = (len(orc._axis_rule(ext, grid, g, orc._POINTS_PER_OSC,
                                     orc._GL_ORDER)[0])
                  for ext, g in ((ext_x, gx), (ext_y, gy)))
        monkeypatch.setattr(orc, "_MAX_NODES", nx * ny)
        with pytest.raises(NoConvergenceInR, match=r"R = 4 needs \d+ nodes"):
            orc.oscillatory_integral_2d(ig, R0=2.0, tol=1e-12)


def golden_integrand(case, lam, ibp):
    ig = {"gaussian": orc.gaussian_saddle_case,
          "hyperbolic": orc.hyperbolic_saddle_case,
          "fresnel": orc.fresnel_case}[case](lam)[0]
    return orc.ibp_regularize(ig, 1) if ibp else ig


def bits(res):
    return (res.value.real.hex(), res.value.imag.hex(), res.R_used,
            res.estimated_error.hex())


# (case, lam, ibp): value, R_used and estimated_error at R0 = 3, tol = 1e-6,
# recorded with the single-threaded block loop that summed w_i w_j f e^{iS}
# over each block before the pooled loop replaced it.  Only the summation
# order changed, so the values must agree to 1e-12 relative and R_used must
# be identical.
GOLDEN = {
    ("gaussian", 20.0, False):
        (0.015668791665479704 + 0.3133758257823419j, 12.0,
         3.6195960166908683e-10),
    ("hyperbolic", 20.0, False):
        (0.313767301057426 - 2.0024657018372243e-17j, 6.0,
         1.1593415116806302e-10),
    ("fresnel", 20.0, False):
        (-2.4551531461096136e-13 + 0.3141592653591558j, 12.0,
         2.353333330611433e-09),
    ("hyperbolic", 24.0, True):
        (0.2615724267994421 + 1.3964369982438723e-14j, 6.0,
         5.297556812192584e-13),
}


class TestPooledBlocks:
    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_golden_values(self, key):
        value, r_used, err = GOLDEN[key]
        res = orc.oscillatory_integral_2d(golden_integrand(*key), R0=3.0,
                                          tol=1e-6)
        assert res.R_used == r_used
        assert abs(res.value - value) <= 1e-12 * abs(value)
        # the difference of two values that each moved by < 1e-12 |value|
        assert abs(res.estimated_error - err) <= 2e-12 * abs(value)

    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_bit_identical_for_any_worker_count(self, monkeypatch, key):
        ig = golden_integrand(*key)
        got = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(orc, "_workers", lambda n=workers: n)
            got.append(bits(orc.oscillatory_integral_2d(ig, R0=3.0,
                                                        tol=1e-6)))
        assert got[0] == got[1] == got[2]

    def test_callbacks_run_on_the_calling_thread(self):
        ig, _, _ = orc.gaussian_saddle_case(20.0)
        seen = set()

        def on(fn):
            def wrapped(w, t):
                seen.add(threading.get_ident())
                return fn(w, t)
            return wrapped

        orc.oscillatory_integral_2d(
            orc.OscillatoryIntegrand(amplitude=on(ig.amplitude),
                                     phase=on(ig.phase), lam=ig.lam,
                                     phase_grad=on(ig.phase_grad)),
            R0=3.0, tol=1e-6)
        assert seen == {threading.get_ident()}

    def test_callback_error_on_a_later_block_reaches_the_caller(self):
        class Boom(Exception):
            pass

        ig, _, _ = orc.hyperbolic_saddle_case(20.0)
        calls = []

        def amplitude(w, t):
            calls.append(w)
            if len(calls) == 8:     # block 5 of the R = 6 pass
                raise Boom("amplitude failed")
            return ig.amplitude(w, t)

        with pytest.raises(Boom):
            orc.oscillatory_integral_2d(
                orc.OscillatoryIntegrand(amplitude=amplitude, phase=ig.phase,
                                         lam=ig.lam,
                                         phase_grad=ig.phase_grad),
                R0=3.0, tol=1e-6)
        assert len(calls) == 8


class TestIbpRegularization:
    def _elliptic(self, lam=6.0, amp=None):
        grad = lambda w, t: (w * np.ones_like(t), t * np.ones_like(w))
        return orc.OscillatoryIntegrand(
            amplitude=amp or GAUSS2, phase=lambda w, t: 0.5 * (w ** 2 + t ** 2),
            lam=lam, phase_grad=grad)

    def test_value_unchanged(self):
        # compact-support amplitude: j applications keep the integral; the
        # regularized amplitude is built by finite differences, so integrate
        # it at a tolerance above the difference-noise floor
        amp = lambda w, t: orc.smooth_bump(np.hypot(w, t) / 2.5)
        ig = self._elliptic(lam=6.0, amp=amp)
        base = orc.oscillatory_integral_2d(ig, R0=4.0, tol=1e-7).value
        for j in (1, 2):
            reg = orc.ibp_regularize(ig, j)
            got = orc.oscillatory_integral_2d(reg, R0=4.0, tol=2e-5).value
            assert abs(got - base) <= 1e-3 * abs(base)

    def test_regularized_constant_amplitude_becomes_integrable(
            self, monkeypatch):
        # the raw unit-amplitude integral converges only through the cutoff;
        # after j applications the amplitude decays and plain R-doubling
        # quadrature reproduces the same value (j=3 is limited by the
        # nested-difference noise floor)
        ig = self._elliptic(lam=6.0, amp=lambda w, t: np.ones(
            np.broadcast(w, t).shape))
        exact = 2j * np.pi / 6.0
        monkeypatch.setattr(orc, "_MAX_DOUBLINGS", 4)
        for j, tol in ((1, 1e-7), (2, 1e-7), (3, 1e-4)):
            reg = orc.ibp_regularize(ig, j)
            res = orc.oscillatory_integral_2d(reg, R0=4.0, tol=10 * tol)
            assert abs(res.value - exact) / abs(exact) <= tol

    def test_decay_improves(self):
        # growth exponent 1 phase: each application gains one decay order
        ig = self._elliptic(amp=lambda w, t: 1.0 / (1.0 + 0.0 * w + 0.0 * t)
                            * np.ones(np.broadcast(w, t).shape))
        reg = orc.ibp_regularize(ig, 3)
        radii = np.array([5.0, 10.0, 20.0])
        prof = orc.amplitude_decay_profile(reg.amplitude, radii)
        slope = np.polyfit(np.log(radii), np.log(prof), 1)[0]
        assert slope <= -2.5          # ~ <x>**-3 targeted

    def test_requires_growing_gradient(self):
        flatgrad = lambda w, t: (np.ones_like(w), np.zeros_like(t))
        ig = orc.OscillatoryIntegrand(amplitude=GAUSS2,
                                      phase=lambda w, t: w * np.ones_like(t),
                                      lam=5.0, phase_grad=flatgrad)
        with pytest.raises(GradientVanishesUnbounded):
            orc.ibp_regularize(ig, 1)

    def test_requires_callback(self):
        ig = orc.OscillatoryIntegrand(amplitude=GAUSS2,
                                      phase=lambda w, t: 0.5 * (w ** 2 + t ** 2),
                                      lam=5.0)
        with pytest.raises(ValueError):
            orc.ibp_regularize(ig, 1)


class TestConvergenceStudy:
    def test_gaussian_saddle_rates(self):
        rows, slope = orc.convergence_rate_study(orc.gaussian_saddle_case,
                                                 [20.0, 40.0, 80.0])
        assert -1.5 <= slope <= -0.7
        for a, b in zip(rows, rows[1:]):
            q = a.relative_error / b.relative_error
            assert 1.5 <= q <= 2.5

    def test_fresnel_is_exact_to_quadrature(self):
        ig, val, exact = orc.fresnel_case(40.0)
        assert val == exact
        res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
        assert abs(res.value - exact) / abs(exact) <= 1e-6

    def test_needs_increasing_lambdas(self):
        with pytest.raises(ValueError):
            orc.convergence_rate_study(orc.gaussian_saddle_case, [10.0, 5.0, 20.0])
