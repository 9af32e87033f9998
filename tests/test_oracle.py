"""Oscillatory-integral quadrature: analytic values, cutoff independence,
linearity, conjugation, the phase-operator identity, the
integration-by-parts regularizer, and the pooled block loop: golden values,
independence of the worker count, callbacks kept on the calling thread and
called on 2-D blocks only."""

import threading

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

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
    def test_fresnel_pass_at_lam_34(self):
        # a panel re-grown past its probes carried 47 rad of phase here, and
        # this single pass was off by 1.25 relative
        ig, val, _ = orc.fresnel_case(34.0)
        got = orc._integrate_once(ig, 12.0, "exp")
        assert abs(got - val) <= 1e-10 * abs(val)

    @pytest.mark.parametrize("lam", [24.0, 29.0, 33.5])
    def test_fresnel_converges(self, lam):
        # these raised NoConvergenceInR while panels outgrew their probes
        ig, val, _ = orc.fresnel_case(lam)
        res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
        assert abs(res.value - val) <= 1e-10 * abs(val)

    @pytest.mark.parametrize("lam", [24.0, 34.0, 36.0])
    @pytest.mark.parametrize("R", [3.0, 6.0, 12.0])
    def test_panels_keep_their_phase_budget(self, lam, R):
        # the rate profile integrated over each panel on a fine grid: no
        # panel carries much more than _GL_ORDER nodes' worth of phase (the
        # slack is for a profile peak between two of the five probes)
        ig, _, _ = orc.fresnel_case(lam)
        grid, gx, _, _, ext, _ = orc._probe_box(ig, R)
        _, ws = orc._axis_rule(ext, grid, gx)
        widths = ws.reshape(-1, orc._GL_ORDER).sum(axis=1)
        edges = -ext + np.concatenate(([0.0], np.cumsum(widths)))
        budget = orc._GL_ORDER * 2.0 * np.pi / orc._POINTS_PER_OSC
        for a, b in zip(edges[:-1], edges[1:]):
            u = np.linspace(a, b, 2001)
            g = np.interp(u, grid, gx)
            phase = np.sum(0.5 * (g[1:] + g[:-1]) * np.diff(u))
            assert phase <= 1.05 * budget

    def test_one_panel_integrates_its_phase_budget(self):
        # one _GL_ORDER-node panel over the whole phase budget is exact to
        # rounding: e^{ikx} on [-1, 1] carries 2k rad, and the worst error
        # over k is 1.1e-15 at 6 nodes per oscillation, 7.4e-15 at 5.5 and
        # 1.5e-13 at 5
        x, w = leggauss(orc._GL_ORDER)
        budget = orc._GL_ORDER * 2.0 * np.pi / orc._POINTS_PER_OSC
        for k in np.linspace(budget / 4, budget / 2, 101):
            got = np.sum(w * np.exp(1j * k * x))
            assert abs(got - 2.0 * np.sin(k) / k) <= 1e-14

    # the three model cases at lam 20, 24, ..., 40 (R0 3, tol 1e-6), with
    # the R_used recorded at 8 nodes per oscillation, which 6 keeps; each
    # value also lies within 1e-10 relative of exact (the worst over lam 20
    # to 40 in steps of 0.5 is 2.3e-13) and its estimated_error within the
    # requested tolerance
    @pytest.mark.parametrize("case, lam, r_used", [
        (case, 20.0 + 4.0 * i, r)
        for case, rs in (("gaussian", (12.0,) * 5 + (6.0,)),
                         ("hyperbolic", (6.0,) * 6),
                         ("fresnel", (12.0,) * 6))
        for i, r in enumerate(rs)])
    def test_value_within_its_estimated_error(self, case, lam, r_used):
        ig, exact = golden_integrand(case, lam, False)
        res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
        assert res.R_used == r_used
        assert abs(res.value - exact) <= res.estimated_error
        assert abs(res.value - exact) <= 1e-10 * abs(exact)
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
        nx, ny = (len(orc._axis_rule(ext, grid, g)[0])
                  for ext, g in ((ext_x, gx), (ext_y, gy)))
        monkeypatch.setattr(orc, "_MAX_NODES", nx * ny)
        with pytest.raises(NoConvergenceInR, match=r"R = 4 needs \d+ nodes"):
            orc.oscillatory_integral_2d(ig, R0=2.0, tol=1e-12)


def golden_integrand(case, lam, ibp):
    """The integrand of a GOLDEN key and its case's exact value."""
    ig, _, exact = {"gaussian": orc.gaussian_saddle_case,
                    "hyperbolic": orc.hyperbolic_saddle_case,
                    "fresnel": orc.fresnel_case}[case](lam)
    return (orc.ibp_regularize(ig, 1) if ibp else ig), exact


def bits(res):
    return (res.value.real.hex(), res.value.imag.hex(), res.R_used,
            res.estimated_error.hex())


# (case, lam, ibp): value, R_used and estimated_error at R0 = 3, tol = 1e-6.
# The hyperbolic lam 20 pin was recorded before the pooled dense block loop
# replaced the single-threaded one, which only changed the summation order.
# The other three were re-pinned when panels stopped growing past the span
# their probes covered and the rule went from 12 to 8 nodes per oscillation;
# R_used stayed the same on all four:
# - Gaussian lam 20: the value moved by 3.8e-10 and its error against the
#   exact 2 pi/(1 - 20i) fell from 1.2e-9 to 5.3e-15; estimated_error, the
#   R = 6 to R = 12 difference, fell from 3.6e-10 to 1.6e-11 with it.
# - Fresnel lam 20: the value moved by 1.0e-12 relative, the edge of the
#   bound below, and its error against 2 pi i/20 fell from 9.6e-13 to 3.5e-14.
# - hyperbolic under IBP, lam 24: estimated_error went from 5.3e-13 to
#   2.4e-10, because the R = 3 pass moved; the value moved by 1.3e-14.
# When the rule went from 8 to 6 nodes per oscillation the three plain pins
# held (they moved by at most 5.8e-14 and stay within 1e-12 of exact), and
# the IBP pin was re-pinned: its value moved by 1.2e-11 relative (its error
# against the exact 2 pi/sqrt(1 + 24**2) went from 2.5e-10 to 2.6e-10, on
# the central-difference floor of the regularized amplitude), and its
# estimated_error went from 2.4e-10 to 1.3e-9 because the R = 3 pass moved.
# Values must agree to 1e-12 relative and R_used must be identical.
GOLDEN = {
    ("gaussian", 20.0, False):
        (0.015668791289726185 + 0.3133758257944924j, 12.0,
         1.616100789643064e-11),
    ("hyperbolic", 20.0, False):
        (0.313767301057426 - 2.0024657018372243e-17j, 6.0,
         1.1593415116806302e-10),
    ("fresnel", 20.0, False):
        (1.0556786953559404e-14 + 0.3141592653589758j, 12.0,
         2.3533425888934307e-09),
    ("hyperbolic", 24.0, True):
        (0.26157242679621057 - 2.343835692246516e-14j, 6.0,
         1.288652358552194e-09),
}


@pytest.fixture(scope="module")
def pooled():
    """The result of a GOLDEN key at a worker count, computed once."""
    cache = {}

    def result(key, workers):
        if (key, workers) not in cache:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(orc, "_workers", lambda: workers)
                cache[key, workers] = orc.oscillatory_integral_2d(
                    golden_integrand(*key)[0], R0=3.0, tol=1e-6)
        return cache[key, workers]

    return result


class TestPooledBlocks:
    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_golden_values(self, pooled, key):
        value, r_used, err = GOLDEN[key]
        res = pooled(key, 1)
        assert res.R_used == r_used
        assert abs(res.value - value) <= 1e-12 * abs(value)
        # the difference of two values that each moved by < 1e-12 |value|
        assert abs(res.estimated_error - err) <= 2e-12 * abs(value)
        if not key[2]:     # IBP values sit on a central-difference floor
            exact = golden_integrand(*key)[1]
            assert abs(value - exact) <= 1e-12 * abs(exact)

    @pytest.mark.parametrize("key", list(GOLDEN))
    def test_bit_identical_for_any_worker_count(self, pooled, key):
        got = [bits(pooled(key, workers)) for workers in (1, 2, 3)]
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

    def test_callbacks_see_only_2d_blocks(self):
        # every block, even one whose amplitude is far below the peak, is
        # one dense (rows, len(ys)) product; no 1-D gather of live points
        ig, _, _ = orc.gaussian_saddle_case(20.0)
        seen = set()

        def on(fn):
            def wrapped(w, t):
                seen.add((np.ndim(w), np.ndim(t)))
                return fn(w, t)
            return wrapped

        orc.oscillatory_integral_2d(
            orc.OscillatoryIntegrand(amplitude=on(ig.amplitude),
                                     phase=on(ig.phase), lam=ig.lam,
                                     phase_grad=ig.phase_grad),
            R0=3.0, tol=1e-6)
        assert seen == {(2, 2)}

    def test_callback_error_on_a_later_block_reaches_the_caller(self):
        class Boom(Exception):
            pass

        ig, _, _ = orc.hyperbolic_saddle_case(20.0)
        calls = []

        def run(fail_at=None):
            def amplitude(w, t):
                calls.append(np.shape(w))
                if len(calls) == fail_at:
                    raise Boom("amplitude failed")
                return ig.amplitude(w, t)

            def phase(w, t):
                calls.append(np.shape(w))
                return ig.phase(w, t)

            orc.oscillatory_integral_2d(
                orc.OscillatoryIntegrand(amplitude=amplitude, phase=phase,
                                         lam=ig.lam,
                                         phase_grad=ig.phase_grad),
                R0=3.0, tol=1e-6)

        # a dry run: each pass probes the box (a square mesh), then evaluates
        # its blocks of rows (a column of w), amplitude before phase
        run()
        last_probe = max(i for i, shape in enumerate(calls) if shape[1] > 1)
        blocks = (len(calls) - 1 - last_probe) // 2
        assert blocks >= 2          # earlier blocks of that pass are in flight
        # fail on the amplitude of the final pass's last block: the error
        # reaches the caller, and neither that block's phase nor anything
        # else is called after it
        fail_at = len(calls) - 1
        calls.clear()
        with pytest.raises(Boom):
            run(fail_at)
        assert len(calls) == fail_at


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
        th = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
        prof = [np.max(np.abs(reg.amplitude(r * np.cos(th), r * np.sin(th))))
                for r in radii]
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
