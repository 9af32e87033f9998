"""Phase, gradient, Hessian, classification, solvers and the saddle weight."""

import math
import warnings
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift.errors import (DegeneratePoint, DopshiftError, EvanescentRegime,
                             NoConvergence, ObserverOnTrajectory)
from dopshift.units import omega_from_thz, thz_from_omega

PLASMA = disp.ColdPlasma(omega_p=1.0)
VACUUM = disp.NonDispersive(eps=1.0, mu=1.0)


def plasma_ctx(x2=4.0, t=1.0, w0=2.0, mach=0.5):
    return sph.PhaseContext(
        t=t, x=(0.0, x2, 0.0), omega0=w0,
        trajectory=trj.StraightLine(velocity=(0.0, mach, 0.0)),
        dispersion=PLASMA)


class TestPhase:
    def test_static_vacuum_point(self):
        ctx = sph.PhaseContext(t=0.0, x=(1.0, 0.0, 0.0), omega0=0.0,
                               trajectory=trj.OffsetLine(v=0.0, H=0.0),
                               dispersion=VACUUM)
        assert sph.phase(ctx, 1.0, 0.0) == pytest.approx(1.0)

    def test_carrier_at_observation_time(self):
        # omega = omega0 and tau = t: S = k(omega0) r - omega0 t
        ctx = plasma_ctx(x2=3.0, t=0.8)
        s = disp.sample(PLASMA, 2.0)
        g = trj.geometry(ctx.trajectory, ctx.x, 0.8)
        assert sph.phase(ctx, 2.0, 0.8) == pytest.approx(
            s.k.real * g.r - 2.0 * 0.8, rel=1e-14)

    def test_plasma_value(self):
        # k = sqrt(3) at omega = 2, range 3, t = tau = 0, omega0 = 0
        ctx = sph.PhaseContext(t=0.0, x=(0.0, 3.0, 0.0), omega0=0.0,
                               trajectory=trj.OffsetLine(v=0.0, H=0.0),
                               dispersion=PLASMA)
        assert sph.phase(ctx, 2.0, 0.0) == pytest.approx(3.0 * math.sqrt(3.0),
                                                         rel=1e-14)

    def test_evanescent_raises(self):
        ctx = plasma_ctx()
        with pytest.raises(EvanescentRegime):
            sph.phase(ctx, 0.5, 0.0)


class TestGradient:
    def test_zero_at_solution(self):
        ctx = plasma_ctx()
        sp = sph.solve_newton(ctx, tol=1e-12)
        g = sph.gradient(ctx, sp.omega_s, sp.tau_s)
        assert np.hypot(*g) <= 1e-12

    def test_nondispersive_omega_independent_retardation(self):
        ctx = sph.PhaseContext(t=0.5, x=(0.0, 6.0, 0.0), omega0=1.0,
                               trajectory=trj.OffsetLine(v=0.3, H=0.0),
                               dispersion=VACUUM)
        g1 = sph.gradient(ctx, 1.0, -2.0)[0]
        g2 = sph.gradient(ctx, 4.0, -2.0)[0]
        assert g1 == pytest.approx(g2, rel=1e-15)
        r = trj.geometry(ctx.trajectory, ctx.x, -2.0).r
        assert g1 == pytest.approx(r - (0.5 - (-2.0)), rel=1e-14)


class TestHessian:
    def test_head_on_constant_speed_determinant(self):
        # constant radial speed: det = -(1 - v/c)**2 at the stationary point
        ctx = sph.PhaseContext(t=0.0, x=(0.0, 10.0, 0.0), omega0=1.0,
                               trajectory=trj.StraightLine(velocity=(0, 0.5, 0)),
                               dispersion=VACUUM)
        sp = sph.solve_newton(ctx)
        assert sp.det == pytest.approx(-(1 - 0.5) ** 2, rel=1e-12)
        assert sp.signature == 0

    def test_stationary_source_structure(self):
        ctx = sph.PhaseContext(t=2.0, x=(0.0, 3.0, 0.0), omega0=2.0,
                               trajectory=trj.OffsetLine(v=0.0, H=0.0),
                               dispersion=PLASMA)
        h = sph.hessian(ctx, 2.0, 0.0)
        s = disp.sample(PLASMA, 2.0)
        assert h[0, 0] == pytest.approx(s.k_second * 3.0, rel=1e-14)
        assert h[0, 1] == h[1, 0] == 1.0
        assert h[1, 1] == 0.0


class TestDerivativeConsistency:
    def test_gradient_and_hessian_match_finite_differences(self):
        rng = np.random.default_rng(42)
        ctx = plasma_ctx(x2=5.0, t=1.2, w0=2.5, mach=0.4)
        for _ in range(50):
            w = float(rng.uniform(1.3, 6.0))
            tau = float(rng.uniform(-4.0, 1.0))
            g = sph.gradient(ctx, w, tau)
            hw, ht = 1e-6 * max(1, abs(w)), 1e-6 * max(1, abs(tau))
            fd0 = (sph.phase(ctx, w + hw, tau)
                   - sph.phase(ctx, w - hw, tau)) / (2 * hw)
            fd1 = (sph.phase(ctx, w, tau + ht)
                   - sph.phase(ctx, w, tau - ht)) / (2 * ht)
            assert fd0 == pytest.approx(g[0], rel=1e-6, abs=1e-6)
            assert fd1 == pytest.approx(g[1], rel=1e-6, abs=1e-6)
            h = sph.hessian(ctx, w, tau)
            gp = np.array(sph.gradient(ctx, w + hw, tau))
            gm = np.array(sph.gradient(ctx, w - hw, tau))
            tp = np.array(sph.gradient(ctx, w, tau + ht))
            tm = np.array(sph.gradient(ctx, w, tau - ht))
            fdh = np.column_stack(((gp - gm) / (2 * hw), (tp - tm) / (2 * ht)))
            assert np.allclose(fdh, h, rtol=1e-5, atol=1e-7)


class TestClassify:
    def test_positive_definite(self):
        det, sig = sph.classify(np.eye(2))
        assert (det, sig) == (1.0, 2)

    def test_hyperbolic(self):
        det, sig = sph.classify(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert (det, sig) == (-1.0, 0)

    def test_shifted(self):
        det, sig = sph.classify(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert det == pytest.approx(3.0)
        assert sig == 2

    def test_degenerate_raises(self):
        with pytest.raises(DegeneratePoint):
            sph.classify(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_swap_invariance(self):
        rng = np.random.default_rng(8)
        p = np.array([[0.0, 1.0], [1.0, 0.0]])
        for _ in range(50):
            h = rng.normal(size=(2, 2))
            h = h + h.T
            try:
                det, sig = sph.classify(h)
            except DegeneratePoint:
                continue
            det2, sig2 = sph.classify(p @ h @ p)
            assert det2 == pytest.approx(det, rel=1e-12)
            assert sig2 == sig

    @pytest.mark.parametrize("gap", [None, 1e-14, 1e-12, 1e-8, 1e-6])
    def test_matches_eigvalsh(self, gap):
        # random symmetric matrices over ten decades, or rotations of
        # diag(+-s, +-s gap): near-singular well below and well above the
        # 1e-10 rule, where rounding cannot move a matrix across it
        rng = np.random.default_rng(13)
        mats = [np.ones((2, 2)), np.zeros((2, 2)), np.diag([0.0, 2.0])]
        for _ in range(400):
            if gap is None:
                h = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-5, 5)
            else:
                c, s = math.cos(rng.uniform(0, 7)), math.sin(rng.uniform(0, 7))
                rot = np.array([[c, -s], [s, c]])
                eigs = rng.choice([-1.0, 1.0], 2) * [1.0, gap] \
                    * 10.0 ** rng.uniform(-5, 5)
                h = rot @ np.diag(eigs) @ rot.T
            mats.append(h + h.T)
        for h in mats:
            eigs = np.linalg.eigvalsh(h)
            scale = np.max(np.abs(eigs))
            degenerate = scale == 0 or np.min(np.abs(eigs)) < 1e-10 * scale
            try:
                det, sig = sph.classify(h)
            except DegeneratePoint:
                assert degenerate
                continue
            assert not degenerate
            assert sig == int(np.sum(np.sign(eigs)))
            assert det == h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]


def _as_custom(traj):
    """The line as a ``CustomTrajectory`` with analytic callables that form
    its position with the same float operations, so its default seed runs
    the bisection on the same retardation values."""
    if isinstance(traj, trj.OffsetLine):
        v, h = traj.v, traj.H
        return trj.CustomTrajectory(lambda s: np.array([0.0, v * s, h]),
                                    lambda s: np.array([0.0, v, 0.0]),
                                    lambda s: np.zeros(3))
    o, v = np.array(traj.origin), np.array(traj.velocity)
    return trj.CustomTrajectory(lambda s: o + v * s, lambda s: v.copy(),
                                lambda s: np.zeros(3))


def _exact_near_root(ctx, vg0):
    """tau of the smallest u = t - tau >= 0 with |x - x0(tau)| = vg0 u on
    a line, from the quadratic in u taken exactly on the float inputs (60
    digits); the first root of the retardation going back from t."""
    traj = ctx.trajectory
    if isinstance(traj, trj.OffsetLine):
        origin, velocity = (0.0, 0.0, traj.H), (0.0, traj.v, 0.0)
    else:
        origin, velocity = traj.origin, traj.velocity
    with localcontext(prec=60):
        t, g = Decimal(ctx.t), Decimal(vg0)
        v = [Decimal(c) for c in velocity]
        e = [Decimal(xi) - Decimal(oi) - vi * t
             for xi, oi, vi in zip(ctx.x, origin, v)]
        a = sum(vi * vi for vi in v) - g * g
        b = sum(ei * vi for ei, vi in zip(e, v))
        disc = b * b - a * sum(ei * ei for ei in e)
        u = min(q for q in ((disc.sqrt() * s - b) / a for s in (1, -1))
                if q >= 0)
        return float(t - u)


@st.composite
def line_events(draw):
    """Plasma, Lorentz and non-dispersive events on line kinds, |v| < 1."""
    kind = draw(st.sampled_from(["plasma", "lorentz", "nondispersive"]))
    coord = st.floats(-8.0, 8.0)
    if kind == "lorentz":
        model = disp.lorentz_from_thz()
        w0 = omega_from_thz(draw(st.floats(400.0, 1000.0)))
        traj = trj.OffsetLine(v=draw(st.floats(-0.99, 0.99)),
                              H=draw(st.floats(-0.2, 0.2)))
        x = (draw(st.floats(-0.2, 0.2)), draw(coord), 0.0)
    else:
        model = PLASMA if kind == "plasma" \
            else disp.NonDispersive(eps=draw(st.floats(1.0, 4.0)))
        w0 = draw(st.floats(1.01, 5.0))
        speed = st.floats(-0.57, 0.57)
        traj = trj.StraightLine(origin=tuple(draw(coord) for _ in "xyz"),
                                velocity=tuple(draw(speed) for _ in "xyz"))
        x = tuple(draw(coord) for _ in "xyz")
    return sph.PhaseContext(t=draw(st.floats(-3.0, 3.0)), x=x, omega0=w0,
                            trajectory=traj, dispersion=model)


class TestDefaultSeed:
    @settings(max_examples=300, deadline=None)
    @given(ctx=line_events())
    @example(ctx=sph.PhaseContext(
        t=0.375, x=(-2.0, 0.4375, -7.0), omega0=2.0,
        trajectory=trj.StraightLine(origin=(1.0, -1.375, -2.5),
                                    velocity=(0.0, -0.5577, -0.1171875)),
        dispersion=disp.NonDispersive(eps=3.1875, mu=1.0)))
    def test_closed_form_matches_bisection(self, ctx):
        # The bisection of the same retardation values stops within
        # 1e-15 max(1, |tau|) of where their rounding (a few ulp of tau)
        # flips the sign, so the closed-form root is compared within
        # 1e-14 max(1, |tau|); without a sign change both take the same
        # fallback, bit for bit.  The bisection also stops on a probe where
        # the rounded residual is exactly zero, which near a fold can lie
        # over a hundred ulp of tau from the root (the example: 8.2e-13 at
        # tau -49.7); there only the exact root is the reference.  Every
        # closed-form root is also checked against the exact root, within
        # 1e-14 max(1, |tau|) (1.6e-15 at most on 13,000 events).  A probe
        # on the source takes the r = 0 limit, as the seed does.
        try:
            ref = sph.default_seed(replace(ctx, trajectory=_as_custom(
                ctx.trajectory)))
        except DopshiftError as err:
            with pytest.raises(type(err)):
                sph.default_seed(ctx)
            return
        omega, tau = sph.default_seed(ctx)
        vg0 = disp.sample(ctx.dispersion, ctx.omega0).v_group

        def ret(t):
            try:
                r = trj.geometry(ctx.trajectory, ctx.x, t).r
            except ObserverOnTrajectory:
                r = 0.0
            return r / vg0 - (ctx.t - t)

        r_now = trj.geometry(ctx.trajectory, ctx.x, ctx.t).r
        if not ret(ctx.t - 10.0 * r_now) * ret(ctx.t) < 0:
            assert (omega, tau) == ref
            return
        exact = _exact_near_root(ctx, vg0)
        assert abs(tau - exact) <= 1e-14 * max(1.0, abs(exact))
        if ret(ref[1]) != 0.0:
            assert abs(tau - ref[1]) <= 1e-14 * max(1.0, abs(ref[1]))

    def test_probe_on_the_source_keeps_the_root(self):
        # the observer on the world-line: the bisection's first probe,
        # tau = 0, is the source at x, where the seed takes the r = 0
        # limit instead of dropping the search (tau -0.988 before)
        ctx = sph.PhaseContext(
            t=1.0, x=(0.0, 0.0, 0.0), omega0=omega_from_thz(512.0),
            trajectory=trj.StraightLine(velocity=(0.0, 0.2, 0.0)),
            dispersion=disp.lorentz_from_thz())
        custom = replace(ctx, trajectory=_as_custom(ctx.trajectory))
        tau = sph.default_seed(ctx)[1]
        assert tau == 0.3346311586725852
        assert abs(sph.default_seed(custom)[1] - tau) <= 1e-12

    @pytest.mark.parametrize("f0,v,x2,omega_bisected", [
        (420.0, -0.02, -1.0, 0.6449895752480027),   # guess below the band
        (430.0, -0.11, 1.0, 0.6805609393178222),    # guess above it
        (600.0, -0.3, 1.0, 0.8041923652775619)])    # below 506.96 THz
    def test_guess_outside_the_band_moves_inside_its_edge(self, f0, v, x2,
                                                          omega_bisected):
        # the seed lies 5 % of the way from the table edge of the carrier's
        # band to the carrier; omega_bisected is the seed of a 40-step
        # bisection for that edge between the guess and the carrier
        model = disp.lorentz_from_thz()
        ctx = sph.PhaseContext(t=1.0, x=(0.0, x2, 0.0),
                               omega0=omega_from_thz(f0),
                               trajectory=trj.OffsetLine(v=v),
                               dispersion=model)
        omega = sph.default_seed(ctx)[0]
        lo, hi = next(b for b in disp._band_table(model)
                      if b[0] <= ctx.omega0 <= b[1])
        edge = lo if omega < ctx.omega0 else hi
        assert omega == edge + 0.05 * (ctx.omega0 - edge)
        assert disp.index_and_flag(model, omega)[1]
        assert omega == pytest.approx(omega_bisected, rel=1e-13)

    def test_three_range_evaluations_on_a_line(self, monkeypatch):
        # r(t), ret(lo) and ret(hi), then v_rad at the seed; bisecting the
        # window took 58 calls on this event
        calls = []
        route = trj._geometry_floats
        monkeypatch.setattr(trj, "_geometry_floats",
                            lambda *a: calls.append(a[2]) or route(*a))
        sph.default_seed(plasma_ctx())
        assert len(calls) == 4


class TestSolvers:
    def test_newton_matches_plasma_closed_form(self):
        ctx = plasma_ctx()
        sp = sph.solve_newton(ctx, tol=1e-12)
        closed = fld.plasma_doppler_closed_form(2.0, 1.0, 0.5, True)
        assert sp.omega_s == pytest.approx(closed, rel=1e-9)
        assert sp.converged and sp.residual_norm <= 1e-12

    def test_nondispersive_converges_from_closed_seed(self):
        ctx = sph.PhaseContext(t=0.0, x=(0.0, 10.0, 0.0), omega0=1.0,
                               trajectory=trj.StraightLine(velocity=(0, 0.5, 0)),
                               dispersion=VACUUM)
        sp = sph.solve_newton(ctx)
        assert sp.iterations <= 3
        assert sp.omega_s == pytest.approx(2.0, rel=1e-12)

    def test_newton_no_convergence_diagnostics(self, monkeypatch):
        ctx = plasma_ctx()
        monkeypatch.setattr(sph, "_MAX_ITER", 1)
        with pytest.raises(NoConvergence) as err:
            sph.solve_newton(ctx, tol=1e-10, seed=(5.0, -20.0))
        diag = err.value.diagnostics
        assert diag is not None and not diag.converged

    def test_singular_hessian_raises_no_convergence(self):
        # Vacuum, and a source at light speed on the line of sight: every
        # Hessian entry vanishes, so the Newton determinant is exactly 0.
        ctx = sph.PhaseContext(t=1.0, x=(0.0, 4.0, 0.0), omega0=2.0,
                               trajectory=trj.StraightLine(velocity=(0, 1, 0)),
                               dispersion=VACUUM)
        assert not sph.hessian(ctx, 2.0, -3.0).any()
        with pytest.raises(NoConvergence, match="singular") as err:
            sph.solve_newton(ctx, seed=(2.0, -3.0))
        diag = err.value.diagnostics
        assert (diag.omega_s, diag.tau_s, diag.iterations) == (2.0, -3.0, 1)
        assert not diag.converged

    @pytest.mark.parametrize("solve", [sph.solve_newton])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, solve, tol):
        with pytest.raises(ValueError, match="tol"):
            solve(plasma_ctx(), tol=tol)

    def test_grid_deduplicates(self):
        ctx = plasma_ctx()
        pts = sph.solve_grid(ctx, (1.5, 6.0), (-8.0, 0.9), n_omega=5, n_tau=5)
        assert len(pts) >= 1
        for a, b in zip(pts, pts[1:]):
            assert abs(a.tau_s - b.tau_s) > 1e-6

    def test_retardation_positive(self):
        ctx = plasma_ctx()
        sp = sph.solve_newton(ctx)
        s = disp.sample(PLASMA, sp.omega_s)
        g = trj.geometry(ctx.trajectory, ctx.x, sp.tau_s)
        assert ctx.t - sp.tau_s > 0
        assert ctx.t - sp.tau_s == pytest.approx(g.r / s.v_group, rel=1e-10)


LORENTZ = disp.lorentz_from_thz()


def line_event(t, x, f0_thz, v, H=0.0):
    """A Lorentz-metamaterial event on an OffsetLine."""
    return sph.PhaseContext(t=t, x=x, omega0=omega_from_thz(f0_thz),
                            trajectory=trj.OffsetLine(v=v, H=H),
                            dispersion=LORENTZ)


# The planar and collinear reference events and the group-velocity fold
# event of test_fields, plus one off-plane event of each medium.
LINE_EVENTS = {
    "planar": line_event(2.0, (0.01, 1.595, 0.0), 420.0, 0.5),
    "collinear": line_event(2.0, (0.0, 1.595, 0.0), 420.0, 0.5),
    "fold": line_event(40.0, (0.002, 0.1, 0.0), 427.8, 0.007),
    "lorentz-offset": line_event(22.8, (0.038, 1.797, 0.014), 503.7, 0.114,
                                 H=0.0043),
    "plasma-behind": sph.PhaseContext(
        t=1.0, x=(0.3, -4.0, 0.2), omega0=2.0, dispersion=PLASMA,
        trajectory=trj.StraightLine(origin=(0.1, 0.0, -0.2),
                                    velocity=(0.0, 0.6, 0.1))),
}


def lattice_node(x, side):
    """The node 2**(j/256) at or above x (side 1) or at or below it (-1),
    by a search over the integers j."""
    j = math.floor(256 * math.log2(x))
    while 2.0 ** (j / 256) > x:
        j -= 1
    while 2.0 ** ((j + 1) / 256) <= x:
        j += 1
    return 2.0 ** ((j + (side > 0 and 2.0 ** (j / 256) < x)) / 256)


def assert_causal_stationary(ctx, points, rtol=1e-9):
    for p in points:
        assert p.converged and ctx.t - p.tau_s > 0
        s = disp.sample(ctx.dispersion, p.omega_s)
        g = trj.geometry(ctx.trajectory, ctx.x, p.tau_s)
        assert abs(p.omega_s - ctx.omega0 - s.k.real * g.v_rad) \
            <= rtol * max(1.0, ctx.omega0)


class TestSolveLine:
    @pytest.mark.parametrize("name", sorted(LINE_EVENTS))
    def test_set_unchanged_when_base_grid_doubles(self, monkeypatch, name):
        ctx = LINE_EVENTS[name]
        base = sph.solve_line(ctx)
        assert base
        assert_causal_stationary(ctx, base)
        monkeypatch.setattr(sph, "_LINE_GRID", 2 * sph._LINE_GRID)
        doubled = sph.solve_line(ctx)
        assert len(doubled) == len(base)
        for p, q in zip(base, doubled):
            assert (q.omega_s, q.tau_s) == pytest.approx(
                (p.omega_s, p.tau_s), rel=1e-9)
            assert q.degenerate == p.degenerate

    @settings(max_examples=40, deadline=None)
    @given(plasma=st.booleans(), f0=st.floats(0.0, 1.0),
           t=st.floats(-2.0, 40.0), x=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
           v=st.floats(-4.0, -0.05), direction=st.floats(0.0, 2 * math.pi))
    def test_every_point_is_causal_and_stationary(self, plasma, f0, t, x, v,
                                                  direction):
        # plasma events: omega0 in (1.05, 5) omega_p, speed up to 0.9,
        # observer within 6 units; Lorentz: 380-800 THz, speed 1e-4 to 0.9
        speed = 10.0 ** v
        if plasma:
            ctx = sph.PhaseContext(
                t=t / 8.0, x=tuple(6.0 * c for c in x), omega0=1.05 + 4 * f0,
                dispersion=PLASMA, trajectory=trj.StraightLine(velocity=(
                    speed * math.cos(direction), speed * math.sin(direction),
                    0.1 * speed)))
        else:
            ctx = line_event(t, (0.05 * abs(x[0]), 2.0 * x[1],
                                 0.02 * abs(x[2])), 380.0 + 420.0 * f0, speed,
                             H=0.01 * abs(x[2]))
        try:
            points = sph.solve_line(ctx)
        except NoConvergence as err:
            # a bracket whose polish failed is reported, not dropped
            lo, hi, _, _ = err.diagnostics
            assert lo <= hi
            return
        assert_causal_stationary(ctx, points)
        taus = [p.tau_s for p in points]
        assert taus == sorted(taus)

    def test_failed_polish_raises_with_the_bracket(self, monkeypatch):
        def fail(ctx, seed=None, tol=1e-10):
            raise NoConvergence("stalled", None)

        monkeypatch.setattr(sph, "solve_newton", fail)
        with pytest.raises(NoConvergence) as info:
            sph.solve_line(LINE_EVENTS["planar"])
        lo, hi, omega, _ = info.value.diagnostics
        assert lo <= omega <= hi
        assert lo == pytest.approx(omega_from_thz(713.78), rel=1e-2)

    def test_tangent_root_is_degenerate(self):
        # Raise the carrier of the fold event to the top of the near
        # branch's local maximum of omega - k v_rad near 397.18 THz, so that
        # D = omega - omega0 - k v_rad touches zero there.
        ctx = LINE_EVENTS["fold"]
        e = np.subtract(ctx.x, trj.position(ctx.trajectory, ctx.t))
        v = trj.velocity(ctx.trajectory, ctx.t)
        geo = (e @ e, e @ v, v @ v)

        def top(w):
            return sph._line_roots(ctx, geo, np.array([w]))[0][1][0]

        lo, hi = omega_from_thz(396.8), omega_from_thz(397.3)
        g = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-15:
            a, b = hi - g * (hi - lo), lo + g * (hi - lo)
            if top(a) > top(b):
                hi = b
            else:
                lo = a
        w_top = 0.5 * (lo + hi)
        tangent = sph.PhaseContext(
            t=ctx.t, x=ctx.x, omega0=ctx.omega0 + top(w_top),
            trajectory=ctx.trajectory, dispersion=ctx.dispersion)
        points = sph.solve_line(tangent)
        assert_causal_stationary(tangent, points)
        touching = [p for p in points
                    if p.omega_s == pytest.approx(w_top, rel=1e-6)]
        assert len(touching) == 1 and touching[0].degenerate
        assert sum(p.degenerate for p in points) == 1

    def test_bands_equal_the_array_scan(self):
        # every node of a geometric scan of the widened range where the
        # scalar route propagates lies in a window, and no other; a window
        # end inside the range is an exact band edge: it propagates and the
        # next float outward does not
        rng = np.random.default_rng(11)
        lorentz = disp.lorentz_from_thz()
        carriers = [(lorentz, omega_from_thz(f))
                    for f in rng.uniform(100.0, 3000.0, 1600)]
        carriers += [(PLASMA, w) for w in rng.uniform(0.01, 50.0, 400)]
        scanned = set()
        for model, w0 in carriers:
            first, last = lattice_node(1e-3 * w0, -1), lattice_node(10 * w0, 1)
            bands = sph._bands(model, w0)
            ends = [end for band in bands for end in band]
            assert ends == sorted(ends)
            assert all(first <= end <= last for end in ends)
            scan = np.geomspace(first, last, 4 * sph._LINE_GRID)
            inside = np.zeros(len(scan), dtype=bool)
            for lo, hi in bands:
                inside |= (lo <= scan) & (scan <= hi)
            # (first, last) sets the nodes: each node set is checked once
            if (model, first, last) not in scanned:
                scanned.add((model, first, last))
                assert inside.tolist() == [disp.index_and_flag(model, w)[1]
                                           for w in scan.tolist()]
            for end, out in zip(ends, [-math.inf, math.inf] * len(bands)):
                assert disp.index_and_flag(model, end)[1]
                if end not in (first, last):
                    assert not disp.index_and_flag(
                        model, math.nextafter(end, out))[1]

    def test_fast_source_scans_past_ten_carriers(self):
        # a range [10, 2 / (1 - n speed)] omega0 follows the slow-source one
        # only where that reaches past 10 omega0 and n speed < 1; it starts
        # at the lattice node at or above 10 omega0, where the slow one ends
        lorentz, w0 = disp.lorentz_from_thz(), omega_from_thz(420.0)
        ten = lattice_node(10.0 * w0, 1)
        for model, speed in ((lorentz, 0.75), (PLASMA, 0.75),
                             (disp.NonDispersive(eps=4.0), 0.5)):
            assert sph._bands(model, w0, speed) == sph._bands(model, w0)
        # a fast range that ends in the lattice cell of 10 omega0 is empty
        top = 0.5 * (10.0 * w0 + ten)
        assert sph._bands(PLASMA, w0, 1.0 - 2.0 * w0 / top) \
            == sph._bands(PLASMA, w0)
        for model, speed, top in ((PLASMA, 0.95, 40.0), (lorentz, 0.95, 40.0),
                                  (disp.NonDispersive(eps=4.0), 0.45, 20.0)):
            slow, fast = sph._bands(model, w0), sph._bands(model, w0, speed)
            assert fast[:len(slow)] == slow and slow[-1][1] == ten
            assert fast[len(slow)][0] == ten
            assert top * w0 <= fast[-1][1] * (1 + 1e-12) \
                and fast[-1][1] < 2.0 ** (1 / 256) * top * w0

    @pytest.mark.parametrize("w0", [1e-322, 1e308, math.inf, math.nan])
    def test_no_window_where_the_cut_leaves_the_floats(self, w0):
        # 1e-3 omega0 underflows to 0, or a lattice node above the cut
        # overflows (a fast source's 2 / (1 - n speed) reaches further):
        # no window, so no point, where log2(0) or round(inf) would raise
        for model in (disp.lorentz_from_thz(), PLASMA, VACUUM):
            assert sph._bands(model, w0) == []
            assert sph._bands(model, w0, 0.9) == []
        assert sph._bands(VACUUM, 1e300, 0.9)
        assert not sph._bands(VACUUM, 1e300, 1.0 - 1e-10)
        ctx = sph.PhaseContext(t=1.0, x=(0.3, 0.2, 0.1), omega0=w0,
                               trajectory=trj.StraightLine((0.0, 0.5, 0.0)),
                               dispersion=VACUUM)
        assert sph.solve_line(ctx) == []

    def test_bands_equal_the_table_mask(self):
        # each table band that meets the widened range is one window, cut to
        # it; between two windows the base grid has one node, in the stop
        # band, also where the stop band is narrower than a cell of a
        # geometric scan of 2052 nodes over the range
        rng = np.random.default_rng(8)
        narrow = 0
        for _ in range(600):
            model = disp.LorentzMetamaterial(
                *rng.uniform(0.0, 3.0, 1), *rng.uniform(0.2, 3.0, 1),
                float(rng.choice([0.0, rng.uniform(0.0, 0.05)])),
                *rng.uniform(0.0, 3.0, 1), *rng.uniform(0.2, 3.0, 1),
                float(rng.choice([0.0, rng.uniform(0.0, 0.05)])))
            for w0 in np.exp(rng.uniform(math.log(0.05), math.log(5.0), 3)):
                first = lattice_node(1e-3 * w0, -1)
                last = lattice_node(10.0 * w0, 1)
                bands = sph._bands(model, w0)
                assert bands == [(max(lo, first), min(hi, last))
                                 for lo, hi in disp._band_table(model)
                                 if lo < last and hi > first]
                w, _, vg = sph._base_grid(model, tuple(bands), sph._LINE_GRID)
                for (_, a), (b, _) in zip(bands, bands[1:]):
                    gap = np.flatnonzero((a < w) & (w < b))
                    assert len(gap) == 1 and np.isnan(vg[gap[0]])
                    assert not disp.index_and_flag(model, w[gap[0]])[1]
                    narrow += b / a < (1e4) ** (1 / (4 * sph._LINE_GRID - 1))
        assert narrow > 0

    @pytest.mark.parametrize("name", ["planar", "lorentz-offset",
                                      "plasma-behind"])
    def test_brent_polish_when_newton_fails_from_the_seed(self, monkeypatch,
                                                          name):
        # Newton fails from every bracket seed, so each branch bracket is
        # polished from the root of its D that Brent's method finds there
        ctx = LINE_EVENTS[name]
        want = sph.solve_line(ctx)
        roots, newton, brent = [], sph.solve_newton, sph._brentq

        def recorded(*args, **tols):
            roots.append(brent(*args, **tols))
            return roots[-1]

        def from_roots_only(ctx, seed=None, **solve):
            if not roots or seed[0] != roots[-1]:
                raise NoConvergence("stalled", None)
            return newton(ctx, seed=seed, **solve)

        monkeypatch.setattr(sph, "_brentq", recorded)
        monkeypatch.setattr(sph, "solve_newton", from_roots_only)
        got = sph.solve_line(ctx)
        assert len(roots) == len(got) == len(want)
        assert_causal_stationary(ctx, got)
        for p, q in zip(got, want):
            assert (p.omega_s, p.tau_s) == pytest.approx((q.omega_s, q.tau_s),
                                                         rel=1e-10)

    def test_point_next_to_the_band_top(self):
        # event A: a causal point in the last cell below the 433.1145 THz
        # band top, found by the collinear closed form, besides 266.547 THz
        ctx = line_event(1.5928411849550361, (0.0, -0.7472298760956733, 0.0),
                         427.11223286123567, 0.3762991939247624)
        points = sph.solve_line(ctx)
        assert_causal_stationary(ctx, points)
        assert [thz_from_omega(p.omega_s) for p in points] == [
            pytest.approx(433.10935, abs=1e-5),
            pytest.approx(266.547, abs=1e-3)]

    @pytest.mark.parametrize("f0, v, H, x, t", [
        (389.92574646456904, 0.0012743450800039042, 0.4942328919780496,
         (0.1933390811445721, -0.9308754214360468, 0.028383152948668444),
         2.7752431816546514),
        (383.1018628940401, 0.0033470917924597614, 0.040631155557995235,
         (0.5263619028029625, -0.7378420234173586, -0.7335867153006435),
         0.6534212290363833),
        (392.86403238245526, 0.0006776427471261993, 0.453143166569087,
         (-0.043354838578155475, -0.8534292120355349, 0.29111494209700184),
         4.238129155378864)])
    def test_events_that_raised_return_causal_points(self, f0, v, H, x, t):
        # slow-source events next to the resonances whose polish raised
        # NoConvergence on the geometric-scan windows
        ctx = line_event(t, x, f0, v, H=H)
        points = sph.solve_line(ctx)
        assert points
        assert_causal_stationary(ctx, points)
        assert all(p.residual_norm <= 1e-10 for p in points)

    def test_slow_source_stress(self):
        # 600 slow sources on an OffsetLine near the observer, carriers
        # 380-420 THz: no bracket is left unpolished
        rng = np.random.default_rng(2026)
        for _ in range(600):
            v, f0 = rng.uniform(5e-4, 1e-2), rng.uniform(380.0, 420.0)
            x = tuple(rng.uniform(-1.0, 1.0, 3))
            t, H = rng.uniform(0.0, 5.0), rng.uniform(0.0, 0.5)
            ctx = line_event(t, x, f0, v, H=H)
            points = sph.solve_line(ctx)
            assert_causal_stationary(ctx, points)
            assert all(p.residual_norm <= 1e-10 for p in points)

    def test_needs_a_straight_line(self):
        ctx = sph.PhaseContext(
            t=1.0, x=(0.0, 4.0, 0.0), omega0=2.0, dispersion=PLASMA,
            trajectory=trj.CustomTrajectory(lambda s: np.array([0, s, 0.0])))
        with pytest.raises(TypeError):
            sph.solve_line(ctx)

    def test_zero_carrier_gives_the_cherenkov_points(self):
        # omega = k v_rad needs n > 1: none in a plasma
        assert sph.solve_line(plasma_ctx(w0=0.0)) == []
        v, t = 0.6577626746939156, 2.9526709626224497
        x = (-0.04271508525353984, -0.022070603558518975,
             0.15197787874615964)
        ctx = sph.PhaseContext(
            t=t, x=x, omega0=0.0, dispersion=LORENTZ,
            trajectory=trj.StraightLine(velocity=(0.0, 0.0, v)))
        points = sph.solve_line(ctx)
        assert len(points) == 2
        assert_causal_stationary(ctx, points)
        sp = fld.cherenkov_solve(LORENTZ, (0.0, 0.0, v), x, t).point
        assert (sp.omega_s, sp.tau_s) == (points[-1].omega_s,
                                          points[-1].tau_s)

    def test_seed_box_on_custom_trajectory_keeps_the_grid(self):
        src = fld.SourceModel(omega0=2.0)
        custom = trj.CustomTrajectory(lambda s: np.array([0.0, 0.5 * s, 0.0]),
                                      lambda s: np.array([0.0, 0.5, 0.0]))
        box = ((1.5, 6.0), (-8.0, 0.9))
        out = fld.moving_source_fields(src, custom, PLASMA, (0.0, 4.0, 0.0),
                                       1.0, seed_box=box, n_seeds=(5, 5))
        grid = sph.solve_grid(plasma_ctx(), *box, n_omega=5, n_tau=5)
        assert [c.point.omega_s for c in out] == pytest.approx(
            [p.omega_s for p in grid], rel=1e-12)


class TestBaseGridCache:
    """solve_line's base grid and its k and v_g are cached per medium and
    windows; the cached arrays are read-only and equal a fresh evaluation."""

    def test_cached_arrays_are_read_only(self):
        sph.solve_line(LINE_EVENTS["planar"])
        bands = sph._bands(LORENTZ, LINE_EVENTS["planar"].omega0, 0.5)
        for a in sph._base_grid(LORENTZ, tuple(bands), sph._LINE_GRID):
            with pytest.raises(ValueError):
                a[0] = a[1]

    @pytest.mark.parametrize("name", sorted(LINE_EVENTS))
    def test_cached_arrays_equal_fresh_evaluation(self, name):
        ctx = LINE_EVENTS[name]
        speed = float(np.linalg.norm(trj.velocity(ctx.trajectory, ctx.t)))
        bands = tuple(sph._bands(ctx.dispersion, ctx.omega0, speed))
        w, k, vg = sph._base_grid(ctx.dispersion, bands, sph._LINE_GRID)
        fresh = disp.wavenumber_and_group(ctx.dispersion, np.array(w))
        assert k.tobytes() == fresh[0].tobytes()
        assert vg.tobytes() == fresh[1].tobytes()

    def test_events_share_an_entry_and_the_cache_is_bounded(self):
        # events that differ only in observer, time, speed and offset share
        # one grid; carriers in many lattice cells fill the cache no
        # further than its bound
        sph._base_grid.cache_clear()
        for i in range(10):
            sph.solve_line(line_event(2.0 + i, (0.01, 1.6 + 0.1 * i, 0.0),
                                      420.0, 0.01 + 0.001 * i, H=0.01 * i))
        assert sph._base_grid.cache_info()[:2] == (9, 1)
        maxsize = sph._base_grid.cache_info().maxsize
        assert maxsize is not None and maxsize <= 64
        for f0 in np.linspace(380.0, 800.0, 2 * maxsize):
            sph.solve_line(line_event(2.0, (0.01, 1.6, 0.0), f0, 0.01))
        assert sph._base_grid.cache_info().currsize == maxsize

    @pytest.mark.parametrize("frac, v", [(0.01, 0.3), (0.2, 0.6),
                                         (0.5, -0.3)])
    def test_lossless_band_edge_steps_inward(self, frac, v):
        # the array route reads v_g NaN at this lossless medium's lowest
        # edge of its top band (n rounds to 0), where the scalar route
        # propagates; the window starts at the first float above it with a
        # finite v_g, with no warning, and a point built in the cell next to
        # the edge is found
        model = disp.LorentzMetamaterial(1.8583255415614937,
                                         1.5245792138881886, 0.0,
                                         1.5831397553305253,
                                         1.2623382692538334, 0.0)
        edge = disp._band_table(model)[-1][0]
        assert disp.index_and_flag(model, edge)[1]
        with np.errstate(all="ignore"):
            assert np.isnan(disp.wavenumber_and_group(model, [edge])[1][0])

        def event(w):   # observer ahead on the axis; S_w = S_tau = 0 there
            x = (0.0, 2.0 * disp.sample(model, w).v_group, 0.0)
            ctx = sph.PhaseContext(t=2.0, x=x, omega0=0.0, dispersion=model,
                                   trajectory=trj.OffsetLine(v=v))
            return replace(ctx, omega0=sph.gradient(ctx, w, 0.0)[1])

        ctx, w_s = event(1.001 * edge), None
        sph._base_grid.cache_clear()
        for _ in range(3):      # the window depends on omega0's lattice cell
            bands = tuple(sph._bands(model, ctx.omega0, abs(v)))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w, _, vg = sph._base_grid(model, bands, sph._LINE_GRID)
            i = np.searchsorted(w, edge)
            w_s = w[i] + frac * (w[i + 1] - w[i])
            ctx = event(w_s)
        with np.errstate(all="ignore"):
            skipped = disp.wavenumber_and_group(
                model, np.arange(edge, w[i], np.spacing(edge)))[1]
        assert np.isfinite(vg[i]) and len(skipped) and np.isnan(skipped).all()
        assert bands == tuple(sph._bands(model, ctx.omega0, abs(v)))
        points = sph.solve_line(ctx)
        assert_causal_stationary(ctx, points)
        assert any(p.omega_s == pytest.approx(w_s, rel=1e-12)
                   and abs(p.tau_s) < 1e-9 for p in points)


class TestEnvelopeIdentity:
    def test_phase_time_derivative_is_minus_frequency(self):
        # d/dt of S(t, x, omega_s(t), tau_s(t)) must equal -omega_s(t)
        dt = 1e-4
        vals = {}
        for t in (1.0 - dt, 1.0, 1.0 + dt):
            ctx = plasma_ctx(t=t)
            sp = sph.solve_newton(ctx, tol=1e-13)
            vals[t] = (sph.phase(ctx, sp.omega_s, sp.tau_s), sp.omega_s)
        dF = (vals[1.0 + dt][0] - vals[1.0 - dt][0]) / (2 * dt)
        assert dF == pytest.approx(-vals[1.0][1], rel=1e-4)


class TestContribution:
    def test_elliptic_model_value(self):
        # S = (w**2+t**2)/2 at the origin: det 1, signature +2, S = 0
        for lam in (5.0, 40.0, 333.0):
            got = sph.saddle_contribution(lam, 0.0, 1.0, 2, 1.0)
            assert got == pytest.approx(2j * math.pi / lam, rel=1e-15)

    def test_hyperbolic_model_value(self):
        got = sph.saddle_contribution(25.0, 0.0, -1.0, 0, 1.0)
        assert got == pytest.approx(2 * math.pi / 25.0, rel=1e-15)

    def test_fold_scale_into_phase_bit_for_bit(self):
        lam, s_val, det, sig, amp = 37.0, 0.8127, -2.31, 0, 0.4 + 0.1j
        unfolded = sph.saddle_contribution(lam, s_val, det, sig, amp)
        folded = sph.saddle_contribution(1.0, lam * s_val, lam * lam * det,
                                         sig, amp)
        assert folded == unfolded

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePoint):
            sph.saddle_contribution(10.0, 0.0, 0.0, 0, 1.0)

    def test_field_phase_contribution_vs_quadrature(self, monkeypatch):
        # direct quadrature of the actual field phase around a solved plasma
        # stationary point must reproduce the saddle weight to O(1/lam);
        # the window keeps the box inside the propagating band
        from dopshift import oracle as orc
        lam = 60.0
        ctx = sph.PhaseContext(t=1.0, x=(0.0, 4.0, 0.0), omega0=2.0,
                               trajectory=trj.StraightLine(
                                   velocity=(0.0, 0.5, 0.0)),
                               dispersion=PLASMA)
        sp = sph.solve_newton(ctx, tol=1e-13)
        s0 = sph.phase(ctx, sp.omega_s, sp.tau_s)
        ww, tw = 0.25, 0.9
        ig = orc.OscillatoryIntegrand(
            amplitude=lambda u, v: np.exp(-0.5 * ((u / ww) ** 2
                                                  + (v / tw) ** 2)),
            phase=np.vectorize(
                lambda u, v: sph.phase(ctx, float(u) + sp.omega_s,
                                       float(v) + sp.tau_s) - s0),
            lam=lam)
        monkeypatch.setattr(orc, "_MAX_DOUBLINGS", 2)
        res = orc.oscillatory_integral_2d(ig, R0=0.7, tol=1e-5)
        pred = sph.saddle_contribution(lam, 0.0, sp.det, sp.signature, 1.0)
        assert abs(res.value - pred) / abs(res.value) <= 3.0 / lam


class TestStationaryIdentity:
    def test_doppler_identity_at_solutions(self):
        rng = np.random.default_rng(100)
        for _ in range(25):
            ctx = plasma_ctx(x2=float(rng.uniform(3, 8)),
                             t=float(rng.uniform(0, 1.5)),
                             w0=float(rng.uniform(1.5, 4)),
                             mach=float(rng.uniform(0, 0.7)))
            sp = sph.solve_newton(ctx, tol=1e-11)
            s = disp.sample(PLASMA, sp.omega_s)
            g = trj.geometry(ctx.trajectory, ctx.x, sp.tau_s)
            assert abs(sp.omega_s - ctx.omega0 - s.k.real * g.v_rad) \
                <= 1e-8 * max(1.0, ctx.omega0)


def test_concurrent_observer_sweep_is_deterministic():
    # solvers hold no shared state: a threaded sweep over observer positions
    # must reproduce the serial result bit for bit
    from concurrent.futures import ThreadPoolExecutor

    def solve_at(x2):
        ctx = plasma_ctx(x2=x2)
        sp = sph.solve_newton(ctx, tol=1e-12)
        return sp.omega_s, sp.tau_s

    xs = [3.0 + 0.1 * i for i in range(24)]
    serial = [solve_at(x) for x in xs]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(solve_at, xs))
    assert threaded == serial


def test_context_validation():
    with pytest.raises(ValueError):
        sph.PhaseContext(t=0.0, x=(0, 1, 0), omega0=-1.0,
                         trajectory=trj.OffsetLine(), dispersion=VACUUM)
