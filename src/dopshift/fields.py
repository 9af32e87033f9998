"""Physical outputs: Doppler shifts, retarded times, leading-order fields,
closed-form special cases and the Cherenkov gate.

The magnetic and electric amplitudes of one stationary point are

    H = i k(w_s) (u x v) W,    E = [w_s mu(w_s) v - (v - v_rad u)/r] W / i,

with u the unit source-observer direction, v the source velocity (or the
polarization vector for a motionless modulated source), and W the saddle
weight ``stationary_phase.saddle_contribution`` of the Fourier-Green
amplitude a(tau_s) / (8 pi**2 r) at (w_s, tau_s); at lam = 1 it equals
a(tau_s) e^{i(S + pi/4 sgn)} / (4 pi r sqrt|det|).
"""

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dispersion as disp
from . import stationary_phase as sph
from . import trajectory as trj
from .errors import (BelowCutoff, GroupVelocityMatchesSource,
                     NoCherenkovRoot, NoRootInBand, SuperluminalMach)

__all__ = [
    "SourceModel", "FieldContribution", "DopplerClass", "moving_source_fields",
    "plasma_doppler_closed_form", "plasma_head_on",
    "metamaterial_doppler_1d", "retard_1d", "cherenkov_solve",
    "doppler_classification",
]


def _unit_envelope(t: float) -> float:
    return 1.0


@dataclass(frozen=True)
class SourceModel:
    """Modulated source: carrier omega0 and slow real envelope.

    ``polarization`` supplies the current direction when the trajectory
    velocity vanishes (a motionless modulated source); it is ignored for a
    moving source.
    """

    omega0: float
    envelope: Callable[[float], float] = _unit_envelope
    polarization: Optional[tuple] = None

    def __post_init__(self):
        if self.omega0 < 0:
            raise ValueError("omega0 must be >= 0")


@dataclass(frozen=True)
class FieldContribution:
    """One stationary point's contribution to the received field."""

    H: np.ndarray
    E: np.ndarray
    phase_value: float
    instantaneous_frequency: float
    retarded_time: float
    doppler_shift: float
    gate: bool
    point: sph.StationaryPoint


class DopplerClass(enum.Enum):
    BLUE_SHIFT = "blue-shift"
    RED_SHIFT = "red-shift"
    NO_SHIFT = "no-shift"


def doppler_classification(k_at_solution: float, v_rad: float) -> DopplerClass:
    """Shift direction from the stationary identity w_s - w0 = k v_rad.

    A negative wavenumber (left-handed band) automatically reverses the
    usual approach/recession rule.
    """
    kv = k_at_solution * v_rad
    if kv > 0:
        return DopplerClass.BLUE_SHIFT
    if kv < 0:
        return DopplerClass.RED_SHIFT
    return DopplerClass.NO_SHIFT


def _assemble(source: SourceModel, ctx: sph.PhaseContext,
              sp: sph.StationaryPoint, gate: bool) -> FieldContribution:
    """One point's contribution, from one geometry and one dispersion
    evaluation there; S is formed as in ``stationary_phase.phase``."""
    r, u, _, _ = trj._geometry_floats(ctx.trajectory, ctx.x, sp.tau_s)
    _, mu, _, k, _, _, _, _ = disp._wave(ctx.dispersion, sp.omega_s)
    s_val = k * r - sp.omega_s * (ctx.t - sp.tau_s) - ctx.omega0 * sp.tau_s
    direction = trj.velocity(ctx.trajectory, sp.tau_s)
    if not np.any(direction) and source.polarization is not None:
        direction = trj.as_vec3(source.polarization)
    if gate and not sp.degenerate and np.any(direction):
        a = float(source.envelope(sp.tau_s))
        curl, graddiv = trj.amplitude_factors(np.array(u), r, direction)
        scale = sph.saddle_contribution(1.0, s_val, sp.det, sp.signature,
                                        a / (8.0 * math.pi ** 2 * r))
        h_vec = 1j * k * curl * scale
        e_vec = (sp.omega_s * complex(mu) * direction - graddiv) * scale / 1j
    else:
        h_vec, e_vec = np.zeros(3, dtype=complex), np.zeros(3, dtype=complex)
    return FieldContribution(
        H=h_vec, E=e_vec, phase_value=s_val,
        instantaneous_frequency=sp.omega_s,
        retarded_time=ctx.t - sp.tau_s,
        doppler_shift=sp.omega_s - source.omega0,
        gate=gate, point=sp)


def moving_source_fields(source: SourceModel, traj, model, x, t,
                         seed_box=None, n_seeds=(8, 8)
                         ) -> list[FieldContribution]:
    """Leading-order contributions at observer (t, x), sorted by emission time.

    Without ``seed_box``, one Newton solve from ``default_seed``.
    On a line kind a ``seed_box`` selects every causal point
    (``stationary_phase.solve_line``; for a zero carrier, the Cherenkov
    points) and ``n_seeds`` is unused; both stay only because the benchmark
    passes them.  On a ``CustomTrajectory`` Newton runs from an ``n_seeds``
    grid over the box.
    No stationary point yields an empty list.  Degenerate (caustic) points
    are kept in the list with zero fields and ``point.degenerate`` set.
    """
    ctx = sph.PhaseContext(t=t, x=tuple(trj.as_vec3(x)), omega0=source.omega0,
                           trajectory=traj, dispersion=model)
    if seed_box is not None and not isinstance(traj, trj.CustomTrajectory):
        points = sph.solve_line(ctx)
    elif seed_box is not None:
        points = sph.solve_grid(ctx, seed_box[0], seed_box[1],
                                n_omega=n_seeds[0], n_tau=n_seeds[1])
    else:
        try:
            points = [sph.solve_newton(ctx)]
        except sph.START_FAILURES:
            points = []
    out = [_assemble(source, ctx, sp, gate=True) for sp in points]
    return sorted(out, key=lambda c: c.point.tau_s)


def plasma_doppler_closed_form(omega0: float, omega_p: float, mach: float,
                               approaching: bool = True) -> float:
    """Head-on constant-velocity shift in a cold plasma:

        w_s = (w0 +/- M sqrt(w0**2 - (1 - M**2) wp**2)) / (1 - M**2),

    plus branch for approach, minus for recession.  Requires w0 > wp.
    """
    if not 0.0 <= mach < 1.0:
        raise SuperluminalMach(f"Mach number {mach:g} outside [0, 1)")
    if omega0 <= omega_p:
        raise BelowCutoff(f"omega0={omega0:g} <= omega_p={omega_p:g}")
    disc = omega0 * omega0 - (1.0 - mach * mach) * omega_p * omega_p
    sign = 1.0 if approaching else -1.0
    return (omega0 + sign * mach * math.sqrt(disc)) / (1.0 - mach * mach)


def plasma_head_on(omega0: float, omega_p: float, mach: float,
                   approaching: bool = True):
    """Closed form and enumerated solve of the head-on plasma point.

    The source moves along x2 at the Mach number through the origin; the
    on-axis observer sits at x2 = 4 (approach) or -4 (recession) at t = 1.
    It sees both a pre- and a post-passage point, so of the causal points
    the one nearest the closed form in frequency is taken.  Returns
    (closed-form frequency, StationaryPoint); the closed form's errors
    (BelowCutoff, SuperluminalMach) are raised before any solve.
    """
    closed = plasma_doppler_closed_form(omega0, omega_p, mach, approaching)
    ctx = sph.PhaseContext(
        t=1.0, x=(0.0, 4.0 if approaching else -4.0, 0.0), omega0=omega0,
        trajectory=trj.StraightLine(velocity=(0.0, mach, 0.0)),
        dispersion=disp.ColdPlasma(omega_p=omega_p))
    return closed, _nearest_point(ctx, closed, tol=1e-12)


def _nearest_point(ctx: sph.PhaseContext, omega_ref: float,
                   tol: float = 1e-10) -> sph.StationaryPoint:
    """The causal stationary point of ``stationary_phase.solve_line`` (at
    ``tol``) nearest omega_ref in frequency; NoRootInBand when there is
    none."""
    found = sph.solve_line(ctx, tol)
    if not found:
        raise NoRootInBand("no causal stationary point")
    return min(found, key=lambda p: abs(p.omega_s - omega_ref))


def metamaterial_doppler_1d(model, omega0: float, v: float, sign: int = +1,
                            omega_range=None) -> list[float]:
    """Roots of g(w) = w (1 + sign * n(w) v) - w0 on the propagating band.

    Scans the window of ``stationary_phase._bands`` that holds omega0 (or
    the given range) on its cached 4001-node grid (``_base_grid``): where
    v_g is finite the residual is w + sign v Re k - w0.  Brackets the sign
    changes and polishes each with Brent's method on the scalar
    ``dispersion.index_and_flag``.
    A given ``omega_range`` must lie inside one propagating band, as every
    ``_bands`` window does: next to a band edge inside the range the grid's
    finite v_g can differ from the scalar flag by rounding, and the polish
    then raises ValueError on a NaN residual.
    Returns every root found (ascending); callers select among multiple.
    """
    if not -1.0 < v < 1.0:
        raise ValueError("source speed must lie in (-1, 1)")
    if omega_range is None:
        # no window for omega0 <= 0, where a plasma's flag raises; the flag
        # can propagate between bands as rounding noise
        held = [b for b in sph._bands(model, omega0) if b[0] <= omega0 <= b[1]]
        if not held or not disp.index_and_flag(model, omega0)[1]:
            raise NoRootInBand(f"no propagating band holds omega0={omega0:g}")
        omega_range = held[0]
    else:       # before np.linspace meets a NaN or an inf
        for end in omega_range:
            disp._check_finite(end)

    def g(w):
        n_real, propagating = disp.index_and_flag(model, w)
        return w * (1.0 + sign * n_real * v) - omega0 if propagating \
            else math.nan

    grid, k, vg = sph._base_grid(model, (tuple(map(float, omega_range)),),
                                 4001)
    ok = np.isfinite(vg)
    vals = np.where(ok, grid + sign * v * k - omega0, np.nan)
    # The array Re k rounds differently from sample's (by about 5e-13 of
    # |k|), so a residual this close to zero could take the other sign on
    # the scalar route that the polish uses: take those points from g.
    scale = np.abs(grid) + np.abs(v * k) + abs(omega0)
    for i in np.flatnonzero(np.abs(vals) <= 1e-9 * scale):
        vals[i] = g(float(grid[i]))
    fa, fb = vals[:-1], vals[1:]
    both = ok[:-1] & ok[1:]
    roots = [float(a) for a in grid[:-1][both & (fa == 0.0)]]
    for i in np.flatnonzero(both & (fa * fb < 0)):
        roots.append(sph._brentq(g, float(grid[i]), float(grid[i + 1]),
                                 xtol=1e-14, rtol=1e-15))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    if not roots:
        raise NoRootInBand(
            f"no Doppler root in [{omega_range[0]:g}, {omega_range[1]:g}]")
    return sorted(roots)


def retard_1d(v: float, v_g: float, x2: float, t: float) -> float:
    """tau = (x2 - v_g t)/(v - v_g): emission time for collinear 1-D motion.

    Solves x2 - v tau = v_g (t - tau), the approach geometry: the observer at
    x2 is ahead of the source (x2 > v tau).  The formula checks neither the
    geometry nor causality.  For v_g > 0 and an observer ahead of the source
    at time t (x2 > v t) it returns tau > t exactly when no causal emission
    exists (v_g < v); callers must check t - tau > 0.
    """
    denom = v - v_g
    if denom == 0.0:
        raise GroupVelocityMatchesSource("v equals v_g; no finite solution")
    return (x2 - v_g * t) / denom


def _collinear_point(model, omega0: float, v: float, x2: float, t: float):
    """(omega, tau, |grad S|) of the causal closed-form point nearest the
    carrier; source on x2 through the origin, observer at (0, x2, 0), t.
    Each root of ``metamaterial_doppler_1d`` (either sign, each band of
    ``stationary_phase._bands``) is retarded with its side's geometry:
    ``retard_1d`` ahead of the source (sign -1), mirrored (-v, -x2) behind
    it.  Keeps t - tau > 0 and |grad S| <= 1e-9; none raises NoRootInBand."""
    ctx = sph.PhaseContext(t=t, x=(0.0, x2, 0.0), omega0=omega0,
                           trajectory=trj.OffsetLine(v=v, H=0.0),
                           dispersion=model)
    pairs = []
    for band in sph._bands(model, omega0, abs(v)):
        for sign in (+1, -1):
            try:
                roots = metamaterial_doppler_1d(model, omega0, v, sign, band)
            except NoRootInBand:
                continue
            for w in roots:
                vg = disp.sample(model, w).v_group
                if vg is None or vg == -sign * v:
                    continue
                tau = retard_1d(-sign * v, vg, -sign * x2, t)
                if t - tau > 0:
                    res = math.hypot(*sph.gradient(ctx, w, tau))
                    if res <= 1e-9:
                        pairs.append((w, tau, res))
    if not pairs:
        raise NoRootInBand("no causal collinear closed-form point")
    return min(pairs, key=lambda p: abs(p[0] - omega0))


def cherenkov_solve(model, v_vec, x, t) -> FieldContribution:
    """Zero-carrier radiating point of a uniformly moving charge.

    The radiating condition is v_rad(x, tau_s) = c(omega_s) > 0 together with
    the retardation equation; causality confines the radiation to the cone

        v t - zeta - |x_perp| sqrt(|beta**2 - 1|) > 0,   beta = v/v_g,

    where zeta is the observer coordinate along the motion and x_perp the
    transverse offset (``gate``).  In a dispersive medium the points are the
    zero-carrier points of ``stationary_phase.solve_line``, with omega in
    [1e-3, 10] (and a fast source's range); the latest emission (largest
    tau_s) is returned, and NoCherenkovRoot is raised when there is none.
    In a frequency-independent medium every frequency radiates on the same
    cone: the returned point carries the closed-form emission time,
    omega_s = 0 as a placeholder, and a degenerate Hessian (the
    stationary point is the tangency of the retardation roots), so the
    leading-order field formula does not apply and the fields are zero.
    """
    v_vec = trj.as_vec3(v_vec)
    x = trj.as_vec3(x)
    speed = float(np.linalg.norm(v_vec))
    if not 0.0 < speed < 1.0:
        raise ValueError("source speed must lie in (0, 1)")
    vhat = v_vec / speed
    zeta = float(x @ vhat)
    x_perp = float(np.linalg.norm(x - zeta * vhat))
    traj = trj.StraightLine(origin=(0.0, 0.0, 0.0), velocity=tuple(v_vec))
    source = SourceModel(omega0=0.0)
    ctx = sph.PhaseContext(t=t, x=tuple(x), omega0=0.0, trajectory=traj,
                           dispersion=model)

    def in_cone(v_group):
        beta = speed / v_group
        return speed * t - zeta - x_perp * math.sqrt(abs(beta * beta - 1.0)) > 0

    if isinstance(model, disp.NonDispersive):
        s = disp.sample(model, 1.0)
        c = s.v_phase
        if c >= speed:
            raise NoCherenkovRoot(
                f"phase speed {c:g} >= source speed {speed:g}")
        # (ch2'): v_rad(tau) = c in closed form; the residual is the
        # geometry's, so the reported angle still carries one
        tau_s = (zeta - c * x_perp / math.sqrt(speed * speed - c * c)) / speed
        g = trj.geometry(traj, x, tau_s)
        res = math.hypot(g.v_rad - c, g.r / s.v_group - (t - tau_s))
        h = np.array([[0.0, 1.0 - g.v_rad / s.v_group],
                      [1.0 - g.v_rad / s.v_group, 0.0]])
        sp = sph.StationaryPoint(
            omega_s=0.0, tau_s=tau_s, hessian=h, det=float(np.linalg.det(h)),
            signature=0, residual_norm=res, iterations=0, converged=True,
            degenerate=True)
        return _assemble(source, ctx, sp, gate=in_cone(s.v_group))

    found = sph.solve_line(ctx)
    if not found:
        raise NoCherenkovRoot("no causal radiating point in the scanned "
                              "frequency range")
    sp = found[-1]      # sorted by tau_s: the latest emission
    return _assemble(source, ctx, sp,
                     gate=in_cone(disp.sample(model, sp.omega_s).v_group))
