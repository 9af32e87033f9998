"""Phase evaluation, stationary-point solvers and the saddle contribution.

The phase of the time-frequency field integrals is

    S(t, x, omega, tau) = k(omega) r(x, tau) - omega (t - tau) - omega0 tau,

with r the source-observer range.  Its stationary points in (omega, tau)
couple the retardation equation r/v_g = t - tau with the Doppler equation
omega - omega0 = k(omega) v_rad; the 2x2 Hessian decides the saddle type and
the amplitude normalization of the leading-order contribution.
"""

import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import dispersion as disp
from . import trajectory as trj
from .errors import (DegeneratePoint, EvanescentRegime, LeftPropagatingBand,
                     NoConvergence, ObserverOnTrajectory)

__all__ = [
    "PhaseContext", "StationaryPoint", "phase", "gradient", "hessian",
    "classify", "default_seed", "solve_newton", "solve_grid", "solve_line",
    "saddle_contribution",
]

_ARMIJO = 1e-4
_MAX_HALVINGS = 40
_MAX_ITER = 60        # Newton iterations; no solve has needed more than 8
_DEGENERACY_RTOL = 1e-10
_DEDUPE_SEP = 1e-6
# solve_line: base grid nodes per propagating band, sub-cells per split
# cell, and the relative width below which no cell is split.
_LINE_GRID, _LINE_SPLIT, _LINE_MIN_CELL = 513, 16, 1e-11
# What a Newton start can raise when it fails; callers that try several
# starts skip these.
START_FAILURES = (NoConvergence, LeftPropagatingBand, EvanescentRegime,
                  ObserverOnTrajectory)


@dataclass(frozen=True)
class PhaseContext:
    """Observer, source and medium data defining the phase.  The large
    parameter is folded into the phase (lam = 1), as the field formulas
    take it."""

    t: float
    x: tuple
    omega0: float
    trajectory: trj.Trajectory
    dispersion: disp.DispersionModel

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(map(float, self.x)))
        if self.omega0 < 0:
            raise ValueError("source eigenfrequency must be >= 0")


@dataclass(frozen=True)
class StationaryPoint:
    omega_s: float
    tau_s: float
    hessian: np.ndarray
    det: float
    signature: int
    residual_norm: float
    iterations: int
    converged: bool
    degenerate: bool = False


def phase(ctx: PhaseContext, omega: float, tau: float) -> float:
    """S = k r - omega (t - tau) - omega0 tau (real part of k)."""
    k = disp._wave_floats(ctx.dispersion, omega)[0]
    r = trj._geometry_floats(ctx.trajectory, ctx.x, tau)[0]
    return k * r - omega * (ctx.t - tau) - ctx.omega0 * tau


def _grad_and_hess(ctx, omega, tau):
    """grad S and the Hessian of S in (omega, tau), from one dispersion
    and one geometry evaluation, as five floats:
    (S_w, S_tau, S_ww, S_wtau, S_tautau)."""
    k, vg, kpp = disp._wave_floats(ctx.dispersion, omega)
    r, _, v_rad, dv_rad = trj._geometry_floats(ctx.trajectory, ctx.x, tau)
    return (r / vg - (ctx.t - tau), -k * v_rad + (omega - ctx.omega0),
            kpp * r, 1.0 - v_rad / vg, -k * dv_rad)


def gradient(ctx: PhaseContext, omega: float, tau: float) -> Tuple[float, float]:
    """(dS/domega, dS/dtau) from analytic dispersion and geometry."""
    return _grad_and_hess(ctx, omega, tau)[:2]


def hessian(ctx: PhaseContext, omega: float, tau: float) -> np.ndarray:
    """The 2x2 Hessian of S in (omega, tau)."""
    _, _, h_ww, h_wt, h_tt = _grad_and_hess(ctx, omega, tau)
    return np.array([[h_ww, h_wt], [h_wt, h_tt]])


def classify(h: np.ndarray) -> Tuple[float, int]:
    """Determinant and signature of a symmetric 2x2 Hessian.

    Eigenvalues (a + c)/2 -+ hypot((a - c)/2, b) of the lower triangle, as
    ``eigvalsh`` reads it.  Degenerate (caustic) matrices raise: the
    contribution formula divides by sqrt(|det|).
    """
    h = np.asarray(h, dtype=float)
    det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
    a, b, c = float(h[0, 0]), float(h[1, 0]), float(h[1, 1])
    mid, rad = 0.5 * (a + c), math.hypot(0.5 * (a - c), b)
    eigs = (mid - rad, mid + rad)
    scale = max(map(abs, eigs))
    if scale == 0.0 or min(map(abs, eigs)) < _DEGENERACY_RTOL * scale:
        raise DegeneratePoint(f"near-singular Hessian, eigenvalues {eigs}")
    signature = int(math.copysign(1.0, eigs[0]) + math.copysign(1.0, eigs[1]))
    return float(det), signature


def _make_point(d, omega, tau, iters) -> StationaryPoint:
    """Classify a converged point with ``_grad_and_hess`` output d."""
    h = np.array([[d[2], d[3]], [d[3], d[4]]])
    try:
        det, sig, degenerate = *classify(h), False
    except DegeneratePoint:
        det = float(h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0])
        sig, degenerate = 0, True
    return StationaryPoint(omega_s=omega, tau_s=tau, hessian=h, det=det,
                           signature=sig, residual_norm=_norm(d),
                           iterations=iters, converged=True,
                           degenerate=degenerate)


def _norm(d) -> float:
    """|grad S| of phase derivatives d."""
    return math.sqrt(d[0] * d[0] + d[1] * d[1])


def default_seed(ctx: PhaseContext) -> Tuple[float, float]:
    """Non-dispersive closed-form seed evaluated with the carrier's speeds.

    tau is the root of the retardation equation at the carrier group
    velocity in [t - 10 r(t), t] when its ends differ in sign: in closed
    form on a line kind (a quadratic with one root there), by bisection on
    a ``CustomTrajectory``; then omega = omega0/(1 - v_rad/c(omega0)).
    Falls back to (omega0, t - r/v_g) when there is no retarded sign change.
    """
    w0 = ctx.omega0
    _, _, _, _, c0, vg0, _, propagating = disp._wave(ctx.dispersion, w0)
    if not propagating:
        raise EvanescentRegime(
            f"omega={w0:g} is outside the propagating band")

    def ret(tau):
        try:
            r = trj._geometry_floats(ctx.trajectory, ctx.x, tau)[0]
        except ObserverOnTrajectory:
            r = 0.0     # a probe on the source: the r = 0 limit
        return r / vg0 - (ctx.t - tau)

    r_now = trj._geometry_floats(ctx.trajectory, ctx.x, ctx.t)[0]
    lo, hi = ctx.t - 10.0 * r_now, ctx.t
    flo, fhi = ret(lo), ret(hi)
    if flo * fhi < 0 and isinstance(ctx.trajectory, trj.CustomTrajectory):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = ret(mid)
            if fm == 0 or (hi - lo) < 1e-15 * max(1.0, abs(hi)):
                break
            if flo * fm < 0:
                hi = mid
            else:
                lo, flo = mid, fm
        tau_seed = 0.5 * (lo + hi)
    elif flo * fhi < 0:     # ret(hi) > 0 > ret(lo): the near root
        geo = _line_geometry(ctx)
        tau_seed = ctx.t - geo[0] / float(_retardation(geo, vg0)[1])
    else:
        tau_seed = ctx.t - r_now / vg0
    try:
        v_rad = trj._geometry_floats(ctx.trajectory, ctx.x, tau_seed)[2]
    except ObserverOnTrajectory:
        v_rad = 0.0
    denom = 1.0 - v_rad / c0
    omega_seed = w0 / denom if abs(denom) > 0.05 else w0
    if omega_seed <= 0:
        omega_seed = w0
    elif not disp.index_and_flag(ctx.dispersion, omega_seed)[1]:
        # just inside the edge of the carrier's band on the guess's side
        lo, hi = next((b for b in disp._band_table(ctx.dispersion)
                       if b[0] <= w0 <= b[1]), (w0, w0))
        edge = min(max(omega_seed, lo), hi)
        omega_seed = edge + 0.05 * (w0 - edge)
    return omega_seed, tau_seed


def solve_newton(ctx: PhaseContext, seed: Optional[Tuple[float, float]] = None,
                 tol: float = 1e-10) -> StationaryPoint:
    """Damped Newton on the stationary system grad S = 0, at most 60
    iterations.

    Backtracking line search on the merit 0.5*|F|^2 (Armijo constant 1e-4,
    step halving, at most 40 halvings).  Trial points outside the propagating
    band are treated as infeasible: the first full-step band exit is projected
    back by halving, a second one aborts.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    w, tau = default_seed(ctx) if seed is None else (float(seed[0]), float(seed[1]))
    d = _grad_and_hess(ctx, w, tau)
    band_exits = 0
    for it in range(1, _MAX_ITER + 1):
        res = _norm(d)
        if res <= tol:
            return _make_point(d, w, tau, it - 1)
        # Closed-form solve of H step = -grad S; numpy's LAPACK call costs
        # more than the whole phase evaluation on a 2x2 system.
        f_w, f_t, h_ww, h_wt, h_tt = d
        det = h_ww * h_tt - h_wt * h_wt
        if det == 0.0:
            raise NoConvergence(
                "singular Jacobian (caustic) at the current iterate",
                diagnostics=_failed_point(w, tau, res, it))
        step_w = (h_wt * f_t - h_tt * f_w) / det
        step_t = (h_wt * f_w - h_ww * f_t) / det
        merit = 0.5 * res * res
        alpha = 1.0
        accepted = False
        full_step_left_band = False
        for _ in range(_MAX_HALVINGS + 1):
            wt, tt = w + alpha * step_w, tau + alpha * step_t
            try:
                d_trial = _grad_and_hess(ctx, wt, tt)
            except (EvanescentRegime, ObserverOnTrajectory, ValueError):
                if alpha == 1.0:
                    full_step_left_band = True
                alpha *= 0.5
                continue
            g_w, g_t = d_trial[:2]
            if 0.5 * (g_w * g_w + g_t * g_t) \
                    <= merit * (1.0 - 2.0 * _ARMIJO * alpha):
                w, tau, d = wt, tt, d_trial
                accepted = True
                break
            alpha *= 0.5
        if full_step_left_band:
            # One exit is projected back by the halving; consecutive exits
            # mean the root is being chased out of the band.
            band_exits += 1
            if band_exits > 1:
                raise LeftPropagatingBand(
                    "consecutive Newton steps exited the propagating band")
        else:
            band_exits = 0
        if not accepted:
            raise NoConvergence(
                f"line search stalled at iteration {it}, residual {res:.3e}",
                diagnostics=_failed_point(w, tau, res, it))
    res = _norm(d)
    if res <= tol:
        return _make_point(d, w, tau, _MAX_ITER)
    raise NoConvergence(
        f"no convergence in {_MAX_ITER} iterations, residual {res:.3e}",
        diagnostics=_failed_point(w, tau, res, _MAX_ITER))


def _failed_point(w, tau, res, iters) -> StationaryPoint:
    return StationaryPoint(omega_s=w, tau_s=tau, hessian=np.full((2, 2), np.nan),
                           det=math.nan, signature=0, residual_norm=res,
                           iterations=iters, converged=False)


def solve_grid(ctx: PhaseContext, omega_box: Tuple[float, float],
               tau_box: Tuple[float, float], n_omega: int = 8,
               n_tau: int = 8) -> list:
    """Newton from a seed grid; distinct converged points, sorted by tau_s.

    Points closer than 1e-6 (relative, per component) are deduplicated.
    """
    found = []
    for w0 in np.linspace(*omega_box, n_omega):
        for t0 in np.linspace(*tau_box, n_tau):
            try:
                sp = solve_newton(ctx, seed=(w0, t0))
            except START_FAILURES:
                continue
            if not any(_repeats(sp, q) for q in found):
                found.append(sp)
    return sorted(found, key=lambda p: p.tau_s)


def _line_geometry(ctx):
    """(e.e, e.v, v.v) of e = x - x0(t) and the velocity v on a line kind."""
    e = np.subtract(ctx.x, trj.position(ctx.trajectory, ctx.t))
    v = trj.velocity(ctx.trajectory, ctx.t)
    return float(e @ e), float(e @ v), float(v @ v)


def _retardation(geo, vg):
    """disc and den = sqrt(max(disc, 0)) - e.v of r = v_g u, u = t - tau, on
    a line kind: (|v|^2 - v_g^2) u^2 + 2 e.v u + |e|^2 = 0 with geo from
    ``_line_geometry``, disc NaN where v_g <= 0 (vg a float or an array).
    Near root u = |e|^2 / den (disc >= 0, den > 0); far root, where v_g <
    |v|, u = den / (|v|^2 - v_g^2); they join where disc = 0 (a fold)."""
    ee, ev, vv = geo
    disc = np.where(vg > 0, vg * vg * ee - (vv * ee - ev * ev), np.nan)
    return disc, np.sqrt(np.maximum(disc, 0.0)) - ev


def _line_roots(ctx, geo, w, wave=None):
    """tau and D = omega - omega0 - k v_rad on the near and the far causal
    root of the retardation equation at each omega (NaN where there is none;
    Re k and v_g from ``wave``, or computed), and its discriminant disc."""
    ee, ev, vv = geo
    k, vg = wave or disp.wavenumber_and_group(ctx.dispersion, w)
    disc, den = _retardation(geo, vg)
    near = (disc >= 0) & (den > 0)
    vg2, dw = vg * vg, w - ctx.omega0
    rows = []
    for ok, num, div in ((near, ee, den), (near & (vv > vg2), den, vv - vg2)):
        u = np.divide(num, div, out=np.full(w.shape, np.nan), where=ok)
        rows += [ctx.t - u, dw - k * (ev + vv * u) / (vg * u)]
    return rows, disc


def _turns(d):
    """Nodes 1..n-2 where the discrete slope of D turns towards zero and D
    is within the turn's size of zero, so D may cross zero near them."""
    s = np.diff(d)
    sign, size = np.sign(s), np.abs(s)
    return (sign[:-1] * sign[1:] < 0) & ((s[:-1] > 0) == (d[1:-1] < 0)) \
        & (np.abs(d[1:-1]) <= size[:-1] + size[1:])


def _joints(w, rows, disc, near, far):
    """(j, m): both roots exist at node j with D of opposite signs, and
    join before its neighbour m, where the near root is gone: disc < 0 at
    m, or disc carried on from j's other neighbour reaches zero by m (near
    and far flag the nodes where each root exists)."""
    split = (np.signbit(rows[1]) != np.signbit(rows[3])) & far
    gone = ~near
    out = []
    for j, m in [(i + 1, i) for i in np.flatnonzero(gone[:-1] & split[1:])] \
            + [(i, i + 1) for i in np.flatnonzero(split[:-1] & gone[1:])]:
        b = 2 * j - m
        reach = disc[j] + (disc[j] - disc[b]) * (w[m] - w[j]) \
            / (w[j] - w[b]) if 0 <= b < len(w) else math.nan
        if disc[m] < 0 or not reach > 0:
            out.append((j, m))
    return out


def _hidden(w, rows, disc, geo):
    """Cells that may hide a root: the cells around a turn; a cell where a
    root ends, unless D carried on across it keeps its sign; for e.v < 0,
    one where the near root ends with no far root (it ends at a fold, which
    the far root reaches first); a joint with no node past its fold yet.
    Also returns the ``_turns`` of each branch and the ``_joints``; a
    collinear event (e parallel to v) has none: disc = v_g^2 |e|^2 has no
    fold, and its roots meet only where v_g = 0, both at the passage r = 0."""
    ee, ev, vv = geo
    cells = np.zeros(len(w) - 1, dtype=bool)
    turns = [_turns(d) for d in rows[1::2]]
    near, far = valids = [~np.isnan(d) for d in rows[1::2]]
    for d, turn, valid in zip(rows[1::2], turns, valids):
        cells[:-1] |= turn
        cells[1:] |= turn
        for j in np.flatnonzero(valid[:-1] != valid[1:]):
            a, b = (j, j - 1) if valid[j] else (j + 1, j + 2)
            ahead = 2.0 * d[a] - d[b] if 0 <= b < len(d) else math.nan
            cells[j] |= not ahead * d[a] > 0
    if ev < 0:
        cells |= near[:-1] & ~near[1:] & ~far[:-1] \
            | ~near[:-1] & near[1:] & ~far[1:]
    joints = _joints(w, rows, disc, near, far) \
        if vv * ee - ev * ev > 1e-12 * vv * ee else []
    for j, m in joints:
        cells[min(j, m)] |= not disc[m] < 0
    return cells, turns, joints


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float) -> float:
    """Root of f in [xa, xb], where f changes sign, by Brent's method.

    Brent (1973), "Algorithms for Minimization without Derivatives", ch. 4,
    with the step rules of the widely used C ``brentq`` routine, step for
    step, so it returns the same float: an inverse quadratic or secant step
    when it is short enough, else bisection, to the tolerance 2 delta,
    delta = (xtol + rtol |x|)/2.
    Raises ValueError when f is NaN or f(xa), f(xb) share a sign, and
    RuntimeError after 100 iterations without convergence.
    """
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = xa, xb
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)  # secant
            else:                                            # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) \
                    / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(
        f"failed to converge after 100 iterations, value is {xcur}")


def _bands(model, omega0: float, speed: float = 0.0) -> list:
    """(lo, hi) of each band of ``dispersion._band_table`` cut to [1e-3, 10]
    omega0, then to [10, 2 / (1 - n speed)] omega0 when n speed < 1 and that
    reaches further: omega / omega0 = 1 / (1 - n v_rad) is at most that where
    the index is at most n (1 in a plasma and in a Lorentz medium above its
    resonances).  Band ends are the table's exact edges, the first and last
    propagating floats; range ends are widened outward to the lattice
    2**(j/256), so a window depends on omega0 only through its cut's cell.
    None is cut for omega0 <= 0 (or NaN), nor where the cut underflows to 0
    or its top lattice node overflows."""
    def node(x, up):    # the lattice node at or above x (up), or below it
        j = round(256.0 * math.log2(x))
        j += int(2.0 ** (j / 256) < x) if up else -int(2.0 ** (j / 256) > x)
        return 2.0 ** (j / 256)

    n = model.index if isinstance(model, disp.NonDispersive) else 1.0
    top = 2.0 / (1.0 - n * speed) if n * speed < 1.0 else 0.0
    cut = [e * omega0 for e in [1e-3, 10.0] + ([top] if top > 10.0 else [])]
    if not (0.0 < cut[0] and cut[-1] * 2.0 ** (1 / 256) < math.inf):
        return []
    ends = [node(e, i > 0) for i, e in enumerate(cut)]
    return [(max(lo, first), min(hi, last))
            for first, last in zip(ends, ends[1:]) if first < last
            for lo, hi in disp._band_table(model) if lo < last and hi > first]


@functools.lru_cache(maxsize=64)
def _base_grid(model, bands: tuple, nodes: int) -> tuple:
    """Read-only (omega, Re k, v_g) on ``nodes`` nodes per window of ``bands``
    (ascending, as ``_bands`` gives them), in window order: a node two
    windows share appears once, and a stop band between two gets one node,
    so no cell bridges two bands.  Both line scans read it.
    A window end where the array route reads v_g NaN (n can round to 0 at an
    exact edge) steps inward, float by float, until v_g is finite (for at
    most 64 floats, and not past the next node)."""
    parts, end, size = [], [], 0
    for i, (lo, hi) in enumerate(bands):
        part = np.linspace(lo, hi, nodes)
        if i:   # the node shared with the window before, or a stop band's
            a = bands[i - 1][1]
            part = part[1:] if lo == a else np.r_[0.5 * (a + lo), part]
        parts.append(part)
        size += len(part)
        end += [size - nodes, size - 1]
    w = np.concatenate(parts) if len(parts) > 1 else parts[0]   # no copy
    k, vg = disp.wavenumber_and_group(model, w)
    if any(math.isnan(vg[e]) for e in end):     # n 0 at an exact edge
        end = np.array(end)
        to = w[end + (1, -1) * len(bands)]
        for _ in range(64):
            if not (nan := np.isnan(vg[end]) & (w[end] != to)).any():
                break
            w[end[nan]] = np.nextafter(w[end[nan]], to[nan])
            k[end[nan]], vg[end[nan]] = disp.wavenumber_and_group(
                model, w[end[nan]])
    for a in (w, k, vg):
        a.flags.writeable = False
    return w, k, vg


def solve_line(ctx: PhaseContext, tol: float = 1e-10) -> list:
    """Every causal stationary point on a ``StraightLine`` or ``OffsetLine``
    with omega in [1e-3, 10] omega0 (and a fast source's range), widened to a
    lattice (``_bands``), sorted by tau_s; a zero carrier scans as omega0 = 1,
    and its points are the Cherenkov points.  ``_line_roots`` gives D on the
    near and far branch on the windows' cached grid (``_base_grid``); cells
    that may hide a root (``_hidden``) are split down to 1e-11 omega.
    ``solve_newton`` polishes each sign change of D in its bracket: across a
    fold from its joint, on a branch from the secant root or, when that
    misses a causal point in the bracket, from the root of D in it that
    Brent's method finds, unless |D| there shows a pole or jump of D (the
    bracket is then skipped).  A bracket left unpolished raises
    NoConvergence; a point two brackets share, or where D touches zero, is
    ``degenerate``."""
    if not isinstance(ctx.trajectory, (trj.StraightLine, trj.OffsetLine)):
        raise TypeError("solve_line needs a StraightLine or OffsetLine")
    geo = _line_geometry(ctx)
    # A zero carrier (the Cherenkov condition omega = k v_rad) scans the
    # windows of omega0 = 1: [1e-3, 10] in normalized frequency.
    bands = _bands(ctx.dispersion, ctx.omega0 or 1.0, math.sqrt(geo[2]))
    if not bands or geo[0] == 0:
        return []       # no band in range, or the source at x at time t
    w, *wave = _base_grid(ctx.dispersion, tuple(bands), _LINE_GRID)
    rows, disc = _line_roots(ctx, geo, w, wave)
    while True:
        cells, turns, joints = _hidden(w, rows, disc, geo)
        i = np.flatnonzero(cells & (np.diff(w) > _LINE_MIN_CELL * w[1:]))
        if not len(i):
            break
        new = (w[i, None] + np.diff(w)[i, None]
               * np.arange(1, _LINE_SPLIT) / _LINE_SPLIT).ravel()
        new_rows, new_disc = _line_roots(ctx, geo, new)
        order = np.argsort(np.r_[w, new], kind="stable")
        w = np.r_[w, new][order]
        rows = [np.r_[r, n][order] for r, n in zip(rows, new_rows)]
        disc = np.r_[disc, new_disc][order]
    # (lo, hi, seed omega, seed tau, tangent, branch): joints, sign changes on
    # the near (0) or far (1) branch, one try per run of turns left in the
    # finest cells from its node nearest zero (D touches zero, or rounding)
    tries = [(min(w[j], w[m]), max(w[j], w[m]), w[j],
              0.5 * (rows[0][j] + rows[2][j]), False, None) for j, m in joints]
    for b, (tau, d, turn) in enumerate(zip(rows[::2], rows[1::2], turns)):
        sb = np.signbit(d)
        j = np.flatnonzero((sb[:-1] != sb[1:]) & ~np.isnan(d[:-1] + d[1:]))
        f = np.divide(d[j], d[j] - d[j + 1], out=np.full(len(j), 0.5),
                      where=d[j] != d[j + 1])   # the secant root in the cell
        tries += [(w[i], w[i + 1], w[i] + g * (w[i + 1] - w[i]),
                   tau[i] + g * (tau[i + 1] - tau[i]), False, b)
                  for i, g in zip(j, f)]
        turn = np.flatnonzero(turn) + 1
        if len(turn):
            for run in np.split(turn, np.flatnonzero(
                    np.diff(w[turn]) > _DEDUPE_SEP * w[turn[1:]]) + 1):
                j = run[np.argmin(np.abs(d[run]))]
                tries.append((w[run[0] - 1], w[run[-1] + 1], w[j], tau[j],
                              True, None))

    def polish(seed, lo, hi):   # solve_newton's point if causal, in [lo, hi]
        try:
            sp = solve_newton(ctx, seed=seed, tol=tol)
        except START_FAILURES:
            return None
        pad = _DEDUPE_SEP * hi
        return sp if lo - pad <= sp.omega_s <= hi + pad \
            and ctx.t - sp.tau_s > 0 else None

    found = []
    for lo, hi, omega, tau, tangent, b in sorted(tries, key=lambda q: q[4]):
        sp = polish((omega, tau), lo, hi)
        if sp is None and b is not None:    # from the root of the branch's D
            try:
                root = _brentq(lambda x: _line_roots(ctx, geo, np.r_[x])[0]
                               [2 * b + 1][0], lo, hi, xtol=0.0, rtol=1e-15)
            except (ValueError, RuntimeError):
                pass        # NaN inside the bracket
            else:
                (t_r,), (d_r,) = _line_roots(ctx, geo, np.r_[root])[0][
                    2 * b:2 * b + 2]
                # 1e-15 omega off a root leaves |D| far below this: D changed
                # sign through a pole or a jump, with no root
                if abs(d_r) > 1e-8 * max(1.0, root, ctx.omega0):
                    continue
                sp = polish((root, t_r), lo, hi)
        if sp is None:
            if tangent:
                continue            # the extremum stays clear of zero
            raise NoConvergence(
                f"no causal stationary point polished from the bracket "
                f"omega in [{lo:.17g}, {hi:.17g}]",
                diagnostics=(float(lo), float(hi), float(omega), float(tau)))
        i = next((i for i, q in enumerate(found) if _repeats(sp, q)), None)
        if i is None:
            found.append(replace(sp, degenerate=True) if tangent else sp)
        elif not tangent:
            found[i] = replace(found[i], degenerate=True)
    return sorted(found, key=lambda p: p.tau_s)


def _repeats(p, q) -> bool:
    """p is q to within _DEDUPE_SEP max(1, |q|), per component."""
    return (abs(p.omega_s - q.omega_s)
            <= _DEDUPE_SEP * max(1.0, abs(q.omega_s))
            and abs(p.tau_s - q.tau_s) <= _DEDUPE_SEP * max(1.0, abs(q.tau_s)))


def saddle_contribution(lam: float, phase_value: float, det: float,
                        signature: int, amplitude: complex) -> complex:
    """Leading-order weight of one non-degenerate stationary point (n = 2):

        (2 pi / lam) exp(i (lam S + pi/4 sgn)) amplitude / sqrt(|det|).

    The prefactor is written as 2 pi / sqrt(lam**2 |det|) so that folding the
    scale into the phase (lam' = 1, S' = lam S, det' = lam**2 det) reproduces
    the unfolded value bit for bit.
    """
    if det == 0.0:
        raise DegeneratePoint("zero Hessian determinant")
    pref = 2.0 * math.pi / math.sqrt(lam * lam * abs(det))
    return pref * np.exp(1j * (lam * phase_value + 0.25 * math.pi * signature)) \
        * amplitude

