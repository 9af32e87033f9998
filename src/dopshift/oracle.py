"""Direct evaluation of regularized 2-D oscillatory integrals.

The integrals are given meaning as the cutoff limit

    F = lim_{R -> inf}  int chi(x/R) f(x) e^{i lam S(x)} dx

with chi a fixed C-infinity bump (1 on |u| <= 1/2, 0 on |u| >= 1); the limit
is independent of the bump profile.  A product bump chi(u1/R) chi(u2/R) is
used so the cutoff folds into the per-axis quadrature weights.

Quadrature: per axis, order-16 Gauss-Legendre panels sized from the local
phase gradient so the node density never drops below 6 points per local
phase oscillation; the 2-D tensor product is evaluated densely in blocks of
rows; each block's exponential and contraction with the axis weights run on
a thread pool of one thread per usable CPU, and the block sums are added in
block order, so the value is the same on any CPU count.  R doubles until two
successive values agree to the requested tolerance.

An integration-by-parts regularizer is also provided: the transpose of the
first-order operator L with L e^{iS} = e^{iS} maps the amplitude to one of
faster decay, improving the cutoff convergence order.
"""

import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (GradientVanishesUnbounded, NoConvergenceInR,
                     PhaseComplexOnBox)

__all__ = [
    "OscillatoryIntegrand", "OracleResult", "smooth_bump",
    "oscillatory_integral_2d", "ibp_regularize", "gaussian_saddle_case", "fresnel_case", "hyperbolic_saddle_case",
]

_CHUNK = 1 << 19          # elements per evaluation block
_SKIP_REL = 1e-12         # amplitude floor of the node extents, per peak
_PROBE_N = 129            # probe nodes per axis
_POINTS_PER_OSC = 6       # quadrature nodes per local phase oscillation
_GL_ORDER = 16            # Gauss-Legendre order of each panel
_MAX_NODES = 1 << 28      # tensor nodes of one pass, above every pass run
_MAX_DOUBLINGS = 10       # cutoff-radius doublings after the first pass


@dataclass(frozen=True)
class OscillatoryIntegrand:
    """Amplitude, phase and scale of one oscillatory integral.

    ``amplitude`` and ``phase`` must be pure and broadcast over their two
    arguments.  The quadrature calls them one way only: with two 2-D arrays
    that broadcast to a block of nodes (a column of w and a row of t, or two
    meshgrids), and broadcasts their results to that block.  ``phase_grad``
    (analytic, returning the pair of partials) is required by the
    integration-by-parts regularizer and used when available to size
    quadrature panels.  The quadrature calls the callbacks on the calling
    thread only, block after block (they need not be thread-safe, but must
    not overwrite an array they returned); its result does not depend on the
    CPU count.
    """

    amplitude: Callable
    phase: Callable
    lam: float
    phase_grad: Optional[Callable] = None

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")


@dataclass(frozen=True)
class OracleResult:
    value: complex
    R_used: float
    estimated_error: float


def _bump_profile(s: np.ndarray, sharpness: float) -> np.ndarray:
    """Smooth step: 0 at s<=0, 1 at s>=1, C-infinity in between."""
    s = np.clip(s, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(s > 0, np.exp(-sharpness / np.maximum(s, 1e-300)), 0.0)
        b = np.where(s < 1, np.exp(-sharpness / np.maximum(1 - s, 1e-300)), 0.0)
    return a / (a + b)


def smooth_bump(u, profile: str = "exp") -> np.ndarray:
    """C-infinity cutoff: 1 on |u| <= 1/2, 0 on |u| >= 1.

    Two distinct profiles ('exp' and 'exp2', different transition sharpness)
    are provided so cutoff independence can be checked.
    """
    sharp = {"exp": 1.0, "exp2": 2.0}[profile]
    u = np.abs(np.asarray(u, dtype=float))
    return _bump_profile(2.0 * (1.0 - u), sharp)


def _probe_box(ig: OscillatoryIntegrand, R: float):
    """Per-axis oscillation-rate and amplitude profiles over the box.

    The per-axis rate combines the phase gradient (scaled by lam) with the
    amplitude's log-derivative, so panels resolve peaked amplitudes (the
    integration-by-parts weights vary on the 1/lam scale) as well as the
    oscillation.  Also returns per-axis effective amplitude extents: beyond
    them every probed |amplitude| sits below the ``_SKIP_REL`` floor, so
    quadrature nodes there are wasted (the cutoff only widens its plateau as
    R grows and cannot revive them).
    """
    g = np.linspace(-R, R, _PROBE_N)
    X, Y = np.meshgrid(g, g, indexing="ij")
    S = np.asarray(ig.phase(X, Y))
    if np.iscomplexobj(S) or not np.all(np.isfinite(S)):
        raise PhaseComplexOnBox("phase must be real and finite on the box")
    if ig.phase_grad is not None:
        sx, sy = ig.phase_grad(X, Y)
    else:
        sx = np.gradient(S, g, axis=0)
        sy = np.gradient(S, g, axis=1)
    amp = np.abs(np.asarray(ig.amplitude(X, Y))) * np.ones_like(X)
    amp_scale = float(np.max(amp))
    # log-derivative of the amplitude, probe-resolution limited; the factor 2
    # guards against peaks narrower than the probe spacing
    ref = np.maximum(amp, 1e-3 * amp_scale if amp_scale > 0 else 1.0)
    lax = 2.0 * np.abs(np.gradient(amp, g, axis=0)) / ref
    lay = 2.0 * np.abs(np.gradient(amp, g, axis=1)) / ref
    gx = np.max(ig.lam * np.abs(np.asarray(sx)) + lax, axis=1)
    gy = np.max(ig.lam * np.abs(np.asarray(sy)) + lay, axis=0)
    pad = 2.0 * (g[1] - g[0])
    floor = _SKIP_REL * amp_scale

    def extent(profile_max):
        live = g[profile_max >= floor]
        return R if live.size == 0 else min(R, float(np.max(np.abs(live))) + pad)

    ext_x = extent(np.max(amp, axis=1))
    ext_y = extent(np.max(amp, axis=0))
    return g, gx, gy, amp_scale, ext_x, ext_y


def _axis_rule(extent: float, grid: np.ndarray, gprof: np.ndarray):
    """Panelized Gauss-Legendre nodes/weights on [-extent, extent].

    ``gprof`` is the per-axis total variation rate (lam * |dS/du| plus the
    amplitude log-derivative); panel widths keep at least ``_POINTS_PER_OSC``
    nodes per local 2*pi span of it and never exceed a fixed fraction of the
    node range.  A width re-checked against the largest rate at five probes
    across it only narrows: a panel never outgrows the span probed.
    """
    nodes, weights = leggauss(_GL_ORDER)
    span_phase = _GL_ORDER * 2.0 * math.pi / _POINTS_PER_OSC
    xs, ws = [], []
    u = -extent
    wmax = extent / 6.0
    while u < extent:
        w = wmax
        for _ in range(3):
            probes = np.interp(u + np.linspace(0.0, w, 5), grid, gprof)
            gloc = max(float(np.max(probes)), 1e-12)
            w_new = min(span_phase / gloc, wmax)
            if w_new >= 0.9 * w:
                w = min(w, w_new)
                break
            w = w_new
        w = max(w, 2.0 * extent * 1e-7)
        hi = min(u + w, extent)
        mid, half = 0.5 * (u + hi), 0.5 * (hi - u)
        xs.append(mid + half * nodes)
        ws.append(half * weights)
        u = hi
    return np.concatenate(xs), np.concatenate(ws)


def _workers() -> int:
    """Threads of the block pool: the CPUs this process may run on."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def _block_sum(lam, amp, P, wx, wy):
    """sum_ij wx_i wy_j amp_ij exp(i lam P_ij) over one block."""
    val = np.zeros((len(wx), len(wy)), dtype=complex)
    np.multiply(P, lam, out=val.imag)        # val = 1j * lam * P
    np.exp(val, out=val)
    val *= amp
    # einsum, not BLAS: a threaded BLAS would spin against the pool
    return wx @ np.einsum("ij,j->i", val, wy)


def _integrate_once(ig: OscillatoryIntegrand, R: float, profile: str
                    ) -> complex:
    from concurrent.futures import ThreadPoolExecutor
    grid, gx, gy, amp_scale, ext_x, ext_y = _probe_box(ig, R)
    if amp_scale == 0.0:
        return 0.0 + 0.0j
    xs, wxs = _axis_rule(ext_x, grid, gx)
    ys, wys = _axis_rule(ext_y, grid, gy)
    if (nodes := len(xs) * len(ys)) > _MAX_NODES:
        raise NoConvergenceInR(f"the pass at R = {R:g} needs {nodes} nodes")
    wxs = wxs * smooth_bump(xs / R, profile)
    wys = wys * smooth_bump(ys / R, profile)
    total = 0.0 + 0.0j
    rows_per_chunk = max(1, _CHUNK // len(ys))
    Y = ys[None, :]
    workers, pending = _workers(), []
    # Callbacks run here, block by block; at most workers + 1 blocks are in
    # flight on the pool, and their sums are added in block order.
    with ThreadPoolExecutor(workers) as pool:
        for i0 in range(0, len(xs), rows_per_chunk):
            X = xs[i0:i0 + rows_per_chunk, None]
            pending.append(pool.submit(
                _block_sum, ig.lam, ig.amplitude(X, Y), ig.phase(X, Y),
                wxs[i0:i0 + len(X)], wys))
            if len(pending) > workers:
                total += pending.pop(0).result()
        for fut in pending:
            total += fut.result()
    return complex(total)


def oscillatory_integral_2d(ig: OscillatoryIntegrand, R0: float = 2.0,
                            tol: float = 1e-6, profile: str = "exp"
                            ) -> OracleResult:
    """Cutoff-regularized value of the 2-D oscillatory integral.

    Doubles the cutoff radius until two successive values differ (relative
    to the latest magnitude, with an absolute floor of ``tol``) by less than
    ``tol``; raises when 2**10 * R0 is exceeded, or before a pass whose
    tensor grid would exceed ``_MAX_NODES`` nodes.
    """
    if R0 <= 0 or tol <= 0:
        raise ValueError("R0 and tol must be positive")
    prev = None
    R = R0
    for _ in range(_MAX_DOUBLINGS + 1):
        cur = _integrate_once(ig, R, profile)
        if prev is not None:
            diff = abs(cur - prev)
            if diff <= tol * max(abs(cur), tol):
                return OracleResult(value=cur, R_used=R, estimated_error=diff)
        prev = cur
        R *= 2.0
    raise NoConvergenceInR(
        f"no convergence up to R = {R / 2:g} (started at {R0:g})")


# -- integration-by-parts regularization ------------------------------------

def _check_gradient_growth(ig: OscillatoryIntegrand, radii=(8.0, 16.0, 32.0),
                           n_angle: int = 64):
    mins = []
    th = np.linspace(0.0, 2.0 * math.pi, n_angle, endpoint=False)
    for R in radii:
        sx, sy = ig.phase_grad(R * np.cos(th), R * np.sin(th))
        mins.append(float(np.min(np.hypot(sx, sy))))
    if min(mins) <= 0:
        raise GradientVanishesUnbounded("phase gradient vanishes far out")
    slope = np.polyfit(np.log(radii), np.log(mins), 1)[0]
    if slope < 0.05:
        raise GradientVanishesUnbounded(
            f"|grad S| does not grow at infinity (measured exponent {slope:.3f})")
    return slope


def ibp_regularize(ig: OscillatoryIntegrand, j: int) -> OscillatoryIntegrand:
    """Replace the amplitude by (L^T)^j applied to it.

    L^T g = w g + i [d/dw (w g S_w) + d/dt (w g S_t)], w = 1/(1 + |grad S|**2).

    The integral value is unchanged while the amplitude decay improves by the
    measured gradient-growth exponent per application.  Divergence terms are
    formed by central differences of the analytic-weight products, so only
    the phase gradient callback is required.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if ig.phase_grad is None:
        raise ValueError("phase_grad callback required")
    _check_gradient_growth(ig)

    def weight(wc, tc):
        # gradient of the full phase lam * S, so that L e^{i lam S} = e^{i lam S}
        gx, gy = ig.phase_grad(wc, tc)
        sx, sy = ig.lam * gx, ig.lam * gy
        return 1.0 / (1.0 + sx ** 2 + sy ** 2), sx, sy

    def transpose_apply(g):
        def lt_g(wc, tc):
            wc = np.asarray(wc, dtype=float)
            tc = np.asarray(tc, dtype=float)
            w2, _, _ = weight(wc, tc)

            def px(a):
                ww, sxa, _ = weight(a, tc)
                return g(a, tc) * ww * sxa

            def py(b):
                ww, _, syb = weight(wc, b)
                return g(wc, b) * ww * syb

            hx = 1e-5 * (1.0 + np.abs(wc))
            hy = 1e-5 * (1.0 + np.abs(tc))
            ddx = (px(wc + hx) - px(wc - hx)) / (2.0 * hx)
            ddy = (py(tc + hy) - py(tc - hy)) / (2.0 * hy)
            return w2 * g(wc, tc) + 1j * (ddx + ddy)

        return lt_g

    amp = ig.amplitude
    for _ in range(j):
        amp = transpose_apply(amp)
    return replace(ig, amplitude=amp)


# -- model cases -------------------------------------------------------------

def gaussian_saddle_case(lam: float):
    """Gaussian amplitude on the elliptic saddle S = (w**2 + t**2)/2.

    Exact value 2 pi/(1 - i lam); leading-order saddle value 2 pi i/lam
    (det = 1, signature = +2, S = 0, amplitude 1 at the origin).
    """
    ig = OscillatoryIntegrand(
        amplitude=lambda w, t: np.exp(-0.5 * (w ** 2 + t ** 2)),
        phase=lambda w, t: 0.5 * (w ** 2 + t ** 2),
        lam=lam,
        phase_grad=lambda w, t: (w * np.ones_like(t), t * np.ones_like(w)))
    asymptotic = 2.0j * math.pi / lam
    exact = 2.0 * math.pi / (1.0 - 1j * lam)
    return ig, asymptotic, exact


def fresnel_case(lam: float):
    """Unit amplitude on the elliptic saddle: the saddle value is exact."""
    ig = OscillatoryIntegrand(
        amplitude=lambda w, t: np.ones(np.broadcast(w, t).shape),
        phase=lambda w, t: 0.5 * (w ** 2 + t ** 2),
        lam=lam,
        phase_grad=lambda w, t: (w * np.ones_like(t), t * np.ones_like(w)))
    value = 2.0j * math.pi / lam
    return ig, value, value


def hyperbolic_saddle_case(lam: float):
    """Gaussian amplitude on S = w t (det = -1, signature = 0).

    Exact value 2 pi/sqrt(1 + lam**2); saddle value 2 pi/lam.
    """
    ig = OscillatoryIntegrand(
        amplitude=lambda w, t: np.exp(-0.5 * (w ** 2 + t ** 2)),
        phase=lambda w, t: w * t,
        lam=lam,
        phase_grad=lambda w, t: (t * np.ones_like(w), w * np.ones_like(t)))
    asymptotic = 2.0 * math.pi / lam
    exact = 2.0 * math.pi / math.sqrt(1.0 + lam * lam)
    return ig, asymptotic, exact
