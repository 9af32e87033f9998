"""``solve_line`` against the scan it replaced, kept here as the reference.

``_reference_solve_line`` is the enumeration as it stood before the
one-pass branch scan: ``_line_roots`` built tau and D of each branch as
separate rows, ``_hidden`` ran ``_turns`` on each branch and ``_joints``
on the pair as full-length boolean arrays, and the bracket builder
re-read the sign changes.  Same grid, same float operations, same order
of tries: every output must agree bit for bit, and every failure must be
the same exception with the same diagnostics.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dopshift import dispersion as disp
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift.errors import NoConvergence
from dopshift.units import omega_from_thz


def _ref_line_roots(ctx, geo, w, wave=None):
    ee, ev, vv = geo
    k, vg = wave or disp.wavenumber_and_group(ctx.dispersion, w)
    disc, den = sph._retardation(geo, vg)
    near = (disc >= 0) & (den > 0)
    vg2, dw = vg * vg, w - ctx.omega0
    rows = []
    for ok, num, div in ((near, ee, den), (near & (vv > vg2), den, vv - vg2)):
        u = np.divide(num, div, out=np.full(w.shape, np.nan), where=ok)
        rows += [ctx.t - u, dw - k * (ev + vv * u) / (vg * u)]
    return rows, disc


def _ref_turns(d):
    s = np.diff(d)
    sign, size = np.sign(s), np.abs(s)
    return (sign[:-1] * sign[1:] < 0) & ((s[:-1] > 0) == (d[1:-1] < 0)) \
        & (np.abs(d[1:-1]) <= size[:-1] + size[1:])


def _ref_joints(w, rows, disc, near, far):
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


def _ref_hidden(w, rows, disc, geo):
    ee, ev, vv = geo
    cells = np.zeros(len(w) - 1, dtype=bool)
    turns = [_ref_turns(d) for d in rows[1::2]]
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
    joints = _ref_joints(w, rows, disc, near, far) \
        if vv * ee - ev * ev > 1e-12 * vv * ee else []
    for j, m in joints:
        cells[min(j, m)] |= not disc[m] < 0
    return cells, turns, joints


def _reference_solve_line(ctx, tol=1e-10, reached=None):
    """``solve_line`` before the one-pass scan; ``reached``, a set, collects
    the routes taken: "split", "joint", "tangent", "brent" and "raise"."""
    reached = set() if reached is None else reached
    if not isinstance(ctx.trajectory, trj.StraightLine):
        raise TypeError("solve_line needs a StraightLine")
    geo = sph._line_geometry(ctx)
    bands = sph._bands(ctx.dispersion, ctx.omega0 or 1.0, math.sqrt(geo[2]))
    if not bands or geo[0] == 0:
        return []
    w, *wave = sph._base_grid(ctx.dispersion, tuple(bands), sph._LINE_GRID)
    rows, disc = _ref_line_roots(ctx, geo, w, wave)
    while True:
        cells, turns, joints = _ref_hidden(w, rows, disc, geo)
        i = np.flatnonzero(cells & (np.diff(w) > sph._LINE_MIN_CELL * w[1:]))
        if not len(i):
            break
        reached.add("split")
        new = (w[i, None] + np.diff(w)[i, None]
               * np.arange(1, sph._LINE_SPLIT) / sph._LINE_SPLIT).ravel()
        new_rows, new_disc = _ref_line_roots(ctx, geo, new)
        order = np.argsort(np.r_[w, new], kind="stable")
        w = np.r_[w, new][order]
        rows = [np.r_[r, n][order] for r, n in zip(rows, new_rows)]
        disc = np.r_[disc, new_disc][order]
    tries = [(min(w[j], w[m]), max(w[j], w[m]), w[j],
              0.5 * (rows[0][j] + rows[2][j]), False, None) for j, m in joints]
    for b, (tau, d, turn) in enumerate(zip(rows[::2], rows[1::2], turns)):
        sb = np.signbit(d)
        j = np.flatnonzero((sb[:-1] != sb[1:]) & ~np.isnan(d[:-1] + d[1:]))
        f = np.divide(d[j], d[j] - d[j + 1], out=np.full(len(j), 0.5),
                      where=d[j] != d[j + 1])
        tries += [(w[i], w[i + 1], w[i] + g * (w[i + 1] - w[i]),
                   tau[i] + g * (tau[i + 1] - tau[i]), False, b)
                  for i, g in zip(j, f)]
        turn = np.flatnonzero(turn) + 1
        if len(turn):
            for run in np.split(turn, np.flatnonzero(
                    np.diff(w[turn]) > sph._DEDUPE_SEP * w[turn[1:]]) + 1):
                j = run[np.argmin(np.abs(d[run]))]
                tries.append((w[run[0] - 1], w[run[-1] + 1], w[j], tau[j],
                              True, None))
    reached.update(["joint"] * bool(joints)
                   + ["tangent"] * any(q[4] for q in tries))

    def polish(seed, lo, hi):
        try:
            sp = sph.solve_newton(ctx, seed=seed, tol=tol)
        except sph.START_FAILURES:
            return None
        pad = sph._DEDUPE_SEP * hi
        return sp if lo - pad <= sp.omega_s <= hi + pad \
            and ctx.t - sp.tau_s > 0 else None

    found = []
    for lo, hi, omega, tau, tangent, b in sorted(tries, key=lambda q: q[4]):
        sp = polish((omega, tau), lo, hi)
        if sp is None and b is not None:
            reached.add("brent")
            try:
                root = sph._brentq(lambda x: _ref_line_roots(
                    ctx, geo, np.r_[x])[0][2 * b + 1][0], lo, hi, xtol=0.0,
                    rtol=1e-15)
            except (ValueError, RuntimeError):
                pass
            else:
                (t_r,), (d_r,) = _ref_line_roots(ctx, geo, np.r_[root])[0][
                    2 * b:2 * b + 2]
                if abs(d_r) > 1e-8 * max(1.0, root, ctx.omega0):
                    continue
                sp = polish((root, t_r), lo, hi)
        if sp is None:
            if tangent:
                continue
            reached.add("raise")
            raise NoConvergence(
                f"no causal stationary point polished from the bracket "
                f"omega in [{lo:.17g}, {hi:.17g}]",
                diagnostics=(float(lo), float(hi), float(omega), float(tau)))
        i = next((i for i, q in enumerate(found) if sph._repeats(sp, q)), None)
        if i is None:
            found.append(replace(sp, degenerate=True) if tangent else sp)
        elif not tangent:
            found[i] = replace(found[i], degenerate=True)
    return sorted(found, key=lambda p: p.tau_s)


def _outcome(solve, ctx, tol=1e-10):
    """The points as comparable tuples (the Hessian as bytes), or the
    exception's type and diagnostics."""
    try:
        points = solve(ctx, tol)
    except (NoConvergence, ValueError) as err:
        return type(err), getattr(err, "diagnostics", None)
    return [(p.omega_s, p.tau_s, p.det, p.signature, p.residual_norm,
             p.iterations, p.degenerate, p.converged, p.hessian.tobytes())
            for p in points]


def _lorentz(draw, lossy):
    """A random one-resonance-pair metamaterial (resonances 0.3-1.5)."""
    f = st.floats(0.3, 1.5)
    gamma = st.sampled_from([1e-4, 1e-2]) if lossy else st.just(0.0)
    return disp.LorentzMetamaterial(draw(f), draw(f), draw(gamma), draw(f),
                                    draw(f), draw(gamma))


@st.composite
def line_events(draw):
    """Straight-line events in a plasma, a dielectric and lossless or lossy
    Lorentz media: carriers at random, zero (Cherenkov) or a hair from a
    band edge; observers anywhere or on the line of motion."""
    kind = draw(st.sampled_from(["plasma", "nondispersive", "lorentz",
                                 "lorentz-lossy"]))
    if kind == "plasma":
        model = disp.ColdPlasma(omega_p=draw(st.floats(0.5, 2.0)))
    elif kind == "nondispersive":
        model = disp.NonDispersive(eps=draw(st.floats(1.0, 6.0)))
    else:
        model = _lorentz(draw, kind == "lorentz-lossy")
    edges = [e for band in disp._band_table(model) for e in band
             if 0.0 < e < math.inf]
    carrier = draw(st.sampled_from(["random", "zero"]
                                   + ["edge"] * bool(edges)))
    if carrier == "zero":
        omega0 = 0.0
    elif carrier == "edge":
        omega0 = draw(st.sampled_from(edges)) \
            * (1.0 + draw(st.floats(-1e-3, 1e-3)))
    else:
        omega0 = draw(st.floats(0.2, 4.0))
    speed = 10.0 ** draw(st.floats(-3.0, -0.03))
    theta, phi = draw(st.floats(0.0, math.pi)), draw(st.floats(0.0, 6.3))
    v = (speed * math.sin(theta) * math.cos(phi),
         speed * math.sin(theta) * math.sin(phi), speed * math.cos(theta))
    origin = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(3))
    t = draw(st.floats(-1.0, 4.0))
    if draw(st.booleans()):     # collinear: x on the line of motion
        s = draw(st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 1e-3))
        x = tuple(o + c * t + s * c / speed for o, c in zip(origin, v))
    else:
        x = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(3))
    return sph.PhaseContext(t=t, x=x, omega0=omega0,
                            trajectory=trj.StraightLine(origin, v),
                            dispersion=model)


# Events (with tol) on which the reference takes each of its rarer routes:
# cell splits (fold, brent, draw-197), fold joints (draw-165), a tangent try
# (the fold event with the carrier raised until D touches zero near 397.18
# THz), the Brent fallback (brent, draw-197 at 1e-11) and NoConvergence
# (draw-165, draw-197 at 1e-11).  On plasma-edge (carrier at the plasma
# frequency, e.v < 0) only the end rule for e.v < 0 splits the cell where
# the near root ends at its fold: its one point is lost without it.
_FOLD = sph.PhaseContext(t=40.0, x=(0.002, 0.1, 0.0),
                         omega0=omega_from_thz(427.8),
                         trajectory=trj.OffsetLine(v=0.007),
                         dispersion=disp.lorentz_from_thz())
DECK = {
    "fold": (_FOLD, 1e-10),
    "tangent": (replace(_FOLD, omega0=0.7090360625404466), 1e-10),
    "brent": (sph.PhaseContext(
        t=1.049, x=(0.0, 2.316, 0.0), omega0=0.59089,
        trajectory=trj.OffsetLine(-0.509),
        dispersion=disp.LorentzMetamaterial(1.137, 0.307, 0.0, 0.347,
                                            0.479, 0.0)), 1e-10),
    "plasma-edge": (sph.PhaseContext(
        t=3.037, x=(1.721, 2.492, 1.022), omega0=0.67,
        trajectory=trj.StraightLine(velocity=(-4e-05, -0.00179, 0.00063)),
        dispersion=disp.ColdPlasma(omega_p=0.67)), 1e-10),
    "draw-165": (sph.PhaseContext(
        t=1.6312954494508707, omega0=1.836660592198563,
        trajectory=trj.OffsetLine(0.3244562487996291),
        x=(0.021680442344743867, -0.7973175553112326, -0.113112857186773),
        dispersion=disp.LorentzMetamaterial(
            1.413116296944594, 1.096050408883327, 0.0,
            0.9548221967477237, 0.9431772168649364, 0.0)), 1e-10),
    "draw-197": (sph.PhaseContext(
        t=2.0942913166615034, omega0=0.0,
        trajectory=trj.StraightLine(velocity=(0.0, 0.0, 0.7998290917188082)),
        x=(0.7553435159919157, 0.47516288371741866, -0.5539215982738217),
        dispersion=disp.LorentzMetamaterial(
            1.3557215194487238, 1.386021726062597, 0.01,
            0.7339473218775148, 1.2488741256509708, 0.01)), 1e-11),
}


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(ctx=line_events())
    def test_bit_equal_to_reference(self, ctx):
        assert _outcome(sph.solve_line, ctx) \
            == _outcome(_reference_solve_line, ctx)

    def test_deck_reaches_every_route(self):
        reached = set()
        for ctx, tol in DECK.values():
            want = _outcome(lambda c, t: _reference_solve_line(c, t, reached),
                            ctx, tol)
            assert _outcome(sph.solve_line, ctx, tol) == want
        assert reached == {"split", "joint", "tangent", "brent", "raise"}
