"""Golden values: solver results, field amplitudes and CLI output, bit for bit.

Every expected value below was recorded with the code as it stood before the
phase derivatives, the phase and the amplitude factors were each reduced to
one implementation, so these tests pin that refactor to identical floats.
Solver results are compared through the ``repr`` of
(omega_s, tau_s, det, signature, iterations, residual_norm) and the raw bytes
of the Hessian; fields through the raw bytes of E and H.

Two pins, ``LORENTZ`` and the moving-source fields, were re-recorded when the
range, the dot products and the Newton step moved from numpy to plain float
arithmetic: BLAS ``ddot`` fuses multiply-add and a plain sum does not, so
their last bits moved.  The values recorded before (``*_NUMPY``) stay as a
check that the two agree within 1e-12 relative, with equal iteration counts
and signatures.

The moving-source fields were re-recorded once more when the field amplitude
took its weight from ``stationary_phase.saddle_contribution`` instead of
its own prefactor: the weight is now formed as 2 pi / sqrt|det| times
a / (8 pi**2 r), not a / (4 pi r sqrt|det|), so E and H moved in their last
bits (at most 3.2e-16 of the largest component).  The values recorded before
(``*_PREFACTOR``) stay as a check within 1e-12.

The band scan (the window that holds the carrier and the roots of
``fields.metamaterial_doppler_1d``) was recorded before its band-edge
bisection and root polish moved from ``dispersion.sample`` to the
derivative-free ``dispersion.index_and_flag``.  It is split in two since the
band edges come from the per-medium band table
(``dispersion._band_table``) instead of a march from the carrier in
1e-3 omega0 steps.  ``BAND_SCAN`` holds the Lorentz carriers whose band
ends on two table edges, or that do not propagate; it was recorded with the
march and is unchanged, since the table's edges equal the march's bisected
ones bit for bit.  ``BAND_SCAN_CLIPPED`` holds the carriers whose band ends
on the [1e-3, 10] omega0 clip (Lorentz below 398 or above 506 THz, the
non-dispersive and the plasma ones) and was re-recorded: the march stopped
at its last step inside the clip, the table clips at exactly 1e-3 and
10 omega0, so the scan grid and the roots moved (at most 3.2e-15 relative);
the non-dispersive and plasma roots are checked against their closed forms
within 1e-14.  It was re-recorded once more when the scan took its window
from ``stationary_phase._bands`` (and its grid from ``_base_grid``): each
clip end widens outward to the lattice 2**(j/256), by less than 0.27 %.
The window moved for 115 of the 117 carriers (not for the two plasma
carriers at or below the cutoff, which have none), and so did the scan grid:
402 of the 702 root cells moved, none between a root list and an error or
to another root count.  The moved roots are 370 Lorentz cells (at most
2.9e-15 relative), 27 plasma cells (at most 1.7e-15) and 5 non-dispersive
cells (at most 2.0e-16: w0 0.2 at v 0.3, 0.5, 0.9 and w0 5.0 at v 0.3, 0.5,
all sign +1).

``APPROACH`` was re-recorded when ``default_seed`` took its retarded time on
a line kind from the closed-form root of the retardation quadratic instead
of bisection: the seed moved in its last bits, and so did the converged
tau_s (2 ulp) and the residual (0 to 1.8e-15).  The value recorded before
(``APPROACH_BISECTION``) stays as a check within 1e-12, with equal
iterations and signature.

``plasma_head_on`` takes the enumerated causal point nearest the closed form
(``stationary_phase.solve_line``), whose Newton polish starts inside the
root's bracket instead of at ``default_seed`` (approach) or a hand-made
seed near the closed form (recession).  Its points are pinned apart, as
``HEAD_ON_APPROACH`` and ``HEAD_ON_RECEDING``: the approach omega_s moved
1 ulp from ``APPROACH``, tau_s 1.4e-15 relative, and the polish takes 2
iterations, not 3; the receding tau_s moved 1 ulp from ``RECEDING``.  They
stay checked within 1e-12 of ``APPROACH_BISECTION`` and ``RECEDING``.

They, the ``ENUMERATED`` sets, the planar point, three CLI rows and the
seed-box ``LINE_FIELDS`` digest were re-recorded when ``solve_line`` took
its windows from the band table's exact edges and a carrier-independent
lattice, and seeded each branch bracket's polish at the secant root of D
in it instead of its midpoint: the Newton seeds moved, and with them the
last digits of the points.  ``HEAD_ON_APPROACH`` moved 2.1e-13 relative in
tau_s (1 iteration, not 2), ``HEAD_ON_RECEDING`` 1 ulp in tau_s (2, not 3),
the other points at most 8.8e-12, E and H at most 7.5e-12 of their largest
component; the CLI residual and relative-gap cells stay below tol.
"""

import ast
import hashlib
import math

import numpy as np
import pytest

from dopshift import cli
from dopshift import dispersion as disp
from dopshift import fields as fld
from dopshift import stationary_phase as sph
from dopshift import trajectory as trj
from dopshift import validation
from dopshift.errors import BelowCutoff, DopshiftError
from dopshift.units import omega_from_thz

PLASMA = disp.ColdPlasma(omega_p=1.0)


def plasma_ctx(x2):
    return sph.PhaseContext(
        t=1.0, x=(0.0, x2, 0.0), omega0=2.0,
        trajectory=trj.StraightLine(velocity=(0.0, 0.5, 0.0)),
        dispersion=PLASMA)


def lorentz_ctx():
    return sph.PhaseContext(
        t=0.0, x=(0.01, 0.2, 0.0), omega0=omega_from_thz(424.0),
        trajectory=trj.OffsetLine(v=1e-3, H=0.0),
        dispersion=disp.lorentz_from_thz())


def key(sp):
    return (repr((float(sp.omega_s), float(sp.tau_s), sp.det, sp.signature,
                  sp.iterations, sp.residual_norm)),
            sp.hessian.tobytes().hex())


APPROACH = (
    "(3.86851709182133, -6.510535164768803, -0.23271759497133723, 0, 3, "
    "1.7763568394002505e-15)",
    "dd0f8cb15acbc1bfbc327e4fc6dfde3fbc327e4fc6dfde3f0000000000000080")
APPROACH_BISECTION = (
    "(3.86851709182133, -6.510535164768805, -0.23271759497133723, 0, 3, 0.0)",
    "dd0f8cb15acbc1bfbc327e4fc6dfde3fbc327e4fc6dfde3f0000000000000080")
RECEDING_CLOSED = 1.4648162415120034
RECEDING_SEED = (1.4662810577535152, -2.7564023547027503)
RECEDING = (
    "(1.4648162415120036, -2.6564023547027498, -2.8367268494731075, 0, 3, "
    "8.95090418262362e-16)",
    "8dd31f250e6e01c0fc1dcb16b9f2fa3ffc1dcb16b9f2fa3f0000000000000080")
HEAD_ON_APPROACH = (
    "(3.8685170918213663, -6.510535164767409, -0.23271759497133745, 0, 1, "
    "6.69034212406622e-13)",
    "650d8cb15acbc1bfc0327e4fc6dfde3fc0327e4fc6dfde3f0000000000000080")
HEAD_ON_RECEDING = (
    "(1.4648162415120036, -2.6564023547027498, -2.8367268494731075, 0, 2, "
    "8.95090418262362e-16)",
    "8dd31f250e6e01c0fc1dcb16b9f2fa3ffc1dcb16b9f2fa3f0000000000000080")
LORENTZ = (
    "(0.6653673440707604, -17.1394505689918, -0.8486610116765511, 0, 3, "
    "1.4210857496182952e-14)",
    "4c16c794415590c084df3703c07aed3f84df3703c07aed3f9ee10085284347be")
LORENTZ_NUMPY = (
    "(0.6653673440707604, -17.13945056899181, -0.8486610116765511, 0, 3, "
    "2.486899734073558e-14)",
    "4d16c794415590c084df3703c07aed3f84df3703c07aed3f9fe10085284347be")
GRID = [(
    "(3.86851709182133, -6.510535164768806, -0.23271759497133723, 0, 9, 0.0)",
    "de0f8cb15acbc1bfbc327e4fc6dfde3fbc327e4fc6dfde3f0000000000000080")]
def assert_near_pin(sp, pin, iterations=None):
    """sp within 1e-12 of a recorded pin, with its signature and iterations
    (``iterations`` instead, for a solve from another seed); the residual is
    a rounding-level number below tol and is not compared."""
    omega, tau, det, sig, iters, _ = ast.literal_eval(pin[0])
    assert (sp.signature, sp.iterations) == (sig, iterations or iters)
    assert [sp.omega_s, sp.tau_s, sp.det] == pytest.approx(
        [omega, tau, det], rel=1e-12, abs=0)
    hess = np.frombuffer(bytes.fromhex(pin[1])).reshape(2, 2)
    assert np.allclose(sp.hessian, hess, rtol=1e-12, atol=0)


class TestSolverGolden:
    def test_plasma_approach(self):
        ctx = plasma_ctx(4.0)
        sp = sph.solve_newton(ctx, tol=1e-12)
        assert key(sp) == APPROACH
        assert_near_pin(sp, APPROACH_BISECTION)
        assert sph.hessian(ctx, sp.omega_s, sp.tau_s).tobytes() \
            == sp.hessian.tobytes()

    def test_plasma_seeded_receding(self):
        ctx = plasma_ctx(-4.0)
        sp = sph.solve_newton(ctx, seed=RECEDING_SEED, tol=1e-12)
        assert key(sp) == RECEDING
        assert sph.hessian(ctx, sp.omega_s, sp.tau_s).tobytes() \
            == sp.hessian.tobytes()

    def test_plasma_head_on_both_branches(self):
        closed, sp = fld.plasma_head_on(2.0, 1.0, 0.5, True)
        assert key(sp) == HEAD_ON_APPROACH
        assert_near_pin(sp, APPROACH_BISECTION, iterations=1)
        closed, sp = fld.plasma_head_on(2.0, 1.0, 0.5, False)
        assert repr(closed) == repr(RECEDING_CLOSED)
        assert key(sp) == HEAD_ON_RECEDING
        assert_near_pin(sp, RECEDING, iterations=2)

    def test_lorentz_default_seed(self):
        ctx = lorentz_ctx()
        sp = sph.solve_newton(ctx)
        assert key(sp) == LORENTZ
        assert sph.hessian(ctx, sp.omega_s, sp.tau_s).tobytes() \
            == sp.hessian.tobytes()
        assert_near_pin(sp, LORENTZ_NUMPY)

    def test_solve_grid(self):
        pts = sph.solve_grid(plasma_ctx(4.0), (1.5, 6.0), (-8.0, 0.9),
                             n_omega=5, n_tau=5)
        assert [key(p) for p in pts] == GRID


MOVING_E_PREFACTOR = (
    "f0290e30f8b010bf91cc92028683dfbe3d6c03e56d3ea6bfa42b7b5aa5ff74bf"
    "3f8dbdea4a4106bf61880c575902d5be")
MOVING_H_PREFACTOR = (
    "e9c015be9ae752bf077a7ef2acd821bf00000000000000000000000000000000"
    "5ea1201d685b5c3f0ab7bd6b03c52a3f")
MOVING_E_NUMPY = (
    "f0290e30f8b010bf19cd92028683dfbe3d6c03e56d3ea6bffe2b7b5aa5ff74bf"
    "418dbdea4a4106bfbc880c575902d5be")
MOVING_H_NUMPY = (
    "eac015be9ae752bf547a7ef2acd821bf00000000000000000000000000000000"
    "5ea1201d685b5c3f7db7bd6b03c52a3f")


class TestFieldsGolden:
    def test_moving_source(self):
        out = fld.moving_source_fields(
            fld.SourceModel(omega0=2.0),
            trj.StraightLine(velocity=(0.0, 0.5, 0.0)), PLASMA,
            (0.3, 4.0, 0.2), 1.0)
        assert len(out) == 1
        c = out[0]
        assert repr(float(c.phase_value)) == "11.113033406934996"
        assert c.E.tobytes().hex() == (
            "f1290e30f8b010bf93cc92028683dfbe3f6c03e56d3ea6bfa52b7b5aa5ff74bf"
            "418dbdea4a4106bf62880c575902d5be")
        assert c.H.tobytes().hex() == (
            "ebc015be9ae752bf087a7ef2acd821bf00000000000000000000000000000000"
            "60a1201d685b5c3f0cb7bd6b03c52a3f")
        # Within 1e-12 of the own-prefactor and numpy-arithmetic values.
        assert c.phase_value == pytest.approx(11.113033406934997, rel=1e-12)
        for got, hex_ref in ((c.E, MOVING_E_PREFACTOR),
                             (c.H, MOVING_H_PREFACTOR),
                             (c.E, MOVING_E_NUMPY), (c.H, MOVING_H_NUMPY)):
            ref = np.frombuffer(bytes.fromhex(hex_ref), complex)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_motionless_source_uses_polarization(self):
        out = fld.moving_source_fields(
            fld.SourceModel(omega0=2.0, polarization=(0.0, 0.0, 1.0)),
            trj.OffsetLine(v=0.0, H=0.0), PLASMA, (0.3, 4.0, 0.2), 1.0)
        assert len(out) == 1
        c = out[0]
        assert repr(float(c.phase_value)) == "4.956292115775472"
        assert c.E.tobytes().hex() == (
            "f2fe965467acf2bec02b55ed8e96d2be40fe50e2561f2fbf419e3836eefa0ebf"
            "62ff3004733ea1bf600a79ba462a81bf")
        assert c.H.tobytes().hex() == (
            "366fead27cfba03fc7ea29df9ee7803f74854c30fc6064bf88e6cb0b254944bf"
            "00000000000000000000000000000000")


PLANAR_SEED_BOX = (1.1219837606586516, -0.557698681907331)


def test_planar_enumerated_point():
    # Re-pinned when the planar solve moved from a 10x10 seed box (a failing
    # default-seed solve, its own solve_grid, a re-solve seeded at the grid
    # point nearest the target) to the enumerated point nearest the carrier;
    # the seed-box value stays as a check within 1e-10 relative.
    p = validation.SCENARIO_2D
    w0 = omega_from_thz(p["f0_thz"])
    traj = trj.OffsetLine(v=p["v"], H=0.0)
    x = (p["x1"], p["x2"], 0.0)
    model = disp.lorentz_from_thz()
    sp = fld._nearest_point(sph.PhaseContext(
        t=p["t"], x=x, omega0=w0, trajectory=traj, dispersion=model), w0)
    assert repr((sp.omega_s, sp.tau_s)) \
        == "(1.1219837606586465, -0.5576986819093858)"
    assert [sp.omega_s, sp.tau_s] == pytest.approx(
        list(PLANAR_SEED_BOX), rel=1e-10, abs=0)
    k = disp.sample(model, sp.omega_s).k.real
    v_rad = trj.geometry(traj, x, sp.tau_s).v_rad
    assert abs(sp.omega_s - w0 - k * v_rad) <= 1e-10


# repr of (omega_s, tau_s, degenerate) of every point stationary_phase.
# solve_line returns on the planar and collinear (x1 = 0) reference events
# (validation.SCENARIO_2D) and on the group-velocity fold event of
# test_fields (427.8 THz, v 0.007, x (0.002, 0.1, 0), t 40).
ENUMERATED = {
    0.01: "[(1.1219837606586465, -0.5576986819093858, False)]",
    0.0: "[(1.1220044686557629, -0.5573969486555252, False)]",
    "fold": "[(0.6537325736574181, -22.704804922484374, False), "
            "(0.6448135262666859, 14.20665757912592, False), "
            "(0.6246849479010764, 14.408074796522387, False), "
            "(0.6215464254906853, 17.410171362760355, False), "
            "(0.6756571133999928, 32.61566897322276, False)]",
}


@pytest.mark.parametrize("event", [0.01, 0.0, "fold"])
def test_enumerated_sets(event):
    p = validation.SCENARIO_2D
    if event == "fold":
        t, x, f0, v = 40.0, (0.002, 0.1, 0.0), 427.8, 0.007
    else:
        t, x, f0, v = p["t"], (event, p["x2"], 0.0), p["f0_thz"], p["v"]
    ctx = sph.PhaseContext(t=t, x=x, omega0=omega_from_thz(f0),
                           trajectory=trj.OffsetLine(v=v, H=0.0),
                           dispersion=disp.lorentz_from_thz())
    assert repr([(p.omega_s, p.tau_s, p.degenerate)
                 for p in sph.solve_line(ctx)]) == ENUMERATED[event]


DOPPLER_FLAGS = ("doppler", "--medium", "plasma", "--f0-thz", "1000",
                 "--fp-thz", "500", "--v", "0.3", "--x1", "0.5", "--x2", "4",
                 "--x3", "0", "--t", "1")
DOPPLER_HEADER = ("f0_thz,f_shift_thz,tau,retarded_time,residual,"
                  "classification,det,signature,v_group\n")
PLASMA_HEADER = ("f0_thz,fp_thz,mach,direction,f_closed_thz,f_newton_thz,"
                 "relative_gap,det,signature\n")


@pytest.mark.parametrize("argv, expected", [
    # the [solve] key given at its default prints the same bytes
    (DOPPLER_FLAGS + ("--tol", "1e-10"), DOPPLER_HEADER
     + "1000,1386.27691,-4.88411784,5.88411784,9.35372055e-12,blue-shift,"
       "-0.462086842,0,0.932690283\n"),
    # no solve or --format flag: the enumerated causal point as CSV
    (DOPPLER_FLAGS, DOPPLER_HEADER
     + "1000,1386.27691,-4.88411784,5.88411784,9.35372055e-12,blue-shift,"
       "-0.462086842,0,0.932690283\n"),
    (("plasma",), PLASMA_HEADER
     + "1000,500,0.5,approaching,1934.25855,1934.25855,1.03703548e-14,"
       "-0.232717595,0\n"),
    (("plasma", "--direction", "receding"), PLASMA_HEADER
     + "1000,500,0.5,receding,732.408121,732.408121,0,-2.83672685,0\n"),
    (("cherenkov",),
     "cone_half_angle_rad,cos_angle,tau_emission,retarded_time,gate,beta,"
     "degenerate_hessian\n"
     "0.841068671,0.666666667,-0.329618127,2.32961813,true,1.5,true\n"),
    # no flag at all: the planar reference scenario's causal point
    (("doppler",), DOPPLER_HEADER
     + "420,713.782905,-0.557698682,2.55769868,0,blue-shift,"
       "-0.100846564,0,0.732641432\n"),
])
def test_cli_stdout(capsys, argv, expected):
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out == expected


def test_dispersion_sweep_stdout(capsys):
    assert cli.main(["dispersion-sweep", "--medium", "lorentz",
                     "--f-start-thz", "410", "--f-end-thz", "432",
                     "--n", "50"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fbdbc2f2a4b2b57c5204cde74cc192762cd7bd51c02e18fc11a751e26ff559e0")


# Band-scan carriers: the Lorentz ones between the 397.89 THz and the
# 506.96 THz edge either do not propagate or sit in the 409.82-433.11 THz
# band, whose two edges are both band-table edges; every other carrier's
# band ends on the [1e-3, 10] omega0 clip.
LORENTZ_F = np.r_[np.linspace(380.0, 1000.0, 125),
                  np.linspace(409.5, 433.5, 25)]
UNCLIPPED_CARRIERS = [(disp.lorentz_from_thz(), omega_from_thz(f))
                      for f in LORENTZ_F if 398.0 < f < 506.0]
CLIPPED_CARRIERS = (
    [(disp.lorentz_from_thz(), omega_from_thz(f))
     for f in LORENTZ_F if not 398.0 < f < 506.0]
    + [(disp.NonDispersive(eps=2.25, mu=1.0), float(w))
       for w in np.linspace(0.2, 5.0, 5)]
    + [(disp.ColdPlasma(omega_p=1.0), float(w))
       for w in np.linspace(0.5, 4.5, 9)])


def _band_scan(carriers):
    """repr of the band interval (as floats) and of the roots for both signs
    at three speeds, or the error type, per carrier."""
    out = []
    for model, w0 in carriers:
        band = next((b for b in sph._bands(model, w0)
                     if b[0] <= w0 <= b[1]), None)
        out.append(repr(band and tuple(map(float, band))))
        for v in (0.3, 0.5, 0.9):
            for sign in (+1, -1):
                try:
                    out.append(repr(fld.metamaterial_doppler_1d(
                        model, w0, v, sign)))
                except DopshiftError as err:
                    out.append(type(err).__name__)
    assert len(out) == 7 * len(carriers)
    return out


BAND_SCAN_NO_ROOT = 225
BAND_SCAN = "d330b203dbb287addf84a64d4ec86c8e229aa68900c1c855db10e321340d1c06"


def test_band_scan():
    out = _band_scan(UNCLIPPED_CARRIERS)
    assert out.count("NoRootInBand") == BAND_SCAN_NO_ROOT
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() == BAND_SCAN


BAND_SCAN_CLIPPED_NO_ROOT = 30
BAND_SCAN_CLIPPED = (
    "aac21d91a6ae3b66fab1c36c2c78c4864d94e4ed371e5d09b9ab9322ce2a6078")


def test_band_scan_clipped():
    out = _band_scan(CLIPPED_CARRIERS)
    assert out.count("NoRootInBand") == BAND_SCAN_CLIPPED_NO_ROOT
    assert hashlib.sha256("\n".join(out).encode()).hexdigest() \
        == BAND_SCAN_CLIPPED
    # the closed forms, where they lie inside the clip
    for i, (model, w0) in enumerate(CLIPPED_CARRIERS):
        for j, (v, sign) in enumerate((v, sign) for v in (0.3, 0.5, 0.9)
                                      for sign in (+1, -1)):
            if isinstance(model, disp.NonDispersive):
                want = w0 / (1.0 + sign * model.index * v)
            elif isinstance(model, disp.ColdPlasma):
                try:
                    want = fld.plasma_doppler_closed_form(
                        w0, model.omega_p, v, approaching=sign < 0)
                except BelowCutoff:
                    want = -1.0
            else:
                continue
            got = out[7 * i + 1 + j]
            if not 1e-3 * w0 <= want <= 10.0 * w0:
                assert got == "NoRootInBand"
                continue
            (root,) = ast.literal_eval(got)
            assert abs(root - want) <= 1e-14 * want


# Line events for the enumerator and field pin: a seeded deck drawn like the
# benchmark's seed-box events (a slow source on an OffsetLine through the
# default metamaterial; a plasma source on the x2 axis with the observer on
# the axis ahead of it or behind it), a few sources near the band's
# group-velocity minimum, where up to five points arrive at once, the fold
# event of test_fields and one non-dispersive event.  Each comes with the
# seed box that selects ``stationary_phase.solve_line``.
def _line_events():
    rng = np.random.default_rng(20261019)
    lorentz = disp.lorentz_from_thz()
    events = []
    for _ in range(36):
        w0 = omega_from_thz(float(rng.uniform(419.0, 429.0)))
        v = float(rng.uniform(3e-4, 2e-3))
        x = (float(rng.uniform(1e-3, 2e-2)), float(rng.uniform(0.05, 0.3)),
             0.0)
        box = ((0.98 * w0, 1.02 * w0), (-200.0 * math.hypot(*x[:2]), 0.0))
        events.append((lorentz, trj.OffsetLine(v=v, H=0.0), w0, x, 0.0, box))
    for _ in range(8):
        w0 = omega_from_thz(float(rng.uniform(419.0, 432.0)))
        v = float(rng.uniform(0.004, 0.012))
        x = (float(rng.uniform(1e-3, 5e-3)), float(rng.uniform(0.05, 0.2)),
             0.0)
        events.append((lorentz, trj.OffsetLine(v=v, H=0.0), w0, x,
                       float(rng.uniform(0.0, 60.0)),
                       ((0.96 * w0, 1.02 * w0), (-60.0, 0.0))))
    for ahead in (True, False) * 8:
        w0, mach = float(rng.uniform(1.5, 4.0)), float(rng.uniform(0.0, 0.7))
        x2 = float(rng.uniform(3.0, 8.0)) * (1.0 if ahead else -1.0)
        t = float(rng.uniform(0.0, 1.5))
        r = abs(x2 - mach * t)
        box = ((0.5 * w0 / (1.0 + mach), 2.0 * w0 / (1.0 - mach)),
               (t - 6.0 * r, t))
        events.append((PLASMA, trj.StraightLine(velocity=(0.0, mach, 0.0)),
                       w0, (0.0, x2, 0.0), t, box))
    w0 = omega_from_thz(427.8)
    events.append((lorentz, trj.OffsetLine(v=0.007, H=0.0), w0,
                   (0.002, 0.1, 0.0), 40.0,
                   ((omega_from_thz(411.0), omega_from_thz(432.9)),
                    (-60.0, 39.0))))
    events.append((disp.NonDispersive(eps=2.25, mu=1.0),
                   trj.OffsetLine(v=0.4, H=0.1), 2.0, (0.5, 2.0, 0.0), 3.0,
                   ((1.0, 6.0), (-10.0, 3.0))))
    return events


def _field_pin(seed_box):
    """Per event: key, degenerate flag, phase and the E and H bytes of every
    contribution of ``moving_source_fields`` (with or without the event's
    seed box), or the error type."""
    out = []
    for model, traj, w0, x, t, box in _line_events():
        try:
            cs = fld.moving_source_fields(fld.SourceModel(omega0=w0), traj,
                                          model, x, t,
                                          seed_box=box if seed_box else None)
        except DopshiftError as err:
            out.append(type(err).__name__)
            continue
        out.append(repr(len(cs)) + "".join(
            f"|{key(c.point)}{c.point.degenerate}{c.phase_value!r}"
            f"{c.E.tobytes().hex()}{c.H.tobytes().hex()}" for c in cs))
    return out


# (points over all events, sha256 of the pin lines), recorded before the
# enumerator's grid chain stopped at k' and its band runs came from a search
# on the scan, and before the field assembly took one dispersion and one
# geometry evaluation per point.
LINE_FIELDS = {
    True: (80, "a3871396ff0d7696b7beddc8ea7def84"
               "9f618a22284d6640b3967402d86546c4"),
    False: (60, "0cecf9602d9e05993674e8a48b678014"
                "33b9aaae0b3eb47f9efd511f0f5a2af4"),
}


@pytest.mark.parametrize("seed_box", [True, False])
def test_line_event_fields(seed_box):
    out = _field_pin(seed_box)
    assert len(out) == 62
    points = sum(int(line.split("|")[0]) for line in out if line[0].isdigit())
    assert (points, hashlib.sha256("\n".join(out).encode()).hexdigest()) \
        == LINE_FIELDS[seed_box]


def test_field_phase_is_the_phase():
    # the field assembly forms S from its own evaluation of k and r, in the
    # float order of stationary_phase.phase
    for model, traj, w0, x, t, box in _line_events():
        ctx = sph.PhaseContext(t=t, x=x, omega0=w0, trajectory=traj,
                               dispersion=model)
        for c in fld.moving_source_fields(fld.SourceModel(omega0=w0), traj,
                                          model, x, t, seed_box=box):
            assert repr(c.phase_value) \
                == repr(sph.phase(ctx, c.point.omega_s, c.point.tau_s))
