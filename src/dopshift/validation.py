"""Named validation checks: closed-form regressions, oracle cross-checks and
the published-scenario regression targets.

Each check returns a CheckResult and is runnable from the command line
(``dopshift validate``); the acceptance test suite runs the same functions.

The group-velocity marker target is the model's own 1/k', and the planar and
collinear scenario targets are causal stationary points: emitted before they
are received (t - tau_s > 0, the retardation equation r / v_g = t - tau).
For the scenario (v = 0.5, f0 = 420 THz, observer x2 = 1.595 ahead of the
source, t = 2) no point of the left-handed band is causal: there k < 0, so a
causal emission (v_rad > 0.4999) would need omega < omega0 and
|Re n| < 0.05, while |Re n| > 2.4 on that part of the band.  The scenario's
one causal stationary point lies in the positive-index band above the
permittivity zero (506.96 THz).  Each target records the independent route
that produced it; see the README.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import dispersion as disp
from . import fields as fld
from . import oracle as orc
from . import stationary_phase as sph
from . import trajectory as trj
from .errors import DopshiftError, NoCherenkovRoot, NoRootInBand
from .units import omega_from_thz, thz_from_omega

__all__ = ["CheckResult", "CHECKS", "run_checks"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: str
    elapsed: float


def _timed(fn):
    """Time the check and name its result after it: _check_a_b is a-b."""
    name = fn.__name__.replace("_check_", "").replace("_", "-")

    def wrapper():
        t0 = time.perf_counter()
        passed, details = fn()
        return CheckResult(name=name, passed=passed, details=details,
                           elapsed=time.perf_counter() - t0)
    wrapper.__doc__, wrapper.check_name = fn.__doc__, name
    return wrapper


# -- reference targets -------------------------------------------------------

REF_F_MARKER_THZ = 417.82
REF_V_PHASE = -0.31673          # +/- 0.005
# +/- 10 %.  Independent route: a central difference (step 1e-5 omega) of
# omega Re n(omega) through dispersion.refraction_index, not _lorentz_chain,
# gives 1/k' = 0.00613441.
REF_V_GROUP = 0.0061344
# The scenario's only causal stationary point, in the positive-index band.
# Independent route: the reduced equations solved by bisection (Doppler root
# in omega through refraction_index, then the retardation mismatch in tau
# with the finite-difference v_g) give (713.7829 THz, -0.557699); a tau-scan
# over [-20, 2) finds no other sign change.
REF_2D = {"f_thz": 713.783, "f_tol": 0.5, "tau": -0.5577, "tau_tol": 0.02}
# Collinear (x1 = 0) variant.  Independent route: the same bisection of the
# reduced equations gives (713.79608 THz, -0.557397), and solve_grid on the
# x1 = 0 event converges to (713.7961 THz, -0.5574) only.
REF_1D = {"f_thz": 713.796, "f_tol": 0.5, "tau": -0.5574, "tau_tol": 0.02}
SCENARIO_2D = {"v": 0.5, "f0_thz": 420.0, "x1": 0.01, "x2": 1.595, "t": 2.0}


@_timed
def _check_band_negativity():
    """Re n < 0 on 200 uniform frequencies in [410, 432] THz, under 1 s."""
    model = disp.lorentz_from_thz()
    t0 = time.perf_counter()
    worst = -math.inf
    for f in np.linspace(410.0, 432.0, 200):
        worst = max(worst, disp.sample(model, omega_from_thz(f)).n.real)
    elapsed = time.perf_counter() - t0
    ok = worst < 0 and elapsed < 1.0
    return ok, f"max Re n = {worst:.6f} over the band, {elapsed:.3f} s"


@_timed
def _check_band_velocities():
    """Phase and group velocity at the 417.82 THz marker."""
    model = disp.lorentz_from_thz()
    s = disp.sample(model, omega_from_thz(REF_F_MARKER_THZ))
    vp_ok = abs(s.v_phase - REF_V_PHASE) <= 0.005
    vg_ok = abs(s.v_group - REF_V_GROUP) <= 0.10 * abs(REF_V_GROUP)
    return vp_ok and vg_ok, (
        f"v_p = {s.v_phase:.6f} (target {REF_V_PHASE} +/- 0.005, "
        f"{'ok' if vp_ok else 'FAIL'}); v_g = {s.v_group:.7f} "
        f"(target {REF_V_GROUP} +/- 10%, {'ok' if vg_ok else 'FAIL'})")


@_timed
def _check_planar_reference_point():
    """Planar scenario (v=0.5, f0=420 THz, x=(0.01, 1.595), t=2) against its
    causal stationary point f = 713.783 +/- 0.5 THz, tau = -0.5577 +/- 0.02,
    stationary residual < 1e-9, t - tau_s > 0: the enumerated causal point
    closest to the carrier (``fields._nearest_point``, as ``dopshift
    doppler`` takes it)."""
    p = SCENARIO_2D
    w0 = omega_from_thz(p["f0_thz"])
    ctx = sph.PhaseContext(t=p["t"], x=(p["x1"], p["x2"], 0.0), omega0=w0,
                           trajectory=trj.OffsetLine(v=p["v"], H=0.0),
                           dispersion=disp.lorentz_from_thz())
    try:
        sp = fld._nearest_point(ctx, w0)
    except DopshiftError as err:
        return False, f"no converged stationary point: {err}"
    f = thz_from_omega(sp.omega_s)
    ok = (abs(f - REF_2D["f_thz"]) <= REF_2D["f_tol"]
          and abs(sp.tau_s - REF_2D["tau"]) <= REF_2D["tau_tol"]
          and sp.residual_norm < 1e-9 and p["t"] - sp.tau_s > 0)
    return ok, (f"solved f = {f:.4f} THz, tau = {sp.tau_s:.5f}, residual = "
                f"{sp.residual_norm:.2e}")


@_timed
def _check_collinear_reference_point():
    """Collinear scenario (x1 = 0): the closed-form point that
    ``fields._collinear_point`` selects (both branches, each retarded with
    its own side's geometry; causal, stationary for the full phase to
    |grad S| <= 1e-9, nearest the carrier) against f = 713.796 +/- 0.5 THz,
    tau = -0.5574 +/- 0.02."""
    p = SCENARIO_2D
    try:
        w, tau, grad = fld._collinear_point(
            disp.lorentz_from_thz(), omega_from_thz(p["f0_thz"]), p["v"],
            p["x2"], p["t"])
    except NoRootInBand:
        return False, "no causal closed-form collinear point"
    f = thz_from_omega(w)
    ok = (abs(f - REF_1D["f_thz"]) <= REF_1D["f_tol"]
          and abs(tau - REF_1D["tau"]) <= REF_1D["tau_tol"]
          and p["t"] - tau > 0 and grad < 1e-9)
    return ok, (f"solved f = {f:.4f} THz, tau = {tau:.5f}, "
                f"|grad S| = {grad:.2e}")


@_timed
def _check_plasma_closed_form():
    """Closed form vs Newton over a 5x5 (Mach, omega0/omega_p) grid, both
    branches; M = 0 exact; omega_p = 0 reduces to the non-dispersive shift."""
    t0 = time.perf_counter()
    worst = 0.0
    for mach in np.linspace(0.0, 0.8, 5):
        for ratio in np.linspace(1.2, 5.0, 5):
            for approaching in (True, False):
                closed, sp = fld.plasma_head_on(float(ratio), 1.0, float(mach),
                                                approaching)
                worst = max(worst, abs(sp.omega_s - closed) / closed)
    exact0 = fld.plasma_doppler_closed_form(2.0, 1.0, 0.0) == 2.0
    lim = max(abs(fld.plasma_doppler_closed_form(2.0, 0.0, 0.5, True)
                  - 2.0 / (1.0 - 0.5)) / 4.0,
              abs(fld.plasma_doppler_closed_form(2.0, 0.0, 0.5, False)
                  - 2.0 / (1.0 + 0.5)) / (4.0 / 3.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and exact0 and lim <= 1e-12 and elapsed < 1.0
    return ok, (f"grid agreement {worst:.2e} (<= 1e-9), M=0 exact: {exact0}, "
                f"omega_p=0 limit {lim:.2e} (<= 1e-12), {elapsed:.3f} s")


@_timed
def _check_stationary_source():
    """Motionless modulated source: omega_s = omega0 exactly, det = -1,
    signature 0, retarded time = r/v_g(omega0) to 1e-10 relative."""
    model = disp.ColdPlasma(omega_p=1.0)
    w0, r = 2.0, 3.0
    ctx = sph.PhaseContext(t=2.0, x=(0.0, r, 0.0), omega0=w0,
                           trajectory=trj.OffsetLine(v=0.0, H=0.0),
                           dispersion=model)
    sp = sph.solve_newton(ctx)
    vg = disp.sample(model, w0).v_group
    ret = ctx.t - sp.tau_s
    ret_ok = abs(ret - r / vg) <= 1e-10 * (r / vg)
    ok = (sp.omega_s == w0 and sp.det == -1.0 and sp.signature == 0 and ret_ok)
    return ok, (f"omega_s == omega0: {sp.omega_s == w0}, det = {sp.det}, "
                f"signature = {sp.signature}, retarded time rel err = "
                f"{abs(ret - r / vg) / (r / vg):.2e}")


@_timed
def _check_oracle_asymptotics():
    """Gaussian-saddle error of the saddle value against the oracle (R0 3,
    tol 1e-6) <= 5/lam at lam in {20, 40, 80}, consecutive error ratios in
    [1.5, 2.5] and the fitted exponent of error vs lam in [-1.5, -0.7];
    unit-amplitude quadratic phase exact to the 1e-6 quadrature tolerance.
    Under 60 s."""
    t0 = time.perf_counter()
    lams = [20.0, 40.0, 80.0]
    errs = []
    for lam in lams:
        ig, asym, _ = orc.gaussian_saddle_case(lam)
        value = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6).value
        errs.append(abs(asym - value) / abs(value))
    bound_ok = all(e <= 5.0 / lam for e, lam in zip(errs, lams))
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ratio_ok = all(1.5 <= q <= 2.5 for q in ratios)
    slope = float(np.polyfit(np.log(lams), np.log(errs), 1)[0])
    ig, val, _ = orc.fresnel_case(40.0)
    res = orc.oscillatory_integral_2d(ig, R0=3.0, tol=1e-6)
    fres = abs(res.value - val) / abs(val)
    elapsed = time.perf_counter() - t0
    ok = (bound_ok and ratio_ok and -1.5 <= slope <= -0.7 and fres <= 1e-6
          and elapsed < 60.0)
    return ok, (f"errors {[f'{e:.4f}' for e in errs]} vs bounds "
                f"{[f'{5 / lam:.4f}' for lam in lams]}, ratios "
                f"{[f'{q:.2f}' for q in ratios]}, slope {slope:.2f}, "
                f"unit-amplitude error {fres:.2e}, {elapsed:.1f} s")


def _random_admissible_contexts(n: int, rng):
    """Plasma and slow-source metamaterial contexts with retarded roots."""
    out = []
    plasma = disp.ColdPlasma(omega_p=1.0)
    lorentz = disp.lorentz_from_thz()
    for i in range(n):
        if i % 2 == 0:
            w0 = rng.uniform(1.5, 4.0)
            mach = rng.uniform(0.0, 0.7)
            x2 = rng.uniform(3.0, 8.0) * (1 if rng.random() < 0.5 else -1)
            ctx = sph.PhaseContext(
                t=rng.uniform(0.0, 1.5), x=(0.0, x2, 0.0), omega0=w0,
                trajectory=trj.StraightLine(velocity=(0.0, mach, 0.0)),
                dispersion=plasma)
        else:
            f0 = rng.uniform(419.0, 429.0)
            v = rng.uniform(3e-4, 2e-3)
            ctx = sph.PhaseContext(
                t=0.0, x=(rng.uniform(1e-3, 2e-2), rng.uniform(0.05, 0.3), 0.0),
                omega0=omega_from_thz(f0),
                trajectory=trj.OffsetLine(v=v, H=0.0), dispersion=lorentz)
        out.append(ctx)
    return out


@_timed
def _check_stationary_identity():
    """100 randomized admissible contexts: every converged point satisfies
    |omega_s - omega0 - k v_rad| <= 1e-8 max(1, omega0) and t - tau_s > 0."""
    rng = np.random.default_rng(20240811)
    contexts = _random_admissible_contexts(100, rng)
    converged = bad_id = bad_ret = 0
    for ctx in contexts:
        try:
            sp = sph.solve_newton(ctx, tol=1e-11)
        except DopshiftError:
            continue
        converged += 1
        s = disp.sample(ctx.dispersion, sp.omega_s)
        g = trj.geometry(ctx.trajectory, ctx.x, sp.tau_s)
        ident = abs(sp.omega_s - ctx.omega0 - s.k.real * g.v_rad)
        if ident > 1e-8 * max(1.0, ctx.omega0):
            bad_id += 1
        if not ctx.t - sp.tau_s > 0:
            bad_ret += 1
    ok = converged >= 50 and bad_id == 0 and bad_ret == 0
    return ok, (f"{converged}/100 converged, identity violations {bad_id}, "
                f"non-positive retardation {bad_ret}")


@_timed
def _check_derivative_checks():
    """Analytic gradient and Hessian of the phase vs central differences
    (1e-6 and 1e-5 relative) on 100 randomized admissible points."""
    rng = np.random.default_rng(7)
    worst_g = worst_h = 0.0
    plasma = disp.ColdPlasma(omega_p=1.0)
    lorentz = disp.lorentz_from_thz()
    n = 0
    while n < 100:
        if n % 2 == 0:
            ctx = sph.PhaseContext(
                t=rng.uniform(0.0, 2.0), x=(rng.uniform(0.5, 2.0),
                                            rng.uniform(1.0, 6.0), 0.0),
                omega0=rng.uniform(1.5, 3.0),
                trajectory=trj.StraightLine(velocity=(0.0, rng.uniform(0.0, 0.6), 0.0)),
                dispersion=plasma)
            w = rng.uniform(1.3, 5.0)
        else:
            ctx = sph.PhaseContext(
                t=rng.uniform(0.0, 2.0), x=(rng.uniform(0.05, 0.5),
                                            rng.uniform(0.1, 0.8), 0.0),
                omega0=omega_from_thz(420.0),
                trajectory=trj.OffsetLine(v=rng.uniform(1e-3, 0.3), H=0.0),
                dispersion=lorentz)
            w = omega_from_thz(rng.uniform(412.0, 431.0))
        tau = rng.uniform(-3.0, ctx.t - 0.05)
        try:
            g = sph.gradient(ctx, w, tau)
            h = sph.hessian(ctx, w, tau)
        except DopshiftError:
            continue
        n += 1
        hw = 1e-6 * max(1.0, abs(w))
        ht = 1e-6 * max(1.0, abs(tau))
        fd_g = ((sph.phase(ctx, w + hw, tau) - sph.phase(ctx, w - hw, tau))
                / (2 * hw),
                (sph.phase(ctx, w, tau + ht) - sph.phase(ctx, w, tau - ht))
                / (2 * ht))
        scale_g = max(1.0, abs(g[0]), abs(g[1]))
        worst_g = max(worst_g, abs(fd_g[0] - g[0]) / scale_g,
                      abs(fd_g[1] - g[1]) / scale_g)
        hw2, ht2 = 1e-7 * max(1.0, abs(w)), 1e-7 * max(1.0, abs(tau))
        fd_h = np.column_stack((
            np.subtract(sph.gradient(ctx, w + hw2, tau),
                        sph.gradient(ctx, w - hw2, tau)) / (2 * hw2),
            np.subtract(sph.gradient(ctx, w, tau + ht2),
                        sph.gradient(ctx, w, tau - ht2)) / (2 * ht2)))
        scale_h = max(1.0, float(np.max(np.abs(h))))
        worst_h = max(worst_h, float(np.max(np.abs(fd_h - h))) / scale_h)
    ok = worst_g <= 1e-6 and worst_h <= 1e-5
    return ok, f"gradient mismatch {worst_g:.2e}, Hessian mismatch {worst_h:.2e}"


@_timed
def _check_cherenkov():
    """Cone angle arccos(2/3) to 1e-8 for c = 0.5, v = 0.75; gate surface from
    the retardation-root predicate and from the cone formula coincide to 1e-8;
    vacuum at v = 0.5 refuses."""
    model = disp.NonDispersive(eps=4.0, mu=1.0)
    v = np.array([0.0, 0.0, 0.75])
    contr = fld.cherenkov_solve(model, v, (0.3, 0.4, 0.2), 2.0)
    g = trj.geometry(trj.StraightLine(velocity=(0.0, 0.0, 0.75)),
                     (0.3, 0.4, 0.2), contr.point.tau_s)
    angle = math.acos(g.v_rad / 0.75)
    angle_err = abs(angle - math.acos(2.0 / 3.0))

    c, speed, t = 0.5, 0.75, 2.0
    x_perp = 0.5
    surface = speed * t - x_perp * math.sqrt((speed / c) ** 2 - 1.0)

    def inside_by_retardation(x3):
        # The solved emission point minimizes the retardation mismatch; it is
        # causally reachable (two retarded roots) iff that mismatch <= 0.
        res = fld.cherenkov_solve(model, v, (0.3, 0.4, x3), t)
        gg = trj.geometry(trj.StraightLine(velocity=(0.0, 0.0, speed)),
                          (0.3, 0.4, x3), res.point.tau_s)
        return gg.r / c - (t - res.point.tau_s) <= 0.0

    lo, hi = 0.4, 1.4
    assert inside_by_retardation(lo) != inside_by_retardation(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside_by_retardation(mid) == inside_by_retardation(lo):
            lo = mid
        else:
            hi = mid
    surf_pred = 0.5 * (lo + hi)
    surf_err = abs(surf_pred - surface)

    try:
        fld.cherenkov_solve(disp.NonDispersive(1.0, 1.0),
                            (0.0, 0.0, 0.5), (0.3, 0.4, 0.2), 2.0)
        vacuum_ok = False
    except NoCherenkovRoot:
        vacuum_ok = True
    ok = angle_err <= 1e-8 and surf_err <= 1e-8 and vacuum_ok
    return ok, (f"cone angle err {angle_err:.2e}, gate surface err "
                f"{surf_err:.2e}, vacuum refusal: {vacuum_ok}")


def _sweep_1d(model, f0_grid, v):
    """f0 -> shifted frequency via the collinear closed forms (THz in/out)."""
    out = []
    for f0 in f0_grid:
        w0 = omega_from_thz(float(f0))
        roots = []
        for sign in (+1, -1):
            try:
                roots += fld.metamaterial_doppler_1d(model, w0, v, sign)
            except NoRootInBand:
                pass
        out.append(thz_from_omega(min(roots)) if roots else math.nan)
    return np.array(out)


def _secant_deviation(f0_grid, f_grid):
    line = f_grid[0] + (f_grid[-1] - f_grid[0]) * (
        (f0_grid - f0_grid[0]) / (f0_grid[-1] - f0_grid[0]))
    return float(np.max(np.abs(f_grid - line)))


@_timed
def _check_nondispersive_linearity():
    """Shift vs carrier is exactly linear without dispersion (< 1e-10 THz
    secant deviation) and measurably nonlinear for the metamaterial."""
    f0_grid = np.linspace(410.0, 432.0, 21)
    flat = _sweep_1d(disp.NonDispersive(1.0, 1.0), f0_grid, 0.5)
    dev_flat = _secant_deviation(f0_grid, flat)
    meta = _sweep_1d(disp.lorentz_from_thz(), f0_grid, 0.5)
    ok_rows = ~np.isnan(meta)
    dev_meta = _secant_deviation(f0_grid[ok_rows], meta[ok_rows])
    ok = dev_flat < 1e-10 and dev_meta > 0.0 and ok_rows.sum() >= 15
    return ok, (f"non-dispersive deviation {dev_flat:.2e} THz, metamaterial "
                f"deviation {dev_meta:.3e} THz on {int(ok_rows.sum())} rows")


CHECKS = {check.check_name: check for check in (
    _check_band_negativity, _check_band_velocities,
    _check_planar_reference_point, _check_collinear_reference_point,
    _check_plasma_closed_form, _check_stationary_source,
    _check_oracle_asymptotics, _check_stationary_identity,
    _check_derivative_checks, _check_cherenkov,
    _check_nondispersive_linearity)}


def run_checks(names=None):
    """Run the named checks (all when None); returns list of CheckResult."""
    unknown = [n for n in names or () if n not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    todo = dict.fromkeys(names or CHECKS)     # preserve order, drop dupes
    return [CHECKS[name]() for name in todo]
