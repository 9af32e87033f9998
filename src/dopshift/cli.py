"""Command-line interface: dispersion sweeps, Doppler point solutions and
sweeps, plasma and Cherenkov demos, and the validation suite.

THz in, THz out: every frequency at this boundary is an ordinary frequency in
terahertz; positions are in length-scale units (75 nm) and times in
length-scale/c units.  CSV output uses a header row, comma separators, '.'
decimals and 9 significant digits, and is byte-identical across runs.

Exit codes:
    0  success / all validation checks passed
    1  validation failure
    2  invalid arguments, ranges or scenario file; input outside the model
    3  solver did not converge
    4  no Doppler root in the scanned band, or no Cherenkov root
"""

import argparse
import json
import math
import sys

import numpy as np

from . import dispersion as disp
from . import fields as fld
from . import stationary_phase as sph
from . import trajectory as trj
from . import validation
from .errors import (BelowCutoff, DegenerateMedium, DopshiftError,
                     FrequencyOutOfRange, NoCherenkovRoot, NoRootInBand,
                     ObserverOnTrajectory, ScenarioError, SuperluminalMach,
                     ZeroFrequency)
from .scenario import Scenario, _carrier_in_range, _in_range, load_scenario
from .units import omega_from_thz, thz_from_omega

EXIT_OK, EXIT_VALIDATION, EXIT_USAGE, EXIT_NOCONV, EXIT_NOROOT = 0, 1, 2, 3, 4
_MAX_N = 10 ** 6    # rows per sweep: numpy cannot allocate some larger counts

# (error types, exit code, message prefix); the first matching row wins.
EXIT_CODES = (
    ((ScenarioError, ZeroFrequency, DegenerateMedium, FrequencyOutOfRange,
      BelowCutoff, SuperluminalMach, ObserverOnTrajectory),
     EXIT_USAGE, "error"),
    ((NoRootInBand, NoCherenkovRoot), EXIT_NOROOT, "error: no root"),
    (DopshiftError, EXIT_NOCONV, "error: no convergence"),
)


def _fmt(x) -> str:
    """One CSV cell: 9 significant digits, empty for missing values."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return str(x).lower()
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if math.isnan(x):
        return ""
    return f"{x:.9g}"


def _emit(header, rows, fmt, path):
    """Write rows as CSV or JSON to path ('-' = stdout), deterministically."""
    if fmt == "json":
        payload = [dict(zip(header, row)) for row in rows]
        text = json.dumps(payload, indent=2, default=_fmt) + "\n"
    else:
        lines = [",".join(header)]
        lines += [",".join(_fmt(c) for c in row) for row in rows]
        text = "\n".join(lines) + "\n"
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _add_medium_flags(p):
    p.add_argument("--medium", choices=("lorentz", "plasma", "nondispersive"))
    p.add_argument("--eps", type=float, help="non-dispersive permittivity")
    p.add_argument("--mu", type=float, help="non-dispersive permeability")
    p.add_argument("--fp-thz", type=float, dest="f_p_thz", metavar="FP_THZ",
                   help="plasma frequency in THz")


def _add_output_flags(p):
    p.add_argument("--out", dest="out_path", metavar="OUT",
                   help="output path, '-' for stdout")
    p.add_argument("--format", dest="out_format", choices=("csv", "json"))


def _add_scenario_flags(p):
    p.add_argument("--config", help="scenario file (flat sectioned key=value)")
    p.add_argument("--f0-thz", type=float, help="source carrier in THz")
    p.add_argument("--v", type=float, help="source speed, units of c")
    for name in ("x1", "x2", "x3", "t"):
        p.add_argument("--" + name, type=float)
    p.add_argument("--tol", type=float)


def _scenario_from_args(args) -> Scenario:
    """The scenario file (or the defaults) with each given flag applied as
    the key its dest names; a --medium of another kind drops the file's
    medium keys."""
    config = getattr(args, "config", None)
    sc = load_scenario(config) if config else Scenario()
    if args.medium not in (None, sc.medium_kind):
        sc.medium_kind, sc.medium_params = args.medium, {}
    for key in ("eps", "mu", "f_p_thz"):
        if getattr(args, key) is not None:
            sc.medium_params[key] = str(getattr(args, key))
    for attr in ("f0_thz", "v", "x1", "x2", "x3", "t", "tol", "out_path",
                 "out_format"):
        val = getattr(args, attr, None)
        if val is not None:
            setattr(sc, attr, val)
    return sc.validate()


def _check_ranges(args, *names, rule=_in_range):
    """The scenario range rule (or ``rule``) on the named numeric flags."""
    for name in names:
        rule("--" + name.replace("_", "-"), getattr(args, name))


# -- subcommands --------------------------------------------------------------

def cmd_dispersion_sweep(args) -> int:
    _check_ranges(args, "f_start_thz", "f_end_thz")
    if not (args.f_start_thz < args.f_end_thz) or not 2 <= args.n <= _MAX_N:
        print(f"error: need f_start < f_end and 2 <= n <= {_MAX_N}",
              file=sys.stderr)
        return EXIT_USAGE
    model = _scenario_from_args(args).medium()
    header = ["f_thz", "re_n", "im_n", "v_p", "v_g"]
    rows = []
    for f in np.linspace(args.f_start_thz, args.f_end_thz, args.n):
        s = disp.sample(model, omega_from_thz(float(f)))
        rows.append((float(f), s.n.real, s.n.imag, s.v_phase, s.v_group))
    _emit(header, rows, args.out_format, args.out_path)
    return EXIT_OK


def _solve_scenario_point(sc: Scenario):
    """The scenario's Doppler point: the causal point on the source's line
    nearest the carrier.  Returns a result dict."""
    model = sc.medium()
    w0 = omega_from_thz(sc.f0_thz)
    ctx = sph.PhaseContext(t=sc.t, x=(sc.x1, sc.x2, sc.x3), omega0=w0,
                           trajectory=trj.OffsetLine(v=sc.v, H=sc.h),
                           dispersion=model)
    sp = fld._nearest_point(ctx, w0, tol=sc.tol)
    w, tau = sp.omega_s, sp.tau_s
    s = disp.sample(model, w)
    vrad = trj.geometry(ctx.trajectory, ctx.x, tau).v_rad
    cls = fld.doppler_classification(s.k.real, vrad)
    return {"f0_thz": sc.f0_thz, "f_shift_thz": thz_from_omega(w), "tau": tau,
            "retarded_time": sc.t - tau, "residual": sp.residual_norm,
            "classification": cls.value, "det": sp.det,
            "signature": sp.signature, "v_group": s.v_group}


def cmd_doppler(args) -> int:
    sc = _scenario_from_args(args)
    row = _solve_scenario_point(sc)
    _emit(list(row), [tuple(row.values())], sc.out_format, sc.out_path)
    return EXIT_OK


def cmd_doppler_sweep(args) -> int:
    _check_ranges(args, "f0_start_thz", "f0_end_thz", rule=_carrier_in_range)
    sc = _scenario_from_args(args)
    if not (args.f0_start_thz < args.f0_end_thz) or not 2 <= args.n <= _MAX_N:
        print(f"error: need f0_start < f0_end and 2 <= n <= {_MAX_N}",
              file=sys.stderr)
        return EXIT_USAGE
    header = ["f0_thz", "f_shift_thz", "tau", "error"]
    rows = []
    good = []
    for f0 in np.linspace(args.f0_start_thz, args.f0_end_thz, args.n):
        sc.f0_thz = float(f0)
        try:
            row = _solve_scenario_point(sc)
            rows.append((float(f0), row["f_shift_thz"], row["tau"], None))
            good.append((float(f0), row["f_shift_thz"]))
        except DopshiftError as err:
            rows.append((float(f0), None, None, type(err).__name__))
    _emit(header, rows, sc.out_format, sc.out_path)
    if len(good) >= 3:
        metric = validation._secant_deviation(*np.array(good).T)
        print(f"nonlinearity_metric_thz = {metric:.9g}", file=sys.stderr)
    return EXIT_OK


def cmd_plasma(args) -> int:
    _check_ranges(args, "f0_thz", "fp_thz")
    try:
        closed, sp = fld.plasma_head_on(
            omega_from_thz(args.f0_thz), omega_from_thz(args.fp_thz),
            args.mach, args.direction == "approaching")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    header = ["f0_thz", "fp_thz", "mach", "direction", "f_closed_thz",
              "f_newton_thz", "relative_gap", "det", "signature"]
    rows = [(args.f0_thz, args.fp_thz, args.mach, args.direction,
             thz_from_omega(closed), thz_from_omega(sp.omega_s),
             abs(sp.omega_s - closed) / closed, sp.det, sp.signature)]
    _emit(header, rows, args.out_format, args.out_path)
    return EXIT_OK


def cmd_cherenkov(args) -> int:
    _check_ranges(args, "eps", "mu", "v", "x1", "x2", "x3", "t")
    try:
        model = disp.NonDispersive(eps=args.eps, mu=args.mu)
        contr = fld.cherenkov_solve(model, (0.0, 0.0, args.v),
                                    (args.x1, args.x2, args.x3), args.t)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    s = disp.sample(model, 1.0)
    g = trj.geometry(trj.StraightLine(velocity=(0.0, 0.0, args.v)),
                     (args.x1, args.x2, args.x3), contr.point.tau_s)
    angle = math.acos(min(1.0, max(-1.0, g.v_rad / args.v)))
    header = ["cone_half_angle_rad", "cos_angle", "tau_emission",
              "retarded_time", "gate", "beta", "degenerate_hessian"]
    rows = [(angle, g.v_rad / args.v, contr.point.tau_s, contr.retarded_time,
             contr.gate, args.v / s.v_group, contr.point.degenerate)]
    _emit(header, rows, args.out_format, args.out_path)
    return EXIT_OK


def cmd_validate(args) -> int:
    if args.list:
        for name in validation.CHECKS:
            print(name)
        return EXIT_OK
    try:
        results = validation.run_checks(args.cases or None)
    except KeyError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.details} "
              f"[{r.elapsed:.2f}s]")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VALIDATION


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dopshift", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion-sweep",
                       help="tabulate n, v_p, v_g over a frequency range")
    _add_medium_flags(p)
    p.add_argument("--f-start-thz", type=float, required=True)
    p.add_argument("--f-end-thz", type=float, required=True)
    p.add_argument("--n", type=int, default=200)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_dispersion_sweep)

    p = sub.add_parser("doppler", help="solve one scenario point")
    _add_medium_flags(p)
    _add_scenario_flags(p)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_doppler)

    p = sub.add_parser("doppler-sweep",
                       help="shifted frequency vs carrier frequency")
    _add_medium_flags(p)
    _add_scenario_flags(p)
    p.add_argument("--f0-start-thz", type=float, required=True)
    p.add_argument("--f0-end-thz", type=float, required=True)
    p.add_argument("--n", type=int, default=41)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_doppler_sweep)

    p = sub.add_parser("plasma", help="plasma closed form vs Newton")
    for name, value in (("f0-thz", 1000.0), ("fp-thz", 500.0), ("mach", 0.5)):
        p.add_argument("--" + name, type=float, default=value)
    p.add_argument("--direction", choices=("approaching", "receding"),
                   default="approaching")
    _add_output_flags(p)
    p.set_defaults(fn=cmd_plasma)

    p = sub.add_parser("cherenkov", help="cone geometry of a moving charge")
    for name, default in (("eps", 4.0), ("mu", 1.0), ("v", 0.75), ("x1", 0.3),
                          ("x2", 0.4), ("x3", 0.2), ("t", 2.0)):
        p.add_argument("--" + name, type=float, default=default)
    _add_output_flags(p)
    p.set_defaults(fn=cmd_cherenkov)

    p = sub.add_parser("validate", help="run registered validation checks")
    p.add_argument("cases", nargs="*",
                   help="check names (default: the full suite)")
    p.add_argument("--list", action="store_true", help="list check names")
    p.set_defaults(fn=cmd_validate)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except DopshiftError as err:
        code, prefix = exit_code(err)
        print(f"{prefix}: {err}", file=sys.stderr)
        return code


def exit_code(err: DopshiftError):
    """(exit code, message prefix) of an error: its first row in EXIT_CODES."""
    return next(row[1:] for row in EXIT_CODES if isinstance(err, row[0]))


if __name__ == "__main__":
    sys.exit(main())
