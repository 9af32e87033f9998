"""dopshift benchmark: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the repository root (any working directory works; paths are taken
from this file's location).  The package is imported from ``src/`` of the
same tree.  With ``--trace 0`` the run measures the end-to-end metrics with
no tracing, scaled to the calibration host's speed (see hostspeed.py); with
``--trace 1`` it runs the same kind of ops untraced and then again, the same
inputs, with a span wrapper around each layer, and reports the per-layer
metrics, the tracing overhead and whether the traced outputs are
bit-identical to the untraced ones.  The last line of standard output is
the result object; the line before it holds the machine and build facts.
See README.md in this directory.
"""

import os

# One client, one thread: cap the BLAS and OpenMP pools before numpy loads.
THREAD_CAP = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREAD_CAP)

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_RUNS = 5          # fresh interpreters timed for setup_s
IMPORT_RUNS = 3         # -X importtime runs for the per-package split
WARMUP_S = 1.0          # untimed ops of a separate deck before measuring
WARMUP_DECK = 1 << 20   # deck index of the warm-up stream
MAX_LISTED = 20         # failing ops printed with their inputs
IMPORT_PACKAGES = ("dopshift", "scipy", "numpy")

sys.path.insert(0, str(SRC))


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def time_setup(runs, clock):
    """Start and wall times of ``runs`` fresh interpreters running
    `import dopshift.cli`, with the clock's reference loop before each (a
    scalar-loop clock of its own: start-up is interpreter work whatever the
    workload).  The benchmark process has imported the package before, so
    the bytecode is cached."""
    cmd = [sys.executable, "-c", "import dopshift.cli"]
    times = []
    for _ in range(runs):
        clock.sample(force=True)
        t0 = time.perf_counter()
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True)
        times.append((t0, time.perf_counter() - t0))
    return times


def _import_ms(importtime_lines):
    """ms of the numpy and scipy imports and of dopshift's own modules.

    -X importtime prints a module after the imports it triggers, two spaces
    of indent per nesting level, so reversed lines come parent first.  A
    numpy module imported by scipy counts as scipy: each third-party module
    is charged to its outermost third-party ancestor.
    """
    ms = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    stack = []          # (depth, inside a numpy or scipy import)
    for line in reversed(importtime_lines):
        m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|( *)(\S+)", line)
        if not m:
            continue
        depth = len(m.group(2)) // 2
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        package = m.group(3).split(".")[0]
        if package in ms and (depth == 0 if package == "dopshift" else not inside):
            ms[package] += int(m.group(1)) / 1e3
        stack.append((depth, inside or package in ("numpy", "scipy")))
    ms["dopshift"] -= ms["numpy"] + ms["scipy"]
    return ms


def import_split(runs=IMPORT_RUNS):
    """Median ms per package of `import dopshift.cli`; dopshift's share
    excludes the numpy and scipy imports it triggers."""
    cmd = [sys.executable, "-X", "importtime", "-c", "import dopshift.cli"]
    per = {p: [] for p in IMPORT_PACKAGES}
    for _ in range(runs):
        lines = subprocess.run(cmd, env=_env(), cwd=ROOT, check=True,
                               capture_output=True, text=True).stderr.splitlines()
        for p, v in _import_ms(lines).items():
            per[p].append(v)
    return {p: statistics.median(v) for p, v in per.items()}


def timed_ops(wl, inputs, tracer=None, first_op=0, clock=None):
    """Run each input once; returns latencies (s), start times and
    (output, exception) pairs.  With a clock, its reference loop runs
    between ops."""
    lat, starts, outs = [], [], []
    for i, inp in enumerate(inputs, first_op):
        if tracer is not None:
            tracer.op_id = i
        if clock is not None:
            clock.sample()
        t0 = time.perf_counter()
        try:
            res = (wl.run(inp), None)
        except Exception as err:    # an escaping error is an op failure
            res = (None, err)
        lat.append(time.perf_counter() - t0)
        starts.append(t0)
        outs.append(res)
    return lat, starts, outs


def decks_per_pass(wl, seconds):
    """Decks of one pass: ``seconds`` of op time over all passes at the
    workload's nominal deck time, and at least ``wl.min_ops`` ops.  The count
    does not depend on the host's speed, so runs of the same seed and length
    measure the same inputs."""
    deck_len = len(next(wl.decks(0)))
    return max(1, math.ceil(wl.min_ops / deck_len),
               round(seconds / (wl.passes * wl.deck_s)))


def draw_inputs(wl, seed, n_decks):
    """The ops of the first n_decks decks of the seed."""
    return [inp for deck in itertools.islice(wl.decks(seed), n_decks)
            for inp in deck]


def run_traced_decks(wl, seed, n_decks, tracer):
    """Like run_decks, but each deck runs untraced and then traced, so both
    see the same host speed.  Returns the inputs and the untraced and traced
    latencies and outputs."""
    inputs, plain, traced = [], ([], []), ([], [])
    for deck in itertools.islice(wl.decks(seed), n_decks):
        deck_lat, _, outs = timed_ops(wl, deck)
        plain[0].extend(deck_lat)
        plain[1].extend(outs)
        with tracing.instrument(tracer):
            lat, _, outs = timed_ops(wl, deck, tracer, len(inputs))
        traced[0].extend(lat)
        traced[1].extend(outs)
        inputs += deck
    return inputs, plain, traced


def run_passes(wl, inputs, clock):
    """Run the inputs wl.passes times, one whole pass after the other, with
    the set-up timings spread over the gaps between passes, and the clock's
    reference loop between ops.  An op's latency is its fastest pass, each
    pass scaled to the calibration host's speed at that moment (see
    hostspeed.py); far-apart passes and the scaling both steady the figure
    on a host whose speed swings.  Returns the scaled and the raw latencies,
    the scaled and the raw set-up times, the first pass's outputs and
    whether every pass returned outputs bit-identical to them."""
    setup_clock = hostspeed.Clock("scalar")
    passes = [timed_ops(wl, inputs, clock=clock)]
    setup = []
    gaps = max(1, wl.passes - 1)
    for gap in range(gaps):
        # this gap's share of the SETUP_RUNS set-up timings
        setup += time_setup(SETUP_RUNS * (gap + 1) // gaps
                            - SETUP_RUNS * gap // gaps, setup_clock)
        setup_clock.sample(force=True)
        if wl.passes > 1:
            passes.append(timed_ops(wl, inputs, clock=clock))
    clock.sample(force=True)

    lat = [min(dt * clock.factor(t0 + dt / 2) for t0, dt in op)
           for op in zip(*(zip(starts, lat) for lat, starts, _ in passes))]
    raw = [min(op) for op in zip(*(lat for lat, _, _ in passes))]
    outs = passes[0][2]
    same = all(wl.digest(p[2]) == wl.digest(outs) for p in passes[1:])
    return (lat, raw, [dt * setup_clock.factor(t0 + dt / 2) for t0, dt in setup],
            [dt for _, dt in setup], outs, same)


def warm_up(wl, seed):
    t_end = time.perf_counter() + WARMUP_S
    for inp in next(wl.decks(seed, start=WARMUP_DECK)):
        timed_ops(wl, [inp])
        if time.perf_counter() >= t_end:
            break


def verify_ops(wl, inputs, outs):
    """Failures (op index, input, reason), typed outcomes, missed roots."""
    failures, typed, missed = [], 0, 0
    for i, (inp, (out, err)) in enumerate(zip(inputs, outs)):
        if err is not None:
            reason = f"{type(err).__name__}: {err}"
        else:
            reason, n_typed, n_missed = wl.check(inp, out)
            typed += n_typed
            missed += n_missed
        if reason:
            failures.append({"op": i, "input": inp, "reason": reason})
    return failures, typed, missed


def layer_metrics(tr, n_ops, missed):
    """Per-op layer metrics of a traced pass, as {name: (value, unit)}."""
    def calls(name):
        return tr.acc.get(name, [0, 0.0, 0.0])[0]

    def self_ms(name):
        return tr.acc.get(name, [0, 0.0, 0.0])[2] * 1e3 / n_ops

    def us_per_call(name):
        c, total, _ = tr.acc.get(name, [0, 0.0, 0.0])
        return total * 1e6 / c if c else 0.0

    def share(part, whole):
        return part / whole if whole else 0.0

    raised = tr.raised_mask()
    newton = tr.spans_of("stationary_phase.solve_newton")
    starts = newton & tr.parent_is("stationary_phase.solve_grid")
    scans = tr.spans_of("fields.metamaterial_doppler_1d")
    count = tr.counts.get
    m = {}
    for layer in ("dispersion.sample", "trajectory.geometry"):
        m[f"{layer}.calls_per_op"] = (calls(layer) / n_ops, "count")
        m[f"{layer}.self_ms_per_op"] = (self_ms(layer), "ms")
        m[f"{layer}.us_per_call"] = (us_per_call(layer), "us")
    m["dispersion.sample.nonpropagating_frac"] = (share(
        count("dispersion.sample.nonpropagating", 0),
        calls("dispersion.sample")), "1")
    m["trajectory.velocity.calls_per_op"] = (
        calls("trajectory.velocity") / n_ops, "count")
    m["stationary_phase.solve_newton.calls_per_op"] = (
        calls("stationary_phase.solve_newton") / n_ops, "count")
    m["stationary_phase.solve_newton.self_ms_per_op"] = (
        self_ms("stationary_phase.solve_newton"), "ms")
    m["stationary_phase.default_seed.self_ms_per_op"] = (
        self_ms("stationary_phase.default_seed"), "ms")
    m["stationary_phase.hessian.calls_per_op"] = (
        calls("stationary_phase.hessian") / n_ops, "count")
    m["stationary_phase.newton_iters_per_solve"] = (share(
        count("stationary_phase.solve_newton.iterations", 0),
        count("stationary_phase.solve_newton.converged", 0)), "count")
    m["stationary_phase.solve_grid.converged_per_start"] = (share(
        int((starts & ~raised).sum()), int(starts.sum())), "1")
    m["stationary_phase.solve_newton.raise_frac"] = (share(
        int((newton & raised).sum()), int(newton.sum())), "1")
    m["fields.metamaterial_doppler_1d.self_ms_per_op"] = (
        self_ms("fields.metamaterial_doppler_1d"), "ms")
    m["fields.metamaterial_doppler_1d.root_found_frac"] = (share(
        int((scans & ~raised).sum()), int(scans.sum())), "1")
    m["fields.metamaterial_doppler_1d.missed_roots_per_op"] = (
        missed / n_ops, "count")
    m["fields.moving_source_fields.self_ms_per_op"] = (
        self_ms("fields.moving_source_fields"), "ms")
    m["oracle.oscillatory_integral_2d.self_ms_per_op"] = (
        self_ms("oracle.oscillatory_integral_2d"), "ms")
    m["oracle.integrand.ms_per_op"] = (
        tr.acc.get("oracle.integrand", [0, 0.0, 0.0])[1] * 1e3 / n_ops, "ms")
    m["oracle.integrand.points_per_op"] = (
        count("oracle.integrand.points", 0) / n_ops, "count")
    m["oracle.R_doublings_per_op"] = (
        count("oracle.R_doublings", 0) / n_ops, "count")
    return m


def _percentile_ms(lat, q):
    return float(np.percentile(lat, q)) * 1e3


def _commit():
    """HEAD commit read from .git without running git, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(args):
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_thread_cap": THREAD_CAP,
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure(args):
    """One run; returns (facts, result)."""
    import workloads    # imports dopshift, so only after main's checks

    wl = workloads.WORKLOADS[args.workload]()
    info = facts(args)
    n_decks = decks_per_pass(wl, args.seconds)
    if args.trace:
        split = import_split()
        warm_up(wl, args.seed)
        tracer = tracing.Tracer()
        inputs, (lat_plain, outs_plain), (lat, outs) = run_traced_decks(
            wl, args.seed, n_decks, tracer)
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        info["digest_untraced"] = wl.digest(outs_plain)
        repeatable = info["digest_untraced"] == wl.digest(outs)
        info["traced_matches_untraced"] = repeatable
    else:
        warm_up(wl, args.seed)
        clock = hostspeed.Clock(wl.speed_loop)
        inputs = draw_inputs(wl, args.seed, n_decks)
        lat, raw, setup, raw_setup, outs, repeatable = run_passes(
            wl, inputs, clock)
        info["passes_match"] = repeatable
        info["reference"] = {
            "loop": wl.speed_loop, "samples": len(clock.ref),
            "nominal_ms": clock.nominal * 1e3,
            "median_ms": clock.median_ref() * 1e3}
        info["unscaled"] = {
            "setup_s": statistics.median(raw_setup),
            "ops_per_s": len(raw) / sum(raw),
            "op_p50_ms": _percentile_ms(raw, 50),
            "op_p90_ms": _percentile_ms(raw, 90)}
    failures, typed, missed = verify_ops(wl, inputs, outs)
    n = len(inputs)
    deck_len = n // n_decks
    info.update({
        "ops": n, "decks": n_decks, "passes": 1 if args.trace else wl.passes,
        "typed_outcomes": typed, "missed_roots": missed,
        "fail_frac": len(failures) / n,
        "digest_first_deck": wl.digest(outs[:deck_len]),
        "digest_all": wl.digest(outs),
        "failures": failures[:MAX_LISTED],
    })
    if args.trace:
        metrics = layer_metrics(tracer, n, missed)
        for p in IMPORT_PACKAGES:
            metrics[f"setup.import.{p}_ms"] = (split[p], "ms")
        metrics["trace.op_ms_per_op"] = (sum(lat) * 1e3 / n, "ms")
        metrics["trace.overhead_frac"] = (sum(lat) / sum(lat_plain) - 1.0, "1")
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "ops_per_s": (n / sum(lat), "1/s"),
            "op_p50_ms": (_percentile_ms(lat, 50), "ms"),
            "op_p90_ms": (_percentile_ms(lat, 90), "ms"),
            "ok_frac": ((n - len(failures)) / n, "1"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    result = {"correct": not failures and repeatable, "attempted": n,
              "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    return info, result


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("scan", "saddle", "oracle"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op time to measure, in whole decks at the nominal "
                        "deck time")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "dopshift" / "__init__.py").is_file():
        print(f"error: no dopshift package under {SRC}", file=sys.stderr)
        return 2
    import dopshift
    if Path(dopshift.__file__).resolve().parent != (SRC / "dopshift").resolve():
        print(f"error: dopshift imported from {dopshift.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    info, result = measure(args)
    for f in info["failures"]:
        print(f"failed op: {json.dumps(f, default=str)}", file=sys.stderr)
    print(json.dumps({"facts": info}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
