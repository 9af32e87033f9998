"""Smoke test of the benchmark itself, at a tiny size.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted result is counted as a failure, and that inputs depend on
the seed and only on it.
"""

import dataclasses
import json
from contextlib import contextmanager
from pathlib import Path

import run  # first: caps the thread pools and puts src/ on the path
import verify
import workloads

SPEC = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@contextmanager
def tiny():
    """One short deck per workload and a single set-up interpreter."""
    saved = (run.SETUP_RUNS, run.IMPORT_RUNS, run.WARMUP_S,
             workloads.Workload.min_ops, workloads.Oracle.STRATA)
    run.SETUP_RUNS = run.IMPORT_RUNS = 1
    run.WARMUP_S = 0.0
    workloads.Workload.min_ops = 1
    workloads.Oracle.STRATA = [("hyperbolic", (20.0, 20.5), False)]
    try:
        yield
    finally:
        (run.SETUP_RUNS, run.IMPORT_RUNS, run.WARMUP_S,
         workloads.Workload.min_ops, workloads.Oracle.STRATA) = saved


def _measure(workload, trace, seed=1):
    args = run.parse_args(["--workload", workload, "--seed", str(seed),
                           "--seconds", "0", "--trace", str(trace)])
    return run.measure(args)


def test_every_metric_is_printed_with_its_unit():
    with tiny():
        for name in ("scan", "saddle", "oracle"):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                info, result = _measure(name, trace)
                want = {m["name"]: m["unit"] for m in SPEC[key]}
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                assert got == want, (name, trace)
                assert result["correct"] and result["failed"] == 0, info
                assert set(result) == {"correct", "attempted", "failed",
                                       "metrics"}
            assert info["traced_matches_untraced"]


def test_corrupted_result_is_counted_as_failed():
    original = workloads.Scan.run
    first = next(workloads.Scan().decks(1))[0]

    def corrupt_first(self, inp):
        out = original(self, inp)
        if inp == first:    # perturb one root on its way to the verifier
            out[0] = [out[0][0] * (1.0 + 1e-9)] if out[0] else [inp["omega0"]]
        return out

    with tiny():
        workloads.Scan.run = corrupt_first
        try:
            info, result = _measure("scan", 0)
        finally:
            workloads.Scan.run = original
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 1.0 - 1.0 / result["attempted"]
    assert info["fail_frac"] == 1.0 / result["attempted"]
    assert info["failures"][0]["input"] == first


def test_checks_reject_perturbed_outputs():
    saddle = workloads.Saddle()
    inp = next(saddle.decks(3))[0]
    out = saddle.run(inp)
    assert saddle.check(inp, out)[0] is None
    c = out[0]
    bad = dataclasses.replace(c, instantaneous_frequency=c.instantaneous_frequency
                              * (1.0 + 1e-6))
    assert saddle.check(inp, [bad] + out[1:])[0] is not None

    oracle = workloads.Oracle()
    inp = {"case": "hyperbolic", "lam": 20.0, "ibp": False}
    res = oracle.run(inp)
    assert oracle.check(inp, res)[0] is None
    bad = dataclasses.replace(res, value=res.value * (1.0 + 1e-5))
    assert oracle.check(inp, bad)[0] is not None
    assert verify.check_oracle(inp, bad) is not None


def test_inputs_follow_the_seed():
    for cls in (workloads.Scan, workloads.Saddle, workloads.Oracle):
        wl = cls()
        first = next(wl.decks(7))
        assert first == next(wl.decks(7)), cls.name
        assert first != next(wl.decks(8)), cls.name
        # deck k does not depend on how many decks ran before it
        decks = wl.decks(7)
        next(decks)
        assert next(decks) == next(wl.decks(7, start=1)), cls.name


if __name__ == "__main__":
    for _name, _fn in list(globals().items()):
        if _name.startswith("test_"):
            _fn()
            print(f"ok {_name}")
