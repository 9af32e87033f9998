"""Spans and counts around dopshift's layer functions, recorded from outside.

Callers inside dopshift reach every layer through a module attribute
(``disp.sample``, ``trj.geometry``, ``sph.solve_newton``, ...), so replacing
that attribute with a timing wrapper sees every call without touching the
package.  ``instrument`` does the replacing for one traced pass and puts the
originals back afterwards.

A span is (name, start, end, parent span, op id, raised).  Spans are kept in
flat arrays in memory and written out once at the end (``write``).  The
wrapper also keeps per-name running sums: calls, inclusive time, and self
time, which is the span's duration minus the time covered by its direct
child spans.
"""

import time
from array import array
from contextlib import contextmanager
from dataclasses import replace

import numpy as np


class Tracer:
    """In-memory span store with per-name call, time and self-time sums."""

    def __init__(self):
        self.names = []                 # name id -> name
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.raised = array("b")
        self.op_id = -1
        # per name: [calls, inclusive seconds, self seconds]
        self.acc = {}
        # free-form counters filled by return hooks
        self.counts = {}
        self._stack = [-1]
        self._child = [0.0]

    def _register(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.acc[name] = [0, 0.0, 0.0]
        return self._ids[name], self.acc[name]

    def add(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name, fn, on_return=None):
        """Wrap fn so that each call records one span under ``name``."""
        nid, acc = self._register(name)
        start, end, names, parents = self.start, self.end, self.name, self.parent
        ops, raised, stack, child = self.op, self.raised, self._stack, self._child
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(self.op_id)
            raised.append(0)
            stack.append(sid)
            child.append(0.0)
            t0 = clock()
            start.append(t0)
            end.append(t0)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = 1
                raise
            finally:
                t1 = clock()
                end[sid] = t1
                stack.pop()
                inner = child.pop()
                d = t1 - t0
                child[-1] += d
                acc[0] += 1
                acc[1] += d
                acc[2] += d - inner
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def counter(self, name, fn):
        """Wrap fn so that each call is counted, without a span."""
        _, acc = self._register(name)

        def counted(*args, **kwargs):
            acc[0] += 1
            return fn(*args, **kwargs)

        return counted

    def spans_of(self, name):
        """Boolean mask over all spans recorded under ``name``."""
        if name not in self._ids:
            return np.zeros(len(self.name), dtype=bool)
        return np.frombuffer(self.name, dtype=np.int32) == self._ids[name]

    def raised_mask(self):
        return np.frombuffer(self.raised, dtype=np.int8).astype(bool)

    def parent_is(self, name):
        """Mask of spans whose direct parent span is recorded under ``name``."""
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        out = np.zeros(len(parent), dtype=bool)
        out[has] = self.spans_of(name)[parent[has]]
        return out

    def write(self, path):
        """Write every span to an .npz file (times in seconds)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 op=np.frombuffer(self.op, dtype=np.int32),
                 raised=np.frombuffer(self.raised, dtype=np.int8))


def _patch(saved, module, attr, wrapper):
    saved.append((module, attr, getattr(module, attr)))
    setattr(module, attr, wrapper)


@contextmanager
def instrument(tracer):
    """Replace dopshift's layer functions by traced wrappers while active."""
    from dopshift import dispersion, fields, oracle, stationary_phase, trajectory

    def on_sample(s):
        if not s.propagating:
            tracer.add("dispersion.sample.nonpropagating")

    def on_point(sp):
        tracer.add("stationary_phase.solve_newton.converged")
        tracer.add("stationary_phase.solve_newton.iterations", sp.iterations)

    def on_integral(res, r0):
        tracer.add("oracle.R_doublings", float(np.log2(res.R_used / r0)))

    def on_amplitude(values):
        tracer.add("oracle.integrand.points", int(np.size(values)))

    integral = oracle.oscillatory_integral_2d

    def traced_integral(ig, R0=2.0, **kwargs):
        # The callbacks belong to the op's integrand, so they are wrapped
        # per call; the quadrature calls nothing else of the package.
        ig = replace(
            ig,
            amplitude=tracer.span("oracle.integrand", ig.amplitude,
                                  on_amplitude),
            phase=tracer.span("oracle.integrand", ig.phase),
            phase_grad=None if ig.phase_grad is None else
            tracer.span("oracle.integrand", ig.phase_grad))
        res = integral(ig, R0=R0, **kwargs)
        on_integral(res, R0)
        return res

    saved = []
    try:
        _patch(saved, dispersion, "sample",
               tracer.span("dispersion.sample", dispersion.sample, on_sample))
        _patch(saved, trajectory, "geometry",
               tracer.span("trajectory.geometry", trajectory.geometry))
        _patch(saved, trajectory, "velocity",
               tracer.counter("trajectory.velocity", trajectory.velocity))
        for attr in ("solve_newton", "default_seed", "solve_grid"):
            hook = on_point if attr == "solve_newton" else None
            _patch(saved, stationary_phase, attr,
                   tracer.span(f"stationary_phase.{attr}",
                               getattr(stationary_phase, attr), hook))
        _patch(saved, stationary_phase, "hessian",
               tracer.counter("stationary_phase.hessian",
                              stationary_phase.hessian))
        for attr in ("metamaterial_doppler_1d", "moving_source_fields"):
            _patch(saved, fields, attr,
                   tracer.span(f"fields.{attr}", getattr(fields, attr)))
        _patch(saved, oracle, "oscillatory_integral_2d",
               tracer.span("oracle.oscillatory_integral_2d", traced_integral))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
