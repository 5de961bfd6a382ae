"""Span tracing of srlab's layers from outside the program.

The benchmark never edits srlab.  It replaces, for the length of a ``with``
block, the module attributes through which the layers call each other, and
restores the originals on exit:

    srlab.integrator.batch_to_physical / batch_from_physical   spectral
    srlab.model.DriftModel.f                                   model
    srlab._streams.mode_stream (returns a timed proxy)         streams
    srlab.mc.simulate_batch                                    integrator
    srlab.mc.run_batch, srlab.mc.transition_probability        mc

Each call becomes a span (id, name, start, end, parent, info).  Parents come
from a per-thread stack, so the two worker threads stay separate; a span
opened on an empty stack in a worker thread takes as parent the innermost
open span of the main thread, which is the ``run_batch`` call that submitted
the work.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
from time import perf_counter

import numpy as np


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples; restore the originals on exit."""
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._per_thread: list[list] = []
        self._main_stack: list = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans = []
            is_main = threading.current_thread() is threading.main_thread()
            local.stack = self._main_stack if is_main else []
            local.is_main = is_main
            with self._lock:
                self._per_thread.append(local.spans)
        return local

    def call(self, name, fn, args, kwargs, info=None):
        """Run ``fn(*args, **kwargs)`` inside a span; ``info(result, args)``
        returns the work count stored with the span."""
        local = self._state()
        stack = local.stack
        if stack:
            parent = stack[-1]
        elif not local.is_main and self._main_stack:
            parent = self._main_stack[-1]
        else:
            parent = 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
        local.spans.append((sid, name, t0, t1, parent,
                            info(result, args) if info else None))
        return result

    def wrap(self, name, fn, info=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, info)
        return traced

    def spans(self) -> list:
        with self._lock:
            return [s for spans in self._per_thread for s in spans]


class TimedStream:
    """Proxy for a numpy Generator whose ``standard_normal`` is a span."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call("streams.draw", self._gen.standard_normal,
                                 args, kwargs, _normals_drawn)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _normals_drawn(result, args):
    return int(np.size(result))


def _chunk_info(result, args):
    """(rows, loop steps, useful row-steps) of one simulate_batch call."""
    cfg = args[0]
    steps = active_steps(result["tau_minus_d0"], result["failed"],
                         cfg.t_start, cfg.dt, cfg.n_steps)
    stopped = np.isfinite(result["tau_minus_d0"]) | result["failed"]
    loop_steps = cfg.n_steps if not stopped.all() else int(steps.max(initial=0))
    return len(steps), loop_steps, int(steps.sum())


def _batch_n(result, args):
    return int(args[5])


def active_steps(tau_minus_d0, failed, t_start, dt, n_steps):
    """Steps each trajectory ran while active, from its outcome.

    A trajectory that reached -d0 at step n has tau = t_n + dt/2 and ran
    n + 1 steps; one that never stopped ran all of them.  A failed
    (non-finite) trajectory counts no useful step.
    """
    tau = np.asarray(tau_minus_d0, dtype=float)
    steps = np.full(tau.shape, n_steps, dtype=np.int64)
    hit = np.isfinite(tau)
    steps[hit] = np.rint((tau[hit] - t_start) / dt + 0.5).astype(np.int64)
    steps[np.asarray(failed, dtype=bool)] = 0
    return steps


def layer_patches(tracer: Tracer):
    """The (owner, attribute, traced replacement) triples for every layer."""
    import srlab._streams
    import srlab.integrator
    import srlab.mc
    import srlab.model

    integ, mc, streams = srlab.integrator, srlab.mc, srlab._streams
    mode_stream = streams.mode_stream

    def timed_mode_stream(*args, **kwargs):
        gen = tracer.call("streams.create", mode_stream, args, kwargs)
        return TimedStream(gen, tracer)

    return [
        (integ, "batch_to_physical",
         tracer.wrap("spectral.to_physical", integ.batch_to_physical)),
        (integ, "batch_from_physical",
         tracer.wrap("spectral.from_physical", integ.batch_from_physical)),
        (srlab.model.DriftModel, "f",
         tracer.wrap("model.f", srlab.model.DriftModel.f)),
        (streams, "mode_stream", timed_mode_stream),
        (mc, "simulate_batch",
         tracer.wrap("integrator.simulate_batch", mc.simulate_batch, _chunk_info)),
        (mc, "run_batch", tracer.wrap("mc.run_batch", mc.run_batch, _batch_n)),
        (mc, "transition_probability",
         tracer.wrap("mc.transition_probability", mc.transition_probability)),
    ]


def _union_length(intervals) -> float:
    total, end = 0.0, -np.inf
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def layer_metrics(spans, chunk_size: int) -> dict:
    """Per-layer totals from a list of spans (see module docstring)."""
    by_name: dict[str, list] = {}
    children: dict[int, list] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[4], []).append(s)

    def busy(*names):
        return sum(s[3] - s[2] for n in names for s in by_name.get(n, ()))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_time(name):
        total = 0.0
        for s in by_name.get(name, ()):
            kids = [(max(c[2], s[2]), min(c[3], s[3]))
                    for c in children.get(s[0], ())]
            total += (s[3] - s[2]) - _union_length(k for k in kids if k[1] > k[0])
        return total

    def ratio(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    created = calls("streams.create")
    create_s = busy("streams.create")
    drawn = sum(s[5] for s in by_name.get("streams.draw", ()))
    draw_s = busy("streams.draw")
    spectral_calls = calls("spectral.to_physical", "spectral.from_physical")
    spectral_s = busy("spectral.to_physical", "spectral.from_physical")
    chunks = [s[5] for s in by_name.get("integrator.simulate_batch", ())]
    row_steps = sum(rows * steps for rows, steps, _ in chunks)
    useful_rows = sum(u for _, _, u in chunks)
    loop_steps = sum(steps for _, steps, _ in chunks)
    integ_self = self_time("integrator.simulate_batch")
    batch_ns = [s[5] for s in by_name.get("mc.run_batch", ())]
    return {
        "streams.draw_s": draw_s,
        "streams.normals_drawn": drawn,
        "streams.ns_per_normal": ratio(draw_s, drawn, 1e9),
        "streams.created": created,
        "streams.create_s": create_s,
        "streams.us_per_stream": ratio(create_s, created, 1e6),
        "spectral.calls": spectral_calls,
        "spectral.busy_s": spectral_s,
        "spectral.us_per_call": ratio(spectral_s, spectral_calls, 1e6),
        "model.drift_calls": calls("model.f"),
        "model.drift_s": busy("model.f"),
        "integrator.calls": len(chunks),
        "integrator.busy_s": busy("integrator.simulate_batch"),
        "integrator.self_s": integ_self,
        "integrator.row_steps": row_steps,
        "integrator.useful_row_step_ratio": ratio(useful_rows, row_steps),
        "integrator.us_per_step_self": ratio(integ_self, loop_steps, 1e6),
        "mc.run_batch_calls": len(batch_ns),
        "mc.chunks": sum(-(-n // chunk_size) for n in batch_ns),
        "mc.probes": calls("mc.transition_probability"),
        "mc.assembly_s": self_time("mc.run_batch"),
    }
