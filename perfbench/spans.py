"""Span tracing of planar_mk from outside the package.

`Tracer.job(...)` patches every public module-level function of every
planar_mk module with a wrapper that records a span (name, parent, start,
end) for the duration of one job, then restores the originals. The modules
bind each other's functions with `from .x import y`, so a function is
replaced in every module (and the package namespace) that holds the same
object: `objective_pass` lives in both `optimizer` and `variational`,
`euler_lagrange_residual` in `optimizer` and `cli`. Code that captured a
function before the patch bypasses it; call the program through module
attributes.

Two QuantileTable methods run tens of thousands of times per solve; they
only bump a counter, with no span, to keep the tracing cost low.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the durations of its direct children; the self
times of one job sum to the job span's duration.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "planar_mk"
# counter name -> (class, method)
COUNTED_METHODS = {
    "measures.value_and_slope": ("QuantileTable", "value_and_slope"),
    "measures.quantile_call": ("QuantileTable", "__call__"),
}
WRITERS = ("write_density_json", "write_grid_csv")


@dataclass
class JobTrace:
    """Spans of one job; span 0 is the job itself and has parent -1."""

    job_id: str
    names: list[str] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    solves: list[dict] = field(default_factory=list)
    bytes_written: int = 0


def self_times(parents: np.ndarray, durations: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    out = durations.astype(float).copy()
    has_parent = parents >= 0
    np.subtract.at(out, parents[has_parent], durations[has_parent])
    return out


def _program_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]


def public_functions() -> dict[str, object]:
    """Qualified name -> function, for every public function defined in the package."""
    found = {}
    for module in _program_modules():
        short = module.__name__[len(PACKAGE) + 1:]
        if not short:
            continue
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                found[f"{short}.{name}"] = obj
    return found


class Tracer:
    """Collects the spans of the jobs it wraps."""

    def __init__(self):
        self.jobs: list[JobTrace] = []
        self._job: JobTrace | None = None
        self._stack: list[int] = []
        self._originals = public_functions()

    def _span_wrapper(self, qualname: str, fn):
        tracer = self
        short = qualname.rsplit(".", 1)[1]

        def wrapper(*args, **kwargs):
            job = tracer._job
            stack = tracer._stack
            idx = len(job.names)
            job.names.append(qualname)
            job.parents.append(stack[-1])
            job.starts.append(time.perf_counter())
            job.ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                job.ends[idx] = time.perf_counter()
                stack.pop()
            if qualname == "optimizer.solve":
                config = args[2] if len(args) > 2 else kwargs.get("config")
                job.solves.append(_solve_counts(result, config))
            elif short in WRITERS:
                job.bytes_written += os.path.getsize(args[0] if args else kwargs["path"])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, key: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._job.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self) -> list[tuple[object, str, object]]:
        by_id = {id(fn): self._span_wrapper(q, fn) for q, fn in self._originals.items()}
        undo = []
        for module in _program_modules():
            for name, obj in list(vars(module).items()):
                wrapper = by_id.get(id(obj))
                if wrapper is not None:
                    undo.append((module, name, obj))
                    setattr(module, name, wrapper)
        for key, (cls_name, meth) in COUNTED_METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{key.split('.')[0]}"], cls_name)
            fn = cls.__dict__[meth]
            undo.append((cls, meth, fn))
            setattr(cls, meth, self._count_wrapper(key, fn))
        return undo

    @contextmanager
    def job(self, job_id: str):
        """Trace everything the block calls into planar_mk as one job."""
        job = JobTrace(job_id, ["job"], [-1], [0.0], [0.0])
        self._job, self._stack = job, [0]
        undo = self._patch()
        job.starts[0] = time.perf_counter()
        try:
            yield job
        finally:
            job.ends[0] = time.perf_counter()
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            self._job, self._stack = None, []
            self.jobs.append(job)


def _solve_counts(report, config) -> dict:
    grad_tol = getattr(config, "grad_tol", None)
    if grad_tol is None:  # the optimizer's default
        grad_tol = 1e-6 * report.p_star.values.size
    last_grad = float(report.grad_norm_trace[-1]) if len(report.grad_norm_trace) else float("nan")
    return {
        "iterations": int(report.iterations),
        "termination": report.termination_reason,
        "grad_ratio": last_grad / grad_tol,
    }
