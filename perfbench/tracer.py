"""Spans around the public entry points of each robinshape layer.

The benchmark, not the library, records the spans: ``instrumented`` swaps
wrappers into the library's module and class attributes for the duration of
a ``with`` block and puts the originals back afterwards, so untraced code
runs the library unchanged.  Spans are kept in memory and written out once,
when the run ends.
"""
from __future__ import annotations

import contextlib
import statistics
from collections import Counter
from time import perf_counter

import numpy as np

GEOMETRY_SPANS = ("geometry.pushforward_entries", "geometry.pushforward_alpha_entries",
                  "geometry.admittance_alpha_entries")


class Tracer:
    """Spans (name, start, end, parent index) plus counters at the same
    boundaries.  Parent is -1 for a span opened outside any other span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[idx] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def write(self, path) -> None:
        """Write the spans as CSV, times in seconds from the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        lines = ["name,start_s,end_s,parent"]
        lines += [f"{n},{s - t0:.9f},{e - t0:.9f},{p}"
                  for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")


def _entry_points(tracer: Tracer):
    """(owner, attribute, replacement) for every wrapped entry point."""
    import scipy.sparse.linalg as spla

    from robinshape import fem, harness, inverse, mala, optimize

    orig_solve = fem.AssembledSystem.solve
    orig_gauss_newton = optimize.gauss_newton
    orig_mala_step = mala.mala_step
    orig_atomic_write = harness.atomic_write

    def solve(self, rhs_full):
        rhs = np.asarray(rhs_full)
        tracer.counts["solve_columns"] += 1 if rhs.ndim == 1 else rhs.shape[1]
        return tracer.call("fem.solve", orig_solve, self, rhs_full)

    def gauss_newton(*args, **kwargs):
        m, report = tracer.call("optimize.gauss_newton", orig_gauss_newton,
                                *args, **kwargs)
        tracer.counts["gn_iterations"] += report.n_iters
        return m, report

    def mala_step(state, adapt_state, target, rng, xi=None):
        steps, accepted, invalid = state.n_steps, state.n_accepted, state.n_invalid
        out = tracer.call("mala.mala_step", orig_mala_step, state, adapt_state,
                          tracer.wrap("mala.target", target), rng, xi)
        tracer.counts["mala_steps"] += state.n_steps - steps
        tracer.counts["mala_accepted"] += state.n_accepted - accepted
        tracer.counts["mala_invalid"] += state.n_invalid - invalid
        return out

    def atomic_write(path, text):
        tracer.counts["artifact_bytes"] += len(text.encode())
        return tracer.call("harness.atomic_write", orig_atomic_write, path, text)

    patches = [
        (fem, "assemble", tracer.wrap("fem.assemble", fem.assemble)),
        (fem.AssembledSystem, "solve", solve),
        (spla, "splu", tracer.wrap("fem.factor", spla.splu)),
        (fem, "pushforward_entries_from",
         tracer.wrap(GEOMETRY_SPANS[0], fem.pushforward_entries_from)),
        (inverse, "pushforward_alpha_entries_from",
         tracer.wrap(GEOMETRY_SPANS[1], inverse.pushforward_alpha_entries_from)),
        (inverse, "admittance_alpha_entries_from",
         tracer.wrap(GEOMETRY_SPANS[2], inverse.admittance_alpha_entries_from)),
        (optimize, "gauss_newton", gauss_newton),
        (optimize, "laplace", tracer.wrap("optimize.laplace", optimize.laplace)),
        (mala, "mala_step", mala_step),
        (mala, "adapt", tracer.wrap("mala.adapt", mala.adapt)),
        (mala, "refresh_proposal", tracer.wrap("mala.refresh_proposal", mala.refresh_proposal)),
        (mala, "stopping_rule", tracer.wrap("mala.stopping_rule", mala.stopping_rule)),
        (harness, "generate_data", tracer.wrap("harness.generate_data", harness.generate_data)),
        (harness, "atomic_write", atomic_write),
        (harness, "chain_csv", tracer.wrap("harness.chain_csv", harness.chain_csv)),
    ]
    for method in ("potential", "potential_value", "gradient", "potential_and_gradient",
                   "jacobian", "linearize"):
        patches.append((inverse.Problem, method,
                        tracer.wrap(f"inverse.{method}", getattr(inverse.Problem, method))))
    return patches


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route the library's entry points through ``tracer`` inside the block."""
    patches = _entry_points(tracer)
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float, infos: list) -> dict:
    """Per-layer metrics from the spans of ``n_ops`` traced operations.

    ``*_ms`` is self time per call (the span minus its child spans), except
    the inclusive ``optimize.gn_iter_ms`` (per iteration),
    ``optimize.laplace_ms``, ``mala.step_ms``, ``mala.target_ms`` and
    ``mala.overhead_ms`` (per step), ``harness.generate_data_ms`` and
    ``harness.artifact_write_ms`` (per operation).  Counts are per operation.
    ``infos`` holds the workload's figures of each operation that passed its
    checks: ``mala.steps_to_stop`` and ``mala.ess_min`` are their medians.
    """
    names = np.array(tracer.names, dtype=str)
    parents = np.array(tracer.parents, dtype=np.int64)
    dur = np.array(tracer.ends) - np.array(tracer.starts)
    has_parent = parents >= 0
    child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    counts = tracer.counts

    def select(*wanted):
        return np.isin(names, wanted)

    def total_ms(*wanted, values=dur):
        return 1e3 * float(values[select(*wanted)].sum())

    def calls(*wanted):
        return int(select(*wanted).sum())

    def per(total, n):
        return total / n if n else 0.0

    def self_ms(*wanted):
        return per(total_ms(*wanted, values=self_time), calls(*wanted))

    def under_gauss_newton(i):
        while i >= 0:
            if names[i] == "optimize.gauss_newton":
                return True
            i = parents[i]
        return False

    def median_info(key):
        values = [info[key] for info in infos if key in info]
        return statistics.median(values) if values else 0

    line_search = sum(under_gauss_newton(i) for i in np.flatnonzero(select("inverse.potential_value")))
    steps = counts["mala_steps"]
    step_adapt = total_ms("mala.mala_step", "mala.adapt")
    return {
        "fem.assemble_ms": (self_ms("fem.assemble"), "ms"),
        "fem.factor_ms": (self_ms("fem.factor"), "ms"),
        "fem.assemble_calls": (per(calls("fem.assemble"), n_ops), "count"),
        "fem.solve_ms": (self_ms("fem.solve"), "ms"),
        "fem.solve_columns": (per(counts["solve_columns"], n_ops), "count"),
        "geometry.pushforward_ms": (self_ms(*GEOMETRY_SPANS), "ms"),
        "inverse.potential_ms": (self_ms("inverse.potential"), "ms"),
        "inverse.gradient_ms": (self_ms("inverse.gradient"), "ms"),
        "inverse.jacobian_ms": (self_ms("inverse.jacobian"), "ms"),
        "inverse.jacobian_calls": (per(calls("inverse.jacobian"), n_ops), "count"),
        "optimize.gn_iterations": (per(counts["gn_iterations"], n_ops), "count"),
        "optimize.line_search_evals": (per(line_search, n_ops), "count"),
        "optimize.gn_iter_ms": (per(total_ms("optimize.gauss_newton"), counts["gn_iterations"]), "ms"),
        "optimize.laplace_ms": (per(total_ms("optimize.laplace"), calls("optimize.laplace")), "ms"),
        "mala.step_ms": (per(total_ms("mala.mala_step"), steps), "ms"),
        "mala.target_ms": (per(total_ms("mala.target"), steps), "ms"),
        "mala.overhead_ms": (per(step_adapt - total_ms("mala.target"), steps), "ms"),
        "mala.adapt_ms": (self_ms("mala.adapt"), "ms"),
        "mala.refresh_ms": (self_ms("mala.refresh_proposal"), "ms"),
        "mala.stop_check_ms": (self_ms("mala.stopping_rule"), "ms"),
        "mala.acceptance": (per(counts["mala_accepted"], steps), "fraction"),
        "mala.invalid_proposals": (per(counts["mala_invalid"], n_ops), "count"),
        "mala.steps_to_stop": (median_info("steps_to_stop"), "count"),
        "mala.ess_min": (median_info("ess_min"), "count"),
        "harness.generate_data_ms": (per(total_ms("harness.generate_data"),
                                         calls("harness.generate_data")), "ms"),
        "harness.artifact_write_ms": (per(total_ms("harness.atomic_write", "harness.chain_csv"),
                                          n_ops), "ms"),
        "harness.artifact_bytes": (per(counts["artifact_bytes"], n_ops), "count"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }
