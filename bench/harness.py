"""Spans, the closed-loop pass loop, and the metrics built from them.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  Spans are recorded by rebinding a function
name in the module that holds it, so the program under test is never edited:
``cli`` imports ``decompose`` by name, so ``qmpemba.cli.decompose`` is the
name to wrap for the CLI's calls.  All spans stay in memory until the run
ends.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
from dataclasses import dataclass, field

PASS_SPAN = "bench.pass"


class Tracer:
    """In-memory span recorder that wraps named functions of loaded modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, holder, attr: str, name: str, observe=None):
        """Rebind ``holder.attr`` to a spanned call; ``observe(args, result)`` runs after it."""
        fn = getattr(holder, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if observe is not None:
                observe(args, result)
            return result

        self.replace(holder, attr, traced)

    def replace(self, holder, attr: str, value):
        """Rebind ``holder.attr`` until ``unwrap_all``."""
        self._undo.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def unwrap_all(self):
        while self._undo:
            holder, attr, fn = self._undo.pop()
            setattr(holder, attr, fn)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(end - start) - c for (_, start, end, _), c in zip(self.spans, child)]

    def by_name(self) -> dict[str, dict]:
        """Inclusive time, self time and call count summed per span name."""
        out: dict[str, dict] = {}
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - start
            agg["self"] += own
            agg["calls"] += 1
        return out


def span_cost_s() -> float:
    """Measured extra cost of one wrapped call over a direct call, in seconds."""
    samples = 20_000

    class Holder:
        @staticmethod
        def noop():
            return None

    probe = Tracer()
    direct = Holder.noop
    probe.wrap(Holder, "noop", "probe")
    wrapped = Holder.noop
    best = float("inf")
    for _ in range(5):
        probe.spans.clear()
        t0 = time.perf_counter()
        for _ in range(samples):
            wrapped()
        t1 = time.perf_counter()
        for _ in range(samples):
            direct()
        t2 = time.perf_counter()
        best = min(best, ((t1 - t0) - (t2 - t1)) / samples)
    probe.unwrap_all()
    return max(best, 0.0)


@dataclass
class Outcome:
    """One operation: a reproduce bundle, or one initial state."""

    failed: bool
    wrong: bool = False  # no result, or one that contradicts a reference or a gate
    note: str = ""
    rate_ratios: tuple = ()


@dataclass
class PassRecord:
    wall_s: float
    cpu_s: float
    after_shared_decompose_s: float  # pass time after a decomposition several states share
    outcomes: list
    counters: dict = field(default_factory=dict)


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run_passes(do_pass, seconds: float, tracer: Tracer) -> list[PassRecord]:
    """Closed loop: whole passes back to back until ``seconds`` have elapsed (at least one).

    ``do_pass(index, counters)`` returns the pass's outcomes.  The pass time
    is its root span, so traced self times add up to it exactly.
    """
    records = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        counters: dict = {}
        cpu0 = cpu_seconds()
        root = tracer.open(PASS_SPAN)
        try:
            outcomes = do_pass(index, counters)
        finally:
            tracer.close(root)
        cpu = cpu_seconds() - cpu0
        _, start, end, _ = tracer.spans[root]
        shared = end - counters.get("decomposed_at", start)
        records.append(PassRecord(end - start, cpu, shared, outcomes, counters))
        index += 1
        if time.perf_counter() >= deadline:
            return records


def end_to_end(records, setup_samples, peak_rss_mb) -> dict:
    states = sum(len(r.outcomes) for r in records)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "run_s": (statistics.median(r.wall_s for r in records), "s"),
        "states_per_s": (states / sum(r.after_shared_decompose_s for r in records), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(records, tracer: Tracer, span_cost: float) -> dict:
    """Per-pass layer metrics of a traced run (totals divided by the pass count)."""
    n = len(records)
    agg = tracer.by_name()

    def total(name):
        return agg.get(name, {}).get("total", 0.0) / n

    def own(name):
        return agg.get(name, {}).get("self", 0.0) / n

    def calls(name):
        return agg.get(name, {}).get("calls", 0) / n

    def counter(key):
        return sum(r.counters.get(key, 0) for r in records) / n

    trajectories = agg.get("dynamics.robust_trajectory", {}).get("calls", 0)
    run_s = statistics.median(r.wall_s for r in records)
    cpu_s = sum(r.cpu_s for r in records) / n
    outcomes = [o for r in records for o in r.outcomes]
    return {
        "spectral.decompose_s": (total("spectral.decompose"), "s"),
        "spectral.decompose_self_s": (own("spectral.decompose"), "s"),
        "spectral.eig_s": (total("spectral.eig"), "s"),
        "spectral.lu_s": (total("spectral.lu"), "s"),
        "spectral.basis_rows_s": (total("spectral.basis_rows"), "s"),
        "linalg.refined_inverse_s": (total("linalg.refined_inverse"), "s"),
        "spectral.m": (max(r.counters.get("m", 0) for r in records), "count"),
        "dynamics.burn_s": (total("dynamics.burn"), "s"),
        "dynamics.burn_steps": (counter("burn_steps"), "count"),
        "dynamics.hybrid_frac": (
            sum(r.counters.get("hybrid", 0) for r in records) / max(trajectories, 1), "ratio"),
        "superop.build_liouvillian_s": (total("superop.build_liouvillian"), "s"),
        "superop.build_liouvillian_calls": (calls("superop.build_liouvillian"), "count"),
        "dynamics.robust_trajectory_s": (total("dynamics.robust_trajectory"), "s"),
        "dynamics.mode_sum_s": (total("dynamics.mode_sum"), "s"),
        "dynamics.hs_distance_s": (total("dynamics.hs_distance"), "s"),
        "dynamics.hs_distance_calls": (calls("dynamics.hs_distance"), "count"),
        "dynamics.fit_decay_rate_s": (total("dynamics.fit_decay_rate"), "s"),
        "mpemba.optimal_unitary_s": (total("mpemba.optimal_unitary"), "s"),
        "mpemba.overlap_scan_s": (total("mpemba.overlap_scan"), "s"),
        "mpemba.slow_mode_spectrum_calls": (calls("mpemba.slow_mode_spectrum"), "count"),
        "models.s": (total("models"), "s"),
        "cli.self_s": (own("cli.reproduce"), "s"),
        "cli.bytes_written": (counter("bytes_written"), "B"),
        "proc.cpu_s": (cpu_s, "s"),
        "proc.cpu_util": (cpu_s / (sum(r.wall_s for r in records) / n), "ratio"),
        "trace.run_s": (run_s, "s"),
        "trace.overhead_s": (span_cost * (len(tracer.spans) - n) / n, "s"),
        "failed_frac": (sum(o.failed for o in outcomes) / len(outcomes), "ratio"),
    }
