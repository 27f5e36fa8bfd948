"""The closed-loop runner shared by solve-n30, table3-fused and islands-loopback.

One caller runs the workload's operations back to back, cycling through
its fixed operation list, until the run's seconds are used up (at least
one operation always completes). Every result is checked after the timed
window; a repeated operation must also reproduce its first result. Set-up
is timed before and again after the window (``common.timed_setup``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` splits the
seconds into an untraced and a traced pass over the same operation list:
the per-layer ledger comes from the traced pass, and the mean time of the
operations both passes completed gives ``trace.overhead_frac``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Protocol

from common import (
    BUILD_DIR,
    LATENCY_LIMIT_MS,
    Outcome,
    PeakMemory,
    median,
    tail,
    timed_setup,
)
from layers import covers, install, ledger
from spans import Tracer, coverage


class ClosedLoopWorkload(Protocol):
    name: str

    def inputs(self, seed: int, tiny: bool) -> Any:
        """The operation list and instance seeds, from the run seed alone."""

    def setup(self, inputs: Any) -> Any:
        """Timed set-up: kernel load and instance generation; returns state."""

    def prepare(self, state: Any) -> None:
        """Untimed set-up: oracles the checks compare against."""

    def n_ops(self, state: Any) -> int:
        """Length of the operation list (the loop cycles through it)."""

    def solves_per_op(self, state: Any) -> int:
        """Solves one operation completes (chains per call for table3-fused)."""

    def run_op(self, state: Any, index: int) -> Any:
        """Run operation ``index`` and return its raw result."""

    def check_op(self, state: Any, index: int, result: Any) -> tuple[str | None, list[float]]:
        """``(failure or None, ET / lower-bound ratios)`` for one result."""

    def trace_extra(self, state: Any, untraced: list["Record"]) -> dict[str, float]:
        """Per-layer figures the workload measures itself (may be empty)."""


@dataclass
class Record:
    index: int
    seconds: float
    result: Any


def run_loop(
    workload: ClosedLoopWorkload, state: Any, seconds: float, tracer: Tracer | None = None
) -> tuple[list[Record], float, list[Any]]:
    """Run operations until ``seconds`` pass; returns records, elapsed, roots."""
    n = workload.n_ops(state)
    records: list[Record] = []
    roots: list[Any] = []
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while True:
        t0 = time.perf_counter()
        if tracer is None:
            result = workload.run_op(state, i % n)
        else:
            with tracer.span("op", parent=None) as root:
                tracer.fallback = root
                try:
                    result = workload.run_op(state, i % n)
                finally:
                    tracer.fallback = None
            roots.append(root)
        t1 = time.perf_counter()
        records.append(Record(i % n, t1 - t0, result))
        i += 1
        if t1 >= deadline:
            return records, t1 - start, roots


def check_records(
    workload: ClosedLoopWorkload, state: Any, records: list[Record], outcome: Outcome
) -> tuple[list[bool], float]:
    """Check every record; returns per-record pass flags and mean ET / bound.

    The quality figure averages each distinct operation once, so it does
    not depend on how many times a fast or slow run cycled the list.
    """
    passed: list[bool] = []
    ratios: dict[int, list[float]] = {}
    for rec in records:
        outcome.attempted += 1
        try:
            problem, more = workload.check_op(state, rec.index, rec.result)
        except Exception as exc:  # a crashing check is a failed operation
            problem, more = f"check raised {type(exc).__name__}: {exc}", []
        if problem is not None:
            outcome.fail(f"op {rec.index}: {problem}")
        passed.append(problem is None)
        if more:
            ratios.setdefault(rec.index, more)
    means = [sum(r) / len(r) for r in ratios.values()]
    return passed, sum(means) / len(means) if means else 0.0


def run_closed(workload: ClosedLoopWorkload, seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    memory = PeakMemory()
    inputs = workload.inputs(seed, tiny)

    def build() -> Any:
        return workload.setup(inputs)

    state, setup_times = timed_setup(build)
    workload.prepare(state)
    outcome = Outcome()
    outcome.notes["operations_in_list"] = workload.n_ops(state)
    if not trace:
        records, elapsed, _ = run_loop(workload, state, seconds)
        setup_times += timed_setup(build)[1]
        outcome.notes["setup_runs_s"] = setup_times
        passed, quality = check_records(workload, state, records, outcome)
        latencies = [1000.0 * r.seconds for r in records]
        tail_ms, tail_q, n = tail(latencies)
        limit = LATENCY_LIMIT_MS[workload.name]
        good = sum(1 for ok, ms in zip(passed, latencies) if ok and ms <= limit)
        outcome.metrics = {
            "setup_s": median(setup_times),
            "solves_per_s": workload.solves_per_op(state) * sum(passed) / elapsed,
            "goodput_rps": good / elapsed,
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_ms,
            "et_over_bound": quality,
            "peak_rss_mb": memory.mb(),
        }
        outcome.notes.update(
            latency_tail_percentile=tail_q,
            latency_samples=n,
            operations=len(records),
            elapsed_s=elapsed,
        )
        return outcome

    untraced, _, _ = run_loop(workload, state, seconds / 2.0)
    extra = workload.trace_extra(state, untraced)
    tracer = Tracer()
    install(tracer)
    try:
        traced, _, roots = run_loop(workload, state, seconds / 2.0, tracer)
    finally:
        tracer.restore()
    check_records(workload, state, untraced + traced, outcome)
    k = min(len(untraced), len(traced))
    base = sum(r.seconds for r in untraced[:k])
    extra["trace.overhead_frac"] = sum(r.seconds for r in traced[:k]) / base - 1.0
    extra["trace.coverage_frac"] = coverage(tracer.spans, roots, covers)
    outcome.metrics = ledger(tracer, len(traced), extra=extra)
    outcome.notes.update(untraced_operations=len(untraced), traced_operations=len(traced))
    tracer.dump(BUILD_DIR / f"trace-{workload.name}-{seed}.jsonl")
    return outcome
