"""Shared pieces of the benchmark: metric tables, statistics, checks, provenance.

Every workload returns an :class:`Outcome`; ``run.py`` turns it into the
one-line JSON result. The metric names and units below are the ones
``BENCHMARK.json`` declares (the smoke tests hold the two together).
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

#: The repository root (this file lives in ``<root>/perfbench``).
ROOT = Path(__file__).resolve().parent.parent
#: Where the benchmark may write: compiled kernels and trace dumps.
BUILD_DIR = ROOT / ".bench_build" / "perfbench"

#: Per workload, the latency limit of ``goodput_rps``: an operation (a
#: gateway request, timed from its due time) that passed its checks counts
#: as good only if it finished within this many milliseconds. Each limit is
#: about 1.5 times the tail the workload showed on a 2-core x86-64 host
#: (for the gateway: the p95 of a cache miss), so a run loses goodput when
#: its slow operations get half again slower, not only when every one does.
LATENCY_LIMIT_MS: dict[str, float] = {
    "solve-n30": 750.0,
    "table3-fused": 275.0,
    "gateway-zipf": 200.0,
    "islands-loopback": 400.0,
}

#: Set-up is timed repeatedly, on each side of the timed window, for at
#: least this many seconds and this many repeats per side; the median of
#: all repeats is ``setup_s``. The host's speed drifts over seconds, so
#: repeats taken in one short burst would sample one moment of it.
SETUP_SIDE_S = 1.5
SETUP_MIN_REPEATS = 5

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "solves_per_s": "1/s",
    "goodput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "et_over_bound": "ratio",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``): name -> unit. Sums over the traced
#: pass are divided by its operation count ("/op").
PER_LAYER: dict[str, str] = {
    "kernels.genperm_ms": "ms/op",
    "kernels.genperm_rows": "rows/op",
    "kernels.eval_ms": "ms/op",
    "kernels.eval_rows": "rows/op",
    "kernels.calls": "calls/op",
    "kernels.eval_ops_computed": "ops/op",
    "ce.iterations": "iter/op",
    "ce.sample_self_ms": "ms/op",
    "ce.step_self_ms": "ms/op",
    "ce.update_ms": "ms/op",
    "dedup.ms": "ms/op",
    "dedup.unique_frac": "ratio",
    "mapping.eval_self_ms": "ms/op",
    "runtime.self_ms": "ms/op",
    "service.key_ms_p50": "ms",
    "service.hit_frac": "ratio",
    "service.coalesced_frac": "ratio",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_tail": "ms",
    "service.batch_width_mean": "requests",
    "runstore.cache_get_ms_p50": "ms",
    "runstore.cache_put_ms_p50": "ms",
    "parallel.publish_ms": "ms/op",
    "parallel.map_salvage_ms_p50": "ms",
    "parallel.retries": "count",
    "parallel.respawns": "count",
    "parallel.failures": "count",
    "islands.rounds": "rounds/op",
    "islands.frames": "frames/op",
    "islands.frame_bytes": "bytes/op",
    "islands.encode_ms": "ms/op",
    "islands.chain_round_ms": "ms/op",
    "islands.wait_ms": "ms/op",
    "islands.overhead_ms_per_agent_round": "ms",
    "gen.late_p99_ms": "ms",
    "gen.backlog_end": "requests",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


@dataclass
class Outcome:
    """What one workload run reports."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    #: One line per failed check, for the log (never part of the result).
    problems: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def tail(values: Sequence[float], beyond: int = 10) -> tuple[float, float, int]:
    """The highest percentile with at least ``beyond`` samples above it.

    Returns ``(value, percentile, n_samples)``. Below ``2 * beyond``
    samples that percentile would fall under the median, which then
    stands in (percentile 50).
    """
    n = len(values)
    q = max(50.0, 100.0 * (n - beyond) / n) if n else 50.0
    return percentile(values, q), q, n


def per_op(total: float, n_ops: int) -> float:
    return total / n_ops if n_ops else 0.0


# -- set-up, memory, provenance ---------------------------------------------------


def timed_setup(build: Callable[[], Any]) -> tuple[Any, list[float]]:
    """Run ``build`` for one side of the timed window; keep the last result.

    Returns ``(state, every run's seconds)``; see :data:`SETUP_SIDE_S`.
    """
    times: list[float] = []
    state = None
    deadline = time.perf_counter() + SETUP_SIDE_S
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, times


def load_kernels() -> str:
    """Resolve the kernel backend afresh (load + smoke test); returns its name.

    The first call in a checkout also compiles the C kernel; ``run.py``
    makes that call before any timed set-up, so ``setup_s`` measures the
    load and not the one-time ``cc`` compile.
    """
    from repro import kernels

    kernels.reset_kernel_state()
    return kernels.get_backend().name


class PeakMemory:
    """Peak RSS of this process plus the largest child started since creation."""

    def __init__(self) -> None:
        self._children_before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    def mb(self) -> float:
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        grown = children if children > self._children_before else 0
        return (own + grown) / 1024.0


def provenance() -> dict[str, Any]:
    from repro import kernels

    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.get_backend().name,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def affinity_cores() -> int:
    return len(os.sched_getaffinity(0))


# -- output checks ----------------------------------------------------------------


def check_mapping(problem: Any, assignment: Sequence[int], execution_time: float) -> str | None:
    """The per-result checks every workload applies; None when all pass.

    * the assignment is a valid one-to-one mapping (a permutation for the
      square §5.2 instances);
    * ET is at least ``combined_lower_bound``;
    * the reported ET equals its ``evaluate_reference`` re-score exactly.
    """
    from repro.mapping.bounds import combined_lower_bound
    from repro.mapping.cost_model import evaluate_reference

    x = np.asarray(assignment, dtype=np.int64)
    if x.shape != (problem.n_tasks,):
        return f"assignment has shape {x.shape}, expected ({problem.n_tasks},)"
    if x.min() < 0 or x.max() >= problem.n_resources or np.unique(x).size != x.size:
        return "assignment is not a one-to-one mapping"
    bound = combined_lower_bound(problem)
    if execution_time < bound:
        return f"ET {execution_time!r} below the lower bound {bound!r}"
    reference = evaluate_reference(problem, x)
    if reference != execution_time:  # exact: every kernel backend is bit-identical
        return f"reported ET {execution_time!r} != reference re-score {reference!r}"
    return None


def et_ratio(problem: Any, execution_time: float) -> float:
    from repro.mapping.bounds import combined_lower_bound

    return execution_time / combined_lower_bound(problem)


def paper_problem(size: int, seed: int) -> Any:
    """One §5.2 paper instance (square: ``|V_t| = |V_r| = size``)."""
    from repro.graphs import generate_paper_pair
    from repro.mapping import MappingProblem

    pair = generate_paper_pair(size, seed)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


def derive_seed(seed: int, *labels: int) -> int:
    """A stable 63-bit seed for one input, from the run seed and labels."""
    ss = np.random.SeedSequence([int(seed), *[int(v) for v in labels]])
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> np.uint64(1))

