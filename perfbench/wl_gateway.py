"""gateway-zipf: open-loop Poisson arrivals into an in-process MappingService.

Jobs are Zipf-drawn (s=1.1) over a universe of 0.75 × the request count, so
about three requests in four hit the result cache. Job sizes are n=10, 16
and 24; half the jobs are n=24, so the tail percentile falls inside the
slow misses rather than on the edge between them and the rest, where it
would jump with each seed's draw. ``max_iterations=30`` binds before the
Eq. (12) stop on every n=24 solve, so every n=24 miss costs the same work:
with the stop deciding (30 to 80 iterations at n=24), the tail depended on
which jobs a seed happened to miss. The gateway has one worker per
affinity core. One trace carries both paths: the median request is a
cache hit (``problem_key`` -> ``ResultCache``), the tail is a miss
(queue -> coalesce -> shared plane -> ``map_salvage`` -> worker solve).

The gateway is measured warm, as a long-running service is: before the
timed window its worker pool has forked and its cache holds the
``PREFILL`` most popular jobs. A cold cache instead turns the first second
into a burst of misses queued behind each other, and that burst alone
would set the tail.

The arrival schedule is a Poisson process conditioned on its request
count: sorted uniform offsets over ``n_requests / RATE`` seconds, built
from the seed and replayed by one coroutine on one event loop. Latency is
timed from each request's due time, so a stalled generator or loop shows
up in the latency, and the generator's own lateness is reported apart.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from common import (
    BUILD_DIR,
    LATENCY_LIMIT_MS,
    SETUP_MIN_REPEATS,
    SETUP_SIDE_S,
    Outcome,
    PeakMemory,
    affinity_cores,
    check_mapping,
    derive_seed,
    et_ratio,
    load_kernels,
    median,
    paper_problem,
    percentile,
    tail,
)
from layers import covers, install, ledger, service_figures
from spans import Tracer, coverage

#: Job sizes by popularity rank, repeating (rank r gets SIZES[r % 4]).
SIZES = (24, 10, 24, 16)
MAX_ITERATIONS = 30
ZIPF_S = 1.1
#: Offered load, requests per second: about half the rate at which the
#: tail starts to climb with two workers on a 2-core host.
RATE = 10.0
#: Job universe as a share of the request count (~3/4 cache hits).
UNIVERSE_SHARE = 0.75
#: The most popular jobs, solved through the gateway before the window.
PREFILL = 20
#: The generator sleeps until this long before a due time, then spins.
SPIN_S = 0.002


@dataclass(frozen=True)
class Inputs:
    #: Per job: (size, instance seed, solver seed).
    jobs: tuple[tuple[int, int, int], ...]
    #: Per request: (offset from the schedule start in seconds, job index).
    schedule: tuple[tuple[float, int], ...]
    #: Per warm-up request (one per worker): (size, instance seed, solver seed).
    warmup: tuple[tuple[int, int, int], ...]
    #: Jobs already cached when the timed window opens.
    prefill: tuple[int, ...]


def make_inputs(seed: int, seconds: float, tiny: bool = False) -> Inputs:
    """The job universe, the arrival schedule and the warm-up jobs of one seed."""
    sizes = (6, 8) if tiny else SIZES
    n_requests = max(4, int(round(RATE * seconds)))
    n_jobs = max(2, int(round(UNIVERSE_SHARE * n_requests)))
    # Job j has popularity rank j + 1. Sizes cycle with the rank, so the
    # jobs a run misses mix the sizes in the same proportions whatever
    # the seed draws.
    jobs = tuple(
        (sizes[j % len(sizes)], derive_seed(seed, 1, j), derive_seed(seed, 2, j) % (2**31))
        for j in range(n_jobs)
    )
    rng = np.random.default_rng(derive_seed(seed, 3))
    weights = np.arange(1, n_jobs + 1, dtype=np.float64) ** -ZIPF_S
    picks = rng.choice(n_jobs, size=n_requests, p=weights / weights.sum())
    offsets = np.sort(rng.uniform(0.0, n_requests / RATE, size=n_requests))
    schedule = tuple((float(t), int(j)) for t, j in zip(offsets, picks))
    warmup = tuple(
        (min(sizes), derive_seed(seed, 4, w), derive_seed(seed, 5, w) % (2**31))
        for w in range(affinity_cores())
    )
    prefill = tuple(range(min(n_jobs, 1 if tiny else PREFILL)))
    return Inputs(jobs, schedule, warmup, prefill)


def _spec() -> Any:
    from repro.runtime.registry import SolverSpec

    return SolverSpec.of("match", {"max_iterations": MAX_ITERATIONS})


def _payload_key(payload: dict[str, Any]) -> tuple:
    """The parts of a result that must be bit-identical (``mapping_time`` is
    a wall-clock measurement and is left out)."""
    return (
        payload["mapper_name"],
        list(payload["assignment"]),
        payload["execution_time"],
        payload["n_evaluations"],
    )


def direct_solve(problem: Any, seed: int) -> tuple:
    result = _spec().build().map(problem, seed)
    return (
        result.mapper_name,
        [int(v) for v in result.assignment],
        float(result.execution_time),
        int(result.n_evaluations),
    )


async def _start_service(inputs: Inputs) -> tuple[Any, list[Any]]:
    """Timed set-up: kernel load, instances, service start and warm-up.

    The warm-up sends one distinct small job per worker at once, so the
    pool's lazy first-dispatch fork and the default executor thread are
    paid here and not in the timed window.
    """
    from repro.service import MappingRequest, MappingService, ServiceConfig

    load_kernels()
    problems = [paper_problem(size, s) for size, s, _ in inputs.jobs]
    service = MappingService(ServiceConfig(n_workers=affinity_cores(), coalesce_window=0.01))
    await service.start()
    spec = _spec()
    warm = await asyncio.gather(
        *[
            service.submit(MappingRequest(paper_problem(size, s), spec, seed, client="warmup"))
            for size, s, seed in inputs.warmup
        ]
    )
    if not all(r.ok for r in warm):
        raise RuntimeError("gateway warm-up request failed")
    return service, problems


async def _timed_starts(inputs: Inputs, keep: bool) -> tuple[Any, list[Any], list[float]]:
    """Start and warm gateways for one side of the timed window.

    As ``common.timed_setup``: at least ``SETUP_MIN_REPEATS`` starts and
    ``SETUP_SIDE_S`` seconds. Every gateway but the last is closed (its
    workers joined) before the next starts; the last is returned open when
    ``keep`` is set and closed otherwise. Returns ``(service, problems,
    every start's seconds)``.
    """
    times: list[float] = []
    service = problems = None
    deadline = time.perf_counter() + SETUP_SIDE_S
    while len(times) < SETUP_MIN_REPEATS or time.perf_counter() < deadline:
        if service is not None:
            await service.close()
        t0 = time.perf_counter()
        service, problems = await _start_service(inputs)
        times.append(time.perf_counter() - t0)
    if not keep:
        await service.close()
    return service, problems, times


async def _prefill(service: Any, problems: list[Any], inputs: Inputs) -> float:
    """Solve the most popular jobs through the gateway; returns seconds."""
    from repro.service import MappingRequest

    spec = _spec()
    t0 = time.perf_counter()
    responses = await asyncio.gather(
        *[
            service.submit(MappingRequest(problems[j], spec, inputs.jobs[j][2], client="prefill"))
            for j in inputs.prefill
        ]
    )
    if not all(r.ok for r in responses):
        raise RuntimeError("gateway cache prefill failed")
    return time.perf_counter() - t0


async def _drive(
    service: Any,
    problems: list[Any],
    inputs: Inputs,
    schedule: tuple[tuple[float, int], ...],
    tracer: Tracer | None,
) -> tuple[list[dict[str, Any]], float, int]:
    """Replay ``schedule``; returns per-request records, window seconds, backlog."""
    from repro.service import MappingRequest

    spec = _spec()
    loop = asyncio.get_running_loop()
    records: list[dict[str, Any]] = [{} for _ in schedule]

    async def one(i: int, due: float, job: int) -> None:
        request = MappingRequest(problems[job], spec, inputs.jobs[job][2], client="bench")
        send = time.perf_counter()
        if tracer is None:
            response = await service.submit(request)
            root = None
        else:
            with tracer.span("request", parent=None, start=due) as root:
                late = tracer.open("gen.late", parent=root, start=due)
                tracer.close(late, end=send)
                response = await service.submit(request)
        records[i] = {
            "job": job,
            "due": due,
            "late_ms": 1000.0 * (send - due),
            "latency_ms": 1000.0 * (time.perf_counter() - due),
            "response": response,
            "root": root,
            "seed": inputs.jobs[job][2],
            "cached": response.cached,
            "coalesced": response.coalesced,
        }

    tasks = []
    start = time.perf_counter() + 0.002
    for i, (offset, job) in enumerate(schedule):
        due = start + offset
        delay = due - time.perf_counter() - SPIN_S
        if delay > 0:
            await asyncio.sleep(delay)
        # The event loop wakes timers at millisecond granularity; spinning
        # the last stretch keeps that jitter out of the measured latency.
        while time.perf_counter() < due:
            pass
        tasks.append(loop.create_task(one(i, due, job)))
    await asyncio.sleep(0)
    backlog = sum(1 for t in tasks if not t.done())
    await asyncio.gather(*tasks)
    end = max(r["due"] + r["latency_ms"] / 1000.0 for r in records)
    return records, end - start, backlog


def _check(
    records: list[dict[str, Any]], problems: list[Any], oracle: dict[int, tuple], outcome: Outcome
) -> list[bool]:
    """Every response: ok, bit-identical to the direct solve, valid, free if cached."""
    passed = []
    for rec in records:
        outcome.attempted += 1
        response = rec["response"]
        job = rec["job"]
        failure = None
        if not response.ok:
            failure = f"status {response.status}: {response.error}"
        elif _payload_key(response.result) != oracle[job]:
            failure = "response differs from the direct solve"
        else:
            failure = check_mapping(
                problems[job], response.result["assignment"], response.result["execution_time"]
            )
            if failure is None and response.cached and response.charged != 0:
                failure = f"cache hit charged {response.charged} evaluations"
        if failure is not None:
            outcome.fail(f"request for job {job}: {failure}")
        passed.append(failure is None)
    return passed


def _oracle(problems: list[Any], inputs: Inputs) -> dict[int, tuple]:
    """Direct solves of every job the schedule asks for (untimed)."""
    jobs = sorted({job for _, job in inputs.schedule})
    return {job: direct_solve(problems[job], inputs.jobs[job][2]) for job in jobs}


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> Outcome:
    try:
        return asyncio.run(_run(seed, seconds, trace, tiny))
    finally:
        _stop_resource_tracker()


def _stop_resource_tracker() -> None:
    """Stop and reap the shared-memory resource tracker the worker pool
    started, so no process outlives the run (it is restarted on demand)."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


async def _run(seed: int, seconds: float, trace: bool, tiny: bool) -> Outcome:
    memory = PeakMemory()
    inputs = make_inputs(seed, seconds / 2.0 if trace else seconds, tiny)
    outcome = Outcome()
    service, problems, setup_times = await _timed_starts(inputs, keep=True)
    outcome.notes["workers"] = affinity_cores()
    outcome.notes["requests"] = len(inputs.schedule)
    outcome.notes["jobs"] = len(inputs.jobs)
    oracle = _oracle(problems, inputs)

    try:
        outcome.notes["cache_prefill_s"] = await _prefill(service, problems, inputs)
        if not trace:
            records, window, backlog = await _drive(service, problems, inputs, inputs.schedule, None)
        else:
            untraced, _, backlog = await _drive(service, problems, inputs, inputs.schedule, None)
    finally:
        await service.close()

    if not trace:
        setup_times += (await _timed_starts(inputs, keep=False))[2]
        passed = _check(records, problems, oracle, outcome)
        latencies = [r["latency_ms"] for r in records]
        misses = [r["latency_ms"] for r in records if not r["cached"]]
        tail_ms, tail_q, n = tail(latencies)
        # Quality is a property of each job's mapping: averaged per job, so a
        # popular job does not outweigh the rest.
        ok_ratios = [
            et_ratio(problems[job], oracle[job][2])
            for job in sorted({r["job"] for r, ok in zip(records, passed) if ok})
        ]
        limit = LATENCY_LIMIT_MS["gateway-zipf"]
        good = sum(1 for ok, ms in zip(passed, latencies) if ok and ms <= limit)
        outcome.metrics = {
            "setup_s": median(setup_times),
            "solves_per_s": sum(passed) / window,
            "goodput_rps": good / window,
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail_ms,
            "et_over_bound": sum(ok_ratios) / len(ok_ratios) if ok_ratios else 0.0,
            "peak_rss_mb": memory.mb(),
        }
        outcome.notes.update(
            latency_tail_percentile=tail_q,
            latency_samples=n,
            setup_runs_s=setup_times,
            hit_frac=sum(1 for r in records if r["cached"]) / len(records),
            miss_latency_p95_ms=percentile(misses, 95.0),
            gen_late_p50_ms=median([r["late_ms"] for r in records]),
            gen_late_p99_ms=percentile([r["late_ms"] for r in records], 99.0),
            gen_backlog_end=backlog,
            window_s=window,
        )
        return outcome

    # Traced pass: a fresh gateway, warmed the same way, replays the schedule.
    service, problems = await _start_service(inputs)
    await _prefill(service, problems, inputs)
    tracer = Tracer()
    install(tracer)
    try:
        traced, _, _ = await _drive(service, problems, inputs, inputs.schedule, tracer)
    finally:
        tracer.restore()
        await service.close()
    _check(untraced + traced, problems, oracle, outcome)
    base = sum(r["latency_ms"] for r in untraced)
    extra, links = service_figures(tracer, traced)
    extra.update(
        {
            "gen.late_p99_ms": percentile([r["late_ms"] for r in untraced], 99.0),
            "gen.backlog_end": float(backlog),
            "trace.overhead_frac": sum(r["latency_ms"] for r in traced) / base - 1.0,
            "trace.coverage_frac": coverage(
                tracer.spans, [r["root"] for r in traced], covers, links
            ),
        }
    )
    outcome.metrics = ledger(tracer, len(traced), extra=extra)
    outcome.notes.update(traced_requests=len(traced))
    tracer.dump(BUILD_DIR / f"trace-gateway-zipf-{seed}.jsonl")
    return outcome
