"""Smoke tests of the benchmark itself (not part of the library's suite).

Run from the repository root with::

    python3 -m pytest perfbench -q

They run every workload at a tiny size, pin input generation to the seed,
and show that each output check fires on an injected wrong answer.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare_environment()

import common  # noqa: E402
import wl_gateway  # noqa: E402
from closed import run_closed  # noqa: E402
from wl_islands import IslandsLoopback  # noqa: E402
from wl_solve import SolveN30  # noqa: E402
from wl_table3 import Table3Fused  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_emitted_metrics() -> None:
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == common.PER_LAYER
    for w in SPEC["workloads"]:
        assert f"goodput limit {common.LATENCY_LIMIT_MS[w['name']]:.0f} ms" in w["why"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload: str, trace: int) -> None:
    common.load_kernels()
    outcome = run.run_workload(workload, 3, 0.6, bool(trace), tiny=True)
    line = run.result_line(outcome, bool(trace))
    assert line["correct"], outcome.problems
    assert line["attempted"] >= 1 and line["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(v["value"] > 0 for v in line["metrics"].values())
    else:
        assert line["metrics"]["trace.coverage_frac"]["value"] > 0.5


@pytest.mark.parametrize("workload", [SolveN30, Table3Fused, IslandsLoopback])
def test_same_seed_same_operations(workload) -> None:
    assert workload().inputs(7, False) == workload().inputs(7, False)
    assert workload().inputs(7, False) != workload().inputs(8, False)


def test_same_seed_same_jobs_and_schedule() -> None:
    first = wl_gateway.make_inputs(7, 20.0)
    assert first == wl_gateway.make_inputs(7, 20.0)
    other = wl_gateway.make_inputs(8, 20.0)
    assert first.schedule != other.schedule and first.jobs != other.jobs
    offsets = [t for t, _ in first.schedule]
    assert offsets == sorted(offsets) and 0.0 <= offsets[0] and offsets[-1] <= 20.0
    assert len(first.schedule) == int(wl_gateway.RATE * 20.0)


def test_coverage_leaves_catch_all_self_time_uncovered() -> None:
    from layers import covers
    from spans import Span, coverage

    def span(sid, name, parent, start, end):
        s = Span(sid, name, parent, start)
        s.end = end
        return s

    root = span(1, "op", None, 0.0, 10.0)
    spans = [
        root,
        span(2, "runtime.loop", 1, 0.0, 10.0),
        span(3, "ce.step", 2, 2.0, 6.0),
        span(4, "kernels.genperm", 3, 3.0, 4.0),
    ]
    assert coverage(spans, [root], covers) == pytest.approx(0.4)
    assert coverage(spans, [root], covers, {1: [(5.0, 8.0)]}) == pytest.approx(0.6)


# -- the checks fire on injected wrong answers --------------------------------------


def test_check_mapping_rejects_wrong_answers() -> None:
    from repro.core.match import MatchMapper

    problem = common.paper_problem(6, 1)
    result = MatchMapper().map(problem, 1)
    x = [int(v) for v in result.assignment]
    et = result.execution_time
    assert common.check_mapping(problem, x, et) is None
    assert "one-to-one" in common.check_mapping(problem, [x[0]] * len(x), et)
    assert "lower bound" in common.check_mapping(problem, x, 0.0)
    assert "re-score" in common.check_mapping(problem, x, et * (1 + 1e-12))


class _WrongET(SolveN30):
    def run_op(self, state, index):
        result = super().run_op(state, index)
        return dataclasses.replace(result, execution_time=result.execution_time * 1.5)


class _WrongChain(Table3Fused):
    def run_op(self, state, index):
        results = super().run_op(state, index)
        results[-1] = dataclasses.replace(
            results[-1], assignment=results[-1].assignment[::-1].copy()
        )
        return results


class _WrongIsland(IslandsLoopback):
    def run_op(self, state, index):
        result = super().run_op(state, index)
        result["n_evaluations"] += 1
        return result


@pytest.mark.parametrize("workload", [_WrongET, _WrongChain, _WrongIsland])
def test_closed_loop_checks_fire(workload) -> None:
    common.load_kernels()
    outcome = run_closed(workload(), 3, 0.3, False, True)
    assert outcome.attempted >= 1
    assert outcome.failed == outcome.attempted
    assert run.result_line(outcome, False)["correct"] is False


def test_gateway_check_fires_on_a_diverging_response() -> None:
    common.load_kernels()
    inputs = wl_gateway.make_inputs(3, 0.6, tiny=True)

    async def drive():
        service, problems = await wl_gateway._start_service(inputs)
        try:
            records, _, _ = await wl_gateway._drive(service, problems, inputs, inputs.schedule, None)
        finally:
            await service.close()
        return records, problems

    try:
        records, problems = asyncio.run(drive())
    finally:
        wl_gateway._stop_resource_tracker()
    oracle = wl_gateway._oracle(problems, inputs)
    good = common.Outcome()
    assert all(wl_gateway._check(records, problems, oracle, good)) and good.failed == 0
    job = records[0]["job"]
    wrong = dict(oracle)
    name, assignment, et, evals = wrong[job]
    wrong[job] = (name, assignment, et, evals + 1)
    bad = common.Outcome()
    wl_gateway._check(records, problems, wrong, bad)
    assert bad.failed == sum(1 for r in records if r["job"] == job) >= 1


def test_refuses_to_run_without_the_program(tmp_path: Path) -> None:
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n30", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
