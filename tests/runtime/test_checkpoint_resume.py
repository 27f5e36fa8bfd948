"""Checkpoint/resume: a killed run finishes exactly like an uninterrupted one.

The kill is delivered as a ``KeyboardInterrupt`` raised from an
``on_iteration`` hook — between steps, exactly where a real SIGINT is
checkpointable — so the loop's emergency save captures a consistent
solver state. ``resume_run`` then rebuilds everything from the JSON file
alone (registry identity, problem graphs, budget, RNG stream position)
and must land on the same final cost, assignment and evaluation count.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.exceptions import CheckpointError
from repro.experiments.runner import run_instance
from repro.experiments.suite import build_suite
from repro.runtime import (
    CHECKPOINT_FORMAT,
    CheckpointWriter,
    SearchHooks,
    create_mapper,
    load_checkpoint,
    resume_run,
)
from repro.runtime.checkpoint import problem_from_payload, problem_to_payload
from tests.runtime.conftest import SMALL_PARAMS


class KillAfter(SearchHooks):
    """Raise KeyboardInterrupt once N steps have completed."""

    def __init__(self, n: int) -> None:
        self.n = n

    def on_iteration(self, solver, report) -> None:
        if report.iteration + 1 >= self.n:
            raise KeyboardInterrupt


#: (registry name, steps to run before the kill). Every checkpointable
#: solver is covered; the counts sit strictly inside each run so the
#: resumed segment still has real work to do.
KILL_POINTS = [
    ("match", 5),
    ("fastmap-ga", 3),
    ("fastmap-hier", 1),  # after the GA phase, before refinement ends
    ("sim-anneal", 1),  # after the first 1000-step annealing chunk
    ("tabu", 7),
    ("local-search", 2),
    ("random", 1),  # after the first batch
    ("greedy", 4),  # four of ten placements done
]


@pytest.mark.parametrize("name,kill_after", KILL_POINTS)
def test_killed_run_resumes_to_identical_result(
    name, kill_after, golden_problem, tmp_path
):
    params = SMALL_PARAMS[name]
    seed = 3
    baseline = create_mapper(name, params).map(golden_problem, seed)

    path = tmp_path / f"{name}.ckpt"
    mapper = create_mapper(name, params)
    writer = CheckpointWriter(
        path,
        solver_name=name,
        params=params,
        problem=golden_problem,
        seed=seed,
        every=1,
    )
    with pytest.raises(KeyboardInterrupt):
        mapper.map(
            golden_problem,
            seed,
            hooks=KillAfter(kill_after),
            checkpointer=writer,
        )
    payload = load_checkpoint(path)
    assert payload["iteration"] == kill_after
    assert payload["checkpoint_every"] == 1

    resumed_mapper, resumed = resume_run(path)
    assert type(resumed_mapper) is type(mapper)
    assert resumed.execution_time == baseline.execution_time
    assert np.array_equal(resumed.assignment, baseline.assignment)
    assert resumed.n_evaluations == baseline.n_evaluations
    # The resumed MT spans the whole logical run, so it can't be smaller
    # than the heuristic seconds already banked in the checkpoint.
    assert resumed.mapping_time >= payload["elapsed"]


FIXTURES = Path(__file__).parent.parent / "fixtures"


def test_checkpoint_written_by_older_code_resumes_to_golden_result(tmp_path):
    """A committed MaTCH checkpoint written by an older engine (see
    ``tests/fixtures/record_match_checkpoint.py``) still resumes to the
    uninterrupted golden run: MaTCH, golden params, seed 3."""
    path = tmp_path / "match.ckpt"
    # resume_run keeps checkpointing to its input: work on a copy.
    shutil.copy(FIXTURES / "match_checkpoint_v1.json", path)
    payload = load_checkpoint(path)
    assert payload["iteration"] == 28
    golden = json.loads((FIXTURES / "golden_solvers.json").read_text())
    entry = golden["mappers"]["MaTCH"]
    assert payload["solver"]["name"] == entry["solver"]
    assert payload["solver"]["params"]["max_iterations"] == entry["params"]["max_iterations"]
    expected = next(run for run in entry["runs"] if run["seed"] == payload["seed"])

    _, resumed = resume_run(path)
    assert resumed.execution_time == expected["execution_time"]
    assert resumed.assignment.tolist() == expected["assignment"]
    assert resumed.n_evaluations == expected["n_evaluations"]


def test_resumed_run_keeps_checkpointing(golden_problem, tmp_path):
    path = tmp_path / "sa.ckpt"
    mapper = create_mapper("sim-anneal", SMALL_PARAMS["sim-anneal"])
    writer = CheckpointWriter(
        path,
        solver_name="sim-anneal",
        params=SMALL_PARAMS["sim-anneal"],
        problem=golden_problem,
        seed=0,
        every=1,
    )
    with pytest.raises(KeyboardInterrupt):
        mapper.map(golden_problem, 0, hooks=KillAfter(1), checkpointer=writer)
    before = load_checkpoint(path)["iteration"]
    resume_run(path)
    # keep_checkpointing=True (default) kept overwriting the same file.
    assert load_checkpoint(path)["iteration"] > before


def test_run_instance_checkpoint_kwargs(golden_problem, tmp_path):
    instance = build_suite((10,), 1, seed=2005)[10][0]
    mapper = create_mapper("tabu", SMALL_PARAMS["tabu"])
    path = tmp_path / "tabu.ckpt"
    et, mt, evals = run_instance(
        mapper, instance, 1, checkpoint_path=str(path), checkpoint_every=5
    )
    assert evals > 0
    payload = load_checkpoint(path)
    assert payload["solver"] == {"name": "tabu", "params": mapper.checkpoint_params()}
    assert payload["checkpoint_every"] == 5


def test_run_instance_rejects_checkpoint_for_unregistered_mapper(tmp_path):
    from repro.baselines.base import Mapper
    from repro.exceptions import ConfigurationError

    instance = build_suite((6,), 1, seed=1)[6][0]

    class Anonymous(Mapper):
        name = "anon"

    with pytest.raises(ConfigurationError, match="registry identity"):
        run_instance(
            Anonymous(), instance, 0, checkpoint_path=str(tmp_path / "x.ckpt")
        )


class TestCheckpointFormat:
    def test_problem_payload_round_trip(self, golden_problem):
        clone = problem_from_payload(problem_to_payload(golden_problem))
        assert np.array_equal(clone.task_weights, golden_problem.task_weights)
        assert np.array_equal(clone.comm_costs, golden_problem.comm_costs)
        assert np.array_equal(clone.edges, golden_problem.edges)

    def test_load_rejects_wrong_format(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(CheckpointError, match="not a"):
            load_checkpoint(bad)

    def test_load_rejects_missing_fields(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "solver": {}}))
        with pytest.raises(CheckpointError, match="problem"):
            load_checkpoint(bad)

    def test_writer_rejects_bad_cadence(self, golden_problem, tmp_path):
        with pytest.raises(CheckpointError, match=">= 1"):
            CheckpointWriter(
                tmp_path / "c.json",
                solver_name="greedy",
                params={},
                problem=golden_problem,
                every=0,
            )

    def test_non_checkpointable_solver_fails_loudly(self, golden_problem, tmp_path):
        """Legacy one-shot mappers refuse to checkpoint instead of lying."""
        import numpy as _np

        from repro.baselines.base import Mapper

        class Legacy(Mapper):
            name = "legacy"

            def _solve(self, problem, model, seed):
                return _np.arange(problem.n_tasks, dtype=_np.int64), 1, {}

        writer = CheckpointWriter(
            tmp_path / "legacy.json",
            solver_name="legacy",
            params={},
            problem=golden_problem,
            every=1,
        )
        with pytest.raises(CheckpointError, match="checkpoint"):
            Legacy().map(golden_problem, 0, checkpointer=writer)
