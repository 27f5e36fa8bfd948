"""islands-loopback: ``run_loopback`` solves at n=24, 4 agents, sync every 5.

Two islands on 127.0.0.1 (never more islands than cores) run the real
socket protocol. ``DistributedMatchMapper`` on the same seeds is both the
single-threaded baseline and the parity oracle: every loopback result
must match it bit for bit. Frame encode/decode, socket round trips and
lockstep sync run in no other workload.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any

from common import (
    affinity_cores,
    check_mapping,
    derive_seed,
    et_ratio,
    load_kernels,
    median,
    paper_problem,
)

N_AGENTS = 4
SYNC_EVERY = 5


@dataclass(frozen=True)
class Inputs:
    size: int
    instance_seeds: tuple[int, ...]
    ops: tuple[tuple[int, int], ...]
    n_islands: int


@dataclass
class State:
    inputs: Inputs
    problems: list[Any]
    config: Any
    #: Per op: the sequential result and its wall seconds.
    oracle: list[tuple[Any, float]] | None = None


class IslandsLoopback:
    name = "islands-loopback"

    def inputs(self, seed: int, tiny: bool) -> Inputs:
        size, n_instances = (8, 2) if tiny else (24, 16)
        instance_seeds = tuple(derive_seed(seed, 1, i) for i in range(n_instances))
        ops = tuple((i, derive_seed(seed, 2, i) % (2**31)) for i in range(n_instances))
        return Inputs(size, instance_seeds, ops, min(2, affinity_cores()))

    def setup(self, inputs: Inputs) -> State:
        from repro.core.distributed import DistributedMatchConfig

        load_kernels()
        problems = [paper_problem(inputs.size, s) for s in inputs.instance_seeds]
        return State(inputs, problems, DistributedMatchConfig(n_agents=N_AGENTS, sync_every=SYNC_EVERY))

    def prepare(self, state: State) -> None:
        from repro.core.distributed import DistributedMatchMapper

        oracle = []
        for instance, seed in state.inputs.ops:
            t0 = time.perf_counter()
            result = DistributedMatchMapper(state.config).map(state.problems[instance], seed)
            oracle.append((result, time.perf_counter() - t0))
        state.oracle = oracle

    def n_ops(self, state: State) -> int:
        return len(state.inputs.ops)

    def solves_per_op(self, state: State) -> int:
        return 1

    def run_op(self, state: State, index: int) -> Any:
        from repro.islands import run_loopback

        instance, seed = state.inputs.ops[index]
        return run_loopback(
            state.problems[instance], state.config, seed=seed, n_islands=state.inputs.n_islands
        )

    def check_op(self, state: State, index: int, result: Any) -> tuple[str | None, list[float]]:
        problem = state.problems[state.inputs.ops[index][0]]
        if state.oracle is None:
            raise RuntimeError("prepare() did not run")
        reference = state.oracle[index][0]
        failure = check_mapping(problem, result["assignment"], result["best_cost"])
        if failure is None:
            got = (
                result["assignment"],
                result["best_cost"],
                result["n_evaluations"],
                result["extras"]["rounds"],
                result["extras"]["n_syncs"],
            )
            want = (
                [int(v) for v in reference.assignment],
                reference.execution_time,
                reference.n_evaluations,
                reference.extras["rounds"],
                reference.extras["n_syncs"],
            )
            if got != want:
                failure = "loopback result differs from DistributedMatchMapper"
        return failure, [et_ratio(problem, result["best_cost"])]

    def trace_extra(self, state: State, untraced: list) -> dict[str, float]:
        """Loopback minus sequential wall time per agent-round, untraced.

        Per operation of the untraced pass, against the same operation's
        sequential solve; the median of those differences is reported.
        """
        if state.oracle is None:
            raise RuntimeError("prepare() did not run")
        per_round = []
        for rec in untraced:
            reference, seq_s = state.oracle[rec.index]
            agent_rounds = reference.extras["rounds"] * N_AGENTS
            per_round.append(1000.0 * (rec.seconds - seq_s) / agent_rounds)
        rounds = [r.result["extras"]["rounds"] for r in untraced]
        return {
            "islands.overhead_ms_per_agent_round": median(per_round),
            "islands.rounds": sum(rounds) / len(rounds) if rounds else 0.0,
        }
