"""table3-fused: ``MatchMapper().map_many(problem, 30 seeds)`` at n=10.

The paper's Table 3 replication load; ``mode="auto"`` resolves to the
fused multi-chain engine here. Iterations are many and short and the
per-chain dedup is bypassed, so CE step glue and per-call overhead show
here first. Each call's 30 chains are checked against serial ``map``
runs of the same seeds, computed before the timed window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from common import check_mapping, derive_seed, et_ratio, load_kernels, paper_problem


@dataclass(frozen=True)
class Inputs:
    size: int
    #: Chains (seeds) per ``map_many`` call.
    chains: int
    instance_seeds: tuple[int, ...]
    #: One seed block (the chains of one call) per instance.
    seed_blocks: tuple[tuple[int, ...], ...]


@dataclass
class State:
    inputs: Inputs
    problems: list[Any]
    #: Per instance, per chain: (assignment, ET, evaluations) of serial map.
    oracle: list[list[tuple[list[int], float, int]]] | None = None


def _key(result: Any) -> tuple[list[int], float, int]:
    return [int(v) for v in result.assignment], float(result.execution_time), int(result.n_evaluations)


class Table3Fused:
    name = "table3-fused"

    def inputs(self, seed: int, tiny: bool) -> Inputs:
        size, n_instances, chains = (6, 2, 4) if tiny else (10, 12, 30)
        instance_seeds = tuple(derive_seed(seed, 1, i) for i in range(n_instances))
        blocks = tuple(
            tuple(derive_seed(seed, 2, i, r) for r in range(chains)) for i in range(n_instances)
        )
        return Inputs(size, chains, instance_seeds, blocks)

    def setup(self, inputs: Inputs) -> State:
        load_kernels()
        return State(inputs, [paper_problem(inputs.size, s) for s in inputs.instance_seeds])

    def prepare(self, state: State) -> None:
        from repro.core.match import MatchMapper

        state.oracle = [
            [_key(MatchMapper().map(problem, s)) for s in block]
            for problem, block in zip(state.problems, state.inputs.seed_blocks)
        ]

    def n_ops(self, state: State) -> int:
        return len(state.problems)

    def solves_per_op(self, state: State) -> int:
        return state.inputs.chains

    def run_op(self, state: State, index: int) -> Any:
        from repro.core.match import MatchMapper

        return MatchMapper().map_many(state.problems[index], state.inputs.seed_blocks[index])

    def check_op(self, state: State, index: int, result: Any) -> tuple[str | None, list[float]]:
        if state.oracle is None:
            raise RuntimeError("prepare() did not run")
        problem = state.problems[index]
        expected = state.oracle[index]
        if len(result) != len(expected):
            return f"{len(result)} results for {len(expected)} seeds", []
        ratios = []
        for r, (res, want) in enumerate(zip(result, expected)):
            if res.extras.get("multichain_mode") != "fused":
                return f"chain {r} ran {res.extras.get('multichain_mode')!r}, not fused", ratios
            failure = check_mapping(problem, [int(v) for v in res.assignment], res.execution_time)
            if failure is None and _key(res) != want:
                failure = "fused result differs from the serial map of the same seed"
            if failure is not None:
                return f"chain {r}: {failure}", ratios
            ratios.append(et_ratio(problem, res.execution_time))
        return None, ratios

    def trace_extra(self, state: State, untraced: list) -> dict[str, float]:
        return {}
