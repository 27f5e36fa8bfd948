"""solve-n30: sequential ``MatchMapper().map`` calls on n=30 paper instances.

Paper configuration (N = 2n², Eq. (12) stop); one caller, closed loop.
This is where the compiled kernels and the dedup collapse do most of the
work; fabric, gateway and islands are bypassed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from common import check_mapping, derive_seed, et_ratio, load_kernels, paper_problem


@dataclass(frozen=True)
class Inputs:
    size: int
    instance_seeds: tuple[int, ...]
    #: (instance index, solver seed) per operation, in loop order.
    ops: tuple[tuple[int, int], ...]


@dataclass
class State:
    inputs: Inputs
    problems: list[Any]
    first: dict[int, tuple[list[int], float]] = field(default_factory=dict)


class SolveN30:
    name = "solve-n30"

    def inputs(self, seed: int, tiny: bool) -> Inputs:
        # One solve per instance: a run averages over many instances, not
        # over repeats of a few.
        size, n_instances = (8, 2) if tiny else (30, 24)
        instance_seeds = tuple(derive_seed(seed, 1, i) for i in range(n_instances))
        ops = tuple((i, derive_seed(seed, 2, i)) for i in range(n_instances))
        return Inputs(size, instance_seeds, ops)

    def setup(self, inputs: Inputs) -> State:
        load_kernels()
        problems = [paper_problem(inputs.size, s) for s in inputs.instance_seeds]
        return State(inputs, problems)

    def prepare(self, state: State) -> None:
        pass

    def n_ops(self, state: State) -> int:
        return len(state.inputs.ops)

    def solves_per_op(self, state: State) -> int:
        return 1

    def run_op(self, state: State, index: int) -> Any:
        from repro.core.match import MatchMapper

        instance, seed = state.inputs.ops[index]
        return MatchMapper().map(state.problems[instance], seed)

    def check_op(self, state: State, index: int, result: Any) -> tuple[str | None, list[float]]:
        problem = state.problems[state.inputs.ops[index][0]]
        assignment = [int(v) for v in result.assignment]
        failure = check_mapping(problem, assignment, result.execution_time)
        if failure is None:
            seen = state.first.setdefault(index, (assignment, result.execution_time))
            if seen != (assignment, result.execution_time):
                failure = "repeated solve differs from its first run"
        return failure, [et_ratio(problem, result.execution_time)]

    def trace_extra(self, state: State, untraced: list) -> dict[str, float]:
        return {}
