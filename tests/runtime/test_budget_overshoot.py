"""Regression: no solver may evaluate past ``max_evaluations``.

The historical bug: the search loop checks exhaustion *between* steps, so
a solver whose step scores a full batch (CE's 2n² samples, the GA's
population, SA's sweep of probes) overshot the evaluation cap by up to a
batch — and effort-matched comparisons ("every heuristic gets B
evaluations") silently gave batch solvers extra budget. Every solver now
clamps its final batch to ``evaluations_remaining()``; these tests pin
that for the whole registry, at caps chosen to land mid-batch.
"""

from __future__ import annotations

import re

import pytest

from repro.core import AdaptiveMatchMapper, DistributedMatchMapper, RefinedMatchMapper
from repro.exceptions import ConfigurationError
from repro.graphs import generate_paper_pair
from repro.mapping import MappingProblem
from repro.runtime import EvaluationBudget, create_mapper, solver_names


@pytest.fixture(scope="module")
def problem() -> MappingProblem:
    pair = generate_paper_pair(8, 4242)
    return MappingProblem(pair.tig, pair.resources, require_square=True)


# Caps deliberately misaligned with every solver's natural batch size
# (2n² = 128 CE samples, GA population 500, SA sweeps, tabu neighbourhoods)
# so the final batch must be cut, not merely skipped.
CAPS = (37, 100)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name", sorted(solver_names()))
def test_used_never_exceeds_cap(name: str, cap: int, problem: MappingProblem):
    budget = EvaluationBudget(max_evaluations=cap)
    mapper = create_mapper(name, {})
    result = mapper.map(problem, 7, budget=budget)
    assert budget.used <= cap, (
        f"{name} overshot: used {budget.used} of max_evaluations={cap}"
    )
    # the run still produces a valid, costed assignment
    assert result.assignment.shape == (problem.n_tasks,)
    assert result.execution_time >= 0.0


#: Mappers that run their whole search as one opaque step (``_solve``):
#: they cannot stop mid-search, so they must refuse a limit, not overshoot it.
ONE_STEP_MAPPERS = (AdaptiveMatchMapper, DistributedMatchMapper, RefinedMatchMapper)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("mapper_cls", ONE_STEP_MAPPERS, ids=lambda c: c.name)
def test_one_step_mappers_refuse_a_capped_budget(mapper_cls, cap, problem):
    budget = EvaluationBudget(max_evaluations=cap)
    with pytest.raises(ConfigurationError, match=re.escape(mapper_cls.name)):
        mapper_cls().map(problem, 7, budget=budget)
    assert budget.used == 0


@pytest.mark.parametrize("mapper_cls", ONE_STEP_MAPPERS, ids=lambda c: c.name)
def test_one_step_mappers_refuse_a_time_limit(mapper_cls, problem):
    with pytest.raises(ConfigurationError, match=re.escape(mapper_cls.name)):
        mapper_cls().map(problem, 7, budget=EvaluationBudget(max_seconds=60.0))


@pytest.mark.parametrize("name", sorted(solver_names()))
def test_reported_evaluations_consistent_with_budget(name: str, problem):
    """The result's own ledger must not exceed what the budget recorded."""
    cap = 64
    budget = EvaluationBudget(max_evaluations=cap)
    mapper = create_mapper(name, {})
    result = mapper.map(problem, 11, budget=budget)
    assert budget.used <= cap
    assert result.n_evaluations <= budget.used
