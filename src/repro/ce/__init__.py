"""Cross-entropy method library (§3): the one CE instance MaTCH runs.

Contents:

* :class:`StochasticMatrix` and the Eq. (11)/(13) update machinery;
* :func:`sample_permutations` — the batched GenPerm sampler (Fig. 4), the
  only sampler: every candidate is a valid one-to-one mapping;
* elite quantile selection;
* :func:`ce_iteration` — the one CE iteration (Fig. 5 steps 2-7: sample,
  score, select elites, update, test the Eq. (12)/Fig. 2 stopping rules)
  over R chains stacked as one tensor, and the two engines that run it:
  :class:`MultiChainCE` (R independent chains, seed-for-seed equal to R
  separate runs) and :class:`CrossEntropyOptimizer` (one chain);
* :class:`StopKind` — how a run ended.
"""

from repro.ce.diagnostics import (
    commit_iterations,
    elite_diversity,
    iterations_to_degeneracy,
    mass_trajectory,
)
from repro.ce.genperm import (
    genperm_exact_probabilities,
    sample_permutations,
    sample_permutations_stacked,
)
from repro.ce.multichain import MultiChainCE, MultiChainResult, ce_iteration
from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.ce.quantile import elite_mask, elite_threshold, select_elites
from repro.ce.smoothing import dynamic_smoothing_factor, smooth
from repro.ce.stochastic_matrix import (
    StochasticMatrix,
    elite_counts_update,
    stacked_elite_update,
)
from repro.ce.stopping import StopKind

__all__ = [
    "StochasticMatrix",
    "elite_counts_update",
    "stacked_elite_update",
    "sample_permutations",
    "sample_permutations_stacked",
    "commit_iterations",
    "elite_diversity",
    "iterations_to_degeneracy",
    "mass_trajectory",
    "genperm_exact_probabilities",
    "elite_threshold",
    "elite_mask",
    "select_elites",
    "smooth",
    "dynamic_smoothing_factor",
    "StopKind",
    "CEConfig",
    "CEResult",
    "CrossEntropyOptimizer",
    "MultiChainCE",
    "MultiChainResult",
    "ce_iteration",
]
