"""Distributed (agent-based) MaTCH — the paper's stated future work.

§6: *"Our future work includes extending MaTCH into a fully distributed
implementation using agent based scheduling"*, motivated by the CE-guided
mobile agents of Helvik & Wittner [13]. This module implements that
design as a deterministic simulation of the agent system:

* ``n_agents`` independent CE agents each hold a private stochastic
  matrix and a slice of the per-iteration sample budget;
* every ``sync_every`` iterations the agents *gossip*: each agent blends
  its matrix towards the matrix of the currently best-performing agent
  (convex combination with weight ``gossip_weight``), the standard island/
  elite-attraction scheme;
* the budget equals a monolithic run's (``N`` total samples per round),
  so comparisons against plain MaTCH are compute-fair.

The simulation is sequential (single process): the point reproduced is the
*algorithmic* behaviour of the distributed scheme — sample-budget split,
delayed information sharing, heterogeneous exploration — not wall-clock
parallel speedup. It has no loop of its own: it runs the island runtime's
round loop (:func:`repro.islands.chains.run_rounds`) over the in-process
agent set (:class:`repro.islands.chains.LocalAgents`) that the coordinator
also falls back to when every island is lost. :mod:`repro.islands` runs
the same loop and the same agent round over sockets, and is pinned
bit-identical to this simulation by the loopback parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.baselines.base import Mapper
from repro.core.config import paper_sample_size
from repro.exceptions import ConfigurationError
from repro.islands.chains import ChainState, LocalAgents, agent_streams, run_rounds
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.types import SeedLike
from repro.utils.validation import check_in_range

__all__ = ["DistributedMatchConfig", "DistributedMatchMapper"]


@dataclass(frozen=True)
class DistributedMatchConfig:
    """Agent-system parameters."""

    n_agents: int = 4
    sync_every: int = 5
    gossip_weight: float = 0.5
    rho: float = 0.05
    zeta: float = 0.3
    total_samples: int | None = None  # per round across agents; None -> 2 n^2
    max_rounds: int = 500
    gamma_window: int = 12

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ConfigurationError(f"n_agents must be >= 1, got {self.n_agents}")
        if self.sync_every < 1:
            raise ConfigurationError(f"sync_every must be >= 1, got {self.sync_every}")
        check_in_range("gossip_weight", self.gossip_weight, 0.0, 1.0)
        check_in_range("rho", self.rho, 0.0, 1.0, inclusive=(False, False))
        check_in_range("zeta", self.zeta, 0.0, 1.0, inclusive=(False, True))
        if self.max_rounds < 1:
            raise ConfigurationError(f"max_rounds must be >= 1, got {self.max_rounds}")
        if self.gamma_window < 1:
            raise ConfigurationError(f"gamma_window must be >= 1, got {self.gamma_window}")

    def samples_per_agent(self, n_resources: int) -> int:
        """Each agent's samples per round: the round's total split evenly."""
        total = (
            self.total_samples
            if self.total_samples is not None
            else paper_sample_size(n_resources)
        )
        return max(2, total // self.n_agents)


class DistributedMatchMapper(Mapper):
    """Island-model MaTCH with periodic elite-attraction gossip."""

    name = "MaTCH-distributed"

    def __init__(self, config: DistributedMatchConfig = DistributedMatchConfig()) -> None:
        self.config = config

    def _solve(
        self, problem: MappingProblem, model: CostModel, rng: SeedLike
    ) -> tuple[np.ndarray, int, dict[str, Any]]:
        if problem.n_tasks > problem.n_resources:
            raise ConfigurationError("distributed MaTCH needs n_resources >= n_tasks")
        cfg = self.config
        n_t, n_r = problem.n_tasks, problem.n_resources
        per_agent = cfg.samples_per_agent(n_r)
        agents = LocalAgents(
            [ChainState(g, n_t, n_r, s) for g, s in enumerate(agent_streams(rng, cfg.n_agents))],
            model, per_agent, cfg.rho, cfg.zeta, cfg.gossip_weight,
        )
        global_x, _, rounds, n_syncs = run_rounds(cfg, n_t, agents.round, agents.gossip)
        return global_x, rounds * cfg.n_agents * per_agent, {
            "rounds": rounds,
            "n_agents": cfg.n_agents,
            "samples_per_agent": per_agent,
            "n_syncs": n_syncs,
        }
