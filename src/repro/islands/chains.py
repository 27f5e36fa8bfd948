"""The agent round and the round loop shared by the simulation and the islands.

Bit-reproducibility between :class:`repro.core.distributed.DistributedMatchMapper`
(the in-process simulation) and the socket-distributed island runtime
rests on one invariant: **both run the same code**. This module holds it,
once each:

* :func:`chain_round` — one agent's CE round: the library's one CE
  iteration (:func:`repro.ce.multichain.ce_iteration`) with R=1 on the
  agent's matrix and stream;
* :meth:`AgentRecord.fold` and :meth:`ChainState.blend` — folding a
  round's report into an agent's record, and applying a gossip blend at
  most once per sync round;
* :class:`LocalAgents` — every agent in this process: the simulation's
  agent set and the coordinator's last heal rung;
* :func:`run_rounds` — the round → gossip → stop loop, run by the
  simulation over :class:`LocalAgents` and by the coordinator over its
  islands.

Placement independence falls out of the RNG discipline: agent ``k``'s
stream is the ``k``-th ``SeedSequence`` spawn of the root seed
(:func:`agent_streams`), which any process can reconstruct from
``(root_seed, n_agents, k)`` alone. Which island an agent happens to run
on — or how many times it migrates after node deaths — cannot reach any
drawn number.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

import numpy as np

# Re-exported for perfbench's layer wiring, which patches this name here;
# chain_round samples through repro.ce.multichain.
from repro.ce.genperm import sample_permutations as sample_permutations
from repro.ce.multichain import CEConfig, iterate_once
from repro.mapping.cost_model import CostModel
from repro.types import SeedLike
from repro.utils.rng import (
    as_generator,
    generator_from_state,
    generator_state,
    spawn_generators,
)
from repro.utils.shared_plane import ProblemRef, resolve_problem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import DistributedMatchConfig

__all__ = [
    "DEGENERACY_TOL",
    "is_degenerate",
    "agent_streams",
    "chain_round",
    "ChainRoundCell",
    "run_chain_round",
    "SyncRecord",
    "replay_chain",
    "AgentRecord",
    "ChainState",
    "LocalAgents",
    "run_rounds",
]

#: Degeneracy tolerance for the all-chains-converged stop, shared with the
#: sequential simulation (it must stop on the same round).
DEGENERACY_TOL = 1e-6

#: One agent's report for one round: ``cost``/``x``/``gamma`` of its best
#: sample and its ``degenerate`` flag.
RoundEntry = Mapping[str, Any]


def agent_streams(seed: SeedLike, n_agents: int) -> list[np.random.Generator]:
    """The per-agent RNG streams for a run rooted at ``seed``.

    One definition for the simulation, the islands and the replay: stream
    ``k`` depends only on the root entropy and the spawn index ``k``, never
    on where the agent executes.
    """
    return spawn_generators(as_generator(seed), n_agents)


def is_degenerate(matrix: np.ndarray) -> bool:
    """Every row's mass within :data:`DEGENERACY_TOL` of one column."""
    return bool((matrix.max(axis=1) >= 1.0 - DEGENERACY_TOL).all())


@lru_cache(maxsize=32)
def _round_config(per_agent: int, rho: float, zeta: float) -> CEConfig:
    """An agent round's CE config.

    The adaptive stop rules, which need a history, are off: :func:`run_rounds`
    applies the run's own. Duplicate collapse is off as well: an agent's
    batch is a fraction of a solve's, and on the n=24 loopback benchmark
    97% of its rows are unique, so collapsing cost more than the scoring
    it saved.
    """
    return CEConfig(
        n_samples=per_agent,
        rho=rho,
        zeta=zeta,
        stability_window=0,
        gamma_window=0,
        dedup=False,
    )


def chain_round(
    matrix: np.ndarray,
    rng: np.random.Generator,
    model: CostModel,
    per_agent: int,
    rho: float,
    zeta: float,
) -> tuple[np.ndarray, dict[str, Any]]:
    """One CE round for one agent: the CE iteration with R=1.

    Advances ``rng``; returns the updated matrix and the round's report
    entry: the ``cost``, assignment ``x`` and elite threshold ``gamma`` of
    the round's best sample, and whether the updated matrix is
    ``degenerate``.
    """
    updated, cost, x, gamma = iterate_once(
        model.evaluate_batch, matrix, rng, _round_config(per_agent, rho, zeta)
    )
    return updated, {
        "cost": cost,
        "x": x,
        "gamma": gamma,
        "degenerate": is_degenerate(updated),
    }


@dataclass(frozen=True)
class ChainRoundCell:
    """Picklable work unit: one agent's round, shipped to a pool worker.

    Pure in the cell — the problem comes off the shared plane (or rides
    along on the serial path), the matrix and the RNG position are explicit
    state, so a retry or a replay on any worker is bit-identical.
    """

    problem_ref: ProblemRef
    matrix: np.ndarray
    rng_state: Mapping[str, Any]
    per_agent: int
    rho: float
    zeta: float


def run_chain_round(cell: ChainRoundCell) -> dict[str, Any]:
    """Top-level (picklable) pool entry: run one :class:`ChainRoundCell`.

    Returns the round's report entry plus the updated ``matrix`` and
    ``rng_state``.
    """
    model = CostModel(resolve_problem(cell.problem_ref))
    rng = generator_from_state(dict(cell.rng_state))
    matrix, entry = chain_round(
        np.asarray(cell.matrix, dtype=np.float64),
        rng, model, cell.per_agent, cell.rho, cell.zeta,
    )
    return {**entry, "matrix": matrix, "rng_state": generator_state(rng)}


@dataclass(frozen=True)
class SyncRecord:
    """One gossip the coordinator committed: ``(round, leader, leader's P)``.

    The coordinator's log of these is sufficient to replay any agent from
    round 1 — the only cross-agent information a chain ever receives is the
    leader matrix it blended towards.
    """

    round: int
    leader: int
    matrix: np.ndarray


class AgentRecord:
    """What is known of one agent from its reports: best-so-far, last γ,
    degenerate flag. The coordinator keeps one per agent."""

    __slots__ = ("index", "best_cost", "best_x", "last_gamma", "degenerate")

    def __init__(self, index: int, n_t: int) -> None:
        self.index = index
        self.best_cost = float("inf")
        self.best_x = np.zeros(n_t, dtype=np.int64)
        self.last_gamma = float("inf")
        self.degenerate = False

    def fold(self, entry: RoundEntry) -> None:
        """Fold one round's report entry into the record."""
        cost = float(entry["cost"])
        if cost < self.best_cost:
            self.best_cost = cost
            self.best_x = np.array(entry["x"], dtype=np.int64)
        self.last_gamma = float(entry["gamma"])
        self.degenerate = bool(entry["degenerate"])


class ChainState(AgentRecord):
    """One live agent chain: its record plus matrix and RNG stream."""

    __slots__ = ("matrix", "rng", "last_sync")

    def __init__(self, index: int, n_t: int, n_r: int, rng: np.random.Generator) -> None:
        super().__init__(index, n_t)
        self.matrix = np.full((n_t, n_r), 1.0 / n_r)
        self.rng = rng
        #: Highest sync round whose gossip blend this chain has applied —
        #: makes a re-broadcast gossip (heal path) idempotent per agent.
        self.last_sync = 0

    def play_round(
        self, model: CostModel, per_agent: int, rho: float, zeta: float
    ) -> dict[str, Any]:
        """Run one :func:`chain_round` on this agent, fold it, return its entry."""
        self.matrix, entry = chain_round(
            self.matrix, self.rng, model, per_agent, rho, zeta
        )
        self.fold(entry)
        return entry

    def blend(self, record: SyncRecord, weight: float) -> None:
        """Apply one gossip: drift towards the leader's matrix, once per round.

        The leader itself, and an agent that already applied this round's
        blend (a gossip re-broadcast after a mid-sync node loss: applying
        ``w·P + (1-w)·Q`` twice gives a different matrix), only note the
        round. The convex combination is written in exactly the
        simulation's operand order — float addition is not associative,
        so reordering it would break the loopback parity pin.
        """
        if self.index != record.leader and self.last_sync < record.round:
            self.matrix = weight * record.matrix + (1.0 - weight) * self.matrix
            self.degenerate = is_degenerate(self.matrix)
        self.last_sync = max(self.last_sync, record.round)


def replay_chain(
    problem: Any,
    model: CostModel,
    root_seed: int,
    n_agents: int,
    agent_index: int,
    per_agent: int,
    rho: float,
    zeta: float,
    gossip_weight: float,
    history: Sequence[SyncRecord],
    through_round: int,
) -> tuple[ChainState, dict[str, Any] | None]:
    """Deterministically rebuild agent ``agent_index`` after a node loss.

    Replays rounds ``1..through_round`` from the root seed, applying every
    recorded gossip blend at its original round (skipped when this agent
    *was* the leader, exactly as live chains skip it). Returns the rebuilt
    :class:`ChainState` plus the final round's report entry
    (``cost``/``x``/``gamma``/``degenerate``) — the coordinator folds that
    into the interrupted round as if the dead node had answered. The second
    element is ``None`` when ``through_round`` is 0 (death before any
    round completed).
    """
    rng = agent_streams(root_seed, n_agents)[agent_index]
    state = ChainState(agent_index, problem.n_tasks, problem.n_resources, rng)
    by_round = {record.round: record for record in history}
    last_report: dict[str, Any] | None = None
    for r in range(1, through_round + 1):
        last_report = state.play_round(model, per_agent, rho, zeta)
        record = by_round.get(r)
        if record is not None:
            state.blend(record, gossip_weight)
            last_report["degenerate"] = state.degenerate
    return state, last_report


class LocalAgents:
    """Every agent chain, held and stepped in this process.

    The simulation's agent set, and the coordinator's last heal rung when
    no island is left. :meth:`round` and :meth:`gossip` are the two phases
    :func:`run_rounds` drives.
    """

    def __init__(
        self,
        chains: Sequence[ChainState],
        model: CostModel,
        per_agent: int,
        rho: float,
        zeta: float,
        gossip_weight: float,
    ) -> None:
        self.chains = sorted(chains, key=lambda s: s.index)
        self.model = model
        self.per_agent = per_agent
        self.rho = rho
        self.zeta = zeta
        self.gossip_weight = gossip_weight

    def round(self, r: int) -> dict[int, dict[str, Any]]:
        """Round ``r`` for every agent, in agent order; their report entries."""
        return {
            state.index: state.play_round(self.model, self.per_agent, self.rho, self.zeta)
            for state in self.chains
        }

    def gossip(self, r: int, leader: int) -> dict[int, bool]:
        """Blend every agent towards ``leader``'s matrix; their degenerate flags."""
        leader_P = next(s for s in self.chains if s.index == leader).matrix.copy()
        record = SyncRecord(round=r, leader=leader, matrix=leader_P)
        for state in self.chains:
            state.blend(record, self.gossip_weight)
        return self.degenerate_flags()

    def degenerate_flags(self) -> dict[int, bool]:
        """Every agent's current degenerate flag."""
        return {state.index: state.degenerate for state in self.chains}


def run_rounds(
    config: "DistributedMatchConfig",
    n_tasks: int,
    play_round: Callable[[int], Mapping[int, RoundEntry]],
    gossip: Callable[[int, int], Mapping[int, bool]],
    round_hook: Callable[[int], None] | None = None,
) -> tuple[np.ndarray, float, int, int]:
    """The distributed MaTCH loop: round → gossip → stop, once.

    ``play_round(r)`` returns every agent's report entry for round ``r``;
    ``gossip(r, leader)`` blends every agent towards the leader and
    returns the changed degenerate flags. The loop keeps the global view:
    each agent's record (folded in agent index order — strict-improvement
    order is part of the bit-for-bit contract), the incumbent, the leader
    (minimum best cost, ties to the lowest index) and the stopping rules:
    the incumbent unchanged for ``gamma_window`` rounds, every agent
    degenerate, or ``max_rounds``.

    Returns ``(assignment, best_cost, rounds, n_syncs)``.
    """
    n_agents = config.n_agents
    ledger = [AgentRecord(g, n_tasks) for g in range(n_agents)]
    global_best = float("inf")
    global_x = np.zeros(n_tasks, dtype=np.int64)
    stagnant = 0
    prev_global = float("inf")
    rounds = 0
    n_syncs = 0
    for r in range(1, config.max_rounds + 1):
        rounds = r
        if round_hook is not None:
            round_hook(r)
        entries = play_round(r)
        for record in ledger:
            record.fold(entries[record.index])
            if record.best_cost < global_best:
                global_best = record.best_cost
                global_x = record.best_x.copy()

        if n_agents > 1 and r % config.sync_every == 0:
            leader = min(range(n_agents), key=lambda g: (ledger[g].best_cost, g))
            for g, flag in gossip(r, leader).items():
                ledger[g].degenerate = flag
            n_syncs += 1

        if abs(global_best - prev_global) <= 1e-9:
            stagnant += 1
        else:
            stagnant = 0
        prev_global = global_best
        if stagnant >= config.gamma_window:
            break
        if all(record.degenerate for record in ledger):
            break
    return global_x, global_best, rounds, n_syncs
