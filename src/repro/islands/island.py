"""The island worker: one node's CE chains, driven by a coordinator.

An island dials the coordinator, announces itself, and receives a *job*
frame — the problem (service wire format), the distributed config, the
root seed and its slice of the agent indices. From then on it is a lockstep
protocol follower: each ``round`` frame runs one CE round for every local
agent through the island's own :class:`~repro.utils.parallel.WorkerPool`
(``map_salvage``, so a dead pool worker heals *inside* the island before
the coordinator ever notices), ``gossip`` frames blend local matrices
towards the leader, and ``adopt`` frames re-home a dead node's chains by
deterministic replay.

The island is deliberately stateless about the global run: best-so-far
tracking, leader election, stopping and budget sharding all live in the
coordinator. An island that loses its socket simply exits — from the
run's point of view it is now a dead node, and the coordinator's heal
ladder takes over.
"""

from __future__ import annotations

import os
import socket
from typing import Any, Callable

from repro.exceptions import IslandError
from repro.islands import wire as island_wire
from repro.islands.chains import (
    ChainRoundCell,
    ChainState,
    SyncRecord,
    agent_streams,
    replay_chain,
    run_chain_round,
)
from repro.mapping.cost_model import CostModel
from repro.service.wire import problem_from_wire
from repro.utils.parallel import WorkerPool
from repro.utils.rng import generator_state

__all__ = ["IslandWorker", "run_island"]


def _chain_weight(cell: ChainRoundCell) -> float:
    """LPT weight for a round cell: scoring cost ~ samples x n²."""
    n_t = int(cell.matrix.shape[0])
    return float(cell.per_agent) * float(n_t) * float(n_t)


class IslandWorker:
    """Protocol follower for one node of the island runtime."""

    def __init__(
        self,
        address: tuple[str, int],
        *,
        n_workers: int = 1,
        name: str = "",
        on_round: Callable[[int], None] | None = None,
    ) -> None:
        self.address = address
        self.n_workers = n_workers
        self.name = name or f"island-{os.getpid()}"
        #: Test hook: called with the round number before each round runs.
        self.on_round = on_round
        self.rounds_run = 0
        self.agents_adopted = 0

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> None:
        """Join the coordinator and follow the protocol until ``stop``.

        Raises :class:`IslandError`/:class:`FrameError` if the coordinator
        breaks protocol or vanishes — a crash here is *meant* to be loud:
        the process exit is what a supervisor (or the chaos test) observes.
        """
        with socket.create_connection(self.address) as sock:
            island_wire.send_frame(
                sock, {"type": "hello", "name": self.name, "pid": os.getpid()}
            )
            job = island_wire.recv_frame(sock)
            if job.get("type") != "job":
                raise IslandError(
                    f"expected a job frame from the coordinator, got {job.get('type')!r}"
                )
            self._serve_job(sock, job)

    # -- the protocol ------------------------------------------------------
    def _serve_job(self, sock: socket.socket, job: dict[str, Any]) -> None:
        problem = problem_from_wire(job["problem"])
        model = CostModel(problem)
        seed = int(job["seed"])
        n_agents = int(job["n_agents"])
        per_agent = int(job["per_agent"])
        rho = float(job["rho"])
        zeta = float(job["zeta"])
        gossip_weight = float(job["gossip_weight"])
        n_t, n_r = problem.n_tasks, problem.n_resources

        streams = agent_streams(seed, n_agents)
        chains: dict[int, ChainState] = {}
        for g in (int(a) for a in job["agents"]):
            chains[g] = ChainState(g, n_t, n_r, streams[g])

        with WorkerPool(self.n_workers) as pool:
            ref = pool.publish_problem(problem)
            while True:
                msg = island_wire.recv_frame(sock)
                kind = msg.get("type")
                if kind == "round":
                    self._run_round(sock, pool, ref, msg, chains, per_agent, rho, zeta)
                elif kind == "matrix-request":
                    g = int(msg["agent"])
                    if g not in chains:
                        raise IslandError(f"matrix-request for foreign agent {g}")
                    island_wire.send_frame(
                        sock,
                        {
                            "type": "matrix",
                            "agent": g,
                            "matrix": island_wire.encode_matrix(chains[g].matrix),
                        },
                    )
                elif kind == "gossip":
                    self._apply_gossip(sock, msg, chains, gossip_weight, (n_t, n_r))
                elif kind == "adopt":
                    self._adopt(
                        sock, msg, chains, problem, model, seed, n_agents,
                        per_agent, rho, zeta, gossip_weight,
                    )
                elif kind == "stop":
                    island_wire.send_frame(sock, {"type": "stopped"})
                    return
                else:
                    raise IslandError(f"unknown frame type from coordinator: {kind!r}")

    def _run_round(
        self,
        sock: socket.socket,
        pool: WorkerPool,
        ref: Any,
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        per_agent: int,
        rho: float,
        zeta: float,
    ) -> None:
        r = int(msg["round"])
        if self.on_round is not None:
            self.on_round(r)
        order = sorted(chains)
        cells = [
            ChainRoundCell(
                problem_ref=ref,
                matrix=chains[g].matrix,
                rng_state=generator_state(chains[g].rng),
                per_agent=per_agent,
                rho=rho,
                zeta=zeta,
            )
            for g in order
        ]
        report = pool.map_salvage(run_chain_round, cells, weight=_chain_weight)
        if report.failures:
            # The in-island heal ladder (retry -> respawn -> serial) is
            # already exhausted; escalate to the node tier by dying loudly —
            # the coordinator replays these chains on a survivor.
            detail = "; ".join(
                f"agent {order[f.index]}: {f.kind} after {f.attempts} attempts"
                for f in report.failures
            )
            raise IslandError(f"round {r} lost {len(report.failures)} chain(s): {detail}")
        agents_payload: dict[str, Any] = {}
        for g, outcome in zip(order, report.results):
            state = chains[g]
            state.matrix = outcome["matrix"]
            # Reposition the agent's stream in place (cheaper than a new
            # generator per round).
            state.rng.bit_generator.state = outcome["rng_state"]
            state.fold(outcome)
            agents_payload[str(g)] = {
                "cost": float(outcome["cost"]),
                "x": [int(v) for v in outcome["x"]],
                "gamma": float(outcome["gamma"]),
                "degenerate": bool(outcome["degenerate"]),
            }
        self.rounds_run += 1
        island_wire.send_frame(
            sock, {"type": "report", "round": r, "agents": agents_payload}
        )

    def _apply_gossip(
        self,
        sock: socket.socket,
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        gossip_weight: float,
        shape: tuple[int, int],
    ) -> None:
        r = int(msg["round"])
        leader = int(msg["leader"])
        record = SyncRecord(
            round=r, leader=leader, matrix=island_wire.decode_matrix(msg["matrix"], shape)
        )
        for g in sorted(chains):
            chains[g].blend(record, gossip_weight)
        island_wire.send_frame(
            sock,
            {
                "type": "gossip-ok",
                "round": r,
                "degenerate": {str(g): chains[g].degenerate for g in sorted(chains)},
            },
        )

    def _adopt(
        self,
        sock: socket.socket,
        msg: dict[str, Any],
        chains: dict[int, ChainState],
        problem: Any,
        model: CostModel,
        seed: int,
        n_agents: int,
        per_agent: int,
        rho: float,
        zeta: float,
        gossip_weight: float,
    ) -> None:
        through_round = int(msg["through_round"])
        history = [
            SyncRecord(
                round=int(h["round"]),
                leader=int(h["leader"]),
                matrix=island_wire.decode_matrix(
                    h["matrix"], (problem.n_tasks, problem.n_resources)
                ),
            )
            for h in msg.get("history", [])
        ]
        adopted_payload: dict[str, Any] = {}
        for g in (int(a) for a in msg["agents"]):
            state, last_report = replay_chain(
                problem, model, seed, n_agents, g,
                per_agent, rho, zeta, gossip_weight,
                history, through_round,
            )
            chains[g] = state
            self.agents_adopted += 1
            if last_report is not None:
                adopted_payload[str(g)] = {
                    "cost": float(last_report["cost"]),
                    "x": [int(v) for v in last_report["x"]],
                    "gamma": float(last_report["gamma"]),
                    "degenerate": bool(last_report["degenerate"]),
                }
        island_wire.send_frame(
            sock,
            {"type": "adopted", "through_round": through_round, "agents": adopted_payload},
        )


def run_island(
    host: str,
    port: int,
    *,
    n_workers: int = 1,
    name: str = "",
) -> None:
    """Convenience entry (CLI ``repro-match island join``): join and serve."""
    IslandWorker((host, port), n_workers=n_workers, name=name).run()
