"""The island coordinator: budget sharding, gossip, node-loss healing.

The coordinator owns everything *global* about a distributed MaTCH run:
it shards the per-round sample budget across agents exactly as the
sequential simulation does (``per_agent = max(2, total // n_agents)``, so
the run stays compute-fair against a monolithic solve), drives islands in
lockstep rounds through the one round loop the simulation also runs
(:func:`repro.islands.chains.run_rounds`: leader election, gossip, the
stopping rules). Because every number an agent draws
depends only on the root seed and the agent index
(:mod:`repro.islands.chains`), the coordinator's result is **bit-identical
to the sequential** :class:`~repro.core.distributed.DistributedMatchMapper`
for the same seeds, however the agents are placed.

Node loss extends the execution fabric's heal ladder one level up. Inside
an island a dead *worker* is healed by ``map_salvage`` (retry → respawn →
halve → serial); a dead *island* is healed here: the break is detected at
the socket (EOF/reset, or the heartbeat deadline for a hang), a structured
failure manifest goes into the run's ``events.jsonl``, and the dead node's
chains are deterministically re-sharded onto survivors, which replay them
from the root seed plus the recorded gossip history. If the last island
dies, the coordinator itself replays every chain and finishes the run
in-process — the node-tier analogue of the dispatcher's serial tail. A
healed run returns the same bytes a failure-free run would have.
"""

from __future__ import annotations

import socket
from typing import TYPE_CHECKING, Any, Callable

from repro.exceptions import ConfigurationError, FrameError, IslandError
from repro.islands import wire as island_wire
from repro.islands.chains import LocalAgents, SyncRecord, replay_chain, run_rounds
from repro.mapping.cost_model import CostModel
from repro.mapping.problem import MappingProblem
from repro.runstore.store import RunHandle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.distributed import DistributedMatchConfig

# NOTE: ``repro.core.distributed`` imports this package's ``chains`` module
# (the simulation and the islands share one round-step implementation), so
# everything under ``repro.core`` / ``repro.service`` is imported lazily
# here to keep the package import acyclic.

__all__ = ["IslandCoordinator", "run_loopback", "shard_agents"]


def shard_agents(n_agents: int, n_islands: int) -> list[list[int]]:
    """Contiguous agent shards, sizes differing by at most one.

    Deterministic in its arguments only — placement never reaches a drawn
    number, so any shard shape produces the same run.
    """
    if n_islands < 1:
        raise ConfigurationError(f"n_islands must be >= 1, got {n_islands}")
    if n_islands > n_agents:
        raise ConfigurationError(
            f"n_islands must be <= n_agents, got {n_islands} islands "
            f"for {n_agents} agents"
        )
    base, extra = divmod(n_agents, n_islands)
    shards: list[list[int]] = []
    start = 0
    for i in range(n_islands):
        size = base + (1 if i < extra else 0)
        shards.append(list(range(start, start + size)))
        start += size
    return shards


class _IslandConn:
    """Coordinator-side record of one joined island."""

    __slots__ = ("id", "sock", "name", "pid", "alive")

    def __init__(self, island_id: int, sock: socket.socket, name: str, pid: int) -> None:
        self.id = island_id
        self.sock = sock
        self.name = name
        self.pid = pid
        self.alive = True


class _AllIslandsLost(Exception):
    """Internal: every island is dead; the caller must go local."""


class IslandCoordinator:
    """Drive one distributed MaTCH run over joined islands.

    Parameters
    ----------
    problem:
        The instance to map (``n_resources >= n_tasks``, as for the
        sequential distributed mapper).
    config:
        The shared :class:`DistributedMatchConfig`; the coordinator and the
        simulation interpret every field identically.
    seed:
        Root seed; agent ``k``'s stream is its ``k``-th spawn.
    n_islands:
        Islands that must join before the run starts.
    heartbeat_timeout:
        Seconds an island may stay silent when a frame is owed before it
        is declared dead (the node-tier heartbeat deadline). ``None``
        waits forever — only sensible in tests.
    accept_timeout:
        Seconds to wait for all islands to join.
    run:
        Optional run handle; node losses and heals are logged as
        structured events (the failure manifest).
    round_hook:
        Test hook called with the round number before each round.
    """

    def __init__(
        self,
        problem: MappingProblem,
        config: "DistributedMatchConfig | None" = None,
        *,
        seed: int,
        n_islands: int,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_timeout: float | None = 60.0,
        accept_timeout: float | None = 60.0,
        run: RunHandle | None = None,
        round_hook: Callable[[int], None] | None = None,
    ) -> None:
        from repro.core.distributed import DistributedMatchConfig

        if config is None:
            config = DistributedMatchConfig()
        if problem.n_tasks > problem.n_resources:
            raise ConfigurationError("distributed MaTCH needs n_resources >= n_tasks")
        shard_agents(config.n_agents, n_islands)  # validates the pair
        self.problem = problem
        self.config = config
        self.seed = int(seed)
        self.n_islands = n_islands
        self.heartbeat_timeout = heartbeat_timeout
        self.accept_timeout = accept_timeout
        self.run_handle = run
        self.round_hook = round_hook
        self._model = CostModel(problem)
        self.per_agent = config.samples_per_agent(problem.n_resources)

        self._islands: dict[int, _IslandConn] = {}
        self._owner: dict[int, int] = {}  # agent -> island id
        self._history: list[SyncRecord] = []
        self._history_wire: list[dict[str, Any]] = []
        self._failures: list[dict[str, Any]] = []
        #: Set once every island is lost: the coordinator finishes alone.
        self._local: LocalAgents | None = None
        self._replayed_rounds = 0

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(n_islands)
        self._listener.settimeout(accept_timeout)

    @property
    def address(self) -> tuple[str, int]:
        """The ``(host, port)`` islands dial (port resolved after bind)."""
        addr = self._listener.getsockname()
        return (addr[0], addr[1])

    # -- lifecycle ---------------------------------------------------------
    def run(self) -> dict[str, Any]:
        """Accept islands, drive the run, return the result payload.

        The payload mirrors the sequential mapper's ``_solve`` contract:
        ``assignment``, ``best_cost``, ``n_evaluations`` and the same
        ``extras`` keys, plus island-runtime diagnostics.
        """
        try:
            self._accept_islands()
            return self._drive()
        finally:
            self._shutdown()

    def _accept_islands(self) -> None:
        shards = shard_agents(self.config.n_agents, self.n_islands)
        for island_id in range(self.n_islands):
            try:
                sock, _ = self._listener.accept()
            except (socket.timeout, OSError) as exc:
                raise IslandError(
                    f"only {island_id} of {self.n_islands} islands joined: {exc}"
                ) from exc
            sock.settimeout(self.heartbeat_timeout)
            hello = island_wire.recv_frame(sock)
            if hello.get("type") != "hello":
                raise IslandError(f"expected hello, got {hello.get('type')!r}")
            conn = _IslandConn(
                island_id, sock, str(hello.get("name", "")), int(hello.get("pid", 0))
            )
            self._islands[island_id] = conn
            for g in shards[island_id]:
                self._owner[g] = island_id
            self._event(
                "island-joined",
                island=island_id,
                name=conn.name,
                pid=conn.pid,
                agents=shards[island_id],
            )
        from repro.service.wire import problem_to_wire

        cfg = self.config
        job = {
            "type": "job",
            "problem": problem_to_wire(self.problem),
            "seed": self.seed,
            "n_agents": cfg.n_agents,
            "per_agent": self.per_agent,
            "rho": cfg.rho,
            "zeta": cfg.zeta,
            "gossip_weight": cfg.gossip_weight,
            "sync_every": cfg.sync_every,
            "agents": [],
        }
        for island_id, conn in self._islands.items():
            payload = dict(job)
            payload["agents"] = shards[island_id]
            try:
                island_wire.send_frame(conn.sock, payload)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, 0, "node-death", f"job send failed: {exc}")
        if not self._alive():
            # Every island died before round 1: the run is fully local.
            self._go_local(0, include_sync_r=False)

    def _drive(self) -> dict[str, Any]:
        cfg = self.config
        n_agents = cfg.n_agents
        global_x, global_best, rounds, n_syncs = run_rounds(
            cfg,
            self.problem.n_tasks,
            self._phase_round,
            self._phase_gossip,
            round_hook=self.round_hook,
        )
        n_evals = rounds * n_agents * self.per_agent
        result = {
            "assignment": [int(v) for v in global_x],
            "best_cost": float(global_best),
            "n_evaluations": int(n_evals),
            "extras": {
                "rounds": rounds,
                "n_agents": n_agents,
                "samples_per_agent": self.per_agent,
                "n_syncs": n_syncs,
                "n_islands": self.n_islands,
                "node_failures": len(self._failures),
                "replayed_agent_rounds": self._replayed_rounds,
                "finished_locally": self._local is not None,
            },
        }
        self._event("islands-run-completed", **result["extras"], best_cost=result["best_cost"])
        return result

    # -- phase: one CE round ------------------------------------------------
    def _phase_round(self, r: int) -> dict[int, dict[str, Any]]:
        if self._local is not None:
            return self._local.round(r)
        entries: dict[int, dict[str, Any]] = {}
        sent: list[_IslandConn] = []
        for conn in self._alive():
            try:
                island_wire.send_frame(conn.sock, {"type": "round", "round": r})
                sent.append(conn)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, r, "node-death", f"round send failed: {exc}")
        for conn in sent:
            if not conn.alive:
                continue
            try:
                msg = self._expect(conn, "report")
            except _PeerLost as exc:
                self._mark_dead(conn, r, exc.kind, str(exc))
                continue
            for key, entry in msg.get("agents", {}).items():
                entries[int(key)] = entry
        missing = [g for g in range(self.config.n_agents) if g not in entries]
        if missing:
            try:
                entries.update(self._heal(r, include_sync_r=False))
            except _AllIslandsLost:
                return self._go_local(r, include_sync_r=False)
        return entries

    # -- phase: gossip ------------------------------------------------------
    def _phase_gossip(self, r: int, leader: int) -> dict[int, bool]:
        cfg = self.config
        if self._local is not None:
            return self._local.gossip(r, leader)
        # Fetch the leader's matrix (retrying across heals: the replayed
        # leader has a bit-identical matrix wherever it lands).
        while True:
            owner = self._islands.get(self._owner[leader])
            if owner is None or not owner.alive:
                try:
                    self._heal(r, include_sync_r=False)
                except _AllIslandsLost:
                    self._go_local(r, include_sync_r=False)
                    return self._phase_gossip(r, leader)
                continue
            try:
                island_wire.send_frame(
                    owner.sock, {"type": "matrix-request", "agent": leader}
                )
                msg = self._expect(owner, "matrix")
                leader_matrix = island_wire.decode_matrix(
                    msg["matrix"], (self.problem.n_tasks, self.problem.n_resources)
                )
                break
            except _PeerLost as exc:
                self._mark_dead(owner, r, exc.kind, str(exc))
            except (OSError, FrameError) as exc:
                self._mark_dead(owner, r, "node-death", f"matrix request failed: {exc}")

        self._history.append(SyncRecord(round=r, leader=leader, matrix=leader_matrix))
        self._history_wire.append(
            {
                "round": r,
                "leader": leader,
                "matrix": island_wire.encode_matrix(leader_matrix),
            }
        )
        gossip = {
            "type": "gossip",
            "round": r,
            "leader": leader,
            "matrix": self._history_wire[-1]["matrix"],
        }
        flags: dict[int, bool] = {}
        sent: list[_IslandConn] = []
        for conn in self._alive():
            try:
                island_wire.send_frame(conn.sock, gossip)
                sent.append(conn)
            except (OSError, FrameError) as exc:
                self._mark_dead(conn, r, "node-death", f"gossip send failed: {exc}")
        for conn in sent:
            if not conn.alive:
                continue
            try:
                msg = self._expect(conn, "gossip-ok")
            except _PeerLost as exc:
                self._mark_dead(conn, r, exc.kind, str(exc))
                continue
            for key, flag in msg.get("degenerate", {}).items():
                flags[int(key)] = bool(flag)
        missing = [g for g in range(cfg.n_agents) if g not in flags]
        if missing:
            # Replays include round r's gossip record, so adopted chains
            # come back post-blend; their flags ride on the adopt reply.
            try:
                healed = self._heal(r, include_sync_r=True)
            except _AllIslandsLost:
                self._go_local(r, include_sync_r=True)
                assert self._local is not None
                return self._local.degenerate_flags()
            for g, entry in healed.items():
                flags[g] = bool(entry["degenerate"])
        return flags

    # -- node-loss healing --------------------------------------------------
    def _heal(self, r: int, *, include_sync_r: bool) -> dict[int, dict[str, Any]]:
        """Re-shard every orphaned chain onto survivors; return their round
        ``r`` report entries (replayed, bit-identical to the lost answers)."""
        entries: dict[int, dict[str, Any]] = {}
        history = [
            h for h in self._history_wire
            if h["round"] < r or (include_sync_r and h["round"] == r)
        ]
        while True:
            orphans = sorted(
                g for g, island_id in self._owner.items()
                if not self._islands[island_id].alive
            )
            if not orphans:
                return entries
            survivors = self._alive()
            if not survivors:
                raise _AllIslandsLost()
            assignment: dict[int, list[int]] = {conn.id: [] for conn in survivors}
            for i, g in enumerate(orphans):
                assignment[survivors[i % len(survivors)].id].append(g)
            for conn in survivors:
                agents = assignment[conn.id]
                if not agents:
                    continue
                try:
                    island_wire.send_frame(
                        conn.sock,
                        {
                            "type": "adopt",
                            "agents": agents,
                            "through_round": r,
                            "history": history,
                        },
                    )
                    msg = self._expect(conn, "adopted")
                except _PeerLost as exc:
                    self._mark_dead(conn, r, exc.kind, str(exc))
                    continue
                except (OSError, FrameError) as exc:
                    self._mark_dead(conn, r, "node-death", f"adopt failed: {exc}")
                    continue
                for g in agents:
                    self._owner[g] = conn.id
                for key, entry in msg.get("agents", {}).items():
                    entries[int(key)] = entry
                self._replayed_rounds += len(agents) * r
                self._event(
                    "island-adopted",
                    island=conn.id,
                    agents=agents,
                    through_round=r,
                    replayed_gossips=len(history),
                )

    def _go_local(self, r: int, *, include_sync_r: bool) -> dict[int, dict[str, Any]]:
        """Last heal rung: no islands left — replay everything in-process.

        The node-tier analogue of the dispatcher's serial tail: the
        coordinator rebuilds every chain from the root seed and the gossip
        history, then finishes the remaining rounds itself over the same
        in-process agent set the simulation runs. Returns round ``r``'s
        entries (empty when ``r`` is 0 — nothing ran yet).
        """
        cfg = self.config
        history = [
            h for h in self._history
            if h.round < r or (include_sync_r and h.round == r)
        ]
        chains = []
        entries: dict[int, dict[str, Any]] = {}
        for g in range(cfg.n_agents):
            state, last_report = replay_chain(
                self.problem, self._model, self.seed, cfg.n_agents, g,
                self.per_agent, cfg.rho, cfg.zeta, cfg.gossip_weight,
                history, r,
            )
            chains.append(state)
            if last_report is not None:
                entries[g] = last_report
            self._replayed_rounds += r
        self._local = LocalAgents(
            chains, self._model, self.per_agent, cfg.rho, cfg.zeta, cfg.gossip_weight
        )
        self._event(
            "islands-degraded-local",
            through_round=r,
            replayed_gossips=len(history),
            n_agents=cfg.n_agents,
        )
        return entries

    # -- plumbing -----------------------------------------------------------
    def _alive(self) -> list[_IslandConn]:
        return [c for c in self._islands.values() if c.alive]

    def _expect(self, conn: _IslandConn, expected: str) -> dict[str, Any]:
        """Receive the next frame from ``conn``, requiring type ``expected``.

        Socket deaths and deadline expiries surface as :class:`_PeerLost`
        with the structured kind the failure manifest records.
        """
        try:
            msg = island_wire.recv_frame(conn.sock)
        except FrameError as exc:
            raise _PeerLost(
                "node-death" if exc.kind == "truncated" else "node-protocol",
                f"{exc.kind}: {exc}",
            ) from exc
        except socket.timeout as exc:
            raise _PeerLost(
                "node-timeout",
                f"no frame within the {self.heartbeat_timeout}s heartbeat deadline",
            ) from exc
        except OSError as exc:
            raise _PeerLost("node-death", f"socket error: {exc}") from exc
        if msg.get("type") != expected:
            raise _PeerLost(
                "node-protocol",
                f"expected {expected!r}, got {msg.get('type')!r}",
            )
        return msg

    def _mark_dead(self, conn: _IslandConn, r: int, kind: str, message: str) -> None:
        if not conn.alive:
            return
        conn.alive = False
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass
        agents = sorted(g for g, owner in self._owner.items() if owner == conn.id)
        manifest = {
            "island": conn.id,
            "name": conn.name,
            "pid": conn.pid,
            "round": r,
            "kind": kind,
            "agents": agents,
            "message": message,
            "survivors": [c.id for c in self._alive()],
        }
        self._failures.append(manifest)
        self._event("node-lost", **manifest)

    def _shutdown(self) -> None:
        for conn in self._alive():
            try:
                island_wire.send_frame(conn.sock, {"type": "stop"})
                self._expect(conn, "stopped")
            except (_PeerLost, OSError, FrameError):  # pragma: no cover
                pass
        for conn in self._islands.values():
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover
                pass
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass

    def _event(self, event: str, **fields: Any) -> None:
        if self.run_handle is not None:
            self.run_handle.log_event(event, **fields)


class _PeerLost(Exception):
    """Internal: one island stopped answering; carries the manifest kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def run_loopback(
    problem: MappingProblem,
    config: "DistributedMatchConfig | None" = None,
    *,
    seed: int,
    n_islands: int = 2,
    n_workers: int = 1,
    heartbeat_timeout: float | None = 60.0,
    run: RunHandle | None = None,
    round_hook: Callable[[int], None] | None = None,
) -> dict[str, Any]:
    """One-call loopback run: coordinator plus ``n_islands`` local islands.

    Islands run as daemon threads on 127.0.0.1 — real sockets, the real
    protocol, no extra processes — which is what the parity pin and the
    benchmark drive. Returns the coordinator's result payload.
    """
    import threading

    from repro.islands.island import run_island

    coordinator = IslandCoordinator(
        problem,
        config,
        seed=seed,
        n_islands=n_islands,
        heartbeat_timeout=heartbeat_timeout,
        run=run,
        round_hook=round_hook,
    )
    host, port = coordinator.address
    threads = [
        threading.Thread(
            target=run_island,
            args=(host, port),
            kwargs={"n_workers": n_workers, "name": f"loopback-{i}"},
            daemon=True,
        )
        for i in range(n_islands)
    ]
    for thread in threads:
        thread.start()
    result = coordinator.run()
    for thread in threads:
        thread.join(timeout=10.0)
    return result
