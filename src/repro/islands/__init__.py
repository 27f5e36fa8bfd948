"""Multi-node island MaTCH: CE chains sharded across processes/hosts.

The paper's §6 future work — distributed agent-based MaTCH — as a real
runtime rather than a simulation. A coordinator (:mod:`.coordinator`)
shards the per-round sample budget across agents, islands (:mod:`.island`)
run their agents' CE chains through local
:class:`~repro.utils.parallel.WorkerPool`\\ s, and every ``sync_every``
rounds the islands gossip: each blends its stochastic matrices towards the
global leader's (elite attraction), exactly as the sequential
:class:`~repro.core.distributed.DistributedMatchMapper` simulates.

Three properties define the design, all pinned by tests:

* **bit-reproducibility** — a distributed run returns the same bytes as
  the sequential simulation for the same seeds, whatever the placement
  (``tests/islands`` parity pin against the golden fixture);
* **node-loss healing** — a dead island degrades like a dead worker:
  heartbeat deadline, structured failure manifest into the run store,
  deterministic replay of its chains on survivors (down to the
  coordinator itself when no island survives);
* **wire hygiene** — length-prefixed JSON frames with bit-exact matrix
  encoding and structured rejection of truncated/oversized traffic
  (:mod:`.wire`).
"""

from repro.islands.chains import (
    AgentRecord,
    ChainRoundCell,
    ChainState,
    LocalAgents,
    SyncRecord,
    agent_streams,
    chain_round,
    replay_chain,
    run_chain_round,
    run_rounds,
)
from repro.islands.coordinator import IslandCoordinator, run_loopback, shard_agents
from repro.islands.island import IslandWorker, run_island
from repro.islands.wire import (
    MAX_FRAME_BYTES,
    decode_matrix,
    encode_matrix,
    recv_frame,
    send_frame,
)

__all__ = [
    "IslandCoordinator",
    "IslandWorker",
    "run_loopback",
    "run_island",
    "shard_agents",
    "agent_streams",
    "chain_round",
    "replay_chain",
    "run_chain_round",
    "run_rounds",
    "ChainRoundCell",
    "AgentRecord",
    "ChainState",
    "LocalAgents",
    "SyncRecord",
    "MAX_FRAME_BYTES",
    "encode_matrix",
    "decode_matrix",
    "send_frame",
    "recv_frame",
]
