"""The one CE iteration, run over R chains stacked as one tensor.

MaTCH is one loop (Fig. 5): GenPerm sample → Eq. (2) score → elite
ρ-quantile → Eq. (11)/(13) update → Eq. (12) stop. :func:`ce_iteration`
is the only body of that loop in the library, and every engine runs it:

* :class:`MultiChainCE` advances ``R`` independent chains at once (the
  fused ``map_many`` repetitions: Table 3 alone is 30 runs);
* :class:`~repro.ce.optimizer.CrossEntropyOptimizer` is a one-chain
  :class:`MultiChainCE`;
* :func:`repro.islands.chains.chain_round` runs one iteration (R=1) on an
  island agent's matrix and stream.

One iteration over the live chains:

* per-chain uniform draws, each from the chain's own generator;
* one batched GenPerm pass over the ``(R, n_tasks, n_resources)`` tensor
  (:func:`repro.ce.genperm.sample_permutations_stacked`);
* one objective call for every live chain's candidates, after collapsing
  duplicate rows across chains;
* batched elite selection, one stacked ``bincount`` for the Eq. (11)+(13)
  updates (:func:`repro.ce.stochastic_matrix.stacked_elite_update`) and
  the degeneracy/entropy diagnostics on the whole tensor;
* the stopping rules of every chain as array counters.

Each chain owns its generator and its stop counters, so chain ``r`` of a
joint run is **bit-identical** to a one-chain run seeded the same way —
the property the experiment layer relies on to fuse repetitions without
changing any reported number. Chains that stop are frozen and leave the
live set; the joint loop ends when every chain has stopped.

**Budget policy** (the same for every R). Each live chain draws its full
``N`` from its own stream, so the streams never depend on the budget.
Only the unique rows of the joint batch are charged, clamped to what the
budget can still afford; rows it cannot afford cost ``+inf`` (they can
never become an incumbent) and do not count as evaluated candidates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.ce.genperm import sample_permutations_stacked
from repro.ce.quantile import select_elites, select_top_k
from repro.ce.stochastic_matrix import stacked_elite_update
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError
from repro.runtime.budget import EvaluationBudget
from repro.types import BatchObjectiveFn, SeedLike
from repro.utils.dedup import collapse_duplicate_rows

# Re-exported for perfbench's layer wiring, which patches this name here.
from repro.utils.dedup import pack_rows as pack_rows
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_range

__all__ = [
    "CEConfig",
    "CEResult",
    "MultiChainResult",
    "MultiChainCE",
    "ce_iteration",
    "iterate_once",
]


@dataclass(frozen=True)
class CEConfig:
    """Hyper-parameters of one CE run.

    Attributes
    ----------
    n_samples:
        Batch size ``N`` per iteration (the paper uses ``2·|V_r|²``).
    rho:
        Focus parameter; elite fraction (paper: 0.01 ≤ ρ ≤ 0.1).
    zeta:
        Smoothing factor of Eq. (13); 1.0 disables smoothing (coarse
        update), the paper runs 0.3.
    stability_window:
        ``c`` of Eq. (12): iterations of unchanged row maxima (within
        ``stability_tol``) required to declare convergence. ``0`` disables
        the rule.
    stability_tol:
        Float tolerance for "unchanged" in the Eq. (12) check. The paper's
        exact-equality reading only ever fires once the matrix is exactly
        degenerate; under smoothing (ζ < 1) the maxima approach 1
        asymptotically, so a tolerance is required in practice.
    gamma_window:
        The generic CE criterion (Fig. 2 step 4): stop when the elite
        threshold ``γ`` has been unchanged this many iterations. ``0``
        disables. This typically fires first on cost plateaus, bounding
        mapping time without hurting quality.
    elite_mode:
        ``"exact_k"`` (default) keeps exactly the ``⌈ρN⌉`` best samples;
        ``"threshold"`` keeps every sample with cost ≤ γ (the textbook
        rule, which over-weights tied duplicates late in a run).
    dedup:
        Collapse duplicate candidate rows (packed-int64 keys, falling back
        to ``np.unique`` along axis 0 for huge alphabets) before calling
        the objective, scattering the unique costs back via the inverse
        index. Exact — identical costs to the plain path —
        because the objective is required to be a pure row-wise function.
        Once ``P`` nears degeneracy most of the ``N`` samples coincide, so
        late iterations score a fraction of the batch. Disable for
        objectives with row-order-dependent or stateful semantics.
    max_iterations:
        Hard iteration budget (safety net; the adaptive criteria usually
        fire long before).
    track_matrices:
        Record a snapshot of the stochastic matrix every
        ``matrix_snapshot_every`` iterations (for Fig. 3 reproductions).
    matrix_snapshot_every:
        Snapshot stride when ``track_matrices`` is on.
    """

    n_samples: int
    rho: float = 0.05
    zeta: float = 0.3
    stability_window: int = 5
    stability_tol: float = 1e-6
    gamma_window: int = 12
    elite_mode: str = "exact_k"
    dedup: bool = True
    max_iterations: int = 500
    track_matrices: bool = False
    matrix_snapshot_every: int = 1

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ConfigurationError(f"n_samples must be >= 2, got {self.n_samples}")
        check_in_range("rho", self.rho, 0.0, 1.0, inclusive=(False, False))
        check_in_range("zeta", self.zeta, 0.0, 1.0, inclusive=(False, True))
        if self.stability_window < 0:
            raise ConfigurationError(
                f"stability_window must be >= 0, got {self.stability_window}"
            )
        if self.stability_tol < 0:
            raise ConfigurationError(f"stability_tol must be >= 0, got {self.stability_tol}")
        if self.gamma_window < 0:
            raise ConfigurationError(f"gamma_window must be >= 0, got {self.gamma_window}")
        if self.elite_mode not in ("exact_k", "threshold"):
            raise ConfigurationError(
                f"elite_mode must be 'exact_k' or 'threshold', got {self.elite_mode!r}"
            )
        if self.max_iterations < 1:
            raise ConfigurationError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.matrix_snapshot_every < 1:
            raise ConfigurationError(
                f"matrix_snapshot_every must be >= 1, got {self.matrix_snapshot_every}"
            )


@dataclass
class CEResult:
    """Outcome of a CE run, including per-iteration diagnostics.

    ``n_evaluations`` counts logical candidates (``N`` per iteration; in
    an iteration a capped budget cuts, only the candidates that got a
    cost); ``n_unique_evaluations`` counts the rows actually scored after
    duplicate collapse — the gap is the work dedup-aware scoring saved.
    """

    best_assignment: np.ndarray
    best_cost: float
    n_iterations: int
    n_evaluations: int
    stop_reason: str
    stop_kind: StopKind = StopKind.NOT_RUN
    n_unique_evaluations: int = 0
    gamma_history: list[float] = field(default_factory=list)
    best_cost_history: list[float] = field(default_factory=list)
    degeneracy_history: list[float] = field(default_factory=list)
    entropy_history: list[float] = field(default_factory=list)
    dedup_rate_history: list[float] = field(default_factory=list)
    matrix_history: list[np.ndarray] = field(default_factory=list, repr=False)
    final_matrix: np.ndarray | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        """True when an adaptive rule (not a budget or external stop) fired."""
        return self.stop_kind not in (
            StopKind.BUDGET,
            StopKind.NOT_RUN,
            StopKind.EXTERNAL,
        )

    @property
    def dedup_collapse_rate(self) -> float:
        """Overall fraction of candidate rows collapsed as duplicates."""
        if self.n_evaluations <= 0:
            return 0.0
        return 1.0 - self.n_unique_evaluations / self.n_evaluations


@dataclass
class MultiChainResult:
    """Outcome of a joint multi-chain run.

    ``chains[r]`` is a full per-chain :class:`CEResult`, field-for-field
    equal (histories included) to what a one-chain run with the same seed
    would have produced — except the dedup diagnostics, which for a joint
    run live here: duplicates are collapsed across *all* live chains at
    once, so the collapse rate is a property of the joint batch, not of
    any one chain.
    """

    chains: list[CEResult]
    n_joint_iterations: int
    n_evaluations: int
    n_unique_evaluations: int
    dedup_rate_history: list[float] = field(default_factory=list)

    @property
    def n_chains(self) -> int:
        """Number of chains advanced."""
        return len(self.chains)

    @property
    def best_index(self) -> int:
        """Index of the chain holding the overall best mapping."""
        return int(np.argmin([c.best_cost for c in self.chains]))

    @property
    def best(self) -> CEResult:
        """The chain result with the lowest best cost."""
        return self.chains[self.best_index]

    @property
    def dedup_collapse_rate(self) -> float:
        """Overall fraction of candidate rows collapsed as duplicates."""
        if self.n_evaluations <= 0:
            return 0.0
        return 1.0 - self.n_unique_evaluations / self.n_evaluations


#: Stop codes of :meth:`_StopTracker.update`, in firing priority.
_STOP_KINDS = (
    None,
    StopKind.BUDGET,
    StopKind.ROW_MAXIMA_STABLE,
    StopKind.GAMMA_STAGNATION,
    StopKind.DEGENERATE,
)


class _StopTracker:
    """The stopping rules of R chains, as array counters.

    * iteration cap: ``max_iterations`` iterations done;
    * Eq. (12): the row maxima moved by at most ``stability_tol`` for
      ``stability_window`` consecutive iterations;
    * Fig. 2 step 4: the elite threshold γ moved by at most ``GAMMA_TOL``
      for ``gamma_window`` consecutive iterations;
    * degeneracy: every row maximum is within ``DEGENERACY_TOL`` of 1.

    A counter resets on any larger change, the first iteration has
    nothing to compare with (its "previous" values are NaN, which compare
    unequal to everything), and a window of 0 disables its rule (its
    counter is not kept). Enabled counters advance every iteration,
    whichever rule fires. When several rules fire at once the kind
    reported follows the order above.
    """

    GAMMA_TOL = 1e-9
    DEGENERACY_TOL = 1e-6

    def __init__(self, config: CEConfig, n_chains: int, n_rows: int) -> None:
        self.config = config
        # Counters of disabled rules stay empty: they are never read.
        n_rm = n_chains if config.stability_window > 0 else 0
        n_g = n_chains if config.gamma_window > 0 else 0
        self.rm_prev = np.full((n_rm, n_rows), np.nan)
        self.rm_stable = np.zeros(n_rm, dtype=np.int64)
        self.g_prev = np.full(n_g, np.nan)
        self.g_stable = np.zeros(n_g, dtype=np.int64)

    def update(
        self, chains: slice | np.ndarray, k: int, mu: np.ndarray, gammas: np.ndarray
    ) -> np.ndarray:
        """Advance ``chains`` past iteration ``k``; return a stop code each.

        ``mu`` holds the chains' row maxima ``(L, n_rows)`` and ``gammas``
        their elite thresholds; code 0 means keep going, otherwise the code
        indexes :data:`_STOP_KINDS`.
        """
        cfg = self.config
        # Lowest priority first, so a higher-priority rule overwrites.
        codes = 4 * (mu >= 1.0 - self.DEGENERACY_TOL).all(axis=1)
        if cfg.gamma_window > 0:
            g_stable = (self.g_stable[chains] + 1) * (
                np.abs(gammas - self.g_prev[chains]) <= self.GAMMA_TOL
            )
            self.g_stable[chains] = g_stable
            self.g_prev[chains] = gammas
            codes[g_stable >= cfg.gamma_window] = 3
        if cfg.stability_window > 0:
            rm_stable = (self.rm_stable[chains] + 1) * (
                np.abs(mu - self.rm_prev[chains]).max(axis=1) <= cfg.stability_tol
            )
            self.rm_stable[chains] = rm_stable
            self.rm_prev[chains] = mu
            codes[rm_stable >= cfg.stability_window] = 2
        if k >= cfg.max_iterations:
            codes[:] = 1
        return codes

    def reason(self, kind: StopKind) -> str:
        """The human-readable ``stop_reason`` of a fired rule."""
        cfg = self.config
        if kind is StopKind.BUDGET:
            return f"iteration budget of {cfg.max_iterations} exhausted"
        if kind is StopKind.ROW_MAXIMA_STABLE:
            return f"row maxima stable for {cfg.stability_window} iterations (Eq. 12)"
        if kind is StopKind.GAMMA_STAGNATION:
            return f"elite threshold gamma stagnant for {cfg.gamma_window} iterations"
        return "stochastic matrix degenerate"

    # -- checkpoint support --------------------------------------------------
    def export(self, r: int) -> list[dict]:
        """Chain ``r``'s counters as the checkpoint's positional ``members``.

        One entry per rule in priority order: the iteration cap, Eq. (12)
        and γ (each only when its window is on), degeneracy. The two
        stateless rules export ``{}``. This is the shape every
        ``repro-checkpoint/1`` MaTCH file carries.
        """
        cfg = self.config
        members: list[dict] = [{}]
        if cfg.stability_window > 0:
            rm_prev = self.rm_prev[r]
            members.append(
                {
                    "prev": None if np.isnan(rm_prev[0]) else rm_prev.tolist(),
                    "stable": int(self.rm_stable[r]),
                }
            )
        if cfg.gamma_window > 0:
            g_prev = float(self.g_prev[r])
            members.append(
                {
                    "prev": None if np.isnan(g_prev) else g_prev,
                    "stable": int(self.g_stable[r]),
                }
            )
        members.append({})
        return members

    def restore(self, r: int, members: list[dict]) -> None:
        """Rebuild chain ``r``'s counters from :meth:`export` output."""
        cfg = self.config
        expected = 2 + (cfg.stability_window > 0) + (cfg.gamma_window > 0)
        if len(members) != expected:
            raise ConfigurationError(
                f"stopping state has {len(members)} members, "
                f"expected {expected} — config mismatch on resume"
            )
        rest = iter(members[1:-1])
        if cfg.stability_window > 0:
            member = next(rest)
            prev = member.get("prev")
            self.rm_prev[r] = np.nan if prev is None else prev
            self.rm_stable[r] = int(member.get("stable", 0))
        if cfg.gamma_window > 0:
            member = next(rest)
            prev = member.get("prev")
            self.g_prev[r] = np.nan if prev is None else float(prev)
            self.g_stable[r] = int(member.get("stable", 0))


class MultiChainCE:
    """Advance ``R`` independent CE chains through one batched loop.

    Parameters
    ----------
    objective:
        Pure batch objective ``(M, n_rows) -> (M,)`` costs (minimized).
        One call scores the concatenated candidates of every live chain.
    n_rows, n_cols:
        Shape of each chain's stochastic matrix (``n_rows <= n_cols``);
        every chain starts uniform.
    config:
        Shared hyper-parameters (every chain runs the same config, as the
        paper's repetition protocols do).
    seeds:
        One seed-like per chain; chain ``r`` consumes exactly the random
        stream a one-chain run seeded with ``seeds[r]`` would. A
        ``Generator`` is used as is and advanced in place.
    """

    def __init__(
        self,
        objective: BatchObjectiveFn,
        n_rows: int,
        n_cols: int,
        config: CEConfig,
        *,
        seeds: Sequence[SeedLike],
    ) -> None:
        if n_rows < 1 or n_cols < 1:
            raise ConfigurationError(f"matrix dims must be >= 1, got ({n_rows}, {n_cols})")
        if len(seeds) < 1:
            raise ConfigurationError("need at least one chain seed")
        if n_rows > n_cols:
            raise ConfigurationError(
                "permutation sampling requires n_rows <= n_cols "
                f"(got {n_rows} tasks, {n_cols} resources)"
            )
        self.objective = objective
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.config = config
        self._gens = [as_generator(s) for s in seeds]
        self.n_chains = len(self._gens)
        self._select = select_top_k if config.elite_mode == "exact_k" else select_elites
        self.budget = EvaluationBudget()
        self._started = False

    def bind_budget(self, budget: EvaluationBudget) -> None:
        """Swap in the shared budget all freshly scored rows are charged against."""
        self.budget = budget

    # -- scoring ---------------------------------------------------------------
    def _objective_rows(self, rows: np.ndarray) -> np.ndarray:
        """Score ``rows`` with the objective and charge them to the budget."""
        costs = np.asarray(self.objective(rows), dtype=np.float64)
        if costs.shape != (rows.shape[0],):
            raise ConfigurationError(
                f"objective returned shape {costs.shape}, expected ({rows.shape[0]},)"
            )
        self.budget.charge(rows.shape[0])
        return costs

    def _score_joint(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Score the concatenated live batch, collapsing cross-chain duplicates.

        With ``dedup`` on, only the unique rows of the joint batch reach
        the objective (near-degenerate chains, and chains that have
        converged to the same mapping, share scores). A capped budget
        scores only the affordable prefix of those rows (in lexicographic
        row order under dedup). Returns the costs and a mask of the rows
        the budget could not afford (``None`` when every row got a cost).
        """
        joint = self._joint
        M = flat.shape[0]
        if self.config.dedup:
            rows, inverse = collapse_duplicate_rows(flat, self.n_cols)
        else:
            rows, inverse = flat, None
        n_rows = rows.shape[0]
        n_score = self.budget.clamp_batch(n_rows)
        costs = np.full(n_rows, np.inf)
        if n_score:
            costs[:n_score] = self._objective_rows(rows[:n_score])
        joint.n_unique_evaluations += n_score
        unscored = None
        if inverse is None:
            if n_score < M:
                unscored = np.arange(M) >= n_score
            return costs, unscored
        joint.dedup_rate_history.append(1.0 - n_score / M)
        if n_score < n_rows:
            unscored = inverse >= n_score
        return costs[inverse], unscored

    # -- the joint loop ---------------------------------------------------------
    def start(self) -> None:
        """Allocate joint live state for a fresh run; pairs with step/finalize."""
        cfg = self.config
        R = self.n_chains
        n_t, n_r = self.n_rows, self.n_cols
        self._P = np.full((R, n_t, n_r), 1.0 / n_r)
        self._best_costs = np.full(R, np.inf)
        self._best_xs = [np.zeros(n_t, dtype=np.int64) for _ in range(R)]
        self._n_evals = np.zeros(R, dtype=np.int64)
        self._chain_results = [
            CEResult(
                best_assignment=self._best_xs[r],
                best_cost=np.inf,
                n_iterations=0,
                n_evaluations=0,
                stop_reason="not run",
            )
            for r in range(R)
        ]
        self._joint = MultiChainResult(
            chains=self._chain_results,
            n_joint_iterations=0,
            n_evaluations=0,
            n_unique_evaluations=0,
        )
        self._live = list(range(R))
        self._k = 0
        # Per-chain gamma / best-cost / degeneracy / entropy rows, filled
        # each iteration and sliced into the CEResult lists when a chain
        # stops.
        self._hist = np.empty((4, R, cfg.max_iterations))
        self._stops = _StopTracker(cfg, R, n_t)
        self._started = True

    @property
    def finished(self) -> bool:
        """True once every chain has stopped (or the iteration cap is hit)."""
        return self._started and (
            not self._live or self._k >= self.config.max_iterations
        )

    @property
    def iteration(self) -> int:
        """Completed joint iterations of the current run."""
        return self._k

    @property
    def best_cost(self) -> float:
        """Lowest incumbent cost across all chains."""
        return float(np.min(self._best_costs)) if self._started else float("inf")

    @property
    def n_live(self) -> int:
        """Chains still advancing."""
        return len(self._live) if self._started else 0

    def step(self) -> bool:
        """One joint iteration over every live chain; True if any chain improved."""
        return ce_iteration(self)

    def note_external_stop(self, reason: str) -> None:
        """Freeze every still-live chain with an EXTERNAL stop (budget/interrupt)."""
        if not self._started:
            return
        self._retire(self._live, StopKind.EXTERNAL, reason)

    def finalize(self) -> MultiChainResult:
        """Freeze any leftover live chains and return the joint result."""
        if not self._started:
            raise ConfigurationError("finalize() before start()")
        # The iteration cap bounds the loop, so every chain has stopped by
        # now whenever step() ran to completion; this is a safety net for
        # external termination between steps.
        self._retire(self._live, StopKind.BUDGET, "iteration budget exhausted")
        return self._joint

    def run(self) -> MultiChainResult:
        """Advance every chain to its own stopping point; return all results."""
        self.start()
        while not self.finished:
            self.step()
        return self.finalize()

    def _retire(self, chains: Sequence[int], kind: StopKind, reason: str) -> None:
        """Stop ``chains`` with ``kind`` and freeze their results."""
        for r in chains:
            res = self._chain_results[r]
            res.stop_kind = kind
            res.stop_reason = reason
            self._finalize_chain(r)
        if len(chains) == len(self._live):
            self._live = []
        else:
            gone = set(chains)
            self._live = [r for r in self._live if r not in gone]

    def _finalize_chain(self, r: int) -> None:
        """Freeze chain ``r``'s result as of the current iteration."""
        n_iter = self._k
        res = self._chain_results[r]
        gh, bh, dh, eh = self._hist[:, r, :n_iter]
        res.n_iterations = n_iter
        res.n_evaluations = int(self._n_evals[r])
        res.gamma_history = gh.tolist()
        res.best_cost_history = bh.tolist()
        res.degeneracy_history = dh.tolist()
        res.entropy_history = eh.tolist()
        res.best_assignment = self._best_xs[r]
        res.best_cost = float(self._best_costs[r])
        res.final_matrix = self._P[r].copy()
        if self.config.track_matrices and (
            not res.matrix_history
            or not np.array_equal(res.matrix_history[-1], res.final_matrix)
        ):
            res.matrix_history.append(res.final_matrix)


def iterate_once(
    objective: BatchObjectiveFn,
    matrix: np.ndarray,
    rng: np.random.Generator,
    config: CEConfig,
) -> tuple[np.ndarray, float, np.ndarray, float]:
    """One :func:`ce_iteration` of a one-chain engine on ``matrix`` and ``rng``.

    The island agent round: the chain resumes from the agent's current
    (gossip-blended) matrix instead of the uniform start. Advances ``rng``;
    returns the updated matrix and the iteration's best cost, best
    assignment and elite threshold γ.
    """
    engine = MultiChainCE(objective, *matrix.shape, config, seeds=[rng])
    engine.start()
    engine._P[0] = matrix
    ce_iteration(engine)
    return (
        engine._P[0],
        float(engine._best_costs[0]),
        engine._best_xs[0],
        float(engine._hist[0, 0, 0]),
    )


def ce_iteration(engine: MultiChainCE) -> bool:
    """The CE iteration (Fig. 5 steps 2-7) over every live chain of ``engine``.

    The one body every engine runs (see the module docstring); returns
    True if any chain improved its incumbent.
    """
    if not engine._started:
        raise ConfigurationError("call start() before step()")
    if not engine._live:
        return False  # every chain has stopped: nothing to advance
    if engine.budget.evaluations_remaining() < 1:
        # Only reachable when stepped without a budget-checking loop; record
        # a clean external stop instead of sampling rows nobody can score.
        engine.note_external_stop("evaluation budget exhausted before sampling")
        return False
    cfg = engine.config
    N = cfg.n_samples
    n_t = engine.n_rows
    P = engine._P
    live = engine._live
    la = np.asarray(live, dtype=np.int64)
    L = len(live)
    # While every chain is live (always, for one chain) a slice selects
    # them as views instead of fancy-index copies.
    rows = slice(None) if L == engine.n_chains else la
    best_costs = engine._best_costs
    joint = engine._joint
    k = engine._k + 1
    engine._k = k
    joint.n_joint_iterations = k

    # 1. Sample all live chains. Each chain draws from its own generator
    #    in the exact order a sequential GenPerm call would: one flat fill
    #    per chain covers both the order keys and the roulette uniforms
    #    (PCG64 fills doubles sequentially, so a single (2·N·n_t,) draw is
    #    stream-identical to the two separate draws).
    buf = np.empty((L, 2 * N * n_t))
    for j, r in enumerate(live):
        engine._gens[r].random(out=buf[j])
    rand_orders = buf[:, : N * n_t].reshape(L, N, n_t)
    rand_pos = buf[:, N * n_t :].reshape(L, n_t, N)
    Xs = sample_permutations_stacked(P[rows], rand_orders, rand_pos)

    # 2. One fused scoring call over every live chain's candidates.
    flat_costs, unscored = engine._score_joint(Xs.reshape(L * N, n_t))
    costs = flat_costs.reshape(L, N)
    if unscored is None:
        engine._n_evals[rows] += N
        joint.n_evaluations += L * N
    else:
        evaluated = N - unscored.reshape(L, N).sum(axis=1)
        engine._n_evals[rows] += evaluated
        joint.n_evaluations += int(evaluated.sum())

    # 3. Per-chain elite selection and best tracking. The exact-k mode is
    #    batched: one row-wise argpartition replaces L select_top_k calls
    #    (same partition kernel per row, so the elite sets and gammas match
    #    the per-chain path exactly; the per-call NaN validation is skipped
    #    on this hot path).
    chain_ix = np.arange(L)[:, np.newaxis]
    if engine._select is select_top_k:
        k_elite = max(1, int(np.ceil(cfg.rho * N)))
        elite_idx2 = np.argpartition(costs, k_elite - 1, axis=1)[:, :k_elite]
        gammas = costs[chain_ix, elite_idx2].max(axis=1)
        elites_flat = Xs[chain_ix, elite_idx2].reshape(L * k_elite, n_t)
        elite_sizes = np.full(L, k_elite, dtype=np.int64)
    else:
        gammas = np.empty(L)
        elite_chunks: list[np.ndarray] = []
        elite_sizes = np.empty(L, dtype=np.int64)
        for j in range(L):
            gamma, elite_idx = engine._select(costs[j], cfg.rho)
            gammas[j] = gamma
            elite_chunks.append(Xs[j][elite_idx])
            elite_sizes[j] = elite_idx.shape[0]
        elites_flat = np.concatenate(elite_chunks)
    iter_best = costs.argmin(axis=1)
    iter_best_costs = costs[chain_ix[:, 0], iter_best]
    improved = np.nonzero(iter_best_costs < best_costs[rows])[0]
    if improved.size:
        best_costs[la[improved]] = iter_best_costs[improved]
        for j in improved:
            engine._best_xs[live[j]] = Xs[j, iter_best[j]].copy()

    # 4. Stacked Eq. (11)+(13) update — one bincount for all chains.
    P_live = stacked_elite_update(P[rows], elites_flat, elite_sizes, zeta=cfg.zeta)
    P[rows] = P_live

    # 5. Vectorized per-chain diagnostics on the updated tensor (a sum
    #    over n_t divided by n_t is np.mean's own arithmetic).
    mu = P_live.max(axis=2)  # (L, n_rows) row maxima, Eq. (12)
    positive = P_live > 0
    logs = np.log(P_live, out=np.zeros_like(P_live), where=positive)
    ent_terms = np.where(positive, -P_live * logs, 0.0)
    hist = engine._hist
    hist[0, rows, k - 1] = gammas
    hist[1, rows, k - 1] = best_costs[rows]
    hist[2, rows, k - 1] = mu.sum(axis=1) / n_t
    hist[3, rows, k - 1] = ent_terms.sum(axis=2).sum(axis=1) / n_t
    if cfg.track_matrices and (k - 1) % cfg.matrix_snapshot_every == 0:
        for r in live:
            engine._chain_results[r].matrix_history.append(P[r].copy())

    # 6. Stopping; the common mid-run case — nobody fires — is one branch.
    codes = engine._stops.update(rows, k, mu, gammas)
    if codes.any():
        stopped: dict[int, list[int]] = {}
        for j in np.flatnonzero(codes).tolist():
            stopped.setdefault(int(codes[j]), []).append(live[j])
        for code, chains in stopped.items():
            kind = _STOP_KINDS[code]
            assert kind is not None
            engine._retire(chains, kind, engine._stops.reason(kind))
    return bool(improved.size)
