"""The cross-entropy optimizer MaTCH runs (Fig. 2 / Fig. 5 steps 2-8).

:class:`CrossEntropyOptimizer` is one chain of the multi-chain engine: its
iteration is :func:`repro.ce.multichain.ce_iteration` — GenPerm sampling
over the task × resource stochastic matrix, dedup-aware scoring, elite
quantile, Eq. (11)/(13) matrix update, Eq. (12)/Fig. 2 stopping check —
run with R=1. It stays agnostic of the cost: the objective is a batch
function mapping an ``(N, n_rows)`` integer batch to ``(N,)`` costs —
lower is better. The engine minimizes.

What this class adds is the single-run surface: a :class:`CEResult`
instead of a joint result, and ``repro-checkpoint/1`` export/restore of
the live run.
"""

from __future__ import annotations

import numpy as np

# Re-exported for perfbench's layer wiring, which patches these names here;
# the iteration itself samples and collapses through repro.ce.multichain.
from repro.ce.genperm import sample_permutations as sample_permutations
from repro.ce.multichain import CEConfig, CEResult, MultiChainCE, ce_iteration
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError
from repro.runtime.budget import EvaluationBudget
from repro.types import BatchObjectiveFn, SeedLike
from repro.utils.dedup import collapse_duplicate_rows as collapse_duplicate_rows
from repro.utils.rng import as_generator, generator_from_state, generator_state

__all__ = ["CEConfig", "CEResult", "CrossEntropyOptimizer"]

#: The four per-iteration histories, in the engine's history-row order.
_HISTORIES = ("gamma_history", "best_cost_history", "degeneracy_history", "entropy_history")


class CrossEntropyOptimizer:
    """The CE engine: repeatedly sample, select elites, update, test stopping.

    Parameters
    ----------
    objective:
        Batch objective ``(N, n_rows) -> (N,)`` costs (minimized).
    n_rows, n_cols:
        Shape of the stochastic matrix (tasks × resources, ``n_rows <=
        n_cols``); it starts uniform.
    config:
        Hyper-parameters.
    rng:
        Seed or generator for the whole run.
    budget:
        Evaluation budget every scored row is charged against.
    """

    def __init__(
        self,
        objective: BatchObjectiveFn,
        n_rows: int,
        n_cols: int,
        config: CEConfig,
        *,
        rng: SeedLike = None,
        budget: "EvaluationBudget | None" = None,
    ) -> None:
        self.config = config
        self._engine = MultiChainCE(
            objective, n_rows, n_cols, config, seeds=[as_generator(rng)]
        )
        if budget is not None:
            self._engine.bind_budget(budget)

    @property
    def budget(self) -> EvaluationBudget:
        """The budget every freshly scored row is charged against."""
        return self._engine.budget

    def bind_budget(self, budget: "EvaluationBudget") -> None:
        """Swap in the shared budget all scored rows are charged against."""
        self._engine.bind_budget(budget)

    # -- stepwise protocol (driven by repro.runtime.SearchLoop) -----------------
    def start(self) -> None:
        """Reset live state for a fresh run; pairs with step/finalize."""
        self._engine.start()

    @property
    def finished(self) -> bool:
        """True once a stopping criterion (or an external stop) fired."""
        return self._engine.finished

    @property
    def iteration(self) -> int:
        """Completed CE iterations of the current run."""
        return self._engine.iteration

    @property
    def best_cost(self) -> float:
        """Incumbent best cost of the current run."""
        return self._engine.best_cost

    def step(self) -> bool:
        """One CE iteration (Fig. 5 steps 2-7); returns True on improvement.

        Under a capped budget the chain still draws its full ``N``; the
        fresh rows the budget cannot afford cost ``+inf`` and do not count
        toward ``n_evaluations`` (see the budget policy in
        :mod:`repro.ce.multichain`).
        """
        return ce_iteration(self._engine)

    def note_external_stop(self, reason: str) -> None:
        """Record that the surrounding loop ended the run (budget/interrupt)."""
        self._engine.note_external_stop(reason)

    def finalize(self) -> CEResult:
        """Freeze and return the result of the current run."""
        joint = self._engine.finalize()
        result = joint.chains[0]
        result.n_unique_evaluations = joint.n_unique_evaluations
        result.dedup_rate_history = list(joint.dedup_rate_history)
        return result

    def run(self) -> CEResult:
        """Execute the CE loop (Fig. 5 steps 2-8) and return the result.

        Equivalent to ``start()`` + ``step()`` until ``finished`` +
        ``finalize()`` — the stepwise protocol the solver runtime drives;
        this convenience keeps the one-call API. The iteration cap always
        applies, so the loop terminates.
        """
        self.start()
        while not self.finished:
            self.step()
        return self.finalize()

    # -- checkpoint support -----------------------------------------------------
    def export_state(self) -> dict:
        """JSON-able live run state: matrix, RNG position, histories, stopping.

        Restoring with :meth:`restore_state` on a freshly constructed
        optimizer (same config) resumes the run bit-for-bit: the next
        ``step()`` draws the exact samples the uninterrupted run would.
        """
        engine = self._engine
        if not engine._started:
            raise ConfigurationError("call start() before export_state()")
        k = engine.iteration
        best_cost = float(engine._best_costs[0])
        result = engine._chain_results[0]
        joint = engine._joint
        state: dict = {
            "k": k,
            "finished": not engine._live,
            "matrix": engine._P[0].tolist(),
            "rng": generator_state(engine._gens[0]),
            "best_cost": best_cost if np.isfinite(best_cost) else None,
            "best_x": engine._best_xs[0].tolist(),
            "stopping": {"members": engine._stops.export(0)},
            "result": {
                "n_evaluations": int(engine._n_evals[0]),
                "n_unique_evaluations": joint.n_unique_evaluations,
                "stop_reason": result.stop_reason,
                "stop_kind": result.stop_kind.value,
                "dedup_rate_history": list(joint.dedup_rate_history),
            },
        }
        for row, name in enumerate(_HISTORIES):
            state["result"][name] = engine._hist[row, 0, :k].tolist()
        if self.config.track_matrices:
            state["matrix_history"] = [m.tolist() for m in result.matrix_history]
        return state

    def restore_state(self, state: dict) -> None:
        """Resume mid-run from :meth:`export_state` output (same config)."""
        engine = self._engine
        engine.start()
        k = int(state["k"])
        engine._k = k
        engine._P[0] = np.asarray(state["matrix"], dtype=np.float64)
        engine._gens[0] = generator_from_state(state["rng"])
        best_cost = state.get("best_cost")
        engine._best_costs[0] = np.inf if best_cost is None else float(best_cost)
        engine._best_xs[0] = np.asarray(state["best_x"], dtype=np.int64)
        engine._stops.restore(0, state["stopping"].get("members", []))
        saved = state["result"]
        for row, name in enumerate(_HISTORIES):
            engine._hist[row, 0, :k] = saved[name]
        engine._n_evals[0] = int(saved["n_evaluations"])
        joint = engine._joint
        joint.n_joint_iterations = k
        joint.n_evaluations = int(saved["n_evaluations"])
        joint.n_unique_evaluations = int(saved["n_unique_evaluations"])
        joint.dedup_rate_history = [float(v) for v in saved["dedup_rate_history"]]
        result = engine._chain_results[0]
        if self.config.track_matrices and "matrix_history" in state:
            result.matrix_history = [
                np.asarray(m, dtype=np.float64) for m in state["matrix_history"]
            ]
        if state["finished"]:
            engine._retire([0], StopKind(saved["stop_kind"]), str(saved["stop_reason"]))
