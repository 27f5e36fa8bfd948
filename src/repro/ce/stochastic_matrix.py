"""The stochastic matrix parameterizing the CE sampling distribution (§4).

``P[i, j]`` is the probability that task ``i`` is mapped to resource ``j``.
The matrix starts uniform (``1/|V_r|`` everywhere, the paper's
initialization), evolves through elite-count updates (Eq. (11)) optionally
smoothed (Eq. (13)), and — when the method converges — degenerates to a
0/1 permutation-like matrix (Fig. 3).

:class:`StochasticMatrix` owns the numeric invariants (rows sum to one,
entries non-negative) and the diagnostics the paper uses: per-row maxima
``μ_k^i`` (the convergence signal of Eq. (12)), entropy, and the degeneracy
fraction rendered in Fig. 3.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ValidationError
from repro.types import AssignmentBatch, ProbabilityMatrix
from repro.utils.validation import check_probability_matrix

__all__ = ["StochasticMatrix", "elite_counts_update", "stacked_elite_update"]


def elite_counts_update(
    elites: AssignmentBatch, n_rows: int, n_cols: int
) -> ProbabilityMatrix:
    """Eq. (11): the maximum-likelihood stochastic matrix of an elite batch.

    ``Q[i, j]`` = fraction of elite samples assigning task ``i`` to
    resource ``j``. Rows sum to one by construction.
    """
    E = np.asarray(elites, dtype=np.int64)
    if E.ndim != 2 or E.shape[1] != n_rows:
        raise ValidationError(f"elites must have shape (M, {n_rows}), got {E.shape}")
    if E.shape[0] == 0:
        raise ValidationError("elite set is empty; cannot update")
    if E.min() < 0 or E.max() >= n_cols:
        raise ValidationError(f"elite values must be in [0, {n_cols - 1}]")
    M = E.shape[0]
    rows = np.broadcast_to(np.arange(n_rows, dtype=np.int64), E.shape)
    flat = rows.ravel() * n_cols + E.ravel()
    counts = np.bincount(flat, minlength=n_rows * n_cols).reshape(n_rows, n_cols)
    return counts.astype(np.float64) / M


def stacked_elite_update(
    P_stack: np.ndarray,
    elites: AssignmentBatch,
    chain_sizes: np.ndarray,
    *,
    zeta: float = 1.0,
) -> np.ndarray:
    """Eq. (11) + (13) for ``R`` chains at once, via one ``bincount``.

    Parameters
    ----------
    P_stack:
        ``(R, n_rows, n_cols)`` current matrices, one per chain.
    elites:
        ``(M_total, n_rows)`` concatenation of every chain's elite batch,
        in chain order.
    chain_sizes:
        ``(R,)`` elite counts per chain (``sum == M_total``; every entry
        must be >= 1).
    zeta:
        Eq. (13) smoothing factor.

    Returns
    -------
    ``(R, n_rows, n_cols)`` updated, renormalized stack. Chain ``r``'s
    slice is bit-identical to
    ``StochasticMatrix(P_stack[r]).update_from_elites(chunk_r, zeta=zeta)``
    — the counts, the ``/M`` division, the smoothing blend and the row
    renormalization are the same elementwise float operations.
    """
    if not 0.0 < zeta <= 1.0:
        raise ValidationError(f"zeta must be in (0, 1], got {zeta}")
    P_stack = np.asarray(P_stack, dtype=np.float64)
    if P_stack.ndim != 3:
        raise ValidationError(f"P_stack must be 3-D, got shape {P_stack.shape}")
    R, n_rows, n_cols = P_stack.shape
    E = np.asarray(elites, dtype=np.int64)
    sizes = np.asarray(chain_sizes, dtype=np.int64)
    if sizes.shape != (R,) or np.any(sizes < 1):
        raise ValidationError(f"chain_sizes must be (R,) with positive entries, got {sizes}")
    n_elites = int(sizes.sum())
    if E.ndim != 2 or E.shape != (n_elites, n_rows):
        raise ValidationError(f"elites must have shape ({n_elites}, {n_rows}), got {E.shape}")
    if E.min() < 0 or E.max() >= n_cols:
        raise ValidationError(f"elite values must be in [0, {n_cols - 1}]")
    # Cell (chain c, row i, column E[e, i]) of the flattened count tensor.
    chain_base = np.repeat(np.arange(0, R * n_rows * n_cols, n_rows * n_cols), sizes)
    flat = (E + np.arange(0, n_rows * n_cols, n_cols) + chain_base[:, np.newaxis]).ravel()
    counts = np.bincount(flat, minlength=R * n_rows * n_cols).reshape(R, n_rows, n_cols)
    Q = counts.astype(np.float64) / sizes[:, np.newaxis, np.newaxis]
    P_new = zeta * Q + (1.0 - zeta) * P_stack
    P_new /= P_new.sum(axis=2, keepdims=True)
    return P_new


class StochasticMatrix:
    """A mutable row-stochastic matrix with CE-specific operations."""

    __slots__ = ("_P",)

    def __init__(self, matrix: ProbabilityMatrix) -> None:
        self._P = check_probability_matrix(matrix).copy()

    # -- constructors ---------------------------------------------------------
    @classmethod
    def uniform(cls, n_rows: int, n_cols: int) -> "StochasticMatrix":
        """The paper's ``P_0``: every entry ``1 / n_cols``."""
        if n_rows < 1 or n_cols < 1:
            raise ValidationError(f"matrix dims must be >= 1, got ({n_rows}, {n_cols})")
        return cls(np.full((n_rows, n_cols), 1.0 / n_cols))

    @classmethod
    def degenerate_from_assignment(cls, assignment, n_cols: int) -> "StochasticMatrix":
        """A 0/1 matrix putting all mass of row ``i`` on ``assignment[i]``."""
        a = np.asarray(assignment, dtype=np.int64)
        P = np.zeros((a.shape[0], n_cols))
        P[np.arange(a.shape[0]), a] = 1.0
        return cls(P)

    # -- access ----------------------------------------------------------------
    @property
    def values(self) -> np.ndarray:
        """Copy of the underlying ``(n_rows, n_cols)`` array."""
        return self._P.copy()

    @property
    def shape(self) -> tuple[int, int]:
        """Matrix shape ``(n_rows, n_cols)``."""
        return self._P.shape  # type: ignore[return-value]

    @property
    def n_rows(self) -> int:
        return self._P.shape[0]

    @property
    def n_cols(self) -> int:
        return self._P.shape[1]

    def view(self) -> np.ndarray:
        """Read-only *view* (no copy) for hot sampling loops."""
        v = self._P.view()
        v.setflags(write=False)
        return v

    # -- CE updates -----------------------------------------------------------------
    def update_from_elites(self, elites: AssignmentBatch, *, zeta: float = 1.0) -> None:
        """Apply Eq. (11) with smoothing Eq. (13).

        ``zeta = 1`` is the unsmoothed (coarse) update; the paper runs with
        ``zeta = 0.3`` to avoid premature convergence.
        """
        if not 0.0 < zeta <= 1.0:
            raise ValidationError(f"zeta must be in (0, 1], got {zeta}")
        Q = elite_counts_update(elites, self.n_rows, self.n_cols)
        self._P = zeta * Q + (1.0 - zeta) * self._P
        # Guard accumulated float drift; rows remain stochastic exactly.
        self._P /= self._P.sum(axis=1, keepdims=True)

    # -- diagnostics ------------------------------------------------------------------
    def row_maxima(self) -> np.ndarray:
        """``μ^i``: maximal element of each row — Eq. (12)'s convergence signal."""
        return self._P.max(axis=1)

    def row_argmax(self) -> np.ndarray:
        """Most likely resource per task (the decoded mapping when degenerate)."""
        return self._P.argmax(axis=1)

    def entropy(self) -> float:
        """Mean Shannon entropy of the rows (nats); 0 when degenerate."""
        P = self._P
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(P > 0, -P * np.log(P), 0.0)
        return float(terms.sum(axis=1).mean())

    def degeneracy(self) -> float:
        """Mean row maximum in [1/n_cols, 1]; 1.0 when fully degenerate (Fig. 3)."""
        return float(self.row_maxima().mean())

    def is_degenerate(self, *, tol: float = 1e-9) -> bool:
        """True iff every row has all mass (within ``tol``) on one column."""
        return bool(np.all(self.row_maxima() >= 1.0 - tol))

    def copy(self) -> "StochasticMatrix":
        """Deep copy."""
        return StochasticMatrix(self._P)

    def __repr__(self) -> str:
        return (
            f"StochasticMatrix(shape={self.shape}, degeneracy={self.degeneracy():.3f}, "
            f"entropy={self.entropy():.3f})"
        )
