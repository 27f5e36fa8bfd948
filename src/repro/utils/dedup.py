"""Exact duplicate-row collapsing for batched scoring.

CE iterations re-draw many identical candidate mappings once the
stochastic matrix sharpens — scoring each copy repeats the same bincount
scatter-adds. :func:`collapse_duplicate_rows` finds the unique rows of an
integer assignment batch and the inverse map that reinflates per-unique
costs back to the full batch. Because every objective in this repo is a
pure row-wise function, scoring the unique rows and gathering through the
inverse is *exact* — bit-identical to scoring the full batch.

The collapse is a kernel operation (DESIGN.md §11): it runs on the
process-active backend of :mod:`repro.kernels`. Both backends pack each
row by Horner's rule into order-preserving int64 key words
(:func:`pack_rows` when one word holds the whole row,
:func:`pack_rows_words` otherwise). The numpy backend dedups the keys
with :func:`numpy.unique` or one stable :func:`numpy.lexsort`; the C
backend merge-sorts them and writes the unique rows and the inverse
itself. Both return the unique rows in lexicographic row order with the
same inverse, so a caller that scores only a prefix of the unique rows
(a capped budget) scores the same rows under either backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.kernels.impl_numpy import pack_rows, pack_rows_words

__all__ = ["pack_rows", "pack_rows_words", "collapse_duplicate_rows", "DedupStats"]


def collapse_duplicate_rows(
    X: np.ndarray, n_symbols: int
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse duplicate rows of an integer batch.

    Parameters
    ----------
    X:
        ``(N, n_cols)`` integer batch with entries in ``[0, n_symbols)``.
    n_symbols:
        Alphabet size (number of resources); bounds the per-entry values
        and sets how many columns one packed key word holds. A
        one-symbol alphabet packs like a two-symbol one.

    Returns
    -------
    ``(unique_rows, inverse)`` where ``unique_rows`` is ``(U, n_cols)``
    and ``inverse`` is ``(N,)`` with ``unique_rows[inverse] == X``
    row-for-row; the unique rows come out in lexicographic row order.
    ``U == N`` when all rows are distinct.
    """
    return kernels.get_backend().collapse_rows(X, n_symbols)


@dataclass
class DedupStats:
    """Running counters for a dedup-aware scoring path.

    ``hit_rate`` is the fraction of scored rows that were duplicates of an
    earlier row in their batch — the work the collapse avoided.
    """

    calls: int = 0
    total_rows: int = 0
    unique_rows: int = 0
    #: Batches that skipped the collapse because they were too small for
    #: packing to pay (see ``CostModel.DEDUP_MIN_CELLS``). Kept separate
    #: from the collapse counters so ``hit_rate`` keeps meaning "fraction
    #: of *inspected* rows that were duplicates".
    bypassed_calls: int = 0
    bypassed_rows: int = 0
    _history: list[float] = field(default_factory=list, repr=False)

    def record(self, n_rows: int, n_unique: int) -> None:
        """Account one collapsed batch of ``n_rows`` rows, ``n_unique`` kept."""
        self.calls += 1
        self.total_rows += int(n_rows)
        self.unique_rows += int(n_unique)
        self._history.append(1.0 - n_unique / n_rows if n_rows else 0.0)

    def record_bypass(self, n_rows: int) -> None:
        """Account one batch scored without looking for duplicates."""
        self.bypassed_calls += 1
        self.bypassed_rows += int(n_rows)

    @property
    def hit_rate(self) -> float:
        """Overall duplicate fraction across every recorded batch."""
        if self.total_rows == 0:
            return 0.0
        return 1.0 - self.unique_rows / self.total_rows

    @property
    def per_call_rates(self) -> list[float]:
        """Collapse rate of each recorded batch, in call order."""
        return list(self._history)
