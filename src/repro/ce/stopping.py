"""How a CE run ended: the :class:`StopKind` every result carries.

The rules themselves — the paper's Eq. (12) row-maxima stability, the
generic CE tutorial's elite-threshold stagnation (Fig. 2, step 4), full
degeneracy and the iteration cap — run as array counters inside the one
CE iteration (:class:`repro.ce.multichain._StopTracker`).
"""

from __future__ import annotations

import enum

__all__ = ["StopKind"]


class StopKind(enum.Enum):
    """Structured identity of the rule that ended a CE run.

    ``CEResult.converged`` and friends branch on this enum instead of
    string-matching ``stop_reason`` (which is free-form human text).
    ``BUDGET`` is the only non-adaptive kind: a run that stops for any
    other reason counted as converged.
    """

    NOT_RUN = "not_run"
    BUDGET = "budget"
    ROW_MAXIMA_STABLE = "row_maxima_stable"
    GAMMA_STAGNATION = "gamma_stagnation"
    DEGENERATE = "degenerate"
    CUSTOM = "custom"
    #: The run was ended from outside the CE engine — an
    #: :class:`repro.runtime.budget.EvaluationBudget` limit or an
    #: interrupt in the surrounding :class:`repro.runtime.loop.SearchLoop`.
    EXTERNAL = "external"
