"""Record a mid-run MaTCH checkpoint (`match_checkpoint_v1.json`).

The file is a ``repro-checkpoint/1`` payload written by an older version
of the CE engine: the golden n=10 problem (the first n=10 pair of the
seed-2005 suite), the ``MaTCH`` golden params, seed 3, killed by a hook
after 28 iterations — six iterations into the γ-stagnation streak that
ends the run at 34, so the resume must restore the stop counters too.
``tests/runtime/test_checkpoint_resume.py`` resumes it with the current
code and requires the uninterrupted golden result (``golden_solvers.json``,
MaTCH, seed 3), so a change to the checkpoint layout that older files can
no longer resume fails the suite.

The committed file was produced from the tree *before* the single-chain
optimizer became a one-chain run of the multi-chain step (its stopping
entry is the positional ``members`` list of the old ``AnyOf`` criterion
set). Re-recording it with newer code would only test the new code
against itself; do so only if the checkpoint format version changes.

Usage::

    PYTHONPATH=<tree>/src python tests/fixtures/record_match_checkpoint.py
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.suite import build_suite
from repro.runtime import CheckpointWriter, SearchHooks, create_mapper

PARAMS = {"max_iterations": 80}
SEED = 3
KILL_AFTER = 28

OUT = Path(__file__).parent / "match_checkpoint_v1.json"


class _KillAfter(SearchHooks):
    def on_iteration(self, solver, report) -> None:
        if report.iteration + 1 >= KILL_AFTER:
            raise KeyboardInterrupt


def main() -> None:
    problem = build_suite((10,), 1, seed=2005)[10][0].problem
    writer = CheckpointWriter(
        OUT, solver_name="match", params=PARAMS, problem=problem, seed=SEED, every=1
    )
    try:
        create_mapper("match", PARAMS).map(
            problem, SEED, hooks=_KillAfter(), checkpointer=writer
        )
    except KeyboardInterrupt:
        print(f"wrote {OUT}")
    else:
        raise SystemExit("the run finished before the kill point")


if __name__ == "__main__":
    main()
