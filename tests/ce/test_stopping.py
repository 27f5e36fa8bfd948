"""Stopping rules of the one CE iteration (Eq. (12), Fig. 2 step 4, budgets).

The rules run as array counters inside :func:`repro.ce.multichain.ce_iteration`.
Most tests here feed chosen row maxima and elite thresholds through the
stop tracker of a started one-chain engine, so every counter transition
is pinned with exact inputs; the rest run whole one-chain engines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ce.multichain import MultiChainCE
from repro.ce.optimizer import CEConfig, CEResult, CrossEntropyOptimizer
from repro.ce.stopping import StopKind
from repro.exceptions import ConfigurationError

ROW = StopKind.ROW_MAXIMA_STABLE
GAMMA = StopKind.GAMMA_STAGNATION
BUDGET = StopKind.BUDGET
DEGENERATE = StopKind.DEGENERATE

#: Row maxima of a uniform 2 x 2 matrix, and of one that moved.
FLAT = [0.5, 0.5]
MOVED = [0.9, 0.5]


def config(**overrides) -> CEConfig:
    """Only the rules a test names are on (windows default to 0)."""
    base = dict(n_samples=10, stability_window=0, gamma_window=0, max_iterations=100)
    base.update(overrides)
    return CEConfig(**base)


def one_chain(cfg: CEConfig, n: int = 2) -> MultiChainCE:
    engine = MultiChainCE(lambda X: X.sum(axis=1).astype(float), n, n, cfg, seeds=[0])
    engine.start()
    return engine


def feed(cfg: CEConfig, steps, engine: MultiChainCE | None = None) -> list:
    """Stop kind (or None) after each ``(row maxima, gamma)`` step."""
    engine = engine if engine is not None else one_chain(cfg)
    kinds = []
    for mu, gamma in steps:
        engine._k += 1
        code = engine._stops.update(
            np.array([0]), engine._k, np.array([mu], dtype=float), np.array([gamma])
        )[0]
        kinds.append([None, BUDGET, ROW, GAMMA, DEGENERATE][code])
    return kinds


class TestRowMaximaStable:
    def test_fires_after_c_stable_iterations(self):
        kinds = feed(config(stability_window=3), [(FLAT, 1.0)] * 5)
        # the first iteration has no history; stability counts from the second
        assert kinds == [None, None, None, ROW, ROW]

    def test_counter_resets_on_change(self):
        steps = [(FLAT, 1.0), (FLAT, 1.0), (MOVED, 1.0), (MOVED, 1.0), (MOVED, 1.0)]
        assert feed(config(stability_window=2), steps) == [None, None, None, None, ROW]

    def test_tolerance(self):
        cfg = config(stability_window=1, stability_tol=1e-3)
        assert feed(cfg, [([0.9, 0.5], 1.0), ([0.9001, 0.5], 1.0)]) == [None, ROW]
        assert feed(cfg, [([0.9, 0.5], 1.0), ([0.902, 0.5], 1.0)]) == [None, None]

    def test_reset(self):
        cfg = config(stability_window=1)
        engine = one_chain(cfg)
        assert feed(cfg, [(FLAT, 1.0), (FLAT, 1.0)], engine) == [None, ROW]
        engine.start()  # a fresh run forgets the streak
        assert feed(cfg, [(FLAT, 1.0)], engine) == [None]

    def test_validation(self):
        with pytest.raises(ValueError):
            config(stability_window=-1)
        with pytest.raises(ValueError):
            config(stability_tol=-1)
        # window 0 switches the rule off, however long the maxima hold
        assert feed(config(stability_window=0), [(FLAT, 1.0)] * 6) == [None] * 6

    def test_reason(self):
        # A tolerance of 1 counts every change as "unchanged": Eq. (12)
        # fires on iteration 2 of a real one-chain run.
        cfg = config(stability_window=1, stability_tol=1.0)
        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float), 3, 3, cfg, rng=0
        ).run()
        assert result.stop_kind is ROW
        assert "Eq. 12" in result.stop_reason
        assert result.n_iterations == 2


class TestGammaStagnation:
    def test_fires_on_constant_gamma(self):
        kinds = feed(config(gamma_window=3), [(FLAT, 5.0)] * 5)
        assert kinds == [None, None, None, GAMMA, GAMMA]

    def test_resets_on_progress(self):
        steps = [(FLAT, 5.0), (FLAT, 5.0), (FLAT, 4.0), (FLAT, 4.0), (FLAT, 4.0)]
        assert feed(config(gamma_window=2), steps) == [None, None, None, None, GAMMA]

    @pytest.mark.parametrize(
        "delta,fires",
        [(0.0, True), (5e-10, True), (1e-9, True), (2e-9, False), (1e-3, False)],
    )
    def test_tolerance_is_1e_9(self, delta, fires):
        kinds = feed(config(gamma_window=1), [(FLAT, 0.0), (FLAT, delta)])
        assert kinds == [None, GAMMA if fires else None]

    def test_validation(self):
        with pytest.raises(ValueError):
            config(gamma_window=-1)
        assert feed(config(gamma_window=0), [(FLAT, 5.0)] * 6) == [None] * 6


class TestMaxIterations:
    def test_budget(self):
        assert feed(config(max_iterations=3), [(FLAT, 1.0)] * 3) == [None, None, BUDGET]

    def test_validation(self):
        with pytest.raises(ValueError):
            config(max_iterations=0)


class TestDegenerateMatrix:
    def test_fires_only_when_degenerate(self):
        steps = [(FLAT, 1.0), ([1.0, 1.0 - 1e-7], 1.0), ([1.0, 1.0 - 1e-5], 1.0)]
        assert feed(config(), steps) == [None, DEGENERATE, None]


class TestAnyOf:
    """The four rules as one set: every counter advances every iteration,
    and the highest-priority rule that fires names the stop."""

    def test_reports_firing_member(self):
        cfg = config(max_iterations=2, gamma_window=50)
        assert feed(cfg, [(FLAT, 1.0), (FLAT, 1.0)]) == [None, BUDGET]

    def test_all_members_updated_each_round(self):
        cfg = config(stability_window=50, gamma_window=50)
        engine = one_chain(cfg)
        feed(cfg, [(FLAT, 7.0)] * 4, engine)
        # both streaks stayed warm although neither rule fired
        assert engine._stops.rm_stable[0] == 3
        assert engine._stops.g_stable[0] == 3

    def test_reset_propagates(self):
        cfg = config(stability_window=50, gamma_window=50)
        engine = one_chain(cfg)
        feed(cfg, [(FLAT, 7.0)] * 4, engine)
        engine.start()
        assert engine._stops.rm_stable[0] == 0 and np.isnan(engine._stops.rm_prev[0]).all()
        assert engine._stops.g_stable[0] == 0 and np.isnan(engine._stops.g_prev[0])

    DEGENERATE_MU = [1.0, 1.0]

    @pytest.mark.parametrize(
        "overrides,expected",
        [
            (dict(max_iterations=2, stability_window=1, gamma_window=1), BUDGET),
            (dict(stability_window=1, gamma_window=1), ROW),
            (dict(gamma_window=1), GAMMA),
            (dict(), DEGENERATE),
        ],
        ids=["cap-over-all", "eq12-over-gamma", "gamma-over-degenerate", "degenerate"],
    )
    def test_priority(self, overrides, expected):
        # Degeneracy needs no history and fires on iteration 1; on
        # iteration 2 every enabled rule fires at once.
        kinds = feed(config(**overrides), [(self.DEGENERATE_MU, 3.0)] * 2)
        assert kinds == [DEGENERATE, expected]


class TestStopKind:
    def test_builtin_criteria_report_their_kind(self):
        rules = {
            BUDGET: (config(max_iterations=2), [(FLAT, 1.0)] * 2),
            ROW: (config(stability_window=1), [(FLAT, 1.0)] * 2),
            GAMMA: (config(gamma_window=1), [(FLAT, 1.0), (MOVED, 1.0)]),
            DEGENERATE: (config(), [(FLAT, 1.0), ([1.0, 1.0], 1.0)]),
        }
        for kind, (cfg, steps) in rules.items():
            assert feed(cfg, steps)[-1] is kind

    def test_anyof_kind_tracks_firing_member(self):
        optimizer = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float), 3, 3,
            CEConfig(n_samples=20, max_iterations=2, stability_window=50), rng=0,
        )
        optimizer.start()
        optimizer.step()
        assert not optimizer.finished
        optimizer.step()
        assert optimizer.finished
        assert optimizer.finalize().stop_kind is BUDGET

    def test_optimizer_budget_stop_is_not_converged(self):
        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=20, max_iterations=2, stability_window=50),
            rng=0,
        ).run()
        assert result.stop_kind == StopKind.BUDGET
        assert not result.converged

    def test_optimizer_adaptive_stop_is_converged(self):
        result = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float),
            3,
            3,
            CEConfig(n_samples=60, max_iterations=200),
            rng=0,
        ).run()
        assert result.stop_kind in (
            StopKind.ROW_MAXIMA_STABLE,
            StopKind.GAMMA_STAGNATION,
            StopKind.DEGENERATE,
        )
        assert result.converged

    def test_external_stop_is_not_converged(self):
        optimizer = CrossEntropyOptimizer(
            lambda X: X.sum(axis=1).astype(float), 3, 3, CEConfig(n_samples=20), rng=0
        )
        optimizer.start()
        optimizer.step()
        optimizer.note_external_stop("interrupted")
        result = optimizer.finalize()
        assert result.stop_kind is StopKind.EXTERNAL
        assert result.stop_reason == "interrupted"
        assert not result.converged

    @pytest.mark.parametrize("kind", list(StopKind))
    def test_converged_by_kind(self, kind):
        result = CEResult(
            best_assignment=np.zeros(2, dtype=np.int64),
            best_cost=0.0,
            n_iterations=1,
            n_evaluations=1,
            stop_reason="",
            stop_kind=kind,
        )
        adaptive = kind in (ROW, GAMMA, DEGENERATE, StopKind.CUSTOM)
        assert result.converged is adaptive


class TestFinishedEngine:
    def test_step_after_every_chain_stopped_is_a_no_op(self):
        engine = MultiChainCE(
            lambda X: X.sum(axis=1).astype(float), 3, 3, config(max_iterations=2),
            seeds=[1, 2],
        )
        result = engine.run()
        assert engine.finished
        assert engine.step() is False
        assert engine.iteration == 2
        assert all(chain.n_iterations == 2 for chain in result.chains)


class TestCheckpointShape:
    """The tracker exports the positional ``members`` list every
    ``repro-checkpoint/1`` MaTCH file carries, and reads it back."""

    @pytest.mark.parametrize(
        "windows,n_members", [((5, 12), 4), ((0, 12), 3), ((5, 0), 3), ((0, 0), 2)]
    )
    def test_round_trip(self, windows, n_members):
        cfg = config(stability_window=windows[0], gamma_window=windows[1])
        engine = one_chain(cfg)
        feed(cfg, [(FLAT, 2.0), (FLAT, 2.0)], engine)
        members = engine._stops.export(0)
        assert len(members) == n_members
        assert members[0] == {} and members[-1] == {}
        clone = one_chain(cfg)
        clone._stops.restore(0, members)
        assert clone._stops.export(0) == members

    def test_member_count_mismatch_rejected(self):
        with pytest.raises(ConfigurationError, match="config mismatch"):
            one_chain(config(stability_window=5))._stops.restore(0, [{}, {}])
