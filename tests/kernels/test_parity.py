"""Cross-backend bit-parity matrix.

Every available backend (numpy always; cext when a C compiler exists)
must produce *bit-identical* floats to the numpy reference on every
kernel — scoring, GenPerm sampling, and the O(deg) probes. The spec
loops the C kernel mirrors (:mod:`repro.kernels._loops`) are
additionally executed as plain Python so their semantics are pinned
against the same reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import kernels
from repro.ce.genperm import sample_permutations, sample_permutations_stacked
from repro.exceptions import ValidationError
from repro.kernels import _loops, build_pack, impl_numpy
from repro.mapping import CostModel
from repro.mapping.incremental import IncrementalEvaluator
from repro.utils.dedup import collapse_duplicate_rows

from tests.kernels.conftest import AVAILABLE, make_problem, random_batch

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def genperm_inputs(n_tasks, n_res, n_samples, seed, *, degenerate=False):
    gen = np.random.default_rng(seed)
    if degenerate:
        # One-hot rows all preferring resource 0: exercises the dead-mass
        # uniform-over-unused fallback on nearly every draw.
        P = np.zeros((n_tasks, n_res))
        P[:, 0] = 1.0
    else:
        P = gen.random((n_tasks, n_res))
    task_orders = np.argsort(gen.random((n_samples, n_tasks)), axis=1)
    rand_pos = gen.random((n_tasks, n_samples))
    return np.ascontiguousarray(P), task_orders, rand_pos


class TestScoringParity:
    @pytest.mark.parametrize("n,seed,rows", [(6, 0, 17), (12, 777, 64), (20, 3, 33)])
    def test_times_batch_bit_identical(self, backend, n, seed, rows):
        problem = make_problem(n, seed)
        pack = build_pack(problem)
        X = random_batch(problem, rows, seed + 1)
        assert np.array_equal(
            backend.times_batch(pack, X), impl_numpy.times_batch(pack, X)
        )

    def test_eval_batch_bit_identical(self, backend):
        problem = make_problem(12, 777)
        pack = build_pack(problem)
        X = random_batch(problem, 50, 9)
        assert np.array_equal(
            backend.eval_batch(pack, X), impl_numpy.eval_batch(pack, X)
        )

    def test_cost_model_dispatches_backend(self, backend):
        problem = make_problem(12, 777)
        model = CostModel(problem)
        assert model.kernel_name == backend.name
        X = random_batch(problem, 30, 4)
        with kernels.use_backend("numpy"):
            expected = CostModel(problem).evaluate_batch(X)
        assert np.array_equal(model.evaluate_batch(X), expected)


class TestGenPermParity:
    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("n,seed", [(3, 0), (6, 5), (12, 11)])
    def test_single_matrix(self, backend, n, seed, degenerate):
        P, orders, pos = genperm_inputs(n, n, 25, seed, degenerate=degenerate)
        got = backend.genperm(P, None, orders, pos, n)
        ref = impl_numpy.genperm(P, None, orders, pos, n)
        assert np.array_equal(got, ref)
        # valid one-to-one mappings
        assert all(len(set(row)) == n for row in got.tolist())

    @pytest.mark.parametrize("degenerate", [False, True])
    @pytest.mark.parametrize("n,seed", [(24, 3), (30, 4), (50, 6)])
    def test_single_matrix_large(self, backend, n, seed, degenerate):
        P, orders, pos = genperm_inputs(n, n, 2 * n + 1, seed, degenerate=degenerate)
        got = backend.genperm(P, None, orders, pos, n)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, n))
        assert all(len(set(row)) == n for row in got.tolist())

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 5, 7, 8, 9, 16, 17])
    def test_batch_sizes(self, backend, n_samples):
        # The C kernel runs samples in groups of eight; a batch size that
        # leaves a partial last group must give the reference rows.
        P, orders, pos = genperm_inputs(9, 9, n_samples, 13)
        got = backend.genperm(P, None, orders, pos, 9)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, 9))

    def test_rectangular(self, backend):
        P, orders, pos = genperm_inputs(5, 8, 20, 2)
        got = backend.genperm(P, None, orders, pos, 8)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, 8))

    @pytest.mark.parametrize("n_tasks,n_res", [(1, 7), (20, 30), (29, 30), (30, 50)])
    def test_rectangular_wide(self, backend, n_tasks, n_res):
        P, orders, pos = genperm_inputs(n_tasks, n_res, 21, 2)
        got = backend.genperm(P, None, orders, pos, n_res)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, n_res))
        assert all(len(set(row)) == n_tasks for row in got.tolist())

    @pytest.mark.parametrize("n", [6, 30])
    def test_dead_rows(self, backend, n):
        # Zero-mass rows fall back to uniform over the unused resources.
        P, orders, pos = genperm_inputs(n, n, 23, 8)
        P[1] = 0.0
        P[n - 1] = 0.0
        P[2, : n // 2] = 0.0
        got = backend.genperm(P, None, orders, pos, n)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, n))

    @pytest.mark.parametrize("n", [6, 30])
    def test_overflow_clamp(self, backend, n):
        # A draw of exactly 1.0 lands past the total mass: the clamp picks
        # the last resource while it is unused, else the first unused one.
        P, orders, pos = genperm_inputs(n, n, 19, 9)
        pos[:, ::2] = 1.0
        pos[n // 2] = 1.0
        got = backend.genperm(P, None, orders, pos, n)
        assert np.array_equal(got, impl_numpy.genperm(P, None, orders, pos, n))
        assert all(len(set(row)) == n for row in got.tolist())

    def test_spec_loops_agree_at_n24(self):
        P, orders, pos = genperm_inputs(24, 24, 7, 21)
        pos[:, 3] = 1.0
        offsets = np.zeros(7, dtype=np.int64)
        assert np.array_equal(
            _loops.genperm_loops(P, offsets, orders, pos, 24),
            impl_numpy.genperm(P, None, orders, pos, 24),
        )

    def test_stacked_offsets(self, backend):
        R, n, N = 3, 6, 15
        gen = np.random.default_rng(42)
        P_stack = gen.random((R, n, n))
        rand_orders = gen.random((R, N, n))
        rand_pos = gen.random((R, n, N))
        got = sample_permutations_stacked(P_stack, rand_orders, rand_pos)
        with kernels.use_backend("numpy"):
            ref = sample_permutations_stacked(P_stack, rand_orders, rand_pos)
        assert np.array_equal(got, ref)

    def test_sampler_rng_stream_backend_invariant(self, backend):
        # Same seed, different backend: identical batch — the uniforms are
        # drawn outside the kernel, so the stream position cannot diverge.
        P = np.random.default_rng(7).random((10, 10))
        got = sample_permutations(P, 40, rng=123)
        with kernels.use_backend("numpy"):
            ref = sample_permutations(P, 40, rng=123)
        assert np.array_equal(got, ref)


class TestGenPermInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_single_matrix_rejects(self, backend, bad):
        P = np.full((6, 6), 1.0 / 6.0)
        P[3, 2] = bad
        with pytest.raises(ValidationError):
            sample_permutations(P, 10, rng=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -0.5])
    def test_stacked_rejects(self, backend, bad):
        gen = np.random.default_rng(1)
        P_stack = gen.random((2, 5, 5))
        P_stack[1, 4, 0] = bad
        with pytest.raises(ValidationError):
            sample_permutations_stacked(P_stack, gen.random((2, 7, 5)), gen.random((2, 5, 7)))

    def test_negative_zero_is_accepted(self, backend):
        P = np.full((4, 4), 0.25)
        P[0, 1] = -0.0
        X = sample_permutations(P, 12, rng=3)
        assert all(len(set(row)) == 4 for row in X.tolist())


def duplicate_heavy_batch(n: int, n_rows: int, seed: int) -> np.ndarray:
    """Sampled mappings from a sharp matrix: many exact duplicates."""
    if n_rows == 0:
        return np.empty((0, n), dtype=np.int64)
    gen = np.random.default_rng(seed)
    P = np.full((n, n), 0.02 / n)
    P[np.arange(n), gen.permutation(n)] += 1.0
    return sample_permutations(P, n_rows, rng=gen)


class TestCollapseParity:
    @pytest.mark.parametrize("n", [10, 16, 30, 50])
    @pytest.mark.parametrize("n_rows", [0, 1, 2, 97, 600])
    def test_bit_identical(self, backend, n, n_rows):
        X = duplicate_heavy_batch(n, n_rows, n + n_rows)
        unique_rows, inverse = backend.collapse_rows(X, n)
        ref_rows, ref_inverse = impl_numpy.collapse_rows(X, n)
        assert unique_rows.shape == ref_rows.shape
        assert np.array_equal(unique_rows, ref_rows)
        assert np.array_equal(inverse, ref_inverse)
        assert np.array_equal(unique_rows[inverse], X)

    @pytest.mark.parametrize("n", [10, 16, 30, 50])
    def test_lexicographic_order(self, backend, n):
        X = np.concatenate(
            [duplicate_heavy_batch(n, 300, n), sample_permutations(np.ones((n, n)), 300, rng=n)]
        )
        unique_rows, _ = backend.collapse_rows(X, n)
        expected = sorted(set(map(tuple, X.tolist())))
        assert [tuple(row) for row in unique_rows.tolist()] == expected

    @pytest.mark.parametrize("n", [10, 16, 30, 50])
    def test_all_rows_duplicate(self, backend, n):
        X = np.tile(np.random.default_rng(n).permutation(n), (40, 1))
        unique_rows, inverse = backend.collapse_rows(X, n)
        assert np.array_equal(unique_rows, X[:1])
        assert np.array_equal(inverse, np.zeros(40, dtype=np.int64))

    def test_dispatch_follows_backend(self, backend):
        X = duplicate_heavy_batch(30, 200, 5)
        got = collapse_duplicate_rows(X, 30)
        with kernels.use_backend("numpy"):
            ref = collapse_duplicate_rows(X, 30)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))

    def test_one_symbol_alphabet(self, backend):
        unique_rows, inverse = collapse_duplicate_rows(np.zeros((5, 1), dtype=np.int64), 1)
        assert unique_rows.tolist() == [[0]]
        assert inverse.tolist() == [0] * 5


class TestProbeParity:
    def _setup(self, n=12, seed=777):
        problem = make_problem(n, seed)
        model = CostModel(problem)
        gen = np.random.default_rng(seed)
        x = gen.permutation(n).astype(np.int64)
        return problem, model, x

    def test_move_cost_matches_full_eval(self, backend):
        problem, model, x = self._setup()
        pack = model.pack
        exec_s = model.per_resource_times(x).astype(np.float64)
        for task in range(problem.n_tasks):
            for dest in range(problem.n_resources):
                probe = backend.move_cost(pack, exec_s, x, task, dest)
                y = x.copy()
                y[task] = dest
                ref = impl_numpy.move_cost(pack, exec_s, x, task, dest)
                assert probe == ref
                np.testing.assert_allclose(
                    probe, float(model.per_resource_times(y).max()), rtol=1e-9
                )

    def test_swap_costs_batch_matches_scalar(self, backend):
        problem, model, x = self._setup()
        inc = IncrementalEvaluator(model, x)
        n = problem.n_tasks
        pairs = np.array(
            [(a, b) for a in range(n) for b in range(n) if a != b], dtype=np.int64
        )
        batch = inc.swap_costs(pairs)
        for p, (t1, t2) in enumerate(pairs.tolist()):
            assert batch[p] == inc.swap_cost(t1, t2)

    def test_probes_bit_identical_to_numpy(self, backend):
        problem, model, x = self._setup(n=9, seed=31)
        inc = IncrementalEvaluator(model, x)
        with kernels.use_backend("numpy"):
            ref = IncrementalEvaluator(CostModel(problem), x)
        for t1 in range(problem.n_tasks):
            for t2 in range(problem.n_tasks):
                assert inc.swap_cost(t1, t2) == ref.swap_cost(t1, t2)


class TestSpecLoopsAsPython:
    """Run the spec loops as plain Python against the numpy reference."""

    def test_times_batch_loops(self):
        problem = make_problem(8, 5)
        pack = build_pack(problem)
        X = random_batch(problem, 13, 6)
        assert np.array_equal(
            _loops.times_batch_loops(
                X,
                pack.task_weights,
                pack.proc_weights,
                pack.comm_flat,
                pack.eu,
                pack.ev,
                pack.edge_vol,
                pack.n_resources,
            ),
            impl_numpy.times_batch(pack, X),
        )

    def test_genperm_loops(self):
        n = 7
        P, orders, pos = genperm_inputs(n, n, 11, 3)
        offsets = np.zeros(11, dtype=np.int64)
        assert np.array_equal(
            _loops.genperm_loops(P, offsets, orders, pos, n),
            impl_numpy.genperm(P, None, orders, pos, n),
        )

    def test_swap_costs_loops(self):
        problem = make_problem(8, 5)
        model = CostModel(problem)
        pack = model.pack
        x = np.random.default_rng(0).permutation(8).astype(np.int64)
        exec_s = model.per_resource_times(x).astype(np.float64)
        pairs = np.array([(0, 1), (2, 7), (3, 3), (5, 4)], dtype=np.int64)
        assert np.array_equal(
            _loops.swap_costs_loops(
                exec_s,
                x,
                pairs,
                pack.task_weights,
                pack.proc_weights,
                pack.comm_flat,
                pack.n_resources,
                pack.off,
                pack.nbr,
                pack.nbr_vol,
            ),
            impl_numpy.swap_costs(pack, exec_s, x, pairs),
        )


@pytest.mark.parametrize("name", AVAILABLE)
def test_incremental_property_under_backend(name):
    """Mixed move/swap sequences keep exec_s on Eq. (1) under every backend."""
    with kernels.use_backend(name):
        problem = make_problem(10, 19, square=False)
        model = CostModel(problem)
        rng = np.random.default_rng(19)
        inc = IncrementalEvaluator(model, rng.integers(0, 10, size=10))
        for _ in range(80):
            if rng.random() < 0.5:
                inc.apply_swap(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            else:
                inc.apply_move(int(rng.integers(0, 10)), int(rng.integers(0, 10)))
            probe = inc.swap_cost(0, 1)
            assert probe == inc.swap_cost(0, 1)  # probes are pure
        np.testing.assert_allclose(
            inc.per_resource_times,
            model.per_resource_times(inc.assignment),
            rtol=1e-9,
            atol=1e-9,
        )
