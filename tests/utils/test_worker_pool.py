"""Tests for the persistent execution fabric (:class:`WorkerPool`).

Covers the tentpole guarantees: the ``REPRO_WORKERS`` override, warm-pool
reuse across many map calls, LPT scheduling returning input-order results,
closed-pool discipline, and the kill-the-pool failure mode — a dead worker
must surface as a clean :class:`WorkerPoolError`, never a hang, and the
shared-memory plane must still be unlinked afterwards.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.exceptions import ConfigurationError, ValidationError, WorkerPoolError
from repro.utils.parallel import WorkerPool, cpus_available, default_worker_count


def square(x: int) -> int:
    return x * x


def get_pid(x: int) -> int:
    return os.getpid()


def failing(x: int) -> int:
    if x == 3:
        raise RuntimeError("boom")
    return x


def kill_self(x: int) -> int:
    if x == 2:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


class TestDefaultWorkerCount:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert default_worker_count() == 3

    def test_env_override_strips_whitespace(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", " 2 ")
        assert default_worker_count() == 2

    def test_env_override_non_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "many")
        with pytest.raises(ConfigurationError, match="positive integer"):
            default_worker_count()

    def test_env_override_below_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ConfigurationError, match=">= 1"):
            default_worker_count()

    def test_pool_picks_up_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "2")
        pool = WorkerPool()
        try:
            assert pool.n_workers == 2
        finally:
            pool.close()

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity API")
    @pytest.mark.parametrize(("pinned", "expected"), [(1, 1), (2, 1), (3, 2)])
    def test_default_follows_cpu_affinity(self, monkeypatch, pinned, expected):
        # A container pinned to fewer cores than the machine has: the
        # default sizes from the pin, not from os.cpu_count().
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(pinned)))
        assert cpus_available() == pinned
        assert default_worker_count() == expected


class TestWorkerPoolSerial:
    def test_serial_map_in_process(self):
        with WorkerPool(1) as pool:
            assert not pool.is_parallel
            assert pool.map(square, range(5)) == [0, 1, 4, 9, 16]
            assert pool.worker_pids() == []

    def test_serial_publish_is_passthrough(self):
        sentinel = object()
        with WorkerPool(1) as pool:
            assert pool.publish_problem(sentinel) is sentinel

    def test_serial_weight_does_not_reorder_results(self):
        with WorkerPool(1) as pool:
            out = pool.map(square, range(6), weight=lambda x: -x)  # repro: noqa[parallel-safety] -- serial pool never forks
        assert out == [x * x for x in range(6)]

    def test_single_item_stays_in_process(self):
        with WorkerPool(4) as pool:
            assert pool.map(get_pid, [0]) == [os.getpid()]


class TestWorkerPoolWarm:
    def test_many_map_calls_reuse_workers(self):
        # Four dispatches over a 2-worker pool must be served by at most
        # two distinct processes total — a cold pool per call would keep
        # minting fresh pids. (Workers spawn lazily, so we assert on the
        # union rather than call-to-call equality.)
        seen: set[int] = set()
        with WorkerPool(2) as pool:
            for _ in range(4):
                seen |= set(pool.map(get_pid, range(4)))
            pids = set(pool.worker_pids())
            third = set(pool.map(square, range(4)))
        assert seen and len(seen) <= 2
        assert seen <= pids
        assert os.getpid() not in seen
        assert third == {0, 1, 4, 9}

    def test_lpt_results_in_input_order(self):
        items = list(range(16))
        with WorkerPool(2) as pool:
            fifo = pool.map(square, items)
            lpt = pool.map(square, items, weight=float)
            lpt_rev = pool.map(square, items, weight=lambda x: -float(x))  # repro: noqa[parallel-safety] -- weight runs in the parent, never pickled
        assert fifo == lpt == lpt_rev == [x * x for x in items]

    def test_exception_propagates_and_pool_survives(self):
        with WorkerPool(2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(failing, [1, 2, 3, 4])
            with pytest.raises(RuntimeError, match="boom"):
                pool.map(failing, [1, 2, 3, 4], weight=float)
            # the pool is still usable after a task-level failure
            assert pool.map(square, range(4)) == [0, 1, 4, 9]

    def test_chunksize_validation(self):
        with WorkerPool(2) as pool:
            with pytest.raises(ValidationError):
                pool.map(square, [1, 2], chunksize=0)

    def test_repr_states(self):
        pool = WorkerPool(2)
        assert "cold" in repr(pool)
        pool.map(square, range(3))
        assert "warm" in repr(pool)
        pool.close()
        assert "closed" in repr(pool)


class TestWorkerPoolClosed:
    def test_map_on_closed_pool(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.map(square, [1, 2])

    def test_publish_on_closed_pool(self):
        pool = WorkerPool(2)
        pool.close()
        with pytest.raises(WorkerPoolError, match="closed"):
            pool.publish_problem(object())

    def test_close_is_idempotent(self):
        pool = WorkerPool(2)
        pool.map(square, range(3))
        pool.close()
        pool.close()
        assert pool.closed


class TestKillThePool:
    def test_dead_worker_raises_worker_pool_error(self):
        """SIGKILLing a worker mid-dispatch is a clean error, not a hang."""
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerPoolError, match="worker pool died"):
                pool.map(kill_self, range(8))

    def test_dead_worker_under_lpt_raises_worker_pool_error(self):
        with WorkerPool(2) as pool:
            with pytest.raises(WorkerPoolError, match="worker pool died"):
                pool.map(kill_self, range(8), weight=float)

    def test_pool_closes_cleanly_after_worker_death(self):
        pool = WorkerPool(2)
        with pytest.raises(WorkerPoolError):
            pool.map(kill_self, range(8))
        pool.close()
        assert pool.closed
