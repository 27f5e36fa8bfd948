"""The C kernel backend: ``kernels.c`` compiled on demand via the system cc.

Plain C through ctypes — no ``Python.h``, no build-time dependency beyond
a working C compiler, and one cached shared object serves every
interpreter version. The compile happens at most once per source digest:
the object lands in ``$REPRO_KERNEL_CACHE`` (default
``~/.cache/repro-kernels``) under a name keyed on a SHA-256 of the
source, written via a temp file + atomic rename so concurrent processes
race benignly. Any failure — no compiler, sandboxed filesystem, bad
flags — raises :class:`KernelUnavailable`, which the dispatcher treats
as "this backend does not exist here".

Flags are part of the bit-exactness contract: ``-ffp-contract=off``
forbids fused multiply-adds (GNU C defaults to ``fast`` contraction at
``-O3``, which would change last-ulp results against numpy) and no
``-ffast-math`` is ever passed.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.kernels.csr import ProblemPack

__all__ = ["KernelUnavailable", "load"]

_SOURCE = Path(__file__).with_name("kernels.c")
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")

_F64 = np.ctypeslib.ndpointer(dtype=np.float64, flags="C_CONTIGUOUS")
_I64 = np.ctypeslib.ndpointer(dtype=np.int64, flags="C_CONTIGUOUS")
_c_i64 = ctypes.c_int64


class KernelUnavailable(RuntimeError):
    """This backend cannot be loaded in the current environment."""


def _cache_dir() -> Path:
    env = os.environ.get("REPRO_KERNEL_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-kernels"


def _compiler() -> str:
    cc = os.environ.get("REPRO_CC") or shutil.which("cc") or shutil.which("gcc")
    if not cc:
        raise KernelUnavailable("no C compiler found (set REPRO_CC to override)")
    return cc


def _shared_object() -> Path:
    """Compile (once per source digest) and return the .so path."""
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        raise KernelUnavailable(f"kernel source unreadable: {exc}") from exc
    digest = hashlib.sha256(source).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"repro_kernels_{digest}.so"
    if so_path.exists():
        return so_path
    cc = _compiler()
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
    except OSError as exc:
        raise KernelUnavailable(f"kernel cache dir unusable: {exc}") from exc
    try:
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise KernelUnavailable(
                f"C kernel compile failed ({cc}): {proc.stderr.strip()[:500]}"
            )
        os.replace(tmp, so_path)  # atomic: concurrent builders race benignly
    except (OSError, subprocess.SubprocessError) as exc:
        raise KernelUnavailable(f"C kernel compile failed: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _bind(lib: ctypes.CDLL) -> None:
    batch_args = [
        _I64, _c_i64, _c_i64, _c_i64,  # X, N, n_t, n_r
        _F64, _F64, _F64,  # W, w, ccm_flat
        _I64, _I64, _F64, _c_i64,  # eu, ev, C, n_e
        _F64,  # out
    ]
    lib.repro_times_batch.argtypes = batch_args
    lib.repro_times_batch.restype = ctypes.c_int
    lib.repro_eval_batch.argtypes = batch_args
    lib.repro_eval_batch.restype = ctypes.c_int
    lib.repro_genperm.argtypes = [
        _F64, _I64, _I64, _F64, _c_i64, _c_i64, _c_i64, _I64,
    ]
    lib.repro_genperm.restype = ctypes.c_int
    lib.repro_collapse_rows.argtypes = [
        _I64, _c_i64, _c_i64, _c_i64,  # X, N, n_cols, n_symbols
        _I64, _I64, ctypes.POINTER(_c_i64),  # unique_rows, inverse, n_unique
    ]
    lib.repro_collapse_rows.restype = ctypes.c_int
    probe_head = [
        _F64, _I64, _c_i64, _c_i64,  # exec_s, x, n_t, n_r
        _F64, _F64, _F64,  # W, w, ccm_flat
        _I64, _I64, _F64,  # off, nbr, vol
    ]
    out_d = ctypes.POINTER(ctypes.c_double)
    lib.repro_move_cost.argtypes = [*probe_head, _c_i64, _c_i64, out_d]
    lib.repro_move_cost.restype = ctypes.c_int
    lib.repro_swap_cost.argtypes = [*probe_head, _c_i64, _c_i64, out_d]
    lib.repro_swap_cost.restype = ctypes.c_int
    lib.repro_swap_costs.argtypes = [*probe_head, _I64, _c_i64, _F64]
    lib.repro_swap_costs.restype = ctypes.c_int


class _CExtKernels:
    """Backend function table bound to the loaded shared object."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._lib = lib

    @staticmethod
    def _check(status: int) -> None:
        if status != 0:
            raise MemoryError("C kernel scratch allocation failed")

    def times_batch(self, pack: ProblemPack, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.int64)
        N = X.shape[0]
        out = np.empty((N, pack.n_resources), dtype=np.float64)
        self._check(
            self._lib.repro_times_batch(
                X, N, pack.n_tasks, pack.n_resources,
                pack.task_weights, pack.proc_weights, pack.comm_flat,
                pack.eu, pack.ev, pack.edge_vol, pack.eu.shape[0], out,
            )
        )
        return out

    def eval_batch(self, pack: ProblemPack, X: np.ndarray) -> np.ndarray:
        X = np.ascontiguousarray(X, dtype=np.int64)
        N = X.shape[0]
        out = np.empty(N, dtype=np.float64)
        self._check(
            self._lib.repro_eval_batch(
                X, N, pack.n_tasks, pack.n_resources,
                pack.task_weights, pack.proc_weights, pack.comm_flat,
                pack.eu, pack.ev, pack.edge_vol, pack.eu.shape[0], out,
            )
        )
        return out

    def genperm(
        self,
        P_rows: np.ndarray,
        row_offsets: np.ndarray | None,
        task_orders: np.ndarray,
        rand_pos: np.ndarray,
        n_res: int,
    ) -> np.ndarray:
        B, n_t = task_orders.shape
        if row_offsets is None:
            row_offsets = np.zeros(B, dtype=np.int64)
        P_rows = np.ascontiguousarray(P_rows, dtype=np.float64)
        task_orders = np.ascontiguousarray(task_orders, dtype=np.int64)
        rand_pos = np.ascontiguousarray(rand_pos, dtype=np.float64)
        row_offsets = np.ascontiguousarray(row_offsets, dtype=np.int64)
        X = np.empty((B, n_t), dtype=np.int64)
        self._check(
            self._lib.repro_genperm(
                P_rows, row_offsets, task_orders, rand_pos, B, n_t, n_res, X
            )
        )
        return X

    def collapse_rows(
        self, X: np.ndarray, n_symbols: int
    ) -> tuple[np.ndarray, np.ndarray]:
        X = np.ascontiguousarray(X, dtype=np.int64)
        N, n_cols = X.shape
        unique_rows = np.empty((N, n_cols), dtype=np.int64)
        inverse = np.empty(N, dtype=np.int64)
        n_unique = _c_i64()
        self._check(
            self._lib.repro_collapse_rows(
                X, N, n_cols, n_symbols, unique_rows, inverse, ctypes.byref(n_unique)
            )
        )
        return unique_rows[: n_unique.value], inverse

    def _probe_args(self, pack: ProblemPack, exec_s: np.ndarray, x: np.ndarray):
        return (
            exec_s, x, pack.n_tasks, pack.n_resources,
            pack.task_weights, pack.proc_weights, pack.comm_flat,
            pack.off, pack.nbr, pack.nbr_vol,
        )

    def move_cost(
        self, pack: ProblemPack, exec_s: np.ndarray, x: np.ndarray,
        task: int, dest: int,
    ) -> float:
        out = ctypes.c_double()
        self._check(
            self._lib.repro_move_cost(
                *self._probe_args(pack, exec_s, x), task, dest, ctypes.byref(out)
            )
        )
        return out.value

    def swap_cost(
        self, pack: ProblemPack, exec_s: np.ndarray, x: np.ndarray,
        t1: int, t2: int,
    ) -> float:
        out = ctypes.c_double()
        self._check(
            self._lib.repro_swap_cost(
                *self._probe_args(pack, exec_s, x), t1, t2, ctypes.byref(out)
            )
        )
        return out.value

    def swap_costs(
        self, pack: ProblemPack, exec_s: np.ndarray, x: np.ndarray,
        pairs: np.ndarray,
    ) -> np.ndarray:
        pairs = np.ascontiguousarray(pairs, dtype=np.int64)
        out = np.empty(pairs.shape[0], dtype=np.float64)
        self._check(
            self._lib.repro_swap_costs(
                *self._probe_args(pack, exec_s, x), pairs, pairs.shape[0], out
            )
        )
        return out


def load() -> _CExtKernels:
    """Compile if needed, load the shared object, smoke-test one call."""
    so_path = _shared_object()
    try:
        lib = ctypes.CDLL(str(so_path))
        _bind(lib)
    except (OSError, AttributeError) as exc:
        raise KernelUnavailable(f"C kernel library unusable: {exc}") from exc
    kernels = _CExtKernels(lib)
    # Smoke test: a stale or truncated cache entry must fail here, not
    # mid-run. One row, one resource, no edges.
    probe = kernels.eval_batch(
        _SmokePack(), np.zeros((1, 1), dtype=np.int64)
    )
    if probe.shape != (1,) or probe[0] != 2.0:  # repro: noqa[float-equality] -- 1.0*2.0 is exact
        raise KernelUnavailable("C kernel smoke test returned wrong result")
    return kernels


class _SmokePack(ProblemPack):
    """One-task, one-resource pack used by the load-time smoke test."""

    def __init__(self) -> None:
        super().__init__(
            n_tasks=1,
            n_resources=1,
            task_weights=np.array([1.0]),
            proc_weights=np.array([2.0]),
            comm=np.zeros((1, 1)),
            eu=np.zeros(0, dtype=np.int64),
            ev=np.zeros(0, dtype=np.int64),
            edge_vol=np.zeros(0, dtype=np.float64),
            off=np.zeros(2, dtype=np.int64),
            nbr=np.zeros(0, dtype=np.int64),
            nbr_vol=np.zeros(0, dtype=np.float64),
        )
