"""Compiled kernel backends for the hot loops (DESIGN.md §11).

Two interchangeable, bit-identical implementations of the library's
hot kernels — batched Eq. (1)/(2) scoring, the GenPerm position loop,
the duplicate-row collapse before scoring, and the O(deg) delta
probes — behind one dispatch point:

* ``cext``: the spec loops of :mod:`repro.kernels._loops` translated to
  C and compiled on demand with the system C compiler (no extra Python
  dependency);
* ``numpy``: the vectorized reference, always available.

Select with ``REPRO_KERNEL={auto,cext,numpy}`` or ``--kernel``; ``auto``
tries ``cext`` then ``numpy`` and falls back silently because both
backends produce identical bytes (the cross-backend parity suite in
``tests/kernels/`` enforces this, and the golden fixtures run under each
available backend).
"""

from repro.kernels.csr import ProblemPack, build_adjacency, build_pack
from repro.kernels.dispatch import (
    KERNEL_CHOICES,
    KernelBackend,
    available_backends,
    get_backend,
    load_error,
    reset_kernel_state,
    set_backend,
    use_backend,
)

__all__ = [
    "ProblemPack",
    "build_adjacency",
    "build_pack",
    "KernelBackend",
    "KERNEL_CHOICES",
    "available_backends",
    "get_backend",
    "load_error",
    "reset_kernel_state",
    "set_backend",
    "use_backend",
]
