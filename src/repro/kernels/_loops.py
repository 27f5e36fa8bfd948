"""Scalar loop bodies of the hot kernels — the C backend's specification.

Each function here is the *executable specification* of one kernel:
plain-Python loops over flat arrays (no closures, no Python objects, no
keyword tricks), so the C translation in ``kernels.c`` can mirror them
statement for statement. Running them uncompiled is slow but always
available — the parity test matrix pins both backends (numpy vectorized
and C) against these loops bit-for-bit, so the C kernel is checked
against the very bodies this module spells out.

Bit-exactness rules (verified by ``tests/kernels/``):

* additions happen in the same order as the vectorized numpy path
  (``bincount`` accumulates per bucket in input order; the three Eq. (1)
  terms combine as ``(proc + acc_s) + acc_b``);
* every product is a single IEEE multiply — the C build disables FP
  contraction (``-ffp-contract=off``), so no backend fuses a
  multiply-add the others do not;
* GenPerm consumes pre-drawn uniforms only (the RNG never enters a
  kernel), so the stream position is backend-invariant by construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "times_batch_loops",
    "eval_batch_loops",
    "genperm_loops",
    "move_cost_loops",
    "swap_cost_loops",
    "swap_costs_loops",
]


def times_batch_loops(X, W, w, ccm_flat, eu, ev, C, n_r):
    """Eq. (1) for a batch: ``(N, n_r)`` per-resource times.

    Mirrors the numpy ``bincount`` path: the processing term accumulates
    per resource in ascending task order, each edge term in ascending
    edge order, and the three partial sums combine left-to-right.
    """
    N, n_t = X.shape
    n_e = eu.shape[0]
    out = np.empty((N, n_r), dtype=np.float64)
    proc = np.zeros(n_r, dtype=np.float64)
    acc_s = np.zeros(n_r, dtype=np.float64)
    acc_b = np.zeros(n_r, dtype=np.float64)
    for j in range(N):
        for r in range(n_r):
            proc[r] = 0.0
            acc_s[r] = 0.0
            acc_b[r] = 0.0
        for t in range(n_t):
            s = X[j, t]
            proc[s] += W[t] * w[s]
        for e in range(n_e):
            s = X[j, eu[e]]
            b = X[j, ev[e]]
            link = C[e] * ccm_flat[s * n_r + b]
            acc_s[s] += link
            acc_b[b] += link
        for r in range(n_r):
            out[j, r] = (proc[r] + acc_s[r]) + acc_b[r]
    return out


def eval_batch_loops(X, W, w, ccm_flat, eu, ev, C, n_r):
    """Eq. (2) for a batch: row-wise max of :func:`times_batch_loops`."""
    N, n_t = X.shape
    n_e = eu.shape[0]
    out = np.empty(N, dtype=np.float64)
    proc = np.zeros(n_r, dtype=np.float64)
    acc_s = np.zeros(n_r, dtype=np.float64)
    acc_b = np.zeros(n_r, dtype=np.float64)
    for j in range(N):
        for r in range(n_r):
            proc[r] = 0.0
            acc_s[r] = 0.0
            acc_b[r] = 0.0
        for t in range(n_t):
            s = X[j, t]
            proc[s] += W[t] * w[s]
        for e in range(n_e):
            s = X[j, eu[e]]
            b = X[j, ev[e]]
            link = C[e] * ccm_flat[s * n_r + b]
            acc_s[s] += link
            acc_b[b] += link
        best = (proc[0] + acc_s[0]) + acc_b[0]
        for r in range(1, n_r):
            v = (proc[r] + acc_s[r]) + acc_b[r]
            if v > best:
                best = v
        out[j] = best
    return out


def genperm_loops(P_rows, row_offsets, task_orders, rand_pos, n_res):
    """GenPerm position loop over a flattened sample batch (Fig. 4).

    Parameters mirror the backend API: ``P_rows`` is the
    ``(n_dists * n_tasks, n_res)`` row-major matrix stack, sample ``j``
    draws task ``t``'s distribution from row ``row_offsets[j] + t``, and
    ``rand_pos[pos, j]`` is the pre-drawn roulette uniform of visit
    position ``pos``. Scalar transcription of the vectorized loop in
    :mod:`repro.kernels.impl_numpy`: multiply-masked running CDF,
    uniform-over-unused fallback for dead rows, count-of-entries-at-or-
    below inverse draw (the CDF is monotone, so counting the leading run
    equals counting all entries), and the overflow clamp for draws that
    round past the total mass.
    """
    B, n_tasks = task_orders.shape
    X = np.full((B, n_tasks), -1, dtype=np.int64)
    unused = np.ones((B, n_res), dtype=np.float64)
    cdf = np.empty(n_res, dtype=np.float64)
    # Square case: the final placement is forced; track the remaining
    # resource as a running index sum exactly like the numpy path (the
    # final uniform was still pre-drawn, so streams stay aligned).
    square = n_tasks == n_res
    rem = np.zeros(B, dtype=np.int64)
    if square:
        for j in range(B):
            rem[j] = n_res * (n_res - 1) // 2
    for pos in range(n_tasks):
        if square and pos == n_tasks - 1:
            for j in range(B):
                X[j, task_orders[j, pos]] = rem[j]
            break
        for j in range(B):
            task = task_orders[j, pos]
            row = row_offsets[j] + task
            acc = 0.0
            for i in range(n_res):
                acc = acc + P_rows[row, i] * unused[j, i]
                cdf[i] = acc
            mass = cdf[n_res - 1]
            if mass <= 0.0:
                # Dead row: uniform over the unused resources.
                acc = 0.0
                for i in range(n_res):
                    acc = acc + unused[j, i]
                    cdf[i] = acc
                mass = cdf[n_res - 1]
            u = rand_pos[pos, j] * mass
            choice = 0
            while choice < n_res and cdf[choice] <= u:
                choice += 1
            if choice == n_res:
                # Float-edge overflow (u >= mass): clamp, and if the last
                # resource is already taken fall back to the first unused.
                choice = n_res - 1
                if unused[j, n_res - 1] == 0.0:  # repro: noqa[float-equality] -- consumed mass is written as exact 0.0 below
                    for i in range(n_res):
                        if unused[j, i] == 1.0:  # repro: noqa[float-equality] -- mask entries are exact 0.0/1.0
                            choice = i
                            break
            X[j, task] = choice
            unused[j, choice] = 0.0
            if square:
                rem[j] -= choice
    return X


# The three probe kernels below inline the same O(deg) relocation update
# (the body of ``IncrementalEvaluator._apply_move``) instead of sharing a
# helper: the C translation mirrors each function on its own and the
# parity suite pins all three against the evaluator, so the duplication
# cannot drift.

def move_cost_loops(exec_s, x, task, dest, W, w, ccm_flat, n_r, off, nbr, vol):
    """Eq. (2) cost if ``task`` moved to ``dest``; no state change."""
    ex = exec_s.copy()
    src = x[task]
    if src != dest:
        ex[src] -= W[task] * w[src]
        ex[dest] += W[task] * w[dest]
        for k in range(off[task], off[task + 1]):
            m = x[nbr[k]]
            cv = vol[k]
            if m != src:
                ex[src] -= cv * ccm_flat[src * n_r + m]
                ex[m] -= cv * ccm_flat[m * n_r + src]
            if m != dest:
                ex[dest] += cv * ccm_flat[dest * n_r + m]
                ex[m] += cv * ccm_flat[m * n_r + dest]
    best = ex[0]
    for r in range(1, n_r):
        if ex[r] > best:
            best = ex[r]
    return best


def swap_cost_loops(exec_s, x, t1, t2, W, w, ccm_flat, n_r, off, nbr, vol):
    """Eq. (2) cost if ``t1`` and ``t2`` exchanged resources.

    Two sequential relocations on scratch state (``t1 -> x[t2]`` then
    ``t2 -> old x[t1]``) — the second move reads the updated assignment,
    exactly like the evaluator it mirrors.
    """
    ex = exec_s.copy()
    xs = x.copy()
    s1 = xs[t1]
    s2 = xs[t2]
    src = s1
    dest = s2
    task = t1
    for _rep in range(2):
        if src != dest:
            ex[src] -= W[task] * w[src]
            ex[dest] += W[task] * w[dest]
            for k in range(off[task], off[task + 1]):
                m = xs[nbr[k]]
                cv = vol[k]
                if m != src:
                    ex[src] -= cv * ccm_flat[src * n_r + m]
                    ex[m] -= cv * ccm_flat[m * n_r + src]
                if m != dest:
                    ex[dest] += cv * ccm_flat[dest * n_r + m]
                    ex[m] += cv * ccm_flat[m * n_r + dest]
            xs[task] = dest
        task = t2
        src = s2
        dest = s1
    best = ex[0]
    for r in range(1, n_r):
        if ex[r] > best:
            best = ex[r]
    return best


def swap_costs_loops(exec_s, x, pairs, W, w, ccm_flat, n_r, off, nbr, vol):
    """Batched swap probes: ``out[p]`` = swap cost of ``pairs[p]``."""
    K = pairs.shape[0]
    n_t = x.shape[0]
    out = np.empty(K, dtype=np.float64)
    ex = np.empty(n_r, dtype=np.float64)
    xs = np.empty(n_t, dtype=np.int64)
    for p in range(K):
        for r in range(n_r):
            ex[r] = exec_s[r]
        for t in range(n_t):
            xs[t] = x[t]
        t1 = pairs[p, 0]
        t2 = pairs[p, 1]
        s1 = xs[t1]
        s2 = xs[t2]
        src = s1
        dest = s2
        task = t1
        for _rep in range(2):
            if src != dest:
                ex[src] -= W[task] * w[src]
                ex[dest] += W[task] * w[dest]
                for k in range(off[task], off[task + 1]):
                    m = xs[nbr[k]]
                    cv = vol[k]
                    if m != src:
                        ex[src] -= cv * ccm_flat[src * n_r + m]
                        ex[m] -= cv * ccm_flat[m * n_r + src]
                    if m != dest:
                        ex[dest] += cv * ccm_flat[dest * n_r + m]
                        ex[m] += cv * ccm_flat[m * n_r + dest]
                xs[task] = dest
            task = t2
            src = s2
            dest = s1
        best = ex[0]
        for r in range(1, n_r):
            if ex[r] > best:
                best = ex[r]
        out[p] = best
    return out
