/* Compiled hot-loop kernels for the MaTCH reproduction.
 *
 * Value-for-value translation of repro/kernels/_loops.py — see that
 * module's docstring for the bit-exactness contract. Loop structure may
 * differ where it buys speed (the GenPerm position loop interleaves
 * eight samples and keeps its arrays position-major, see below), but
 * every per-sample float operation sequence matches the reference
 * exactly. The duplicate-row collapse has no float arithmetic; it
 * matches the numpy backend's unique rows and inverse exactly. The build
 * (driven by impl_cext.py) uses `-O3 -ffp-contract=off` and no
 * -ffast-math: every float add/multiply must round exactly like the
 * numpy reference, so fused multiply-adds and reassociation are off the
 * table. Accumulation orders (tasks ascending, edges ascending, the
 * `(proc + acc_s) + acc_b` combine) are load-bearing.
 *
 * No Python.h: the library is plain C called through ctypes, so one
 * shared object serves every interpreter version. All functions return
 * 0 on success and -1 on allocation failure (scalar-valued probes
 * return the cost through an out-pointer for the same reason).
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef int64_t i64;

/* ---------------- Eq. (1)/(2) batch scoring ---------------- */

static void times_row(const i64 *xrow, i64 n_t, i64 n_r,
                      const double *W, const double *w, const double *ccm,
                      const i64 *eu, const i64 *ev, const double *C, i64 n_e,
                      double *proc, double *acc_s, double *acc_b)
{
    i64 r, t, e;
    for (r = 0; r < n_r; r++) {
        proc[r] = 0.0;
        acc_s[r] = 0.0;
        acc_b[r] = 0.0;
    }
    for (t = 0; t < n_t; t++) {
        i64 s = xrow[t];
        proc[s] += W[t] * w[s];
    }
    for (e = 0; e < n_e; e++) {
        i64 s = xrow[eu[e]];
        i64 b = xrow[ev[e]];
        double link = C[e] * ccm[s * n_r + b];
        acc_s[s] += link;
        acc_b[b] += link;
    }
}

int repro_times_batch(const i64 *X, i64 N, i64 n_t, i64 n_r,
                      const double *W, const double *w, const double *ccm,
                      const i64 *eu, const i64 *ev, const double *C, i64 n_e,
                      double *out)
{
    double *scratch = malloc((size_t)(3 * n_r) * sizeof(double));
    double *proc, *acc_s, *acc_b;
    i64 j, r;
    if (scratch == NULL)
        return -1;
    proc = scratch;
    acc_s = scratch + n_r;
    acc_b = scratch + 2 * n_r;
    for (j = 0; j < N; j++) {
        times_row(X + j * n_t, n_t, n_r, W, w, ccm, eu, ev, C, n_e,
                  proc, acc_s, acc_b);
        for (r = 0; r < n_r; r++)
            out[j * n_r + r] = (proc[r] + acc_s[r]) + acc_b[r];
    }
    free(scratch);
    return 0;
}

int repro_eval_batch(const i64 *X, i64 N, i64 n_t, i64 n_r,
                     const double *W, const double *w, const double *ccm,
                     const i64 *eu, const i64 *ev, const double *C, i64 n_e,
                     double *out)
{
    double *scratch = malloc((size_t)(3 * n_r) * sizeof(double));
    double *proc, *acc_s, *acc_b;
    i64 j, r;
    if (scratch == NULL)
        return -1;
    proc = scratch;
    acc_s = scratch + n_r;
    acc_b = scratch + 2 * n_r;
    for (j = 0; j < N; j++) {
        double best, v;
        times_row(X + j * n_t, n_t, n_r, W, w, ccm, eu, ev, C, n_e,
                  proc, acc_s, acc_b);
        best = (proc[0] + acc_s[0]) + acc_b[0];
        for (r = 1; r < n_r; r++) {
            v = (proc[r] + acc_s[r]) + acc_b[r];
            if (v > best)
                best = v;
        }
        out[j] = best;
    }
    free(scratch);
    return 0;
}

/* ---------------- GenPerm position loop ---------------- */

/* The walk is the reference's own: every (sample, position) cell adds
 * row[i] * unused[i] over all n_res resources in ascending order, where
 * unused is the sample's 0.0/1.0 mask, and the pick is the first index
 * whose running sum exceeds the draw. Taking a resource is one store,
 * unused[pick] = 0.0, so nothing after the pick branches on where it
 * landed. (An earlier version walked a compressed list of the unused
 * resources, K = n_res - pos entries, and removed each pick with a
 * memmove whose size came out of the bisection; that size dispatch
 * mispredicted late in the bisection's dependency chain, and with the
 * list's index loads and gathers the shorter walk bought nothing.)
 *
 * LANES samples run interleaved as one group, so LANES independent
 * FP-add chains are in flight while each sample's own adds stay in
 * reference order. A group's masks and cdfs are lane-interleaved (entry
 * i of lane s at [LANES*i + s]) so the group walks one pointer per
 * array and the compiler can pack lanes into vector registers; packing
 * changes no value, every lane still does one IEEE multiply and one add
 * per entry in reference order (the build forbids contraction into
 * fused multiply-adds). A batch whose size is not a multiple of LANES
 * pads its last group with copies of its last sample: a copy repeats
 * that sample's computation exactly. The task visit orders are
 * transposed to position-major on entry and the picks kept
 * position-major until one scatter into X at the end, so the position
 * loop reads and writes contiguously instead of striding one row per
 * sample through task_orders and X (at n = 50 those arrays outgrow the
 * L2 cache and the stride cost a third of the kernel's time). */

#define LANES 8

/* Dead-row fallback, inverse-CDF bisection and overflow clamp for one
 * lane's cdf and mask (stride LANES). Returns the picked resource. */
static i64 genperm_pick(double *cdf, const double *unused, i64 n_res,
                        double u01)
{
    double mass = cdf[LANES * (n_res - 1)];
    double u;
    i64 i;
    if (mass <= 0.0) {
        /* Dead row: uniform over the unused resources. */
        double acc = 0.0;
        for (i = 0; i < n_res; i++) {
            acc = acc + unused[LANES * i];
            cdf[LANES * i] = acc;
        }
        mass = acc;
    }
    u = u01 * mass;
    /* First index with cdf > u. The cdf is non-decreasing (non-negative
     * increments), so a branchless upper-bound bisection lands on the
     * same index as the reference's linear scan in log2(n_res) compare
     * steps with no data-dependent branch to mispredict. A taken
     * resource adds +0.0, so its cdf equals its predecessor's (or +0.0
     * <= u at the front) and the first index past u is never taken. */
    {
        i64 lo = 0, len = n_res;
        while (len > 1) {
            i64 half = len >> 1;
            if (cdf[LANES * (lo + half - 1)] <= u)
                lo += half;
            len -= half;
        }
        i = lo + (cdf[LANES * lo] <= u);
    }
    if (i == n_res) {
        /* Overflow clamp; resource n_res-1 when still unused, else the
         * first unused resource. */
        i = n_res - 1;
        if (unused[LANES * i] == 0.0)
            for (i = 0; unused[LANES * i] == 0.0; i++)
                ;
    }
    return i;
}

int repro_genperm(const double *P_rows, const i64 *row_offsets,
                  const i64 *task_orders, const double *rand_pos,
                  i64 B, i64 n_t, i64 n_res, i64 *X)
{
    const i64 G = (B + LANES - 1) / LANES, L = LANES * G;
    /* Square batches skip the roulette at the last position: the one
     * unused resource is forced (the reference's rem-sum shortcut). */
    const i64 drawn = n_t == n_res ? n_t - 1 : n_t;
    double *unused, *cdf;
    int32_t *tasks, *picks;
    i64 j, g, s, pos, i;
    if (B == 0 || n_t == 0)
        return 0;
    unused = malloc((size_t)(L * n_res) * sizeof(double));
    cdf = malloc((size_t)(LANES * n_res) * sizeof(double));
    tasks = malloc((size_t)(L * n_t) * sizeof(int32_t));
    picks = malloc((size_t)(L * n_t) * sizeof(int32_t));
    if (unused == NULL || cdf == NULL || tasks == NULL || picks == NULL) {
        free(unused);
        free(cdf);
        free(tasks);
        free(picks);
        return -1;
    }
    for (j = 0; j < L * n_res; j++)
        unused[j] = 1.0;
    for (j = 0; j < L; j++) {
        const i64 *order = task_orders + (j < B ? j : B - 1) * n_t;
        for (pos = 0; pos < n_t; pos++)
            tasks[pos * L + j] = (int32_t)order[pos];
    }
    for (pos = 0; pos < drawn; pos++) {
        const int32_t *task = tasks + pos * L;
        int32_t *pick = picks + pos * L;
        for (g = 0; g < G; g++) {
            double *mask = unused + g * LANES * n_res;
            const double *row[LANES];
            double acc[LANES];
            i64 src[LANES];
            for (s = 0; s < LANES; s++) {
                src[s] = LANES * g + s < B ? LANES * g + s : B - 1;
                row[s] = P_rows + (row_offsets[src[s]] + task[LANES * g + s]) * n_res;
                acc[s] = 0.0;
            }
            for (i = 0; i < n_res; i++)
                for (s = 0; s < LANES; s++) {
                    acc[s] = acc[s] + row[s][i] * mask[LANES * i + s];
                    cdf[LANES * i + s] = acc[s];
                }
            for (s = 0; s < LANES; s++) {
                i = genperm_pick(cdf + s, mask + s, n_res,
                                 rand_pos[pos * B + src[s]]);
                mask[LANES * i + s] = 0.0;
                pick[LANES * g + s] = (int32_t)i;
            }
        }
    }
    if (drawn < n_t) {
        int32_t *pick = picks + drawn * L;
        for (j = 0; j < L; j++) {
            const double *mask = unused + (j / LANES) * LANES * n_res + j % LANES;
            for (i = 0; mask[LANES * i] == 0.0; i++)
                ;
            pick[j] = (int32_t)i;
        }
    }
    for (j = 0; j < B; j++)
        for (pos = 0; pos < n_t; pos++)
            X[j * n_t + task_orders[j * n_t + pos]] = picks[pos * L + j];
    free(unused);
    free(cdf);
    free(tasks);
    free(picks);
    return 0;
}

/* ---------------- Duplicate-row collapse ---------------- */

/* Rows compare as their Horner-packed key words (as many int64-range
 * words as the alphabet needs, like impl_numpy.py's pack_rows_words),
 * which order exactly like the rows themselves. */
static int row_before(const uint64_t *keys, i64 n_words, i64 a, i64 b)
{
    const uint64_t *ka = keys + a * n_words;
    const uint64_t *kb = keys + b * n_words;
    i64 w;
    for (w = 0; w < n_words; w++)
        if (ka[w] != kb[w])
            return ka[w] < kb[w];
    return a < b;
}

/* Unique rows of X (N x n_cols, entries in [0, n_symbols)) in
 * lexicographic order, and inverse[i] = the unique row equal to row i.
 * A one-symbol alphabet packs like a two-symbol one.
 * unique_rows needs room for N rows; *n_unique receives the count. A
 * bottom-up merge sort orders row indices by key (ties by index, so the
 * first occurrence leads each run of equal rows). */
int repro_collapse_rows(const i64 *X, i64 N, i64 n_cols, i64 n_symbols,
                        i64 *unique_rows, i64 *inverse, i64 *n_unique)
{
    i64 digits = 1, n_words, span = n_symbols, i, w, c, width, u;
    uint64_t *keys;
    i64 *order, *tmp;
    *n_unique = 0;
    if (N == 0)
        return 0;
    if (n_symbols < 2)
        n_symbols = span = 2;
    while (span <= INT64_MAX / n_symbols) {
        span *= n_symbols;
        digits++;
    }
    n_words = (n_cols + digits - 1) / digits;
    keys = malloc((size_t)(N * n_words) * sizeof(uint64_t));
    order = malloc((size_t)N * sizeof(i64));
    tmp = malloc((size_t)N * sizeof(i64));
    if (keys == NULL || order == NULL || tmp == NULL) {
        free(keys);
        free(order);
        free(tmp);
        return -1;
    }
    for (i = 0; i < N; i++) {
        const i64 *row = X + i * n_cols;
        for (w = 0; w < n_words; w++) {
            i64 lo = w * digits;
            i64 hi = lo + digits < n_cols ? lo + digits : n_cols;
            uint64_t key = (uint64_t)row[lo];
            for (c = lo + 1; c < hi; c++)
                key = key * (uint64_t)n_symbols + (uint64_t)row[c];
            keys[i * n_words + w] = key;
        }
        order[i] = i;
    }
    for (width = 1; width < N; width *= 2) {
        i64 lo, *swap;
        for (lo = 0; lo < N; lo += 2 * width) {
            i64 mid = lo + width < N ? lo + width : N;
            i64 hi = lo + 2 * width < N ? lo + 2 * width : N;
            i64 a = lo, b = mid, o = lo;
            while (a < mid && b < hi)
                tmp[o++] = row_before(keys, n_words, order[b], order[a])
                               ? order[b++] : order[a++];
            while (a < mid)
                tmp[o++] = order[a++];
            while (b < hi)
                tmp[o++] = order[b++];
        }
        swap = order;
        order = tmp;
        tmp = swap;
    }
    u = -1;
    for (i = 0; i < N; i++) {
        i64 r = order[i];
        if (i == 0 || memcmp(keys + r * n_words, keys + order[i - 1] * n_words,
                             (size_t)n_words * sizeof(uint64_t)) != 0) {
            u++;
            memcpy(unique_rows + u * n_cols, X + r * n_cols,
                   (size_t)n_cols * sizeof(i64));
        }
        inverse[r] = u;
    }
    *n_unique = u + 1;
    free(keys);
    free(order);
    free(tmp);
    return 0;
}

/* ---------------- O(deg) delta probes ---------------- */

static void apply_move(double *ex, i64 *xs, i64 task, i64 dest,
                       const double *W, const double *w, const double *ccm,
                       i64 n_r, const i64 *off, const i64 *nbr,
                       const double *vol)
{
    i64 src = xs[task];
    i64 k;
    if (src == dest)
        return;
    ex[src] -= W[task] * w[src];
    ex[dest] += W[task] * w[dest];
    for (k = off[task]; k < off[task + 1]; k++) {
        i64 m = xs[nbr[k]];
        double cv = vol[k];
        if (m != src) {
            ex[src] -= cv * ccm[src * n_r + m];
            ex[m] -= cv * ccm[m * n_r + src];
        }
        if (m != dest) {
            ex[dest] += cv * ccm[dest * n_r + m];
            ex[m] += cv * ccm[m * n_r + dest];
        }
    }
    xs[task] = dest;
}

static double max_of(const double *ex, i64 n_r)
{
    double best = ex[0];
    i64 r;
    for (r = 1; r < n_r; r++)
        if (ex[r] > best)
            best = ex[r];
    return best;
}

int repro_move_cost(const double *exec_s, const i64 *x, i64 n_t, i64 n_r,
                    const double *W, const double *w, const double *ccm,
                    const i64 *off, const i64 *nbr, const double *vol,
                    i64 task, i64 dest, double *out)
{
    double *ex = malloc((size_t)n_r * sizeof(double));
    i64 *xs = malloc((size_t)n_t * sizeof(i64));
    if (ex == NULL || xs == NULL) {
        free(ex);
        free(xs);
        return -1;
    }
    memcpy(ex, exec_s, (size_t)n_r * sizeof(double));
    memcpy(xs, x, (size_t)n_t * sizeof(i64));
    apply_move(ex, xs, task, dest, W, w, ccm, n_r, off, nbr, vol);
    *out = max_of(ex, n_r);
    free(ex);
    free(xs);
    return 0;
}

int repro_swap_cost(const double *exec_s, const i64 *x, i64 n_t, i64 n_r,
                    const double *W, const double *w, const double *ccm,
                    const i64 *off, const i64 *nbr, const double *vol,
                    i64 t1, i64 t2, double *out)
{
    double *ex = malloc((size_t)n_r * sizeof(double));
    i64 *xs = malloc((size_t)n_t * sizeof(i64));
    i64 s1, s2;
    if (ex == NULL || xs == NULL) {
        free(ex);
        free(xs);
        return -1;
    }
    memcpy(ex, exec_s, (size_t)n_r * sizeof(double));
    memcpy(xs, x, (size_t)n_t * sizeof(i64));
    s1 = xs[t1];
    s2 = xs[t2];
    apply_move(ex, xs, t1, s2, W, w, ccm, n_r, off, nbr, vol);
    apply_move(ex, xs, t2, s1, W, w, ccm, n_r, off, nbr, vol);
    *out = max_of(ex, n_r);
    free(ex);
    free(xs);
    return 0;
}

int repro_swap_costs(const double *exec_s, const i64 *x, i64 n_t, i64 n_r,
                     const double *W, const double *w, const double *ccm,
                     const i64 *off, const i64 *nbr, const double *vol,
                     const i64 *pairs, i64 K, double *out)
{
    double *ex = malloc((size_t)n_r * sizeof(double));
    i64 *xs = malloc((size_t)n_t * sizeof(i64));
    i64 p, s1, s2;
    if (ex == NULL || xs == NULL) {
        free(ex);
        free(xs);
        return -1;
    }
    for (p = 0; p < K; p++) {
        memcpy(ex, exec_s, (size_t)n_r * sizeof(double));
        memcpy(xs, x, (size_t)n_t * sizeof(i64));
        s1 = xs[pairs[p * 2]];
        s2 = xs[pairs[p * 2 + 1]];
        apply_move(ex, xs, pairs[p * 2], s2, W, w, ccm, n_r, off, nbr, vol);
        apply_move(ex, xs, pairs[p * 2 + 1], s1, W, w, ccm, n_r, off, nbr, vol);
        out[p] = max_of(ex, n_r);
    }
    free(ex);
    free(xs);
    return 0;
}
