/* Compiled kernel for the delayed-start shifted BFS.
 *
 * ``delayed_bfs`` runs the whole of
 * ``repro.bfs.delayed.delayed_multisource_bfs`` in one call with the GIL
 * released, in O(n + m + R) time for R wake rounds and with no sort:
 *
 * - the wake schedule is a counting sort of the eligible vertices by
 *   ``floor_start`` (ties in vertex-id order, the order numpy's stable
 *   ``argsort`` gives); a schedule spanning far more rounds than there are
 *   vertices falls back to a comparison sort on ``(round, vertex)``;
 * - each round does the wake scan, then one CSR sweep over the frontier
 *   that bids ``(tie_key[center], center)`` on every unowned neighbour —
 *   the CRCW priority write, kept in ``center`` of the bid-on vertex until
 *   the round commits — and the commit, whose winners become the next
 *   frontier;
 * - rounds in which nothing is claimed fast-forward to the next pending
 *   wake.
 *
 * Contract: the ``DelayedBFSResult`` is identical to the numpy path's,
 * field for field.  A vertex's winner is the minimum ``(tie_key[center],
 * center)`` pair over all bids, which is unique, and the comparisons are
 * the same IEEE-754 double comparisons numpy's ``lexsort``/``minimum.at``
 * make (NaN keys are rejected upstream).  Frontier order is not observable
 * in the result — center, round_claimed, hops, rounds, work and the
 * per-round frontier sizes are all order-independent — so winners stay in
 * bid order and no round sorts (a round claiming an eighth of the graph or
 * more is re-emitted ascending by one linear pass, for memory locality).
 * The differential conformance suite (tests/test_conformance.py) pins the
 * equivalence.
 *
 * ``resolve_claims`` is the standalone priority write behind the
 * ``resolve_claims()`` front door; its winners are emitted ascending.
 *
 * The module deliberately uses only the CPython buffer protocol — no
 * numpy C API — so it compiles against any numpy version the package
 * supports.  Arrays must be C-contiguous int64 (``l``/``q``), float64
 * (``d``) or, for masks, one-byte bool (``?``); the Python wrappers in
 * ``repro.bfs.delayed`` guarantee that.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>

/* "no bid yet" sentinel in the best_center scratch array; real center ids
 * are vertex ids < n, so the sentinel can never win a comparison. */
#define NO_CENTER INT64_MAX

/* ------------------------------------------------------------------ */
/* buffer helpers                                                      */
/* ------------------------------------------------------------------ */

static int
get_buffer(PyObject *obj, Py_buffer *view, int writable, char kind,
           const char *name, void **data, Py_ssize_t *len)
{
    const char *want =
        kind == 'i' ? "int64" : kind == 'd' ? "float64" : "bool";
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a C-contiguous %s array%s",
                     name, want, writable ? " (writable)" : "");
        return -1;
    }
    const char *fmt = view->format ? view->format : "B";
    int ok;
    if (kind == 'i')
        ok = view->itemsize == 8 && (fmt[0] == 'l' || fmt[0] == 'q') &&
             fmt[1] == '\0';
    else if (kind == 'd')
        ok = view->itemsize == 8 && fmt[0] == 'd' && fmt[1] == '\0';
    else
        ok = view->itemsize == 1 && fmt[0] == '?' && fmt[1] == '\0';
    if (!ok) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a C-contiguous %s array, got format '%s'",
                     name, want, fmt);
        PyBuffer_Release(view);
        return -1;
    }
    *data = view->buf;
    *len = view->len / view->itemsize;
    return 0;
}

/* Acquire buffer ``b[nb]`` or jump to the caller's ``fail`` label. */
#define GRAB(obj, writable, kind, name, ptr, len)                       \
    do {                                                                \
        if (get_buffer(obj, &b[nb], writable, kind, name,               \
                       (void **)(ptr), (len)) < 0)                      \
            goto fail;                                                  \
        nb++;                                                           \
    } while (0)

/* ------------------------------------------------------------------ */
/* the CRCW priority write: min (key, center) per vertex               */
/* ------------------------------------------------------------------ */

static inline Py_ssize_t
bid(int64_t v, double key, int64_t c, double *best_key,
    int64_t *best_center, int64_t *touched, Py_ssize_t n_touched)
{
    if (best_center[v] == NO_CENTER) {
        touched[n_touched++] = v;
        best_key[v] = key;
        best_center[v] = c;
    } else if (key < best_key[v] ||
               (key == best_key[v] && c < best_center[v])) {
        best_key[v] = key;
        best_center[v] = c;
    }
    return n_touched;
}

static int
cmp_int64(const void *a, const void *b)
{
    const int64_t x = *(const int64_t *)a, y = *(const int64_t *)b;
    return (x > y) - (x < y);
}

/* ------------------------------------------------------------------ */
/* delayed_bfs: the whole shifted BFS in one call                      */
/* ------------------------------------------------------------------ */

/* A schedule spanning more rounds than this (beyond 2 per eligible vertex)
 * is comparison-sorted instead: the counting sort's O(R) bucket array would
 * outweigh the graph. */
#define COUNTING_SORT_SLACK 65536

/* Largest wake round accepted, so the int64 round counter cannot overflow. */
#define MAX_FLOOR ((int64_t)1 << 62)

/* The priority write of delayed_bfs: ``center[v]`` of a vertex not yet
 * owned holds its best bid of the round, -1 before the first. */
static inline Py_ssize_t
bid_center(int64_t v, int64_t c, const double *tie_key, int64_t *center,
           int64_t *touched, Py_ssize_t n_touched)
{
    int64_t b = center[v];
    if (b == -1) {
        touched[n_touched++] = v;
        center[v] = c;
    } else if (tie_key[c] < tie_key[b] ||
               (tie_key[c] == tie_key[b] && c < b)) {
        center[v] = c;
    }
    return n_touched;
}

typedef struct {
    int64_t round, vertex;
} wake_t;

static int
cmp_wake(const void *a, const void *b)
{
    const wake_t *x = (const wake_t *)a, *y = (const wake_t *)b;
    if (x->round != y->round)
        return (x->round > y->round) - (x->round < y->round);
    return (x->vertex > y->vertex) - (x->vertex < y->vertex);
}

static double
now_seconds(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
}

/* Fill ``sched`` with the eligible vertices and their wake rounds, sorted
 * by (round, vertex).  Returns NULL on success, else an error message
 * (``*nomem`` set when the message is an allocation failure). */
static const char *
wake_schedule(const int64_t *floor_start, const char *mask, Py_ssize_t n,
              wake_t *sched, Py_ssize_t *n_elig_out, int *nomem)
{
    Py_ssize_t n_elig = 0;
    int64_t lo = INT64_MAX, hi = 0;
    for (Py_ssize_t v = 0; v < n; v++) {
        if (mask != NULL && !mask[v])
            continue;
        int64_t f = floor_start[v];
        if (f < 0 || f > MAX_FLOOR)
            return "floor_start must lie in [0, 2**62]";
        if (f < lo)
            lo = f;
        if (f > hi)
            hi = f;
        n_elig++;
    }
    *n_elig_out = n_elig;
    if (n_elig == 0)
        return NULL;
    uint64_t span = (uint64_t)(hi - lo);
    if (span > 2 * (uint64_t)n_elig + COUNTING_SORT_SLACK) {
        Py_ssize_t k = 0;
        for (Py_ssize_t v = 0; v < n; v++)
            if (mask == NULL || mask[v]) {
                sched[k].round = floor_start[v];
                sched[k++].vertex = v;
            }
        qsort(sched, (size_t)n_elig, sizeof(wake_t), cmp_wake);
        return NULL;
    }
    int64_t *next = calloc((size_t)span + 1, sizeof(int64_t));
    if (next == NULL) {
        *nomem = 1;
        return "out of memory";
    }
    for (Py_ssize_t v = 0; v < n; v++)
        if (mask == NULL || mask[v])
            next[floor_start[v] - lo]++;
    int64_t pos = 0;
    for (uint64_t r = 0; r <= span; r++) {
        int64_t count = next[r];
        next[r] = pos;
        pos += count;
    }
    for (Py_ssize_t v = 0; v < n; v++)
        if (mask == NULL || mask[v]) {
            wake_t *slot = &sched[next[floor_start[v] - lo]++];
            slot->round = floor_start[v];
            slot->vertex = v;
        }
    free(next);
    return NULL;
}

PyDoc_STRVAR(delayed_bfs_doc,
"delayed_bfs(indptr, indices, floor_start, tie_key, center_mask, max_round,\n"
"            center, round_claimed, hops, frontier_sizes, phase_seconds)\n"
"    -> (num_rounds, active_rounds, work)\n"
"\n"
"Run the delayed-start shifted BFS to completion.  ``center_mask`` is a\n"
"bool array or None (every vertex may wake); ``max_round`` is the inclusive\n"
"round cap.  ``center``, ``round_claimed`` and ``hops`` (int64, length n)\n"
"are overwritten with the result, -1 for unclaimed vertices; the claim count\n"
"of each active round goes to ``frontier_sizes`` (int64, length >= n).\n"
"``phase_seconds`` is None or a float64 array of length >= 2 to which the\n"
"gather and resolve seconds are added.");

static PyObject *
py_delayed_bfs(PyObject *self, PyObject *args)
{
    PyObject *o_indptr, *o_indices, *o_floor, *o_tie_key, *o_mask,
        *o_center, *o_round, *o_hops, *o_sizes, *o_phase;
    long long max_round;
    if (!PyArg_ParseTuple(args, "OOOOOLOOOOO", &o_indptr, &o_indices,
                          &o_floor, &o_tie_key, &o_mask, &max_round,
                          &o_center, &o_round, &o_hops, &o_sizes, &o_phase))
        return NULL;

    Py_buffer b[10];
    int nb = 0;
    int64_t *indptr, *indices, *floor_start, *center, *round_claimed, *hops,
        *sizes;
    double *tie_key, *phase = NULL;
    char *mask = NULL;
    Py_ssize_t len_indptr, len_indices, len_floor, len_tie_key, len_mask, n,
        len_round, len_hops, len_sizes, len_phase = 2;

    GRAB(o_indptr, 0, 'i', "indptr", &indptr, &len_indptr);
    GRAB(o_indices, 0, 'i', "indices", &indices, &len_indices);
    GRAB(o_floor, 0, 'i', "floor_start", &floor_start, &len_floor);
    GRAB(o_tie_key, 0, 'd', "tie_key", &tie_key, &len_tie_key);
    GRAB(o_center, 1, 'i', "center", &center, &n);
    GRAB(o_round, 1, 'i', "round_claimed", &round_claimed, &len_round);
    GRAB(o_hops, 1, 'i', "hops", &hops, &len_hops);
    GRAB(o_sizes, 1, 'i', "frontier_sizes", &sizes, &len_sizes);
    len_mask = n;
    if (o_mask != Py_None)
        GRAB(o_mask, 0, 'b', "center_mask", &mask, &len_mask);
    if (o_phase != Py_None)
        GRAB(o_phase, 1, 'd', "phase_seconds", &phase, &len_phase);

    if (len_indptr != n + 1 || len_floor != n || len_tie_key != n ||
        len_round != n || len_hops != n || len_mask != n || len_sizes < n ||
        len_phase < 2) {
        PyErr_SetString(PyExc_ValueError,
                        "delayed_bfs: array lengths are inconsistent "
                        "with the vertex count");
        goto fail;
    }

    /* Scratch: an owned-byte map (n bytes stay cache-resident where
     * ``center`` does not: the arc sweep tests it for every arc), the
     * frontier and the next round's touched list, and the wake schedule.
     * A round's bids go straight into ``center`` of still-unowned vertices
     * (see bid_center), so no per-vertex bid scratch is needed. */
    char *owned = calloc((size_t)(n ? n : 1), 1);
    int64_t *frontier = malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    int64_t *touched = malloc((size_t)(n ? n : 1) * sizeof(int64_t));
    wake_t *sched = malloc((size_t)(n ? n : 1) * sizeof(wake_t));
    const char *err = NULL;
    int nomem = owned == NULL || frontier == NULL || touched == NULL ||
                sched == NULL;
    int64_t work = 0, num_rounds = 0;
    Py_ssize_t active = 0;
    double gather_s = 0.0, resolve_s = 0.0;

    Py_BEGIN_ALLOW_THREADS
    Py_ssize_t n_elig = 0;
    if (nomem)
        err = "out of memory";
    else {
        memset(center, 0xff, (size_t)n * sizeof(int64_t));
        memset(round_claimed, 0xff, (size_t)n * sizeof(int64_t));
        memset(hops, 0xff, (size_t)n * sizeof(int64_t));
        err = wake_schedule(floor_start, mask, n, sched, &n_elig, &nomem);
    }
    if (err == NULL && n_elig > 0) {
        Py_ssize_t ptr = 0, n_frontier = 0;
        int64_t t = sched[0].round, first = t, last = t;
        const int timed = phase != NULL;
        while (t <= max_round) {
            double t0 = timed ? now_seconds() : 0.0;
            Py_ssize_t n_touched = 0;
            /* wake-up bids: still-unowned vertices scheduled by round t */
            for (; ptr < n_elig && sched[ptr].round <= t; ptr++) {
                int64_t w = sched[ptr].vertex;
                if (owned[w])
                    continue;
                work++;
                n_touched = bid_center(w, w, tie_key, center, touched,
                                       n_touched);
            }
            /* propagation bids along every arc out of the frontier */
            for (Py_ssize_t i = 0; i < n_frontier && err == NULL; i++) {
                int64_t u = frontier[i], c = center[u];
                int64_t a = indptr[u], hi = indptr[u + 1];
                if (a < 0 || hi < a || hi > len_indices) {
                    err = "corrupt CSR offsets";
                    break;
                }
                work += hi - a;
                for (; a < hi; a++) {
                    int64_t v = indices[a];
                    if (v < 0 || v >= n) {
                        err = "arc target out of range";
                        break;
                    }
                    if (owned[v])
                        continue;
                    n_touched = bid_center(v, c, tie_key, center, touched,
                                           n_touched);
                }
            }
            if (err != NULL)
                break;
            double t1 = timed ? now_seconds() : 0.0;
            gather_s += t1 - t0;
            /* commit: winners claim their vertex and form the next frontier */
            for (Py_ssize_t i = 0; i < n_touched; i++) {
                int64_t v = touched[i];
                owned[v] = 1;
                round_claimed[v] = t;
                hops[v] = t - floor_start[center[v]];
            }
            /* A round that claims an eighth of the graph or more re-emits
             * its winners in ascending order with one pass over
             * round_claimed, so the next sweep reads CSR rows in address
             * order (random row order thrashes the TLB on dense graphs).
             * At most eight rounds qualify, so the passes cost O(n). */
            if (8 * n_touched >= n) {
                Py_ssize_t k = 0;
                for (Py_ssize_t v = 0; v < n; v++)
                    if (round_claimed[v] == t)
                        touched[k++] = v;
            }
            int64_t *swap = frontier;
            frontier = touched;
            touched = swap;
            n_frontier = n_touched;
            if (n_touched) {
                if (timed)
                    resolve_s += now_seconds() - t1;
                sizes[active++] = n_touched;
                last = t;
                t++;
            } else {
                /* fast-forward to the next still-unowned wake */
                while (ptr < n_elig && owned[sched[ptr].vertex])
                    ptr++;
                if (ptr == n_elig)
                    break;
                t = sched[ptr].round;
            }
            if (n_frontier == 0 && ptr >= n_elig)
                break;
        }
        num_rounds = active ? last - first + 1 : 0;
    }
    Py_END_ALLOW_THREADS

    free(owned);
    free(frontier);
    free(touched);
    free(sched);
    if (err != NULL) {
        PyErr_SetString(nomem ? PyExc_MemoryError : PyExc_ValueError, err);
        goto fail;
    }
    if (phase != NULL) {
        phase[0] += gather_s;
        phase[1] += resolve_s;
    }
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return Py_BuildValue("LnL", (long long)num_rounds, active,
                         (long long)work);

fail:
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* standalone resolve_claims: the public CRCW priority write           */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(resolve_claims_doc,
"resolve_claims(cand_vertex, cand_center, tie_key, best_key, best_center,\n"
"               touched, winners, owners) -> n_winners\n"
"\n"
"Resolve a candidate multiset in one pass: per vertex the minimum\n"
"``(tie_key[center], center)`` pair wins.  Winners (ascending) and their\n"
"owners are written into the output buffers; the scratch arrays are left\n"
"pristine.  Bit-identical to both numpy implementations in\n"
"``repro.bfs.delayed.resolve_claims``.");

static PyObject *
py_resolve_claims(PyObject *self, PyObject *args)
{
    PyObject *o_cand_v, *o_cand_c, *o_tie_key, *o_best_key, *o_best_center,
        *o_touched, *o_winners, *o_owners;
    if (!PyArg_ParseTuple(args, "OOOOOOOO", &o_cand_v, &o_cand_c,
                          &o_tie_key, &o_best_key, &o_best_center,
                          &o_touched, &o_winners, &o_owners))
        return NULL;

    Py_buffer b[8];
    int nb = 0;
    int64_t *cand_v, *cand_c, *best_center, *touched, *winners, *owners;
    double *tie_key, *best_key;
    Py_ssize_t len_cand, len_cand_c, len_tie_key, n, len_best_center,
        len_touched, len_winners, len_owners;

    GRAB(o_cand_v, 0, 'i', "cand_vertex", &cand_v, &len_cand);
    GRAB(o_cand_c, 0, 'i', "cand_center", &cand_c, &len_cand_c);
    GRAB(o_tie_key, 0, 'd', "tie_key", &tie_key, &len_tie_key);
    GRAB(o_best_key, 1, 'd', "best_key", &best_key, &n);
    GRAB(o_best_center, 1, 'i', "best_center", &best_center,
         &len_best_center);
    GRAB(o_touched, 1, 'i', "touched", &touched, &len_touched);
    GRAB(o_winners, 1, 'i', "winners", &winners, &len_winners);
    GRAB(o_owners, 1, 'i', "owners", &owners, &len_owners);

    Py_ssize_t cap = len_cand < n ? len_cand : n;
    if (len_cand_c != len_cand || len_best_center != n || len_touched < cap ||
        len_winners < cap || len_owners < cap) {
        PyErr_SetString(PyExc_ValueError,
                        "resolve_claims: array lengths are inconsistent");
        goto fail;
    }

    Py_ssize_t n_touched = 0;
    const char *err = NULL;
    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < len_cand; i++) {
        int64_t v = cand_v[i], c = cand_c[i];
        if (v < 0 || v >= n) {
            err = "candidate vertex id out of range";
            break;
        }
        if (c < 0 || c >= len_tie_key) {
            err = "candidate center id out of range";
            break;
        }
        n_touched = bid(v, tie_key[c], c, best_key, best_center, touched,
                        n_touched);
    }
    if (err == NULL) {
        qsort(touched, (size_t)n_touched, sizeof(int64_t), cmp_int64);
        for (Py_ssize_t i = 0; i < n_touched; i++) {
            int64_t v = touched[i];
            winners[i] = v;
            owners[i] = best_center[v];
            best_key[v] = INFINITY;
            best_center[v] = NO_CENTER;
        }
    }
    Py_END_ALLOW_THREADS

    if (err != NULL) {
        /* leave no stale scratch behind: reset everything we touched */
        for (Py_ssize_t i = 0; i < n_touched; i++) {
            int64_t v = touched[i];
            if (v >= 0 && v < n) {
                best_key[v] = INFINITY;
                best_center[v] = NO_CENTER;
            }
        }
        PyErr_SetString(PyExc_ValueError, err);
        goto fail;
    }
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return PyLong_FromSsize_t(n_touched);

fail:
    for (int i = 0; i < nb; i++)
        PyBuffer_Release(&b[i]);
    return NULL;
}

#undef GRAB

/* ------------------------------------------------------------------ */
/* module scaffolding                                                  */
/* ------------------------------------------------------------------ */

static PyMethodDef kernel_methods[] = {
    {"delayed_bfs", py_delayed_bfs, METH_VARARGS, delayed_bfs_doc},
    {"resolve_claims", py_resolve_claims, METH_VARARGS, resolve_claims_doc},
    {NULL, NULL, 0, NULL},
};

PyDoc_STRVAR(module_doc,
"Compiled kernel for the delayed-start shifted BFS.\n"
"\n"
"Internal module — use :mod:`repro.bfs.kernels` for dispatch and\n"
":func:`repro.bfs.delayed.delayed_multisource_bfs` with ``kernel=...``\n"
"for the user-facing switch.");

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    "repro.bfs._kernel",
    module_doc,
    0,
    kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    return PyModule_Create(&kernel_module);
}
