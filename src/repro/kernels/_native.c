/* repro.kernels._native — compiled backend for the replay hot loops
 * (the kernel ABI in repro/kernels/__init__.py):
 *
 *   policy_replay        — mirror of repro.protocols.fused.run_group /
 *                          run_kernel for the five compiled policies
 *                          (Group, Owner, Broadcast-if-shared,
 *                          Owner-group, Sticky-spatial), plus two
 *                          protocol modes on the same MOSI core for
 *                          the baselines (DirectoryProtocol and
 *                          BroadcastSnoopingProtocol._handle_fast);
 *                          the predictor modes optionally score each
 *                          prediction (the accuracy analysis)
 *   timing_pass          — mirror of TimingSimulator._timing_pass_simple
 *   timing_pass_detailed — the same crossbar pass with the detailed
 *                          (bounded-outstanding-miss) processor model
 *   Collector            — mirror of TraceCollector.process_chunk
 *
 * The contract is byte identity with the Python loops: every integer
 * update, LRU stamp, eviction choice and IEEE-754 double operation is
 * replicated in the same order, so ResultSet JSON, predictor-table
 * state and the hex-float timing goldens come out identical.  The
 * equivalence suites are the oracle.
 *
 * Envelope: replay destination-set bitmasks are carried in two uint64
 * words, so policy_replay accepts node counts <= 128; the chunk
 * collector keeps the original <= 62-node single-lane envelope (its
 * sharer masks live in one int64 map value).  Addresses/pcs are
 * non-negative (the trace container's documented invariant) and the
 * index granularity is a power of two (validated by PredictorConfig).
 * Callers in repro/kernels/native.py check the envelope and fall back
 * to the Python tiers otherwise; functions here return None (without
 * touching any Python state) when they meet state outside it, e.g. a
 * key that overflows int64.
 *
 * Column buffers: trace columns arrive as PyArg_ParseTuple "y*"
 * (PyBUF_SIMPLE) buffers, so ANY C-contiguous buffer-protocol object
 * qualifies — stdlib array columns, and equally the read-only
 * memoryview columns of an mmap-backed frozen trace (the v2 trace
 * store, repro/trace/io.py).  Mapped store pages therefore flow into
 * compiled replay with zero copies; nothing here may write through a
 * "y*" buffer (output buffers are parsed "w*").  Non-contiguous views
 * are rejected by the parse itself; the marshal layer declines them
 * first.
 *
 * Threading: every kernel runs in three phases — marshal Python state
 * into C buffers (GIL held), pure-C compute inside
 * Py_BEGIN_ALLOW_THREADS/Py_END_ALLOW_THREADS, and write-back (GIL
 * reacquired).  The compute phases touch no Python objects and
 * allocate only through the PyMem_Raw* family (the GIL-requiring
 * PyMem_* tier must not be called without the GIL); errors discovered
 * mid-compute set a flag and raise after the GIL is back.  Concurrent
 * calls share no module state, so sweep cells can replay on threads
 * in parallel.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Open-addressing int64 hash map (two int64 values per key).          */
/* Keys are non-negative in every use here, so INT64_MIN sentinels     */
/* are safe.                                                           */
/* ------------------------------------------------------------------ */

#define MAP_EMPTY INT64_MIN
#define MAP_TOMB (INT64_MIN + 1)

typedef struct {
    int64_t *keys;
    int64_t *v1;
    int64_t *v2;
    int64_t *v3; /* third lane: high sharer word for wide MOSI state */
    Py_ssize_t cap;  /* power of two */
    Py_ssize_t used; /* live entries */
    Py_ssize_t fill; /* live + tombstones */
} I64Map;

static uint64_t
mix64(uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

static int
map_init(I64Map *m, Py_ssize_t expect)
{
    Py_ssize_t cap = 16;
    while (cap < expect * 2)
        cap <<= 1;
    m->keys = PyMem_RawMalloc((size_t)cap * sizeof(int64_t));
    m->v1 = PyMem_RawMalloc((size_t)cap * sizeof(int64_t));
    m->v2 = PyMem_RawMalloc((size_t)cap * sizeof(int64_t));
    m->v3 = PyMem_RawMalloc((size_t)cap * sizeof(int64_t));
    if (!m->keys || !m->v1 || !m->v2 || !m->v3) {
        PyMem_RawFree(m->keys);
        PyMem_RawFree(m->v1);
        PyMem_RawFree(m->v2);
        PyMem_RawFree(m->v3);
        m->keys = NULL;
        return -1;
    }
    for (Py_ssize_t i = 0; i < cap; i++)
        m->keys[i] = MAP_EMPTY;
    m->cap = cap;
    m->used = 0;
    m->fill = 0;
    return 0;
}

static void
map_free(I64Map *m)
{
    PyMem_RawFree(m->keys);
    PyMem_RawFree(m->v1);
    PyMem_RawFree(m->v2);
    PyMem_RawFree(m->v3);
    m->keys = NULL;
}

static Py_ssize_t
map_find(const I64Map *m, int64_t key)
{
    uint64_t mask = (uint64_t)m->cap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    while (1) {
        int64_t k = m->keys[i];
        if (k == key)
            return (Py_ssize_t)i;
        if (k == MAP_EMPTY)
            return -1;
        i = (i + 1) & mask;
    }
}

static int map_put3(I64Map *m, int64_t key, int64_t v1, int64_t v2,
                    int64_t v3);

static int
map_grow(I64Map *m)
{
    I64Map bigger;
    Py_ssize_t want = m->used ? m->used : 8;
    if (map_init(&bigger, want * 2) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < m->cap; i++) {
        int64_t k = m->keys[i];
        if (k != MAP_EMPTY && k != MAP_TOMB) {
            if (map_put3(&bigger, k, m->v1[i], m->v2[i], m->v3[i]) < 0) {
                map_free(&bigger);
                return -1;
            }
        }
    }
    map_free(m);
    *m = bigger;
    return 0;
}

static int
map_put3(I64Map *m, int64_t key, int64_t v1, int64_t v2, int64_t v3)
{
    if ((m->fill + 1) * 10 >= m->cap * 7) {
        if (map_grow(m) < 0)
            return -1;
    }
    uint64_t mask = (uint64_t)m->cap - 1;
    uint64_t i = mix64((uint64_t)key) & mask;
    Py_ssize_t tomb = -1;
    while (1) {
        int64_t k = m->keys[i];
        if (k == key) {
            m->v1[i] = v1;
            m->v2[i] = v2;
            m->v3[i] = v3;
            return 0;
        }
        if (k == MAP_TOMB) {
            if (tomb < 0)
                tomb = (Py_ssize_t)i;
        }
        else if (k == MAP_EMPTY) {
            if (tomb >= 0) {
                i = (uint64_t)tomb;
            }
            else {
                m->fill++;
            }
            m->keys[i] = key;
            m->v1[i] = v1;
            m->v2[i] = v2;
            m->v3[i] = v3;
            m->used++;
            return 0;
        }
        i = (i + 1) & mask;
    }
}

static int
map_put(I64Map *m, int64_t key, int64_t v1, int64_t v2)
{
    return map_put3(m, key, v1, v2, 0);
}

static void
map_del_at(I64Map *m, Py_ssize_t slot)
{
    m->keys[slot] = MAP_TOMB;
    m->used--;
}

/* Exact int64 from a PyLong; *overflow set when it does not fit (the
 * caller then falls back to the Python tier — the int64 overflow
 * guard the dtype-edge satellite pins). */
static int64_t
as_i64(PyObject *obj, int *overflow)
{
    int of = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &of);
    if (of || (v == -1 && PyErr_Occurred())) {
        PyErr_Clear();
        *overflow = 1;
        return 0;
    }
    return (int64_t)v;
}

/* Exact non-negative value < 2^128 from a PyLong into two uint64
 * words (the two-lane destination-set representation).  Returns 0,
 * 1 for "outside the envelope: fall back" (no error set), or -1 with
 * a Python error set. */
static int
as_u128(PyObject *obj, uint64_t *lo, uint64_t *hi)
{
    int of = 0;
    long long v = PyLong_AsLongLongAndOverflow(obj, &of);
    if (of == 0) {
        if (v == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            return 1; /* not an integer */
        }
        if (v < 0)
            return 1;
        *lo = (uint64_t)v;
        *hi = 0;
        return 0;
    }
    if (of < 0)
        return 1;
    /* Overflow can only happen for a real int, so PyNumber shifts are
     * safe from here on. */
    int rc = -1;
    PyObject *shift = NULL, *hiobj = NULL, *topobj = NULL;
    shift = PyLong_FromLong(64);
    if (!shift)
        goto done;
    hiobj = PyNumber_Rshift(obj, shift);
    if (!hiobj)
        goto done;
    topobj = PyNumber_Rshift(hiobj, shift);
    if (!topobj)
        goto done;
    int top = PyObject_IsTrue(topobj);
    if (top < 0)
        goto done;
    if (top) {
        rc = 1; /* >= 2^128 */
        goto done;
    }
    *hi = PyLong_AsUnsignedLongLongMask(hiobj);
    *lo = PyLong_AsUnsignedLongLongMask(obj);
    if (PyErr_Occurred()) {
        PyErr_Clear();
        rc = 1;
        goto done;
    }
    rc = 0;
done:
    Py_XDECREF(shift);
    Py_XDECREF(hiobj);
    Py_XDECREF(topobj);
    return rc;
}

/* Rebuild the PyLong (lo | hi << 64).  NULL with an error set on
 * failure. */
static PyObject *
u128_to_pylong(uint64_t lo, uint64_t hi)
{
    if (hi == 0)
        return PyLong_FromUnsignedLongLong((unsigned long long)lo);
    PyObject *hiobj = PyLong_FromUnsignedLongLong((unsigned long long)hi);
    PyObject *shift = hiobj ? PyLong_FromLong(64) : NULL;
    PyObject *shifted = shift ? PyNumber_Lshift(hiobj, shift) : NULL;
    PyObject *loobj =
        shifted ? PyLong_FromUnsignedLongLong((unsigned long long)lo) : NULL;
    PyObject *result = loobj ? PyNumber_Or(shifted, loobj) : NULL;
    Py_XDECREF(hiobj);
    Py_XDECREF(shift);
    Py_XDECREF(shifted);
    Py_XDECREF(loobj);
    return result;
}

/* Two-lane bitmask helpers (nodes 0..63 in lo, 64..127 in hi). */
static inline void
bit128_set(uint64_t *lo, uint64_t *hi, int node)
{
    if (node < 64)
        *lo |= (uint64_t)1 << node;
    else
        *hi |= (uint64_t)1 << (node - 64);
}

static inline int64_t
popcount128(uint64_t lo, uint64_t hi)
{
    return (int64_t)(__builtin_popcountll(lo) + __builtin_popcountll(hi));
}

/* True when the mask names only nodes below n_nodes (1..128). */
static inline int
mask128_fits(uint64_t lo, uint64_t hi, int n_nodes)
{
    if (n_nodes >= 128)
        return 1;
    if (n_nodes > 64)
        return (hi >> (n_nodes - 64)) == 0;
    return hi == 0 && (n_nodes == 64 || (lo >> n_nodes) == 0);
}

/* Python's floored %, for sticky-spatial neighbour indexes which can
 * be -1 (m is always > 0 here). */
static inline int64_t
floormod64(int64_t x, int64_t m)
{
    int64_t r = x % m;
    return r < 0 ? r + m : r;
}

/* ------------------------------------------------------------------ */
/* timing_pass: mirror of TimingSimulator._timing_pass_simple.         */
/* ------------------------------------------------------------------ */

static PyObject *
timing_pass(PyObject *self, PyObject *args)
{
    Py_buffer req, instr, lat, tb, clocks, link;
    double bandwidth, per_ns, queue_ns;

    if (!PyArg_ParseTuple(args, "y*y*y*y*w*w*ddd", &req, &instr, &lat,
                          &tb, &clocks, &link, &bandwidth, &per_ns,
                          &queue_ns))
        return NULL;

    PyObject *result = NULL;
    Py_ssize_t n = lat.len / (Py_ssize_t)sizeof(double);
    if (req.len != n * (Py_ssize_t)sizeof(int32_t)
        || instr.len != n * (Py_ssize_t)sizeof(int64_t)
        || tb.len != n * (Py_ssize_t)sizeof(int64_t)) {
        PyErr_SetString(PyExc_ValueError, "timing_pass: column length mismatch");
        goto done;
    }

    {
        const int32_t *reqs = req.buf;
        const int64_t *gaps = instr.buf;
        const double *lats = lat.buf;
        const int64_t *tbs = tb.buf;
        double *clk = clocks.buf;
        double *lnk = link.buf;
        Py_ssize_t nodes = clocks.len / (Py_ssize_t)sizeof(double);
        int64_t carried = 0;
        int bad = 0;

        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            int32_t r = reqs[i];
            if (r < 0 || r >= nodes) {
                bad = 1;
                break;
            }
            double issue = clk[r] + (double)gaps[i] / per_ns;
            double free_ns = lnk[r];
            double start = issue >= free_ns ? issue : free_ns;
            queue_ns += start - issue;
            double finish = start + (double)tbs[i] / bandwidth;
            lnk[r] = finish;
            carried += tbs[i];
            double link_delay = finish - issue;
            double base = lats[i];
            double completion =
                issue + (base > link_delay ? base : link_delay);
            clk[r] = issue >= completion ? issue : completion;
        }
        Py_END_ALLOW_THREADS
        if (bad) {
            PyErr_SetString(PyExc_ValueError,
                            "timing_pass: requester out of range");
            goto done;
        }
        result = Py_BuildValue("dL", queue_ns, (long long)carried);
    }

done:
    PyBuffer_Release(&req);
    PyBuffer_Release(&instr);
    PyBuffer_Release(&lat);
    PyBuffer_Release(&tb);
    PyBuffer_Release(&clocks);
    PyBuffer_Release(&link);
    return result;
}

/* ------------------------------------------------------------------ */
/* timing_pass_detailed: the crossbar pass with the detailed           */
/* (bounded-outstanding-miss) processor model.  The per-processor      */
/* min-heaps replicate CPython's heapq sift algorithms exactly so the  */
/* heap lists written back compare equal element-for-element.          */
/* ------------------------------------------------------------------ */

static void
heap_siftdown(double *h, Py_ssize_t startpos, Py_ssize_t pos)
{
    double newitem = h[pos];
    while (pos > startpos) {
        Py_ssize_t parentpos = (pos - 1) >> 1;
        double parent = h[parentpos];
        if (newitem < parent) {
            h[pos] = parent;
            pos = parentpos;
            continue;
        }
        break;
    }
    h[pos] = newitem;
}

static void
heap_siftup(double *h, Py_ssize_t endpos, Py_ssize_t pos)
{
    Py_ssize_t startpos = pos;
    double newitem = h[pos];
    Py_ssize_t childpos = 2 * pos + 1;
    while (childpos < endpos) {
        Py_ssize_t rightpos = childpos + 1;
        if (rightpos < endpos && !(h[childpos] < h[rightpos]))
            childpos = rightpos;
        h[pos] = h[childpos];
        pos = childpos;
        childpos = 2 * pos + 1;
    }
    h[pos] = newitem;
    heap_siftdown(h, startpos, pos);
}

static void
heappush_d(double *h, int32_t *len, double item)
{
    h[*len] = item;
    (*len)++;
    heap_siftdown(h, 0, (Py_ssize_t)*len - 1);
}

static double
heappop_d(double *h, int32_t *len)
{
    double lastelt = h[--(*len)];
    if (*len) {
        double returnitem = h[0];
        h[0] = lastelt;
        heap_siftup(h, (Py_ssize_t)*len, 0);
        return returnitem;
    }
    return lastelt;
}

static PyObject *
timing_pass_detailed(PyObject *self, PyObject *args)
{
    Py_buffer req, instr, lat, tb, clocks, link, heaps, hlens;
    int max_out;
    double bandwidth, per_ns, queue_ns;

    if (!PyArg_ParseTuple(args, "y*y*y*y*w*w*w*w*iddd", &req, &instr,
                          &lat, &tb, &clocks, &link, &heaps, &hlens,
                          &max_out, &bandwidth, &per_ns, &queue_ns))
        return NULL;

    PyObject *result = NULL;
    Py_ssize_t n = lat.len / (Py_ssize_t)sizeof(double);
    Py_ssize_t nodes = clocks.len / (Py_ssize_t)sizeof(double);
    if (req.len != n * (Py_ssize_t)sizeof(int32_t)
        || instr.len != n * (Py_ssize_t)sizeof(int64_t)
        || tb.len != n * (Py_ssize_t)sizeof(int64_t)
        || link.len != nodes * (Py_ssize_t)sizeof(double)
        || hlens.len != nodes * (Py_ssize_t)sizeof(int32_t)
        || heaps.len != nodes * max_out * (Py_ssize_t)sizeof(double)
        || max_out <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "timing_pass_detailed: column length mismatch");
        goto done;
    }

    {
        const int32_t *reqs = req.buf;
        const int64_t *gaps = instr.buf;
        const double *lats = lat.buf;
        const int64_t *tbs = tb.buf;
        double *clk = clocks.buf;
        double *lnk = link.buf;
        double *heap_base = heaps.buf;
        int32_t *hlen = hlens.buf;
        int64_t carried = 0;
        int bad = 0;

        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < n; i++) {
            int32_t r = reqs[i];
            if (r < 0 || r >= nodes) {
                bad = 1;
                break;
            }
            double *h = heap_base + (Py_ssize_t)r * max_out;
            int32_t *len = &hlen[r];
            if (*len < 0 || *len > max_out) {
                bad = 2;
                break;
            }
            /* ProcessorModel.compute + DetailedProcessorModel.issue_miss */
            clk[r] += (double)gaps[i] / per_ns;
            while (*len && h[0] <= clk[r])
                heappop_d(h, len);
            while (*len >= max_out) {
                double v = heappop_d(h, len);
                if (v > clk[r])
                    clk[r] = v;
            }
            double issue = clk[r];
            /* CrossbarInterconnect.acquire */
            double free_ns = lnk[r];
            double start = issue >= free_ns ? issue : free_ns;
            queue_ns += start - issue;
            double finish = start + (double)tbs[i] / bandwidth;
            lnk[r] = finish;
            carried += tbs[i];
            double link_delay = finish - issue;
            double base = lats[i];
            double completion =
                issue + (base > link_delay ? base : link_delay);
            /* DetailedProcessorModel.complete_miss */
            heappush_d(h, len, completion);
        }
        Py_END_ALLOW_THREADS
        if (bad) {
            PyErr_SetString(
                PyExc_ValueError,
                bad == 1 ? "timing_pass_detailed: requester out of range"
                         : "timing_pass_detailed: heap length out of range");
            goto done;
        }
        result = Py_BuildValue("dL", queue_ns, (long long)carried);
    }

done:
    PyBuffer_Release(&req);
    PyBuffer_Release(&instr);
    PyBuffer_Release(&lat);
    PyBuffer_Release(&tb);
    PyBuffer_Release(&clocks);
    PyBuffer_Release(&link);
    PyBuffer_Release(&heaps);
    PyBuffer_Release(&hlens);
    return result;
}

/* ------------------------------------------------------------------ */
/* policy_replay: mirror of repro.protocols.fused.run_group /          */
/* run_kernel for the five compiled predictor policies, and of the     */
/* directory / broadcast-snooping _handle_fast loops.                  */
/* ------------------------------------------------------------------ */

/* Entry payload kinds for the shared PredictorTable pool. */
#define PT_GROUP 0 /* counters[n_nodes], rollover, bits (two lanes) */
#define PT_OWNER 1 /* owner, valid */
#define PT_BIFS 2  /* counter */

typedef struct {
    I64Map map; /* key -> pool index (v1; v2/v3 unused) */
    int kind;
    int32_t *counters; /* PT_GROUP: pool_cap * n_nodes */
    int32_t *rollover; /* PT_GROUP */
    uint64_t *bits_lo; /* PT_GROUP */
    uint64_t *bits_hi; /* PT_GROUP */
    int32_t *owner;    /* PT_OWNER */
    uint8_t *valid;    /* PT_OWNER */
    int32_t *counter;  /* PT_BIFS */
    int64_t *stamps;
    int64_t *ekeys;
    uint8_t *live;
    Py_ssize_t pool_cap;
    Py_ssize_t pool_len;
    int32_t *free_list;
    Py_ssize_t free_len;
    int32_t *buckets; /* n_sets * assoc (bounded only) */
    int32_t *bucket_len;
    int64_t n_sets;
    int64_t assoc;
    int bounded;
    int64_t tick;
    int64_t n_alloc;
    int64_t n_evict;
} GTable;

static void
gtable_zero(GTable *t)
{
    memset(t, 0, sizeof(*t));
}

static void
gtable_free(GTable *t)
{
    if (t->map.keys)
        map_free(&t->map);
    PyMem_RawFree(t->counters);
    PyMem_RawFree(t->rollover);
    PyMem_RawFree(t->bits_lo);
    PyMem_RawFree(t->bits_hi);
    PyMem_RawFree(t->owner);
    PyMem_RawFree(t->valid);
    PyMem_RawFree(t->counter);
    PyMem_RawFree(t->stamps);
    PyMem_RawFree(t->ekeys);
    PyMem_RawFree(t->live);
    PyMem_RawFree(t->free_list);
    PyMem_RawFree(t->buckets);
    PyMem_RawFree(t->bucket_len);
    gtable_zero(t);
}

static int
gtable_reserve(GTable *t, Py_ssize_t cap, int n_nodes)
{
    if (cap <= t->pool_cap)
        return 0;
    if (t->kind == PT_GROUP) {
        int32_t *counters = PyMem_RawRealloc(
            t->counters, (size_t)cap * n_nodes * sizeof(int32_t));
        if (!counters)
            return -1;
        t->counters = counters;
        int32_t *rollover =
            PyMem_RawRealloc(t->rollover, (size_t)cap * sizeof(int32_t));
        if (!rollover)
            return -1;
        t->rollover = rollover;
        uint64_t *bits_lo =
            PyMem_RawRealloc(t->bits_lo, (size_t)cap * sizeof(uint64_t));
        if (!bits_lo)
            return -1;
        t->bits_lo = bits_lo;
        uint64_t *bits_hi =
            PyMem_RawRealloc(t->bits_hi, (size_t)cap * sizeof(uint64_t));
        if (!bits_hi)
            return -1;
        t->bits_hi = bits_hi;
    }
    else if (t->kind == PT_OWNER) {
        int32_t *owner =
            PyMem_RawRealloc(t->owner, (size_t)cap * sizeof(int32_t));
        if (!owner)
            return -1;
        t->owner = owner;
        uint8_t *valid = PyMem_RawRealloc(t->valid, (size_t)cap);
        if (!valid)
            return -1;
        t->valid = valid;
    }
    else {
        int32_t *counter =
            PyMem_RawRealloc(t->counter, (size_t)cap * sizeof(int32_t));
        if (!counter)
            return -1;
        t->counter = counter;
    }
    int64_t *stamps = PyMem_RawRealloc(t->stamps, (size_t)cap * sizeof(int64_t));
    if (!stamps)
        return -1;
    t->stamps = stamps;
    int64_t *ekeys = PyMem_RawRealloc(t->ekeys, (size_t)cap * sizeof(int64_t));
    if (!ekeys)
        return -1;
    t->ekeys = ekeys;
    uint8_t *live = PyMem_RawRealloc(t->live, (size_t)cap);
    if (!live)
        return -1;
    t->live = live;
    int32_t *free_list =
        PyMem_RawRealloc(t->free_list, (size_t)cap * sizeof(int32_t));
    if (!free_list)
        return -1;
    t->free_list = free_list;
    t->pool_cap = cap;
    return 0;
}

/* New zeroed entry (from the free list or the pool tail). */
static int32_t
gtable_new_entry(GTable *t, int n_nodes)
{
    int32_t e;
    if (t->free_len > 0) {
        e = t->free_list[--t->free_len];
    }
    else {
        if (t->pool_len >= t->pool_cap) {
            if (gtable_reserve(t, t->pool_cap * 2, n_nodes) < 0)
                return -1;
        }
        e = (int32_t)t->pool_len++;
    }
    if (t->kind == PT_GROUP) {
        memset(t->counters + (size_t)e * n_nodes, 0,
               (size_t)n_nodes * sizeof(int32_t));
        t->rollover[e] = 0;
        t->bits_lo[e] = 0;
        t->bits_hi[e] = 0;
    }
    else if (t->kind == PT_OWNER) {
        t->owner[e] = 0;
        t->valid[e] = 0;
    }
    else {
        t->counter[e] = 0;
    }
    t->live[e] = 1;
    return e;
}

/* PredictorTable.lookup_allocate for a key known to be absent. */
static int32_t
gtable_allocate(GTable *t, int64_t key, int n_nodes)
{
    if (t->bounded) {
        int64_t sidx = key % t->n_sets;
        int32_t *bucket = t->buckets + sidx * t->assoc;
        int32_t blen = t->bucket_len[sidx];
        if (blen >= t->assoc) {
            /* victim = first strictly-minimal stamp, matching
             * min(bucket, key=stamps.__getitem__) */
            int32_t pos = 0;
            int64_t best = t->stamps[bucket[0]];
            for (int32_t j = 1; j < blen; j++) {
                int64_t s = t->stamps[bucket[j]];
                if (s < best) {
                    best = s;
                    pos = j;
                }
            }
            int32_t victim = bucket[pos];
            memmove(bucket + pos, bucket + pos + 1,
                    (size_t)(blen - 1 - pos) * sizeof(int32_t));
            blen--;
            Py_ssize_t slot = map_find(&t->map, t->ekeys[victim]);
            if (slot >= 0)
                map_del_at(&t->map, slot);
            t->live[victim] = 0;
            t->free_list[t->free_len++] = victim;
            t->n_evict++;
        }
        int32_t e = gtable_new_entry(t, n_nodes);
        if (e < 0)
            return -1;
        bucket[blen] = e;
        t->bucket_len[sidx] = blen + 1;
        t->stamps[e] = t->tick++;
        t->ekeys[e] = key;
        if (map_put(&t->map, key, e, 0) < 0)
            return -1;
        t->n_alloc++;
        return e;
    }
    int32_t e = gtable_new_entry(t, n_nodes);
    if (e < 0)
        return -1;
    t->ekeys[e] = key;
    if (map_put(&t->map, key, e, 0) < 0)
        return -1;
    t->n_alloc++;
    return e;
}

/* Load one PredictorTable into native form.  Returns 0, or 1 for
 * "outside the envelope: fall back" (no error set), or -1 with a
 * Python error set. */
static int
gtable_load(GTable *t, PyObject *table, int n_nodes)
{
    int rc = -1;
    PyObject *entries = NULL, *stamps = NULL, *set_keys = NULL;
    PyObject *tmp = NULL;

    entries = PyObject_GetAttrString(table, "_entries");
    if (!entries)
        goto fail;
    if (!PyDict_CheckExact(entries))
        goto envelope;

    tmp = PyObject_GetAttrString(table, "_bounded");
    if (!tmp)
        goto fail;
    t->bounded = PyObject_IsTrue(tmp);
    Py_CLEAR(tmp);

#define GET_I64(attr, dest)                                               \
    do {                                                                  \
        tmp = PyObject_GetAttrString(table, attr);                        \
        if (!tmp)                                                         \
            goto fail;                                                    \
        int _of = 0;                                                      \
        (dest) = as_i64(tmp, &_of);                                       \
        Py_CLEAR(tmp);                                                    \
        if (_of)                                                          \
            goto envelope;                                                \
    } while (0)

    GET_I64("_n_sets", t->n_sets);
    GET_I64("_assoc", t->assoc);
    GET_I64("_tick", t->tick);
    GET_I64("n_allocations", t->n_alloc);
    GET_I64("n_evictions", t->n_evict);
#undef GET_I64

    if (t->bounded) {
        if (t->n_sets <= 0 || t->assoc <= 0 || t->assoc > INT32_MAX
            || t->n_sets > (int64_t)1 << 32)
            goto envelope;
        stamps = PyObject_GetAttrString(table, "_stamps");
        set_keys = PyObject_GetAttrString(table, "_set_keys");
        if (!stamps || !set_keys)
            goto fail;
        if (!PyDict_CheckExact(stamps) || !PyDict_CheckExact(set_keys))
            goto envelope;
        t->buckets =
            PyMem_RawMalloc((size_t)(t->n_sets * t->assoc) * sizeof(int32_t));
        t->bucket_len = PyMem_RawCalloc((size_t)t->n_sets, sizeof(int32_t));
        if (!t->buckets || !t->bucket_len) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    Py_ssize_t n_entries = PyDict_Size(entries);
    if (map_init(&t->map, n_entries + 8) < 0) {
        PyErr_NoMemory();
        goto fail;
    }
    if (gtable_reserve(t, n_entries + 16, n_nodes) < 0) {
        PyErr_NoMemory();
        goto fail;
    }

    PyObject *keyobj, *entry;
    Py_ssize_t pos = 0;
    while (PyDict_Next(entries, &pos, &keyobj, &entry)) {
        int of = 0;
        int64_t key = as_i64(keyobj, &of);
        if (of || key < 0)
            goto envelope;
        int32_t e = (int32_t)t->pool_len++;
        t->ekeys[e] = key;
        t->live[e] = 1;

        if (t->kind == PT_GROUP) {
            tmp = PyObject_GetAttrString(entry, "counters");
            if (!tmp)
                goto fail;
            if (!PyList_CheckExact(tmp) || PyList_GET_SIZE(tmp) != n_nodes)
                goto envelope;
            for (int j = 0; j < n_nodes; j++) {
                int64_t v = as_i64(PyList_GET_ITEM(tmp, j), &of);
                if (of || v < 0 || v > INT32_MAX)
                    goto envelope;
                t->counters[(size_t)e * n_nodes + j] = (int32_t)v;
            }
            Py_CLEAR(tmp);

            tmp = PyObject_GetAttrString(entry, "rollover");
            if (!tmp)
                goto fail;
            int64_t ro = as_i64(tmp, &of);
            Py_CLEAR(tmp);
            if (of || ro < 0 || ro > INT32_MAX)
                goto envelope;
            t->rollover[e] = (int32_t)ro;

            tmp = PyObject_GetAttrString(entry, "bits");
            if (!tmp)
                goto fail;
            uint64_t blo = 0, bhi = 0;
            int brc = as_u128(tmp, &blo, &bhi);
            Py_CLEAR(tmp);
            if (brc < 0)
                goto fail;
            if (brc > 0)
                goto envelope;
            t->bits_lo[e] = blo;
            t->bits_hi[e] = bhi;
        }
        else if (t->kind == PT_OWNER) {
            tmp = PyObject_GetAttrString(entry, "owner");
            if (!tmp)
                goto fail;
            int64_t ov = as_i64(tmp, &of);
            Py_CLEAR(tmp);
            if (of || ov < 0 || ov >= n_nodes)
                goto envelope;
            t->owner[e] = (int32_t)ov;

            tmp = PyObject_GetAttrString(entry, "valid");
            if (!tmp)
                goto fail;
            int truth = PyObject_IsTrue(tmp);
            Py_CLEAR(tmp);
            if (truth < 0)
                goto fail;
            t->valid[e] = (uint8_t)truth;
        }
        else {
            tmp = PyObject_GetAttrString(entry, "counter");
            if (!tmp)
                goto fail;
            int64_t cv = as_i64(tmp, &of);
            Py_CLEAR(tmp);
            if (of || cv < 0 || cv > INT32_MAX)
                goto envelope;
            t->counter[e] = (int32_t)cv;
        }

        if (t->bounded) {
            PyObject *stampobj = PyDict_GetItem(stamps, keyobj);
            if (!stampobj)
                goto envelope;
            t->stamps[e] = as_i64(stampobj, &of);
            if (of)
                goto envelope;
        }
        if (map_put(&t->map, key, e, 0) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    if (t->bounded) {
        PyObject *sidxobj, *bucketlist;
        pos = 0;
        while (PyDict_Next(set_keys, &pos, &sidxobj, &bucketlist)) {
            int of = 0;
            int64_t sidx = as_i64(sidxobj, &of);
            if (of || sidx < 0 || sidx >= t->n_sets)
                goto envelope;
            if (!PyList_CheckExact(bucketlist))
                goto envelope;
            Py_ssize_t blen = PyList_GET_SIZE(bucketlist);
            if (blen > t->assoc)
                goto envelope;
            for (Py_ssize_t j = 0; j < blen; j++) {
                int64_t k = as_i64(PyList_GET_ITEM(bucketlist, j), &of);
                if (of)
                    goto envelope;
                Py_ssize_t slot = map_find(&t->map, k);
                if (slot < 0)
                    goto envelope;
                t->buckets[sidx * t->assoc + j] = (int32_t)t->map.v1[slot];
            }
            t->bucket_len[sidx] = (int32_t)blen;
        }
    }

    rc = 0;
    goto done;
envelope:
    rc = 1;
done:
fail:
    Py_XDECREF(tmp);
    Py_XDECREF(entries);
    Py_XDECREF(stamps);
    Py_XDECREF(set_keys);
    return rc;
}

/* Write native table state back into the PredictorTable (same dict
 * objects, refilled).  Returns 0 / -1. */
static int
gtable_sync(GTable *t, PyObject *table, PyObject *factory, int n_nodes)
{
    int rc = -1;
    PyObject *entries = NULL, *stamps = NULL, *set_keys = NULL;
    PyObject *keyobj = NULL, *entry = NULL, *tmp = NULL;

    entries = PyObject_GetAttrString(table, "_entries");
    stamps = PyObject_GetAttrString(table, "_stamps");
    set_keys = PyObject_GetAttrString(table, "_set_keys");
    if (!entries || !stamps || !set_keys)
        goto done;
    PyDict_Clear(entries);
    PyDict_Clear(stamps);
    PyDict_Clear(set_keys);

    for (Py_ssize_t e = 0; e < t->pool_len; e++) {
        if (!t->live[e])
            continue;
        keyobj = PyLong_FromLongLong((long long)t->ekeys[e]);
        if (!keyobj)
            goto done;
        entry = PyObject_CallObject(factory, NULL);
        if (!entry)
            goto done;
        if (t->kind == PT_GROUP) {
            tmp = PyObject_GetAttrString(entry, "counters");
            if (!tmp || !PyList_CheckExact(tmp)
                || PyList_GET_SIZE(tmp) != n_nodes) {
                if (tmp && !PyErr_Occurred())
                    PyErr_SetString(
                        PyExc_TypeError,
                        "entry factory produced unexpected counters");
                goto done;
            }
            const int32_t *row = t->counters + (size_t)e * n_nodes;
            for (int j = 0; j < n_nodes; j++) {
                if (row[j] == 0)
                    continue; /* factory entries start at 0 */
                PyObject *v = PyLong_FromLong((long)row[j]);
                if (!v)
                    goto done;
                PyList_SetItem(tmp, j, v); /* steals v */
            }
            Py_CLEAR(tmp);
            if (t->rollover[e] != 0) {
                tmp = PyLong_FromLong((long)t->rollover[e]);
                if (!tmp
                    || PyObject_SetAttrString(entry, "rollover", tmp) < 0)
                    goto done;
                Py_CLEAR(tmp);
            }
            if (t->bits_lo[e] != 0 || t->bits_hi[e] != 0) {
                tmp = u128_to_pylong(t->bits_lo[e], t->bits_hi[e]);
                if (!tmp || PyObject_SetAttrString(entry, "bits", tmp) < 0)
                    goto done;
                Py_CLEAR(tmp);
            }
        }
        else if (t->kind == PT_OWNER) {
            if (t->owner[e] != 0) {
                tmp = PyLong_FromLong((long)t->owner[e]);
                if (!tmp || PyObject_SetAttrString(entry, "owner", tmp) < 0)
                    goto done;
                Py_CLEAR(tmp);
            }
            if (t->valid[e]
                && PyObject_SetAttrString(entry, "valid", Py_True) < 0)
                goto done;
        }
        else {
            if (t->counter[e] != 0) {
                tmp = PyLong_FromLong((long)t->counter[e]);
                if (!tmp
                    || PyObject_SetAttrString(entry, "counter", tmp) < 0)
                    goto done;
                Py_CLEAR(tmp);
            }
        }
        if (PyDict_SetItem(entries, keyobj, entry) < 0)
            goto done;
        if (t->bounded) {
            tmp = PyLong_FromLongLong((long long)t->stamps[e]);
            if (!tmp || PyDict_SetItem(stamps, keyobj, tmp) < 0)
                goto done;
            Py_CLEAR(tmp);
        }
        Py_CLEAR(keyobj);
        Py_CLEAR(entry);
    }

    if (t->bounded) {
        for (int64_t s = 0; s < t->n_sets; s++) {
            int32_t blen = t->bucket_len[s];
            if (blen == 0)
                continue;
            PyObject *bucketlist = PyList_New(blen);
            if (!bucketlist)
                goto done;
            for (int32_t j = 0; j < blen; j++) {
                PyObject *k = PyLong_FromLongLong(
                    (long long)t->ekeys[t->buckets[s * t->assoc + j]]);
                if (!k) {
                    Py_DECREF(bucketlist);
                    goto done;
                }
                PyList_SET_ITEM(bucketlist, j, k);
            }
            keyobj = PyLong_FromLongLong((long long)s);
            if (!keyobj
                || PyDict_SetItem(set_keys, keyobj, bucketlist) < 0) {
                Py_DECREF(bucketlist);
                goto done;
            }
            Py_DECREF(bucketlist);
            Py_CLEAR(keyobj);
        }
    }

#define SET_I64(attr, value)                                              \
    do {                                                                  \
        tmp = PyLong_FromLongLong((long long)(value));                    \
        if (!tmp || PyObject_SetAttrString(table, attr, tmp) < 0)         \
            goto done;                                                    \
        Py_CLEAR(tmp);                                                    \
    } while (0)

    SET_I64("_tick", t->tick);
    SET_I64("n_allocations", t->n_alloc);
    SET_I64("n_evictions", t->n_evict);
#undef SET_I64

    rc = 0;
done:
    Py_XDECREF(tmp);
    Py_XDECREF(keyobj);
    Py_XDECREF(entry);
    Py_XDECREF(entries);
    Py_XDECREF(stamps);
    Py_XDECREF(set_keys);
    return rc;
}

/* Load a MOSI state dict {block: (owner, sharers)} into a map.  The
 * sharer mask spans v2 (low word) and v3 (high word); allow_wide=0
 * keeps the collector's original single-lane (<= 62-node) envelope.
 * Returns 0 / 1 (envelope) / -1 (error). */
static int
mosi_load(I64Map *m, PyObject *state, int n_nodes, int allow_wide)
{
    if (!PyDict_CheckExact(state))
        return 1;
    if (map_init(m, PyDict_Size(state) + 8) < 0) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *keyobj, *packed;
    Py_ssize_t pos = 0;
    while (PyDict_Next(state, &pos, &keyobj, &packed)) {
        int of = 0;
        int64_t block = as_i64(keyobj, &of);
        if (of || block < 0)
            return 1;
        if (!PyTuple_CheckExact(packed) || PyTuple_GET_SIZE(packed) != 2)
            return 1;
        int64_t owner = as_i64(PyTuple_GET_ITEM(packed, 0), &of);
        if (of || owner < -1 || owner >= n_nodes)
            return 1;
        uint64_t sh_lo = 0, sh_hi = 0;
        int rc = as_u128(PyTuple_GET_ITEM(packed, 1), &sh_lo, &sh_hi);
        if (rc < 0)
            return -1;
        if (rc > 0)
            return 1;
        if (!allow_wide && (sh_hi != 0 || sh_lo > (uint64_t)INT64_MAX))
            return 1;
        if (!mask128_fits(sh_lo, sh_hi, n_nodes))
            return 1; /* a sharer outside the machine */
        if (map_put3(m, block, owner, (int64_t)sh_lo, (int64_t)sh_hi) < 0) {
            PyErr_NoMemory();
            return -1;
        }
    }
    return 0;
}

/* Refill the MOSI state dict from the map.  Returns 0 / -1. */
static int
mosi_sync(I64Map *m, PyObject *state)
{
    PyDict_Clear(state);
    for (Py_ssize_t i = 0; i < m->cap; i++) {
        int64_t k = m->keys[i];
        if (k == MAP_EMPTY || k == MAP_TOMB)
            continue;
        PyObject *keyobj = PyLong_FromLongLong((long long)k);
        PyObject *ownerobj =
            keyobj ? PyLong_FromLongLong((long long)m->v1[i]) : NULL;
        PyObject *sharersobj =
            ownerobj ? u128_to_pylong((uint64_t)m->v2[i], (uint64_t)m->v3[i])
                     : NULL;
        PyObject *packed =
            sharersobj ? PyTuple_Pack(2, ownerobj, sharersobj) : NULL;
        Py_XDECREF(ownerobj);
        Py_XDECREF(sharersobj);
        if (!packed || PyDict_SetItem(state, keyobj, packed) < 0) {
            Py_XDECREF(keyobj);
            Py_XDECREF(packed);
            return -1;
        }
        Py_DECREF(keyobj);
        Py_DECREF(packed);
    }
    return 0;
}

/* GroupPredictor._train's decay branch (rollover wrap). */
static void
group_decay(GTable *t, int32_t e, int n_nodes, int32_t thr)
{
    t->rollover[e] = 0;
    uint64_t lo = 0, hi = 0;
    int32_t *row = t->counters + (size_t)e * n_nodes;
    for (int j = 0; j < n_nodes; j++) {
        int32_t v = row[j];
        if (v > 0) {
            v--;
            row[j] = v;
        }
        if (v > thr)
            bit128_set(&lo, &hi, j);
    }
    t->bits_lo[e] = lo;
    t->bits_hi[e] = hi;
}

/* GroupPredictor._train for one training event at `node`. */
static void
group_train(GTable *t, int32_t e, int32_t node, int n_nodes, int32_t cmax,
            int32_t thr, int32_t rperiod, int tdown)
{
    int32_t *row = t->counters + (size_t)e * n_nodes;
    int32_t c = row[node];
    if (c < cmax) {
        row[node] = c + 1;
        if (c == thr)
            bit128_set(&t->bits_lo[e], &t->bits_hi[e], node);
    }
    if (tdown) {
        int32_t ro = t->rollover[e] + 1;
        if (ro < rperiod)
            t->rollover[e] = ro;
        else
            group_decay(t, e, n_nodes, thr);
    }
}

/* The compiled policy ids, mirrored in repro/kernels/native.py.  The
 * two protocol modes replay the baselines: they load and sync only the
 * MOSI block map, never predictor tables.  Snooping is the multicast
 * accounting with the destination set forced to every node; directory
 * has its own accounting branch (home request + forwards). */
#define POLICY_GROUP 0
#define POLICY_OWNER 1
#define POLICY_BIFS 2
#define POLICY_OWNER_GROUP 3
#define POLICY_STICKY 4
#define POLICY_DIRECTORY 5
#define POLICY_SNOOPING 6

/* The fused external-training flush (FusedKernel.train_external) for
 * one pending batch, iterating set bits lowest-first across the two
 * mask lanes exactly like the Python closures.  tA is the policy's
 * primary table array; tB is the group half of Owner-group. */
static void
policy_flush(int policy, GTable *tA, GTable *tB, uint64_t mask_lo,
             uint64_t mask_hi, int64_t fkey, int32_t freq, int32_t fcode,
             int64_t count, int n_nodes, int32_t cmax, int32_t thr,
             int32_t rperiod, int tdown)
{
    if (policy == POLICY_OWNER && !fcode)
        return; /* owner training ignores external read requests */
    for (int word = 0; word < 2; word++) {
        uint64_t mask = word ? mask_hi : mask_lo;
        int base = word ? 64 : 0;
        while (mask) {
            uint64_t low = mask & (~mask + 1);
            mask ^= low;
            int node = base + __builtin_ctzll(low);
            GTable *t = &tA[node];
            Py_ssize_t slot;
            int32_t e;
            switch (policy) {
            case POLICY_GROUP:
                slot = map_find(&t->map, fkey);
                if (slot < 0)
                    break;
                e = (int32_t)t->map.v1[slot];
                if (t->bounded)
                    t->stamps[e] = t->tick++;
                for (int64_t r = 0; r < count; r++)
                    group_train(t, e, freq, n_nodes, cmax, thr, rperiod,
                                tdown);
                break;
            case POLICY_OWNER:
                slot = map_find(&t->map, fkey);
                if (slot < 0)
                    break;
                e = (int32_t)t->map.v1[slot];
                if (t->bounded)
                    t->stamps[e] = t->tick++;
                t->owner[e] = freq;
                t->valid[e] = 1;
                break;
            case POLICY_BIFS:
                slot = map_find(&t->map, fkey);
                if (slot < 0)
                    break;
                e = (int32_t)t->map.v1[slot];
                if (t->bounded)
                    t->stamps[e] = t->tick++;
                {
                    int64_t total = (int64_t)t->counter[e] + count;
                    t->counter[e] = total < cmax ? (int32_t)total : cmax;
                }
                break;
            case POLICY_OWNER_GROUP:
                if (fcode) {
                    slot = map_find(&t->map, fkey);
                    if (slot >= 0) {
                        e = (int32_t)t->map.v1[slot];
                        if (t->bounded)
                            t->stamps[e] = t->tick++;
                        t->owner[e] = freq;
                        t->valid[e] = 1;
                    }
                }
                {
                    GTable *g = &tB[node];
                    slot = map_find(&g->map, fkey);
                    if (slot < 0)
                        break;
                    e = (int32_t)g->map.v1[slot];
                    if (g->bounded)
                        g->stamps[e] = g->tick++;
                    for (int64_t r = 0; r < count; r++)
                        group_train(g, e, freq, n_nodes, cmax, thr, rperiod,
                                    tdown);
                }
                break;
            }
        }
    }
}

/* Sticky-spatial's direct-mapped entry pool: index -> (tag, bits).
 * Replacement rewrites in place, so pool order stays the Python
 * dict's insertion order. */
typedef struct {
    I64Map map; /* index -> pool slot (v1) */
    int64_t *idxs;
    int64_t *tags;
    uint64_t *bits_lo;
    uint64_t *bits_hi;
    Py_ssize_t len;
    Py_ssize_t cap;
    int64_t n_alloc;
    int64_t n_repl;
} STable;

static void
stable_free(STable *st)
{
    if (st->map.keys)
        map_free(&st->map);
    PyMem_RawFree(st->idxs);
    PyMem_RawFree(st->tags);
    PyMem_RawFree(st->bits_lo);
    PyMem_RawFree(st->bits_hi);
    memset(st, 0, sizeof(*st));
}

static int
stable_reserve(STable *st, Py_ssize_t cap)
{
    if (cap <= st->cap)
        return 0;
    int64_t *idxs = PyMem_RawRealloc(st->idxs, (size_t)cap * sizeof(int64_t));
    if (!idxs)
        return -1;
    st->idxs = idxs;
    int64_t *tags = PyMem_RawRealloc(st->tags, (size_t)cap * sizeof(int64_t));
    if (!tags)
        return -1;
    st->tags = tags;
    uint64_t *bits_lo =
        PyMem_RawRealloc(st->bits_lo, (size_t)cap * sizeof(uint64_t));
    if (!bits_lo)
        return -1;
    st->bits_lo = bits_lo;
    uint64_t *bits_hi =
        PyMem_RawRealloc(st->bits_hi, (size_t)cap * sizeof(uint64_t));
    if (!bits_hi)
        return -1;
    st->bits_hi = bits_hi;
    st->cap = cap;
    return 0;
}

static int
stable_append(STable *st, int64_t idx, int64_t tag, uint64_t lo,
              uint64_t hi)
{
    if (st->len >= st->cap
        && stable_reserve(st, st->cap ? st->cap * 2 : 64) < 0)
        return -1;
    Py_ssize_t s = st->len++;
    st->idxs[s] = idx;
    st->tags[s] = tag;
    st->bits_lo[s] = lo;
    st->bits_hi[s] = hi;
    return map_put(&st->map, idx, (int64_t)s, 0);
}

/* Load one StickySpatialPredictor.  Returns 0 / 1 (envelope) / -1. */
static int
stable_load(STable *st, PyObject *predictor)
{
    int rc = -1;
    PyObject *entries = NULL, *tmp = NULL;

    entries = PyObject_GetAttrString(predictor, "_entries");
    if (!entries)
        goto fail;
    if (!PyDict_CheckExact(entries))
        goto envelope;

    int of = 0;
    tmp = PyObject_GetAttrString(predictor, "n_allocations");
    if (!tmp)
        goto fail;
    st->n_alloc = as_i64(tmp, &of);
    Py_CLEAR(tmp);
    if (of)
        goto envelope;
    tmp = PyObject_GetAttrString(predictor, "n_replacements");
    if (!tmp)
        goto fail;
    st->n_repl = as_i64(tmp, &of);
    Py_CLEAR(tmp);
    if (of)
        goto envelope;

    Py_ssize_t n_entries = PyDict_Size(entries);
    if (map_init(&st->map, n_entries + 8) < 0) {
        PyErr_NoMemory();
        goto fail;
    }
    if (stable_reserve(st, n_entries + 16) < 0) {
        PyErr_NoMemory();
        goto fail;
    }

    PyObject *keyobj, *packed;
    Py_ssize_t pos = 0;
    while (PyDict_Next(entries, &pos, &keyobj, &packed)) {
        int64_t idx = as_i64(keyobj, &of);
        if (of || idx < 0)
            goto envelope;
        if (!PyTuple_CheckExact(packed) || PyTuple_GET_SIZE(packed) != 2)
            goto envelope;
        int64_t tag = as_i64(PyTuple_GET_ITEM(packed, 0), &of);
        if (of || tag < 0)
            goto envelope;
        uint64_t blo = 0, bhi = 0;
        int brc = as_u128(PyTuple_GET_ITEM(packed, 1), &blo, &bhi);
        if (brc < 0)
            goto fail;
        if (brc > 0)
            goto envelope;
        if (stable_append(st, idx, tag, blo, bhi) < 0) {
            PyErr_NoMemory();
            goto fail;
        }
    }

    rc = 0;
    goto done;
envelope:
    rc = 1;
done:
fail:
    Py_XDECREF(tmp);
    Py_XDECREF(entries);
    return rc;
}

/* Refill the predictor's entry dict and stat counters.  0 / -1. */
static int
stable_sync(STable *st, PyObject *predictor)
{
    int rc = -1;
    PyObject *entries = NULL, *keyobj = NULL, *packed = NULL, *tmp = NULL;

    entries = PyObject_GetAttrString(predictor, "_entries");
    if (!entries)
        goto done;
    PyDict_Clear(entries);
    for (Py_ssize_t s = 0; s < st->len; s++) {
        keyobj = PyLong_FromLongLong((long long)st->idxs[s]);
        if (!keyobj)
            goto done;
        PyObject *tagobj = PyLong_FromLongLong((long long)st->tags[s]);
        PyObject *bitsobj =
            tagobj ? u128_to_pylong(st->bits_lo[s], st->bits_hi[s]) : NULL;
        packed = bitsobj ? PyTuple_Pack(2, tagobj, bitsobj) : NULL;
        Py_XDECREF(tagobj);
        Py_XDECREF(bitsobj);
        if (!packed || PyDict_SetItem(entries, keyobj, packed) < 0)
            goto done;
        Py_CLEAR(keyobj);
        Py_CLEAR(packed);
    }

    tmp = PyLong_FromLongLong((long long)st->n_alloc);
    if (!tmp || PyObject_SetAttrString(predictor, "n_allocations", tmp) < 0)
        goto done;
    Py_CLEAR(tmp);
    tmp = PyLong_FromLongLong((long long)st->n_repl);
    if (!tmp
        || PyObject_SetAttrString(predictor, "n_replacements", tmp) < 0)
        goto done;
    Py_CLEAR(tmp);

    rc = 0;
done:
    Py_XDECREF(tmp);
    Py_XDECREF(keyobj);
    Py_XDECREF(packed);
    Py_XDECREF(entries);
    return rc;
}

static PyObject *
policy_replay(PyObject *self, PyObject *args)
{
    Py_buffer addr_b, pc_b, req_b, acc_b;
    int policy, n_nodes, block_shift, use_pc, gshift;
    PyObject *tablesA_obj, *factoriesA_obj, *tablesB_obj, *factoriesB_obj;
    PyObject *sticky_obj, *state_obj;
    int cmax_i, thr_i, rperiod_i, tdown;
    int sticky_unbounded, sticky_shift;
    long long sticky_entries_ll;
    double lat_mem, lat_dir, lat_ind, latency_sum;
    long long block_mask_ll, control_ll, data_ll;
    int want_out, want_score;

    if (!PyArg_ParseTuple(
            args, "iy*y*y*y*iLiiiOOOOiiiiOiLiOdddLLdii", &policy, &addr_b,
            &pc_b, &req_b, &acc_b, &n_nodes, &block_mask_ll, &block_shift,
            &use_pc, &gshift, &tablesA_obj, &factoriesA_obj, &tablesB_obj,
            &factoriesB_obj, &cmax_i, &thr_i, &rperiod_i, &tdown,
            &sticky_obj, &sticky_unbounded, &sticky_entries_ll,
            &sticky_shift, &state_obj, &lat_mem, &lat_dir, &lat_ind,
            &control_ll, &data_ll, &latency_sum, &want_out, &want_score))
        return NULL;

    PyObject *result = NULL;
    GTable *tablesA = NULL;
    GTable *tablesB = NULL;
    STable *stables = NULL;
    I64Map mosi;
    mosi.keys = NULL;
    double *lat_out = NULL;
    int64_t *tb_out = NULL;
    int fallback = 0;

    Py_ssize_t nrec = req_b.len / (Py_ssize_t)sizeof(int32_t);
    const int64_t block_mask = (int64_t)block_mask_ll;
    const int64_t control = (int64_t)control_ll;
    const int64_t data_size = (int64_t)data_ll;
    const int32_t cmax = (int32_t)cmax_i;
    const int32_t thr = (int32_t)thr_i;
    const int32_t rperiod = (int32_t)rperiod_i;
    const int64_t sticky_entries = (int64_t)sticky_entries_ll;

    int ok = addr_b.len == nrec * (Py_ssize_t)sizeof(int64_t)
             && pc_b.len == nrec * (Py_ssize_t)sizeof(int64_t)
             && acc_b.len == nrec && n_nodes > 0 && n_nodes <= 128
             && policy >= POLICY_GROUP && policy <= POLICY_SNOOPING;
    const int baseline =
        policy == POLICY_DIRECTORY || policy == POLICY_SNOOPING;
    if (ok && !baseline) {
        if (policy == POLICY_STICKY)
            ok = PyList_CheckExact(sticky_obj)
                 && PyList_GET_SIZE(sticky_obj) == n_nodes
                 && (sticky_unbounded || sticky_entries > 0)
                 && sticky_shift >= 0;
        else
            ok = PyList_CheckExact(tablesA_obj)
                 && PyList_CheckExact(factoriesA_obj)
                 && PyList_GET_SIZE(tablesA_obj) == n_nodes
                 && PyList_GET_SIZE(factoriesA_obj) == n_nodes;
        if (ok && policy == POLICY_OWNER_GROUP)
            ok = PyList_CheckExact(tablesB_obj)
                 && PyList_CheckExact(factoriesB_obj)
                 && PyList_GET_SIZE(tablesB_obj) == n_nodes
                 && PyList_GET_SIZE(factoriesB_obj) == n_nodes;
    }
    if (!ok) {
        PyErr_SetString(PyExc_ValueError, "policy_replay: bad arguments");
        goto done;
    }

    if (policy == POLICY_STICKY) {
        stables = PyMem_RawCalloc((size_t)n_nodes, sizeof(STable));
        if (!stables) {
            PyErr_NoMemory();
            goto done;
        }
        for (int i = 0; i < n_nodes; i++) {
            int rc =
                stable_load(&stables[i], PyList_GET_ITEM(sticky_obj, i));
            if (rc < 0)
                goto done;
            if (rc > 0) {
                fallback = 1;
                goto done;
            }
        }
    }
    else if (!baseline) { /* the protocol modes have no tables */
        int kindA = policy == POLICY_GROUP
                        ? PT_GROUP
                        : (policy == POLICY_BIFS ? PT_BIFS : PT_OWNER);
        tablesA = PyMem_RawCalloc((size_t)n_nodes, sizeof(GTable));
        if (!tablesA) {
            PyErr_NoMemory();
            goto done;
        }
        for (int i = 0; i < n_nodes; i++) {
            tablesA[i].kind = kindA;
            int rc = gtable_load(&tablesA[i],
                                 PyList_GET_ITEM(tablesA_obj, i), n_nodes);
            if (rc < 0)
                goto done;
            if (rc > 0) {
                fallback = 1;
                goto done;
            }
        }
        if (policy == POLICY_OWNER_GROUP) {
            tablesB = PyMem_RawCalloc((size_t)n_nodes, sizeof(GTable));
            if (!tablesB) {
                PyErr_NoMemory();
                goto done;
            }
            for (int i = 0; i < n_nodes; i++) {
                tablesB[i].kind = PT_GROUP;
                int rc = gtable_load(
                    &tablesB[i], PyList_GET_ITEM(tablesB_obj, i), n_nodes);
                if (rc < 0)
                    goto done;
                if (rc > 0) {
                    fallback = 1;
                    goto done;
                }
            }
        }
    }
    {
        int rc = mosi_load(&mosi, state_obj, n_nodes, /*allow_wide=*/1);
        if (rc < 0)
            goto done;
        if (rc > 0) {
            fallback = 1;
            goto done;
        }
    }
    if (want_out) {
        lat_out = PyMem_RawMalloc((size_t)(nrec ? nrec : 1) * sizeof(double));
        tb_out = PyMem_RawMalloc((size_t)(nrec ? nrec : 1) * sizeof(int64_t));
        if (!lat_out || !tb_out) {
            PyErr_NoMemory();
            goto done;
        }
    }

    {
        const int64_t *addrs = addr_b.buf;
        const int64_t *pcs = pc_b.buf;
        const int32_t *reqs = req_b.buf;
        const int8_t *accs = acc_b.buf;

        /* The full destination set (Broadcast-if-shared, snooping). */
        uint64_t full_lo, full_hi;
        if (n_nodes >= 128) {
            full_lo = ~(uint64_t)0;
            full_hi = ~(uint64_t)0;
        }
        else if (n_nodes >= 64) {
            full_lo = ~(uint64_t)0;
            full_hi = n_nodes > 64
                          ? (((uint64_t)1 << (n_nodes - 64)) - 1)
                          : 0;
        }
        else {
            full_lo = ((uint64_t)1 << n_nodes) - 1;
            full_hi = 0;
        }

        int64_t indirections = 0;
        int64_t request_sum = 0;
        int64_t forward_sum = 0;
        int64_t retry_sum = 0;
        int64_t retries_total = 0;

        /* Accuracy scoring (MulticastSnoopingProtocol.accuracy): the
         * predicted extras and the required nodes, both beyond the
         * minimal set, in AccuracyReport.add_counts order. */
        int64_t sc_required = 0;
        int64_t sc_covered = 0;
        int64_t sc_extra = 0;
        int64_t sc_class[5] = {0, 0, 0, 0, 0};

        /* Pending fused training batch (never engages for sticky,
         * whose kernel has no train_external). */
        int64_t p_key = 0;
        int32_t p_req = -1;
        int32_t p_code = -1;
        uint64_t p_lo = 0, p_hi = 0;
        int64_t p_count = 0;
        int oom = 0;
        int bad = 0;

        Py_BEGIN_ALLOW_THREADS
        for (Py_ssize_t i = 0; i < nrec; i++) {
            const int64_t address = addrs[i];
            const int32_t requester = reqs[i];
            const int32_t code = accs[i];
            if (requester < 0 || requester >= n_nodes) {
                /* every table and mask below is indexed by it */
                bad = 1;
                goto compute_halt;
            }
            const int64_t block = address & block_mask;
            const int64_t key = use_pc ? pcs[i] : (address >> gshift);
            const int32_t home = (int32_t)((block >> block_shift) % n_nodes);
            uint64_t reqbit_lo = 0, reqbit_hi = 0;
            bit128_set(&reqbit_lo, &reqbit_hi, requester);
            uint64_t minimal_lo = reqbit_lo, minimal_hi = reqbit_hi;
            bit128_set(&minimal_lo, &minimal_hi, home);
            const uint64_t notreq_lo = ~reqbit_lo;
            const uint64_t notreq_hi = ~reqbit_hi;

            if (p_count
                && (key != p_key || requester != p_req || code != p_code)) {
                policy_flush(policy, tablesA, tablesB, p_lo, p_hi, p_key,
                             p_req, p_code, p_count, n_nodes, cmax, thr,
                             rperiod, tdown);
                p_count = 0;
            }

            /* FusedKernel.predict (destination = prediction | minimal). */
            uint64_t dest_lo = minimal_lo, dest_hi = minimal_hi;
            int32_t scratch = -1; /* predict's entry, reused by response */
            switch (policy) {
            case POLICY_GROUP: {
                GTable *t = &tablesA[requester];
                Py_ssize_t slot = map_find(&t->map, key);
                if (slot >= 0) {
                    scratch = (int32_t)t->map.v1[slot];
                    if (t->bounded)
                        t->stamps[scratch] = t->tick++;
                    dest_lo |= t->bits_lo[scratch];
                    dest_hi |= t->bits_hi[scratch];
                }
                break;
            }
            case POLICY_OWNER: {
                GTable *t = &tablesA[requester];
                Py_ssize_t slot = map_find(&t->map, key);
                if (slot >= 0) {
                    scratch = (int32_t)t->map.v1[slot];
                    if (t->bounded)
                        t->stamps[scratch] = t->tick++;
                    if (t->valid[scratch])
                        bit128_set(&dest_lo, &dest_hi, t->owner[scratch]);
                }
                break;
            }
            case POLICY_BIFS: {
                GTable *t = &tablesA[requester];
                Py_ssize_t slot = map_find(&t->map, key);
                if (slot >= 0) {
                    scratch = (int32_t)t->map.v1[slot];
                    if (t->bounded)
                        t->stamps[scratch] = t->tick++;
                    if (t->counter[scratch] > 1) {
                        dest_lo |= full_lo;
                        dest_hi |= full_hi;
                    }
                }
                break;
            }
            case POLICY_OWNER_GROUP: {
                GTable *t =
                    code ? &tablesB[requester] : &tablesA[requester];
                Py_ssize_t slot = map_find(&t->map, key);
                if (slot >= 0) {
                    int32_t e = (int32_t)t->map.v1[slot];
                    if (t->bounded)
                        t->stamps[e] = t->tick++;
                    if (code) {
                        dest_lo |= t->bits_lo[e];
                        dest_hi |= t->bits_hi[e];
                    }
                    else if (t->valid[e]) {
                        bit128_set(&dest_lo, &dest_hi, t->owner[e]);
                    }
                }
                break;
            }
            case POLICY_STICKY: { /* three neighbouring entries */
                STable *st = &stables[requester];
                int64_t bn = address >> sticky_shift;
                for (int d = -1; d <= 1; d++) {
                    int64_t nb = bn + d;
                    int64_t idx = sticky_unbounded
                                      ? nb
                                      : floormod64(nb, sticky_entries);
                    Py_ssize_t slot = map_find(&st->map, idx);
                    if (slot >= 0) {
                        Py_ssize_t s = (Py_ssize_t)st->map.v1[slot];
                        dest_lo |= st->bits_lo[s];
                        dest_hi |= st->bits_hi[s];
                    }
                }
                break;
            }
            case POLICY_SNOOPING:
                dest_lo = full_lo;
                dest_hi = full_hi;
                break;
            default: /* POLICY_DIRECTORY multicasts nothing */
                break;
            }

            /* Order on the global MOSI state (apply_fast). */
            int64_t owner;
            uint64_t sh_lo, sh_hi;
            Py_ssize_t mslot = map_find(&mosi, block);
            if (mslot < 0) {
                owner = -1;
                sh_lo = 0;
                sh_hi = 0;
            }
            else {
                owner = mosi.v1[mslot];
                sh_lo = (uint64_t)mosi.v2[mslot];
                sh_hi = (uint64_t)mosi.v3[mslot];
            }
            uint64_t req_lo = 0, req_hi = 0;
            int64_t responder;
            if (owner >= 0 && owner != requester) {
                bit128_set(&req_lo, &req_hi, (int)owner);
                responder = owner;
            }
            else {
                responder = -1;
            }
            if (code) {
                req_lo |= sh_lo & notreq_lo;
                req_hi |= sh_hi & notreq_hi;
                if (map_put3(&mosi, block, requester, 0, 0) < 0) {
                    oom = 1;
                    goto compute_halt;
                }
            }
            else if (owner != requester) {
                if (map_put3(&mosi, block, owner,
                             (int64_t)(sh_lo | reqbit_lo),
                             (int64_t)(sh_hi | reqbit_hi)) < 0) {
                    oom = 1;
                    goto compute_halt;
                }
            }

            if (policy == POLICY_DIRECTORY) {
                /* One request to the home (free when the requester is
                 * home), one forward per node that must observe. */
                int64_t requests = home != requester;
                int64_t forwards = popcount128(req_lo, req_hi);
                request_sum += requests;
                forward_sum += forwards;
                indirections += (req_lo | req_hi) != 0;
                double lat = responder == -1 ? lat_mem : lat_ind;
                latency_sum += lat;
                if (want_out) {
                    lat_out[i] = lat;
                    tb_out[i] = (requests + forwards) * control + data_size;
                }
                continue;
            }

            int64_t dcount = popcount128(dest_lo, dest_hi);
            request_sum += dcount - 1;
            uint64_t del_lo = dest_lo, del_hi = dest_hi;
            if (((req_lo & ~dest_lo) | (req_hi & ~dest_hi)) == 0) {
                double lat = responder == -1 ? lat_mem : lat_dir;
                latency_sum += lat;
                if (want_out) {
                    lat_out[i] = lat;
                    tb_out[i] = (dcount - 1) * control + data_size;
                }
            }
            else {
                uint64_t cor_lo = req_lo | minimal_lo;
                uint64_t cor_hi = req_hi | minimal_hi;
                int64_t retry_messages = popcount128(cor_lo, cor_hi) - 1;
                del_lo |= cor_lo;
                del_hi |= cor_hi;
                retry_sum += retry_messages;
                retries_total += 1;
                indirections++;
                latency_sum += lat_ind;
                if (want_out) {
                    lat_out[i] = lat_ind;
                    tb_out[i] =
                        (dcount - 1 + retry_messages) * control + data_size;
                }
            }

            if (policy == POLICY_SNOOPING)
                continue; /* no predictor to train or score */

            if (want_score) {
                const uint64_t x_lo = dest_lo & ~minimal_lo;
                const uint64_t x_hi = dest_hi & ~minimal_hi;
                const uint64_t n_lo = req_lo & ~minimal_lo;
                const uint64_t n_hi = req_hi & ~minimal_hi;
                sc_required += popcount128(n_lo, n_hi);
                sc_covered += popcount128(n_lo & x_lo, n_hi & x_hi);
                sc_extra += popcount128(x_lo, x_hi);
                /* trivial, exact, over, under, mixed */
                int cls;
                if (!(x_lo | x_hi | n_lo | n_hi))
                    cls = 0;
                else if (x_lo == n_lo && x_hi == n_hi)
                    cls = 1;
                else if (!((n_lo & ~x_lo) | (n_hi & ~x_hi)))
                    cls = 2;
                else if (!((x_lo & ~n_lo) | (x_hi & ~n_hi)))
                    cls = 3;
                else
                    cls = 4;
                sc_class[cls]++;
            }

            /* Data-response training at the requester. */
            int allocate = (req_lo | req_hi) != 0;
            switch (policy) {
            case POLICY_GROUP: {
                GTable *t = &tablesA[requester];
                int32_t e = scratch;
                if (e < 0 && allocate) {
                    e = gtable_allocate(t, key, n_nodes);
                    if (e < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                }
                if (e >= 0 && responder != -1)
                    group_train(t, e, (int32_t)responder, n_nodes, cmax,
                                thr, rperiod, tdown);
                break;
            }
            case POLICY_OWNER: {
                GTable *t = &tablesA[requester];
                int32_t e = scratch;
                if (e < 0) {
                    if (!allocate)
                        break;
                    e = gtable_allocate(t, key, n_nodes);
                    if (e < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                }
                if (responder == -1) {
                    t->valid[e] = 0;
                }
                else {
                    t->owner[e] = (int32_t)responder;
                    t->valid[e] = 1;
                }
                break;
            }
            case POLICY_BIFS: {
                GTable *t = &tablesA[requester];
                int32_t e = scratch;
                if (e < 0) {
                    if (!allocate)
                        break;
                    e = gtable_allocate(t, key, n_nodes);
                    if (e < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                }
                if (responder == -1 && !allocate) {
                    if (t->counter[e] > 0)
                        t->counter[e]--;
                }
                else if (t->counter[e] < cmax) {
                    t->counter[e]++;
                }
                break;
            }
            case POLICY_OWNER_GROUP: {
                GTable *t = &tablesA[requester];
                Py_ssize_t slot = map_find(&t->map, key);
                int32_t e = -1;
                if (slot >= 0) {
                    e = (int32_t)t->map.v1[slot];
                    if (t->bounded)
                        t->stamps[e] = t->tick++;
                }
                else if (allocate) {
                    e = gtable_allocate(t, key, n_nodes);
                    if (e < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                }
                if (e >= 0) {
                    if (responder == -1) {
                        t->valid[e] = 0;
                    }
                    else {
                        t->owner[e] = (int32_t)responder;
                        t->valid[e] = 1;
                    }
                }
                GTable *g = &tablesB[requester];
                slot = map_find(&g->map, key);
                e = -1;
                if (slot >= 0) {
                    e = (int32_t)g->map.v1[slot];
                    if (g->bounded)
                        g->stamps[e] = g->tick++;
                }
                else if (allocate) {
                    e = gtable_allocate(g, key, n_nodes);
                    if (e < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                }
                if (e >= 0 && responder != -1)
                    group_train(g, e, (int32_t)responder, n_nodes, cmax,
                                thr, rperiod, tdown);
                break;
            }
            default:
                break; /* sticky train_response is a no-op */
            }

            if (policy == POLICY_STICKY) {
                /* Directory truth training (train_truth). */
                uint64_t tr_lo = req_lo, tr_hi = req_hi;
                bit128_set(&tr_lo, &tr_hi, home);
                STable *st = &stables[requester];
                int64_t bn = address >> sticky_shift;
                int64_t idx = sticky_unbounded
                                  ? bn
                                  : floormod64(bn, sticky_entries);
                Py_ssize_t slot = map_find(&st->map, idx);
                if (slot < 0) {
                    if (stable_append(st, idx, bn, tr_lo, tr_hi) < 0) {
                        oom = 1;
                        goto compute_halt;
                    }
                    st->n_alloc++;
                }
                else {
                    Py_ssize_t s = (Py_ssize_t)st->map.v1[slot];
                    if (st->tags[s] == bn) {
                        st->bits_lo[s] |= tr_lo;
                        st->bits_hi[s] |= tr_hi;
                    }
                    else {
                        st->tags[s] = bn;
                        st->bits_lo[s] = tr_lo;
                        st->bits_hi[s] = tr_hi;
                        st->n_repl++;
                    }
                }
            }
            else {
                /* External-request training batch. */
                uint64_t ext_lo = del_lo & notreq_lo;
                uint64_t ext_hi = del_hi & notreq_hi;
                if (p_count && ext_lo == p_lo && ext_hi == p_hi) {
                    p_count++;
                }
                else {
                    if (p_count)
                        policy_flush(policy, tablesA, tablesB, p_lo, p_hi,
                                     p_key, p_req, p_code, p_count, n_nodes,
                                     cmax, thr, rperiod, tdown);
                    p_key = key;
                    p_req = requester;
                    p_code = code;
                    p_lo = ext_lo;
                    p_hi = ext_hi;
                    p_count = 1;
                }
            }
        }
        if (p_count)
            policy_flush(policy, tablesA, tablesB, p_lo, p_hi, p_key,
                         p_req, p_code, p_count, n_nodes, cmax, thr,
                         rperiod, tdown);
    compute_halt:;
        Py_END_ALLOW_THREADS
        if (oom) {
            PyErr_NoMemory();
            goto done;
        }
        if (bad) {
            /* Nothing has been written back: the Python state is as
             * it was before the call. */
            PyErr_SetString(PyExc_ValueError,
                            "policy_replay: requester out of range");
            goto done;
        }

        /* Write every piece of state back, then build the result. */
        if (policy == POLICY_STICKY) {
            for (int i = 0; i < n_nodes; i++) {
                if (stable_sync(&stables[i],
                                PyList_GET_ITEM(sticky_obj, i)) < 0)
                    goto done;
            }
        }
        else if (!baseline) {
            for (int i = 0; i < n_nodes; i++) {
                if (gtable_sync(&tablesA[i],
                                PyList_GET_ITEM(tablesA_obj, i),
                                PyList_GET_ITEM(factoriesA_obj, i), n_nodes)
                    < 0)
                    goto done;
            }
            if (policy == POLICY_OWNER_GROUP) {
                for (int i = 0; i < n_nodes; i++) {
                    if (gtable_sync(&tablesB[i],
                                    PyList_GET_ITEM(tablesB_obj, i),
                                    PyList_GET_ITEM(factoriesB_obj, i),
                                    n_nodes)
                        < 0)
                        goto done;
                }
            }
        }
        if (mosi_sync(&mosi, state_obj) < 0)
            goto done;

        PyObject *lat_bytes = Py_None;
        PyObject *tb_bytes = Py_None;
        Py_INCREF(Py_None);
        Py_INCREF(Py_None);
        if (want_out) {
            Py_DECREF(Py_None);
            Py_DECREF(Py_None);
            lat_bytes = PyBytes_FromStringAndSize(
                (const char *)lat_out, nrec * (Py_ssize_t)sizeof(double));
            tb_bytes = PyBytes_FromStringAndSize(
                (const char *)tb_out, nrec * (Py_ssize_t)sizeof(int64_t));
            if (!lat_bytes || !tb_bytes) {
                Py_XDECREF(lat_bytes);
                Py_XDECREF(tb_bytes);
                goto done;
            }
        }
        PyObject *score = Py_None;
        if (want_score && !baseline)
            score = Py_BuildValue(
                "(LLLLLLLLL)", (long long)nrec, (long long)sc_required,
                (long long)sc_covered, (long long)sc_extra,
                (long long)sc_class[0], (long long)sc_class[1],
                (long long)sc_class[2], (long long)sc_class[3],
                (long long)sc_class[4]);
        else
            Py_INCREF(Py_None);
        if (!score) {
            Py_DECREF(lat_bytes);
            Py_DECREF(tb_bytes);
            goto done;
        }
        result = Py_BuildValue(
            "LLLLLLdNNN", (long long)nrec, (long long)indirections,
            (long long)request_sum, (long long)forward_sum,
            (long long)retry_sum, (long long)retries_total, latency_sum,
            lat_bytes, tb_bytes, score);
    }

done:
    if (fallback && !PyErr_Occurred()) {
        result = Py_None;
        Py_INCREF(Py_None);
    }
    if (tablesA) {
        for (int i = 0; i < n_nodes; i++)
            gtable_free(&tablesA[i]);
        PyMem_RawFree(tablesA);
    }
    if (tablesB) {
        for (int i = 0; i < n_nodes; i++)
            gtable_free(&tablesB[i]);
        PyMem_RawFree(tablesB);
    }
    if (stables) {
        for (int i = 0; i < n_nodes; i++)
            stable_free(&stables[i]);
        PyMem_RawFree(stables);
    }
    if (mosi.keys)
        map_free(&mosi);
    PyMem_RawFree(lat_out);
    PyMem_RawFree(tb_out);
    PyBuffer_Release(&addr_b);
    PyBuffer_Release(&pc_b);
    PyBuffer_Release(&req_b);
    PyBuffer_Release(&acc_b);
    return result;
}

/* ------------------------------------------------------------------ */
/* Collector: mirror of TraceCollector.process_chunk with the cache    */
/* LRU arrays and MOSI map held natively across chunks.                */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    int n_procs;
    int64_t block_mask;
    int block_shift;
    int64_t n1, n2;
    int32_t a1, a2;
    int64_t *l1; /* n_procs * n1 * a1, LRU-first packed */
    int32_t *l1_len;
    int64_t *l2;
    int32_t *l2_len;
    I64Map mosi;
    int64_t *executed;
    int64_t *at_last_miss;
    int loaded;
} NCollector;

static void
ncollector_dealloc(NCollector *self)
{
    PyMem_RawFree(self->l1);
    PyMem_RawFree(self->l1_len);
    PyMem_RawFree(self->l2);
    PyMem_RawFree(self->l2_len);
    PyMem_RawFree(self->executed);
    PyMem_RawFree(self->at_last_miss);
    if (self->mosi.keys)
        map_free(&self->mosi);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
ncollector_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    int n_procs, block_shift;
    long long block_mask;
    long long n1, n2;
    int a1, a2;
    if (!PyArg_ParseTuple(args, "iLiLiLi", &n_procs, &block_mask,
                          &block_shift, &n1, &a1, &n2, &a2))
        return NULL;
    if (n_procs <= 0 || n_procs > 62 || n1 <= 0 || n2 <= 0 || a1 <= 0
        || a2 <= 0) {
        PyErr_SetString(PyExc_ValueError, "Collector: bad geometry");
        return NULL;
    }
    /* Keep the flat set arrays bounded (~1 GiB of int64 slots). */
    if ((int64_t)n_procs * n1 * a1 > ((int64_t)1 << 27)
        || (int64_t)n_procs * n2 * a2 > ((int64_t)1 << 27)) {
        PyErr_SetString(PyExc_ValueError, "Collector: geometry too large");
        return NULL;
    }
    NCollector *self = (NCollector *)type->tp_alloc(type, 0);
    if (!self)
        return NULL;
    self->n_procs = n_procs;
    self->block_mask = (int64_t)block_mask;
    self->block_shift = block_shift;
    self->n1 = (int64_t)n1;
    self->n2 = (int64_t)n2;
    self->a1 = a1;
    self->a2 = a2;
    self->mosi.keys = NULL;
    self->loaded = 0;

    size_t c1 = (size_t)n_procs * (size_t)n1;
    size_t c2 = (size_t)n_procs * (size_t)n2;
    self->l1 = PyMem_RawMalloc(c1 * (size_t)a1 * sizeof(int64_t));
    self->l1_len = PyMem_RawCalloc(c1, sizeof(int32_t));
    self->l2 = PyMem_RawMalloc(c2 * (size_t)a2 * sizeof(int64_t));
    self->l2_len = PyMem_RawCalloc(c2, sizeof(int32_t));
    self->executed = PyMem_RawCalloc((size_t)n_procs, sizeof(int64_t));
    self->at_last_miss = PyMem_RawCalloc((size_t)n_procs, sizeof(int64_t));
    if (!self->l1 || !self->l1_len || !self->l2 || !self->l2_len
        || !self->executed || !self->at_last_miss) {
        Py_DECREF(self);
        return PyErr_NoMemory();
    }
    return (PyObject *)self;
}

/* Load one level's OrderedDict sets into the flat arrays.  raw is a
 * list (per node) of lists (per set) of OrderedDicts whose iteration
 * order is LRU-first.  Returns 0 / 1 (envelope) / -1 (error). */
static int
load_level(PyObject *raw, int n_procs, int64_t n_sets, int32_t assoc,
           int64_t *slots, int32_t *lens)
{
    if (!PyList_CheckExact(raw) || PyList_GET_SIZE(raw) != n_procs)
        return 1;
    for (int node = 0; node < n_procs; node++) {
        PyObject *sets = PyList_GET_ITEM(raw, node);
        if (!PyList_CheckExact(sets) || PyList_GET_SIZE(sets) != n_sets)
            return 1;
        for (int64_t s = 0; s < n_sets; s++) {
            PyObject *od = PyList_GET_ITEM(sets, s);
            Py_ssize_t sz = PyObject_Size(od);
            if (sz < 0)
                return -1;
            if (sz == 0)
                continue;
            if (sz > assoc)
                return 1;
            PyObject *it = PyObject_GetIter(od);
            if (!it)
                return -1;
            int64_t *seg = slots + ((size_t)node * n_sets + s) * assoc;
            int32_t count = 0;
            PyObject *keyobj;
            while ((keyobj = PyIter_Next(it)) != NULL) {
                int of = 0;
                int64_t block = as_i64(keyobj, &of);
                Py_DECREF(keyobj);
                if (of || count >= assoc) {
                    Py_DECREF(it);
                    return 1;
                }
                seg[count++] = block;
            }
            Py_DECREF(it);
            if (PyErr_Occurred())
                return -1;
            lens[(size_t)node * n_sets + s] = count;
        }
    }
    return 0;
}

static int
load_counter_dict(PyObject *d, int n_procs, int64_t *dest)
{
    if (!PyDict_CheckExact(d) || PyDict_Size(d) != n_procs)
        return 1;
    for (int node = 0; node < n_procs; node++) {
        PyObject *keyobj = PyLong_FromLong(node);
        if (!keyobj)
            return -1;
        PyObject *v = PyDict_GetItem(d, keyobj);
        Py_DECREF(keyobj);
        if (!v)
            return 1;
        int of = 0;
        dest[node] = as_i64(v, &of);
        if (of)
            return 1;
    }
    return 0;
}

static PyObject *
ncollector_load(NCollector *self, PyObject *args)
{
    PyObject *l1_raw, *l2_raw, *blocks, *executed, *at_last;
    if (!PyArg_ParseTuple(args, "OOOOO", &l1_raw, &l2_raw, &blocks,
                          &executed, &at_last))
        return NULL;
    int rc = load_level(l1_raw, self->n_procs, self->n1, self->a1,
                        self->l1, self->l1_len);
    if (rc == 0)
        rc = load_level(l2_raw, self->n_procs, self->n2, self->a2,
                        self->l2, self->l2_len);
    if (rc == 0) {
        if (self->mosi.keys)
            map_free(&self->mosi);
        rc = mosi_load(&self->mosi, blocks, self->n_procs,
                       /*allow_wide=*/0);
    }
    if (rc == 0)
        rc = load_counter_dict(executed, self->n_procs, self->executed);
    if (rc == 0)
        rc = load_counter_dict(at_last, self->n_procs, self->at_last_miss);
    if (rc < 0)
        return NULL;
    if (rc > 0)
        Py_RETURN_FALSE; /* envelope: caller uses the Python loop */
    self->loaded = 1;
    Py_RETURN_TRUE;
}

/* Linear scan of one packed LRU set.  Returns position or -1. */
static inline int32_t
set_find(const int64_t *seg, int32_t len, int64_t block)
{
    for (int32_t j = 0; j < len; j++)
        if (seg[j] == block)
            return j;
    return -1;
}

/* OrderedDict.move_to_end: remove at pos, append at the MRU end. */
static inline void
set_move_to_end(int64_t *seg, int32_t len, int32_t pos)
{
    int64_t block = seg[pos];
    memmove(seg + pos, seg + pos + 1,
            (size_t)(len - 1 - pos) * sizeof(int64_t));
    seg[len - 1] = block;
}

static inline void
set_remove_at(int64_t *seg, int32_t *len, int32_t pos)
{
    memmove(seg + pos, seg + pos + 1,
            (size_t)(*len - 1 - pos) * sizeof(int64_t));
    (*len)--;
}

/* Growable miss-output buffers. */
typedef struct {
    int64_t *addr;
    int64_t *pc;
    int32_t *node;
    int8_t *code;
    int64_t *gap;
    Py_ssize_t len, cap;
} MissOut;

static int
missout_reserve(MissOut *o, Py_ssize_t cap)
{
    if (cap <= o->cap)
        return 0;
    int64_t *addr = PyMem_RawRealloc(o->addr, (size_t)cap * sizeof(int64_t));
    if (!addr)
        return -1;
    o->addr = addr;
    int64_t *pc = PyMem_RawRealloc(o->pc, (size_t)cap * sizeof(int64_t));
    if (!pc)
        return -1;
    o->pc = pc;
    int32_t *node = PyMem_RawRealloc(o->node, (size_t)cap * sizeof(int32_t));
    if (!node)
        return -1;
    o->node = node;
    int8_t *code = PyMem_RawRealloc(o->code, (size_t)cap);
    if (!code)
        return -1;
    o->code = code;
    int64_t *gap = PyMem_RawRealloc(o->gap, (size_t)cap * sizeof(int64_t));
    if (!gap)
        return -1;
    o->gap = gap;
    o->cap = cap;
    return 0;
}

static PyObject *
ncollector_process_chunk(NCollector *self, PyObject *args)
{
    PyObject *nodes_l, *addrs_obj, *pcs_l, *writes_l, *gaps_l;
    if (!PyArg_ParseTuple(args, "OOOOO", &nodes_l, &addrs_obj, &pcs_l,
                          &writes_l, &gaps_l))
        return NULL;
    if (!self->loaded) {
        PyErr_SetString(PyExc_RuntimeError, "Collector: load() first");
        return NULL;
    }
    if (!PyList_CheckExact(nodes_l) || !PyList_CheckExact(pcs_l)
        || !PyList_CheckExact(writes_l) || !PyList_CheckExact(gaps_l))
        Py_RETURN_NONE; /* envelope: caller uses the Python loop */
    Py_ssize_t length = PyList_GET_SIZE(nodes_l);
    if (PyList_GET_SIZE(pcs_l) != length
        || PyList_GET_SIZE(writes_l) != length
        || PyList_GET_SIZE(gaps_l) != length)
        Py_RETURN_NONE;

    /* Addresses: an int64 buffer (numpy chunk column) or a list. */
    Py_buffer addr_buf;
    const int64_t *addr_arr = NULL;
    PyObject *addr_list = NULL;
    addr_buf.buf = NULL;
    if (PyObject_CheckBuffer(addrs_obj)
        && PyObject_GetBuffer(addrs_obj, &addr_buf, PyBUF_CONTIG_RO) == 0) {
        if (addr_buf.len == length * (Py_ssize_t)sizeof(int64_t)
            && addr_buf.itemsize == (Py_ssize_t)sizeof(int64_t)) {
            addr_arr = addr_buf.buf;
        }
        else {
            PyBuffer_Release(&addr_buf);
            addr_buf.buf = NULL;
        }
    }
    else {
        PyErr_Clear();
    }
    if (!addr_arr) {
        if (!PyList_CheckExact(addrs_obj)
            || PyList_GET_SIZE(addrs_obj) != length)
            Py_RETURN_NONE;
        addr_list = addrs_obj;
    }

#define RELEASE_ADDR()                                                     \
    do {                                                                   \
        if (addr_buf.buf)                                                  \
            PyBuffer_Release(&addr_buf);                                   \
    } while (0)

    /* Marshal (GIL held): flatten every chunk column into C arrays,
     * mirroring the Python loop's node-range pre-check and pulling the
     * int64-envelope validation forward so the compute loop below can
     * run with the GIL released. */
    const int n_procs = self->n_procs;
    int64_t *m_cols = PyMem_RawMalloc(
        (size_t)(length ? length : 1) * 5 * sizeof(int64_t));
    if (!m_cols) {
        RELEASE_ADDR();
        return PyErr_NoMemory();
    }
    int64_t *m_node = m_cols;
    int64_t *m_gap = m_cols + length;
    int64_t *m_pc = m_cols + 2 * length;
    int64_t *m_write = m_cols + 3 * length;
    int64_t *m_addr = m_cols + 4 * length;
    for (Py_ssize_t i = 0; i < length; i++) {
        int of = 0;
        int64_t node = as_i64(PyList_GET_ITEM(nodes_l, i), &of);
        if (of || node < 0 || node >= n_procs) {
            PyMem_RawFree(m_cols);
            RELEASE_ADDR();
            if (!of) {
                PyErr_Format(PyExc_ValueError,
                             "chunk contains nodes outside [0, %d)",
                             n_procs);
                return NULL;
            }
            Py_RETURN_NONE;
        }
        m_node[i] = node;
        m_gap[i] = as_i64(PyList_GET_ITEM(gaps_l, i), &of);
        m_pc[i] = as_i64(PyList_GET_ITEM(pcs_l, i), &of);
        m_write[i] = as_i64(PyList_GET_ITEM(writes_l, i), &of);
        m_addr[i] = addr_arr
                        ? addr_arr[i]
                        : as_i64(PyList_GET_ITEM(addr_list, i), &of);
        if (of || m_addr[i] < 0) {
            /* Outside the envelope mid-chunk cannot happen for real
             * generator output; bail out loudly rather than guessing. */
            PyMem_RawFree(m_cols);
            RELEASE_ADDR();
            PyErr_SetString(PyExc_OverflowError,
                            "Collector: value outside int64 envelope");
            return NULL;
        }
    }
    /* Every column is copied; drop the address view before compute. */
    RELEASE_ADDR();
    addr_buf.buf = NULL;

    MissOut out;
    memset(&out, 0, sizeof(out));
    if (missout_reserve(&out, length > 16 ? length / 4 : 16) < 0) {
        PyMem_RawFree(m_cols);
        return PyErr_NoMemory();
    }

    const int64_t block_mask = self->block_mask;
    const int block_shift = self->block_shift;
    const int64_t n1 = self->n1, n2 = self->n2;
    const int32_t a1 = self->a1, a2 = self->a2;
    PyObject *result = NULL;
    int oom = 0;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < length; i++) {
        const int64_t node = m_node[i];
        const int64_t gap = m_gap[i];
        const int64_t pc = m_pc[i];
        const int64_t is_write = m_write[i];
        const int64_t address = m_addr[i];

        self->executed[node] += gap;
        int64_t block = address & block_mask;
        int64_t s1 = (block >> block_shift) % n1;
        int64_t s2 = (block >> block_shift) % n2;

        int64_t owner;
        uint64_t sharers;
        Py_ssize_t mslot = map_find(&self->mosi, block);
        if (mslot < 0) {
            owner = -1;
            sharers = 0;
        }
        else {
            owner = self->mosi.v1[mslot];
            sharers = (uint64_t)self->mosi.v2[mslot];
        }
        int permitted;
        if (is_write)
            permitted = owner == node && !sharers;
        else
            permitted = owner == node || ((sharers >> node) & 1);

        int64_t *l1_seg = self->l1 + ((size_t)node * n1 + s1) * a1;
        int32_t *l1_len = &self->l1_len[(size_t)node * n1 + s1];
        int64_t *l2_seg = self->l2 + ((size_t)node * n2 + s2) * a2;
        int32_t *l2_len = &self->l2_len[(size_t)node * n2 + s2];

        if (permitted) {
            int32_t pos = set_find(l1_seg, *l1_len, block);
            if (pos >= 0) {
                set_move_to_end(l1_seg, *l1_len, pos);
                int32_t p2 = set_find(l2_seg, *l2_len, block);
                if (p2 >= 0)
                    set_move_to_end(l2_seg, *l2_len, p2);
                continue;
            }
            int32_t p2 = set_find(l2_seg, *l2_len, block);
            if (p2 >= 0) {
                set_move_to_end(l2_seg, *l2_len, p2);
                if (*l1_len >= a1)
                    set_remove_at(l1_seg, l1_len, 0);
                l1_seg[(*l1_len)++] = block;
                continue;
            }
        }

        /* -- miss: record, apply MOSI, invalidate, fill ---------- */
        int64_t done_instr = self->executed[node];
        if (out.len >= out.cap
            && missout_reserve(&out, out.cap * 2) < 0) {
            oom = 1;
            goto chunk_halt;
        }
        out.gap[out.len] = done_instr - self->at_last_miss[node];
        self->at_last_miss[node] = done_instr;
        uint64_t required;
        if (owner >= 0 && owner != node)
            required = (uint64_t)1 << owner;
        else
            required = 0;
        if (is_write) {
            required |= sharers & ~((uint64_t)1 << node);
            if (map_put(&self->mosi, block, node, 0) < 0) {
                oom = 1;
                goto chunk_halt;
            }
        }
        else if (owner != node) {
            if (map_put(&self->mosi, block, owner,
                        (int64_t)(sharers | ((uint64_t)1 << node))) < 0) {
                oom = 1;
                goto chunk_halt;
            }
        }
        out.addr[out.len] = block;
        out.pc[out.len] = pc;
        out.node[out.len] = (int32_t)node;
        out.code[out.len] = is_write ? 1 : 0;
        out.len++;

        if (is_write && required) {
            uint64_t remaining = required;
            while (remaining) {
                uint64_t low = remaining & (~remaining + 1);
                int victim_node = __builtin_ctzll(low);
                int64_t *vseg =
                    self->l1 + ((size_t)victim_node * n1 + s1) * a1;
                int32_t *vlen = &self->l1_len[(size_t)victim_node * n1 + s1];
                int32_t vpos = set_find(vseg, *vlen, block);
                if (vpos >= 0)
                    set_remove_at(vseg, vlen, vpos);
                vseg = self->l2 + ((size_t)victim_node * n2 + s2) * a2;
                vlen = &self->l2_len[(size_t)victim_node * n2 + s2];
                vpos = set_find(vseg, *vlen, block);
                if (vpos >= 0)
                    set_remove_at(vseg, vlen, vpos);
                remaining ^= low;
            }
        }

        int32_t p2 = set_find(l2_seg, *l2_len, block);
        if (p2 >= 0) {
            set_move_to_end(l2_seg, *l2_len, p2);
        }
        else {
            if (*l2_len >= a2) {
                int64_t victim = l2_seg[0];
                set_remove_at(l2_seg, l2_len, 0);
                int64_t vs1 = (victim >> block_shift) % n1;
                int64_t *vseg = self->l1 + ((size_t)node * n1 + vs1) * a1;
                int32_t *vlen = &self->l1_len[(size_t)node * n1 + vs1];
                int32_t vpos = set_find(vseg, *vlen, victim);
                if (vpos >= 0)
                    set_remove_at(vseg, vlen, vpos);
                Py_ssize_t vslot = map_find(&self->mosi, victim);
                if (vslot >= 0) {
                    int64_t vowner = self->mosi.v1[vslot];
                    uint64_t vsharers = (uint64_t)self->mosi.v2[vslot];
                    if (vowner == node) {
                        self->mosi.v1[vslot] = -1;
                    }
                    else if ((vsharers >> node) & 1) {
                        self->mosi.v2[vslot] = (int64_t)(
                            vsharers & ~((uint64_t)1 << node));
                    }
                }
            }
            l2_seg[(*l2_len)++] = block;
        }
        int32_t p1 = set_find(l1_seg, *l1_len, block);
        if (p1 >= 0) {
            set_move_to_end(l1_seg, *l1_len, p1);
        }
        else {
            if (*l1_len >= a1)
                set_remove_at(l1_seg, l1_len, 0);
            l1_seg[(*l1_len)++] = block;
        }
    }
chunk_halt:;
    Py_END_ALLOW_THREADS
    if (oom) {
        PyErr_NoMemory();
        goto done;
    }

    result = Py_BuildValue(
        "ny#y#y#y#y#", out.len, (const char *)out.addr,
        out.len * (Py_ssize_t)sizeof(int64_t), (const char *)out.pc,
        out.len * (Py_ssize_t)sizeof(int64_t), (const char *)out.node,
        out.len * (Py_ssize_t)sizeof(int32_t), (const char *)out.code,
        out.len, (const char *)out.gap,
        out.len * (Py_ssize_t)sizeof(int64_t));

done:
#undef RELEASE_ADDR
    PyMem_RawFree(m_cols);
    PyMem_RawFree(out.addr);
    PyMem_RawFree(out.pc);
    PyMem_RawFree(out.node);
    PyMem_RawFree(out.code);
    PyMem_RawFree(out.gap);
    return result;
}

/* Write the native cache/MOSI/counter state back into the Python
 * structures (same objects, refilled in LRU order). */
static int
sync_level(PyObject *raw, int n_procs, int64_t n_sets, int32_t assoc,
           const int64_t *slots, const int32_t *lens)
{
    for (int node = 0; node < n_procs; node++) {
        PyObject *sets = PyList_GET_ITEM(raw, node);
        for (int64_t s = 0; s < n_sets; s++) {
            PyObject *od = PyList_GET_ITEM(sets, s);
            int32_t len = lens[(size_t)node * n_sets + s];
            Py_ssize_t pysz = PyObject_Size(od);
            if (pysz < 0)
                return -1;
            if (pysz == 0 && len == 0)
                continue;
            PyObject *r = PyObject_CallMethod(od, "clear", NULL);
            if (!r)
                return -1;
            Py_DECREF(r);
            const int64_t *seg =
                slots + ((size_t)node * n_sets + s) * assoc;
            for (int32_t j = 0; j < len; j++) {
                PyObject *keyobj = PyLong_FromLongLong((long long)seg[j]);
                if (!keyobj)
                    return -1;
                int rc = PyObject_SetItem(od, keyobj, Py_None);
                Py_DECREF(keyobj);
                if (rc < 0)
                    return -1;
            }
        }
    }
    return 0;
}

static int
sync_counter_dict(PyObject *d, int n_procs, const int64_t *src)
{
    for (int node = 0; node < n_procs; node++) {
        PyObject *keyobj = PyLong_FromLong(node);
        PyObject *v = keyobj ? PyLong_FromLongLong((long long)src[node])
                             : NULL;
        if (!v || PyDict_SetItem(d, keyobj, v) < 0) {
            Py_XDECREF(keyobj);
            Py_XDECREF(v);
            return -1;
        }
        Py_DECREF(keyobj);
        Py_DECREF(v);
    }
    return 0;
}

static PyObject *
ncollector_sync(NCollector *self, PyObject *args)
{
    PyObject *l1_raw, *l2_raw, *blocks, *executed, *at_last;
    if (!PyArg_ParseTuple(args, "OOOOO", &l1_raw, &l2_raw, &blocks,
                          &executed, &at_last))
        return NULL;
    if (!self->loaded) {
        PyErr_SetString(PyExc_RuntimeError, "Collector: load() first");
        return NULL;
    }
    if (sync_level(l1_raw, self->n_procs, self->n1, self->a1, self->l1,
                   self->l1_len) < 0)
        return NULL;
    if (sync_level(l2_raw, self->n_procs, self->n2, self->a2, self->l2,
                   self->l2_len) < 0)
        return NULL;
    if (mosi_sync(&self->mosi, blocks) < 0)
        return NULL;
    if (sync_counter_dict(executed, self->n_procs, self->executed) < 0)
        return NULL;
    if (sync_counter_dict(at_last, self->n_procs, self->at_last_miss) < 0)
        return NULL;
    self->loaded = 0;
    Py_RETURN_NONE;
}

static PyMethodDef ncollector_methods[] = {
    {"load", (PyCFunction)ncollector_load, METH_VARARGS,
     "Adopt the Python-side cache/MOSI/counter state."},
    {"process_chunk", (PyCFunction)ncollector_process_chunk, METH_VARARGS,
     "Filter one reference chunk; returns (n_miss, 5 column bytes)."},
    {"sync", (PyCFunction)ncollector_sync, METH_VARARGS,
     "Write native state back into the Python-side structures."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject NCollectorType = {
    PyVarObject_HEAD_INIT(NULL, 0).tp_name = "repro.kernels._native.Collector",
    .tp_basicsize = sizeof(NCollector),
    .tp_dealloc = (destructor)ncollector_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Native chunk-collector session state.",
    .tp_methods = ncollector_methods,
    .tp_new = ncollector_new,
};

/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"timing_pass", timing_pass, METH_VARARGS,
     "Crossbar + simple-processor timing pass over outcome columns."},
    {"timing_pass_detailed", timing_pass_detailed, METH_VARARGS,
     "Crossbar + detailed-processor timing pass over outcome columns."},
    {"policy_replay", policy_replay, METH_VARARGS,
     "Fused replay over trace columns for one of the five compiled"
     " predictor policies or the directory / broadcast-snooping"
     " protocol modes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._native",
    "Compiled kernel backend (see repro.kernels for the ABI).",
    -1,
    native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *m = PyModule_Create(&native_module);
    if (!m)
        return NULL;
    if (PyType_Ready(&NCollectorType) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&NCollectorType);
    if (PyModule_AddObject(m, "Collector", (PyObject *)&NCollectorType)
        < 0) {
        Py_DECREF(&NCollectorType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "ABI_VERSION", 5) < 0
        || PyModule_AddIntConstant(m, "POLICY_GROUP", POLICY_GROUP) < 0
        || PyModule_AddIntConstant(m, "POLICY_OWNER", POLICY_OWNER) < 0
        || PyModule_AddIntConstant(m, "POLICY_BIFS", POLICY_BIFS) < 0
        || PyModule_AddIntConstant(m, "POLICY_OWNER_GROUP",
                                   POLICY_OWNER_GROUP) < 0
        || PyModule_AddIntConstant(m, "POLICY_STICKY", POLICY_STICKY) < 0
        || PyModule_AddIntConstant(m, "POLICY_DIRECTORY", POLICY_DIRECTORY)
               < 0
        || PyModule_AddIntConstant(m, "POLICY_SNOOPING", POLICY_SNOOPING)
               < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
