"""Optional C kernels for the slot's scalar loops, compiled on demand.

Five per-slot loops make many tiny operations that no NumPy expression can
reproduce bit-identically without per-call overhead:

- the DepRound walk (:func:`walk_segments`) — a sequential carry scan,
  ~one pairing step per edge, fused over every segment of the slot
  (:meth:`repro.core.lfsc.LFSCPolicy._score_edges_fused`);
- Alg. 4's accept/reject pass (:func:`greedy_pass`);
- Alg. 3's statistics scatter (:func:`scatter_update`);
- the paper's §5 coverage draw (:func:`cover_draw`): every SCN's
  ``np.sort(rng.choice(n, k, replace=False))`` of a
  :class:`repro.env.geometry.CoverageSampler` slot in one call, driving the
  Generator's own bit generator so the stream is consumed exactly as
  ``choice`` consumes it;
- Alg. 2's per-segment Exp3.M cap solve (:func:`cap_segments`): numpy's
  pairwise ``np.sum``, the stable descending sort, the reverse-cumsum
  suffix and the threshold walk.

This module compiles C transliterations of them at first use with whatever
C compiler the host already has (``cc``/``gcc``/``clang`` — nothing is
downloaded or installed) and drives them through :mod:`ctypes`.  It imports
nothing from ``repro``.

Bit-identicality: the kernels perform the exact IEEE-754 double operations
of their Python references in the same order, and are built with
``-ffp-contract=off`` (no fast-math) so no toolchain may fuse operations.
``tests/core/test_native.py`` holds the property tests; the windowed
equivalence suite and the golden digests pin whole runs.  Two kernels
reproduce numpy internals that numpy does not promise to keep —
``Generator.choice``'s stream and the pairwise-sum blocking — so the
loader checks each of them against this process's numpy once (about
half a millisecond) and disables just that kernel on a mismatch
(:data:`CHECKED_KERNELS`, :func:`available`).

Fallback: any failure — no compiler, sandboxed tmpdir, load error, or
``REPRO_NATIVE=0`` in the environment — silently disables the kernels and
callers keep using the Python loops.  The compiled object is cached under a
per-user directory (override with ``REPRO_NATIVE_CACHE``) keyed by a hash
of the source, so each machine compiles once, not once per process.  The
cache fails closed: the directory and the library must be real files (not
symlinks) owned by the current user and writable by nobody else, or
nothing is built or loaded there.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import shutil
import stat
import subprocess
import tempfile
import threading

import numpy as np

__all__ = [
    "available",
    "cap_segments",
    "cover_draw",
    "greedy_pass",
    "scatter_update",
    "walk_segments",
]

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* DepRound walks for every segment of a slot in one call.  Mirrors
 * repro.core.depround.walk_into statement for statement: the same IEEE
 * double operations in the same order, so results are bit-identical to
 * the Python walk.  `out` entries default 0; only selections are written.
 */
void walk_segments(const double *p,
                   const long long *seg_start,
                   long long num_segs,
                   const double *draws,
                   const long long *draw_start,
                   const double *lo,
                   const double *hi,
                   unsigned char *out,
                   double tol,
                   long long *ids_scratch,
                   double *vals_scratch)
{
    for (long long s = 0; s < num_segs; s++) {
        long long base = seg_start[s];
        long long n = seg_start[s + 1] - base;
        if (n == 0)
            continue;
        const double *vals = p + base;
        const double *dr = draws + draw_start[s];
        long long draw_at = 0;
        if (lo[s] > tol && hi[s] < 1.0 - tol) {
            /* Common path: every coordinate strictly fractional. */
            long long top = n - 1;
            double pi = vals[top];
            long long ci = top;
            while (top >= 1) {
                long long j = top - 1;
                double pj = vals[j];
                double ompi = 1.0 - pi;
                double ompj = 1.0 - pj;
                double alpha = ompi < pj ? ompi : pj;
                double beta = pi < ompj ? pi : ompj;
                if (dr[draw_at] < beta / (alpha + beta)) {
                    pi += alpha;
                    pj -= alpha;
                } else {
                    pi -= beta;
                    pj += beta;
                }
                draw_at++;
                if (tol < pi && pi < 1.0 - tol) {
                    if (pj > 0.5)
                        out[base + j] = 1;
                    top = j;
                } else if (tol < pj && pj < 1.0 - tol) {
                    if (pi > 0.5)
                        out[base + ci] = 1;
                    ci = j;
                    pi = pj;
                    top = j;
                } else {
                    if (pi > 0.5)
                        out[base + ci] = 1;
                    if (pj > 0.5)
                        out[base + j] = 1;
                    top = j - 1;
                    if (top >= 0) {
                        ci = top;
                        pi = vals[top];
                    }
                }
            }
            if (top == 0) {
                if (dr[draw_at] < pi)
                    out[base + ci] = 1;
            }
            continue;
        }
        /* General path: strip the integral coordinates first. */
        long long nf = 0;
        for (long long i = 0; i < n; i++) {
            double v = vals[i];
            if (v > tol) {
                if (v < 1.0 - tol) {
                    ids_scratch[nf] = i;
                    vals_scratch[nf] = v;
                    nf++;
                } else {
                    out[base + i] = 1;
                }
            }
        }
        long long top = nf - 1;
        if (top < 0)
            continue;
        double pi = vals_scratch[top];
        long long ci = ids_scratch[top];
        while (top >= 1) {
            long long j = top - 1;
            double pj = vals_scratch[j];
            double ompi = 1.0 - pi;
            double ompj = 1.0 - pj;
            double alpha = ompi < pj ? ompi : pj;
            double beta = pi < ompj ? pi : ompj;
            if (dr[draw_at] < beta / (alpha + beta)) {
                pi += alpha;
                pj -= alpha;
            } else {
                pi -= beta;
                pj += beta;
            }
            draw_at++;
            if (tol < pi && pi < 1.0 - tol) {
                if (pj > 0.5)
                    out[base + ids_scratch[j]] = 1;
                top = j;
            } else if (tol < pj && pj < 1.0 - tol) {
                if (pi > 0.5)
                    out[base + ci] = 1;
                ci = ids_scratch[j];
                pi = pj;
                top = j;
            } else {
                if (pi > 0.5)
                    out[base + ci] = 1;
                if (pj > 0.5)
                    out[base + ids_scratch[j]] = 1;
                top = j - 1;
                if (top >= 0) {
                    ci = ids_scratch[top];
                    pi = vals_scratch[top];
                }
            }
        }
        if (top == 0) {
            if (dr[draw_at] < pi)
                out[base + ci] = 1;
        }
    }
}

/* Alg. 4's greedy pass over edges in descending-weight order (`order` is
 * the stable argsort the caller computed).  Pure integer bookkeeping —
 * identical accept/reject decisions to the Python pass by construction.
 */
long long greedy_pass(const long long *edge_scn,
                      const long long *edge_task,
                      const long long *order,
                      long long num_edges,
                      unsigned char *taken,
                      long long *rem,
                      long long bound,
                      long long *sel_scn,
                      long long *sel_task)
{
    long long count = 0;
    for (long long k = 0; k < num_edges; k++) {
        long long e = order[k];
        long long i = edge_task[e];
        long long m = edge_scn[e];
        if (taken[i] || rem[m] == 0)
            continue;
        taken[i] = 1;
        rem[m]--;
        sel_scn[count] = m;
        sel_task[count] = i;
        count++;
        if (count == bound)
            break;
    }
    return count;
}

/* Alg. 3's statistics scatter: accumulate each observed edge's utility
 * estimate into its flat (scn, cube) cell.  Additions happen in edge
 * order — exactly the element-order accumulation np.bincount performs —
 * so the sums are bit-identical to the two-bincount formulation this
 * replaces, while touching the E edges once instead of twice over M*F
 * cells.
 */
void scatter_update(const long long *flat,
                    long long num_edges,
                    const double *weights,
                    double *sums,
                    long long *counts)
{
    for (long long e = 0; e < num_edges; e++) {
        long long c = flat[e];
        sums[c] += weights[e];
        counts[c] += 1;
    }
}

/* numpy's bit generator interface (numpy/random/bitgen.h). */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_bounded_uint64(bitgen, 0, rng, 0, 0) for rng < 2^32 - 1:
 * 0 without a draw when rng == 0, else Lemire's multiply-shift on one
 * next_uint32 with the same rejection loop (buffered_bounded_lemire_uint32).
 */
static inline uint32_t bounded_u32(bitgen_t *bg, uint32_t rng)
{
    if (rng == 0)
        return 0;
    const uint32_t rng_excl = rng + 1;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
    uint32_t leftover = (uint32_t)(m & 0xFFFFFFFFUL);
    if (leftover < rng_excl) {
        const uint32_t threshold = (UINT32_MAX - rng) % rng_excl;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * rng_excl;
            leftover = (uint32_t)(m & 0xFFFFFFFFUL);
        }
    }
    return (uint32_t)(m >> 32);
}

/* One CoverageSampler slot: for each size k, np.sort(Generator.choice(n, k,
 * replace=False)) on numpy's Floyd branch (n <= 10000 or k <= n // 50;
 * the caller checks, and n < 2^32 - 1).  Floyd draws j in [0, j] for
 * j = n-k .. n-1 and keeps the draw unless it is taken, else j itself;
 * then choice's shuffle=True makes k-1 more bounded draws (i = k-1 .. 1)
 * whose values the sort discards but the stream position needs.  The set
 * lives in a membership bitmap, read back in ascending order (and cleared)
 * into `out`: sizes[0] indices, then sizes[1], ...  Returns -1 before any
 * draw if some size lies outside [0, n] or the bitmap cannot be allocated.
 */
long long cover_draw(bitgen_t *bg,
                     long long n,
                     const long long *sizes,
                     long long num,
                     long long *out)
{
    for (long long s = 0; s < num; s++)
        if (sizes[s] < 0 || sizes[s] > n)
            return -1;
    long long words = (n + 63) / 64;
    uint64_t *member = calloc((size_t)(words > 0 ? words : 1), sizeof(uint64_t));
    if (member == NULL)
        return -1;
    long long at = 0;
    for (long long s = 0; s < num; s++) {
        long long k = sizes[s];
        for (long long j = n - k; j < n; j++) {
            uint64_t v = bounded_u32(bg, (uint32_t)j);
            if (member[v >> 6] >> (v & 63) & 1)
                v = (uint64_t)j;
            member[v >> 6] |= (uint64_t)1 << (v & 63);
        }
        for (long long i = k - 1; i >= 1; i--)
            (void)bounded_u32(bg, (uint32_t)i);
        for (long long q = 0; q < words; q++) {
            uint64_t bits = member[q];
            member[q] = 0;
            while (bits) {
                out[at++] = q * 64 + __builtin_ctzll(bits);
                bits &= bits - 1;
            }
        }
    }
    free(member);
    return 0;
}

/* numpy's float64 pairwise summation (DOUBLE_pairwise_sum): plain adds
 * below 8 elements, 8 accumulators up to 128, halving (on a multiple of 8)
 * above that.
 */
static double pairwise(const double *a, long long n)
{
    if (n < 8) {
        double res = -0.0;
        for (long long i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        long long i;
        for (int u = 0; u < 8; u++)
            r[u] = a[u];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int u = 0; u < 8; u++)
                r[u] += a[i + u];
        double res = ((r[0] + r[1]) + (r[2] + r[3])) +
                     ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    long long n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.sum of a contiguous float64 array: the add reduction starts from its
 * identity 0.0 and adds the pairwise sum of all n elements. */
static double np_sum(const double *a, long long n)
{
    return 0.0 + pairwise(a, n);
}

/* out[i] = np.sum(a[:lens[i]]) — the load-time self-check's probe. */
void prefix_sums(const double *a, const long long *lens, long long num,
                 double *out)
{
    for (long long i = 0; i < num; i++)
        out[i] = np_sum(a, lens[i]);
}

/* Descending order of v[0..n), ties by ascending index: the permutation
 * np.argsort(-v, kind="stable") returns (a total order, so any correct
 * sort reproduces it).  Bottom-up merge sort through `tmp`.
 */
static void sort_desc(const double *v, long long n, long long *idx,
                      long long *tmp)
{
    for (long long i = 0; i < n; i++)
        idx[i] = i;
    long long *src = idx, *dst = tmp;
    for (long long width = 1; width < n; width *= 2) {
        for (long long lo = 0; lo < n; lo += 2 * width) {
            long long mid = lo + width < n ? lo + width : n;
            long long hi = lo + 2 * width < n ? lo + 2 * width : n;
            long long a = lo, b = mid, o = lo;
            while (a < mid && b < hi) {
                long long x = src[a], y = src[b];
                if (v[y] > v[x] || (v[y] == v[x] && y < x)) {
                    dst[o++] = y;
                    b++;
                } else {
                    dst[o++] = x;
                    a++;
                }
            }
            while (a < mid)
                dst[o++] = src[a++];
            while (b < hi)
                dst[o++] = src[b++];
        }
        long long *t = src;
        src = dst;
        dst = t;
    }
    if (src != idx)
        for (long long i = 0; i < n; i++)
            idx[i] = src[i];
}

/* Alg. 2's Exp3.M cap solve for the segments segs[0..num) (all M segments
 * when segs is NULL), each of length >= 2.  Mirrors the Python loop of
 * repro.core.probability._solve_caps step for step: the np.sum total, the
 * segment max, the stable descending sort, the reverse-cumsum suffix, the
 * _cap_set_sorted walk, then w~ (capped entries set to the threshold), its
 * np.sum denominator and the threshold.  `wtilde` must hold a copy of `w`
 * and `capped` zeros; thresholds[m] is written only for capped segments.
 * Returns -1 (nothing written) if a segment is shorter than 2 or scratch
 * cannot be allocated.
 */
long long cap_segments(const double *w,
                       const long long *off,
                       const long long *segs,
                       long long num,
                       const double *ratios,
                       double *wtilde,
                       unsigned char *capped,
                       double *thresholds,
                       double *denom)
{
    long long longest = 0;
    for (long long j = 0; j < num; j++) {
        long long m = segs ? segs[j] : j;
        long long K = off[m + 1] - off[m];
        if (K < 2)
            return -1;
        if (K > longest)
            longest = K;
    }
    size_t cells = (size_t)(longest > 0 ? longest : 1);
    long long *order = malloc(2 * cells * sizeof(long long));
    double *suffix = malloc(cells * sizeof(double));
    if (order == NULL || suffix == NULL) {
        free(order);
        free(suffix);
        return -1;
    }
    long long *tmp = order + cells;
    for (long long j = 0; j < num; j++) {
        long long m = segs ? segs[j] : j;
        long long s = off[m];
        long long K = off[m + 1] - s;
        const double *seg = w + s;
        double total = np_sum(seg, K);
        double ratio = ratios[j];
        double mx = seg[0];
        for (long long i = 1; i < K; i++)
            if (seg[i] > mx)
                mx = seg[i];
        if (!(mx >= ratio * total)) {
            denom[j] = total;
            continue;
        }
        sort_desc(seg, K, order, tmp);
        suffix[K - 1] = seg[order[K - 1]];
        for (long long i = K - 2; i >= 0; i--)
            suffix[i] = suffix[i + 1] + seg[order[i]];
        long long k = 1;
        double e_hat = ratio * suffix[1] / (1.0 - ratio);
        while (k < K && ratio * (double)(k + 1) < 1.0 - 1e-15
               && seg[order[k]] > e_hat) {
            k++;
            e_hat = ratio * (k < K ? suffix[k] : 0.0) / (1.0 - ratio * (double)k);
        }
        for (long long i = 0; i < k; i++) {
            capped[s + order[i]] = 1;
            wtilde[s + order[i]] = e_hat;
        }
        denom[j] = np_sum(wtilde + s, K);
        thresholds[m] = e_hat;
    }
    free(order);
    free(suffix);
    return 0;
}
"""


_lock = threading.Lock()
_lib: ctypes.CDLL | None = None
_tried = False
#: Kernels the load-time self-check found disagreeing with numpy.
_disabled: frozenset[str] = frozenset()

#: Kernels with a numpy reference the loader checks once per process.
CHECKED_KERNELS = ("cover_draw", "cap_segments")

_P = ctypes.c_void_p
_I = ctypes.c_longlong

#: numpy's Generator.choice(n, k, replace=False) leaves Floyd's algorithm
#: for a tail shuffle when n > 10000 and k > n // 50; cover_draw replays
#: Floyd's branch only.
_FLOYD_POOL = 10000
_FLOYD_CUTOFF = 50


def _ptr(a) -> int:
    """Address of an array's data; ints (pointers cached by the caller)
    pass through.  ``arr.ctypes.data`` is about half the cost of
    ``arr.ctypes.data_as(...)``."""
    return a if a.__class__ is int else a.ctypes.data


def _is_c(a: np.ndarray, dtype, length: int | None) -> bool:
    return (
        a.dtype == dtype and a.ndim == 1 and a.flags.c_contiguous
        and (length is None or a.shape[0] == length)
    )


def _find_compiler() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand and shutil.which(cand):
            return cand
    return None


def _cache_dir() -> str:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return override
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return os.path.join(tempfile.gettempdir(), f"repro-native-{uid}")


def _require_private(path: str) -> None:
    """Fail closed unless ``path`` is a non-symlink owned by this user and
    writable by nobody else — the cache's digest is derived from public
    source, so on a shared host anyone could plant a library under it."""
    if not hasattr(os, "getuid"):
        return
    st = os.lstat(path)
    if stat.S_ISLNK(st.st_mode):
        raise RuntimeError(f"native cache path is a symlink: {path}")
    if st.st_uid != os.getuid():
        raise RuntimeError(f"native cache path is owned by uid {st.st_uid}: {path}")
    if st.st_mode & (stat.S_IWGRP | stat.S_IWOTH):
        raise RuntimeError(f"native cache path is group/world-writable: {path}")


def _build_and_load() -> ctypes.CDLL:
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"repro_walk_{digest}.so")
    if not os.path.lexists(cache):
        os.makedirs(cache, mode=0o700, exist_ok=True)
    _require_private(cache)
    if not os.path.lexists(so_path):
        compiler = _find_compiler()
        if compiler is None:
            raise RuntimeError("no C compiler on PATH")
        src_path = os.path.join(cache, f"repro_walk_{digest}.c")
        with open(src_path, "w") as f:
            f.write(_SOURCE)
        # -ffp-contract=off: forbid fused multiply-add contraction so the
        # arithmetic matches the Python reference on every target.
        # Deliberately no -march/-ffast-math: bit-exact IEEE only.
        tmp_out = so_path + f".tmp{os.getpid()}"
        subprocess.run(
            [
                compiler, "-O2", "-fPIC", "-shared", "-ffp-contract=off",
                src_path, "-o", tmp_out,
            ],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.chmod(tmp_out, 0o755)  # independent of the umask
        os.replace(tmp_out, so_path)  # atomic: concurrent builders converge
    _require_private(so_path)
    lib = ctypes.CDLL(so_path)
    lib.walk_segments.restype = None
    lib.walk_segments.argtypes = [_P, _P, _I, _P, _P, _P, _P, _P, ctypes.c_double, _P, _P]
    lib.greedy_pass.restype = _I
    lib.greedy_pass.argtypes = [_P, _P, _P, _I, _P, _P, _I, _P, _P]
    lib.scatter_update.restype = None
    lib.scatter_update.argtypes = [_P, _I, _P, _P, _P]
    lib.cover_draw.restype = _I
    lib.cover_draw.argtypes = [_P, _I, _P, _I, _P]
    lib.prefix_sums.restype = None
    lib.prefix_sums.argtypes = [_P, _P, _I, _P]
    lib.cap_segments.restype = _I
    lib.cap_segments.argtypes = [_P, _P, _P, _I, _P, _P, _P, _P, _P]
    return lib


def _check_cover_draw(lib: ctypes.CDLL) -> bool:
    """The draw kernel against ``np.sort(rng.choice(...))`` + the next draw."""
    n = 100
    sizes = np.array([1, n, 37], dtype=np.int64)
    got_rng = np.random.default_rng(0x5EED)
    want_rng = np.random.default_rng(0x5EED)
    got = _draw_slot(lib, got_rng, n, sizes)
    want = [np.sort(want_rng.choice(n, size=int(k), replace=False)) for k in sizes]
    return (
        got is not None
        and all(np.array_equal(g, w) for g, w in zip(got, want))
        and got_rng.random() == want_rng.random()
    )


def _check_cap_segments(lib: ctypes.CDLL) -> bool:
    """The kernel's pairwise sum against ``np.sum`` at lengths 1…300."""
    a = np.exp(np.random.default_rng(0x5EED).normal(0.0, 4.0, 300))
    lens = np.arange(1, 301, dtype=np.int64)
    got = np.empty(300)
    lib.prefix_sums(a.ctypes.data, lens.ctypes.data, 300, got.ctypes.data)
    want = np.array(list(map(np.add.reduce, [a[:n] for n in range(1, 301)])))
    return got.tobytes() == want.tobytes()


def _self_check(lib: ctypes.CDLL) -> frozenset[str]:
    """Names of the checked kernels that disagree with numpy here.

    numpy promises no cross-version stability for ``Generator.choice``'s
    stream, and the pairwise-sum blocking is an implementation detail; a
    kernel that no longer reproduces this numpy is disabled on its own.
    """
    checks = {"cover_draw": _check_cover_draw, "cap_segments": _check_cap_segments}
    bad = set()
    for name in CHECKED_KERNELS:
        try:
            ok = checks[name](lib)
        except Exception:
            ok = False
        if not ok:
            bad.add(name)
    return frozenset(bad)


def _load() -> ctypes.CDLL | None:
    global _lib, _tried, _disabled
    if _tried:
        return _lib
    with _lock:
        if _tried:
            return _lib
        if os.environ.get("REPRO_NATIVE", "1").lower() in ("0", "false", "off"):
            _lib = None
        else:
            try:
                _lib = _build_and_load()
                _disabled = _self_check(_lib)
            except Exception:
                _lib = None
        _tried = True
    return _lib


def available(kernel: str | None = None) -> bool:
    """True when the compiled kernels are usable on this host.

    With ``kernel`` (one of :data:`CHECKED_KERNELS`), whether that kernel
    also passed its load-time check against numpy.
    """
    lib = _load()
    if lib is None:
        return False
    return kernel is None or kernel not in _disabled


def walk_segments(
    p: np.ndarray,
    offsets: np.ndarray,
    draws: np.ndarray,
    draw_start: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    out: np.ndarray,
    ids_scratch: np.ndarray,
    vals_scratch: np.ndarray,
    tol: float,
) -> bool:
    """Run every segment's DepRound walk in one native call.

    Parameters mirror the fused scorer's pooled layout: ``p`` (E,) float64
    probabilities, ``offsets`` (M+1,) int64 segment bounds, ``draws`` the
    pooled uniforms with segment s's DepRound draws at
    ``draws[draw_start[s]:]``, ``lo``/``hi`` (M,) per-segment extrema
    (unread for empty segments), ``out`` (E,) uint8 zeroed by the caller
    (selections are written as 1), and two scratch arrays of length >= the
    longest segment for the general path's strip.  All arrays must be
    C-contiguous with the stated dtypes; any of them may instead be given
    as the int address of such a buffer.

    Returns False (doing nothing) when the kernel is unavailable, so the
    caller can fall back to the Python walk.
    """
    lib = _load()
    if lib is None:
        return False
    lib.walk_segments(
        _ptr(p), _ptr(offsets), offsets.shape[0] - 1, _ptr(draws),
        _ptr(draw_start), _ptr(lo), _ptr(hi), _ptr(out), tol,
        _ptr(ids_scratch), _ptr(vals_scratch),
    )
    return True


def greedy_pass(
    edge_scn: np.ndarray,
    edge_task: np.ndarray,
    order: np.ndarray,
    taken: np.ndarray,
    rem: np.ndarray,
    bound: int,
    sel_scn: np.ndarray,
    sel_task: np.ndarray,
) -> int:
    """Alg. 4's accept/reject pass over edges in ``order``.

    ``taken`` is (num_tasks,) uint8 zeroed, ``rem`` (num_scns,) int64 filled
    with the capacity, ``sel_scn``/``sel_task`` int64 output buffers of
    length >= ``bound``.  Returns the number of accepted edges, or -1 when
    the kernel is unavailable (caller falls back to the Python pass).  All
    arrays must be C-contiguous int64/uint8 as stated.
    """
    lib = _load()
    if lib is None:
        return -1
    return lib.greedy_pass(
        _ptr(edge_scn), _ptr(edge_task), _ptr(order), edge_scn.shape[0],
        _ptr(taken), _ptr(rem), bound, _ptr(sel_scn), _ptr(sel_task),
    )


def scatter_update(
    flat: np.ndarray,
    weights: np.ndarray,
    sums: np.ndarray,
    counts: np.ndarray,
) -> bool:
    """Alg. 3's statistics scatter: ``sums[flat[e]] += weights[e]`` per edge.

    ``flat`` (E,) int64 flat cell indices, ``weights`` (E,) float64 (or the
    int address of such a buffer), and two accumulators the caller
    allocated: ``sums`` float64 and ``counts`` int64, both zero-filled with
    one entry per flat cell.  Additions happen in edge order — the
    element-order accumulation ``np.bincount`` performs — so the result is
    bit-identical to the bincount formulation.  All arrays must be
    C-contiguous with the stated dtypes.

    Returns False (doing nothing) when the kernel is unavailable, so the
    caller can fall back to the bincount path.
    """
    lib = _load()
    if lib is None:
        return False
    lib.scatter_update(
        _ptr(flat), flat.shape[0], _ptr(weights), _ptr(sums), _ptr(counts)
    )
    return True


def _draw_slot(
    lib: ctypes.CDLL, rng: np.random.Generator, n: int, sizes: np.ndarray
) -> list[np.ndarray] | None:
    b = [0, *itertools.accumulate(sizes.tolist())]
    flat = np.empty(b[-1], dtype=np.int64)
    bitgen = rng.bit_generator
    with bitgen.lock:
        rc = lib.cover_draw(
            bitgen.ctypes.bit_generator, n, sizes.ctypes.data, sizes.shape[0],
            flat.ctypes.data,
        )
    if rc != 0:
        return None
    return [flat[b[i] : b[i + 1]] for i in range(sizes.shape[0])]


def cover_draw(
    rng: np.random.Generator, n: int, sizes: np.ndarray
) -> list[np.ndarray] | None:
    """``[np.sort(rng.choice(n, size=k, replace=False)) for k in sizes]``.

    Bit-identical output, and ``rng`` is left at exactly the stream
    position the comprehension leaves it at: the kernel drives the
    Generator's own bit generator (holding its lock) through numpy's
    Floyd branch of ``choice``, including the discarded draws of its
    final shuffle.  The sets are views into one flat int64 buffer.

    ``sizes`` is an int64 array of set sizes in ``[1, n]``.  Returns None
    without consuming ``rng`` when the kernel is unavailable or numpy would
    take its tail-shuffle branch for some size, so the caller runs the
    comprehension instead.
    """
    lib = _load()
    if lib is None or "cover_draw" in _disabled:
        return None
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    if n >= 0xFFFFFFFF or (
        n > _FLOYD_POOL and int(sizes.max()) > n // _FLOYD_CUTOFF
    ):
        return None
    return _draw_slot(lib, rng, n, sizes)


def cap_segments(
    w: np.ndarray,
    offsets: np.ndarray,
    segs: np.ndarray | None,
    ratios: np.ndarray,
    wtilde: np.ndarray,
    capped: np.ndarray,
    thresholds: np.ndarray,
    denom: np.ndarray,
) -> bool:
    """Alg. 2's per-segment cap solve (:func:`repro.core.probability._solve_caps`).

    For segment ``m = segs[j]`` (``j`` itself when ``segs`` is None), at
    ``w[offsets[m]:offsets[m+1]]`` (length >= 2) with cap ratio
    ``ratios[j]``: writes the normalizing sum to ``denom[j]`` and, when the
    segment needs capping, the threshold to ``thresholds[m]``, the
    threshold over its capped entries of ``wtilde`` (which must hold a copy
    of ``w``) and 1 over those of ``capped`` (bool, zeroed).  float64 /
    int64 / bool arrays, C-contiguous, ``offsets`` non-decreasing from 0
    to ``len(w)``; a dtype, layout or length mismatch raises ValueError.

    Returns False (doing nothing) when the kernel is unavailable or a
    solved segment is shorter than 2, so the caller can run the Python
    loop.
    """
    lib = _load()
    if lib is None or "cap_segments" in _disabled:
        return False
    E = w.shape[0]
    if not (
        _is_c(w, np.float64, E) and _is_c(wtilde, np.float64, E)
        and _is_c(capped, np.bool_, E) and _is_c(offsets, np.int64, None)
        and int(offsets[-1]) == E
        and _is_c(ratios, np.float64, None) and _is_c(denom, np.float64, ratios.shape[0])
        and _is_c(thresholds, np.float64, offsets.shape[0] - 1)
        and (segs is None or _is_c(segs, np.int64, ratios.shape[0]))
    ):
        raise ValueError("cap_segments: arrays must be C-contiguous with matching dtypes and lengths")
    rc = lib.cap_segments(
        _ptr(w), _ptr(offsets), None if segs is None else _ptr(segs),
        ratios.shape[0], _ptr(ratios), _ptr(wtilde), _ptr(capped),
        _ptr(thresholds), _ptr(denom),
    )
    return rc == 0
