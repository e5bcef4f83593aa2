"""Alg. 2 — capped exponential-weights selection probabilities.

Given the weights of the hypercubes containing SCN m's covered tasks, Alg. 2
produces a selection probability per task, mixing exploitation (proportional
to weight) with exploration (uniform γ/K term), exactly as in the Exp3.M
construction for bandits with multiple plays the paper builds on:

    p_i = c · [ (1−γ) · w̃_i / Σ_j w̃_j  +  γ / K ]            (Alg. 2 line 16)

where K = |D_{m,t}| and c is the per-SCN communication capacity.  Because a
probability cannot exceed 1, overly heavy tasks are *capped*: when
max_i w_i ≥ r · Σ_j w_j with r = (1/c − γ/K)/(1−γ), Alg. 2 computes the
threshold ê solving

    ê / ( ê·|{i : w_i ≥ ê}| + Σ_{w_i < ê} w_i ) = r            (Alg. 2 line 8)

and temporarily replaces every weight ≥ ê by ê, which makes p_i = 1 exactly
for the capped set S'.  Capped hypercubes are excluded from the weight update
(Alg. 3 line 12) — their probability was deterministic, so the importance-
weighted estimate carries no information.

The probabilities sum to c (or to K when K ≤ c, in which case every task is
selected with certainty and no randomization is needed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import native as _native
from repro.utils.validation import check_positive, require

__all__ = [
    "CappedProbabilities",
    "capped_probabilities",
    "capped_probabilities_batch",
    "capped_probabilities_batch_into",
    "cap_threshold",
]

_EPS = 1e-15


@dataclass(frozen=True)
class CappedProbabilities:
    """Result of Alg. 2 for one SCN and one slot.

    Attributes
    ----------
    p:
        ``(K,)`` selection probability per covered task, each in (0, 1].
    capped:
        ``(K,)`` boolean mask — tasks whose weight hit the cap (p == 1);
        the paper's S' expressed per task.
    threshold:
        The cap value ê, or ``nan`` when no capping was necessary.
    """

    p: np.ndarray
    capped: np.ndarray
    threshold: float

    @property
    def expected_selected(self) -> float:
        """Σ_i p_i — equals min(c, K) by construction."""
        return float(self.p.sum())


def _cap_set(w: np.ndarray, ratio: float) -> tuple[float, np.ndarray]:
    """Solve the Exp3.M cap: the threshold ê and the exact capped index set.

    Walks k = 1, 2, ... over the weights in decreasing order; for top-k
    capped, ê_k = ratio·S_k/(1 − ratio·k) with S_k the suffix sum below the
    top k.  ê_k decreases in k; the walk stops at the first k whose next
    weight ws[k] no longer exceeds ê_k.  Membership is returned *by sorted
    position* (exactly k items), never by re-comparing against ê — with
    extreme weight spreads a float comparison can disagree with the k used
    in the equation, which would break Σp = c.

    Precondition: ``max(w) ≥ ratio·Σw`` (capping is needed).
    """
    order = np.argsort(-w, kind="stable")
    ws = w[order]
    K = len(ws)
    # suffix[k] = Σ_{j>=k} ws_j via reverse cumsum — never by subtraction
    # from the total, which cancels catastrophically when the tail weights
    # are many orders of magnitude below the head.
    suffix = np.concatenate([np.cumsum(ws[::-1])[::-1], [0.0]])
    k = 1
    e_hat = ratio * suffix[1] / (1.0 - ratio)
    while k < K and ratio * (k + 1) < 1.0 - _EPS and ws[k] > e_hat:
        k += 1
        e_hat = ratio * suffix[k] / (1.0 - ratio * k)
    capped = np.zeros(K, dtype=bool)
    capped[order[:k]] = True
    return float(e_hat), capped


def _cap_set_sorted(ws: np.ndarray, ratio: float) -> tuple[float, int]:
    """Cap solve on descending-sorted weights: (ê, |capped|).

    The same walk as :func:`_cap_set` (identical suffix sums and scalar
    formula per k, hence bit-identical thresholds), operating on plain
    Python floats: the walk usually stops after a handful of steps, so at
    the K ≲ 100 segment sizes the batched engine sees, scalar iteration
    beats materializing every candidate ê_k as vectors.

    Precondition: ``ws`` sorted descending, ``len(ws) >= 2``, capping needed.
    """
    K = len(ws)
    # suffix[k] = Σ_{j>=k} ws_j via reverse cumsum — never by subtraction
    # from the total, which cancels catastrophically when the tail weights
    # are many orders of magnitude below the head.
    suffix = np.cumsum(ws[::-1])[::-1].tolist()
    wl = ws.tolist()
    k = 1
    e_hat = ratio * suffix[1] / (1.0 - ratio)
    while k < K and ratio * (k + 1) < 1.0 - _EPS and wl[k] > e_hat:
        k += 1
        e_hat = ratio * (suffix[k] if k < K else 0.0) / (1.0 - ratio * k)
    return float(e_hat), k


def cap_threshold(weights: np.ndarray, ratio: float) -> float:
    """The Exp3.M cap value ê with ê/(ê·|capped| + Σ_{uncapped} w) = ratio.

    See :func:`_cap_set`; this public wrapper returns just the threshold.
    """
    e_hat, _ = _cap_set(np.asarray(weights, dtype=float), ratio)
    return e_hat


def capped_probabilities(
    weights: np.ndarray, capacity: int, gamma: float
) -> CappedProbabilities:
    """Compute Alg. 2's selection probabilities for one SCN.

    Parameters
    ----------
    weights:
        ``(K,)`` positive per-task weights — each task carries the weight of
        the hypercube its context falls into (shared cubes repeat).
    capacity:
        The communication capacity c (expected number of selections).
    gamma:
        Exploration rate γ ∈ (0, 1].

    Returns
    -------
    CappedProbabilities
        with ``p.sum() == min(c, K)`` up to floating-point error.
    """
    w = np.asarray(weights, dtype=float)
    require(w.ndim == 1, f"weights must be 1-D, got shape {w.shape}")
    check_positive("capacity", capacity)
    require(0.0 < gamma <= 1.0, f"gamma must be in (0, 1], got {gamma}")
    K = w.shape[0]
    if K == 0:
        empty = np.empty(0)
        return CappedProbabilities(p=empty, capped=np.empty(0, dtype=bool), threshold=np.nan)
    require(np.all(w > 0.0), "weights must be strictly positive")

    if K <= capacity:
        # Fewer candidates than capacity: select everything deterministically.
        return CappedProbabilities(
            p=np.ones(K), capped=np.ones(K, dtype=bool), threshold=np.nan
        )

    if gamma >= 1.0:
        # Pure exploration: uniform probabilities, no exploitation term.
        p = np.full(K, capacity / K)
        return CappedProbabilities(p=p, capped=np.zeros(K, dtype=bool), threshold=np.nan)

    ratio = (1.0 / capacity - gamma / K) / (1.0 - gamma)
    total = w.sum()
    if w.max() >= ratio * total:
        e_hat, capped = _cap_set(w, ratio)
        w_tilde = np.where(capped, e_hat, w)
        threshold = e_hat
    else:
        capped = np.zeros(K, dtype=bool)
        w_tilde = w
        threshold = np.nan

    p = capacity * ((1.0 - gamma) * w_tilde / w_tilde.sum() + gamma / K)
    # Guard round-off: probabilities live in (0, 1].
    p = np.clip(p, _EPS, 1.0)
    return CappedProbabilities(p=p, capped=capped, threshold=threshold)


@dataclass(frozen=True)
class CappedProbabilitiesBatch:
    """Alg. 2's output for every SCN of a slot, in flat edge-list layout.

    Edges of SCN m occupy positions ``offsets[m]:offsets[m+1]`` of ``p`` and
    ``capped``; :meth:`segment` recovers the per-SCN
    :class:`CappedProbabilities` view (zero-copy).
    """

    p: np.ndarray
    capped: np.ndarray
    thresholds: np.ndarray
    offsets: np.ndarray

    @property
    def num_segments(self) -> int:
        return int(self.offsets.shape[0]) - 1

    def segment(self, m: int) -> CappedProbabilities:
        """SCN ``m``'s probabilities as a view into the flat arrays."""
        s, e = int(self.offsets[m]), int(self.offsets[m + 1])
        return CappedProbabilities(
            p=self.p[s:e], capped=self.capped[s:e], threshold=float(self.thresholds[m])
        )


def _solve_caps(
    w: np.ndarray,
    offsets: np.ndarray,
    segs: np.ndarray | None,
    ratios: np.ndarray,
    w_tilde: np.ndarray,
    capped: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """Alg. 2's per-segment cap solve; returns each segment's normalizing sum.

    Segment ``m = segs[j]`` (``j`` when ``segs`` is None; every segment
    longer than the capacity, hence at least 2 long) uses cap ratio
    ``ratios[j]``.  When it needs capping, its capped entries of ``w_tilde``
    (a copy of ``w`` on entry) become the threshold ê, those of ``capped``
    (zeroed on entry) become True and ``thresholds[m] = ê``; the returned
    ``denom[j]`` is ``np.sum`` of its w̃ — np.sum's pairwise summation
    matches the per-SCN path bit for bit, which segment tricks like
    reduceat would not.

    The native kernel (:func:`repro.core.native.cap_segments`) performs
    exactly these steps; this loop is its fallback.
    """
    denom = np.empty(ratios.shape[0])
    if _native.cap_segments(
        w, offsets, segs, ratios, w_tilde, capped, thresholds, denom
    ):
        return denom
    bounds = offsets.tolist()
    # Segment maxima are order-independent reductions, so one reduceat over
    # the full edge list is exact; empty segments produce garbage lanes that
    # no solved segment reads.
    seg_max = np.maximum.reduceat(w, np.minimum(offsets[:-1], w.shape[0] - 1)).tolist()
    ratio_l = ratios.tolist()
    seg_l = range(len(ratio_l)) if segs is None else segs.tolist()
    for j, m in enumerate(seg_l):
        s, e = bounds[m], bounds[m + 1]
        seg = w[s:e]
        total = seg.sum()
        ratio = ratio_l[j]
        if seg_max[m] >= ratio * total:
            order = np.argsort(-seg, kind="stable")
            e_hat, k = _cap_set_sorted(seg[order], ratio)
            cap_mask = np.zeros(e - s, dtype=bool)
            cap_mask[order[:k]] = True
            capped[s:e] = cap_mask
            w_tilde[s:e] = np.where(cap_mask, e_hat, seg)
            denom[j] = w_tilde[s:e].sum()
            thresholds[m] = e_hat
        else:
            denom[j] = total
    return denom


def capped_probabilities_batch(
    weights: np.ndarray, offsets: np.ndarray, capacity: int, gamma: float
) -> CappedProbabilitiesBatch:
    """Alg. 2 for all M SCNs of a slot in one shot.

    Bit-for-bit equivalent to calling :func:`capped_probabilities` per SCN on
    ``weights[offsets[m]:offsets[m+1]]``: the per-edge arithmetic is batched
    over the whole edge list, while each segment's normalizing sum is taken
    with the same ``np.sum`` (pairwise summation) the per-SCN path uses, so
    the probabilities agree to the last ulp — the equivalence LFSC's
    per-SCN-oracle tests rely on.

    Parameters
    ----------
    weights:
        ``(E,)`` concatenation of every SCN's per-task weights.
    offsets:
        ``(M+1,)`` segment boundaries: SCN m's weights live at
        ``weights[offsets[m]:offsets[m+1]]``.  Empty segments are allowed.
    capacity, gamma:
        As in :func:`capped_probabilities`.
    """
    w = np.ascontiguousarray(weights, dtype=float)
    require(w.ndim == 1, f"weights must be 1-D, got shape {w.shape}")
    off = np.ascontiguousarray(offsets, dtype=np.int64)
    require(off.ndim == 1 and off.shape[0] >= 1, "offsets must be 1-D and non-empty")
    require(
        off[0] == 0 and off[-1] == w.shape[0] and np.all(np.diff(off) >= 0),
        "offsets must start at 0, end at len(weights), and be non-decreasing",
    )
    check_positive("capacity", capacity)
    require(0.0 < gamma <= 1.0, f"gamma must be in (0, 1], got {gamma}")
    E = w.shape[0]
    M = off.shape[0] - 1
    if E:
        require(np.all(w > 0.0), "weights must be strictly positive")

    lengths = np.diff(off)
    thresholds = np.full(M, np.nan)
    rand = lengths > capacity
    all_rand = bool(rand.all()) and E > 0

    p = np.empty(E)
    capped = np.zeros(E, dtype=bool)
    if not all_rand:
        # Fewer candidates than capacity: select everything deterministically.
        # (At the paper's operating point every SCN covers more tasks than
        # its capacity, so the common case skips these edge-list scatters.)
        det = (lengths > 0) & (lengths <= capacity)
        det_edges = np.repeat(det, lengths)
        p[det_edges] = 1.0
        capped[det_edges] = True
        if not np.any(rand):
            return CappedProbabilitiesBatch(
                p=p, capped=capped, thresholds=thresholds, offsets=off
            )

    rand_edges = slice(None) if all_rand else np.repeat(rand, lengths)
    if all_rand:
        K_edge = np.repeat(lengths, lengths).astype(float)
    else:
        K_edge = np.repeat(lengths, lengths)[rand_edges].astype(float)

    if gamma >= 1.0:
        # Pure exploration: uniform probabilities, no exploitation term.
        p[rand_edges] = capacity / K_edge
        return CappedProbabilitiesBatch(p=p, capped=capped, thresholds=thresholds, offsets=off)

    rand_idx = np.flatnonzero(rand)
    K_seg = lengths[rand_idx].astype(float)
    ratio_seg = (1.0 / capacity - gamma / K_seg) / (1.0 - gamma)
    w_tilde = w.copy()
    denom = _solve_caps(w, off, rand_idx, ratio_seg, w_tilde, capped, thresholds)

    denom_edge = np.repeat(denom, lengths[rand_idx])
    if all_rand:
        p = capacity * ((1.0 - gamma) * w_tilde / denom_edge + gamma / K_edge)
    else:
        p[rand_edges] = capacity * (
            (1.0 - gamma) * w_tilde[rand_edges] / denom_edge + gamma / K_edge
        )
    # Guard round-off: probabilities live in (0, 1].
    np.clip(p, _EPS, 1.0, out=p)
    return CappedProbabilitiesBatch(p=p, capped=capped, thresholds=thresholds, offsets=off)


def capped_probabilities_batch_into(
    weights: np.ndarray,
    offsets: np.ndarray,
    capacity: int,
    gamma: float,
    *,
    lengths: np.ndarray,
    lengths_f: np.ndarray,
    edge_scn: np.ndarray,
    seg_len_edge: np.ndarray,
    out_p: np.ndarray,
    out_capped: np.ndarray,
    out_wtilde: np.ndarray,
    scratch: np.ndarray,
) -> CappedProbabilitiesBatch:
    """Alg. 2 batch kernel writing into preallocated edge-list arenas.

    Bit-for-bit equivalent to :func:`capped_probabilities_batch` (every
    elementwise stage below performs the identical IEEE operation on the
    identical operands; gathers via ``np.take`` replace the equivalent
    ``np.repeat`` broadcasts), but with the per-slot edge-list topology
    (``lengths``/``lengths_f``/``edge_scn``/``seg_len_edge``, see
    :class:`repro.env.window.SlotEdges`) precomputed by the windowed
    pipeline, and the three output arrays plus one scratch buffer supplied
    by the caller's arena (all C-contiguous, one entry per edge).

    The fast path covers the batched engine's operating regime — every
    segment longer than the capacity (all segments randomize) and
    ``gamma < 1``.  Anything else delegates to the generic kernel, which
    returns freshly allocated arrays (identical values; callers must not
    assume the result aliases the arena).

    The returned views into ``out_*`` are valid until the arena's next use
    (the policy's next ``select``).
    """
    w = weights
    E = w.shape[0]
    M = lengths.shape[0]
    if gamma >= 1.0 or E == 0 or bool((lengths <= capacity).any()):
        return capped_probabilities_batch(w, offsets, capacity, gamma)

    thresholds = np.full(M, np.nan)
    ratio_seg = (1.0 / capacity - gamma / lengths_f) / (1.0 - gamma)
    np.copyto(out_wtilde, w)
    out_capped[:] = False
    denom = _solve_caps(w, offsets, None, ratio_seg, out_wtilde, out_capped, thresholds)

    # p = c · ((1−γ)·w̃/denom + γ/K), staged through the arena: each stage
    # is the same scalar-array ufunc the one-shot expression evaluates.
    p = out_p
    np.multiply(out_wtilde, 1.0 - gamma, out=p)
    np.take(denom, edge_scn, out=scratch)
    np.divide(p, scratch, out=p)
    np.divide(gamma, seg_len_edge, out=scratch)
    np.add(p, scratch, out=p)
    np.multiply(p, capacity, out=p)
    np.clip(p, _EPS, 1.0, out=p)
    return CappedProbabilitiesBatch(
        p=p, capped=out_capped, thresholds=thresholds, offsets=offsets
    )
