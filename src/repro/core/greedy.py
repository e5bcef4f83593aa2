"""Alg. 4 — the greedy collaborative assignment across SCNs.

Input is the weighted bipartite graph G = (M, D_t, E): an edge (m, i) exists
when task i is inside SCN m's coverage, weighted by SCN m's selection
probability for i (Alg. 2's output, or a baseline's index).  The greedy rule
repeatedly takes the heaviest remaining edge; the pair is accepted when SCN m
still has spare communication capacity and task i is unassigned (constraint
1b), otherwise the edge is discarded.

The paper proves (Appendix A.2, charging argument) this is a
(c+1)-approximation of the maximum-weight b-matching, and observes it is much
closer to optimal in practice — our benchmarks confirm both.

The hot path is a single argsort over all edges (≈ M·K ≤ 3,000 at paper
scale) followed by a linear pass; per the HPC guides the pass itself stays in
plain Python because each iteration is a couple of scalar reads — NumPy calls
inside the loop would be slower than scalar indexing at this size.  The
bookkeeping uses a ``bytearray``/list (not ndarrays) for the same reason, the
output arrays are preallocated at the matching-size bound min(n, M·c), and
the pass exits early once that bound is reached.

Two entry points share the kernel: :func:`greedy_select_edges` takes the
flat edge list every policy already holds (the slot's
:func:`~repro.env.window.slot_layout`), and :func:`greedy_select` takes
per-SCN coverage/weight lists and concatenates them first.
"""

from __future__ import annotations

import numpy as np

from repro.core import native as _native
from repro.env.simulator import Assignment
from repro.utils.validation import check_positive

__all__ = ["greedy_select", "greedy_select_edges", "edges_from_coverage"]


def _descending_stable_order(w: np.ndarray) -> np.ndarray:
    """Stable descending argsort of float64 weights.

    For strictly positive finite float64, the IEEE-754 bit pattern viewed as
    uint64 is monotone in the float value, so a stable ascending sort of the
    complemented bits equals ``np.argsort(-w, kind="stable")`` exactly —
    including tie order — while sorting integers (~20% faster at the edge
    counts the slot engine sees).  Anything else (zeros, negatives, NaN)
    falls back to the float sort.
    """
    if w.dtype == np.float64 and w.size and w.min() > 0.0:
        return np.argsort(~w.view(np.uint64), kind="stable")
    return np.argsort(-w, kind="stable")


def edges_from_coverage(
    coverage: list[np.ndarray], weights_per_scn: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten per-SCN coverage lists into parallel edge arrays.

    Parameters
    ----------
    coverage:
        ``coverage[m]`` — task indices covered by SCN m (the paper's D_{m,t}).
    weights_per_scn:
        ``weights_per_scn[m]`` — edge weight for each covered task, aligned
        with ``coverage[m]``.

    Returns
    -------
    (edge_scn, edge_task, edge_weight):
        Parallel 1-D arrays over all edges of the bipartite graph.
    """
    if len(coverage) != len(weights_per_scn):
        raise ValueError(
            f"coverage lists {len(coverage)} SCNs, weights list {len(weights_per_scn)}"
        )
    scn_parts, task_parts, weight_parts = [], [], []
    for m, (tasks, w) in enumerate(zip(coverage, weights_per_scn)):
        tasks = np.asarray(tasks, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        if tasks.shape != w.shape:
            raise ValueError(
                f"SCN {m}: coverage has {tasks.shape[0]} tasks but {w.shape[0]} weights"
            )
        scn_parts.append(np.full(tasks.shape[0], m, dtype=np.int64))
        task_parts.append(tasks)
        weight_parts.append(w)
    if not scn_parts:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    return (
        np.concatenate(scn_parts),
        np.concatenate(task_parts),
        np.concatenate(weight_parts),
    )


def greedy_select_edges(
    edge_scn: np.ndarray,
    edge_task: np.ndarray,
    edge_weight: np.ndarray,
    num_scns: int,
    capacity: int,
    num_tasks: int,
) -> Assignment:
    """Alg. 4 on a flat edge list (the batched slot engine's native layout).

    Parameters
    ----------
    edge_scn, edge_task, edge_weight:
        Parallel 1-D arrays over the bipartite graph's edges (any order).
    num_scns:
        Number of SCNs M (sizes the per-SCN load bookkeeping).
    capacity:
        Communication capacity c — max tasks per SCN (constraint 1a).
    num_tasks:
        Total number of distinct tasks n_t this slot.

    Notes
    -----
    Ties in edge weight are broken by edge order (stable sort), which is
    deterministic given the inputs; callers wanting randomized tie-breaking
    should jitter the weights.
    """
    check_positive("capacity", capacity)
    if edge_scn.size == 0:
        return Assignment.empty()

    order = _descending_stable_order(edge_weight)

    # No assignment can exceed the b-matching size bound min(n, M·c).
    E = edge_scn.shape[0]
    bound = min(num_tasks, num_scns * capacity, E)
    if bound == 0:
        return Assignment.empty()

    if (
        edge_scn.dtype == np.int64
        and edge_task.dtype == np.int64
        and edge_scn.flags.c_contiguous
        and edge_task.flags.c_contiguous
        and order.dtype == np.int64
        and order.flags.c_contiguous
    ):
        # Native pass (repro.core.native): the same accept/reject scan in
        # C, walking `order` directly so the sorted gathers are skipped.
        taken_u8 = np.zeros(num_tasks, dtype=np.uint8)
        rem_i64 = np.full(num_scns, capacity, dtype=np.int64)
        sel_scn_buf = np.empty(bound, dtype=np.int64)
        sel_task_buf = np.empty(bound, dtype=np.int64)
        n_sel = _native.greedy_pass(
            edge_scn, edge_task, order, taken_u8, rem_i64, bound,
            sel_scn_buf, sel_task_buf,
        )
        if n_sel >= 0:
            return Assignment(
                scn=sel_scn_buf[:n_sel].copy(), task=sel_task_buf[:n_sel].copy()
            )

    scn_sorted = edge_scn[order]
    task_sorted = edge_task[order]
    sel_scn: list[int] = []
    sel_task: list[int] = []
    push_scn = sel_scn.append
    push_task = sel_task.append
    taken = bytearray(num_tasks)  # constraint (1b)
    count = 0
    if capacity < 256:
        # Remaining capacity per SCN (Alg. 4's c − C(m)).  Rejection is
        # monotone — a taken task or a full SCN never becomes valid again —
        # so each chunk of the sorted edge stream can be pre-filtered
        # against the current state in one vectorized shot (through
        # zero-copy views onto the bookkeeping buffers) before the scalar
        # pass re-checks the few survivors; this skips the long rejected
        # tail that dominates once the top edges have filled most slots.
        rem = bytearray([capacity] * num_scns)
        taken_np = np.frombuffer(taken, dtype=np.uint8)
        rem_np = np.frombuffer(rem, dtype=np.uint8)
        chunk = max(bound, 256)
        pos = 0
        while pos < E:
            end = min(pos + chunk, E)
            t_chunk = task_sorted[pos:end]
            s_chunk = scn_sorted[pos:end]
            live = np.flatnonzero((taken_np[t_chunk] == 0) & (rem_np[s_chunk] != 0))
            # Linear pass over the surviving edges in decreasing weight
            # (Alg. 4 lines 2-8); earlier accepts within the chunk can
            # invalidate later survivors, hence the scalar re-check.
            for m, i in zip(s_chunk[live].tolist(), t_chunk[live].tolist()):
                if taken[i] or not rem[m]:
                    continue
                taken[i] = 1
                rem[m] -= 1
                push_scn(m)
                push_task(i)
                count += 1
                if count == bound:
                    break
            if count == bound:
                break
            pos = end
    else:
        # Huge-capacity fallback (exceeds a bytearray cell): plain pass.
        load = [0] * num_scns
        for m, i in zip(scn_sorted.tolist(), task_sorted.tolist()):
            if taken[i] or load[m] >= capacity:
                continue
            taken[i] = 1
            load[m] += 1
            push_scn(m)
            push_task(i)
            count += 1
            if count == bound:
                break
    return Assignment(
        scn=np.asarray(sel_scn, dtype=np.int64), task=np.asarray(sel_task, dtype=np.int64)
    )


def greedy_select(
    coverage: list[np.ndarray],
    weights_per_scn: list[np.ndarray],
    capacity: int,
    num_tasks: int,
) -> Assignment:
    """Run Alg. 4 and return the collaborative assignment Ω.

    Parameters
    ----------
    coverage, weights_per_scn:
        The bipartite graph, per-SCN (see :func:`edges_from_coverage`).
    capacity:
        Communication capacity c — max tasks per SCN (constraint 1a).
    num_tasks:
        Total number of distinct tasks n_t this slot (sizes the
        "already assigned" bookkeeping).
    """
    edge_scn, edge_task, edge_w = edges_from_coverage(coverage, weights_per_scn)
    return greedy_select_edges(
        edge_scn, edge_task, edge_w, len(coverage), capacity, num_tasks
    )
