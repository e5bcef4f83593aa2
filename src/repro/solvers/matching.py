"""Maximum-weight b-matching references (validation of Alg. 4).

The greedy assignment of Alg. 4 solves a maximum-weight bipartite b-matching
(SCNs have degree bound c, tasks degree bound 1) approximately.  For tests
and the approximation-factor benchmark we compute the exact optimum by
reducing to a standard assignment problem: replicate each SCN node c times
and run ``scipy.optimize.linear_sum_assignment`` on the (padded) rectangular
weight matrix.  Suitable for small instances (the reduction is O((Mc)·n)).
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["max_weight_b_matching", "total_weight"]


def max_weight_b_matching(
    coverage: list[np.ndarray],
    weights_per_scn: list[np.ndarray],
    capacity: int,
    num_tasks: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact maximum-weight assignment under (1a)/(1b).

    Same inputs as :func:`repro.core.greedy.greedy_select`.

    Returns
    -------
    (scn, task):
        Parallel int arrays of the optimal pairs (only pairs with strictly
        positive weight are kept — adding a zero-weight edge never helps).
    """
    from scipy.optimize import linear_sum_assignment

    check_positive("capacity", capacity)
    M = len(coverage)
    # Dense (M·c, n) weight matrix of replicated SCN slots; -inf means no edge.
    big = np.full((M * capacity, num_tasks), -np.inf)
    for m, (tasks, w) in enumerate(zip(coverage, weights_per_scn)):
        tasks = np.asarray(tasks, dtype=np.int64)
        w = np.asarray(w, dtype=float)
        big[m * capacity : (m + 1) * capacity, tasks] = w
    # linear_sum_assignment needs finite entries; shift -inf to a large
    # negative so those pairs are never chosen over real edges, and allow
    # leaving slots unmatched by padding virtual zero-weight tasks.
    n_rows = big.shape[0]
    pad = np.zeros((n_rows, n_rows))  # one virtual "idle" task per slot
    full = np.concatenate([np.where(np.isfinite(big), big, -1e18), pad], axis=1)
    rows, cols = linear_sum_assignment(full, maximize=True)
    sel_scn, sel_task = [], []
    for r, c in zip(rows, cols):
        if c < num_tasks and np.isfinite(big[r, c]) and big[r, c] > 0.0:
            sel_scn.append(r // capacity)
            sel_task.append(int(c))
    return np.asarray(sel_scn, dtype=np.int64), np.asarray(sel_task, dtype=np.int64)


def total_weight(
    scn: np.ndarray,
    task: np.ndarray,
    coverage: list[np.ndarray],
    weights_per_scn: list[np.ndarray],
) -> float:
    """Sum of edge weights of an assignment, looked up from the graph."""
    total = 0.0
    for m, i in zip(np.asarray(scn), np.asarray(task)):
        tasks = np.asarray(coverage[m])
        w = np.asarray(weights_per_scn[m])
        pos = np.flatnonzero(tasks == i)
        if pos.size == 0:
            raise ValueError(f"assignment pair ({m}, {i}) is not a coverage edge")
        total += float(w[pos[0]])
    return total
