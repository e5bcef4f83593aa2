"""The LP relaxation of the per-slot offloading ILP (paper §3.2, problem (1)).

Decision variables are the edges (m, i) of the coverage bipartite graph;
x_{m,i} ∈ [0, 1] is the (relaxed) probability that SCN m executes task i:

    maximize    Σ_{(m,i)} ḡ_{m,i} · x_{m,i}
    subject to  Σ_{i ∈ D_m} x_{m,i} ≤ c                 ∀m   (1a) capacity
                Σ_{m: i ∈ D_m} x_{m,i} ≤ 1              ∀i   (1b) uniqueness
                Σ_{i ∈ D_m} v̄_{m,i} · x_{m,i} ≥ α       ∀m   (1c) QoS
                Σ_{i ∈ D_m} q̄_{m,i} · x_{m,i} ≤ β       ∀m   (1d) resources
                0 ≤ x ≤ 1                                    (1e)

The QoS constraint may be infeasible for some slots (not enough reliable
tasks in coverage); ``qos_mode`` controls the handling:

- ``"soft"`` (default): replace α by the per-SCN best achievable expected
  completion level (found by a pre-pass maximizing Σ v̄ x), matching an
  oracle that violates (1c) as little as possible and maximizes reward among
  minimum-violation policies;
- ``"hard"``: keep α and report infeasibility to the caller;
- ``"ignore"``: drop (1c) (used by the unconstrained reference).

Constraint matrices are assembled sparsely (CSR); at paper scale each slot
has ≈2,000 edges and ≈1,100 rows, which HiGHS solves in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.validation import check_positive, require

if TYPE_CHECKING:
    from scipy import sparse

__all__ = ["SlotProblem", "LPSolution", "max_achievable_qos", "solve_lp_relaxation"]


@dataclass(frozen=True)
class SlotProblem:
    """One slot's offloading problem in edge form.

    Attributes
    ----------
    edge_scn, edge_task:
        ``(E,)`` int arrays — the coverage edges (m, i).
    g, v, q:
        ``(E,)`` float arrays — expected compound reward ḡ, expected
        completion likelihood v̄, expected consumption q̄ per edge.
    num_scns, num_tasks:
        Graph dimensions M and n_t.
    capacity, alpha, beta:
        The constraint levels c, α, β.
    """

    edge_scn: np.ndarray
    edge_task: np.ndarray
    g: np.ndarray
    v: np.ndarray
    q: np.ndarray
    num_scns: int
    num_tasks: int
    capacity: int
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("edge_scn", "edge_task"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("g", "v", "q"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        E = self.edge_scn.shape[0]
        for name in ("edge_task", "g", "v", "q"):
            if getattr(self, name).shape != (E,):
                raise ValueError(f"{name} must have shape ({E},)")
        check_positive("num_scns", self.num_scns)
        require(self.num_tasks >= 0, "num_tasks must be >= 0")
        check_positive("capacity", self.capacity)
        if E:
            require(self.edge_scn.min() >= 0 and self.edge_scn.max() < self.num_scns, "edge_scn out of range")
            require(self.edge_task.min() >= 0 and self.edge_task.max() < self.num_tasks, "edge_task out of range")

    @property
    def num_edges(self) -> int:
        return int(self.edge_scn.shape[0])

    def constraint_matrices(self) -> tuple[sparse.csr_matrix, sparse.csr_matrix, sparse.csr_matrix, sparse.csr_matrix]:
        """Sparse rows for (1a), (1b), (1c as Σ v̄x), (1d) over edge variables."""
        from scipy import sparse

        E = self.num_edges
        ones = np.ones(E)
        arange = np.arange(E)
        A_cap = sparse.csr_matrix((ones, (self.edge_scn, arange)), shape=(self.num_scns, E))
        A_uni = sparse.csr_matrix((ones, (self.edge_task, arange)), shape=(self.num_tasks, E))
        A_qos = sparse.csr_matrix((self.v, (self.edge_scn, arange)), shape=(self.num_scns, E))
        A_res = sparse.csr_matrix((self.q, (self.edge_scn, arange)), shape=(self.num_scns, E))
        return A_cap, A_uni, A_qos, A_res


@dataclass(frozen=True)
class LPSolution:
    """Result of the per-slot LP relaxation."""

    x: np.ndarray
    objective: float
    status: str
    qos_levels: np.ndarray
    feasible: bool


def max_achievable_qos(problem: SlotProblem) -> np.ndarray:
    """Per-SCN best achievable expected completion under (1a), (1b), (1d).

    Solves max Σ v̄ x over the same polytope without (1c); the per-SCN
    completion totals of the optimum are the levels an oracle could commit
    to.  A single LP gives a *joint* achievable vector (maximizing the sum),
    which is the natural minimum-total-violation reference.

    The vector is a pure function of the problem *content* and independent
    of α — which is what makes it cacheable across an α sweep (see
    :mod:`repro.solvers.cache`); :func:`solve_lp_relaxation` accepts it back
    through ``achievable=`` to skip this pre-pass.
    """
    # scipy loads on the first solve, not with the package.
    from scipy import sparse
    from scipy.optimize import linprog

    A_cap, A_uni, _, A_res = problem.constraint_matrices()
    A_ub = sparse.vstack([A_cap, A_uni, A_res], format="csr")
    b_ub = np.concatenate(
        [
            np.full(problem.num_scns, float(problem.capacity)),
            np.ones(problem.num_tasks),
            np.full(problem.num_scns, problem.beta),
        ]
    )
    res = linprog(
        c=-problem.v,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        return np.zeros(problem.num_scns)
    completed = np.bincount(
        problem.edge_scn, weights=problem.v * res.x, minlength=problem.num_scns
    )
    return completed


#: Backwards-compatible alias (pre-cache name).
_max_achievable_qos = max_achievable_qos


def solve_lp_relaxation(
    problem: SlotProblem,
    *,
    qos_mode: str = "soft",
    achievable: np.ndarray | None = None,
) -> LPSolution:
    """Solve the relaxed problem (1); see module docstring for ``qos_mode``.

    ``achievable`` (soft mode only) injects a pre-computed
    :func:`max_achievable_qos` vector, skipping the pre-pass LP — the
    solution is bit-identical since the pre-pass is deterministic.
    """
    require(qos_mode in ("soft", "hard", "ignore"), f"unknown qos_mode {qos_mode!r}")
    E = problem.num_edges
    if E == 0:
        return LPSolution(
            x=np.empty(0),
            objective=0.0,
            status="empty",
            qos_levels=np.zeros(problem.num_scns),
            feasible=True,
        )
    from scipy import sparse
    from scipy.optimize import linprog

    A_cap, A_uni, A_qos, A_res = problem.constraint_matrices()

    if qos_mode == "ignore":
        qos_levels = np.zeros(problem.num_scns)
    elif qos_mode == "hard":
        qos_levels = np.full(problem.num_scns, problem.alpha)
    else:  # soft
        if achievable is None:
            achievable = max_achievable_qos(problem)
        # Tiny slack guards against requiring the unique v-optimal vertex.
        qos_levels = np.minimum(problem.alpha, achievable * (1.0 - 1e-9))

    blocks = [A_cap, A_uni, A_res, -A_qos]
    b_ub = np.concatenate(
        [
            np.full(problem.num_scns, float(problem.capacity)),
            np.ones(problem.num_tasks),
            np.full(problem.num_scns, problem.beta),
            -qos_levels,
        ]
    )
    A_ub = sparse.vstack(blocks, format="csr")
    res = linprog(
        c=-problem.g,
        A_ub=A_ub,
        b_ub=b_ub,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        return LPSolution(
            x=np.zeros(E),
            objective=0.0,
            status=res.message,
            qos_levels=qos_levels,
            feasible=False,
        )
    return LPSolution(
        x=np.clip(res.x, 0.0, 1.0),
        objective=float(-res.fun),
        status="optimal",
        qos_levels=qos_levels,
        feasible=True,
    )
