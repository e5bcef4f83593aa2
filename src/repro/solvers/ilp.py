"""Exact integer solutions of the per-slot offloading ILP (paper §3.2).

Used by the exact Oracle mode on small instances and by the test suite to
validate both the LP relaxation (upper bound) and the greedy assignment's
(c+1)-approximation (lower bound).  Built on ``scipy.optimize.milp`` (HiGHS
branch-and-bound).

Two entry points:

- :func:`solve_ilp` — the ILP with a fixed QoS right-hand side (possibly
  infeasible; reports status);
- :func:`solve_two_stage_ilp` — first maximizes total expected completion to
  find the minimum achievable QoS violation, then maximizes reward subject
  to staying at that violation level (the behaviour attributed to the
  paper's Oracle, which "makes the best task offloading policy under the
  system constraints" even when a slot cannot meet α exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.solvers.lp import SlotProblem
from repro.utils.validation import require

__all__ = ["ILPSolution", "solve_ilp", "solve_two_stage_ilp"]


@dataclass(frozen=True)
class ILPSolution:
    """An integral solution over the edge variables."""

    x: np.ndarray
    objective: float
    status: str
    feasible: bool
    #: Stage-1 best completion total (two-stage solves only) — α-independent,
    #: so callers may memoize it and pass it back via ``stage1_completion=``.
    stage1_completion: float | None = None

    def selected_edges(self) -> np.ndarray:
        """Indices of edges with x = 1."""
        return np.flatnonzero(self.x > 0.5)


def _milp(
    problem: SlotProblem,
    objective: np.ndarray,
    qos_levels: np.ndarray | None,
    extra_completion_floor: float | None = None,
) -> ILPSolution:
    E = problem.num_edges
    if E == 0:
        return ILPSolution(x=np.empty(0), objective=0.0, status="empty", feasible=True)
    # scipy loads on the first solve, not with the package.
    from scipy import optimize, sparse

    A_cap, A_uni, A_qos, A_res = problem.constraint_matrices()

    rows = [A_cap, A_uni, A_res]
    uppers = [
        np.full(problem.num_scns, float(problem.capacity)),
        np.ones(problem.num_tasks),
        np.full(problem.num_scns, problem.beta),
    ]
    lowers = [np.full(r.shape[0], -np.inf) for r in rows]

    if qos_levels is not None:
        rows.append(A_qos)
        uppers.append(np.full(problem.num_scns, np.inf))
        lowers.append(np.asarray(qos_levels, dtype=float))
    if extra_completion_floor is not None:
        total_v = sparse.csr_matrix(problem.v[None, :])
        rows.append(total_v)
        uppers.append(np.array([np.inf]))
        lowers.append(np.array([extra_completion_floor]))

    A = sparse.vstack(rows, format="csr")
    constraints = optimize.LinearConstraint(
        A, np.concatenate(lowers), np.concatenate(uppers)
    )
    res = optimize.milp(
        c=-np.asarray(objective, dtype=float),
        constraints=constraints,
        integrality=np.ones(E),
        bounds=optimize.Bounds(0.0, 1.0),
    )
    if res.status != 0 or res.x is None:
        return ILPSolution(
            x=np.zeros(E), objective=0.0, status=res.message, feasible=False
        )
    x = np.rint(res.x)
    return ILPSolution(
        x=x, objective=float(objective @ x), status="optimal", feasible=True
    )


def solve_ilp(problem: SlotProblem, *, enforce_qos: bool = True) -> ILPSolution:
    """Solve ILP (1) exactly with the given α as a hard constraint.

    Returns an infeasible-status solution when no assignment meets α at
    every SCN (common when coverage is sparse or links unreliable).
    """
    qos = np.full(problem.num_scns, problem.alpha) if enforce_qos else None
    return _milp(problem, problem.g, qos)


def solve_two_stage_ilp(
    problem: SlotProblem, *, stage1_completion: float | None = None
) -> ILPSolution:
    """Reward-optimal among minimum-QoS-violation integral assignments.

    Stage 1 maximizes total expected completion Σ v̄ x under (1a)/(1b)/(1d),
    establishing the best achievable completion total V*.  Stage 2 maximizes
    Σ ḡ x with the additional floor Σ v̄ x ≥ min(M·α, V*) − ε.  When α is
    achievable the result coincides with :func:`solve_ilp`.

    ``stage1_completion`` injects a previously computed V* — it depends only
    on the problem content, not on α, so the Oracle cache can warm-start a
    repeat solve past the stage-1 MILP (the result is identical because
    stage 2 only sees V* through the completion floor).
    """
    if problem.num_edges == 0:
        return ILPSolution(x=np.empty(0), objective=0.0, status="empty", feasible=True)
    if stage1_completion is None:
        stage1 = _milp(problem, problem.v, qos_levels=None)
        require(stage1.feasible, f"stage-1 ILP unexpectedly infeasible: {stage1.status}")
        best_completion = float(problem.v @ stage1.x)
    else:
        best_completion = float(stage1_completion)
    target = min(problem.num_scns * problem.alpha, best_completion)
    stage2 = _milp(
        problem,
        problem.g,
        qos_levels=None,
        extra_completion_floor=target - 1e-6,
    )
    return ILPSolution(
        x=stage2.x,
        objective=stage2.objective,
        status=stage2.status,
        feasible=stage2.feasible,
        stage1_completion=best_completion,
    )
