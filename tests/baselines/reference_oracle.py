"""The cold, uncached Oracle slot: the test oracle for the memoized Oracle.

:class:`repro.baselines.oracle.OraclePolicy` solves every slot through the
content-addressed :class:`~repro.solvers.cache.SlotProblemCache`: it builds
the problem from the coverage edges only, solves the soft-QoS LP through the
direct HiGHS path (reusing memoized pre-pass vectors) and rounds with the
vectorized greedy.  This module keeps the plain form of the same slot — the
dense ``(M, n)`` truth-table build, :func:`solve_lp_relaxation` through
``linprog`` and the dict-based greedy round — as the specification the
production path is compared against.  The two agree bit for bit.

:class:`ReferenceOraclePolicy` overrides exactly ``select``; it never reads
or writes a solver cache.  It is not a registered policy and no driver can
be configured to use it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.oracle import OraclePolicy, _edges_to_assignment, build_slot_problem
from repro.core.greedy import greedy_select
from repro.env.simulator import Assignment, SlotObservation
from repro.obs import runtime as obs_runtime
from repro.solvers.ilp import solve_two_stage_ilp
from repro.solvers.lagrangian import solve_dual_decomposition
from repro.solvers.lp import SlotProblem, solve_lp_relaxation

__all__ = ["ReferenceOraclePolicy", "reference_greedy_round"]


def reference_greedy_round(problem: SlotProblem, x: np.ndarray) -> Assignment:
    """Round a fractional LP solution by greedy on x, then prune for β.

    Greedy on the fractional values respects (1a)/(1b) exactly; the pruning
    pass drops the lowest reward-per-consumption tasks of any SCN whose
    expected consumption still exceeds β (the LP satisfied β fractionally,
    rounding can overshoot by at most one task's worth).
    """
    support = x > 1e-6
    coverage: list[np.ndarray] = []
    weights: list[np.ndarray] = []
    edge_pos: list[np.ndarray] = []
    for m in range(problem.num_scns):
        rows = np.flatnonzero((problem.edge_scn == m) & support)
        coverage.append(problem.edge_task[rows])
        weights.append(x[rows])
        edge_pos.append(rows)
    assignment = greedy_select(coverage, weights, problem.capacity, problem.num_tasks)
    if len(assignment) == 0:
        return assignment

    # β-pruning per SCN on expected consumption.
    edge_lookup: dict[tuple[int, int], int] = {}
    for rows in edge_pos:
        for r in rows:
            edge_lookup[(int(problem.edge_scn[r]), int(problem.edge_task[r]))] = int(r)
    keep_scn: list[int] = []
    keep_task: list[int] = []
    for m in range(problem.num_scns):
        tasks = assignment.task[assignment.scn == m]
        if tasks.size == 0:
            continue
        rows = np.asarray([edge_lookup[(m, int(i))] for i in tasks])
        q = problem.q[rows]
        g = problem.g[rows]
        order = np.argsort(g / np.maximum(q, 1e-12))  # drop worst value-density first
        total_q = q.sum()
        drop = set()
        for j in order:
            if total_q <= problem.beta:
                break
            drop.add(int(j))
            total_q -= q[j]
        for j, task in enumerate(tasks):
            if j not in drop:
                keep_scn.append(m)
                keep_task.append(int(task))
    return Assignment(
        scn=np.asarray(keep_scn, dtype=np.int64), task=np.asarray(keep_task, dtype=np.int64)
    )


class ReferenceOraclePolicy(OraclePolicy):
    """:class:`OraclePolicy` with the cold, uncached per-slot solve."""

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        with obs_runtime.span("oracle.problem"):
            problem = build_slot_problem(
                slot, self.truth, network.capacity, network.alpha, network.beta
            )
        if self.mode == "ilp":
            with obs_runtime.span("oracle.solve"):
                sol = solve_two_stage_ilp(problem)
            return _edges_to_assignment(problem, sol.selected_edges())
        if self.mode == "dual":
            with obs_runtime.span("oracle.solve"):
                dual = solve_dual_decomposition(problem)
            return _edges_to_assignment(problem, dual.selected_edges())
        if self.mode == "lp":
            with obs_runtime.span("oracle.solve"):
                sol = solve_lp_relaxation(problem, qos_mode="soft")
            if sol.feasible:
                with obs_runtime.span("oracle.round"):
                    return reference_greedy_round(problem, sol.x)
            # Extremely rare fall-back: behave like the heuristic.
        with obs_runtime.span("oracle.solve"):
            return self._two_pass_greedy(problem)
