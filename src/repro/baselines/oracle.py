"""The Oracle baseline — full knowledge of the system (paper §5).

"Oracle has a priori knowledge of the entire system.  In each time slot,
Oracle makes the best task offloading policy under the system constraints,
and it constitutes a performance upper bound to the other algorithms."

The Oracle receives the hidden :class:`~repro.env.processes.GroundTruth` at
construction and solves the per-slot problem (1) on the *expected* parameters
(ḡ, v̄, q̄).  Three solver modes trade exactness for speed:

- ``"lp"`` (default): solve the LP relaxation with soft QoS (minimum
  achievable violation), then round greedily on the fractional optimum and
  prune any SCN whose expected consumption exceeds β.  Milliseconds per slot
  at paper scale.
- ``"ilp"``: the exact two-stage integer program
  (:func:`repro.solvers.ilp.solve_two_stage_ilp`) — use on small instances
  and in tests.
- ``"greedy"``: a two-pass heuristic (reliability pass toward α, then reward
  pass up to capacity, both respecting β) — fastest, no LP solves; within a
  few percent of the LP oracle in our benchmarks.
- ``"dual"``: subgradient dual decomposition
  (:func:`repro.solvers.lagrangian.solve_dual_decomposition`) — the
  "LFSC with known means" reference; its gap to LFSC is pure learning cost.

:class:`UnconstrainedOraclePolicy` maximizes reward while *ignoring* (1c)
and (1d) — the limit vUCB/FML chase, useful as a reference line in Fig. 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import OffloadingPolicy
from repro.core.greedy import greedy_select_edges
from repro.env.network import NetworkConfig
from repro.env.processes import GroundTruth
from repro.obs import runtime as obs_runtime
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.env.window import slot_layout
from repro.solvers import highs
from repro.solvers.cache import SlotProblemCache, shared_cache
from repro.solvers.ilp import solve_two_stage_ilp
from repro.solvers.lagrangian import solve_dual_decomposition
from repro.solvers.lp import SlotProblem
from repro.utils.validation import require

__all__ = [
    "OraclePolicy",
    "UnconstrainedOraclePolicy",
    "build_slot_problem",
    "build_slot_problem_fast",
]


def build_slot_problem(
    slot: SlotObservation, truth: GroundTruth, capacity: int, alpha: float, beta: float
) -> SlotProblem:
    """Assemble the edge-form per-slot problem from the ground-truth means.

    The edges are the slot's :func:`~repro.env.window.slot_layout`: SCN
    segments in order, tasks sorted within each.
    """
    contexts = slot.tasks.contexts
    exp_g = truth.expected_compound(slot.t, contexts)
    mu_u, p_v, mu_q = truth.means(slot.t, contexts)
    edges = slot_layout(slot).edges
    edge_scn, edge_task = edges.scn, edges.task
    return SlotProblem(
        edge_scn=edge_scn,
        edge_task=edge_task,
        g=exp_g[edge_scn, edge_task],
        v=p_v[edge_scn, edge_task],
        q=mu_q[edge_scn, edge_task],
        num_scns=slot.num_scns,
        num_tasks=len(slot.tasks),
        capacity=capacity,
        alpha=alpha,
        beta=beta,
    )


def build_slot_problem_fast(
    slot: SlotObservation, truth: GroundTruth, capacity: int, alpha: float, beta: float
) -> SlotProblem:
    """Assemble the slot problem without dense ``(M, n)`` truth tables.

    Bit-identical to :func:`build_slot_problem` on the slot's
    :func:`~repro.env.window.slot_layout` (the pair-wise truth lookups
    gather the same grid cells with the same arithmetic — test-gated), but
    evaluates only the E coverage edges instead of the full M×n tables, and
    reuses a windowed slot's truth cells when present.  Truths without the
    pair API (``slot_pair_stats``) take the dense build.
    """
    slot = slot_layout(slot)
    stats_fn = getattr(truth, "slot_pair_stats", None)
    if stats_fn is None:
        return build_slot_problem(slot, truth, capacity, alpha, beta)
    n = len(slot.tasks)
    edge_scn, edge_task = slot.edges.scn, slot.edges.task
    truth_cells = getattr(slot, "truth_cells", None)
    cells = truth_cells[edge_task] if truth_cells is not None else None
    exp_g, p_v, mu_q = stats_fn(
        slot.t, slot.tasks.contexts[edge_task], edge_scn, cells=cells
    )
    return SlotProblem(
        edge_scn=edge_scn,
        edge_task=edge_task,
        g=exp_g,
        v=p_v,
        q=mu_q,
        num_scns=slot.num_scns,
        num_tasks=n,
        capacity=capacity,
        alpha=alpha,
        beta=beta,
    )


def _edges_to_assignment(problem: SlotProblem, selected: np.ndarray) -> Assignment:
    return Assignment(scn=problem.edge_scn[selected], task=problem.edge_task[selected])


def _greedy_round(problem: SlotProblem, x: np.ndarray) -> Assignment:
    """Round a fractional LP solution by greedy on x, then prune for β.

    Greedy on the fractional values respects (1a)/(1b) exactly; the pruning
    pass drops the lowest reward-per-consumption tasks of any SCN whose
    expected consumption still exceeds β (the LP satisfied β fractionally,
    rounding can overshoot by at most one task's worth).  Relies on the
    build invariant that ``edge_scn`` is non-decreasing (edges are
    concatenated per SCN): the support rows feed the greedy in per-SCN
    order, and the β-pruning row lookup is a sorted key.
    """
    # The support rows, ascending, are already grouped into per-SCN runs.
    sup_rows = np.flatnonzero(x > 1e-6)
    assignment = greedy_select_edges(
        problem.edge_scn[sup_rows], problem.edge_task[sup_rows], x[sup_rows],
        problem.num_scns, problem.capacity, problem.num_tasks,
    )
    if len(assignment) == 0:
        return assignment

    # β-pruning per SCN on expected consumption.
    key = problem.edge_scn * np.int64(max(problem.num_tasks, 1)) + problem.edge_task
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    keep_scn: list[int] = []
    keep_task: list[int] = []
    for m in range(problem.num_scns):
        tasks = assignment.task[assignment.scn == m]
        if tasks.size == 0:
            continue
        pos = np.searchsorted(sorted_key, m * np.int64(max(problem.num_tasks, 1)) + tasks)
        rows = order[pos]
        q = problem.q[rows]
        g = problem.g[rows]
        prune = np.argsort(g / np.maximum(q, 1e-12))  # drop worst value-density first
        total_q = q.sum()
        drop = set()
        for j in prune:
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


class OraclePolicy(OffloadingPolicy):
    """Per-slot optimal offloading with full knowledge of the ground truth.

    Every slot goes through the solver caching layer (DESIGN.md §8): the
    problem is built from the coverage edges alone, addressed by content
    signature in ``cache`` (default: the process-wide
    :func:`~repro.solvers.cache.shared_cache`), and on a miss solved with
    the direct HiGHS path, reusing any memoized α-independent pieces
    (pre-pass achievable vector, ILP stage-1 total).  A hit replays the
    stored assignment; the cache only skips work that is a pure function of
    the slot problem's content, so outputs never depend on its state.
    """

    def __init__(
        self,
        truth: GroundTruth,
        *,
        mode: str = "lp",
        cache: SlotProblemCache | None = None,
    ) -> None:
        super().__init__()
        require(
            mode in ("lp", "ilp", "greedy", "dual"), f"unknown oracle mode {mode!r}"
        )
        self.truth = truth
        self.mode = mode
        self.name = "Oracle" if mode == "lp" else f"Oracle-{mode}"
        self.cache = shared_cache() if cache is None else cache

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        super().reset(network, horizon, rng)
        # Load the mode's solver backend here, so the first decide does not
        # carry its import: the direct HiGHS core for "lp" (linprog when it
        # is missing), scipy's MILP for "ilp"; "greedy" and "dual" need none.
        if self.mode == "ilp" or (self.mode == "lp" and not highs.HAVE_DIRECT_HIGHS):
            import scipy.optimize  # noqa: F401
            import scipy.sparse  # noqa: F401

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        cache = self.cache
        with obs_runtime.span("oracle.problem"):
            problem = build_slot_problem_fast(
                slot, self.truth, network.capacity, network.alpha, network.beta
            )
            sig = cache.signature(problem)
        stored = cache.assignment(sig, problem.alpha, self.mode)
        if stored is not None:
            with obs_runtime.span("oracle.cache_hit"):
                return stored
        if self.mode == "ilp":
            with obs_runtime.span("oracle.solve"):
                stage1 = cache.stage1_completion(sig)
                sol = solve_two_stage_ilp(problem, stage1_completion=stage1)
                if sol.stage1_completion is not None:
                    cache.store_stage1_completion(sig, sol.stage1_completion)
            assignment = _edges_to_assignment(problem, sol.selected_edges())
        elif self.mode == "dual":
            with obs_runtime.span("oracle.solve"):
                dual = solve_dual_decomposition(problem)
            assignment = _edges_to_assignment(problem, dual.selected_edges())
        elif self.mode == "lp":
            achievable = cache.achievable(sig)
            with obs_runtime.span("oracle.solve"):
                sol, achievable = highs.solve_soft_qos(problem, achievable=achievable)
            cache.store_achievable(sig, achievable)
            if sol.feasible:
                with obs_runtime.span("oracle.round"):
                    assignment = _greedy_round(problem, sol.x)
            else:
                # Extremely rare fall-back: behave like the heuristic.
                with obs_runtime.span("oracle.solve"):
                    assignment = self._two_pass_greedy(problem)
        else:  # greedy
            with obs_runtime.span("oracle.solve"):
                assignment = self._two_pass_greedy(problem)
        cache.store_assignment(sig, problem.alpha, self.mode, assignment)
        return assignment

    @staticmethod
    def _two_pass_greedy(problem: SlotProblem) -> Assignment:
        """Reliability pass toward α, then reward pass, both respecting β."""
        E = problem.num_edges
        if E == 0:
            return Assignment.empty()
        load = np.zeros(problem.num_scns, dtype=np.int64)
        completed = np.zeros(problem.num_scns)
        consumption = np.zeros(problem.num_scns)
        taken = np.zeros(problem.num_tasks, dtype=bool)
        chosen = np.zeros(E, dtype=bool)

        def sweep(order: np.ndarray, until_alpha: bool) -> None:
            for e in order:
                m = problem.edge_scn[e]
                i = problem.edge_task[e]
                if chosen[e] or taken[i] or load[m] >= problem.capacity:
                    continue
                if until_alpha and completed[m] >= problem.alpha:
                    continue
                if consumption[m] + problem.q[e] > problem.beta:
                    continue
                chosen[e] = True
                taken[i] = True
                load[m] += 1
                completed[m] += problem.v[e]
                consumption[m] += problem.q[e]

        sweep(np.argsort(-problem.v, kind="stable"), until_alpha=True)
        sweep(np.argsort(-problem.g, kind="stable"), until_alpha=False)
        return _edges_to_assignment(problem, np.flatnonzero(chosen))

    def _update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        """The Oracle learns nothing — it already knows everything."""


class UnconstrainedOraclePolicy(OffloadingPolicy):
    """Known-mean greedy that ignores (1c)/(1d) — max achievable raw reward."""

    name = "Oracle-unconstrained"

    def __init__(self, truth: GroundTruth) -> None:
        super().__init__()
        self.truth = truth

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        pre = slot_layout(slot).edges
        exp_g = self.truth.expected_compound(slot.t, slot.tasks.contexts)
        return greedy_select_edges(
            pre.scn, pre.task, exp_g[pre.scn, pre.task], network.num_scns,
            network.capacity, pre.num_tasks,
        )
