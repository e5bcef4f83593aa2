"""Direct HiGHS solves for the soft-QoS slot LP — bit-identical, lower overhead.

:func:`repro.solvers.lp.solve_lp_relaxation` goes through
``scipy.optimize.linprog``, which re-validates the inputs, rebuilds the
sparse matrix, and re-allocates an options object on every call — several
milliseconds of pure wrapper overhead per slot at paper scale, paid twice
(pre-pass + main LP).  This module drives the same vendored HiGHS build
(``scipy.optimize._highspy``) directly with an exactly mirrored model and
option set, so the solver sees byte-identical inputs and returns the same
optimal vertex bit for bit (gated by ``tests/solvers/test_highs_direct.py``).

Two structural savings on top of the wrapper bypass:

- one shared four-block CSC assembly per slot (capacity / uniqueness /
  resource / QoS rows): the pre-pass solves it with the QoS rows freed
  (upper bound +inf), which HiGHS's presolve removes deterministically —
  the resulting vertex is bit-identical to the cold three-block pre-pass;
- the per-SCN achievable-completion vector can be injected from a cache
  (it is independent of α), skipping the pre-pass LP entirely.

Each solve uses a **fresh** ``Highs`` instance: reusing one instance across
the pre-pass and the main LP (or warm-starting from a previous basis) makes
HiGHS start from a different simplex basis and land on a *different optimal
vertex* of degenerate LPs, which breaks the bit-identity contract the Oracle
cache is built on.  Basis warm-starts are therefore exposed only as the
explicit opt-out documented in DESIGN.md, never used by default.

When the private ``_highspy`` module is unavailable (foreign scipy build),
``HAVE_DIRECT_HIGHS`` is False and callers fall back to
:func:`~repro.solvers.lp.solve_lp_relaxation` — same results, cold speed.
The module (and with it ``scipy.optimize``) is imported on the first solve
or the first read of ``HAVE_DIRECT_HIGHS``, not with the package.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.solvers.lp import LPSolution, SlotProblem, max_achievable_qos


@functools.cache
def _highs_core():
    """The vendored ``_highspy`` core module, or None when unavailable."""
    try:  # pragma: no cover - exercised implicitly by every fast solve
        from scipy.optimize._highspy import _core
    except Exception:  # pragma: no cover - foreign scipy builds
        return None
    return _core


def __getattr__(name: str):
    if name == "HAVE_DIRECT_HIGHS":
        return _highs_core() is not None
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "HAVE_DIRECT_HIGHS",
    "SoftQosModel",
    "assemble_soft_qos_model",
    "solve_soft_qos",
]


class SoftQosModel:
    """One slot's four constraint blocks as a single CSC matrix.

    Rows are ordered [capacity (M) | uniqueness (n) | resource (M) |
    −QoS (M)]; every edge column holds exactly four entries, already sorted
    by row, so the CSC arrays are written directly without a sort or
    duplicate pass.  The layout is byte-identical to
    ``csc(vstack([A_cap, A_uni, A_res, -A_qos]))`` over the matrices of
    :meth:`~repro.solvers.lp.SlotProblem.constraint_matrices` (test-gated).
    """

    __slots__ = (
        "num_rows",
        "num_cols",
        "indptr",
        "indices",
        "data",
        "qos_row0",
        "col_lower",
        "col_upper",
        "row_lower",
        "row_upper",
    )

    def __init__(self, problem: SlotProblem) -> None:
        E = problem.num_edges
        M = problem.num_scns
        n = problem.num_tasks
        scn = problem.edge_scn
        indices = np.empty(4 * E, dtype=np.int32)
        indices[0::4] = scn
        indices[1::4] = M + problem.edge_task
        indices[2::4] = M + n + scn
        indices[3::4] = 2 * M + n + scn
        data = np.empty(4 * E)
        data[0::4] = 1.0
        data[1::4] = 1.0
        data[2::4] = problem.q
        data[3::4] = -problem.v
        self.num_rows = 2 * M + n + M
        self.num_cols = E
        self.indptr = np.arange(0, 4 * E + 1, 4, dtype=np.int32)
        self.indices = indices
        self.data = data
        self.qos_row0 = 2 * M + n
        # Bound vectors are hoisted here so the two solves of a slot (and the
        # HiGHS binding, which copies on assignment) reuse one allocation.
        # The QoS block of ``row_upper`` is rewritten per solve (+inf for the
        # pre-pass, -qos_levels for main); everything else is constant.
        self.col_lower = np.zeros(E)
        self.col_upper = np.ones(E)
        self.row_lower = np.full(self.num_rows, -np.inf)
        upper = np.empty(self.num_rows)
        upper[:M] = float(problem.capacity)
        upper[M : M + n] = 1.0
        upper[M + n : self.qos_row0] = problem.beta
        self.row_upper = upper


def assemble_soft_qos_model(problem: SlotProblem) -> SoftQosModel:
    """Build the shared CSC model for one slot (both LPs solve it)."""
    return SoftQosModel(problem)


def _solve(model: SoftQosModel, cost: np.ndarray, qos_upper: np.ndarray | None):
    """One fresh-instance HiGHS solve mirroring ``linprog(method="highs")``.

    ``qos_upper``: upper bounds for the QoS block rows, or ``None`` to free
    them (the pre-pass).  Returns ``(optimal, x, objective)`` with ``x``
    taken raw from the solver exactly as scipy does.
    """
    _h = _highs_core()
    lp = _h.HighsLp()
    lp.num_col_ = model.num_cols
    lp.num_row_ = model.num_rows
    lp.a_matrix_.num_col_ = model.num_cols
    lp.a_matrix_.num_row_ = model.num_rows
    lp.a_matrix_.format_ = _h.MatrixFormat.kColwise
    lp.a_matrix_.start_ = model.indptr
    lp.a_matrix_.index_ = model.indices
    lp.a_matrix_.value_ = model.data
    lp.col_cost_ = cost
    lp.col_lower_ = model.col_lower
    lp.col_upper_ = model.col_upper
    lp.row_lower_ = model.row_lower
    upper = model.row_upper
    upper[model.qos_row0 :] = _h.kHighsInf if qos_upper is None else qos_upper
    lp.row_upper_ = upper

    # The exact option set scipy's linprog(method="highs") passes through
    # (None-valued options are skipped by its wrapper); any difference here
    # can move HiGHS to another optimal vertex and break bit-identity.
    opts = _h.HighsOptions()
    opts.presolve = "on"
    opts.highs_debug_level = 0
    opts.log_to_console = False
    opts.output_flag = False
    opts.simplex_strategy = 1  # dual simplex, scipy's method="highs" choice
    highs = _h._Highs()
    highs.passOptions(opts)
    highs.passModel(lp)
    highs.run()
    optimal = highs.getModelStatus() == _h.HighsModelStatus.kOptimal
    x = np.array(highs.getSolution().col_value)
    return optimal, x, float(highs.getInfo().objective_function_value)


def solve_soft_qos(
    problem: SlotProblem, *, achievable: np.ndarray | None = None
) -> tuple[LPSolution, np.ndarray]:
    """Soft-QoS LP solve, bit-identical to ``solve_lp_relaxation(qos_mode="soft")``.

    Parameters
    ----------
    achievable:
        Pre-computed per-SCN achievable completion vector (the pre-pass LP's
        output).  It depends only on the problem content, never on α, so a
        signature cache can supply it and skip the pre-pass solve.

    Returns
    -------
    ``(solution, achievable)`` — the solution plus the achievable vector
    actually used (for the caller to memoize).
    """
    E = problem.num_edges
    if E == 0:
        empty = LPSolution(
            x=np.empty(0),
            objective=0.0,
            status="empty",
            qos_levels=np.zeros(problem.num_scns),
            feasible=True,
        )
        return empty, np.zeros(problem.num_scns)

    if _highs_core() is None:
        if achievable is None:
            achievable = max_achievable_qos(problem)
        from repro.solvers.lp import solve_lp_relaxation

        return solve_lp_relaxation(problem, achievable=achievable), achievable

    model = assemble_soft_qos_model(problem)
    if achievable is None:
        pre_ok, pre_x, _ = _solve(model, -problem.v, None)
        if pre_ok:
            achievable = np.bincount(
                problem.edge_scn, weights=problem.v * pre_x, minlength=problem.num_scns
            )
        else:
            achievable = np.zeros(problem.num_scns)
    # Same tiny slack as the cold path: don't require the unique v-optimum.
    qos_levels = np.minimum(problem.alpha, achievable * (1.0 - 1e-9))
    ok, x, obj = _solve(model, -problem.g, -qos_levels)
    if not ok:
        sol = LPSolution(
            x=np.zeros(E),
            objective=0.0,
            status="infeasible",
            qos_levels=qos_levels,
            feasible=False,
        )
        return sol, achievable
    sol = LPSolution(
        x=np.clip(x, 0.0, 1.0),
        objective=-obj,
        status="optimal",
        qos_levels=qos_levels,
        feasible=True,
    )
    return sol, achievable
