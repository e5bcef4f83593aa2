"""Linear contextual scorers: LinUCB and linear Thompson sampling.

Each SCN m keeps an independent ridge regression of the compound reward g on
the bias-augmented task context x = [1, φ] ∈ R⁴:

    A_m = λI + Σ x xᵀ,    b_m = Σ g x,    θ_m = A_m⁻¹ b_m

LinUCB scores edge (m, i) by the classic optimistic index

    score = θ_mᵀ x_i + α · sqrt(x_iᵀ A_m⁻¹ x_i)

and linear Thompson replaces the width with a posterior draw
θ̃_m ~ N(θ_m, scale²·A_m⁻¹) per slot.  The scores feed the *existing* Alg. 4
greedy assignment (:func:`repro.core.greedy.greedy_select_edges`) unchanged
— the learner proposes, the solver disposes.

Everything is vectorized over the slot's flat edge list
(:func:`repro.env.window.slot_layout`): one batched (M, 4, 4) inverse, one
einsum for the means, one for the widths.  The per-slot and windowed paths
run the identical arithmetic on identical edge arrays, so trajectories are
bit-identical across window sizes (``tests/learned`` pins this).

Checkpointing: ``A``/``b`` (plus the base slot counter) fully determine the
learner, so :meth:`checkpoint_state`/:meth:`restore_checkpoint_state`
round-trip through the ``repro-checkpoint/v1`` service path bit-identically.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import OffloadingPolicy
from repro.core.greedy import greedy_select_edges
from repro.env.network import NetworkConfig
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.env.window import slot_layout
from repro.learned.features import LINEAR_DIM, linear_features
from repro.obs import runtime as obs_runtime
from repro.utils.validation import check_positive

__all__ = ["LinUCBPolicy", "LinThompsonPolicy"]


class _LinearScorer(OffloadingPolicy):
    """Shared per-SCN ridge-regression plumbing for the linear tier."""

    def __init__(self, *, l2: float = 1.0) -> None:
        super().__init__()
        check_positive("l2", l2)
        self.l2 = float(l2)
        self.A: np.ndarray | None = None  # (M, d, d) Gram matrices
        self.b: np.ndarray | None = None  # (M, d) response vectors
        self._cache: tuple[int, np.ndarray, np.ndarray] | None = None

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        super().reset(network, horizon, rng)
        d = LINEAR_DIM
        self.A = np.tile(self.l2 * np.eye(d), (network.num_scns, 1, 1))
        self.b = np.zeros((network.num_scns, d))
        self._cache = None

    # -- scoring hook --------------------------------------------------------

    def _edge_scores(
        self,
        scn: np.ndarray,
        X: np.ndarray,
        theta: np.ndarray,
        A_inv: np.ndarray,
    ) -> np.ndarray:
        raise NotImplementedError

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        assert self.A is not None and self.b is not None
        with obs_runtime.span("learned.linear.score"):
            pre = slot_layout(slot).edges
            X = linear_features(slot.tasks.contexts, pre.task)
            # Batched tiny solves: one LAPACK call for all M (4, 4) systems.
            A_inv = np.linalg.inv(self.A)
            theta = np.einsum("mij,mj->mi", A_inv, self.b)
            weights = self._edge_scores(pre.scn, X, theta, A_inv)
        self._cache = (slot.t, pre.key, X)
        with obs_runtime.span("learned.linear.greedy"):
            return greedy_select_edges(
                pre.scn, pre.task, weights, network.num_scns, network.capacity,
                pre.num_tasks,
            )

    def _update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        assert self.A is not None and self.b is not None
        cache = self._cache
        if cache is None or cache[0] != slot.t:
            raise RuntimeError("update() must follow the select() of the same slot")
        self._cache = None
        asn = feedback.assignment
        if len(asn) == 0:
            return
        _, key, X = cache
        # The layout's pair key (scn·n + task) is sorted — SCN-major
        # segments, tasks sorted within — so each assigned pair's cached
        # feature row is one searchsorted away.
        rows = np.searchsorted(key, asn.scn * np.int64(len(slot.tasks)) + asn.task)
        Xa = X[rows]
        g = feedback.g
        for m in np.unique(asn.scn):
            mask = asn.scn == m
            xm = Xa[mask]
            self.A[m] += xm.T @ xm
            self.b[m] += g[mask] @ xm

    # -- checkpoint/restore ---------------------------------------------------

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        assert self.A is not None and self.b is not None
        state["A"] = self.A.copy()
        state["b"] = self.b.copy()
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        super().restore_checkpoint_state(state)
        assert self.A is not None and self.b is not None
        A = np.asarray(state["A"], dtype=np.float64)
        b = np.asarray(state["b"], dtype=np.float64)
        if A.shape != self.A.shape or b.shape != self.b.shape:
            raise ValueError(
                f"linear state shape mismatch: snapshot A{A.shape}/b{b.shape}, "
                f"expected A{self.A.shape}/b{self.b.shape}"
            )
        self.A = A.copy()
        self.b = b.copy()


class LinUCBPolicy(_LinearScorer):
    """LinUCB over task contexts, coordinated by the Alg. 4 greedy solver.

    Parameters
    ----------
    alpha:
        Width multiplier of the optimistic index (exploration strength).
    l2:
        Ridge regularizer λ of the per-SCN Gram matrices.
    """

    name = "linucb"

    def __init__(self, *, alpha: float = 1.0, l2: float = 1.0) -> None:
        super().__init__(l2=l2)
        check_positive("alpha", alpha)
        self.alpha = float(alpha)

    def _edge_scores(self, scn, X, theta, A_inv):
        mean = np.einsum("ej,ej->e", X, theta[scn])
        width = np.sqrt(np.einsum("ei,eij,ej->e", X, A_inv[scn], X))
        return mean + self.alpha * width


class LinThompsonPolicy(_LinearScorer):
    """Linear Thompson sampling: one posterior draw θ̃_m per SCN per slot.

    Parameters
    ----------
    scale:
        Posterior scale v: θ̃_m ~ N(θ_m, v²·A_m⁻¹).
    l2:
        Ridge regularizer λ.
    """

    name = "linthompson"

    def __init__(self, *, scale: float = 0.3, l2: float = 1.0) -> None:
        super().__init__(l2=l2)
        check_positive("scale", scale)
        self.scale = float(scale)

    def _edge_scores(self, scn, X, theta, A_inv):
        # One standard-normal block per slot regardless of the edge count, so
        # the stream position is a pure function of the slot index.
        z = self.rng.standard_normal(theta.shape)
        L = np.linalg.cholesky(A_inv)
        theta_tilde = theta + self.scale * np.einsum("mij,mj->mi", L, z)
        return np.einsum("ej,ej->e", X, theta_tilde[scn])
