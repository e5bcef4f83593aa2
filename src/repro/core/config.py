"""LFSC tunables, including the theorem-suggested schedules (paper Thm. 1).

Theorem 1 fixes the exploration rate γ, the learning rate η, and the
multiplier decay δ as functions of the horizon T, the per-SCN coverage bound
K_m, and the capacity c, to obtain the sub-linear regret/violation bounds:

    γ  = min(1, sqrt( K ln(K/c) / ((e−1) c T) ))      (Exp3.M exploration)
    η  = γ / K                                        (weight learning rate)
    δ  = 1 / sqrt(T)                                  (multiplier decay)

:meth:`LFSCConfig.from_theorem` computes these; every field can be
overridden for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.hypercube import ContextPartition
from repro.utils.validation import check_positive, require

__all__ = ["LFSCConfig"]


@dataclass(frozen=True)
class LFSCConfig:
    """All knobs of the LFSC policy.

    Attributes
    ----------
    partition:
        The hypercube partition of the context space (h_T per dimension).
    gamma:
        Exploration rate γ ∈ (0, 1] of Alg. 2.
    eta:
        Learning rate η of the exponential weight update (Alg. 3).
    eta_dual:
        Step size of the Lagrange-multiplier update; defaults to ``eta``
        when None.  The theorem schedule uses 1/sqrt(T) so the duals adapt
        on the constraint timescale rather than the weight timescale.
    delta:
        Multiplier regularization decay δ.
    lambda_max:
        Upper clip for both multipliers (numerical guard; the proof's
        induction bound is 1/(η δ), far above anything reached in practice).
    assignment_mode:
        ``"depround"`` (default) — sample each SCN's candidate set by
        dependent rounding with the Alg. 2 marginals, then run the greedy
        coordination (keeps the Exp3.M exploration guarantees the regret
        proof relies on).  ``"deterministic"`` — the paper-literal variant:
        greedy directly on the probability weights (no sampling).  The two
        are compared in ``benchmarks/bench_ablations.py``.
    tie_jitter:
        Relative uniform jitter applied to greedy edge weights to break
        ties uniformly at random (0 disables; deterministic mode relies on
        it early on, when all weights are equal).
    max_exponent:
        Per-slot clip on the weight-update exponent (numerical guard).
    use_lagrangian:
        Ablation switch: False freezes both multipliers at 0, reducing
        LFSC to pure constrained-blind Exp3.M + greedy.
    """

    partition: ContextPartition = field(default_factory=ContextPartition)
    gamma: float = 0.05
    eta: float = 1e-3
    eta_dual: float | None = None
    delta: float = 0.01
    lambda_max: float = 50.0
    assignment_mode: str = "depround"
    tie_jitter: float = 1e-9
    max_exponent: float = 10.0
    use_lagrangian: bool = True

    def __post_init__(self) -> None:
        require(0.0 < self.gamma <= 1.0, f"gamma must be in (0,1], got {self.gamma}")
        check_positive("eta", self.eta)
        if self.eta_dual is not None:
            check_positive("eta_dual", self.eta_dual)
        check_positive("delta", self.delta)
        check_positive("lambda_max", self.lambda_max)
        check_positive("max_exponent", self.max_exponent)
        require(self.tie_jitter >= 0.0, f"tie_jitter must be >= 0, got {self.tie_jitter}")
        require(
            self.assignment_mode in ("depround", "deterministic"),
            f"assignment_mode must be 'depround' or 'deterministic', got {self.assignment_mode!r}",
        )

    @property
    def dual_step(self) -> float:
        """The multiplier step size actually used."""
        return self.eta if self.eta_dual is None else self.eta_dual

    def with_overrides(self, **changes) -> "LFSCConfig":
        """A copy with the given fields replaced (for sweeps/ablations)."""
        return replace(self, **changes)

    @staticmethod
    def from_theorem(
        max_coverage: int,
        capacity: int,
        horizon: int,
        *,
        dims: int = 3,
        parts: int | None = None,
        **overrides,
    ) -> "LFSCConfig":
        """The Theorem 1 schedule for a given problem size.

        Parameters
        ----------
        max_coverage:
            K — upper bound on |D_{m,t}| (e.g. ``workload.max_coverage_size()``).
        capacity:
            The communication capacity c.
        horizon:
            The run length T.
        dims, parts:
            Context dimensionality and partition granularity; ``parts=None``
            uses the paper's evaluation default h_T = 3.
        overrides:
            Any :class:`LFSCConfig` field to override after the schedule.
        """
        check_positive("max_coverage", max_coverage)
        check_positive("capacity", capacity)
        check_positive("horizon", horizon)
        K = max(max_coverage, capacity + 1)
        ratio = max(K / capacity, np.e)  # keep ln(K/c) >= 1 for tiny problems
        gamma = min(
            1.0, float(np.sqrt(K * np.log(ratio) / ((np.e - 1.0) * capacity * horizon)))
        )
        eta = gamma / K
        delta = 1.0 / np.sqrt(horizon)
        params = dict(
            partition=ContextPartition(dims=dims, parts=parts if parts else 3),
            gamma=gamma,
            eta=eta,
            eta_dual=1.0 / np.sqrt(horizon),
            delta=delta,
            # Keep the duals within an order of magnitude of the reward scale
            # (g <= 1/q_min); far larger caps make the utility constraint-
            # dominated and slow convergence, far smaller ones under-penalize
            # violations.  10 is the calibrated sweet spot (see EXPERIMENTS.md).
            lambda_max=10.0,
        )
        params.update(overrides)
        return LFSCConfig(**params)  # type: ignore[arg-type]
