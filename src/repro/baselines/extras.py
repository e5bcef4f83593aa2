"""Additional learning baselines (ours, for ablations beyond the paper).

- :class:`EpsilonGreedyPolicy` — decaying-ε exploration over hypercube
  sample means; the simplest constraint-blind learner, anchoring how much of
  vUCB/FML's performance comes from their smarter exploration.
- :class:`ThompsonSamplingPolicy` — Gaussian Thompson sampling on the
  hypercube means (posterior ~ N(mean, scale²/(N+1))), a randomized
  exploration alternative.

Both share vUCB/FML's body (:class:`~repro.baselines.cube_mean.CubeMeanPolicy`:
hypercube statistics, slot layout, greedy coordination), so the comparison
isolates the exploration strategy.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cube_mean import CubeMeanPolicy
from repro.core.hypercube import ContextPartition
from repro.env.window import SlotEdges
from repro.utils.validation import check_positive, require


__all__ = ["EpsilonGreedyPolicy", "ThompsonSamplingPolicy"]


class EpsilonGreedyPolicy(CubeMeanPolicy):
    """Decaying-ε greedy over hypercube sample means.

    With probability ε_t = min(1, epsilon0·F/max(t,1)) a SCN's edge weights
    are uniform random (exploration slot); otherwise they are the sample
    means (exploitation).  The decay gives the usual logarithmic exploration
    budget for stationary means.
    """

    name = "eps-greedy"
    spans = ("eps_greedy.score", "eps_greedy.greedy")

    def __init__(
        self,
        partition: ContextPartition | None = None,
        *,
        epsilon0: float = 5.0,
    ) -> None:
        super().__init__(partition)
        check_positive("epsilon0", epsilon0)
        self.epsilon0 = float(epsilon0)

    def epsilon(self) -> float:
        """Current exploration probability."""
        return min(1.0, self.epsilon0 * self.partition.num_cubes / max(self.t, 1))

    def edge_weights(self, pre: SlotEdges) -> np.ndarray:
        assert self.stats is not None
        eps = self.epsilon()
        weights = self.stats.mean_g.reshape(-1)[pre.flat]
        bounds = pre.bounds
        # Per SCN with coverage: the coin, then (on exploration) its draws —
        # the coin decides whether draws follow, so this stays a loop.
        for m in range(pre.num_segments):
            lo, hi = bounds[m], bounds[m + 1]
            if hi > lo and self.rng.random() < eps:
                weights[lo:hi] = self.rng.random(hi - lo)
        return weights


class ThompsonSamplingPolicy(CubeMeanPolicy):
    """Gaussian Thompson sampling on hypercube mean rewards.

    Each slot, every (SCN, cube) pair draws a plausible mean
    ~ N(mean_g, scale²/(N+1)); the draws become the edge weights.  Unvisited
    cubes therefore have the widest posteriors and get explored naturally.
    """

    name = "thompson"
    spans = ("thompson.score", "thompson.greedy")

    def __init__(
        self,
        partition: ContextPartition | None = None,
        *,
        scale: float = 0.5,
    ) -> None:
        super().__init__(partition)
        require(scale > 0, f"scale must be > 0, got {scale}")
        self.scale = float(scale)

    def edge_weights(self, pre: SlotEdges) -> np.ndarray:
        assert self.stats is not None
        std = self.scale / np.sqrt(self.stats.counts + 1.0)
        draws = self.rng.normal(self.stats.mean_g, std)
        return draws.reshape(-1)[pre.flat]
