"""Reference single-agent Exp3.M (multiple-play adversarial bandit).

A test helper: no ``repro`` module, example or benchmark uses it.

The textbook algorithm LFSC's per-SCN machinery is built from, in its pure
form: K fixed arms, choose exactly k per round via DepRound on the capped
exponential-weights probabilities, observe the chosen arms' rewards, update
with importance weighting.  It shares :func:`capped_probabilities` and
:func:`depround` with LFSC, so its textbook regret behaviour doubles as an
integration test of those kernels (``tests/core/test_exp3m.py`` checks that
it concentrates on the best k arms of a stochastic instance and beats the
uniform player).

This module is also the natural starting point for readers: LFSC = Exp3.M
per SCN + context hypercubes as arms + Lagrangian utility + cross-SCN greedy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.depround import depround
from repro.core.probability import capped_probabilities
from repro.utils.validation import check_positive, require

__all__ = ["Exp3M"]


@dataclass
class Exp3M:
    """Exp3.M over ``num_arms`` arms with ``plays`` selections per round.

    Parameters
    ----------
    num_arms:
        K — the number of arms.
    plays:
        k — how many arms are pulled each round (k < K).
    gamma:
        Exploration rate; ``None`` uses the horizon-optimal
        min(1, sqrt(K ln(K/k) / ((e−1) k T))) given ``horizon``.
    eta:
        Learning rate; ``None`` uses γ/K.
    horizon:
        Used only to derive γ when it is not given.
    """

    num_arms: int
    plays: int
    gamma: float | None = None
    eta: float | None = None
    horizon: int = 10_000
    log_w: np.ndarray = field(init=False)
    t: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        check_positive("num_arms", self.num_arms)
        check_positive("plays", self.plays)
        require(self.plays < self.num_arms, "need plays < num_arms")
        check_positive("horizon", self.horizon)
        if self.gamma is None:
            K, k, T = self.num_arms, self.plays, self.horizon
            ratio = max(K / k, np.e)
            self.gamma = float(
                min(1.0, np.sqrt(K * np.log(ratio) / ((np.e - 1.0) * k * T)))
            )
        require(0.0 < self.gamma <= 1.0, f"gamma in (0,1], got {self.gamma}")
        if self.eta is None:
            self.eta = self.gamma / self.num_arms
        check_positive("eta", self.eta)
        self.log_w = np.zeros(self.num_arms)
        self._last_p: np.ndarray | None = None

    def probabilities(self) -> np.ndarray:
        """Current per-arm selection probabilities (Σ = plays)."""
        w = np.exp(self.log_w - self.log_w.max())
        return capped_probabilities(np.maximum(w, 1e-300), self.plays, self.gamma).p

    def select(self, rng: np.random.Generator) -> np.ndarray:
        """Sample the round's arm set (indices, size == plays)."""
        p = self.probabilities()
        self._last_p = p
        mask = depround(p, rng)
        return np.flatnonzero(mask)

    def update(self, chosen: np.ndarray, rewards: np.ndarray) -> None:
        """Importance-weighted exponential update for the chosen arms.

        Parameters
        ----------
        chosen:
            The arm indices returned by :meth:`select`.
        rewards:
            Observed rewards in [0, 1], aligned with ``chosen``.
        """
        require(self._last_p is not None, "update() must follow select()")
        chosen = np.asarray(chosen, dtype=np.int64)
        rewards = np.asarray(rewards, dtype=float)
        require(chosen.shape == rewards.shape, "chosen and rewards must align")
        p = self._last_p
        # Capped arms (p == 1) were chosen deterministically: skip, as in
        # Alg. 3 line 12 / the original Exp3.M.
        uncapped = p[chosen] < 1.0 - 1e-12
        idx = chosen[uncapped]
        self.log_w[idx] += self.eta * rewards[uncapped] / p[idx]
        if np.abs(self.log_w.max()) > 50.0:
            self.log_w -= self.log_w.max()
        self._last_p = None
        self.t += 1

    def weight_shares(self) -> np.ndarray:
        """Normalized weights (diagnostic)."""
        w = np.exp(self.log_w - self.log_w.max())
        return w / w.sum()
