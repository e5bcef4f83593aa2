"""FML — Fast Machine Learning baseline (paper §5, ref [4]).

A context-aware online learning algorithm with a *deterministic exploration
control function*: hypercube f counts as under-explored at time t when

    N_f(t)  <=  t^z · ln t,          z = 2 / (3 + D)

(the adaptive-contexts rate of the fast contextual learning literature the
paper cites).  In the exploration phase a SCN prioritizes tasks whose cubes
are under-explored; otherwise it exploits the sample-mean compound reward.
As in the paper, the single-agent method is extended to multiple SCNs by
feeding its per-task scores to the greedy assignment (Alg. 4).

Like vUCB, FML is constraint-blind: it never looks at α or β.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cube_mean import CubeMeanPolicy
from repro.core.hypercube import ContextPartition
from repro.env.window import SlotEdges

__all__ = ["FMLPolicy"]


class FMLPolicy(CubeMeanPolicy):
    """Context-aware explore/exploit with a control function + greedy.

    Parameters
    ----------
    partition:
        The context partition (shared with LFSC in the evaluation).
    z:
        Control-function exponent; ``None`` derives 2/(3+D) from the
        partition's dimensionality.
    """

    name = "FML"
    spans = ("fml.score", "fml.greedy")

    def __init__(
        self, partition: ContextPartition | None = None, *, z: float | None = None
    ) -> None:
        super().__init__(partition)
        self.z = 2.0 / (3.0 + self.partition.dims) if z is None else float(z)
        if not 0.0 < self.z < 1.0:
            raise ValueError(f"z must be in (0, 1), got {self.z}")

    def control_level(self) -> float:
        """The exploration threshold t^z · ln t at the current slot."""
        t = max(self.t, 2)
        return float(t**self.z * np.log(t))

    def edge_weights(self, pre: SlotEdges) -> np.ndarray:
        assert self.stats is not None
        mean_g = self.stats.mean_g
        # Exploit scores live in [0, g_max]; under-explored cubes are lifted
        # above them by a constant offset plus a random perturbation so that
        # exploration picks among them uniformly at random.
        g_ceiling = float(mean_g.max(initial=0.0)) + 1.0
        score = mean_g.reshape(-1)[pre.flat]
        explore = (self.stats.counts < self.control_level()).reshape(-1)[pre.flat]
        # One draw over every exploring edge in edge order consumes the
        # stream exactly as one draw per SCN segment would.
        score[explore] = g_ceiling + self.rng.random(int(np.count_nonzero(explore)))
        return score
