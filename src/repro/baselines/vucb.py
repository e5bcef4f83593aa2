"""Variant-UCB (vUCB) baseline (paper §5).

Adapts UCB1 to the small-cell setting exactly as the paper describes: per
(SCN, hypercube) it maintains the index

    idx_f = ĝ_f + sqrt( 2 ln t / N_f(t) )

where ĝ_f is the sample-mean compound reward of hypercube f at that SCN and
N_f(t) counts how often tasks from f were processed there.  Unvisited cubes
carry an infinite index (forced exploration).  The greedy assignment of
Alg. 4 then coordinates the SCNs using the indices as edge weights.

vUCB maximizes reward only — it is blind to the QoS threshold α and the
resource capacity β, which is precisely why its cumulative reward in Fig. 2
exceeds the Oracle's while its violations dwarf LFSC's.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.cube_mean import CubeMeanPolicy
from repro.core.hypercube import ContextPartition
from repro.env.window import SlotEdges

__all__ = ["VUCBPolicy"]


class VUCBPolicy(CubeMeanPolicy):
    """UCB1-per-hypercube with greedy multi-SCN coordination.

    Parameters
    ----------
    partition:
        The context partition (shared with LFSC in the evaluation).
    exploration:
        The constant inside the confidence radius (paper uses 2).
    """

    name = "vUCB"
    spans = ("vucb.index", "vucb.greedy")

    def __init__(
        self, partition: ContextPartition | None = None, *, exploration: float = 2.0
    ) -> None:
        super().__init__(partition)
        self.exploration = float(exploration)

    def edge_weights(self, pre: SlotEdges) -> np.ndarray:
        assert self.stats is not None
        index = self.stats.ucb_index(max(self.t, 1), exploration=self.exploration)
        # Replace +inf by a finite value above every real index so argsort
        # ordering is well-defined and unvisited cubes are tried first.
        finite_max = np.nanmax(np.where(np.isfinite(index), index, -np.inf))
        if not np.isfinite(finite_max):
            finite_max = 1.0
        index = np.where(np.isfinite(index), index, finite_max + 1.0)
        return index.reshape(-1)[pre.flat]
