"""The Random baseline (paper §5).

"This algorithm randomly picks c tasks for each SCN in each time slot, and
each task cannot be repeatedly offloaded."  Implemented as the greedy
coordination over i.i.d. uniform edge weights, which realizes exactly a
uniform random conflict-free assignment: every maximal assignment honouring
(1a)/(1b) ordering arises from some weight draw with equal probability of
relative orderings.
"""

from __future__ import annotations

from repro.core.base import OffloadingPolicy
from repro.core.greedy import greedy_select_edges
from repro.env.simulator import Assignment, SlotObservation
from repro.env.window import slot_layout

__all__ = ["RandomPolicy"]


class RandomPolicy(OffloadingPolicy):
    """Uniform random conflict-free task selection."""

    name = "Random"

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        pre = slot_layout(slot).edges
        # One draw over the edge list equals one draw per SCN segment.
        weights = self.rng.random(pre.num_edges)
        return greedy_select_edges(
            pre.scn, pre.task, weights, network.num_scns, network.capacity, pre.num_tasks
        )
