"""The shared body of the hypercube-mean baselines (vUCB, FML, ε-greedy, Thompson).

Each of these learners keeps running sample means per (SCN, hypercube)
(:class:`~repro.core.estimators.CubeStatistics`), scores every coverage edge
of a slot from them, and lets the Alg. 4 greedy coordinate the SCNs.  They
differ only in how a cube's statistics become an edge weight, so
:class:`CubeMeanPolicy` owns everything else:

- the slot layout — :func:`repro.env.window.slot_layout` against the
  policy's partition, which the window layer also reads through
  :attr:`CubeMeanPolicy.context_partition`, so windows are classified once
  and value-equal partitions share LFSC's windows;
- ``select`` — the layout, the subclass's ``(E,)`` :meth:`edge_weights`, then
  :func:`~repro.core.greedy.greedy_select_edges`;
- ``_update`` — each assigned pair's cube is found by one ``searchsorted``
  on the layout's sorted pair key;
- checkpoint/restore of the statistics.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import OffloadingPolicy
from repro.core.estimators import CubeStatistics
from repro.core.greedy import greedy_select_edges
from repro.core.hypercube import ContextPartition
from repro.env.network import NetworkConfig
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.env.window import SlotEdges, slot_layout
from repro.obs import runtime as obs_runtime

__all__ = ["CubeMeanPolicy"]

_STATS_FIELDS = ("counts", "mean_g", "mean_v", "mean_q")


class CubeMeanPolicy(OffloadingPolicy):
    """Per-(SCN, hypercube) sample means scored per edge, coordinated by Alg. 4.

    Subclasses set :attr:`spans` and implement :meth:`edge_weights`.

    Parameters
    ----------
    partition:
        The context partition (shared with LFSC in the evaluation).
    """

    #: ``(score span, greedy span)`` names recorded around the two phases
    #: of :meth:`select`.
    spans: tuple[str, str] = ("cube.score", "cube.greedy")

    def __init__(self, partition: ContextPartition | None = None) -> None:
        super().__init__()
        self.partition = partition if partition is not None else ContextPartition()
        self.stats: CubeStatistics | None = None
        self._cache: tuple[int, SlotEdges] | None = None

    @property
    def context_partition(self) -> ContextPartition:
        """The partition the window layer classifies this policy's slots with."""
        return self.partition

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        super().reset(network, horizon, rng)
        self.stats = CubeStatistics(
            num_scns=network.num_scns, num_cubes=self.partition.num_cubes
        )
        self._cache = None

    def edge_weights(self, pre: SlotEdges) -> np.ndarray:
        """``(E,)`` float64 Alg. 4 weights for the slot's edges, in edge order.

        ``pre.flat`` is each edge's ``scn·F + cube`` index into the flattened
        ``(M, F)`` statistics.  Any random draws must be a pure function of
        the slot history (windowed ≡ per-slot, resume ≡ straight run).
        """
        raise NotImplementedError

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        score_span, greedy_span = self.spans
        with obs_runtime.span(score_span):
            slot = slot_layout(slot, self.partition)
            pre = slot.edges
            weights = self.edge_weights(pre)
        self._cache = (slot.t, pre)
        with obs_runtime.span(greedy_span):
            return greedy_select_edges(
                pre.scn, pre.task, weights, network.num_scns, network.capacity,
                pre.num_tasks,
            )

    def _update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        assert self.stats is not None
        cache = self._cache
        if cache is None or cache[0] != slot.t:
            raise RuntimeError("update() must follow the select() of the same slot")
        self._cache = None
        asn = feedback.assignment
        if len(asn) == 0:
            return
        pre = cache[1]
        # The pair key is strictly increasing (segments in SCN order, tasks
        # sorted within), so each assigned pair is one searchsorted away.
        pos = np.searchsorted(pre.key, asn.scn * np.int64(pre.num_tasks) + asn.task)
        self.stats.observe(asn.scn, pre.cube[pos], feedback.g, feedback.v, feedback.q)

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """The slot counter plus every statistic the edge weights read.

        Only legal at a slot boundary: between ``select()`` and ``update()``
        the policy holds the live slot's layout, so a snapshot there could
        not resume bit-identically.
        """
        if self._cache is not None:
            raise RuntimeError(
                "cannot checkpoint between select() and update(): "
                "finish the slot's feedback first"
            )
        if self.stats is None:
            raise RuntimeError("policy not reset yet — nothing to checkpoint")
        state = super().checkpoint_state()
        for name, value in self.stats.state_dict().items():
            state[f"stats_{name}"] = value
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        # A snapshot without the statistics (KeyError here) would resume
        # from empty means and silently diverge; the session turns the
        # KeyError into a CheckpointFormatError.
        if self.stats is None:
            raise RuntimeError("restore requires a reset policy (call reset() first)")
        self.stats.load_state_dict({name: state[f"stats_{name}"] for name in _STATS_FIELDS})
        super().restore_checkpoint_state(state)
        self._cache = None
