"""The paper-shaped per-SCN LFSC slot loop: the test oracle for the kernel.

:class:`repro.core.lfsc.LFSCPolicy` runs each slot as one flat edge list
(fused Alg. 2, one DepRound walk over every segment, Alg. 3 as a single
scatter).  This module keeps the readable per-SCN form of the same slot —
Alg. 2 probabilities, DepRound and the Alg. 4 greedy SCN by SCN, then the
Alg. 3 update SCN by SCN — as the specification the fused kernel is compared
against.  The two agree bit for bit under the same seed: the kernel matches
this arithmetic to the last ulp and consumes the policy RNG in the same
order.

:class:`ReferenceSlotLoop` is a mixin that overrides exactly ``select`` and
``_update_weights``; it is composed in front of each LFSC policy class
below and run with ``window=0``.  It is not a registered policy and no
driver can be configured to use it.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.priority import PriorityAwareLFSC
from repro.core.adaptive import AdaptiveLFSCPolicy
from repro.core.estimators import aggregate_by_cube, importance_weighted
from repro.core.greedy import greedy_select
from repro.core.lfsc import _LOG_W_FLOOR, LFSCPolicy
from repro.core.probability import CappedProbabilities, capped_probabilities
from repro.core.update import apply_weight_update, lagrangian_utility, weight_exponents
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.obs import runtime as obs_runtime

__all__ = [
    "ReferenceAdaptiveLFSC",
    "ReferenceLFSCPolicy",
    "ReferencePriorityLFSC",
    "ReferenceSlotLoop",
]


class _SlotCache:
    """What the reference select() must remember for the matching update()."""

    __slots__ = ("t", "coverage", "cubes", "probs")

    def __init__(
        self,
        t: int,
        coverage: list[np.ndarray],
        cubes: list[np.ndarray],
        probs: list[CappedProbabilities],
    ) -> None:
        self.t = t
        self.coverage = coverage
        self.cubes = cubes
        self.probs = probs


class ReferenceSlotLoop:
    """Mixin: the per-SCN ``select`` and Alg. 3 weight update."""

    def select(self, slot: SlotObservation) -> Assignment:
        """The paper-shaped per-SCN loop (specification / A/B baseline)."""
        network = self._require_reset()
        assert self.log_w is not None
        cfg = self.config
        M = network.num_scns
        c = network.capacity

        coverage: list[np.ndarray] = []
        cubes_per_scn: list[np.ndarray] = []
        probs_per_scn: list[CappedProbabilities] = []
        scores_per_scn: list[np.ndarray] = []

        with obs_runtime.span("lfsc.alg2"):
            for m in range(M):
                cov = np.asarray(slot.coverage[m], dtype=np.int64)
                if cov.size > 1 and np.any(np.diff(cov) < 0):
                    cov = np.sort(cov)
                cubes = cfg.partition.assign(slot.tasks.contexts[cov]) if cov.size else cov
                if cov.size:
                    # Normalize by the max over the cubes actually present so
                    # the largest weight is exactly 1 (no under/overflow
                    # regardless of how far apart the row's log-weights have
                    # drifted).
                    logs = self.log_w[m][cubes]
                    w = np.maximum(np.exp(logs - logs.max()), _LOG_W_FLOOR)
                    cp = capped_probabilities(w, c, cfg.gamma)
                else:
                    cp = CappedProbabilities(
                        p=np.empty(0), capped=np.empty(0, dtype=bool), threshold=np.nan
                    )
                coverage.append(cov)
                cubes_per_scn.append(cubes)
                probs_per_scn.append(cp)
                scores_per_scn.append(self._edge_scores(cp, cov, slot))

        self._cache = _SlotCache(slot.t, coverage, cubes_per_scn, probs_per_scn)
        with obs_runtime.span("lfsc.greedy"):
            return greedy_select(coverage, scores_per_scn, c, len(slot.tasks))

    def _update_weights(
        self, slot: SlotObservation, feedback: SlotFeedback, cache: _SlotCache
    ) -> None:
        network = self._require_reset()
        cfg = self.config
        M = network.num_scns
        F = cfg.partition.num_cubes
        asn = feedback.assignment

        lam_qos = self.multipliers.qos if cfg.use_lagrangian else np.zeros(M)
        lam_res = self.multipliers.resource if cfg.use_lagrangian else np.zeros(M)

        for m in range(M):
            cov = cache.coverage[m]
            if cov.size == 0:
                continue
            cubes = cache.cubes[m]
            cp = cache.probs[m]

            pair_rows = np.flatnonzero(asn.scn == m)
            sel_tasks = asn.task[pair_rows]
            pos = np.searchsorted(cov, sel_tasks)

            K = cov.size
            selected = np.zeros(K, dtype=bool)
            selected[pos] = True
            # Per-task Lagrangian utility for the processed tasks; the α/c
            # and β/c targets center it at the per-task constraint shares
            # (see core.update.lagrangian_utility).
            util_full = np.zeros(K)
            util_full[pos] = lagrangian_utility(
                feedback.g[pair_rows],
                feedback.v[pair_rows],
                feedback.q[pair_rows],
                float(lam_qos[m]),
                float(lam_res[m]),
                qos_target=network.alpha / network.capacity,
                resource_target=network.beta / network.capacity,
            )
            util_hat = importance_weighted(util_full, selected, cp.p)
            util_f, counts = aggregate_by_cube(util_hat, cubes, F)

            present = np.flatnonzero(counts > 0)
            # Boolean scatter beats np.isin/np.unique on these small sets.
            capped_mask = np.zeros(F, dtype=bool)
            capped_mask[cubes[cp.capped]] = True
            skip = capped_mask[present]
            exponents = weight_exponents(
                util_f[present], cfg.eta, max_exponent=cfg.max_exponent
            )
            apply_weight_update(self.log_w[m], present, exponents, skip)

            if pair_rows.size:
                self.stats.observe(
                    np.full(pair_rows.size, m, dtype=np.int64),
                    cubes[pos],
                    feedback.g[pair_rows],
                    feedback.v[pair_rows],
                    feedback.q[pair_rows],
                )


class ReferenceLFSCPolicy(ReferenceSlotLoop, LFSCPolicy):
    """:class:`LFSCPolicy` on the per-SCN loop."""


class ReferenceAdaptiveLFSC(ReferenceSlotLoop, AdaptiveLFSCPolicy):
    """:class:`AdaptiveLFSCPolicy` on the per-SCN loop."""


class ReferencePriorityLFSC(ReferenceSlotLoop, PriorityAwareLFSC):
    """:class:`PriorityAwareLFSC` on the per-SCN loop."""
