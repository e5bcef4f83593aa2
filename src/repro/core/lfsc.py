"""Alg. 1 — the LFSC policy (the paper's primary contribution).

Per slot, LFSC:

1. classifies each SCN's covered tasks into context hypercubes and computes
   the capped exponential-weights selection probabilities (Alg. 2,
   :mod:`repro.core.probability`);
2. coordinates all SCNs through the greedy bipartite assignment (Alg. 4,
   :mod:`repro.core.greedy`), preventing duplicate offloading and respecting
   the per-SCN capacity;
3. after observing the bandit feedback (u, v, q) of the processed tasks,
   forms importance-weighted unbiased estimates, updates hypercube weights
   and the per-SCN Lagrange multipliers (Alg. 3, :mod:`repro.core.update`,
   :mod:`repro.core.multipliers`).

Two assignment modes are supported (``LFSCConfig.assignment_mode``): the
default ``"depround"`` samples each SCN's candidate set with the exact
Alg. 2 marginals (the randomization the Exp3.M regret analysis relies on)
before the greedy resolves conflicts; ``"deterministic"`` is the
paper-literal variant that feeds the probabilities directly to the greedy as
edge weights.  ``benchmarks/bench_ablations.py`` compares them.

The slot runs as one flat edge list over the bipartite coverage graph
(:class:`repro.env.window.SlotEdges`, read through
:func:`repro.env.window.slot_layout`): hypercubes are assigned once for the
full task batch, Alg. 2 runs for all M SCNs in one
:func:`~repro.core.probability.capped_probabilities_batch_into` call,
DepRound is one fused walk over every segment
(:func:`repro.core.native.walk_segments`), and the Alg. 3 update is a single
scatter over (SCN, cube) pairs.

The paper-shaped per-SCN loop lives on as the test oracle
(``tests/core/reference_lfsc.py``): given the same seed the kernel produces
bit-identical assignments and weight trajectories in both assignment modes
(it matches the per-SCN arithmetic to the last ulp and consumes the policy
RNG in the same order).  ``tests/core/test_lfsc_engine_equivalence.py``
enforces this; ``benchmarks/bench_slot_engine.py`` measures the speedup.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import OffloadingPolicy
from repro.core.config import LFSCConfig
from repro.obs import runtime as obs_runtime
from repro.core import native as _native
from repro.core.depround import _TOL as _DR_TOL
from repro.core.depround import depround, walk_into
from repro.core.estimators import CubeStatistics
# greedy_select, capped_probabilities and capped_probabilities_batch are
# imported for perfbench/hooks.py, whose boundary table resolves and times
# them in this module.
from repro.core.greedy import greedy_select, greedy_select_edges  # noqa: F401
from repro.core.multipliers import LagrangeMultipliers
from repro.core.probability import (
    CappedProbabilities,
    CappedProbabilitiesBatch,
    capped_probabilities,  # noqa: F401
    capped_probabilities_batch,  # noqa: F401
    capped_probabilities_batch_into,
)
from repro.core.update import lagrangian_utility, recenter_log_weights, weight_exponents
from repro.env.network import NetworkConfig
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.env.window import slot_layout

__all__ = ["LFSCPolicy"]

_LOG_W_FLOOR = 1e-300


class _EdgeArena:
    """Reusable per-slot scratch buffers for the batched slot kernel.

    One arena per policy, grown on demand and overwritten every slot: the
    windowed ``select()`` stages its edge-length intermediates (log-weight
    gather, Alg. 2 probabilities, scores) here instead of allocating ~10
    fresh arrays per slot, and the matching ``update()`` reuses the
    w̃ buffer for its importance-weighted estimates.  Buffer contents are
    only valid between one ``select()`` and its ``update()``.
    """

    __slots__ = (
        "logs", "p", "wtilde", "scores", "scratch", "capped", "draws",
        "mask", "walk_ids", "walk_vals", "addr",
    )

    def __init__(self) -> None:
        self.logs = np.empty(0)
        self.p = np.empty(0)
        self.wtilde = np.empty(0)
        self.scores = np.empty(0)
        self.scratch = np.empty(0)
        self.capped = np.empty(0, dtype=bool)
        self.draws = np.empty(0)
        self.mask = np.empty(0, dtype=np.uint8)
        self.walk_ids = np.empty(0, dtype=np.int64)
        self.walk_vals = np.empty(0)
        self._index()

    def ensure(self, num_edges: int) -> None:
        if self.logs.shape[0] < num_edges:
            size = max(num_edges, 2 * self.logs.shape[0])
            self.logs = np.empty(size)
            self.p = np.empty(size)
            self.wtilde = np.empty(size)
            self.scores = np.empty(size)
            self.scratch = np.empty(size)
            self.capped = np.empty(size, dtype=bool)
            # DepRound + tie-jitter consume at most 2 uniforms per edge.
            self.draws = np.empty(2 * size)
            self.mask = np.empty(size, dtype=np.uint8)
            self.walk_ids = np.empty(size, dtype=np.int64)
            self.walk_vals = np.empty(size)
            self._index()

    def _index(self) -> None:
        # Data addresses for the native kernels, taken once per growth:
        # every slot passes these buffers, and looking a pointer up per
        # argument costs more than passing the int (repro.core.native._ptr).
        self.addr = {
            name: getattr(self, name).ctypes.data
            for name in ("p", "wtilde", "draws", "mask", "walk_ids", "walk_vals")
        }

    # A copy or unpickled arena owns new buffers: re-take their addresses.
    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__ if name != "addr"}

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._index()


class _BatchedSlotCache:
    """The batched select()'s slot state: one flat edge list.

    ``pre`` is the slot's :class:`~repro.env.window.SlotEdges` (classified
    for the policy's partition), letting update() reuse its sorted key and
    Alg. 3 scatter index.  ``coverage``/``cubes``/``probs`` expose the
    per-SCN views subclasses and diagnostics read (the same views the
    per-SCN test oracle keeps); the lists are materialized lazily on first
    access.
    """

    __slots__ = ("t", "pre", "batch", "coverage", "_cubes")

    def __init__(
        self,
        t: int,
        pre,
        batch: CappedProbabilitiesBatch,
        coverage: list[np.ndarray],
    ) -> None:
        self.t = t
        self.pre = pre
        self.batch = batch
        self.coverage = coverage
        self._cubes: list[np.ndarray] | None = None

    @property
    def p(self) -> np.ndarray:
        return self.batch.p

    @property
    def capped(self) -> np.ndarray:
        return self.batch.capped

    @property
    def cubes(self) -> list[np.ndarray]:
        if self._cubes is None:
            self._cubes = np.split(self.pre.cube, self.pre.offsets[1:-1])
        return self._cubes

    @property
    def probs(self) -> list[CappedProbabilities]:
        return [self.batch.segment(m) for m in range(self.batch.num_segments)]


class LFSCPolicy(OffloadingPolicy):
    """The online Learning Framework for Small Cells (LFSC).

    Parameters
    ----------
    config:
        Algorithm tunables; ``None`` uses :class:`LFSCConfig` defaults.
        Use :meth:`LFSCConfig.from_theorem` for the Theorem 1 schedule.

    Attributes (after ``reset``)
    ----------------------------
    log_w:
        ``(M, F)`` hypercube log-weights (log of the paper's w^m_f).
    multipliers:
        The per-SCN dual variables (λ₁, λ₂).
    stats:
        Observed-feedback sample means per (SCN, cube) — diagnostics only;
        the decisions use the weights.
    """

    name = "LFSC"

    def __init__(self, config: LFSCConfig | None = None) -> None:
        super().__init__()
        self.config = config if config is not None else LFSCConfig()
        self.log_w: np.ndarray | None = None
        self.multipliers: LagrangeMultipliers | None = None
        self.stats: CubeStatistics | None = None
        self._cache: _BatchedSlotCache | None = None
        self._arena = _EdgeArena()
        self.multiplier_history_qos: np.ndarray | None = None
        self.multiplier_history_resource: np.ndarray | None = None

    @property
    def context_partition(self):
        """The hypercube partition select() classifies contexts with.

        The windowed simulator reads this (duck-typed) to pre-classify each
        slot's contexts once per window; :meth:`select` then accepts
        the precomputed cubes only if the slot's partition matches.
        """
        return self.config.partition

    # -- lifecycle ----------------------------------------------------------

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        super().reset(network, horizon, rng)
        cfg = self.config
        F = cfg.partition.num_cubes
        M = network.num_scns
        self.log_w = np.zeros((M, F))  # w = 1 for every (SCN, cube), Alg. 1 init
        self.multipliers = LagrangeMultipliers(
            num_scns=M,
            eta=cfg.dual_step,
            delta=cfg.delta,
            lambda_max=cfg.lambda_max,
        )
        self.stats = CubeStatistics(num_scns=M, num_cubes=F)
        self._cache = None
        self.multiplier_history_qos = np.zeros((horizon, M))
        self.multiplier_history_resource = np.zeros((horizon, M))

    # -- decision (Alg. 2 + Alg. 4) ------------------------------------------

    def select(self, slot: SlotObservation) -> Assignment:
        """One flat edge list for the whole slot.

        Every select runs the slot kernel of :meth:`_select_batched_pre` on
        the layout :func:`~repro.env.window.slot_layout` hands back for the
        partition current at select time — the window's own edges when they
        fit, else laid out there (a ``window=0`` run, a slot a wrapper
        rewrote, cubes missing for a stateful partition).
        """
        network = self._require_reset()
        slot = slot_layout(slot, self.config.partition)
        return self._select_batched_pre(slot, slot.edges, network)

    def _select_batched_pre(self, slot: SlotObservation, pre, network) -> Assignment:
        """The batched slot kernel on a precomputed edge list.

        The slot's layout (edge arrays, segment offsets, hypercube gather
        index — see :class:`repro.env.window.SlotEdges`) arrives prebuilt, so
        this path is pure per-slot arithmetic: gather log-weights through the
        precomputed flat index, run Alg. 2 into the reusable arena, and draw
        DepRound/jitter in the frozen per-SCN stream order.  The per-edge
        arithmetic matches the per-SCN test oracle to the last ulp and
        consumes the policy RNG identically, so the two agree bit for bit.
        """
        assert self.log_w is not None
        cfg = self.config
        M = network.num_scns
        c = network.capacity
        E = pre.num_edges
        coverage = slot.coverage

        if E == 0:
            empty_batch = CappedProbabilitiesBatch(
                p=np.empty(0),
                capped=np.empty(0, dtype=bool),
                thresholds=np.full(M, np.nan),
                offsets=pre.offsets,
            )
            self._cache = _BatchedSlotCache(slot.t, pre, empty_batch, coverage)
            return Assignment.empty()

        arena = self._arena
        arena.ensure(E)
        with obs_runtime.span("lfsc.alg2"):
            # log_w is C-contiguous (M, F), so the flat take equals the
            # fancy-index gather log_w[edge_scn, edge_cube] exactly.
            logs = arena.logs[:E]
            np.take(self.log_w.reshape(-1), pre.flat, out=logs)
            seg_max = np.maximum.reduceat(logs, pre.seg_start)
            edge_max = arena.scratch[:E]
            np.take(seg_max, pre.scn, out=edge_max)
            np.subtract(logs, edge_max, out=logs)
            np.exp(logs, out=logs)
            w = np.maximum(logs, _LOG_W_FLOOR, out=logs)
            cpb = capped_probabilities_batch_into(
                w,
                pre.offsets,
                c,
                cfg.gamma,
                lengths=pre.lengths,
                lengths_f=pre.lengths_f,
                edge_scn=pre.scn,
                seg_len_edge=pre.seg_len_edge,
                out_p=arena.p[:E],
                out_capped=arena.capped[:E],
                out_wtilde=arena.wtilde[:E],
                scratch=arena.scratch[:E],
            )

        scores = arena.scores[:E]
        bounds = pre.bounds
        with obs_runtime.span("lfsc.depround"):
            if type(self)._edge_scores is LFSCPolicy._edge_scores:
                self._score_edges_fused(pre, cpb.p, scores)
            else:
                for m in range(M):
                    scores[bounds[m] : bounds[m + 1]] = self._edge_scores(
                        cpb.segment(m), coverage[m], slot
                    )

        self._cache = _BatchedSlotCache(slot.t, pre, cpb, coverage)
        ctx = obs_runtime.active()
        if ctx is not None:
            ctx.set_slot_field("edges", E)
        with obs_runtime.span("lfsc.greedy"):
            return greedy_select_edges(pre.scn, pre.task, scores, M, c, len(slot.tasks))

    def _score_edges_fused(self, pre, p: np.ndarray, scores: np.ndarray) -> None:
        """Default edge scoring for a whole slot in one fused pass.

        Produces bit-identical scores and consumes the policy RNG bitwise
        identically to calling :meth:`_edge_scores` segment by segment:

        - every segment's DepRound draw count is a pure function of its
          probabilities (:func:`repro.core.depround.draw_count`, here
          evaluated for all segments at once), and the tie-jitter count is
          the segment length, so the whole slot's uniforms — in the exact
          per-segment interleaved order — can be taken in ONE generator
          call (consecutive ``rng.random`` calls consume the stream exactly
          like one concatenated call);
        - the DepRound walks then run per segment — through the native
          kernel (:mod:`repro.core.native`) when the host has one, else the
          Python :func:`~repro.core.depround.walk_into`, bit-identical
          either way — and the mask/jitter arithmetic is applied across the
          full edge list (elementwise the same operations as the
          per-segment ufuncs).
        """
        cfg = self.config
        rng = self.rng
        jitter = cfg.tie_jitter
        E = p.shape[0]
        M = pre.lengths.shape[0]
        arena = self._arena

        if cfg.assignment_mode != "depround":
            if jitter > 0:
                jd = arena.draws[:E]
                rng.random(out=jd)
                np.multiply(jd, jitter, out=jd)
                np.add(p, jd, out=scores)
            else:
                np.copyto(scores, p)
            return

        offsets = pre.offsets
        lengths = pre.lengths
        # Per-segment extrema in one reduceat pair (empty segments produce
        # garbage lanes that every consumer below masks out).
        p_lo = np.minimum.reduceat(p, pre.seg_start)
        p_hi = np.maximum.reduceat(p, pre.seg_start)
        nonempty = lengths > 0
        if bool((((p_lo < -_DR_TOL) | (p_hi > 1.0 + _DR_TOL)) & nonempty).any()):
            raise ValueError("probabilities must lie in [0, 1]")

        # draw_count, vectorized: a segment whose extrema are strictly
        # fractional draws once per coordinate; otherwise once per strictly
        # fractional coordinate.
        common = nonempty & (p_lo > _DR_TOL) & (p_hi < 1.0 - _DR_TOL)
        if bool(common.all()):
            dep_cnt = lengths
        else:
            frac = ((p > _DR_TOL) & (p < 1.0 - _DR_TOL)).astype(np.int64)
            dep_cnt = np.where(common, lengths, np.add.reduceat(frac, pre.seg_start))
            dep_cnt[~nonempty] = 0

        # Pooled layout: segment m's DepRound draws, then (in jitter runs)
        # its jitter draws, exactly the per-segment call order.
        ext = dep_cnt + lengths if jitter > 0 else dep_cnt
        cum = np.zeros(M + 1, dtype=np.int64)
        np.cumsum(ext, out=cum[1:])
        dep_start = cum[:-1]
        total = int(cum[-1])
        buf = arena.draws[:total]
        if total:
            rng.random(out=buf)

        mask = arena.mask[:E]
        mask[:] = 0
        addr = arena.addr
        if not _native.walk_segments(
            addr["p"] if p.base is arena.p else np.ascontiguousarray(p),
            offsets, addr["draws"], dep_start, p_lo, p_hi, addr["mask"],
            addr["walk_ids"], addr["walk_vals"], _DR_TOL,
        ):
            # Portable fallback: the same walks on presliced Python lists.
            vals = p.tolist()
            draws = buf.tolist()
            out_list: list[bool] = [False] * E
            bounds = pre.bounds
            lo_l = p_lo.tolist()
            hi_l = p_hi.tolist()
            cnt_l = dep_cnt.tolist()
            start_l = dep_start.tolist()
            for m in range(M):
                s, e = bounds[m], bounds[m + 1]
                if s == e:
                    continue
                d0 = start_l[m]
                walk_into(
                    vals[s:e], draws[d0 : d0 + cnt_l[m]], out_list, s,
                    lo_l[m], hi_l[m],
                )
            mask[:] = out_list

        np.add(p, mask, out=scores)
        if jitter > 0:
            # Each segment's jitter draws sit contiguously in the pooled
            # buffer right after its DepRound draws; gather them per edge.
            idx = np.repeat(dep_start + dep_cnt - offsets[:-1], lengths)
            idx += np.arange(E, dtype=np.int64)
            jd = arena.scratch[:E]
            np.take(buf, idx, out=jd)
            np.multiply(jd, jitter, out=jd)
            np.add(scores, jd, out=scores)

    def _edge_scores(
        self, cp: CappedProbabilities, cov: np.ndarray, slot: SlotObservation
    ) -> np.ndarray:
        """Greedy edge weights for one SCN's covered tasks.

        depround mode: sampled candidates get score 1 + p (ranking above
        every unsampled edge, ordered by p within the sample); unsampled
        edges keep score p so a SCN whose candidate was stolen by a peer can
        refill its capacity.  deterministic mode: score = p (paper-literal).
        A tiny uniform jitter breaks exact ties uniformly at random.

        Subclasses may override to re-rank edges (e.g. the multi-slot
        priority bonus of :class:`repro.baselines.priority.PriorityAwareLFSC`);
        ``cov`` and ``slot`` identify which tasks the scores refer to.  A
        subclass override is called once per SCN, in SCN order.
        """
        if cp.p.size == 0:
            return cp.p
        if self.config.assignment_mode == "depround":
            mask = depround(cp.p, self.rng)
            scores = cp.p + mask  # sampled edges get p + 1, unsampled keep p
        else:
            scores = cp.p.copy()
        if self.config.tie_jitter > 0:
            scores = scores + self.config.tie_jitter * self.rng.random(scores.shape[0])
        return scores

    # -- learning (Alg. 3) ----------------------------------------------------

    def _update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        network = self._require_reset()
        assert self.log_w is not None and self.multipliers is not None and self.stats is not None
        cfg = self.config
        cache = self._cache
        if cache is None or cache.t != slot.t:
            raise RuntimeError("update() must follow the select() of the same slot")
        M = network.num_scns

        with obs_runtime.span("lfsc.update"):
            self._update_weights(slot, feedback, cache)
            recenter_log_weights(self.log_w)

        if cfg.use_lagrangian:
            with obs_runtime.span("lfsc.multipliers"):
                self.multipliers.update(
                    feedback.per_scn_completed(M),
                    feedback.per_scn_consumption(M),
                    network.alpha,
                    network.beta,
                )
        if self.multiplier_history_qos is not None and self.t < self.multiplier_history_qos.shape[0]:
            self.multiplier_history_qos[self.t] = self.multipliers.qos
            self.multiplier_history_resource[self.t] = self.multipliers.resource
        self._cache = None

    def _update_weights(
        self, slot: SlotObservation, feedback: SlotFeedback, cache: _BatchedSlotCache
    ) -> None:
        """Alg. 3 as one scatter over the slot's flat edge list.

        Reproduces the per-SCN update bit-for-bit: the per-(SCN, cube)
        accumulation visits edges in the same order the per-SCN loop does —
        whether through the native scatter kernel
        (:func:`repro.core.native.scatter_update`) or the bincount fallback —
        and every elementwise operation matches the per-SCN arithmetic
        exactly.
        """
        network = self._require_reset()
        cfg = self.config
        M = network.num_scns
        F = cfg.partition.num_cubes
        asn = feedback.assignment

        pre = cache.pre
        E = pre.num_edges
        if E == 0:
            return

        lam_qos = self.multipliers.qos if cfg.use_lagrangian else np.zeros(M)
        lam_res = self.multipliers.resource if cfg.use_lagrangian else np.zeros(M)

        # The slot's layout carries the sorted pair key and the Alg. 3
        # scatter index prebuilt; the arena's w̃ buffer (dead after select)
        # doubles as the estimate vector.
        util_hat = self._arena.wtilde[:E]
        util_hat[:] = 0.0
        if len(asn):
            # Locate each assigned pair in the edge list: keys are strictly
            # increasing (segments in SCN order, tasks sorted within).
            n = np.int64(len(slot.tasks))
            edge_key = pre.key
            pos = np.searchsorted(edge_key, asn.scn * n + asn.task)
            if not np.array_equal(edge_key[pos], asn.scn * n + asn.task):
                raise RuntimeError("assignment contains a pair outside the slot's edge list")
            util = lagrangian_utility(
                feedback.g,
                feedback.v,
                feedback.q,
                lam_qos[asn.scn],
                lam_res[asn.scn],
                qos_target=network.alpha / network.capacity,
                resource_target=network.beta / network.capacity,
            )
            # Importance weighting: unselected edges keep estimate 0.
            util_hat[pos] = util / cache.p[pos]

        flat = pre.flat
        sums = np.zeros(M * F)
        counts = np.zeros(M * F, dtype=np.int64)
        if not _native.scatter_update(flat, self._arena.addr["wtilde"], sums, counts):
            sums = np.bincount(flat, weights=util_hat, minlength=M * F)
            counts = np.bincount(flat, minlength=M * F)
        present = np.flatnonzero(counts)
        means = sums[present] / counts[present]
        exponents = weight_exponents(means, cfg.eta, max_exponent=cfg.max_exponent)
        # Capped cubes (Alg. 2's S') are excluded from the update — their
        # selection was deterministic, so the estimate carries no signal.
        capped_flat = np.zeros(M * F, dtype=bool)
        capped_flat[flat[cache.capped]] = True
        keep = ~capped_flat[present]
        upd = present[keep]
        self.log_w[upd // F, upd % F] += exponents[keep]

        if len(asn):
            self.stats.observe(asn.scn, pre.cube[pos], feedback.g, feedback.v, feedback.q)

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        """Every mutable learning quantity of Alg. 1-3 (see base class).

        Only legal at a slot boundary: between ``select()`` and ``update()``
        the policy holds per-slot scratch (``_cache``) that references the
        live slot and cannot be serialized, so checkpointing there would
        break the resume bit-identity guarantee.
        """
        if self._cache is not None:
            raise RuntimeError(
                "cannot checkpoint between select() and update(): "
                "finish the slot's feedback first"
            )
        if self.log_w is None or self.multipliers is None or self.stats is None:
            raise RuntimeError("policy not reset yet — nothing to checkpoint")
        state = super().checkpoint_state()
        state["log_w"] = self.log_w.copy()
        state["mult_qos"] = self.multipliers.qos.copy()
        state["mult_resource"] = self.multipliers.resource.copy()
        for name, value in self.stats.state_dict().items():
            state[f"stats_{name}"] = value
        if self.multiplier_history_qos is not None:
            state["mult_history_qos"] = self.multiplier_history_qos.copy()
            state["mult_history_resource"] = self.multiplier_history_resource.copy()
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        if self.log_w is None or self.multipliers is None or self.stats is None:
            raise RuntimeError("restore requires a reset policy (call reset() first)")
        super().restore_checkpoint_state(state)
        log_w = np.ascontiguousarray(np.asarray(state["log_w"], dtype=float))
        if log_w.shape != self.log_w.shape:
            raise ValueError(
                f"log_w has shape {log_w.shape}, expected {self.log_w.shape}"
            )
        self.log_w = log_w
        self.multipliers.load_state_dict(
            {"qos": state["mult_qos"], "resource": state["mult_resource"]}
        )
        self.stats.load_state_dict(
            {
                name: state[f"stats_{name}"]
                for name in ("counts", "mean_g", "mean_v", "mean_q")
            }
        )
        if "mult_history_qos" in state:
            self.multiplier_history_qos = np.array(state["mult_history_qos"], dtype=float)
            self.multiplier_history_resource = np.array(
                state["mult_history_resource"], dtype=float
            )
        self._cache = None

    # -- diagnostics ----------------------------------------------------------

    def weights_snapshot(self) -> np.ndarray:
        """Current normalized weights per (SCN, cube) — each row sums to 1."""
        if self.log_w is None:
            raise RuntimeError("policy not reset yet")
        shifted = self.log_w - self.log_w.max(axis=1, keepdims=True)
        w = np.exp(shifted)
        return w / w.sum(axis=1, keepdims=True)
