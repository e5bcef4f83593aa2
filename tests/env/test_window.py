"""Windowed slot streaming is bit-identical to the per-slot driver.

The acceptance bar for the windowed pipeline (PR 4): for every window size —
including W=1, a W that does not divide the horizon, and a W larger than the
horizon — running the simulation with ``window=W`` must produce byte-for-byte
the same trajectory as ``window=0`` (the per-slot driver), in both
assignment modes.  The window precompute consumes the
workload RNG in exactly the per-slot order (``sample_slots``), and every
derived structure (edge lists, hypercube indices, truth cells) is pure
bookkeeping, so any divergence here means the streaming layer leaked into
the randomness or reordered arithmetic.
"""

import dataclasses

import numpy as np
import pytest

from repro import policies
from repro.core.hypercube import ContextPartition
from repro.core.lfsc import LFSCPolicy
from repro.env.simulator import DEFAULT_WINDOW, effective_window
from repro.env.window import PrecomputedSlot, precompute_window, slot_layout
from repro.env.workload import SlotWorkload, TraceWorkload
from repro.experiments.runner import (
    ExperimentConfig,
    build_simulation,
    build_truth,
    build_workload,
    make_policy,
)
from repro.solvers.cache import reset_shared_cache

HORIZON = 40
WINDOWS = (1, 7, 64)  # 7 does not divide 40; 64 exceeds the horizon


def _cfg(**overrides) -> ExperimentConfig:
    return ExperimentConfig.tiny(horizon=HORIZON, **overrides)


def _run(cfg: ExperimentConfig, mode: str, window: int):
    sim = build_simulation(cfg)
    lfsc = cfg.lfsc_config().with_overrides(assignment_mode=mode)
    return sim.run(LFSCPolicy(lfsc), cfg.horizon, window=window)


def _assert_identical(a, b) -> None:
    np.testing.assert_array_equal(a.reward, b.reward)
    np.testing.assert_array_equal(a.expected_reward, b.expected_reward)
    np.testing.assert_array_equal(a.completed, b.completed)
    np.testing.assert_array_equal(a.consumption, b.consumption)
    np.testing.assert_array_equal(a.accepted, b.accepted)
    np.testing.assert_array_equal(a.violation_qos, b.violation_qos)
    np.testing.assert_array_equal(a.violation_resource, b.violation_resource)


class TestWindowedEquivalence:
    # The ids keep the "-batched" suffix of the retired slot-engine axis.
    @pytest.mark.parametrize(
        "mode", ["deterministic", "depround"], ids=lambda mode: f"{mode}-batched"
    )
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bit_identical_to_per_slot(self, mode, window):
        cfg = _cfg()
        per_slot = _run(cfg, mode, window=0)
        windowed = _run(cfg, mode, window=window)
        _assert_identical(per_slot, windowed)

    def test_default_window_matches_per_slot(self):
        cfg = _cfg()
        per_slot = _run(cfg, "depround", window=0)
        sim = build_simulation(cfg)
        default = sim.run(LFSCPolicy(cfg.lfsc_config()), cfg.horizon)  # window=None
        _assert_identical(per_slot, default)

    def test_horizon_not_divisible_boundary(self):
        # horizon=10, W=7: the second window must clamp to 3 slots.
        cfg = ExperimentConfig.tiny(horizon=10)
        _assert_identical(
            _run(cfg, "depround", window=0),
            _run(cfg, "depround", window=7),
        )

    def test_adaptive_partition_stays_identical(self):
        # A stateful partition refines mid-window, so the driver must fall
        # back to per-slot classification — trajectories stay identical.
        from repro.core.adaptive import AdaptiveLFSCPolicy, AdaptivePartition

        cfg = _cfg()

        def run(window: int):
            sim = build_simulation(cfg)
            policy = AdaptiveLFSCPolicy(
                cfg.lfsc_config(),
                partition=AdaptivePartition(
                    dims=cfg.dims, max_leaves=64, split_base=10.0, split_rho=1.0
                ),
            )
            return sim.run(policy, cfg.horizon, window=window)

        _assert_identical(run(0), run(7))


class TestSampleSlots:
    def test_matches_sequential_generation(self):
        cfg = _cfg()
        seq_wl, win_wl = build_workload(cfg), build_workload(cfg)
        rng_a = np.random.default_rng(123)
        rng_b = np.random.default_rng(123)
        sequential = [seq_wl.slot(t, rng_a) for t in range(6)]
        batched = win_wl.sample_slots(0, 6, rng_b)
        assert len(batched) == 6
        for s, b in zip(sequential, batched):
            assert b.t == s.t
            np.testing.assert_array_equal(s.tasks.contexts, b.tasks.contexts)
            np.testing.assert_array_equal(s.tasks.ids, b.tasks.ids)
            for cs, cb in zip(s.coverage, b.coverage):
                np.testing.assert_array_equal(np.asarray(cs), np.asarray(cb))
        # The RNG streams must be in the same state afterwards.
        assert rng_a.random() == rng_b.random()


class TestPrecomputeWindow:
    def test_structure(self):
        cfg = _cfg()
        workload = build_workload(cfg)
        truth = build_truth(cfg)
        partition = cfg.partition
        win = precompute_window(
            workload,
            0,
            5,
            np.random.default_rng(7),
            partition=partition,
            context_cells=truth.context_cells,
        )
        assert win.start == 0 and len(win) == 5
        for i, slot in enumerate(win.slots):
            assert isinstance(slot, PrecomputedSlot)
            assert slot.t == i
            edges = slot.edges
            n = len(slot.tasks)
            E = edges.num_edges
            # Offsets partition the edge list into per-SCN segments.
            assert edges.offsets.shape == (cfg.num_scns + 1,)
            assert edges.offsets[0] == 0 and edges.offsets[-1] == E
            np.testing.assert_array_equal(np.diff(edges.offsets), edges.lengths)
            # Edge arrays agree with the slot's coverage lists.
            for m, cov in enumerate(slot.coverage):
                seg = slice(*edges.bounds[m : m + 2])
                np.testing.assert_array_equal(edges.task[seg], np.asarray(cov))
                assert np.all(edges.scn[seg] == m)
            # Keys encode (scn, task) and cubes match a fresh classification.
            np.testing.assert_array_equal(
                edges.key, edges.scn * np.int64(n) + edges.task
            )
            np.testing.assert_array_equal(
                edges.cube, partition.assign(slot.tasks.contexts)[edges.task]
            )
            np.testing.assert_array_equal(
                edges.flat, edges.scn * np.int64(partition.num_cubes) + edges.cube
            )
            np.testing.assert_array_equal(
                slot.truth_cells, truth.context_cells(slot.tasks.contexts)
            )

    def test_rejects_empty_window(self):
        cfg = _cfg()
        with pytest.raises(ValueError):
            precompute_window(build_workload(cfg), 0, 0, np.random.default_rng(0))


class TestEffectiveWindow:
    def test_eligibility(self):
        cfg = _cfg()
        sim = build_simulation(cfg)
        policy = LFSCPolicy(cfg.lfsc_config())
        def size(window):
            return effective_window(sim.workload, policy, window)[0]

        assert size(None) == DEFAULT_WINDOW
        assert size(5) == 5
        assert size(0) == 0


def _reversed_trace_simulation(cfg: ExperimentConfig):
    """``cfg``'s simulation on a recorded trace whose coverage lists run backwards."""
    sim = build_simulation(cfg)
    recorded = TraceWorkload.record(sim.workload, cfg.horizon, np.random.default_rng(cfg.seed))
    trace = TraceWorkload(
        slots=[
            SlotWorkload(
                t=s.t, tasks=s.tasks,
                coverage=[np.asarray(c, dtype=np.int64)[::-1].copy() for c in s.coverage],
            )
            for s in recorded.slots
        ]
    )
    return dataclasses.replace(sim, workload=trace)


class TestEveryPolicyWindowed:
    """Windowed ≡ per-slot for every registered policy, also on unsorted coverage.

    Every policy reads its slot through ``slot_layout``, so a per-slot slot
    and a windowed one reach it in the same sorted edge order — a trace
    whose coverage lists are not sorted must not split the two paths.
    """

    @pytest.mark.parametrize("workload", ["synthetic", "unsorted-trace"])
    @pytest.mark.parametrize("name", policies.names())
    def test_bit_identical_to_per_slot(self, name, workload):
        cfg = ExperimentConfig.small(horizon=24, seed=4, shared_window=False)

        def run(window: int):
            reset_shared_cache()
            if workload == "synthetic":
                sim = build_simulation(cfg)
            else:
                sim = _reversed_trace_simulation(cfg)
            return sim.run(make_policy(name, cfg, sim.truth), cfg.horizon, window=window)

        _assert_identical(run(0), run(32))


class TestSlotLayout:
    def _slots(self):
        cfg = _cfg()
        workload = build_workload(cfg)
        raw = workload.slot(0, np.random.default_rng(3))
        win = precompute_window(
            build_workload(cfg), 0, 1, np.random.default_rng(3), partition=cfg.partition
        )
        return cfg, raw, win.slots[0]

    def test_fitting_slot_is_returned_as_is(self):
        cfg, _, pre = self._slots()
        assert slot_layout(pre) is pre
        assert slot_layout(pre, cfg.partition) is pre
        # A value-equal partition shares the window's cubes.
        assert slot_layout(pre, ContextPartition(dims=cfg.dims, parts=cfg.parts)) is pre

    def test_plain_slot_is_laid_out_sorted(self):
        cfg, raw, pre = self._slots()
        backwards = SlotWorkload(
            t=raw.t, tasks=raw.tasks, coverage=[np.asarray(c)[::-1] for c in raw.coverage]
        )
        laid = slot_layout(backwards, cfg.partition)
        for field in ("scn", "task", "key", "cube", "flat", "offsets"):
            np.testing.assert_array_equal(getattr(laid.edges, field), getattr(pre.edges, field))
        # The caller's slot is not touched.
        assert np.all(np.diff(np.asarray(backwards.coverage[0])) <= 0)

    def test_other_partition_is_reclassified(self):
        cfg, raw, pre = self._slots()
        finer = ContextPartition(dims=cfg.dims, parts=cfg.parts + 1)
        laid = slot_layout(pre, finer)
        assert laid.edges.partition is finer
        assert laid.edges.num_cubes == finer.num_cubes
        np.testing.assert_array_equal(
            laid.edges.cube, finer.assign(raw.tasks.contexts)[laid.edges.task]
        )
        np.testing.assert_array_equal(laid.edges.task, pre.edges.task)

    def test_stale_edges_are_rebuilt(self):
        # A wrapper that swaps the tasks but keeps the old edges.
        cfg, _, pre = self._slots()
        other = build_workload(cfg).slot(5, np.random.default_rng(9))
        stale = dataclasses.replace(pre, tasks=other.tasks, coverage=other.coverage)
        assert len(other.tasks) != len(pre.tasks)
        laid = slot_layout(stale)
        assert laid.edges.num_tasks == len(other.tasks)
        np.testing.assert_array_equal(
            laid.edges.task, np.concatenate([np.sort(c) for c in other.coverage])
        )
