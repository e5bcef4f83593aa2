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

import numpy as np
import pytest

from repro.core.lfsc import LFSCPolicy
from repro.env.simulator import DEFAULT_WINDOW, effective_window
from repro.env.window import PrecomputedSlot, precompute_window
from repro.experiments.runner import (
    ExperimentConfig,
    build_simulation,
    build_truth,
    build_workload,
)

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
