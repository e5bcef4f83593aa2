"""Tests for tests.env.traces — trace IO and modulated arrival models."""

import numpy as np
import pytest

from repro.env.contexts import TaskFeatureModel
from repro.env.geometry import CoverageSampler
from repro.env.workload import SyntheticWorkload, TraceWorkload
from tests.env.traces import (
    BurstyCoverageSampler,
    DiurnalCoverageSampler,
    load_trace,
    save_trace,
)


def recorded_trace(rng, n=4) -> TraceWorkload:
    wl = SyntheticWorkload(
        features=TaskFeatureModel(),
        coverage_model=CoverageSampler(num_scns=3, k_min=4, k_max=8),
    )
    return TraceWorkload.record(wl, n, rng)


class TestTraceIO:
    def test_roundtrip_contexts_and_coverage(self, rng, tmp_path):
        trace = recorded_trace(rng)
        path = save_trace(trace.slots, tmp_path / "trace.jsonl")
        loaded = load_trace(path)
        assert len(loaded) == len(trace)
        for a, b in zip(trace.slots, loaded.slots):
            np.testing.assert_allclose(a.tasks.contexts, b.tasks.contexts)
            np.testing.assert_array_equal(a.tasks.ids, b.tasks.ids)
            for ca, cb in zip(a.coverage, b.coverage):
                np.testing.assert_array_equal(ca, cb)

    def test_roundtrip_aux_fields(self, rng, tmp_path):
        trace = recorded_trace(rng)
        loaded = load_trace(save_trace(trace.slots, tmp_path / "t.jsonl"))
        first = trace.slots[0].tasks
        loaded_first = loaded.slots[0].tasks
        np.testing.assert_allclose(loaded_first.input_mbit, first.input_mbit)
        np.testing.assert_array_equal(loaded_first.resource_type, first.resource_type)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace(path)

    def test_creates_parent_dirs(self, rng, tmp_path):
        trace = recorded_trace(rng, n=1)
        path = save_trace(trace.slots, tmp_path / "a" / "b" / "t.jsonl")
        assert path.exists()

    def test_loaded_trace_usable_in_simulation(self, rng, tmp_path):
        from repro.baselines.random_policy import RandomPolicy
        from repro.env.network import NetworkConfig
        from repro.env.processes import PiecewiseConstantTruth
        from repro.env.simulator import Simulation

        trace = recorded_trace(rng, n=5)
        loaded = load_trace(save_trace(trace.slots, tmp_path / "t.jsonl"))
        sim = Simulation(
            network=NetworkConfig(num_scns=3, capacity=2, alpha=1.0, beta=3.0),
            workload=loaded,
            truth=PiecewiseConstantTruth(num_scns=3, dims=3, cells_per_dim=2, seed=0),
            seed=0,
        )
        res = sim.run(RandomPolicy(), 10)  # cycles over the 5 recorded slots
        assert res.horizon == 10


class TestDiurnalCoverageSampler:
    def test_scale_range(self):
        sampler = DiurnalCoverageSampler(num_scns=2, period=100, depth=0.6)
        scales = [sampler.scale(t) for t in range(100)]
        assert min(scales) == pytest.approx(0.4, abs=1e-9)
        assert max(scales) == pytest.approx(1.0, abs=1e-3)

    def test_trough_at_period_start(self):
        sampler = DiurnalCoverageSampler(period=100, depth=0.5)
        assert sampler.scale(0) == pytest.approx(0.5)
        assert sampler.scale(50) == pytest.approx(1.0)

    def test_load_varies_over_day(self, rng):
        sampler = DiurnalCoverageSampler(
            num_scns=4, k_min=20, k_max=40, period=40, depth=0.8
        )
        sizes = []
        for _ in range(40):
            _, cov = sampler.sample_slot(rng)
            sizes.append(np.mean([len(c) for c in cov]))
        # Busy hour (middle of period) clearly above the night trough.
        assert np.mean(sizes[15:25]) > 1.5 * np.mean(sizes[:5] + sizes[-5:])

    def test_reset_restarts_clock(self, rng):
        sampler = DiurnalCoverageSampler(num_scns=2, period=10)
        sampler.sample_slot(rng)
        sampler.reset()
        assert sampler._t == 0

    def test_zero_depth_is_stationary(self, rng):
        sampler = DiurnalCoverageSampler(num_scns=2, k_min=10, k_max=10, depth=0.0)
        for t in range(5):
            _, cov = sampler.sample_slot(rng)
            assert all(len(c) == 10 for c in cov)

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            DiurnalCoverageSampler(depth=1.0)


class TestBurstyCoverageSampler:
    def test_burst_raises_load(self, rng):
        sampler = BurstyCoverageSampler(
            num_scns=3, k_min=10, k_max=10, p_burst=1.0, p_calm=0.0, burst_factor=3.0
        )
        _, cov = sampler.sample_slot(rng)  # enters burst immediately
        assert sampler.bursting
        assert all(len(c) == 30 for c in cov)

    def test_calm_returns(self, rng):
        sampler = BurstyCoverageSampler(p_burst=1.0, p_calm=1.0)
        sampler.sample_slot(rng)
        assert sampler.bursting
        sampler.sample_slot(rng)
        assert not sampler.bursting

    def test_never_bursts_with_zero_prob(self, rng):
        sampler = BurstyCoverageSampler(num_scns=2, k_min=5, k_max=8, p_burst=0.0)
        for _ in range(20):
            sampler.sample_slot(rng)
        assert not sampler.bursting

    def test_max_coverage_accounts_for_bursts(self):
        sampler = BurstyCoverageSampler(k_max=100, burst_factor=2.0)
        assert sampler.max_coverage_size() == 200

    def test_invalid_factor(self):
        with pytest.raises(ValueError):
            BurstyCoverageSampler(burst_factor=0.5)
