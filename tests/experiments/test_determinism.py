"""Serial vs. process-parallel equivalence — the harness's core guarantee.

``run_replications(workers=0)`` (parallel by default) must produce
bit-identical per-seed ``SimulationResult`` arrays to ``workers=1`` (serial)
and to any explicit pool size, for LFSC in both assignment modes, and for
the baseline policies.  CI runs this suite with
``REPRO_TEST_WORKERS=2`` so the pool path is exercised even where
``workers=0`` falls back to serial (single-core runners).
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.experiments.replication import run_replications
from repro.experiments.runner import ExperimentConfig, run_experiment

#: Explicit pool size for the forced-parallel leg (CI sets 2).
POOL_WORKERS = int(os.environ.get("REPRO_TEST_WORKERS", "2"))

CFG = ExperimentConfig.tiny(horizon=30)

#: Arrays compared bit-for-bit between serial and parallel replications.
_SERIES = (
    "reward",
    "expected_reward",
    "completed",
    "consumption",
    "accepted",
    "violation_qos",
    "violation_resource",
    "violation_qos_realized",
    "violation_resource_realized",
)


def assert_runs_identical(a, b) -> None:
    """Element-wise equality of two run_replications outputs."""
    assert len(a) == len(b)
    for run_a, run_b in zip(a, b):
        assert run_a.index == run_b.index
        assert run_a.seed == run_b.seed
        assert set(run_a.results) == set(run_b.results)
        for name in run_a.results:
            ra, rb = run_a.results[name], run_b.results[name]
            for series in _SERIES:
                np.testing.assert_array_equal(
                    getattr(ra, series),
                    getattr(rb, series),
                    err_msg=f"{name}.{series} diverged for seed {run_a.seed}",
                )


def _mode_cfg(mode: str) -> ExperimentConfig:
    return CFG.with_lfsc_overrides(assignment_mode=mode)


# The ids keep the "-batched" suffix of the retired slot-engine axis.
@pytest.mark.parametrize(
    "mode", ("deterministic", "depround"), ids=lambda mode: f"{mode}-batched"
)
class TestLFSCEngineEquivalence:
    def test_default_parallel_equals_serial(self, mode):
        cfg = _mode_cfg(mode)
        parallel = run_replications(cfg, ("LFSC",), seeds=3, workers=0)
        serial = run_replications(cfg, ("LFSC",), seeds=3, workers=1)
        assert_runs_identical(parallel, serial)

    def test_forced_pool_equals_serial(self, mode):
        # Explicit n >= 2 always uses a real process pool, so this leg
        # proves cross-process determinism even on single-core hosts.
        cfg = _mode_cfg(mode)
        pooled = run_replications(cfg, ("LFSC",), seeds=3, workers=POOL_WORKERS)
        serial = run_replications(cfg, ("LFSC",), seeds=3, workers=1)
        assert_runs_identical(pooled, serial)


class TestBaselineEquivalence:
    POLICIES = ("Oracle", "vUCB", "FML", "Random")

    def test_parallel_equals_serial_all_baselines(self):
        parallel = run_replications(CFG, self.POLICIES, seeds=2, workers=POOL_WORKERS)
        serial = run_replications(CFG, self.POLICIES, seeds=2, workers=1)
        assert_runs_identical(parallel, serial)

    def test_explicit_seed_list_equivalence(self):
        seeds = [11, 12, 13]
        parallel = run_replications(CFG, ("Random",), seeds=seeds, workers=POOL_WORKERS)
        serial = run_replications(CFG, ("Random",), seeds=seeds, workers=1)
        assert [r.seed for r in parallel] == seeds
        assert_runs_identical(parallel, serial)


class TestSchedulingIndependence:
    def test_chunking_cannot_reorder_results(self):
        # Same sweep through 1-item and 2-item chunks: identical output.
        a = run_replications(CFG, ("Random",), seeds=4, workers=POOL_WORKERS)
        b = run_replications(CFG, ("Random",), seeds=4, workers=1)
        assert_runs_identical(a, b)
        assert [r.index for r in a] == [0, 1, 2, 3]

    def test_worker_count_does_not_change_seeds(self):
        for workers in (1, POOL_WORKERS):
            runs = run_replications(CFG, ("Random",), seeds=3, workers=workers)
            assert [r.seed for r in runs] == [
                13046892107959339253,
                12439981908815758231,
                12865545366157553917,
            ]

    def test_run_experiment_parallel_equals_serial(self):
        # The per-experiment fan-out (across policies) obeys the same law.
        serial = run_experiment(CFG, ("Random", "vUCB"), workers=1)
        pooled = run_experiment(CFG, ("Random", "vUCB"), workers=POOL_WORKERS)
        for name in serial:
            np.testing.assert_array_equal(serial[name].reward, pooled[name].reward)
