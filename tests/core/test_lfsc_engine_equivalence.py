"""Full-run equivalence of LFSC's batched slot kernel and the per-SCN oracle.

The flat edge-list kernel of :class:`LFSCPolicy` must be indistinguishable
from the per-SCN loop of ``tests/core/reference_lfsc.py``: bit-identical
assignments, weight trajectories, multipliers, and statistics under the same
seed, in both assignment modes.  The batched kernels match the per-SCN
arithmetic to the last ulp and consume the policy RNG in the same order, so
the comparison is ``array_equal``, not ``allclose``.
"""

import numpy as np
import pytest

from repro.baselines.priority import PriorityAwareLFSC
from repro.core.adaptive import AdaptiveLFSCPolicy
from repro.core.config import LFSCConfig
from repro.core.lfsc import LFSCPolicy
from repro.experiments.runner import ExperimentConfig, build_simulation
from tests.core.reference_lfsc import (
    ReferenceAdaptiveLFSC,
    ReferenceLFSCPolicy,
    ReferencePriorityLFSC,
)


def run_oracle_and_kernel(
    exp, mode, oracle_cls=ReferenceLFSCPolicy, kernel_cls=LFSCPolicy, **overrides
):
    """(oracle, kernel) runs on the same seed; the oracle runs per slot."""
    cfg = exp.lfsc_config().with_overrides(assignment_mode=mode, **overrides)
    out = []
    for cls, window in ((oracle_cls, 0), (kernel_cls, None)):
        sim = build_simulation(exp)
        policy = cls(cfg)
        out.append((sim.run(policy, exp.horizon, window=window), policy))
    return out


def assert_identical(ref, batched):
    ref_result, ref_policy = ref
    batched_result, batched_policy = batched
    np.testing.assert_array_equal(ref_result.reward, batched_result.reward)
    np.testing.assert_array_equal(ref_result.expected_reward, batched_result.expected_reward)
    np.testing.assert_array_equal(ref_result.violation_qos, batched_result.violation_qos)
    np.testing.assert_array_equal(
        ref_result.violation_resource, batched_result.violation_resource
    )
    np.testing.assert_array_equal(ref_result.accepted, batched_result.accepted)
    np.testing.assert_array_equal(ref_policy.log_w, batched_policy.log_w)
    np.testing.assert_array_equal(ref_policy.multipliers.qos, batched_policy.multipliers.qos)
    np.testing.assert_array_equal(
        ref_policy.multipliers.resource, batched_policy.multipliers.resource
    )
    np.testing.assert_array_equal(ref_policy.stats.counts, batched_policy.stats.counts)
    np.testing.assert_array_equal(ref_policy.stats.mean_g, batched_policy.stats.mean_g)


class TestEngineEquivalence:
    @pytest.mark.parametrize("mode", ["deterministic", "depround"])
    def test_tiny_run_identical(self, mode):
        assert_identical(*run_oracle_and_kernel(ExperimentConfig.tiny(), mode))

    @pytest.mark.parametrize("mode", ["deterministic", "depround"])
    def test_small_run_identical(self, mode):
        assert_identical(*run_oracle_and_kernel(ExperimentConfig.small(), mode))

    def test_seed_sweep_depround(self):
        # The depround sampler is the RNG-heaviest path; sweep seeds to catch
        # any stream divergence between the oracle and the kernel.
        base = ExperimentConfig.tiny()
        for seed in (1, 2, 3):
            exp = base.with_overrides(seed=seed)
            assert_identical(*run_oracle_and_kernel(exp, "depround"))

    def test_adaptive_subclass_identical(self):
        assert_identical(
            *run_oracle_and_kernel(
                ExperimentConfig.tiny(), "depround", ReferenceAdaptiveLFSC, AdaptiveLFSCPolicy
            )
        )

    def test_priority_subclass_identical(self):
        assert_identical(
            *run_oracle_and_kernel(
                ExperimentConfig.tiny(), "depround", ReferencePriorityLFSC, PriorityAwareLFSC
            )
        )

    def test_no_lagrangian_identical(self):
        assert_identical(
            *run_oracle_and_kernel(ExperimentConfig.tiny(), "depround", use_lagrangian=False)
        )

    def test_engine_is_not_a_config_field(self):
        # One production slot body: the per-SCN loop is a test oracle only.
        with pytest.raises(TypeError, match="engine"):
            LFSCConfig(engine="reference")

    def test_batched_cache_exposes_reference_views(self):
        # Diagnostics and subclasses read coverage/cubes/probs off the slot
        # cache; the batched cache must serve the same per-SCN views.
        exp = ExperimentConfig.tiny()
        sim = build_simulation(exp)
        policy = LFSCPolicy(exp.lfsc_config())
        rng = np.random.default_rng(0)
        policy.reset(sim.network, 1, rng)
        slot = sim.workload.slot(0, np.random.default_rng(1))
        policy.select(slot)
        cache = policy._cache
        assert len(cache.coverage) == sim.network.num_scns
        assert len(cache.cubes) == sim.network.num_scns
        assert len(cache.probs) == sim.network.num_scns
        for m in range(sim.network.num_scns):
            assert cache.coverage[m].shape == cache.cubes[m].shape
            assert cache.probs[m].p.shape == cache.coverage[m].shape
