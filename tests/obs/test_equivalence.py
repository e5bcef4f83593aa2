"""Tracing is observational: bit-identical trajectories with obs on or off.

The acceptance bar for the observability subsystem — running LFSC under a
full tracing context (metrics registry + JSONL
recorder, sample_every=1) must produce byte-for-byte the same rewards,
violations, assignments, weight trajectories, and multipliers as running
with no context installed.  Any divergence means instrumentation touched a
policy RNG or reordered arithmetic, which would silently invalidate every
traced experiment.
"""

import numpy as np
import pytest

from repro.core.lfsc import LFSCPolicy
from repro.experiments.runner import ExperimentConfig, build_simulation
from repro.obs import observe
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import read_trace


def _run(exp, trace_path=None):
    sim = build_simulation(exp)
    policy = LFSCPolicy(exp.lfsc_config())
    if trace_path is None:
        result = sim.run(policy, exp.horizon)
    else:
        with observe(trace_path=trace_path, registry=MetricsRegistry()):
            result = sim.run(policy, exp.horizon)
    return result, policy


def _assert_bit_identical(plain, traced):
    plain_result, plain_policy = plain
    traced_result, traced_policy = traced
    np.testing.assert_array_equal(plain_result.reward, traced_result.reward)
    np.testing.assert_array_equal(
        plain_result.expected_reward, traced_result.expected_reward
    )
    np.testing.assert_array_equal(
        plain_result.violation_qos, traced_result.violation_qos
    )
    np.testing.assert_array_equal(
        plain_result.violation_resource, traced_result.violation_resource
    )
    np.testing.assert_array_equal(plain_result.accepted, traced_result.accepted)
    np.testing.assert_array_equal(plain_policy.log_w, traced_policy.log_w)
    np.testing.assert_array_equal(
        plain_policy.multipliers.qos, traced_policy.multipliers.qos
    )
    np.testing.assert_array_equal(
        plain_policy.multipliers.resource, traced_policy.multipliers.resource
    )


class TestTracingEquivalence:
    def test_trace_on_off_identical(self, tmp_path):
        exp = ExperimentConfig.tiny()
        plain = _run(exp)
        traced = _run(exp, trace_path=tmp_path / "t.jsonl")
        _assert_bit_identical(plain, traced)

    def test_trace_records_match_simulation(self, tmp_path):
        """The trace is a faithful per-slot account of the run it recorded."""
        exp = ExperimentConfig.tiny()
        path = tmp_path / "t.jsonl"
        result, _ = _run(exp, trace_path=path)
        records = read_trace(path)
        assert len(records) == exp.horizon
        assert [r["t"] for r in records] == list(range(exp.horizon))
        np.testing.assert_allclose(
            [r["reward"] for r in records], result.reward, rtol=1e-12
        )
        for r in records:
            assert r["assigned"] == sum(r["per_scn_assigned"])

    def test_seed_sweep_batched(self, tmp_path):
        # DepRound is the RNG-heaviest path — sweep seeds so any stream
        # perturbation by instrumentation shows up.
        base = ExperimentConfig.tiny()
        for seed in (1, 2, 3):
            exp = base.with_overrides(seed=seed)
            plain = _run(exp)
            traced = _run(exp, trace_path=tmp_path / f"s{seed}.jsonl")
            _assert_bit_identical(plain, traced)

    def test_metrics_only_context_identical(self):
        """The bench's 'tracing disabled' state: context with no recorder."""
        exp = ExperimentConfig.tiny()
        plain = _run(exp)
        sim = build_simulation(exp)
        policy = LFSCPolicy(exp.lfsc_config())
        with observe(registry=MetricsRegistry()):
            result = sim.run(policy, exp.horizon)
        _assert_bit_identical(plain, (result, policy))


# -- the other two drivers of the slot kernel ----------------------------------

#: Trace-record fields every driver writes from the shared slot kernel.
RECORD_FIELDS = (
    "t",
    "policy",
    "assigned",
    "per_scn_assigned",
    "reward",
    "expected_reward",
    "violation_qos",
    "violation_resource",
    "multipliers_qos",
    "multipliers_resource",
)


def _session(exp, trace_path=None):
    from repro.service import OnlineSession

    session = OnlineSession(exp)
    if trace_path is None:
        session.run()
    else:
        with observe(trace_path=trace_path, registry=MetricsRegistry()):
            session.run()
    return session.result(), session.policy


def _fleet(cfg, traced):
    from repro.fleet import run_fleet

    if not traced:
        return run_fleet(cfg, shards=2, mode="serial")
    with observe(registry=MetricsRegistry()):
        return run_fleet(cfg, shards=2, mode="serial")


class TestKernelDrivers:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_session_trace_on_off_identical(self, seed, tmp_path):
        exp = ExperimentConfig.tiny(seed=seed)
        plain = _session(exp)
        traced = _session(exp, trace_path=tmp_path / "session.jsonl")
        _assert_bit_identical(plain, traced)

    @pytest.mark.parametrize("window", [None, 0])
    def test_tile_trace_on_off_identical(self, window):
        from repro.fleet import FleetConfig, fleet_series_equal

        cfg = FleetConfig(
            tiles_x=2, tiles_y=1, scns_per_tile=3, wds_per_tile=12, horizon=12,
            exchange_every=4, window=window, mbs_capacity=2,
        )
        plain = _fleet(cfg, traced=False)
        traced = _fleet(cfg, traced=True)
        assert fleet_series_equal(plain, traced)
        assert plain.migrants == traced.migrants
        assert [r["count"] for r in plain.latency_rows()] == [
            r["count"] for r in traced.latency_rows()
        ]

    def test_tile_emits_the_sim_taxonomy(self):
        from repro.fleet import FleetConfig, TileSim

        cfg = FleetConfig(tiles_x=1, tiles_y=1, scns_per_tile=3, wds_per_tile=12,
                          horizon=4, exchange_every=4)
        sim = TileSim(cfg, 0)
        registry = MetricsRegistry()
        with observe(registry=registry) as ctx:
            sim.run_slots(4)
            record = ctx.last_record
        assert record["t"] == 3
        assert record["assigned"] == int(sim.series()["assigned"][3])
        assert {"sim.select", "sim.update", "sim.window.step"} <= set(record["spans"])

    def test_session_records_match_per_slot_simulation(self, tmp_path):
        """A served run's trace is the batch ``window=0`` run's, field by field."""
        from repro.experiments.runner import make_policy

        exp = ExperimentConfig.tiny(seed=2)
        session_path = tmp_path / "session.jsonl"
        _session(exp, trace_path=session_path)
        sim_path = tmp_path / "sim.jsonl"
        sim = build_simulation(exp)
        with observe(trace_path=sim_path, registry=MetricsRegistry()):
            sim.run(make_policy("LFSC", exp, sim.truth), exp.horizon, window=0)
        served, batch = read_trace(session_path), read_trace(sim_path)
        assert len(served) == len(batch) == exp.horizon
        for a, b in zip(served, batch):
            for name in RECORD_FIELDS:
                assert a[name] == b[name], (a["t"], name)
        assert "service.decide" in served[1]["spans"]
        assert "sim.select" in served[1]["spans"]
