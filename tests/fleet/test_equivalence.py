"""The fleet's headline guarantee: sharded ≡ unsharded, bit for bit.

Per-tile trajectories are pure functions of ``(FleetConfig, tile)`` — the
shard count, execution mode, and slot-streaming window only change *who*
steps a tile and in what batches, never what it computes.  These tests pin
that across shard counts {1, 2, 4}, windowed and per-slot streaming, serial
and process modes, and the sampler fast path.
"""

import numpy as np
import pytest

import repro.fleet.tile as fleet_tile
from repro.fleet import FleetConfig, fleet_series_equal, run_fleet
from repro.utils.parallel import process_pool_supported
from tests.core.reference_lfsc import ReferenceLFSCPolicy

needs_procs = pytest.mark.skipif(
    not process_pool_supported(), reason="no process pools on host"
)


def _cfg(**overrides):
    base = dict(
        tiles_x=2,
        tiles_y=2,
        scns_per_tile=3,
        wds_per_tile=12,
        horizon=16,
        exchange_every=4,
        seed=0,
        truth_seed=7,
    )
    base.update(overrides)
    return FleetConfig(**base)


class TestShardInvariance:
    # The ids keep the "-batched" suffix of the retired slot-engine axis.
    @pytest.mark.parametrize("window", [None, 8, 0], ids=lambda w: f"{w}-batched")
    def test_shard_counts_bit_identical(self, window):
        cfg = _cfg(window=window)
        ref = run_fleet(cfg, shards=1, mode="serial")
        for shards in (2, 4):
            res = run_fleet(cfg, shards=shards, mode="serial")
            assert res.shards == shards
            assert fleet_series_equal(res, ref), f"window={window} shards={shards}"

    def test_mobility_run_actually_migrates(self):
        res = run_fleet(_cfg(), shards=2, mode="serial")
        assert res.migrants > 0, "exchange untested: no WD crossed a border"
        assert res.rounds == 4

    @needs_procs
    def test_process_mode_equals_serial(self):
        cfg = _cfg()
        serial = run_fleet(cfg, shards=2, mode="serial")
        procs = run_fleet(cfg, shards=2, mode="process")
        assert procs.mode == "process"
        assert fleet_series_equal(procs, serial)
        assert procs.migrants == serial.migrants

    @needs_procs
    def test_process_mode_uneven_partition(self):
        cfg = _cfg(tiles_x=3, tiles_y=1)
        ref = run_fleet(cfg, shards=1, mode="serial")
        res = run_fleet(cfg, shards=2, mode="process")
        assert [len(g) for g in res.groups] == [2, 1]
        assert fleet_series_equal(res, ref)

    def test_engines_agree_on_trajectory(self, monkeypatch):
        """The per-SCN oracle walks every tile's trajectory bit for bit."""
        # Capacity below the coverage so DepRound samples and weights move.
        cfg = _cfg(window=0, capacity=2, alpha=1.5, beta=2.7)
        a = run_fleet(cfg, shards=1, mode="serial")
        monkeypatch.setattr(
            fleet_tile,
            "make_policy",
            lambda name, tile_cfg, truth: ReferenceLFSCPolicy(tile_cfg.lfsc_config()),
        )
        b = run_fleet(cfg, shards=1, mode="serial")
        assert fleet_series_equal(a, b)


class TestIndependenceFastPath:
    def test_sampler_takes_single_round(self):
        cfg = _cfg(coverage="sampler")
        res = run_fleet(cfg, shards=2, mode="serial")
        assert res.independent
        assert res.rounds == 1 and res.migrants == 0

    def test_sampler_still_shard_invariant(self):
        cfg = _cfg(coverage="sampler")
        ref = run_fleet(cfg, shards=1, mode="serial")
        for shards in (2, 4):
            assert fleet_series_equal(run_fleet(cfg, shards=shards, mode="serial"), ref)

    def test_mobility_is_not_independent(self):
        res = run_fleet(_cfg(), shards=1, mode="serial")
        assert not res.independent


class TestResultSurface:
    def test_result_shape_and_counters(self):
        cfg = _cfg()
        res = run_fleet(cfg, shards=2, mode="serial")
        assert len(res.tile_series) == cfg.num_tiles
        for series in res.tile_series:
            assert len(series["reward"]) == cfg.horizon
            assert series["assigned"].dtype == np.int64
        assert res.decisions == sum(int(s["assigned"].sum()) for s in res.tile_series)
        assert res.decisions_per_min > 0
        assert res.total_reward == pytest.approx(
            sum(float(s["reward"].sum()) for s in res.tile_series)
        )

    def test_latency_rows_one_per_shard(self):
        cfg = _cfg()
        res = run_fleet(cfg, shards=2, mode="serial")
        rows = res.latency_rows()
        assert [r["shard"] for r in rows] == [0, 1]
        for row in rows:
            assert row["count"] == 2 * cfg.horizon  # two tiles per shard
            assert 0.0 <= row["p50_ms"] <= row["p99_ms"]

    def test_seed_changes_trajectory(self):
        a = run_fleet(_cfg(), shards=1, mode="serial")
        b = run_fleet(_cfg(seed=1), shards=1, mode="serial")
        assert not fleet_series_equal(a, b)

    def test_mbs_tier_records_series(self):
        res = run_fleet(_cfg(mbs_capacity=4), shards=1, mode="serial")
        assert all("mbs_reward" in s for s in res.tile_series)

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_fleet(_cfg(), shards=2, mode="carrier-pigeon")


class TestApiFacade:
    def test_run_fleet_facade_with_verify(self):
        from repro import api

        res = api.run_fleet(
            tiles_x=2,
            tiles_y=1,
            scns_per_tile=3,
            wds_per_tile=12,
            horizon=8,
            exchange_every=4,
            shards=2,
            mode="serial",
            verify=True,
        )
        assert res.shards == 2

    def test_run_fleet_facade_overrides_config(self):
        from repro import api

        cfg = _cfg()
        res = api.run_fleet(cfg, horizon=8, shards=1, mode="serial")
        assert res.config.horizon == 8
