"""Fleet topology: grid geometry, tile partitioning, per-tile configs."""

import pytest

from repro.fleet import FleetConfig, partition_tiles
from repro.utils.rng import fleet_seed


class TestPartitionTiles:
    def test_balanced_contiguous_groups(self):
        groups = partition_tiles(7, 3)
        assert groups == ((0, 1, 2), (3, 4), (5, 6))

    def test_even_split(self):
        assert partition_tiles(8, 4) == ((0, 1), (2, 3), (4, 5), (6, 7))

    def test_shards_clamped_to_tiles(self):
        groups = partition_tiles(2, 8)
        assert groups == ((0,), (1,))

    def test_single_shard_gets_everything(self):
        assert partition_tiles(5, 1) == ((0, 1, 2, 3, 4),)

    def test_covers_every_tile_exactly_once(self):
        for tiles, shards in [(13, 4), (4, 4), (100, 7)]:
            groups = partition_tiles(tiles, shards)
            flat = [t for g in groups for t in g]
            assert flat == list(range(tiles))
            sizes = [len(g) for g in groups]
            assert max(sizes) - min(sizes) <= 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            partition_tiles(0, 1)
        with pytest.raises(ValueError):
            partition_tiles(4, 0)


class TestGridGeometry:
    def test_coords_index_round_trip(self):
        cfg = FleetConfig(tiles_x=3, tiles_y=2)
        for tile in range(cfg.num_tiles):
            tx, ty = cfg.tile_coords(tile)
            assert cfg.tile_index(tx, ty) == tile

    def test_neighbor_row_major(self):
        cfg = FleetConfig(tiles_x=3, tiles_y=2)
        assert cfg.neighbor(0, +1, 0) == 1
        assert cfg.neighbor(0, 0, +1) == 3
        assert cfg.neighbor(4, -1, -1) == 0
        # Metro edges have no neighbour.
        assert cfg.neighbor(0, -1, 0) is None
        assert cfg.neighbor(0, 0, -1) is None
        assert cfg.neighbor(5, +1, 0) is None

    def test_open_edges(self):
        cfg = FleetConfig(tiles_x=3, tiles_y=2)
        # Corner tile 0: only right and up are interior borders.
        assert cfg.open_edges(0) == (False, True, False, True)
        # Middle-of-row tile 4: left, right, down open; top is the edge.
        assert cfg.open_edges(4) == (True, True, True, False)

    def test_coords_out_of_range(self):
        cfg = FleetConfig(tiles_x=2, tiles_y=2)
        with pytest.raises(ValueError):
            cfg.tile_coords(4)
        with pytest.raises(ValueError):
            cfg.tile_index(2, 0)

    def test_counts(self):
        cfg = FleetConfig(tiles_x=4, tiles_y=3, scns_per_tile=8)
        assert cfg.num_tiles == 12
        assert cfg.num_scns == 96


class TestConfigValidation:
    def test_exchange_speed_constraint(self):
        with pytest.raises(ValueError, match="exchange_every"):
            FleetConfig(exchange_every=100, speed_km=0.15, tile_km=4.0)

    def test_defaults_are_self_consistent(self):
        cfg = FleetConfig()
        assert cfg.exchange_every * cfg.speed_km < cfg.tile_km

    def test_bad_coverage(self):
        with pytest.raises(ValueError, match="coverage"):
            FleetConfig(coverage="teleport")

    def test_negative_window(self):
        with pytest.raises(ValueError, match="window"):
            FleetConfig(window=-1)

    def test_negative_mbs_capacity(self):
        # 0 disables the MBS tier; a negative capacity is an input error,
        # not another way to switch the tier off.
        with pytest.raises(ValueError, match="mbs_capacity"):
            FleetConfig(mbs_capacity=-1)
        assert FleetConfig(mbs_capacity=0).mbs_capacity == 0

    def test_sampler_skips_mobility_constraint(self):
        cfg = FleetConfig(coverage="sampler", exchange_every=100)
        assert cfg.independent

    def test_with_overrides_revalidates(self):
        cfg = FleetConfig()
        with pytest.raises(ValueError):
            cfg.with_overrides(exchange_every=1000)


class TestTileConfig:
    def test_mobility_coverage_bounds(self):
        cfg = FleetConfig(wds_per_tile=50)
        tc = cfg.tile_config(0)
        # Theorem 1's schedule uses a fixed bound, never realized migration.
        assert tc.k_min == 1 and tc.k_max == 50

    def test_sampler_coverage_bounds(self):
        cfg = FleetConfig(coverage="sampler", k_min=5, k_max=12)
        tc = cfg.tile_config(0)
        assert tc.k_min == 5 and tc.k_max == 12

    def test_per_tile_truth_seeds_differ(self):
        cfg = FleetConfig()
        seeds = {cfg.tile_config(t).truth_seed for t in range(cfg.num_tiles)}
        assert len(seeds) == cfg.num_tiles
        assert seeds == {fleet_seed(cfg.truth_seed, t) for t in range(cfg.num_tiles)}

    def test_cross_run_caches_stood_down(self):
        tc = FleetConfig().tile_config(0)
        assert tc.shared_window is False

    def test_pure_function_of_config_and_tile(self):
        cfg = FleetConfig()
        assert cfg.tile_config(3) == cfg.tile_config(3)
