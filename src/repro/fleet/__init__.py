"""Fleet-scale sharded simulation: metro-scale SCN networks across processes.

The paper evaluates 30 SCNs; the ROADMAP north star asks for thousands.
Coverage is *local* — a WD only ever sees nearby SCNs — so a metro-scale
network decomposes into geographic **tiles** that couple only through WDs
crossing tile borders.  This package exploits that structure (DESIGN.md
§12):

- :mod:`repro.fleet.topology` — :class:`FleetConfig` declares the tile
  grid (``tiles_x × tiles_y``, SCNs/WDs per tile, per-tile MBS fallback
  tier) and :func:`partition_tiles` groups tiles into shards;
- :mod:`repro.fleet.mobility` — :class:`BorderMobility`, the open-border
  random-waypoint coverage model whose WDs may wander across tile borders
  (handed over at the next exchange round);
- :mod:`repro.fleet.tile` — :class:`TileSim`, one tile's resumable slot
  loop (windowed precompute, per-slot decision-latency recording, optional
  MBS tier);
- :mod:`repro.fleet.driver` — :func:`run_fleet`, which runs shards in
  worker processes, exchanges border-WD state per round over each shard's
  pipe, and skips the exchange entirely when the direct coverage sampler
  makes tiles provably independent.

Sharded runs are **bit-identical** to the unsharded reference at any shard
count: every tile's RNG streams derive from ``(seed, tile_index)`` alone
(:func:`repro.utils.rng.fleet_seed_sequence`), and migration is applied in
a canonical order at synchronized round boundaries.
"""

from repro.fleet.driver import FleetResult, fleet_series_equal, run_fleet
from repro.fleet.mobility import BorderMobility
from repro.fleet.tile import TileSim
from repro.fleet.topology import FleetConfig, partition_tiles

__all__ = [
    "BorderMobility",
    "FleetConfig",
    "FleetResult",
    "TileSim",
    "fleet_series_equal",
    "partition_tiles",
    "run_fleet",
]
