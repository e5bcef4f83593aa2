"""Fleet topology: the tile grid, per-tile configs, and shard partitioning.

A fleet is a ``tiles_x × tiles_y`` grid of square tiles, each a
self-contained instance of the paper's offloading problem: its own SCNs
(``scns_per_tile`` on a grid inside the tile), its own WD population, its
own hidden ground truth, and its own learner.  Tiles couple only through
WDs crossing tile borders (the ``"mobility"`` coverage), which is exactly
the state the driver exchanges between shards at round boundaries.

:class:`FleetConfig` is the single declarative description; everything a
worker process needs rebuilds deterministically from ``(config, tile)`` —
the per-tile :class:`~repro.experiments.runner.ExperimentConfig` carries
the tile's own truth seed from :func:`repro.utils.rng.fleet_seed`, so a
tile's trajectory never depends on the shard count or which worker ran it.

:func:`partition_tiles` groups tiles into contiguous, balanced shards.
Contiguity matters only for locality of the border exchange; correctness
never depends on the grouping — any partition yields bit-identical series.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.runner import ExperimentConfig
from repro.utils.rng import fleet_seed
from repro.utils.validation import check_positive, require

__all__ = ["FleetConfig", "partition_tiles"]


@dataclass(frozen=True)
class FleetConfig:
    """Declarative description of one metro-scale fleet run.

    Parameters
    ----------
    tiles_x, tiles_y:
        Tile grid dimensions; ``num_tiles = tiles_x · tiles_y``.
    scns_per_tile:
        SCNs per tile, placed on the most-square grid inside the tile.
    capacity, alpha, beta:
        The ILP (1) constraint constants, per SCN (identical across tiles).
    coverage:
        ``"mobility"`` — WDs random-waypoint inside the tile with **open
        interior borders** (:class:`repro.fleet.mobility.BorderMobility`);
        tiles couple and the driver runs the border exchange.
        ``"sampler"`` — the paper's direct
        :class:`~repro.env.geometry.CoverageSampler` per tile; tiles are
        provably independent and the driver takes the no-exchange fast path.
    wds_per_tile:
        Initial WD population per tile (mobility coverage only).
    tile_km, radius_km, speed_km:
        Tile side length, SCN coverage radius, and maximum per-slot WD step
        (mobility coverage only).
    k_min, k_max, overlap:
        Coverage-sampler parameters (sampler coverage only).
    dims, parts, cells_per_dim:
        Learner context-partition / ground-truth grid resolution.
    horizon:
        Slots to simulate.
    seed, truth_seed:
        Fleet-level roots; tile ``k`` derives its own streams from
        ``fleet_seed_sequence(seed, k)`` and its own truth tables from
        ``fleet_seed(truth_seed, k)`` (stream contract v2 extension).
    policy:
        Per-tile policy name (``make_policy`` line-up; default LFSC).
    window:
        Slot-streaming window override (``None`` — simulator default).
    exchange_every:
        Border-exchange round length in slots (mobility coverage).  WDs that
        wandered across a border are handed to the neighbouring tile at the
        next round boundary; until then the home tile keeps serving them.
    mbs_capacity:
        Per-tile MBS fallback tier admission limit (0 disables the tier).
    mbs_reward_factor, mbs_completion_prob:
        MBS tier parameters (see :class:`repro.env.mbs.MBSFallback`).
    validate_assignments:
        Check every assignment against (1a)/(1b)/coverage (default True).
    """

    tiles_x: int = 2
    tiles_y: int = 2
    scns_per_tile: int = 8
    capacity: int = 6
    alpha: float = 4.5
    beta: float = 8.1
    coverage: str = "mobility"
    # Mobility coverage.
    wds_per_tile: int = 120
    tile_km: float = 4.0
    radius_km: float = 1.2
    speed_km: float = 0.15
    # Sampler coverage.
    k_min: int = 10
    k_max: int = 30
    overlap: float = 2.0
    # Learner / truth resolution.
    dims: int = 3
    parts: int = 2
    cells_per_dim: int = 2
    # Run control.
    horizon: int = 200
    seed: int = 0
    truth_seed: int = 7
    policy: str = "LFSC"
    window: int | None = None
    exchange_every: int = 16
    # MBS tier.
    mbs_capacity: int = 0
    mbs_reward_factor: float = 0.5
    mbs_completion_prob: float = 0.95
    validate_assignments: bool = True

    def __post_init__(self) -> None:
        check_positive("tiles_x", self.tiles_x)
        check_positive("tiles_y", self.tiles_y)
        check_positive("scns_per_tile", self.scns_per_tile)
        check_positive("horizon", self.horizon)
        check_positive("exchange_every", self.exchange_every)
        check_positive("mbs_capacity", self.mbs_capacity, strict=False)
        require(
            self.coverage in ("mobility", "sampler"),
            f"coverage must be 'mobility' or 'sampler', got {self.coverage!r}",
        )
        if self.window is not None and self.window < 0:
            raise ValueError(f"window must be >= 0, got {self.window}")
        if self.coverage == "mobility":
            check_positive("wds_per_tile", self.wds_per_tile)
            check_positive("tile_km", self.tile_km)
            check_positive("radius_km", self.radius_km)
            check_positive("speed_km", self.speed_km, strict=False)
            # A WD must not cross more than one border between exchanges:
            # migrants are routed to the 8-neighbourhood only.
            require(
                self.exchange_every * self.speed_km < self.tile_km,
                "exchange_every·speed_km must stay below tile_km "
                f"({self.exchange_every}·{self.speed_km} >= {self.tile_km}): "
                "a WD could cross two tiles between exchanges",
            )

    def with_overrides(self, **changes) -> "FleetConfig":
        return replace(self, **changes)

    # -- grid geometry --------------------------------------------------------

    @property
    def num_tiles(self) -> int:
        return self.tiles_x * self.tiles_y

    @property
    def num_scns(self) -> int:
        """Total SCN count across the fleet."""
        return self.num_tiles * self.scns_per_tile

    @property
    def independent(self) -> bool:
        """True when tiles provably never couple (no border exchange needed)."""
        return self.coverage == "sampler"

    def tile_coords(self, tile: int) -> tuple[int, int]:
        """Tile index → ``(tx, ty)`` grid coordinates (row-major)."""
        if not 0 <= tile < self.num_tiles:
            raise ValueError(f"tile {tile} outside grid of {self.num_tiles}")
        return tile % self.tiles_x, tile // self.tiles_x

    def tile_index(self, tx: int, ty: int) -> int:
        """``(tx, ty)`` grid coordinates → tile index (row-major)."""
        require(
            0 <= tx < self.tiles_x and 0 <= ty < self.tiles_y,
            f"tile coords ({tx}, {ty}) outside {self.tiles_x}x{self.tiles_y} grid",
        )
        return ty * self.tiles_x + tx

    def neighbor(self, tile: int, dx: int, dy: int) -> int | None:
        """The tile one step in direction ``(dx, dy)``, or None at a metro edge."""
        tx, ty = self.tile_coords(tile)
        nx, ny = tx + dx, ty + dy
        if 0 <= nx < self.tiles_x and 0 <= ny < self.tiles_y:
            return ny * self.tiles_x + nx
        return None

    def open_edges(self, tile: int) -> tuple[bool, bool, bool, bool]:
        """Which of the tile's borders have a neighbour: (left, right, down, up).

        Open borders let WDs wander out (pending handover); closed ones —
        the metro boundary — reflect, exactly like the single-area models.
        """
        return (
            self.neighbor(tile, -1, 0) is not None,
            self.neighbor(tile, +1, 0) is not None,
            self.neighbor(tile, 0, -1) is not None,
            self.neighbor(tile, 0, +1) is not None,
        )

    # -- per-tile derived configs ----------------------------------------------

    def tile_config(self, tile: int) -> ExperimentConfig:
        """The tile's own :class:`ExperimentConfig` — a pure function of
        ``(fleet config, tile)``.

        The tile's truth seed comes from the fleet namespace, so every tile
        owns independent ground-truth tables; ``k_max`` (which drives the
        Theorem 1 learning-rate schedule) is the sampler bound or, for
        mobility, the tile's WD population — a fixed constant, so the
        schedule never depends on realized migration.
        """
        if self.coverage == "mobility":
            k_min, k_max = 1, self.wds_per_tile
        else:
            k_min, k_max = self.k_min, self.k_max
        return ExperimentConfig(
            num_scns=self.scns_per_tile,
            capacity=self.capacity,
            alpha=self.alpha,
            beta=self.beta,
            k_min=k_min,
            k_max=k_max,
            overlap=self.overlap,
            cells_per_dim=self.cells_per_dim,
            dims=self.dims,
            parts=self.parts,
            horizon=self.horizon,
            seed=self.seed,
            truth_seed=fleet_seed(self.truth_seed, tile),
            window=self.window,
            # Tiles are stepped incrementally by the driver; the cross-run
            # window cache assumes a whole-run lifecycle, so stand it down.
            shared_window=False,
        )


def partition_tiles(num_tiles: int, shards: int) -> tuple[tuple[int, ...], ...]:
    """Group ``num_tiles`` tile indices into ``shards`` contiguous groups.

    Sizes are balanced (they differ by at most one); requesting more shards
    than tiles yields one tile per shard.  The grouping only affects which
    worker steps which tile — never the trajectories (bit-identity holds for
    any partition).
    """
    check_positive("num_tiles", num_tiles)
    check_positive("shards", shards)
    shards = min(shards, num_tiles)
    base, rem = divmod(num_tiles, shards)
    groups: list[tuple[int, ...]] = []
    start = 0
    for s in range(shards):
        size = base + (1 if s < rem else 0)
        groups.append(tuple(range(start, start + size)))
        start += size
    return tuple(groups)
