"""SCN/WD placement, coverage sets, and mobility (paper §3.1, Fig. 1).

The learner only ever sees, per slot t, the coverage sets D_{m,t}: which
tasks lie inside each small-cell node's coverage area.  Two coverage models
are provided:

- :class:`CoverageSampler` matches the paper's evaluation setup directly: the
  number of WDs appearing in each SCN's coverage area "varies randomly in
  interval [35, 100] in each time slot", with tasks drawn from a shared pool
  so that a WD may be covered by multiple SCNs (overlap is a parameter).
- :class:`GeometricCoverage` implements the physical picture of Fig. 1: SCNs
  on a grid over a service area, WDs moving by a random-waypoint process, and
  coverage = "within radius r".  This model produces spatially correlated
  overlap and is used by the mobility example and property tests.

Both return, per slot, the number of tasks n_t and a list of M integer index
arrays (the coverage sets).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_positive, require

__all__ = [
    "CoverageModel",
    "CoverageSampler",
    "GeometricCoverage",
    "TrajectoryMobility",
    "random_waypoint_step",
]


class CoverageModel(ABC):
    """Produces per-slot coverage sets D_{m,t}."""

    #: number of SCNs M
    num_scns: int

    @abstractmethod
    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        """Sample one slot's coverage.

        Returns
        -------
        (n_tasks, coverage):
            ``n_tasks`` is the total number of distinct tasks in the network
            this slot; ``coverage[m]`` is a sorted int array of task indices
            in ``range(n_tasks)`` that SCN ``m`` covers.
        """

    def max_coverage_size(self) -> int:
        """Upper bound K_m on |D_{m,t}| (needed by learning-rate formulae)."""
        raise NotImplementedError


@dataclass
class CoverageSampler(CoverageModel):
    """Direct coverage sampler matching the paper's evaluation (§5).

    Each slot, SCN m draws |D_{m,t}| ~ UniformInt[k_min, k_max] and fills its
    coverage set by sampling without replacement from a global task pool.
    The pool size is ``round(sum_m |D_{m,t}| / overlap)`` so a task is covered
    by ``overlap`` SCNs on average (subject to the pool being at least as
    large as the largest single coverage set).

    Parameters
    ----------
    num_scns:
        Number of SCNs M (paper: 30).
    k_min, k_max:
        Range of per-SCN coverage sizes (paper: 35, 100).
    overlap:
        Mean number of SCNs covering one task; must be >= 1.  ``overlap=1``
        makes coverage sets disjoint in expectation.
    """

    num_scns: int = 30
    k_min: int = 35
    k_max: int = 100
    overlap: float = 2.0

    def __post_init__(self) -> None:
        check_positive("num_scns", self.num_scns)
        require(0 < self.k_min <= self.k_max, f"need 0 < k_min <= k_max, got ({self.k_min}, {self.k_max})")
        require(self.overlap >= 1.0, f"overlap must be >= 1, got {self.overlap}")

    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        sizes = rng.integers(self.k_min, self.k_max + 1, size=self.num_scns)
        n_tasks = max(int(round(sizes.sum() / self.overlap)), int(sizes.max()))
        # Deferred: the repro.core package imports repro.env.
        from repro.core import native

        # One native call replays every SCN's rng.choice on the same stream
        # (bit-identical sets, same stream position); None means fall back.
        coverage = native.cover_draw(rng, n_tasks, sizes)
        if coverage is None:
            coverage = [
                np.sort(rng.choice(n_tasks, size=int(k), replace=False)) for k in sizes
            ]
        return n_tasks, coverage

    def max_coverage_size(self) -> int:
        return self.k_max


@dataclass
class GeometricCoverage(CoverageModel):
    """Physical coverage: SCNs on a grid, WDs moving in the service area.

    Parameters
    ----------
    num_scns:
        Number of SCNs; placed on the most-square grid covering the area.
    num_wds:
        Number of wireless devices, each submitting one task per slot.
    area_km:
        Side length of the square service area in km.
    radius_km:
        Coverage radius of a SCN in km (paper §1: small cells cover up to
        ~2 km; dense urban deployments are much smaller).
    speed_km:
        Maximum per-slot WD displacement (random-waypoint step size).
    """

    num_scns: int = 30
    num_wds: int = 900
    area_km: float = 10.0
    radius_km: float = 2.0
    speed_km: float = 0.25

    def __post_init__(self) -> None:
        check_positive("num_scns", self.num_scns)
        check_positive("num_wds", self.num_wds)
        check_positive("area_km", self.area_km)
        check_positive("radius_km", self.radius_km)
        check_positive("speed_km", self.speed_km, strict=False)
        self._scn_xy = _grid_positions(self.num_scns, self.area_km)
        self._wd_xy: np.ndarray | None = None

    @property
    def scn_positions(self) -> np.ndarray:
        """``(M, 2)`` SCN coordinates in km."""
        return self._scn_xy.copy()

    @property
    def wd_positions(self) -> np.ndarray | None:
        """Current ``(num_wds, 2)`` WD coordinates (None before first slot)."""
        return None if self._wd_xy is None else self._wd_xy.copy()

    def reset(self) -> None:
        """Forget WD positions; the next slot re-initializes them uniformly."""
        self._wd_xy = None

    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        if self._wd_xy is None:
            self._wd_xy = rng.uniform(0.0, self.area_km, size=(self.num_wds, 2))
        else:
            self._wd_xy = random_waypoint_step(
                self._wd_xy, self.speed_km, self.area_km, rng
            )
        # Pairwise squared distances SCN x WD, vectorized via broadcasting.
        diff = self._scn_xy[:, None, :] - self._wd_xy[None, :, :]
        within = np.einsum("mnd,mnd->mn", diff, diff) <= self.radius_km**2
        coverage = [np.flatnonzero(within[m]) for m in range(self.num_scns)]
        return self.num_wds, coverage

    def max_coverage_size(self) -> int:
        return self.num_wds

    # -- checkpoint hooks (repro-checkpoint/v1, DESIGN.md §10) ---------------

    def state_dict(self) -> dict:
        """Mobility state beyond what ``reset`` rebuilds (WD positions)."""
        if self._wd_xy is None:
            return {"initialized": 0}
        return {"initialized": 1, "wd_xy": self._wd_xy.copy()}

    def restore_state(self, state: dict) -> None:
        if int(state.get("initialized", 0)):
            self._wd_xy = np.asarray(state["wd_xy"], dtype=float).copy()
        else:
            self._wd_xy = None


@dataclass
class TrajectoryMobility(CoverageModel):
    """Vehicular mobility: WDs ride a Manhattan road grid past grid SCNs.

    The service area carries ``roads_per_axis`` horizontal and vertical
    roads (evenly spaced lines); each vehicle occupies one road, moves along
    it at a per-vehicle constant speed, and at every slot may turn onto the
    nearest crossing road with probability ``turn_prob``.  Roads wrap around
    the area (torus), so the fleet density stays stationary while individual
    vehicles sweep through SCN coverage discs quickly — the fast-handover
    regime that stresses an adaptive context partition.

    Per-slot RNG draws are *fixed-count* (two vectorized draws per step,
    five at initialization) regardless of which vehicles turn, keeping the
    stream layout independent of the trajectory realization.

    Parameters
    ----------
    num_scns:
        Number of SCNs; placed on the most-square grid covering the area.
    num_vehicles:
        Number of vehicles, each submitting one task per slot.
    area_km:
        Side length of the square service area in km.
    radius_km:
        SCN coverage radius in km.
    roads_per_axis:
        Horizontal and vertical road count (>= 1 each).
    speed_min_km, speed_max_km:
        Per-vehicle constant speed range in km per slot.
    turn_prob:
        Per-slot probability a vehicle turns at the nearest intersection.
    """

    num_scns: int = 30
    num_vehicles: int = 600
    area_km: float = 10.0
    radius_km: float = 2.0
    roads_per_axis: int = 4
    speed_min_km: float = 0.1
    speed_max_km: float = 0.4
    turn_prob: float = 0.2

    def __post_init__(self) -> None:
        check_positive("num_scns", self.num_scns)
        check_positive("num_vehicles", self.num_vehicles)
        check_positive("area_km", self.area_km)
        check_positive("radius_km", self.radius_km)
        check_positive("roads_per_axis", self.roads_per_axis)
        require(
            0.0 <= self.speed_min_km <= self.speed_max_km,
            f"need 0 <= speed_min <= speed_max, got ({self.speed_min_km}, {self.speed_max_km})",
        )
        require(0.0 <= self.turn_prob <= 1.0, f"turn_prob in [0,1], got {self.turn_prob}")
        self._scn_xy = _grid_positions(self.num_scns, self.area_km)
        self._axis: np.ndarray | None = None  # 0 = horizontal road, 1 = vertical
        self._road: np.ndarray | None = None  # road line index on that axis
        self._pos: np.ndarray | None = None  # coordinate along the road
        self._dir: np.ndarray | None = None  # +1 / -1
        self._speed: np.ndarray | None = None

    @property
    def scn_positions(self) -> np.ndarray:
        """``(M, 2)`` SCN coordinates in km."""
        return self._scn_xy.copy()

    def _road_coord(self, index: np.ndarray) -> np.ndarray:
        """Line coordinate of road ``index`` (spacing-centered)."""
        return (index + 0.5) * (self.area_km / self.roads_per_axis)

    def vehicle_positions(self) -> np.ndarray | None:
        """Current ``(num_vehicles, 2)`` coordinates (None before first slot)."""
        if self._axis is None:
            return None
        along = self._pos
        across = self._road_coord(self._road)
        x = np.where(self._axis == 0, along, across)
        y = np.where(self._axis == 0, across, along)
        return np.column_stack([x, y])

    def reset(self) -> None:
        """Forget the fleet; the next slot re-initializes it from the stream."""
        self._axis = None
        self._road = None
        self._pos = None
        self._dir = None
        self._speed = None

    def _initialize(self, rng: np.random.Generator) -> None:
        n = self.num_vehicles
        self._axis = rng.integers(0, 2, size=n).astype(np.int64)
        self._road = rng.integers(0, self.roads_per_axis, size=n).astype(np.int64)
        self._pos = rng.uniform(0.0, self.area_km, size=n)
        self._dir = (rng.integers(0, 2, size=n) * 2 - 1).astype(np.int64)
        self._speed = rng.uniform(self.speed_min_km, self.speed_max_km, size=n)

    def _step(self, rng: np.random.Generator) -> None:
        # Fixed-count draws: every vehicle draws its turn test, its
        # prospective new direction, and nothing else — which vehicles
        # actually turn never changes how much stream is consumed.
        turn_draw = rng.random(self.num_vehicles)
        dir_draw = (rng.integers(0, 2, size=self.num_vehicles) * 2 - 1).astype(np.int64)
        spacing = self.area_km / self.roads_per_axis
        turning = turn_draw < self.turn_prob

        # Advance everyone along their current road (torus wrap).
        self._pos = (self._pos + self._dir * self._speed) % self.area_km

        if turning.any():
            # Turners snap to the nearest intersection: their along-road
            # coordinate becomes the crossing road's index on the *other*
            # axis, and their new along-road coordinate is their old road's
            # line position.
            cross = np.clip(
                np.round(self._pos[turning] / spacing - 0.5).astype(np.int64),
                0,
                self.roads_per_axis - 1,
            )
            old_line = self._road_coord(self._road[turning])
            self._road[turning] = cross
            self._pos[turning] = old_line
            self._axis[turning] = 1 - self._axis[turning]
            self._dir[turning] = dir_draw[turning]

    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        if self._axis is None:
            self._initialize(rng)
        else:
            self._step(rng)
        xy = self.vehicle_positions()
        diff = self._scn_xy[:, None, :] - xy[None, :, :]
        within = np.einsum("mnd,mnd->mn", diff, diff) <= self.radius_km**2
        coverage = [np.flatnonzero(within[m]) for m in range(self.num_scns)]
        return self.num_vehicles, coverage

    def max_coverage_size(self) -> int:
        return self.num_vehicles

    # -- checkpoint hooks (repro-checkpoint/v1, DESIGN.md §10) ---------------

    def state_dict(self) -> dict:
        """Fleet state (road/axis/position/direction/speed arrays)."""
        if self._axis is None:
            return {"initialized": 0}
        return {
            "initialized": 1,
            "axis": self._axis.copy(),
            "road": self._road.copy(),
            "pos": self._pos.copy(),
            "dir": self._dir.copy(),
            "speed": self._speed.copy(),
        }

    def restore_state(self, state: dict) -> None:
        if not int(state.get("initialized", 0)):
            self.reset()
            return
        self._axis = np.asarray(state["axis"], dtype=np.int64).copy()
        self._road = np.asarray(state["road"], dtype=np.int64).copy()
        self._pos = np.asarray(state["pos"], dtype=float).copy()
        self._dir = np.asarray(state["dir"], dtype=np.int64).copy()
        self._speed = np.asarray(state["speed"], dtype=float).copy()


def random_waypoint_step(
    positions: np.ndarray,
    max_step: float,
    area: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One random-waypoint mobility step, reflected at the area boundary.

    Each WD moves a uniform-random distance in [0, max_step] in a uniform
    random direction; positions are reflected back into [0, area]^2.
    """
    n = positions.shape[0]
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    steps = rng.uniform(0.0, max_step, size=n)
    moved = positions + steps[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
    # Reflect at boundaries: fold the coordinate line at 0 and `area`.
    folded = np.abs(moved)
    folded = area - np.abs(area - (folded % (2.0 * area)))
    return folded


def _grid_positions(count: int, area: float) -> np.ndarray:
    """Place ``count`` points on the most-square grid covering [0, area]^2."""
    cols = int(np.ceil(np.sqrt(count)))
    rows = int(np.ceil(count / cols))
    xs = (np.arange(cols) + 0.5) * (area / cols)
    ys = (np.arange(rows) + 0.5) * (area / rows)
    grid = np.array([(x, y) for y in ys for x in xs])
    return grid[:count]
