"""One fleet tile's simulation: a resumable, stepwise slot loop.

:class:`TileSim` drives the shared slot kernel
(:class:`repro.env.simulator.SlotKernel`) in rounds: :meth:`run_slots`
advances the tile to the next border exchange, while policy and truth state
persist across calls.  Differences from the batch simulator, all
deliberate:

- every component (network, workload, truth, policy, streams) derives from
  ``(fleet config, tile index)`` alone — tile streams root at
  :func:`repro.utils.rng.fleet_seed_sequence`, so trajectories are
  independent of the shard count and worker topology;
- windows end at the round end: migrants change the coverage model at an
  exchange, so no window may be drawn across one;
- each ``select`` is timed into a :class:`repro.metrics.latency.LatencyRecorder`
  (the fleet's per-shard decision-latency percentiles);
- the recorded series are the realized per-slot scalars (reward, assigned
  pairs, realized V1/V2, population) — fleet runs skip the expected-basis
  bookkeeping, which exists for regret plots, not throughput scaling;
- an optional per-tile MBS fallback tier (paper §3.3) serves the
  covered-but-unselected leftovers from its own environment stream.
"""

from __future__ import annotations

import numpy as np

from repro.env.contexts import TaskFeatureModel
from repro.env.geometry import CoverageSampler
from repro.env.mbs import MBSFallback
from repro.env.simulator import SlotKernel
# Kept importable for the benchmark's hook table (perfbench/hooks.py: BOUNDARIES).
from repro.env.window import precompute_window  # noqa: F401
from repro.env.workload import SyntheticWorkload
from repro.experiments.runner import default_truth, make_policy
from repro.fleet.mobility import BorderMobility
from repro.fleet.topology import FleetConfig
from repro.metrics.latency import LatencyRecorder
from repro.utils.rng import RngFactory, fleet_seed_sequence

__all__ = ["TileSim"]


class TileSim:
    """One tile's offloading simulation, steppable in slot batches.

    Parameters
    ----------
    cfg:
        The fleet description.
    tile:
        This tile's index in the grid.
    latency:
        Decision-latency recorder to share (the driver passes one per
        shard); a private one is created when omitted.
    """

    def __init__(
        self, cfg: FleetConfig, tile: int, *, latency: LatencyRecorder | None = None
    ) -> None:
        self.cfg = cfg
        self.tile = tile
        tile_cfg = cfg.tile_config(tile)
        self.network = tile_cfg.network()
        self.truth = default_truth(tile_cfg)
        if cfg.coverage == "mobility":
            left, right, down, up = cfg.open_edges(tile)
            coverage_model = BorderMobility(
                num_scns=cfg.scns_per_tile,
                num_wds=cfg.wds_per_tile,
                tile_km=cfg.tile_km,
                radius_km=cfg.radius_km,
                speed_km=cfg.speed_km,
                id_base=tile * cfg.wds_per_tile,
                open_left=left,
                open_right=right,
                open_down=down,
                open_up=up,
            )
        else:
            coverage_model = CoverageSampler(
                num_scns=cfg.scns_per_tile,
                k_min=cfg.k_min,
                k_max=cfg.k_max,
                overlap=cfg.overlap,
            )
        self.workload = SyntheticWorkload(
            features=TaskFeatureModel(), coverage_model=coverage_model
        )
        self.policy = make_policy(cfg.policy, tile_cfg, self.truth)

        # Stream contract v2 extension: the tile root depends only on
        # (seed, tile); env/policy streams nest under it.
        rngs = RngFactory(fleet_seed_sequence(cfg.seed, tile))
        self.mbs: MBSFallback | None = None
        self._mbs_rng = None
        if cfg.mbs_capacity > 0:
            self.mbs = MBSFallback(
                capacity=cfg.mbs_capacity,
                reward_factor=cfg.mbs_reward_factor,
                completion_prob=cfg.mbs_completion_prob,
            )
            self._mbs_rng = rngs.env("mbs")

        self.workload.reset()
        self.policy.reset(self.network, cfg.horizon, rngs.policy(self.policy.name))

        self._latency = latency if latency is not None else LatencyRecorder()
        self._kernel = SlotKernel(
            self.network, self.workload, self.truth, None, self.policy, rngs,
            horizon=cfg.horizon, window=cfg.window,
            validate=cfg.validate_assignments, record_expected=False,
            latency=self._latency,
        )
        self._t = 0
        self._wds = np.zeros(cfg.horizon, dtype=np.int64)
        self._mbs_reward = np.zeros(cfg.horizon) if self.mbs is not None else None

    @property
    def t(self) -> int:
        """Slots simulated so far."""
        return self._t

    @property
    def decisions(self) -> int:
        """Total SCN-assigned task decisions so far."""
        return int(self._kernel.series.arrays["accepted"][: self._t].sum())

    @property
    def latency(self) -> LatencyRecorder:
        return self._latency

    # -- the slot loop --------------------------------------------------------

    def run_slots(self, count: int) -> None:
        """Advance ``count`` slots (one driver round, or a chunk of one)."""
        if count <= 0:
            raise ValueError(f"count must be >= 1, got {count}")
        end = self._t + count
        if end > self.cfg.horizon:
            raise ValueError(
                f"run_slots past the horizon: {end} > {self.cfg.horizon}"
            )
        kernel = self._kernel
        for t in range(self._t, end):
            slot = kernel.slot(t, end)
            assignment = kernel.decide(t, slot)
            if self.mbs is not None:
                served = self.mbs.serve(slot, assignment, self.truth, self._mbs_rng)
                self._mbs_reward[t] = served.reward
            kernel.feedback(t, slot, assignment)
            self._wds[t] = len(slot.tasks)
        self._t = end

    # -- border exchange ------------------------------------------------------

    def collect_migrants(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """WDs that left this tile since the last exchange, as
        ``(destination tile, ids, destination-local xy)`` entries."""
        collect = getattr(self.workload.coverage_model, "collect_migrants", None)
        if not callable(collect):
            return []
        out: list[tuple[int, np.ndarray, np.ndarray]] = []
        for dx, dy, ids, xy in collect():
            dst = self.cfg.neighbor(self.tile, dx, dy)
            if dst is None:  # closed borders reflect — this cannot happen
                raise RuntimeError(
                    f"tile {self.tile}: migrants toward missing neighbour ({dx}, {dy})"
                )
            out.append((dst, ids, xy))
        return out

    def receive_migrants(self, ids: np.ndarray, xy: np.ndarray) -> None:
        """Splice one round's incoming WDs (driver pre-sorts by id)."""
        self.workload.coverage_model.receive_migrants(ids, xy)

    # -- results --------------------------------------------------------------

    def series(self) -> dict[str, np.ndarray]:
        """The tile's recorded per-slot series (copies, truncated to ``t``)."""
        t = self._t
        a = self._kernel.series.arrays
        out = {
            "reward": a["reward"][:t].copy(),
            "assigned": a["accepted"][:t].sum(axis=1),
            "violation_qos": a["violation_qos_realized"][:t].copy(),
            "violation_resource": a["violation_resource_realized"][:t].copy(),
            "wds": self._wds[:t].copy(),
        }
        if self._mbs_reward is not None:
            out["mbs_reward"] = self._mbs_reward[:t].copy()
        return out
