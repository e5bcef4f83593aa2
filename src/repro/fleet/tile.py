"""One fleet tile's simulation: a resumable, stepwise slot loop.

:class:`TileSim` mirrors :meth:`repro.env.simulator.Simulation.run`'s slot
body — windowed precompute, select, validate, pair-wise realize, update,
advance — but exposes it as :meth:`run_slots`, so the sharded driver can
interleave simulation rounds with border exchanges while policy and truth
state persist across calls.  Differences from the batch simulator, all
deliberate:

- every component (network, workload, truth, policy, streams) derives from
  ``(fleet config, tile index)`` alone — tile streams root at
  :func:`repro.utils.rng.fleet_seed_sequence`, so trajectories are
  independent of the shard count and worker topology;
- each ``select`` is timed into a :class:`repro.metrics.latency.LatencyRecorder`
  (the fleet's per-shard decision-latency percentiles);
- the recorded series are the realized per-slot scalars (reward, assigned
  pairs, realized V1/V2, population) — fleet runs skip the expected-basis
  bookkeeping, which needs dense truth tables per tile and exists for
  regret plots, not throughput scaling;
- an optional per-tile MBS fallback tier (paper §3.3) serves the
  covered-but-unselected leftovers from its own environment stream.
"""

from __future__ import annotations

import numpy as np

from repro.env.contexts import TaskFeatureModel
from repro.env.geometry import CoverageSampler
from repro.env.mbs import MBSFallback
from repro.env.simulator import DEFAULT_WINDOW, realize_feedback
from repro.env.window import precompute_eligibility, precompute_window
from repro.env.workload import SyntheticWorkload
from repro.experiments.runner import default_truth, make_policy
from repro.fleet.mobility import BorderMobility
from repro.fleet.topology import FleetConfig
from repro.metrics.latency import LatencyRecorder
from repro.utils.rng import RngFactory, fleet_seed_sequence
from repro.utils.timing import monotonic

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
        self._workload_rng = rngs.env("workload")
        self._realize_rng = rngs.env("realizations")
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

        eligible, self._win_partition = precompute_eligibility(self.workload, self.policy)
        # The slot-streaming window, resolved like the batch simulator.
        window = DEFAULT_WINDOW if cfg.window is None else int(cfg.window)
        self._window = window if eligible else 0
        self._cells_fn = getattr(self.truth, "context_cells", None)

        self._latency = latency if latency is not None else LatencyRecorder()
        self._t = 0
        self._decisions = 0
        H, M = cfg.horizon, self.network.num_scns
        self._alpha, self._beta = self.network.alpha, self.network.beta
        self._num_scns = M
        self._reward = np.zeros(H)
        self._assigned = np.zeros(H, dtype=np.int64)
        self._viol_qos = np.zeros(H)
        self._viol_res = np.zeros(H)
        self._wds = np.zeros(H, dtype=np.int64)
        self._mbs_reward = np.zeros(H) if self.mbs is not None else None

    @property
    def t(self) -> int:
        """Slots simulated so far."""
        return self._t

    @property
    def decisions(self) -> int:
        """Total SCN-assigned task decisions so far."""
        return self._decisions

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
        t = self._t
        while t < end:
            if self._window > 0:
                w = min(self._window, end - t)
                win = precompute_window(
                    self.workload,
                    t,
                    w,
                    self._workload_rng,
                    partition=self._win_partition,
                    context_cells=self._cells_fn,
                )
                for slot in win.slots:
                    self._step(t, slot)
                    t += 1
            else:
                self._step(t, self.workload.slot(t, self._workload_rng))
                t += 1
        self._t = end

    def _step(self, t: int, slot) -> None:
        start = monotonic()
        assignment = self.policy.select(slot)
        self._latency.record(monotonic() - start)
        if self.cfg.validate_assignments:
            assignment.validate(slot, self.network.capacity)

        feedback = realize_feedback(
            self.truth, t, slot, assignment, self._realize_rng
        )[0]

        M = self._num_scns
        comp = feedback.per_scn_completed(M)
        cons = feedback.per_scn_consumption(M)
        self._reward[t] = feedback.g.sum()
        self._assigned[t] = len(assignment)
        self._viol_qos[t] = np.maximum(self._alpha - comp, 0.0).sum()
        self._viol_res[t] = np.maximum(cons - self._beta, 0.0).sum()
        self._wds[t] = len(slot.tasks)
        self._decisions += len(assignment)

        self.policy.update(slot, feedback)
        if self.mbs is not None:
            served = self.mbs.serve(slot, assignment, self.truth, self._mbs_rng)
            self._mbs_reward[t] = served.reward
        self.truth.advance(t, self._realize_rng)

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
        out = {
            "reward": self._reward[: self._t].copy(),
            "assigned": self._assigned[: self._t].copy(),
            "violation_qos": self._viol_qos[: self._t].copy(),
            "violation_resource": self._viol_res[: self._t].copy(),
            "wds": self._wds[: self._t].copy(),
        }
        if self._mbs_reward is not None:
            out["mbs_reward"] = self._mbs_reward[: self._t].copy()
        return out
