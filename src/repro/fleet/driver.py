"""The sharded fleet driver: rounds, border exchange, and worker processes.

:func:`run_fleet` partitions the tile grid into shards
(:func:`~repro.fleet.topology.partition_tiles`), steps every shard's tiles
through synchronized **rounds** of ``exchange_every`` slots, and exchanges
border-WD state between rounds:

1. each shard runs its tiles for one round (:meth:`TileSim.run_slots`);
2. each tile emits the WDs that wandered across its borders
   (:meth:`TileSim.collect_migrants`), already expressed in the destination
   tile's local frame;
3. the driver merges migrants per destination across *all* shards, sorts
   each batch by globally-unique WD id (the canonical order that makes the
   merge independent of shard grouping), and delivers the batches with the
   next round's run command.

Under the direct coverage sampler tiles share no state at all, so the
driver detects independence (``FleetConfig.independent``) and takes the
**fast path**: one round spanning the whole horizon, no migrant collection,
no exchange traffic.

With ``shards >= 2`` each shard runs in its own worker process; run
commands, migrant batches, and final results travel as plain objects on
the shard's :func:`multiprocessing.Pipe`.
Trajectories are **bit-identical across shard counts and across the
serial/process modes**: every tile's streams derive from ``(seed, tile)``
alone, rounds are synchronized, and migrant delivery order is canonical.

Decision latency: every ``policy.select`` is timed into a per-shard
:class:`~repro.metrics.latency.LatencyRecorder`; the per-shard nearest-rank
p50/p90/p99 land in :class:`FleetResult` and the samples fold into the obs
registry's ``fleet.decide_s`` histogram (workers ship a snapshot delta, so
pool reuse never double-counts).
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass

import numpy as np

from repro.fleet.tile import TileSim
from repro.fleet.topology import FleetConfig, partition_tiles
from repro.metrics.latency import LatencyRecorder, LatencySummary, latency_summary
from repro.obs import metrics as obs_metrics
from repro.utils.parallel import process_pool_supported
from repro.utils.validation import check_positive, require

__all__ = ["FleetResult", "fleet_series_equal", "run_fleet"]

#: Per-tile series every fleet run records (the equivalence-gate payload).
SERIES_KEYS = ("reward", "assigned", "violation_qos", "violation_resource", "wds")


# -- round plan and migrant routing ---------------------------------------------


def _round_plan(cfg: FleetConfig) -> list[tuple[int, bool]]:
    """``(slots, collect_migrants)`` per round.

    Independent fleets (coverage sampler) run one horizon-length round with
    no collection — the fast path.  Coupled fleets collect after every round
    except the last (post-horizon migration would never be observed).
    """
    if cfg.independent:
        return [(cfg.horizon, False)]
    plan: list[tuple[int, bool]] = []
    t = 0
    while t < cfg.horizon:
        count = min(cfg.exchange_every, cfg.horizon - t)
        t += count
        plan.append((count, t < cfg.horizon))
    return plan


def _route_migrants(
    outbound: list[tuple[int, np.ndarray, np.ndarray]],
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Merge ``(dst_tile, ids, xy)`` entries into one batch per destination.

    Each batch is sorted by ascending WD id — ids are globally unique, so
    this order is canonical and independent of which shard contributed
    which entry (the bit-identity requirement of the exchange step).
    """
    by_dst: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for dst, ids, xy in outbound:
        by_dst.setdefault(dst, []).append((ids, xy))
    routed: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for dst, entries in by_dst.items():
        ids = np.concatenate([e[0] for e in entries])
        xy = np.concatenate([e[1] for e in entries])
        order = np.argsort(ids, kind="stable")
        routed[dst] = (ids[order], xy[order])
    return routed


# -- worker protocol -------------------------------------------------------------
#
# Parent → worker:  ("run", slots, collect, inbound | None)
#                   ("finish",)
# Worker → parent:  ("out", outbound)
#                   ("result", result, registry_delta)
#                   ("error", traceback_text)


def _shard_worker(conn, cfg: FleetConfig, tiles: tuple[int, ...]) -> None:
    try:
        registry = obs_metrics.global_registry()
        before = registry.snapshot()
        recorder = LatencyRecorder()
        sims = {tile: TileSim(cfg, tile, latency=recorder) for tile in tiles}
        while True:
            msg = conn.recv()
            op = msg[0]
            if op == "run":
                _, count, collect, inbound = msg
                if inbound is not None:
                    for tile, (ids, xy) in sorted(inbound.items()):
                        sims[tile].receive_migrants(ids, xy)
                for tile in tiles:
                    sims[tile].run_slots(count)
                outbound: list = []
                if collect:
                    for tile in tiles:
                        outbound.extend(sims[tile].collect_migrants())
                conn.send(("out", outbound))
            elif op == "finish":
                recorder.observe_registry("fleet.decide_s", registry)
                result = {
                    "series": {tile: sims[tile].series() for tile in tiles},
                    "samples": np.asarray(recorder.samples, dtype=float),
                }
                delta = obs_metrics.diff_snapshots(registry.snapshot(), before)
                conn.send(("result", result, delta))
                return
            else:
                raise RuntimeError(f"unknown fleet op {op!r}")
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:  # pragma: no cover - parent already gone
            pass
    finally:
        conn.close()


def _expect(conn, kind: str, shard: int) -> tuple:
    try:
        msg = conn.recv()
    except EOFError:
        raise RuntimeError(f"fleet shard {shard} died without reporting") from None
    if msg[0] == "error":
        raise RuntimeError(f"fleet shard {shard} failed:\n{msg[1]}")
    if msg[0] != kind:
        raise RuntimeError(f"fleet shard {shard}: expected {kind!r}, got {msg[0]!r}")
    return msg


# -- execution modes --------------------------------------------------------------


def _run_serial(
    cfg: FleetConfig,
    groups: tuple[tuple[int, ...], ...],
    plan: list[tuple[int, bool]],
) -> tuple[list[dict], int]:
    """All shards in-process; the same round/exchange structure as workers."""
    recorders = [LatencyRecorder() for _ in groups]
    sims: dict[int, TileSim] = {}
    for rec, group in zip(recorders, groups):
        for tile in group:
            sims[tile] = TileSim(cfg, tile, latency=rec)
    migrants = 0
    inbound: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for count, collect in plan:
        for tile, (ids, xy) in sorted(inbound.items()):
            sims[tile].receive_migrants(ids, xy)
        for tile in sorted(sims):
            sims[tile].run_slots(count)
        outbound: list = []
        if collect:
            for tile in sorted(sims):
                outbound.extend(sims[tile].collect_migrants())
        inbound = _route_migrants(outbound)
        migrants += sum(ids.size for ids, _ in inbound.values())
    registry = obs_metrics.global_registry()
    results = []
    for rec, group in zip(recorders, groups):
        rec.observe_registry("fleet.decide_s", registry)
        results.append(
            {
                "series": {tile: sims[tile].series() for tile in group},
                "samples": np.asarray(rec.samples, dtype=float),
            }
        )
    return results, migrants


def _run_process(
    cfg: FleetConfig,
    groups: tuple[tuple[int, ...], ...],
    plan: list[tuple[int, bool]],
) -> tuple[list[dict], int]:
    """One worker process per shard, border exchange over each shard's pipe."""
    ctx = multiprocessing.get_context()
    procs: list = []
    conns: list = []
    try:
        for group in groups:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_shard_worker, args=(child_conn, cfg, group), daemon=True
            )
            proc.start()
            child_conn.close()
            procs.append(proc)
            conns.append(parent_conn)

        migrants = 0
        inbound_by_shard: list[dict | None] = [None] * len(groups)
        for count, collect in plan:
            for conn, inbound in zip(conns, inbound_by_shard):
                conn.send(("run", count, collect, inbound))
            outbound: list = []
            for shard, conn in enumerate(conns):
                outbound.extend(_expect(conn, "out", shard)[1])
            routed = _route_migrants(outbound)
            migrants += sum(ids.size for ids, _ in routed.values())
            inbound_by_shard = [
                {tile: routed[tile] for tile in group if tile in routed} or None
                for group in groups
            ]

        for conn in conns:
            conn.send(("finish",))
        registry = obs_metrics.global_registry()
        results = []
        for shard, conn in enumerate(conns):
            msg = _expect(conn, "result", shard)
            results.append(msg[1])
            registry.merge_snapshot(msg[2])
        for proc in procs:
            proc.join(timeout=60)
        return results, migrants
    finally:
        for conn in conns:
            try:
                conn.close()
            except Exception:  # pragma: no cover - already closed
                pass
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=10)


# -- results -----------------------------------------------------------------------


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet run produced.

    ``tile_series[k]`` is tile ``k``'s per-slot series dict (keys
    :data:`SERIES_KEYS`, plus ``"mbs_reward"`` when the MBS tier is on);
    ``shard_latency[s]`` the nearest-rank decision-latency summary of shard
    ``s``'s recorder.
    """

    config: FleetConfig
    shards: int
    groups: tuple[tuple[int, ...], ...]
    mode: str
    independent: bool
    rounds: int
    migrants: int
    decisions: int
    wall_s: float
    tile_series: tuple[dict[str, np.ndarray], ...]
    shard_latency: tuple[LatencySummary, ...]

    @property
    def decisions_per_min(self) -> float:
        """Task-decision throughput (the ISSUE's 1M+/min headline metric)."""
        return 60.0 * self.decisions / max(self.wall_s, 1e-12)

    @property
    def total_reward(self) -> float:
        return float(sum(s["reward"].sum() for s in self.tile_series))

    def summary(self) -> dict:
        """Headline scalars (JSON-ready) for benches and EXPERIMENTS.md."""
        return {
            "num_tiles": self.config.num_tiles,
            "num_scns": self.config.num_scns,
            "horizon": self.config.horizon,
            "shards": self.shards,
            "mode": self.mode,
            "independent": self.independent,
            "rounds": self.rounds,
            "migrants": self.migrants,
            "decisions": self.decisions,
            "wall_s": self.wall_s,
            "decisions_per_min": self.decisions_per_min,
            "total_reward": self.total_reward,
        }

    def latency_rows(self) -> list[dict]:
        """Per-shard decision-latency percentiles (ms), one row per shard."""
        rows = []
        for shard, summary in enumerate(self.shard_latency):
            row = {"shard": shard, "tiles": len(self.groups[shard])}
            row.update(summary.as_dict(unit="ms"))
            rows.append(row)
        return rows


def fleet_series_equal(
    a: "FleetResult | tuple", b: "FleetResult | tuple"
) -> bool:
    """Exact (bit-level) equality of two runs' per-tile series.

    The sharded-equivalence gate: a sharded run must reproduce the
    unsharded reference exactly, at every shard count, in both modes.
    """
    sa = a.tile_series if isinstance(a, FleetResult) else tuple(a)
    sb = b.tile_series if isinstance(b, FleetResult) else tuple(b)
    if len(sa) != len(sb):
        return False
    for ta, tb in zip(sa, sb):
        if set(ta) != set(tb):
            return False
        for key in ta:
            if not np.array_equal(np.asarray(ta[key]), np.asarray(tb[key])):
                return False
    return True


def run_fleet(cfg: FleetConfig, *, shards: int = 1, mode: str = "auto") -> FleetResult:
    """Run one fleet to its horizon, sharded ``shards`` ways.

    Parameters
    ----------
    shards:
        Shard count; clamped to the tile count.  Any value yields
        bit-identical per-tile series (``tests/fleet/test_equivalence.py``).
    mode:
        ``"auto"`` — worker processes when ``shards >= 2`` and the platform
        supports them, else in-process; ``"serial"`` / ``"process"`` force
        the choice (``"process"`` raises where unsupported).
    """
    check_positive("shards", shards)
    require(
        mode in ("auto", "serial", "process"),
        f"mode must be 'auto', 'serial' or 'process', got {mode!r}",
    )
    groups = partition_tiles(cfg.num_tiles, shards)
    plan = _round_plan(cfg)
    if mode == "process" and not process_pool_supported():
        raise RuntimeError("mode='process' requires multiprocessing support")
    use_processes = (
        mode == "process"
        or (mode == "auto" and len(groups) >= 2 and process_pool_supported())
    )
    start = time.perf_counter()
    if use_processes:
        shard_results, migrants = _run_process(cfg, groups, plan)
    else:
        shard_results, migrants = _run_serial(cfg, groups, plan)
    wall_s = time.perf_counter() - start

    by_tile: dict[int, dict[str, np.ndarray]] = {}
    summaries: list[LatencySummary] = []
    for result in shard_results:
        by_tile.update(result["series"])
        summaries.append(latency_summary(result["samples"]))
    tile_series = tuple(by_tile[tile] for tile in range(cfg.num_tiles))
    decisions = sum(int(s["assigned"].sum()) for s in tile_series)

    registry = obs_metrics.global_registry()
    registry.counter("fleet.runs").inc()
    registry.counter("fleet.slots").inc(cfg.num_tiles * cfg.horizon)
    registry.counter("fleet.decisions").inc(decisions)

    return FleetResult(
        config=cfg,
        shards=len(groups),
        groups=groups,
        mode="process" if use_processes else "serial",
        independent=cfg.independent,
        rounds=len(plan),
        migrants=migrants,
        decisions=decisions,
        wall_s=wall_s,
        tile_series=tile_series,
        shard_latency=tuple(summaries),
    )
