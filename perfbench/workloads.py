"""The benchmark's four workloads: correctness gates and one repetition each.

Every workload drives the program only through its public entry points —
``repro.api.run``, ``repro.api.serve`` with ``ServiceClient``, and
``repro.api.run_fleet``.  A repetition is one fixed input (stated below)
on a fresh seed in a fresh process, so no repetition reuses a window cache,
solver memo or pool that an earlier one filled.  Load always comes from one
process and never uses more than two workers, shards or connections.

Why these four (each stresses layers the others bypass):

- ``paper_lfsc`` — the plain single-process baseline: env generation, window
  precompute, Alg. 2 / DepRound / Alg. 4, truth realize, expected-metric
  bookkeeping and Alg. 3 do almost all the work; no pool, the window cache
  only misses.
- ``service_daemon`` — the per-slot path (``Workload.slot``, no window
  precompute) plus JSON/TCP transport, with autosave checkpoint writes beside
  the decide reads, so a slower ``save`` shows in the decide tail.
- ``fleet_mobility`` — the third slot loop (``TileSim``) with shm border
  exchange between two shard processes; ``BorderMobility`` replaces the
  coverage sampler, so an env-sampler speed-up should show no change here.
- ``lineup_parallel`` — the only user of ``utils.parallel`` with window
  prefill, window-state export/import and shm result transport; the shared
  window cache hits for three of the four policies.  Oracle is left out: its
  per-slot HiGHS solve would swamp every other layer.
"""

from __future__ import annotations

import math
import os

#: Paper-scale horizon of one ``paper_lfsc`` repetition (T slots, one policy).
PAPER_HORIZON = 1000
#: Slots one ``service_daemon`` repetition serves (the session horizon).
SERVICE_HORIZON = 800
#: Autosave period of the daemon, in slots.
CHECKPOINT_EVERY = 50
#: The line-up of ``lineup_parallel`` and its horizon.
LINEUP = ("LFSC", "vUCB", "FML", "Random")
LINEUP_HORIZON = 400
#: Workers, shards and connections never exceed this (the benchmark targets 2 CPUs).
MAX_PARALLEL = 2
#: The fleet of ``fleet_mobility``: 4x4 tiles, 8 SCNs and 120 WDs per tile.
FLEET = dict(
    tiles_x=4, tiles_y=4, scns_per_tile=8, wds_per_tile=120, coverage="mobility"
)
FLEET_HORIZON = 400
#: Prefix lengths of the correctness gates.
CHECK_SLOTS = 48

SERIES = (
    "reward",
    "expected_reward",
    "completed",
    "consumption",
    "accepted",
    "violation_qos",
    "violation_resource",
    "violation_qos_realized",
    "violation_resource_realized",
)

#: name -> (why, including the load shape: BENCHMARK.json's ``why``; detail).
WORKLOADS = {
    "paper_lfsc": (
        f"offline batch, paper-scale LFSC, workers=1, T={PAPER_HORIZON}, W=32, fresh "
        "seed per rep: env, window, Alg. 2-4 and truth do the work; no pool, the "
        "window cache only misses",
        f"api.run(scale='paper', policies=('LFSC',), workers=1, horizon={PAPER_HORIZON})",
    ),
    "service_daemon": (
        f"closed loop, one ServiceClient, {SERVICE_HORIZON} decides per rep: per-slot "
        "path (Workload.slot, no window) plus JSON/TCP, autosave every "
        f"{CHECKPOINT_EVERY} slots beside the decides",
        f"api.serve(scale='paper', horizon={SERVICE_HORIZON}, "
        f"checkpoint_every={CHECKPOINT_EVERY}) + ServiceClient decide (auto-feedback)",
    ),
    "fleet_mobility": (
        f"offline batch, 4x4 tiles x 8 SCNs x 120 WDs, mobility, 2 shard processes, "
        f"T={FLEET_HORIZON}: TileSim loop plus shm border exchange; no coverage sampler",
        f"run_fleet(FleetConfig(tiles 4x4, 8 SCNs/tile, 120 WDs/tile, "
        f"coverage='mobility', horizon={FLEET_HORIZON}), shards=2, mode='process')",
    ),
    "lineup_parallel": (
        f"offline batch, paper-scale {'/'.join(LINEUP)}, workers=2, T={LINEUP_HORIZON}: "
        "pool, window prefill, shm window export and result transport; the window "
        "cache hits for 3 of 4 policies",
        f"api.run(scale='paper', policies={LINEUP}, workers=2, horizon={LINEUP_HORIZON})",
    ),
}


class GateFailure(RuntimeError):
    """A correctness gate found the program's output wrong."""


def series_equal(a, b) -> list[str]:
    """Names of the recorded series on which two results differ."""
    import numpy as np

    return [
        key for key in SERIES
        if not np.array_equal(np.asarray(getattr(a, key)), np.asarray(getattr(b, key)))
    ]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


# ---------------------------------------------------------------------------
# Correctness gates (run before any timing, on a short prefix).
# ---------------------------------------------------------------------------


def check_paper_lfsc(seed: int, workdir: str) -> None:
    from repro import api

    kw = dict(scale="paper", policies=("LFSC",), workers=1, horizon=CHECK_SLOTS, seed=seed)
    windowed = api.run(**kw)["LFSC"]
    per_slot = api.run(window=0, **kw)["LFSC"]
    again = api.run(**kw)["LFSC"]
    diff = series_equal(windowed, per_slot)
    _require(not diff, f"windowed run differs from the per-slot run on {diff}")
    _require(
        windowed.total_reward == again.total_reward,
        "total reward of one seed changed between repetitions",
    )


def _serve_prefix(seed: int, workdir: str, slots: int):
    from repro import api
    from repro.service import ServiceClient

    daemon = api.serve(
        scale="paper", horizon=slots, seed=seed,
        checkpoint_path=os.path.join(workdir, "gate.ckpt"),
        checkpoint_every=max(1, slots // 3),
    )
    try:
        with ServiceClient(*daemon.address) as client:
            for t in range(slots):
                reply = client.request({"op": "decide"})
                _require(bool(reply.get("ok")) and reply.get("t") == t,
                         f"decide {t} failed: {reply}")
        return daemon.session.result()
    finally:
        daemon.close()


def check_service_daemon(seed: int, workdir: str) -> None:
    from repro import api

    served = _serve_prefix(seed, workdir, CHECK_SLOTS)
    again = _serve_prefix(seed, workdir, CHECK_SLOTS)
    batch = api.run(
        scale="paper", policies=("LFSC",), horizon=CHECK_SLOTS, seed=seed, window=0
    )["LFSC"]
    diff = series_equal(served, batch)
    _require(not diff, f"served session differs from Simulation.run(window=0) on {diff}")
    _require(
        served.total_reward == again.total_reward,
        "total reward of one seed changed between repetitions",
    )


def _fleet_config(seed: int, horizon: int):
    from repro.fleet import FleetConfig

    return FleetConfig(horizon=horizon, seed=seed, **FLEET)


def check_fleet_mobility(seed: int, workdir: str) -> None:
    from repro import api
    from repro.fleet import fleet_series_equal

    cfg = _fleet_config(seed, CHECK_SLOTS)
    sharded = api.run_fleet(cfg, shards=MAX_PARALLEL, mode="process")
    serial = api.run_fleet(cfg, shards=1, mode="serial")
    again = api.run_fleet(cfg, shards=MAX_PARALLEL, mode="process")
    _require(sharded.shards == MAX_PARALLEL, f"expected 2 shards, got {sharded.shards}")
    _require(sharded.migrants > 0, "no WD crossed a border: the exchange went unused")
    _require(fleet_series_equal(sharded, serial), "sharded fleet differs from unsharded")
    _require(
        sharded.total_reward == again.total_reward,
        "total reward of one seed changed between repetitions",
    )


def check_lineup_parallel(seed: int, workdir: str) -> None:
    from repro import api

    kw = dict(scale="paper", policies=LINEUP, horizon=CHECK_SLOTS, seed=seed)
    pooled = api.run(workers=MAX_PARALLEL, **kw)
    serial = api.run(workers=1, **kw)
    again = api.run(workers=MAX_PARALLEL, **kw)
    for name in LINEUP:
        diff = series_equal(pooled[name], serial[name])
        _require(not diff, f"{name}: workers=2 differs from workers=1 on {diff}")
        _require(
            pooled[name].total_reward == again[name].total_reward,
            f"{name}: total reward of one seed changed between repetitions",
        )


CHECKS = {
    "paper_lfsc": check_paper_lfsc,
    "service_daemon": check_service_daemon,
    "fleet_mobility": check_fleet_mobility,
    "lineup_parallel": check_lineup_parallel,
}


# ---------------------------------------------------------------------------
# One repetition (runs in a fresh process, after ``import repro.api``).
# Each returns the slot count, the moment the first slot was ready, the time
# spent on slots, operations attempted/failed, and output problems.
# ---------------------------------------------------------------------------


def _check_result(res, horizon: int) -> list[str]:
    problems = []
    if res.horizon != horizon or len(res.reward) != horizon:
        problems.append(f"{res.policy_name}: {len(res.reward)} slots, expected {horizon}")
    if not math.isfinite(res.total_reward) or res.total_reward <= 0:
        problems.append(f"{res.policy_name}: total reward {res.total_reward!r}")
    return problems


def rep_paper_lfsc(rec, seed: int, workdir: str, perf) -> dict:
    from repro import api

    result = api.run(scale="paper", policies=("LFSC",), workers=1,
                     horizon=PAPER_HORIZON, seed=seed)
    begins = [t for kind, t in rec.marks if kind == "loop_begin"]
    ends = [t for kind, t in rec.marks if kind == "loop_end"]
    return {
        "slots": PAPER_HORIZON,
        "ready": begins[0],
        "slot_s": sum(e - b for b, e in zip(begins, ends)),
        "attempted": 1,
        "failed": 0,
        "problems": _check_result(result["LFSC"], PAPER_HORIZON),
        "total_reward": result["LFSC"].total_reward,
    }


def rep_lineup_parallel(rec, seed: int, workdir: str, perf) -> dict:
    from repro import api
    from repro.utils.parallel import ParallelExecutionError

    try:
        result = api.run(scale="paper", policies=LINEUP, workers=MAX_PARALLEL,
                         horizon=LINEUP_HORIZON, seed=seed)
    except ParallelExecutionError as exc:
        return {"attempted": 1, "failed": 1, "problems": [str(exc)]}
    end = perf()
    ready = next(t for kind, t in rec.marks if kind == "prefill")
    problems = []
    for name in LINEUP:
        problems += _check_result(result[name], LINEUP_HORIZON)
    return {
        "slots": LINEUP_HORIZON * len(LINEUP),
        "ready": ready,
        "slot_s": end - ready,
        "attempted": 1,
        "failed": 0,
        "problems": problems,
        "total_reward": sum(result[n].total_reward for n in LINEUP),
    }


def rep_fleet_mobility(rec, seed: int, workdir: str, perf) -> dict:
    from repro import api

    cfg = _fleet_config(seed, FLEET_HORIZON)
    try:
        result = api.run_fleet(cfg, shards=MAX_PARALLEL, mode="process")
    except RuntimeError as exc:  # a shard died or failed
        return {"attempted": 1, "failed": 1, "problems": [str(exc)]}
    end = perf()
    problems = []
    if result.shards != MAX_PARALLEL or result.mode != "process":
        problems.append(f"ran {result.shards} shards in {result.mode} mode")
    slots = [len(s["reward"]) for s in result.tile_series]
    if slots != [FLEET_HORIZON] * cfg.num_tiles:
        problems.append(f"tile slot counts {sorted(set(slots))}, expected {FLEET_HORIZON}")
    if not math.isfinite(result.total_reward) or result.total_reward <= 0:
        problems.append(f"total reward {result.total_reward!r}")
    return {
        "slots": cfg.num_tiles * FLEET_HORIZON,
        "ready": None,  # the latest first run_slots entry over the shards
        "end": end,
        "attempted": 1,
        "failed": 0,
        "problems": problems,
        "total_reward": result.total_reward,
        "rounds": result.rounds,
        "migrants": result.migrants,
    }


def rep_service_daemon(rec, seed: int, workdir: str, perf) -> dict:
    from repro import api
    from repro.service import ServiceClient

    daemon = api.serve(
        scale="paper", horizon=SERVICE_HORIZON, seed=seed,
        checkpoint_path=os.path.join(workdir, "autosave.ckpt"),
        checkpoint_every=CHECKPOINT_EVERY,
    )
    problems: list[str] = []
    failed = 0
    rtts: list[float] = []
    realized = 0.0
    try:
        with ServiceClient(*daemon.address, timeout=30.0) as client:
            ready = perf()
            for t in range(SERVICE_HORIZON):
                token = rec.open("service.roundtrip") if rec.trace else None
                if token is not None:
                    rec.cause = token[0]
                start = perf()
                try:
                    reply = client.request({"op": "decide"})
                except OSError as exc:  # timeouts included
                    reply = {"ok": False, "message": repr(exc)}
                stop = perf()
                if token is not None:
                    rec.cause = None
                    rec.close(token)
                rtts.append(stop - start)
                if not reply.get("ok") or reply.get("t") != t:
                    failed += 1
                    problems.append(f"decide {t}: {reply}")
                    break
                realized += reply["feedback"]["realized_reward"]
            end = perf()
        result = daemon.session.result()
    finally:
        daemon.close()
    problems += _check_result(result, SERVICE_HORIZON) if not failed else []
    if not failed and not math.isclose(realized, result.total_reward, rel_tol=1e-9):
        problems.append(f"replies sum to {realized}, session records {result.total_reward}")
    if not failed and not os.path.exists(os.path.join(workdir, "autosave.ckpt")):
        problems.append("no autosave checkpoint was written")
    return {
        "slots": len(rtts) - failed,
        "ready": ready,
        "slot_s": end - ready,
        "attempted": len(rtts),
        "failed": failed,
        "problems": problems,
        "total_reward": result.total_reward,
        "decide_s": rtts,
    }


REPS = {
    "paper_lfsc": rep_paper_lfsc,
    "service_daemon": rep_service_daemon,
    "fleet_mobility": rep_fleet_mobility,
    "lineup_parallel": rep_lineup_parallel,
}

#: Program modules each workload loads during set-up anyway; the repetition
#: imports them before installing the boundary wrappers.
PRELUDE = {
    "paper_lfsc": ("repro.core.lfsc",),
    "service_daemon": ("repro.core.lfsc", "repro.service"),
    "fleet_mobility": ("repro.core.lfsc", "repro.fleet"),
    "lineup_parallel": (
        "repro.core.lfsc", "repro.baselines.vucb", "repro.baselines.fml",
        "repro.baselines.random_policy",
    ),
}

if not set(WORKLOADS) == set(CHECKS) == set(REPS) == set(PRELUDE):
    raise RuntimeError("every workload needs a why, a gate, a repetition and a prelude")
