"""Service benchmark: decision throughput/latency and checkpoint costs.

Measures the online service (DESIGN.md §10) on three axes:

- **in-process**: per-slot ``decide()`` latency (p50/p99 ms) and full-slot
  decisions/sec of a bare :class:`OnlineSession` — the policy server's
  intrinsic speed, no transport;
- **daemon**: the same decisions through the TCP line-JSON protocol —
  what a colocated client actually observes round-trip;
- **checkpoint**: ``save``/``from_checkpoint`` wall-clock and the snapshot
  file size at the benchmark horizon.

Before timing anything the script asserts the correctness gates: the
session's trajectory equals the batch simulator's per-slot run bit for bit,
and a mid-run checkpoint/restore continues bit-identically (the full matrix
lives in ``tests/service/``; the bench re-checks a prefix so a broken build
cannot publish numbers).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_service.py --smoke    # CI smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_service.py  # pytest-benchmark

Results land in ``BENCH_service.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy
from repro.metrics.latency import latency_summary, percentile
from repro.obs.manifest import build_manifest
from repro.service import OnlineSession, PolicyDaemon, ServiceClient


def _config(scale: str, horizon: int) -> ExperimentConfig:
    base = ExperimentConfig.paper() if scale == "paper" else ExperimentConfig.small()
    return base.with_overrides(horizon=horizon)


def _latency_stats(samples: list[float]) -> dict:
    stats = latency_summary(samples).as_dict(unit="ms")
    return {"p50_ms": stats["p50_ms"], "p99_ms": stats["p99_ms"], "mean_ms": stats["mean_ms"]}


# -- correctness gates -------------------------------------------------------


def check_session_equals_simulator(cfg: ExperimentConfig, horizon: int = 25) -> None:
    short = cfg.with_overrides(horizon=horizon)
    sim = build_simulation(short)
    ref = sim.run(make_policy("LFSC", short, sim.truth), horizon, window=0)
    res = OnlineSession(short).run().result()
    for name in ("reward", "accepted", "violation_qos", "violation_resource"):
        if not np.array_equal(getattr(ref, name), getattr(res, name)):
            raise AssertionError(f"session diverged from the simulator on {name!r}")


def check_resume_equivalence(cfg: ExperimentConfig, tmp: Path, horizon: int = 25) -> None:
    short = cfg.with_overrides(horizon=horizon)
    baseline = OnlineSession(short).run().result()
    first = OnlineSession(short)
    first.run(horizon // 2)
    resumed = OnlineSession.from_checkpoint(first.save(tmp / "gate.ckpt")).run().result()
    for name in ("reward", "accepted", "violation_qos"):
        if not np.array_equal(getattr(baseline, name), getattr(resumed, name)):
            raise AssertionError(f"resume diverged from the uninterrupted run on {name!r}")


# -- timed sections ----------------------------------------------------------


def bench_in_process(cfg: ExperimentConfig, horizon: int) -> tuple[dict, OnlineSession]:
    session = OnlineSession(cfg)
    decide_s: list[float] = []
    t_start = time.perf_counter()
    for _ in range(horizon):
        t0 = time.perf_counter()
        session.decide()
        decide_s.append(time.perf_counter() - t0)
        session.feedback()
    total_s = time.perf_counter() - t_start
    return {
        "decisions": horizon,
        "decisions_per_sec": horizon / total_s,
        "slot_ms_mean": 1e3 * total_s / horizon,
        "decide_latency": _latency_stats(decide_s),
    }, session


def bench_daemon(cfg: ExperimentConfig, horizon: int) -> dict:
    daemon = PolicyDaemon(OnlineSession(cfg))
    host, port = daemon.start()
    rtt_s: list[float] = []
    try:
        with ServiceClient(host, port) as client:
            t_start = time.perf_counter()
            for _ in range(horizon):
                t0 = time.perf_counter()
                reply = client.request({"op": "decide"})
                rtt_s.append(time.perf_counter() - t0)
                if not reply.get("ok"):
                    raise AssertionError(f"daemon decide failed: {reply}")
            total_s = time.perf_counter() - t_start
            status = client.request({"op": "status"})
    finally:
        daemon.close()
    return {
        "decisions": horizon,
        "decisions_per_sec": horizon / total_s,
        "round_trip_latency": _latency_stats(rtt_s),
        "server_side": {
            "p50_ms": status["latency_p50_ms"],
            "p99_ms": status["latency_p99_ms"],
        },
    }


def bench_checkpoint(session: OnlineSession, tmp: Path, repeats: int = 5) -> dict:
    path = tmp / "bench.ckpt"
    save_s: list[float] = []
    load_s: list[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        session.save(path)
        save_s.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        OnlineSession.from_checkpoint(path)
        load_s.append(time.perf_counter() - t0)
    return {
        "at_slot": session.t,
        "file_bytes": path.stat().st_size,
        "save_ms": 1e3 * percentile(save_s, 0.50),
        "restore_ms": 1e3 * percentile(load_s, 0.50),
    }


def run_benchmark(cfg: ExperimentConfig, horizon: int, tmp: Path) -> dict:
    check_session_equals_simulator(cfg)
    check_resume_equivalence(cfg, tmp)
    in_process, session = bench_in_process(cfg, horizon)
    report = {
        "schema": "bench-service/v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "manifest": build_manifest(
            kind="bench", config=cfg, policies=["LFSC"],
            extra={"nproc": len(os.sched_getaffinity(0))},
        ),
        "config": {
            "num_scns": cfg.num_scns,
            "capacity": cfg.capacity,
            "coverage_range": [cfg.k_min, cfg.k_max],
            "horizon": horizon,
            "seed": cfg.seed,
        },
        "gates": {"session_equals_simulator": True, "resume_bit_identical": True},
        "in_process": in_process,
        "daemon": bench_daemon(cfg, horizon),
        "checkpoint": bench_checkpoint(session, tmp),
    }
    report["headline"] = {
        "decisions_per_sec": in_process["decisions_per_sec"],
        "decide_p50_ms": in_process["decide_latency"]["p50_ms"],
        "decide_p99_ms": in_process["decide_latency"]["p99_ms"],
        "daemon_rtt_p50_ms": report["daemon"]["round_trip_latency"]["p50_ms"],
        "checkpoint_save_ms": report["checkpoint"]["save_ms"],
    }
    return report


def print_report(report: dict) -> None:
    cfg = report["config"]
    print(
        f"online service — M={cfg['num_scns']} c={cfg['capacity']} "
        f"K∈{cfg['coverage_range']} horizon={cfg['horizon']}"
    )
    ip = report["in_process"]
    print(
        f"  in-process : {ip['decisions_per_sec']:8.1f} decisions/s   "
        f"decide p50 {ip['decide_latency']['p50_ms']:.3f} ms   "
        f"p99 {ip['decide_latency']['p99_ms']:.3f} ms"
    )
    dm = report["daemon"]
    print(
        f"  daemon     : {dm['decisions_per_sec']:8.1f} decisions/s   "
        f"rtt p50 {dm['round_trip_latency']['p50_ms']:.3f} ms   "
        f"p99 {dm['round_trip_latency']['p99_ms']:.3f} ms"
    )
    ck = report["checkpoint"]
    print(
        f"  checkpoint : save {ck['save_ms']:.2f} ms   restore {ck['restore_ms']:.2f} ms   "
        f"{ck['file_bytes'] / 1024:.1f} KiB at slot {ck['at_slot']}"
    )
    print()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default=os.environ.get("REPRO_BENCH_SCALE", "paper"),
        help="problem size (default: REPRO_BENCH_SCALE or paper)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="slots to serve (default: REPRO_BENCH_HORIZON, else 300 paper / 400 small)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: small scale, short horizon, no JSON unless --output given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: repo-root BENCH_service.json)",
    )
    args = parser.parse_args(argv)
    if args.horizon is not None and args.horizon <= 0:
        parser.error(f"--horizon must be a positive slot count, got {args.horizon}")

    if args.smoke:
        scale = "small"
        horizon = 60 if args.horizon is None else args.horizon
    else:
        scale = args.scale
        env_horizon = os.environ.get("REPRO_BENCH_HORIZON")
        horizon = args.horizon
        if horizon is None and env_horizon:
            horizon = int(env_horizon)
        if horizon is None:
            horizon = 300 if scale == "paper" else 400

    import tempfile

    cfg = _config(scale, horizon)
    with tempfile.TemporaryDirectory(prefix="bench_service_") as tmp:
        report = run_benchmark(cfg, horizon, Path(tmp))
    report["config"]["scale"] = scale
    print_report(report)

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_service.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")


# -- pytest-benchmark entry points (smoke coverage in CI) ---------------------


def test_service_throughput(benchmark, tmp_path):
    cfg = _config("small", 40)
    check_session_equals_simulator(cfg, horizon=20)
    result = benchmark.pedantic(
        lambda: bench_in_process(cfg, 40)[0], rounds=1, iterations=1
    )
    print(
        f"\n[service] {result['decisions_per_sec']:.1f} decisions/s, "
        f"p99 {result['decide_latency']['p99_ms']:.3f} ms"
    )
    assert result["decisions_per_sec"] > 0


def test_service_checkpoint_cost(benchmark, tmp_path):
    cfg = _config("small", 40)
    session = OnlineSession(cfg)
    session.run(20)
    result = benchmark.pedantic(
        lambda: bench_checkpoint(session, tmp_path, repeats=2), rounds=1, iterations=1
    )
    print(
        f"\n[service] checkpoint save {result['save_ms']:.2f} ms, "
        f"restore {result['restore_ms']:.2f} ms, {result['file_bytes']} bytes"
    )
    assert result["file_bytes"] > 0


if __name__ == "__main__":
    main()
