"""Parallel vs. serial replication — wall-clock A/B with a determinism gate.

Times an N-replication LFSC sweep twice through
:func:`repro.experiments.replication.run_replications` — once serial
(``workers=1``) and once process-parallel (``workers=0``, one process per
core) — and verifies the two produce **bit-identical** per-seed results
before reporting the speedup.  A benchmark that silently compared diverging
runs would be meaningless, so equivalence is asserted, not assumed.

Usage::

    PYTHONPATH=src python benchmarks/bench_replication_parallel.py             # full
    PYTHONPATH=src python benchmarks/bench_replication_parallel.py --smoke     # CI smoke
    PYTHONPATH=src python benchmarks/bench_replication_parallel.py --require-speedup 2.0

Results land in ``BENCH_replication.json`` (see ``--output``): serial and
parallel wall-clock for the sweep, the resolved worker count, the host's CPU
count, and the derived speedup.  On a single-core host ``workers=0`` falls
back to serial by design, so the speedup reads ~1.0 there and the JSON says
so explicitly (``parallel.serial_fallback``); regenerate on a multi-core
runner (CI does) for the real figure.  ``--require-speedup X`` turns the
speedup into a hard exit-code gate for multi-core CI runners.

Scale knobs follow ``benchmarks/conftest.py``: ``REPRO_BENCH_SCALE``
(``paper``/``small``) and ``REPRO_BENCH_HORIZON``, overridable via CLI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.experiments.replication import run_replications
from repro.experiments.runner import ExperimentConfig
from repro.obs.manifest import build_manifest
from repro.utils.parallel import resolve_workers

POLICIES = ("LFSC",)

#: Series compared bit-for-bit between the serial and parallel sweeps.
_SERIES = ("reward", "expected_reward", "violation_qos", "violation_resource")


def _config(scale: str, horizon: int | None) -> ExperimentConfig:
    cfg = ExperimentConfig.paper() if scale == "paper" else ExperimentConfig.small()
    if horizon is not None:
        cfg = cfg.with_overrides(horizon=horizon)
    return cfg


def _timed_sweep(cfg: ExperimentConfig, replications: int, workers: int) -> tuple[float, list]:
    t0 = time.perf_counter()
    runs = run_replications(cfg, POLICIES, seeds=replications, workers=workers)
    return time.perf_counter() - t0, runs


def check_equivalence(serial_runs: list, parallel_runs: list) -> None:
    """Assert the two sweeps produced identical per-seed trajectories."""
    assert len(serial_runs) == len(parallel_runs)
    for a, b in zip(serial_runs, parallel_runs):
        if a.seed != b.seed:
            raise AssertionError(f"seed order diverged: {a.seed} vs {b.seed}")
        for name in POLICIES:
            for series in _SERIES:
                if not np.array_equal(
                    getattr(a.results[name], series), getattr(b.results[name], series)
                ):
                    raise AssertionError(
                        f"{name}.{series} diverged at seed {a.seed} — "
                        "parallel != serial, benchmark would be invalid"
                    )


def run_benchmark(cfg: ExperimentConfig, replications: int) -> dict:
    resolved = resolve_workers(0, replications)

    serial_s, serial_runs = _timed_sweep(cfg, replications, workers=1)
    parallel_s, parallel_runs = _timed_sweep(cfg, replications, workers=0)
    check_equivalence(serial_runs, parallel_runs)

    return {
        "schema": "bench_replication/v2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "manifest": build_manifest(
            kind="bench",
            config=cfg,
            seeds=[r.seed for r in serial_runs],
            policies=list(POLICIES),
        ),
        "config": {
            "num_scns": cfg.num_scns,
            "capacity": cfg.capacity,
            "horizon": cfg.horizon,
            "base_seed": cfg.seed,
            "replications": replications,
            "policies": list(POLICIES),
        },
        "serial": {"workers": 1, "wall_s": serial_s},
        "parallel": {
            "workers_requested": 0,
            "workers_resolved": resolved,
            "serial_fallback": resolved == 1,
            "wall_s": parallel_s,
        },
        "speedup": serial_s / parallel_s,
        "bit_identical": True,
        "note": (
            "single-core host: workers=0 fell back to serial, speedup ~1.0 by design; "
            "regenerate on a multi-core runner for the parallel figure"
            if resolved == 1
            else f"parallel sweep used {resolved} worker processes"
        ),
    }


def print_report(report: dict) -> None:
    cfg = report["config"]
    print(
        f"replication sweep A/B — M={cfg['num_scns']} c={cfg['capacity']} "
        f"T={cfg['horizon']} x {cfg['replications']} replications "
        f"({report['manifest']['host']['cpu_count']} CPUs)"
    )
    print(f"  serial   (workers=1): {report['serial']['wall_s']:8.2f} s")
    print(
        f"  parallel (workers=0): {report['parallel']['wall_s']:8.2f} s "
        f"[{report['parallel']['workers_resolved']} processes]"
    )
    print(f"  speedup:  {report['speedup']:.2f}x   per-seed results bit-identical: yes")
    print(f"  note: {report['note']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default=os.environ.get("REPRO_BENCH_SCALE", "small"),
        help="problem size (default: REPRO_BENCH_SCALE or small)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="slots per replication (default: REPRO_BENCH_HORIZON, else 600 small / 1000 paper)",
    )
    parser.add_argument(
        "--replications", type=int, default=8, help="sweep size (default: 8)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: short horizon, no JSON unless --output given",
    )
    parser.add_argument(
        "--require-speedup",
        type=float,
        default=None,
        help="exit non-zero unless speedup >= X (use on multi-core runners)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: repo-root BENCH_replication.json)",
    )
    args = parser.parse_args(argv)
    if args.horizon is not None and args.horizon <= 0:
        parser.error(f"--horizon must be a positive slot count, got {args.horizon}")

    if args.smoke:
        scale = "small"
        horizon = 150 if args.horizon is None else args.horizon
    else:
        scale = args.scale
        env_horizon = os.environ.get("REPRO_BENCH_HORIZON")
        horizon = args.horizon
        if horizon is None and env_horizon:
            horizon = int(env_horizon)
        if horizon is None:
            horizon = 1000 if scale == "paper" else 600

    cfg = _config(scale, horizon)
    report = run_benchmark(cfg, args.replications)
    report["config"]["scale"] = scale
    print_report(report)

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_replication.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if args.require_speedup is not None and report["speedup"] < args.require_speedup:
        print(
            f"FAIL: speedup {report['speedup']:.2f}x < required "
            f"{args.require_speedup:.2f}x",
            file=sys.stderr,
        )
        return 1
    return 0


# -- pytest entry point (determinism smoke, no timing assertions) -------------


def test_parallel_replication_matches_serial_smoke():
    cfg = _config("small", 40)
    serial_s, serial_runs = _timed_sweep(cfg, 3, workers=1)
    parallel_s, parallel_runs = _timed_sweep(cfg, 3, workers=0)
    check_equivalence(serial_runs, parallel_runs)


if __name__ == "__main__":
    raise SystemExit(main())
