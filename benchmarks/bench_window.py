"""End-to-end A/B benchmark of the windowed slot-streaming pipeline.

Runs the identical simulation twice per assignment mode — once with
``window=0`` (the per-slot driver) and once with the windowed driver
(``window=W``, default :data:`repro.env.simulator.DEFAULT_WINDOW`) — and
reports end-to-end per-slot wall-clock for both.  The windowed path is
bit-identical to the per-slot path by construction (the precompute consumes
the RNG streams in exactly the per-slot order; see
``tests/env/test_window.py``), and the script asserts that equivalence on a
short prefix before timing, so the comparison times the same trajectory.

Two scales run by default: the paper scale (M=30, c=20, K∈[35,100]) and a
4x instance (M=60, c=40, K∈[70,200]) showing how the amortization behaves
as the edge count grows.

Usage::

    PYTHONPATH=src python benchmarks/bench_window.py              # both scales
    PYTHONPATH=src python benchmarks/bench_window.py --smoke      # CI smoke
    PYTHONPATH=src python benchmarks/bench_window.py --require-speedup
    PYTHONPATH=src python -m pytest benchmarks/bench_window.py    # pytest-benchmark

Results land in ``BENCH_window.json`` (see ``--output``).  The headline is
the end-to-end speedup of windowed over per-slot at paper scale.
``--require-speedup`` turns the headline into a gate (exit non-zero below
the threshold); it is meant for multi-core CI runners — on a busy or
single-core host the interleaved timings are noisy, so treat numbers from
such hosts as indicative only.

Timing methodology: per-slot and windowed runs are interleaved
``--repeats`` times and the minimum per-arm wall-clock is compared (the
minimum is the least noise-contaminated estimate of the true cost; means
mix in scheduler preemption).

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

from repro.core import native
from repro.core.lfsc import LFSCPolicy
from repro.env.simulator import DEFAULT_WINDOW
from repro.experiments.runner import ExperimentConfig, build_simulation
from repro.obs.manifest import build_manifest

MODES = ("deterministic", "depround")
#: ``LFSCConfig``'s default assignment mode — the configuration the speedup
#: gate judges.  Deterministic mode has no DepRound walk, so the windowed
#: gains there are precompute amortization only (reported, not gated).
DEFAULT_MODE = "depround"
#: Window sizes checked for bit-equivalence before any timing.
EQUIV_WINDOWS = (1, 7, DEFAULT_WINDOW, 64)


def _paper4x(horizon: int) -> ExperimentConfig:
    """A 4x-edge-count instance (M and K doubled, constraints rescaled)."""
    return ExperimentConfig.paper(
        num_scns=60,
        capacity=40,
        alpha=30.0,
        beta=54.0,
        k_min=70,
        k_max=200,
        horizon=horizon,
    )


def _policy(cfg: ExperimentConfig, mode: str) -> LFSCPolicy:
    return LFSCPolicy(cfg.lfsc_config().with_overrides(assignment_mode=mode))


def check_equivalence(cfg: ExperimentConfig, mode: str, horizon: int = 25) -> None:
    """Assert every window size walks the identical trajectory (same seed)."""
    short = cfg.with_overrides(horizon=horizon)
    sim = build_simulation(short)
    baseline = sim.run(_policy(short, mode), horizon, window=0).reward
    for w in EQUIV_WINDOWS:
        sim = build_simulation(short)
        reward = sim.run(_policy(short, mode), horizon, window=w).reward
        if not np.array_equal(baseline, reward):
            raise AssertionError(
                f"window={w} diverged from per-slot in {mode} mode — "
                "benchmark would be invalid"
            )


def timed_run(cfg: ExperimentConfig, mode: str, window: int, horizon: int) -> float:
    """End-to-end wall-clock seconds of one simulation at this window."""
    sim = build_simulation(cfg)
    policy = _policy(cfg, mode)
    t0 = time.perf_counter()
    sim.run(policy, horizon, window=window)
    return time.perf_counter() - t0


def ab_windowed(
    cfg: ExperimentConfig, mode: str, horizon: int, window: int, repeats: int
) -> dict:
    """Interleaved per-slot vs windowed timings; min-of-repeats comparison."""
    per_slot: list[float] = []
    windowed: list[float] = []
    for _ in range(repeats):
        per_slot.append(timed_run(cfg, mode, 0, horizon))
        windowed.append(timed_run(cfg, mode, window, horizon))
    scale = 1e3 / horizon
    t0, tw = min(per_slot), min(windowed)
    return {
        "window": window,
        "repeats": repeats,
        "per_slot_ms_per_slot": t0 * scale,
        "windowed_ms_per_slot": tw * scale,
        "per_slot_ms_per_slot_median": sorted(per_slot)[len(per_slot) // 2] * scale,
        "windowed_ms_per_slot_median": sorted(windowed)[len(windowed) // 2] * scale,
        "e2e_speedup": t0 / tw,
    }


# -- report -------------------------------------------------------------------


def run_benchmark(
    scales: dict[str, tuple[ExperimentConfig, int]], window: int, repeats: int
) -> dict:
    first_cfg = next(iter(scales.values()))[0]
    report: dict = {
        "schema": "bench_window/v2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "manifest": build_manifest(kind="bench", config=first_cfg),
        "native_kernels": native.available(),
        "default_window": DEFAULT_WINDOW,
        "equivalence_windows": list(EQUIV_WINDOWS),
        "scales": {},
    }
    for scale_name, (cfg, horizon) in scales.items():
        entry: dict = {
            "config": {
                "num_scns": cfg.num_scns,
                "capacity": cfg.capacity,
                "coverage_range": [cfg.k_min, cfg.k_max],
                "horizon": horizon,
                "seed": cfg.seed,
            },
            "modes": {},
        }
        for mode in MODES:
            check_equivalence(cfg, mode)
            entry["modes"][mode] = ab_windowed(cfg, mode, horizon, window, repeats)
        report["scales"][scale_name] = entry
    headline_scale = "paper" if "paper" in report["scales"] else next(iter(report["scales"]))
    report["headline"] = {
        f"e2e_speedup_{mode}": report["scales"][headline_scale]["modes"][mode]["e2e_speedup"]
        for mode in MODES
    }
    report["headline"]["scale"] = headline_scale
    return report


def print_report(report: dict) -> None:
    native_note = "native kernels" if report["native_kernels"] else "pure python (no native kernels)"
    print(f"windowed pipeline A/B — window={report['default_window']}, {native_note}")
    for scale_name, entry in report["scales"].items():
        cfg = entry["config"]
        print(
            f"\n[{scale_name}] M={cfg['num_scns']} c={cfg['capacity']} "
            f"K∈{cfg['coverage_range']} horizon={cfg['horizon']}"
        )
        header = f"{'mode':<14} {'per-slot':>10} {'windowed':>10} {'speedup':>9}"
        print(header)
        print("-" * len(header))
        for mode, row in entry["modes"].items():
            print(
                f"{mode:<14} {row['per_slot_ms_per_slot']:>8.3f}ms "
                f"{row['windowed_ms_per_slot']:>8.3f}ms {row['e2e_speedup']:>8.2f}x"
            )
    print()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default=os.environ.get("REPRO_BENCH_SCALE", "paper"),
        help="base problem size (default: REPRO_BENCH_SCALE or paper)",
    )
    parser.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="slots to simulate (default: REPRO_BENCH_HORIZON, else 300 paper / 400 small)",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help=f"window size W to A/B against per-slot (default {DEFAULT_WINDOW})",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="interleaved repeats per arm; minimum is compared (default 3)",
    )
    parser.add_argument(
        "--no-4x", action="store_true", help="skip the 4x-scale instance"
    )
    parser.add_argument(
        "--require-speedup",
        action="store_true",
        help="exit non-zero unless the default-mode (depround) e2e speedup "
        "meets --threshold (intended for multi-core CI runners)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.5,
        help="speedup gate for --require-speedup (default 1.5)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: small scale, short horizon, no 4x, no JSON unless --output given",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: repo-root BENCH_window.json)",
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

    base = ExperimentConfig.paper() if scale == "paper" else ExperimentConfig.small()
    base = base.with_overrides(horizon=horizon)
    scales: dict[str, tuple[ExperimentConfig, int]] = {scale: (base, horizon)}
    if scale == "paper" and not args.no_4x and not args.smoke:
        h4 = max(horizon // 2, 50)
        scales["paper4x"] = (_paper4x(h4), h4)

    report = run_benchmark(scales, args.window, args.repeats)
    print_report(report)

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_window.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if args.require_speedup:
        gated = report["headline"][f"e2e_speedup_{DEFAULT_MODE}"]
        if gated < args.threshold:
            print(
                f"FAIL: {DEFAULT_MODE} e2e speedup {gated:.2f}x below the "
                f"{args.threshold:.2f}x gate",
                file=sys.stderr,
            )
            raise SystemExit(1)
        print(f"speedup gate met ({DEFAULT_MODE}): {gated:.2f}x >= {args.threshold:.2f}x")


# -- pytest entry points (equivalence + smoke coverage in CI) -----------------


def _smoke_cfg() -> tuple[ExperimentConfig, int]:
    horizon = int(os.environ.get("REPRO_BENCH_HORIZON", "60"))
    return ExperimentConfig.small(horizon=horizon), horizon


def test_windowed_equivalent_before_timing():
    cfg, _ = _smoke_cfg()
    for mode in MODES:
        check_equivalence(cfg, mode)


def test_windowed_small_scale(benchmark):
    cfg, horizon = _smoke_cfg()
    sim = build_simulation(cfg)
    policy = _policy(cfg, "depround")
    result = benchmark.pedantic(
        lambda: sim.run(policy, horizon, window=DEFAULT_WINDOW), rounds=3, iterations=1
    )
    assert result.reward.shape == (horizon,)


def test_per_slot_small_scale(benchmark):
    cfg, horizon = _smoke_cfg()
    sim = build_simulation(cfg)
    policy = _policy(cfg, "depround")
    result = benchmark.pedantic(
        lambda: sim.run(policy, horizon, window=0), rounds=3, iterations=1
    )
    assert result.reward.shape == (horizon,)


if __name__ == "__main__":
    main()
