"""Overhead benchmark for the observability subsystem (DESIGN.md §7).

Times the identical simulation in three states:

- ``off`` — no obs context installed (the default fast path);
- ``metrics`` — a context with a live registry but no trace recorder
  ("tracing disabled": spans feed histograms, nothing is written);
- ``trace`` — full JSONL slot tracing, ``sample_every=1``.

Before timing, the script asserts all three states produce bit-identical
reward trajectories — a benchmark of diverging runs
would be meaningless, and divergence means instrumentation perturbed an
RNG.  The headline number is the *disabled* overhead — ``metrics`` vs
``off`` — which the observability contract bounds at <5%: the subsystem
must be free when nobody is looking.  Timings use min-of-N repeats (least
noisy estimator on a busy host).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py              # paper scale
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --smoke      # CI smoke
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --require-overhead-below 5

Results land in ``BENCH_obs.json`` with the run manifest embedded.  The
``--require-overhead-below PCT`` gate is opt-in (like the speedup gate of
``bench_replication_parallel.py``) so CI smoke runs on noisy shared hosts
don't flake; the committed paper-scale report is the honest record.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.lfsc import LFSCPolicy
from repro.experiments.runner import ExperimentConfig, build_simulation
from repro.obs import MetricsRegistry, build_manifest, observe

STATES = ("off", "metrics", "trace")


def _config(scale: str, horizon: int | None) -> ExperimentConfig:
    cfg = ExperimentConfig.paper() if scale == "paper" else ExperimentConfig.small()
    if horizon is not None:
        cfg = cfg.with_overrides(horizon=horizon)
    return cfg


def _run_state(cfg: ExperimentConfig, state: str, horizon: int, trace_dir: Path):
    """One simulation under the given obs state; returns (result, seconds)."""
    sim = build_simulation(cfg)
    policy = LFSCPolicy(cfg.lfsc_config())
    if state == "off":
        t0 = time.perf_counter()
        result = sim.run(policy, horizon)
        return result, time.perf_counter() - t0
    trace_path = trace_dir / f"{state}.jsonl" if state == "trace" else None
    with observe(trace_path=trace_path, registry=MetricsRegistry()):
        t0 = time.perf_counter()
        result = sim.run(policy, horizon)
        return result, time.perf_counter() - t0


def check_equivalence(cfg: ExperimentConfig, horizon: int, trace_dir: Path) -> None:
    """All three obs states must yield bit-identical trajectories."""
    short = cfg.with_overrides(horizon=min(horizon, 25))
    rewards = {}
    for state in STATES:
        result, _ = _run_state(short, state, short.horizon, trace_dir)
        rewards[state] = result.reward
    for state in ("metrics", "trace"):
        if not np.array_equal(rewards["off"], rewards[state]):
            raise AssertionError(
                f"run diverged with obs state {state!r} — "
                "instrumentation perturbed the run; benchmark invalid"
            )


def run_benchmark(cfg: ExperimentConfig, horizon: int, repeats: int) -> dict:
    report: dict = {
        "schema": "bench_obs/v2",
        "manifest": build_manifest(
            kind="bench",
            config=cfg,
            extra={"repeats": repeats, "states": list(STATES)},
        ),
        "config": {"horizon": horizon, "seed": cfg.seed, "repeats": repeats},
    }
    with tempfile.TemporaryDirectory() as tmp:
        trace_dir = Path(tmp)
        check_equivalence(cfg, horizon, trace_dir)
        times = {state: [] for state in STATES}
        for _ in range(repeats):
            for state in STATES:
                _, seconds = _run_state(cfg, state, horizon, trace_dir)
                times[state].append(seconds)
    best = {state: min(ts) for state, ts in times.items()}
    report["timings"] = {
        f"{state}_ms_per_slot": 1e3 * best[state] / horizon for state in STATES
    }
    report["headline"] = {
        "disabled_overhead_pct": 100.0 * (best["metrics"] / best["off"] - 1.0),
        "trace_overhead_pct": 100.0 * (best["trace"] / best["off"] - 1.0),
    }
    return report


def print_report(report: dict) -> None:
    cfg = report["config"]
    print(f"obs overhead — horizon={cfg['horizon']} repeats={cfg['repeats']} (min-of-N)")
    header = f"{'off':>10} {'metrics':>10} {'trace':>10} {'disabled':>10} {'tracing':>10}"
    print(header)
    print("-" * len(header))
    e, h = report["timings"], report["headline"]
    print(
        f"{e['off_ms_per_slot']:>9.3f}m {e['metrics_ms_per_slot']:>9.3f}m "
        f"{e['trace_ms_per_slot']:>9.3f}m {h['disabled_overhead_pct']:>+9.2f}% "
        f"{h['trace_overhead_pct']:>+9.2f}%"
    )
    print(
        f"\nheadline: disabled overhead {h['disabled_overhead_pct']:+.2f}% "
        f"(budget <5%), tracing {h['trace_overhead_pct']:+.2f}%"
    )


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scale",
        choices=("paper", "small"),
        default=os.environ.get("REPRO_BENCH_SCALE", "paper"),
    )
    parser.add_argument("--horizon", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=3, help="min-of-N repeats")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: small scale, short horizon, no JSON unless --output given",
    )
    parser.add_argument(
        "--require-overhead-below",
        type=float,
        default=None,
        metavar="PCT",
        help="exit non-zero when disabled overhead exceeds PCT percent "
        "(opt-in gate; timing asserts flake on shared hosts)",
    )
    parser.add_argument("--output", type=Path, default=None)
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

    cfg = _config(scale, horizon)
    report = run_benchmark(cfg, horizon, args.repeats)
    report["config"]["scale"] = scale
    print_report(report)

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_obs.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")

    if args.require_overhead_below is not None:
        worst = report["headline"]["disabled_overhead_pct"]
        if worst >= args.require_overhead_below:
            raise SystemExit(
                f"disabled obs overhead {worst:+.2f}% >= "
                f"{args.require_overhead_below}% budget"
            )
        print(f"overhead gate passed: {worst:+.2f}% < {args.require_overhead_below}%")


# -- pytest-benchmark entry points (smoke coverage in CI) ---------------------


def _smoke_cfg() -> tuple[ExperimentConfig, int]:
    horizon = int(os.environ.get("REPRO_BENCH_HORIZON", "60"))
    return _config("small", horizon), horizon


def test_obs_states_equivalent_before_timing(tmp_path):
    cfg, horizon = _smoke_cfg()
    check_equivalence(cfg, horizon, tmp_path)


def test_lfsc_with_metrics_context(benchmark):
    cfg, horizon = _smoke_cfg()
    sim = build_simulation(cfg)
    policy = LFSCPolicy(cfg.lfsc_config())

    def run():
        with observe(registry=MetricsRegistry()):
            return sim.run(policy, horizon)

    result = benchmark.pedantic(run, rounds=3, iterations=1)
    assert result.reward.shape == (horizon,)


if __name__ == "__main__":
    main()
