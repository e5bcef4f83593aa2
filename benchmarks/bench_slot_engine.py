"""End-to-end A/B benchmark of LFSC's slot kernel against the per-SCN loop.

Runs the identical simulation twice per assignment mode — once on the
paper-shaped per-SCN loop (the ``reference`` arm: the test oracle of
``tests/core/reference_lfsc.py``) and once on :class:`LFSCPolicy`'s flat
edge-list kernel (the ``batched`` arm) — and reports per-slot wall-clock for
the policy hot path (``select`` + ``update``) and for the full simulation
loop.  Because the two are bit-equivalent given the same seed
(``tests/core/test_lfsc_engine_equivalence.py``), both runs traverse the
same weight/assignment trajectory, so the comparison is apples to apples;
the script asserts that equivalence on a short prefix before timing.

Usage::

    PYTHONPATH=src python benchmarks/bench_slot_engine.py            # paper scale
    PYTHONPATH=src python benchmarks/bench_slot_engine.py --smoke    # CI smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_slot_engine.py  # pytest-benchmark

Results land in ``BENCH_slot_engine.json`` (see ``--output``): per-slot
milliseconds for both arms in both assignment modes, plus the derived
speedups.  The headline number is the policy-engine speedup — the ratio of
reference to batched (select + update) time — since that is exactly the
code the two arms implement differently; the end-to-end ratio also
includes the arm-independent environment work (workload generation,
feedback realization, expected-violation recording) and is therefore lower.

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

from repro.core.lfsc import LFSCPolicy
from repro.experiments.runner import ExperimentConfig, build_simulation
from repro.obs.manifest import build_manifest

# The reference arm is the per-SCN test oracle, importable from the repo root.
ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.core.reference_lfsc import ReferenceLFSCPolicy  # noqa: E402

MODES = ("deterministic", "depround")
ENGINES = ("reference", "batched")
_POLICIES = {"reference": ReferenceLFSCPolicy, "batched": LFSCPolicy}


def _config(scale: str, horizon: int | None) -> ExperimentConfig:
    cfg = ExperimentConfig.paper() if scale == "paper" else ExperimentConfig.small()
    if horizon is not None:
        cfg = cfg.with_overrides(horizon=horizon)
    return cfg


def _policy(cfg: ExperimentConfig, mode: str, engine: str) -> LFSCPolicy:
    return _POLICIES[engine](cfg.lfsc_config().with_overrides(assignment_mode=mode))


def timed_run(cfg: ExperimentConfig, mode: str, engine: str, horizon: int) -> dict:
    """Per-slot wall-clock (ms) of one simulation: select, update, end-to-end."""
    sim = build_simulation(cfg)
    policy = _policy(cfg, mode, engine)
    select_s = [0.0]
    update_s = [0.0]

    orig_select = policy.select
    orig_update = policy._update

    def select(slot):
        t0 = time.perf_counter()
        result = orig_select(slot)
        select_s[0] += time.perf_counter() - t0
        return result

    def update(slot, feedback):
        t0 = time.perf_counter()
        orig_update(slot, feedback)
        update_s[0] += time.perf_counter() - t0

    policy.select = select
    policy._update = update

    # window=0 pins the per-slot driver: this benchmark isolates the two
    # arms' slot bodies; the windowed pipeline is A/B'd separately in
    # benchmarks/bench_window.py.
    t0 = time.perf_counter()
    result = sim.run(policy, horizon, window=0)
    total_s = time.perf_counter() - t0

    scale = 1e3 / horizon
    return {
        "select_ms_per_slot": select_s[0] * scale,
        "update_ms_per_slot": update_s[0] * scale,
        "policy_ms_per_slot": (select_s[0] + update_s[0]) * scale,
        "e2e_ms_per_slot": total_s * scale,
        "total_reward": float(result.reward.sum()),
    }


def check_equivalence(cfg: ExperimentConfig, mode: str, horizon: int = 25) -> None:
    """Assert both arms produce the identical trajectory (same seed)."""
    short = cfg.with_overrides(horizon=horizon)
    rewards = {}
    for engine in ENGINES:
        sim = build_simulation(short)
        result = sim.run(_policy(short, mode, engine), horizon, window=0)
        rewards[engine] = result.reward
    if not np.array_equal(rewards["reference"], rewards["batched"]):
        raise AssertionError(f"arms diverged in {mode} mode — benchmark would be invalid")


def run_benchmark(cfg: ExperimentConfig, horizon: int) -> dict:
    report: dict = {
        "schema": "bench_slot_engine/v2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "manifest": build_manifest(kind="bench", config=cfg, extra={"arms": list(ENGINES)}),
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
        entry: dict = {}
        for engine in ENGINES:
            entry[engine] = timed_run(cfg, mode, engine, horizon)
        ref, bat = entry["reference"], entry["batched"]
        entry["policy_speedup"] = ref["policy_ms_per_slot"] / bat["policy_ms_per_slot"]
        entry["e2e_speedup"] = ref["e2e_ms_per_slot"] / bat["e2e_ms_per_slot"]
        report["modes"][mode] = entry
    report["headline"] = {
        "policy_speedup_deterministic": report["modes"]["deterministic"]["policy_speedup"],
        "policy_speedup_depround": report["modes"]["depround"]["policy_speedup"],
        "e2e_speedup_deterministic": report["modes"]["deterministic"]["e2e_speedup"],
        "e2e_speedup_depround": report["modes"]["depround"]["e2e_speedup"],
    }
    return report


def print_report(report: dict) -> None:
    cfg = report["config"]
    print(
        f"slot engine A/B — M={cfg['num_scns']} c={cfg['capacity']} "
        f"K∈{cfg['coverage_range']} horizon={cfg['horizon']}"
    )
    header = f"{'mode':<14} {'engine':<10} {'select':>8} {'update':>8} {'policy':>8} {'e2e':>8}"
    print(header)
    print("-" * len(header))
    for mode, entry in report["modes"].items():
        for engine in ENGINES:
            row = entry[engine]
            print(
                f"{mode:<14} {engine:<10} "
                f"{row['select_ms_per_slot']:>7.3f}m {row['update_ms_per_slot']:>7.3f}m "
                f"{row['policy_ms_per_slot']:>7.3f}m {row['e2e_ms_per_slot']:>7.3f}m"
            )
        print(
            f"{mode:<14} {'speedup':<10} {'':>8} {'':>8} "
            f"{entry['policy_speedup']:>7.2f}x {entry['e2e_speedup']:>7.2f}x"
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
        help="slots to simulate (default: REPRO_BENCH_HORIZON, else 300 paper / 400 small)",
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
        help="where to write the JSON report (default: repo-root BENCH_slot_engine.json)",
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

    cfg = _config(scale, horizon)
    report = run_benchmark(cfg, horizon)
    report["config"]["scale"] = scale
    print_report(report)

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_slot_engine.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")


# -- pytest-benchmark entry points (smoke coverage in CI) ---------------------


def _smoke_cfg() -> tuple[ExperimentConfig, int]:
    horizon = int(os.environ.get("REPRO_BENCH_HORIZON", "60"))
    return _config("small", horizon), horizon


def test_slot_engine_equivalent_before_timing():
    cfg, _ = _smoke_cfg()
    for mode in MODES:
        check_equivalence(cfg, mode)


def test_batched_engine_small_scale(benchmark):
    cfg, horizon = _smoke_cfg()
    sim = build_simulation(cfg)
    policy = _policy(cfg, "depround", "batched")
    result = benchmark.pedantic(
        lambda: sim.run(policy, horizon, window=0), rounds=3, iterations=1
    )
    assert result.reward.shape == (horizon,)


def test_reference_engine_small_scale(benchmark):
    cfg, horizon = _smoke_cfg()
    sim = build_simulation(cfg)
    policy = _policy(cfg, "depround", "reference")
    result = benchmark.pedantic(
        lambda: sim.run(policy, horizon, window=0), rounds=3, iterations=1
    )
    assert result.reward.shape == (horizon,)


if __name__ == "__main__":
    main()
