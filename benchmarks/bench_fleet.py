"""Fleet benchmark: sharded metro-scale throughput and latency percentiles.

Measures the sharded fleet driver (DESIGN.md §12) on the axes the paper's
"heavy traffic" claim needs at metro scale:

- **scaling curve**: decisions/min for fleets from hundreds to ~1k SCNs at
  shard counts 1/2/4, each row carrying per-shard decision-latency
  p50/p90/p99 from :class:`repro.metrics.latency.LatencyRecorder`;
- **equivalence gates**: before timing anything, sharded runs must match
  the unsharded reference bit for bit across shard counts {1, 2, 4},
  windowed and per-slot streaming, and the process transport; the sampler-coverage independence fast path must
  collapse to a single round with zero migrants.  A broken build cannot
  publish numbers.

The throughput target (1M+ decisions/min) is only meaningful with real
cores; ``--require-throughput`` enforces it but is waived with a printed
note when ``os.cpu_count() < 2``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # metro scale
    PYTHONPATH=src python benchmarks/bench_fleet.py --smoke    # CI smoke
    PYTHONPATH=src python -m pytest benchmarks/bench_fleet.py  # pytest-benchmark

Results land in ``BENCH_fleet.json`` (see ``--output``).
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

from repro.fleet import FleetConfig, fleet_series_equal, run_fleet
from repro.obs.manifest import build_manifest


def _gate_config(**overrides) -> FleetConfig:
    base = dict(
        tiles_x=2,
        tiles_y=2,
        scns_per_tile=3,
        wds_per_tile=12,
        horizon=16,
        exchange_every=4,
        seed=0,
        truth_seed=7,
    )
    base.update(overrides)
    return FleetConfig(**base)


# -- correctness gates ---------------------------------------------------------


def check_equivalence() -> dict:
    """Sharded ≡ unsharded across windows and transports — or die."""
    checks: dict[str, bool] = {}
    for window in (None, 0):
        cfg = _gate_config(window=window)
        ref = run_fleet(cfg, shards=1, mode="serial")
        for shards in (2, 4):
            res = run_fleet(cfg, shards=shards, mode="serial")
            if not fleet_series_equal(res, ref):
                raise AssertionError(
                    f"sharded run diverged: window={window} shards={shards}"
                )
        label = "default" if window is None else str(window)
        checks[f"window={label}"] = True

    cfg = _gate_config()
    ref = run_fleet(cfg, shards=1, mode="serial")
    res = run_fleet(cfg, shards=2, mode="process")
    if not fleet_series_equal(res, ref):
        raise AssertionError("process-transport run diverged from the serial reference")
    if res.migrants == 0:
        raise AssertionError("mobility gate saw no border migrants — exchange untested")
    checks["process_transport"] = True

    cfg = _gate_config(coverage="sampler")
    ref = run_fleet(cfg, shards=1, mode="serial")
    res = run_fleet(cfg, shards=2, mode="serial")
    if not fleet_series_equal(res, ref):
        raise AssertionError("sampler-coverage sharded run diverged")
    if res.rounds != 1 or res.migrants != 0:
        raise AssertionError(
            f"independence fast path not taken: rounds={res.rounds} "
            f"migrants={res.migrants}"
        )
    checks["sampler_fast_path"] = True
    return checks


# -- timed sections ------------------------------------------------------------


def bench_scaling(
    sizes: list[tuple[str, FleetConfig]], shard_counts: tuple[int, ...], mode: str
) -> list[dict]:
    """Decisions/min per (fleet size × shard count), equivalence-gated."""
    rows: list[dict] = []
    for label, cfg in sizes:
        reference = None
        for shards in shard_counts:
            result = run_fleet(cfg, shards=shards, mode=mode if shards > 1 else "serial")
            if reference is None:
                reference = result
            elif not fleet_series_equal(result, reference):
                raise AssertionError(f"{label}: shards={shards} diverged mid-bench")
            rows.append(
                {
                    "fleet": label,
                    "num_scns": cfg.num_scns,
                    "num_tiles": cfg.num_tiles,
                    "wds": cfg.num_tiles * cfg.wds_per_tile,
                    "horizon": cfg.horizon,
                    "shards": result.shards,
                    "mode": result.mode,
                    "rounds": result.rounds,
                    "migrants": result.migrants,
                    "decisions": result.decisions,
                    "wall_s": result.wall_s,
                    "decisions_per_min": result.decisions_per_min,
                    "equivalent_to_unsharded": True,
                    "shard_latency": result.latency_rows(),
                }
            )
            print(
                f"  {label:>10} M={cfg.num_scns:<5} shards={result.shards} "
                f"[{result.mode:>7}]  {result.decisions_per_min:12,.0f} decisions/min  "
                f"p99 {max(r['p99_ms'] for r in result.latency_rows()):.3f} ms"
            )
    return rows


def _fleet_sizes(smoke: bool) -> list[tuple[str, FleetConfig]]:
    if smoke:
        return [
            (
                "smoke-12",
                _gate_config(wds_per_tile=24, horizon=24, exchange_every=8),
            )
        ]
    return [
        (
            "metro-128",
            FleetConfig(
                tiles_x=4, tiles_y=4, scns_per_tile=8, wds_per_tile=120, horizon=60
            ),
        ),
        (
            "metro-512",
            FleetConfig(
                tiles_x=8, tiles_y=8, scns_per_tile=8, wds_per_tile=120, horizon=20
            ),
        ),
        (
            "metro-1k",
            FleetConfig(
                tiles_x=16,
                tiles_y=8,
                scns_per_tile=8,
                wds_per_tile=60,
                horizon=8,
                exchange_every=8,
            ),
        ),
    ]


def run_benchmark(smoke: bool, mode: str) -> dict:
    print("equivalence gates ...")
    gates = check_equivalence()
    print(f"  {len(gates)} gates passed: {', '.join(sorted(gates))}")
    sizes = _fleet_sizes(smoke)
    shard_counts = (1, 2) if smoke else (1, 2, 4)
    print("scaling curve ...")
    rows = bench_scaling(sizes, shard_counts, mode)
    best = max(rows, key=lambda r: r["decisions_per_min"])
    return {
        "schema": "bench-fleet/v1",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "manifest": build_manifest(
            kind="bench",
            config=sizes[-1][1],
            policies=["LFSC"],
            extra={"cpu_count": os.cpu_count(), "mode": mode, "smoke": smoke},
        ),
        "gates": gates,
        "scaling": rows,
        "headline": {
            "fleet": best["fleet"],
            "num_scns": best["num_scns"],
            "shards": best["shards"],
            "decisions_per_min": best["decisions_per_min"],
            "decide_p99_ms": max(r["p99_ms"] for r in best["shard_latency"]),
        },
    }


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI smoke mode: tiny fleet, shards {1,2}, no JSON unless --output given",
    )
    parser.add_argument(
        "--mode",
        choices=("auto", "serial", "process"),
        default="auto",
        help="execution mode for sharded runs (default: auto)",
    )
    parser.add_argument(
        "--require-throughput",
        type=float,
        default=None,
        metavar="DPM",
        help="fail unless headline decisions/min reaches DPM "
        "(waived with a note on single-core hosts)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="where to write the JSON report (default: repo-root BENCH_fleet.json)",
    )
    args = parser.parse_args(argv)

    report = run_benchmark(args.smoke, args.mode)
    head = report["headline"]
    print(
        f"headline: {head['fleet']} (M={head['num_scns']}, shards={head['shards']}) "
        f"— {head['decisions_per_min']:,.0f} decisions/min, "
        f"decide p99 {head['decide_p99_ms']:.3f} ms"
    )

    if args.require_throughput is not None:
        cores = os.cpu_count() or 1
        if cores < 2:
            print(
                f"note: throughput gate ({args.require_throughput:,.0f}/min) waived "
                f"— host has {cores} core(s); shard workers cannot run in parallel"
            )
        elif head["decisions_per_min"] < args.require_throughput:
            raise SystemExit(
                f"throughput gate failed: {head['decisions_per_min']:,.0f}/min "
                f"< required {args.require_throughput:,.0f}/min"
            )
        else:
            print(f"throughput gate passed (>= {args.require_throughput:,.0f}/min)")

    output = args.output
    if output is None and not args.smoke:
        output = Path(__file__).resolve().parents[1] / "BENCH_fleet.json"
    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")


# -- pytest-benchmark entry points (smoke coverage in CI) -----------------------


def test_fleet_sharded_equivalence(benchmark):
    gates = benchmark.pedantic(check_equivalence, rounds=1, iterations=1)
    assert gates and all(gates.values())


def test_fleet_throughput(benchmark):
    cfg = _gate_config(wds_per_tile=24, horizon=24, exchange_every=8)
    result = benchmark.pedantic(
        lambda: run_fleet(cfg, shards=2, mode="serial"), rounds=1, iterations=1
    )
    print(f"\n[fleet] {result.decisions_per_min:,.0f} decisions/min (serial, 2 shards)")
    assert result.decisions > 0 and len(result.latency_rows()) == 2


if __name__ == "__main__":
    main()
