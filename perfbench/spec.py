"""What the benchmark reports: metric names, units, bounds and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --write-benchmark-json``) and ``run.py`` refuses
to run when the two disagree, so the names later changes cite live here.

Every per-layer metric names the layer boundary the traced run wraps and the
end-to-end metric (on which workload) it should move.  Per-layer figures are
means per repetition, and a repetition is one fixed input (see
``workloads.py``), so they compare across commits.
"""

from __future__ import annotations

from workloads import WORKLOADS

COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]
RUN_SECONDS = 25

#: (name, unit, better, bound, meaning)
END_TO_END = [
    ("slots_per_s", "1/s", "higher", 0.25,
     "slot decisions (one select+update on one network) per wall second, set-up "
     "excluded: policy-slots, served slots or tile-slots"),
    ("setup_s", "s", "lower", 0.25,
     "median over repetitions of process start (before import repro) to first "
     "slot ready"),
    ("decide_ms_p50", "ms", "lower", 0.25,
     "median decision latency: client round trip per decide on service_daemon, "
     "thread CPU time of each policy select elsewhere"),
    ("decide_ms_p99", "ms", "lower", 0.25,
     "99th percentile of the same samples (>= 10 samples beyond it)"),
    ("peak_rss_mb", "MiB", "lower", 0.05,
     "largest per-repetition sum of peak RSS over the process tree (repetition "
     "process plus pool workers or shards; the daemon runs in-process)"),
    ("success_rate", "ratio", "higher", 0.01,
     "1 - error_rate: operations answered ok over operations attempted "
     "(ok:false replies, timeouts, ParallelExecutionError, shard death fail)"),
]

# Workload names, abbreviated for the layer map below.
P, S, F, L = "paper_lfsc", "service_daemon", "fleet_mobility", "lineup_parallel"

#: (name, unit, better, boundary timed, [(end-to-end metric, workload), ...])
PER_LAYER = [
    ("env.workload.calls", "count", "lower",
     "SyntheticWorkload.slot / CoverageSampler.sample_slot",
     [("decide_ms_p50", S)]),
    ("env.workload.busy_ms", "ms", "lower",
     "SyntheticWorkload.slot / CoverageSampler.sample_slot (~0 on fleet_mobility)",
     [("decide_ms_p50", S), ("slots_per_s", P)]),
    ("env.window.calls", "count", "lower", "precompute_window", [("slots_per_s", P)]),
    ("env.window.busy_ms", "ms", "lower",
     "precompute_window (bypassed on service_daemon)", [("slots_per_s", P)]),
    ("env.window.slots", "count", "lower", "precompute_window count argument",
     [("slots_per_s", P)]),
    ("env.window_cache.hits", "count", "higher", "cached_window",
     [("slots_per_s", L)]),
    ("env.window_cache.misses", "count", "lower", "cached_window (paper_lfsc only misses)",
     [("slots_per_s", L)]),
    ("env.window_cache.hit_ratio", "ratio", "higher", "cached_window",
     [("slots_per_s", L)]),
    ("env.window_cache.slots_cached", "count", "lower", "WindowCache.slots_cached",
     [("peak_rss_mb", L)]),
    ("env.window_cache.bytes_cached", "bytes", "lower",
     "numpy bytes held by WindowCache entries, summed over processes",
     [("peak_rss_mb", L), ("peak_rss_mb", P)]),
    ("env.processes.realize_ms", "ms", "lower", "PiecewiseConstantTruth.realize",
     [("slots_per_s", P), ("decide_ms_p50", S)]),
    ("env.processes.expected_ms", "ms", "lower",
     "slot_pair_stats / expected_compound_pairs / means_pairs",
     [("slots_per_s", P), ("decide_ms_p50", S)]),
    ("env.processes.advance_ms", "ms", "lower", "PiecewiseConstantTruth.advance",
     [("slots_per_s", P), ("decide_ms_p50", S)]),
    ("env.simulator.validate_ms", "ms", "lower", "Assignment.validate",
     [("slots_per_s", P)]),
    ("env.simulator.loop_self_ms", "ms", "lower",
     "Simulation.run self time: series recording and expected-metric bookkeeping",
     [("slots_per_s", P)]),
    ("core.lfsc.select_ms", "ms", "lower", "LFSCPolicy.select",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.probability.busy_ms", "ms", "lower",
     "capped_probabilities_batch* as resolved by repro.core.lfsc",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.depround.busy_ms", "ms", "lower",
     "native.walk_segments / depround / walk_into as resolved by repro.core.lfsc",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.greedy.busy_ms", "ms", "lower", "greedy_select_edges as resolved by repro.core.lfsc",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.lfsc.update_ms", "ms", "lower", "LFSCPolicy.update",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.multipliers.busy_ms", "ms", "lower", "LagrangeMultipliers.update",
     [("slots_per_s", P), ("slots_per_s", F), ("decide_ms_p50", S)]),
    ("core.greedy.assigned", "count", "higher", "Alg. 4 output pairs (count only)",
     [("slots_per_s", P)]),
    ("core.greedy.edges", "count", "lower", "Alg. 4 candidate edges (count only)",
     [("slots_per_s", P)]),
    ("core.greedy.accept_ratio", "ratio", "higher", "assigned / candidate edges",
     [("slots_per_s", P)]),
    ("core.native.calls", "count", "higher",
     "repro.core.native walk_segments / greedy_pass / scatter_update",
     [("slots_per_s", P), ("slots_per_s", S), ("slots_per_s", F), ("slots_per_s", L)]),
    ("core.native.fallbacks", "count", "lower",
     "native entry points that returned the fallback signal",
     [("slots_per_s", P), ("slots_per_s", S), ("slots_per_s", F), ("slots_per_s", L)]),
]
for _name in ("vUCB", "FML", "Random"):
    for _op in ("select", "update"):
        PER_LAYER.append(
            (f"baselines.{_name}.{_op}_ms", "ms", "lower",
             f"{_name} policy {_op}", [("slots_per_s", L)])
        )
PER_LAYER += [
    ("service.decide_ms", "ms", "lower", "OnlineSession.decide", [("decide_ms_p50", S)]),
    ("service.feedback_ms", "ms", "lower", "OnlineSession.feedback", [("decide_ms_p50", S)]),
    ("service.save.calls", "count", "lower", "OnlineSession.save", [("decide_ms_p99", S)]),
    ("service.save.busy_ms", "ms", "lower", "OnlineSession.save", [("decide_ms_p99", S)]),
    ("service.save.bytes", "bytes", "lower", "size of the files OnlineSession.save wrote",
     [("decide_ms_p99", S)]),
    ("service.transport_ms", "ms", "lower", "client round trip minus PolicyDaemon.handle",
     [("decide_ms_p50", S)]),
    ("fleet.run_slots_ms", "ms", "lower", "TileSim.run_slots, summed over shards",
     [("slots_per_s", F)]),
    ("fleet.shard_imbalance", "ratio", "lower",
     "max / mean of per-shard TileSim.run_slots busy time", [("slots_per_s", F)]),
    ("fleet.exchange.wait_ms", "ms", "lower", "driver wait on shard replies (_expect)",
     [("slots_per_s", F)]),
    ("fleet.exchange.bytes", "bytes", "lower",
     "bytes through pack_to_shm on the fleet (border exchange and shard results)",
     [("slots_per_s", F)]),
    ("fleet.migrants", "count", "lower", "FleetResult.migrants", [("slots_per_s", F)]),
    ("fleet.rounds", "count", "lower", "FleetResult.rounds", [("slots_per_s", F)]),
    ("utils.parallel.tasks", "count", "lower", "pool tasks (_run_chunk items)",
     [("slots_per_s", L)]),
    ("utils.parallel.worker_busy_ms", "ms", "lower", "pool task wall time in workers",
     [("slots_per_s", L)]),
    ("utils.parallel.wait_ms", "ms", "lower",
     "parallel_map self time in the parent (waiting on futures)", [("slots_per_s", L)]),
    ("utils.parallel.transport_bytes", "bytes", "lower",
     "bytes through pack_to_shm (window-state export and results)",
     [("slots_per_s", L), ("peak_rss_mb", L)]),
    ("utils.parallel.transport_ms", "ms", "lower",
     "self time of pack/unpack_from_shm and export/import_window_state",
     [("slots_per_s", L), ("setup_s", L)]),
    ("utils.parallel.failures", "count", "lower", "parallel_map calls that raised",
     [("success_rate", L)]),
    ("setup.import_ms", "ms", "lower", "import repro.api plus the modules the workload loads",
     [("setup_s", P), ("setup_s", S), ("setup_s", F), ("setup_s", L)]),
    ("setup.build_ms", "ms", "lower",
     "build_simulation / OnlineSession / TileSim construction",
     [("setup_s", P), ("setup_s", S), ("setup_s", F), ("setup_s", L)]),
    ("setup.spawn_ms", "ms", "lower", "process start (pool, shards) and daemon start",
     [("setup_s", S), ("setup_s", F), ("setup_s", L)]),
    ("unattributed_ms", "ms", "lower",
     "timeline minus the self times of every wrapped layer (coverage gap)", []),
    ("traced.timeline_ms", "ms", "lower",
     "sum of root-span durations: the repetition process plus each pool task "
     "and shard; equals the self times plus unattributed_ms", []),
    ("traced.slots_per_s", "1/s", "higher",
     "slots_per_s measured in the traced run (gap to slots_per_s = tracing overhead)", []),
    ("decide.samples", "count", "higher", "decision-latency samples per repetition", []),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (why, _) in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER],
    }


def layer_map() -> dict:
    """Per-layer metric -> the boundary it times and what it should move."""
    return {
        name: {
            "boundary": boundary,
            "moves": [f"{metric} on {workload}" for metric, workload in moves],
        }
        for name, _, _, boundary, moves in PER_LAYER
    }
