"""The repository benchmark: gate, then time, one workload (or all four).

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_lfsc --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15
    python3 perfbench/run.py --write-benchmark-json

A run first passes the workload's correctness gate on a short prefix (the
program's own contracts: windowed = per-slot, session = batch, sharded =
unsharded, pooled = serial, and one seed's total reward repeating); a failed
gate prints the error and exits non-zero without a number.  Then it starts
fresh repetition processes (``rep.py``), each on a fresh seed derived from
``--seed``, until ``--seconds`` have passed, and checks each one's output.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run and reports the per-layer metrics (``spec.py``).  ``--workload
all`` runs both for every workload and reports the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; a fuller report, with the run
manifest, host and per-layer table, goes to ``.perfbench/reports/``.
Everything the benchmark writes stays under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
import workloads  # noqa: E402

#: A repetition that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 60
#: No new repetition starts after this much measuring, whatever --seconds says
#: (with the gate and one late repetition a run still ends within 180 s).
MAX_MEASURE_S = 90


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {text!r}")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=_seed)
    p.add_argument("--seconds", type=_positive_int, default=spec.RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="regenerate BENCHMARK.json from perfbench/spec.py and exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and (args.workload is None or args.seed is None):
        p.error("--workload and --seed are required")
    return args


class Failure(RuntimeError):
    """The benchmark cannot produce a trustworthy number."""


# ---------------------------------------------------------------------------
# Environment, provenance.
# ---------------------------------------------------------------------------


def prepare_environment(work: Path) -> dict:
    """Point the program at the checkout's source and keep writes inside it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise Failure(f"program source not found: {src / 'repro'} is missing")
    (work / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    env["REPRO_NATIVE_CACHE"] = str(work / "native")
    env["TMPDIR"] = str(work / "tmp")
    os.environ.update(env)
    sys.path.insert(0, str(src))
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance() -> dict:
    from repro.core import native
    from repro.obs.manifest import build_manifest

    compiled = native.available()  # compiles the kernels into the checkout once
    return {
        "manifest": build_manifest(kind="bench", extra={"benchmark": "perfbench"}),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "native_kernels": compiled,
    }


def warn_if_fallback(prov: dict) -> None:
    if prov["native_kernels"]:
        return
    banner = (
        "!" * 72 + "\nWARNING: repro.core.native kernels did NOT compile; this run uses the\n"
        "pure-Python fallback, which is ~1.4x slower on paper_lfsc slots_per_s.\n"
        "Numbers from this run are not comparable with native runs.\n" + "!" * 72
    )
    print(banner, file=sys.stderr)
    print(banner)


# ---------------------------------------------------------------------------
# Repetitions.
# ---------------------------------------------------------------------------


def run_rep(workload: str, seed: int, trace: int, run_id: int, work: Path, env: dict) -> dict:
    repdir = work / f"rep-{run_id}"
    repdir.mkdir(parents=True)
    out = repdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
        "--run-id", str(run_id), "--workdir", str(repdir), "--out", str(out),
    ]
    with open(repdir / "stdout.txt", "wb") as so, open(repdir / "stderr.txt", "wb") as se:
        spawn = time.perf_counter()
        # Its own session, so a hung repetition is killed with its pool
        # workers or shards.
        proc = subprocess.Popen([*cmd, "--spawn-time", repr(spawn)], stdout=so, stderr=se,
                                env=env, cwd=str(ROOT), start_new_session=True)
        try:
            code = proc.wait(timeout=REP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = "timeout"
    if code != 0 or not out.is_file():
        tail = (repdir / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"attempted": 1, "failed": 1, "problems": [f"repetition exit {code}: {tail}"]}
    with open(out) as f:
        return json.load(f)


def nearest_rank(sorted_values: list[float], q: float) -> float:
    k = max(0, min(len(sorted_values) - 1, int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


def end_to_end(reps: list[dict]) -> tuple[dict, dict]:
    ok = [r for r in reps if "slot_s" in r and not r.get("problems")]
    slots = sum(r["slots"] for r in ok)
    slot_s = sum(r["slot_s"] for r in ok)
    samples = sorted(s for r in ok for s in r["decide_s"])
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "slots_per_s": slots / slot_s,
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "decide_ms_p50": 1e3 * nearest_rank(samples, 0.50),
        "decide_ms_p99": 1e3 * nearest_rank(samples, 0.99),
        "peak_rss_mb": max(r["peak_rss_kb"] for r in ok) / 1024.0,
        "success_rate": 1.0 - failed / attempted,
    }
    extra = {
        "error_rate": failed / attempted,
        "decide_samples": len(samples),
        "decide_samples_beyond_p99": len(samples) - int(-(-0.99 * len(samples) // 1)),
        "repetitions": len(reps),
        "setup_s_all": [r["setup_s"] for r in ok],
        "slots": slots,
        "slot_s": slot_s,
    }
    return values, extra


def per_layer(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    ok = [r for r in reps if "table" in r]
    rows = []
    for r in ok:
        table, totals, c = r["table"], r["totals"], r["counters"]

        def busy(name, table=table):
            return table.get(name, {}).get("busy_ms", 0.0)

        def self_ms(name, table=table):
            return table.get(name, {}).get("self_ms", 0.0)

        def count(name, table=table):
            return table.get(name, {}).get("count", 0)

        hits, misses = c.get("window_cache.hits", 0.0), c.get("window_cache.misses", 0.0)
        edges, assigned = c.get("greedy.edges", 0.0), c.get("greedy.assigned", 0.0)
        fleet = workload == "fleet_mobility"
        row = {
            "env.workload.calls": count("env.workload"),
            "env.workload.busy_ms": busy("env.workload"),
            "env.window.calls": count("env.window"),
            "env.window.busy_ms": busy("env.window"),
            "env.window.slots": c.get("window.slots", 0.0),
            "env.window_cache.hits": hits,
            "env.window_cache.misses": misses,
            "env.window_cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "env.window_cache.slots_cached": c.get("window_cache.slots_cached", 0.0),
            "env.window_cache.bytes_cached": c.get("window_cache.bytes_cached", 0.0),
            "env.processes.realize_ms": busy("env.processes.realize"),
            "env.processes.expected_ms": busy("env.processes.expected"),
            "env.processes.advance_ms": busy("env.processes.advance"),
            "env.simulator.validate_ms": busy("env.simulator.validate"),
            "env.simulator.loop_self_ms": self_ms("env.simulator.run"),
            "core.lfsc.select_ms": busy("core.lfsc.select"),
            "core.probability.busy_ms": busy("core.probability"),
            "core.depround.busy_ms": busy("core.depround"),
            "core.greedy.busy_ms": busy("core.greedy"),
            "core.lfsc.update_ms": busy("core.lfsc.update"),
            "core.multipliers.busy_ms": busy("core.multipliers"),
            "core.greedy.assigned": assigned,
            "core.greedy.edges": edges,
            "core.greedy.accept_ratio": assigned / edges if edges else 0.0,
            "core.native.calls": c.get("native.calls", 0.0),
            "core.native.fallbacks": c.get("native.fallbacks", 0.0),
            "service.decide_ms": busy("service.decide"),
            "service.feedback_ms": busy("service.feedback"),
            "service.save.calls": count("service.save"),
            "service.save.busy_ms": busy("service.save"),
            "service.save.bytes": c.get("save.bytes", 0.0),
            "service.transport_ms": busy("service.roundtrip") - busy("service.handle"),
            "fleet.run_slots_ms": busy("fleet.run_slots"),
            "fleet.shard_imbalance": totals.get("shard_imbalance", 0.0),
            "fleet.exchange.wait_ms": busy("fleet.exchange.wait"),
            "fleet.exchange.bytes": c.get("shm.bytes", 0.0) if fleet else 0.0,
            "fleet.migrants": r.get("migrants", 0),
            "fleet.rounds": r.get("rounds", 0),
            "utils.parallel.tasks": c.get("parallel.tasks", 0.0),
            "utils.parallel.worker_busy_ms": busy("utils.parallel.worker"),
            "utils.parallel.wait_ms": self_ms("utils.parallel.map"),
            "utils.parallel.transport_bytes": 0.0 if fleet else c.get("shm.bytes", 0.0),
            "utils.parallel.transport_ms": 0.0 if fleet else sum(
                self_ms(n) for n in ("utils.shm.pack", "utils.shm.unpack",
                                     "utils.parallel.window_export",
                                     "utils.parallel.window_import")
            ),
            "utils.parallel.failures": c.get("utils.parallel.map.errors", 0.0),
            "setup.import_ms": busy("setup.import"),
            "setup.build_ms": busy("setup.build"),
            "setup.spawn_ms": busy("setup.spawn"),
            "unattributed_ms": totals["unattributed_ms"],
            "traced.timeline_ms": totals["timeline_ms"],
            "decide.samples": len(r["decide_s"]),
        }
        for name in ("vUCB", "FML", "Random"):
            for op in ("select", "update"):
                row[f"baselines.{name}.{op}_ms"] = busy(f"baselines.{name}.{op}")
        rows.append(row)
    values = {k: statistics.fmean(row[k] for row in rows) for k in rows[0]}
    values["traced.slots_per_s"] = sum(r["slots"] for r in ok) / sum(r["slot_s"] for r in ok)
    # Merge the full tables (every span name) as means per repetition.
    names = sorted({n for r in ok for n in r["table"]})
    table = {
        n: {
            k: statistics.fmean(r["table"].get(n, {}).get(k, 0.0) for r in ok)
            for k in ("count", "busy_ms", "self_ms")
        }
        for n in names
    }
    totals = {
        k: statistics.fmean(r["totals"].get(k, 0.0) for r in ok)
        for k in ok[0]["totals"]
    }
    return values, {"table": table, "totals": totals}


def run_workload(workload: str, seed: int, seconds: int, trace: int, work: Path,
                 env: dict, gate: bool = True) -> dict:
    """Gate, then repetitions for ``seconds``; returns the result document."""
    run_dir = work / "runs" / f"{workload}-t{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    doc: dict = {"workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
                 "why": workloads.WORKLOADS[workload][0],
                 "input": workloads.WORKLOADS[workload][1]}
    if gate:
        start = time.perf_counter()
        try:
            workloads.CHECKS[workload](seed * 1000, str(run_dir))
        except Exception as exc:  # noqa: BLE001 - any gate failure withholds the numbers
            doc.update(correct=False, attempted=1, failed=1,
                       error=f"correctness gate failed: {type(exc).__name__}: {exc}")
            return doc
        doc["gate_s"] = time.perf_counter() - start
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, seed * 1000 + 1 + len(reps), trace, len(reps),
                            run_dir, env))
        elapsed = time.perf_counter() - start
        # Start another repetition only if it should end within half a
        # repetition of the budget, so runs last about --seconds.
        if elapsed + 0.5 * elapsed / len(reps) >= min(seconds, MAX_MEASURE_S):
            break
    doc["measured_s"] = time.perf_counter() - start
    problems = [p for r in reps for p in r.get("problems", [])]
    ok = [r for r in reps if "slot_s" in r and not r.get("problems")]
    doc.update(
        attempted=sum(r["attempted"] for r in reps),
        failed=sum(r["failed"] for r in reps),
        correct=not problems and len(ok) == len(reps),
        problems=problems,
        repetitions=[{k: v for k, v in r.items() if k not in ("table", "decide_s")}
                     for r in reps],
    )
    if not ok:
        doc["error"] = "no repetition completed"
        return doc
    values, extra = end_to_end(reps)
    doc["end_to_end"] = values
    doc["end_to_end_detail"] = extra
    if trace:
        layer_values, detail = per_layer(workload, ok)
        doc["per_layer"] = layer_values
        doc["layer_table"] = detail["table"]
        doc["layer_totals"] = detail["totals"]
    return doc


# ---------------------------------------------------------------------------
# Output.
# ---------------------------------------------------------------------------


def result_line(doc: dict) -> dict:
    units = {n: u for n, u, *_ in spec.END_TO_END}
    units.update({n: u for n, u, *_ in spec.PER_LAYER})
    values = doc.get("per_layer" if doc["trace"] else "end_to_end")
    names = [n for n, *_ in (spec.PER_LAYER if doc["trace"] else spec.END_TO_END)]
    metrics = {}
    if doc.get("correct") and values is not None:
        metrics = {n: {"value": values[n], "unit": units[n]} for n in names}
    return {
        "correct": bool(doc.get("correct")) and bool(metrics),
        "attempted": int(doc.get("attempted", 1)),
        "failed": int(doc.get("failed", 0)),
        "metrics": metrics,
    }


def print_human(doc: dict) -> None:
    w = doc["workload"]
    print(f"== {w} (seed {doc['seed']}, trace {doc['trace']}) ==")
    print(f"   why:   {doc['why']}")
    print(f"   input: {doc['input']}")
    if "error" in doc:
        print(f"   FAILED: {doc['error']}")
    for p in doc.get("problems", [])[:5]:
        print(f"   problem: {p}")
    if "end_to_end" in doc:
        e, x = doc["end_to_end"], doc["end_to_end_detail"]
        print(f"   repetitions {x['repetitions']}, gate {doc.get('gate_s', 0):.2f} s, "
              f"measured {doc['measured_s']:.2f} s")
        label = "traced " if doc["trace"] else ""
        print(f"   {label}slots_per_s   {e['slots_per_s']:.2f} 1/s  ({x['slots']} slots "
              f"in {x['slot_s']:.3f} s)")
        print(f"   setup_s       {e['setup_s']:.4f} s  (median of "
              f"{len(x['setup_s_all'])})")
        print(f"   decide_ms_p50 {e['decide_ms_p50']:.4f} ms  (n={x['decide_samples']})")
        print(f"   decide_ms_p99 {e['decide_ms_p99']:.4f} ms  (n={x['decide_samples']}, "
              f"{x['decide_samples_beyond_p99']} beyond)")
        print(f"   peak_rss_mb   {e['peak_rss_mb']:.1f} MiB")
        print(f"   error_rate    {x['error_rate']:.4f}  (success_rate "
              f"{e['success_rate']:.4f}, {doc['failed']}/{doc['attempted']} failed)")
    if "layer_table" in doc:
        t = doc["layer_totals"]
        print("   per-layer table, means per repetition (ms):")
        print(f"   {'span':34s} {'count':>10s} {'busy_ms':>11s} {'self_ms':>11s}")
        for name, row in sorted(doc["layer_table"].items(),
                                key=lambda kv: -kv[1]["self_ms"]):
            print(f"   {name:34s} {row['count']:10.1f} {row['busy_ms']:11.2f} "
                  f"{row['self_ms']:11.2f}")
        print(f"   unattributed_ms {t['unattributed_ms']:.2f} (roots' self time); "
              f"self of layers {t['attributed_self_ms']:.2f} + unattributed = "
              f"{t['attributed_self_ms'] + t['unattributed_ms']:.2f} vs timeline "
              f"{t['timeline_ms']:.2f} (residual {t['identity_residual_ms']:.6f})")


def write_report(doc: dict, work: Path, name: str) -> Path:
    path = work / "reports" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1, default=str)
    return path


def check_benchmark_json() -> None:
    path = ROOT / "BENCHMARK.json"
    with open(path) as f:
        on_disk = json.load(f)
    if on_disk != spec.benchmark_json():
        raise Failure(f"{path} disagrees with perfbench/spec.py; regenerate it with "
                      "--write-benchmark-json")


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        if "multiprocessing.resource_tracker" in sys.modules:
            import hooks

            hooks.stop_resource_tracker()


def _main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_benchmark_json:
        with open(ROOT / "BENCHMARK.json", "w") as f:
            json.dump(spec.benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    work = ROOT / ".perfbench"
    try:
        check_benchmark_json()
        env = prepare_environment(work)
        prov = provenance()
    except (Failure, ImportError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    warn_if_fallback(prov)
    print(f"host: {prov['nproc']} CPUs, {prov['cpu_model']}; native kernels "
          f"{'compiled' if prov['native_kernels'] else 'NOT compiled (fallback)'}; "
          f"git {prov['manifest']['git'].get('sha')}")

    if args.workload != "all":
        doc = run_workload(args.workload, args.seed, args.seconds, args.trace, work, env)
        doc["provenance"] = prov
        doc["layer_map"] = spec.layer_map() if args.trace else None
        print_human(doc)
        report = write_report(doc, work, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
        print(f"report: {report.relative_to(ROOT)}")
        line = result_line(doc)
        print(json.dumps(line))
        return 0 if line["correct"] else 1

    docs = {}
    all_ok = True
    for workload in workloads.WORKLOADS:
        plain = run_workload(workload, args.seed, args.seconds, 0, work, env)
        traced = (run_workload(workload, args.seed, args.seconds, 1, work, env, gate=False)
                  if plain.get("correct") else None)
        for doc in filter(None, (plain, traced)):
            print_human(doc)
        overhead = None
        if traced is not None and traced.get("correct"):
            fast, slow = plain["end_to_end"]["slots_per_s"], traced["end_to_end"]["slots_per_s"]
            overhead = 1.0 - slow / fast
            print(f"   tracing overhead on slots_per_s: {100 * overhead:.1f}% "
                  f"({fast:.1f} untraced vs {slow:.1f} traced)")
        all_ok &= bool(plain.get("correct")) and bool(traced and traced.get("correct"))
        docs[workload] = {"untraced": plain, "traced": traced, "tracing_overhead": overhead}
    summary = {"provenance": prov, "layer_map": spec.layer_map(), "workloads": docs}
    report = write_report(summary, work, f"all-seed{args.seed}.json")
    print(f"report: {report.relative_to(ROOT)}")
    metrics = {
        f"{w}.{n}": {"value": d["untraced"]["end_to_end"][n], "unit": u}
        for w, d in docs.items() if d["untraced"].get("end_to_end")
        for n, u, *_ in spec.END_TO_END
    }
    print(json.dumps({
        "correct": all_ok,
        "attempted": sum(d["untraced"].get("attempted", 1) for d in docs.values()),
        "failed": sum(d["untraced"].get("failed", 0) for d in docs.values()),
        "metrics": metrics,
    }))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
