"""One benchmark repetition, in a fresh process: set up, run, check, report.

Started by ``run.py``; not meant to be run by hand.  ``--spawn-time`` is the
parent's ``perf_counter()`` just before it started this process (the clock
is system-wide monotonic on Linux), so set-up time covers interpreter start,
``import repro.api``, building the config, truth and simulation, pool or
shard spawn and tile build, and daemon start — up to the first slot being
ready.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

import hooks  # noqa: E402
import workloads  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.REPS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--spawn-time", required=True, type=float)
    p.add_argument("--run-id", required=True, type=int)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    perf = hooks.perf
    rec = hooks.Recorder(args.run_id, args.workdir, bool(args.trace))
    hooks.REC = rec
    root = rec.open("rep", start=args.spawn_time)

    token = rec.open("setup.import") if rec.trace else None
    import_start = perf()
    importlib.import_module("repro.api")
    for module in workloads.PRELUDE[args.workload]:
        importlib.import_module(module)
    import_s = perf() - import_start
    if token is not None:
        rec.close(token)
    boundaries = hooks.install(rec)

    out = workloads.REPS[args.workload](rec, args.seed, args.workdir, perf)
    end = rec.close(root)

    rec.window_cache_totals()
    procs = [rec.snapshot()]
    for path in sorted(glob.glob(os.path.join(args.workdir, "proc-*.json"))):
        with open(path) as f:
            procs.append(json.load(f))

    # Decision latency: the client's round trips on the service, the policy's
    # select CPU times in every process elsewhere.
    decide = out.pop("decide_s", None)
    if decide is None:
        decide = [d for doc in procs for d in doc["decide_s"]]
    if out.get("ready", 0) is None:
        # Fleet: the first slot is ready once every shard has built its tiles.
        firsts = [
            next(t for kind, t in doc["marks"] if kind == "loop_begin")
            for doc in procs[1:]
        ]
        out["ready"] = max(firsts)
        out["slot_s"] = out["end"] - out["ready"]

    report = dict(out)
    report.update(
        workload=args.workload,
        seed=args.seed,
        pid=os.getpid(),
        interpreter_start_s=_STARTED - args.spawn_time,
        import_s=import_s,
        wall_s=end - args.spawn_time,
        setup_s=out["ready"] - args.spawn_time if "ready" in out else None,
        peak_rss_kb=sum(doc["vm_hwm_kb"] for doc in procs),
        processes=len(procs),
        boundaries=boundaries,
        decide_s=decide,
    )
    if rec.trace:
        spans = [s for doc in procs for s in doc["spans"]]
        with open(os.path.join(args.workdir, "spans.json"), "w") as f:
            json.dump({"run_id": args.run_id, "fields": ["id", "name", "start", "end", "parent"],
                       "spans": spans}, f)
        counters: dict[str, float] = {}
        for doc in procs:
            for key, value in doc["counters"].items():
                counters[key] = counters.get(key, 0.0) + value
        table, totals = hooks.layer_table(spans)
        report.update(table=table, totals=totals, counters=counters)
    tmp = args.out + ".tmp"
    with open(tmp, "w") as f:
        json.dump(report, f)
    os.replace(tmp, args.out)
    hooks.stop_resource_tracker()
    return 0


if __name__ == "__main__":
    sys.exit(main())
