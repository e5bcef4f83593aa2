"""Boundary timers the benchmark wraps around the program's public functions.

Nothing here edits the program: :func:`install` replaces module attributes
and class methods at each layer boundary with thin wrappers, in the
benchmark's own process and (inherited through ``fork``) in the pool
workers and fleet shards it starts.  Two levels:

- ``trace=False`` (the measured run) installs only *marks*: the CPU time of
  every policy ``select`` (the batch workloads' decision latency), the start
  and end of each slot loop (``Simulation.run``, ``TileSim.run_slots``), the
  window prefill that opens a parallel line-up, and a flush at the end of
  every worker task or shard so their marks and peak RSS reach the
  repetition process;
- ``trace=True`` (the separate traced run) additionally records one span per
  boundary call.  A span is ``(id, name, start, end, parent)`` kept in
  memory and written out once per process when its work ends.

Span ids carry the process id in their high bits, so spans from every
process of one repetition merge into one table (:func:`layer_table`).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

perf = time.perf_counter

#: The recorder every installed wrapper reports to (one per process).
REC: "Recorder | None" = None


def vm_hwm_kb() -> int:
    """This process's peak resident set size (``VmHWM``) in KiB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Recorder:
    """Spans, marks and counters of one process of one repetition."""

    def __init__(self, run_id: int, out_dir: str, trace: bool) -> None:
        self.run_id = run_id
        self.out_dir = out_dir
        self.trace = trace
        self._reset(None)

    def _reset(self, origin: int | None) -> None:
        self.pid = os.getpid()
        self.origin = origin
        self.spans: list[tuple[int, str, float, float, int | None]] = []
        self.marks: list[tuple[str, float]] = []
        self.decide_s: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.cause: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()

    def adopt_child(self) -> None:
        """Start clean in a freshly forked worker (spans of the parent stay there)."""
        if self.pid != os.getpid():
            stack = self.stack()
            self._reset(stack[-1][0] if stack else None)

    def stack(self) -> list[tuple[int, str]]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def new_id(self) -> int:
        return (self.pid << 32) | next(self._ids)

    def open(self, name: str, start: float | None = None) -> tuple[int, str, float, int | None]:
        st = self.stack()
        parent = st[-1][0] if st else self.cause
        sid = self.new_id()
        st.append((sid, name))
        return (sid, name, perf() if start is None else start, parent)

    def close(self, token: tuple[int, str, float, int | None]) -> float:
        end = perf()
        sid, name, start, parent = token
        self.stack().pop()
        self.spans.append((sid, name, start, end, parent))
        return end

    def window_cache_totals(self) -> None:
        """Add this process's window-cache footprint to the counters."""
        mod = sys.modules.get("repro.env.window_cache")
        if mod is None:
            return
        cache = mod.shared_window_cache()
        self.counters["window_cache.slots_cached"] += cache.stats()["slots_cached"]
        if self.trace:
            seen: set[int] = set()
            self.counters["window_cache.bytes_cached"] += sum(
                deep_nbytes(entry, seen) for entry in cache.entries()
            )

    def flush(self) -> None:
        """Write this process's record (worker side; overwrites earlier flushes)."""
        self.window_cache_totals()
        doc = self.snapshot()
        path = os.path.join(self.out_dir, f"proc-{self.pid}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(doc, f)
        os.replace(tmp, path)
        # Counters are written as totals; reset the footprint ones so a
        # second flush from a reused pool worker does not double them.
        self.counters.pop("window_cache.slots_cached", None)
        self.counters.pop("window_cache.bytes_cached", None)

    def snapshot(self) -> dict:
        return {
            "run_id": self.run_id,
            "pid": self.pid,
            "origin": self.origin,
            "vm_hwm_kb": vm_hwm_kb(),
            "spans": self.spans,
            "marks": self.marks,
            "decide_s": self.decide_s,
            "counters": dict(self.counters),
        }


def stop_resource_tracker() -> None:
    """Stop the shared-memory resource tracker the program may have started,
    and wait for it, so no process outlives the benchmark."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def deep_nbytes(obj, seen: set[int]) -> int:
    """Bytes of every distinct numpy array reachable from ``obj``."""
    import numpy as np

    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict):
        return sum(deep_nbytes(v, seen) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return sum(deep_nbytes(v, seen) for v in obj)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return sum(deep_nbytes(getattr(obj, k, None), seen) for k in fields)
    return 0


# ---------------------------------------------------------------------------
# Wrapper construction.
# ---------------------------------------------------------------------------


def _wrap(fn, name: str | None, trace: bool, *, merge_nested=False, before=None,
          after=None):
    """Wrap ``fn``: span ``name`` in trace mode, plus the callbacks.

    ``before(rec, args)`` returns state handed to ``after(rec, args, result,
    state)``.  Without ``trace`` only the callbacks run, so the measured run
    pays a timestamp or two per boundary at most.
    """
    if not trace:

        @functools.wraps(fn)
        def marked(*args, **kwargs):
            state = before(REC, args) if before is not None else None
            result = fn(*args, **kwargs)
            if after is not None:
                after(REC, args, result, state)
            return result

        return marked

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rec = REC
        st = rec.stack()
        if merge_nested and st and st[-1][1] == name:
            return fn(*args, **kwargs)
        state = before(rec, args) if before is not None else None
        token = rec.open(name) if name is not None else None
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            if token is not None:
                rec.close(token)
            rec.counters[f"{name}.errors"] += 1
            raise
        if token is not None:
            rec.close(token)
        if after is not None:
            after(rec, args, result, state)
        return result

    return traced


def _resolve(module: str, path: str):
    mod = sys.modules.get(module)
    if mod is None:
        return None, None, None
    owner = mod
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


# -- mark and counter callbacks ------------------------------------------------


def _select_start(rec, args):
    return time.thread_time()


def _select_done(rec, args, result, start):
    # CPU time of the calling thread: a select is pure computation, so this
    # is its cost without the scheduler preemptions a fully loaded host adds
    # (those show in slots_per_s instead).
    rec.decide_s.append(time.thread_time() - start)


def _loop_begin(rec, args):
    rec.marks.append(("loop_begin", perf()))


def _loop_end(rec, args, result, state):
    rec.marks.append(("loop_end", perf()))


def _prefill_begin(rec, args):
    rec.marks.append(("prefill", perf()))


def _count_window(rec, args, result, state):
    rec.counters["window.slots"] += int(args[2])


def _cache_before(rec, args):
    return (args[0].hits, args[0].misses)


def _cache_after(rec, args, result, state):
    rec.counters["window_cache.hits"] += args[0].hits - state[0]
    rec.counters["window_cache.misses"] += args[0].misses - state[1]


def _count_greedy(rec, args, result, state):
    rec.counters["greedy.edges"] += len(args[0])
    rec.counters["greedy.assigned"] += len(result)


def _native_counter(fallback):
    def after(rec, args, result, state):
        rec.counters["native.calls"] += 1
        if fallback(result):
            rec.counters["native.fallbacks"] += 1

    return after


def _manifest_bytes(manifest) -> int:
    import numpy as np

    return sum(
        int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize
        for shape, dtype, _ in manifest
    )


def _count_pack(rec, args, result, state):
    if result[1] is not None:
        rec.counters["shm.bytes"] += _manifest_bytes(result[2])


def _count_save(rec, args, result, state):
    rec.counters["save.bytes"] += os.path.getsize(result)


# -- the boundary table ---------------------------------------------------------
#
# (module, attribute path, span name, options).  The attribute is replaced in
# the module that *resolves* the name at call time — e.g. the simulator's own
# ``precompute_window`` import — so every call site is covered.

#: Selects are timed in both modes: their CPU times are the batch workloads'
#: decision latencies.
_SELECT = {"before": _select_start, "after": _select_done, "marks": True}

BOUNDARIES: list[tuple[str, str, str | None, dict]] = [
    # setup
    ("repro.experiments.runner", "build_simulation", "setup.build", {}),
    ("repro.service.session", "OnlineSession.__init__", "setup.build", {}),
    ("repro.fleet.tile", "TileSim.__init__", "setup.build", {}),
    ("multiprocessing.process", "BaseProcess.start", "setup.spawn", {}),
    ("repro.service.daemon", "PolicyDaemon.start", "setup.spawn", {}),
    # env
    ("repro.env.workload", "SyntheticWorkload.slot", "env.workload", {"merge_nested": True}),
    ("repro.env.geometry", "CoverageSampler.sample_slot", "env.workload", {"merge_nested": True}),
    ("repro.env.simulator", "precompute_window", "env.window", {"after": _count_window}),
    ("repro.env.window_cache", "precompute_window", "env.window", {"after": _count_window}),
    ("repro.fleet.tile", "precompute_window", "env.window", {"after": _count_window}),
    ("repro.env.simulator", "cached_window", "env.window_cache",
     {"before": _cache_before, "after": _cache_after}),
    ("repro.env.window_cache", "cached_window", "env.window_cache",
     {"before": _cache_before, "after": _cache_after, "merge_nested": True}),
    ("repro.experiments.runner", "prefill_windows", "env.window_cache.prefill",
     {"before": _prefill_begin, "marks": True}),
    ("repro.env.processes", "PiecewiseConstantTruth.realize", "env.processes.realize", {}),
    ("repro.env.processes", "PiecewiseConstantTruth.slot_pair_stats", "env.processes.expected",
     {"merge_nested": True}),
    ("repro.env.processes", "PiecewiseConstantTruth.expected_compound_pairs",
     "env.processes.expected", {"merge_nested": True}),
    ("repro.env.processes", "PiecewiseConstantTruth.means_pairs", "env.processes.expected",
     {"merge_nested": True}),
    ("repro.env.processes", "PiecewiseConstantTruth.advance", "env.processes.advance", {}),
    ("repro.env.simulator", "Assignment.validate", "env.simulator.validate", {}),
    ("repro.env.simulator", "Simulation.run", "env.simulator.run",
     {"before": _loop_begin, "after": _loop_end, "marks": True}),
    # core (the names repro.core.lfsc resolves)
    ("repro.core.lfsc", "LFSCPolicy.select", "core.lfsc.select", _SELECT),
    ("repro.core.lfsc", "LFSCPolicy.update", "core.lfsc.update", {}),
    ("repro.core.lfsc", "capped_probabilities", "core.probability", {}),
    ("repro.core.lfsc", "capped_probabilities_batch", "core.probability", {}),
    ("repro.core.lfsc", "capped_probabilities_batch_into", "core.probability", {}),
    ("repro.core.lfsc", "depround", "core.depround", {}),
    ("repro.core.lfsc", "walk_into", "core.depround", {}),
    ("repro.core.native", "walk_segments", "core.depround",
     {"after": _native_counter(lambda r: r is False)}),
    ("repro.core.native", "greedy_pass", None, {"after": _native_counter(lambda r: r < 0)}),
    ("repro.core.native", "scatter_update", None,
     {"after": _native_counter(lambda r: r is False)}),
    ("repro.core.lfsc", "greedy_select_edges", "core.greedy", {"after": _count_greedy}),
    ("repro.core.lfsc", "greedy_select", "core.greedy", {}),
    ("repro.core.multipliers", "LagrangeMultipliers.update", "core.multipliers", {}),
    # baselines
    ("repro.baselines.vucb", "VUCBPolicy.select", "baselines.vUCB.select", _SELECT),
    ("repro.baselines.vucb", "VUCBPolicy.update", "baselines.vUCB.update", {}),
    ("repro.baselines.fml", "FMLPolicy.select", "baselines.FML.select", _SELECT),
    ("repro.baselines.fml", "FMLPolicy.update", "baselines.FML.update", {}),
    ("repro.baselines.random_policy", "RandomPolicy.select", "baselines.Random.select", _SELECT),
    ("repro.baselines.random_policy", "RandomPolicy.update", "baselines.Random.update", {}),
    # service
    ("repro.service.session", "OnlineSession.decide", "service.decide", {}),
    ("repro.service.session", "OnlineSession.feedback", "service.feedback", {}),
    ("repro.service.session", "OnlineSession.save", "service.save", {"after": _count_save}),
    ("repro.service.daemon", "PolicyDaemon.handle", "service.handle", {}),
    ("repro.service.daemon", "PolicyDaemon.close", "service.close", {}),
    # fleet
    ("repro.fleet.tile", "TileSim.run_slots", "fleet.run_slots",
     {"before": _loop_begin, "marks": True}),
    ("repro.fleet.driver", "_expect", "fleet.exchange.wait", {}),
    # transport and the process pool
    ("repro.utils.shm", "pack_to_shm", "utils.shm.pack", {"after": _count_pack}),
    ("repro.utils.shm", "unpack_from_shm", "utils.shm.unpack", {}),
    ("repro.experiments.runner", "export_window_state", "utils.parallel.window_export", {}),
    ("repro.experiments.runner", "import_window_state", "utils.parallel.window_import", {}),
    ("repro.experiments.runner", "parallel_map", "utils.parallel.map", {}),
]


def _chunk_root(fn):
    """Pool-worker task wrapper: a root span per task, flushed on return."""

    @functools.wraps(fn)
    def wrapper(payload):
        rec = REC
        rec.adopt_child()
        token = rec.open("utils.parallel.worker") if rec.trace else None
        try:
            return fn(payload)
        finally:
            if token is not None:
                rec.close(token)
            rec.counters["parallel.tasks"] += len(payload[2])
            rec.flush()

    return wrapper


def _shard_root(fn):
    """Fleet-shard wrapper: the shard's whole life is one root span."""

    @functools.wraps(fn)
    def wrapper(conn, cfg, tiles):
        rec = REC
        rec.adopt_child()
        token = rec.open("fleet.shard") if rec.trace else None
        if rec.trace:
            # The shard's wait for the driver's next command (the round barrier).
            conn.recv = _wrap(conn.recv, "fleet.shard.wait", True)
        try:
            return fn(conn, cfg, tiles)
        finally:
            if token is not None:
                rec.close(token)
            rec.flush()

    return wrapper


def install(rec: Recorder) -> list[str]:
    """Install the wrappers for every boundary whose module is loaded.

    Returns the boundaries installed (``module:attribute``).  Modules not yet
    imported are skipped, so installing never imports program code the
    workload would not have loaded itself.
    """
    global REC
    REC = rec
    installed = []
    for module, path, name, opts in BOUNDARIES:
        if not (rec.trace or opts.get("marks")):
            continue
        owner, attr, fn = _resolve(module, path)
        if owner is None:
            continue
        setattr(owner, attr, _wrap(
            fn, name, rec.trace,
            merge_nested=opts.get("merge_nested", False),
            before=opts.get("before"),
            after=opts.get("after"),
        ))
        installed.append(f"{module}:{path}")
    for module, path, factory in (
        ("repro.utils.parallel", "_run_chunk", _chunk_root),
        ("repro.fleet.driver", "_shard_worker", _shard_root),
    ):
        owner, attr, fn = _resolve(module, path)
        if owner is not None:
            setattr(owner, attr, factory(fn))
            installed.append(f"{module}:{path}")
    return installed


# ---------------------------------------------------------------------------
# Post-processing.
# ---------------------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(spans) -> tuple[dict[str, dict[str, float]], dict[str, float]]:
    """Per span name: count, busy (sum of durations) and self time, in ms.

    A span's self time is its duration minus the part of it its children
    cover.  Root spans (no recorded parent: the repetition itself, each pool
    task, each shard) are the timelines; their self time is the unattributed
    remainder, so ``sum(self of non-roots) + unattributed == sum(root
    durations)``, reported as ``timeline_ms``.
    """
    ids = {s[0] for s in spans}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for sid, _, start, end, parent in spans:
        if parent is not None and parent in ids:
            children[parent].append((start, end))
    table: dict[str, dict[str, float]] = {}
    timeline = unattributed = 0.0
    per_process_busy: dict[tuple[str, int], float] = defaultdict(float)
    for sid, name, start, end, parent in spans:
        dur = end - start
        self_t = dur - _covered(children.get(sid, []), start, end)
        row = table.setdefault(name, {"count": 0, "busy_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["busy_ms"] += 1e3 * dur
        row["self_ms"] += 1e3 * self_t
        per_process_busy[(name, sid >> 32)] += 1e3 * dur
        if parent is None or parent not in ids:
            timeline += 1e3 * dur
            unattributed += 1e3 * self_t
    attributed = sum(
        row["self_ms"] for row in table.values()
    ) - unattributed
    totals = {
        "timeline_ms": timeline,
        "unattributed_ms": unattributed,
        "attributed_self_ms": attributed,
        "identity_residual_ms": timeline - (attributed + unattributed),
    }
    shard_busy = [v for (n, _), v in per_process_busy.items() if n == "fleet.run_slots"]
    if shard_busy:
        totals["shard_imbalance"] = max(shard_busy) / (sum(shard_busy) / len(shard_busy))
    return table, totals
