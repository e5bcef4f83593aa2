"""Observability activation: one optional, process-local context.

The hot paths (simulator loop, LFSC slot kernel) ask :func:`active` for the
current :class:`ObsContext` once per call and take a branch-free fast path
when it is ``None`` — the default.  With no context installed the *only*
cost the subsystem adds to a simulation is that lookup plus a handful of
end-of-run counter bumps, which is how the <5% disabled-overhead budget of
``benchmarks/bench_obs_overhead.py`` is met.

Installation is explicit and scoped::

    from repro import obs

    with obs.observe(trace_path="results/trace.jsonl", sample_every=10):
        sim.run(policy, horizon)

or ambient via the environment (picked up lazily, once per process):
``REPRO_TRACE_DIR=/tmp/traces`` makes every process — including spawned
replication workers, which inherit the environment — trace to
``<dir>/trace-<pid>.jsonl``.  That is the mechanism by which parallel
replication sweeps get per-worker trace files without sharing a writer.

Tracing is observational only: nothing here touches a policy or workload
RNG, so trajectories are bit-identical with a context installed or not.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from repro.obs.metrics import MetricsRegistry, global_registry
from repro.obs.trace import TraceRecorder
from repro.utils.timing import monotonic

__all__ = [
    "ObsContext",
    "active",
    "install",
    "last_trace_record",
    "observe",
    "span",
    "uninstall",
]


class _NullSpan:
    """Shared do-nothing span for the disabled fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _CtxSpan:
    """A live span: feeds the context's slot fields and registry histogram."""

    __slots__ = ("_ctx", "_name", "_start")

    def __init__(self, ctx: "ObsContext", name: str) -> None:
        self._ctx = ctx
        self._name = name
        self._start = 0.0

    def __enter__(self) -> "_CtxSpan":
        self._start = monotonic()
        return self

    def __exit__(self, *exc: object) -> bool:
        self._ctx.add_span(self._name, monotonic() - self._start)
        return False


class ObsContext:
    """One process's live observability state: registry + optional tracer.

    Slot protocol (driven by :meth:`repro.env.simulator.Simulation.run`):
    ``begin_slot(t)`` clears the per-slot span accumulator, instrumented
    code contributes via :meth:`span` / :meth:`add_span` /
    :meth:`set_slot_field`, and ``end_slot(fields)`` assembles the trace
    record, hands it to the recorder when the slot is on the sampling grid,
    and always retains it as ``last_record`` for failure context.
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        tracer: TraceRecorder | None = None,
    ) -> None:
        self.registry = registry if registry is not None else global_registry()
        self.tracer = tracer
        self._slot_spans: dict[str, float] = {}
        self._slot_fields: dict[str, object] = {}
        self.last_record: dict | None = None

    # -- spans --------------------------------------------------------------

    def span(self, name: str) -> _CtxSpan:
        return _CtxSpan(self, name)

    def add_span(self, name: str, seconds: float) -> None:
        self._slot_spans[name] = self._slot_spans.get(name, 0.0) + seconds
        self.registry.histogram(f"span.{name}").observe(seconds)

    def set_slot_field(self, name: str, value: object) -> None:
        """Attach an extra field to the current slot's trace record."""
        self._slot_fields[name] = value

    # -- slot protocol -------------------------------------------------------

    def begin_slot(self, t: int) -> None:
        self._slot_spans.clear()
        self._slot_fields.clear()

    def end_slot(self, fields: dict) -> dict:
        global _LAST_RECORD
        record = dict(fields)
        record.update(self._slot_fields)
        record["spans"] = dict(self._slot_spans)
        # Remembered process-wide (not just on this context) so failure
        # handlers that run after a scoped observe() unwinds — e.g. the
        # parallel chunk runner — can still attach the crash-slot state.
        self.last_record = _LAST_RECORD = record
        if self.tracer is not None and self.tracer.want(record["t"]):
            self.tracer.record(record)
        return record

    def close(self) -> None:
        if self.tracer is not None:
            self.tracer.close()


_ACTIVE: ObsContext | None = None
_ENV_CHECKED = False
_LAST_RECORD: dict | None = None


def _maybe_init_from_env() -> None:
    """Install a tracing context from ``REPRO_TRACE_DIR`` (once per process)."""
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    trace_dir = os.environ.get("REPRO_TRACE_DIR")
    if not trace_dir:
        return
    sample = int(os.environ.get("REPRO_TRACE_SAMPLE", "1"))
    path = Path(trace_dir) / f"trace-{os.getpid()}.jsonl"
    _ACTIVE = ObsContext(tracer=TraceRecorder(path, sample_every=sample))


def active() -> ObsContext | None:
    """The installed context, or ``None`` (the disabled fast path)."""
    if _ACTIVE is None and not _ENV_CHECKED:
        _maybe_init_from_env()
    return _ACTIVE


def install(ctx: ObsContext) -> None:
    global _ACTIVE, _ENV_CHECKED
    _ENV_CHECKED = True
    _ACTIVE = ctx


def uninstall() -> None:
    global _ACTIVE
    if _ACTIVE is not None:
        _ACTIVE.close()
    _ACTIVE = None


def span(name: str):
    """A span against the active context, or a shared no-op when disabled."""
    ctx = active()
    return ctx.span(name) if ctx is not None else _NULL_SPAN


def last_trace_record() -> dict | None:
    """The most recent slot record built in this process (failure context).

    Survives the uninstall of a scoped :func:`observe` so error handlers
    that run after the context unwound still see the crash-slot state.
    """
    return _LAST_RECORD


@contextmanager
def observe(
    *,
    trace_path: str | Path | None = None,
    sample_every: int = 1,
    flush_every: int = 256,
    registry: MetricsRegistry | None = None,
) -> Iterator[ObsContext]:
    """Scoped installation: metrics always, tracing when ``trace_path`` given.

    Restores the previously installed context (usually ``None``) on exit and
    closes the trace recorder, flushing any buffered records.
    """
    tracer = (
        TraceRecorder(trace_path, sample_every=sample_every, flush_every=flush_every)
        if trace_path is not None
        else None
    )
    ctx = ObsContext(registry=registry, tracer=tracer)
    global _ACTIVE, _ENV_CHECKED
    prev, prev_checked = _ACTIVE, _ENV_CHECKED
    _ACTIVE, _ENV_CHECKED = ctx, True
    try:
        yield ctx
    finally:
        ctx.close()
        _ACTIVE, _ENV_CHECKED = prev, prev_checked
