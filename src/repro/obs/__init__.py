"""Observability: metrics registry, slot tracing, run manifests, spans.

The subsystem any long-horizon online-learning stack needs before scaling:

- :mod:`repro.obs.metrics` — process-local counters/gauges/histograms whose
  snapshots merge associatively across worker processes;
- :mod:`repro.obs.trace` — one structured JSONL record per (sampled) slot,
  streamed with bounded memory;
- :mod:`repro.obs.manifest` — ``manifest.json`` provenance (config, seeds,
  git SHA, host, versions) for every replication/figure/bench artifact;
- :mod:`repro.obs.runtime` — the activation switch; everything is a no-op
  until :func:`observe` installs a context (or ``REPRO_TRACE_DIR`` is set),
  preserving the slot kernel's hot-path speed when tracing is off.

Span timing builds on the monotonic primitives of
:mod:`repro.utils.timing` (re-exported here), never on wall-clock deltas.
"""

from repro.obs.manifest import build_manifest, load_manifest, write_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    global_registry,
    merge_snapshots,
    reset_global_registry,
)
from repro.obs.runtime import (
    ObsContext,
    active,
    install,
    last_trace_record,
    observe,
    span,
    uninstall,
)
from repro.obs.trace import (
    TRACE_SCHEMA,
    TraceRecorder,
    iter_trace,
    read_trace,
    validate_record,
)
from repro.utils.timing import Span, Stopwatch, monotonic

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ObsContext",
    "Span",
    "Stopwatch",
    "TRACE_SCHEMA",
    "TraceRecorder",
    "active",
    "build_manifest",
    "diff_snapshots",
    "global_registry",
    "install",
    "iter_trace",
    "last_trace_record",
    "load_manifest",
    "merge_snapshots",
    "monotonic",
    "observe",
    "read_trace",
    "reset_global_registry",
    "span",
    "uninstall",
    "validate_record",
    "write_manifest",
]
