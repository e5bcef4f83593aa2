"""Process-parallel fan-out for replication sweeps and parameter sweeps.

Parameter sweeps (e.g. the alpha sweep of Fig. 3 or the likelihood-range sweep
of Fig. 4) and multi-seed replications run many independent simulations; each
is a pure function of its config and seed, so they parallelize embarrassingly
across processes.  We use ``concurrent.futures.ProcessPoolExecutor`` with
top-level callables.

Determinism contract
--------------------

:func:`parallel_map` guarantees that, for a ``func`` that is a pure function
of its item, the returned list is identical whatever ``workers`` resolves to:

- results are collected **in submission order**, never completion order;
- chunking only groups work, it cannot reorder items;
- every item carries its full inputs (configs and integer seeds); the only
  state a forked worker inherits is content-addressed caches, where a hit
  equals a miss bit for bit, so scheduling cannot leak randomness between
  tasks.

Failure surfacing: an exception inside a worker is re-raised in the parent as
:class:`ParallelExecutionError` naming the failing item's index (and, when
the caller provides ``label``, a human-readable description such as the
replication seed) together with the worker-side traceback — instead of a
bare pickled pool traceback.  When slot tracing is enabled in the failing
process (:mod:`repro.obs`), the error also carries the last trace record
built before the crash (``err.trace_record``), i.e. the slot state the
replication died in.

Observability: each chunk additionally reports the *delta* of the worker's
process-local metrics registry (:mod:`repro.obs.metrics`) accumulated while
running that chunk; the parent folds the deltas into its own global
registry, so ``global_registry().snapshot()`` after a parallel sweep equals
the serial run's metrics (delta-based merging stays correct when a pool
reuses worker processes across chunks).

Start method: the pool is created from the ``fork`` context wherever the
platform offers it, so workers inherit the parent's process-wide caches —
callers prefill the window cache (:mod:`repro.env.window_cache`) before
calling :func:`parallel_map`, and every worker starts with those windows.
Results travel back through the pool's pipe.  Where fork is unavailable the
default context is used: a worker then misses the cache and regenerates the
same window, so results stay bit-identical.

Fallbacks: ``workers=0`` (the parallel-by-default setting) resolves to all
CPU cores, but collapses to serial execution on a single-core host or on a
platform without process-pool support, so the default is always safe.  An
*explicit* ``workers=n`` (n >= 2) always uses a pool — tests rely on that to
exercise the parallel path even on one core.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime

T = TypeVar("T")
R = TypeVar("R")

__all__ = [
    "ParallelExecutionError",
    "default_workers",
    "parallel_map",
    "process_pool_supported",
    "resolve_workers",
]


class ParallelExecutionError(RuntimeError):
    """A mapped task failed; identifies *which* item, not just that one did.

    Attributes
    ----------
    index:
        Position of the failing item in the input sequence.
    description:
        Caller-provided label for the item (e.g. ``"replication 3 (seed
        1234)"``) or a generic ``"item <index>"``.
    worker_traceback:
        The traceback text captured inside the worker process (empty when
        the failure happened in the parent, where ``__cause__`` is chained).
    trace_record:
        The last slot trace record built in the failing process when
        tracing was enabled there (see :mod:`repro.obs`), else ``None``.
    streams:
        Human-readable description of the derived RNG streams the failing
        item runs on (see :func:`repro.utils.rng.describe_streams`), when
        the caller provided a ``diagnostics`` callable — lets a failure be
        re-run standalone from the exact stream roots.  Empty otherwise.
    """

    def __init__(
        self,
        index: int,
        description: str,
        cause: str,
        worker_traceback: str = "",
        trace_record: dict | None = None,
        streams: str = "",
    ):
        self.index = index
        self.description = description
        self.worker_traceback = worker_traceback
        self.trace_record = trace_record
        self.streams = streams
        message = f"parallel task failed at {description}: {cause}"
        if streams:
            message += f"\nderived streams: {streams}"
        if trace_record is not None:
            message += (
                f"\nlast traced slot before failure: t={trace_record.get('t')} "
                f"policy={trace_record.get('policy')} "
                f"assigned={trace_record.get('assigned')}"
            )
        if worker_traceback:
            message += f"\n--- worker traceback ---\n{worker_traceback.rstrip()}"
        super().__init__(message)


def process_pool_supported() -> bool:
    """Whether this platform can run a process pool at all."""
    if sys.platform in ("emscripten", "wasi"):
        return False
    try:
        return bool(multiprocessing.get_all_start_methods())
    except NotImplementedError:  # pragma: no cover - exotic platforms
        return False


def _pool_context():
    """``fork`` where the platform has it (workers inherit prefilled caches),
    else the default start method."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def default_workers() -> int:
    """``workers=0`` resolves to this: all CPU cores (at least one)."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None, n_items: int | None = None) -> int:
    """Resolve a ``workers`` request to the effective process count.

    ``None``/``1`` → 1 (serial).  ``0`` → all cores, demoted to 1 when the
    host has a single core or lacks process-pool support.  An explicit
    ``n >= 2`` is honoured whenever pools are supported (even on one core:
    callers asking for a pool get a pool, which is what the determinism
    tests exercise).  When ``n_items`` is given the count is capped by it,
    and 0/1 items always run serially.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        resolved = default_workers() if process_pool_supported() else 1
    elif workers is None:
        resolved = 1
    else:
        resolved = workers if process_pool_supported() else 1
    if n_items is not None:
        if n_items <= 1:
            return 1
        resolved = min(resolved, n_items)
    return max(1, resolved)


def _run_chunk(
    payload: tuple[Callable[[T], R], int, Sequence[T]],
) -> list[tuple[str, object]]:
    """Worker: run one chunk, tagging each result ``("ok", value)`` or
    ``("err", (index, repr, traceback, trace_record))``.  Stops at the first
    failure — later items of the chunk are reported as skipped by the
    parent.  The final ``("metrics", delta)`` entry carries the metrics this
    chunk added to the worker's process-local registry."""
    func, start, items = payload
    before = obs_metrics.global_registry().snapshot()
    out: list[tuple[str, object]] = []
    for offset, item in enumerate(items):
        try:
            out.append(("ok", func(item)))
        except BaseException as exc:  # noqa: BLE001 - re-raised in the parent
            out.append(
                (
                    "err",
                    (
                        start + offset,
                        repr(exc),
                        traceback.format_exc(),
                        obs_runtime.last_trace_record(),
                    ),
                )
            )
            break
    after = obs_metrics.global_registry().snapshot()
    out.append(("metrics", obs_metrics.diff_snapshots(after, before)))
    return out


def _describe(label: Callable[[int, T], str] | None, index: int, item: T) -> str:
    if label is None:
        return f"item {index}"
    try:
        return f"item {index} ({label(index, item)})"
    except Exception:  # pragma: no cover - a broken label must not mask the error
        return f"item {index}"


def _diagnose(diagnostics: Callable[[int, T], str] | None, index: int, item: T) -> str:
    if diagnostics is None:
        return ""
    try:
        return diagnostics(index, item)
    except Exception:  # pragma: no cover - diagnostics must not mask the error
        return ""


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    *,
    workers: int | None = None,
    chunksize: int = 1,
    label: Callable[[int, T], str] | None = None,
    diagnostics: Callable[[int, T], str] | None = None,
) -> list[R]:
    """Map ``func`` over ``items``, optionally across processes.

    Parameters
    ----------
    func:
        A picklable top-level callable (lambdas only work serially).
    items:
        The work items; materialized to preserve result order.
    workers:
        Number of processes.  ``None`` or ``1`` runs serially in-process;
        ``0`` resolves to all CPU cores but falls back to serial on a
        single-core host or a platform without process pools; an explicit
        ``n >= 2`` always uses a pool.  Regardless of the resolved count, a
        sweep of zero or one items runs serially — spawning a pool for a
        single simulation would only add fork/pickle overhead.
    chunksize:
        Items per worker task for large sweeps; grouping never affects
        result order.
    label:
        Optional ``(index, item) -> str`` used to name the failing item in
        :class:`ParallelExecutionError` (e.g. its replication seed).
    diagnostics:
        Optional ``(index, item) -> str`` attached as the error's
        ``streams`` text — by convention the item's derived RNG streams
        (:func:`repro.utils.rng.describe_streams`), so the exact failing
        streams can be re-derived standalone.  A raising diagnostics
        callable is ignored, never masking the original failure.

    Returns
    -------
    list
        Results in the same order as ``items`` — independent of worker
        count and scheduling (see the module docstring).

    Raises
    ------
    ParallelExecutionError
        When ``func`` raises for any item; carries the item's index,
        ``label`` text, and the worker-side traceback.
    """
    work: Sequence[T] = list(items)
    if chunksize < 1:
        raise ValueError(f"chunksize must be >= 1, got {chunksize}")
    resolved = resolve_workers(workers, len(work))
    if resolved <= 1:
        out: list[R] = []
        for i, item in enumerate(work):
            try:
                out.append(func(item))
            except BaseException as exc:  # noqa: BLE001 - annotated and chained
                raise ParallelExecutionError(
                    i,
                    _describe(label, i, item),
                    repr(exc),
                    trace_record=obs_runtime.last_trace_record(),
                    streams=_diagnose(diagnostics, i, item),
                ) from exc
        return out

    chunks = [
        (func, start, work[start : start + chunksize])
        for start in range(0, len(work), chunksize)
    ]
    # A chunk is the unit of scheduling: with chunksize > 1 a tiny sweep can
    # produce fewer chunks than resolved workers, and every surplus process
    # would be forked only to sit idle.  Clamp the pool to the work that
    # exists (resolve_workers already capped by item count for chunksize 1).
    resolved = min(resolved, len(chunks))
    with ProcessPoolExecutor(max_workers=resolved, mp_context=_pool_context()) as pool:
        # Submission order == collection order: futures are resolved in the
        # order the chunks were created, so scheduling cannot reorder results.
        futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
        results: list[R] = []
        for (_, start, chunk_items), future in zip(chunks, futures):
            try:
                tagged = future.result()
            except BaseException as exc:  # e.g. BrokenProcessPool, pickling errors
                raise ParallelExecutionError(
                    start,
                    _describe(label, start, chunk_items[0]),
                    repr(exc),
                    streams=_diagnose(diagnostics, start, chunk_items[0]),
                ) from exc
            for tag, value in tagged:
                if tag == "metrics":
                    obs_metrics.global_registry().merge_snapshot(value)  # type: ignore[arg-type]
                elif tag == "err":
                    index, cause, tb, trace_record = value  # type: ignore[misc]
                    raise ParallelExecutionError(
                        index,
                        _describe(label, index, work[index]),
                        cause,
                        tb,
                        trace_record=trace_record,
                        streams=_diagnose(diagnostics, index, work[index]),
                    )
                else:
                    results.append(value)  # type: ignore[arg-type]
        return results
