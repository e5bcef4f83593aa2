"""Cross-run window cache: precompute each environment's windows once.

Sweeps replay the *same* environment many times — every α point of a fig3
sweep, every policy of a line-up, and every ablation variant re-derives the
identical workload stream (stream contract v2: environment streams are
namespaced independently of the policy, :mod:`repro.utils.rng`) and then
re-runs :func:`~repro.env.window.precompute_window` from scratch.  This
module memoizes those windows:

- the cache key is **content-addressed over the window's inputs**: the
  workload stream's :func:`~repro.utils.rng.stream_token`, the workload's
  value token (``cache_token``), the partition's value token, the truth's
  grid-classification token, and ``(t0, count)``.  Anything that could
  change a single byte of the window changes the key, so stale hits are
  impossible by construction — the same soundness argument as the solver
  cache (DESIGN.md §8);
- a hit must leave the *live* streams exactly where a cold generation would
  have: each entry stores the workload RNG's post-window ``bit_generator``
  state and the workload's id-counter cursor, and :func:`cached_window`
  restores both — so a run that hits for some windows and misses for others
  is still bit-identical to a fully cold run;
- windows are pure *derived* data (no draw happens outside ``sample_slots``),
  so sharing the same :class:`PrecomputedSlot` objects across sweep points
  and policies is sound as long as consumers treat slots as
  read-only — which every policy already does (slots are frozen dataclasses).

Cross-process sharing is by fork: the runner prefills the process-wide
cache (:func:`prefill_windows`) before it creates its worker pool, and the
forked workers inherit the entries (``utils/parallel.py``).  Where fork is
unavailable a worker misses and regenerates the same window.
:func:`export_window_state`, :func:`import_window_state` and
:func:`release_window_state` pack the cache into one shared-memory block and
graft it back; no production path calls them, and they stay for the
repository benchmark's hook table (``perfbench/hooks.py``).

Eviction is a total-slot budget with keep-first insertion (not LRU: sweeps
re-walk windows in ``t`` order, the access pattern LRU is worst at).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.env.window import SlotWindow, precompute_window
from repro.env.workload import Workload
from repro.obs.metrics import global_registry
from repro.utils import shm as shm_transport
from repro.utils.rng import RngFactory, stream_token
from repro.utils.validation import check_positive

__all__ = [
    "WindowCache",
    "cached_window",
    "export_window_state",
    "import_window_state",
    "partition_token",
    "prefill_windows",
    "release_window_state",
    "reset_shared_window_cache",
    "shared_window_cache",
    "window_key_base",
]

#: Default total-slot budget of the process-wide cache.  A full paper-scale
#: replication is 10,000 slots; the default holds several replications'
#: windows (per distinct partition) before new entries are refused.
DEFAULT_MAX_SLOTS = 200_000


def partition_token(partition: object | None) -> tuple | None:
    """Value token of a context partition (cache key component).

    Keyed by ``repr`` — a value repr for the frozen
    :class:`~repro.core.hypercube.ContextPartition` — so the fresh partition
    object each :class:`ExperimentConfig` access constructs still shares
    entries with its equals.
    """
    if partition is None:
        return None
    return ("partition", type(partition).__qualname__, repr(partition))


def window_key_base(
    rngs: RngFactory, workload: Workload, truth: object, partition: object | None
) -> tuple | None:
    """The run-level key prefix all of a run's window keys share.

    Returns None when the run is not cacheable: the workload has no value
    token (stateful coverage, trace replay) or the truth classifies contexts
    without exposing a classification token.
    """
    token_fn = getattr(workload, "cache_token", None)
    workload_token = token_fn() if callable(token_fn) else None
    if workload_token is None:
        return None
    cells_token = None
    if getattr(truth, "context_cells", None) is not None:
        cells_fn = getattr(truth, "context_cells_token", None)
        if not callable(cells_fn):
            return None
        cells_token = cells_fn()
    return (
        stream_token(rngs.env_sequence("workload")),
        workload_token,
        partition_token(partition),
        cells_token,
    )


class WindowCache:
    """Maps window keys to ``(SlotWindow, rng_state, cursor)`` entries.

    ``rng_state`` is the workload generator's ``bit_generator.state`` *after*
    the window was drawn; ``cursor`` is the workload's non-RNG generation
    state at the same point (or None).  Both are restored on a hit so the
    live streams stay synchronized with a cold run (module docstring).
    """

    def __init__(self, *, max_slots: int = DEFAULT_MAX_SLOTS) -> None:
        check_positive("max_slots", max_slots)
        self.max_slots = int(max_slots)
        self.hits = 0
        self.misses = 0
        self.slots_cached = 0
        self._entries: dict[tuple, tuple[SlotWindow, dict, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> tuple[SlotWindow, dict, object] | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            global_registry().counter("window.cache.miss").inc()
            return None
        self.hits += 1
        global_registry().counter("window.cache.hit").inc()
        return entry

    def put(self, key: tuple, window: SlotWindow, rng_state: dict, cursor: object) -> bool:
        """Insert keep-first; False when present already or over budget."""
        if key in self._entries:
            return False
        if self.slots_cached + len(window) > self.max_slots:
            global_registry().counter("window.cache.skip").inc()
            return False
        self._entries[key] = (window, rng_state, cursor)
        self.slots_cached += len(window)
        return True

    def merge(self, entries: list[tuple[tuple, SlotWindow, dict, object]]) -> int:
        """Graft exported entries (existing keys win); returns insert count."""
        added = 0
        for key, window, rng_state, cursor in entries:
            if self.put(key, window, rng_state, cursor):
                added += 1
        return added

    def entries(self) -> list[tuple[tuple, SlotWindow, dict, object]]:
        return [(k, w, s, c) for k, (w, s, c) in self._entries.items()]

    def stats(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._entries),
            "slots_cached": self.slots_cached,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.slots_cached = 0


def cached_window(
    cache: WindowCache,
    workload: Workload,
    t0: int,
    count: int,
    rng: np.random.Generator,
    *,
    partition: object | None,
    context_cells: Callable[[np.ndarray], np.ndarray] | None,
    key_base: tuple,
) -> SlotWindow:
    """Serve window ``(t0, count)`` from ``cache``, generating on a miss.

    A hit restores the stored post-window RNG state and workload cursor —
    so later windows of the run (hit *or* miss) see exactly the stream
    positions a cold run would; a miss generates through
    :func:`precompute_window` and stores the window with its end states.
    """
    key = (key_base, int(t0), int(count))
    entry = cache.get(key)
    if entry is not None:
        window, rng_state, cursor = entry
        rng.bit_generator.state = rng_state
        if cursor is not None:
            workload.restore_cursor(cursor)  # type: ignore[attr-defined]
        return window
    window = precompute_window(
        workload, t0, count, rng, partition=partition, context_cells=context_cells
    )
    cursor_fn = getattr(workload, "cursor", None)
    cache.put(
        key,
        window,
        rng.bit_generator.state,
        cursor_fn() if callable(cursor_fn) else None,
    )
    return window


def prefill_windows(
    cache: WindowCache,
    workload: Workload,
    truth: object,
    seed: int | None | np.random.SeedSequence,
    horizon: int,
    window_size: int,
    *,
    partition: object | None = None,
) -> int:
    """Generate every window of one run configuration into ``cache``.

    Replays exactly the simulator's window schedule (windows of
    ``window_size`` slots, the last one truncated at ``horizon``) on the
    environment workload stream of ``seed``, so a subsequent
    :meth:`Simulation.run` with the same inputs hits on every window.
    Returns the number of slots walked (0 when the run is uncacheable).
    """
    check_positive("horizon", horizon)
    check_positive("window_size", window_size)
    rngs = RngFactory(seed)
    key_base = window_key_base(rngs, workload, truth, partition)
    if key_base is None:
        return 0
    reset = getattr(workload, "reset", None)
    if callable(reset):
        reset()
    rng = rngs.env("workload")
    context_cells = getattr(truth, "context_cells", None)
    t = 0
    while t < horizon:
        count = min(window_size, horizon - t)
        cached_window(
            cache, workload, t, count, rng,
            partition=partition, context_cells=context_cells, key_base=key_base,
        )
        t += count
    return t


# ---------------------------------------------------------------------------
# Process-wide instance, and the shm export kept for the benchmark's hooks.
# ---------------------------------------------------------------------------

_SHARED: WindowCache | None = None


def shared_window_cache() -> WindowCache:
    """The process-wide cache (what ``ExperimentConfig.shared_window`` wires up)."""
    global _SHARED
    if _SHARED is None:
        _SHARED = WindowCache()
    return _SHARED


def reset_shared_window_cache() -> None:
    """Drop the process-wide cache (tests and cold benchmark arms)."""
    global _SHARED
    _SHARED = None


def export_window_state() -> tuple | None:
    """Pack the process-wide cache into a handle another process can graft.

    Returns an opaque picklable handle (or None when there is nothing to
    share).  The array payload travels through one shm block when the host
    supports it, and inline in the handle otherwise — grafted values are
    bit-identical either way.  The caller owns the handle and must call
    :func:`release_window_state` after the last import.
    """
    if _SHARED is None or len(_SHARED) == 0:
        return None
    values = _SHARED.entries()
    skeletons, name, manifest = shm_transport.pack_to_shm(values)
    if name is None:
        return ("inline", values)
    return ("shm", skeletons, name, manifest)


def import_window_state(handle: tuple | None) -> int:
    """Graft an exported handle into this process's shared cache."""
    if handle is None:
        return 0
    if handle[0] == "shm":
        _, skeletons, name, manifest = handle
        entries = shm_transport.unpack_from_shm(skeletons, name, manifest, unlink=False)
    else:
        entries = handle[1]
    return shared_window_cache().merge(entries)


def release_window_state(handle: tuple | None) -> None:
    """Free the shm block behind an exported handle (parent, after the sweep)."""
    if handle is not None and handle[0] == "shm":
        shm_transport.discard_block(handle[2])
