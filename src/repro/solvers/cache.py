"""Content-addressed caching for the Oracle's per-slot solves.

The Oracle re-solves an optimization problem every slot, and large parts of
that work are *pure functions of the slot problem's content*: the pre-pass
achievable-QoS vector (α-independent), the ILP's stage-1 completion total
(α-independent), and the final assignment itself (α-dependent).  A
:class:`SlotProblemCache` memoizes all three under a blake2b signature of
the problem arrays, so:

- an α sweep (``fig3``) re-running the Oracle over the same workload skips
  every pre-pass LP after the first sweep point;
- repeated runs of the same configuration (tests, ``report``, notebook
  re-evaluation) skip the solves entirely and replay the assignments.

Signature = content address
---------------------------

The key hashes the problem's **content** — edge arrays, ḡ/v̄/q̄ values, and
the (M, n, c, β) frame — never its provenance (slot index, seed, truth
object).  Two consequences:

- *no invalidation rules*: a non-stationary truth (drift, regime switch)
  produces different ḡ/v̄/q̄ bytes and therefore different keys; stale hits
  are impossible by construction, and the only eviction policy is an LRU
  size bound;
- *cross-run sharing is always sound*: the process-wide
  :func:`shared_cache` can serve unrelated configs concurrently — a hit
  means the full problem bytes matched, so the memoized result is exact.

α is deliberately excluded from the base signature (the pre-pass and ILP
stage 1 don't depend on it) and added back only on the assignment memo.

On-disk persistence
-------------------

A :class:`DiskCacheBackend` extends the memory memos across processes and
sessions: memory misses fall through to content-addressed files under a
cache directory (``ExperimentConfig.cache_dir`` / ``--cache-dir`` / the
``REPRO_CACHE_DIR`` environment variable), and every store also lands on
disk.  The format is versioned (``cache-format.json`` marker; a mismatched
directory is left untouched and the backend stands down) and pickle-free —
``.npy``/``.npz`` payloads written with ``allow_pickle=False`` equivalents
and loaded the same way, so a cache directory is data, not code.  Writers
are concurrency-safe by construction: every write goes to a unique temp
file and lands via ``os.replace`` (atomic on POSIX), and content addressing
makes write-write races benign — both writers carry identical bytes.

Interaction with the frozen RNG contract: the cache lives entirely inside
``OraclePolicy.select`` — it never touches a workload, realization, or
policy stream, so a warm and an empty cache draw identical randomness and
the trajectories are bit-identical (gated against the uncached reference
Oracle in ``tests/baselines/``).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from hashlib import blake2b
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs.metrics import global_registry
from repro.solvers.lp import SlotProblem
from repro.utils.validation import check_positive

__all__ = [
    "CACHE_DIR_ENV",
    "DiskCacheBackend",
    "SlotProblemCache",
    "problem_signature",
    "reset_shared_cache",
    "shared_cache",
]

#: Environment variable naming the default on-disk cache directory; explicit
#: ``cache_dir`` arguments win over it.  Inherited by spawned workers, so a
#: parallel sweep's processes all share one directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"


def problem_signature(problem: SlotProblem) -> bytes:
    """16-byte blake2b content address of a slot problem (α excluded)."""
    h = blake2b(digest_size=16)
    h.update(
        np.asarray(
            [problem.num_scns, problem.num_tasks, problem.capacity], dtype=np.int64
        ).tobytes()
    )
    h.update(np.float64(problem.beta).tobytes())
    h.update(problem.edge_scn.tobytes())
    h.update(problem.edge_task.tobytes())
    h.update(problem.g.tobytes())
    h.update(problem.v.tobytes())
    h.update(problem.q.tobytes())
    return h.digest()


class _LruMemo:
    """A bounded mapping with LRU eviction and hit/miss counters."""

    __slots__ = ("name", "capacity", "hits", "misses", "_data")

    def __init__(self, name: str, capacity: int) -> None:
        check_positive(f"{name} capacity", capacity)
        self.name = name
        self.capacity = int(capacity)
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Any, Any] = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any) -> Any | None:
        entry = self._data.get(key)
        if entry is None:
            self.misses += 1
            global_registry().counter(f"oracle.cache.{self.name}.miss").inc()
            return None
        self._data.move_to_end(key)
        self.hits += 1
        global_registry().counter(f"oracle.cache.{self.name}.hit").inc()
        return entry

    def put(self, key: Any, value: Any) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.capacity:
            self._data.popitem(last=False)

    def clear(self) -> None:
        self._data.clear()


class DiskCacheBackend:
    """Content-addressed on-disk tier behind :class:`SlotProblemCache`.

    Layout (all content-addressed — file names *are* the keys)::

        <root>/cache-format.json                   version marker
        <root>/ach/<hh>/<sig>.npy                  achievable vectors
        <root>/s1/<hh>/<sig>.npy                   stage-1 totals (scalar)
        <root>/asn/<hh>/<sig>-<alpha>-<mode>.npz   assignments (scn, task)

    ``<sig>`` is the hex problem signature, ``<hh>`` its first two chars
    (fan-out), ``<alpha>`` the exact float64 bytes in hex.  Failure policy:
    any I/O or decode error behaves as a miss (and a store no-op) — the
    cache is an accelerator, never a correctness dependency.  A directory
    whose marker names an unknown format is left untouched and the backend
    disables itself.
    """

    FORMAT = "repro-slot-cache/v1"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.enabled = self._init_root()

    def _init_root(self) -> bool:
        marker = self.root / "cache-format.json"
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            if marker.exists():
                with marker.open() as fh:
                    return json.load(fh).get("format") == self.FORMAT
            self._replace_into(
                marker, json.dumps({"format": self.FORMAT}).encode("ascii")
            )
            return True
        except (OSError, ValueError):
            return False

    # -- low-level helpers ---------------------------------------------------

    def _replace_into(self, path: Path, payload: bytes) -> None:
        """Atomic create: unique temp file + ``os.replace`` (POSIX-atomic)."""
        tmp = path.with_name(
            f"{path.name}.tmp-{os.getpid()}-{threading.get_ident()}"
        )
        with tmp.open("wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)

    def _path(self, kind: str, name: str) -> Path:
        return self.root / kind / name[:2] / name

    def _store_array(self, kind: str, name: str, **arrays: np.ndarray) -> None:
        if not self.enabled:
            return
        path = self._path(kind, name)
        try:
            if path.exists():  # content-addressed: identical bytes already there
                return
            path.parent.mkdir(parents=True, exist_ok=True)
            import io

            buf = io.BytesIO()
            if len(arrays) == 1 and "value" in arrays:
                np.save(buf, arrays["value"], allow_pickle=False)
            else:
                np.savez(buf, **arrays)
            self._replace_into(path, buf.getvalue())
            global_registry().counter("oracle.cache.disk.store").inc()
        except OSError:
            pass

    def _load(self, kind: str, name: str):
        if not self.enabled:
            return None
        path = self._path(kind, name)
        try:
            with path.open("rb") as fh:
                data = np.load(fh, allow_pickle=False)
                if isinstance(data, np.lib.npyio.NpzFile):
                    with data:
                        out = {k: data[k] for k in data.files}
                else:
                    out = data
        except (OSError, ValueError):
            global_registry().counter("oracle.cache.disk.miss").inc()
            return None
        global_registry().counter("oracle.cache.disk.hit").inc()
        return out

    # -- typed entries -------------------------------------------------------

    @staticmethod
    def _alpha_hex(alpha: float) -> str:
        return np.float64(alpha).tobytes().hex()

    def load_achievable(self, sig: bytes) -> np.ndarray | None:
        return self._load("ach", f"{sig.hex()}.npy")

    def store_achievable(self, sig: bytes, vector: np.ndarray) -> None:
        self._store_array("ach", f"{sig.hex()}.npy", value=np.asarray(vector))

    def load_stage1(self, sig: bytes) -> float | None:
        value = self._load("s1", f"{sig.hex()}.npy")
        return None if value is None else float(value)

    def store_stage1(self, sig: bytes, total: float) -> None:
        self._store_array("s1", f"{sig.hex()}.npy", value=np.float64(total))

    def load_assignment(self, sig: bytes, alpha: float, mode: str):
        name = f"{sig.hex()}-{self._alpha_hex(alpha)}-{mode}.npz"
        data = self._load("asn", name)
        if data is None or "scn" not in data or "task" not in data:
            return None
        from repro.env.simulator import Assignment

        return Assignment(scn=data["scn"], task=data["task"])

    def store_assignment(self, sig: bytes, alpha: float, mode: str, assignment) -> None:
        name = f"{sig.hex()}-{self._alpha_hex(alpha)}-{mode}.npz"
        self._store_array("asn", name, scn=assignment.scn, task=assignment.task)


class SlotProblemCache:
    """Memoizes the Oracle's solver work by problem-content signature.

    Three memos, all keyed on :func:`problem_signature`:

    ``achievable``
        The soft-QoS pre-pass output (per-SCN achievable completion,
        α-independent) — lets the main LP run without the pre-pass solve.
    ``stage1``
        The two-stage ILP's stage-1 completion total (α-independent).
    ``assignment``
        The final :class:`~repro.env.simulator.Assignment` per
        ``(signature, α, mode)`` — exact replay on full repeats.

    Default bounds hold a full paper horizon (T=10,000) of achievable
    vectors (~300 bytes each) while keeping the larger assignment payloads
    on a tighter leash; both are constructor knobs.  Hit/miss counts are
    kept per memo and mirrored into the metrics registry as
    ``oracle.cache.<memo>.{hit,miss}`` counters.
    """

    def __init__(
        self,
        *,
        achievable_entries: int = 16384,
        assignment_entries: int = 4096,
        disk: DiskCacheBackend | None = None,
    ) -> None:
        self._achievable = _LruMemo("achievable", achievable_entries)
        self._stage1 = _LruMemo("stage1", achievable_entries)
        self._assignment = _LruMemo("assignment", assignment_entries)
        self._disk = disk

    # -- signatures ----------------------------------------------------------

    signature = staticmethod(problem_signature)

    @property
    def disk(self) -> DiskCacheBackend | None:
        return self._disk

    def set_disk(self, disk: DiskCacheBackend | None) -> None:
        """(Re)bind the on-disk tier; sound at any time — keys are content."""
        self._disk = disk

    # -- achievable pre-pass (α-independent) ---------------------------------

    def achievable(self, sig: bytes) -> np.ndarray | None:
        value = self._achievable.get(sig)
        if value is None and self._disk is not None:
            value = self._disk.load_achievable(sig)
            if value is not None:
                self._achievable.put(sig, value)
        return value

    def store_achievable(self, sig: bytes, vector: np.ndarray) -> None:
        self._achievable.put(sig, vector)
        if self._disk is not None:
            self._disk.store_achievable(sig, vector)

    # -- ILP stage 1 (α-independent) -----------------------------------------

    def stage1_completion(self, sig: bytes) -> float | None:
        value = self._stage1.get(sig)
        if value is None and self._disk is not None:
            value = self._disk.load_stage1(sig)
            if value is not None:
                self._stage1.put(sig, value)
        return value

    def store_stage1_completion(self, sig: bytes, total: float) -> None:
        self._stage1.put(sig, float(total))
        if self._disk is not None:
            self._disk.store_stage1(sig, float(total))

    # -- final assignments (α- and mode-dependent) ---------------------------

    def assignment(self, sig: bytes, alpha: float, mode: str):
        value = self._assignment.get((sig, float(alpha), mode))
        if value is None and self._disk is not None:
            value = self._disk.load_assignment(sig, alpha, mode)
            if value is not None:
                self._assignment.put((sig, float(alpha), mode), value)
        return value

    def store_assignment(self, sig: bytes, alpha: float, mode: str, assignment) -> None:
        self._assignment.put((sig, float(alpha), mode), assignment)
        if self._disk is not None:
            self._disk.store_assignment(sig, alpha, mode, assignment)

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-memo hit/miss/size counts (for benches and tests)."""
        return {
            memo.name: {"hits": memo.hits, "misses": memo.misses, "size": len(memo)}
            for memo in (self._achievable, self._stage1, self._assignment)
        }

    def clear(self) -> None:
        for memo in (self._achievable, self._stage1, self._assignment):
            memo.clear()


_SHARED: SlotProblemCache | None = None


def _resolve_cache_dir(cache_dir: str | Path | None) -> str | None:
    if cache_dir is not None:
        return str(cache_dir)
    return os.environ.get(CACHE_DIR_ENV) or None


def shared_cache(cache_dir: str | Path | None = None) -> SlotProblemCache:
    """The process-wide cache instance (the Oracle's default cache).

    Content addressing makes sharing across configs/truths/seeds sound (see
    module docstring), and sharing is precisely what lets one sweep point
    warm the next.  Worker processes each get their own memory instance —
    the on-disk tier is what they share.

    ``cache_dir`` (or, when omitted, the ``REPRO_CACHE_DIR`` environment
    variable) attaches the persistent :class:`DiskCacheBackend`; a later
    call naming a *different* directory rebinds the tier.  Calls without a
    directory never detach one that is already bound.
    """
    global _SHARED
    resolved = _resolve_cache_dir(cache_dir)
    if _SHARED is None:
        _SHARED = SlotProblemCache(
            disk=DiskCacheBackend(resolved) if resolved else None
        )
    elif resolved is not None and (
        _SHARED.disk is None or str(_SHARED.disk.root) != str(Path(resolved))
    ):
        _SHARED.set_disk(DiskCacheBackend(resolved))
    return _SHARED


def reset_shared_cache() -> None:
    """Drop the process-wide cache (tests and cold benchmark arms)."""
    global _SHARED
    _SHARED = None
