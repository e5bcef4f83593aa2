"""Shared-memory numpy packing, kept for the repository benchmark's hooks.

No production path uses this module any more: pool results and fleet
messages travel through the pipe, and pool workers inherit prefilled
windows by fork (``utils/parallel.py``).  ``perfbench/hooks.py`` still
resolves :func:`pack_to_shm` and :func:`unpack_from_shm`, and
:func:`repro.env.window_cache.export_window_state` still packs through it,
so the module stays until the benchmark's hook table drops those names.

- :func:`pack_to_shm` walks each value (dataclasses, dicts, lists, tuples),
  lifts every materializable ndarray into one shared block, and returns a
  pickle-light *skeleton* whose arrays are :class:`ArrayRef` placeholders
  plus a manifest of ``(shape, dtype, offset)`` descriptors;
- :func:`unpack_from_shm` views the block, rebuilds each array
  (materializing it out of the block so values outlive the segment),
  grafts them back into the skeletons, then closes and unlinks the block.

Values are bit-identical to the inputs (``tests/utils/test_shm_transport.py``):
the block carries the exact bytes of each array, and anything shared memory
cannot hold — object-dtype or zero-size arrays, scalars, non-array fields —
stays inline in the skeleton.

Lifetime: the packer unregisters its block from the resource tracker and
closes its mapping immediately after filling it (the consumer owns the
segment from then on); the consumer unlinks in a ``finally`` so a failed
rebuild cannot leak the segment.  :func:`discard_block` lets error paths
drop a block they will never unpack.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields, is_dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "ArrayRef",
    "discard_block",
    "pack_to_shm",
    "shm_supported",
    "unpack_from_shm",
]

_MISS = object()
_ALIGN = 16


@dataclass(frozen=True)
class ArrayRef:
    """Skeleton placeholder for the ``index``-th array of a shm block."""

    index: int


def _map_tree(obj: Any, fn: Callable[[Any], Any]) -> Any:
    """Rebuild ``obj`` with ``fn`` applied to the leaves it claims.

    ``fn`` returns a replacement or the ``_MISS`` sentinel; on ``_MISS``
    containers (dict / list / tuple / namedtuple / dataclass) are walked
    recursively and any other node is kept as-is.  Unchanged subtrees are
    returned identically (``is``-preserving), so frozen dataclasses are
    only copied when a field actually changed.
    """
    hit = fn(obj)
    if hit is not _MISS:
        return hit
    if isinstance(obj, dict):
        return {k: _map_tree(v, fn) for k, v in obj.items()}
    if isinstance(obj, tuple):
        mapped = [_map_tree(v, fn) for v in obj]
        if hasattr(obj, "_fields"):  # namedtuple
            return type(obj)(*mapped)
        return tuple(mapped)
    if isinstance(obj, list):
        return [_map_tree(v, fn) for v in obj]
    if is_dataclass(obj) and not isinstance(obj, type):
        changed = {}
        for f in fields(obj):
            value = getattr(obj, f.name)
            mapped = _map_tree(value, fn)
            if mapped is not value:
                changed[f.name] = mapped
        if not changed:
            return obj
        clone = copy.copy(obj)
        for name, value in changed.items():
            # frozen dataclasses (SimulationResult) refuse setattr
            object.__setattr__(clone, name, value)
        return clone
    return obj


def shm_supported() -> bool:
    """Whether ``multiprocessing.shared_memory`` works on this host."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(create=True, size=1)
    except Exception:
        return False
    probe.close()
    try:
        probe.unlink()  # unlink also unregisters from the resource tracker
    except Exception:  # pragma: no cover - already gone
        pass
    return True


def _untrack(shm) -> None:
    """Detach a segment from the resource tracker (creator hand-off).

    The creating worker hands ownership to the parent: ``SharedMemory(create=
    True)`` registered the segment, and the matching unregister must come
    from exactly one place — this call in the worker, because the parent's
    ``unlink()`` issues its own unregister.  Best-effort: tracker internals
    differ per platform.
    """
    try:  # pragma: no cover - tracker behaviour is platform-specific
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


def _ensure_tracked(shm) -> None:
    """Register an attached segment so a later ``unlink()`` balances.

    On Python 3.11 attaching (``SharedMemory(name=...)``) does not register
    with the resource tracker but ``unlink()`` always unregisters, which
    trips a tracker-side KeyError; on 3.12+ attach registers by itself and
    this extra register is idempotent (the tracker cache is a set).
    """
    try:  # pragma: no cover - tracker behaviour is platform-specific
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass


def pack_to_shm(values: list) -> tuple[list, str | None, list]:
    """Lift every shareable array in ``values`` into one shm block.

    Returns ``(skeletons, block_name, manifest)``.  ``block_name`` is
    ``None`` when there was nothing to lift (or shared memory is
    unavailable) — then ``skeletons`` is just ``values`` and the caller
    should fall back to plain pickling.  Object-dtype and zero-size arrays
    stay inline.
    """
    arrays: list[np.ndarray] = []
    manifest: list[tuple[tuple[int, ...], str, int]] = []
    offset = 0

    def lift(obj: Any) -> Any:
        nonlocal offset
        if not isinstance(obj, np.ndarray):
            return _MISS
        if obj.size == 0 or obj.dtype.hasobject:
            return obj
        arr = np.ascontiguousarray(obj)
        manifest.append((arr.shape, arr.dtype.str, offset))
        arrays.append(arr)
        offset += -(-arr.nbytes // _ALIGN) * _ALIGN
        return ArrayRef(len(arrays) - 1)

    skeletons = [_map_tree(v, lift) for v in values]
    if not arrays:
        return values, None, []

    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(create=True, size=offset)
    except Exception:
        return values, None, []
    try:
        for (shape, _, off), arr in zip(manifest, arrays):
            dst = np.ndarray(shape, dtype=arr.dtype, buffer=shm.buf, offset=off)
            np.copyto(dst, arr)
            del dst  # release the exported buffer so close() may proceed
        _untrack(shm)
        name = shm.name
    except Exception:
        shm.close()
        try:
            shm.unlink()  # unlink also unregisters from the resource tracker
        except Exception:
            pass
        return values, None, []
    shm.close()
    return skeletons, name, manifest


def unpack_from_shm(skeletons: list, name: str, manifest: list, *, unlink: bool = True) -> list:
    """Rebuild the values :func:`pack_to_shm` lifted, then free the block.

    Each array is materialized out of the block (results must outlive the
    segment), and the block is closed — and, by default, unlinked — even
    when a rebuild fails.  ``unlink=False`` leaves the segment alive for
    other readers (e.g. several pool workers grafting one shared window
    block); exactly one owner must then call :func:`discard_block` later.
    """
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    if unlink:
        _ensure_tracked(shm)
    else:
        # A reader that will not unlink must not let the resource tracker
        # adopt the segment either — on 3.12+ attach auto-registers, and the
        # worker exiting would then reap the block under the other readers.
        _untrack(shm)
    try:
        arrays: list[np.ndarray] = []
        for shape, dtype, off in manifest:
            src = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf, offset=off)
            arrays.append(src.copy())
            del src

        def graft(obj: Any) -> Any:
            if isinstance(obj, ArrayRef):
                return arrays[obj.index]
            return _MISS

        return [_map_tree(s, graft) for s in skeletons]
    finally:
        shm.close()
        if unlink:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - racing cleanup
                pass


def discard_block(name: str) -> None:
    """Unlink a block that will never be unpacked (error-path cleanup)."""
    try:
        from multiprocessing import shared_memory

        shm = shared_memory.SharedMemory(name=name)
    except Exception:
        return
    _ensure_tracked(shm)
    shm.close()
    try:
        shm.unlink()
    except Exception:  # pragma: no cover - racing cleanup
        pass
