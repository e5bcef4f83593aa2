"""Windowed slot precompute: stream W slots through the batched kernels.

LFSC's slot kernel lays a *single* slot out as one flat edge list, but
every slot would still rebuild that layout — coverage concatenation, hypercube
classification, ground-truth cell lookup — from scratch.  This module
precomputes those slot-invariant structures for a *window* of W slots in one
vectorized pass:

- :func:`precompute_window` pulls W slots from the workload (through
  :meth:`~repro.env.workload.Workload.sample_slots`, which preserves the
  frozen per-slot RNG draw order) and hands them to the derive step.
- :func:`precompute_slots` is that derive step, for any list of slots: it
  builds each slot's :class:`SlotEdges` — the flat (scn, task) edge list
  with segment offsets, the sorted membership key the assignment validator
  needs, and optionally the per-edge hypercube indices for the learner's
  partition — plus the ground-truth grid cell per task.  Cube and cell
  classification run *once* over all the slots' concatenated contexts.  The
  online session runs it on every slot it serves (W = 1), including slots
  built from external arrivals.
- :func:`slot_layout` is how every policy reads its slot: it hands back the
  slot with a :class:`SlotEdges` that fits it — the window's own when it
  matches, else derived here through :func:`precompute_slots` or
  :func:`classify_edges`.  A ``window=0`` slot, a slot a wrapper rewrote
  and a windowed slot therefore reach the policy in one sorted edge order,
  which is what makes windowed ≡ per-slot hold for every policy, also on
  traces whose coverage lists are unsorted.
- :func:`precompute_eligibility` is the one rule for whether a slot loop
  precomputes slots for a policy, and with which partition.
- :class:`PrecomputedSlot` is a :class:`~repro.env.workload.SlotWorkload`
  that carries the precomputed extras.  The simulator reads them when
  present (``truth_cells`` for the truth lookups, the sorted pair key for
  assignment validation); policies reach ``edges`` only through
  :func:`slot_layout`.

Everything here is *derived* data — no random draws happen outside
``sample_slots`` — so a windowed trajectory is bit-identical to the
per-slot one (``tests/env/test_window.py`` enforces this for both
assignment modes and window sizes straddling the horizon).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.env.workload import SlotWorkload, Workload

__all__ = [
    "SlotEdges",
    "PrecomputedSlot",
    "SlotWindow",
    "classify_edges",
    "precompute_eligibility",
    "precompute_slots",
    "precompute_window",
    "slot_layout",
]


@dataclass(frozen=True)
class SlotEdges:
    """One slot's coverage graph as a flat edge list, plus derived layout.

    Attributes
    ----------
    offsets:
        ``(M+1,)`` int64 — SCN m's edges live at ``offsets[m]:offsets[m+1]``.
    lengths:
        ``(M,)`` int64 segment sizes (``np.diff(offsets)``).
    lengths_f:
        ``lengths`` as float64 (Alg. 2's K per segment).
    bounds:
        ``offsets.tolist()`` — ready for the per-SCN Python loops.
    seg_start:
        ``(M,)`` int64 — clamped segment starts for ``np.ufunc.reduceat``
        (empty segments produce garbage lanes the consumers never read).
    scn, task:
        ``(E,)`` int64 parallel edge arrays (tasks sorted within a segment).
    key:
        ``(E,)`` int64 ``scn·n + task`` — sorted, used for membership and
        assignment lookup without rebuilding.
    seg_len_edge:
        ``(E,)`` float64 — each edge's segment length (Alg. 2's per-edge K).
    num_tasks:
        n — the slot's task count (the key encoding base).
    cube:
        ``(E,)`` int64 hypercube index per edge for ``partition``, or None
        when no partition was supplied.
    flat:
        ``(E,)`` int64 ``scn·F + cube`` (the Alg. 3 scatter key), or None.
    partition:
        The :class:`~repro.core.hypercube.ContextPartition` the cubes were
        computed for (consumers must check it matches their own).
    num_cubes:
        F — ``partition.num_cubes`` snapshot (0 when no partition).
    """

    offsets: np.ndarray
    lengths: np.ndarray
    lengths_f: np.ndarray
    bounds: list[int]
    seg_start: np.ndarray
    scn: np.ndarray
    task: np.ndarray
    key: np.ndarray
    seg_len_edge: np.ndarray
    num_tasks: int
    cube: np.ndarray | None = None
    flat: np.ndarray | None = None
    partition: object | None = None
    num_cubes: int = 0

    @property
    def num_edges(self) -> int:
        return int(self.task.shape[0])

    @property
    def num_segments(self) -> int:
        return int(self.offsets.shape[0]) - 1


@dataclass(frozen=True)
class PrecomputedSlot(SlotWorkload):
    """A :class:`SlotWorkload` carrying window-precomputed derived data.

    Attributes
    ----------
    edges:
        The slot's :class:`SlotEdges` (always present for windowed slots).
    truth_cells:
        ``(n,)`` int64 ground-truth grid cell per task (present only when
        the simulation's truth exposes ``context_cells``).
    """

    edges: SlotEdges | None = None
    truth_cells: np.ndarray | None = None


@dataclass(frozen=True)
class SlotWindow:
    """W consecutive precomputed slots, ``slots[i]`` being slot ``start+i``."""

    start: int
    slots: tuple[PrecomputedSlot, ...]

    def __len__(self) -> int:
        return len(self.slots)


def _normalize_coverage(
    coverage: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Coverage lists as int64 arrays, matching the slot kernel's intake."""
    return [np.asarray(cov, dtype=np.int64) for cov in coverage]


def _build_edges(
    coverage: list[np.ndarray],
    num_tasks: int,
    edge_task: np.ndarray,
    edge_scn: np.ndarray,
    offsets: np.ndarray,
    lengths: np.ndarray,
) -> SlotEdges:
    """Assemble one slot's :class:`SlotEdges` from pre-concatenated arrays.

    ``edge_task`` may be repaired (sorted per segment) in place; the same
    repair is written back into ``coverage`` so the slot and its edge list
    stay consistent — the same repair the per-SCN loop applies to each
    SCN's coverage.
    """
    E = int(offsets[-1])
    M = lengths.shape[0]
    if E:
        drops = np.flatnonzero(np.diff(edge_task) < 0)
        if drops.size:
            seg_of_drop = np.searchsorted(offsets, drops, side="right") - 1
            boundary = offsets[seg_of_drop + 1] - 1  # last index of that segment
            for m in np.unique(seg_of_drop[drops != boundary]).tolist():
                coverage[m] = np.sort(coverage[m])
                edge_task[offsets[m] : offsets[m + 1]] = coverage[m]
    key = edge_scn * np.int64(num_tasks) + edge_task
    return SlotEdges(
        offsets=offsets,
        lengths=lengths,
        lengths_f=lengths.astype(float),
        bounds=offsets.tolist(),
        seg_start=np.minimum(offsets[:-1], max(E - 1, 0)),
        scn=edge_scn,
        task=edge_task,
        key=key,
        seg_len_edge=np.repeat(lengths, lengths).astype(float),
        num_tasks=num_tasks,
    )


def classify_edges(
    edges: SlotEdges, task_cubes: np.ndarray, partition: object
) -> SlotEdges:
    """``edges`` plus each edge's hypercube and the Alg. 3 scatter key.

    ``task_cubes`` is ``partition.assign`` over the slot's task contexts;
    the edge gather and the ``scn·F + cube`` key are computed here, with F
    snapshotted from ``partition.num_cubes``.
    """
    cube = task_cubes[edges.task]
    F = partition.num_cubes
    return dataclasses.replace(
        edges,
        cube=cube,
        flat=edges.scn * np.int64(F) + cube,
        partition=partition,
        num_cubes=F,
    )


def precompute_eligibility(workload: object, policy: object) -> tuple[bool, object | None]:
    """Whether ``policy`` runs on precomputed slots, and the partition to use.

    Returns ``(eligible, partition)``.  Slots are precomputed only for a
    windowable workload (slots a pure function of ``(t, rng)`` consumed in
    order).  ``partition`` is the policy's ``context_partition`` when it is
    immutable (``windowable``); a stateful one (adaptive refinement) would
    reassign cubes between classification and use, so it is None and the
    policy classifies at select time.
    """
    if not getattr(workload, "windowable", False):
        return False, None
    partition = getattr(policy, "context_partition", None)
    if partition is not None and not getattr(partition, "windowable", False):
        partition = None
    return True, partition


def precompute_slots(
    raw_slots: Sequence[SlotWorkload],
    *,
    partition: object | None = None,
    context_cells: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[PrecomputedSlot]:
    """Derive each slot's :class:`SlotEdges`, cubes and truth cells.

    The derive half of :func:`precompute_window`, for any list of slots that
    share one SCN count — a window drawn from the workload, one slot built
    from external arrivals, or one a policy wrapper rewrote.  No random draw
    happens here.

    Parameters
    ----------
    partition:
        The learner's :class:`~repro.core.hypercube.ContextPartition`; when
        given, every edge's hypercube index (and the Alg. 3 ``scn·F + cube``
        scatter key) is classified once over all slots' contexts.
    context_cells:
        The truth's ``context_cells`` bound method; when given, each task's
        ground-truth grid cell is precomputed the same way.
    """
    count = len(raw_slots)
    coverage_lists = [_normalize_coverage(s.coverage) for s in raw_slots]
    # One concatenate over all count·M coverage segments, then per-slot views.
    parts: list[np.ndarray] = []
    seg_lengths: list[np.ndarray] = []
    for cov in coverage_lists:
        parts.extend(cov)
        seg_lengths.append(
            np.fromiter((c.shape[0] for c in cov), dtype=np.int64, count=len(cov))
        )
    all_lengths = np.concatenate(seg_lengths) if seg_lengths else np.empty(0, np.int64)
    all_task = np.concatenate(parts) if parts else np.empty(0, np.int64)
    M = raw_slots[0].num_scns if raw_slots else 0
    scn_pattern = np.tile(np.arange(M, dtype=np.int64), count)
    all_scn = np.repeat(scn_pattern, all_lengths)

    # Classification runs once over the concatenated contexts; the grid
    # lookups are pure row-wise maps, so batching them is bit-identical to
    # per-slot classification.
    ctx_offsets = np.zeros(count + 1, dtype=np.int64)
    for i, s in enumerate(raw_slots):
        ctx_offsets[i + 1] = ctx_offsets[i] + len(s.tasks)
    all_cubes = all_cells = None
    if partition is not None or context_cells is not None:
        all_ctx = np.concatenate([s.tasks.contexts for s in raw_slots])
        if partition is not None:
            all_cubes = partition.assign(all_ctx)
        if context_cells is not None:
            all_cells = np.asarray(context_cells(all_ctx), dtype=np.int64)

    slots: list[PrecomputedSlot] = []
    edge_pos = 0
    seg_pos = 0
    for i, raw in enumerate(raw_slots):
        coverage = coverage_lists[i]
        lengths = all_lengths[seg_pos : seg_pos + M]
        offsets = np.zeros(M + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        E = int(offsets[-1])
        edges = _build_edges(
            coverage,
            len(raw.tasks),
            all_task[edge_pos : edge_pos + E],
            all_scn[edge_pos : edge_pos + E],
            offsets,
            lengths,
        )
        lo, hi = ctx_offsets[i], ctx_offsets[i + 1]
        if all_cubes is not None:
            edges = classify_edges(edges, all_cubes[lo:hi], partition)
        slots.append(
            PrecomputedSlot(
                t=raw.t,
                tasks=raw.tasks,
                coverage=coverage,
                edges=edges,
                truth_cells=None if all_cells is None else all_cells[lo:hi],
            )
        )
        edge_pos += E
        seg_pos += M
    return slots


def slot_layout(slot: SlotWorkload, partition: object | None = None) -> PrecomputedSlot:
    """``slot`` with a :class:`SlotEdges` that fits it: the one slot layout.

    The edges must match the slot's task count and, when ``partition`` is
    given, carry that partition's cubes (the same object or a value-equal
    one).  A fitting slot is returned as is; a slot without edges is laid
    out by :func:`precompute_slots`, and one whose cubes are missing or
    were classified for another partition is reclassified against
    ``partition`` as it stands now (a stateful partition is never
    classified ahead of time).  No random draw happens here.
    """
    edges = getattr(slot, "edges", None)
    if edges is None or edges.num_tasks != len(slot.tasks):
        return precompute_slots([slot], partition=partition)[0]
    if partition is not None and (
        edges.flat is None
        or not (edges.partition is partition or edges.partition == partition)
    ):
        task_cubes = partition.assign(slot.tasks.contexts)
        return dataclasses.replace(
            slot, edges=classify_edges(edges, task_cubes, partition)
        )
    return slot


def precompute_window(
    workload: Workload,
    t0: int,
    count: int,
    rng: np.random.Generator,
    *,
    partition: object | None = None,
    context_cells: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SlotWindow:
    """Generate and precompute slots ``t0 .. t0+count-1`` in one pass.

    The draw — :meth:`~repro.env.workload.Workload.sample_slots`, which
    consumes the workload RNG in exactly the per-slot order (so the
    workload must be windowable) — followed by the derive step,
    :func:`precompute_slots` with ``partition`` and ``context_cells``.

    Returns
    -------
    SlotWindow
        ``count`` :class:`PrecomputedSlot` objects sharing one batched
        classification pass.
    """
    if count <= 0:
        raise ValueError(f"count must be >= 1, got {count}")
    raw_slots = workload.sample_slots(t0, count, rng)
    slots = precompute_slots(raw_slots, partition=partition, context_cells=context_cells)
    return SlotWindow(start=t0, slots=tuple(slots))
