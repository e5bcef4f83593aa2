"""Workload trace persistence and richer arrival models (test helpers).

No ``repro`` module, example or benchmark uses these; they live beside
their tests (``tests/env/test_traces.py``), which also exercise
:class:`~repro.env.workload.TraceWorkload` and the
:class:`~repro.env.geometry.CoverageModel` protocol through them.

The paper evaluates on distribution-sampled workloads ("real world data"
drawn from the §5 distributions).  Real deployments would replay measured
traces; this module provides:

- :func:`save_trace` / :func:`load_trace` — lossless JSONL persistence of
  recorded :class:`~repro.env.workload.SlotWorkload` sequences, so measured
  traces (or expensive synthetic ones) can be replayed across experiments
  and shared between machines;
- :class:`DiurnalCoverageSampler` — a time-varying coverage model whose
  per-SCN load follows a sinusoidal day/night profile (busy hour ≫ night),
  the standard first-order model of cellular demand;
- :class:`BurstyCoverageSampler` — a two-state (calm/burst) modulated
  sampler producing flash-crowd episodes.

Both samplers plug into :class:`~repro.env.workload.SyntheticWorkload`
wherever the paper's uniform sampler goes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.env.geometry import CoverageModel, CoverageSampler
from repro.env.tasks import TaskBatch
from repro.env.workload import SlotWorkload, TraceWorkload
from repro.utils.validation import check_positive, require

__all__ = [
    "save_trace",
    "load_trace",
    "DiurnalCoverageSampler",
    "BurstyCoverageSampler",
]


def _slot_to_record(slot: SlotWorkload) -> dict:
    tasks = slot.tasks
    record: dict = {
        "t": slot.t,
        "contexts": tasks.contexts.tolist(),
        "ids": tasks.ids.tolist(),
        "coverage": [np.asarray(c).tolist() for c in slot.coverage],
    }
    if tasks.input_mbit is not None:
        record["input_mbit"] = tasks.input_mbit.tolist()
    if tasks.output_mbit is not None:
        record["output_mbit"] = tasks.output_mbit.tolist()
    if tasks.resource_type is not None:
        record["resource_type"] = tasks.resource_type.tolist()
    return record


def _record_to_slot(record: dict) -> SlotWorkload:
    batch = TaskBatch(
        contexts=np.asarray(record["contexts"], dtype=float),
        ids=np.asarray(record["ids"], dtype=np.int64),
        input_mbit=(
            np.asarray(record["input_mbit"], dtype=float)
            if "input_mbit" in record
            else None
        ),
        output_mbit=(
            np.asarray(record["output_mbit"], dtype=float)
            if "output_mbit" in record
            else None
        ),
        resource_type=(
            np.asarray(record["resource_type"], dtype=np.int64)
            if "resource_type" in record
            else None
        ),
    )
    coverage = [np.asarray(c, dtype=np.int64) for c in record["coverage"]]
    return SlotWorkload(t=int(record["t"]), tasks=batch, coverage=coverage)


def save_trace(slots: Iterable[SlotWorkload], path: str | Path) -> Path:
    """Write slots as JSON-lines (one slot per line).  Returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        for slot in slots:
            fh.write(json.dumps(_slot_to_record(slot)) + "\n")
    return path


def load_trace(path: str | Path) -> TraceWorkload:
    """Load a JSONL trace written by :func:`save_trace`."""
    path = Path(path)
    slots = [
        _record_to_slot(json.loads(line))
        for line in path.read_text().splitlines()
        if line.strip()
    ]
    if not slots:
        raise ValueError(f"trace file {path} contains no slots")
    return TraceWorkload(slots=slots)


@dataclass
class DiurnalCoverageSampler(CoverageModel):
    """Sinusoidal day/night load on top of the paper's coverage sampler.

    The per-slot coverage size bounds oscillate between a night trough and a
    busy-hour peak with period ``period`` slots:

        k(t) ∈ [k_min·s(t), k_max·s(t)],  s(t) = 1 − depth·(1+cos(2πt/period))/2

    so ``depth=0`` recovers the stationary sampler and ``depth=0.8`` drops
    night load to 20% of the peak.
    """

    num_scns: int = 30
    k_min: int = 35
    k_max: int = 100
    overlap: float = 2.0
    period: int = 1000
    depth: float = 0.6

    def __post_init__(self) -> None:
        check_positive("period", self.period)
        require(0.0 <= self.depth < 1.0, f"depth must be in [0,1), got {self.depth}")
        self._base = CoverageSampler(
            num_scns=self.num_scns,
            k_min=self.k_min,
            k_max=self.k_max,
            overlap=self.overlap,
        )
        self._t = 0

    def reset(self) -> None:
        self._t = 0

    def scale(self, t: int) -> float:
        """The load multiplier s(t) ∈ (0, 1]."""
        return 1.0 - self.depth * (1.0 + np.cos(2.0 * np.pi * t / self.period)) / 2.0

    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        s = self.scale(self._t)
        self._t += 1
        scaled = CoverageSampler(
            num_scns=self.num_scns,
            k_min=max(1, int(round(self.k_min * s))),
            k_max=max(1, int(round(self.k_max * s))),
            overlap=self.overlap,
        )
        return scaled.sample_slot(rng)

    def max_coverage_size(self) -> int:
        return self.k_max


@dataclass
class BurstyCoverageSampler(CoverageModel):
    """Two-state modulated load: calm baseline with flash-crowd bursts.

    A Markov chain switches between CALM and BURST; in a burst, coverage
    bounds are multiplied by ``burst_factor`` (capped by the pool logic).
    Models the flash crowds small cells are deployed to absorb.
    """

    num_scns: int = 30
    k_min: int = 35
    k_max: int = 100
    overlap: float = 2.0
    p_burst: float = 0.01
    p_calm: float = 0.2
    burst_factor: float = 2.0

    def __post_init__(self) -> None:
        require(0.0 <= self.p_burst <= 1.0, "p_burst in [0,1]")
        require(0.0 <= self.p_calm <= 1.0, "p_calm in [0,1]")
        require(self.burst_factor >= 1.0, "burst_factor must be >= 1")
        self._bursting = False

    @property
    def bursting(self) -> bool:
        return self._bursting

    def reset(self) -> None:
        self._bursting = False

    def sample_slot(self, rng: np.random.Generator) -> tuple[int, list[np.ndarray]]:
        if self._bursting:
            if rng.random() < self.p_calm:
                self._bursting = False
        elif rng.random() < self.p_burst:
            self._bursting = True
        factor = self.burst_factor if self._bursting else 1.0
        sampler = CoverageSampler(
            num_scns=self.num_scns,
            k_min=int(round(self.k_min * factor)),
            k_max=int(round(self.k_max * factor)),
            overlap=self.overlap,
        )
        return sampler.sample_slot(rng)

    def max_coverage_size(self) -> int:
        return int(round(self.k_max * self.burst_factor))
