"""Multi-seed replication — process-parallel by default, deterministic always.

A single simulation run is one sample of the random environment; headline
comparisons (LFSC vs baselines) should be robust across seeds.
:func:`run_replications` runs an experiment at several seeds and returns the
full per-seed :class:`SimulationResult` objects; :func:`replicate` aggregates
every summary scalar into mean, standard deviation, and a
normal-approximation confidence interval; :func:`replication_rows` renders
the comparison table with ``value ± half_width`` strings.  Used by
``benchmarks/bench_replication.py`` to assert the paper's orderings hold with
statistical margin, not by luck of one seed.

Determinism contract
--------------------

Replication seeds follow the frozen stream contract of
:mod:`repro.utils.rng`: when a replication *count* ``n`` is given, the k-th
replication runs at ``replication_seed(cfg.seed, k)`` — a mapping that
depends only on ``(cfg.seed, k)``, never on worker count or scheduling.
Each worker rebuilds its whole experiment from the config and that integer
seed, and :func:`repro.utils.parallel.parallel_map` collects results in
submission order, so ``workers=0`` (all cores — the default), ``workers=1``
(serial), and any ``workers=n`` produce **bit-identical** per-seed results
(enforced by ``tests/experiments/test_determinism.py``).  An explicit seed
*list* is honoured verbatim, one replication per listed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from repro.env.simulator import SimulationResult
from repro.experiments.runner import ExperimentConfig, run_experiment
from repro.policies import DEFAULT_POLICIES
from repro.obs.manifest import write_manifest
from repro.utils.parallel import parallel_map
from repro.utils.rng import describe_streams, replication_seeds
from repro.utils.validation import check_positive, require

__all__ = [
    "ReplicatedSummary",
    "ReplicationRun",
    "replicate",
    "replication_rows",
    "replication_seed_list",
    "run_replications",
]


@dataclass(frozen=True)
class ReplicatedSummary:
    """Aggregate of one scalar metric across seeds."""

    metric: str
    policy: str
    mean: float
    std: float
    ci_low: float
    ci_high: float
    n: int

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    def formatted(self, precision: int = 1) -> str:
        return f"{self.mean:.{precision}f} ± {self.half_width:.{precision}f}"


@dataclass(frozen=True)
class ReplicationRun:
    """One replication: its index, the seed it ran at, and the full results."""

    index: int
    seed: int
    results: dict[str, SimulationResult]


def replication_seed_list(base_seed: int, seeds: Sequence[int] | int) -> list[int]:
    """Resolve a count-or-list ``seeds`` argument to explicit seed integers.

    A count ``n`` derives seeds through the frozen replication stream
    contract (:func:`repro.utils.rng.replication_seeds`); an explicit list
    is returned as given.
    """
    if isinstance(seeds, int):
        check_positive("seeds", seeds)
        return replication_seeds(base_seed, seeds)
    seed_list = [int(s) for s in seeds]
    require(len(seed_list) >= 1, "need at least one seed")
    return seed_list


def _seed_label(index: int, args: tuple[ExperimentConfig, Sequence[str], int]) -> str:
    """Names the failing replication in ParallelExecutionError messages."""
    return f"replication {index}, seed {args[2]}"


def _seed_streams(index: int, args: tuple[ExperimentConfig, Sequence[str], int]) -> str:
    """Derived env/policy streams of the failing replication (error text)."""
    return describe_streams(args[2], args[1])


def _emit_manifest(
    manifest_dir: str | Path | None,
    cfg: ExperimentConfig,
    seed_list: Sequence[int],
    policies: Sequence[str],
    workers: int | None,
) -> Path | None:
    """Write the sweep's provenance manifest when a directory is given."""
    if manifest_dir is None:
        return None
    return write_manifest(
        Path(manifest_dir),
        kind="replication",
        config=cfg,
        seeds=seed_list,
        policies=policies,
        extra={"workers": workers},
    )


def _run_seed_full(
    args: tuple[ExperimentConfig, Sequence[str], int]
) -> dict[str, SimulationResult]:
    """Worker: one replication, returning the full per-policy results."""
    cfg, policies, seed = args
    return run_experiment(cfg.with_overrides(seed=seed), policies, workers=None)


def _run_seed_summary(
    args: tuple[ExperimentConfig, Sequence[str], int]
) -> dict[str, dict[str, float]]:
    """Worker: one replication, returning only the summary scalars.

    Keeps :func:`replicate` cheap over process boundaries — paper-scale
    ``SimulationResult`` arrays are megabytes per policy, the summaries are
    a dozen floats.
    """
    return {name: res.summary() for name, res in _run_seed_full(args).items()}


def run_replications(
    cfg: ExperimentConfig,
    policies: Sequence[str] = ("LFSC",),
    *,
    seeds: Sequence[int] | int = 5,
    workers: int | None = 0,
    manifest_dir: str | Path | None = None,
) -> list[ReplicationRun]:
    """Run the experiment once per seed and keep every per-seed result.

    Parameters
    ----------
    seeds:
        Either a replication count n (seeds derived via the frozen stream
        contract from ``cfg.seed``) or an explicit seed list (used verbatim).
    workers:
        ``0`` (default) — one process per CPU core, falling back to serial
        on a single-core host; ``None``/``1`` — serial; ``n`` — a pool of n.
        The per-seed results are bit-identical across all settings.
    manifest_dir:
        When given, writes ``<manifest_dir>/manifest.json`` with the sweep's
        full provenance (config, seed list, policies, git SHA, host, versions)
        before the sweep runs — so even a crashed sweep leaves its manifest.

    Returns
    -------
    One :class:`ReplicationRun` per seed, in seed-list order.
    """
    seed_list = replication_seed_list(cfg.seed, seeds)
    _emit_manifest(manifest_dir, cfg, seed_list, list(policies), workers)
    tasks = [(cfg, tuple(policies), s) for s in seed_list]
    per_seed = parallel_map(
        _run_seed_full,
        tasks,
        workers=workers,
        label=_seed_label,
        diagnostics=_seed_streams,
    )
    return [
        ReplicationRun(index=k, seed=s, results=res)
        for k, (s, res) in enumerate(zip(seed_list, per_seed))
    ]


def _aggregate(
    per_seed: Sequence[Mapping[str, Mapping[str, float]]],
    policies: Sequence[str],
    confidence: float,
) -> dict[str, dict[str, ReplicatedSummary]]:
    n = len(per_seed)
    out: dict[str, dict[str, ReplicatedSummary]] = {}
    for policy in policies:
        metrics = per_seed[0][policy].keys()
        out[policy] = {}
        for metric in metrics:
            samples = np.array([run[policy][metric] for run in per_seed], dtype=float)
            mean = float(samples.mean())
            std = float(samples.std(ddof=1)) if n > 1 else 0.0
            if n > 1 and std > 0:
                # Imported here: scipy.stats is slow to import and only the
                # confidence intervals need it.
                from scipy import stats

                t_crit = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
                half = t_crit * std / np.sqrt(n)
            else:
                half = 0.0
            out[policy][metric] = ReplicatedSummary(
                metric=metric,
                policy=policy,
                mean=mean,
                std=std,
                ci_low=mean - half,
                ci_high=mean + half,
                n=n,
            )
    return out


def replicate(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    seeds: Sequence[int] | int = 5,
    confidence: float = 0.95,
    workers: int | None = 0,
    manifest_dir: str | Path | None = None,
) -> dict[str, dict[str, ReplicatedSummary]]:
    """Run the experiment at several seeds and aggregate the summaries.

    Parameters
    ----------
    seeds:
        Either an explicit seed list or a count n (derived from ``cfg.seed``
        via the frozen replication stream contract).
    confidence:
        Two-sided CI level; the interval uses the t-distribution with n-1
        degrees of freedom.
    workers:
        Same semantics as :func:`run_replications`; parallel by default.
    manifest_dir:
        When given, writes ``<manifest_dir>/manifest.json`` with the sweep's
        provenance (see :func:`run_replications`).

    Returns
    -------
    ``{policy: {metric: ReplicatedSummary}}``.
    """
    require(0.0 < confidence < 1.0, f"confidence in (0,1), got {confidence}")
    seed_list = replication_seed_list(cfg.seed, seeds)
    _emit_manifest(manifest_dir, cfg, seed_list, list(policies), workers)
    tasks = [(cfg, tuple(policies), s) for s in seed_list]
    per_seed = parallel_map(
        _run_seed_summary,
        tasks,
        workers=workers,
        label=_seed_label,
        diagnostics=_seed_streams,
    )
    return _aggregate(per_seed, policies, confidence)


def replication_rows(
    aggregated: Mapping[str, Mapping[str, ReplicatedSummary]],
    *,
    metrics: Sequence[str] = ("total_reward", "total_violations", "performance_ratio"),
    precision: int = 1,
) -> list[dict[str, str]]:
    """Table rows with ``mean ± ci`` strings for the chosen metrics."""
    rows = []
    for policy, summaries in aggregated.items():
        row: dict[str, str] = {"policy": policy}
        for metric in metrics:
            if metric in summaries:
                row[metric] = summaries[metric].formatted(precision)
        rows.append(row)
    return rows
