"""Stable high-level entry points: ``run``, ``replicate``, ``compare``.

The building blocks (:class:`~repro.experiments.runner.ExperimentConfig`,
:func:`~repro.experiments.runner.run_experiment`, the metrics helpers) stay
importable forever, but stitching them together for the common questions —
"run the line-up", "is the ordering seed-robust", "how close is LFSC to the
Oracle" — takes boilerplate that every script used to repeat.  This module
is the supported facade over that boilerplate:

>>> from repro import api
>>> result = api.run(scale="small", horizon=300)
>>> print(result.table())                               # doctest: +SKIP
>>> rep = api.replicate(scale="small", horizon=200, seeds=3)
>>> comp = api.compare("LFSC", "Oracle", scale="small", horizon=300)

The online service (DESIGN.md §10) surfaces here too: ``open_session``
builds a checkpointable slot-by-slot session, ``resume_session`` restores
one bit-identically from a ``repro-checkpoint/v1`` file, ``serve`` starts
the socket daemon, and ``describe_checkpoint`` inspects a snapshot:

>>> sess = api.open_session(scale="tiny", horizon=100)
>>> sess.run(50).save("run.ckpt")                       # doctest: +SKIP
>>> api.resume_session("run.ckpt").run()                # doctest: +SKIP

Each function accepts either a ready :class:`ExperimentConfig` (positional
or ``config=``) or a ``scale`` preset name plus keyword overrides, and
returns a typed result object carrying the resolved config, the raw
per-policy results, and ``rows()``/``table()`` renderers.  The facade adds
no behaviour of its own — results are bit-identical to calling the
underlying functions directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.env.simulator import SimulationResult
from repro.experiments.replication import (
    ReplicatedSummary,
    replicate as _replicate_summaries,
    replication_rows,
    replication_seed_list,
)
from repro.experiments.runner import (
    ExperimentConfig,
    run_experiment,
)
from repro.metrics import comparison_rows, format_table
from repro.policies import DEFAULT_POLICIES, normalize_policy_arg, normalize_specs
from repro.metrics.violations import early_violation_ratio

__all__ = [
    "ComparisonResult",
    "ReplicationResult",
    "RunResult",
    "compare",
    "describe_checkpoint",
    "open_session",
    "replicate",
    "resume_session",
    "run",
    "run_fleet",
    "serve",
]

_SCALES = {
    "paper": ExperimentConfig.paper,
    "small": ExperimentConfig.small,
    "tiny": ExperimentConfig.tiny,
}


def _resolve_config(
    config: ExperimentConfig | None,
    scale: str,
    overrides: Mapping[str, object],
    scenario: "str | Path | None" = None,
) -> ExperimentConfig:
    """An explicit config, a scenario (name or file), or a preset by name.

    ``scenario`` resolves through the registry (DESIGN.md §11): a registered
    name or a TOML/JSON scenario file, yielding the scenario's base config
    with the spec attached; keyword ``overrides`` apply on top.  Mutually
    exclusive with an explicit ``config``; takes precedence over ``scale``.
    """
    if scenario is not None:
        if config is not None:
            raise ValueError("pass either config or scenario, not both")
        from repro import scenarios

        return scenarios.resolve_scenario(scenario).config(**overrides)
    if config is not None:
        return config.with_overrides(**overrides) if overrides else config
    try:
        preset = _SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}"
        ) from None
    return preset(**overrides)


# ---------------------------------------------------------------------------
# Result objects.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunResult:
    """One experiment run: the resolved config and the per-policy results.

    Mapping-style access returns the underlying
    :class:`~repro.env.simulator.SimulationResult` per policy.
    """

    config: ExperimentConfig
    results: dict[str, SimulationResult]

    @property
    def policies(self) -> tuple[str, ...]:
        return tuple(self.results)

    def __getitem__(self, policy: str) -> SimulationResult:
        return self.results[policy]

    def __iter__(self):
        return iter(self.results)

    def rows(self) -> list[dict[str, float | str]]:
        """The paper's comparison rows (reward, violations, ratio)."""
        return comparison_rows(self.results)

    def table(self, *, precision: int = 2) -> str:
        """The comparison table as rendered by ``repro run``."""
        return format_table(self.rows(), precision=precision)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-policy scalar summaries (see ``SimulationResult.summary``)."""
        return {name: res.summary() for name, res in self.results.items()}


@dataclass(frozen=True)
class ReplicationResult:
    """A multi-seed replication: aggregates of every summary metric.

    ``summaries[policy][metric]`` is a
    :class:`~repro.experiments.replication.ReplicatedSummary` (mean, std,
    confidence interval, n).
    """

    config: ExperimentConfig
    seeds: tuple[int, ...]
    confidence: float
    summaries: dict[str, dict[str, ReplicatedSummary]]

    @property
    def policies(self) -> tuple[str, ...]:
        return tuple(self.summaries)

    def __getitem__(self, policy: str) -> dict[str, ReplicatedSummary]:
        return self.summaries[policy]

    def rows(
        self,
        *,
        metrics: Sequence[str] = ("total_reward", "total_violations", "performance_ratio"),
        precision: int = 1,
    ) -> list[dict[str, str]]:
        """Table rows with ``mean ± ci`` strings."""
        return replication_rows(self.summaries, metrics=metrics, precision=precision)

    def table(self, *, precision: int = 1) -> str:
        return format_table(self.rows(precision=precision))


@dataclass(frozen=True)
class ComparisonResult:
    """A head-to-head of one policy against a baseline on shared randomness."""

    config: ExperimentConfig
    policy: str
    baseline: str
    run: RunResult = field(repr=False)
    #: policy total reward / baseline total reward.
    reward_ratio: float
    #: early-stage violation count ratio (paper §5), NaN when undefined.
    early_violation_ratio: float

    def rows(self) -> list[dict[str, float | str]]:
        return self.run.rows()

    def table(self, *, precision: int = 2) -> str:
        return self.run.table(precision=precision)


# ---------------------------------------------------------------------------
# Entry points.
# ---------------------------------------------------------------------------


def run(
    config: ExperimentConfig | None = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    scale: str = "small",
    scenario: str | Path | None = None,
    workers: int | None = None,
    **overrides,
) -> RunResult:
    """Run the named policies on one shared workload.

    Parameters
    ----------
    config:
        A ready :class:`ExperimentConfig`; when omitted, the ``scale``
        preset (``"paper"``/``"small"``/``"tiny"``) is built instead.
        Keyword ``overrides`` (e.g. ``horizon=500``, ``seed=3``,
        ``alpha=14.0``, ``cache_dir="~/.cache/repro"`` for the on-disk
        Oracle memo, ``shared_window=False`` to disable cross-run window
        sharing — DESIGN.md §9) apply on top of either.
    policies:
        Registry policy specs (default: the paper's Fig. 2 line-up) — name
        strings (``"LFSC"``), parameterized spec strings
        (``"linucb(alpha=0.5)"``), :class:`~repro.policies.PolicySpec`
        objects, or pre-built :class:`~repro.policies.PolicyDefinition`
        entries.  Every entry is validated fail-closed up front
        (:func:`repro.policies.normalize_specs`); result keys are the
        canonical spec strings.
    scenario:
        A registered scenario name (``"vehicular"``, ``"sleep_mode"``, …)
        or a TOML/JSON scenario file; resolves to the scenario's config
        with the spec attached (DESIGN.md §11).  Mutually exclusive with
        ``config``.
    workers:
        ``None``/``1`` serial, ``0`` one process per core, ``n`` a pool of n
        — bit-identical results across all settings.
    """
    cfg = _resolve_config(config, scale, overrides, scenario)
    results = run_experiment(cfg, normalize_specs(policies), workers=workers)
    return RunResult(config=cfg, results=results)


def replicate(
    config: ExperimentConfig | None = None,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    scale: str = "small",
    scenario: str | Path | None = None,
    seeds: Sequence[int] | int = 5,
    confidence: float = 0.95,
    workers: int | None = 0,
    manifest_dir: str | Path | None = None,
    **overrides,
) -> ReplicationResult:
    """Run the experiment at several seeds and aggregate every summary metric.

    ``seeds`` is either a replication count (seeds derived from
    ``config.seed`` via the frozen stream contract) or an explicit list.
    Other parameters follow :func:`run` (including ``scenario``);
    ``manifest_dir`` writes the sweep's provenance manifest up front.
    """
    cfg = _resolve_config(config, scale, overrides, scenario)
    summaries = _replicate_summaries(
        cfg,
        normalize_specs(policies),
        seeds=seeds,
        confidence=confidence,
        workers=workers,
        manifest_dir=manifest_dir,
    )
    return ReplicationResult(
        config=cfg,
        seeds=tuple(replication_seed_list(cfg.seed, seeds)),
        confidence=confidence,
        summaries=summaries,
    )


def compare(
    policy: str = "LFSC",
    baseline: str = "Oracle",
    config: ExperimentConfig | None = None,
    *,
    scale: str = "small",
    scenario: str | Path | None = None,
    workers: int | None = None,
    **overrides,
) -> ComparisonResult:
    """Head-to-head of ``policy`` vs ``baseline`` on identical randomness.

    Returns the reward ratio and the paper's early-stage violation ratio
    alongside the full :class:`RunResult` of both policies.
    """
    cfg = _resolve_config(config, scale, overrides, scenario)
    policy = normalize_policy_arg(policy)
    baseline = normalize_policy_arg(baseline)
    result = run(cfg, (baseline, policy), workers=workers)
    base_reward = result[baseline].total_reward
    ratio = result[policy].total_reward / base_reward if base_reward else float("nan")
    return ComparisonResult(
        config=cfg,
        policy=policy,
        baseline=baseline,
        run=result,
        reward_ratio=float(ratio),
        early_violation_ratio=float(
            early_violation_ratio(result[policy], result[baseline])
        ),
    )


# ---------------------------------------------------------------------------
# Fleet-scale sharded simulation (DESIGN.md §12).
# ---------------------------------------------------------------------------


def run_fleet(
    config=None,
    *,
    shards: int = 1,
    mode: str = "auto",
    verify: bool = False,
    **overrides,
):
    """Run a metro-scale tiled fleet, sharded over worker processes.

    Parameters
    ----------
    config:
        A ready :class:`~repro.fleet.topology.FleetConfig`; when omitted one
        is built from keyword ``overrides`` (e.g. ``tiles_x=4, tiles_y=4,
        scns_per_tile=25, horizon=1000, coverage="mobility"``).
    shards:
        Worker-shard count (clamped to the tile count).  Per-tile series
        are bit-identical at every value — tile streams derive from
        ``(seed, tile)`` under the fleet RNG namespace.
    mode:
        ``"auto"`` (processes when ``shards >= 2`` and supported),
        ``"serial"``, or ``"process"``.
    verify:
        Re-run unsharded (``shards=1``, serial) and assert the per-tile
        series match the sharded run exactly before returning.

    Returns
    -------
    :class:`~repro.fleet.driver.FleetResult` — per-tile series, per-shard
    decision-latency percentiles, migrant/round counts, and throughput
    (``decisions_per_min``).
    """
    from repro.fleet import FleetConfig, fleet_series_equal
    from repro.fleet import run_fleet as _run_fleet

    if config is None:
        cfg = FleetConfig(**overrides)
    elif overrides:
        cfg = config.with_overrides(**overrides)
    else:
        cfg = config
    result = _run_fleet(cfg, shards=shards, mode=mode)
    if verify and result.shards > 1:
        reference = _run_fleet(cfg, shards=1, mode="serial")
        if not fleet_series_equal(result, reference):
            raise AssertionError(
                f"sharded fleet run (shards={result.shards}) diverged from "
                "the unsharded reference"
            )
    return result


# ---------------------------------------------------------------------------
# Online service (DESIGN.md §10).
# ---------------------------------------------------------------------------


def open_session(
    config: ExperimentConfig | None = None,
    *,
    policy: str = "LFSC",
    scale: str = "small",
    scenario: str | Path | None = None,
    record_expected: bool = True,
    validate_assignments: bool = True,
    **overrides,
):
    """A fresh checkpointable :class:`~repro.service.session.OnlineSession`.

    Config resolution matches :func:`run` (explicit config, a ``scenario``
    name/file, or a scale preset plus overrides).  The session advances
    with ``decide()`` / ``feedback()`` / ``run(n)``, snapshots with
    ``save(path)``, and its ``result()`` is bit-identical to the batch
    simulator's per-slot run.
    """
    from repro.service import OnlineSession

    cfg = _resolve_config(config, scale, overrides, scenario)
    return OnlineSession(
        cfg,
        policy=policy,
        record_expected=record_expected,
        validate_assignments=validate_assignments,
    )


def resume_session(path: str | Path):
    """Restore a session from a ``repro-checkpoint/v1`` file.

    The restored session continues bit-identically to one that never
    stopped — same assignments, same realizations, same recorded series
    (``tests/service/test_resume_equivalence.py``).
    """
    from repro.service import OnlineSession

    return OnlineSession.from_checkpoint(path)


def describe_checkpoint(path: str | Path) -> dict:
    """Digest-verify a checkpoint file and summarize its coordinates."""
    from repro.service.session import describe_checkpoint as _describe

    return _describe(path)


def serve(
    config: ExperimentConfig | None = None,
    *,
    policy: str = "LFSC",
    scale: str = "small",
    scenario: str | Path | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 0,
    resume_from: str | Path | None = None,
    **overrides,
):
    """Start a :class:`~repro.service.daemon.PolicyDaemon` (background thread).

    Returns the started daemon; ``daemon.address`` is the bound (host,
    port).  ``resume_from`` restores the session from a checkpoint instead
    of starting fresh (``config``/``policy`` are then taken from the
    snapshot and must not conflict).
    """
    from repro.service import OnlineSession, PolicyDaemon

    if resume_from is not None:
        if config is not None or scenario is not None:
            raise ValueError("pass either config/scenario or resume_from, not both")
        session = OnlineSession.from_checkpoint(resume_from)
    else:
        cfg = _resolve_config(config, scale, overrides, scenario)
        session = OnlineSession(cfg, policy=policy)
    daemon = PolicyDaemon(
        session,
        host=host,
        port=port,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
    )
    daemon.start()
    return daemon
