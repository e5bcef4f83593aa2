"""Experiment configuration and the policy-comparison runner.

:class:`ExperimentConfig` captures every environment and constraint
parameter of the paper's evaluation setup (§5).  Two preset scales:

- :meth:`ExperimentConfig.paper` — the published numbers (M=30, c=20, α=15,
  β=27, |D_{m,t}| ∈ [35,100], T=10,000).  Minutes per policy on a laptop.
- :meth:`ExperimentConfig.small` — a proportionally scaled instance
  (M=8, c=6, α=4.5, β=8.1, |D| ∈ [10,30], T=400) preserving the ratios that
  drive the qualitative behaviour (K/c, α/c, β/(c·E[q])).  Seconds per
  policy; the default for tests and benchmarks.

:func:`run_experiment` runs a set of policies on the *same* workload
randomness (each run re-derives identical named streams from the config
seed) and optionally fans the runs out over processes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.core.config import LFSCConfig
from repro.core.hypercube import ContextPartition
from repro.env.contexts import TaskFeatureModel
from repro.env.geometry import CoverageSampler
from repro.env.network import NetworkConfig
from repro.env.processes import GroundTruth, PiecewiseConstantTruth
from repro.env.simulator import PolicyProtocol, Simulation, SimulationResult, effective_window
# export_window_state and import_window_state are imported for
# perfbench/hooks.py, whose boundary table resolves them in this module.
from repro.env.window_cache import (  # noqa: F401
    export_window_state,
    import_window_state,
    partition_token,
    prefill_windows,
    shared_window_cache,
)
from repro.env.workload import SyntheticWorkload, Workload
from repro.scenarios.spec import ScenarioSpec
from repro.utils.parallel import parallel_map, resolve_workers
from repro.utils.rng import describe_streams
from repro.utils.validation import check_positive, require

__all__ = [
    "DEFAULT_POLICIES",
    "ExperimentConfig",
    "build_truth",
    "build_workload",
    "build_channel",
    "build_simulation",
    "make_policy",
    "run_experiment",
]

#: The paper's Fig. 2 line-up — canonical home is the policy registry;
#: re-exported here for backward compatibility.
from repro.policies import DEFAULT_POLICIES


@dataclass(frozen=True)
class ExperimentConfig:
    """Full specification of one simulation experiment.

    Environment fields mirror §5's setup; ``lfsc`` fields override the
    Theorem 1 schedule when set.
    """

    # Network constraints (ILP (1)).
    num_scns: int = 30
    capacity: int = 20
    alpha: float = 15.0
    beta: float = 27.0
    # Workload / coverage.
    k_min: int = 35
    k_max: int = 100
    overlap: float = 2.0
    # Ground-truth processes.
    u_range: tuple[float, float] = (0.0, 1.0)
    v_range: tuple[float, float] = (0.0, 1.0)
    q_range: tuple[float, float] = (1.0, 2.0)
    q_band: float = 0.5
    u_concentration: float = 10.0
    cells_per_dim: int = 3
    # Learner discretization.
    dims: int = 3
    parts: int = 3
    # Run control.
    horizon: int = 10_000
    seed: int = 0
    truth_seed: int = 7
    oracle_mode: str = "lp"
    #: On-disk tier for the Oracle solver cache (DESIGN.md §8-9): a directory
    #: where achievable/stage-1/assignment memos persist across processes
    #: and sessions.  ``None`` falls back to the ``REPRO_CACHE_DIR``
    #: environment variable, and to memory-only when that is unset too.
    #: Bit-identical either way.
    cache_dir: str | None = None
    #: Slot-streaming window for the simulation driver: ``None`` — the
    #: simulator's default (windowed when eligible, see
    #: ``repro.env.simulator.DEFAULT_WINDOW``); ``0`` — force per-slot;
    #: ``W >= 1`` — precompute W slots at a time.  Trajectories are
    #: bit-identical across all values.
    window: int | None = None
    #: Cross-run window cache (DESIGN.md §9): when True (default) windowed
    #: runs share each environment's precomputed windows through the
    #: process-wide :func:`repro.env.window_cache.shared_window_cache` —
    #: across policies, sweep points, and worker processes.  Bit-identical
    #: to ``False`` (content-addressed keys + stream-state restoration),
    #: just faster on sweeps that replay the same environment.
    shared_window: bool = True
    lfsc: LFSCConfig | None = None
    #: Declarative scenario coordinate (DESIGN.md §11): when set, the build
    #: helpers below consult the scenario registry for environment overrides
    #: (workload / truth / channel) and policy wrappers, and the spec's
    #: content hash flows into manifests and checkpoint headers.  ``None``
    #: keeps the paper's default environment.
    scenario: ScenarioSpec | None = None

    def __post_init__(self) -> None:
        check_positive("horizon", self.horizon)
        require(
            self.oracle_mode in ("lp", "ilp", "greedy", "dual"),
            f"bad oracle_mode {self.oracle_mode!r}",
        )

    # -- presets -------------------------------------------------------------

    @staticmethod
    def paper(**overrides) -> "ExperimentConfig":
        """The published evaluation scale (expensive: minutes per policy)."""
        return ExperimentConfig().with_overrides(**overrides)

    @staticmethod
    def small(**overrides) -> "ExperimentConfig":
        """A proportionally scaled instance for tests/benchmarks (seconds)."""
        cfg = ExperimentConfig(
            num_scns=8,
            capacity=6,
            alpha=4.5,
            beta=8.1,
            k_min=10,
            k_max=30,
            horizon=400,
        )
        return cfg.with_overrides(**overrides)

    @staticmethod
    def tiny(**overrides) -> "ExperimentConfig":
        """The smallest meaningful instance (unit tests, exact-ILP oracle)."""
        cfg = ExperimentConfig(
            num_scns=3,
            capacity=3,
            alpha=1.5,
            beta=4.5,
            k_min=4,
            k_max=8,
            horizon=50,
            cells_per_dim=2,
            parts=2,
        )
        return cfg.with_overrides(**overrides)

    def with_overrides(self, **changes) -> "ExperimentConfig":
        return replace(self, **changes)

    def with_lfsc_overrides(self, **changes) -> "ExperimentConfig":
        """Override LFSC fields (e.g. ``assignment_mode``) in place.

        Resolves the effective LFSC config first (explicit override or the
        Theorem 1 schedule), so e.g.
        ``cfg.with_lfsc_overrides(assignment_mode="deterministic")`` switches
        the assignment mode without disturbing the learning schedule.
        """
        return self.with_overrides(lfsc=self.lfsc_config().with_overrides(**changes))

    # -- derived objects -------------------------------------------------------

    @property
    def partition(self) -> ContextPartition:
        return ContextPartition(dims=self.dims, parts=self.parts)

    def lfsc_config(self) -> LFSCConfig:
        """The LFSC configuration: explicit override or Theorem 1 schedule."""
        if self.lfsc is not None:
            return self.lfsc
        return LFSCConfig.from_theorem(
            max_coverage=self.k_max,
            capacity=self.capacity,
            horizon=self.horizon,
            dims=self.dims,
            parts=self.parts,
        )

    def network(self) -> NetworkConfig:
        return NetworkConfig(
            num_scns=self.num_scns,
            capacity=self.capacity,
            alpha=self.alpha,
            beta=self.beta,
        )


def _scenario_env(cfg: ExperimentConfig):
    """The scenario's environment overrides, or None without a scenario.

    Imported lazily: the registry's builder table needs this module, so the
    dependency must stay one-way at import time (DESIGN.md §11).
    """
    if cfg.scenario is None:
        return None
    from repro import scenarios

    return scenarios.build_env(cfg)


def default_truth(cfg: ExperimentConfig) -> PiecewiseConstantTruth:
    """The paper's stationary piecewise-constant ground truth."""
    return PiecewiseConstantTruth(
        num_scns=cfg.num_scns,
        dims=cfg.dims,
        cells_per_dim=cfg.cells_per_dim,
        u_range=cfg.u_range,
        v_range=cfg.v_range,
        q_range=cfg.q_range,
        q_band=cfg.q_band,
        u_concentration=cfg.u_concentration,
        seed=cfg.truth_seed,
    )


def default_workload(cfg: ExperimentConfig) -> SyntheticWorkload:
    """The §5 synthetic workload (features + coverage sampler)."""
    return SyntheticWorkload(
        features=TaskFeatureModel(),
        coverage_model=CoverageSampler(
            num_scns=cfg.num_scns,
            k_min=cfg.k_min,
            k_max=cfg.k_max,
            overlap=cfg.overlap,
        ),
    )


def build_truth(cfg: ExperimentConfig) -> GroundTruth:
    """The hidden ground truth (scenario override or the paper default)."""
    env = _scenario_env(cfg)
    if env is not None and env.truth is not None:
        return env.truth
    return default_truth(cfg)


def build_workload(cfg: ExperimentConfig) -> Workload:
    """The slot workload (scenario override or the paper default)."""
    env = _scenario_env(cfg)
    if env is not None and env.workload is not None:
        return env.workload
    return default_workload(cfg)


def build_channel(cfg: ExperimentConfig):
    """The blockage channel, if the scenario declares one (default: None)."""
    env = _scenario_env(cfg)
    return None if env is None else env.channel


def build_simulation(cfg: ExperimentConfig) -> Simulation:
    """Simulation bound to this config's network, workload, and truth."""
    env = _scenario_env(cfg)
    workload = truth = channel = None
    if env is not None:
        workload, truth, channel = env.workload, env.truth, env.channel
    return Simulation(
        network=cfg.network(),
        workload=workload if workload is not None else default_workload(cfg),
        truth=truth if truth is not None else default_truth(cfg),
        channel=channel,
        seed=cfg.seed,
        window_cache=shared_window_cache() if cfg.shared_window else None,
    )


def make_policy(name: str, cfg: ExperimentConfig, truth: GroundTruth) -> PolicyProtocol:
    """Instantiate a policy of the evaluation line-up by registry spec.

    Thin delegate to :func:`repro.policies.make_policy` — the historical
    if/elif chain now lives in the registry, so ``name`` may be any
    registered spec, parameterized forms (``"linucb(alpha=0.5)"``)
    included.  Scenario wrapping (when the config carries a scenario) is
    applied by the registry; wrappers preserve the policy ``name``, so RNG
    stream derivation is unchanged.
    """
    from repro import policies as policy_registry

    return policy_registry.make_policy(name, cfg, truth)


def _run_one(args: tuple[ExperimentConfig, str]) -> SimulationResult:
    """Worker: rebuild the (deterministic) experiment and run one policy.

    Everything — workload, truth, channel, policy streams — is re-derived
    from the config's integer seeds inside the worker, so the result is a
    pure function of ``args`` and identical across worker counts.  A forked
    worker starts with the parent's prefilled window cache; a hit there
    equals a miss bit for bit, so it cannot change the result either.
    """
    cfg, name = args
    sim = build_simulation(cfg)
    policy = make_policy(name, cfg, sim.truth)
    return sim.run(policy, cfg.horizon, window=cfg.window)


def _policy_label(index: int, args: tuple) -> str:
    return f"policy {args[1]!r}, seed {args[0].seed}"


def _policy_streams(index: int, args: tuple) -> str:
    """Derived-stream diagnostics for ParallelExecutionError (see rng.py)."""
    return describe_streams(args[0].seed, (args[1],))


def _prefill_window_state(cfg: ExperimentConfig, policies: Sequence[str]) -> None:
    """Precompute the sweep's windows once in the process-wide cache.

    Called in the parent before the pool starts, so forked workers inherit
    the windows.  One prefill pass per distinct ``(window size, partition)``
    combination among the requested policies — e.g. one partitioned pass
    shared by LFSC, vUCB and FML (value-equal partitions share a key) and
    one partition-free pass shared by Oracle and Random.  A no-op when
    nothing is cacheable (per-slot runs, trace workloads, ...).
    """
    sim = build_simulation(cfg)
    if sim.window_cache is None or not getattr(sim.workload, "windowable", False):
        return
    combos: dict[tuple, object] = {}
    for name in policies:
        policy = make_policy(name, cfg, sim.truth)
        size, part = effective_window(sim.workload, policy, cfg.window)
        if size <= 0:
            continue
        combos.setdefault((size, partition_token(part)), part)
    for (size, _), part in combos.items():
        prefill_windows(
            sim.window_cache, sim.workload, sim.truth,
            cfg.seed, cfg.horizon, size, partition=part,
        )


def run_experiment(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = None,
) -> dict[str, SimulationResult]:
    """Run each named policy on identical workload randomness.

    Parameters
    ----------
    workers:
        ``None``/``1`` — serial; ``0`` — one process per CPU core (serial
        fallback on single-core hosts); n — a pool of n processes.  Results
        are bit-identical across all settings; replication/sweep harnesses
        that fan out one level above keep this ``None`` so process
        parallelism is never nested.

    Returns
    -------
    Mapping policy name → :class:`SimulationResult`, in the given order.
    """
    if cfg.shared_window and resolve_workers(workers, len(policies)) > 1:
        # The parent precomputes the sweep's windows once; the pool's forked
        # workers inherit them (bit-identical: the cache is content-addressed).
        _prefill_window_state(cfg, policies)
    results = parallel_map(
        _run_one,
        [(cfg, name) for name in policies],
        workers=workers,
        label=_policy_label,
        diagnostics=_policy_streams,
    )
    return {name: res for name, res in zip(policies, results)}
