"""Per-figure harnesses — one function per paper artifact (DESIGN.md §3).

Each harness runs the required simulations and returns a
:class:`FigureOutput` holding the plotted series and/or summary rows, plus a
``table()`` renderer that prints the same rows/series the paper reports.
No plotting dependency is required: the series are plain arrays, ready for
any front end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.env.simulator import SimulationResult
from repro.experiments.runner import (
    ExperimentConfig,
    _prefill_window_state,
    run_experiment,
)
from repro.policies import DEFAULT_POLICIES
from repro.metrics.ratio import performance_ratio, performance_ratio_series
from repro.metrics.summary import comparison_rows, format_table
from repro.metrics.violations import early_violation_ratio, violation_series
from repro.utils.parallel import parallel_map, resolve_workers
from repro.utils.rng import describe_streams
from repro.utils.validation import check_positive

__all__ = [
    "FigureOutput",
    "fig2a_cumulative_reward",
    "fig2b_per_slot_reward",
    "fig2_violations",
    "fig3_alpha_sweep",
    "fig4_likelihood_sweep",
    "performance_ratio_table",
]


@dataclass
class FigureOutput:
    """Series + rows behind one figure.

    Attributes
    ----------
    name:
        Experiment id (e.g. ``"fig2a"``).
    series:
        Mapping label → 1-D array (the plotted curves); the special key
        ``"x"`` holds the shared x-axis when it is not simply 1..T.
    rows:
        Summary rows (one dict per table line).
    results:
        The underlying simulation results, for further analysis.
    """

    name: str
    series: dict[str, np.ndarray] = field(default_factory=dict)
    rows: list[dict[str, float | str]] = field(default_factory=list)
    results: dict[str, SimulationResult] | None = None

    def table(self, *, precision: int = 2) -> str:
        """Render the summary rows as an aligned plain-text table."""
        return format_table(self.rows, precision=precision)


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    if window <= 1:
        return np.asarray(x, dtype=float)
    window = min(window, len(x))
    kernel = np.ones(window) / window
    return np.convolve(x, kernel, mode="valid")


# ---------------------------------------------------------------------------
# E1 — Fig. 2(a): cumulative compound reward vs time.
# ---------------------------------------------------------------------------

def fig2a_cumulative_reward(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = None,
    results: Mapping[str, SimulationResult] | None = None,
) -> FigureOutput:
    """Cumulative compound reward of every algorithm (paper Fig. 2a).

    Expected shape: LFSC ≈ Oracle; vUCB/FML above Oracle (they ignore the
    constraints); Random lowest.
    """
    res = dict(results) if results is not None else run_experiment(cfg, policies, workers=workers)
    series = {name: r.cumulative_reward for name, r in res.items()}
    return FigureOutput(
        name="fig2a", series=series, rows=comparison_rows(res), results=res
    )


# ---------------------------------------------------------------------------
# E2 — Fig. 2(b): per-slot compound reward vs time.
# ---------------------------------------------------------------------------

def fig2b_per_slot_reward(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    window: int = 50,
    workers: int | None = None,
    results: Mapping[str, SimulationResult] | None = None,
) -> FigureOutput:
    """Smoothed per-slot compound reward (paper Fig. 2b).

    Expected shape: LFSC starts above Oracle (constraint-blind early
    exploration), dips during learning, then converges toward Oracle from
    below; vUCB/FML stay above both.
    """
    check_positive("window", window)
    res = dict(results) if results is not None else run_experiment(cfg, policies, workers=workers)
    series = {name: _moving_average(r.reward, window) for name, r in res.items()}
    rows = [
        {
            "policy": name,
            "mean_per_slot_reward": float(r.reward.mean()),
            "final_window_reward": float(series[name][-1]),
        }
        for name, r in res.items()
    ]
    return FigureOutput(name="fig2b", series=series, rows=rows, results=res)


# ---------------------------------------------------------------------------
# E3/E8 — cumulative violations + the early-stage violation ratios.
# ---------------------------------------------------------------------------

def fig2_violations(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = None,
    results: Mapping[str, SimulationResult] | None = None,
) -> FigureOutput:
    """Cumulative V1/V2 curves and LFSC's early-violation ratios (§5 text).

    Expected shape: LFSC's early violations a small fraction of vUCB / FML /
    Random (paper: ≈30% / 32% / 20%), and the fraction shrinking over time.
    """
    res = dict(results) if results is not None else run_experiment(cfg, policies, workers=workers)
    series: dict[str, np.ndarray] = {}
    for name, r in res.items():
        series[f"{name}/qos"] = violation_series(r, kind="qos")
        series[f"{name}/resource"] = violation_series(r, kind="resource")
        series[f"{name}/total"] = violation_series(r, kind="total")
    rows = comparison_rows(res)
    if "LFSC" in res:
        for other in res:
            if other == "LFSC":
                continue
            ratio = early_violation_ratio(res["LFSC"], res[other])
            rows.append(
                {
                    "policy": f"LFSC/{other} early-violation ratio",
                    "total_violations": ratio,
                }
            )
    return FigureOutput(name="fig2_violations", series=series, rows=rows, results=res)


# ---------------------------------------------------------------------------
# E4/E5 — Fig. 3: sweep over the QoS threshold α.
# ---------------------------------------------------------------------------

def _run_alpha_point(
    args: tuple[ExperimentConfig, Sequence[str], float]
) -> dict[str, SimulationResult]:
    cfg, policies, alpha = args
    return run_experiment(cfg.with_overrides(alpha=alpha), policies, workers=None)


def _alpha_label(index: int, args: tuple) -> str:
    return f"alpha={args[2]:g}, seed {args[0].seed}"


def _sweep_streams(index: int, args: tuple) -> str:
    """Derived env/policy streams of the failing sweep point (error text)."""
    return describe_streams(args[0].seed, args[1])


def fig3_alpha_sweep(
    cfg: ExperimentConfig,
    alphas: Sequence[float] = (13.0, 14.0, 15.0, 16.0, 17.0),
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = 0,
) -> FigureOutput:
    """Total reward and V1 as functions of α (paper Fig. 3).

    Expected shape: LFSC's reward decreases with α yet stays closest to the
    Oracle's; vUCB/FML's rewards are flat (α never enters their decisions);
    every algorithm's V1 grows with α, LFSC's most slowly.
    """
    # Every α point replays the same environment (α never enters the
    # workload stream), so a parallel sweep precomputes the windows once
    # in the parent and every point's forked worker inherits them.
    if cfg.shared_window and resolve_workers(workers, len(alphas)) > 1:
        _prefill_window_state(cfg, policies)
    sweeps = parallel_map(
        _run_alpha_point,
        [(cfg, policies, float(a)) for a in alphas],
        workers=workers,
        label=_alpha_label,
        diagnostics=_sweep_streams,
    )
    x = np.asarray(list(alphas), dtype=float)
    series: dict[str, np.ndarray] = {"x": x}
    rows: list[dict[str, float | str]] = []
    for name in policies:
        rewards = np.array([s[name].total_reward for s in sweeps])
        viols = np.array([float(s[name].violation_qos.sum()) for s in sweeps])
        series[f"{name}/reward"] = rewards
        series[f"{name}/violation_qos"] = viols
        for a, rwd, vio in zip(x, rewards, viols):
            rows.append(
                {
                    "policy": name,
                    "alpha": float(a),
                    "total_reward": float(rwd),
                    "violation_qos": float(vio),
                }
            )
    return FigureOutput(name="fig3", series=series, rows=rows)


# ---------------------------------------------------------------------------
# E6 — Fig. 4: sweep over the completion-likelihood range.
# ---------------------------------------------------------------------------

def _run_v_point(
    args: tuple[ExperimentConfig, Sequence[str], tuple[float, float]]
) -> dict[str, SimulationResult]:
    cfg, policies, v_range = args
    return run_experiment(cfg.with_overrides(v_range=v_range), policies, workers=None)


def _v_label(index: int, args: tuple) -> str:
    return f"v_range={args[2]}, seed {args[0].seed}"


def fig4_likelihood_sweep(
    cfg: ExperimentConfig,
    v_lows: Sequence[float] = (0.0, 0.25, 0.5, 0.75),
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = 0,
) -> FigureOutput:
    """Performance under different link-reliability environments (§5 close).

    The completion likelihood is drawn from [v_lo, 1]: larger v_lo means
    more reliable mmWave links.  Expected shape: every algorithm's reward
    grows and violations shrink with reliability; LFSC keeps the best
    reward/violation trade-off (performance ratio) across environments.
    """
    # v_range only parameterizes the truth (realizations), never the
    # workload stream — every point shares the same windows (see fig3).
    if cfg.shared_window and resolve_workers(workers, len(v_lows)) > 1:
        _prefill_window_state(cfg, policies)
    sweeps = parallel_map(
        _run_v_point,
        [(cfg, policies, (float(lo), 1.0)) for lo in v_lows],
        workers=workers,
        label=_v_label,
        diagnostics=_sweep_streams,
    )
    x = np.asarray(list(v_lows), dtype=float)
    series: dict[str, np.ndarray] = {"x": x}
    rows: list[dict[str, float | str]] = []
    for name in policies:
        rewards = np.array([s[name].total_reward for s in sweeps])
        viols = np.array([s[name].total_violations for s in sweeps])
        ratios = np.array([performance_ratio(s[name]) for s in sweeps])
        series[f"{name}/reward"] = rewards
        series[f"{name}/violations"] = viols
        series[f"{name}/performance_ratio"] = ratios
        for lo, rwd, vio, rat in zip(x, rewards, viols, ratios):
            rows.append(
                {
                    "policy": name,
                    "v_low": float(lo),
                    "total_reward": float(rwd),
                    "total_violations": float(vio),
                    "performance_ratio": float(rat),
                }
            )
    return FigureOutput(name="fig4", series=series, rows=rows)


# ---------------------------------------------------------------------------
# E7 — the performance-ratio metric.
# ---------------------------------------------------------------------------

def performance_ratio_table(
    cfg: ExperimentConfig,
    policies: Sequence[str] = DEFAULT_POLICIES,
    *,
    workers: int | None = None,
    results: Mapping[str, SimulationResult] | None = None,
) -> FigureOutput:
    """Performance ratio (reward / (1 + violations)) per algorithm (§5).

    Expected shape: LFSC highest by a wide margin.
    """
    res = dict(results) if results is not None else run_experiment(cfg, policies, workers=workers)
    series = {name: performance_ratio_series(r) for name, r in res.items()}
    rows = [
        {"policy": name, "performance_ratio": performance_ratio(r)}
        for name, r in res.items()
    ]
    rows.sort(key=lambda row: -float(row["performance_ratio"]))
    return FigureOutput(name="performance_ratio", series=series, rows=rows, results=res)
