"""The hypercube-mean baselines and the learned tier pinned against SHA-256 digests.

``replication_tiny.json`` pins Oracle, LFSC, vUCB and Random on the tiny
config, and ``paper_scale_digests.json`` pins LFSC at paper scale.  This
gate covers the remaining learners that score the Alg. 4 edge list — the
cube baselines vUCB, FML, ε-greedy and Thompson, Random, the unconstrained
Oracle, and the learned tier — by the digest of every recorded series of a
``ExperimentConfig.small`` run, and requires both the windowed run
(default window) and the per-slot run (``window=0``) to hit the same
digests, with the native kernels on or off.

If a change to a policy's trajectory is *intentional*, regenerate with
``PYTHONPATH=src python -m tests.baselines.test_golden_baselines`` and say
why in the change description.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.env.simulator import SERIES
from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy
from tests.env.test_golden_paper_scale import digest

GOLDEN_PATH = Path(__file__).with_name("golden") / "baseline_digests.json"

POLICIES = (
    "vUCB",
    "FML",
    "eps-greedy",
    "thompson",
    "Random",
    "Oracle-unconstrained",
    "linucb",
    "linthompson",
    "dqn",
)
RUN_SEED = 11
RUN_HORIZON = 120
#: ``None`` — the simulator's default window; 0 — the per-slot driver.
WINDOWS = (None, 0)


def run_digests(name: str, window: int | None) -> dict[str, str]:
    cfg = ExperimentConfig.small(horizon=RUN_HORIZON, seed=RUN_SEED, shared_window=False)
    sim = build_simulation(cfg)
    res = sim.run(make_policy(name, cfg, sim.truth), cfg.horizon, window=window)
    return {series: digest(np.asarray(getattr(res, series))) for series in SERIES}


def compute_digests() -> dict:
    return {name: run_digests(name, 0) for name in POLICIES}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("window", WINDOWS, ids=("windowed", "per-slot"))
@pytest.mark.parametrize("name", POLICIES)
def test_series_match_golden(name, window, golden):
    got = run_digests(name, window)
    want = golden[name]
    assert sorted(got) == sorted(want)
    for series in SERIES:
        assert got[series] == want[series], (
            f"{name} (window={window}): series {series!r} drifted from the golden digest"
        )


def test_golden_covers_every_case(golden):
    assert set(golden) == set(POLICIES)
    for name in POLICIES:
        assert set(golden[name]) == set(SERIES)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
