"""Resume equivalence: checkpoint/restore is bit-identical to never stopping.

For both assignment modes × fixed/adaptive partitions × checkpoint slots k ∈ {0, 1, mid, last}: run a
session to slot k, snapshot, restore (same process here; a fresh process in
``test_fresh_process_resume``), drive both to the horizon, and require every
recorded series and the final policy state to match bit for bit.
"""

from __future__ import annotations

import dataclasses
import subprocess
import sys

import numpy as np
import pytest

from repro.core.adaptive import AdaptivePartition
from repro.experiments.runner import (
    ExperimentConfig,
    build_simulation,
    make_policy,
)
from repro.service import OnlineSession

HORIZON = 24

SERIES = (
    "reward",
    "expected_reward",
    "completed",
    "consumption",
    "accepted",
    "violation_qos",
    "violation_resource",
    "violation_qos_realized",
    "violation_resource_realized",
)


def make_config(mode: str, adaptive: bool) -> ExperimentConfig:
    """One config per arm: adaptive partitions are stateful, never shared."""
    cfg = ExperimentConfig.tiny(horizon=HORIZON).with_lfsc_overrides(assignment_mode=mode)
    if adaptive:
        # Small tree + low threshold so splits actually happen within the
        # 24-slot horizon — the checkpoint must carry a *refined* tree.
        partition = AdaptivePartition(dims=cfg.dims, max_leaves=17, split_base=4.0)
        cfg = dataclasses.replace(
            cfg, lfsc=dataclasses.replace(cfg.lfsc_config(), partition=partition)
        )
    return cfg


def policy_name(adaptive: bool) -> str:
    return "LFSC-adaptive" if adaptive else "LFSC"


def assert_results_equal(a, b) -> None:
    for name in SERIES:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def assert_same_state(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key, value in a.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, b[key]), key
        else:
            assert value == b[key], key


def _arm(mode: str, adaptive: bool):
    # The id keeps the "batched-" prefix of the retired slot-engine axis.
    return pytest.param(mode, adaptive, id=f"batched-{mode}-{adaptive}")


ARMS = [
    _arm(mode, adaptive)
    for mode in ("depround", "deterministic")
    for adaptive in (False, True)
]


@pytest.mark.parametrize("mode,adaptive", ARMS)
@pytest.mark.parametrize("k", [0, 1, HORIZON // 2, HORIZON])
def test_resume_is_bit_identical(mode, adaptive, k, tmp_path):
    """Checkpoint at slot k + restore ≡ an uninterrupted run, bitwise."""
    name = policy_name(adaptive)
    baseline = OnlineSession(make_config(mode, adaptive), policy=name)
    baseline.run()

    first = OnlineSession(make_config(mode, adaptive), policy=name)
    first.run(k)
    path = first.save(tmp_path / f"ck_{mode}_{adaptive}_{k}.bin")

    resumed = OnlineSession.from_checkpoint(path)
    assert resumed.t == k
    resumed.run()

    assert_results_equal(baseline.result(), resumed.result())
    # The learned state converged to the same bits too, not just the series.
    assert_same_state(baseline.policy.checkpoint_state(), resumed.policy.checkpoint_state())


@pytest.mark.parametrize("mode,adaptive", ARMS)
def test_session_matches_batch_simulator(mode, adaptive):
    """The session's slot arithmetic is the simulator's per-slot path."""
    cfg = make_config(mode, adaptive)
    sim = build_simulation(cfg)
    if adaptive:
        from repro.core.adaptive import AdaptiveLFSCPolicy

        policy = AdaptiveLFSCPolicy(cfg.lfsc_config(), partition=cfg.lfsc.partition)
    else:
        policy = make_policy("LFSC", cfg, sim.truth)
    ref = sim.run(policy, cfg.horizon, window=0)

    session = OnlineSession(make_config(mode, adaptive), policy=policy_name(adaptive))
    assert_results_equal(ref, session.run().result())


_RESUME_SNIPPET = """
import sys
import numpy as np
from repro.service import OnlineSession

ckpt, out = sys.argv[1], sys.argv[2]
session = OnlineSession.from_checkpoint(ckpt)
session.run()
res = session.result()
np.savez(
    out,
    **{name: getattr(res, name) for name in (
        "reward", "expected_reward", "completed", "consumption", "accepted",
        "violation_qos", "violation_resource",
        "violation_qos_realized", "violation_resource_realized",
    )},
)
"""

# One arm per mode at the midpoint, plus one adaptive arm: fresh-process
# restores are the expensive leg, in-process coverage is exhaustive above.
FRESH_ARMS = [
    _arm("depround", False),
    _arm("deterministic", False),
    _arm("depround", True),
]


@pytest.mark.parametrize("mode,adaptive", FRESH_ARMS)
def test_fresh_process_resume(mode, adaptive, tmp_path):
    """Restoring in a brand-new interpreter reproduces the same bits.

    This is the daemon-crash story: nothing of the original process
    survives except the checkpoint file.
    """
    name = policy_name(adaptive)
    baseline = OnlineSession(make_config(mode, adaptive), policy=name)
    baseline.run()

    first = OnlineSession(make_config(mode, adaptive), policy=name)
    first.run(HORIZON // 2)
    ckpt = first.save(tmp_path / "mid.ckpt")

    out = tmp_path / "resumed.npz"
    subprocess.run(
        [sys.executable, "-c", _RESUME_SNIPPET, str(ckpt), str(out)],
        capture_output=True,
        text=True,
        check=True,
    )
    resumed = np.load(out)
    base = baseline.result()
    for series in SERIES:
        assert np.array_equal(getattr(base, series), resumed[series]), series


def test_checkpoint_rejects_mid_slot(tmp_path):
    """Between decide() and feedback() there is no serializable state."""
    from repro.service import CheckpointError

    session = OnlineSession(make_config("depround", False))
    session.decide()
    with pytest.raises(CheckpointError, match="pending"):
        session.save(tmp_path / "nope.bin")
    session.feedback()
    session.save(tmp_path / "ok.bin")  # boundary reached: fine again


# The cube-mean baselines and Random.  ε-greedy runs with a small epsilon0 so
# ε_t drops below 1 inside the horizon and its means steer decisions.
BASELINES = ("vUCB", "FML", "eps-greedy(epsilon0=0.5)", "thompson", "Random")


@pytest.mark.parametrize("name", BASELINES)
@pytest.mark.parametrize("k", [0, 1, HORIZON // 2, HORIZON])
def test_baseline_resume_is_bit_identical(name, k, tmp_path):
    """Checkpoint at slot k + restore ≡ an uninterrupted baseline run."""
    cfg = ExperimentConfig.tiny(horizon=HORIZON)
    baseline = OnlineSession(cfg, policy=name)
    baseline.run()

    first = OnlineSession(cfg, policy=name)
    first.run(k)
    resumed = OnlineSession.from_checkpoint(first.save(tmp_path / "ck.bin"))
    assert resumed.t == k
    resumed.run()

    assert_results_equal(baseline.result(), resumed.result())
    assert_same_state(baseline.policy.checkpoint_state(), resumed.policy.checkpoint_state())


@pytest.mark.parametrize("name", ["vUCB", "FML", "eps-greedy", "thompson"])
def test_cube_baseline_checkpoint_without_stats_fails_closed(name, tmp_path):
    """A snapshot lacking the hypercube statistics would resume from empty
    means and diverge silently, so restoring it is refused."""
    from repro.service import CheckpointFormatError
    from repro.service.checkpoint import read_checkpoint, write_checkpoint

    session = OnlineSession(ExperimentConfig.tiny(horizon=HORIZON), policy=name)
    session.run(HORIZON // 2)
    header, arrays = read_checkpoint(session.save(tmp_path / "full.bin"))
    assert "policy.stats_counts" in arrays
    stripped = {k: v for k, v in arrays.items() if not k.startswith("policy.stats_")}
    path = write_checkpoint(tmp_path / "stripped.bin", header, stripped)
    with pytest.raises(CheckpointFormatError, match="stats_"):
        OnlineSession.from_checkpoint(path)


@pytest.mark.parametrize("name", ["vUCB", "FML", "eps-greedy", "thompson"])
def test_cube_baseline_rejects_mid_slot_checkpoint(name):
    cfg = ExperimentConfig.tiny(horizon=HORIZON)
    sim = build_simulation(cfg)
    policy = make_policy(name, cfg, sim.truth)
    policy.reset(cfg.network(), HORIZON, np.random.default_rng(0))
    policy.select(sim.workload.slot(0, np.random.default_rng(1)))
    with pytest.raises(RuntimeError, match="between select"):
        policy.checkpoint_state()
