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
    base_state = baseline.policy.checkpoint_state()
    res_state = resumed.policy.checkpoint_state()
    assert base_state.keys() == res_state.keys()
    for key, value in base_state.items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(value, res_state[key]), key
        else:
            assert value == res_state[key], key


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
