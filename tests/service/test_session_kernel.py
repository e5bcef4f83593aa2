"""The session serves every slot on the windowed slot kernel (W = 1).

- Engagement: after ``decide()`` the pending slot carries the precomputed
  edge list (classified for the policy's own partition) and the truth
  cells, for synthetic slots and for slots built from external arrivals.
- Equivalence: paths that now share the kernel still match the per-slot
  simulator and the per-SCN oracle bit for bit — the adaptive
  policy (classified at select time), the priority policy (its own
  ``_edge_scores`` hook, so the non-fused scoring loop), and sessions fed
  external arrivals.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro import api
from repro.baselines.priority import PriorityAwareLFSC
from repro.core.adaptive import AdaptivePartition
from repro.experiments.runner import ExperimentConfig, build_simulation
from repro.service import OnlineSession, build_slot
from tests.core.reference_lfsc import ReferenceLFSCPolicy, ReferencePriorityLFSC

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


def assert_results_equal(a, b) -> None:
    for name in SERIES:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def external_slot(session: OnlineSession, rng: np.random.Generator):
    """One slot of random external arrivals for the session's network."""
    M = session.network.num_scns
    arrivals = []
    for _ in range(int(rng.integers(0, 3 * M))):
        scns = np.flatnonzero(rng.random(M) < 0.4)
        arrivals.append({"context": rng.random(session.config.dims), "scns": scns})
    return build_slot(
        session.t, arrivals, num_scns=M, dims=session.config.dims
    )


# -- engagement ----------------------------------------------------------------


def assert_precomputed(session: OnlineSession) -> None:
    slot, _ = session._pending
    edges = getattr(slot, "edges", None)
    assert edges is not None
    assert edges.flat is not None
    assert edges.partition is session.policy.config.partition
    assert edges.num_tasks == len(slot.tasks)
    assert slot.truth_cells is not None
    assert slot.truth_cells.shape == (len(slot.tasks),)


def test_synthetic_decide_takes_the_kernel():
    session = OnlineSession(ExperimentConfig.paper(horizon=3, seed=5))
    for _ in range(3):
        session.decide()
        assert_precomputed(session)
        session.feedback()


def test_external_decide_takes_the_kernel():
    session = OnlineSession(ExperimentConfig.paper(horizon=3, seed=5))
    rng = np.random.default_rng(11)
    for _ in range(3):
        session.decide(external_slot(session, rng))
        assert_precomputed(session)
        session.feedback()


# -- equivalence ---------------------------------------------------------------


def adaptive_config(seed: int) -> ExperimentConfig:
    """A fresh adaptive tree per run (the partition object is stateful)."""
    cfg = ExperimentConfig.tiny(horizon=40, seed=seed)
    partition = AdaptivePartition(dims=cfg.dims, max_leaves=17, split_base=4.0)
    return dataclasses.replace(
        cfg, lfsc=dataclasses.replace(cfg.lfsc_config(), partition=partition)
    )


@pytest.mark.parametrize("seed", [0, 7])
def test_adaptive_session_matches_per_slot_run(seed):
    session = OnlineSession(adaptive_config(seed), policy="LFSC-adaptive")
    session.run()
    assert session.policy.adaptive.num_leaves > 1, "the tree never split"
    ref = api.run(adaptive_config(seed), policies=("LFSC-adaptive",), window=0)
    assert_results_equal(ref["LFSC-adaptive"], session.result())


@pytest.mark.parametrize("mode", ["depround", "deterministic"])
def test_priority_policy_window_matches_per_slot(mode):
    """The overridden ``_edge_scores`` hook: windowed ≡ per-slot ≡ the oracle."""
    cfg = ExperimentConfig.tiny(horizon=40, seed=3)
    lfsc = cfg.lfsc_config().with_overrides(assignment_mode=mode)
    results = {}
    for arm, cls, window in (
        ("batched", PriorityAwareLFSC, 32),
        ("batched", PriorityAwareLFSC, 0),
        ("reference", ReferencePriorityLFSC, 0),
    ):
        sim = build_simulation(cfg)
        results[arm, window] = sim.run(cls(lfsc), cfg.horizon, window=window)
    assert_results_equal(results["batched", 0], results["batched", 32])
    assert_results_equal(results["reference", 0], results["batched", 0])


@pytest.mark.parametrize("mode", ["depround", "deterministic"])
def test_external_arrivals_match_reference_engine(mode):
    """Sessions on external slots ≡ the per-SCN oracle on the same slots."""
    cfg = ExperimentConfig.tiny(horizon=30, seed=2).with_lfsc_overrides(assignment_mode=mode)
    session = OnlineSession(cfg)
    oracle = ReferenceLFSCPolicy(cfg.lfsc_config())
    oracle.reset(session.network, session.horizon, copy.deepcopy(session.policy.rng))
    rng = np.random.default_rng(4)
    for _ in range(30):
        slot = external_slot(session, rng)
        picks = [session.decide(slot), oracle.select(slot)]
        assert np.array_equal(picks[0].scn, picks[1].scn)
        assert np.array_equal(picks[0].task, picks[1].task)
        oracle.update(slot, session.feedback())
    policy = session.policy
    np.testing.assert_array_equal(oracle.log_w, policy.log_w)
    np.testing.assert_array_equal(oracle.multipliers.qos, policy.multipliers.qos)
    np.testing.assert_array_equal(oracle.multipliers.resource, policy.multipliers.resource)
    np.testing.assert_array_equal(oracle.stats.counts, policy.stats.counts)
