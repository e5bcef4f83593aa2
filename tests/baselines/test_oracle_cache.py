"""The memoized Oracle ≡ the uncached reference Oracle, and golden regressions.

The production :class:`~repro.baselines.oracle.OraclePolicy` solves every
slot through the content-addressed solver cache; ``reference_oracle.py``
keeps the cold dense-build/``linprog``/dict-round slot.  The two must agree
bit for bit for every mode and window size, whether the cache starts empty
or warm.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.oracle import (
    OraclePolicy,
    _greedy_round,
    build_slot_problem,
    build_slot_problem_fast,
)
from repro.cli import build_parser
from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy
from repro.solvers.cache import SlotProblemCache, reset_shared_cache, shared_cache
from tests.baselines.reference_oracle import ReferenceOraclePolicy, reference_greedy_round
from tests.solvers.test_highs_direct import random_problem

GOLDEN = Path(__file__).parent / "golden" / "oracle_modes.json"


def _oracle_run(cfg: ExperimentConfig, horizon: int, *, window: int | None = None):
    sim = build_simulation(cfg)
    policy = make_policy("Oracle", cfg, sim.truth)
    return sim.run(policy, horizon, window=window)


def _reference_run(cfg: ExperimentConfig, horizon: int):
    sim = build_simulation(cfg)
    return sim.run(ReferenceOraclePolicy(sim.truth, mode=cfg.oracle_mode), horizon)


def _same(a, b) -> bool:
    return bool(np.array_equal(a.reward, b.reward) and np.array_equal(a.accepted, b.accepted))


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("mode", ["lp", "greedy", "dual"])
    @pytest.mark.parametrize("window", [1, 32])
    def test_small_scale(self, mode, window):
        cfg = ExperimentConfig.small(horizon=60, oracle_mode=mode)
        cold = _reference_run(cfg, 60)
        reset_shared_cache()
        warm = _oracle_run(cfg, 60, window=window)
        assert _same(cold, warm), f"mode={mode} window={window}"
        reset_shared_cache()

    def test_ilp_tiny(self):
        cfg = ExperimentConfig.tiny(horizon=15, oracle_mode="ilp")
        cold = _reference_run(cfg, 15)
        reset_shared_cache()
        warm = _oracle_run(cfg, 15, window=8)
        assert _same(cold, warm)
        reset_shared_cache()

    def test_repeat_run_replays_from_cache(self):
        cfg = ExperimentConfig.small(horizon=40)
        reset_shared_cache()
        first = _oracle_run(cfg, 40)
        before = shared_cache().stats()["assignment"]["hits"]
        again = _oracle_run(cfg, 40)
        after = shared_cache().stats()["assignment"]["hits"]
        assert _same(first, again)
        assert after - before == 40  # every slot replayed
        reset_shared_cache()

    def test_alpha_sweep_session(self):
        # The fig3 α points plus the base α, all through one warm shared
        # cache: later points reuse the α-independent pre-pass, and every
        # run still matches the uncached reference.
        fractions = build_parser().parse_args(["fig3"]).alpha_fractions
        base = ExperimentConfig.small(horizon=30)
        configs = [base] + [
            base.with_overrides(alpha=round(f * base.capacity, 3)) for f in fractions
        ]
        reset_shared_cache()
        for cfg in configs:
            assert _same(_reference_run(cfg, 30), _oracle_run(cfg, 30)), cfg.alpha
        assert shared_cache().stats()["achievable"]["hits"] > 0
        reset_shared_cache()

    def test_explicit_cache_is_the_one_used(self):
        reset_shared_cache()
        own = SlotProblemCache()
        cfg = ExperimentConfig.small(horizon=5)
        sim = build_simulation(cfg)
        assert OraclePolicy(sim.truth).cache is shared_cache()
        policy = OraclePolicy(sim.truth, cache=own)
        sim.run(policy, 5)
        assert policy.cache is own
        assert own.stats()["assignment"]["misses"] == 5
        assert shared_cache().stats()["assignment"]["misses"] == 0
        reset_shared_cache()


class TestFastBuild:
    def test_matches_reference_build_on_windowed_slots(self):
        cfg = ExperimentConfig.small(horizon=12)
        sim = build_simulation(cfg)
        from repro.env.window import precompute_window

        window = precompute_window(
            sim.workload,
            0,
            12,
            np.random.default_rng(3),
            context_cells=sim.truth.context_cells,
        )
        for slot in window.slots:
            ref = build_slot_problem(slot, sim.truth, cfg.capacity, cfg.alpha, cfg.beta)
            fast = build_slot_problem_fast(
                slot, sim.truth, cfg.capacity, cfg.alpha, cfg.beta
            )
            np.testing.assert_array_equal(fast.edge_scn, ref.edge_scn)
            np.testing.assert_array_equal(fast.edge_task, ref.edge_task)
            np.testing.assert_array_equal(fast.g, ref.g)
            np.testing.assert_array_equal(fast.v, ref.v)
            np.testing.assert_array_equal(fast.q, ref.q)


class TestFastRound:
    def test_matches_reference_round(self, rng):
        for trial in range(25):
            p = random_problem(
                rng,
                num_scns=int(rng.integers(2, 7)),
                beta=float(rng.uniform(2.0, 8.0)),
            )
            x = rng.random(p.num_edges) * (rng.random(p.num_edges) > 0.3)
            ref = reference_greedy_round(p, x)
            fast = _greedy_round(p, x)
            np.testing.assert_array_equal(fast.scn, ref.scn)
            np.testing.assert_array_equal(fast.task, ref.task)

    def test_empty_support(self, rng):
        p = random_problem(rng)
        fast = _greedy_round(p, np.zeros(p.num_edges))
        assert fast.scn.size == 0


class TestGoldenModes:
    """Frozen per-mode Oracle trajectories on the tiny fixture.

    Regenerate (only on an intentional solver change) with::

        PYTHONPATH=src:. python tests/baselines/regen_oracle_golden.py
    """

    @pytest.mark.parametrize("mode", ["lp", "greedy", "dual"])
    def test_assignments_match_golden(self, mode):
        golden = json.loads(GOLDEN.read_text())[mode]
        cfg = ExperimentConfig.tiny(horizon=25, oracle_mode=mode)
        res = _oracle_run(cfg, 25)
        assert res.accepted.astype(int).tolist() == golden["accepted"]
        assert float(res.reward.sum()) == golden["total_reward"]
