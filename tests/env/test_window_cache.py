"""Cross-run window cache: bit-equivalence, state restoration, transport.

The cache's contract (DESIGN.md §9): sharing precomputed windows across
policies, sweep points, and worker processes changes *nothing* —
every trajectory is bit-identical to a cold run — because keys are
content-addressed over the window's inputs and a hit restores the live
workload stream (RNG state + id cursor) to the exact post-window position.
"""

import multiprocessing

import numpy as np
import pytest

from repro.env.window_cache import (
    WindowCache,
    export_window_state,
    import_window_state,
    partition_token,
    prefill_windows,
    release_window_state,
    reset_shared_window_cache,
    shared_window_cache,
    window_key_base,
)
from repro.experiments.runner import ExperimentConfig, run_experiment


@pytest.fixture(autouse=True)
def _fresh_shared_cache():
    reset_shared_window_cache()
    yield
    reset_shared_window_cache()


def _cfg(**kw):
    base = dict(
        horizon=60, num_scns=3, k_min=5, k_max=10, seed=5, window=10,
        oracle_cache=False,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _rewards(results):
    return {k: r.reward.tobytes() for k, r in results.items()}


class TestEquivalence:
    def test_shared_on_equals_off_serial(self):
        warm = run_experiment(_cfg(), ["LFSC", "vUCB"], workers=None)
        cold = run_experiment(
            _cfg(shared_window=False), ["LFSC", "vUCB"], workers=None
        )
        assert _rewards(warm) == _rewards(cold)

    def test_shared_on_equals_off_after_reset(self):
        reset_shared_window_cache()
        warm = run_experiment(_cfg(), ["LFSC"], workers=None)
        cold = run_experiment(_cfg(shared_window=False), ["LFSC"], workers=None)
        assert _rewards(warm) == _rewards(cold)

    def test_parallel_prefill_equals_serial(self):
        serial = run_experiment(_cfg(), ["LFSC", "vUCB"], workers=None)
        reset_shared_window_cache()
        parallel = run_experiment(_cfg(), ["LFSC", "vUCB"], workers=2)
        assert _rewards(serial) == _rewards(parallel)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(), reason="no fork"
    )
    def test_forked_workers_inherit_prefilled_windows(self):
        """Pool workers are forked after the parent's prefill, so every
        window of every policy hits the inherited cache (the worker counters
        merge into the parent's registry).  Under spawn or forkserver a
        worker starts cold and its first policy misses every window."""
        from repro.obs.metrics import global_registry

        cfg = _cfg()
        policies = ["LFSC", "vUCB", "FML"]
        serial = run_experiment(cfg, policies, workers=None)
        reset_shared_window_cache()
        hits = global_registry().counter("window.cache.hit")
        before = hits.value
        parallel = run_experiment(cfg, policies, workers=2)
        assert hits.value - before == len(policies) * (cfg.horizon // cfg.window)
        assert _rewards(serial) == _rewards(parallel)

    def test_hits_and_misses_stay_bit_identical(self):
        """A run that hits for some windows and misses for others matches a
        fully cold run — the restored stream state keeps later misses in
        sync."""
        from repro.experiments.runner import build_simulation, make_policy

        cfg = _cfg()
        sim = build_simulation(cfg)
        # Warm only the first half of the horizon's windows.
        policy = make_policy("LFSC", cfg, sim.truth)
        part = getattr(policy, "context_partition", None)
        prefill_windows(
            shared_window_cache(), sim.workload, sim.truth, cfg.seed,
            horizon=30, window_size=10, partition=part,
        )
        half_warm = sim.run(policy, horizon=cfg.horizon, window=10)
        cold = run_experiment(
            _cfg(shared_window=False), ["LFSC"], workers=None
        )["LFSC"]
        assert half_warm.reward.tobytes() == cold.reward.tobytes()
        assert shared_window_cache().hits > 0
        assert shared_window_cache().misses > 0


class TestAccounting:
    def test_second_policy_with_same_partition_hits(self):
        run_experiment(_cfg(), ["LFSC"], workers=None)
        cache = shared_window_cache()
        misses = cache.misses
        assert cache.hits == 0 and misses > 0
        run_experiment(_cfg(), ["LFSC"], workers=None)
        assert cache.hits == misses
        assert cache.misses == misses

    def test_alpha_change_shares_windows(self):
        run_experiment(_cfg(alpha=15.0), ["LFSC"], workers=None)
        cache = shared_window_cache()
        misses = cache.misses
        run_experiment(_cfg(alpha=13.0), ["LFSC"], workers=None)
        assert cache.hits == misses

    def test_seed_change_cannot_hit(self):
        run_experiment(_cfg(seed=5), ["LFSC"], workers=None)
        cache = shared_window_cache()
        run_experiment(_cfg(seed=6), ["LFSC"], workers=None)
        assert cache.hits == 0

    def test_budget_refuses_oversized_entries(self):
        cache = WindowCache(max_slots=5)
        run = run_experiment  # noqa: F841 - documentation of scope
        from repro.experiments.runner import build_simulation

        cfg = _cfg()
        sim = build_simulation(cfg)
        walked = prefill_windows(
            cache, sim.workload, sim.truth, cfg.seed,
            horizon=cfg.horizon, window_size=10,
        )
        assert walked == cfg.horizon
        assert cache.slots_cached <= 5 or cache.slots_cached == 0


class TestKeying:
    def test_uncacheable_workload_returns_none(self):
        from repro.experiments.runner import build_simulation
        from repro.utils.rng import RngFactory

        cfg = _cfg()
        sim = build_simulation(cfg)

        class Stateful:
            def reset(self):  # a mobility model: windows depend on history
                pass

        sim.workload.coverage_model.reset = Stateful().reset
        try:
            assert sim.workload.cache_token() is None
            assert (
                window_key_base(RngFactory(0), sim.workload, sim.truth, None)
                is None
            )
        finally:
            del sim.workload.coverage_model.reset

    def test_partition_token_is_a_value_token(self):
        from repro.core.hypercube import ContextPartition

        a = partition_token(ContextPartition(dims=3, parts=3))
        b = partition_token(ContextPartition(dims=3, parts=3))
        c = partition_token(ContextPartition(dims=3, parts=4))
        assert a == b != c
        assert partition_token(None) is None


class TestTransport:
    def test_export_import_round_trip(self):
        from repro.experiments.runner import build_simulation

        cfg = _cfg()
        sim = build_simulation(cfg)
        prefill_windows(
            shared_window_cache(), sim.workload, sim.truth, cfg.seed,
            horizon=cfg.horizon, window_size=10,
        )
        entries_before = shared_window_cache().entries()
        handle = export_window_state()
        assert handle is not None
        try:
            reset_shared_window_cache()
            added = import_window_state(handle)
            assert added == len(entries_before)
            after = {k for k, *_ in shared_window_cache().entries()}
            assert after == {k for k, *_ in entries_before}
        finally:
            release_window_state(handle)

    def test_empty_cache_exports_none(self):
        assert export_window_state() is None
        assert import_window_state(None) == 0
        release_window_state(None)  # no-op
