"""The stable repro.api facade: config resolution, typed results, parity."""

import numpy as np
import pytest

import repro
from repro import api
from repro.experiments.runner import ExperimentConfig, run_experiment


class TestConfigResolution:
    def test_scale_preset_with_overrides(self):
        result = api.run(scale="tiny", horizon=8, seed=3, policies=("Random",))
        assert result.config.horizon == 8
        assert result.config.seed == 3
        assert result.config.num_scns == ExperimentConfig.tiny().num_scns

    def test_explicit_config_wins(self):
        cfg = ExperimentConfig.tiny(horizon=6)
        result = api.run(cfg, ("Random",))
        assert result.config is cfg

    def test_overrides_apply_on_explicit_config(self):
        cfg = ExperimentConfig.tiny(horizon=6)
        result = api.run(cfg, ("Random",), horizon=9)
        assert result.config.horizon == 9

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            api.run(scale="galactic", policies=("Random",))

    def test_retired_oracle_cache_override_rejected(self):
        # The Oracle always runs through its solver cache; the old switch is
        # an unknown override like any other, for presets and configs alike.
        with pytest.raises(TypeError, match="oracle_cache"):
            api.run(scale="tiny", horizon=4, policies=("Oracle",), oracle_cache=False)
        with pytest.raises(TypeError, match="oracle_cache"):
            api.run(ExperimentConfig.tiny(horizon=4), ("Oracle",), oracle_cache=True)


class TestRunResult:
    def test_parity_with_run_experiment(self):
        cfg = ExperimentConfig.tiny(horizon=10)
        via_api = api.run(cfg, ("Oracle", "Random"))
        direct = run_experiment(cfg, ("Oracle", "Random"))
        for name in ("Oracle", "Random"):
            np.testing.assert_array_equal(via_api[name].reward, direct[name].reward)

    def test_mapping_access_and_table(self):
        result = api.run(scale="tiny", horizon=10, policies=("Oracle", "Random"))
        assert result.policies == ("Oracle", "Random")
        assert set(iter(result)) == {"Oracle", "Random"}
        table = result.table()
        assert "Oracle" in table and "total_reward" in table
        assert {row["policy"] for row in result.rows()} == {"Oracle", "Random"}
        assert set(result.summary()["Random"]) >= {"total_reward"}


class TestReplicationResult:
    def test_seeds_and_summaries(self):
        result = api.replicate(
            scale="tiny", horizon=10, policies=("Random",), seeds=2, workers=1
        )
        assert len(result.seeds) == 2
        summary = result["Random"]["total_reward"]
        assert summary.n == 2
        assert "Random" in result.table()

    def test_explicit_seed_list(self):
        result = api.replicate(
            scale="tiny", horizon=8, policies=("Random",), seeds=[4, 5], workers=1
        )
        assert result.seeds == (4, 5)


class TestCompare:
    def test_lfsc_vs_oracle(self):
        result = api.compare("LFSC", "Oracle", scale="tiny", horizon=12)
        assert result.policy == "LFSC" and result.baseline == "Oracle"
        assert 0.0 < result.reward_ratio <= 1.5
        assert np.isfinite(result.early_violation_ratio) or np.isnan(
            result.early_violation_ratio
        )
        assert "LFSC" in result.table()


class TestExport:
    def test_api_importable_from_package_root(self):
        assert repro.api is api
        assert "api" in repro.__all__
        assert callable(repro.api.run)
        assert callable(repro.api.replicate)
        assert callable(repro.api.compare)
