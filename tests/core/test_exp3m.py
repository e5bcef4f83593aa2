"""Tests for the reference single-agent Exp3.M."""

import numpy as np
import pytest

from tests.core.exp3m import Exp3M


def run_stochastic(means, plays, T, seed=0, **kw):
    """Play a stochastic Bernoulli bandit; return (agent, realized rewards)."""
    rng = np.random.default_rng(seed)
    agent = Exp3M(num_arms=len(means), plays=plays, horizon=T, **kw)
    means = np.asarray(means)
    total = 0.0
    for _ in range(T):
        chosen = agent.select(rng)
        rewards = (rng.random(len(chosen)) < means[chosen]).astype(float)
        agent.update(chosen, rewards)
        total += rewards.sum()
    return agent, total


class TestMechanics:
    def test_select_size(self):
        rng = np.random.default_rng(0)
        agent = Exp3M(num_arms=10, plays=3)
        assert agent.select(rng).shape == (3,)

    def test_probabilities_sum_to_plays(self):
        agent = Exp3M(num_arms=8, plays=2)
        assert agent.probabilities().sum() == pytest.approx(2.0)

    def test_update_requires_select(self):
        agent = Exp3M(num_arms=4, plays=1)
        with pytest.raises(ValueError):
            agent.update(np.array([0]), np.array([1.0]))

    def test_theorem_gamma_derived(self):
        agent = Exp3M(num_arms=100, plays=20, horizon=10_000)
        assert 0 < agent.gamma < 0.1
        assert agent.eta == pytest.approx(agent.gamma / 100)

    def test_plays_must_be_smaller(self):
        with pytest.raises(ValueError):
            Exp3M(num_arms=3, plays=3)

    def test_counter_advances(self):
        rng = np.random.default_rng(0)
        agent = Exp3M(num_arms=5, plays=2)
        chosen = agent.select(rng)
        agent.update(chosen, np.zeros(len(chosen)))
        assert agent.t == 1

    def test_log_weights_bounded(self):
        agent, _ = run_stochastic([0.9] * 2 + [0.1] * 8, plays=2, T=2000, gamma=0.1, eta=0.05)
        assert np.isfinite(agent.log_w).all()
        assert agent.log_w.max() <= 50.0 + 1e-9


class TestLearning:
    def test_concentrates_on_best_arms(self):
        means = [0.9, 0.85, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        agent, _ = run_stochastic(means, plays=2, T=3000, gamma=0.1, eta=0.05)
        p = agent.probabilities()
        assert p[0] + p[1] > 1.5  # most of the budget on the two good arms

    def test_beats_uniform_play(self):
        means = np.array([0.9, 0.8, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2, 0.2])
        _, total = run_stochastic(means, plays=3, T=2000, gamma=0.1, eta=0.05)
        uniform_expected = 2000 * 3 * means.mean()
        assert total > 1.15 * uniform_expected

    def test_near_oracle_on_easy_instance(self):
        means = np.array([0.95, 0.9, 0.05, 0.05, 0.05])
        _, total = run_stochastic(means, plays=2, T=3000, gamma=0.05, eta=0.05)
        oracle = 3000 * (0.95 + 0.9)
        assert total > 0.8 * oracle

    def test_two_seeds_similar_performance(self):
        means = [0.9, 0.1, 0.1, 0.1]
        _, a = run_stochastic(means, 1, 1500, seed=1, gamma=0.1, eta=0.05)
        _, b = run_stochastic(means, 1, 1500, seed=2, gamma=0.1, eta=0.05)
        assert abs(a - b) < 0.25 * max(a, b)
