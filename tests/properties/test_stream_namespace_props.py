"""Property tests for stream contract v2 (env/policy namespace split).

The tentpole claim of DESIGN.md §9: environment randomness is *provably*
independent of the policy being evaluated.  These tests establish the two
halves of that claim:

- the derivation level — env and policy namespaces can never collide, for
  any pair of names (hypothesis sweeps random names including prefix games
  like ``env("ab")`` vs ``policy("a")`` with name ``"b..."``);
- the consumption level — running a simulation under a different policy
  name, or a different α, leaves every environment stream's draw sequence
  untouched (zero draws consumed by policy-dependent code).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.rng import (
    ENV_SPAWN_KEY,
    POLICY_SPAWN_KEY,
    RngFactory,
    describe_streams,
    env_seed_sequence,
    policy_seed_sequence,
    stream_token,
)

_names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=0x2FF),
    min_size=1,
    max_size=12,
)


@given(seed=st.integers(min_value=0, max_value=2**63 - 1), a=_names, b=_names)
@settings(max_examples=300, deadline=None)
def test_env_and_policy_namespaces_never_collide(seed, a, b):
    """No env stream equals any policy stream, for any name pair.

    The namespace tag occupies a fixed spawn-key position (right after the
    root's spawn key, before the name bytes), so even names engineered to
    alias across the boundary derive different sequences.
    """
    env = env_seed_sequence(seed, a)
    pol = policy_seed_sequence(seed, b)
    assert env.spawn_key != pol.spawn_key
    assert stream_token(env) != stream_token(pol)


@given(seed=st.integers(min_value=0, max_value=2**63 - 1), a=_names, b=_names)
@settings(max_examples=200, deadline=None)
def test_distinct_names_distinct_streams_within_namespace(seed, a, b):
    if a == b:
        return
    assert stream_token(env_seed_sequence(seed, a)) != stream_token(
        env_seed_sequence(seed, b)
    )
    assert stream_token(policy_seed_sequence(seed, a)) != stream_token(
        policy_seed_sequence(seed, b)
    )


@given(seed=st.integers(min_value=0, max_value=2**63 - 1), name=_names)
@settings(max_examples=100, deadline=None)
def test_factory_methods_match_module_functions(seed, name):
    fac = RngFactory(seed)
    assert stream_token(fac.env_sequence(name)) == stream_token(
        env_seed_sequence(seed, name)
    )
    assert stream_token(fac.policy_sequence(name)) == stream_token(
        policy_seed_sequence(seed, name)
    )


def test_namespace_tags_are_frozen():
    """The v2 tags are part of the repro contract — pinned forever."""
    assert ENV_SPAWN_KEY == 0xE27
    assert POLICY_SPAWN_KEY == 0xAC7


def test_v2_stream_golden_values():
    """First word of each derived stream at seed 0 — frozen golden values.

    Changing any of these is a repro break on the same order as changing
    the replication seed schedule; a diff here must be called out as a
    golden regeneration in the PR (DESIGN.md §9).
    """
    assert {
        name: stream_token(env_seed_sequence(0, name))[0]
        for name in ("workload", "realizations", "channel")
    } == {
        "workload": 16940598308408752402,
        "realizations": 11782203393306288066,
        "channel": 14469670992605922488,
    }
    assert stream_token(policy_seed_sequence(0, "LFSC"))[0] == 123754172627608062
    # Same name, different namespace: different stream (the tag bites).
    assert stream_token(policy_seed_sequence(0, "workload"))[0] == 11671651544441296287


def test_describe_streams_names_every_stream():
    text = describe_streams(7, ("LFSC", "Random"))
    for fragment in (
        "env.workload=0x",
        "env.realizations=0x",
        "env.channel=0x",
        "policy.LFSC=0x",
        "policy.Random=0x",
    ):
        assert fragment in text


# ---------------------------------------------------------------------------
# Consumption level: the environment draw sequence is policy-invariant.
# ---------------------------------------------------------------------------

def _run_spied(policy_name: str, alpha: float, monkeypatch):
    """Run one simulation capturing the env generators ``run()`` derives."""
    from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy
    from repro.utils import rng as rng_mod

    captured: dict[str, list] = {}
    orig = rng_mod.RngFactory.env

    def spy(self, name):
        gen = orig(self, name)
        captured.setdefault(name, []).append(gen)
        return gen

    monkeypatch.setattr(rng_mod.RngFactory, "env", spy)
    cfg = ExperimentConfig(
        horizon=30, num_scns=3, k_min=4, k_max=8, seed=11, alpha=alpha,
        shared_window=False,
    )
    sim = build_simulation(cfg)
    policy = make_policy(policy_name, cfg, sim.truth)
    result = sim.run(policy, horizon=cfg.horizon)
    return captured, result


def test_workload_stream_consumption_policy_invariant(monkeypatch):
    """Changing the policy or α consumes zero extra draws from the workload
    stream: its generator ends every run in the same bit-generator state.

    This is the consumption half of the v2 independence claim — policy code
    draws only from ``policy.*`` streams, so the environment's workload
    sequence advances identically whatever runs on top of it.  (The
    realization/channel streams draw per *assigned* task — standard bandit
    semantics — so only their derivation, not their count, is
    policy-independent.)
    """
    end_states = []
    for pname, alpha in (("LFSC", 15.0), ("Random", 15.0), ("LFSC", 13.0)):
        captured, _ = _run_spied(pname, alpha, monkeypatch)
        (workload_gen,) = captured["workload"]
        end_states.append(workload_gen.bit_generator.state)
    assert end_states[0] == end_states[1] == end_states[2]


def test_renaming_a_policy_moves_only_its_policy_stream():
    """Two policies differing only in name get different policy streams but
    identical env streams — the derivation is name-local."""
    fac_a, fac_b = RngFactory(3), RngFactory(3)
    assert stream_token(fac_a.policy_sequence("LFSC")) != stream_token(
        fac_b.policy_sequence("LFSC-renamed")
    )
    for s in ("workload", "realizations", "channel"):
        assert stream_token(fac_a.env_sequence(s)) == stream_token(
            fac_b.env_sequence(s)
        )
