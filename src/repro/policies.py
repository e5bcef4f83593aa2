"""The policy registry: every controller behind one extensible surface.

Historically the evaluation line-up was instantiated by a closed if/elif
chain in :func:`repro.experiments.runner.make_policy`; adding a policy meant
editing the runner.  This module replaces that chain with a registry keyed
by name, mirroring the scenario registry's lazy-builtin pattern
(:mod:`repro.scenarios.registry`):

- :func:`register_policy` adds an entry — a builder plus a typed parameter
  schema (``params_schema``: every tunable with its default, type-checked on
  override exactly like scenario parameters);
- :func:`resolve_policy` is fail-closed: an unknown name raises
  :class:`UnknownPolicyError` naming the key and listing the registered
  names, an unknown or ill-typed parameter raises :class:`PolicyError`;
- specs are strings — a bare name (``"LFSC"``) or a parameterized call
  (``"linucb(alpha=0.5)"``) parsed by :func:`parse_policy_spec` — or
  :class:`PolicySpec` objects, so the CLI, ``repro.api``, and checkpoint
  headers all share one spelling;
- built-ins register lazily on first lookup, so importing this module never
  circularly imports the experiment runner.

The RNG stream contract is untouched: a policy's ``name`` attribute — not
its spec string — keys its private stream
(:func:`repro.utils.rng.policy_seed_sequence`), so ``linucb(alpha=0.5)`` and
``linucb(alpha=2.0)`` face identical policy randomness (the point of a
hyperparameter comparison), and scenario wrappers keep preserving ``name``.
:data:`DEFAULT_POLICIES` (the paper's Fig. 2 line-up) lives here; the runner
re-exports it for backward compatibility.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the runner cycle
    from repro.env.processes import GroundTruth
    from repro.env.simulator import PolicyProtocol
    from repro.experiments.runner import ExperimentConfig

__all__ = [
    "DEFAULT_POLICIES",
    "LEARNED_POLICIES",
    "PolicyDefinition",
    "PolicyError",
    "PolicySpec",
    "UnknownPolicyError",
    "describe",
    "get",
    "list_policies",
    "make_policy",
    "names",
    "normalize_policy_arg",
    "normalize_specs",
    "parse_policy_spec",
    "register_policy",
    "resolve_params",
    "resolve_policy",
]

#: The paper's Fig. 2 line-up (hoisted from ``experiments/runner.py``).
DEFAULT_POLICIES: tuple[str, ...] = ("Oracle", "LFSC", "vUCB", "FML", "Random")

#: The learned contextual tier (DESIGN.md §13).
LEARNED_POLICIES: tuple[str, ...] = ("linucb", "linthompson", "dqn")


class PolicyError(ValueError):
    """A policy definition, spec, lookup, or parameterization is invalid."""


class UnknownPolicyError(PolicyError, KeyError):
    """The requested policy name is not registered."""


@dataclass(frozen=True)
class PolicyDefinition:
    """One registry entry.

    Parameters
    ----------
    name:
        Registry key — also the ``name`` attribute (and hence the RNG stream
        key) of every instance the builder returns.
    description:
        One-line human description (``repro policies list``).
    builder:
        ``builder(cfg, truth, params) -> policy`` — instantiate the policy
        for an :class:`~repro.experiments.runner.ExperimentConfig`, the run's
        ground truth (Oracle-family policies hold it; learners must not),
        and the resolved parameter dict.
    defaults:
        The parameter *schema*: every tunable with its default value.
        Explicit overrides must name keys from this mapping and match the
        default's JSON type (:func:`resolve_params`).
    tags:
        Free-form labels (``repro policies list`` filters on them).
    """

    name: str
    description: str
    builder: Callable = None
    defaults: Mapping[str, object] = field(default_factory=dict)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise PolicyError(f"policy name must be a non-empty string, got {self.name!r}")
        if not callable(self.builder):
            raise PolicyError(f"policy {self.name!r} needs a callable builder")


@dataclass(frozen=True)
class PolicySpec:
    """A resolved policy coordinate: registry name + explicit parameters.

    The canonical string form (``str(spec)``) round-trips through
    :func:`parse_policy_spec`, so specs travel as plain strings through
    process pools, CLI arguments, and checkpoint headers.
    """

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def param_dict(self) -> dict:
        return dict(self.params)

    def __str__(self) -> str:
        if not self.params:
            return self.name
        inner = ", ".join(f"{k}={v!r}" for k, v in self.params)
        return f"{self.name}({inner})"

    @staticmethod
    def make(name: str, **params) -> "PolicySpec":
        return PolicySpec(name=name, params=tuple(sorted(params.items())))


_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.+-]*$")


def parse_policy_spec(text: str | PolicySpec) -> PolicySpec:
    """Parse ``"name"`` or ``"name(k=v, ...)"`` into a :class:`PolicySpec`.

    Values are Python literals (``ast.literal_eval``): numbers, booleans,
    strings, tuples.  Malformed specs raise :class:`PolicyError` naming the
    offending fragment; names are *not* checked against the registry here —
    :func:`resolve_policy` does that, fail-closed.
    """
    if isinstance(text, PolicySpec):
        return text
    if not isinstance(text, str):
        raise PolicyError(
            f"policy spec must be a string or PolicySpec, got {type(text).__name__}"
        )
    text = text.strip()
    if "(" not in text:
        if not _NAME_RE.match(text):
            raise PolicyError(f"invalid policy name {text!r}")
        return PolicySpec(name=text)
    if not text.endswith(")"):
        raise PolicyError(f"malformed policy spec {text!r}: missing closing ')'")
    name, _, inner = text[:-1].partition("(")
    name = name.strip()
    if not _NAME_RE.match(name):
        raise PolicyError(f"invalid policy name {name!r} in spec {text!r}")
    params: dict[str, object] = {}
    inner = inner.strip()
    if inner:
        # Parse the argument list with the Python grammar itself: keyword
        # arguments with literal values, nothing else.
        try:
            call = ast.parse(f"_({inner})", mode="eval").body
        except SyntaxError:
            raise PolicyError(f"malformed policy spec {text!r}") from None
        if not isinstance(call, ast.Call) or call.args:
            raise PolicyError(
                f"policy spec {text!r} must use keyword arguments only "
                "(e.g. 'linucb(alpha=0.5)')"
            )
        for kw in call.keywords:
            if kw.arg is None:
                raise PolicyError(f"policy spec {text!r} must not use ** expansion")
            try:
                value = ast.literal_eval(kw.value)
            except ValueError:
                raise PolicyError(
                    f"policy spec {text!r}: parameter {kw.arg!r} must be a literal"
                ) from None
            if kw.arg in params:
                raise PolicyError(f"policy spec {text!r} repeats parameter {kw.arg!r}")
            params[kw.arg] = value
    return PolicySpec(name=name, params=tuple(sorted(params.items())))


# ---------------------------------------------------------------------------
# The registry.
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, PolicyDefinition] = {}
_builtins_loaded = False


def _ensure_builtins() -> None:
    """Idempotently register the built-in policy line-up.

    Deferred to first lookup so importing :mod:`repro.policies` (e.g. for
    :data:`DEFAULT_POLICIES` inside the CLI) never circularly imports the
    experiment runner or the learned tier.
    """
    global _builtins_loaded
    if not _builtins_loaded:
        _builtins_loaded = True
        _register_builtins()


def register_policy(
    name: str,
    builder: Callable,
    *,
    description: str = "",
    params_schema: Mapping[str, object] | None = None,
    tags: Sequence[str] = (),
    replace: bool = False,
) -> PolicyDefinition:
    """Add a policy to the registry; duplicate names fail unless ``replace``."""
    _ensure_builtins()
    definition = PolicyDefinition(
        name=name,
        description=description,
        builder=builder,
        defaults=dict(params_schema or {}),
        tags=tuple(tags),
    )
    if not replace and name in _REGISTRY:
        raise PolicyError(
            f"policy {name!r} is already registered (pass replace=True to override)"
        )
    _REGISTRY[name] = definition
    return definition


def get(name: str) -> PolicyDefinition:
    """Look a policy up by name (built-ins register on first call)."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownPolicyError(
            f"unknown policy name {name!r}; registered: {', '.join(names())}"
        ) from None


def names() -> list[str]:
    _ensure_builtins()
    return sorted(_REGISTRY)


def list_policies(*, tag: str | None = None) -> list[PolicyDefinition]:
    """All registered policies (optionally filtered by tag), sorted by name."""
    _ensure_builtins()
    entries = (_REGISTRY[n] for n in sorted(_REGISTRY))
    return [p for p in entries if tag is None or tag in p.tags]


def _type_compatible(default, value) -> bool:
    """Does an override's JSON type match the default's? (int ≤ float)."""
    if isinstance(default, bool):
        return isinstance(value, bool)
    if isinstance(default, (int, float)):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, str):
        return isinstance(value, str)
    if isinstance(default, (list, tuple)):
        return isinstance(value, (list, tuple))
    return True


def resolve_params(definition: PolicyDefinition, explicit: Mapping | None = None) -> dict:
    """Defaults overlaid with explicit overrides; unknown keys / types fail."""
    explicit = dict(explicit or {})
    unknown = set(explicit) - set(definition.defaults)
    if unknown:
        raise PolicyError(
            f"policy {definition.name!r} has no parameter(s) {sorted(unknown)}; "
            f"known: {sorted(definition.defaults)}"
        )
    resolved = dict(definition.defaults)
    for key, value in explicit.items():
        default = resolved[key]
        if not _type_compatible(default, value):
            raise PolicyError(
                f"policy {definition.name!r} parameter {key!r} expects "
                f"{type(default).__name__}, got {type(value).__name__} ({value!r})"
            )
        resolved[key] = value
    return resolved


def resolve_policy(spec: str | PolicySpec) -> tuple[PolicyDefinition, dict]:
    """Resolve a spec to ``(definition, resolved params)`` — fail-closed.

    Unknown names raise :class:`UnknownPolicyError` (listing the registered
    names); unknown parameters and type mismatches raise
    :class:`PolicyError`.
    """
    parsed = parse_policy_spec(spec)
    definition = get(parsed.name)
    return definition, resolve_params(definition, parsed.param_dict())


def normalize_policy_arg(policy) -> str:
    """One requested policy — a spec string, :class:`PolicySpec`, or a
    pre-built :class:`PolicyDefinition` — as its canonical, validated spec
    string (the key results dictionaries use)."""
    if isinstance(policy, PolicyDefinition):
        _ensure_builtins()
        registered = _REGISTRY.get(policy.name)
        if registered is None:
            _REGISTRY[policy.name] = policy
        elif registered is not policy:
            raise PolicyError(
                f"policy {policy.name!r} conflicts with a different registered "
                "definition of the same name"
            )
        return policy.name
    parsed = parse_policy_spec(policy)
    resolve_policy(parsed)
    return str(parsed)


def normalize_specs(policies: Sequence) -> tuple[str, ...]:
    """Validate a whole line-up up front and canonicalize every entry."""
    return tuple(normalize_policy_arg(p) for p in policies)


def describe(name: str) -> dict:
    """Everything ``repro policies describe`` prints, as a JSON-safe dict."""
    definition = get(name)
    return {
        "name": definition.name,
        "description": definition.description,
        "tags": list(definition.tags),
        "defaults": dict(definition.defaults),
    }


def make_policy(
    spec: "str | PolicySpec", cfg: "ExperimentConfig", truth: "GroundTruth"
) -> "PolicyProtocol":
    """Instantiate a policy from a registry spec.

    When the config carries a scenario, the scenario's policy wrapper (e.g.
    sleep-mode activation, one-bit censoring) is applied around the base
    policy; wrappers preserve the policy ``name``, so RNG stream derivation
    is unchanged.
    """
    definition, params = resolve_policy(spec)
    policy = definition.builder(cfg, truth, params)
    if cfg.scenario is not None:
        from repro import scenarios

        policy = scenarios.wrap_policy(policy, cfg)
    return policy


# ---------------------------------------------------------------------------
# Built-in definitions (lazy imports: the builders pull the heavy modules in
# only when the policy is actually built).
# ---------------------------------------------------------------------------


def _build_oracle(cfg, truth, params):
    from repro.baselines.oracle import OraclePolicy
    from repro.solvers.cache import shared_cache

    return OraclePolicy(truth, mode=cfg.oracle_mode, cache=shared_cache(cfg.cache_dir))


def _build_oracle_unconstrained(cfg, truth, params):
    from repro.baselines.oracle import UnconstrainedOraclePolicy

    return UnconstrainedOraclePolicy(truth)


def _build_lfsc(cfg, truth, params):
    from repro.core.lfsc import LFSCPolicy

    return LFSCPolicy(cfg.lfsc_config())


def _build_lfsc_adaptive(cfg, truth, params):
    from repro.core.adaptive import AdaptiveLFSCPolicy, AdaptivePartition

    base = cfg.lfsc_config()
    if isinstance(base.partition, AdaptivePartition):
        return AdaptiveLFSCPolicy(base, partition=base.partition)
    return AdaptiveLFSCPolicy(base)


def _build_vucb(cfg, truth, params):
    from repro.baselines.vucb import VUCBPolicy

    return VUCBPolicy(cfg.partition, exploration=params["exploration"])


def _build_fml(cfg, truth, params):
    from repro.baselines.fml import FMLPolicy

    return FMLPolicy(cfg.partition)


def _build_random(cfg, truth, params):
    from repro.baselines.random_policy import RandomPolicy

    return RandomPolicy()


def _build_eps_greedy(cfg, truth, params):
    from repro.baselines.extras import EpsilonGreedyPolicy

    return EpsilonGreedyPolicy(cfg.partition, epsilon0=params["epsilon0"])


def _build_thompson(cfg, truth, params):
    from repro.baselines.extras import ThompsonSamplingPolicy

    return ThompsonSamplingPolicy(cfg.partition, scale=params["scale"])


def _build_linucb(cfg, truth, params):
    from repro.learned.linucb import LinUCBPolicy

    return LinUCBPolicy(alpha=params["alpha"], l2=params["l2"])


def _build_linthompson(cfg, truth, params):
    from repro.learned.linucb import LinThompsonPolicy

    return LinThompsonPolicy(scale=params["scale"], l2=params["l2"])


def _build_dqn(cfg, truth, params):
    from repro.learned.dqn import DQNPolicy

    return DQNPolicy(
        hidden=params["hidden"],
        lr=params["lr"],
        buffer=params["buffer"],
        batch=params["batch"],
        train_every=params["train_every"],
        target_every=params["target_every"],
        eps0=params["eps0"],
        eps_final=params["eps_final"],
    )


def _register_builtins() -> None:
    entries = (
        PolicyDefinition(
            name="Oracle",
            description="constrained clairvoyant benchmark (stage-1 LP/ILP + Alg. 4)",
            builder=_build_oracle,
            tags=("baseline", "oracle"),
        ),
        PolicyDefinition(
            name="Oracle-unconstrained",
            description="reward-only clairvoyant upper bound (ignores α and β)",
            builder=_build_oracle_unconstrained,
            tags=("baseline", "oracle"),
        ),
        PolicyDefinition(
            name="LFSC",
            description="the paper's learning framework (Algs. 1-4, Theorem 1 schedule)",
            builder=_build_lfsc,
            tags=("paper",),
        ),
        PolicyDefinition(
            name="LFSC-adaptive",
            description="LFSC on an adaptively refined context partition",
            builder=_build_lfsc_adaptive,
            tags=("paper", "adaptive"),
        ),
        PolicyDefinition(
            name="vUCB",
            description="variant-UCB per (SCN, hypercube), constraint-blind (§5)",
            builder=_build_vucb,
            defaults={"exploration": 2.0},
            tags=("baseline",),
        ),
        PolicyDefinition(
            name="FML",
            description="follow-the-maximum-likelihood baseline (§5)",
            builder=_build_fml,
            tags=("baseline",),
        ),
        PolicyDefinition(
            name="Random",
            description="uniformly random feasible assignment (§5)",
            builder=_build_random,
            tags=("baseline",),
        ),
        PolicyDefinition(
            name="eps-greedy",
            description="ε-greedy over per-cube mean rewards (decaying ε)",
            builder=_build_eps_greedy,
            defaults={"epsilon0": 5.0},
            tags=("baseline",),
        ),
        PolicyDefinition(
            name="thompson",
            description="Gaussian Thompson sampling over per-cube means",
            builder=_build_thompson,
            defaults={"scale": 0.5},
            tags=("baseline",),
        ),
        PolicyDefinition(
            name="linucb",
            description="LinUCB: per-SCN ridge regression on task contexts + UCB width",
            builder=_build_linucb,
            defaults={"alpha": 1.0, "l2": 1.0},
            tags=("learned", "linear"),
        ),
        PolicyDefinition(
            name="linthompson",
            description="linear Thompson sampling: posterior draws per SCN on contexts",
            builder=_build_linthompson,
            defaults={"scale": 0.3, "l2": 1.0},
            tags=("learned", "linear"),
        ),
        PolicyDefinition(
            name="dqn",
            description="pure-numpy DQN-style scorer: 2-layer MLP + replay + target net",
            builder=_build_dqn,
            defaults={
                "hidden": 32,
                "lr": 0.05,
                "buffer": 4096,
                "batch": 64,
                "train_every": 1,
                "target_every": 50,
                "eps0": 0.25,
                "eps_final": 0.02,
            },
            tags=("learned", "deep"),
        ),
    )
    for definition in entries:
        _REGISTRY.setdefault(definition.name, definition)
