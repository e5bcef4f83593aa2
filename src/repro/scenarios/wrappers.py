"""Policy wrappers scenarios apply around the runner's base policies.

A :class:`PolicyWrapper` is transparent to the simulation driver: it keeps
the wrapped policy's ``name`` (so the frozen stream contract derives the
same policy RNG with or without the wrapper) and delegates every attribute
it does not override — ``config``, ``context_partition`` (window
eligibility and windowed classification), ``multipliers`` (trace
duals), ``t``, ``checkpoint_state`` — to the base policy.  Subclasses
intercept only the ``select``/``update`` surface.
"""

from __future__ import annotations

import numpy as np

from repro.env.network import NetworkConfig

__all__ = ["PolicyWrapper"]


class PolicyWrapper:
    """Transparent pass-through wrapper around an offloading policy."""

    def __init__(self, base) -> None:
        self.base = base

    @property
    def name(self) -> str:
        # The wrapper is invisible to RNG derivation: rngs.policy(name)
        # must yield the same stream whether or not the wrapper is on.
        return self.base.name

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        self.base.reset(network, horizon, rng)

    def select(self, slot):
        return self.base.select(slot)

    def update(self, slot, feedback) -> None:
        self.base.update(slot, feedback)

    def checkpoint_state(self) -> dict:
        return self.base.checkpoint_state()

    def restore_checkpoint_state(self, state: dict) -> None:
        self.base.restore_checkpoint_state(state)

    def __getattr__(self, item):
        # Fallback for everything the wrapper does not define (config,
        # context_partition, multipliers, t, ...).
        # __getattr__ only fires for *missing* attributes, so the wrapper's
        # own methods and ``base`` itself never recurse through here.
        if item == "base":  # not yet set (e.g. during unpickling)
            raise AttributeError(item)
        return getattr(self.base, item)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.base!r})"
