"""Extending the framework: plug in your own offloading policy.

Implements a deliberately simple "sticky greedy" policy on
:class:`repro.baselines.CubeMeanPolicy` — the base vUCB, FML, ε-greedy and
Thompson share — which remembers the empirically best hypercube per SCN
and always requests tasks from it first, and benchmarks it against LFSC
and Random on the same workload.

The base class carries the whole policy contract:
- ``reset(network, horizon, rng)`` — allocates the per-(SCN, hypercube)
  statistics;
- ``select(slot) -> Assignment`` — lays the slot out as one flat edge list
  (``repro.env.window.slot_layout``), asks :meth:`edge_weights` for one
  weight per edge, and lets the Alg. 4 greedy honour capacity (1a) and
  uniqueness (1b);
- ``update(slot, feedback)`` — folds the bandit feedback into the
  statistics; ``checkpoint_state`` saves them.

A subclass only turns statistics into edge weights.  A policy with other
state derives from :class:`repro.OffloadingPolicy` instead and implements
``select`` and ``_update`` itself.

Usage:
    python examples/custom_policy.py
"""

from __future__ import annotations

import numpy as np

from repro import ExperimentConfig, comparison_rows, format_table
from repro.baselines import CubeMeanPolicy
from repro.experiments.runner import build_simulation, make_policy


class StickyGreedyPolicy(CubeMeanPolicy):
    """Exploit the best-known hypercube; explore only via initial coverage.

    A purposely naive learner: each SCN scores a task by the sample-mean
    compound reward of its hypercube, with unvisited cubes scored by an
    optimistic constant.  No exploration schedule, no constraint awareness —
    a useful foil for LFSC.
    """

    name = "sticky-greedy"
    spans = ("sticky.score", "sticky.greedy")

    def __init__(self, partition=None, optimism: float = 1.0):
        super().__init__(partition)
        self.optimism = optimism

    def edge_weights(self, pre):
        # pre.flat indexes each edge's (SCN, hypercube) cell of the (M, F)
        # statistics, flattened.
        scores = np.where(self.stats.counts == 0, self.optimism, self.stats.mean_g)
        return scores.reshape(-1)[pre.flat]


def main() -> None:
    cfg = ExperimentConfig.small(horizon=800)
    sim = build_simulation(cfg)

    results = {}
    for name in ("Oracle", "LFSC", "Random"):
        results[name] = sim.run(make_policy(name, cfg, sim.truth), cfg.horizon)
    results["sticky-greedy"] = sim.run(
        StickyGreedyPolicy(cfg.partition), cfg.horizon
    )

    print(format_table(comparison_rows(results)))
    print(
        "\nsticky-greedy earns decent reward but, like vUCB/FML, ignores the"
        "\nconstraints — compare its violations with LFSC's."
    )


if __name__ == "__main__":
    main()
