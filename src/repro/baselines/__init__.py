"""Benchmark policies from the paper's evaluation (§5) plus ablation extras.

- :class:`OraclePolicy` — full-knowledge per-slot optimum (upper bound);
- :class:`VUCBPolicy` — variant-UCB: UCB1 indices per hypercube + greedy;
- :class:`FMLPolicy` — fast context-aware learning with a deterministic
  exploration control function + greedy;
- :class:`RandomPolicy` — uniform random conflict-free selection;
- :class:`CubeMeanPolicy` — the shared body of vUCB, FML and the ε-greedy
  and Thompson extras: per-(SCN, hypercube) means scored per edge;
- extras (ours, for ablations): ε-greedy, Thompson sampling, and the
  unconstrained known-mean greedy.
"""

from repro.baselines.cube_mean import CubeMeanPolicy
from repro.baselines.oracle import OraclePolicy, UnconstrainedOraclePolicy
from repro.baselines.vucb import VUCBPolicy
from repro.baselines.fml import FMLPolicy
from repro.baselines.random_policy import RandomPolicy
from repro.baselines.extras import EpsilonGreedyPolicy, ThompsonSamplingPolicy

__all__ = [
    "CubeMeanPolicy",
    "OraclePolicy",
    "UnconstrainedOraclePolicy",
    "VUCBPolicy",
    "FMLPolicy",
    "RandomPolicy",
    "EpsilonGreedyPolicy",
    "ThompsonSamplingPolicy",
]
