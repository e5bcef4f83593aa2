"""The learned-policy tier: contextual scorers over the Alg. 4 solver.

Every policy here follows the "learner proposes, solver disposes" template:
the learner emits one score per (WD, SCN) coverage edge, and the *existing*
Alg. 4 greedy assignment (:mod:`repro.core.greedy`, native kernel included)
turns the scores into a feasible offloading decision — so comparisons with
LFSC isolate the learning rule, not the combinatorial layer.

- :mod:`repro.learned.linucb` — LinUCB and linear Thompson sampling, per-SCN
  ridge regression over the raw task contexts of :mod:`repro.env.contexts`;
- :mod:`repro.learned.dqn` — a pure-numpy DQN-style controller (2-layer MLP,
  replay buffer, target network, no new dependencies);
- :mod:`repro.learned.replay` — the shared replay-evaluation harness:
  record one environment slot stream via the windowed precompute, replay it
  across learners and hyperparameter variants deterministically under the
  ``LEARNED`` RNG namespace (stream contract v2 extension);
- :mod:`repro.learned.features` — the batch inference path: per-edge feature
  matrices gathered from the slot's flat edge list
  (:func:`repro.env.window.slot_layout`).

All three policies are registered in :mod:`repro.policies` under the specs
``linucb``, ``linthompson``, and ``dqn``.
"""

from repro.learned.dqn import DQNPolicy
from repro.learned.features import linear_features
from repro.learned.linucb import LinThompsonPolicy, LinUCBPolicy
from repro.learned.replay import (
    RecordedStream,
    ReplayError,
    ReplayWorkload,
    record_stream,
    replay,
    replay_grid,
)

__all__ = [
    "DQNPolicy",
    "LinThompsonPolicy",
    "LinUCBPolicy",
    "RecordedStream",
    "ReplayError",
    "ReplayWorkload",
    "linear_features",
    "record_stream",
    "replay",
    "replay_grid",
]
