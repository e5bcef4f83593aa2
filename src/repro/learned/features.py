"""Per-edge feature extraction for the learned tier (batch inference path).

Learned policies score every coverage edge (SCN m, task i) of a slot at
once.  The feature matrices here are gathered straight from the slot's flat
edge arrays, which every policy reads through
:func:`repro.env.window.slot_layout` (one gather per slot instead of a
per-SCN Python loop).  A windowed slot hands over its precomputed
:class:`~repro.env.window.SlotEdges`; a per-slot one is laid out the same
way, in the same sorted order, so windowed and per-slot trajectories are
bit-identical: identical inputs into identical vectorized arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["linear_features", "LINEAR_DIM"]

#: Linear feature dimension: bias + the 3 normalized context coordinates.
LINEAR_DIM = 4


def linear_features(contexts: np.ndarray, task: np.ndarray) -> np.ndarray:
    """``(E, 4)`` float64 design matrix ``[1, φ_i]`` for the edge list.

    One bias-augmented row per *task*, gathered per edge — the whole slot's
    feature extraction is two vectorized operations regardless of how many
    SCNs cover each task.
    """
    n = contexts.shape[0]
    table = np.empty((n, LINEAR_DIM), dtype=np.float64)
    table[:, 0] = 1.0
    table[:, 1:] = contexts
    return table[task]
