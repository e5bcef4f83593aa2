"""Dependent rounding (DepRound) for multiple-play bandit sampling.

Exp3.M turns a marginal probability vector p ∈ [0,1]^K with Σp = c into a
random subset of exactly c arms whose inclusion marginals are exactly p.
DepRound does this in O(K): repeatedly take two fractional coordinates and
move probability mass between them in the direction that keeps both in
[0, 1], choosing the direction randomly with odds that preserve expectations;
each step fixes at least one coordinate at 0 or 1.

LFSC's default assignment mode samples each SCN's candidate set this way
before the greedy coordination resolves conflicts (see
:class:`repro.core.config.LFSCConfig.assignment_mode`).

Two entry points share the walk: :func:`depround` is the per-SCN call the
edge-score hook, the per-SCN test oracle and the property tests exercise,
and :func:`draw_count` + :func:`walk_into` expose the pieces the batched
slot kernel fuses across a whole slot — it precomputes every segment's
uniform draw count, takes all draws in one generator call (bitwise the
same stream as per-segment calls), and walks each segment on presliced
lists.
"""

from __future__ import annotations

import numpy as np

__all__ = ["depround", "draw_count", "walk_into"]

_TOL = 1e-9


def draw_count(values: list[float], lo: float, hi: float) -> int:
    """Number of uniforms :func:`walk_into` consumes for this segment.

    The count is a pure function of the probabilities (all draws are taken
    up front and each pairing step fixes at least one coordinate, so the
    walk never needs more than one draw per fractional coordinate) — which
    is what lets the batched engine pool every segment's draws into a
    single generator call without changing the stream.
    """
    if lo > _TOL and hi < 1.0 - _TOL:
        return len(values)
    n = 0
    for v in values:
        if _TOL < v < 1.0 - _TOL:
            n += 1
    return n


def walk_into(
    values: list[float],
    draws: list[float],
    out: list[bool],
    base: int,
    lo: float,
    hi: float,
) -> None:
    """Run one segment's DepRound walk, writing ``out[base + i]``.

    ``values`` are the segment's probabilities (already validated to lie in
    [0, 1] up to tolerance), ``draws`` exactly :func:`draw_count` uniforms,
    ``lo``/``hi`` the segment's extrema.  ``out`` entries default False;
    only selected coordinates are written True.
    """
    n = len(values)
    if n == 0:
        return
    # Each walk step pairs the carry (held in the pi/ci registers — value
    # and original index) with the element below; moving alpha or beta pins
    # at least one of the two at 0 or 1, and the fractional survivor becomes
    # the next carry.  Positions below the carry are never mutated, so the
    # walk is a pure downward scan with zero list writes.
    if lo > _TOL and hi < 1.0 - _TOL:
        # Common case (Alg. 2's gamma floor and the p<1 cap keep every entry
        # strictly fractional): every coordinate participates and its stack
        # position equals its index, so the walk needs no id bookkeeping.
        vals = values
        top = n - 1
        draw_at = 0
        pi = vals[top]
        ci = top
        while top >= 1:
            j = top - 1
            pj = vals[j]
            alpha = 1.0 - pi if 1.0 - pi < pj else pj  # move mass j -> i
            beta = pi if pi < 1.0 - pj else 1.0 - pj  # move mass i -> j
            if draws[draw_at] < beta / (alpha + beta):
                pi += alpha
                pj -= alpha
            else:
                pi -= beta
                pj += beta
            draw_at += 1
            if _TOL < pi < 1.0 - _TOL:
                # Carry survives: pj is pinned, carry slides down one slot.
                if pj > 0.5:
                    out[base + j] = True
                top = j
            elif _TOL < pj < 1.0 - _TOL:
                # pj becomes the new carry in place.
                if pi > 0.5:
                    out[base + ci] = True
                ci = j
                pi = pj
                top = j
            else:
                # Both pinned (combined mass was integral): fresh pair next.
                if pi > 0.5:
                    out[base + ci] = True
                if pj > 0.5:
                    out[base + j] = True
                top = j - 1
                if top >= 0:
                    ci = top
                    pi = vals[top]
        if top == 0:
            # One residual fractional coordinate (float round-off): Bernoulli.
            # The walk runs at most n−1 pairing steps, so a draw is left.
            if draws[draw_at] < pi:
                out[base + ci] = True
        return

    # General path: strip the already-integral coordinates, keeping the
    # original index of each fractional one.
    ids: list[int] = []
    vals = []
    for i, v in enumerate(values):
        if v > _TOL:
            if v < 1.0 - _TOL:
                ids.append(i)
                vals.append(v)
            else:
                out[base + i] = True
    top = len(ids) - 1
    if top < 0:
        return
    draw_at = 0
    pi = vals[top]
    ci = ids[top]
    while top >= 1:
        j = top - 1
        pj = vals[j]
        alpha = 1.0 - pi if 1.0 - pi < pj else pj  # move mass j -> i
        beta = pi if pi < 1.0 - pj else 1.0 - pj  # move mass i -> j
        if draws[draw_at] < beta / (alpha + beta):
            pi += alpha
            pj -= alpha
        else:
            pi -= beta
            pj += beta
        draw_at += 1
        if _TOL < pi < 1.0 - _TOL:
            # Carry survives: pj is pinned, carry slides down one slot.
            if pj > 0.5:
                out[base + ids[j]] = True
            top = j
        elif _TOL < pj < 1.0 - _TOL:
            # pj becomes the new carry in place.
            if pi > 0.5:
                out[base + ci] = True
            ci = ids[j]
            pi = pj
            top = j
        else:
            # Both pinned (combined mass was integral): fresh pair next.
            if pi > 0.5:
                out[base + ci] = True
            if pj > 0.5:
                out[base + ids[j]] = True
            top = j - 1
            if top >= 0:
                ci = ids[top]
                pi = vals[top]
    if top == 0:
        # One residual fractional coordinate (float round-off): Bernoulli.
        if draws[draw_at] < pi:
            out[base + ci] = True


def depround(
    p: np.ndarray,
    rng: np.random.Generator,
    *,
    lo: float | None = None,
    hi: float | None = None,
    scratch: np.ndarray | None = None,
) -> np.ndarray:
    """Sample a subset with inclusion marginals ``p`` and fixed size Σp.

    Parameters
    ----------
    p:
        ``(K,)`` probabilities in [0, 1].  Σp should be (nearly) integral;
        a residual fractional coordinate due to floating-point error is
        resolved by one final Bernoulli draw, preserving its marginal.
    rng:
        Random stream.
    lo, hi:
        Optional precomputed ``min(p)`` / ``max(p)`` — batch callers compute
        both for every segment of a slot in one ``reduceat`` pair and pass
        them in, skipping the per-call scans.  Must equal the true extrema;
        path selection and validation are unchanged.
    scratch:
        Optional float64 buffer of length >= K; the uniform draws land in
        ``scratch[:count]`` instead of a fresh allocation.  Draw order and
        values are bit-identical either way (``rng.random(out=...)`` and
        ``rng.random(n)`` consume the stream identically).

    Returns
    -------
    ``(K,)`` boolean selection mask with ``mask.sum() ∈ {floor(Σp), ceil(Σp)}``
    and ``E[mask] = p`` exactly.
    """
    arr = np.asarray(p, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"p must be 1-D, got shape {arr.shape}")
    n = arr.shape[0]
    if n == 0:
        return np.empty(0, dtype=bool)

    # Hot path of every LFSC slot (called once per SCN): the whole walk runs
    # on Python lists and floats — one .tolist() up front beats per-element
    # ndarray scalar access by ~100x, and the fixed coordinates go straight
    # into the output list instead of back through a scatter write.  At the
    # K ≲ a-few-hundred sizes this sees, Python min/max over the list beat
    # the two ndarray reductions' call overhead.
    values: list[float] = arr.tolist()
    if lo is None:
        lo = min(values)
    if hi is None:
        hi = max(values)
    if lo < -_TOL or hi > 1.0 + _TOL:
        raise ValueError("probabilities must lie in [0, 1]")
    count = draw_count(values, lo, hi)
    if count == 0:
        draws: list[float] = []
    elif scratch is None:
        draws = rng.random(count).tolist()
    else:
        buf = scratch[:count]
        rng.random(out=buf)
        draws = buf.tolist()
    out: list[bool] = [False] * n
    walk_into(values, draws, out, 0, lo, hi)
    return np.asarray(out, dtype=bool)
