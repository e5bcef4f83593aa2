"""Fleet tile series pinned against committed SHA-256 digests.

The other fleet gates compare the code with itself (shard counts, serial vs
process), so a change that reorders a tile's slot body — a draw moved, the
MBS tier served at a different point, a series written from other operands
— would pass them all.  This gate stores the digest of every series of
every tile of a tiny mobility fleet, for ``window ∈ {None, 0}`` ×
``mbs_capacity ∈ {0, 4}`` plus one sampler-coverage config, and fails on any
bit of drift.

If a change to the tile's semantics is *intentional*, regenerate with
``PYTHONPATH=src python -m tests.fleet.test_golden_series`` and say why in
the change description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import FleetConfig, run_fleet

GOLDEN_PATH = Path(__file__).with_name("golden") / "series_digests.json"

#: label -> FleetConfig overrides of :func:`_cfg`.
CASES = {
    "mobility-w_default-mbs0": dict(window=None, mbs_capacity=0),
    "mobility-w_default-mbs4": dict(window=None, mbs_capacity=4),
    "mobility-w0-mbs0": dict(window=0, mbs_capacity=0),
    "mobility-w0-mbs4": dict(window=0, mbs_capacity=4),
    "sampler-w_default-mbs4": dict(coverage="sampler", mbs_capacity=4),
}


def _cfg(**overrides) -> FleetConfig:
    # Rounds of 6 slots over a 20-slot horizon: windows are cut at every
    # exchange, and the last round is a short one.  Three SCNs of capacity
    # 6 cannot take 40 WDs, so the MBS tier has leftovers to serve.
    base = dict(
        tiles_x=2,
        tiles_y=2,
        scns_per_tile=3,
        wds_per_tile=40,
        horizon=20,
        exchange_every=6,
        seed=3,
        truth_seed=11,
    )
    base.update(overrides)
    return FleetConfig(**base)


def digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and C-order bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def compute_digests() -> dict[str, list[dict[str, str]]]:
    out = {}
    for label, overrides in CASES.items():
        res = run_fleet(_cfg(**overrides), shards=1, mode="serial")
        out[label] = [
            {name: digest(np.asarray(series[name])) for name in sorted(series)}
            for series in res.tile_series
        ]
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("label", sorted(CASES))
def test_tile_series_match_golden_digests(label, golden):
    res = run_fleet(_cfg(**CASES[label]), shards=1, mode="serial")
    expected = golden[label]
    assert len(res.tile_series) == len(expected)
    for tile, (series, want) in enumerate(zip(res.tile_series, expected)):
        assert sorted(series) == sorted(want), f"{label} tile {tile}: series names"
        for name in sorted(want):
            assert digest(np.asarray(series[name])) == want[name], (
                f"{label} tile {tile}: series {name!r} drifted from the golden digest"
            )


def test_golden_covers_every_case(golden):
    assert set(golden) == set(CASES)


def test_mbs_cases_record_the_tier(golden):
    for label, overrides in CASES.items():
        has_mbs = overrides.get("mbs_capacity", 0) > 0
        assert all(("mbs_reward" in tile) == has_mbs for tile in golden[label]), label
    res = run_fleet(_cfg(**CASES["mobility-w0-mbs4"]), shards=1, mode="serial")
    assert all(series["mbs_reward"].sum() > 0 for series in res.tile_series)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
