"""The paper-scale coverage stream and LFSC run pinned against SHA-256 digests.

The windowed ≡ per-slot gates compare two runs that both draw coverage
through the same :class:`CoverageSampler`, so a change to how the sampler
consumes the workload stream — a different ``Generator.choice`` replay, a
draw skipped or added — would pass them all.  This gate stores

- the digest of the default sampler's ``(n, indices)`` for 64 slots at each
  of three seeds, followed by the generator's next ``random()`` (the stream
  position after the last slot), and
- the digest of every recorded series of a paper-scale LFSC run
  (``api.run(scale="paper", policies=("LFSC",), horizon=200)``),

and fails on any bit of drift, with the native kernels on or off.

If a change to the stream is *intentional*, regenerate with
``PYTHONPATH=src python -m tests.env.test_golden_paper_scale`` and say why
in the change description.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import api
from repro.env.geometry import CoverageSampler
from repro.env.simulator import SERIES

GOLDEN_PATH = Path(__file__).with_name("golden") / "paper_scale_digests.json"

SAMPLER_SEEDS = (0, 1, 2)
SAMPLER_SLOTS = 64
RUN_SEED = 5
RUN_HORIZON = 200


def digest(arr: np.ndarray) -> str:
    """SHA-256 of an array's dtype, shape and C-order bytes."""
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def sampler_digest(seed: int) -> str:
    """Digest of ``SAMPLER_SLOTS`` default-sampler slots and the next draw."""
    sampler = CoverageSampler()
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(SAMPLER_SLOTS):
        n, coverage = sampler.sample_slot(rng)
        h.update(np.int64(n).tobytes())
        for idx in coverage:
            h.update(digest(np.asarray(idx, dtype=np.int64)).encode())
    h.update(np.float64(rng.random()).tobytes())
    return h.hexdigest()


def run_digests() -> dict[str, str]:
    res = api.run(
        scale="paper", policies=("LFSC",), horizon=RUN_HORIZON, seed=RUN_SEED
    )["LFSC"]
    return {name: digest(np.asarray(getattr(res, name))) for name in SERIES}


def compute_digests() -> dict:
    return {
        "sampler": {str(seed): sampler_digest(seed) for seed in SAMPLER_SEEDS},
        "lfsc_paper": run_digests(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("seed", SAMPLER_SEEDS)
def test_sampler_stream_matches_golden(seed, golden):
    assert sampler_digest(seed) == golden["sampler"][str(seed)], (
        f"seed {seed}: the paper-scale coverage draw drifted from the golden digest"
    )


def test_paper_lfsc_series_match_golden(golden):
    got = run_digests()
    want = golden["lfsc_paper"]
    assert sorted(got) == sorted(want)
    for name in SERIES:
        assert got[name] == want[name], (
            f"series {name!r} drifted from the golden digest"
        )


def test_golden_covers_every_case(golden):
    assert set(golden["sampler"]) == {str(s) for s in SAMPLER_SEEDS}
    assert set(golden["lfsc_paper"]) == set(SERIES)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
