"""Shared-memory packing round-trips, and pool results through the pipe.

``pack_to_shm``/``unpack_from_shm`` must return values byte-for-byte
identical to their inputs, for adversarial shapes (object dtypes, zero-size
arrays, nested containers, namedtuples, frozen dataclasses), and honour the
lifetime contract: a consumed block is unlinked, and ``discard_block``
tolerates missing blocks.  ``parallel_map`` returns results through the
pool's pipe: a 2-worker run must equal the serial run, and a worker that
fails or dies must leave no shared-memory segment behind.
"""

import collections
import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.utils import shm as shm_transport
from repro.utils.parallel import parallel_map
from repro.utils.shm import (
    ArrayRef,
    discard_block,
    pack_to_shm,
    shm_supported,
    unpack_from_shm,
)

needs_shm = pytest.mark.skipif(not shm_supported(), reason="no shared memory on host")

Point = collections.namedtuple("Point", ["x", "label"])


@dataclasses.dataclass(frozen=True)
class FrozenResult:
    reward: np.ndarray
    name: str


def _assert_tree_equal(a, b):
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)
    elif isinstance(a, dict):
        assert a.keys() == b.keys()
        for k in a:
            _assert_tree_equal(a[k], b[k])
    elif isinstance(a, (list, tuple)):
        assert type(a) is type(b) and len(a) == len(b)
        for x, y in zip(a, b):
            _assert_tree_equal(x, y)
    elif dataclasses.is_dataclass(a) and not isinstance(a, type):
        for f in dataclasses.fields(a):
            _assert_tree_equal(getattr(a, f.name), getattr(b, f.name))
    else:
        assert a == b


class TestPackUnpack:
    @needs_shm
    def test_round_trip_nested_payload(self):
        rng = np.random.default_rng(0)
        values = [
            {
                "floats": rng.random(17),
                "ints": np.arange(5, dtype=np.int32),
                "nested": [Point(x=rng.random(3), label="p"), (1, 2.5, "s")],
                "frozen": FrozenResult(reward=rng.random(8), name="run-0"),
                "scalar": 3.25,
            },
            rng.random((4, 6)),
        ]
        skeletons, name, manifest = pack_to_shm(values)
        assert name is not None and manifest
        rebuilt = unpack_from_shm(skeletons, name, manifest)
        _assert_tree_equal(values, rebuilt)
        # The block was unlinked after unpacking: attaching again must fail.
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)

    @needs_shm
    def test_skeleton_replaces_arrays_with_refs(self):
        values = [{"a": np.arange(4, dtype=np.float64)}]
        skeletons, name, manifest = pack_to_shm(values)
        assert isinstance(skeletons[0]["a"], ArrayRef)
        assert manifest[0][0] == (4,) and manifest[0][1] == "<f8"
        discard_block(name)

    @needs_shm
    def test_object_and_zero_size_arrays_stay_inline(self):
        obj_arr = np.array([{"k": 1}, None], dtype=object)
        empty = np.empty(0)
        payload = np.arange(3.0)
        skeletons, name, manifest = pack_to_shm([(obj_arr, empty, payload)])
        assert name is not None and len(manifest) == 1  # only `payload` lifted
        rebuilt = unpack_from_shm(skeletons, name, manifest)
        assert rebuilt[0][0] is obj_arr
        assert rebuilt[0][1] is empty
        np.testing.assert_array_equal(rebuilt[0][2], payload)

    def test_nothing_to_lift_falls_back(self):
        values = [1, "two", {"three": 3}]
        skeletons, name, manifest = pack_to_shm(values)
        assert name is None and manifest == []
        assert skeletons is values

    @needs_shm
    def test_non_contiguous_arrays_round_trip(self):
        base = np.arange(20.0).reshape(4, 5)
        view = base[:, ::2]  # non-contiguous: packed via ascontiguousarray
        skeletons, name, manifest = pack_to_shm([view])
        rebuilt = unpack_from_shm(skeletons, name, manifest)
        np.testing.assert_array_equal(rebuilt[0], view)

    def test_discard_block_tolerates_missing(self):
        discard_block("psm_definitely_not_there")

    def test_all_zero_length_arrays_fall_back_inline(self):
        # Nothing liftable → no block is ever created; skeletons are the
        # values themselves and the empties come back as-is.
        empties = [np.empty(0), np.zeros((0, 3)), np.empty(0, dtype=np.int64)]
        skeletons, name, manifest = pack_to_shm(empties)
        # Inline fallback contract: no block, and the skeletons ARE the
        # values (callers skip unpack_from_shm when name is None).
        assert name is None and manifest == []
        assert skeletons is empties

    @needs_shm
    def test_zero_length_alongside_lifted_round_trips(self):
        payload = {"empty": np.zeros((0, 2)), "full": np.arange(6.0)}
        skeletons, name, manifest = pack_to_shm([payload])
        rebuilt = unpack_from_shm(skeletons, name, manifest)
        assert rebuilt[0]["empty"].shape == (0, 2)
        np.testing.assert_array_equal(rebuilt[0]["full"], payload["full"])

    @needs_shm
    def test_transposed_array_round_trips(self):
        base = np.arange(12.0).reshape(3, 4)
        view = base.T  # non-contiguous in C order
        assert not view.flags["C_CONTIGUOUS"]
        skeletons, name, manifest = pack_to_shm([view])
        rebuilt = unpack_from_shm(skeletons, name, manifest)
        assert rebuilt[0].shape == (4, 3)
        np.testing.assert_array_equal(rebuilt[0], view)


def _simulate(seed: int):
    """Worker: a small simulation whose result is a frozen-dataclass tree."""
    from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy

    cfg = ExperimentConfig.tiny(horizon=8, seed=seed)
    sim = build_simulation(cfg)
    return sim.run(make_policy("LFSC", cfg, sim.truth), cfg.horizon)


class TestParallelTransport:
    def test_parallel_equals_serial(self):
        items = [0, 1, 2]
        serial = parallel_map(_simulate, items, workers=1)
        parallel = parallel_map(_simulate, items, workers=2)
        for a, b in zip(serial, parallel):
            np.testing.assert_array_equal(a.reward, b.reward)
            np.testing.assert_array_equal(a.completed, b.completed)
            np.testing.assert_array_equal(a.violation_qos, b.violation_qos)

    def test_worker_error_does_not_leak_blocks(self):
        from repro.utils.parallel import ParallelExecutionError

        with pytest.raises(ParallelExecutionError):
            parallel_map(_boom_after_result, [0, 1], workers=2)


def _boom_after_result(i: int):
    if i == 1:
        raise RuntimeError("boom")
    return {"payload": np.arange(64.0)}


_DIE_MID_CHUNK = '''\
import os
import time

import numpy as np

from repro.utils.parallel import parallel_map


def work(i):
    if i == 1:
        time.sleep(0.2)
        os._exit(1)  # hard death: no atexit hooks, no finalizers
    return {"payload": np.arange(256.0)}


if __name__ == "__main__":
    try:
        parallel_map(work, [0, 1], workers=2, chunksize=1)
    except Exception as exc:
        print(f"raised:{type(exc).__name__}")
        raise SystemExit(0)
    print("no-error")
'''


class TestWorkerDeathCleanup:
    """A worker killed mid-chunk must not leak segments or tracker warnings.

    Runs in a subprocess: the resource tracker only reports leaked
    shared-memory objects on interpreter exit, so the warning is observable
    only on a fresh interpreter's stderr.
    """

    @needs_shm
    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_hard_death_leaves_no_segments(self, tmp_path):
        script = tmp_path / "die_mid_chunk.py"
        script.write_text(_DIE_MID_CHUNK)
        src = Path(shm_transport.__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        before = set(os.listdir("/dev/shm"))
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "raised:" in proc.stdout, proc.stdout
        # The tracker prints "resource_tracker: There appear to be N leaked
        # shared_memory objects ..." at exit when a segment was registered
        # but never unlinked.
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
        leftover = {
            n for n in set(os.listdir("/dev/shm")) - before if n.startswith("psm_")
        }
        assert not leftover, f"leaked shm segments: {leftover}"
