"""Property tests for the ``repro-checkpoint/v1`` container.

Round trips are byte-stable, and every way a file can be wrong — truncated,
bit-flipped, foreign, lying about its payload — fails with a clean typed
error before any value escapes, mirroring the ``solvers/cache.py`` on-disk
discipline.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays as np_arrays

from repro.experiments.runner import ExperimentConfig
from repro.service import (
    CHECKPOINT_MAGIC,
    CheckpointError,
    CheckpointFormatError,
    CheckpointIntegrityError,
    OnlineSession,
    config_from_dict,
    deserialize_checkpoint,
    read_checkpoint,
    serialize_checkpoint,
    write_checkpoint,
)

# -- strategies -------------------------------------------------------------

_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)

_headers = st.dictionaries(
    st.text(min_size=1, max_size=12),
    st.one_of(_scalars, st.lists(_scalars, max_size=4)),
    max_size=6,
)

_dtypes = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.bool_]
)


def _array_strategy(dtype):
    if dtype == np.bool_:
        elements = st.booleans()
    elif np.issubdtype(dtype, np.floating):
        elements = st.floats(allow_nan=False, allow_infinity=False, width=32)
    else:
        info = np.iinfo(dtype)
        elements = st.integers(min_value=int(info.min), max_value=int(info.max))
    shapes = st.one_of(
        st.tuples(),
        st.tuples(st.integers(0, 5)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)),
    )
    return np_arrays(dtype=dtype, shape=shapes, elements=elements)


_array_dicts = st.dictionaries(
    st.text(min_size=1, max_size=12),
    _dtypes.flatmap(_array_strategy),
    max_size=5,
)


# -- round trips ------------------------------------------------------------


@given(header=_headers, arrs=_array_dicts)
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_everything(header, arrs):
    data = serialize_checkpoint(header, arrs)
    header2, arrs2 = deserialize_checkpoint(data)
    assert header2 == header
    assert set(arrs2) == set(arrs)
    for name, arr in arrs.items():
        out = arrs2[name]
        assert out.dtype == np.asarray(arr).dtype
        assert out.shape == np.asarray(arr).shape
        assert np.array_equal(out, arr)


@given(header=_headers, arrs=_array_dicts)
@settings(max_examples=60, deadline=None)
def test_serialization_is_byte_stable(header, arrs):
    """serialize → deserialize → serialize is the identity on bytes."""
    data = serialize_checkpoint(header, arrs)
    header2, arrs2 = deserialize_checkpoint(data)
    assert serialize_checkpoint(header2, arrs2) == data


# -- corruption: every failure is typed, nothing partial --------------------


@given(
    arrs=_array_dicts,
    cut=st.integers(min_value=0, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_truncation_always_fails_cleanly(arrs, cut):
    data = serialize_checkpoint({"k": 1}, arrs)
    cut = min(cut, len(data) - 1)
    with pytest.raises(CheckpointError) as exc_info:
        deserialize_checkpoint(data[:cut])
    # Inside the magic prefix the file is unrecognizable (format error);
    # past it, the loss is detectable truncation (integrity error).
    expected = (
        CheckpointFormatError if cut < len(CHECKPOINT_MAGIC) else CheckpointIntegrityError
    )
    assert isinstance(exc_info.value, expected)


@given(
    pos_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    bit=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_single_bit_flip_never_yields_data(pos_frac, bit):
    data = serialize_checkpoint(
        {"t": 7}, {"w": np.arange(12, dtype=np.float64).reshape(3, 4)}
    )
    pos = int(pos_frac * len(data))
    corrupted = bytearray(data)
    corrupted[pos] ^= 1 << bit
    with pytest.raises(CheckpointError):
        deserialize_checkpoint(bytes(corrupted))


def test_foreign_magic_is_a_format_error():
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        deserialize_checkpoint(b"some-other-format/v9\n" + b"\x00" * 64)
    with pytest.raises(CheckpointFormatError, match="bad magic"):
        deserialize_checkpoint(b"")


def test_future_schema_is_a_format_error():
    """A future container bumps the magic line — v1 readers must balk."""
    data = serialize_checkpoint({}, {})
    upgraded = data.replace(CHECKPOINT_MAGIC, b"repro-checkpoint/v2\n", 1)
    with pytest.raises(CheckpointError):
        deserialize_checkpoint(upgraded)


def test_object_dtype_is_rejected_at_serialize_time():
    with pytest.raises(CheckpointFormatError, match="pickle-free"):
        serialize_checkpoint({}, {"bad": np.array([object()])})


def test_non_json_header_is_rejected():
    with pytest.raises(CheckpointFormatError):
        serialize_checkpoint({"x": float("nan")}, {})
    with pytest.raises(CheckpointFormatError):
        serialize_checkpoint({"x": {1, 2}}, {})


def test_declared_header_length_is_capped():
    """A corrupted length field must not allocate gigabytes."""
    bad = CHECKPOINT_MAGIC + (2**62).to_bytes(8, "big") + b"\x00" * 64
    with pytest.raises(CheckpointIntegrityError, match="cap"):
        deserialize_checkpoint(bad)


def test_missing_file_is_a_checkpoint_error(tmp_path):
    with pytest.raises(CheckpointError, match="not found"):
        read_checkpoint(tmp_path / "absent.bin")


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    target = tmp_path / "deep" / "ck.bin"
    write_checkpoint(target, {"t": 1}, {"w": np.ones(3)})
    write_checkpoint(target, {"t": 2}, {"w": np.ones(3) * 2})  # overwrite in place
    assert [p.name for p in target.parent.iterdir()] == ["ck.bin"]
    header, arrays = read_checkpoint(target)
    assert header["t"] == 2
    assert np.array_equal(arrays["w"], np.full(3, 2.0))


# -- a real session checkpoint obeys the same properties --------------------


def test_real_checkpoint_file_round_trips_byte_stable(tmp_path):
    session = OnlineSession(ExperimentConfig.tiny(horizon=8))
    session.run(5)
    path = session.save(tmp_path / "real.ckpt")
    data = path.read_bytes()
    assert data.startswith(CHECKPOINT_MAGIC)
    header, arrays = deserialize_checkpoint(data)
    assert serialize_checkpoint(header, arrays) == data


def test_corrupted_real_checkpoint_refuses_resume(tmp_path):
    """The daemon-restart path fails closed on a damaged file."""
    session = OnlineSession(ExperimentConfig.tiny(horizon=8))
    session.run(4)
    path = session.save(tmp_path / "real.ckpt")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        OnlineSession.from_checkpoint(path)


# -- the config's lfsc block fails closed -----------------------------------


def _set(key, value):
    def mutate(lfsc):
        lfsc[key] = value

    return mutate


def _drop(key):
    def mutate(lfsc):
        del lfsc[key]

    return mutate


@pytest.mark.parametrize(
    "mutate, rejected",
    [
        pytest.param(_set("turbo", True), True, id="unknown-key"),
        pytest.param(_set("gamma", 5.0), True, id="bad-value"),
        pytest.param(_drop("partition"), True, id="missing-partition"),
        pytest.param(_set("engine", "warp"), True, id="unknown-engine"),
        # Checkpoints written while LFSC still had a slot-engine option;
        # both engines ran the same trajectory.
        pytest.param(_set("engine", "batched"), False, id="legacy-engine-batched"),
        pytest.param(_set("engine", "reference"), False, id="legacy-engine-reference"),
    ],
)
def test_lfsc_block_fails_closed(mutate, rejected, tmp_path):
    cfg = ExperimentConfig.tiny(horizon=8).with_lfsc_overrides(assignment_mode="depround")
    session = OnlineSession(cfg)
    session.run(4)
    path = session.save(tmp_path / "ck.bin")
    header, arrays = read_checkpoint(path)
    mutate(header["config"]["lfsc"])
    write_checkpoint(path, header, arrays)

    if rejected:
        with pytest.raises(CheckpointFormatError, match="lfsc"):
            OnlineSession.from_checkpoint(path)
        return
    straight = OnlineSession(cfg).run()
    resumed = OnlineSession.from_checkpoint(path).run()
    for name in ("reward", "expected_reward", "accepted", "violation_qos", "violation_resource"):
        assert np.array_equal(getattr(straight.result(), name), getattr(resumed.result(), name))
    assert np.array_equal(straight.policy.log_w, resumed.policy.log_w)


# -- the retired Oracle solver-cache switch ---------------------------------


@pytest.mark.parametrize(
    "value, rejected",
    [
        # Checkpoints written while the Oracle's solver cache could be
        # switched off; both settings ran the same trajectory.
        pytest.param(True, False, id="legacy-oracle-cache-true"),
        pytest.param(False, False, id="legacy-oracle-cache-false"),
        pytest.param("off", True, id="bad-oracle-cache-type"),
    ],
)
def test_legacy_oracle_cache_key(value, rejected, tmp_path):
    cfg = ExperimentConfig.tiny(horizon=8)
    session = OnlineSession(cfg, "Oracle")
    session.run(4)
    path = session.save(tmp_path / "ck.bin")
    header, arrays = read_checkpoint(path)
    header["config"]["oracle_cache"] = value
    write_checkpoint(path, header, arrays)

    if rejected:
        with pytest.raises(CheckpointFormatError, match="oracle_cache"):
            OnlineSession.from_checkpoint(path)
        return
    straight = OnlineSession(cfg, "Oracle").run()
    resumed = OnlineSession.from_checkpoint(path).run()
    for name in ("reward", "expected_reward", "accepted", "violation_qos", "violation_resource"):
        assert np.array_equal(getattr(straight.result(), name), getattr(resumed.result(), name))


@pytest.mark.parametrize("doc", [["seed"], "seed", 7], ids=["list", "str", "int"])
def test_non_mapping_config_fails_closed(doc):
    with pytest.raises(CheckpointFormatError, match="not a mapping"):
        config_from_dict(doc)
