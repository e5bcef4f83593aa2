"""The optional C kernels are bit-identical to their Python references.

``repro.core.native`` transliterates the DepRound walk, the Alg. 4
greedy pass, the Alg. 3 statistics scatter, the paper-scale coverage draw
and Alg. 2's per-segment cap solve into C for the slot's hot path.  The
contract is exact: given the same probabilities and pooled uniforms, the
native walk must select exactly the coordinates the Python walk selects
(the C code performs the identical IEEE-754 operations in the identical
order), the native greedy pass must accept exactly the edges the Python
pass accepts, the coverage draw must return ``np.sort(rng.choice(...))``
and leave the generator where ``choice`` leaves it, and the cap solve must
match the Python loop byte for byte.  These property tests sweep
randomized segments across both walk paths (all-fractional and
mixed-integral), randomized edge lists, numpy's four bit generators and
the edge cases of the cap solve; the ``REPRO_NATIVE=0`` kill-switch and a
shared (group/world-writable) compile cache are checked end-to-end in a
subprocess.

Everything here skips when the host has no C compiler — the pure-Python
fallback is what the rest of the suite exercises then.
"""

import contextlib
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import native
from repro.core.depround import _TOL, draw_count, walk_into
from repro.core.greedy import greedy_select_edges
from repro.core.probability import (
    capped_probabilities_batch,
    capped_probabilities_batch_into,
)
from repro.env.geometry import CoverageSampler

needs_native = pytest.mark.skipif(
    not native.available(), reason="no C compiler / native kernels disabled"
)


def _segments(rng, num_segs, mixed):
    """Random per-segment probability lists; ``mixed`` adds 0/1 entries."""
    segs = []
    for _ in range(num_segs):
        n = int(rng.integers(0, 12))
        p = rng.random(n)
        if mixed and n:
            roll = rng.random(n)
            p[roll < 0.2] = 0.0
            p[roll > 0.8] = 1.0
        segs.append(p)
    return segs


def _pooled_layout(segs):
    lengths = np.array([len(s) for s in segs], dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    p = np.concatenate([np.asarray(s, dtype=float) for s in segs]) if segs else np.empty(0)
    lo = np.array([s.min() if len(s) else 0.0 for s in segs])
    hi = np.array([s.max() if len(s) else 0.0 for s in segs])
    counts = np.array(
        [draw_count(list(s), float(l), float(h)) for s, l, h in zip(segs, lo, hi)],
        dtype=np.int64,
    )
    draw_start = np.zeros(lengths.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=draw_start[1:])
    return p, offsets, lo, hi, counts, draw_start


@needs_native
@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("seed", range(20))
def test_walk_segments_matches_python_walk(seed, mixed):
    rng = np.random.default_rng(seed)
    segs = _segments(rng, num_segs=8, mixed=mixed)
    p, offsets, lo, hi, counts, draw_start = _pooled_layout(segs)
    E = int(offsets[-1])
    draws = rng.random(int(counts.sum()))

    expected = [False] * E
    for s, seg in enumerate(segs):
        if len(seg) == 0:
            continue
        seg_draws = draws[draw_start[s] : draw_start[s] + counts[s]].tolist()
        walk_into(list(seg), seg_draws, expected, int(offsets[s]), float(lo[s]), float(hi[s]))

    out = np.zeros(E, dtype=np.uint8)
    longest = int(max((len(s) for s in segs), default=0))
    ids_scratch = np.empty(max(longest, 1), dtype=np.int64)
    vals_scratch = np.empty(max(longest, 1))
    ran = native.walk_segments(
        np.ascontiguousarray(p), offsets, draws, draw_start, lo, hi,
        out, ids_scratch, vals_scratch, _TOL,
    )
    assert ran
    np.testing.assert_array_equal(out.astype(bool), np.asarray(expected))


@needs_native
@pytest.mark.parametrize("seed", range(10))
def test_greedy_pass_matches_python_pass(seed):
    rng = np.random.default_rng(100 + seed)
    num_scns, num_tasks, capacity = 6, 30, 3
    E = int(rng.integers(1, 80))
    edge_scn = rng.integers(0, num_scns, E).astype(np.int64)
    edge_task = rng.integers(0, num_tasks, E).astype(np.int64)
    edge_weight = rng.random(E) + 1e-3  # strictly positive, with possible ties

    # The public entry point prefers the native pass; force the Python pass
    # by disabling the loaded library for the reference run.
    native_asn = greedy_select_edges(
        edge_scn, edge_task, edge_weight, num_scns, capacity, num_tasks
    )
    lib, native._lib = native._lib, None
    try:
        python_asn = greedy_select_edges(
            edge_scn, edge_task, edge_weight, num_scns, capacity, num_tasks
        )
    finally:
        native._lib = lib
    np.testing.assert_array_equal(native_asn.scn, python_asn.scn)
    np.testing.assert_array_equal(native_asn.task, python_asn.task)


def _sampler_slot_digest() -> str:
    """SHA-256 of one paper-scale sampler slot and the next draw."""
    rng = np.random.default_rng(42)
    n, coverage = CoverageSampler().sample_slot(rng)
    h = hashlib.sha256(np.int64(n).tobytes())
    for idx in coverage:
        h.update(np.asarray(idx, dtype=np.int64).tobytes())
    h.update(np.float64(rng.random()).tobytes())
    return h.hexdigest()


_PURE_PYTHON_RUN = (
    "import numpy as np\n"
    "from repro.core import native\n"
    "from repro.core.lfsc import LFSCPolicy\n"
    "from repro.experiments.runner import ExperimentConfig, build_simulation\n"
    "from tests.core.test_native import _sampler_slot_digest\n"
    "assert not native.available()\n"
    "cfg = ExperimentConfig.tiny(horizon=12)\n"
    "sim = build_simulation(cfg)\n"
    "res = sim.run(LFSCPolicy(cfg.lfsc_config()), cfg.horizon)\n"
    "print(repr(float(res.reward.sum())))\n"
    "print(_sampler_slot_digest())\n"
)


def _run_pure_python(**env_overrides) -> list[str]:
    env = dict(os.environ, **env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (env.get("PYTHONPATH"), os.path.abspath("src"), os.path.abspath(".")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", _PURE_PYTHON_RUN], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _in_process_outputs() -> list[str]:
    from repro.core.lfsc import LFSCPolicy
    from repro.experiments.runner import ExperimentConfig, build_simulation

    cfg = ExperimentConfig.tiny(horizon=12)
    sim = build_simulation(cfg)
    here = float(sim.run(LFSCPolicy(cfg.lfsc_config()), cfg.horizon).reward.sum())
    return [repr(here), _sampler_slot_digest()]


def test_kill_switch_runs_pure_python():
    """REPRO_NATIVE=0 must fall back silently and stay bit-identical."""
    assert _run_pure_python(REPRO_NATIVE="0") == _in_process_outputs()


def test_shared_cache_directory_fails_closed(tmp_path):
    """A group/world-writable cache directory is refused, not built in or
    loaded from, and the pure-Python results are unchanged."""
    cache = tmp_path / "shared"
    cache.mkdir()
    cache.chmod(0o777)
    assert _run_pure_python(REPRO_NATIVE_CACHE=str(cache)) == _in_process_outputs()
    assert list(cache.iterdir()) == []


def _so_path(cache) -> str:
    digest = hashlib.sha256(native._SOURCE.encode()).hexdigest()[:16]
    return os.path.join(str(cache), f"repro_walk_{digest}.so")


def test_symlinked_cache_directory_is_refused(tmp_path, monkeypatch):
    real = tmp_path / "real"
    real.mkdir(mode=0o700)
    link = tmp_path / "link"
    link.symlink_to(real)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(link))
    with pytest.raises(RuntimeError, match="symlink"):
        native._build_and_load()
    assert list(real.iterdir()) == []


def test_planted_writable_library_is_refused(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = _so_path(cache)
    with open(planted, "wb") as f:
        f.write(b"not a library")
    os.chmod(planted, 0o666)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    with pytest.raises(RuntimeError, match="writable"):
        native._build_and_load()


@pytest.mark.skipif(
    not hasattr(os, "geteuid") or os.geteuid() != 0, reason="chown needs root"
)
def test_library_owned_by_another_user_is_refused(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir(mode=0o700)
    planted = _so_path(cache)
    with open(planted, "wb") as f:
        f.write(b"not a library")
    os.chmod(planted, 0o755)
    os.chown(planted, 4242, 4242)
    monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
    with pytest.raises(RuntimeError, match="owned by uid 4242"):
        native._build_and_load()


# -- coverage draw -------------------------------------------------------------

BIT_GENERATORS = {
    "PCG64": np.random.PCG64,
    "MT19937": np.random.MT19937,
    "Philox": np.random.Philox,
    "SFC64": np.random.SFC64,
}


def _reference_draw(rng, n, sizes):
    return [np.sort(rng.choice(n, size=int(k), replace=False)) for k in sizes]


@needs_native
@pytest.mark.parametrize("bitgen", sorted(BIT_GENERATORS))
@pytest.mark.parametrize(
    "n, sizes",
    [
        (50, [1, 1, 1]),  # k = 1
        (64, [64, 1, 64]),  # k = n: the first Floyd step draws nothing
        (1000, [35, 100, 67, 999]),
        (10000, [10000, 200, 3]),  # largest pool numpy always runs Floyd on
        (10001, [200, 1, 150]),  # above it, up to the k <= n // 50 cutoff
    ],
)
def test_cover_draw_replays_choice(bitgen, n, sizes):
    sizes = np.array(sizes, dtype=np.int64)
    got_rng = np.random.Generator(BIT_GENERATORS[bitgen](7))
    want_rng = np.random.Generator(BIT_GENERATORS[bitgen](7))
    got = native.cover_draw(got_rng, n, sizes)
    want = _reference_draw(want_rng, n, sizes)
    assert got is not None
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype == np.int64
        np.testing.assert_array_equal(g, w)
    # Same stream position: the next draws agree.
    assert got_rng.random(4).tobytes() == want_rng.random(4).tobytes()


@needs_native
def test_cover_draw_declines_numpy_tail_shuffle_branch():
    """k > n // 50 above 10000 tasks is numpy's tail shuffle: the kernel
    returns None without touching the stream."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert native.cover_draw(rng, 10001, np.array([200, 201], dtype=np.int64)) is None
    assert rng.bit_generator.state == state


@needs_native
def test_cover_draw_declines_sizes_outside_the_pool():
    """k > n is choice's ValueError: the kernel refuses before drawing."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    assert native.cover_draw(rng, 10, np.array([3, 11], dtype=np.int64)) is None
    assert rng.bit_generator.state == state


@needs_native
def test_tail_branch_slot_falls_back_and_matches():
    # 40 SCNs x 300 tasks with overlap 1: a 12000-task pool, 300 > 12000 // 50.
    sampler = CoverageSampler(num_scns=40, k_min=300, k_max=300, overlap=1.0)
    rng = np.random.default_rng(11)
    ref_rng = np.random.default_rng(11)
    n, coverage = sampler.sample_slot(rng)
    sizes = ref_rng.integers(300, 301, size=40)
    assert n == 12000
    for got, want in zip(coverage, _reference_draw(ref_rng, n, sizes)):
        np.testing.assert_array_equal(got, want)
    assert rng.random() == ref_rng.random()


@needs_native
@pytest.mark.parametrize("seed", range(6))
def test_sampler_slots_match_comprehension(seed):
    """Whole sampler slots (sizes draw + sets) against the comprehension."""
    gen = np.random.default_rng(1000 + seed)
    sampler = CoverageSampler(
        num_scns=int(gen.integers(1, 40)),
        k_min=int(gen.integers(1, 30)),
        k_max=int(gen.integers(30, 120)),
        overlap=float(gen.uniform(1.0, 4.0)),
    )
    rng = np.random.default_rng(seed)
    ref_rng = np.random.default_rng(seed)
    for _ in range(5):
        n, coverage = sampler.sample_slot(rng)
        sizes = ref_rng.integers(sampler.k_min, sampler.k_max + 1, size=sampler.num_scns)
        ref_n = max(int(round(sizes.sum() / sampler.overlap)), int(sizes.max()))
        assert n == ref_n
        for got, want in zip(coverage, _reference_draw(ref_rng, ref_n, sizes)):
            np.testing.assert_array_equal(got, want)
    assert rng.random() == ref_rng.random()


# -- Alg. 2 cap solve ------------------------------------------------------------


@contextlib.contextmanager
def _python_only():
    """Every native kernel off (the loaded library hidden)."""
    lib, native._lib = native._lib, None
    try:
        yield
    finally:
        native._lib = lib


def _layout(lengths):
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return dict(
        lengths=lengths,
        lengths_f=lengths.astype(float),
        edge_scn=np.repeat(np.arange(lengths.size), lengths),
        seg_len_edge=np.repeat(lengths, lengths).astype(float),
    ), offsets


def _batch_into(w, lengths, capacity, gamma):
    topo, offsets = _layout(lengths)
    E = w.shape[0]
    out = capped_probabilities_batch_into(
        w, offsets, capacity, gamma, **topo,
        out_p=np.empty(E), out_capped=np.empty(E, dtype=bool),
        out_wtilde=np.empty(E), scratch=np.empty(E),
    )
    return out.p.copy(), out.capped.copy(), out.thresholds.copy()


def _assert_same_bytes(got, want):
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def _cap_weights(rng, lengths, kind):
    parts = []
    for K in lengths:
        if kind == "ties":
            # Tied heavy weights over a tied tail: the sort sees equal keys
            # on both sides of the cap.
            w = rng.choice([0.25, 1.0, 3.0], size=K)
            w[rng.choice(K, size=min(3, K), replace=False)] = 200.0
        elif kind == "floor":
            # LFSC floors normalized weights at 1e-300: a few heavy cubes
            # over a long floored tail.
            w = np.full(K, 1e-300)
            w[rng.choice(K, size=min(3, K), replace=False)] = rng.random(min(3, K)) + 0.5
        else:
            w = np.exp(rng.normal(0.0, 3.0, K))
        parts.append(w)
    return np.concatenate(parts)


@needs_native
@pytest.mark.parametrize("kind", ["spread", "ties", "floor"])
@pytest.mark.parametrize(
    "capacity, lengths",
    [
        (4, [5, 5, 5]),  # K = capacity + 1 everywhere
        (6, [35, 100, 67, 90, 41]),  # paper-scale segments
        (3, [129, 200, 300, 136]),  # K > 128: the pairwise halving
        (2, [3, 0, 7, 1, 2, 150]),  # empty and K <= c segments (generic path)
    ],
)
@pytest.mark.parametrize("seed", range(3))
def test_cap_segments_match_python_loop(kind, capacity, lengths, seed):
    rng = np.random.default_rng(seed)
    w = _cap_weights(rng, lengths, kind)
    _, offsets = _layout(lengths)
    for gamma in (0.05, 0.4):
        native_batch = capped_probabilities_batch(w, offsets, capacity, gamma)
        native_into = _batch_into(w, lengths, capacity, gamma)
        with _python_only():
            py_batch = capped_probabilities_batch(w, offsets, capacity, gamma)
            py_into = _batch_into(w, lengths, capacity, gamma)
        _assert_same_bytes(
            (native_batch.p, native_batch.capped, native_batch.thresholds),
            (py_batch.p, py_batch.capped, py_batch.thresholds),
        )
        _assert_same_bytes(native_into, py_into)


@needs_native
def test_cap_segments_refuses_short_segments():
    """Segments must be at least 2 long; the kernel refuses untouched."""
    w = np.array([1.0, 5.0, 2.0])
    offsets = np.array([0, 2, 3], dtype=np.int64)
    thresholds = np.full(2, np.nan)
    denom = np.full(2, -1.0)
    capped = np.zeros(3, dtype=bool)
    assert not native.cap_segments(
        w, offsets, None, np.full(2, 0.5), w.copy(), capped, thresholds, denom
    )
    assert (denom == -1.0).all() and not capped.any()


@needs_native
def test_cap_segments_caps_in_every_case_family():
    """The cases above exercise the cap walk, not only the uncapped branch."""
    rng = np.random.default_rng(0)
    for kind in ("spread", "ties", "floor"):
        w = _cap_weights(rng, [35, 100, 67], kind)
        _, offsets = _layout([35, 100, 67])
        assert capped_probabilities_batch(w, offsets, 6, 0.05).capped.any(), kind


@needs_native
@pytest.mark.parametrize("seed", range(20))
def test_cap_segments_paper_scale_slots(seed):
    """Random 30-segment slots at the paper operating point, bytewise."""
    rng = np.random.default_rng(500 + seed)
    lengths = rng.integers(35, 101, size=30)
    w = np.exp(rng.normal(0.0, float(rng.uniform(0.5, 6.0)), int(lengths.sum())))
    w = np.maximum(w / w.max(), 1e-300)
    native_into = _batch_into(w, lengths, 6, 0.1)
    with _python_only():
        py_into = _batch_into(w, lengths, 6, 0.1)
    _assert_same_bytes(native_into, py_into)


# -- load-time self-check --------------------------------------------------------


def _reload(monkeypatch):
    monkeypatch.setattr(native, "_tried", False)
    monkeypatch.setattr(native, "_lib", None)
    monkeypatch.setattr(native, "_disabled", frozenset())
    native._load()


@needs_native
@pytest.mark.parametrize("kernel", native.CHECKED_KERNELS)
def test_failed_self_check_disables_only_that_kernel(kernel, monkeypatch):
    monkeypatch.setattr(native, f"_check_{kernel}", lambda lib: False)
    _reload(monkeypatch)
    assert native.available()
    for name in native.CHECKED_KERNELS:
        assert native.available(name) == (name != kernel)

    # The disabled kernel refuses; its callers' outputs do not change.
    rng = np.random.default_rng(5)
    sizes = np.array([35, 100, 60], dtype=np.int64)
    assert (native.cover_draw(rng, 150, sizes) is None) == (kernel == "cover_draw")
    rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
    n, coverage = CoverageSampler().sample_slot(rng)
    ref_sizes = ref_rng.integers(35, 101, size=30)
    for got, want in zip(coverage, _reference_draw(ref_rng, n, ref_sizes)):
        np.testing.assert_array_equal(got, want)
    assert rng.random() == ref_rng.random()

    lengths = [35, 100, 67, 90]
    w = _cap_weights(np.random.default_rng(1), lengths, "floor")
    got = _batch_into(w, lengths, 6, 0.1)
    with _python_only():
        want = _batch_into(w, lengths, 6, 0.1)
    _assert_same_bytes(got, want)


@needs_native
def test_self_check_passes_on_this_numpy():
    assert native._self_check(native._lib) == frozenset()
    assert all(native.available(name) for name in native.CHECKED_KERNELS)


@needs_native
@pytest.mark.parametrize("seed", range(40))
def test_scatter_update_matches_bincount(seed):
    """Alg. 3's scatter kernel is bit-identical to the bincount pair."""
    rng = np.random.default_rng(seed)
    E = int(rng.integers(0, 60))
    MF = int(rng.integers(1, 50))
    flat = rng.integers(0, MF, size=E).astype(np.int64)
    weights = rng.normal(size=E)
    sums = np.zeros(MF)
    counts = np.zeros(MF, dtype=np.int64)
    assert native.scatter_update(flat, weights, sums, counts)
    np.testing.assert_array_equal(
        sums, np.bincount(flat, weights=weights, minlength=MF)
    )
    np.testing.assert_array_equal(counts, np.bincount(flat, minlength=MF))


@needs_native
def test_scatter_update_accumulation_order_is_bitwise():
    """Cancellation-heavy weights into one cell: byte-equality proves the
    kernel adds in bincount's element order, not merely 'close enough'."""
    rng = np.random.default_rng(123)
    n = 2000
    flat = np.zeros(n, dtype=np.int64)
    weights = rng.normal(size=n) * np.power(
        10.0, rng.integers(-8, 8, size=n).astype(float)
    )
    sums = np.zeros(1)
    counts = np.zeros(1, dtype=np.int64)
    assert native.scatter_update(flat, weights, sums, counts)
    assert sums.tobytes() == np.bincount(flat, weights=weights, minlength=1).tobytes()
    assert counts[0] == n


def test_scatter_update_reports_unavailable():
    """With the kernel disabled the wrapper must refuse (False) untouched."""
    lib = native._lib
    native._lib = None
    try:
        sums = np.zeros(3)
        counts = np.zeros(3, dtype=np.int64)
        assert not native.scatter_update(
            np.zeros(0, dtype=np.int64), np.zeros(0), sums, counts
        )
        assert not sums.any() and not counts.any()
    finally:
        native._lib = lib


def test_available_is_bool():
    assert isinstance(native.available(), bool)
