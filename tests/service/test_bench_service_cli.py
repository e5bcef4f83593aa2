"""The benchmark CLIs fail closed on a non-positive horizon."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


SCRIPTS = (
    "bench_service.py",
    "bench_slot_engine.py",
    "bench_obs_overhead.py",
    "bench_window.py",
    "bench_replication_parallel.py",
)
ARGVS = (["--horizon", "0"], ["--smoke", "--horizon", "-1"])


def _case(script, i):
    # bench_service.py's cases keep their original "argv<i>" ids.
    name = f"argv{i}" if script == "bench_service.py" else f"{script[:-3]}-argv{i}"
    return pytest.param(script, ARGVS[i], id=name)


@pytest.mark.parametrize(
    "script,argv", [_case(script, i) for script in SCRIPTS for i in range(len(ARGVS))]
)
def test_non_positive_horizon_is_rejected(script, argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(BENCHMARKS.parent / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCHMARKS / script), *argv, "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "--horizon must be a positive slot count" in proc.stderr
    assert not (tmp_path / "out.json").exists()
