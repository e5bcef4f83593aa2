"""``benchmarks/bench_service.py`` fails closed on a non-positive horizon."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_service.py"


@pytest.mark.parametrize("argv", [["--horizon", "0"], ["--smoke", "--horizon", "-1"]])
def test_non_positive_horizon_is_rejected(argv, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(BENCH.parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, str(BENCH), *argv, "--output", str(tmp_path / "out.json")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "--horizon must be a positive slot count" in proc.stderr
    assert not (tmp_path / "out.json").exists()
