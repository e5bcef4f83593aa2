"""``import repro.api`` stays free of the heavy scipy subpackages.

``scipy.stats`` (replication CIs) and ``scipy.optimize``/``scipy.sparse``
(the Oracle's LP/ILP solvers) load on first use, so every CLI call, daemon
start, resume and pool worker skips their import cost.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"


def scipy_modules_after(code: str) -> list[str]:
    """The ``scipy*`` modules loaded once ``code`` ran in a fresh interpreter."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_api_leaves_scipy_stats_and_optimize_out():
    loaded = scipy_modules_after("import repro.api")
    assert "scipy.stats" not in loaded
    assert "scipy.optimize" not in loaded
    assert "scipy.sparse" not in loaded


def test_direct_highs_flag_loads_the_solver_on_first_read():
    loaded = scipy_modules_after(
        "from repro.solvers.highs import HAVE_DIRECT_HIGHS\n"
        "assert HAVE_DIRECT_HIGHS in (True, False)"
    )
    assert "scipy.optimize" in loaded


_ORACLE_PROBE = """
import json, sys
import numpy as np
import repro.api
from repro.experiments.runner import ExperimentConfig, build_simulation, make_policy

def scipy_loaded():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

at_import = scipy_loaded()
cfg = ExperimentConfig.tiny(oracle_mode=sys.argv[1])
sim = build_simulation(cfg)
policy = make_policy("Oracle", cfg, sim.truth)
policy.reset(cfg.network(), cfg.horizon, np.random.default_rng(0))
after_reset = scipy_loaded()
slot = sim.workload.slot(0, np.random.default_rng(1))
policy.select(slot)
print(json.dumps([at_import, after_reset, scipy_loaded()]))
"""


@pytest.mark.parametrize("mode", ["lp", "ilp", "greedy", "dual"])
def test_oracle_reset_loads_the_mode_solver(mode):
    """The Oracle's first decide carries no solver import: reset() loads it.

    ``import repro.api`` (and building the Oracle) still leaves
    ``scipy.optimize`` out; after ``reset`` the solving modes have it, and
    the first ``select`` imports no further scipy module.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", _ORACLE_PROBE, mode], capture_output=True, text=True,
        env=env, timeout=120, check=True,
    )
    at_import, after_reset, after_select = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "scipy.optimize" not in at_import
    if mode in ("lp", "ilp"):
        assert "scipy.optimize" in after_reset
    else:
        assert "scipy.optimize" not in after_reset
    assert sorted(set(after_select) - set(after_reset)) == []
