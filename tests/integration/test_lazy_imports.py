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
