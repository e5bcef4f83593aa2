"""Every name the repository benchmark wraps still resolves.

``perfbench/hooks.py`` replaces module attributes and class methods at each
layer boundary (``BOUNDARIES``).  Its resolver raises ``AttributeError`` when
a loaded module no longer has a hooked name, which would crash the traced
benchmark run (``perfbench/run.py --trace 1``) while the rest of the suite
stays green.  This test imports each hooked module and resolves each entry.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

HOOKS_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "hooks.py"


def _load_hooks():
    spec = importlib.util.spec_from_file_location("_perfbench_hooks", HOOKS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


hooks = _load_hooks()


@pytest.mark.parametrize(
    "module,path", [(m, p) for m, p, _, _ in hooks.BOUNDARIES], ids=lambda v: v
)
def test_boundary_resolves(module, path):
    importlib.import_module(module)
    owner, attr, fn = hooks._resolve(module, path)
    assert owner is not None, f"{module} did not load"
    assert attr == path.rsplit(".", 1)[-1]
    assert callable(fn), f"{module}:{path} is not callable"


@pytest.mark.parametrize(
    "module,path",
    [("repro.utils.parallel", "_run_chunk"), ("repro.fleet.driver", "_shard_worker")],
)
def test_task_root_resolves(module, path):
    importlib.import_module(module)
    assert callable(hooks._resolve(module, path)[2])
