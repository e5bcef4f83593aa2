"""Run manifests: what exactly produced this artifact?

Every replication, figure, and bench run can write a ``manifest.json``
capturing the full provenance needed to reproduce (or distrust) the output:
the experiment config, the seeds, the policies, the repo's git SHA and dirty
flag, the host, and the library versions.  ``BENCH_*.json`` files embed the
same dict under a ``"manifest"`` key instead of ad-hoc host notes.

The manifest is *descriptive*, never load-bearing: nothing in the codebase
reads a manifest to decide behaviour, so a missing git binary or a
dataclass config that is not JSON-serializable degrades to a string
representation instead of failing the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["MANIFEST_SCHEMA_VERSION", "build_manifest", "load_manifest", "write_manifest"]

MANIFEST_SCHEMA_VERSION = "repro-manifest/v1"


def _jsonable(value: Any) -> Any:
    """Best-effort JSON view: dataclasses become dicts, exotica become repr."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "tolist"):  # numpy scalars/arrays
        return _jsonable(value.tolist())
    return repr(value)


def _git_info() -> dict:
    """Commit SHA + dirty flag of the working tree, or why they are unknown."""
    try:
        root = Path(__file__).resolve()
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root.parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if sha.returncode != 0:
            return {"sha": None, "dirty": None, "error": sha.stderr.strip() or "not a git repo"}
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root.parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        return {
            "sha": sha.stdout.strip(),
            "dirty": bool(status.stdout.strip()) if status.returncode == 0 else None,
        }
    except (OSError, subprocess.SubprocessError) as exc:
        return {"sha": None, "dirty": None, "error": repr(exc)}


def _versions() -> dict:
    versions = {"python": platform.python_version()}
    for mod in ("numpy", "scipy", "networkx"):
        try:
            versions[mod] = __import__(mod).__version__
        except Exception:  # pragma: no cover - missing optional dep
            versions[mod] = None
    return versions


def build_manifest(
    *,
    kind: str = "run",
    config: Any = None,
    seeds: Sequence[int] | None = None,
    policies: Sequence[str] | None = None,
    extra: Mapping[str, Any] | None = None,
) -> dict:
    """Assemble the provenance dict for one run.

    Parameters
    ----------
    kind:
        What produced this manifest — ``"replication"``, ``"figure"``,
        ``"bench"``, ``"cli"`` … (free-form, for humans and summaries).
    config:
        The experiment config (dataclasses serialize field-by-field).
    seeds / policies:
        The run's seed list and policy line-up, when known.
    extra:
        Arbitrary additional JSON-serializable context.
    """
    git = _git_info()
    if kind == "bench" and git.get("dirty"):
        # Bench artifacts get committed (BENCH_*.json); a dirty tree means
        # the recorded SHA does not describe the measured code.  Still only
        # descriptive — warn loudly, never fail the run.
        print(
            "warning: bench manifest built from a dirty git tree — the "
            f"recorded sha {git.get('sha')!r} does not match the working "
            "copy (provenance will carry git.dirty=true)",
            file=sys.stderr,
        )
    manifest = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": kind,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "argv": list(sys.argv),
        "cwd": os.getcwd(),
        "git": git,
        "host": {
            "node": platform.node(),
            "machine": platform.machine(),
            "system": platform.system(),
            "cpu_count": os.cpu_count(),
        },
        "versions": _versions(),
        "config": _jsonable(config) if config is not None else None,
        "seeds": [int(s) for s in seeds] if seeds is not None else None,
        "policies": list(policies) if policies is not None else None,
        "scenario": _scenario_block(config),
    }
    if extra:
        manifest["extra"] = _jsonable(extra)
    return manifest


def _scenario_block(config: Any) -> dict | None:
    """Scenario name + params + content hash, when the config carries one.

    Manifests are descriptive, never load-bearing, so a spec that fails to
    resolve against the current registry records the error string instead of
    failing the run.
    """
    spec = getattr(config, "scenario", None)
    if spec is None:
        return None
    block = {"name": spec.name, "params": _jsonable(spec.param_dict())}
    try:
        from repro import scenarios

        block["hash"] = scenarios.scenario_hash(spec)
    except Exception as exc:
        block["hash"] = None
        block["error"] = repr(exc)
    return block


def write_manifest(path: str | Path, manifest: Mapping[str, Any] | None = None, **kwargs) -> Path:
    """Write ``manifest`` (or ``build_manifest(**kwargs)``) as JSON.

    ``path`` may be a directory — the file is then ``<path>/manifest.json``.
    Returns the path written.
    """
    if manifest is None:
        manifest = build_manifest(**kwargs)
    target = Path(path)
    if target.is_dir() or target.suffix == "":
        target = target / "manifest.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return target


def load_manifest(path: str | Path) -> dict:
    """Load a manifest written by :func:`write_manifest`."""
    target = Path(path)
    if target.is_dir():
        target = target / "manifest.json"
    return json.loads(target.read_text())
