"""Run manifests: content regression and file round-trip."""

import dataclasses
import json

import numpy as np

from repro.obs.manifest import (
    MANIFEST_SCHEMA_VERSION,
    build_manifest,
    load_manifest,
    write_manifest,
)

REQUIRED_KEYS = {
    "schema",
    "kind",
    "created_at",
    "argv",
    "cwd",
    "git",
    "host",
    "versions",
    "config",
    "seeds",
    "policies",
}


@dataclasses.dataclass(frozen=True)
class _FakeConfig:
    horizon: int = 100
    seed: int = 7
    weights: tuple = (0.5, 0.5)


class TestBuildManifest:
    def test_required_keys_present(self):
        m = build_manifest()
        assert REQUIRED_KEYS <= set(m)
        assert m["schema"] == MANIFEST_SCHEMA_VERSION
        assert m["kind"] == "run"

    def test_is_json_serializable(self):
        m = build_manifest(
            config=_FakeConfig(),
            seeds=np.arange(3),
            policies=("LFSC",),
            extra={"array": np.ones(2), "obj": object()},
        )
        text = json.dumps(m)  # must not raise
        assert "LFSC" in text

    def test_dataclass_config_serialized_field_by_field(self):
        m = build_manifest(config=_FakeConfig(horizon=42))
        assert m["config"] == {"horizon": 42, "seed": 7, "weights": [0.5, 0.5]}

    def test_seeds_coerced_to_ints(self):
        m = build_manifest(seeds=np.array([1, 2, 3], dtype=np.int64))
        assert m["seeds"] == [1, 2, 3]
        assert all(type(s) is int for s in m["seeds"])

    def test_versions_capture_runtime(self):
        m = build_manifest()
        assert m["versions"]["python"]
        assert m["versions"]["numpy"] == np.__version__

    def test_git_info_present_in_repo(self):
        git = build_manifest()["git"]
        # In the repo this should be a 40-hex SHA; degrade gracefully outside.
        assert git["sha"] is None or len(git["sha"]) == 40

    def test_extra_included_only_when_given(self):
        assert "extra" not in build_manifest()
        assert build_manifest(extra={"k": 1})["extra"] == {"k": 1}


class TestWriteLoad:
    def test_directory_target_appends_filename(self, tmp_path):
        written = write_manifest(tmp_path / "out", kind="bench")
        assert written == tmp_path / "out" / "manifest.json"
        assert load_manifest(tmp_path / "out")["kind"] == "bench"

    def test_explicit_file_target(self, tmp_path):
        target = tmp_path / "custom.manifest.json"
        write_manifest(target, kind="figure", policies=["LFSC"])
        loaded = load_manifest(target)
        assert loaded["kind"] == "figure"
        assert loaded["policies"] == ["LFSC"]

    def test_prebuilt_manifest_written_verbatim(self, tmp_path):
        m = build_manifest(kind="replication", seeds=[4, 5])
        write_manifest(tmp_path / "m.json", m)
        assert load_manifest(tmp_path / "m.json") == m
