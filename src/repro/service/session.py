"""The stateful online offloading session behind ``repro serve``.

:class:`OnlineSession` is the one-slot-at-a-time driver of the shared slot
kernel (:class:`repro.env.simulator.SlotKernel`): the same environment
objects, the same frozen RNG streams (stream contract v2) and the same slot
body as :meth:`repro.env.simulator.Simulation.run`, at a window of one.
Synthetic slots are drawn by ``precompute_window(…, count=1)``, external
slots are derived by ``precompute_slots``.  A session driven to slot T
produces trajectories bit-identical to the batch simulator's ``window=0``
run (gated by ``tests/service/test_resume_equivalence.py`` and by the
``service_daemon`` gate of ``perfbench/run.py``).  What it adds over the
batch loop is *control*: each slot splits into

- :meth:`decide` — generate (or accept) the slot's arrivals and answer the
  assignment query, and
- :meth:`feedback` — realize the bandit feedback, record the slot's series,
  and let the policy learn,

so a daemon can answer queries with bounded latency, and the session can be
checkpointed at any slot boundary (:meth:`save`) and restored in a fresh
process (:meth:`from_checkpoint`) without perturbing a single draw.

The snapshot captures the five state families an uninterrupted run threads
through time: policy learning state (weights, multipliers, statistics,
adaptive partition), the four live RNG stream positions, the workload's
non-RNG cursor, non-stationary truth state, and the recorded series.
Everything else is rebuilt deterministically from the embedded config.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.adaptive import AdaptivePartition
from repro.core.config import LFSCConfig
from repro.core.hypercube import ContextPartition
from repro.env.simulator import (
    SERIES,
    Assignment,
    PolicyProtocol,
    SimulationResult,
    SlotFeedback,
    SlotKernel,
    SlotObservation,
)
from repro.experiments.runner import (
    ExperimentConfig,
    build_channel,
    build_truth,
    build_workload,
)
from repro.scenarios.spec import ScenarioSpec
from repro.obs import runtime as obs_runtime
from repro.obs.manifest import build_manifest
from repro.service.checkpoint import (
    CheckpointError,
    CheckpointFormatError,
    read_checkpoint,
    write_checkpoint,
)
from repro.utils.rng import RngFactory, generator_state, restore_generator_state

__all__ = [
    "OnlineSession",
    "config_from_dict",
    "config_to_dict",
    "describe_checkpoint",
    "make_session_policy",
]

#: Config fields whose values are tuples (JSON stores them as lists).
_TUPLE_FIELDS = ("u_range", "v_range", "q_range")


# ---------------------------------------------------------------------------
# Config <-> JSON (the checkpoint header embeds the full experiment config).
# ---------------------------------------------------------------------------


def _partition_to_dict(partition) -> dict:
    if isinstance(partition, AdaptivePartition):
        return {
            "kind": "adaptive",
            "dims": partition.dims,
            "max_leaves": partition.max_leaves,
            "split_base": partition.split_base,
            "split_rho": partition.split_rho,
        }
    if isinstance(partition, ContextPartition):
        return {"kind": "grid", "dims": partition.dims, "parts": partition.parts}
    raise CheckpointFormatError(
        f"cannot serialize partition type {type(partition).__name__}"
    )


def _partition_from_dict(spec: Mapping) -> ContextPartition | AdaptivePartition:
    kind = spec.get("kind")
    if kind == "adaptive":
        return AdaptivePartition(
            dims=int(spec["dims"]),
            max_leaves=int(spec["max_leaves"]),
            split_base=float(spec["split_base"]),
            split_rho=float(spec["split_rho"]),
        )
    if kind == "grid":
        return ContextPartition(dims=int(spec["dims"]), parts=int(spec["parts"]))
    raise CheckpointFormatError(f"unknown partition kind {kind!r}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    """A JSON-safe dict that :func:`config_from_dict` inverts exactly."""
    out: dict = {}
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if f.name == "lfsc":
            if value is None:
                out[f.name] = None
            else:
                lfsc = {
                    lf.name: getattr(value, lf.name)
                    for lf in dataclasses.fields(value)
                    if lf.name != "partition"
                }
                lfsc["partition"] = _partition_to_dict(value.partition)
                out[f.name] = lfsc
        elif f.name == "scenario":
            out[f.name] = None if value is None else value.to_dict()
        elif isinstance(value, tuple):
            out[f.name] = list(value)
        else:
            out[f.name] = value
    return out


def _lfsc_from_dict(doc: Mapping) -> LFSCConfig:
    """Rebuild the ``lfsc`` block, failing closed on anything it cannot use.

    Older checkpoints carry the retired slot-engine choice (``"engine"``);
    both of its values ran the same bit-identical trajectory, so either one
    is dropped and the run resumes unchanged.
    """
    try:
        lfsc = dict(doc)
        engine = lfsc.pop("engine", "batched")
        if engine not in ("batched", "reference"):
            raise CheckpointFormatError(f"config.lfsc has unknown engine {engine!r}")
        lfsc["partition"] = _partition_from_dict(lfsc["partition"])
        return LFSCConfig(**lfsc)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"config.lfsc does not validate: {exc!r}") from exc


def config_from_dict(doc: Mapping) -> ExperimentConfig:
    """Rebuild an :class:`ExperimentConfig` from :func:`config_to_dict` output.

    Older checkpoints carry the retired Oracle solver-cache switch
    (``"oracle_cache"``); both of its values ran the same bit-identical
    trajectory, so either one is dropped and the run resumes unchanged.
    """
    if not isinstance(doc, Mapping):
        raise CheckpointFormatError(f"config is a {type(doc).__name__}, not a mapping")
    doc = dict(doc)
    legacy = doc.pop("oracle_cache", True)
    if not isinstance(legacy, bool):
        raise CheckpointFormatError(f"config has non-boolean oracle_cache {legacy!r}")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - known
    if unknown:
        raise CheckpointFormatError(
            f"config has unknown fields {sorted(unknown)} — "
            "written by a newer repro version?"
        )
    kwargs: dict = {}
    for name, value in doc.items():
        if name == "lfsc":
            kwargs[name] = None if value is None else _lfsc_from_dict(value)
        elif name == "scenario":
            kwargs[name] = None if value is None else ScenarioSpec.from_dict(value)
        elif name in _TUPLE_FIELDS:
            kwargs[name] = tuple(value)
        else:
            kwargs[name] = value
    try:
        return ExperimentConfig(**kwargs)
    except (TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"config does not validate: {exc}") from exc


def make_session_policy(name: str, cfg: ExperimentConfig, truth) -> PolicyProtocol:
    """Thin delegate to the policy registry's factory.

    Kept as a named seam for checkpoint headers: the stored ``policy`` field
    is a registry spec string (``"LFSC-adaptive"``, ``"linucb(alpha=0.5)"``,
    ...) and resolves through :func:`repro.policies.make_policy` — the
    historical special-casing of ``"LFSC-adaptive"`` now lives in the
    registry's builder table.
    """
    from repro import policies as policy_registry

    return policy_registry.make_policy(name, cfg, truth)


def _scenario_header(cfg: ExperimentConfig) -> dict | None:
    """The checkpoint header's scenario block: spec + content hash.

    The hash digests the *resolved* parameter document, so a registry whose
    defaults drifted since the checkpoint was written produces a different
    hash — the fail-closed signal :meth:`OnlineSession.from_checkpoint`
    verifies before rebuilding the environment.
    """
    if cfg.scenario is None:
        return None
    from repro import scenarios

    return {
        "name": cfg.scenario.name,
        "params": cfg.scenario.param_dict(),
        "hash": scenarios.scenario_hash(cfg.scenario),
    }


def _verify_scenario_header(cfg: ExperimentConfig, header: Mapping) -> None:
    """Fail closed when the stored scenario no longer resolves identically."""
    stored = header.get("scenario")
    if cfg.scenario is None and stored is None:
        return
    if (cfg.scenario is None) != (stored is None):
        raise CheckpointFormatError(
            "checkpoint scenario block and config scenario field disagree"
        )
    from repro import scenarios

    try:
        current = scenarios.scenario_hash(cfg.scenario)
    except scenarios.ScenarioError as exc:
        raise CheckpointFormatError(
            f"checkpoint scenario {cfg.scenario.name!r} does not resolve "
            f"against the current registry: {exc}"
        ) from exc
    if current != stored.get("hash"):
        raise CheckpointFormatError(
            f"scenario hash mismatch for {cfg.scenario.name!r}: checkpoint has "
            f"{stored.get('hash')}, current registry resolves to {current} — "
            "the scenario's definition changed since this checkpoint was written"
        )


def _split_state(state: Mapping) -> tuple[dict, dict[str, np.ndarray]]:
    """Route a checkpoint-state dict into (JSON scalars, array payload)."""
    scalars: dict = {}
    arrays: dict[str, np.ndarray] = {}
    for key, value in state.items():
        if isinstance(value, np.ndarray):
            arrays[key] = value
        elif isinstance(value, (np.integer, np.floating, np.bool_)):
            scalars[key] = value.item()
        else:
            scalars[key] = value
    return scalars, arrays


# ---------------------------------------------------------------------------
# The session.
# ---------------------------------------------------------------------------


class OnlineSession:
    """A long-lived, checkpointable slot-by-slot offloading run.

    Parameters
    ----------
    config:
        The experiment spec; environment, streams, and policy all derive
        from it, so ``(config, policy_name)`` fully determines the run.
    policy:
        Policy name (``"LFSC"``, ``"LFSC-adaptive"``, any runner baseline).
    record_expected:
        Record the paper's expected-basis violation series (default True,
        matching :meth:`Simulation.run`).
    validate_assignments:
        Validate every assignment against (1a)/(1b)/coverage (default True).

    Note: when ``config.lfsc`` embeds an :class:`AdaptivePartition`, the
    partition *object* is shared with the session's policy and mutates as
    the tree refines — build one config per concurrent session.
    """

    def __init__(
        self,
        config: ExperimentConfig,
        policy: str = "LFSC",
        *,
        record_expected: bool = True,
        validate_assignments: bool = True,
    ) -> None:
        self.config = config
        self.policy_name = str(policy)
        self.record_expected = bool(record_expected)
        self.validate_assignments = bool(validate_assignments)
        self.horizon = int(config.horizon)

        self.network = config.network()
        self.workload = build_workload(config)
        self.truth = build_truth(config)
        self.channel = build_channel(config)
        rngs = RngFactory(config.seed)
        self.policy = make_session_policy(self.policy_name, config, self.truth)

        self.workload.reset()
        self.policy.reset(self.network, self.horizon, rngs.policy(self.policy.name))
        # W = 1 with no prefetch: every slot takes the windowed kernel when
        # the batch simulator would window this (workload, policy) pair, and
        # a checkpoint between slots carries no window state.
        self._kernel = SlotKernel(
            self.network, self.workload, self.truth, self.channel, self.policy, rngs,
            horizon=self.horizon, window=1,
            validate=self.validate_assignments, record_expected=self.record_expected,
        )
        self.t = 0
        self._pending: tuple[SlotObservation, Assignment] | None = None

    # -- the decide/feedback slot cycle --------------------------------------

    @property
    def pending(self) -> bool:
        """True between a :meth:`decide` and its :meth:`feedback`."""
        return self._pending is not None

    def decide(self, slot: SlotObservation | None = None) -> Assignment:
        """Answer slot ``t``'s assignment query.

        With no argument the session's synthetic workload generates the
        slot's arrivals (consuming the workload stream exactly as the batch
        simulator would).  An explicit ``slot`` — e.g. one built by the
        daemon from externally queued arrivals — is used verbatim and must
        carry the current slot index; external slots leave the workload
        stream untouched, so they are for live serving, not for replaying
        the synthetic trajectory.  Either way the slot reaches the policy
        as a :class:`~repro.env.window.PrecomputedSlot` when the session is
        eligible for precompute (see ``precompute_eligibility``).
        """
        if self._pending is not None:
            raise RuntimeError(
                "decide() called twice for one slot: feedback() must run first"
            )
        if self.t >= self.horizon:
            raise RuntimeError(
                f"session horizon {self.horizon} exhausted (t={self.t}); "
                "start a new session with a longer config.horizon"
            )
        with obs_runtime.span("service.decide"):
            if slot is not None and slot.t != self.t:
                raise ValueError(
                    f"external slot carries t={slot.t}, session expects t={self.t}"
                )
            slot = self._kernel.slot(self.t, self.t + 1, external=slot)
            assignment = self._kernel.decide(self.t, slot)
        self._pending = (slot, assignment)
        return assignment

    def feedback(self) -> SlotFeedback:
        """Realize slot ``t``'s bandit feedback, record it, let the policy learn."""
        if self._pending is None:
            raise RuntimeError("feedback() called with no pending decision")
        slot, assignment = self._pending
        with obs_runtime.span("service.feedback"):
            feedback = self._kernel.feedback(self.t, slot, assignment)
        self._pending = None
        self.t += 1
        return feedback

    def step(self) -> SlotFeedback:
        """One full slot: :meth:`decide` then :meth:`feedback`."""
        self.decide()
        return self.feedback()

    def run(self, slots: int | None = None) -> "OnlineSession":
        """Advance ``slots`` full slots (default: to the horizon)."""
        remaining = self.horizon - self.t
        count = remaining if slots is None else int(slots)
        if count < 0 or count > remaining:
            raise ValueError(
                f"cannot run {count} slots from t={self.t} with horizon {self.horizon}"
            )
        for _ in range(count):
            self.step()
        return self

    def result(self) -> SimulationResult:
        """The recorded series so far as a :class:`SimulationResult`.

        Series are truncated to the completed slots, so a session driven to
        the horizon returns arrays directly comparable (``np.array_equal``)
        to a :meth:`Simulation.run` result.
        """
        return self._kernel.series.result(self.policy, self.t)

    # -- checkpoint / restore -------------------------------------------------

    def snapshot(self) -> tuple[dict, dict[str, np.ndarray]]:
        """The session's full state as ``(header, arrays)``.

        Only legal at a slot boundary — a pending decision references the
        live slot object and cannot be serialized faithfully.
        """
        if self._pending is not None:
            raise CheckpointError(
                "cannot checkpoint with a pending decision: feedback() must run first"
            )
        policy_scalars, policy_arrays = _split_state(self.policy.checkpoint_state())
        truth_scalars, truth_arrays = _split_state(self.truth.checkpoint_state())
        workload_state_fn = getattr(self.workload, "checkpoint_state", None)
        workload_scalars: dict | None = None
        workload_arrays: dict[str, np.ndarray] = {}
        if callable(workload_state_fn):
            workload_scalars, workload_arrays = _split_state(workload_state_fn())
        channel_state_fn = getattr(self.channel, "checkpoint_state", None)
        channel_scalars: dict | None = None
        channel_arrays: dict[str, np.ndarray] = {}
        if callable(channel_state_fn):
            channel_scalars, channel_arrays = _split_state(channel_state_fn())
        cursor = getattr(self.workload, "cursor", None)
        kernel = self._kernel
        header = {
            "kind": "session",
            "config": config_to_dict(self.config),
            "policy": self.policy_name,
            "t": int(self.t),
            "horizon": int(self.horizon),
            "record_expected": self.record_expected,
            "validate_assignments": self.validate_assignments,
            "rng": {
                "workload": generator_state(kernel.workload_rng),
                "realizations": generator_state(kernel.realize_rng),
                "channel": generator_state(kernel.channel_rng),
                "policy": generator_state(self.policy.rng),
            },
            "workload_cursor": int(cursor()) if callable(cursor) else None,
            "policy_state": policy_scalars,
            "truth_state": truth_scalars,
            "workload_state": workload_scalars,
            "channel_state": channel_scalars,
            "scenario": _scenario_header(self.config),
            "manifest": build_manifest(
                kind="checkpoint",
                config=self.config,
                policies=[self.policy_name],
                extra={"t": int(self.t), "horizon": int(self.horizon)},
            ),
        }
        arrays: dict[str, np.ndarray] = {}
        for name in SERIES:
            arrays[f"series.{name}"] = kernel.series.arrays[name]
        for key, value in policy_arrays.items():
            arrays[f"policy.{key}"] = value
        for key, value in truth_arrays.items():
            arrays[f"truth.{key}"] = value
        for key, value in workload_arrays.items():
            arrays[f"workload.{key}"] = value
        for key, value in channel_arrays.items():
            arrays[f"channel.{key}"] = value
        return header, arrays

    def save(self, path: str | Path) -> Path:
        """Atomically write a ``repro-checkpoint/v1`` file for this session."""
        header, arrays = self.snapshot()
        return write_checkpoint(path, header, arrays)

    @classmethod
    def from_checkpoint(cls, path: str | Path) -> "OnlineSession":
        """Rebuild a session from a checkpoint, bit-identical to never stopping.

        The constructor re-derives every config-determined object; the
        snapshot then overwrites exactly the state an uninterrupted run
        would have mutated — stream positions are restored *in place* on
        the factory-cached generator objects the components already hold.
        """
        header, arrays = read_checkpoint(path)
        if header.get("kind") != "session":
            raise CheckpointFormatError(
                f"checkpoint kind is {header.get('kind')!r}, expected 'session'"
            )
        cfg = config_from_dict(header["config"])
        # Fail closed before building anything: a scenario whose registry
        # definition drifted would silently rebuild a different environment.
        _verify_scenario_header(cfg, header)
        session = cls(
            cfg,
            policy=header["policy"],
            record_expected=bool(header.get("record_expected", True)),
            validate_assignments=bool(header.get("validate_assignments", True)),
        )
        try:
            rng = header["rng"]
            kernel = session._kernel
            restore_generator_state(kernel.workload_rng, rng["workload"])
            restore_generator_state(kernel.realize_rng, rng["realizations"])
            restore_generator_state(kernel.channel_rng, rng["channel"])
            restore_generator_state(session.policy.rng, rng["policy"])

            cursor = header.get("workload_cursor")
            if cursor is not None:
                restore = getattr(session.workload, "restore_cursor", None)
                if callable(restore):
                    restore(int(cursor))

            policy_state = dict(header.get("policy_state", {}))
            truth_state = dict(header.get("truth_state", {}))
            workload_state = dict(header.get("workload_state") or {})
            channel_state = dict(header.get("channel_state") or {})
            has_workload_state = header.get("workload_state") is not None
            has_channel_state = header.get("channel_state") is not None
            for key, value in arrays.items():
                section, _, name = key.partition(".")
                if section == "policy":
                    policy_state[name] = value
                elif section == "truth":
                    truth_state[name] = value
                elif section == "workload":
                    workload_state[name] = value
                elif section == "channel":
                    channel_state[name] = value
                elif section == "series":
                    target = kernel.series.arrays.get(name)
                    if target is None or target.shape != value.shape:
                        raise CheckpointFormatError(
                            f"series {name!r} has shape {value.shape}, "
                            f"expected {None if target is None else target.shape}"
                        )
                    target[...] = value
                else:
                    raise CheckpointFormatError(f"unknown array section in {key!r}")
            session.policy.restore_checkpoint_state(policy_state)
            session.truth.restore_checkpoint_state(truth_state)
            if has_workload_state:
                restore_wl = getattr(session.workload, "restore_checkpoint_state", None)
                if callable(restore_wl):
                    restore_wl(workload_state)
            if has_channel_state:
                restore_ch = getattr(session.channel, "restore_checkpoint_state", None)
                if callable(restore_ch):
                    restore_ch(channel_state)

            t = int(header["t"])
            if not 0 <= t <= session.horizon:
                raise CheckpointFormatError(
                    f"slot cursor {t} outside horizon {session.horizon}"
                )
            session.t = t
        except CheckpointError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointFormatError(
                f"checkpoint state does not restore cleanly: {exc}"
            ) from exc
        return session


def describe_checkpoint(path: str | Path) -> dict:
    """Validate a checkpoint file and summarize it (for ``repro checkpoint``).

    Reads and digest-verifies the full file, then reports the header's
    run coordinates plus array inventory — without building a session.
    """
    header, arrays = read_checkpoint(path)
    cfg = header.get("config", {})
    return {
        "path": str(path),
        "schema": "repro-checkpoint/v1",
        "kind": header.get("kind"),
        "policy": header.get("policy"),
        "t": header.get("t"),
        "horizon": header.get("horizon"),
        "scenario": header.get("scenario"),
        "seed": cfg.get("seed"),
        "num_scns": cfg.get("num_scns"),
        "arrays": {
            name: {"dtype": str(arr.dtype), "shape": list(arr.shape)}
            for name, arr in sorted(arrays.items())
        },
        "created_at": (header.get("manifest") or {}).get("created_at"),
    }
