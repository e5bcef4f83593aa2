"""The slot-by-slot offloading simulation loop (paper §3, §5).

Per slot t the loop is:

1. the workload emits the tasks present in the network and the coverage
   sets D_{m,t};
2. the policy (LFSC or a baseline) returns an :class:`Assignment` — which
   SCN, if any, each task is offloaded to — honouring the structural
   constraints (1a) capacity and (1b) no duplicate offloading;
3. the environment realizes the hidden processes (u, v, q) for the assigned
   pairs only (bandit feedback), applies the optional blockage channel, and
   computes the compound rewards g = u·v/q;
4. the recorder logs the slot's reward and the realized violations of the
   QoS constraint (1c) and the resource constraint (1d);
5. the policy receives the feedback and updates its internal state.

:class:`SlotKernel` is that cycle, written once: :meth:`Simulation.run`,
the online session (:mod:`repro.service.session`) and the fleet tile
(:mod:`repro.fleet.tile`) are thin loops over its ``slot`` / ``decide`` /
``feedback`` steps, and record through one :class:`SeriesRecorder`.

The policies never see the ground truth; the Oracle baseline receives a
:class:`GroundTruth` handle explicitly at construction, and the regret metric
uses the expected-reward series recorded here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.env.channel import BlockageChannel
from repro.env.network import NetworkConfig
from repro.env.processes import GroundTruth
from repro.env.window import (
    precompute_eligibility,
    precompute_slots,
    precompute_window,
    slot_layout,
)
from repro.env.window_cache import cached_window, window_key_base
from repro.env.workload import SlotWorkload, Workload
from repro.obs import metrics as obs_metrics
from repro.obs import runtime as obs_runtime
from repro.utils.rng import RngFactory
from repro.utils.timing import monotonic
from repro.utils.validation import check_positive

__all__ = [
    "Assignment",
    "SlotFeedback",
    "SlotObservation",
    "PolicyProtocol",
    "Simulation",
    "SimulationResult",
    "SERIES",
    "SeriesRecorder",
    "SlotKernel",
    "DEFAULT_WINDOW",
    "effective_window",
    "expected_pair_stats",
    "realize_feedback",
]

#: Default slot-streaming window: slots are precomputed in batches of this
#: size when the workload and policy allow it (see :meth:`Simulation.run`).
DEFAULT_WINDOW = 32

# A policy observes exactly the public slot information.
SlotObservation = SlotWorkload


@dataclass(frozen=True)
class Assignment:
    """An offloading decision: ``task[j]`` is offloaded to ``scn[j]``.

    Invariants (validated by :meth:`validate`):

    - each task index appears at most once (constraint 1b);
    - each SCN index appears at most ``capacity`` times (constraint 1a);
    - every pair lies in the coverage relation.
    """

    scn: np.ndarray
    task: np.ndarray

    def __post_init__(self) -> None:
        scn = np.asarray(self.scn, dtype=np.int64).ravel()
        task = np.asarray(self.task, dtype=np.int64).ravel()
        if scn.shape != task.shape:
            raise ValueError(f"scn and task differ in length: {scn.shape} vs {task.shape}")
        object.__setattr__(self, "scn", scn)
        object.__setattr__(self, "task", task)

    def __len__(self) -> int:
        return int(self.scn.shape[0])

    @staticmethod
    def empty() -> "Assignment":
        return Assignment(scn=np.empty(0, dtype=np.int64), task=np.empty(0, dtype=np.int64))

    def validate(self, slot: SlotWorkload, capacity: int) -> None:
        """Raise ValueError if the assignment breaks (1a), (1b) or coverage."""
        if len(self) == 0:
            return
        n = len(slot.tasks)
        if self.task.min() < 0 or self.task.max() >= n:
            raise ValueError("assignment references task index outside the slot")
        if self.scn.min() < 0 or self.scn.max() >= slot.num_scns:
            raise ValueError("assignment references SCN index outside the network")
        if np.unique(self.task).size != self.task.size:
            raise ValueError("constraint (1b) violated: a task assigned to multiple SCNs")
        counts = np.bincount(self.scn, minlength=slot.num_scns)
        if counts.max(initial=0) > capacity:
            worst = int(np.argmax(counts))
            raise ValueError(
                f"constraint (1a) violated: SCN {worst} assigned {counts[worst]} > c={capacity}"
            )
        # Coverage membership for all pairs at once: the slot layout's
        # (scn·n + task) key is sorted (segments in SCN order, tasks sorted
        # within; a windowed slot carries it prebuilt), so each pair is one
        # searchsorted away instead of an isin per SCN.
        cov_key = slot_layout(slot).edges.key
        if cov_key.size == 0:
            raise ValueError(
                f"SCN {int(self.scn.min())} assigned a task outside its coverage"
            )
        pair_key = self.scn * np.int64(n) + self.task
        pos = np.searchsorted(cov_key, pair_key)
        ok = cov_key[np.minimum(pos, cov_key.size - 1)] == pair_key
        if not ok.all():
            raise ValueError(
                f"SCN {int(self.scn[~ok].min())} assigned a task outside its coverage"
            )

    def tasks_of(self, m: int) -> np.ndarray:
        """Task indices assigned to SCN ``m``."""
        return self.task[self.scn == m]


@dataclass(frozen=True)
class SlotFeedback:
    """Bandit feedback for one slot's assignment.

    Arrays are aligned with the assignment's pairs: ``u[j]``, ``v[j]``,
    ``q[j]`` are the realizations for pair ``(scn[j], task[j])`` and
    ``g = u·v/q`` is the realized compound reward.
    """

    assignment: Assignment
    u: np.ndarray
    v: np.ndarray
    q: np.ndarray
    g: np.ndarray

    def per_scn_completed(self, num_scns: int) -> np.ndarray:
        """Σ_i v_i per SCN — realized completed-task counts (for (1c))."""
        return np.bincount(self.assignment.scn, weights=self.v, minlength=num_scns)

    def per_scn_consumption(self, num_scns: int) -> np.ndarray:
        """Σ_i q_i per SCN — realized resource consumption (for (1d))."""
        return np.bincount(self.assignment.scn, weights=self.q, minlength=num_scns)

    def per_scn_reward(self, num_scns: int) -> np.ndarray:
        """Σ_i g_i per SCN — realized compound reward."""
        return np.bincount(self.assignment.scn, weights=self.g, minlength=num_scns)


def realize_feedback(
    truth: GroundTruth,
    t: int,
    slot: SlotWorkload,
    assignment: Assignment,
    rng: np.random.Generator,
    channel: BlockageChannel | None = None,
    channel_rng: np.random.Generator | None = None,
) -> tuple[SlotFeedback, np.ndarray | None, np.ndarray | None]:
    """Realize the bandit feedback of ``assignment`` (step 3 of the loop).

    The hidden processes are drawn for the assigned pairs only; the optional
    blockage channel multiplies into v and g = u·v/q.  A precomputed slot's
    per-task truth cells are passed to ``realize``, which skips the per-call
    classification without touching a draw.  Returns ``(feedback,
    pair_contexts, pair_cells)`` — the pair inputs
    :func:`expected_pair_stats` reuses (None for an empty assignment or a
    slot without cells).
    """
    if len(assignment) == 0:
        u = v = q = g = np.empty(0)
        return SlotFeedback(assignment=assignment, u=u, v=v, q=q, g=g), None, None
    pair_contexts = slot.tasks.contexts[assignment.task]
    truth_cells = getattr(slot, "truth_cells", None)
    if truth_cells is None:
        pair_cells = None
        u, v, q = truth.realize(t, pair_contexts, assignment.scn, rng)
    else:
        pair_cells = truth_cells[assignment.task]
        u, v, q = truth.realize(t, pair_contexts, assignment.scn, rng, cells=pair_cells)
    if channel is not None:
        v = v * channel.link_up(t, assignment.scn, assignment.task, channel_rng)
    g = u * v / q
    return SlotFeedback(assignment=assignment, u=u, v=v, q=q, g=g), pair_contexts, pair_cells


def expected_pair_stats(
    truth: GroundTruth,
    t: int,
    pair_contexts: np.ndarray,
    scn: np.ndarray,
    pair_cells: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Expected ḡ, v̄ and q̄ of the assigned pairs (the paper's V1/V2 inputs).

    Only the <= M·c assigned pairs are needed, so the truth is evaluated
    pair-wise: one fused grid pass when the pairs' cells are known, else the
    two pair calls, else (duck-typed truths without the pair API) the dense
    ``(M, n)`` tables — component-wise identical results.
    """
    stats_fn = getattr(truth, "slot_pair_stats", None)
    if pair_cells is not None and stats_fn is not None:
        return stats_fn(t, pair_contexts, scn, cells=pair_cells)
    if hasattr(truth, "expected_compound_pairs") and hasattr(truth, "means_pairs"):
        exp_g = truth.expected_compound_pairs(t, pair_contexts, scn)
        _, p_v, mu_q = truth.means_pairs(t, pair_contexts, scn)
        return exp_g, p_v, mu_q
    rows = np.arange(scn.shape[0])
    exp_g = truth.expected_compound(t, pair_contexts)[scn, rows]
    p_v_dense, mu_q_dense = truth.means(t, pair_contexts)[1:]
    return exp_g, p_v_dense[scn, rows], mu_q_dense[scn, rows]


@runtime_checkable
class PolicyProtocol(Protocol):
    """Structural interface every offloading policy implements."""

    name: str

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        """Prepare for a fresh run of ``horizon`` slots."""

    def select(self, slot: SlotObservation) -> Assignment:
        """Choose the slot's offloading assignment."""

    def update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        """Consume bandit feedback for the assignment returned by select()."""


@dataclass
class SimulationResult:
    """Per-slot time series recorded by :class:`Simulation.run`.

    All series have length T (the horizon); per-SCN series have shape (T, M).

    Violations come in two bases:

    - ``violation_qos`` / ``violation_resource`` — the paper's V1/V2: per
      §3.2 these measure the *expected* completed-task count Σ v̄ and the
      expected consumption Σ q̄ of the selected set against α and β, so an
      Oracle meeting the constraints in expectation scores ~0 regardless of
      Bernoulli noise.  Available when ``record_expected=True`` (default).
    - ``violation_qos_realized`` / ``violation_resource_realized`` — the
      same shortfalls/excesses computed from the realized draws (Σ v_i,
      Σ q_i); these include irreducible realization noise and are what an
      operator would observe slot by slot.
    """

    policy_name: str
    horizon: int
    num_scns: int
    reward: np.ndarray
    expected_reward: np.ndarray
    completed: np.ndarray
    consumption: np.ndarray
    accepted: np.ndarray
    violation_qos: np.ndarray
    violation_resource: np.ndarray
    violation_qos_realized: np.ndarray | None = None
    violation_resource_realized: np.ndarray | None = None
    has_expected: bool = True
    #: Scenario-contributed per-slot series (e.g. sleep-mode ``"energy"``),
    #: exported by policies through a duck-typed ``result_extras()`` hook.
    extras: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # The realized series default to the recorded violation series, so
        # both attributes are always ndarrays after construction.
        if self.violation_qos_realized is None:
            self.violation_qos_realized = self.violation_qos
        if self.violation_resource_realized is None:
            self.violation_resource_realized = self.violation_resource

    @property
    def cumulative_reward(self) -> np.ndarray:
        """Running total of realized compound reward (Fig. 2a series)."""
        return np.cumsum(self.reward)

    @property
    def cumulative_expected_reward(self) -> np.ndarray:
        """Running total of expected compound reward (regret input)."""
        return np.cumsum(self.expected_reward)

    @property
    def cumulative_violation_qos(self) -> np.ndarray:
        """Running total of Σ_m [α − E(completed)_m]₊ — the paper's V1."""
        return np.cumsum(self.violation_qos)

    @property
    def cumulative_violation_resource(self) -> np.ndarray:
        """Running total of Σ_m [E(consumption)_m − β]₊ — the paper's V2."""
        return np.cumsum(self.violation_resource)

    @property
    def total_reward(self) -> float:
        return float(self.reward.sum())

    @property
    def total_violations(self) -> float:
        """V1(T) + V2(T) on the paper's expected basis."""
        return float(self.violation_qos.sum() + self.violation_resource.sum())

    @property
    def total_violations_realized(self) -> float:
        """V1(T) + V2(T) computed from realized draws."""
        return float(
            self.violation_qos_realized.sum() + self.violation_resource_realized.sum()
        )

    def summary(self) -> dict[str, float]:
        """Headline scalars for tables and EXPERIMENTS.md."""
        total_viol = self.total_violations
        out = {
            "total_reward": self.total_reward,
            "total_expected_reward": float(self.expected_reward.sum()),
            "violation_qos": float(self.violation_qos.sum()),
            "violation_resource": float(self.violation_resource.sum()),
            "total_violations": total_viol,
            "total_violations_realized": self.total_violations_realized,
            "performance_ratio": self.total_reward / (1.0 + total_viol),
            "mean_accepted_per_scn": float(self.accepted.mean()),
            "mean_completed_per_scn": float(self.completed.mean()),
        }
        if "energy" in self.extras:
            # Sleep-mode scenarios: total energy spent and its cost per
            # offloading decision (see repro.metrics.energy).
            total_energy = float(np.asarray(self.extras["energy"]).sum())
            decisions = float(self.accepted.sum())
            out["total_energy"] = total_energy
            out["energy_per_decision"] = total_energy / max(decisions, 1.0)
        return out


#: The per-slot series every run records, in checkpoint-payload order
#: (``series.<name>``).
SERIES = (
    "reward",
    "expected_reward",
    "completed",
    "consumption",
    "accepted",
    "violation_qos",
    "violation_resource",
    "violation_qos_realized",
    "violation_resource_realized",
)


class SeriesRecorder:
    """The :data:`SERIES` arrays of one run: allocated, written per slot, cut.

    ``record_expected`` adds the paper's expected-basis V1/V2 (and the
    expected reward); without it those arrays stay zero and the result's
    violation series are the realized ones.
    """

    def __init__(self, network: NetworkConfig, horizon: int, record_expected: bool) -> None:
        T, M = horizon, network.num_scns
        self.num_scns = M
        self.alpha, self.beta = network.alpha, network.beta
        self.record_expected = record_expected
        per_scn = {"completed": float, "consumption": float, "accepted": np.int64}
        self.arrays: dict[str, np.ndarray] = {
            name: np.zeros((T, M), dtype=per_scn[name]) if name in per_scn else np.zeros(T)
            for name in SERIES
        }

    def record(
        self,
        truth: GroundTruth,
        t: int,
        feedback: SlotFeedback,
        pair_contexts: np.ndarray | None,
        pair_cells: np.ndarray | None,
    ) -> None:
        """Write slot ``t``'s row of every series."""
        a = self.arrays
        M, alpha, beta = self.num_scns, self.alpha, self.beta
        scn = feedback.assignment.scn
        a["reward"][t] = feedback.g.sum()
        comp = feedback.per_scn_completed(M)
        cons = feedback.per_scn_consumption(M)
        a["completed"][t] = comp
        a["consumption"][t] = cons
        a["accepted"][t] = np.bincount(scn, minlength=M)
        a["violation_qos_realized"][t] = np.maximum(alpha - comp, 0.0).sum()
        a["violation_resource_realized"][t] = np.maximum(cons - beta, 0.0).sum()
        if not self.record_expected:
            return
        # The paper's V1/V2 use the expected completed count Σ v̄ and
        # expected consumption Σ q̄ of the selected set (§3.2).
        if scn.size > 0:
            exp_g, p_v, mu_q = expected_pair_stats(truth, t, pair_contexts, scn, pair_cells)
            a["expected_reward"][t] = exp_g.sum()
            exp_comp = np.bincount(scn, weights=p_v, minlength=M)
            exp_cons = np.bincount(scn, weights=mu_q, minlength=M)
        else:
            exp_comp = np.zeros(M)
            exp_cons = np.zeros(M)
        a["violation_qos"][t] = np.maximum(alpha - exp_comp, 0.0).sum()
        a["violation_resource"][t] = np.maximum(exp_cons - beta, 0.0).sum()

    def result(self, policy: PolicyProtocol, t: int) -> SimulationResult:
        """The first ``t`` slots as a :class:`SimulationResult` (copies)."""
        a = {name: arr[:t].copy() for name, arr in self.arrays.items()}
        extras_fn = getattr(policy, "result_extras", None)
        extras = (
            {k: np.asarray(v)[:t].copy() for k, v in extras_fn().items()}
            if callable(extras_fn)
            else {}
        )
        basis = "" if self.record_expected else "_realized"
        return SimulationResult(
            policy_name=policy.name,
            horizon=t,
            num_scns=self.num_scns,
            reward=a["reward"],
            expected_reward=a["expected_reward"],
            completed=a["completed"],
            consumption=a["consumption"],
            accepted=a["accepted"],
            violation_qos=a["violation_qos" + basis],
            violation_resource=a["violation_resource" + basis],
            violation_qos_realized=a["violation_qos_realized"],
            violation_resource_realized=a["violation_resource_realized"],
            has_expected=self.record_expected,
            extras=extras,
        )


def effective_window(
    workload: Workload, policy: PolicyProtocol, window: int | None
) -> tuple[int, object | None]:
    """The slot-streaming window size W for (workload, policy), and its partition.

    ``None`` → :data:`DEFAULT_WINDOW` when eligible, else 0 (per-slot);
    eligibility and the partition come from
    :func:`~repro.env.window.precompute_eligibility`.
    """
    if window is not None and window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    eligible, partition = precompute_eligibility(workload, policy)
    if not eligible:
        return 0, None
    return (DEFAULT_WINDOW if window is None else int(window)), partition


class SlotKernel:
    """One slot of Alg. 1 — observe, select, feedback, update — for every driver.

    :meth:`Simulation.run`, the online session and the fleet tile are thin
    loops over these three steps, so they share one slot body and one
    :class:`SeriesRecorder`:

    - :meth:`slot` draws slot ``t``: from the current window, refilling one
      of ``min(W, end - t)`` slots when it runs out, or per slot when
      W = 0; an external slot is derived through ``precompute_slots``;
    - :meth:`decide` selects (timed into ``latency`` when given) and
      validates;
    - :meth:`feedback` realizes the bandit feedback, records the slot, lets
      the policy learn, and advances the truth and the channel.

    The environment streams are the ``workload``, ``realizations`` and
    ``channel`` streams of ``rngs`` (stream contract v2).  The window cache
    is consulted only when the run has a cache key (see
    :func:`~repro.env.window_cache.window_key_base`).  With an obs context
    installed every slot gets the ``sim.*`` spans and one trace record;
    spans never touch an RNG, so trajectories are bit-identical with or
    without one.
    """

    def __init__(
        self,
        network: NetworkConfig,
        workload: Workload,
        truth: GroundTruth,
        channel: BlockageChannel | None,
        policy: PolicyProtocol,
        rngs: RngFactory,
        *,
        horizon: int,
        window: int | None,
        window_cache: object | None = None,
        validate: bool = True,
        record_expected: bool = True,
        latency: object | None = None,
    ) -> None:
        self.network = network
        self.workload = workload
        self.truth = truth
        self.channel = channel
        self.policy = policy
        self.workload_rng = rngs.env("workload")
        self.realize_rng = rngs.env("realizations")
        self.channel_rng = rngs.env("channel")
        self.validate = validate
        self.latency = latency
        self.series = SeriesRecorder(network, horizon, record_expected)
        self.window, self._partition = effective_window(workload, policy, window)
        self._cells_fn = getattr(truth, "context_cells", None)
        self._cache = self._key_base = None
        if window_cache is not None and self.window > 0:
            self._key_base = window_key_base(rngs, workload, truth, self._partition)
            if self._key_base is not None:
                self._cache = window_cache
        self._win_slots: tuple = ()
        self._win_start = self._win_end = 0
        self._ctx = None
        self._began = -1
        self._step_start = 0.0

    def _draw_window(self, t: int, count: int):
        if self._cache is not None:
            return cached_window(
                self._cache, self.workload, t, count, self.workload_rng,
                partition=self._partition, context_cells=self._cells_fn,
                key_base=self._key_base,
            )
        return precompute_window(
            self.workload, t, count, self.workload_rng,
            partition=self._partition, context_cells=self._cells_fn,
        )

    def slot(self, t: int, end: int, external: SlotWorkload | None = None) -> SlotWorkload:
        """Slot ``t``'s workload; a refilled window never reaches past ``end``.

        ``external`` (a slot built from outside arrivals) is used instead of
        a draw and leaves the workload stream untouched.
        """
        # One lookup per slot: with no context installed every step takes
        # the branch-free fast path.
        self._ctx = ctx = obs_runtime.active()
        if external is not None:
            if self.window == 0:
                return external
            return precompute_slots(
                [external], partition=self._partition, context_cells=self._cells_fn
            )[0]
        if self.window == 0:
            return self.workload.slot(t, self.workload_rng)
        if t >= self._win_end:
            count = min(self.window, end - t)
            if ctx is None:
                win = self._draw_window(t, count)
            else:
                ctx.begin_slot(t)
                self._began = t
                with ctx.span("sim.window.precompute"):
                    win = self._draw_window(t, count)
            self._win_slots = win.slots
            self._win_start, self._win_end = t, t + count
        slot = self._win_slots[t - self._win_start]
        if t + 1 == self._win_end:
            # Spent: a driver that pauses between calls (the fleet tile at
            # an exchange) must not keep the window alive.
            self._win_slots = ()
        return slot

    def _select(self, slot: SlotWorkload) -> Assignment:
        if self.latency is None:
            return self.policy.select(slot)
        start = monotonic()
        assignment = self.policy.select(slot)
        self.latency.record(monotonic() - start)
        return assignment

    def decide(self, t: int, slot: SlotWorkload) -> Assignment:
        """The policy's assignment for slot ``t``, validated when enabled."""
        ctx = self._ctx
        if ctx is None:
            assignment = self._select(slot)
        else:
            if self._began != t:
                ctx.begin_slot(t)
            self._step_start = monotonic()
            with ctx.span("sim.select"):
                assignment = self._select(slot)
        if self.validate:
            assignment.validate(slot, self.network.capacity)
        return assignment

    def feedback(self, t: int, slot: SlotWorkload, assignment: Assignment) -> SlotFeedback:
        """Realize, record, update, advance: the rest of slot ``t``."""
        feedback, pair_contexts, pair_cells = realize_feedback(
            self.truth, t, slot, assignment, self.realize_rng, self.channel, self.channel_rng
        )
        self.series.record(self.truth, t, feedback, pair_contexts, pair_cells)
        ctx = self._ctx
        if ctx is None:
            self.policy.update(slot, feedback)
        else:
            with ctx.span("sim.update"):
                self.policy.update(slot, feedback)
            if self.window > 0:
                ctx.add_span("sim.window.step", monotonic() - self._step_start)
            self._record_slot(ctx, t, len(assignment))
        self.truth.advance(t, self.realize_rng)
        if self.channel is not None:
            self.channel.advance(t, self.channel_rng)
        return feedback

    def _record_slot(self, ctx, t: int, assigned: int) -> None:
        """Assemble slot ``t``'s trace record (see ``repro.obs.trace.TRACE_SCHEMA``).

        Duals are read through a duck-typed ``policy.multipliers``
        attribute, so LFSC-family policies report them and multiplier-free
        baselines record null.
        """
        a = self.series.arrays
        expected = self.series.record_expected
        basis = "" if expected else "_realized"
        multipliers = getattr(self.policy, "multipliers", None)
        mult_qos = mult_res = None
        if multipliers is not None:
            mult_qos = np.asarray(multipliers.qos, dtype=float).tolist()
            mult_res = np.asarray(multipliers.resource, dtype=float).tolist()
        ctx.end_slot(
            {
                "t": t,
                "policy": self.policy.name,
                "assigned": assigned,
                "per_scn_assigned": a["accepted"][t].tolist(),
                "reward": float(a["reward"][t]),
                "expected_reward": float(a["expected_reward"][t]) if expected else None,
                "violation_qos": float(a["violation_qos" + basis][t]),
                "violation_resource": float(a["violation_resource" + basis][t]),
                "multipliers_qos": mult_qos,
                "multipliers_resource": mult_res,
            }
        )


@dataclass
class Simulation:
    """Binds a network, a workload, the hidden truth, and an optional channel.

    Parameters
    ----------
    network:
        Constraint constants (M, c, α, β).
    workload:
        Task/coverage generator; must agree with ``network.num_scns``.
    truth:
        Hidden ground truth of U, V, Q.
    channel:
        Optional dynamic blockage layer multiplying into v.
    seed:
        Root seed — an integer, ``None`` (fresh OS entropy), or a
        :class:`numpy.random.SeedSequence` (e.g. a replication child spawned
        under the frozen contract of :mod:`repro.utils.rng`).  Independent
        named streams are derived for the workload, the realizations, the
        channel, and the policy; the derivation depends only on the root
        seed and the stream names, never on process/worker topology, so a
        run is a pure function of ``(config, seed)``.
    validate_assignments:
        When True (default) every assignment is checked against (1a), (1b)
        and coverage — catching buggy policies at the slot they misbehave.
    window_cache:
        Optional cross-run window cache
        (:class:`repro.env.window_cache.WindowCache`): windowed runs look
        each window up by a content-addressed key (environment stream token,
        workload/partition/grid value tokens, window bounds) before
        generating it, and a hit restores the stored post-window RNG state
        and workload cursor so the live streams stay where a cold run would
        leave them.  Bit-identical on or off; shared across policies, sweep
        points, and (inherited by fork) pool worker processes.
    """

    network: NetworkConfig
    workload: Workload
    truth: GroundTruth
    channel: BlockageChannel | None = None
    seed: int | None | np.random.SeedSequence = 0
    validate_assignments: bool = True
    window_cache: object | None = None

    def __post_init__(self) -> None:
        if self.workload.num_scns != self.network.num_scns:
            raise ValueError(
                f"workload has {self.workload.num_scns} SCNs, network expects {self.network.num_scns}"
            )
        if self.truth.num_scns != self.network.num_scns:
            raise ValueError(
                f"truth has {self.truth.num_scns} SCNs, network expects {self.network.num_scns}"
            )


    def run(
        self,
        policy: PolicyProtocol,
        horizon: int,
        *,
        record_expected: bool = True,
        window: int | None = None,
    ) -> SimulationResult:
        """Run ``policy`` for ``horizon`` slots and record per-slot metrics.

        The same ``Simulation`` object can run several policies; each run
        re-derives its random streams from the root seed, so two policies
        face identical workload randomness (realization draws still depend
        on which tasks each policy selects — standard bandit semantics).

        Parameters
        ----------
        window:
            Slot-streaming window size W: workload generation, coverage
            edge lists, and context classification are precomputed for W
            slots at a time (:mod:`repro.env.window`), amortizing the
            per-slot rebuild.  ``None`` (default) picks
            :data:`DEFAULT_WINDOW` when the workload and policy are
            eligible; ``0`` forces the per-slot path.  Trajectories are
            bit-identical for every window size — the precompute consumes
            the RNG streams in exactly the per-slot order.
        """
        check_positive("horizon", horizon)
        rngs = RngFactory(self.seed)
        reset = getattr(self.workload, "reset", None)
        if callable(reset):
            reset()
        policy.reset(self.network, horizon, rngs.policy(policy.name))
        kernel = SlotKernel(
            self.network, self.workload, self.truth, self.channel, policy, rngs,
            horizon=horizon, window=window, window_cache=self.window_cache,
            validate=self.validate_assignments, record_expected=record_expected,
        )
        for t in range(horizon):
            slot = kernel.slot(t, horizon)
            kernel.feedback(t, slot, kernel.decide(t, slot))

        ctx = obs_runtime.active()
        if ctx is not None and ctx.tracer is not None:
            # Keep worker-process traces durable even when the process never
            # uninstalls its (env-var-installed) context.
            ctx.tracer.flush()
        series = kernel.series.arrays
        reg = obs_metrics.global_registry()
        reg.counter("sim.runs").inc()
        reg.counter("sim.slots").inc(horizon)
        reg.counter("sim.assigned_pairs").inc(float(series["accepted"].sum()))
        reg.gauge("sim.last_total_reward").set(float(series["reward"].sum()))
        return kernel.series.result(policy, horizon)
