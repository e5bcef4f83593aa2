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
from repro.env.window import precompute_eligibility, precompute_window
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
    "DEFAULT_WINDOW",
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
        # Coverage membership for all pairs at once: encode (scn, task) as
        # scn·n + task, sort the coverage keys once, and check each pair by
        # sorted membership — one searchsorted instead of an isin per SCN.
        edges = getattr(slot, "edges", None)
        if edges is not None and edges.num_tasks == n:
            # Windowed slots carry the sorted key already (segments in SCN
            # order, tasks sorted within) — skip the rebuild + sort.
            cov_key = edges.key
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
            return
        cov_parts = [np.asarray(c, dtype=np.int64) for c in slot.coverage]
        lengths = np.fromiter((c.shape[0] for c in cov_parts), dtype=np.int64, count=len(cov_parts))
        if lengths.sum() == 0:
            raise ValueError(
                f"SCN {int(self.scn.min())} assigned a task outside its coverage"
            )
        cov_key = np.repeat(np.arange(len(cov_parts), dtype=np.int64), lengths) * n
        cov_key += np.concatenate(cov_parts)
        cov_key.sort()
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
    solver_cache:
        Optional solver cache (:class:`repro.solvers.cache.SlotProblemCache`)
        handed to any policy exposing ``attach_solver_cache`` at the start
        of each run — the driver-side half of the Oracle caching layer
        (DESIGN.md §8).  Purely an accelerator: cached runs are bit-identical
        to cold runs, and windowed slots feed the cache their precomputed
        edge arrays through the same window loop.
    window_cache:
        Optional cross-run window cache
        (:class:`repro.env.window_cache.WindowCache`): windowed runs look
        each window up by a content-addressed key (environment stream token,
        workload/partition/grid value tokens, window bounds) before
        generating it, and a hit restores the stored post-window RNG state
        and workload cursor so the live streams stay where a cold run would
        leave them.  Bit-identical on or off; shared across policies, sweep
        points, and (via ``repro.env.window_cache.export_window_state``)
        worker processes.
    """

    network: NetworkConfig
    workload: Workload
    truth: GroundTruth
    channel: BlockageChannel | None = None
    seed: int | None | np.random.SeedSequence = 0
    validate_assignments: bool = True
    solver_cache: object | None = None
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

    @staticmethod
    def _record_slot(
        ctx,
        policy: PolicyProtocol,
        t: int,
        assignment: Assignment,
        per_scn_assigned: np.ndarray,
        reward: float,
        expected_reward: float | None,
        violation_qos: float,
        violation_resource: float,
    ) -> None:
        """Assemble one slot's trace record (see ``repro.obs.trace.TRACE_SCHEMA``).

        Runs only when an obs context is installed; duals are read through a
        duck-typed ``policy.multipliers`` attribute so LFSC-family policies
        report them and multiplier-free baselines record null.
        """
        multipliers = getattr(policy, "multipliers", None)
        mult_qos = mult_res = None
        if multipliers is not None:
            mult_qos = np.asarray(multipliers.qos, dtype=float).tolist()
            mult_res = np.asarray(multipliers.resource, dtype=float).tolist()
        ctx.end_slot(
            {
                "t": t,
                "policy": policy.name,
                "assigned": len(assignment),
                "per_scn_assigned": per_scn_assigned.tolist(),
                "reward": reward,
                "expected_reward": expected_reward,
                "violation_qos": violation_qos,
                "violation_resource": violation_resource,
                "multipliers_qos": mult_qos,
                "multipliers_resource": mult_res,
            }
        )

    def _effective_window(self, policy: PolicyProtocol, window: int | None) -> int:
        """Resolve the slot-streaming window size for this (policy, workload).

        ``None`` → :data:`DEFAULT_WINDOW` when eligible, else 0 (per-slot);
        eligibility is :func:`~repro.env.window.precompute_eligibility`.
        """
        if window is not None and window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        if not precompute_eligibility(self.workload, policy)[0]:
            return 0
        return DEFAULT_WINDOW if window is None else int(window)

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
        # One lookup per run: when no observability context is installed the
        # loop below takes the branch-free fast path (obs adds nothing but
        # a handful of end-of-run counter bumps).  Tracing and spans are
        # purely observational — they never touch an RNG — so trajectories
        # are bit-identical whether ``ctx`` is live or None.
        ctx = obs_runtime.active()
        # Stream contract v2: environment streams derive in a spawn-key
        # namespace disjoint from the policy namespace, so the environment's
        # randomness is independent of which policy runs (or what it is
        # called) — the invariant the window cache and the cross-policy
        # sharing of precomputed artifacts rest on.
        rngs = RngFactory(self.seed)
        workload_rng = rngs.env("workload")
        realize_rng = rngs.env("realizations")
        channel_rng = rngs.env("channel")
        policy_rng = rngs.policy(policy.name)

        reset = getattr(self.workload, "reset", None)
        if callable(reset):
            reset()
        if self.solver_cache is not None:
            attach = getattr(policy, "attach_solver_cache", None)
            if callable(attach):
                attach(self.solver_cache)
        policy.reset(self.network, horizon, policy_rng)

        M = self.network.num_scns
        alpha, beta = self.network.alpha, self.network.beta
        window_size = self._effective_window(policy, window)
        use_window = window_size > 0
        if use_window:
            win_partition = precompute_eligibility(self.workload, policy)[1]
            win_cells_fn = getattr(self.truth, "context_cells", None)
            win_slots: tuple = ()
            win_start = win_end = 0
            wcache = self.window_cache
            wkey_base = None
            if wcache is not None:
                wkey_base = window_key_base(rngs, self.workload, self.truth, win_partition)
                if wkey_base is None:
                    wcache = None
        reward = np.zeros(horizon)
        expected_reward = np.zeros(horizon)
        completed = np.zeros((horizon, M))
        consumption = np.zeros((horizon, M))
        accepted = np.zeros((horizon, M), dtype=np.int64)
        viol_qos_real = np.zeros(horizon)
        viol_res_real = np.zeros(horizon)
        viol_qos_exp = np.zeros(horizon)
        viol_res_exp = np.zeros(horizon)

        for t in range(horizon):
            if use_window:
                if t >= win_end:
                    count = min(window_size, horizon - t)
                    if ctx is None:
                        if wcache is not None:
                            win = cached_window(
                                wcache, self.workload, t, count, workload_rng,
                                partition=win_partition, context_cells=win_cells_fn,
                                key_base=wkey_base,
                            )
                        else:
                            win = precompute_window(
                                self.workload, t, count, workload_rng,
                                partition=win_partition, context_cells=win_cells_fn,
                            )
                    else:
                        ctx.begin_slot(t)
                        with ctx.span("sim.window.precompute"):
                            if wcache is not None:
                                win = cached_window(
                                    wcache, self.workload, t, count, workload_rng,
                                    partition=win_partition, context_cells=win_cells_fn,
                                    key_base=wkey_base,
                                )
                            else:
                                win = precompute_window(
                                    self.workload, t, count, workload_rng,
                                    partition=win_partition, context_cells=win_cells_fn,
                                )
                    win_slots = win.slots
                    win_start, win_end = t, t + count
                slot = win_slots[t - win_start]
            else:
                slot = self.workload.slot(t, workload_rng)
            if ctx is None:
                assignment = policy.select(slot)
            else:
                if not (use_window and t == win_start):
                    ctx.begin_slot(t)
                step_start = monotonic()
                with ctx.span("sim.select"):
                    assignment = policy.select(slot)
            if self.validate_assignments:
                assignment.validate(slot, self.network.capacity)

            feedback, pair_contexts, pair_cells = realize_feedback(
                self.truth, t, slot, assignment, realize_rng, self.channel, channel_rng
            )

            reward[t] = feedback.g.sum()
            comp = feedback.per_scn_completed(M)
            cons = feedback.per_scn_consumption(M)
            completed[t] = comp
            consumption[t] = cons
            accepted[t] = np.bincount(assignment.scn, minlength=M)
            viol_qos_real[t] = np.maximum(alpha - comp, 0.0).sum()
            viol_res_real[t] = np.maximum(cons - beta, 0.0).sum()

            if record_expected:
                # The paper's V1/V2 use the expected completed count Σ v̄
                # and expected consumption Σ q̄ of the selected set (§3.2).
                if len(assignment) > 0:
                    exp_g, p_v, mu_q = expected_pair_stats(
                        self.truth, t, pair_contexts, assignment.scn, pair_cells
                    )
                    expected_reward[t] = exp_g.sum()
                    exp_comp = np.bincount(assignment.scn, weights=p_v, minlength=M)
                    exp_cons = np.bincount(assignment.scn, weights=mu_q, minlength=M)
                else:
                    exp_comp = np.zeros(M)
                    exp_cons = np.zeros(M)
                viol_qos_exp[t] = np.maximum(alpha - exp_comp, 0.0).sum()
                viol_res_exp[t] = np.maximum(exp_cons - beta, 0.0).sum()

            if ctx is None:
                policy.update(slot, feedback)
            else:
                with ctx.span("sim.update"):
                    policy.update(slot, feedback)
                if use_window:
                    ctx.add_span("sim.window.step", monotonic() - step_start)
                self._record_slot(
                    ctx, policy, t, assignment, accepted[t],
                    float(reward[t]),
                    float(expected_reward[t]) if record_expected else None,
                    float(viol_qos_exp[t] if record_expected else viol_qos_real[t]),
                    float(viol_res_exp[t] if record_expected else viol_res_real[t]),
                )
            self.truth.advance(t, realize_rng)
            if self.channel is not None:
                self.channel.advance(t, channel_rng)

        if ctx is not None and ctx.tracer is not None:
            # Keep worker-process traces durable even when the process never
            # uninstalls its (env-var-installed) context.
            ctx.tracer.flush()
        reg = obs_metrics.global_registry()
        reg.counter("sim.runs").inc()
        reg.counter("sim.slots").inc(horizon)
        reg.counter("sim.assigned_pairs").inc(float(accepted.sum()))
        reg.gauge("sim.last_total_reward").set(float(reward.sum()))

        extras_fn = getattr(policy, "result_extras", None)
        extras = dict(extras_fn()) if callable(extras_fn) else {}

        return SimulationResult(
            policy_name=policy.name,
            horizon=horizon,
            num_scns=M,
            reward=reward,
            expected_reward=expected_reward,
            completed=completed,
            consumption=consumption,
            accepted=accepted,
            violation_qos=viol_qos_exp if record_expected else viol_qos_real,
            violation_resource=viol_res_exp if record_expected else viol_res_real,
            violation_qos_realized=viol_qos_real,
            violation_resource_realized=viol_res_real,
            has_expected=record_expected,
            extras=extras,
        )
