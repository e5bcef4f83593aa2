"""A pure-numpy DQN-style controller for the offloading bandit.

A 2-layer MLP (ReLU hidden layer) maps a per-edge feature vector — the
task's normalized context plus a one-hot SCN identity — to a scalar score
Q(m, i); the scores drive the *existing* Alg. 4 greedy assignment, exactly
like every other policy in the line-up.  The training loop keeps the two
standard DQN stabilizers without any new dependency:

- a fixed-capacity **replay buffer** of (feature, realized reward) pairs,
  sampled uniformly per training step, decorrelating the minibatches from
  the greedy solver's current decision pattern;
- a **target network** — a slow hard-copy of the online weights — used for
  *acting*, so the assignment pattern moves at the copy cadence rather than
  jittering with every SGD step.

The offloading problem is a one-step contextual bandit: there is no next
state, so the discount is γ = 0 and the TD target reduces to the realized
compound reward g (the honest "DQN-style" reading — bootstrapping would be
fiction here).  Exploration is a decaying ε-greedy over whole slots: with
probability ε_t the slot's edge scores are replaced by uniform draws, the
same scheme the ``eps-greedy`` cube baseline uses.

All RNG consumption (one uniform per slot, E uniforms on exploration slots,
``batch`` indices per training step) is a pure function of the slot history,
so windowed ≡ per-slot and checkpoint-resume ≡ straight-run hold
bit-identically (``tests/learned`` pins both).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import OffloadingPolicy
from repro.core.greedy import greedy_select_edges
from repro.env.network import NetworkConfig
from repro.env.simulator import Assignment, SlotFeedback, SlotObservation
from repro.env.window import slot_layout
from repro.obs import runtime as obs_runtime
from repro.utils.validation import check_positive

__all__ = ["DQNPolicy"]

#: Raw context feature count (Φ = [0,1]^3).
_CTX_DIM = 3

#: Weight/buffer array fields captured by ``checkpoint_state``.
_ARRAY_FIELDS = (
    "W1", "b1", "W2",
    "tW1", "tb1", "tW2",
    "buf_x", "buf_y",
)


class DQNPolicy(OffloadingPolicy):
    """2-layer MLP scorer with replay buffer and target network.

    Parameters
    ----------
    hidden:
        Hidden-layer width.
    lr:
        SGD learning rate on the mean-squared error.
    buffer:
        Replay-buffer capacity (a numpy ring buffer).
    batch:
        Minibatch size per training step (training starts once the buffer
        holds at least one full batch).
    train_every:
        Train every N slots (1 = every slot with feedback).
    target_every:
        Hard-copy the online weights into the target network every N
        training steps.
    eps0, eps_final:
        ε-greedy schedule: ε_t = max(eps_final, eps0/√(t+1)).
    """

    name = "dqn"

    def __init__(
        self,
        *,
        hidden: int = 32,
        lr: float = 0.05,
        buffer: int = 4096,
        batch: int = 64,
        train_every: int = 1,
        target_every: int = 50,
        eps0: float = 0.25,
        eps_final: float = 0.02,
    ) -> None:
        super().__init__()
        check_positive("hidden", hidden)
        check_positive("lr", lr)
        check_positive("buffer", buffer)
        check_positive("batch", batch)
        check_positive("train_every", train_every)
        check_positive("target_every", target_every)
        if not 0.0 <= eps_final <= eps0 <= 1.0:
            raise ValueError(
                f"need 0 <= eps_final <= eps0 <= 1, got eps0={eps0}, eps_final={eps_final}"
            )
        self.hidden = int(hidden)
        self.lr = float(lr)
        self.capacity = int(buffer)
        self.batch = int(batch)
        self.train_every = int(train_every)
        self.target_every = int(target_every)
        self.eps0 = float(eps0)
        self.eps_final = float(eps_final)
        self.dim = 0
        self._cache: tuple[int, np.ndarray, np.ndarray] | None = None

    # -- lifecycle -----------------------------------------------------------

    def reset(self, network: NetworkConfig, horizon: int, rng: np.random.Generator) -> None:
        super().reset(network, horizon, rng)
        d = _CTX_DIM + network.num_scns
        h = self.hidden
        self.dim = d
        # He-style init from the policy's private stream — deterministic per
        # seed, so serial/parallel/windowed runs all start identically.
        self.W1 = rng.standard_normal((d, h)) * np.sqrt(2.0 / d)
        self.b1 = np.zeros(h)
        self.W2 = rng.standard_normal(h) * np.sqrt(1.0 / h)
        self.b2 = 0.0
        self.tW1, self.tb1, self.tW2, self.tb2 = (
            self.W1.copy(), self.b1.copy(), self.W2.copy(), float(self.b2),
        )
        self.buf_x = np.zeros((self.capacity, d))
        self.buf_y = np.zeros(self.capacity)
        self.buf_pos = 0
        self.buf_fill = 0
        self.train_steps = 0
        self._cache = None

    # -- network -------------------------------------------------------------

    def _features(self, contexts: np.ndarray, scn: np.ndarray, task: np.ndarray) -> np.ndarray:
        """``(E, 3 + M)`` rows ``[φ_i, onehot(m)]`` — one gather + one scatter."""
        X = np.zeros((task.shape[0], self.dim))
        X[:, :_CTX_DIM] = contexts[task]
        X[np.arange(task.shape[0]), _CTX_DIM + scn] = 1.0
        return X

    @staticmethod
    def _forward(X: np.ndarray, W1, b1, W2, b2) -> np.ndarray:
        hidden = np.maximum(X @ W1 + b1, 0.0)
        return hidden @ W2 + b2

    def epsilon(self) -> float:
        """Current exploration probability."""
        return max(self.eps_final, self.eps0 / np.sqrt(self.t + 1.0))

    # -- policy protocol -------------------------------------------------------

    def select(self, slot: SlotObservation) -> Assignment:
        network = self._require_reset()
        with obs_runtime.span("learned.dqn.score"):
            pre = slot_layout(slot).edges
            X = self._features(slot.tasks.contexts, pre.scn, pre.task)
            # Acting uses the target network: decisions move at the hard-copy
            # cadence instead of chasing every SGD step.
            if self.rng.random() < self.epsilon():
                weights = self.rng.random(pre.num_edges)
            else:
                weights = self._forward(X, self.tW1, self.tb1, self.tW2, self.tb2)
        self._cache = (slot.t, pre.key, X)
        with obs_runtime.span("learned.dqn.greedy"):
            return greedy_select_edges(
                pre.scn, pre.task, weights, network.num_scns, network.capacity,
                pre.num_tasks,
            )

    def _update(self, slot: SlotObservation, feedback: SlotFeedback) -> None:
        cache = self._cache
        if cache is None or cache[0] != slot.t:
            raise RuntimeError("update() must follow the select() of the same slot")
        self._cache = None
        asn = feedback.assignment
        if len(asn) > 0:
            _, key, X = cache
            rows = np.searchsorted(key, asn.scn * np.int64(len(slot.tasks)) + asn.task)
            self._push(X[rows], feedback.g)
        if self.t % self.train_every == 0 and self.buf_fill >= self.batch:
            self._train_step()

    # -- replay + SGD ----------------------------------------------------------

    def _push(self, X: np.ndarray, y: np.ndarray) -> None:
        count = X.shape[0]
        idx = (self.buf_pos + np.arange(count)) % self.capacity
        self.buf_x[idx] = X
        self.buf_y[idx] = y
        self.buf_pos = int((self.buf_pos + count) % self.capacity)
        self.buf_fill = int(min(self.buf_fill + count, self.capacity))

    def _train_step(self) -> None:
        with obs_runtime.span("learned.dqn.train"):
            take = self.rng.integers(0, self.buf_fill, size=self.batch)
            X = self.buf_x[take]
            y = self.buf_y[take]
            pre = X @ self.W1 + self.b1
            hidden = np.maximum(pre, 0.0)
            pred = hidden @ self.W2 + self.b2
            # γ = 0: the TD target is the realized reward itself.
            err = (pred - y) / self.batch
            grad_W2 = hidden.T @ err
            grad_b2 = err.sum()
            d_hidden = np.outer(err, self.W2)
            d_hidden[pre <= 0.0] = 0.0
            self.W1 -= self.lr * (X.T @ d_hidden)
            self.b1 -= self.lr * d_hidden.sum(axis=0)
            self.W2 -= self.lr * grad_W2
            self.b2 -= self.lr * grad_b2
            self.train_steps += 1
            if self.train_steps % self.target_every == 0:
                self.tW1 = self.W1.copy()
                self.tb1 = self.b1.copy()
                self.tW2 = self.W2.copy()
                self.tb2 = float(self.b2)

    # -- checkpoint/restore ----------------------------------------------------

    def checkpoint_state(self) -> dict:
        state = super().checkpoint_state()
        for name in _ARRAY_FIELDS:
            state[name] = getattr(self, name).copy()
        state["b2"] = float(self.b2)
        state["tb2"] = float(self.tb2)
        state["buf_pos"] = int(self.buf_pos)
        state["buf_fill"] = int(self.buf_fill)
        state["train_steps"] = int(self.train_steps)
        return state

    def restore_checkpoint_state(self, state: dict) -> None:
        super().restore_checkpoint_state(state)
        for name in _ARRAY_FIELDS:
            current = getattr(self, name)
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != current.shape:
                raise ValueError(
                    f"dqn state {name!r} shape mismatch: snapshot {value.shape}, "
                    f"expected {current.shape}"
                )
            setattr(self, name, value.copy())
        self.b2 = float(state["b2"])
        self.tb2 = float(state["tb2"])
        self.buf_pos = int(state["buf_pos"])
        self.buf_fill = int(state["buf_fill"])
        self.train_steps = int(state["train_steps"])
