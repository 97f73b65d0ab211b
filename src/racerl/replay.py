"""Transition storage and sampling: uniform ring buffer, prioritized replay
with a sum tree, window assembly, and n-step return assembly.

Minibatches are used unweighted (no importance-sampling correction), with an
optional switch for standard IS weights kept for ablations.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .nn import save_arrays, load_arrays
from .simulator import Termination


class NotReadyError(RuntimeError):
    """Buffer does not hold enough transitions yet."""


@dataclass
class Transition:
    state: np.ndarray
    action: np.ndarray
    reward: float
    next_state: np.ndarray
    termination: Termination | None
    episode: int
    step: int
    serial: int = -1  # assigned by the buffer on push

    @property
    def terminal(self):
        return self.termination is not None


@dataclass
class SampleBatch:
    slots: list
    serials: list
    transitions: list
    probabilities: np.ndarray | None = None
    is_weights: np.ndarray | None = None

    def __len__(self):
        return len(self.transitions)


@dataclass
class NStepView:
    """Discounted reward sum, bootstrap state, effective horizon, end kind."""

    reward_sum: float
    bootstrap_state: np.ndarray
    steps: int
    termination: Termination | None


class ReplayBuffer:
    """Uniform ring buffer; oldest transitions are overwritten when full."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self._data = [None] * self.capacity
        self._write = 0
        self.size = 0
        self._serial = 0

    def __len__(self):
        return self.size

    def push(self, transition):
        transition.serial = self._serial
        self._serial += 1
        slot = self._write
        self._data[slot] = transition
        self._write = (self._write + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self._after_push(slot, transition)
        return slot

    def _after_push(self, slot, transition):
        pass

    def get(self, slot):
        return self._data[slot]

    def sample(self, batch_size, rng):
        """i.i.d. uniform with replacement (a 1-item buffer yields N copies)."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        slots = [int(s) for s in rng.integers(0, self.size, size=batch_size)]
        return SampleBatch(
            slots=slots,
            serials=[self._data[s].serial for s in slots],
            transitions=[self._data[s] for s in slots],
        )

    # --- trajectory views ---------------------------------------------------

    def _predecessor(self, slot):
        t = self._data[slot]
        prev_slot = (slot - 1) % self.capacity
        p = self._data[prev_slot]
        if p is None or p.serial != t.serial - 1 or p.episode != t.episode:
            return None
        return prev_slot

    def _successor(self, slot):
        t = self._data[slot]
        next_slot = (slot + 1) % self.capacity
        nxt = self._data[next_slot]
        if nxt is None or nxt.serial != t.serial + 1 or nxt.episode != t.episode:
            return None
        return next_slot

    def assemble_window(self, slot, window):
        """The last `window` (state, action) pairs ending at `slot`.

        Never crosses an episode boundary; positions before the episode start
        are padded by repeating its first stored pair. Returns
        (states (w, obs), actions (w, act), next_states (w, obs)), where
        next_states is the window shifted one step forward (ending at s').
        """
        chain = [slot]
        cur = slot
        for _ in range(window - 1):
            prev = self._predecessor(cur)
            if prev is None:
                break
            chain.append(prev)
            cur = prev
        chain.reverse()
        ts = [self._data[s] for s in chain]
        pad = window - len(ts)
        states = [ts[0].state] * pad + [t.state for t in ts]
        actions = [ts[0].action] * pad + [t.action for t in ts]
        next_states = states[1:] + [ts[-1].next_state]
        return np.stack(states), np.stack(actions), np.stack(next_states)

    def assemble_nstep(self, slot, n, gamma):
        """Forward n-step view from `slot`, truncated at episode end.

        The horizon shrinks when a terminal (or the newest stored transition)
        arrives sooner than n steps.
        """
        reward_sum = 0.0
        cur = slot
        t = self._data[cur]
        for k in range(n):
            reward_sum += (gamma ** k) * t.reward
            if t.terminal or k == n - 1:
                return NStepView(reward_sum, t.next_state, k + 1, t.termination)
            nxt = self._successor(cur)
            if nxt is None:
                return NStepView(reward_sum, t.next_state, k + 1, t.termination)
            cur = nxt
            t = self._data[cur]
        raise AssertionError("unreachable")


@dataclass
class PERConfig:
    alpha: float = 0.7
    lam3: float = 0.1       # weight of the actor-gradient term in the priority
    epsilon: float = 1e-3   # priority floor
    capacity: int = 40_000
    # minibatches are used unweighted by default; the standard correction
    # w_i = (N * P(i))^-beta (normalized by its max) can be switched on
    is_weights: bool = False
    beta: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.epsilon <= 0 or self.lam3 < 0:
            raise ValueError("need alpha >= 0, epsilon > 0, lam3 >= 0")
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")


def priority_from(delta, grad_sq, config):
    """Raw priority p = delta^2 + lam3 * |grad_a Q|^2 + epsilon."""
    return delta * delta + config.lam3 * grad_sq + config.epsilon


class SumTree:
    """Binary tree of priority sums over a power-of-two leaf array."""

    def __init__(self, capacity):
        size = 1
        while size < capacity:
            size *= 2
        self.leaves = size
        self.nodes = np.zeros(2 * size)  # nodes[1] is the root, leaves at [size:]

    @property
    def total(self):
        return float(self.nodes[1])

    def get(self, leaf):
        return float(self.nodes[self.leaves + leaf])

    def update(self, leaf, value):
        i = self.leaves + leaf
        self.nodes[i] = value
        i //= 2
        while i >= 1:
            # recompute from the children: no drift accumulates along the path
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1]
            i //= 2

    def find(self, prefix):
        """Leaf index whose cumulative-priority interval contains prefix."""
        i = 1
        while i < self.leaves:
            left = 2 * i
            if prefix <= self.nodes[left] or self.nodes[left + 1] == 0.0:
                i = left
            else:
                prefix -= self.nodes[left]
                i = left + 1
        return i - self.leaves

    def consistency_error(self):
        """max |node - sum(children)| over all internal nodes."""
        parents = self.nodes[1:self.leaves]
        children = self.nodes[2:2 * self.leaves:2] + self.nodes[3:2 * self.leaves:2]
        return float(np.max(np.abs(parents - children))) if parents.size else 0.0


class PrioritizedReplayBuffer(ReplayBuffer):
    """Replay with sampling probability p_i^alpha / sum_k p_k^alpha.

    New transitions enter at the current maximum raw priority so each is
    sampled at least once in expectation before its first priority update.
    Sampling is stratified: the total mass is split into batch_size segments
    with one uniform draw each.
    """

    def __init__(self, config=None):
        config = config if config is not None else PERConfig()
        super().__init__(config.capacity)
        self.config = config
        self.tree = SumTree(config.capacity)
        self.max_raw_priority = 1.0
        self.stale_updates = 0

    def _after_push(self, slot, transition):
        self.tree.update(slot, self.max_raw_priority ** self.config.alpha)

    def sample(self, batch_size, rng):
        """Stratified prioritized sample; also reports each P(i)."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        total = self.tree.total
        assert total > 0.0, "epsilon floor keeps priorities positive"
        segment = total / batch_size
        slots = []
        for k in range(batch_size):
            u = rng.uniform(k * segment, (k + 1) * segment)
            slots.append(min(self.tree.find(u), self.size - 1))
        probs = np.array([self.tree.get(s) / total for s in slots])
        weights = None
        if self.config.is_weights:
            w = (self.size * probs) ** -self.config.beta
            weights = w / w.max()
        return SampleBatch(
            slots=slots,
            serials=[self._data[s].serial for s in slots],
            transitions=[self._data[s] for s in slots],
            probabilities=probs,
            is_weights=weights,
        )

    def update_priority(self, slot, serial, delta, grad_sq=0.0):
        """Set the slot's priority from its TD error and actor-gradient norm.

        Updates for transitions that were overwritten since sampling are
        silently skipped (counted in stale_updates).
        """
        t = self._data[slot]
        if t is None or t.serial != serial:
            self.stale_updates += 1
            return
        raw = priority_from(delta, grad_sq, self.config)
        self.max_raw_priority = max(self.max_raw_priority, raw)
        self.tree.update(slot, raw ** self.config.alpha)


def make_buffer(kind, capacity=None, per_config=None):
    if kind == "uniform":
        return ReplayBuffer(capacity if capacity else 100_000)
    if kind == "per":
        cfg = per_config if per_config is not None else PERConfig()
        if capacity:
            cfg = replace(cfg, capacity=capacity)
        return PrioritizedReplayBuffer(cfg)
    raise ValueError(f"unknown buffer kind {kind!r}")


# --- snapshots ---------------------------------------------------------------

_TERMINATION_CODES = {None: -1}
_TERMINATION_CODES.update({kind: i for i, kind in enumerate(Termination)})
_CODE_TERMINATIONS = {v: k for k, v in _TERMINATION_CODES.items()}


def save_buffer(buffer, path):
    """Snapshot the stored transitions oldest first (same container format as checkpoints)."""
    oldest = (buffer._write - buffer.size) % buffer.capacity
    ts = [buffer.get((oldest + i) % buffer.capacity) for i in range(buffer.size)]
    arrays = {
        "states": np.stack([t.state for t in ts]) if ts else np.zeros((0, 0)),
        "actions": np.stack([t.action for t in ts]) if ts else np.zeros((0, 0)),
        "rewards": np.array([t.reward for t in ts]),
        "next_states": np.stack([t.next_state for t in ts]) if ts else np.zeros((0, 0)),
        "terminations": np.array([_TERMINATION_CODES[t.termination] for t in ts], dtype=np.int64),
        "episodes": np.array([t.episode for t in ts], dtype=np.int64),
        "steps": np.array([t.step for t in ts], dtype=np.int64),
    }
    meta = {"kind": "replay-buffer", "capacity": buffer.capacity, "count": len(ts)}
    save_arrays(path, meta, arrays)


def load_buffer(path, buffer):
    """Refill a fresh buffer from a snapshot (pushed in original order)."""
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "replay-buffer":
        raise ValueError(f"{path} is not a replay-buffer snapshot")
    for i in range(meta["count"]):
        buffer.push(Transition(
            state=arrays["states"][i],
            action=arrays["actions"][i],
            reward=float(arrays["rewards"][i]),
            next_state=arrays["next_states"][i],
            termination=_CODE_TERMINATIONS[int(arrays["terminations"][i])],
            episode=int(arrays["episodes"][i]),
            step=int(arrays["steps"][i]),
        ))
    return buffer
