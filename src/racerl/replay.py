"""Transition storage and sampling: a uniform ring buffer of field arrays,
prioritized replay with a sum tree, and batched window and n-step views.

Minibatches are used unweighted: there is no importance-sampling correction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Config, ranged
from .nn import save_arrays, load_arrays
from .simulator import Termination

# how a transition ended its episode, as stored: -1 while the episode runs on
TERMINATION_CODES = {None: -1, **{kind: i for i, kind in enumerate(Termination)}}
CODE_TERMINATIONS = {v: k for k, v in TERMINATION_CODES.items()}

# one array per Transition field, in its order; termination holds the codes
FIELDS = ("state", "action", "reward", "next_state", "termination", "episode", "step", "serial")
FIRST_ROWS = 1024  # the field arrays start this long and double up to capacity
DEFAULT_CAPACITY = 100_000  # the uniform variants' buffer size


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
    serial: int = -1  # the buffer numbers its pushes; get() reports it


@dataclass
class SampleBatch:
    slots: list
    serials: list

    def __len__(self):
        return len(self.slots)


@dataclass
class NStepView:
    """Per start slot: discounted reward sum, effective horizon, termination
    code, and the slot of the last transition (whose next state is the
    bootstrap state)."""

    reward_sum: np.ndarray
    steps: np.ndarray
    termination: np.ndarray
    slot: np.ndarray


class ReplayBuffer:
    """Uniform ring buffer; oldest transitions are overwritten when full."""

    def __init__(self, capacity):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        self.state = self.action = self.next_state = np.zeros((0, 0))
        self.reward = np.zeros(0)
        self.termination = self.episode = self.step = self.serial = np.zeros(0, dtype=np.int64)
        self._write = 0
        self.size = 0
        self._serial = 0

    def __len__(self):
        return self.size

    def push(self, transition):
        t = transition
        row = (t.state, t.action, t.reward, t.next_state, TERMINATION_CODES[t.termination],
               t.episode, t.step, self._serial)
        slot = self._write
        if slot == len(self.reward):
            self._grow(row)
        for name, value in zip(FIELDS, row):
            getattr(self, name)[slot] = value
        self._serial += 1
        self._write = (slot + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)
        self._after_push(slot)
        return slot

    def _grow(self, row):
        # geometric growth: capacity-sized arrays up front would cost their
        # full size in memory for a buffer that never fills
        rows = min(self.capacity, max(FIRST_ROWS, 2 * self.size))
        for name, value in zip(FIELDS, row):
            old = getattr(self, name)
            grown = np.empty((rows,) + np.shape(value), dtype=old.dtype)
            if self.size:
                grown[:self.size] = old[:self.size]
            setattr(self, name, grown)

    def _after_push(self, slot):
        pass

    def get(self, slot):
        state, action, reward, next_state, code, episode, step, serial = (
            getattr(self, name)[slot] for name in FIELDS)
        return Transition(state.copy(), action.copy(), float(reward), next_state.copy(),
                          CODE_TERMINATIONS[int(code)], int(episode), int(step), int(serial))

    def sample(self, batch_size, rng):
        """i.i.d. uniform with replacement (a 1-item buffer yields N copies)."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        slots = rng.integers(0, self.size, size=batch_size)
        return SampleBatch(slots=slots.tolist(), serials=self.serial[slots].tolist())

    # --- trajectory views ---------------------------------------------------

    def _neighbour(self, slots, offset):
        """The slots `offset` (+1 or -1) pushes away where they hold the same
        episode's adjacent transition, else the slots themselves; and where."""
        other = (slots + offset) % self.capacity
        seen = np.minimum(other, self.size - 1)  # slots past size were never written
        linked = ((other < self.size)
                  & (self.serial[seen] == self.serial[slots] + offset)
                  & (self.episode[seen] == self.episode[slots]))
        return np.where(linked, other, slots), linked

    def assemble_window(self, slots, window):
        """The last `window` (state, action) pairs ending at each slot.

        Never crosses an episode boundary; positions before the episode start
        are padded by repeating its first stored pair. Returns
        (states (..., w, obs), actions (..., w, act), next_states (..., w, obs)),
        where next_states is the window shifted one step forward (ending at
        s'); a scalar slot drops the leading axis.
        """
        chain = [np.asarray(slots)]
        for _ in range(window - 1):
            chain.append(self._neighbour(chain[-1], -1)[0])
        idx = np.stack(chain[::-1], axis=-1)
        states = self.state[idx]
        last = self.next_state[chain[0]][..., None, :]
        return states, self.action[idx], np.concatenate([states[..., 1:, :], last], axis=-2)

    def assemble_nstep(self, slots, n, gamma):
        """Forward n-step views from each slot, truncated at episode end.

        The horizon shrinks when a terminal (or the newest stored transition)
        arrives sooner than n steps.
        """
        last = np.asarray(slots)
        reward_sum = np.zeros(last.shape)
        steps = np.zeros(last.shape, dtype=np.int64)
        going = np.ones(last.shape, dtype=bool)
        for k in range(n):
            reward_sum = np.where(going, reward_sum + (gamma ** k) * self.reward[last], reward_sum)
            steps += going
            if k == n - 1:
                break
            nxt, linked = self._neighbour(last, 1)
            going &= linked & (self.termination[last] == TERMINATION_CODES[None])
            last = np.where(going, nxt, last)
        return NStepView(reward_sum, steps, self.termination[last], last)


@dataclass
class PERConfig(Config, tree="per"):
    alpha: float = ranged("non-negative", 0.7)
    lam3: float = ranged("non-negative", 0.1)  # weight of the actor-gradient term in the priority
    epsilon: float = ranged("finite and positive", 1e-3)  # priority floor


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

    def find(self, prefixes):
        """Leaf index whose cumulative-priority interval contains each prefix;
        all prefixes descend the tree together, level by level."""
        prefix = np.asarray(prefixes, dtype=np.float64)
        i = np.ones(prefix.shape, dtype=np.int64)
        for _ in range(self.leaves.bit_length() - 1):
            left = 2 * i
            left_sum = self.nodes[left]
            go_left = (prefix <= left_sum) | (self.nodes[left + 1] == 0.0)
            prefix = np.where(go_left, prefix, prefix - left_sum)
            i = np.where(go_left, left, left + 1)
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

    def __init__(self, capacity, config=None):
        super().__init__(capacity)
        self.config = config if config is not None else PERConfig()
        self.tree = SumTree(self.capacity)
        self.max_raw_priority = 1.0
        self.stale_updates = 0

    def _after_push(self, slot):
        self.tree.update(slot, self.max_raw_priority ** self.config.alpha)

    def sample(self, batch_size, rng):
        """Stratified prioritized sample."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        total = self.tree.total
        assert total > 0.0, "epsilon floor keeps priorities positive"
        segment = total / batch_size
        k = np.arange(batch_size)
        # one draw per segment, in segment order: the stream of one scalar
        # uniform call per segment
        prefixes = rng.uniform(k * segment, (k + 1) * segment)
        slots = np.minimum(self.tree.find(prefixes), self.size - 1)
        return SampleBatch(slots=slots.tolist(), serials=self.serial[slots].tolist())

    def update_priority(self, slot, serial, delta, grad_sq=0.0):
        """Set the slot's priority from its TD error and actor-gradient norm.

        Updates for transitions that were overwritten since sampling are
        silently skipped (counted in stale_updates).
        """
        if slot >= self.size or self.serial[slot] != serial:
            self.stale_updates += 1
            return
        raw = priority_from(delta, grad_sq, self.config)
        self.max_raw_priority = max(self.max_raw_priority, raw)
        self.tree.update(slot, raw ** self.config.alpha)


def make_buffer(kind, capacity=DEFAULT_CAPACITY, per_config=None):
    if kind == "uniform":
        return ReplayBuffer(capacity)
    if kind == "per":
        return PrioritizedReplayBuffer(capacity, per_config)
    raise ValueError(f"unknown buffer kind {kind!r}")


# --- snapshots ---------------------------------------------------------------


def save_buffer(buffer, path):
    """Snapshot the stored transitions oldest first (same container format as
    checkpoints), each field but serial under its plural name."""
    oldest = (buffer._write - buffer.size) % buffer.capacity
    arrays = {f"{name}s": np.roll(getattr(buffer, name)[:buffer.size], -oldest, axis=0)
              for name in FIELDS[:-1]}
    meta = {"kind": "replay-buffer", "capacity": buffer.capacity, "count": buffer.size}
    save_arrays(path, meta, arrays)


def load_buffer(path, buffer):
    """Refill a fresh buffer from a snapshot (pushed in original order)."""
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "replay-buffer":
        raise ValueError(f"{path} is not a replay-buffer snapshot")
    rows = zip(*(arrays[f"{name}s"] for name in FIELDS[:-1]))
    for state, action, reward, next_state, code, episode, step in rows:
        buffer.push(Transition(state, action, reward, next_state,
                               CODE_TERMINATIONS[int(code)], episode, step))
    return buffer
