"""Transition storage and sampling: a uniform ring buffer of field arrays,
prioritized replay with a sum tree, and batched window and n-step views.

Each push also records its step links: the slots of the same episode's
previous and next stored transitions, so the views gather along them.
Each observation is stored once: a slot's next state is its successor's
state, and only a slot whose next state no stored successor holds keeps it
in a side row, at the back of the state array.

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

# the Transition fields in their order, as a snapshot names them
FIELDS = ("state", "action", "reward", "next_state", "termination", "episode", "step")
# one array per field but the states; termination holds the codes
COLUMNS = ("action", "reward", "termination", "episode", "step")
# per slot, the slot of the same episode's previous and next stored
# transition, or the slot itself where there is none; and the row of `state`
# that holds the slot's next state: its successor's slot, or a side row
# counted from the back (-1 the last)
LINKS = ("prev", "next", "next_row")
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
        # state holds the slots' states from the front and the side rows
        # from the back
        self.state = self.action = np.zeros((0, 0))
        self.reward = np.zeros(0)
        self.termination = self.episode = self.step = np.zeros(0, dtype=np.int64)
        # slot numbers: a buffer of 2**31 slots would not fit in memory
        self.prev = self.next = self.next_row = np.zeros(0, dtype=np.int32)
        self._side_rows = 0  # side rows handed out so far
        self._free_rows = []  # those given back, as next_row values
        self._write = 0
        self.size = 0

    def push(self, transition):
        """Store at the write slot, overwriting the oldest transition when full,
        and link it to the previous push where that holds the same episode.

        Where the new state has the bits of the previous push's next state,
        the previous push's side row passes to the new push, which holds its
        own next state there until a successor does the same.
        """
        t = transition
        shape = t.state.shape
        if t.next_state.shape != shape:
            raise ValueError(f"next_state has shape {t.next_state.shape}, "
                             f"unlike the state's {shape}")
        slot = self._write
        last = (slot - 1) % self.capacity  # the previous push's slot
        if self.size == self.capacity:
            # the overwritten transition's successor now starts its stored run
            after = self.next[slot]
            self.prev[after] = after
            if self.next_row[slot] < 0:  # its side row is given back
                self._free_rows.append(int(self.next_row[slot]))
        else:
            self._room(shape)
        # a 1-slot ring has just given back the previous push's slot
        linked = 0 < self.size and last != slot and self.episode[last] == t.episode
        # next_row is set below, once the row holding the next state is known
        row = (t.action, t.reward, TERMINATION_CODES[t.termination],
               t.episode, t.step, last if linked else slot, slot, slot)
        if slot == len(self.reward):
            self._grow(row)
        self.state[slot] = t.state
        for name, value in zip(COLUMNS + LINKS, row):
            getattr(self, name)[slot] = value
        side = None
        if linked:
            self.next[last] = slot
            held = self.next_row[last]
            if self.state[slot].tobytes() == self.state[held].tobytes():
                self.next_row[last] = slot
                side = held
        self._write = (slot + 1) % self.capacity
        # counted in size, the new state survives _hold growing state
        self.size = min(self.size + 1, self.capacity)
        if side is None:
            side = self._hold(shape)
        self.state[side] = t.next_state
        self.next_row[slot] = side
        return slot

    def _grow(self, row):
        # geometric growth: capacity-sized arrays up front would cost their
        # full size in memory for a buffer that never fills (_room grows state)
        rows = min(self.capacity, max(FIRST_ROWS, 2 * self.size))
        for name, value in zip(COLUMNS + LINKS, row):
            old = getattr(self, name)
            grown = np.empty((rows,) + np.shape(value), dtype=old.dtype)
            if self.size:
                grown[:self.size] = old[:self.size]
            setattr(self, name, grown)

    def _room(self, shape):
        """Grow state if the stored states and the side rows handed out fill
        it. It doubles, but to no more rows than the capacity plus twice the
        side rows, nor than twice the capacity: the most a buffer full of
        one-step episodes holds."""
        if self.size + self._side_rows >= len(self.state):
            rows = min(max(FIRST_ROWS, 2 * len(self.state)),
                       self.capacity + 2 * self._side_rows + 1, 2 * self.capacity)
            grown = np.empty((rows,) + shape)
            if self.size:
                grown[:self.size] = self.state[:self.size]
            if self._side_rows:
                # counted from the back, the side rows keep their next_row values
                grown[-self._side_rows:] = self.state[-self._side_rows:]
            self.state = grown

    def _hold(self, shape):
        """A side row for a new push's next state, a given-back one first,
        as its next_row value."""
        if self._free_rows:
            return self._free_rows.pop()
        self._room(shape)
        self._side_rows += 1
        return -self._side_rows

    def next_states(self, slots):
        """The next state of each slot, a new array; a scalar slot gives one
        state."""
        return np.take(self.state, self.next_row[slots], axis=0)

    def sample(self, batch_size, rng):
        """Slot array, i.i.d. uniform with replacement (a 1-item buffer
        yields N copies)."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        return rng.integers(0, self.size, size=batch_size)

    # --- trajectory views ---------------------------------------------------

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
            # the int32 links, converted to intp once here, not at each indexing
            chain.append(self.prev[chain[-1]].astype(np.intp))
        idx = np.stack(chain[::-1], axis=-1)
        states = self.state[idx]
        last = self.next_states(chain[0])[..., None, :]
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
            nxt = self.next[last]
            going &= (nxt != last) & (self.termination[last] == TERMINATION_CODES[None])
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

    def update(self, leaf, value):
        i = self.leaves + leaf
        self.nodes[i] = value
        i //= 2
        while i >= 1:
            # recompute from the children: no drift accumulates along the path
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1]
            i //= 2

    def update_many(self, leaf_ids, values):
        """update() for each (leaf, value) pair in order, a repeated leaf
        keeping its last value; the levels above are recomputed once each."""
        i = np.asarray(leaf_ids, dtype=np.int64) + self.leaves
        for node, value in zip(i.tolist(), values):
            self.nodes[node] = value
        for _ in range(self.leaves.bit_length() - 1):
            i //= 2  # a repeated parent gets the same sum twice
            self.nodes[i] = self.nodes[2 * i] + self.nodes[2 * i + 1]

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

    def push(self, transition):
        slot = super().push(transition)
        self.tree.update(slot, self.max_raw_priority ** self.config.alpha)
        return slot

    def sample(self, batch_size, rng):
        """Slot array of a stratified prioritized sample."""
        if self.size == 0:
            raise NotReadyError("buffer is empty")
        total = self.tree.total
        assert total > 0.0, "epsilon floor keeps priorities positive"
        segment = total / batch_size
        k = np.arange(batch_size)
        # one draw per segment, in segment order: the stream of one scalar
        # uniform call per segment
        prefixes = rng.uniform(k * segment, (k + 1) * segment)
        return np.minimum(self.tree.find(prefixes), self.size - 1)

    def update_priority(self, slots, deltas, grad_sq):
        """Set each slot's priority from its TD error and actor-gradient norm,
        in batch order: a repeated slot keeps its last value."""
        raw = [priority_from(d, g, self.config)
               for d, g in zip(np.asarray(deltas, dtype=np.float64).tolist(),
                               np.asarray(grad_sq, dtype=np.float64).tolist())]
        self.max_raw_priority = max([self.max_raw_priority, *raw])
        # x ** alpha per Python float: np.power rounds differently
        self.tree.update_many(slots, [p ** self.config.alpha for p in raw])


def make_buffer(kind, capacity=DEFAULT_CAPACITY):
    if kind == "uniform":
        return ReplayBuffer(capacity)
    if kind == "per":
        return PrioritizedReplayBuffer(capacity)
    raise ValueError(f"unknown buffer kind {kind!r}")


# --- snapshots ---------------------------------------------------------------


def save_buffer(buffer, path):
    """Snapshot the stored transitions oldest first (same container format as
    checkpoints), each field under its plural name, next states in full; the
    links and the side rows are rebuilt by load_buffer's pushes."""
    order = (buffer._write - buffer.size + np.arange(buffer.size)) % buffer.capacity
    arrays = {f"{name}s": buffer.next_states(order) if name == "next_state"
              else getattr(buffer, name)[order] for name in FIELDS}
    meta = {"kind": "replay-buffer", "capacity": buffer.capacity, "count": buffer.size}
    save_arrays(path, meta, arrays)


def load_buffer(path, buffer):
    """Refill a fresh buffer from a snapshot (pushed in original order)."""
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "replay-buffer":
        raise ValueError(f"{path} is not a replay-buffer snapshot")
    rows = zip(*(arrays[f"{name}s"] for name in FIELDS))
    for state, action, reward, next_state, code, episode, step in rows:
        buffer.push(Transition(state, action, reward, next_state,
                               CODE_TERMINATIONS[int(code)], episode, step))
    return buffer
