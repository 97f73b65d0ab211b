import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from racerl import replay
from racerl.replay import (
    TERMINATION_CODES,
    NotReadyError,
    PERConfig,
    PrioritizedReplayBuffer,
    ReplayBuffer,
    SumTree,
    Transition,
    load_buffer,
    make_buffer,
    priority_from,
    save_buffer,
)
from racerl.simulator import Termination
from oracles import (
    empirical_frequencies,
    scalar_find,
    scalar_per_sample,
    scalar_update_priorities,
    serial_nstep,
    serial_window,
    stored_transition,
)


def make_transition(i, episode=0, step=None, termination=None, reward=None):
    step = i if step is None else step
    return Transition(
        state=np.array([float(i), 0.0]),
        action=np.array([0.1 * i, 0.5, 0.0]),
        reward=float(i) if reward is None else reward,
        next_state=np.array([float(i) + 1.0, 0.0]),
        termination=termination,
        episode=episode,
        step=step,
    )


def fill_episode(buffer, n, episode=0, terminal=None):
    for i in range(n):
        term = terminal if i == n - 1 else None
        buffer.push(make_transition(i, episode=episode, step=i, termination=term))


# --- push / evict --------------------------------------------------------------


def test_push_to_empty():
    buf = ReplayBuffer(8)
    buf.push(make_transition(0))
    assert buf.size == 1


def test_push_overwrites_oldest():
    buf = ReplayBuffer(4)
    for i in range(5):
        buf.push(make_transition(i))
    assert buf.size == 4
    stored = sorted(buf.state[i][0] for i in range(4))
    assert stored == [1.0, 2.0, 3.0, 4.0]  # transition 0 evicted


# --- uniform sampling ----------------------------------------------------------


def test_sample_single_item_repeats():
    buf = ReplayBuffer(8)
    buf.push(make_transition(7))
    slots = buf.sample(4, np.random.default_rng(0))
    assert len(slots) == 4
    for slot in slots:
        assert buf.state[slot][0] == 7.0


def test_sample_empty_not_ready():
    with pytest.raises(NotReadyError):
        ReplayBuffer(8).sample(2, np.random.default_rng(0))
    with pytest.raises(NotReadyError):
        PrioritizedReplayBuffer(8).sample(2, np.random.default_rng(0))


def test_sample_uniform_frequencies():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(make_transition(i))
    rng = np.random.default_rng(123)
    draws = []
    for _ in range(1000):
        draws.extend(buf.sample(100, rng))
    freqs = empirical_frequencies(draws, 10)
    npt.assert_allclose(freqs, np.full(10, 0.1), atol=0.02)


def test_sample_same_seed_same_indices():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(make_transition(i))
    s1 = buf.sample(6, np.random.default_rng(99))
    s2 = buf.sample(6, np.random.default_rng(99))
    assert s1.tolist() == s2.tolist()


# --- sum tree -------------------------------------------------------------------


def test_sumtree_total_and_find():
    tree = SumTree(4)
    for i, p in enumerate([1.0, 3.0, 0.5, 0.0]):
        tree.update(i, p)
    assert tree.total == pytest.approx(4.5)
    assert tree.find(0.5) == 0
    assert tree.find(1.5) == 1
    assert tree.find(4.2) == 2


def test_sumtree_consistency_random_ops():
    rng = np.random.default_rng(7)
    tree = SumTree(64)
    for _ in range(10_000):
        tree.update(int(rng.integers(0, 64)), float(rng.uniform(0, 10)))
        assert tree.consistency_error() < 1e-9
    assert tree.consistency_error() < 1e-9
    leaves = tree.nodes[tree.leaves:]
    assert tree.total == pytest.approx(leaves.sum(), abs=1e-9)


def test_sumtree_capacity_rounds_to_power_of_two():
    tree = SumTree(40_000)
    assert tree.leaves == 65536


# --- priority formula ------------------------------------------------------------


def test_priority_formula_hand_value():
    cfg = PERConfig(alpha=0.7, lam3=0.1, epsilon=1e-3)
    p = priority_from(2.0, 5.0, cfg)
    assert p == 2.0 * 2.0 + 0.1 * 5.0 + 1e-3  # computed the same way by hand
    assert p == pytest.approx(4.501, abs=1e-12)


def test_priority_floor_never_zero():
    cfg = PERConfig(epsilon=1e-3)
    assert priority_from(0.0, 0.0, cfg) == 1e-3


def test_update_priority_repairs_root():
    buf = PrioritizedReplayBuffer(16, PERConfig(alpha=1.0))
    for i in range(8):
        buf.push(make_transition(i))
    buf.update_priority(np.arange(8), np.arange(8.0), np.ones(8))
    leaves = [buf.tree.nodes[buf.tree.leaves + i] for i in range(8)]
    assert buf.tree.total == pytest.approx(sum(leaves), abs=1e-9)
    assert buf.tree.consistency_error() < 1e-9


# --- prioritized sampling ---------------------------------------------------------


def test_per_sample_matches_the_scalar_oracle():
    # the batched draw and descent give the scalar loop's slots and leave
    # the rng where it left it, on trees with zero leaves past the fill
    for seed in range(200):
        rng = np.random.default_rng(seed)
        capacity = int(rng.integers(1, 100))
        buf = PrioritizedReplayBuffer(capacity, PERConfig(alpha=float(rng.uniform(0.0, 1.0))))
        for i in range(int(rng.integers(1, capacity + 1))):
            buf.push(make_transition(i))
        written = [(slot, rng.normal(0.0, 3.0), rng.exponential())
                   for slot in range(buf.size) if rng.random() < 0.7]
        if written:
            buf.update_priority(*zip(*written))
        n = int(rng.integers(1, 64))
        batched, scalar = np.random.default_rng(seed + 1000), np.random.default_rng(seed + 1000)
        assert buf.sample(n, batched).tolist() == scalar_per_sample(buf, n, scalar)
        assert batched.bit_generator.state == scalar.bit_generator.state
        # past the total, a prefix stops at the last leaf with mass
        prefixes = rng.uniform(0.0, 1.2 * buf.tree.total, size=16)
        assert buf.tree.find(prefixes).tolist() == [scalar_find(buf.tree, p) for p in prefixes]


def test_per_distribution_two_items():
    buf = PrioritizedReplayBuffer(4, PERConfig(alpha=1.0, epsilon=1e-12))
    buf.push(make_transition(0))
    buf.push(make_transition(1))
    buf.update_priority([0, 1], [1.0, np.sqrt(3.0)], [0.0, 0.0])  # p = 1 and 3
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(1000):
        draws.extend(buf.sample(100, rng))
    freqs = empirical_frequencies(draws, 2)
    npt.assert_allclose(freqs, [0.25, 0.75], atol=0.01)


def test_per_equal_priorities_uniform():
    buf = PrioritizedReplayBuffer(8, PERConfig(alpha=1.0))
    for i in range(8):
        buf.push(make_transition(i))
        buf.update_priority([i], [2.0], [0.0])
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(500):
        draws.extend(buf.sample(80, rng))
    freqs = empirical_frequencies(draws, 8)
    npt.assert_allclose(freqs, np.full(8, 1.0 / 8.0), atol=0.02)


def test_per_alpha_zero_uniform_regardless():
    buf = PrioritizedReplayBuffer(8, PERConfig(alpha=0.0))
    deltas = [0.1, 5.0, 0.1, 20.0]
    for i in range(4):
        buf.push(make_transition(i))
    buf.update_priority(np.arange(4), deltas, np.zeros(4))
    rng = np.random.default_rng(17)
    draws = []
    for _ in range(500):
        draws.extend(buf.sample(80, rng))
    freqs = empirical_frequencies(draws, 4)
    npt.assert_allclose(freqs, np.full(4, 0.25), atol=0.02)


def test_per_new_transition_gets_max_priority():
    buf = PrioritizedReplayBuffer(8, PERConfig(alpha=1.0))
    buf.push(make_transition(0))
    buf.update_priority([0], [3.0], [0.0])  # raw 9.001
    buf.push(make_transition(1))
    assert buf.tree.nodes[buf.tree.leaves + 1] == pytest.approx(buf.max_raw_priority)
    assert buf.tree.nodes[buf.tree.leaves + 1] >= buf.tree.nodes[buf.tree.leaves + 0]


# --- window assembly --------------------------------------------------------------


def test_window_w1_is_own_state():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5)
    states, actions, next_states = buf.assemble_window(3, 1)
    npt.assert_array_equal(states[0], buf.state[3])
    npt.assert_array_equal(actions[0], buf.action[3])
    npt.assert_array_equal(next_states[0], buf.next_state[3])


def test_window_padding_repeats_first_state():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5)
    # index = episode step 2, w=4 -> [s0, s0, s1, s2]
    states, actions, _ = buf.assemble_window(2, 4)
    npt.assert_array_equal(states[0], buf.state[0])
    npt.assert_array_equal(states[1], buf.state[0])
    npt.assert_array_equal(states[2], buf.state[1])
    npt.assert_array_equal(states[3], buf.state[2])
    npt.assert_array_equal(actions[0], buf.action[0])


def test_window_mid_episode_matches_log():
    buf = ReplayBuffer(32)
    fill_episode(buf, 10)
    # episode log oracle: the raw pushed states by step index
    log = [buf.state[i] for i in range(10)]
    states, _, next_states = buf.assemble_window(7, 4)
    for k, idx in enumerate(range(4, 8)):
        npt.assert_array_equal(states[k], log[idx])
    # next window is shifted by one
    for k, idx in enumerate(range(5, 8)):
        npt.assert_array_equal(next_states[k], log[idx])
    npt.assert_array_equal(next_states[3], buf.next_state[7])


def test_window_never_crosses_episode_boundary():
    buf = ReplayBuffer(32)
    fill_episode(buf, 4, episode=0, terminal=Termination.OUT_OF_TRACK)
    fill_episode(buf, 4, episode=1)
    # slot 5 is step 1 of episode 1: window must pad with episode 1's start
    states, _, _ = buf.assemble_window(5, 4)
    npt.assert_array_equal(states[0], buf.state[4])
    npt.assert_array_equal(states[1], buf.state[4])
    npt.assert_array_equal(states[2], buf.state[4])
    npt.assert_array_equal(states[3], buf.state[5])


# --- n-step assembly ---------------------------------------------------------------


def test_nstep_n1_reduces_to_transition():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5, terminal=Termination.MAX_STEPS)
    for i in range(5):
        t = stored_transition(buf, i)
        view = buf.assemble_nstep(i, 1, 0.9)
        assert view.reward_sum == t.reward
        npt.assert_array_equal(buf.next_state[view.slot], t.next_state)
        assert view.steps == 1
        assert view.termination == TERMINATION_CODES[t.termination]


def test_nstep_hand_arithmetic():
    buf = ReplayBuffer(16)
    for i in range(3):
        buf.push(make_transition(i, reward=1.0))
    view = buf.assemble_nstep(0, 2, 0.5)
    assert view.reward_sum == 1.5  # 1 + 0.5*1
    npt.assert_array_equal(buf.next_state[view.slot], buf.next_state[1])
    assert view.steps == 2
    assert view.termination == TERMINATION_CODES[None]


def test_nstep_truncates_at_terminal():
    buf = ReplayBuffer(16)
    fill_episode(buf, 3, terminal=Termination.OUT_OF_TRACK)
    view = buf.assemble_nstep(1, 4, 0.9)
    # terminal at step 2 -> m=2, reward r1 + gamma * r2
    assert view.steps == 2
    assert view.reward_sum == pytest.approx(1.0 + 0.9 * 2.0)
    assert view.termination == TERMINATION_CODES[Termination.OUT_OF_TRACK]


def test_nstep_truncates_at_buffer_head():
    buf = ReplayBuffer(16)
    for i in range(3):
        buf.push(make_transition(i, reward=2.0))
    view = buf.assemble_nstep(2, 4, 0.9)  # newest transition: no successors yet
    assert view.steps == 1
    assert view.reward_sum == 2.0
    assert view.termination == TERMINATION_CODES[None]


# --- factory and snapshot ------------------------------------------------------------


def test_make_buffer_kinds():
    assert isinstance(make_buffer("uniform", 64), ReplayBuffer)
    per = make_buffer("per", 1024)
    assert isinstance(per, PrioritizedReplayBuffer)
    assert per.capacity == 1024
    with pytest.raises(ValueError):
        make_buffer("magic")


def test_buffer_snapshot_roundtrip(tmp_path):
    buf = ReplayBuffer(32)
    fill_episode(buf, 6, terminal=Termination.SLOW_PROGRESS)
    path = tmp_path / "buffer.npz"
    save_buffer(buf, path)
    restored = load_buffer(path, ReplayBuffer(32))
    assert restored.size == 6
    for i in range(6):
        a, b = stored_transition(buf, i), stored_transition(restored, i)
        npt.assert_array_equal(a.state, b.state)
        npt.assert_array_equal(a.action, b.action)
        assert a.reward == b.reward
        assert a.termination == b.termination
        assert (a.episode, a.step) == (b.episode, b.step)

    # a wrapped ring is saved oldest first, so trajectory views survive a reload
    ring = ReplayBuffer(4)
    fill_episode(ring, 6)
    save_buffer(ring, path)
    restored = load_buffer(path, ReplayBuffer(4))
    assert restored.step[:4].tolist() == [2, 3, 4, 5]
    states, _, _ = restored.assemble_window(0, 3)
    npt.assert_array_equal(states[:, 0], [2.0, 2.0, 2.0])  # step 2 is the oldest kept
    assert restored.assemble_nstep(0, 4, 1.0).reward_sum == 2.0 + 3.0 + 4.0 + 5.0


# --- batched views against a per-transition walk ------------------------------------


def _walk(stored, i, offset):
    """The number of the push `offset` pushes from push i, if it is still
    stored and holds the same episode."""
    j = i + offset
    return j if j in stored and stored[j].episode == stored[i].episode else None


def _reference_window(stored, i, window):
    chain = [i]
    while len(chain) < window:
        prev = _walk(stored, chain[0], -1)
        if prev is None:
            break
        chain.insert(0, prev)
    ts = [stored[j] for j in chain]
    states = [ts[0].state] * (window - len(ts)) + [t.state for t in ts]
    actions = [ts[0].action] * (window - len(ts)) + [t.action for t in ts]
    return np.stack(states), np.stack(actions), np.stack(states[1:] + [stored[i].next_state])


def _reference_nstep(stored, i, n, gamma):
    reward_sum = 0.0
    for k in range(n):
        t = stored[i]
        reward_sum += (gamma ** k) * t.reward
        nxt = _walk(stored, i, 1)
        if t.termination is not None or k == n - 1 or nxt is None:
            return reward_sum, t.next_state, k + 1, TERMINATION_CODES[t.termination]
        i = nxt


def _random_trajectory(rng, pushes):
    """Random transitions to push. Episodes also get cut without a terminal,
    and a terminal must end an n-step view even where the episode number
    runs on."""
    episode, step = 0, 0
    for _ in range(pushes):
        end = list(Termination)[rng.integers(len(Termination))] if rng.random() < 0.2 else None
        yield Transition(rng.normal(size=3), rng.uniform(size=3), float(rng.normal()),
                         rng.normal(size=3), end, episode, step)
        step += 1
        if rng.random() < (0.7 if end is not None else 0.05):
            episode, step = episode + 1, 0


@pytest.mark.parametrize("capacity,pushes", [
    (64, 30),   # not wrapped: slot 0's predecessor slot 63 lies past the grown arrays
    (7, 7),     # exactly full, not yet wrapped
    (13, 40),   # grown 4 -> 8 -> 13, then wrapped
    (50, 137),  # wrapped several times
])
def test_batched_views_match_per_transition_walk(capacity, pushes, monkeypatch):
    monkeypatch.setattr(replay, "FIRST_ROWS", 4)
    rng = np.random.default_rng(capacity + pushes)
    buf = ReplayBuffer(capacity)
    log = list(_random_trajectory(rng, pushes))
    for t in log:
        buf.push(t)
    # push i sits in slot i % capacity until a later push overwrites it
    stored = {i: log[i] for i in range(max(0, pushes - capacity), pushes)}
    number = {i % capacity: i for i in stored}
    slots = np.concatenate([np.arange(buf.size), rng.integers(0, buf.size, size=9)])
    for window in (1, 3, 8):
        batched = buf.assemble_window(slots, window)
        for row, slot in enumerate(slots):
            expected = _reference_window(stored, number[slot], window)
            for got, single, want in zip(batched, buf.assemble_window(int(slot), window), expected):
                npt.assert_array_equal(got[row], want)
                npt.assert_array_equal(single, want)
    for n, gamma in ((1, 0.9), (4, 0.9), (6, 0.5)):
        view = buf.assemble_nstep(slots, n, gamma)
        for row, slot in enumerate(slots):
            reward_sum, boot, steps, code = _reference_nstep(stored, number[slot], n, gamma)
            single = buf.assemble_nstep(int(slot), n, gamma)
            for v, i in ((view, row), (single, ...)):
                assert v.reward_sum[i] == reward_sum  # same order of additions: bit equal
                npt.assert_array_equal(buf.next_state[v.slot[i]], boot)
                assert (v.steps[i], v.termination[i]) == (steps, code)


def test_links_and_batched_write_back_match_the_serial_oracles(monkeypatch):
    # the step links kept at push give the views of the neighbour walk by
    # push numbers, and one batched write-back leaves the tree and the
    # maximum of a scalar SumTree.update per slot, bit for bit
    monkeypatch.setattr(replay, "FIRST_ROWS", 4)
    for seed in range(120):
        rng = np.random.default_rng(seed)
        capacity = 1 if seed % 8 == 0 else int(rng.integers(2, 60))
        config = PERConfig(alpha=float(rng.uniform(0.0, 1.0)), lam3=float(rng.uniform(0.0, 1.0)))
        buf, oracle = PrioritizedReplayBuffer(capacity, config), PrioritizedReplayBuffer(capacity, config)
        pushes = int(rng.integers(1, 4 * capacity + 3))
        for t in _random_trajectory(rng, pushes):
            buf.push(t)
            oracle.push(t)
            if rng.random() < 0.3:
                slots = rng.integers(0, buf.size, size=int(rng.integers(1, 33)))
                slots = np.append(slots, slots[0])  # a repeated slot keeps its last value
                deltas, grad_sq = rng.normal(0.0, 3.0, len(slots)), rng.exponential(size=len(slots))
                buf.update_priority(slots, deltas, grad_sq)
                scalar_update_priorities(oracle, slots, deltas, grad_sq)
                assert np.array_equal(buf.tree.nodes, oracle.tree.nodes)
                assert buf.max_raw_priority == oracle.max_raw_priority
        # the number of the push each slot holds: push i sits in slot i % capacity
        kept = np.arange(max(0, pushes - capacity), pushes)
        serials = np.empty(len(kept), dtype=np.int64)
        serials[kept % capacity] = kept
        slots = np.concatenate([np.arange(buf.size), rng.integers(0, buf.size, size=9)])
        for window in (1, 3, 8):
            for got, want in zip(buf.assemble_window(slots, window),
                                 serial_window(buf, serials, slots, window)):
                assert np.array_equal(got, want)
        for n in (1, 2, 4, 7):
            view = buf.assemble_nstep(slots, n, 0.9)
            want = serial_nstep(buf, serials, slots, n, 0.9)
            for got, w in zip((view.reward_sum, view.steps, view.termination, view.slot), want):
                assert np.array_equal(got, w)


def test_buffer_memory_follows_contents_not_capacity():
    buf = make_buffer("per", 1_000_000)
    tracemalloc.start()
    try:
        for i in range(100):
            buf.push(make_transition(i))
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert buf.size == 100
    assert traced < 1_000_000
