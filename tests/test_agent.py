import dataclasses
import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from racerl import nn
from racerl.agent import (
    VARIANTS,
    AgentSettings,
    DDPGAgent,
    ExplorationConfig,
    Explorer,
    ObservationWindow,
    OUParams,
    OUProcess,
    td_target,
)
from racerl.config import from_dict
from racerl.experiments import ExperimentConfig, load_agent
from racerl.replay import TERMINATION_CODES as CODE
from racerl.replay import Transition
from racerl.simulator import Termination
from oracles import (
    ArrayAdam,
    array_soft_update,
    finite_difference_grad,
    max_relative_error,
    scalar_td_target,
    stored_transition,
)


def tiny_config(variant="WIN1", **kw):
    """A run config of the variant with the agent settings kw (hidden 8
    and batch 4 unless kw sets them)."""
    kw.setdefault("hidden", 8)
    kw.setdefault("batch_size", 4)
    return ExperimentConfig(variant=variant, agent=AgentSettings(**kw))


def zero_weight_agent(variant="WIN1"):
    agent = DDPGAgent(tiny_config(variant), seed=0)
    for p in agent.actor.parameters():
        p[...] = 0.0
    return agent


def random_obs(rng, agent, steps=1):
    return rng.normal(size=(agent.variant.window, agent.obs_dim)) * 0.3


def fill_buffer(agent, n, rng, terminal_every=None):
    """Push n random transitions; returns them."""
    obs_dim = agent.obs_dim
    episode, step = 0, 0
    log = []
    for i in range(n):
        term = None
        if terminal_every and (step + 1) % terminal_every == 0:
            term = Termination.OUT_OF_TRACK
        log.append(Transition(
            state=rng.normal(size=obs_dim) * 0.3,
            action=rng.uniform([-1, 0, 0], [1, 1, 1]),
            reward=float(rng.normal()),
            next_state=rng.normal(size=obs_dim) * 0.3,
            termination=term,
            episode=episode,
            step=step,
        ))
        agent.buffer.push(log[-1])
        if term is not None:
            episode += 1
            step = 0
        else:
            step += 1
    return log


# --- act ---------------------------------------------------------------------


def test_act_zero_weight_actor():
    agent = zero_weight_agent()
    obs = np.zeros((1, agent.obs_dim))
    a = agent.act(obs)
    npt.assert_array_equal(a, [0.0, 0.5, 0.5])  # tanh(0), sigmoid(0), sigmoid(0)


def test_act_deterministic():
    agent = DDPGAgent(tiny_config(), seed=3)
    obs = np.random.default_rng(1).normal(size=(1, agent.obs_dim))
    npt.assert_array_equal(agent.act(obs), agent.act(obs))


def test_act_hand_set_single_layer():
    agent = zero_weight_agent()
    obs_dim = agent.obs_dim
    trunk = nn.Mlp([nn.Dense(np.zeros((3, obs_dim)), np.array([0.2, -0.4, 1.0]), "linear")])
    agent.actor = nn.Actor(trunk)
    a = agent.act(np.zeros((1, obs_dim)))
    expected = [math.tanh(0.2), 1 / (1 + math.exp(0.4)), 1 / (1 + math.exp(-1.0))]
    npt.assert_allclose(a, expected, rtol=1e-15)


def test_act_rejects_malformed_window():
    # a window is always a (window, obs_dim) array, even a window of 1
    for variant, rows in (("WIN4", (2,)), ("WIN4", ()), ("WIN1", ())):
        agent = DDPGAgent(tiny_config(variant), seed=0)
        with pytest.raises(nn.ShapeError, match=r"expected window \(\d, \d+\), got"):
            agent.act(np.zeros(rows + (agent.obs_dim,)))


# --- exploration ----------------------------------------------------------------


def test_ou_sigma_zero_fixed_point():
    params = OUParams(theta=0.2, sigma=0.0, mu=0.7)
    ou = OUProcess(params)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert ou.step(rng) == 0.7


def test_ou_sigma_zero_geometric_decay():
    ou = OUProcess(OUParams(theta=0.25, sigma=0.0, mu=0.0))
    ou.x = 1.0
    rng = np.random.default_rng(0)
    for k in range(1, 8):
        assert ou.step(rng) == pytest.approx((1 - 0.25) ** k)


def test_ou_stationary_variance():
    theta, sigma = 0.15, 0.3
    params = OUParams(theta=theta, sigma=sigma, mu=0.0)
    rng = np.random.default_rng(42)
    x = 0.0
    n = 1_000_000
    acc = 0.0
    for _ in range(n):
        x = x + theta * (0.0 - x) + sigma * rng.standard_normal()
        acc += x * x
    measured = acc / n
    # discrete-time OU: Var = sigma^2 / (1 - (1-theta)^2) ~= sigma^2 / (2*theta)
    expected = sigma**2 / (2 * theta)
    assert abs(measured - expected) / expected < 0.10


def test_act_explore_eps_zero_equals_act_bitwise():
    agent = DDPGAgent(tiny_config(), seed=5)
    agent.explorer.steps = agent.explorer.config.horizon  # eps' = 0
    rng = np.random.default_rng(9)
    for _ in range(50):
        obs = random_obs(rng, agent)
        a_det = agent.act(obs)
        a_exp = agent.act_explore(obs)
        assert a_det.tobytes() == a_exp.tobytes()


def test_act_explore_burst_zeroes_throttle_at_full_eps():
    cfg = ExplorationConfig(burst_prob=1.0)  # force a burst every step
    explorer = Explorer(cfg, seed=0)
    a = explorer.explore(np.array([0.0, 0.9, 0.1]))
    assert a[1] == 0.0  # throttle * (1 - eps') with eps' = 1


def test_act_explore_annealing_monotone():
    explorer = Explorer(ExplorationConfig(horizon=100), seed=0)
    values = []
    for _ in range(120):
        values.append(explorer.eps_prime)
        explorer.explore(np.array([0.0, 0.5, 0.5]))
    assert values[0] == 1.0
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_brake_exploration_mutual_exclusion_monte_carlo():
    # brake scheme: both pedals > 0.5 on < 5% of steps at eps'=1;
    # plain symmetric noise on both pedals crosses 20%
    det = np.array([0.0, 0.5, 0.5])  # fresh zero-weight actor output
    explorer = Explorer(seed=7)
    both = 0
    n = 10_000
    for _ in range(n):
        a = explorer.explore(det)
        both += (a[1] > 0.5) and (a[2] > 0.5)
    assert both / n < 0.05

    # comparison arm: symmetric zero-mean OU on throttle and brake
    sym = ExplorationConfig(
        burst_prob=0.0,
        throttle=OUParams(0.15, 0.2, 0.0),
        brake=OUParams(0.15, 0.2, 0.0),
    )
    explorer2 = Explorer(sym, seed=7)
    both2 = 0
    for _ in range(n):
        a = explorer2.explore(det)
        both2 += (a[1] > 0.5) and (a[2] > 0.5)
    assert both2 / n > 0.20


# --- targets ---------------------------------------------------------------------


def test_td_target_premature_terminal():
    assert td_target(-1.0, 1, 5.0, 0.99, CODE[Termination.OUT_OF_TRACK]) == -1.0
    assert td_target(-1.0, 1, 5.0, 0.99, CODE[Termination.BACKWARDS]) == -1.0
    assert td_target(0.3, 1, 5.0, 0.99, CODE[Termination.SLOW_PROGRESS]) == 0.3


def test_td_target_max_steps_bootstraps():
    # adopted-target rule: y = r + gamma * Q'
    assert td_target(1.0, 1, 2.0, 0.99, CODE[Termination.MAX_STEPS]) == pytest.approx(2.98)


def test_td_target_normal_step():
    assert td_target(0.5, 1, 3.0, 0.9, CODE[None]) == pytest.approx(0.5 + 0.9 * 3.0)


def test_td_target_multistep_hand_value():
    # MS2: rewards [1, 1], gamma 0.5, Q' = 4 -> 1 + 0.5 + 0.25 * 4 = 2.5
    reward_sum = 1.0 + 0.5 * 1.0
    assert td_target(reward_sum, 2, 4.0, 0.5, CODE[None]) == 2.5


def test_td_target_adopted_flag_off():
    assert td_target(1.0, 1, 2.0, 0.99, CODE[Termination.MAX_STEPS],
                     adopted_target=False) == 1.0


def test_at_identity():
    # max_steps target minus the premature-rule target equals gamma * Q' exactly
    gamma, q = 0.97, 3.71
    at = td_target(0.4, 1, q, gamma, CODE[Termination.MAX_STEPS], adopted_target=True)
    plain = td_target(0.4, 1, q, gamma, CODE[Termination.MAX_STEPS], adopted_target=False)
    assert at - plain == gamma * q


@pytest.mark.parametrize("adopted", [True, False])
def test_td_target_matches_scalar_rule_bit_for_bit(adopted):
    rng = np.random.default_rng(5)
    kinds = [None, *Termination]
    n = 400
    reward_sum = rng.normal(size=n) * 3.0
    steps = rng.integers(1, 5, size=n)
    q = rng.normal(size=n) * 10.0
    ends = [kinds[i] for i in rng.integers(0, len(kinds), size=n)]
    for gamma in (0.99, 0.9, 0.5):
        got = td_target(reward_sum, steps, q, gamma, np.array([CODE[e] for e in ends]), adopted)
        want = [scalar_td_target(r, k, b, gamma, e, adopted)
                for r, k, b, e in zip(reward_sum.tolist(), steps.tolist(), q, ends)]
        assert got.tobytes() == np.array(want).tobytes()


def test_compute_targets_n1_is_the_one_step_rule():
    # every slot, terminals and the newest one included, against
    # y = r + gamma * Q'(s', mu'(s')) built from the stored transition
    agent = DDPGAgent(tiny_config("WIN1"), seed=2)
    log = fill_buffer(agent, 40, np.random.default_rng(0), terminal_every=10)
    slots = np.arange(40)
    want = []
    for slot in slots:
        t = stored_transition(agent.buffer, slot, log[slot].next_state)
        s_next = t.next_state[None, :]
        q = agent.target_critic(s_next, agent.target_actor(s_next)[:, None, :])[0]
        want.append(scalar_td_target(t.reward, 1, q, agent.config.agent.gamma, t.termination))
    npt.assert_allclose(agent.compute_targets(slots), want, rtol=1e-12)


@pytest.mark.parametrize("variant, calls", [("WIN8", 1), ("MS4", 2)])
def test_train_step_gathers_each_window_once(variant, calls):
    # with nstep 1 the bootstrap windows end at the sampled slots themselves
    agent = DDPGAgent(tiny_config(variant), seed=1)
    fill_buffer(agent, 60, np.random.default_rng(0), terminal_every=12)
    slots = agent.buffer.sample(4, np.random.default_rng(3))
    windows = agent.buffer.assemble_window(slots, agent.variant.window)
    npt.assert_array_equal(agent.compute_targets(slots, windows), agent.compute_targets(slots))
    seen = []
    gather = agent.buffer.assemble_window
    agent.buffer.assemble_window = lambda *a: seen.append(a) or gather(*a)
    for _ in range(4):
        agent.train_step()
    assert len(seen) == 4 * calls


# --- train_step -------------------------------------------------------------------


def test_train_step_fixed_point_single_transition():
    agent = DDPGAgent(tiny_config("WIN1", gamma=0.0), seed=1)
    s = np.full(agent.obs_dim, 0.1)
    agent.buffer.push(Transition(
        state=s, action=np.array([0.0, 0.5, 0.5]), reward=0.0,
        next_state=s, termination=None, episode=0, step=0,
    ))
    losses = [agent.train_step().critic_loss for _ in range(400)]
    assert losses[-1] < 1e-4
    assert losses[-1] < losses[0]


def test_train_step_action_gradient_matches_finite_differences():
    agent = DDPGAgent(tiny_config("WIN1"), seed=4)
    rng = np.random.default_rng(8)
    s = rng.normal(size=(3, agent.obs_dim))
    a = rng.uniform(size=(3, 3))
    q, cache = agent.critic.forward(s, a[:, None, :])
    ga = agent.critic.action_grad(cache, np.ones(3))
    numeric = finite_difference_grad(
        lambda arr: float(np.sum(agent.critic(s, arr[:, None, :]))), a.copy()
    )
    assert max_relative_error(ga, numeric) < 1e-4


def test_train_step_tau_zero_freezes_targets():
    agent = DDPGAgent(tiny_config("WIN1", tau=0.0), seed=6)
    fill_buffer(agent, 50, np.random.default_rng(0), terminal_every=25)
    before_actor = [p.copy() for p in agent.target_actor.parameters()]
    before_critic = [p.copy() for p in agent.target_critic.parameters()]
    for _ in range(100):
        agent.train_step()
    for p, b in zip(agent.target_actor.parameters(), before_actor):
        npt.assert_array_equal(p, b)
    for p, b in zip(agent.target_critic.parameters(), before_critic):
        npt.assert_array_equal(p, b)


def test_train_step_reproducible_bit_for_bit():
    def run():
        agent = DDPGAgent(tiny_config("PER40k"), seed=11)
        fill_buffer(agent, 64, np.random.default_rng(2), terminal_every=16)
        out = []
        for _ in range(10):
            m = agent.train_step()
            out.append((m.critic_loss, m.actor_objective, m.td_errors.tobytes()))
        params = b"".join(p.tobytes() for p in agent.actor.parameters())
        return out, params

    r1, p1 = run()
    r2, p2 = run()
    assert r1 == r2
    assert p1 == p2


def _run_per_array(agent, monkeypatch):
    """Give each network standalone arrays and run the agent's Adam and soft
    updates through the per-array oracles, as before the flat vectors."""
    nets = (agent.actor, agent.critic, agent.target_actor, agent.target_critic)
    for net in nets:
        for layer, name in net._slots:
            setattr(layer, name, getattr(layer, name).copy())
    by_vector = {id(net.flat): net for net in nets}

    class OracleOptimizer:
        def __init__(self, net, lr):
            self.net = net
            self.oracle = ArrayAdam(net.parameters(), lr=lr)

        def step(self, flat, grads):
            assert flat is self.net.flat
            self.oracle.step(self.net.parameters(), grads)

    agent.actor_opt = OracleOptimizer(agent.actor, agent.config.agent.actor_lr)
    agent.critic_opt = OracleOptimizer(agent.critic, agent.config.agent.critic_lr)
    monkeypatch.setattr(nn, "soft_update", lambda source, target, tau: array_soft_update(
        by_vector[id(source)].parameters(), by_vector[id(target)].parameters(), tau))


@pytest.mark.parametrize("variant", ["WIN1", "WIN8", "MS4", "PER40k", "LSTM8"])
def test_flat_learner_matches_per_array_oracle(variant, monkeypatch):
    def run(per_array):
        agent = DDPGAgent(tiny_config(variant, hidden=12, batch_size=16), seed=13)
        fill_buffer(agent, 96, np.random.default_rng(4), terminal_every=20)
        if per_array:
            _run_per_array(agent, monkeypatch)
        losses = [agent.train_step().critic_loss for _ in range(24)]
        return agent, losses

    flat, flat_losses = run(per_array=False)
    oracle, oracle_losses = run(per_array=True)
    assert flat_losses == oracle_losses
    for name in ("actor", "critic", "target_actor", "target_critic"):
        net, ref = getattr(flat, name), getattr(oracle, name)
        params = net.parameters()
        # the views tile the flat vector in order, each C-contiguous
        assert all(p.flags.c_contiguous and np.shares_memory(p, net.flat) for p in params)
        assert b"".join(p.tobytes() for p in params) == net.flat.tobytes()
        assert b"".join(p.tobytes() for p in params) == \
            b"".join(p.tobytes() for p in ref.parameters())
    for name in ("actor_opt", "critic_opt"):
        opt, ref = getattr(flat, name), getattr(oracle, name).oracle
        assert opt.t == ref.t == 24
        assert opt.m.tobytes() == b"".join(m.tobytes() for m in ref.m)
        assert opt.v.tobytes() == b"".join(v.tobytes() for v in ref.v)


@pytest.mark.parametrize("variant", ["WIN1", "LSTM8"])
def test_adam_names_the_parameter_of_a_nonfinite_gradient(variant):
    agent = DDPGAgent(tiny_config(variant, hidden=12), seed=3)
    fill_buffer(agent, 32, np.random.default_rng(1))
    agent.train_step()
    opt, critic = agent.critic_opt, agent.critic
    state = (opt.t, opt.m.copy(), opt.v.copy(), critic.flat.copy())
    grads = [np.ones_like(p) for p in critic.parameters()]
    for i, g in enumerate(grads):
        for pos in sorted({0, g.size // 2, g.size - 1}):
            g.flat[pos] = np.nan
            with pytest.raises(nn.NumericError, match=f"at parameter {i}$"):
                opt.step(critic.flat, grads)
            g.flat[pos] = 1.0
    # nothing moved
    assert (opt.t, opt.m.tobytes(), opt.v.tobytes(), critic.flat.tobytes()) == \
        (state[0], state[1].tobytes(), state[2].tobytes(), state[3].tobytes())


def test_train_step_supervised_sanity_loss_decreases():
    # gamma = 0 turns the critic update into supervised regression on rewards
    agent = DDPGAgent(tiny_config("WIN1", gamma=0.0, batch_size=16), seed=9)
    rng = np.random.default_rng(3)
    w = rng.normal(size=agent.obs_dim)
    for i in range(256):
        s = rng.normal(size=agent.obs_dim) * 0.3
        a = rng.uniform([-1, 0, 0], [1, 1, 1])
        r = float(s @ w * 0.1 + 0.2 * a[0])  # a learnable Q surface
        agent.buffer.push(Transition(s, a, r, s * 0.9, None, 0, i))
    losses = [agent.train_step().critic_loss for _ in range(500)]
    assert np.mean(losses[-100:]) < np.mean(losses[:100])


def test_train_step_per_feeds_priorities_back():
    agent = DDPGAgent(tiny_config("PER40k"), seed=12)
    fill_buffer(agent, 64, np.random.default_rng(4), terminal_every=16)
    tree_before = agent.buffer.tree.nodes.copy()
    m = agent.train_step()
    assert m.actor_grad_sq is not None
    assert np.all(m.actor_grad_sq >= 0)
    assert not np.array_equal(agent.buffer.tree.nodes, tree_before)
    assert agent.buffer.tree.consistency_error() < 1e-9


def test_variant_table_invariants():
    assert set(VARIANTS) == {
        "WIN1", "WIN4", "WIN8", "MS2", "MS3", "MS4", "PER40k", "PER1M", "LSTM4", "LSTM8",
    }
    for name, spec in VARIANTS.items():
        if name.startswith("WIN"):
            assert spec.window == int(name[3:]) and spec.nstep == 1
            assert spec.buffer_kind == "uniform" and not spec.lstm
        if name.startswith("MS"):
            assert spec.nstep == int(name[2:]) and spec.window == 1
        if name.startswith("PER"):
            assert spec.buffer_kind == "per"
        if name.startswith("LSTM"):
            assert spec.lstm and spec.window == int(name[4:])
    assert DDPGAgent(ExperimentConfig(variant="PER40k")).buffer.capacity == 40_000
    assert DDPGAgent(ExperimentConfig(variant="PER1M")).buffer.capacity == 1_000_000


def test_variant_families_read_as_the_names_do():
    families = {name: spec.family for name, spec in VARIANTS.items()}
    assert families == {"WIN1": "WIN", "WIN4": "WIN", "WIN8": "WIN", "MS2": "MS", "MS3": "MS",
                        "MS4": "MS", "PER40k": "PER", "PER1M": "PER", "LSTM4": "LSTM",
                        "LSTM8": "LSTM"}
    for name, family in families.items():
        assert name.startswith(family) and name[len(family)].isdigit()


# keys that earlier checkpoints stored in their config, each with a value
# that agrees with PER40k: the variant's traits, and keys of a per tree
LEGACY_KEYS = {"window": 1, "nstep": 1, "buffer_kind": "per", "capacity": 40_000, "lstm": False,
               "per.capacity": 40_000, "per.is_weights": False, "per.beta": 0.5}


@pytest.mark.parametrize("key", LEGACY_KEYS)
def test_load_refuses_a_checkpoint_that_stores_a_legacy_key(tmp_path, key):
    agent = DDPGAgent(tiny_config("PER40k"), seed=3)
    agent.save(tmp_path / "agent.npz")
    meta, arrays = nn.load_arrays(tmp_path / "agent.npz")
    tree, _, name = key.rpartition(".")
    (meta["config"].setdefault(tree, {}) if tree else meta["config"])[name] = LEGACY_KEYS[key]
    path = tmp_path / "older.npz"
    nn.save_arrays(path, meta, arrays)
    # a run config has no per tree, so the checkpoint is refused at the tree's own key
    refused = tree or key
    with pytest.raises(ValueError, match=re.escape(f"{path}: unknown config key {refused!r}")):
        load_agent(path)


def test_variant_traits_are_read_only():
    with pytest.raises(TypeError):
        ExperimentConfig(variant="WIN1", window=8)
    with pytest.raises(ValueError, match="unknown config key 'window'"):
        from_dict(ExperimentConfig, {"variant": "WIN1", "window": 8})
    # a row is read-only: no run can change what its variant name means
    with pytest.raises(dataclasses.FrozenInstanceError):
        VARIANTS["LSTM8"].window = 1
    agent = DDPGAgent(ExperimentConfig(variant="LSTM8"))
    assert agent.variant is VARIANTS["LSTM8"] and agent.config.variant == "LSTM8"
    v = agent.variant
    assert (v.window, v.nstep, v.buffer_kind, v.capacity, v.lstm) == \
        (8, 1, "uniform", 100_000, True)
    with pytest.raises(ValueError, match="config variant must be one of .*, got 'WIN9'"):
        ExperimentConfig(variant="WIN9")


# --- LSTM critic variant --------------------------------------------------------


def test_lstm_w1_zero_recurrent_reduces_to_feedforward():
    agent = DDPGAgent(tiny_config("LSTM4"), seed=13)
    cell = agent.critic.cell
    cell.wh[...] = 0.0
    s = np.random.default_rng(0).normal(size=(2, 1, agent.obs_dim))
    a = np.random.default_rng(1).uniform(size=(2, 1, 3))
    q = agent.critic(s, a)

    # hand-composed feed-forward value of the same single step
    e = np.maximum(s[:, 0, :] @ agent.critic.state_layer.weight.T
                   + agent.critic.state_layer.bias, 0.0)
    x = np.concatenate([e, a[:, 0, :]], axis=1)
    z = x @ cell.wx.T + cell.bias
    h = cell.hidden_dim
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    i, o, g = sig(z[:, :h]), sig(z[:, 2 * h:3 * h]), np.tanh(z[:, 3 * h:])
    hidden = o * np.tanh(i * g)
    q_ff = hidden @ agent.critic.head.weight.T + agent.critic.head.bias
    npt.assert_allclose(q, q_ff[:, 0], rtol=1e-12)


def test_lstm_order_sensitivity():
    agent = DDPGAgent(tiny_config("LSTM4"), seed=14)
    rng = np.random.default_rng(5)
    s = rng.normal(size=(1, 4, agent.obs_dim))
    a = rng.uniform(size=(1, 4, 3))
    q = agent.critic(s, a)
    s_perm = s.copy()
    s_perm[0, [0, 1, 2]] = s[0, [2, 0, 1]]
    q_perm = agent.critic(s_perm, a)
    assert q[0] != q_perm[0]


@pytest.mark.parametrize("variant", ["LSTM4", "LSTM8"])
def test_lstm_action_grad_is_the_last_step_of_the_full_backward(variant):
    # full-size critics on stored windows, a third of them padded at an
    # episode start, scored at the stored and at freshly chosen actions
    agent = DDPGAgent(ExperimentConfig(variant=variant), seed=21)
    rng = np.random.default_rng(22)
    fill_buffer(agent, 120, rng, terminal_every=12)
    slots = rng.integers(0, agent.buffer.size, size=32)
    slots[::3] = 12 * rng.integers(0, 10, size=len(slots[::3]))  # episode starts
    s_win, a_win, _ = agent.buffer.assemble_window(slots, agent.variant.window)
    assert (agent.buffer.step[slots] < agent.variant.window - 1).any()
    for last in (a_win[:, -1, :], rng.uniform([-1, 0, 0], [1, 1, 1], size=(32, 3))):
        full_a = np.concatenate([a_win[:, :-1, :], last[:, None, :]], axis=1)
        _, cache = agent.critic.forward(s_win, full_a)
        _, step_caches, cache_h = cache
        critic = agent.critic
        for gq in (np.ones(32), rng.normal(size=32)):
            # the whole window's BPTT, as the critic's backward runs it
            _, gh = critic.head.backward(cache_h, gq[:, None])
            _, gxs = nn.lstm_unroll_backward(critic.cell, step_caches, gh)
            last = gxs[-1][:, critic.state_layer.out_dim:]
            assert np.array_equal(critic.action_grad(cache, gq), last)


def test_lstm_train_step_runs_and_learns_shape():
    agent = DDPGAgent(tiny_config("LSTM4"), seed=15)
    fill_buffer(agent, 80, np.random.default_rng(6), terminal_every=20)
    m = agent.train_step()
    assert math.isfinite(m.critic_loss)
    assert m.td_errors.shape == (agent.config.agent.batch_size,)


# --- window helper / persistence ---------------------------------------------------


def test_observation_window_padding_and_roll():
    w = ObservationWindow(3)
    with pytest.raises(RuntimeError, match=r"call reset\(\) first"):
        w.push(np.array([1.0, 1.0]))
    w.reset(np.array([1.0, 1.0]))
    npt.assert_array_equal(w.array(), np.ones((3, 2)))
    w.push(np.array([2.0, 2.0]))
    npt.assert_array_equal(w.array()[-1], [2.0, 2.0])
    npt.assert_array_equal(w.array()[0], [1.0, 1.0])


@pytest.mark.parametrize("edit,message", [
    (lambda arrays: arrays.update(critic_0=np.zeros(arrays["critic_0"].shape[1])),
     r"'critic_0': expected shape \(8, 29\), got shape \(29,\)"),
    (lambda arrays: arrays.pop("actor_5"), r"'actor_5': expected shape \(3,\), got no array"),
    (lambda arrays: arrays.update(actor_9=np.zeros(3)),
     r"'actor_9': expected no array, got shape \(3,\)"),
], ids=["wrong_shape", "missing", "extra"])
def test_agent_load_checks_every_network_array(tmp_path, edit, message):
    path = tmp_path / "agent.npz"
    DDPGAgent(tiny_config("WIN1"), seed=2).save(path)
    meta, arrays = nn.load_arrays(path)
    edit(arrays)
    meta = {k: v for k, v in meta.items() if k not in ("format", "version")}
    nn.save_arrays(path, meta, arrays)
    with pytest.raises(ValueError, match=message):
        load_agent(path)


def test_agent_save_load_roundtrip(tmp_path):
    agent = DDPGAgent(tiny_config("LSTM4"), seed=16)
    path = tmp_path / "agent.npz"
    agent.save(path)
    loaded = load_agent(path)
    assert loaded.config.variant == "LSTM4"
    obs = np.random.default_rng(7).normal(size=(4, agent.obs_dim))
    npt.assert_array_equal(agent.act(obs), loaded.act(obs))
    for p, q in zip(agent.critic.parameters(), loaded.critic.parameters()):
        npt.assert_array_equal(p, q)
