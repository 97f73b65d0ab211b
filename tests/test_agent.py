import math

import numpy as np
import numpy.testing as npt
import pytest

from racerl import nn
from racerl.agent import (
    VARIANTS,
    AgentConfig,
    DDPGAgent,
    ExplorationConfig,
    Explorer,
    ObservationWindow,
    OUParams,
    OUProcess,
    ou_step,
    td_target,
)
from racerl.replay import PERConfig, Transition
from racerl.simulator import Termination
from oracles import finite_difference_grad, max_relative_error


def tiny_config(variant="WIN1", **kw):
    kw.setdefault("hidden", 8)
    kw.setdefault("batch_size", 4)
    cfg = AgentConfig.from_variant(variant, **kw)
    if cfg.buffer_kind == "uniform":
        cfg.capacity = 512
    return cfg


def zero_weight_agent(variant="WIN1"):
    agent = DDPGAgent(tiny_config(variant), seed=0)
    for p in agent.actor.parameters():
        p[...] = 0.0
    return agent


def random_obs(rng, agent, steps=1):
    return rng.normal(size=(agent.config.window, agent.config.obs_dim)) * 0.3


def fill_buffer(agent, n, rng, terminal_every=None):
    c = agent.config
    episode, step = 0, 0
    for i in range(n):
        term = None
        if terminal_every and (step + 1) % terminal_every == 0:
            term = Termination.OUT_OF_TRACK
        agent.buffer.push(Transition(
            state=rng.normal(size=c.obs_dim) * 0.3,
            action=rng.uniform([-1, 0, 0], [1, 1, 1]),
            reward=float(rng.normal()),
            next_state=rng.normal(size=c.obs_dim) * 0.3,
            termination=term,
            episode=episode,
            step=step,
        ))
        if term is not None:
            episode += 1
            step = 0
        else:
            step += 1


# --- act ---------------------------------------------------------------------


def test_act_zero_weight_actor():
    agent = zero_weight_agent()
    obs = np.zeros((1, agent.config.obs_dim))
    a = agent.act(obs)
    npt.assert_array_equal(a, [0.0, 0.5, 0.5])  # tanh(0), sigmoid(0), sigmoid(0)


def test_act_deterministic():
    agent = DDPGAgent(tiny_config(), seed=3)
    obs = np.random.default_rng(1).normal(size=(1, agent.config.obs_dim))
    npt.assert_array_equal(agent.act(obs), agent.act(obs))


def test_act_hand_set_single_layer():
    agent = zero_weight_agent()
    obs_dim = agent.config.obs_dim
    trunk = nn.Mlp([nn.Dense(np.zeros((3, obs_dim)), np.array([0.2, -0.4, 1.0]), "linear")])
    agent.actor = nn.Actor(trunk)
    a = agent.act(np.zeros((1, obs_dim)))
    expected = [math.tanh(0.2), 1 / (1 + math.exp(0.4)), 1 / (1 + math.exp(-1.0))]
    npt.assert_allclose(a, expected, rtol=1e-15)


def test_act_rejects_malformed_window():
    agent = DDPGAgent(tiny_config("WIN4"), seed=0)
    with pytest.raises(nn.ShapeError):
        agent.act(np.zeros((2, agent.config.obs_dim)))


# --- exploration ----------------------------------------------------------------


def test_ou_sigma_zero_fixed_point():
    params = OUParams(theta=0.2, sigma=0.0, mu=0.7)
    ou = OUProcess(params)
    rng = np.random.default_rng(0)
    for _ in range(10):
        assert ou.step(rng) == 0.7


def test_ou_sigma_zero_geometric_decay():
    params = OUParams(theta=0.25, sigma=0.0, mu=0.0)
    x = 1.0
    rng = np.random.default_rng(0)
    for k in range(1, 8):
        x = ou_step(x, params, rng)
        assert x == pytest.approx((1 - 0.25) ** k)


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
    assert td_target(-1.0, 1, 5.0, 0.99, Termination.OUT_OF_TRACK) == -1.0
    assert td_target(-1.0, 1, 5.0, 0.99, Termination.BACKWARDS) == -1.0
    assert td_target(0.3, 1, 5.0, 0.99, Termination.SLOW_PROGRESS) == 0.3


def test_td_target_max_steps_bootstraps():
    # adopted-target rule: y = r + gamma * Q'
    assert td_target(1.0, 1, 2.0, 0.99, Termination.MAX_STEPS) == pytest.approx(2.98)


def test_td_target_normal_step():
    assert td_target(0.5, 1, 3.0, 0.9, None) == pytest.approx(0.5 + 0.9 * 3.0)


def test_td_target_multistep_hand_value():
    # MS2: rewards [1, 1], gamma 0.5, Q' = 4 -> 1 + 0.5 + 0.25 * 4 = 2.5
    reward_sum = 1.0 + 0.5 * 1.0
    assert td_target(reward_sum, 2, 4.0, 0.5, None) == 2.5


def test_td_target_adopted_flag_off():
    assert td_target(1.0, 1, 2.0, 0.99, Termination.MAX_STEPS, adopted_target=False) == 1.0


def test_at_identity():
    # max_steps target minus the premature-rule target equals gamma * Q' exactly
    gamma, q = 0.97, 3.71
    at = td_target(0.4, 1, q, gamma, Termination.MAX_STEPS, adopted_target=True)
    plain = td_target(0.4, 1, q, gamma, Termination.MAX_STEPS, adopted_target=False)
    assert at - plain == gamma * q


def test_compute_targets_n1_equals_ms_with_n1():
    rng = np.random.default_rng(0)
    one = DDPGAgent(tiny_config("WIN1"), seed=2)
    fill_buffer(one, 40, rng, terminal_every=10)
    ms = DDPGAgent(tiny_config("MS2"), seed=2)
    ms.config.nstep = 1  # same networks/seed, n-step path with n=1
    for i in range(40):
        ms.buffer.push(one.buffer.get(i))
    batch = one.buffer.sample(8, np.random.default_rng(5))
    y_direct = one.compute_targets(batch)
    y_nstep = ms.compute_targets(batch)
    npt.assert_allclose(y_direct, y_nstep, rtol=1e-12)


@pytest.mark.parametrize("variant, calls", [("WIN8", 1), ("MS4", 2)])
def test_train_step_gathers_each_window_once(variant, calls):
    # with nstep 1 the bootstrap windows end at the sampled slots themselves
    agent = DDPGAgent(tiny_config(variant), seed=1)
    fill_buffer(agent, 60, np.random.default_rng(0), terminal_every=12)
    batch = agent.buffer.sample(4, np.random.default_rng(3))
    windows = agent.buffer.assemble_window(np.asarray(batch.slots), agent.config.window)
    npt.assert_array_equal(agent.compute_targets(batch, windows), agent.compute_targets(batch))
    seen = []
    gather = agent.buffer.assemble_window
    agent.buffer.assemble_window = lambda *a: seen.append(a) or gather(*a)
    for _ in range(4):
        agent.train_step()
    assert len(seen) == 4 * calls


# --- train_step -------------------------------------------------------------------


def test_train_step_fixed_point_single_transition():
    cfg = tiny_config("WIN1", gamma=0.0)
    agent = DDPGAgent(cfg, seed=1)
    s = np.full(cfg.obs_dim, 0.1)
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
    s = rng.normal(size=(3, agent.config.obs_dim))
    a = rng.uniform(size=(3, 3))
    q, cache = agent.critic.forward(s, a)
    _, _, ga = agent.critic.backward(cache, np.ones(3))
    numeric = finite_difference_grad(
        lambda arr: float(np.sum(agent.critic(s, arr))), a.copy()
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


def test_train_step_supervised_sanity_loss_decreases():
    # gamma = 0 turns the critic update into supervised regression on rewards
    cfg = tiny_config("WIN1", gamma=0.0, batch_size=16)
    agent = DDPGAgent(cfg, seed=9)
    rng = np.random.default_rng(3)
    w = rng.normal(size=cfg.obs_dim)
    for i in range(256):
        s = rng.normal(size=cfg.obs_dim) * 0.3
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


def test_per_variant_keeps_is_weight_settings():
    cfg = AgentConfig.from_variant("PER40k", per=PERConfig(is_weights=True, beta=0.5))
    assert (cfg.per.capacity, cfg.per.is_weights, cfg.per.beta) == (40_000, True, 0.5)
    per = DDPGAgent(cfg).buffer.config
    assert (per.capacity, per.is_weights, per.beta) == (40_000, True, 0.5)


def test_variant_table_invariants():
    assert set(VARIANTS) == {
        "WIN1", "WIN4", "WIN8", "MS2", "MS3", "MS4", "PER40k", "PER1M", "LSTM4", "LSTM8",
    }
    for name, spec in VARIANTS.items():
        cfg = AgentConfig.from_variant(name)
        if name.startswith("WIN"):
            assert cfg.window == int(name[3:]) and cfg.nstep == 1
            assert cfg.buffer_kind == "uniform" and not cfg.lstm
        if name.startswith("MS"):
            assert cfg.nstep == int(name[2:]) and cfg.window == 1
        if name.startswith("PER"):
            assert cfg.buffer_kind == "per"
        if name.startswith("LSTM"):
            assert cfg.lstm and cfg.window == int(name[4:])
    assert AgentConfig.from_variant("PER40k").per.capacity == 40_000
    assert AgentConfig.from_variant("PER1M").per.capacity == 1_000_000


# --- LSTM critic variant --------------------------------------------------------


def test_lstm_w1_zero_recurrent_reduces_to_feedforward():
    cfg = tiny_config("LSTM4")
    cfg.window = 1
    agent = DDPGAgent(cfg, seed=13)
    cell = agent.critic.cell
    cell.wh[...] = 0.0
    s = np.random.default_rng(0).normal(size=(2, 1, cfg.obs_dim))
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
    s = rng.normal(size=(1, 4, agent.config.obs_dim))
    a = rng.uniform(size=(1, 4, 3))
    q = agent.critic(s, a)
    s_perm = s.copy()
    s_perm[0, [0, 1, 2]] = s[0, [2, 0, 1]]
    q_perm = agent.critic(s_perm, a)
    assert q[0] != q_perm[0]


def test_lstm_train_step_runs_and_learns_shape():
    agent = DDPGAgent(tiny_config("LSTM4"), seed=15)
    fill_buffer(agent, 80, np.random.default_rng(6), terminal_every=20)
    m = agent.train_step()
    assert math.isfinite(m.critic_loss)
    assert m.td_errors.shape == (agent.config.batch_size,)


# --- window helper / persistence ---------------------------------------------------


def test_observation_window_padding_and_roll():
    w = ObservationWindow(3, 2)
    w.reset(np.array([1.0, 1.0]))
    npt.assert_array_equal(w.array(), np.ones((3, 2)))
    w.push(np.array([2.0, 2.0]))
    npt.assert_array_equal(w.array()[-1], [2.0, 2.0])
    npt.assert_array_equal(w.array()[0], [1.0, 1.0])


def test_agent_save_load_roundtrip(tmp_path):
    agent = DDPGAgent(tiny_config("LSTM4"), seed=16)
    path = tmp_path / "agent.npz"
    agent.save(path)
    loaded = DDPGAgent.load(path)
    assert loaded.config.variant == "LSTM4"
    obs = np.random.default_rng(7).normal(size=(4, agent.config.obs_dim))
    npt.assert_array_equal(agent.act(obs), loaded.act(obs))
    for p, q in zip(agent.critic.parameters(), loaded.critic.parameters()):
        npt.assert_array_equal(p, q)
