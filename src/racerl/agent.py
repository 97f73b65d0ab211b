"""The DDPG family: exploration, targets, and updates for all ten variants.

Variants follow the tournament grid: WINk feeds a window of the last k
observations to both networks; MSn replaces the one-step target with an
n-step return; PER40k/PER1M sample from a prioritized buffer; LSTMk keeps
the window but runs the critic through an LSTM cell (the actor stays
feed-forward on the flattened window).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import nn
from .config import from_dict
from .replay import CODE_TERMINATIONS, PERConfig, make_buffer
from .simulator import PREMATURE_TERMINATIONS, observation_dim

VARIANTS = {
    "WIN1": dict(window=1, nstep=1, buffer="uniform", lstm=False),
    "WIN4": dict(window=4, nstep=1, buffer="uniform", lstm=False),
    "WIN8": dict(window=8, nstep=1, buffer="uniform", lstm=False),
    "MS2": dict(window=1, nstep=2, buffer="uniform", lstm=False),
    "MS3": dict(window=1, nstep=3, buffer="uniform", lstm=False),
    "MS4": dict(window=1, nstep=4, buffer="uniform", lstm=False),
    "PER40k": dict(window=1, nstep=1, buffer="per", capacity=40_000, lstm=False),
    "PER1M": dict(window=1, nstep=1, buffer="per", capacity=1_000_000, lstm=False),
    "LSTM4": dict(window=4, nstep=1, buffer="uniform", lstm=True),
    "LSTM8": dict(window=8, nstep=1, buffer="uniform", lstm=True),
}

UNIFORM_CAPACITY = 100_000


@dataclass(frozen=True)
class OUParams:
    theta: float = 0.15   # mean reversion
    sigma: float = 0.2    # volatility
    mu: float = 0.0       # long-run mean


def ou_step(x, params, rng, dt=1.0):
    """x <- x + theta*(mu - x)*dt + sigma*sqrt(dt)*N(0,1)."""
    return (
        x
        + params.theta * (params.mu - x) * dt
        + params.sigma * math.sqrt(dt) * rng.standard_normal()
    )


class OUProcess:
    """Mean-reverting noise with temporal correlation; deterministic per rng."""

    def __init__(self, params):
        self.params = params
        self.x = params.mu

    def reset(self):
        self.x = self.params.mu

    def step(self, rng, dt=1.0):
        self.x = ou_step(self.x, self.params, rng, dt)
        return self.x


@dataclass(frozen=True)
class ExplorationConfig:
    horizon: int = 100_000      # env steps until eps' reaches 0 (linear anneal)
    burst_prob: float = 0.1
    steer: OUParams = OUParams(0.15, 0.3, 0.0)
    throttle: OUParams = OUParams(0.15, 0.2, 0.3)
    brake: OUParams = OUParams(0.15, 0.15, -0.6)
    brake_burst: OUParams = OUParams(0.15, 0.6, 0.6)


class Explorer:
    """Annealed OU action noise with the brake-burst scheme.

    Ordinary noise is added per dimension, attenuated by eps'. With
    probability 0.1 per step a burst fires: the brake noise comes from the
    stronger positive-mean process while throttle is multiplied by
    (1 - eps'), so throttle and brake are rarely pressed together. At
    eps' = 0 the output equals the deterministic action bit for bit.
    """

    def __init__(self, config=None, seed=0):
        self.config = config if config is not None else ExplorationConfig()
        self.rng = np.random.default_rng(seed)
        self.ou_steer = OUProcess(self.config.steer)
        self.ou_throttle = OUProcess(self.config.throttle)
        self.ou_brake = OUProcess(self.config.brake)
        self.ou_burst = OUProcess(self.config.brake_burst)
        self.steps = 0

    @property
    def eps_prime(self):
        return max(0.0, 1.0 - self.steps / self.config.horizon)

    def reset_noise(self):
        for ou in (self.ou_steer, self.ou_throttle, self.ou_brake, self.ou_burst):
            ou.reset()

    def explore(self, action):
        """Noisy version of a deterministic [steer, throttle, brake] action."""
        eps = self.eps_prime
        a = np.array([
            action[0] + eps * self.ou_steer.step(self.rng),
            action[1] + eps * self.ou_throttle.step(self.rng),
            action[2] + eps * self.ou_brake.step(self.rng),
        ])
        if self.rng.random() < self.config.burst_prob:
            a[2] = action[2] + eps * self.ou_burst.step(self.rng)
            a[1] = a[1] * (1.0 - eps)
        self.steps += 1
        a[0] = min(max(a[0], -1.0), 1.0)
        a[1] = min(max(a[1], 0.0), 1.0)
        a[2] = min(max(a[2], 0.0), 1.0)
        return a


def td_target(reward_sum, steps, bootstrap_q, gamma, termination, adopted_target=True):
    """TD target for a (possibly multi-step) trajectory view.

    Premature endings (out of track, backwards, slow progress) never
    bootstrap: y is the discounted reward sum alone. With the adopted-target
    rule (default), a step-cap ending bootstraps exactly like a normal step;
    with the rule off, every terminal collapses to y = reward_sum.
    """
    if termination is not None:
        if termination in PREMATURE_TERMINATIONS or not adopted_target:
            return reward_sum
    return reward_sum + (gamma ** steps) * bootstrap_q


@dataclass
class AgentConfig:
    variant: str = "WIN1"
    lac_enabled: bool = False
    gamma: float = 0.99
    tau: float = 1e-3
    batch_size: int = 32
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    hidden: int = 64
    adopted_target: bool = True
    window: int = 1
    nstep: int = 1
    buffer_kind: str = "uniform"
    capacity: int = UNIFORM_CAPACITY
    lstm: bool = False
    per: PERConfig = field(default_factory=PERConfig)
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)

    @property
    def obs_dim(self):
        return observation_dim(self.lac_enabled)

    @classmethod
    def from_variant(cls, variant, **overrides):
        if variant not in VARIANTS:
            raise KeyError(f"unknown variant {variant!r}; pick one of {sorted(VARIANTS)}")
        spec = VARIANTS[variant]
        cfg = cls(
            variant=variant,
            window=spec["window"],
            nstep=spec["nstep"],
            buffer_kind=spec["buffer"],
            lstm=spec["lstm"],
            capacity=spec.get("capacity", UNIFORM_CAPACITY),
            **overrides,
        )
        if cfg.buffer_kind == "per":
            cfg.per = replace(cfg.per, capacity=cfg.capacity)
        return cfg


@dataclass
class TrainMetrics:
    critic_loss: float
    actor_objective: float
    td_errors: np.ndarray
    actor_grad_sq: np.ndarray | None = None


class DDPGAgent:
    """Actor-critic learner with target networks and a replay buffer."""

    def __init__(self, config=None, seed=0):
        self.config = config if config is not None else AgentConfig()
        c = self.config
        init_rng = np.random.default_rng(seed)
        in_dim = c.window * c.obs_dim
        self.actor = nn.build_actor(in_dim, (c.hidden, c.hidden), rng=init_rng)
        if c.lstm:
            self.critic = nn.build_lstm_critic(c.obs_dim, hidden=c.hidden, rng=init_rng)
        else:
            self.critic = nn.build_critic(in_dim, hidden=c.hidden, rng=init_rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_opt = nn.Adam(self.actor.parameters(), lr=c.actor_lr)
        self.critic_opt = nn.Adam(self.critic.parameters(), lr=c.critic_lr)
        self.buffer = make_buffer(c.buffer_kind, c.capacity, c.per)
        self.explorer = Explorer(c.exploration, seed=seed + 1)
        self.rng = np.random.default_rng(seed + 2)
        self.train_steps = 0

    # --- acting ------------------------------------------------------------

    def _flatten_window(self, window_obs):
        w = np.asarray(window_obs, dtype=np.float64)
        if w.ndim == 1:
            w = w[None, :]
        if w.shape != (self.config.window, self.config.obs_dim):
            raise nn.ShapeError(
                f"expected window ({self.config.window}, {self.config.obs_dim}), got {w.shape}"
            )
        return w.reshape(1, -1)

    def act(self, window_obs):
        """Deterministic policy action for a window of observations."""
        return self.actor(self._flatten_window(window_obs))[0]

    def act_explore(self, window_obs):
        """Policy action plus annealed OU noise and brake bursts."""
        return self.explorer.explore(self.act(window_obs))

    # --- training ------------------------------------------------------------

    def compute_targets(self, batch, windows=None):
        """TD targets for a sampled batch, per the variant's rules.

        windows is assemble_window of the batch's slots when the caller has
        it; with nstep 1 every view ends at its own slot, so it is reused.
        """
        c = self.config
        view = self.buffer.assemble_nstep(np.asarray(batch.slots), c.nstep, c.gamma)
        # bootstrap from the window that ends at each view's last transition
        if windows is None or c.nstep != 1:
            windows = self.buffer.assemble_window(view.slot, c.window)
        _, a_win, next_s_win = windows
        next_flat = next_s_win.reshape(len(batch), -1)
        a_next = self.target_actor(next_flat)
        if c.lstm:
            next_a_win = np.concatenate([a_win[:, 1:, :], a_next[:, None, :]], axis=1)
            q_next = self.target_critic(next_s_win, next_a_win)
        else:
            q_next = self.target_critic(next_flat, a_next)
        return np.array([
            td_target(r, k, q, c.gamma, CODE_TERMINATIONS[code], c.adopted_target)
            for r, k, q, code in zip(view.reward_sum.tolist(), view.steps.tolist(),
                                     q_next, view.termination.tolist())
        ])

    def _critic_eval(self, s_win, a_win, actions):
        """Forward pass of the critic on stored windows + a chosen current action."""
        if self.config.lstm:
            full_a = np.concatenate([a_win[:, :-1, :], actions[:, None, :]], axis=1)
            q, cache = self.critic.forward(s_win, full_a)
        else:
            q, cache = self.critic.forward(s_win.reshape(len(actions), -1), actions)
        return q, cache

    def _critic_action_grad(self, cache, gq):
        """Backward through the critic; returns (param grads, grad wrt current action)."""
        if self.config.lstm:
            grads, _, ga_win = self.critic.backward(cache, gq)
            return grads, ga_win[:, -1, :]
        grads, _, ga = self.critic.backward(cache, gq)
        return grads, ga

    def train_step(self):
        """One sampled update of critic and actor plus target soft updates."""
        c = self.config
        batch = self.buffer.sample(c.batch_size, self.rng)
        n = len(batch)
        windows = self.buffer.assemble_window(np.asarray(batch.slots), c.window)
        y = self.compute_targets(batch, windows)
        s_win, a_win, _ = windows
        s_flat = s_win.reshape(n, -1)
        actions = a_win[:, -1, :]

        # critic regression toward the targets (IS-weighted when enabled)
        q, cache = self._critic_eval(s_win, a_win, actions)
        td = y - q
        w = batch.is_weights if batch.is_weights is not None else 1.0
        critic_loss = float(np.mean(w * td * td))
        if not math.isfinite(critic_loss):
            raise nn.NumericError(
                "non-finite critic loss; minibatch serials "
                f"{batch.serials}, targets {np.array2string(y, precision=3)}"
            )
        grads, _ = self._critic_action_grad(cache, (2.0 / n) * w * (q - y))
        # per-sample grad_a Q at the stored actions, before the weights move
        grad_sq = None
        if c.buffer_kind == "per":
            _, ga_stored = self._critic_action_grad(cache, np.ones(n))
            grad_sq = np.einsum("ij,ij->i", ga_stored, ga_stored)
        self.critic_opt.step(self.critic.parameters(), grads)

        # actor ascent along grad_a Q evaluated at a = mu(s)
        a_pred, actor_cache = self.actor.forward(s_flat)
        q_pred, cache_pred = self._critic_eval(s_win, a_win, a_pred)
        actor_objective = float(np.mean(q_pred))
        _, ga = self._critic_action_grad(cache_pred, np.full(n, 1.0 / n))
        actor_grads, _ = self.actor.backward(actor_cache, -ga)
        self.actor_opt.step(self.actor.parameters(), actor_grads)

        nn.soft_update(self.actor.parameters(), self.target_actor.parameters(), c.tau)
        nn.soft_update(self.critic.parameters(), self.target_critic.parameters(), c.tau)

        if c.buffer_kind == "per":
            for slot, serial, delta, g2 in zip(batch.slots, batch.serials, td, grad_sq):
                self.buffer.update_priority(slot, serial, float(delta), float(g2))
        self.train_steps += 1
        return TrainMetrics(critic_loss, actor_objective, td, grad_sq)

    # --- persistence -----------------------------------------------------------

    def _network_arrays(self):
        out = {}
        for tag, net in (("actor", self.actor), ("critic", self.critic),
                         ("target_actor", self.target_actor),
                         ("target_critic", self.target_critic)):
            for i, p in enumerate(net.parameters()):
                out[f"{tag}_{i}"] = p
        return out

    def save(self, path):
        meta = {"kind": "agent", "config": asdict(self.config),
                "train_steps": self.train_steps}
        nn.save_arrays(path, meta, self._network_arrays())

    @classmethod
    def load(cls, path):
        meta, arrays = nn.load_arrays(path)
        if meta.get("kind") != "agent":
            raise ValueError(f"{path} is not an agent checkpoint")
        agent = cls(from_dict(AgentConfig, meta["config"]))
        for tag, net in (("actor", agent.actor), ("critic", agent.critic),
                         ("target_actor", agent.target_actor),
                         ("target_critic", agent.target_critic)):
            for i, p in enumerate(net.parameters()):
                p[...] = arrays[f"{tag}_{i}"]
        agent.train_steps = int(meta.get("train_steps", 0))
        return agent


class ObservationWindow:
    """Rolling window of the last w observation vectors for acting.

    Episode starts pad by repeating the first observation, mirroring the
    replay-side window assembly.
    """

    def __init__(self, window, obs_dim):
        self.window = window
        self.obs_dim = obs_dim
        self._buf = None

    def reset(self, obs):
        self._buf = np.tile(np.asarray(obs, dtype=np.float64), (self.window, 1))

    def push(self, obs):
        if self._buf is None:
            self.reset(obs)
            return
        self._buf = np.vstack([self._buf[1:], np.asarray(obs, dtype=np.float64)])

    def array(self):
        if self._buf is None:
            raise RuntimeError("window not initialized; call reset() first")
        return self._buf
