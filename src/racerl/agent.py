"""The DDPG family: exploration, targets, and updates for all ten variants.

Variants follow the tournament grid: WINk feeds a window of the last k
observations to both networks; MSn replaces the one-step target with an
n-step return; PER40k/PER1M sample from a prioritized buffer; LSTMk keeps
the window but runs the critic through an LSTM cell (the actor stays
feed-forward on the flattened window).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import nn
from .config import Config, ranged
from .replay import CODE_TERMINATIONS, DEFAULT_CAPACITY, TERMINATION_CODES, make_buffer
from .simulator import PREMATURE_TERMINATIONS, clamp_action, observation_dim


@dataclass(frozen=True)
class Variant:
    """What sets one tournament variant apart from the others."""

    window: int = 1
    nstep: int = 1
    buffer_kind: str = "uniform"
    capacity: int = DEFAULT_CAPACITY
    lstm: bool = False

    @property
    def family(self):
        """The tournament family, named by the trait that sets the variant
        apart: LSTM, PER, MS for an n-step target, else WIN."""
        if self.lstm:
            return "LSTM"
        if self.buffer_kind == "per":
            return "PER"
        return "MS" if self.nstep > 1 else "WIN"


VARIANTS = {
    "WIN1": Variant(),
    "WIN4": Variant(window=4),
    "WIN8": Variant(window=8),
    "MS2": Variant(nstep=2),
    "MS3": Variant(nstep=3),
    "MS4": Variant(nstep=4),
    "PER40k": Variant(buffer_kind="per", capacity=40_000),
    "PER1M": Variant(buffer_kind="per", capacity=1_000_000),
    "LSTM4": Variant(window=4, lstm=True),
    "LSTM8": Variant(window=8, lstm=True),
}


@dataclass(frozen=True)
class OUParams:
    theta: float = ranged("non-negative", 0.15)   # mean reversion
    sigma: float = ranged("non-negative", 0.2)    # volatility
    mu: float = 0.0                               # long-run mean


class OUProcess:
    """Mean-reverting noise with temporal correlation; deterministic per rng."""

    def __init__(self, params):
        self.params = params
        self.x = params.mu

    def reset(self):
        self.x = self.params.mu

    def step(self, rng):
        """One agent step: x <- x + theta*(mu - x) + sigma*N(0,1)."""
        p = self.params
        self.x = self.x + p.theta * (p.mu - self.x) + p.sigma * rng.standard_normal()
        return self.x


@dataclass(frozen=True)
class ExplorationConfig(Config, tree="exploration"):
    horizon: int = ranged("at least 1", 100_000)  # env steps until eps' reaches 0 (linear anneal)
    burst_prob: float = ranged("in [0, 1]", 0.1)
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
        steer = action[0] + eps * self.ou_steer.step(self.rng)
        throttle = action[1] + eps * self.ou_throttle.step(self.rng)
        brake = action[2] + eps * self.ou_brake.step(self.rng)
        if self.rng.random() < self.config.burst_prob:
            brake = action[2] + eps * self.ou_burst.step(self.rng)
            throttle = throttle * (1.0 - eps)
        self.steps += 1
        return np.array(clamp_action(steer, throttle, brake))


# whether an ending is premature, by termination code + 1 (code -1: none)
_PREMATURE_BY_CODE = np.array([CODE_TERMINATIONS[code] in PREMATURE_TERMINATIONS
                               for code in sorted(CODE_TERMINATIONS)])


def td_target(reward_sum, steps, bootstrap_q, gamma, termination, adopted_target=True):
    """TD targets for (possibly multi-step) trajectory views, element-wise.

    termination holds replay termination codes (TERMINATION_CODES; -1 while
    the episode runs on). Premature endings (out of track, backwards, slow
    progress) never bootstrap: y is the discounted reward sum alone. With
    the adopted-target rule (default), a step-cap ending bootstraps exactly
    like a normal step; with the rule off, every terminal collapses to
    y = reward_sum. The discounts gamma ** k are Python floats, so each
    target has the bits of the scalar expression r + gamma ** k * q.
    """
    steps = np.asarray(steps)
    termination = np.asarray(termination)
    discounts = np.array([gamma ** k for k in range(int(steps.max()) + 1)])
    if adopted_target:
        no_bootstrap = _PREMATURE_BY_CODE[termination + 1]
    else:
        no_bootstrap = termination != TERMINATION_CODES[None]
    return np.where(no_bootstrap, reward_sum, reward_sum + discounts[steps] * bootstrap_q)


@dataclass
class AgentSettings(Config, tree="agent"):
    """The learner's hyperparameters: an experiment config's ``agent`` tree."""

    gamma: float = ranged("in [0, 1]", 0.99)
    tau: float = ranged("in [0, 1]", 1e-3)
    batch_size: int = ranged("at least 1", 32)
    actor_lr: float = ranged("finite and positive", 1e-4)
    critic_lr: float = ranged("finite and positive", 1e-3)
    hidden: int = ranged("at least 1", 64)
    adopted_target: bool = True


@dataclass
class TrainMetrics:
    critic_loss: float
    actor_objective: float
    td_errors: np.ndarray
    actor_grad_sq: np.ndarray | None = None


class DDPGAgent:
    """Actor-critic learner with target networks and a replay buffer.

    config is the run's ExperimentConfig, kept as it is: the agent reads its
    variant (whose VARIANTS row is ``variant``), its agent and exploration
    trees, and whether it reads LAC (which sets ``obs_dim``).
    """

    def __init__(self, config, seed=0):
        self.config = config
        self.variant = v = VARIANTS[config.variant]
        self.obs_dim = observation_dim(config.lac_enabled)
        c = config.agent
        init_rng = np.random.default_rng(seed)
        in_dim = v.window * self.obs_dim
        self.actor = nn.build_actor(in_dim, (c.hidden, c.hidden), rng=init_rng)
        if v.lstm:
            self.critic = nn.build_lstm_critic(self.obs_dim, hidden=c.hidden, rng=init_rng)
        else:
            self.critic = nn.build_critic(in_dim, hidden=c.hidden, rng=init_rng)
        self.target_actor = self.actor.copy()
        self.target_critic = self.critic.copy()
        self.actor_opt = nn.Adam(self.actor.parameters(), lr=c.actor_lr)
        self.critic_opt = nn.Adam(self.critic.parameters(), lr=c.critic_lr)
        self.buffer = make_buffer(v.buffer_kind, v.capacity)
        self.explorer = Explorer(config.exploration, seed=seed + 1)
        self.rng = np.random.default_rng(seed + 2)
        self.train_steps = 0

    # --- acting ------------------------------------------------------------

    def _flatten_window(self, window_obs):
        w = np.asarray(window_obs, dtype=np.float64)
        want = (self.variant.window, self.obs_dim)
        if w.shape != want:
            raise nn.ShapeError(f"expected window {want}, got {w.shape}")
        return w.reshape(1, -1)

    def act(self, window_obs):
        """Deterministic policy action for a (window, obs_dim) array of observations."""
        return self.actor(self._flatten_window(window_obs))[0]

    def act_explore(self, window_obs):
        """Policy action plus annealed OU noise and brake bursts."""
        return self.explorer.explore(self.act(window_obs))

    # --- training ------------------------------------------------------------

    def compute_targets(self, slots, windows=None):
        """TD targets for a sampled slot array, per the variant's rules.

        windows is assemble_window of the slots when the caller has it; with
        nstep 1 every view ends at its own slot, so it is reused.
        """
        c, v = self.config.agent, self.variant
        view = self.buffer.assemble_nstep(np.asarray(slots), v.nstep, c.gamma)
        # bootstrap from the window that ends at each view's last transition
        if windows is None or v.nstep != 1:
            windows = self.buffer.assemble_window(view.slot, v.window)
        _, a_win, next_s_win = windows
        a_next = self.target_actor(next_s_win)
        q_next = self.target_critic(next_s_win, np.concatenate([a_win[:, 1:], a_next[:, None]], axis=1))
        return td_target(view.reward_sum, view.steps, q_next, c.gamma, view.termination,
                         c.adopted_target)

    def train_step(self):
        """One sampled update of critic and actor plus target soft updates."""
        c, v = self.config.agent, self.variant
        slots = self.buffer.sample(c.batch_size, self.rng)
        n = len(slots)
        windows = self.buffer.assemble_window(slots, v.window)
        y = self.compute_targets(slots, windows)
        s_win, a_win, _ = windows

        # critic regression toward the targets
        q, cache = self.critic.forward(s_win, a_win)
        td = y - q
        critic_loss = float(np.mean(td * td))
        if not math.isfinite(critic_loss):
            raise nn.NumericError(
                "non-finite critic loss; minibatch slots "
                f"{slots.tolist()}, targets {np.array2string(y, precision=3)}"
            )
        grads = self.critic.backward(cache, (2.0 / n) * (q - y))
        # per-sample grad_a Q at the stored actions, before the weights move
        grad_sq = None
        if v.buffer_kind == "per":
            ga_stored = self.critic.action_grad(cache, np.ones(n))
            grad_sq = np.einsum("ij,ij->i", ga_stored, ga_stored)
        self.critic_opt.step(self.critic.flat, grads)
        # free the critic's cache before the next forward needs as much: with
        # both alive, an LSTM8 update's heap top outgrew glibc's trim
        # threshold, and every update faulted it back in
        del cache, grads

        # actor ascent along grad_a Q evaluated at a = mu(s)
        a_pred, actor_cache = self.actor.forward(s_win)
        q_pred, cache_pred = self.critic.forward(
            s_win, np.concatenate([a_win[:, :-1], a_pred[:, None]], axis=1))
        actor_objective = float(np.mean(q_pred))
        ga = self.critic.action_grad(cache_pred, np.full(n, 1.0 / n))
        actor_grads = self.actor.backward(actor_cache, -ga)
        self.actor_opt.step(self.actor.flat, actor_grads)

        nn.soft_update(self.actor.flat, self.target_actor.flat, c.tau)
        nn.soft_update(self.critic.flat, self.target_critic.flat, c.tau)

        if v.buffer_kind == "per":
            self.buffer.update_priority(slots, td, grad_sq)
        self.train_steps += 1
        return TrainMetrics(critic_loss, actor_objective, td, grad_sq)

    # --- persistence -----------------------------------------------------------

    def network_arrays(self):
        """Each network parameter array by its checkpoint name."""
        out = {}
        for tag, net in (("actor", self.actor), ("critic", self.critic),
                         ("target_actor", self.target_actor),
                         ("target_critic", self.target_critic)):
            for i, p in enumerate(net.parameters()):
                out[f"{tag}_{i}"] = p
        return out

    def save(self, path):
        """Checkpoint the networks with the run's whole config; the loader is
        experiments.load_agent."""
        meta = {"kind": "agent", "config": asdict(self.config),
                "train_steps": self.train_steps}
        nn.save_arrays(path, meta, self.network_arrays())


class ObservationWindow:
    """Rolling window of the last w observation vectors for acting.

    Episode starts pad by repeating the first observation, mirroring the
    replay-side window assembly.
    """

    def __init__(self, window):
        self.window = window
        self._buf = None

    def reset(self, obs):
        self._buf = np.tile(np.asarray(obs, dtype=np.float64), (self.window, 1))

    def push(self, obs):
        self._buf = np.vstack([self.array()[1:], np.asarray(obs, dtype=np.float64)])

    def array(self):
        if self._buf is None:
            raise RuntimeError("window not initialized; call reset() first")
        return self._buf
