"""Replay buffers: windows, n-step views, and prioritized sampling.

Run:  python3 demos/04_replay_and_priorities.py
"""

import numpy as np

from racerl.replay import (
    CODE_TERMINATIONS,
    PERConfig,
    PrioritizedReplayBuffer,
    ReplayBuffer,
    Transition,
)
from racerl.simulator import Termination

rng = np.random.default_rng(0)


def push_episode(buf, episode, steps, terminal=None):
    for i in range(steps):
        buf.push(Transition(
            state=np.array([episode, i, 0.0]),
            action=np.array([0.0, 0.5, 0.0]),
            reward=1.0,
            next_state=np.array([episode, i + 1.0, 0.0]),
            termination=terminal if i == steps - 1 else None,
            episode=episode, step=i,
        ))


buf = ReplayBuffer(64)
push_episode(buf, 0, 6, terminal=Termination.OUT_OF_TRACK)
push_episode(buf, 1, 4)

states, actions, next_states = buf.assemble_window(7, 4)
print("window ending at episode 1, step 1 (pads by repeating the episode start):")
print(states[:, :2])

view = buf.assemble_nstep(3, 4, gamma=0.9)
print(f"\n4-step view from episode 0, step 3: reward_sum={view.reward_sum:.2f}, "
      f"horizon m={view.steps}, ended by {CODE_TERMINATIONS[int(view.termination)]}")

per = PrioritizedReplayBuffer(16, PERConfig(alpha=1.0))
for i in range(4):
    per.push(Transition(np.array([float(i)]), np.zeros(3), 0.0,
                        np.array([float(i)]), None, 0, i))
per.update_priority(np.arange(4), [0.1, 0.1, 2.0, 0.1], np.zeros(4))

counts = np.zeros(4)
for _ in range(200):
    for slot in per.sample(50, rng):
        counts[slot] += 1
print(f"\npriorities favour the high-TD-error slot 2: "
      f"empirical frequencies {counts / counts.sum()}")
print(f"sum-tree root equals the leaf sum within {per.tree.consistency_error():.1e}")
