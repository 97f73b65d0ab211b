"""Where the traced run wraps racerl, and the per-layer metrics it derives.

Each span is named ``<layer>.<call>``; the layer is the racerl module the
call belongs to. Spans of ``bench`` are the benchmark's own.
"""

from __future__ import annotations

import collections
import tracemalloc

import numpy as np

from racerl import agent, bot, experiments, geometry, nn, replay, simulator, tracks

from tracer import layer_self_times
from workloads import TRACKS

TRACED_VARIANTS = ("WIN1", "WIN8", "MS4", "PER40k", "LSTM8")
TERMINATIONS = tuple(t.value for t in simulator.Termination)
LAYERS = ("geometry", "simulator", "tracks", "bot", "agent", "replay", "nn", "experiments")


def _variant(agent_self, *args, **kwargs):
    return agent_self.config.variant


def _track_name(name, *args, **kwargs):
    return name


class Probes:
    """Installs the wrappers on a Tracer and keeps the counts they observe."""

    def __init__(self):
        self.terminations = collections.Counter()
        self.buffers = []

    def _count_termination(self, result):
        if result.termination is not None:
            self.terminations[result.termination.value] += 1

    def install(self, tracer):
        w = tracer.wrap
        # geometry
        w(geometry.Polyline, "project", "geometry.project")
        w(geometry.Track, "__init__", "geometry.track_init")
        w(geometry.Track, "frame", "geometry.track_frame")
        w(geometry.Track, "rangefinders", "geometry.rangefinders")
        w(geometry.RacingLine, "__init__", "geometry.line_init")
        w(geometry.RacingLine, "frame", "geometry.line_frame")
        w(geometry.RacingLine, "curvature_at", "geometry.line_curvature")
        w(geometry.RacingLine, "world_point_at", "geometry.line_point")
        # simulator
        w(simulator.RacingEnv, "step", "simulator.step", observe=self._count_termination)
        w(simulator.RacingEnv, "observe", "simulator.observe")
        w(simulator.RacingEnv, "reset", "simulator.reset")
        # tracks
        w(tracks, "get_track", "tracks.get_track", key=_track_name)
        # bot
        w(bot.BaselineBot, "act", "bot.act")
        w(bot, "bot_lap_time", "bot.lap_time")
        w(bot, "drive_bot", "bot.drive")
        w(bot, "record_reference_line", "bot.record_line")
        # agent
        w(agent.DDPGAgent, "__init__", "agent.init")
        w(agent.DDPGAgent, "act", "agent.act")
        w(agent.DDPGAgent, "act_explore", "agent.act_explore")
        w(agent.DDPGAgent, "train_step", "agent.train_step", key=_variant)
        w(agent.DDPGAgent, "compute_targets", "agent.compute_targets", key=_variant)
        w(agent.DDPGAgent, "save", "agent.save")
        w(agent.ObservationWindow, "push", "agent.window_push")
        # replay (make_buffer is looked up in agent, which imported it by name)
        w(agent, "make_buffer", "replay.make_buffer", observe=self.buffers.append)
        w(replay.ReplayBuffer, "push", "replay.push")
        w(replay.ReplayBuffer, "sample", "replay.sample")
        w(replay.PrioritizedReplayBuffer, "sample", "replay.sample")
        w(replay.ReplayBuffer, "assemble_window", "replay.assemble_window")
        w(replay.ReplayBuffer, "assemble_nstep", "replay.assemble_nstep")
        w(replay.PrioritizedReplayBuffer, "update_priority", "replay.update_priority")
        # nn
        w(nn.Adam, "step", "nn.adam_step")
        w(nn, "soft_update", "nn.soft_update")
        w(nn.Actor, "forward", "nn.actor_forward")
        w(nn.Actor, "backward", "nn.actor_backward")
        w(nn.Critic, "forward", "nn.critic_forward")
        w(nn.Critic, "backward", "nn.critic_backward")
        w(nn.LstmCritic, "forward", "nn.lstm_critic_forward")
        w(nn.LstmCritic, "backward", "nn.lstm_critic_backward")
        w(nn, "save_arrays", "nn.save_arrays")
        # experiments
        w(experiments, "train_run", "experiments.train_run")
        w(experiments, "evaluate", "experiments.evaluate")
        w(experiments, "run_eval_episode", "experiments.eval_episode")
        w(experiments, "make_env", "experiments.make_env")
        w(experiments, "make_agent", "experiments.make_agent")
        w(experiments, "build_reference", "experiments.build_reference")

    def stale_updates(self):
        return sum(getattr(b, "stale_updates", 0) for b in self.buffers)


def bytes_per_transition(kind, n, seed):
    """Bytes traced per transition pushed into a fresh buffer of capacity n.

    The transitions are built as train_run builds them: each state is the
    previous transition's next state, so one observation array is stored
    per step. The buffer's own preallocated slots count too.
    """
    rng = np.random.default_rng(seed)
    obs = rng.standard_normal((n + 1, 29))
    actions = rng.uniform(-1.0, 1.0, (n, 3))
    rewards = rng.standard_normal(n).tolist()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        buf = replay.make_buffer(kind, capacity=n)
        state = obs[0].copy()
        for i in range(n):
            next_state = obs[i + 1].copy()
            buf.push(replay.Transition(
                state=state, action=actions[i].copy(), reward=rewards[i],
                next_state=next_state, termination=None, episode=1, step=i))
            state = next_state
        used = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del buf
    return used / n


def layer_metrics(spans, self_t, probes, traced_wall, untraced_wall):
    """Every per-layer metric, 0 where the workload made no such call."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans])
    by_name = collections.defaultdict(list)
    for i, name in enumerate(names):
        by_name[name].append(i)

    def pct(name, q, scale, values=dur):
        idx = by_name.get(name)
        return float(np.percentile(values[idx], q)) * scale if idx else 0.0

    def count(name):
        return len(by_name.get(name, ()))

    # replay.sample spans by the variant of the train_step that made them
    for i in by_name.get("replay.sample", ()):
        p = parents[i]
        while p >= 0 and not names[p].startswith("agent.train_step."):
            p = parents[p]
        if p >= 0:
            by_name["replay.sample." + names[p].rsplit(".", 1)[1]].append(i)

    us, ms = 1e6, 1e3
    steps = count("simulator.step")
    updates = sum(count(f"agent.train_step.{v}") for v in TRACED_VARIANTS)
    m = {
        "geometry.project_us_p50": (pct("geometry.project", 50, us), "us"),
        "geometry.project_us_p99": (pct("geometry.project", 99, us), "us"),
        "geometry.project_calls_per_step": (count("geometry.project") / steps if steps else 0.0, "count"),
        "geometry.rangefinders_us_p50": (pct("geometry.rangefinders", 50, us), "us"),
        "geometry.rangefinders_us_p99": (pct("geometry.rangefinders", 99, us), "us"),
        "geometry.track_frame_us_p50": (pct("geometry.track_frame", 50, us), "us"),
        "geometry.line_frame_us_p50": (pct("geometry.line_frame", 50, us), "us"),
        "simulator.step_ms_p50": (pct("simulator.step", 50, ms), "ms"),
        "simulator.step_ms_p99": (pct("simulator.step", 99, ms), "ms"),
        "simulator.step_self_ms_p50": (pct("simulator.step", 50, ms, self_t), "ms"),
        "simulator.observe_us_p50": (pct("simulator.observe", 50, us), "us"),
        "simulator.reset_calls": (count("simulator.reset"), "count"),
        "simulator.steps": (steps, "count"),
    }
    for kind in TERMINATIONS:
        m[f"simulator.terminations.{kind}"] = (probes.terminations[kind], "count")
    for name in TRACKS:
        m[f"tracks.get_track_ms.{name}"] = (pct(f"tracks.get_track.{name}", 50, ms), "ms")
    m["bot.act_us_p50"] = (pct("bot.act", 50, us), "us")
    m["bot.act_us_p99"] = (pct("bot.act", 99, us), "us")
    m["bot.record_line_s"] = (pct("bot.record_line", 50, 1.0), "s")
    m["agent.act_us_p50"] = (pct("agent.act", 50, us), "us")
    m["agent.act_us_p99"] = (pct("agent.act", 99, us), "us")
    m["agent.act_explore_us_p50"] = (pct("agent.act_explore", 50, us), "us")
    for v in TRACED_VARIANTS:
        m[f"agent.train_step_ms_p50.{v}"] = (pct(f"agent.train_step.{v}", 50, ms), "ms")
        m[f"agent.train_step_ms_p99.{v}"] = (pct(f"agent.train_step.{v}", 99, ms), "ms")
        m[f"agent.compute_targets_ms_p50.{v}"] = (pct(f"agent.compute_targets.{v}", 50, ms), "ms")
    m["agent.save_ms_p50"] = (pct("agent.save", 50, ms), "ms")
    m["agent.updates_per_s"] = (updates / untraced_wall, "1/s")
    m["replay.push_us_p50"] = (pct("replay.push", 50, us), "us")
    m["replay.push_us_p99"] = (pct("replay.push", 99, us), "us")
    for v in TRACED_VARIANTS:
        m[f"replay.sample_us_p50.{v}"] = (pct(f"replay.sample.{v}", 50, us), "us")
        m[f"replay.sample_us_p99.{v}"] = (pct(f"replay.sample.{v}", 99, us), "us")
    m["replay.assemble_window_us_p50"] = (pct("replay.assemble_window", 50, us), "us")
    m["replay.assemble_nstep_us_p50"] = (pct("replay.assemble_nstep", 50, us), "us")
    m["replay.update_priority_us_p50"] = (pct("replay.update_priority", 50, us), "us")
    m["replay.stale_updates"] = (probes.stale_updates(), "count")
    m["nn.adam_step_us_p50"] = (pct("nn.adam_step", 50, us), "us")
    m["nn.adam_steps"] = (count("nn.adam_step"), "count")
    for call in ("soft_update", "actor_forward", "actor_backward", "critic_forward",
                 "critic_backward", "lstm_critic_forward", "lstm_critic_backward"):
        m[f"nn.{call}_us_p50"] = (pct(f"nn.{call}", 50, us), "us")
    m["nn.save_arrays_ms_p50"] = (pct("nn.save_arrays", 50, ms), "ms")
    m["experiments.eval_episode_ms_p50"] = (pct("experiments.eval_episode", 50, ms), "ms")
    m["experiments.make_env_ms_p50"] = (pct("experiments.make_env", 50, ms), "ms")
    m["experiments.tracing_overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    totals = layer_self_times(spans, self_t)
    shares = {layer: totals.get(layer, 0.0) / traced_wall for layer in LAYERS}
    for layer, value in shares.items():
        m[f"{layer}.self_share"] = (value, "ratio")
    m["bench.self_share"] = (totals.get("bench", 0.0) / traced_wall, "ratio")
    m["trace.layer_share_sum"] = (sum(shares.values()), "ratio")
    m["trace.spans"] = (len(spans), "count")
    return m
