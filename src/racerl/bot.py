"""Heuristic baseline driver and the slow-lap racing line recorder.

The bot steers by pure pursuit toward a look-ahead point on its reference
line and tracks a speed target capped by the grip-limited cornering speed
of the curvature ahead. It plays the structural role of the handcrafted
reference driver: a beatable baseline and the recorder of the slow-lap
racing line used by the RC reference modes.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import RacingLine, max_speed, wrap_angle
from .simulator import CarParams, EnvSettings, RacingEnv, clamp_action

SPEED_LOOKAHEAD = (0.0, 20.0, 40.0, 60.0, 80.0)
LOOKAHEAD_GAIN = 0.45  # pure-pursuit look-ahead, m per m/s, clamped to [8, 26] m
MIN_LOOKAHEAD = 8.0
MAX_LOOKAHEAD = 26.0
PEDAL_GAIN = 0.35      # pedal travel per m/s of speed error
SAFETY = 0.9           # fraction of the grip-limited cornering speed
SLOW_FACTOR = 0.6      # speed scale of the slow lap that records a racing line
LINE_SPACING = 2.0     # m between the recorded line's points


class BaselineBot:
    """Pure pursuit along the track axis + curvature speed cap, proportional pedals."""

    def __init__(self, track, params=None, speed_scale=1.0):
        self.line = RacingLine.middle_of_track(track)
        self.params = params if params is not None else CarParams()
        self.speed_scale = speed_scale

    def target_speed(self, delta, vx):
        """Grip-limited speed over the next 80 m, scaled by the safety factor."""
        p = self.params
        v = p.top_speed * 0.95
        for off in SPEED_LOOKAHEAD:
            kappa = abs(self.line.curvature_at(delta + off))
            if kappa > 1e-9:
                v = min(v, SAFETY * max_speed(
                    kappa, p.mu_grip, mass=p.mass, downforce=p.downforce(vx)))
        return v * self.speed_scale

    def act(self, state, axis_frame):
        """Clamped (steer, throttle, brake) for the current kinematic car state.

        axis_frame is the state's frame on the track axis
        (RacingEnv.axis_frame); the bot's line is the axis, so it needs no
        projection of its own.
        """
        frame = self.line.frame_from_axis(axis_frame)
        p = self.params

        lookahead = min(max(LOOKAHEAD_GAIN * state.vx, MIN_LOOKAHEAD), MAX_LOOKAHEAD)
        target = self.line.world_point_at(frame.delta + lookahead)
        vec = target - state.position
        dist = float(np.hypot(vec[0], vec[1]))
        bearing = wrap_angle(math.atan2(vec[1], vec[0]) - state.heading)
        curvature_cmd = 2.0 * math.sin(bearing) / max(dist, 1e-6)
        steer_angle = math.atan(curvature_cmd * p.wheelbase)
        err = self.target_speed(frame.delta, state.vx) - state.vx
        return clamp_action(steer_angle / p.max_steer, PEDAL_GAIN * err, -PEDAL_GAIN * (err + 0.5))


def drive_bot(env, bot, max_steps=None, logger=None, stop_after_laps=None):
    """Drive the bot until termination, max_steps, or a lap count.

    A logger's record(step, env, action, result) sees every step: the
    simulator's TelemetryLogger, or the line recorder's trace.
    """
    env.reset()
    steps = max_steps if max_steps is not None else env.settings.max_steps
    for i in range(steps):
        action = bot.act(env.state, env.axis_frame)
        result = env.step(action)
        if logger is not None:
            logger.record(i, env, action, result)
        if env.done or (stop_after_laps is not None and len(env.lap_times) >= stop_after_laps):
            break
    return {
        "steps": env.tracker.steps,
        "return": env.episode_return,
        "laps": env.lap_times,
        "damage": env.state.damage,
        "termination": env.termination,
    }


def bot_lap_time(track, laps=2):
    """Deterministic bot lap time on a track: the best of `laps` flying laps,
    driven after the standing-start lap."""
    if laps < 1:
        raise ValueError(f"laps must be at least 1, got {laps}")
    max_steps = int((laps + 1) * track.length / 3.0 / 0.2) + 600
    env = RacingEnv(track, settings=EnvSettings(max_steps=max_steps))
    stats = drive_bot(env, BaselineBot(track), stop_after_laps=laps + 1)  # standing start + flying laps
    flying = stats["laps"][1:]
    if not flying:
        raise RuntimeError(f"baseline bot finished no flying lap on {track.name}")
    return min(flying), stats


class _LineTrace:
    """drive_bot logger of each step's lap progress and clipped lateral
    position alpha (0 and 1 are the borders), from the start on the axis."""

    def __init__(self):
        self.progress = [0.0]
        self.alpha = [0.5]

    def record(self, step, env, action, result):
        self.progress.append(env.lap_progress)
        self.alpha.append(min(max(0.5 + env.axis_frame.track_pos / 2.0, 0.0), 1.0))


def record_reference_line(track, params=None):
    """Drive a slow bot lap and record its (delta, alpha) trace every 2 m.

    Raises RuntimeError when the bot cannot complete the lap (the track is
    then unusable for RC reference modes).
    """
    max_steps = int(track.length / (2.5 * SLOW_FACTOR) / 0.2) + 800
    env = RacingEnv(track, params=params, settings=EnvSettings(max_steps=max_steps))
    trace = _LineTrace()
    stats = drive_bot(env, BaselineBot(track, params=params, speed_scale=SLOW_FACTOR),
                      logger=trace, stop_after_laps=1)
    if not stats["laps"]:
        raise RuntimeError(
            f"bot failed to complete a slow lap on {track.name} "
            f"({stats['termination'].value}); track unusable for RC modes")

    grid = np.arange(0.0, track.length - LINE_SPACING / 2.0, LINE_SPACING)
    alphas = np.interp(grid, np.asarray(trace.progress), np.asarray(trace.alpha))
    return RacingLine(track, grid, alphas, name=f"{track.name}-recorded")
