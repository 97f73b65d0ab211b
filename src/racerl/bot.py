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
from .simulator import Action, CarParams, EnvSettings, RacingEnv

SPEED_LOOKAHEAD = (0.0, 20.0, 40.0, 60.0, 80.0)


class BaselineBot:
    """Pure pursuit + curvature speed cap, proportional pedals."""

    def __init__(self, track, line=None, params=None, safety=0.9, speed_scale=1.0,
                 lookahead_gain=0.45, min_lookahead=8.0, max_lookahead=26.0,
                 pedal_gain=0.35):
        self.track = track
        self.line = line if line is not None else RacingLine.middle_of_track(track)
        self.params = params if params is not None else CarParams()
        self.safety = safety
        self.speed_scale = speed_scale
        self.lookahead_gain = lookahead_gain
        self.min_lookahead = min_lookahead
        self.max_lookahead = max_lookahead
        self.pedal_gain = pedal_gain

    def target_speed(self, delta, vx):
        """Grip-limited speed over the next 80 m, scaled by the safety factor."""
        p = self.params
        v = p.top_speed * 0.95
        for off in SPEED_LOOKAHEAD:
            kappa = abs(self.line.curvature_at(delta + off))
            if kappa > 1e-9:
                v = min(v, self.safety * max_speed(
                    kappa, p.mu_grip, mass=p.mass, downforce=p.downforce(vx)))
        return v * self.speed_scale

    def act(self, state):
        """Action for the current kinematic car state."""
        frame = self.line.frame(state.position, state.heading)
        p = self.params

        lookahead = min(max(self.lookahead_gain * state.vx, self.min_lookahead),
                        self.max_lookahead)
        target = self.line.world_point_at(frame.delta + lookahead)
        vec = target - state.position
        dist = float(np.hypot(vec[0], vec[1]))
        bearing = wrap_angle(math.atan2(vec[1], vec[0]) - state.heading)
        curvature_cmd = 2.0 * math.sin(bearing) / max(dist, 1e-6)
        steer_angle = math.atan(curvature_cmd * p.wheelbase)
        steer = min(max(steer_angle / p.max_steer, -1.0), 1.0)

        err = self.target_speed(frame.delta, state.vx) - state.vx
        throttle = min(max(self.pedal_gain * err, 0.0), 1.0)
        brake = min(max(-self.pedal_gain * (err + 0.5), 0.0), 1.0)
        return Action(steer=steer, throttle=throttle, brake=brake)


def drive_bot(env, bot, max_steps=None, logger=None, stop_after_laps=None):
    """Drive the bot until termination, max_steps, or a lap count."""
    env.reset()
    steps = max_steps if max_steps is not None else env.settings.max_steps
    total = 0.0
    laps = []
    result = None
    for i in range(steps):
        action = bot.act(env.state)
        result = env.step(action)
        total += result.reward
        if logger is not None:
            logger.record(i, env, action, result)
        if result.info.lap_completed:
            laps.append(result.info.lap_time)
            if stop_after_laps is not None and len(laps) >= stop_after_laps:
                break
        if result.termination:
            break
    return {
        "steps": env.tracker.steps,
        "return": total,
        "laps": laps,
        "damage": env.state.damage,
        "termination": result.termination if result else None,
    }


def bot_lap_time(track, laps=2, params=None, safety=0.9):
    """Deterministic bot lap time on a track (best of the flying laps)."""
    params = params if params is not None else CarParams()
    max_steps = int((laps + 1) * track.length / 3.0 / 0.2) + 600
    env = RacingEnv(track, params=params, settings=EnvSettings(max_steps=max_steps))
    bot = BaselineBot(track, params=params, safety=safety)
    stats = drive_bot(env, bot, stop_after_laps=laps + 1)  # standing start + flying laps
    if not stats["laps"]:
        raise RuntimeError(f"baseline bot failed to lap {track.name}")
    return min(stats["laps"]), stats


def record_reference_line(track, params=None, slow_factor=0.6, spacing=2.0,
                          safety=0.9):
    """Drive a slow bot lap and record its (delta, alpha) trace every 2 m.

    Raises RuntimeError when the bot cannot complete the lap (the track is
    then unusable for RC reference modes).
    """
    params = params if params is not None else CarParams()
    max_steps = int(track.length / (2.5 * slow_factor) / 0.2) + 800
    env = RacingEnv(track, params=params, settings=EnvSettings(max_steps=max_steps))
    bot = BaselineBot(track, params=params, safety=safety, speed_scale=slow_factor)
    env.reset()

    progress_trace = [0.0]
    alpha_trace = [0.5]  # the car starts exactly on the axis
    while True:
        result = env.step(bot.act(env.state))
        frame_alpha = 0.5 + result.info.track_pos / 2.0
        progress_trace.append(result.info.progress)
        alpha_trace.append(min(max(frame_alpha, 0.0), 1.0))
        if result.info.lap_completed:
            break
        if result.termination:
            raise RuntimeError(
                f"bot failed to complete a slow lap on {track.name} "
                f"({result.termination.value}); track unusable for RC modes")

    grid = np.arange(0.0, track.length - spacing / 2.0, spacing)
    alphas = np.interp(grid, np.asarray(progress_trace), np.asarray(alpha_trace))
    return RacingLine(track, grid, alphas, name=f"{track.name}-recorded")
