"""The racing environment: car dynamics, telemetry, reward, damage, termination.

The car is a kinematic bicycle with a grip-capped yaw rate and a
longitudinal force balance (engine - brake - quadratic drag). Agent steps
are 200 ms, integrated as 10 substeps of 20 ms. The environment is fully
deterministic: identical action sequences give bit-identical trajectories.

trackPos and theta in the telemetry are measured against a configurable
reference (middle of the track, or a recorded racing line); the border
collision, lap accounting, and the out-of-track / backwards termination
always use the physical track axis. Only RacingEnv.observe() builds the
telemetry vector; the bot never calls it, so its steps cast no rays.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .config import Config, ranged
from .files import write_text
from .geometry import RANGEFINDER_MAX, RacingLine, TrackFrame, wrap_angle
from .nn import NumericError

GRAVITY = 9.81


class Termination(Enum):
    """Episode end kinds, in check priority order."""

    OUT_OF_TRACK = "out_of_track"
    BACKWARDS = "backwards"
    SLOW_PROGRESS = "slow_progress"
    MAX_STEPS = "max_steps"


# kinds that replace the step reward with -1; the others keep the step reward
PENALIZED_TERMINATIONS = (Termination.OUT_OF_TRACK, Termination.BACKWARDS)

# kinds where the TD target must not bootstrap (the adopted-target rule keeps
# bootstrapping for MAX_STEPS)
PREMATURE_TERMINATIONS = (
    Termination.OUT_OF_TRACK,
    Termination.BACKWARDS,
    Termination.SLOW_PROGRESS,
)


@dataclass(frozen=True)
class CarParams(Config, tree="car"):
    mass: float = ranged("finite and positive", 1000.0)             # kg
    mu_grip: float = ranged("finite and positive", 1.1)
    downforce_coeff: float = ranged("non-negative", 2.0)            # F_a = c * v^2, N/(m/s)^2
    drag_coeff: float = ranged("finite and positive", 2.8)          # N/(m/s)^2
    engine_force: float = ranged("finite and positive", 7000.0)     # N
    brake_force: float = ranged("finite and positive", 12000.0)     # N
    max_steer: float = ranged("finite and positive", 0.45)          # rad
    wheelbase: float = ranged("finite and positive", 2.6)           # m
    width: float = ranged("finite and positive", 1.8)               # m
    top_speed: float = ranged("finite and positive", 50.0)          # m/s
    wheel_radius: float = ranged("finite and positive", 0.33)       # m
    rpm_idle: float = ranged("non-negative", 1000.0)
    rpm_per_mps: float = ranged("non-negative", 140.0)

    def validate(self, path=None):
        super().validate(path)
        # declared top speed must be reachable: engine force >= drag there
        need = self.drag_coeff * self.top_speed**2
        if self.engine_force < need - 1e-9:
            p = self.tree if path is None else path
            raise ValueError(f"{p}.engine_force {self.engine_force} N cannot sustain {p}.top_speed "
                             f"{self.top_speed} m/s against {p}.drag_coeff {self.drag_coeff}: "
                             f"that needs at least {need:g} N")

    def downforce(self, vx):
        return self.downforce_coeff * vx * vx

    def lateral_accel_cap(self, vx):
        return self.mu_grip * (GRAVITY + self.downforce(vx) / self.mass)

    def corner_speed(self, kappa, vx):
        """Grip-limited speed sqrt(mu * (1/kappa) * (g + F_a(vx)/m)) on a
        curvature kappa > 0, with the downforce F_a of the speed vx."""
        return math.sqrt(self.mu_grip * (1.0 / kappa) * (GRAVITY + self.downforce(vx) / self.mass))

    def rpm(self, vx):
        return self.rpm_idle + self.rpm_per_mps * vx


@dataclass
class EnvSettings(Config, tree="env"):
    """Episode settings of a RacingEnv: time step, reward, start, termination rules."""

    dt: float = ranged("finite and positive", 0.2)  # agent step, s
    substeps: int = ranged("at least 1", 10)        # integration steps per agent step
    max_steps: int = ranged("at least 1", 400)
    damage_weight: float = ranged("non-negative", 0.01)
    damage_coeff: float = ranged("non-negative", 1.0)
    literal_sin: bool = False
    start_delta: float = 0.0                        # start position, m along the track axis
    start_speed: float = ranged("non-negative", 0.0)
    # consecutive |theta| > pi/2 steps that end the episode
    backwards_steps: int = ranged("at least 1", 5)
    slow_window: int = ranged("at least 1", 50)     # steps in the slow-progress speed mean
    slow_speed: float = ranged("non-negative", 2.0)  # m/s
    # steps before slow progress can end the episode
    slow_grace: int = ranged("non-negative", 100)


def eval_step_cap(track, laps, dt):
    # generous cap: finishing each lap slower than 6 m/s average counts as DNF
    return int(laps * track.length / 6.0 / dt) + 300


def clamp_action(steer, throttle, brake):
    """Steer to [-1, 1], pedals to [0, 1]; min/max keep a -0.0 that np.clip zeroes."""
    return min(max(steer, -1.0), 1.0), min(max(throttle, 0.0), 1.0), min(max(brake, 0.0), 1.0)


@dataclass
class CarState:
    position: np.ndarray
    heading: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    yaw_rate: float = 0.0
    damage: float = 0.0


# observation scaling constants: each feature lands roughly in [-1, 1]; the
# rangefinders are divided by their range, RANGEFINDER_MAX
ANGLE_SCALE = math.pi
SPEED_SCALE = 50.0
WHEEL_SCALE = 150.0
RPM_SCALE = 10000.0
LAC_SCALE = 0.1  # kappa values divided by this, i.e. multiplied by 10


def observation_dim(lac_enabled):
    return 33 if lac_enabled else 29


def progress_reward(vx, theta, track_pos, damage_increment=0.0,
                    damage_weight=EnvSettings.damage_weight, literal_sin=EnvSettings.literal_sin):
    """Speed-projected progress reward with a damage penalty.

    Default form: vx * (cos(theta) - |sin(theta)| - |track_pos|). With
    literal_sin=True the sin term keeps its sign (which rewards pointing
    left of the axis).
    """
    sin_term = math.sin(theta) if literal_sin else abs(math.sin(theta))
    return vx * (math.cos(theta) - sin_term - abs(track_pos)) - damage_weight * damage_increment


class TerminationTracker:
    """Applies the episode-end rules of an EnvSettings in fixed priority order.

    out_of_track: |trackPos| > 1 (track axis frame)
    backwards:    |theta| > pi/2 for backwards_steps consecutive steps
    slow_progress: mean vx over the last slow_window steps < slow_speed,
                   after slow_grace steps
    max_steps:    step count reached the cap
    """

    def __init__(self, settings):
        self.settings = settings
        self.steps = 0
        self.backwards_count = 0
        self.vx_history = deque(maxlen=settings.slow_window)

    def update(self, track_pos, theta, vx):
        """Record one agent step and return the termination kind, if any."""
        self.steps += 1
        self.backwards_count = self.backwards_count + 1 if abs(theta) > math.pi / 2.0 else 0
        self.vx_history.append(vx)
        return self.check(track_pos)

    def check(self, track_pos):
        s = self.settings
        if abs(track_pos) > 1.0:
            return Termination.OUT_OF_TRACK
        if self.backwards_count >= s.backwards_steps:
            return Termination.BACKWARDS
        if (
            self.steps > s.slow_grace
            and len(self.vx_history) == s.slow_window
            and sum(self.vx_history) / s.slow_window < s.slow_speed
        ):
            return Termination.SLOW_PROGRESS
        if self.steps >= s.max_steps:
            return Termination.MAX_STEPS
        return None


@dataclass
class StepResult:
    reward: float
    termination: Termination | None
    damage_increment: float


class RacingEnv:
    """Single-car environment over a track with a telemetry reference line.

    It owns the current pose's frames on the track axis (axis_frame) and on
    the reference line (ref_frame), lap progress, and the episode record:
    lap_times, episode_return and termination. reset() and step() return
    no observation: an agent calls observe() after each. reset() binds a
    new lap_times list; a list handed out earlier keeps its laps."""

    def __init__(self, track, reference=None, lac_enabled=False, params=None,
                 settings=None):
        self.track = track
        self.reference = reference if reference is not None else RacingLine.middle_of_track(track)
        self.lac_enabled = lac_enabled
        self.params = params if params is not None else CarParams()
        if track.width <= self.params.width:
            raise ValueError(f"track {track.name!r} is {track.width} m wide, not wider than "
                             f"car.width {self.params.width} m")
        # never written: the envs of one experiment share it
        self.settings = settings if settings is not None else EnvSettings()
        self.settings.validate()
        self.reset()

    def reset(self, start_delta=None):
        """Start an episode at start_delta m along the track axis, or at
        settings.start_delta when it is None."""
        if start_delta is None:
            start_delta = self.settings.start_delta
        p = self.track.centerline.point_at(start_delta)
        tangent = self.track.centerline.tangent_at(start_delta)
        self.state = CarState(position=p, heading=math.atan2(tangent[1], tangent[0]),
                              vx=self.settings.start_speed)
        # the current pose's frames, kept by step() too
        self.axis_frame = self.track.frame(p, self.state.heading)
        self.ref_frame = self._reference_frame()
        self.tracker = TerminationTracker(self.settings)
        self.time = 0.0
        self.lap_progress = 0.0
        self.lap_start_time = 0.0
        self._prev_delta = self.track.centerline.wrap(start_delta)
        self.lap_times = []
        self.episode_return = 0.0
        self.termination = None

    @property
    def done(self):
        return self.termination is not None

    def observe(self):
        """The current pose's scaled telemetry vector, casting the rangefinders:
        0 heading error, 1-19 rangefinders, 20 trackPos, 21-23 vx/vy/vz,
        24-27 wheel speeds (vx / wheel_radius), 28 rpm, 29-32 LAC if enabled."""
        s, ref = self.state, self.ref_frame
        wheel = s.vx / self.params.wheel_radius / WHEEL_SCALE
        parts = [
            [ref.theta / ANGLE_SCALE],
            self.track.rangefinders(s.position, s.heading, self.axis_frame) / RANGEFINDER_MAX,
            [ref.track_pos, s.vx / SPEED_SCALE, s.vy / SPEED_SCALE, 0.0,
             wheel, wheel, wheel, wheel, self.params.rpm(s.vx) / RPM_SCALE],
        ]
        if self.lac_enabled:
            parts.append(self.reference.look_ahead_curvature(ref.delta) / LAC_SCALE)
        return np.concatenate(parts)

    def _reference_frame(self):
        """The current pose's frame on the reference line; a line on the axis reuses axis_frame."""
        if self.reference.world is self.track.centerline:
            return self.reference.frame_from_axis(self.axis_frame)
        return self.reference.frame(self.state.position, self.state.heading)

    def step(self, action):
        """Advance one 200 ms agent step on (steer, throttle, brake); returns a StepResult.

        The substeps, wall response and lap count included, run on floats in
        locals; the state, clock and lap progress are written once, after them.
        Only the last substep builds a TrackFrame, for axis_frame and the tracker."""
        if self.termination is not None:
            raise RuntimeError("episode is over; call reset()")
        a = np.asarray(action, dtype=np.float64)
        if a.shape != (3,):
            raise ValueError(f"action must have shape (3,), got {a.shape}")
        raw = a.tolist()
        if not all(math.isfinite(v) for v in raw):
            raise NumericError("non-finite action")
        steer, throttle, brake = clamp_action(*raw)

        p = self.params
        settings = self.settings
        s = self.state
        centerline = self.track.centerline
        half_width = self.track.width / 2.0
        h = settings.dt / settings.substeps
        wheelbase, drag, mass, top_speed = p.wheelbase, p.drag_coeff, p.mass, p.top_speed
        # constant within the step
        tan_steer = math.tan(steer * p.max_steer)
        drive = p.engine_force * throttle
        brake_on = p.brake_force * brake
        length = self.track.length
        half_length = length / 2.0
        x, y = s.position.tolist()
        heading, vx = s.heading, s.vx
        t, progress, prev_delta = self.time, self.lap_progress, self._prev_delta
        damage_increment = 0.0
        for _ in range(settings.substeps):
            omega = vx * tan_steer / wheelbase
            cap = p.lateral_accel_cap(vx)
            if vx > 1e-6 and abs(vx * omega) > cap:
                omega = math.copysign(cap / vx, omega)  # understeer: grip-capped yaw
            vy = omega * wheelbase / 2.0
            braking = brake_on if vx > 0.0 else 0.0
            force = drive - braking - drag * vx * vx
            vx = min(max(vx + (force / mass) * h, 0.0), top_speed)

            heading = wrap_angle(heading + omega * h)
            cos_h, sin_h = math.cos(heading), math.sin(heading)
            wx = vx * cos_h - vy * sin_h
            wy = vx * sin_h + vy * cos_h
            x += wx * h
            y += wy * h
            t += h

            delta, lateral, tangent = centerline.project((x, y))
            track_pos = lateral / half_width
            if abs(track_pos) >= 1.0:
                damage, vx, vy = self._wall_contact(wx, wy, vx, vy, heading, track_pos, delta)
                damage_increment += damage

            # signed progress along the axis; a lap ends within the substep
            d = delta - prev_delta
            if d > half_length:
                d -= length
            elif d < -half_length:
                d += length
            before, progress, prev_delta = progress, progress + d, delta
            target = (len(self.lap_times) + 1) * length
            if before < target <= progress:
                crossing_time = t - h + (target - before) / (progress - before) * h
                self.lap_times.append(crossing_time - self.lap_start_time)
                self.lap_start_time = crossing_time
        self.time, self.lap_progress, self._prev_delta = t, progress, prev_delta
        s.position, s.heading, s.vx, s.vy, s.yaw_rate = np.array([x, y]), heading, vx, vy, omega
        s.damage += damage_increment
        # the wall response changes only the velocity, so the last substep's
        # frame is still the frame of the current pose
        self.axis_frame = TrackFrame(track_pos, wrap_angle(heading - tangent), delta)
        self.ref_frame = self._reference_frame()
        reward = progress_reward(
            vx, self.ref_frame.theta, self.ref_frame.track_pos, damage_increment,
            damage_weight=settings.damage_weight, literal_sin=settings.literal_sin,
        )
        self.termination = self.tracker.update(track_pos, self.axis_frame.theta, vx)
        if self.termination in PENALIZED_TERMINATIONS:
            reward = -1.0
        self.episode_return += reward
        return StepResult(reward=reward, termination=self.termination,
                          damage_increment=damage_increment)

    def _wall_contact(self, wx, wy, vx, vy, heading, track_pos, delta):
        """(damage, vx, vy) of a car at or beyond a border, as floats.

        Damage is proportional to the squared outward normal speed of the world
        velocity (wx, wy), and that component is zeroed, so the car slides
        along the wall; the position is not clamped, and the step ends once
        |trackPos| exceeds 1. The normal speed stays a numpy dot: BLAS may fuse
        its multiply-add, which a float expression would not."""
        world_v = np.array([wx, wy])
        n_out = math.copysign(1.0, track_pos) * self.track.centerline.normal_at(delta)
        v_n = float(world_v @ n_out)
        if v_n <= 0.0:
            return 0.0, vx, vy
        new_world_v = world_v - v_n * n_out
        cos_h, sin_h = math.cos(heading), math.sin(heading)
        return (self.settings.damage_coeff * v_n * v_n,
                float(max(new_world_v[0] * cos_h + new_world_v[1] * sin_h, 0.0)),
                float(-new_world_v[0] * sin_h + new_world_v[1] * cos_h))


TELEMETRY_HEADER = "step,t,x,y,heading,Vx,Vy,steer,throttle,brake,reward,trackPos,theta,damage"


class TelemetryLogger:
    """Per-step CSV log consumed by the plotting commands."""

    def __init__(self):
        self.rows = []

    def record(self, step, env, action, result):
        s = env.state
        self.rows.append(
            (step, env.time, s.position[0], s.position[1], s.heading, s.vx, s.vy, *action,
             result.reward, env.ref_frame.track_pos, env.ref_frame.theta, s.damage)
        )

    def write(self, path):
        write_text(path, TELEMETRY_HEADER + "\n" + "".join(map(csv_row, self.rows)))


def _fmt(v):
    """One CSV field: exact round-trip floats, plain ints, blank for None."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def csv_row(values):
    """One CSV line of _fmt fields."""
    return ",".join(_fmt(v) for v in values) + "\n"
