"""The racing environment: car dynamics, telemetry, reward, damage, termination.

The car is a kinematic bicycle with a grip-capped yaw rate and a
longitudinal force balance (engine - brake - quadratic drag). Agent steps
are 200 ms, integrated as 10 substeps of 20 ms. The environment is fully
deterministic: identical action sequences give bit-identical trajectories.

trackPos and theta in the telemetry are measured against a configurable
reference (middle of the track, or a recorded racing line); the border
collision, lap accounting, and the out-of-track / backwards termination
always use the physical track axis.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .config import Config, ranged
from .geometry import RacingLine, wrap_angle
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


def terminal_reward(kind):
    """-1 for the penalized endings, None when the step reward stands."""
    if kind in PENALIZED_TERMINATIONS:
        return -1.0
    return None


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
        if self.engine_force < self.drag_coeff * self.top_speed**2 - 1e-9:
            raise ValueError("engine force cannot sustain the declared top speed")

    def downforce(self, vx):
        return self.downforce_coeff * vx * vx

    def lateral_accel_cap(self, vx):
        return self.mu_grip * (GRAVITY + self.downforce(vx) / self.mass)

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


@dataclass
class Action:
    steer: float = 0.0      # [-1, 1]
    throttle: float = 0.0   # [0, 1]
    brake: float = 0.0      # [0, 1]

    def clamped(self):
        return Action(
            steer=min(max(self.steer, -1.0), 1.0),
            throttle=min(max(self.throttle, 0.0), 1.0),
            brake=min(max(self.brake, 0.0), 1.0),
        )

    @classmethod
    def from_array(cls, a):
        return cls(float(a[0]), float(a[1]), float(a[2]))


@dataclass
class CarState:
    position: np.ndarray
    heading: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    yaw_rate: float = 0.0
    damage: float = 0.0


# observation scaling constants: each feature lands roughly in [-1, 1]
ANGLE_SCALE = math.pi
RANGE_SCALE = 200.0
SPEED_SCALE = 50.0
WHEEL_SCALE = 150.0
RPM_SCALE = 10000.0
LAC_SCALE = 0.1  # kappa values divided by this, i.e. multiplied by 10


@dataclass(frozen=True)
class Observation:
    """The telemetry feature set, fixed ordering, raw physical units.

    vector() applies the declared scaling constants. LAC is present only in
    LAC-enabled configurations (vector length 33 vs 29). The rangefinders
    are cast on the first read of track (or vector()) and cached: _cast_track
    is a zero-argument callable over the pose the observation was built at.
    """

    angle: float
    track_pos: float
    vx: float
    vy: float
    vz: float
    wheel_speeds: np.ndarray   # 4 values, rad/s
    rpm: float
    lac: np.ndarray | None = None
    _cast_track: object = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def track(self):
        """19 rangefinder distances, m."""
        return self._cast_track()

    def vector(self):
        parts = [
            np.array([self.angle / ANGLE_SCALE]),
            self.track / RANGE_SCALE,
            np.array([self.track_pos]),
            np.array([self.vx / SPEED_SCALE, self.vy / SPEED_SCALE, self.vz / SPEED_SCALE]),
            self.wheel_speeds / WHEEL_SCALE,
            np.array([self.rpm / RPM_SCALE]),
        ]
        if self.lac is not None:
            parts.append(self.lac / LAC_SCALE)
        return np.concatenate(parts)


def observation_dim(lac_enabled):
    return 33 if lac_enabled else 29


def progress_reward(vx, theta, track_pos, damage_increment=0.0,
                    damage_weight=0.01, literal_sin=False):
    """Speed-projected progress reward with a damage penalty.

    Default form: vx * (cos(theta) - |sin(theta)| - |track_pos|). With
    literal_sin=True the sin term keeps its sign (which rewards pointing
    left of the axis).
    """
    sin_term = math.sin(theta) if literal_sin else abs(math.sin(theta))
    return vx * (math.cos(theta) - sin_term - abs(track_pos)) - damage_weight * damage_increment


def make_observation(state, track, reference, lac_enabled, params, axis_frame):
    """Assemble the Table-style telemetry for a car state.

    theta/trackPos come from the configured reference line; rangefinders
    from the physical borders; wheel speeds are vx / wheel_radius with no
    per-wheel slip; vz is always 0. axis_frame is the state's track-axis
    frame. The rangefinders are cast on the first read of the observation's
    track, from a copy of this call's pose.
    """
    if reference.world is track.centerline:
        ref_frame = reference.frame_from_axis(axis_frame)
    else:
        ref_frame = reference.frame(state.position, state.heading)
    return Observation(
        angle=ref_frame.theta,
        track_pos=ref_frame.track_pos,
        vx=state.vx,
        vy=state.vy,
        vz=0.0,
        wheel_speeds=np.full(4, state.vx / params.wheel_radius),
        rpm=params.rpm(state.vx),
        lac=reference.look_ahead_curvature(ref_frame.delta) if lac_enabled else None,
        _cast_track=partial(track.rangefinders, tuple(state.position.tolist()),
                            state.heading, axis_frame),
    )


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
    observation: Observation
    reward: float
    termination: Termination | None
    damage_increment: float


class RacingEnv:
    """Single-car environment over a track with a telemetry reference line.

    It owns the current pose's track-axis frame (axis_frame) and lap
    progress, and the episode record: lap_times, episode_return and
    termination. reset() binds a new lap_times list; a list handed out
    earlier keeps its laps."""

    def __init__(self, track, reference=None, lac_enabled=False, params=None,
                 settings=None):
        self.track = track
        self.reference = reference if reference is not None else RacingLine.middle_of_track(track)
        self.lac_enabled = lac_enabled
        self.params = params if params is not None else CarParams()
        if track.width <= self.params.width:
            raise ValueError("track narrower than the car")
        # never written: the envs of one experiment share it, so a per-episode
        # start position goes into start_delta instead
        self.settings = settings if settings is not None else EnvSettings()
        self.settings.validate()
        self.start_delta = self.settings.start_delta
        self.state = None
        self.reset()

    def reset(self):
        p = self.track.centerline.point_at(self.start_delta)
        tangent = self.track.centerline.tangent_at(self.start_delta)
        self.state = CarState(position=p, heading=math.atan2(tangent[1], tangent[0]),
                              vx=self.settings.start_speed)
        # the track-axis frame of the current pose, kept by step() too
        self.axis_frame = self.track.frame(p, self.state.heading)
        self.tracker = TerminationTracker(self.settings)
        self.time = 0.0
        self.lap_progress = 0.0
        self.lap_start_time = 0.0
        self._prev_delta = self.start_delta
        self.lap_times = []
        self.episode_return = 0.0
        self.termination = None
        return self.observe()

    @property
    def done(self):
        return self.termination is not None

    def observe(self):
        """The current pose's observation, from axis_frame (reset and step set it)."""
        return make_observation(self.state, self.track, self.reference,
                                self.lac_enabled, self.params, self.axis_frame)

    def step(self, action):
        """Advance one 200 ms agent step. Returns a StepResult."""
        if self.termination is not None:
            raise RuntimeError("episode is over; call reset()")
        if isinstance(action, Action):
            raw = action
        else:
            raw = Action.from_array(np.asarray(action, dtype=np.float64))
        if not all(math.isfinite(v) for v in (raw.steer, raw.throttle, raw.brake)):
            raise NumericError("non-finite action")
        act = raw.clamped()

        settings = self.settings
        h = settings.dt / settings.substeps
        damage_increment = 0.0
        x, y = self.state.position.tolist()
        for _ in range(settings.substeps):
            x, y, dmg, track_frame = self._substep(act, h, x, y)
            damage_increment += dmg
        self.state.position = np.array([x, y])
        self.state.damage += damage_increment
        # the wall response changes only the velocity, so the last substep's
        # frame is still the frame of the current pose
        self.axis_frame = track_frame
        obs = self.observe()
        reward = progress_reward(
            obs.vx, obs.angle, obs.track_pos, damage_increment,
            damage_weight=settings.damage_weight, literal_sin=settings.literal_sin,
        )
        self.termination = self.tracker.update(
            track_frame.track_pos, track_frame.theta, self.state.vx)
        penalty = terminal_reward(self.termination)
        if penalty is not None:
            reward = penalty
        self.episode_return += reward
        return StepResult(observation=obs, reward=reward, termination=self.termination,
                          damage_increment=damage_increment)

    # --- dynamics ---------------------------------------------------------

    def _substep(self, act, h, x, y):
        """One 20 ms integration step from position (x, y).

        Returns (x, y, damage, frame); the caller stores the position in
        the state.
        """
        p = self.params
        s = self.state

        steer_angle = act.steer * p.max_steer
        omega = s.vx * math.tan(steer_angle) / p.wheelbase
        cap = p.lateral_accel_cap(s.vx)
        if s.vx > 1e-6 and abs(s.vx * omega) > cap:
            omega = math.copysign(cap / s.vx, omega)  # understeer: grip-capped yaw
        s.yaw_rate = omega
        s.vy = omega * p.wheelbase / 2.0

        brake = p.brake_force * act.brake if s.vx > 0.0 else 0.0
        force = p.engine_force * act.throttle - brake - p.drag_coeff * s.vx * s.vx
        s.vx = min(max(s.vx + (force / p.mass) * h, 0.0), p.top_speed)

        s.heading = wrap_angle(s.heading + omega * h)
        cos_h, sin_h = math.cos(s.heading), math.sin(s.heading)
        wx = s.vx * cos_h - s.vy * sin_h
        wy = s.vx * sin_h + s.vy * cos_h
        x += wx * h
        y += wy * h
        self.time += h

        frame = self.track.frame((x, y), s.heading)
        damage = self._wall_contact((wx, wy), frame)
        self._advance_progress(frame.delta, h)
        return x, y, damage, frame

    def _wall_contact(self, world_v, frame):
        """Damage + velocity response when the car is at or beyond a border.

        Contact applies damage proportional to the squared outward normal
        speed and zeroes that component, so the car slides along the wall;
        position is not clamped, and the step-level check then terminates
        once |trackPos| exceeds 1.

        world_v is the world velocity (vx, vy). The normal speed stays a numpy
        dot: BLAS may fuse its multiply-add, which a float expression would not.
        """
        tp = frame.track_pos
        if abs(tp) < 1.0:
            return 0.0
        s = self.state
        world_v = np.asarray(world_v, dtype=np.float64)
        n_out = math.copysign(1.0, tp) * self.track.centerline.normal_at(frame.delta)
        v_n = float(world_v @ n_out)
        if v_n <= 0.0:
            return 0.0
        damage = self.settings.damage_coeff * v_n * v_n
        new_world_v = world_v - v_n * n_out
        cos_h, sin_h = math.cos(s.heading), math.sin(s.heading)
        s.vx = max(new_world_v[0] * cos_h + new_world_v[1] * sin_h, 0.0)
        s.vy = -new_world_v[0] * sin_h + new_world_v[1] * cos_h
        return damage

    def _advance_progress(self, delta, h):
        """Accumulate signed progress along the track axis; record lap crossings."""
        d = delta - self._prev_delta
        half = self.track.length / 2.0
        if d > half:
            d -= self.track.length
        elif d < -half:
            d += self.track.length
        before = self.lap_progress
        self.lap_progress += d
        self._prev_delta = delta
        target = (len(self.lap_times) + 1) * self.track.length
        if before < target <= self.lap_progress:
            frac = (target - before) / (self.lap_progress - before)
            crossing_time = self.time - h + frac * h
            self.lap_times.append(crossing_time - self.lap_start_time)
            self.lap_start_time = crossing_time


TELEMETRY_HEADER = "step,t,x,y,heading,Vx,Vy,steer,throttle,brake,reward,trackPos,theta,damage"


class TelemetryLogger:
    """Per-step CSV log consumed by the plotting commands."""

    def __init__(self):
        self.rows = []

    def record(self, step, env, action, result):
        s = env.state
        self.rows.append(
            (step, env.time, s.position[0], s.position[1], s.heading, s.vx, s.vy,
             action.steer, action.throttle, action.brake, result.reward,
             result.observation.track_pos, result.observation.angle, s.damage)
        )

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(TELEMETRY_HEADER + "\n")
            for row in self.rows:
                fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v):
    """One CSV field: exact round-trip floats, plain ints, blank for None."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))
