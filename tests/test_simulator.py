import math
import re

import numpy as np
import numpy.testing as npt
import pytest

from racerl import simulator, tracks
from racerl.bot import BaselineBot, drive_bot, record_reference_line
from racerl.geometry import RANGEFINDER_MAX, GeometryError, Polyline, RacingLine, Track, wrap_angle
from racerl.nn import NumericError
from racerl.simulator import (
    PENALIZED_TERMINATIONS,
    CarParams,
    EnvSettings,
    RacingEnv,
    Termination,
    TerminationTracker,
    observation_dim,
    progress_reward,
)
from oracles import (
    brute_project,
    brute_rangefinders,
    max_speed,
    observation_vector,
    substep_step,
    wall_contact_floats,
)


@pytest.fixture(scope="module")
def oval():
    return tracks.get_track("oval")


def make_env(track, reference=None, lac_enabled=False, **settings):
    return RacingEnv(track, reference=reference, lac_enabled=lac_enabled,
                     settings=EnvSettings(**settings))


# --- reward (Eq.-style oracle table) ------------------------------------------


def test_reward_hand_table():
    cases = [
        # vx, theta, track_pos, expected (abs-sin form, no damage)
        (10.0, 0.0, 0.0, 10.0),
        (10.0, math.pi / 2.0, 0.0, -10.0),
        (10.0, math.pi / 4.0, 0.5, -5.0),
        (0.0, 0.3, 0.2, 0.0),
        (20.0, 0.0, 1.0, 0.0),
        (20.0, 0.0, 0.5, 10.0),
        (5.0, -math.pi / 4.0, 0.0, 0.0),
        (10.0, math.pi, 0.0, -10.0),
        (8.0, 0.0, 0.25, 6.0),
        (12.0, math.pi / 6.0, 0.0, 12.0 * (math.cos(math.pi / 6) - 0.5)),
    ]
    for vx, th, tp, expected in cases:
        assert progress_reward(vx, th, tp) == pytest.approx(expected, abs=1e-12)


def test_reward_damage_term():
    r = progress_reward(10.0, 0.0, 0.0, damage_increment=100.0, damage_weight=0.01)
    assert r == pytest.approx(9.0, abs=1e-12)


def test_reward_literal_sin_flag():
    # literal Eq. form rewards pointing left of the axis at negative theta
    th = -math.pi / 4.0
    literal = progress_reward(10.0, th, 0.0, literal_sin=True)
    assert literal == pytest.approx(10.0 * (math.cos(th) - math.sin(th)), abs=1e-12)
    assert literal > progress_reward(10.0, th, 0.0)


def test_reward_argmax_at_zero_for_abs_form():
    thetas = np.linspace(-math.pi / 2, math.pi / 2, 2001)
    vals = [progress_reward(10.0, t, 0.0) for t in thetas]
    assert thetas[int(np.argmax(vals))] == pytest.approx(0.0, abs=1e-3)
    # the literal form peaks at -pi/4 instead
    vals_lit = [progress_reward(10.0, t, 0.0, literal_sin=True) for t in thetas]
    assert thetas[int(np.argmax(vals_lit))] == pytest.approx(-math.pi / 4.0, abs=1e-3)


# --- termination rules ---------------------------------------------------------


def test_termination_out_of_track_and_penalty():
    t = TerminationTracker(EnvSettings(max_steps=1000))
    assert t.update(1.01, 0.0, 10.0) is Termination.OUT_OF_TRACK
    assert Termination.OUT_OF_TRACK in PENALIZED_TERMINATIONS


def test_termination_exact_border_does_not_trigger():
    t = TerminationTracker(EnvSettings(max_steps=1000))
    assert t.update(1.0, 0.0, 10.0) is None


def test_termination_backwards_needs_five_consecutive():
    t = TerminationTracker(EnvSettings(max_steps=1000))
    for _ in range(4):
        assert t.update(0.0, 2.0, 5.0) is None
    assert t.update(0.0, 2.0, 5.0) is Termination.BACKWARDS
    assert Termination.BACKWARDS in PENALIZED_TERMINATIONS

    t = TerminationTracker(EnvSettings(max_steps=1000))
    for _ in range(4):
        t.update(0.0, 2.0, 5.0)
    t.update(0.0, 0.0, 5.0)  # interruption resets the streak
    for _ in range(4):
        assert t.update(0.0, 2.0, 5.0) is None


def test_termination_slow_progress_after_grace():
    t = TerminationTracker(EnvSettings(max_steps=10000))
    kind = None
    for i in range(1, 200):
        kind = t.update(0.0, 0.0, 1.0)
        if kind:
            break
    assert kind is Termination.SLOW_PROGRESS
    assert i == 101  # first step past the grace period with a full slow window
    assert Termination.SLOW_PROGRESS not in PENALIZED_TERMINATIONS


def test_termination_max_steps_no_penalty():
    t = TerminationTracker(EnvSettings(max_steps=3))
    assert t.update(0.0, 0.0, 10.0) is None
    assert t.update(0.0, 0.0, 10.0) is None
    assert t.update(0.0, 0.0, 10.0) is Termination.MAX_STEPS
    assert Termination.MAX_STEPS not in PENALIZED_TERMINATIONS


@pytest.mark.parametrize("kind, reversed_start, action, settings, steps", [
    (Termination.OUT_OF_TRACK, False, (1.0, 1.0, 0.0), {}, None),
    (Termination.BACKWARDS, True, (0.0, 0.0, 0.0), {}, 5),
    (Termination.SLOW_PROGRESS, False, (0.0, 0.0, 0.0), {}, 101),
    (Termination.MAX_STEPS, False, (0.0, 1.0, 0.0), {"max_steps": 1}, 1),
], ids=["out_of_track", "backwards", "slow_progress", "max_steps"])
def test_env_step_penalizes_only_out_of_track_and_backwards(oval, kind, reversed_start, action,
                                                             settings, steps):
    """The step that ends an episode returns -1 for out_of_track and
    backwards, and its progress reward for slow_progress and max_steps."""
    env = make_env(oval, **settings)
    if reversed_start:
        env.state.heading = wrap_angle(env.state.heading + math.pi)
    n = 0
    while not env.done:
        res = env.step(action)
        n += 1
    assert env.termination is kind and res.termination is kind
    if steps is not None:
        assert n == steps
    ref = env.ref_frame
    progress = progress_reward(env.state.vx, ref.theta, ref.track_pos, res.damage_increment)
    if kind in (Termination.OUT_OF_TRACK, Termination.BACKWARDS):
        assert res.reward == -1.0 and progress != -1.0
    else:
        assert res.reward == progress


def test_termination_priority_order():
    # off track while also at the step cap: out_of_track wins
    t = TerminationTracker(EnvSettings(max_steps=1))
    assert t.update(1.5, 0.0, 10.0) is Termination.OUT_OF_TRACK


def test_termination_fresh_fast_car_none():
    t = TerminationTracker(EnvSettings(max_steps=400))
    assert t.update(0.0, 0.05, 30.0) is None


@pytest.mark.parametrize("name, value", [
    ("dt", 0.0), ("substeps", 0), ("max_steps", 0),
    ("backwards_steps", 0), ("slow_window", 0), ("slow_grace", -1),
])
def test_env_settings_reject_out_of_range(name, value):
    with pytest.raises(ValueError, match=f"env.{name} "):
        EnvSettings(**{name: value})


def test_a_car_wider_than_the_track_is_refused_by_name():
    with pytest.raises(ValueError, match=re.escape(
            "track 'technical' is 10.0 m wide, not wider than car.width 12.0 m")):
        RacingEnv(tracks.get_track("technical"), params=CarParams(width=12.0))


def test_the_env_not_the_track_holds_the_car_to_the_width():
    # the track knows no car: a 1.5 m track builds, and the env refuses the
    # default 1.8 m car on it
    narrow = Track(tracks.get_track("oval").centerline, width=1.5, name="lane")
    assert narrow.width == 1.5
    with pytest.raises(ValueError, match=re.escape(
            "track 'lane' is 1.5 m wide, not wider than car.width 1.8 m")):
        RacingEnv(narrow)
    RacingEnv(narrow, params=CarParams(width=1.2))
    for width in (0.0, -1.0, math.inf):
        with pytest.raises(GeometryError, match=f"width {width} must be finite and positive"):
            Track(narrow.centerline, width=width)


# --- grip law ------------------------------------------------------------------


def test_corner_speed_hand_value():
    # sqrt(1 * 10 * 9.81) = 9.90454...
    assert abs(CarParams(mu_grip=1.0).corner_speed(0.1, 0.0) - 9.9045) < 1e-3


def test_corner_speed_downforce_ratio():
    g, m, vx = simulator.GRAVITY, 1000.0, 10.0
    # F_a = c * vx^2 is m * g / 2 for base and m * g for doubled
    base = CarParams(mu_grip=1.0, mass=m, downforce_coeff=m * g / 2.0 / vx**2).corner_speed(0.1, vx)
    doubled = CarParams(mu_grip=1.0, mass=m, downforce_coeff=m * g / vx**2).corner_speed(0.1, vx)
    npt.assert_allclose(doubled / base, math.sqrt(2.0 * g / 1.5 / g), rtol=1e-12)
    npt.assert_allclose(doubled / base, math.sqrt(4.0 / 3.0), rtol=1e-12)


def test_corner_speed_equals_the_free_grip_function():
    # bit for bit, so the bot's laps do not move: vx = 0 (no downforce) and
    # curvatures from the bot's 1e-9 floor to a 1 m radius
    rng = np.random.default_rng(29)
    cars = [CarParams(), CarParams(mass=740.0, mu_grip=1.6, downforce_coeff=0.0),
            CarParams(mass=1250.0, mu_grip=0.8, downforce_coeff=3.7)]
    for car in cars:
        kappas = 10.0 ** rng.uniform(-9.0, 0.0, 2000)
        speeds = rng.uniform(0.0, car.top_speed, 2000)
        speeds[::4] = 0.0
        for kappa, vx in zip(kappas.tolist(), speeds.tolist()):
            assert car.corner_speed(kappa, vx) == max_speed(
                kappa, car.mu_grip, mass=car.mass, downforce=car.downforce(vx))


# --- telemetry -----------------------------------------------------------------


def test_telemetry_on_reference_aligned(oval):
    env = make_env(oval)
    env.reset()
    obs = env.observe()
    assert obs[0] == pytest.approx(0.0, abs=1e-9)   # heading error
    assert obs[20] == pytest.approx(0.0, abs=1e-9)  # trackPos
    assert obs[23] == 0.0                           # vz


def test_telemetry_vector_lengths(oval):
    env = make_env(oval)
    assert env.observe().shape == (29,)
    assert observation_dim(False) == 29
    env_lac = make_env(oval, lac_enabled=True)
    assert env_lac.observe().shape == (33,)
    assert observation_dim(True) == 33


def test_telemetry_wheel_speeds_v_over_r(oval):
    env = RacingEnv(oval, params=CarParams(wheel_radius=0.33))
    env.state.vx = 20.0
    wheel_speeds = env.observe()[24:28] * simulator.WHEEL_SCALE
    npt.assert_allclose(wheel_speeds, np.full(4, 20.0 / 0.33), rtol=1e-12)
    assert wheel_speeds[0] == pytest.approx(60.606, abs=1e-3)


def test_telemetry_rpm_map(oval):
    env = make_env(oval)
    env.state.vx = 25.0
    rpm = env.params.rpm_idle + env.params.rpm_per_mps * 25.0
    assert env.observe()[28] == rpm / simulator.RPM_SCALE


def test_telemetry_against_racing_line_reference(oval):
    # reference line pinned at alpha=0.75; a car on the centerline sees a
    # negative trackPos relative to the line (line sits to its left)
    delta = oval.centerline.vertex_arclength
    line = RacingLine(oval, delta, np.full(delta.size, 0.75))
    env = make_env(oval, reference=line)
    env.reset()
    # line is 0.25 * width = 3 m left of center; trackPos = -3 / (W/2) = -0.5
    assert env.ref_frame.track_pos == pytest.approx(-0.5, abs=1e-6)
    assert env.observe()[20] == env.ref_frame.track_pos


# --- dynamics ------------------------------------------------------------------


def test_step_stationary_zero_action(oval):
    env = make_env(oval)
    env.reset()
    res = env.step((0.0, 0.0, 0.0))
    assert env.state.vx == 0.0
    assert res.reward == 0.0
    assert res.termination is None
    npt.assert_allclose(env.state.position, oval.centerline.point_at(0.0), atol=1e-12)


def test_step_full_throttle_spins_up(oval):
    env = make_env(oval)
    env.reset()
    last_vx = 0.0
    for _ in range(20):
        res = env.step((0.0, 1.0, 0.0))
        assert env.state.vx > last_vx
        assert res.reward > 0.0
        last_vx = env.state.vx


def test_step_reaches_top_speed_cap(oval):
    env = make_env(oval)
    env.reset()
    for _ in range(120):
        res = env.step((0.0, 1.0, 0.0))
        if res.termination:
            break
    assert env.state.vx <= env.params.top_speed + 1e-9


def test_step_rejects_non_finite_action(oval):
    env = make_env(oval)
    env.reset()
    with pytest.raises(NumericError):
        env.step((float("nan"), 0.0, 0.0))


@pytest.mark.parametrize("action", [
    [0.1, 0.5, 0.0, 9.0], [0.1, 0.5], [[0.1, 0.5, 0.0]], 0.5, [],
], ids=["four", "two", "row", "scalar", "empty"])
def test_step_rejects_a_malformed_action_array(oval, action):
    env = make_env(oval)
    shape = np.shape(action)
    with pytest.raises(ValueError, match=rf"shape \(3,\), got {re.escape(str(shape))}"):
        env.step(action)
    assert env.time == 0.0 and env.tracker.steps == 0
    env.step(np.array([0.1, 0.5, 0.0]))  # a (3,) array still steps


def test_yaw_rate_matches_bicycle_formula(oval):
    env = make_env(oval)
    env.reset()
    p = env.params
    vx = 20.0
    env.state.vx = vx
    # throttle balancing drag keeps vx nearly constant over the step
    throttle = p.drag_coeff * vx**2 / p.engine_force
    steer = 0.1
    env.step((steer, throttle, 0.0))
    expected = vx * math.tan(steer * p.max_steer) / p.wheelbase
    assert env.state.yaw_rate == pytest.approx(expected, rel=0.01)


def test_zero_throttle_speed_non_increasing(oval):
    env = make_env(oval)
    env.reset()
    env.state.vx = 30.0
    prev = 30.0
    for _ in range(10):
        env.step((0.0, 0.0, 0.0))
        assert env.state.vx <= prev + 1e-12
        prev = env.state.vx


def test_cornering_speed_capped_by_grip_formula(oval):
    # full-steer steady state: achieved path curvature and speed obey
    # vx <= corner_speed(kappa, vx) within 2%
    env = make_env(oval, max_steps=100000)
    env.reset()
    p = env.params
    for _ in range(120):
        env.step((1.0, 0.6, 0.0))
        if env.done:
            break
    vx = env.state.vx
    if vx > 1.0 and abs(env.state.yaw_rate) > 1e-6:
        kappa = abs(env.state.yaw_rate) / vx
        cap = p.corner_speed(kappa, vx)
        assert vx <= cap * 1.02


def test_determinism_bit_identical_trajectories(oval):
    actions = [(0.2 * math.sin(i / 7.0), 0.7, 0.0) for i in range(50)]

    def run():
        env = make_env(oval)
        env.reset()
        trace = []
        for a in actions:
            res = env.step(a)
            trace.append((env.state.position[0], env.state.position[1],
                          env.state.vx, res.reward))
            if res.termination:
                break
        return trace

    t1, t2 = run(), run()
    assert t1 == t2  # exact float equality, not approx


# --- damage --------------------------------------------------------------------


def test_damage_grazing_contact_zero():
    # sliding exactly along the wall: no outward normal speed, no damage
    env = make_env(tracks.get_track("oval"))
    n = env.track.centerline.normal_at(30.0)  # mid straight, normal is exactly (0, 1)
    assert n.tolist() == [-0.0, 1.0]
    # the car exactly on the left border, heading along the straight at 10 m/s
    assert env._wall_contact(10.0, 0.0, 10.0, 0.0, 0.0, 1.0, 30.0) == (0.0, 10.0, 0.0)


def test_damage_normal_impact_formula():
    env = make_env(tracks.get_track("oval"), damage_coeff=1.0)
    n = env.track.centerline.normal_at(30.0)
    heading = math.atan2(n[1], n[0])  # straight into the wall at 10 m/s
    wx, wy = (10.0 * n).tolist()
    damage, vx, vy = env._wall_contact(wx, wy, 10.0, 0.0, heading, 1.001, 30.0)
    assert damage == pytest.approx(100.0, rel=1e-12)
    # the normal component is zeroed: the car now slides along the wall
    assert vx == pytest.approx(0.0, abs=1e-12) and vy == pytest.approx(0.0, abs=1e-12)
    assert type(damage) is type(vx) is type(vy) is float


def test_damage_monotone_and_episode_ends_out_of_track(oval):
    env = make_env(oval)
    env.reset()
    total = 0.0
    term = None
    for _ in range(300):
        res = env.step((1.0, 1.0, 0.0))
        assert res.damage_increment >= 0.0
        total += res.damage_increment
        assert env.state.damage == pytest.approx(total)
        if res.termination:
            term = res.termination
            break
    assert term is Termination.OUT_OF_TRACK
    assert res.reward == -1.0
    assert total > 0.0
    # the wall response hands back Python floats, not numpy scalars
    assert type(env.state.vx) is float and type(env.state.vy) is float


def wall_trace(name, episodes=100):
    """Per-step state and observation of short random episodes that each end
    at a wall: a 30 m/s start anywhere on the lap and a fixed random steer."""
    track = tracks.get_track(name)
    env = make_env(track, lac_enabled=True, max_steps=60, start_speed=30.0)
    rng = np.random.default_rng(0)
    trace, contacts = [], 0
    for _ in range(episodes):
        env.reset(start_delta=rng.uniform(0.0, track.length))
        steer = rng.uniform(-1.0, 1.0)
        while True:
            res = env.step((steer, rng.uniform(0.0, 1.0), 0.0))
            contacts += res.damage_increment > 0.0
            trace.append(step_record(env, res))
            if res.termination:
                break
    return trace, contacts


def clamp_trace(name, episodes=20):
    """step_record of random episodes whose actions are drawn from [-2, 2]
    with some entries set to an exact bound or -0.0, passed in turn as a
    tuple, a list and an array; the signs of the yaw rate and vy show a
    -0.0 steer, which == on the trace cannot."""
    track = tracks.get_track(name)
    env = make_env(track, max_steps=40, start_speed=20.0)
    rng = np.random.default_rng(1)
    forms = (lambda a: tuple(a.tolist()), lambda a: a.tolist(), np.copy)
    trace, negative_zero_steers = [], 0
    for _ in range(episodes):
        env.reset(start_delta=rng.uniform(0.0, track.length))
        while not env.done:
            a = rng.uniform(-2.0, 2.0, 3)
            special = rng.random(3) < 0.3
            a[special] = rng.choice([-1.0, 0.0, 1.0, -0.0], special.sum())
            negative_zero_steers += a[0] == 0.0 and math.copysign(1.0, a[0]) < 0.0
            res = env.step(forms[env.tracker.steps % 3](a))
            s = env.state
            trace.append((step_record(env, res), math.copysign(1.0, s.yaw_rate),
                          math.copysign(1.0, s.vy)))
    return trace, negative_zero_steers


def step_record(env, res):
    """Everything a step leaves behind: the car state, the env's clock, lap
    progress and axis frame, the observation and the step result."""
    s = env.state
    return (s.position.tolist(), s.heading, s.vx, s.vy, s.yaw_rate, s.damage,
            env.time, env.lap_progress, list(env.lap_times), env.axis_frame,
            env.observe().tolist(), res.reward, res.termination,
            res.damage_increment)


def bot_trace(track, reference, lac_enabled):
    """step_record of every step of a 450-step bot drive."""
    env = make_env(track, reference=reference, lac_enabled=lac_enabled, max_steps=450)
    bot = BaselineBot(track)
    trace = []
    while not env.done:
        trace.append(step_record(env, env.step(bot.act(env.state, env.axis_frame))))
    assert env.lap_times
    return trace


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_wall_contact_equals_the_numpy_dot_oracle(name, monkeypatch):
    # the normal speed must stay numpy's dot: a float a0*b0 + a1*b1 rounds
    # differently from OpenBLAS's fused multiply-add and changes this trace
    fast, contacts = wall_trace(name)
    assert contacts >= 90
    monkeypatch.setattr(RacingEnv, "_wall_contact", wall_contact_floats)
    assert wall_trace(name) == (fast, contacts)


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_step_equals_the_per_substep_oracle(name, monkeypatch):
    """RacingEnv.step and observe against the oracles that run each substep
    on the car state, build every substep's track frame and assemble the
    telemetry field by field: bot laps on the track axis and on a recorded
    line with LAC, random wall hits, and actions the clamp bounds."""
    track = tracks.get_track(name)
    recorded = record_reference_line(track)

    def traces():
        return (bot_trace(track, None, False), bot_trace(track, recorded, True),
                wall_trace(name), clamp_trace(name))

    fast = traces()
    assert fast[3][1] >= 10
    monkeypatch.setattr(RacingEnv, "step", substep_step)
    monkeypatch.setattr(RacingEnv, "observe", observation_vector)
    assert traces() == fast


# --- laps ----------------------------------------------------------------------


def test_lap_accounting_straight_line_progress(oval):
    env = make_env(oval, max_steps=2000)
    env.reset()
    progressed = 0.0
    for _ in range(25):
        res = env.step((0.0, 1.0, 0.0))
        progressed = env.lap_progress
    assert progressed > 60.0  # moving forward along delta while spinning up


def test_step_after_done_raises(oval):
    env = make_env(oval, max_steps=1)
    env.reset()
    res = env.step((0.0, 0.0, 0.0))
    assert res.termination is Termination.MAX_STEPS
    with pytest.raises(RuntimeError):
        env.step((0.0, 0.0, 0.0))


def drive_and_tally(env, policy):
    """One episode tallied step by step: the sum of the step rewards, the
    end time of each step whose lap progress reached a new lap, and the
    last step's termination."""
    env.reset()
    total, lap_ends, termination = 0.0, [], None
    while termination is None:
        result = env.step(policy())
        total += result.reward
        if env.lap_progress >= (len(lap_ends) + 1) * env.track.length:
            lap_ends.append(env.time)
        termination = result.termination
    return total, lap_ends, termination


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_episode_record_equals_a_step_by_step_tally(name):
    track = tracks.get_track(name)
    env = make_env(track, max_steps=450)
    bot = BaselineBot(track)
    rng = np.random.default_rng(7)
    policies = [lambda: bot.act(env.state, env.axis_frame)]
    policies += [lambda: rng.uniform([-1.0, 0.0, 0.0], [1.0, 1.0, 0.2])] * 3
    kinds = []
    for policy in policies:
        total, lap_ends, termination = drive_and_tally(env, policy)
        assert env.episode_return == total  # same additions in the same order
        assert env.termination is termination and env.done
        assert len(env.lap_times) == len(lap_ends)
        # each lap ends inside the step whose progress completed it
        for end, seen in zip(np.cumsum(env.lap_times), lap_ends):
            assert seen - env.settings.dt - 1e-9 <= end <= seen + 1e-9
        kinds.append((termination, len(lap_ends)))
    # the bot laps until the step cap; random actions leave the track (-1)
    assert kinds[0][0] is Termination.MAX_STEPS and kinds[0][1] >= 1
    assert all(kind is Termination.OUT_OF_TRACK for kind, _ in kinds[1:])


@pytest.mark.parametrize("laps", [3.3, -1.7])
def test_a_start_off_the_lap_counts_laps_as_its_wrapped_start(oval, laps):
    """start_delta may take any finite value: the car starts at the wrapped
    point, and the lap count must start there too."""
    bot = BaselineBot(oval)

    def lap_times(start_delta):
        return drive_bot(make_env(oval, max_steps=450, start_delta=start_delta), bot)["laps"]

    start = laps * oval.length
    wrapped = lap_times(oval.centerline.wrap(start))
    assert len(wrapped) >= 2
    assert lap_times(start) == wrapped


def test_reset_at_a_start_equals_an_env_built_at_it(oval):
    """reset(start_delta=x) starts where an env whose settings hold x starts,
    and the next reset() returns to the settings' start."""

    def start(env):
        s = env.state
        return (s.position.tolist(), s.heading, s.vx, s.vy, s.yaw_rate, s.damage,
                env.axis_frame, env.ref_frame, env._prev_delta, env.time,
                env.lap_progress, env.lap_times, env.observe().tolist())

    env = make_env(oval, lac_enabled=True, start_speed=10.0)
    at_settings = start(env)
    for x in (250.0, -0.3 * oval.length, 3.3 * oval.length):
        env.step((0.2, 1.0, 0.0))
        env.reset(start_delta=x)
        assert start(env) == start(make_env(oval, lac_enabled=True, start_speed=10.0,
                                            start_delta=x))
        assert start(env) != at_settings
        env.reset()
        assert start(env) == at_settings


def test_backwards_over_the_start_line_is_negative_progress(oval):
    # 20 m/s backwards from 5 m past the line: the axis position jumps from
    # about 0 to about a lap, which the lap count must read as -5 m, not +lap
    env = make_env(oval, start_delta=5.0, start_speed=20.0)
    env.state.heading = wrap_angle(env.state.heading + math.pi)
    while not env.done:
        env.step((0.0, 1.0, 0.0))
    assert env.termination is Termination.BACKWARDS
    assert -oval.length / 2.0 < env.lap_progress < -5.0 and env.lap_times == []


@pytest.mark.parametrize("recorded", [False, True], ids=["mot", "recorded_line"])
@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_lazy_rangefinders_read_the_pose_of_their_step(name, recorded):
    """reset() and step() cast no rays; observe() casts them when asked.
    Asked after each step (or reset), it must read the rangefinders of the
    pose that step ended at, bit for bit, the off-track zeros included."""
    track = tracks.get_track(name)
    reference = record_reference_line(track) if recorded else None
    env = make_env(track, reference=reference, lac_enabled=recorded, max_steps=300)
    bot = BaselineBot(track)
    rng = np.random.default_rng(11)
    policies = [lambda: bot.act(env.state, env.axis_frame)]
    policies += [lambda: rng.uniform([-1.0, 0.0, 0.0], [1.0, 1.0, 0.2])] * 3

    def observe_and_cast():
        s = env.state
        eager = track.rangefinders(s.position, s.heading)
        assert np.array_equal(env.observe()[1:20], eager / RANGEFINDER_MAX)
        return eager

    ends = []  # (termination, the last step's rangefinders) of each episode
    for policy in policies:
        env.reset()
        observe_and_cast()
        while not env.done:
            result = env.step(policy())
            last = observe_and_cast()
        ends.append((result.termination, last))
    # the bot drives to the step cap; random actions leave the track (zeros)
    assert ends[0][0] is Termination.MAX_STEPS
    assert all(kind is Termination.OUT_OF_TRACK and not last.any() for kind, last in ends[1:])


# --- telemetry log -------------------------------------------------------------


def test_telemetry_logger_format(tmp_path, oval):
    env = make_env(oval)
    env.reset()
    log = simulator.TelemetryLogger()
    for i in range(3):
        a = (0.0, 0.5, 0.0)
        res = env.step(a)
        log.record(i, env, a, res)
    path = tmp_path / "telemetry.csv"
    log.write(path)
    lines = path.read_text().splitlines()
    assert lines[0] == simulator.TELEMETRY_HEADER
    assert len(lines) == 4
    assert len(lines[1].split(",")) == len(simulator.TELEMETRY_HEADER.split(","))


# --- golden trajectory against the full-scan geometry ---------------------------


def bot_lap_trace(name, own_reference=False):
    """Per-step state and observation of one bot lap, then the lap time.

    own_reference gives the middle-of-track reference a polyline of its own,
    so that observe() projects the pose again instead of reusing the frames
    of the track axis.
    """
    track = tracks.get_track(name)
    reference = RacingLine.middle_of_track(track)
    if own_reference:
        reference.world = Polyline(track.centerline.points)
    env = make_env(track, reference=reference, max_steps=2000)
    bot = BaselineBot(track)
    trace = []
    while True:
        res = env.step(bot.act(env.state, env.axis_frame))
        s = env.state
        trace.append((s.position.tolist(), s.heading, s.vx, s.vy, s.damage,
                      env.observe().tolist()))
        assert res.termination is None
        if env.lap_times:
            return trace, env.lap_times[0]


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_bot_lap_equals_full_scan_geometry(name, monkeypatch):
    fast = bot_lap_trace(name)
    monkeypatch.setattr(Polyline, "project", brute_project)
    monkeypatch.setattr(Track, "rangefinders",
                        lambda self, position, heading, frame=None:
                        brute_rangefinders(self, position, heading))
    assert bot_lap_trace(name, own_reference=True) == fast
