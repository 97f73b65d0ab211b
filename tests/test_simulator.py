import math

import numpy as np
import numpy.testing as npt
import pytest

from racerl import simulator, tracks
from racerl.bot import BaselineBot
from racerl.geometry import Polyline, RacingLine, Track
from racerl.nn import NumericError
from racerl.simulator import (
    Action,
    CarParams,
    CarState,
    EnvSettings,
    Observation,
    RacingEnv,
    Termination,
    TerminationTracker,
    make_observation,
    observation_dim,
    progress_reward,
    terminal_reward,
)
from oracles import brute_project, brute_rangefinders


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
    assert terminal_reward(Termination.OUT_OF_TRACK) == -1.0


def test_termination_exact_border_does_not_trigger():
    t = TerminationTracker(EnvSettings(max_steps=1000))
    assert t.update(1.0, 0.0, 10.0) is None


def test_termination_backwards_needs_five_consecutive():
    t = TerminationTracker(EnvSettings(max_steps=1000))
    for _ in range(4):
        assert t.update(0.0, 2.0, 5.0) is None
    assert t.update(0.0, 2.0, 5.0) is Termination.BACKWARDS
    assert terminal_reward(Termination.BACKWARDS) == -1.0

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
    assert terminal_reward(Termination.SLOW_PROGRESS) is None


def test_termination_max_steps_no_penalty():
    t = TerminationTracker(EnvSettings(max_steps=3))
    assert t.update(0.0, 0.0, 10.0) is None
    assert t.update(0.0, 0.0, 10.0) is None
    assert t.update(0.0, 0.0, 10.0) is Termination.MAX_STEPS
    assert terminal_reward(Termination.MAX_STEPS) is None


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


# --- telemetry -----------------------------------------------------------------


def test_telemetry_on_reference_aligned(oval):
    env = make_env(oval)
    obs = env.reset()
    assert obs.angle == pytest.approx(0.0, abs=1e-9)
    assert obs.track_pos == pytest.approx(0.0, abs=1e-9)
    assert obs.vz == 0.0


def test_telemetry_vector_lengths(oval):
    env = make_env(oval)
    assert env.reset().vector().shape == (29,)
    assert observation_dim(False) == 29
    env_lac = make_env(oval, lac_enabled=True)
    assert env_lac.reset().vector().shape == (33,)
    assert observation_dim(True) == 33
    assert env.reset().lac is None


def test_telemetry_wheel_speeds_v_over_r(oval):
    params = CarParams(wheel_radius=0.33)
    state = CarState(position=oval.centerline.point_at(30.0).copy(), heading=0.0, vx=20.0)
    line = RacingLine.middle_of_track(oval)
    obs = make_observation(state, oval, line, False, params)
    npt.assert_allclose(obs.wheel_speeds, np.full(4, 20.0 / 0.33), rtol=1e-12)
    assert obs.wheel_speeds[0] == pytest.approx(60.606, abs=1e-3)


def test_telemetry_rpm_map(oval):
    env = make_env(oval)
    env.state.vx = 25.0
    obs = env.observe()
    assert obs.rpm == env.params.rpm_idle + env.params.rpm_per_mps * 25.0


def test_telemetry_against_racing_line_reference(oval):
    # reference line pinned at alpha=0.75; a car on the centerline sees a
    # negative trackPos relative to the line (line sits to its left)
    delta = oval.centerline.vertex_arclength
    line = RacingLine(oval, delta, np.full(delta.size, 0.75))
    env = make_env(oval, reference=line)
    obs = env.reset()
    # line is 0.25 * width = 3 m left of center; trackPos = -3 / (W/2) = -0.5
    assert obs.track_pos == pytest.approx(-0.5, abs=1e-6)


# --- dynamics ------------------------------------------------------------------


def test_step_stationary_zero_action(oval):
    env = make_env(oval)
    env.reset()
    res = env.step(Action())
    assert env.state.vx == 0.0
    assert res.reward == 0.0
    assert res.termination is None
    npt.assert_allclose(env.state.position, oval.centerline.point_at(0.0), atol=1e-12)


def test_step_full_throttle_spins_up(oval):
    env = make_env(oval)
    env.reset()
    last_vx = 0.0
    for _ in range(20):
        res = env.step(Action(throttle=1.0))
        assert env.state.vx > last_vx
        assert res.reward > 0.0
        last_vx = env.state.vx


def test_step_reaches_top_speed_cap(oval):
    env = make_env(oval)
    env.reset()
    for _ in range(120):
        res = env.step(Action(throttle=1.0))
        if res.termination:
            break
    assert env.state.vx <= env.params.top_speed + 1e-9


def test_step_rejects_non_finite_action(oval):
    env = make_env(oval)
    env.reset()
    with pytest.raises(NumericError):
        env.step(Action(steer=float("nan")))


def test_yaw_rate_matches_bicycle_formula(oval):
    env = make_env(oval)
    env.reset()
    p = env.params
    vx = 20.0
    env.state.vx = vx
    # throttle balancing drag keeps vx nearly constant over the step
    throttle = p.drag_coeff * vx**2 / p.engine_force
    steer = 0.1
    env.step(Action(steer=steer, throttle=throttle))
    expected = vx * math.tan(steer * p.max_steer) / p.wheelbase
    assert env.state.yaw_rate == pytest.approx(expected, rel=0.01)


def test_zero_throttle_speed_non_increasing(oval):
    env = make_env(oval)
    env.reset()
    env.state.vx = 30.0
    prev = 30.0
    for _ in range(10):
        env.step(Action())
        assert env.state.vx <= prev + 1e-12
        prev = env.state.vx


def test_cornering_speed_capped_by_grip_formula(oval):
    # full-steer steady state: achieved path curvature and speed obey
    # vx <= max_speed(kappa) within 2%
    from racerl.geometry import max_speed

    env = make_env(oval, max_steps=100000)
    env.reset()
    p = env.params
    for _ in range(120):
        env.step(Action(steer=1.0, throttle=0.6))
        if env.done:
            break
    vx = env.state.vx
    if vx > 1.0 and abs(env.state.yaw_rate) > 1e-6:
        kappa = abs(env.state.yaw_rate) / vx
        cap = max_speed(kappa, p.mu_grip, mass=p.mass, downforce=p.downforce(vx))
        assert vx <= cap * 1.02


def test_determinism_bit_identical_trajectories(oval):
    actions = [Action(steer=0.2 * math.sin(i / 7.0), throttle=0.7, brake=0.0) for i in range(50)]

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
    env.reset()
    s = env.state
    n = env.track.centerline.normal_at(30.0)  # mid straight, normal is exactly (0, 1)
    world_v = np.array([10.0, 0.0])
    assert abs(world_v @ n) < 1e-12
    # put the car exactly on the left border
    s.position = env.track.centerline.point_at(30.0) + n * (env.track.width / 2.0)
    f = env.track.frame(s.position, s.heading)
    assert env._wall_contact(world_v, f) == 0.0


def test_damage_normal_impact_formula():
    env = make_env(tracks.get_track("oval"), damage_coeff=1.0)
    env.reset()
    s = env.state
    n = env.track.centerline.normal_at(30.0)
    s.position = env.track.centerline.point_at(30.0) + n * (env.track.width / 2.0 + 0.01)
    f = env.track.frame(s.position, s.heading)
    world_v = 10.0 * n  # straight into the wall at 10 m/s
    assert env._wall_contact(world_v, f) == pytest.approx(100.0, rel=1e-12)
    # velocity normal component zeroed: the car now slides along the wall
    assert s.vx == pytest.approx(0.0, abs=1e-12)


def test_damage_monotone_and_episode_ends_out_of_track(oval):
    env = make_env(oval)
    env.reset()
    total = 0.0
    term = None
    for _ in range(300):
        res = env.step(Action(steer=1.0, throttle=1.0))
        assert res.info.damage_increment >= 0.0
        total += res.info.damage_increment
        assert env.state.damage == pytest.approx(total)
        if res.termination:
            term = res.termination
            break
    assert term is Termination.OUT_OF_TRACK
    assert res.reward == -1.0
    assert total > 0.0


# --- laps ----------------------------------------------------------------------


def test_lap_accounting_straight_line_progress(oval):
    env = make_env(oval, max_steps=2000)
    env.reset()
    progressed = 0.0
    for _ in range(25):
        res = env.step(Action(throttle=1.0))
        progressed = res.info.progress
    assert progressed > 60.0  # moving forward along delta while spinning up


def test_step_after_done_raises(oval):
    env = make_env(oval, max_steps=1)
    env.reset()
    res = env.step(Action())
    assert res.termination is Termination.MAX_STEPS
    with pytest.raises(RuntimeError):
        env.step(Action())


# --- telemetry log -------------------------------------------------------------


def test_telemetry_logger_format(tmp_path, oval):
    env = make_env(oval)
    env.reset()
    log = simulator.TelemetryLogger()
    for i in range(3):
        a = Action(throttle=0.5)
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
        res = env.step(bot.act(env.state))
        s = env.state
        trace.append((s.position.tolist(), s.heading, s.vx, s.vy, s.damage,
                      res.observation.vector().tolist()))
        assert res.termination is None
        if res.info.lap_completed:
            return trace, res.info.lap_time


@pytest.mark.parametrize("name", tracks.TRACK_NAMES)
def test_bot_lap_equals_full_scan_geometry(name, monkeypatch):
    fast = bot_lap_trace(name)
    monkeypatch.setattr(Polyline, "project", brute_project)
    monkeypatch.setattr(Track, "rangefinders",
                        lambda self, position, heading, frame=None:
                        brute_rangefinders(self, position, heading))
    assert bot_lap_trace(name, own_reference=True) == fast
