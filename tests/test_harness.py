import ast
import collections
import dataclasses
import json
import math
import os
import re
import shlex
import shutil
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from racerl import experiments as ex
from racerl import cli, nn, plotting, tracks
from racerl.agent import VARIANTS, AgentConfig, DDPGAgent
from racerl.bot import BaselineBot, bot_lap_time, drive_bot, record_reference_line
from racerl.cli import build_parser
from racerl.cli import main as cli_main
from racerl.config import RULES, from_dict
from racerl.geometry import Polyline, RacingLine, Track, save_racing_line, save_track
from racerl.replay import PERConfig
from racerl.simulator import CarParams, CarState, EnvSettings, RacingEnv, TelemetryLogger


@pytest.fixture(scope="module")
def oval():
    return tracks.get_track("oval")


def tiny_config(tmp_path, **kw):
    cfg = ex.ExperimentConfig(output_dir=str(tmp_path / "runs"), **kw)
    cfg.train.episodes = 2
    cfg.train.eval_every = 1
    cfg.train.checkpoint_every = 1
    cfg.train.warmup_steps = 20
    cfg.env.max_steps = 40
    cfg.seeds = [0]
    return cfg


# --- baseline bot -----------------------------------------------------------------


def test_bot_on_straight_accelerates(oval):
    bot = BaselineBot(oval)
    state = CarState(position=oval.centerline.point_at(30.0).copy(), heading=0.0, vx=10.0)
    action = bot.act(state, oval.frame(state.position, state.heading))
    assert action[1] > 0.0
    assert action[2] == 0.0


def test_bot_brakes_above_corner_speed():
    # approaching a kappa=0.05 corner too fast must brake
    track = tracks.get_track("technical")
    bot = BaselineBot(track)
    # place the car just before the first hairpin (straight ends at delta=200)
    state = CarState(position=track.centerline.point_at(150.0).copy(), heading=0.0, vx=40.0)
    action = bot.act(state, track.frame(state.position, state.heading))
    assert action[2] > 0.0
    assert action[1] == 0.0


def test_bot_laps_oval_zero_damage(oval):
    best, stats = bot_lap_time(oval, laps=2)
    assert stats["damage"] == 0.0
    assert best > 0.0
    # deterministic: re-measuring gives the identical time
    best2, _ = bot_lap_time(oval, laps=2)
    assert best == best2


def test_bot_lap_projects_once_per_substep(oval, monkeypatch):
    # the bot takes the env's last axis frame instead of projecting again
    calls = []
    project = Polyline.project
    monkeypatch.setattr(Polyline, "project",
                        lambda self, point: calls.append(1) or project(self, point))
    env = RacingEnv(oval, settings=EnvSettings(max_steps=2000))
    calls.clear()
    stats = drive_bot(env, BaselineBot(oval), stop_after_laps=1)
    assert stats["laps"]
    assert len(calls) == 1 + env.settings.substeps * stats["steps"]  # the reset's frame


class BotAgent:
    """The baseline bot behind the agent interface run_eval_episode drives."""

    config = SimpleNamespace(window=1, obs_dim=29)

    def __init__(self, env):
        self.env = env
        self.bot = BaselineBot(env.track)

    def act(self, window):
        return self.bot.act(self.env.state, self.env.axis_frame)


def test_results_keep_their_laps_when_the_env_races_again(oval):
    env = RacingEnv(oval, settings=EnvSettings(max_steps=2000))
    stats = drive_bot(env, BaselineBot(oval), stop_after_laps=1)
    res = ex.run_eval_episode(BotAgent(env), env, laps=2)
    first, second = list(stats["laps"]), list(res.lap_times)
    assert len(first) == 1 and len(second) == 2
    assert (res.termination, res.return_) == ("none", env.episode_return)
    drive_bot(env, BaselineBot(oval), max_steps=3)
    assert stats["laps"] == first and res.lap_times == second
    assert env.lap_times == []


def test_lap_counts_below_their_minimum_are_rejected(oval):
    env = RacingEnv(oval)
    with pytest.raises(ValueError, match="laps must be at least 1, got 0"):
        ex.run_eval_episode(BotAgent(env), env, laps=0)
    for laps in (-1, 0):
        with pytest.raises(ValueError, match=f"laps must be at least 1, got {laps}$"):
            bot_lap_time(oval, laps=laps)


def test_record_reference_line_invariants(oval):
    line = record_reference_line(oval)
    assert np.all(line.alpha >= 0.0) and np.all(line.alpha <= 1.0)
    # recorded lap length within 1% of the centerline length (minus shortening)
    assert abs(line.world.length - oval.length) / oval.length < 0.01
    # LAC on a straight section of the recorded line is ~0
    lac = line.look_ahead_curvature(100.0)
    npt.assert_allclose(lac, np.zeros(4), atol=1e-3)


def test_record_line_failure_is_error(monkeypatch):
    # a bot that cannot steer fails the lap and the track is reported unusable
    act = BaselineBot.act

    def no_steer(self, state, axis_frame=None):
        return (0.0, *act(self, state, axis_frame)[1:])

    monkeypatch.setattr(BaselineBot, "act", no_steer)
    with pytest.raises(RuntimeError, match=r"technical \(out_of_track\); track unusable"):
        record_reference_line(tracks.get_track("technical"))


# --- rangefinder casts -------------------------------------------------------------


@pytest.fixture
def casts(monkeypatch):
    """Counts of Track.rangefinders calls and RacingEnv.step calls."""
    counts = {"rangefinders": 0, "steps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Track, "rangefinders", counted("rangefinders", Track.rangefinders))
    monkeypatch.setattr(RacingEnv, "step", counted("steps", RacingEnv.step))
    return counts


def test_bot_drives_cast_no_rangefinders(oval, casts):
    # the bot, its telemetry log and the line recorder never read Observation.track
    bot_lap_time(oval)
    record_reference_line(oval)
    log = TelemetryLogger()
    drive_bot(RacingEnv(oval), BaselineBot(oval), max_steps=50, logger=log)
    assert len(log.rows) == 50 and casts["steps"] > 50
    assert casts["rangefinders"] == 0


def test_agent_drives_cast_rangefinders_once_per_step(tmp_path, casts):
    # the agent reads every observation's vector: the reset's and each step's
    cfg = tiny_config(tmp_path)
    res = ex.run_eval_episode(ex.make_agent(cfg, 0), ex.make_env(cfg), laps=1)
    assert casts["steps"] == res.steps
    assert casts["rangefinders"] == res.steps + 1

    casts.update(rangefinders=0, steps=0)
    run_dir = ex.train_run(cfg, 0).run_dir
    episodes = ex.read_csv_columns(os.path.join(run_dir, "metrics.csv"))["steps"]
    evals = ex.read_csv_columns(os.path.join(run_dir, "eval.csv"))["steps"]
    steps = sum(int(v) for v in episodes + evals)
    assert casts["steps"] == steps
    assert casts["rangefinders"] == steps + len(episodes) + len(evals)


# --- config ------------------------------------------------------------------------


def test_default_config_json_parses_and_covers_constants():
    doc = json.loads(ex.default_config_json())
    assert doc["agent"]["gamma"] == 0.99
    assert doc["agent"]["tau"] == 1e-3
    assert doc["exploration"]["horizon"] == 100_000
    assert doc["exploration"]["brake_burst"]["sigma"] == 0.6
    assert doc["env"]["dt"] == 0.2
    assert doc["env"]["damage_weight"] == 0.01
    assert doc["car"]["mass"] == 1000.0


def test_config_file_roundtrip(tmp_path):
    cfg = ex.ExperimentConfig(track="technical", variant="PER1M")
    cfg.agent.gamma = 0.95
    path = tmp_path / "config.json"
    cfg.save(path)
    loaded = ex.ExperimentConfig.from_file(path)
    assert loaded.track == "technical"
    assert loaded.variant == "PER1M"
    assert loaded.agent.gamma == 0.95
    assert loaded.exploration.steer.sigma == 0.3


def test_config_load_errors_name_the_field(tmp_path):
    path = tmp_path / "config.json"
    doc = json.loads(ex.default_config_json())
    doc["exploration"]["steer"]["thta"] = 0.1
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"'exploration\.steer\.thta'"):
        ex.ExperimentConfig.from_file(path)
    doc = json.loads(ex.default_config_json())
    doc["env"]["slow_window"] = 0
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=r"env\.slow_window"):
        ex.ExperimentConfig.from_file(path)


@pytest.mark.parametrize("doc,field", [
    ({"env": {"max_steps": "10"}}, "env.max_steps"),
    ({"train": {"episodes": "5"}}, "train.episodes"),
    ({"env": {"max_steps": True}}, "env.max_steps"),
    ({"seeds": "012"}, "seeds"),
])
def test_config_load_rejects_wrong_types(tmp_path, doc, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"config {field} must be"):
        ex.ExperimentConfig.from_file(path)


@pytest.mark.parametrize("text,field", [
    ('{"env": {"damage_weight": NaN}}', "env.damage_weight"),
    ('{"env": {"slow_speed": NaN}}', "env.slow_speed"),
    ('{"env": {"start_delta": Infinity}}', "env.start_delta"),
    ('{"env": {"dt": Infinity}}', "env.dt"),
    ('{"env": {"damage_coeff": -1.0}}', "env.damage_coeff"),
    ('{"env": {"start_speed": -0.5}}', "env.start_speed"),
    ('{"car": {"mass": NaN}}', "car.mass"),
    ('{"car": {"mu_grip": Infinity}}', "car.mu_grip"),
    ('{"car": {"downforce_coeff": -1.0}}', "car.downforce_coeff"),
    ('{"car": {"rpm_per_mps": -Infinity}}', "car.rpm_per_mps"),
])
def test_config_load_rejects_non_finite_or_negative_values(text, field):
    # json accepts the NaN and Infinity literals
    with pytest.raises(ValueError, match=rf"{field} must be"):
        from_dict(ex.ExperimentConfig, json.loads(text))


@pytest.mark.parametrize("text,message", [
    ('{"agent": {"tau": 2.0}}', "agent.tau must be in [0, 1], got 2.0"),
    ('{"agent": {"gamma": NaN}}', "agent.gamma must be in [0, 1], got nan"),
    ('{"agent": {"batch_size": 0}}', "agent.batch_size must be at least 1, got 0"),
    ('{"agent": {"hidden": 0}}', "agent.hidden must be at least 1, got 0"),
    ('{"agent": {"actor_lr": -1}}', "agent.actor_lr must be finite and positive, got -1"),
    ('{"agent": {"critic_lr": Infinity}}', "agent.critic_lr must be finite and positive"),
    ('{"exploration": {"horizon": 0}}', "exploration.horizon must be at least 1, got 0"),
    ('{"exploration": {"burst_prob": NaN}}', "exploration.burst_prob must be in [0, 1]"),
    ('{"exploration": {"steer": {"sigma": -1}}}',
     "exploration.steer.sigma must be non-negative, got -1"),
    ('{"exploration": {"brake": {"mu": Infinity}}}', "exploration.brake.mu must be finite"),
    ('{"train": {"warmup_steps": -5}}', "train.warmup_steps must be non-negative, got -5"),
    ('{"train": {"train_every": 1}}', "unknown config key 'train.train_every'"),
    ('{"train": {"success_lap_time": -1}}',
     "train.success_lap_time must be None or finite and positive, got -1"),
    ('{"train": {"success_lap_time": NaN}}',
     "train.success_lap_time must be None or finite and positive, got nan"),
    ('{"seeds": [0, -1]}', "seeds[1] must be a non-negative integer, got -1"),
    ('{"seeds": [true]}', "seeds[0] must be a non-negative integer, got True"),
    ('{"seeds": [1.5]}', "seeds[0] must be a non-negative integer, got 1.5"),
])
def test_agent_exploration_and_seed_settings_fail_at_load(tmp_path, monkeypatch, text,
                                                          message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_dict(ex.ExperimentConfig, json.loads(text))
    path = tmp_path / "config.json"
    path.write_text(text)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli_main(["train", "--config", str(path)])
    assert not os.path.exists(tmp_path / "runs")  # failed before writing the run


def test_missing_racing_line_file_fails_before_writing(tmp_path):
    cfg = tiny_config(tmp_path, reference="rc", racing_line_file=str(tmp_path / "nosuch.json"))
    with pytest.raises(FileNotFoundError, match="racing_line_file .*nosuch.json"):
        ex.train_run(cfg, 0)
    assert not os.path.exists(tmp_path / "runs")


def test_agent_settings_and_seeds_set_in_code_fail_before_writing(tmp_path, monkeypatch):
    with pytest.raises(ValueError, match=re.escape("agent.tau must be in [0, 1], got 2.0")):
        AgentConfig(tau=2.0)
    cfg = tiny_config(tmp_path)
    cfg.agent.batch_size = 0
    with pytest.raises(ValueError, match=re.escape("agent.batch_size must be at least 1")):
        ex.train_run(cfg, 0)
    for seed in (-1, True, 1.0):
        with pytest.raises(ValueError, match=re.escape(f"seed must be a non-negative integer, "
                                                       f"got {seed!r}")):
            ex.train_run(tiny_config(tmp_path), seed)
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 0
    with pytest.raises(ValueError, match=re.escape("train.episodes must be at least 1")):
        ex.ablation_at(cfg, seeds=[0])
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
        cli_main(["train", "--seed", "-1"])
    assert not os.path.exists(tmp_path / "runs")  # failed before writing the run


def test_config_loads_printed_defaults_and_ints_for_floats(capsys):
    assert cli_main(["--print-config"]) == 0
    printed = from_dict(ex.ExperimentConfig, json.loads(capsys.readouterr().out))
    assert printed == ex.ExperimentConfig()
    assert from_dict(ex.ExperimentConfig, {"env": {"dt": 1}}).env.dt == 1


def test_settings_assigned_after_construction_fail_naming_the_field(tmp_path):
    cfg = ex.ExperimentConfig()
    cfg.env.max_steps = -3
    with pytest.raises(ValueError, match=r"env\.max_steps"):
        ex.make_env(cfg)
    cfg = tiny_config(tmp_path)
    cfg.train.eval_every = 0
    with pytest.raises(ValueError, match=r"train\.eval_every"):
        ex.train_run(cfg, 0)
    for tree, field, value in (("env", "max_steps", -3), (None, "variant", "WIN9"),
                               (None, "track", "monza")):
        cfg = tiny_config(tmp_path)
        setattr(getattr(cfg, tree) if tree else cfg, field, value)
        with pytest.raises(ValueError, match=rf"{field} must be"):
            ex.train_run(cfg, 0)
    assert not os.path.exists(tmp_path / "runs")  # failed before writing the run


@pytest.mark.parametrize("args,field", [
    (["--max-steps", "0", "--episodes", "1"], "env.max_steps"),
    (["--episodes", "0", "--max-steps", "5"], "train.episodes"),
])
def test_cli_ablate_at_rejects_zero_overrides(tmp_path, monkeypatch, args, field):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=field):
        cli_main(["ablate-at", *args, "--seeds", "1"])
    assert not os.path.exists(tmp_path / "runs")  # failed before any training


@pytest.mark.parametrize("doc,field", [
    ({"variant": "WIN9"}, "variant"),
    ({"track": "monza"}, "track"),
])
def test_config_rejects_unknown_variant_or_track_before_training(tmp_path, monkeypatch,
                                                                  doc, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=rf"config {field} must be one of"):
        ex.ExperimentConfig.from_file(path)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=field):
        cli_main(["train", "--config", str(path)])
    assert not os.path.exists(tmp_path / "runs")  # failed before writing the run


def test_config_rc_requires_line_file():
    with pytest.raises(ValueError, match="racing-line"):
        ex.ExperimentConfig(reference="rc")
    with pytest.raises(ValueError, match="seed"):
        ex.ExperimentConfig(seeds=[])


@pytest.mark.parametrize("doc,message", [
    ({"reference": "xyz"}, "config reference must be one of ('mot', 'rc', 'rc-lac'), got 'xyz'"),
    ({"reference": "rc-lac"},
     "config racing_line_file must name a racing-line file for reference 'rc-lac', got None"),
])
def test_reference_errors_name_the_field_and_the_value(doc, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_dict(ex.ExperimentConfig, doc)


@pytest.mark.parametrize("car,message", [
    ({"engine_force": 5000.0}, "car.engine_force 5000.0 N cannot sustain car.top_speed 50.0 m/s "
     "against car.drag_coeff 2.8: that needs at least 7000 N"),
    ({"top_speed": 60.0}, "car.engine_force 7000.0 N cannot sustain car.top_speed 60.0 m/s "
     "against car.drag_coeff 2.8: that needs at least 10080 N"),
])
def test_car_top_speed_error_names_the_fields_and_the_values(car, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_dict(ex.ExperimentConfig, {"car": car})
    with pytest.raises(ValueError, match=re.escape(message)):
        CarParams(**car)


@pytest.mark.parametrize("kwargs,message", [
    ({"alpha": math.nan}, "per.alpha must be non-negative, got nan"),
    ({"lam3": math.nan}, "per.lam3 must be non-negative, got nan"),
    ({"epsilon": math.inf}, "per.epsilon must be finite and positive, got inf"),
    ({"epsilon": math.nan}, "per.epsilon must be finite and positive, got nan"),
])
def test_per_config_rejects_non_finite_values(kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        PERConfig(**kwargs)
    with pytest.raises(ValueError, match=re.escape(f"agent.{message}")):
        from_dict(AgentConfig, {"per": kwargs})  # as a checkpoint's stored config loads


def test_repeated_seeds_fail_before_anything_is_written(tmp_path):
    with pytest.raises(ValueError, match=re.escape("seeds[1] repeats seeds[0]")):
        ex.ExperimentConfig(seeds=[0, 0])
    with pytest.raises(ValueError, match=re.escape("seeds[3] repeats seeds[1]")):
        from_dict(ex.ExperimentConfig, {"seeds": [2, 5, 0, 5]})
    with pytest.raises(ValueError, match=re.escape("seeds[1] repeats seeds[0]")):
        ex.ablation_at(tiny_config(tmp_path), seeds=[1, 1])
    cfg = tiny_config(tmp_path)
    cfg.seeds = [0, 0]
    with pytest.raises(ValueError, match=re.escape("seeds[1] repeats seeds[0]")):
        ex.tournament(cfg, variants=["WIN1"], phase2_track=None)
    assert not os.path.exists(tmp_path / "runs")


# a value that breaks each rule, of a type from_dict accepts for int and float fields
BREAKS_RULE = {"at least 1": 0, "non-negative": -1, "finite and positive": 0,
               "in [0, 1]": 2, "None or finite and positive": 0}
FREE_FIELDS = {"env.start_delta", "exploration.steer.mu", "exploration.throttle.mu",
               "exploration.brake.mu", "exploration.brake_burst.mu"}


def _numeric_fields(cls, path, keys=()):
    """(dotted path, JSON keys from the root, field, is_float) for every int
    or float field of the tree cls, which messages name path."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        dotted = f"{path}.{f.name}" if path else f.name
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        if dataclasses.is_dataclass(hints[f.name]):
            yield from _numeric_fields(hints[f.name], dotted, (*keys, f.name))
        elif int in kinds or float in kinds:
            yield dotted, (*keys, f.name), f, float in kinds


CHECKED_FIELDS = [(root, *found) for root, path in ((ex.ExperimentConfig, ""), (PERConfig, "per"))
                  for found in _numeric_fields(root, path)]


def test_every_numeric_field_declares_a_rule_or_is_free():
    assert set(BREAKS_RULE) == set(RULES)
    assert {dotted for _, dotted, _, f, _ in CHECKED_FIELDS
            if "rule" not in f.metadata} == FREE_FIELDS


@pytest.mark.parametrize("root,dotted,keys,f,is_float", CHECKED_FIELDS,
                         ids=[found[1] for found in CHECKED_FIELDS])
def test_every_numeric_field_is_checked_at_load(root, dotted, keys, f, is_float):
    bad = [BREAKS_RULE[f.metadata["rule"]]] if "rule" in f.metadata else []
    bad += [math.nan] if is_float else []
    assert bad
    for value in bad:
        doc = value
        for key in reversed(keys):
            doc = {key: doc}
        with pytest.raises(ValueError, match=re.escape(f"{dotted} must be")):
            from_dict(root, doc)


# --- training runs ---------------------------------------------------------------------


def test_train_one_episode_metrics_row(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 1
    result = ex.train_run(cfg, 0)
    lines = Path(os.path.join(result.run_dir, "metrics.csv")).read_text().splitlines()
    assert lines[0] == ex.METRICS_HEADER
    assert len(lines) == 2  # header + exactly one row


@pytest.mark.parametrize("variant", ["WIN4", "LSTM8", "WIN1"])
def test_the_window_the_agent_acts_on_is_the_replay_window(tmp_path, monkeypatch, variant):
    """ObservationWindow and ReplayBuffer.assemble_window each pad an episode's
    start with its first observation: the window act_explore is given at each
    step must be the replay's window of the transition that step pushes."""
    seen = []
    act_explore = DDPGAgent.act_explore

    def recording(agent, window_obs):
        seen.append(window_obs.copy())
        return act_explore(agent, window_obs)

    monkeypatch.setattr(DDPGAgent, "act_explore", recording)
    buffer = ex.train_run(tiny_config(tmp_path, variant=variant), 0).agent.buffer
    window = VARIANTS[variant].window
    assert buffer.size == len(seen) and len(set(buffer.episode[:buffer.size])) == 2
    for slot, acted_on in enumerate(seen):
        assert acted_on.shape == (window, buffer.state.shape[1])
        assert np.array_equal(buffer.assemble_window(slot, window)[0], acted_on)


def test_train_determinism_byte_identical(tmp_path):
    # the learner writes its flat parameter vectors in place through views;
    # a slip there shows as run-to-run drift in these files
    for variant in ("WIN1", "PER40k"):
        cfg = tiny_config(tmp_path, variant=variant)
        cfg.train.episodes = 4
        cfg.train.updates_per_step = 2
        r1 = ex.train_run(cfg, 0, run_dir=str(tmp_path / variant / "a"))
        r2 = ex.train_run(cfg, 0, run_dir=str(tmp_path / variant / "b"))
        for name in ("metrics.csv", "eval.csv"):
            b1 = Path(os.path.join(r1.run_dir, name)).read_bytes()
            b2 = Path(os.path.join(r2.run_dir, name)).read_bytes()
            assert b1 == b2
        rows = Path(os.path.join(r1.run_dir, "metrics.csv")).read_text().splitlines()[1:]
        assert sum(float(row.split(",")[3]) != 0.0 for row in rows) >= 2  # episodes that trained


def test_train_run_directory_contents(tmp_path):
    cfg = tiny_config(tmp_path)
    result = ex.train_run(cfg, 0)
    for name in ("config.json", "runinfo.json", "metrics.csv", "eval.csv",
                 "best.npz", "latest.npz"):
        assert os.path.exists(os.path.join(result.run_dir, name)), name
    info = json.loads(Path(os.path.join(result.run_dir, "runinfo.json")).read_text())
    assert info["version"].startswith("racerl-")
    assert info["seed"] == 0
    assert ex.list_checkpoints(result.run_dir)


@pytest.mark.parametrize("eval_every", [1, 2])
def test_train_run_builds_one_env_to_train_and_one_to_race(tmp_path, monkeypatch, eval_every):
    calls = []
    make_env = ex.make_env
    monkeypatch.setattr(ex, "make_env", lambda *a, **kw: calls.append(1) or make_env(*a, **kw))
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 4
    cfg.train.eval_every = eval_every
    result = ex.train_run(cfg, 0)
    assert len(calls) == 2
    evals = Path(os.path.join(result.run_dir, "eval.csv")).read_text().splitlines()[1:]
    assert len(evals) == 4 // eval_every


def test_a_run_into_an_earlier_runs_directory_keeps_none_of_its_run_files(tmp_path,
                                                                          monkeypatch):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 4
    cfg.train.eval_every = 2
    cfg.train.checkpoint_every = 2
    first = ex.train_run(cfg, 0)
    run_dir = Path(first.run_dir)
    # as a failed run and a generalization would leave them, and a file of the user's
    for name in ("FAILED", "generalization.csv", "generalization.json", "training.svg"):
        (run_dir / name).write_text("first run\n")
    assert {"best.npz", "latest.npz"} <= set(os.listdir(run_dir))
    assert sorted(os.listdir(run_dir / "checkpoints")) == ["ckpt_000002.npz", "ckpt_000004.npz"]
    cfg.train.episodes = 1  # no eval and no checkpoint are due
    second = ex.train_run(cfg, 0)
    assert second.run_dir == first.run_dir
    assert sorted(os.listdir(run_dir)) == ["checkpoints", "config.json", "eval.csv", "latest.npz",
                                           "metrics.csv", "runinfo.json", "training.svg"]
    assert os.listdir(run_dir / "checkpoints") == []
    assert (run_dir / "training.svg").read_text() == "first run\n"
    assert (second.failed, second.episodes_run, ex.list_checkpoints(second.run_dir)) == \
        (False, 1, [])
    raced = []
    monkeypatch.setattr(ex, "evaluate", lambda ckpt, *a, **kw: raced.append(ckpt) or
                        [ex.EpisodeResult([], None, 0.0, "out_of_track", 0.0, 1)])
    ex.summarize_run(second)
    assert raced == [second.agent]  # not the first run's best.npz


def test_a_numeric_failure_writes_failed_and_ends_the_run(tmp_path, monkeypatch, capsys):
    # episodes of 5 steps, updates from the 4th step on: the 8th update is on the first
    # step of episode 3, which it ends
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 6
    cfg.train.warmup_steps = 3
    cfg.env.max_steps = 5
    calls = []
    train_step = DDPGAgent.train_step

    def failing_train_step(agent):
        calls.append(1)
        if len(calls) == 8:
            raise nn.NumericError("non-finite critic loss")
        return train_step(agent)

    monkeypatch.setattr(DDPGAgent, "train_step", failing_train_step)
    run = ex.train_run(cfg, 0)
    assert (run.failed, run.episodes_run) == (True, 3)
    run_dir = Path(run.run_dir)
    assert (run_dir / "FAILED").read_text() == "episode 3: non-finite critic loss\n"
    metrics = (run_dir / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[:2] for row in metrics] == [["1", "5"], ["2", "5"], ["3", "1"]]
    evals = (run_dir / "eval.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in evals] == ["1", "2"]
    assert sorted(os.listdir(run_dir / "checkpoints")) == ["ckpt_000001.npz", "ckpt_000002.npz"]
    assert [path for _, path in ex.list_checkpoints(run.run_dir)] == \
        [str(run_dir / "checkpoints" / f) for f in ("ckpt_000001.npz", "ckpt_000002.npz")]
    assert DDPGAgent.load(str(run_dir / "latest.npz")).config.variant == "WIN1"
    calls.clear()
    config_file = tmp_path / "config.json"
    cfg.save(config_file)
    cli_main(["train", "--config", str(config_file)])
    assert "seed 0: 3 episodes [FAILED]" in capsys.readouterr().out


def _eval_result(lap=None, damage=0.0, return_=0.0):
    return ex.EpisodeResult(lap_times=[] if lap is None else [lap], best_lap_time=lap,
                            damage=damage, termination="out_of_track" if lap is None else "none",
                            return_=return_, steps=5)


@pytest.mark.parametrize("stop_on_success", [False, True])
def test_evals_keep_the_best_score_and_the_first_clean_lap_under_the_target(
        tmp_path, monkeypatch, stop_on_success):
    script = [
        _eval_result(return_=5.0),            # 1: the first score: best
        _eval_result(return_=3.0),            # 2: a lower DNF return
        _eval_result(lap=40.0),               # 3: any lap beats a DNF: best; over the target
        _eval_result(lap=33.0, damage=10.0),  # 4: best; under the target, but damaged
        _eval_result(lap=35.0),               # 5: clean, but not under the 35 s target
        _eval_result(lap=34.0),               # 6: not best, but clean and under: success
        _eval_result(lap=32.0),               # 7: best; the success stays at episode 6
        _eval_result(lap=36.0),               # 8
    ]
    races = iter(script)
    monkeypatch.setattr(ex, "run_eval_episode", lambda agent, env, laps: next(races))
    saved = []
    save = DDPGAgent.save
    monkeypatch.setattr(DDPGAgent, "save", lambda agent, path:
                        saved.append(os.path.basename(path)) or save(agent, path))
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 8
    cfg.train.checkpoint_every = 100
    cfg.train.warmup_steps = 1000
    cfg.env.max_steps = 5
    cfg.train.success_lap_time = 35.0
    cfg.train.stop_on_success = stop_on_success
    run = ex.train_run(cfg, 0)
    assert run.success_episode == 6
    assert run.episodes_run == (6 if stop_on_success else 8)
    best_at = [1, 3, 4] + ([] if stop_on_success else [7])
    assert saved == ["best.npz"] * len(best_at) + ["latest.npz"]
    evals = Path(os.path.join(run.run_dir, "eval.csv")).read_text().splitlines()[1:]
    laps = ["", "", "40.0", "33.0", "35.0", "34.0", "32.0", "36.0"]
    assert [row.split(",")[4] for row in evals] == laps[:run.episodes_run]


# --- file writes ---------------------------------------------------------------------------


class Unserialisable:
    def __reduce__(self):
        raise RuntimeError("cannot serialise")


def _telemetry(*rows):
    """A TelemetryLogger holding these rows; _fmt cannot format an Unserialisable."""
    log = TelemetryLogger()
    log.rows.extend(rows)
    return log


@pytest.mark.parametrize("name, write", [
    # the zip holds the meta block and "w" when pickling "bad" raises
    ("latest.npz", lambda path: nn.save_arrays(
        path, {}, {"w": np.zeros(1000), "bad": np.array([Unserialisable()], dtype=object)})),
    ("track.json", lambda path: save_track(
        SimpleNamespace(name="t", width=Unserialisable(),
                        centerline=SimpleNamespace(points=np.zeros((3, 2)))), path)),
    ("runinfo.json", lambda path: ex.write_json(path, {"a": [1.0] * 100, "z": Unserialisable()})),
    ("telemetry.csv", lambda path: _telemetry((0,) * 14, (1, Unserialisable())).write(path)),
], ids=lambda v: v if isinstance(v, str) else "")
def test_a_write_that_fails_partway_leaves_the_previous_file(tmp_path, name, write):
    path = tmp_path / name
    path.write_bytes(b"previous bytes")
    with pytest.raises((RuntimeError, TypeError)):
        write(path)
    assert path.read_bytes() == b"previous bytes"
    assert os.listdir(tmp_path) == [name]


def test_a_train_run_leaves_no_temporary_file(tmp_path):
    result = ex.train_run(tiny_config(tmp_path), 0)
    left = [f for _, _, files in os.walk(result.run_dir) for f in files if ".tmp" in f]
    assert left == []


# the only files src/ opens for writing outside files.py: a run's two line-buffered
# row streams, written row by row on purpose
ROW_STREAMS = {("experiments.py", f"open(os.path.join(self.run_dir, '{name}'), 'w', buffering=1)")
               for name in ("metrics.csv", "eval.csv")}


def test_src_writes_files_only_through_files_py_or_the_row_streams():
    src = Path(ex.__file__).parent
    bare = []
    for path in sorted(src.glob("*.py")):
        if path.name == "files.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "open"):
                continue
            mode = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
            reads = isinstance(mode, ast.Constant) and not set(mode.value) & set("wax+")
            if not reads and (path.name, ast.unparse(node)) not in ROW_STREAMS:
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_src_modules_use_every_module_level_import():
    # the unused-import check a linter would make: every name a module-level
    # import binds is read somewhere in its module
    unused = []
    for path in sorted(Path(ex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                           if (alias.asname or alias.name.split(".")[0]) not in read]
    assert unused == []


def test_src_modules_define_no_dead_name():
    # every module-level function and class is named somewhere besides its
    # definition: in src/, tests/, demos/ or perfbench/
    src = Path(ex.__file__).parent
    root = src.parent.parent
    words = collections.Counter()
    for folder in ("src", "tests", "demos", "perfbench"):
        for path in (root / folder).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text()))
    dead = []
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and words[node.name] < 2:
                dead.append(f"{path.name}:{node.lineno} {node.name}")
    assert dead == []


# --- evaluation ---------------------------------------------------------------------------


def test_evaluate_checkpoint_and_dnf_status(tmp_path):
    cfg = tiny_config(tmp_path)
    result = ex.train_run(cfg, 0)
    out = ex.evaluate(os.path.join(result.run_dir, "latest.npz"), "oval", laps=1)
    assert len(out) == 1
    res = out[0]
    # a 2-episode agent will not lap; DNF must surface as a status, not an error
    assert res.status in ("finished", "DNF")
    if not res.finished:
        assert res.best_lap_time is None


def test_eval_determinism(tmp_path):
    cfg = tiny_config(tmp_path)
    result = ex.train_run(cfg, 0)
    ckpt = os.path.join(result.run_dir, "latest.npz")
    a = ex.evaluate(ckpt, "oval", laps=1)[0]
    b = ex.evaluate(ckpt, "oval", laps=1)[0]
    assert (a.return_, a.steps, a.damage, a.best_lap_time) == \
        (b.return_, b.steps, b.damage, b.best_lap_time)


def _offset_line_file(tmp_path, track):
    """A racing line a tenth of the width off the axis, saved to a file."""
    grid = np.arange(0.0, track.length - 1.0, 2.0)
    path = str(tmp_path / f"{track.name}_offset_line.json")
    save_racing_line(RacingLine(track, grid, np.full(grid.shape, 0.6)), path)
    return path


@pytest.mark.parametrize("reference", ["mot", "rc-lac"])
def test_evaluate_reads_lac_from_the_checkpoint(tmp_path, oval, reference):
    # LAC input follows the agent; the line file, when given, sets the line
    line = _offset_line_file(tmp_path, oval)
    cfg = tiny_config(tmp_path, reference=reference,
                      racing_line_file=line if reference != "mot" else None)
    ckpt = os.path.join(ex.train_run(cfg, 0).run_dir, "latest.npz")
    axis = ex.evaluate(ckpt, "oval", laps=1)[0]
    on_line = ex.evaluate(ckpt, "oval", laps=1, racing_line_file=line)[0]
    assert axis.steps > 0 and on_line.steps > 0
    assert on_line.return_ != axis.return_  # telemetry measured against the line


def test_generalization_of_an_lac_run_writes_no_line_files(tmp_path, oval):
    cfg = tiny_config(tmp_path, reference="rc-lac",
                      racing_line_file=_offset_line_file(tmp_path, oval))
    result = ex.train_run(cfg, 0)
    report = ex.generalization_eval(result.run_dir, ["oval", "technical"], laps=1)
    assert len(Path(report["series_csv"]).read_text().splitlines()) >= 3
    assert not [f for f in os.listdir(result.run_dir) if f.startswith("motline_")]


# --- leaderboard ------------------------------------------------------------------------


def test_leaderboard_zero_damage_filter():
    rows = ex.build_leaderboard([
        ex.ModelSummary("WIN1", 0, 30.0, 0.0),
        ex.ModelSummary("WIN1", 1, 25.0, 50.0),   # fast but damaged: excluded from bLT/aLT
        ex.ModelSummary("WIN1", 2, 32.0, 0.0),
    ])
    row = rows[0]
    assert row.blt == 30.0
    assert row.alt == 31.0
    assert row.avg_damage == pytest.approx(50.0 / 3.0)
    assert row.finish_rate == 1.0


def test_leaderboard_alt_at_least_blt():
    rng = np.random.default_rng(0)
    summaries = [
        ex.ModelSummary("MS2", s, float(rng.uniform(25, 40)), 0.0) for s in range(5)
    ]
    row = ex.build_leaderboard(summaries)[0]
    assert row.alt >= row.blt


def test_leaderboard_dnf_ranks_last():
    rows = ex.build_leaderboard([
        ex.ModelSummary("WIN1", 0, None, 0.0),
        ex.ModelSummary("WIN4", 0, 30.0, 0.0),
    ])
    assert rows[0].variant == "WIN4"
    assert rows[1].blt is None


def test_family_winner_selection_matches_alt_rule():
    # synthetic aLT values 27.16 / 26.96 / 35.61 pick WIN4
    rows = ex.build_leaderboard([
        ex.ModelSummary("WIN1", 0, 27.16, 0.0),
        ex.ModelSummary("WIN4", 0, 26.96, 0.0),
        ex.ModelSummary("WIN8", 0, 35.61, 0.0),
    ])
    winners = ex.select_family_winners(rows)
    assert winners == {"WIN": "WIN4"}


# --- generalization -----------------------------------------------------------------------


def test_select_general_model_single_finisher():
    entries = [{"checkpoint": "c1", "episode": 50,
                "laps": {"a": 70.0, "b": 80.0, "c": 90.0}}]
    assert ex.select_general_model(entries, "a")["checkpoint"] == "c1"


def test_select_general_model_prefers_finisher_over_faster_dnf():
    entries = [
        {"checkpoint": "c1", "episode": 50, "laps": {"a": 70.0, "b": 90.0}},
        {"checkpoint": "c2", "episode": 100, "laps": {"a": 65.0, "b": None}},
    ]
    assert ex.select_general_model(entries, "a")["checkpoint"] == "c1"


def test_select_general_model_tie_goes_to_earlier():
    entries = [
        {"checkpoint": "c1", "episode": 50, "laps": {"a": 70.0, "b": 90.0}},
        {"checkpoint": "c2", "episode": 100, "laps": {"a": 70.0, "b": 85.0}},
    ]
    assert ex.select_general_model(entries, "a")["checkpoint"] == "c1"


def test_select_general_model_none_when_nothing_finishes():
    entries = [{"checkpoint": "c1", "episode": 50, "laps": {"a": 70.0, "b": None}}]
    assert ex.select_general_model(entries, "a") is None


def test_generalization_eval_pipeline(tmp_path):
    cfg = tiny_config(tmp_path)
    result = ex.train_run(cfg, 0)
    report = ex.generalization_eval(result.run_dir, ["oval"], laps=1)
    assert os.path.exists(report["series_csv"])
    lines = Path(report["series_csv"]).read_text().splitlines()
    assert lines[0] == ex.GENERALIZATION_HEADER
    assert len(lines) >= 2
    assert report["training_track"] == "oval"
    # a 2-episode model will not finish: explicit no-general-model report
    if report["general_model"] is None:
        assert "no checkpoint finished" in report["note"]


def test_generalization_eval_races_only_the_runs_checkpoints(tmp_path):
    cfg = tiny_config(tmp_path)
    run_dir = Path(ex.train_run(cfg, 0).run_dir)
    clean = ex.generalization_eval(run_dir, ["oval"], laps=1)
    clean_csv = (run_dir / "generalization.csv").read_bytes()
    for stray in ("latest.npz", "ckpt_old.npz"):
        shutil.copy(run_dir / "latest.npz", run_dir / "checkpoints" / stray)
    assert ex.generalization_eval(run_dir, ["oval"], laps=1) == clean
    assert (run_dir / "generalization.csv").read_bytes() == clean_csv
    assert [e for e, _ in ex.list_checkpoints(run_dir)] == [1, 2]


def test_generalization_eval_rejects_a_repeated_or_unknown_track(tmp_path):
    run_dir = Path(ex.train_run(tiny_config(tmp_path), 0).run_dir)
    for names, message in [
        (["oval", "oval", "technical"], r"tracks\[1\] repeats tracks\[0\]"),
        (["technical", "oval", "OVAL"], r"tracks\[2\] repeats tracks\[1\]"),
        (["oval", "nosuch"], r"tracks\[1\] must be one of \['oval', .*\], got 'nosuch'"),
    ]:
        with pytest.raises(ValueError, match=message):
            ex.generalization_eval(run_dir, names, laps=1)
    assert not list(run_dir.glob("generalization*"))


def test_generalization_eval_builds_each_track_once(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 3
    result = ex.train_run(cfg, 0)
    checkpoints = [path for _, path in ex.list_checkpoints(result.run_dir)]
    assert len(checkpoints) == 3
    built, races = [], []
    get_track, race = tracks.get_track, ex.run_eval_episode
    monkeypatch.setattr(tracks, "get_track", lambda name: built.append(name) or get_track(name))
    monkeypatch.setattr(ex, "run_eval_episode",
                        lambda agent, env, laps: races.append(race(agent, env, laps)) or races[-1])
    names = ["oval", "technical"]
    report = ex.generalization_eval(result.run_dir, names, laps=1)
    assert built == names
    raced = list(races)
    # a reset env races as a fresh one: each race equals its own evaluate
    fresh = [ex.evaluate(ckpt, name, laps=1, config=cfg)[0]
             for ckpt in checkpoints for name in names]
    assert raced == fresh
    assert len(Path(report["series_csv"]).read_text().splitlines()) == 1 + len(fresh)


# --- tournament (tiny budget) ----------------------------------------------------------------


def test_tournament_tiny(tmp_path):
    cfg = tiny_config(tmp_path)
    report = ex.tournament(cfg, variants=["WIN1", "WIN4"], phase2_track=None,
                           report_path=str(tmp_path / "report.json"))
    assert {r.variant for r in report.phase1} == {"WIN1", "WIN4"}
    assert os.path.exists(tmp_path / "report.json")
    doc = json.loads((tmp_path / "report.json").read_text())
    assert "phase1" in doc and "winners" in doc


@pytest.mark.parametrize("kw,message", [
    ({"variants": ["WIN1", "WIN9"]}, "config variant must be one of .*, got 'WIN9'"),
    ({"phase2_track": "nosuch"}, "tournament phase2_track must be one of .*, got 'nosuch'"),
    ({"variants": ["WIN1", "WIN4", "WIN1"]}, re.escape("variants[2] repeats variants[0]")),
    ({"variants": []}, "need at least one variant"),
    ({"phase2_track": ""}, "tournament phase2_track must be one of .*, got ''"),
    ({"report_path": ""}, "tournament report_path must name a file, got ''"),
])
def test_tournament_checks_its_arguments_before_training(tmp_path, monkeypatch, kw, message):
    calls = []
    monkeypatch.setattr(ex, "train_run", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=message):
        ex.tournament(tiny_config(tmp_path), **kw)
    assert calls == []


def test_tournament_phase2_trains_each_family_winner_on_mot_and_a_recorded_line(
        tmp_path, monkeypatch):
    # a tiny budget finishes no lap, so a reported one makes WIN1 the WIN family's winner
    monkeypatch.setattr(ex, "summarize_run",
                        lambda run: ex.ModelSummary(run.config.variant, run.seed, 30.0, 0.0))
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 1
    report = ex.tournament(cfg, variants=["WIN1"])
    assert report.winners == {"WIN": "WIN1"}
    line_file = os.path.join(cfg.output_dir, "technical_line.json")
    assert os.path.exists(line_file)
    assert sorted(row.variant for row in report.phase2) == ["WIN1-mot", "WIN1-rc"]
    assert len(report.run_dirs) == 3
    mot, rc = (json.loads(Path(run_dir, "config.json").read_text())
               for run_dir in report.run_dirs[1:])
    assert (mot["track"], mot["reference"], mot["racing_line_file"]) == ("technical", "mot", None)
    assert (rc["track"], rc["reference"], rc["racing_line_file"]) == ("technical", "rc", line_file)


# --- AT ablation ------------------------------------------------------------------------------


def test_ablation_at_smoke(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 4
    cfg.env.max_steps = 25
    report = ex.ablation_at(cfg, seeds=[0, 1], final_window=2)
    assert report.seeds == 2
    assert 0 <= report.at_wins <= 2
    assert os.path.exists(report.curves_csv)
    lines = Path(report.curves_csv).read_text().splitlines()
    assert lines[0] == "episode,at_smoothed,plain_smoothed"
    # twin arms share everything except the termination-target flag
    arms = tmp_path / "runs" / "ablation_at"
    at_cfg = json.loads((arms / "at" / "seed0" / "config.json").read_text())
    plain_cfg = json.loads((arms / "plain" / "seed0" / "config.json").read_text())
    assert at_cfg["agent"]["adopted_target"] is True
    assert plain_cfg["agent"]["adopted_target"] is False
    at_cfg["agent"]["adopted_target"] = plain_cfg["agent"]["adopted_target"]
    assert at_cfg == plain_cfg


def test_ablate_at_rejects_an_empty_seed_list(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="need at least one seed"):
        cli_main(["ablate-at", "--seeds", "0", "--episodes", "1", "--max-steps", "5"])
    with pytest.raises(ValueError, match="need at least one seed"):
        ex.ablation_at(tiny_config(tmp_path), seeds=[])
    assert not os.path.exists(tmp_path / "runs")  # failed before writing anything


# --- plotting ----------------------------------------------------------------------------------


def test_moving_average_constant_series():
    npt.assert_allclose(plotting.moving_average(np.full(10, 3.3), 5), np.full(10, 3.3))


def test_moving_average_hand_value():
    out = plotting.moving_average([0.0, 0.0, 0.0, 0.0, 5.0], 5)
    assert out[-1] == 1.0


def test_plot_two_point_series_single_polyline(tmp_path):
    path = tmp_path / "plot.svg"
    plotting.render_line_plot([("x", [0.0, 1.0], [2.0, 3.0])], path)
    svg = path.read_text()
    assert svg.count("<polyline") == 1
    pts = svg.split('points="')[1].split('"')[0].split()
    assert len(pts) == 2


def test_plot_empty_csv_errors(tmp_path):
    csv = tmp_path / "empty.csv"
    csv.write_text("episode,return\n")
    with pytest.raises(plotting.EmptyDataError):
        plotting.plot_csv(csv, tmp_path / "x.svg")


def test_plot_metrics_and_telemetry_csv(tmp_path):
    m = tmp_path / "metrics.csv"
    m.write_text("episode,steps,return,critic_loss_mean,actor_obj_mean,epsilon_prime,laps,damage\n"
                 "1,10,5.0,0.1,0.2,1.0,0,0.0\n2,12,6.0,0.1,0.2,0.9,0,0.0\n")
    out = plotting.plot_csv(m, tmp_path / "m.svg")
    assert os.path.exists(out)
    t = tmp_path / "telemetry.csv"
    t.write_text("step,t,x,y,heading,Vx,Vy,steer,throttle,brake,reward,trackPos,theta,damage\n"
                 "0,0.2,1,0,0,5,0,0.1,0.8,0.0,4.0,0.0,0.0,0\n"
                 "1,0.4,2,0,0,6,0,0.1,0.8,0.0,5.0,0.0,0.0,0\n")
    out2 = plotting.plot_csv(t, tmp_path / "t.svg")
    svg = Path(out2).read_text()
    assert "steer" in svg and "brake" in svg


# --- CLI ------------------------------------------------------------------------------------------


def test_cli_print_config(capsys):
    assert cli_main(["--print-config"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["variant"] == "WIN1"


def test_cli_record_line_and_plot(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["record-line", "--track", "oval", "--out", "line.json"]) == 0
    assert os.path.exists(tmp_path / "line.json")

    csv = tmp_path / "m.csv"
    csv.write_text("episode,steps,return,critic_loss_mean,actor_obj_mean,epsilon_prime,laps,damage\n"
                   "1,10,5.0,0.1,0.2,1.0,0,0.0\n2,12,6.0,0.1,0.2,0.9,0,0.0\n")
    assert cli_main(["plot", str(csv), "-o", str(tmp_path / "m.svg")]) == 0
    assert os.path.exists(tmp_path / "m.svg")


@pytest.mark.parametrize("name, text", [
    ("eval.csv", ex.EVAL_HEADER + "\n"),
    ("generalization.csv", ex.GENERALIZATION_HEADER + "\n10,oval,,3.5,0\n10,technical,,0.0,0\n"),
], ids=["header_only", "all_dnf"])
def test_cli_plot_reports_a_csv_with_nothing_to_plot(tmp_path, capsys, name, text):
    csv = tmp_path / name
    csv.write_text(text)
    svg = tmp_path / "out.svg"
    assert cli_main(["plot", str(csv), "-o", str(svg)]) == 1
    assert capsys.readouterr().err == f"nothing to plot in {csv}\n"
    assert not svg.exists()


def test_cli_tournament_prints_the_phase2_track(monkeypatch, capsys):
    row = ex.LeaderboardRow(variant="WIN1", blt=30.0, alt=31.0, avg_damage=0.0,
                            finish_rate=1.0, models=1)
    report = ex.TournamentReport([row], {"WIN": "WIN1"}, [row], [])
    monkeypatch.setattr(ex, "tournament", lambda *args, **kwargs: report)
    assert cli_main(["tournament", "--phase2-track", "fast_mixed"]) == 0
    out = capsys.readouterr().out
    assert "phase 2 (fast_mixed track):" in out and "technical" not in out


@pytest.mark.parametrize("argv, message", [
    (["tournament", "--variants", ""], "config variant must be one of .*, got ''"),
    (["ablate-at", "--track", ""], "config track must be one of .*, got ''"),
], ids=["tournament_variants", "ablate_at_track"])
def test_cli_refuses_an_empty_value_before_training(tmp_path, monkeypatch, argv, message):
    def train_run(*args, **kwargs):
        raise AssertionError("an empty value reached train_run")

    monkeypatch.setattr(ex, "train_run", train_run)
    cfg = tiny_config(tmp_path)
    cfg.save(str(tmp_path / "cfg.json"))
    with pytest.raises(ValueError, match=message):
        cli_main([*argv, "--config", str(tmp_path / "cfg.json")])
    assert not os.path.exists(cfg.output_dir)


@pytest.mark.parametrize("argv, message", [
    (["record-line", "--track", "oval", "--out", ""], "record-line --out must name a file, got ''"),
    (["eval", "--checkpoint", "latest.npz", "--track", "oval", "--racing-line", ""],
     "evaluate racing_line_file must name a file, got ''"),
], ids=["record_line_out", "eval_racing_line"])
def test_cli_refuses_an_empty_file_name_before_any_work(tmp_path, monkeypatch, argv, message):
    def work(*args, **kwargs):
        raise AssertionError("an empty file name reached the work")

    monkeypatch.setattr(cli, "record_reference_line", work)
    monkeypatch.setattr(DDPGAgent, "load", work)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=re.escape(message)):
        cli_main(argv)
    assert os.listdir(tmp_path) == []


def test_cli_baseline_prints_the_bot_lap(capsys):
    assert cli_main(["baseline", "--track", "oval"]) == 0
    best, stats = bot_lap_time(tracks.get_track("oval"), laps=3)
    assert capsys.readouterr().out == f"oval: best lap {best:.3f}s damage={stats['damage']:.2f}\n"


def test_readme_cli_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [line for line in lines if line.startswith("racerl ")]
    assert len(commands) >= 9
    parser = build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])  # a stale flag exits the parser


def test_cli_train_eval_flow(tmp_path, capsys):
    cfg = tiny_config(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg.save(cfg_path)
    assert cli_main(["train", "--config", str(cfg_path), "--seed", "0"]) == 0
    run_dir = ex.run_dir_for(cfg, 0)
    assert cli_main(["eval", "--checkpoint", os.path.join(run_dir, "latest.npz"),
                     "--track", "oval", "--laps", "1"]) == 0
    out = capsys.readouterr().out
    assert "best_lap" in out
