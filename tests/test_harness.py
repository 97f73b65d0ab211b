import dataclasses
import json
import math
import os
import re
import shlex
import typing
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

from racerl import experiments as ex
from racerl import plotting, tracks
from racerl.agent import AgentConfig
from racerl.bot import BaselineBot, bot_lap_time, drive_bot, record_reference_line
from racerl.cli import build_parser
from racerl.cli import main as cli_main
from racerl.config import RULES, from_dict
from racerl.geometry import Polyline, RacingLine, Track, save_racing_line
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
    assert action.throttle > 0.0
    assert action.brake == 0.0


def test_bot_brakes_above_corner_speed():
    # approaching a kappa=0.05 corner too fast must brake
    track = tracks.get_track("technical")
    bot = BaselineBot(track)
    # place the car just before the first hairpin (straight ends at delta=200)
    state = CarState(position=track.centerline.point_at(150.0).copy(), heading=0.0, vx=40.0)
    action = bot.act(state, track.frame(state.position, state.heading))
    assert action.brake > 0.0
    assert action.throttle == 0.0


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
    with pytest.raises(ValueError, match="laps must be non-negative, got -1"):
        bot_lap_time(oval, laps=-1)


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
        a = act(self, state, axis_frame)
        a.steer = 0.0
        return a

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
    assert result.checkpoints


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


def test_generalization_eval_builds_each_track_once(tmp_path, monkeypatch):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 3
    result = ex.train_run(cfg, 0)
    assert len(result.checkpoints) == 3
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
             for ckpt in result.checkpoints for name in names]
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
])
def test_tournament_checks_its_arguments_before_training(tmp_path, monkeypatch, kw, message):
    calls = []
    monkeypatch.setattr(ex, "train_run", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=message):
        ex.tournament(tiny_config(tmp_path), **kw)
    assert calls == []


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
