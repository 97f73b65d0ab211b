import json
import math
import os

import numpy as np
import numpy.testing as npt
import pytest

from racerl import experiments as ex
from racerl import plotting, tracks
from racerl.bot import BaselineBot, bot_lap_time, drive_bot, record_reference_line
from racerl.cli import main as cli_main
from racerl.geometry import RacingLine
from racerl.simulator import CarParams, CarState, EnvSettings, RacingEnv


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
    action = bot.act(state)
    assert action.throttle > 0.0
    assert action.brake == 0.0


def test_bot_brakes_above_corner_speed():
    # approaching a kappa=0.05 corner too fast must brake
    track = tracks.get_track("technical")
    bot = BaselineBot(track)
    # place the car just before the first hairpin (straight ends at delta=200)
    state = CarState(position=track.centerline.point_at(150.0).copy(), heading=0.0, vx=40.0)
    action = bot.act(state)
    assert action.brake > 0.0
    assert action.throttle == 0.0


def test_bot_laps_oval_zero_damage(oval):
    best, stats = bot_lap_time(oval, laps=2)
    assert stats["damage"] == 0.0
    assert best > 0.0
    # deterministic: re-measuring gives the identical time
    best2, _ = bot_lap_time(oval, laps=2)
    assert best == best2


def test_record_reference_line_invariants(oval):
    line = record_reference_line(oval)
    assert np.all(line.alpha >= 0.0) and np.all(line.alpha <= 1.0)
    # recorded lap length within 1% of the centerline length (minus shortening)
    assert abs(line.world.length - oval.length) / oval.length < 0.01
    # LAC on a straight section of the recorded line is ~0
    lac = line.look_ahead_curvature(100.0)
    npt.assert_allclose(lac, np.zeros(4), atol=1e-3)


def test_record_line_failure_is_error(oval):
    # a bot that cannot steer fails the lap and the track is reported unusable
    class BrokenBot(BaselineBot):
        def act(self, state):
            a = super().act(state)
            a.steer = 0.0
            return a

    env = RacingEnv(tracks.get_track("technical"), settings=EnvSettings(max_steps=4000))
    stats = drive_bot(env, BrokenBot(tracks.get_track("technical")))
    assert stats["termination"] is not None and not stats["laps"]


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


def test_config_rc_requires_line_file():
    with pytest.raises(ValueError, match="racing-line"):
        ex.ExperimentConfig(reference="rc")
    with pytest.raises(ValueError, match="seed"):
        ex.ExperimentConfig(seeds=[])


# --- training runs ---------------------------------------------------------------------


def test_train_one_episode_metrics_row(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 1
    result = ex.train_run(cfg, 0)
    lines = open(os.path.join(result.run_dir, "metrics.csv")).read().splitlines()
    assert lines[0] == ex.METRICS_HEADER
    assert len(lines) == 2  # header + exactly one row


def test_train_determinism_byte_identical(tmp_path):
    cfg = tiny_config(tmp_path)
    r1 = ex.train_run(cfg, 0, run_dir=str(tmp_path / "a"))
    r2 = ex.train_run(cfg, 0, run_dir=str(tmp_path / "b"))
    for name in ("metrics.csv", "eval.csv"):
        b1 = open(os.path.join(r1.run_dir, name), "rb").read()
        b2 = open(os.path.join(r2.run_dir, name), "rb").read()
        assert b1 == b2


def test_train_run_directory_contents(tmp_path):
    cfg = tiny_config(tmp_path)
    result = ex.train_run(cfg, 0)
    for name in ("config.json", "runinfo.json", "metrics.csv", "eval.csv",
                 "best.npz", "latest.npz"):
        assert os.path.exists(os.path.join(result.run_dir, name)), name
    info = json.load(open(os.path.join(result.run_dir, "runinfo.json")))
    assert info["version"].startswith("racerl-")
    assert info["seed"] == 0
    assert result.checkpoints


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
    lines = open(report["series_csv"]).read().splitlines()
    assert lines[0] == ex.GENERALIZATION_HEADER
    assert len(lines) >= 2
    assert report["training_track"] == "oval"
    # a 2-episode model will not finish: explicit no-general-model report
    if report["general_model"] is None:
        assert "no checkpoint finished" in report["note"]


# --- tournament (tiny budget) ----------------------------------------------------------------


def test_tournament_tiny(tmp_path):
    cfg = tiny_config(tmp_path)
    report = ex.tournament(cfg, variants=["WIN1", "WIN4"], phase2_track=None,
                           report_path=str(tmp_path / "report.json"))
    assert {r.variant for r in report.phase1} == {"WIN1", "WIN4"}
    assert os.path.exists(tmp_path / "report.json")
    doc = json.load(open(tmp_path / "report.json"))
    assert "phase1" in doc and "winners" in doc


# --- AT ablation ------------------------------------------------------------------------------


def test_ablation_at_smoke(tmp_path):
    cfg = tiny_config(tmp_path)
    cfg.train.episodes = 4
    cfg.env.max_steps = 25
    report = ex.ablation_at(cfg, seeds=[0, 1], final_window=2)
    assert report.seeds == 2
    assert 0 <= report.at_wins <= 2
    assert os.path.exists(report.curves_csv)
    lines = open(report.curves_csv).read().splitlines()
    assert lines[0] == "episode,at_smoothed,plain_smoothed"
    # twin arms share everything except the termination-target flag
    at_cfg = json.load(open(tmp_path / "runs" / "ablation_at" / "at" / "seed0" / "config.json"))
    plain_cfg = json.load(open(tmp_path / "runs" / "ablation_at" / "plain" / "seed0" / "config.json"))
    assert at_cfg["agent"]["adopted_target"] is True
    assert plain_cfg["agent"]["adopted_target"] is False
    at_cfg["agent"]["adopted_target"] = plain_cfg["agent"]["adopted_target"]
    assert at_cfg == plain_cfg


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
    svg = open(out2).read()
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
