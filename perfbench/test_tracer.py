"""Tests of the tracer and of the probes it installs on racerl.

    python3 -m pytest perfbench
"""

import itertools

import numpy as np
import pytest

from racerl import bot, experiments, geometry, nn, simulator, tracks

from probes import Probes
from tracer import Tracer, layer_self_times, self_times


def test_self_times_of_a_synthetic_tree():
    spans = [
        ["bench.unit", 0.0, 10.0, -1],
        ["simulator.step", 1.0, 4.0, 0],
        ["geometry.project", 2.0, 3.0, 1],
        ["simulator.step", 5.0, 9.0, 0],
        ["geometry.project", 5.5, 6.0, 3],
        ["geometry.project", 7.0, 8.5, 3],
    ]
    assert np.allclose(self_times(spans), [3.0, 2.0, 1.0, 2.0, 0.5, 1.5])
    assert layer_self_times(spans) == pytest.approx(
        {"bench": 3.0, "simulator": 4.0, "geometry": 3.0})
    # self times always add back up to the root's duration
    assert sum(self_times(spans)) == pytest.approx(10.0)


class Box:
    def double(self, x):
        return 2 * x

    def fails(self):
        raise ValueError("boom")


def test_wrapped_calls_nest_and_are_restored():
    clock = itertools.count(0.0, 1.0).__next__
    original = vars(Box)["double"]
    with Tracer(clock) as tracer:
        tracer.wrap(Box, "double", "box.double", key=lambda self, x: x)
        tracer.wrap(Box, "fails", "box.fails")
        with tracer.span("bench.unit"):
            assert Box().double(3) == 6
            with pytest.raises(ValueError):
                Box().fails()
    assert vars(Box)["double"] is original
    assert tracer.spans == [
        ["bench.unit", 0.0, 5.0, -1],
        ["box.double.3", 1.0, 2.0, 0],
        ["box.fails", 3.0, 4.0, 0],
    ]


def test_probes_restore_every_original_after_a_traced_run(tmp_path):
    before = {
        "Polyline.project": geometry.Polyline.project,
        "nn.soft_update": nn.soft_update,
        "experiments.run_eval_episode": experiments.run_eval_episode,
        "tracks.get_track": tracks.get_track,
    }
    tracer, probes = Tracer(), Probes()
    probes.install(tracer)
    patched = list(tracer._patches)
    assert geometry.Polyline.project is not before["Polyline.project"]
    with tracer, tracer.span("bench.unit"):
        track = tracks.get_track("oval")
        bot.drive_bot(simulator.RacingEnv(track), bot.BaselineBot(track), max_steps=3)
        cfg = experiments.ExperimentConfig(output_dir=str(tmp_path), variant="PER40k")
        cfg.train.episodes = 2
        cfg.train.eval_every = 2
        cfg.train.warmup_steps = 3
        cfg.env.max_steps = 5
        experiments.train_run(cfg, 0, run_dir=str(tmp_path / "run"))
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, (owner, attr)
    assert before == {
        "Polyline.project": geometry.Polyline.project,
        "nn.soft_update": nn.soft_update,
        "experiments.run_eval_episode": experiments.run_eval_episode,
        "tracks.get_track": tracks.get_track,
    }
    names = {s[0] for s in tracer.spans}
    assert {"bot.act", "agent.train_step.PER40k", "replay.update_priority",
            "nn.soft_update", "experiments.eval_episode", "tracks.get_track.oval"} <= names
    assert probes.terminations["max_steps"] >= 2
    # the root's duration is exactly the sum of all self times under it
    root = tracer.spans[0]
    assert sum(self_times(tracer.spans)) == pytest.approx(root[2] - root[1])
