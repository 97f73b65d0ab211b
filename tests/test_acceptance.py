"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two empirical criteria
(learning capability, adopted-target ablation) train real agents on the CPU
and dominate the runtime; everything else is seconds.
"""

import dataclasses
import math
import os
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from racerl import experiments as ex
from racerl import nn, tracks
from racerl.agent import (
    AgentSettings,
    DDPGAgent,
    ExplorationConfig,
    Explorer,
    OUParams,
    td_target,
)
from racerl.bot import bot_lap_time
from racerl.geometry import Polyline, RacingLine, Track
from racerl.replay import TERMINATION_CODES as CODE
from racerl.replay import PERConfig, PrioritizedReplayBuffer, SumTree, Transition, priority_from
from racerl.simulator import CarParams, Termination, progress_reward
from oracles import check_network_gradients, empirical_frequencies

_artifacts = {}


def report(criterion, detail):
    print(f"\n[criterion {criterion}] PASS - {detail}")


# -----------------------------------------------------------------------------
# 1. gradient correctness


def test_criterion_1_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    shapes_checked = 0

    def gradcheck(net, forward_backward):
        nonlocal worst, shapes_checked
        worst = max(worst, check_network_gradients(net.parameters(), forward_backward))
        shapes_checked += 1

    for _ in range(8):  # 8 actor shapes
        in_dim = int(rng.integers(3, 8))
        hidden = tuple(int(rng.integers(3, 7)) for _ in range(int(rng.integers(1, 3))))
        actor = nn.build_actor(in_dim, hidden, rng=rng)
        x = rng.normal(size=(2, in_dim)) + 0.1
        g = rng.normal(size=(2, 3))

        def fb(actor=actor, x=x, g=g):
            y, cache = actor.forward(x)
            grads = actor.backward(cache, g)
            return float(np.sum(g * y)), grads

        gradcheck(actor, fb)

    for _ in range(8):  # 8 feed-forward critic shapes
        sd = int(rng.integers(3, 9))
        hidden = int(rng.integers(3, 8))
        critic = nn.build_critic(sd, hidden=hidden, rng=rng)
        s = rng.normal(size=(2, sd)) + 0.1
        a = rng.normal(size=(2, 3))
        g = rng.normal(size=2)

        def fb(critic=critic, s=s, a=a, g=g):
            q, cache = critic.forward(s, a[:, None, :])
            grads = critic.backward(cache, g)
            return float(np.sum(g * q)), grads

        gradcheck(critic, fb)

    for _ in range(4):  # 4 LSTM critics unrolled over w=4
        sd = int(rng.integers(3, 7))
        hidden = int(rng.integers(3, 6))
        critic = nn.build_lstm_critic(sd, hidden=hidden, rng=rng)
        s = rng.normal(size=(2, 4, sd))
        a = rng.normal(size=(2, 4, 3))
        g = rng.normal(size=2)

        def fb(critic=critic, s=s, a=a, g=g):
            q, cache = critic.forward(s, a)
            grads = critic.backward(cache, g)
            return float(np.sum(g * q)), grads

        gradcheck(critic, fb)

    elapsed = time.time() - t0
    assert shapes_checked == 20
    assert worst < 1e-4
    assert elapsed < 60.0
    report(1, f"20 shapes, max relative error {worst:.2e} vs finite differences, "
              f"{elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 2. target-equation oracle


def _pinned_q_agent(variant, q_value, gamma):
    """Agent whose target critic outputs exactly q_value everywhere."""
    agent = DDPGAgent(
        ex.ExperimentConfig(variant=variant, agent=AgentSettings(gamma=gamma, hidden=8)), seed=0)
    for p in agent.target_critic.parameters():
        p[...] = 0.0
    agent.target_critic.parameters()[-1][...] = q_value  # final bias
    return agent


def _push_chain(agent, rewards, terminal=None):
    obs = agent.obs_dim
    for i, r in enumerate(rewards):
        agent.buffer.push(Transition(
            state=np.full(obs, 0.1 * i), action=np.array([0.0, 0.5, 0.0]),
            reward=float(r), next_state=np.full(obs, 0.1 * (i + 1)),
            termination=terminal if i == len(rewards) - 1 else None,
            episode=0, step=i,
        ))


def test_criterion_2_target_equation_table():
    checked = 0

    # one-step targets through the real agent path, Q' pinned to 2.0
    agent = _pinned_q_agent("WIN1", 2.0, gamma=0.99)
    rows = [
        (0.5, None, 0.5 + 0.99 * 2.0),                       # normal step, Eq. 2
        (1.0, Termination.MAX_STEPS, 1.0 + 0.99 * 2.0),      # AT rule: 2.98
        (-1.0, Termination.OUT_OF_TRACK, -1.0),              # premature: y = r
        (-1.0, Termination.BACKWARDS, -1.0),
        (0.3, Termination.SLOW_PROGRESS, 0.3),
        (-2.5, None, -2.5 + 0.99 * 2.0),
    ]
    for r, term, expected in rows:
        _push_chain(agent, [r], terminal=term)
    y = agent.compute_targets(list(range(len(rows))))
    for (r, term, expected), got in zip(rows, y):
        assert abs(got - expected) < 1e-12, (r, term, expected, got)
        checked += 1

    # multi-step targets, Q' pinned to 4.0, gamma = 0.5
    ms2 = _pinned_q_agent("MS2", 4.0, gamma=0.5)
    _push_chain(ms2, [1.0, 1.0, 1.0])
    got = ms2.compute_targets([0])[0]
    assert abs(got - 2.5) < 1e-12  # 1 + 0.5 + 0.25*4 (Eq. 4 hand value)
    checked += 1

    ms3 = _pinned_q_agent("MS3", 4.0, gamma=0.5)
    _push_chain(ms3, [1.0, 2.0, 3.0, 0.0])
    got = ms3.compute_targets([0])[0]
    assert abs(got - (1.0 + 0.5 * 2.0 + 0.25 * 3.0 + 0.125 * 4.0)) < 1e-12
    checked += 1

    # n-step truncated by a premature terminal: bootstrap suppressed
    ms4 = _pinned_q_agent("MS4", 4.0, gamma=0.5)
    _push_chain(ms4, [1.0, 1.0], terminal=Termination.OUT_OF_TRACK)
    got = ms4.compute_targets([0])[0]
    assert abs(got - 1.5) < 1e-12  # r0 + gamma*r1, no bootstrap
    checked += 1

    # n-step ending exactly on a max_steps terminal: gamma^m bootstrap kept
    ms2b = _pinned_q_agent("MS2", 4.0, gamma=0.5)
    _push_chain(ms2b, [1.0, 1.0], terminal=Termination.MAX_STEPS)
    got = ms2b.compute_targets([0])[0]
    assert abs(got - 2.5) < 1e-12
    checked += 1

    # LSTM critic path with pinned head bias
    lstm = _pinned_q_agent("LSTM4", 3.0, gamma=0.9)
    _push_chain(lstm, [2.0, 1.0, 0.5, 0.25])
    got = lstm.compute_targets([2])[0]
    assert abs(got - (0.5 + 0.9 * 3.0)) < 1e-12
    checked += 1

    # pure-formula rows (Eq. 2 / Eq. 4 arithmetic)
    assert abs(td_target(-1.0, 1, 5.0, 0.99, CODE[Termination.OUT_OF_TRACK]) - (-1.0)) < 1e-12
    assert abs(td_target(1.0, 1, 2.0, 0.99, CODE[Termination.MAX_STEPS]) - 2.98) < 1e-12
    assert abs(td_target(1.5, 2, 4.0, 0.5, CODE[None]) - 2.5) < 1e-12
    checked += 3

    assert checked >= 12
    report(2, f"{checked} constructed transitions match hand targets to 1e-12")


# -----------------------------------------------------------------------------
# 3. AT-rule identity


def test_criterion_3_at_rule_identity():
    rng = np.random.default_rng(7)
    agent = DDPGAgent(ex.ExperimentConfig(agent=AgentSettings(hidden=8)), seed=1)
    obs = agent.obs_dim
    s_next = rng.normal(size=(1, obs))
    q_boot = float(agent.target_critic(s_next, agent.target_actor(s_next)[:, None, :])[0])
    gamma = agent.config.agent.gamma

    # at r = 0 the identity holds bit for bit
    at0 = td_target(0.0, 1, q_boot, gamma, CODE[Termination.MAX_STEPS], adopted_target=True)
    plain0 = td_target(0.0, 1, q_boot, gamma, CODE[Termination.MAX_STEPS], adopted_target=False)
    assert at0 - plain0 == gamma * q_boot

    # nonzero rewards reintroduce one float rounding in (r + g*q) - r
    for r in (-1.0, 2.375):
        at = td_target(r, 1, q_boot, gamma, CODE[Termination.MAX_STEPS], adopted_target=True)
        plain = td_target(r, 1, q_boot, gamma, CODE[Termination.MAX_STEPS], adopted_target=False)
        assert math.isclose(at - plain, gamma * q_boot, rel_tol=1e-9, abs_tol=1e-15)
    report(3, f"AT minus premature-rule target equals gamma*Q'(s',mu'(s')) "
              f"(gamma*Q' = {gamma * q_boot:.6g}; bitwise at r=0)")


# -----------------------------------------------------------------------------
# 4. PER distribution + sum-tree consistency


def test_criterion_4_per_distribution_and_tree():
    t0 = time.time()
    alpha = 0.7
    cfg = PERConfig(alpha=alpha, lam3=0.0, epsilon=1e-12)
    buf = PrioritizedReplayBuffer(16, cfg)
    rng_fill = np.random.default_rng(0)
    raw = np.arange(1.0, 17.0)  # fixed 16-leaf priority vector
    for i in range(16):
        buf.push(Transition(np.array([float(i)]), np.zeros(3), 0.0,
                            np.array([0.0]), None, 0, i))
    # choose delta so the raw priority equals p exactly aside from epsilon
    buf.update_priority(np.arange(16), np.sqrt(raw), np.zeros(16))

    expected = raw ** alpha / np.sum(raw ** alpha)
    rng = np.random.default_rng(99)
    draws = []
    for _ in range(1000):
        draws.extend(buf.sample(100, rng))
    freqs = empirical_frequencies(draws, 16)
    max_abs = float(np.max(np.abs(freqs - expected)))
    assert max_abs < 0.01

    tree = SumTree(64)
    op_rng = np.random.default_rng(5)
    for _ in range(10_000):
        tree.update(int(op_rng.integers(0, 64)), float(op_rng.uniform(0.0, 100.0)))
    err = tree.consistency_error()
    assert err < 1e-9
    elapsed = time.time() - t0
    assert elapsed < 60.0
    report(4, f"1e5 draws within {max_abs:.4f} abs of p^a/sum; tree error {err:.1e} "
              f"after 1e4 ops; {elapsed:.1f}s")


# -----------------------------------------------------------------------------
# 5. priority formula


def test_criterion_5_priority_formula():
    cfg = PERConfig(alpha=0.7, lam3=0.1, epsilon=1e-3)
    p = priority_from(2.0, 5.0, cfg)
    assert p == 2.0 ** 2 + 0.1 * 5.0 + 1e-3  # identical arithmetic
    assert abs(p - 4.501) < 1e-12
    assert priority_from(0.0, 0.0, cfg) == 1e-3
    report(5, f"p(delta=2, grad2=5) = {p!r} (= 4.501); floor = epsilon")


# -----------------------------------------------------------------------------
# 6. reward oracle


def test_criterion_6_reward_table():
    cases = [
        (10.0, 0.0, 0.0, 10.0),
        (10.0, math.pi / 2.0, 0.0, -10.0),
        (10.0, math.pi / 4.0, 0.5, -5.0),
        (0.0, 0.7, 0.3, 0.0),
        (20.0, 0.0, 1.0, 0.0),
        (20.0, 0.0, 0.5, 10.0),
        (5.0, -math.pi / 4.0, 0.0, 0.0),
        (10.0, math.pi, 0.0, -10.0),
        (8.0, 0.0, 0.25, 6.0),
        (12.0, math.pi / 6.0, 0.1, 12.0 * (math.cos(math.pi / 6.0) - 0.5 - 0.1)),
    ]
    for vx, theta, tp, expected in cases:
        got = progress_reward(vx, theta, tp)
        assert got == pytest.approx(expected, abs=1e-12), (vx, theta, tp)
    # damage term
    assert progress_reward(10.0, 0.0, 0.0, damage_increment=100.0) == pytest.approx(9.0, abs=1e-12)
    report(6, f"{len(cases)}-case reward table exact (plus damage term)")


# -----------------------------------------------------------------------------
# 7. geometry


def test_criterion_7_geometry():
    # circle curvature at several densities
    for n in (350, 1200):
        ang = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
        circle = Polyline(np.column_stack([50.0 * np.cos(ang), 50.0 * np.sin(ang)]))
        for s in (0.0, 80.0, 200.0):
            assert abs(circle.curvatures(s) - 0.02) < 1e-6

    # rangefinder symmetry on a straight
    segs = [("s", 200.0), ("l", 40.0, math.pi), ("s", 200.0), ("l", 40.0, math.pi)]
    track = Track(tracks.build_centerline(segs, 1.0), width=10.0, name="t")
    r = track.rangefinders(track.centerline.point_at(100.0), 0.0)
    sym = max(abs(r[i] - r[18 - i]) for i in range(19))
    assert sym < 1e-9

    # grip formula hand value
    assert abs(CarParams(mu_grip=1.0).corner_speed(0.1, 0.0) - 9.9045) < 1e-3

    # LAC on a constant-curvature line is exact
    ang = np.linspace(0.0, 2.0 * math.pi, 700, endpoint=False)
    circle_track = Track(np.column_stack([100.0 * np.cos(ang), 100.0 * np.sin(ang)]),
                         width=10.0, name="circle")
    line = RacingLine.middle_of_track(circle_track)
    lac = line.look_ahead_curvature(123.0)
    npt.assert_allclose(lac, np.full(4, 0.01), atol=1e-9)
    report(7, f"circle kappa exact to 1e-6; rangefinder symmetry {sym:.1e}; "
              f"corner_speed 9.9045; LAC constant-line exact")


# -----------------------------------------------------------------------------
# 8. brake exploration


def test_criterion_8_brake_exploration():
    det = np.array([0.0, 0.5, 0.5])
    n = 10_000
    explorer = Explorer(seed=3)
    both = sum((a[1] > 0.5) and (a[2] > 0.5)
               for a in (explorer.explore(det) for _ in range(n)))
    frac_scheme = both / n

    sym = ExplorationConfig(burst_prob=0.0,
                            throttle=OUParams(0.15, 0.2, 0.0),
                            brake=OUParams(0.15, 0.2, 0.0))
    explorer2 = Explorer(sym, seed=3)
    both2 = sum((a[1] > 0.5) and (a[2] > 0.5)
                for a in (explorer2.explore(det) for _ in range(n)))
    frac_plain = both2 / n
    assert frac_scheme < 0.05
    assert frac_plain > 0.20

    # eps' = 0: act_explore equals act bit for bit
    agent = DDPGAgent(ex.ExperimentConfig(agent=AgentSettings(hidden=8)), seed=5)
    agent.explorer.steps = agent.explorer.config.horizon
    rng = np.random.default_rng(1)
    for _ in range(100):
        obs = rng.normal(size=(1, agent.obs_dim)) * 0.3
        assert agent.act(obs).tobytes() == agent.act_explore(obs).tobytes()
    report(8, f"both-pedals fraction {frac_scheme:.1%} (scheme) vs {frac_plain:.1%} "
              f"(plain); eps'=0 bit-exact over 100 states")


# -----------------------------------------------------------------------------
# 9. learning capability (Study 1 part 1 analog)


def _learning_config(tmpdir):
    cfg = ex.ExperimentConfig(output_dir=str(tmpdir))
    cfg.train.episodes = 500
    cfg.train.eval_every = 10
    cfg.train.checkpoint_every = 100
    cfg.train.warmup_steps = 2500
    cfg.train.updates_per_step = 3
    cfg.train.stop_on_success = True
    cfg.env.max_steps = 400
    cfg.exploration = ExplorationConfig(horizon=15_000)
    return cfg


def test_criterion_9_learning_capability(tmp_path_factory):
    out = tmp_path_factory.mktemp("learn")
    bot_best, bot_stats = bot_lap_time(tracks.get_track("oval"), laps=3)
    assert bot_stats["damage"] == 0.0

    seeds = (0, 1, 2)
    successes = []
    flying_bests = []
    per_seed = []
    for seed in seeds:
        cfg = _learning_config(out)
        t0 = time.time()
        result = ex.train_run(cfg, seed)
        wall = time.time() - t0
        assert wall < 1800.0, f"seed {seed} exceeded the 30 min budget"
        ckpt = os.path.join(result.run_dir, "best.npz")
        flying = None
        if result.success_episode is not None:
            successes.append(seed)
            res = ex.evaluate(ckpt, "oval", laps=3)[0]
            if res.finished and res.damage == 0.0:
                flying = res.best_lap_time
                flying_bests.append(flying)
        per_seed.append((seed, result.success_episode, flying, wall))
        _artifacts.setdefault("oval_runs", []).append(result.run_dir)

    detail = "; ".join(
        f"seed {s}: zero-damage lap at ep {e if e else 'never'}"
        + (f", best flying {f:.2f}s" if f else "")
        + f" ({w:.0f}s wall)"
        for s, e, f, w in per_seed
    )
    assert len(successes) >= 2, detail
    best_learned = min(flying_bests)
    assert best_learned < bot_best, (best_learned, bot_best)
    _artifacts["bot_best"] = bot_best
    _artifacts["best_learned"] = best_learned
    report(9, f"{len(successes)}/3 seeds reached a zero-damage lap; best learned "
              f"{best_learned:.2f}s beats bot {bot_best:.2f}s. {detail}")


# -----------------------------------------------------------------------------
# 10. AT ablation (soft criterion)


def test_criterion_10_at_ablation(tmp_path_factory):
    out = tmp_path_factory.mktemp("ablate")
    cfg = ex.ExperimentConfig(output_dir=str(out))
    cfg.train.episodes = 300
    cfg.train.eval_every = 10_000  # no mid-run evals needed
    cfg.train.checkpoint_every = 10_000
    cfg.train.warmup_steps = 300
    cfg.train.updates_per_step = 2
    cfg.train.spread_starts = True  # single-corner-style drills around the lap
    cfg.env.max_steps = 12          # the step cap dominates terminations
    cfg.exploration = ExplorationConfig(horizon=2500)
    report_obj = ex.ablation_at(cfg, seeds=[0, 1, 2, 3, 4], final_window=50)

    lines = [
        f"seed {r['seed']}: AT {r['at_mean']:.1f} vs y=r {r['plain_mean']:.1f}"
        f" -> {'AT' if r['at_wins'] else 'y=r'}"
        for r in report_obj.per_seed
    ]
    assert os.path.exists(report_obj.curves_csv)
    assert report_obj.at_wins >= 3, "; ".join(lines)
    report(10, f"AT arm wins {report_obj.at_wins}/5 paired seeds. " + "; ".join(lines))


# -----------------------------------------------------------------------------
# 11. generalization pipeline


def test_criterion_11_generalization_rule_and_report():
    # synthetic checkpoint-result fixture: the rule must pick exactly the
    # checkpoint that finishes everywhere with the best training-track lap
    entries = [
        {"checkpoint": "ck_050", "episode": 50, "laps": {"technical": 75.0, "oval": 40.0, "fast_mixed": 90.0}},
        {"checkpoint": "ck_100", "episode": 100, "laps": {"technical": 70.0, "oval": 38.0, "fast_mixed": 88.0}},
        {"checkpoint": "ck_150", "episode": 150, "laps": {"technical": 65.0, "oval": None, "fast_mixed": 85.0}},
        {"checkpoint": "ck_200", "episode": 200, "laps": {"technical": 70.0, "oval": 39.0, "fast_mixed": 86.0}},
    ]
    chosen = ex.select_general_model(entries, "technical")
    assert chosen["checkpoint"] == "ck_100"  # ck_150 is faster but DNFs a track
    # tie on the training track goes to the earlier checkpoint
    assert ex.select_general_model(entries[1:], "technical")["checkpoint"] == "ck_100"
    # nothing finishing everywhere -> explicit no-model answer
    assert ex.select_general_model([entries[2]], "technical") is None

    note = "fixture rule exact"
    # reported, not hard-asserted: OVAL-trained models are expected to DNF on
    # TECHNICAL (no braking was ever needed during their training)
    runs = _artifacts.get("oval_runs", [])
    if runs:
        ckpt = os.path.join(runs[0], "best.npz")
        res = ex.evaluate(ckpt, "technical", laps=1)[0]
        note += (f"; oval-trained model on technical: {res.status} "
                 f"(expected DNF; recorded, not asserted)")
    else:
        note += "; real-run report skipped (no criterion-9 artifacts)"
    report(11, note)


# -----------------------------------------------------------------------------
# 12. determinism


def test_criterion_12_determinism(tmp_path):
    cfg = ex.ExperimentConfig(output_dir=str(tmp_path))
    cfg.train.episodes = 4
    cfg.train.eval_every = 2
    cfg.train.checkpoint_every = 4
    cfg.train.warmup_steps = 30
    cfg.env.max_steps = 50
    r1 = ex.train_run(cfg, 7, run_dir=str(tmp_path / "a"))
    r2 = ex.train_run(cfg, 7, run_dir=str(tmp_path / "b"))
    for name in ("metrics.csv", "eval.csv"):
        b1 = Path(os.path.join(r1.run_dir, name)).read_bytes()
        b2 = Path(os.path.join(r2.run_dir, name)).read_bytes()
        assert b1 == b2, f"{name} differs between same-seed runs"

    ckpt = os.path.join(r1.run_dir, "latest.npz")
    e1 = ex.evaluate(ckpt, "oval", laps=1)[0]
    e2 = ex.evaluate(ckpt, "oval", laps=1)[0]
    assert (e1.return_, e1.steps, e1.damage, e1.best_lap_time) == \
        (e2.return_, e2.steps, e2.damage, e2.best_lap_time)
    report(12, "same-seed train runs byte-identical; repeated eval identical")
