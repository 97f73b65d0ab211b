"""Experiment orchestration: training runs, evaluation, the tournament,
generalization to unseen tracks, and the termination-target ablation.

Every run writes a self-contained directory (config, run info, metrics CSV,
eval CSV, checkpoints) from which every plot and leaderboard can be
regenerated. Runs repeated with the same seed produce byte-identical
metrics files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, tracks
from .agent import (
    VARIANTS,
    AgentConfig,
    DDPGAgent,
    ExplorationConfig,
    ObservationWindow,
)
from .bot import bot_lap_time, record_reference_line
from .config import from_dict
from .geometry import RacingLine, load_racing_line, save_racing_line
from .nn import NumericError
from .plotting import moving_average
from .replay import Transition
from .simulator import CarParams, EnvSettings, RacingEnv, _fmt

REFERENCE_MODES = ("mot", "rc", "rc-lac")


@dataclass
class AgentSettings:
    gamma: float = 0.99
    tau: float = 1e-3
    batch_size: int = 32
    actor_lr: float = 1e-4
    critic_lr: float = 1e-3
    hidden: int = 64
    adopted_target: bool = True


@dataclass
class TrainSettings:
    episodes: int = 500
    eval_every: int = 10
    checkpoint_every: int = 50
    warmup_steps: int = 1000
    train_every: int = 1
    updates_per_step: int = 1          # gradient steps per environment step
    spread_starts: bool = False        # deterministic per-episode start positions
    stop_on_success: bool = False      # stop once an eval lap completes with 0 damage
    success_lap_time: float | None = None  # and, when set, beats this lap time


@dataclass
class ExperimentConfig:
    """Declarative description of one training experiment."""

    track: str = "oval"
    variant: str = "WIN1"
    reference: str = "mot"
    racing_line_file: str | None = None
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    output_dir: str = "runs"
    env: EnvSettings = field(default_factory=EnvSettings)
    agent: AgentSettings = field(default_factory=AgentSettings)
    train: TrainSettings = field(default_factory=TrainSettings)
    car: CarParams = field(default_factory=CarParams)
    exploration: ExplorationConfig = field(default_factory=ExplorationConfig)

    def __post_init__(self):
        if self.reference not in REFERENCE_MODES:
            raise ValueError(f"reference must be one of {REFERENCE_MODES}")
        if self.reference != "mot" and not self.racing_line_file:
            raise ValueError("rc / rc-lac reference modes require a racing-line file")
        if not self.seeds:
            raise ValueError("need at least one seed")

    @property
    def lac_enabled(self):
        return self.reference == "rc-lac"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return from_dict(cls, json.load(fh))

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def default_config_json():
    return json.dumps(ExperimentConfig().to_dict(), indent=2, sort_keys=True)


# --- assembly -----------------------------------------------------------------


def build_reference(config, track):
    """Reference line per the configured mode (None lines mean MOT)."""
    if config.reference == "mot":
        return RacingLine.middle_of_track(track)
    return load_racing_line(config.racing_line_file, track)


def make_env(config, track=None, reference=None, max_steps=None):
    track = track if track is not None else tracks.get_track(config.track)
    reference = reference if reference is not None else build_reference(config, track)
    settings = config.env
    if max_steps is not None:
        settings = dataclasses.replace(settings, max_steps=max_steps)
    return RacingEnv(track, reference=reference, lac_enabled=config.lac_enabled,
                     params=config.car, settings=settings)


def make_agent(config, seed):
    agent_config = AgentConfig.from_variant(
        config.variant,
        lac_enabled=config.lac_enabled,
        exploration=config.exploration,
        **asdict(config.agent),
    )
    return DDPGAgent(agent_config, seed=seed)


# --- results -------------------------------------------------------------------


@dataclass
class EpisodeResult:
    """Outcome of one deterministic evaluation episode."""

    lap_times: list
    best_lap_time: float | None
    damage: float
    termination: str
    return_: float
    steps: int

    @property
    def finished(self):
        return self.best_lap_time is not None

    @property
    def status(self):
        return "finished" if self.finished else "DNF"


def run_eval_episode(agent, env, laps=3):
    """Deterministic rollout until `laps` laps, termination, or the step cap."""
    obs = env.reset()
    window = ObservationWindow(agent.config.window, agent.config.obs_dim)
    window.reset(obs.vector())
    total = 0.0
    lap_times = []
    termination = None
    while True:
        action = agent.act(window.array())
        result = env.step(action)
        total += result.reward
        window.push(result.observation.vector())
        if result.info.lap_completed:
            lap_times.append(result.info.lap_time)
            if len(lap_times) >= laps:
                break
        if result.termination:
            termination = result.termination.value
            break
    return EpisodeResult(
        lap_times=lap_times,
        best_lap_time=min(lap_times) if lap_times else None,
        damage=env.state.damage,
        termination=termination or "none",
        return_=total,
        steps=env.tracker.steps,
    )


def evaluate(checkpoint, track_name, reference="mot", laps=3, racing_line_file=None,
             runs=1, config=None):
    """Evaluate a checkpoint (path or agent) with deterministic rollouts.

    Damage is reported per run; a run with no completed lap is an explicit
    DNF result, not an error.
    """
    agent = checkpoint if isinstance(checkpoint, DDPGAgent) else DDPGAgent.load(checkpoint)
    cfg = config if config is not None else ExperimentConfig()
    cfg = dataclasses.replace(cfg, track=track_name, reference=reference,
                              racing_line_file=racing_line_file)
    track = tracks.get_track(track_name)
    reference_line = build_reference(cfg, track)
    out = []
    for _ in range(runs):
        max_steps = eval_step_cap(track, laps, cfg.env.dt)
        env = make_env(cfg, track=track, reference=reference_line, max_steps=max_steps)
        out.append(run_eval_episode(agent, env, laps=laps))
    return out


def eval_step_cap(track, laps, dt):
    # generous cap: finishing each lap slower than 6 m/s average counts as DNF
    return int(laps * track.length / 6.0 / dt) + 300


# --- training ------------------------------------------------------------------

METRICS_HEADER = "episode,steps,return,critic_loss_mean,actor_obj_mean,epsilon_prime,laps,damage"
EVAL_HEADER = "episode,return,steps,laps,best_lap_time,damage,termination"


@dataclass
class TrainRunResult:
    run_dir: str
    episodes_run: int
    failed: bool
    success_episode: int | None
    best_eval: EpisodeResult | None
    checkpoints: list


def run_dir_for(config, seed):
    tag = f"{config.variant}_{config.track}_{config.reference}"
    return os.path.join(config.output_dir, tag, f"seed{seed}")


def train_run(config, seed, run_dir=None):
    """One full training run: exploration-annealed episodes, periodic
    deterministic evaluation, checkpointing, and CSV metrics."""
    run_dir = run_dir if run_dir is not None else run_dir_for(config, seed)
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    os.makedirs(ckpt_dir, exist_ok=True)
    config.save(os.path.join(run_dir, "config.json"))
    with open(os.path.join(run_dir, "runinfo.json"), "w") as fh:
        json.dump({"version": f"racerl-{__version__}", "seed": seed,
                   "variant": config.variant, "track": config.track,
                   "reference": config.reference}, fh, indent=2, sort_keys=True)
        fh.write("\n")

    track = tracks.get_track(config.track)
    reference = build_reference(config, track)
    env = make_env(config, track=track, reference=reference)
    agent = make_agent(config, seed)
    window = ObservationWindow(agent.config.window, agent.config.obs_dim)
    t = config.train

    checkpoints = []
    failed = False
    success_episode = None
    best_eval = None
    best_score = None
    global_step = 0

    metrics_fh = open(os.path.join(run_dir, "metrics.csv"), "w")
    metrics_fh.write(METRICS_HEADER + "\n")
    eval_fh = open(os.path.join(run_dir, "eval.csv"), "w")
    eval_fh.write(EVAL_HEADER + "\n")

    def eval_now(episode):
        nonlocal best_eval, best_score, success_episode
        eval_env = make_env(config, track=track, reference=reference)
        res = run_eval_episode(agent, eval_env, laps=1)
        eval_fh.write(",".join(_fmt(v) for v in (
            episode, res.return_, res.steps, len(res.lap_times),
            res.best_lap_time, res.damage, res.termination)) + "\n")
        eval_fh.flush()
        score = (1, -res.best_lap_time) if res.finished else (0, res.return_)
        if best_score is None or score > best_score:
            best_score = score
            best_eval = res
            agent.save(os.path.join(run_dir, "best.npz"))
        if res.finished and res.damage == 0.0 and success_episode is None:
            target = t.success_lap_time
            if target is None or res.best_lap_time < target:
                success_episode = episode
        return res

    episodes_run = 0
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    try:
        for episode in range(1, t.episodes + 1):
            if t.spread_starts:
                # low-discrepancy start positions (single-corner-style drills)
                env.start_delta = (episode * golden % 1.0) * track.length
            obs = env.reset()
            vec = obs.vector()
            window.reset(vec)
            agent.explorer.reset_noise()
            ep_return = 0.0
            losses = []
            objs = []
            laps = 0
            while True:
                action = agent.act_explore(window.array())
                result = env.step(action)
                next_vec = result.observation.vector()
                agent.buffer.push(Transition(
                    state=vec, action=action.copy(), reward=result.reward,
                    next_state=next_vec, termination=result.termination,
                    episode=episode, step=env.tracker.steps - 1,
                ))
                window.push(next_vec)
                vec = next_vec
                ep_return += result.reward
                laps += int(result.info.lap_completed)
                global_step += 1
                if global_step > t.warmup_steps and global_step % t.train_every == 0:
                    try:
                        for _ in range(t.updates_per_step):
                            m = agent.train_step()
                            losses.append(m.critic_loss)
                            objs.append(m.actor_objective)
                    except NumericError as err:
                        with open(os.path.join(run_dir, "FAILED"), "w") as fh:
                            fh.write(f"episode {episode}: {err}\n")
                        failed = True
                        break
                if result.termination:
                    break
            episodes_run = episode
            metrics_fh.write(",".join(_fmt(v) for v in (
                episode, env.tracker.steps, ep_return,
                float(np.mean(losses)) if losses else 0.0,
                float(np.mean(objs)) if objs else 0.0,
                agent.explorer.eps_prime, laps, env.state.damage)) + "\n")
            metrics_fh.flush()
            if failed:
                break
            if episode % t.eval_every == 0:
                eval_now(episode)
            if episode % t.checkpoint_every == 0:
                path = os.path.join(ckpt_dir, f"ckpt_{episode:06d}.npz")
                agent.save(path)
                checkpoints.append(path)
            if t.stop_on_success and success_episode is not None:
                break
    finally:
        metrics_fh.close()
        eval_fh.close()

    agent.save(os.path.join(run_dir, "latest.npz"))
    return TrainRunResult(run_dir, episodes_run, failed, success_episode,
                          best_eval, checkpoints)


# --- leaderboard -----------------------------------------------------------------


@dataclass
class ModelSummary:
    variant: str
    seed: int
    best_lap: float | None
    damage: float

    @property
    def finished(self):
        return self.best_lap is not None


@dataclass
class LeaderboardRow:
    variant: str
    blt: float | None        # best lap over zero-damage models
    alt: float | None        # mean best lap over zero-damage models
    avg_damage: float | None  # over models that finished a lap
    finish_rate: float
    models: int


def build_leaderboard(summaries):
    """Table-style aggregation: bLT/aLT over zero-damage models only."""
    by_variant = {}
    for s in summaries:
        by_variant.setdefault(s.variant, []).append(s)
    rows = []
    for variant, group in by_variant.items():
        finished = [s for s in group if s.finished]
        zero = [s for s in finished if s.damage == 0.0]
        laps = [s.best_lap for s in zero]
        rows.append(LeaderboardRow(
            variant=variant,
            blt=min(laps) if laps else None,
            alt=float(np.mean(laps)) if laps else None,
            avg_damage=float(np.mean([s.damage for s in finished])) if finished else None,
            finish_rate=len(finished) / len(group),
            models=len(group),
        ))
    rows.sort(key=lambda r: (r.alt is None, r.alt if r.alt is not None else 0.0,
                             -r.finish_rate))
    return rows


def variant_family(variant):
    for prefix in ("WIN", "MS", "PER", "LSTM"):
        if variant.startswith(prefix):
            return prefix
    raise ValueError(f"variant {variant!r} belongs to no family")


def select_family_winners(rows):
    """Per-family winner by average best lap-time (aLT)."""
    winners = {}
    for row in rows:
        if row.alt is None:
            continue
        fam = variant_family(row.variant)
        cur = winners.get(fam)
        if cur is None or row.alt < cur.alt:
            winners[fam] = row
    return {fam: row.variant for fam, row in winners.items()}


def leaderboard_to_rows(rows):
    return [dict(variant=r.variant, blt=r.blt, alt=r.alt, avg_damage=r.avg_damage,
                 finish_rate=r.finish_rate, models=r.models) for r in rows]


# --- tournament --------------------------------------------------------------------


@dataclass
class TournamentReport:
    phase1: list
    winners: dict
    phase2: list | None
    run_dirs: list


def summarize_run(config, seed, run_dir, eval_laps=3):
    """Evaluate a finished training run's best checkpoint on its own track."""
    ckpt = os.path.join(run_dir, "best.npz")
    if not os.path.exists(ckpt):
        ckpt = os.path.join(run_dir, "latest.npz")
    results = evaluate(ckpt, config.track, reference=config.reference,
                       racing_line_file=config.racing_line_file,
                       laps=eval_laps, config=config)
    res = results[0]
    return ModelSummary(config.variant, seed, res.best_lap_time, res.damage)


def tournament(config, variants=None, phase2_track="technical", report_path=None):
    """Study-1-style tournament.

    Phase 1 trains every variant on the configured (simple) track with the
    MOT reference and builds the leaderboard; per-family winners (by aLT)
    are then promoted to the technical track, trained with both MOT and a
    recorded racing line.
    """
    variants = variants if variants is not None else sorted(VARIANTS)
    run_dirs = []
    summaries = []
    for variant in variants:
        cfg = dataclasses.replace(config, variant=variant)
        for seed in config.seeds:
            result = train_run(cfg, seed)
            run_dirs.append(result.run_dir)
            summaries.append(summarize_run(cfg, seed, result.run_dir))
    phase1 = build_leaderboard(summaries)
    winners = select_family_winners(phase1)

    phase2 = None
    if winners and phase2_track:
        track2 = tracks.get_track(phase2_track)
        line_file = os.path.join(config.output_dir, f"{track2.name}_line.json")
        save_racing_line(record_reference_line(track2, params=config.car), line_file)
        phase2_summaries = []
        for variant in winners.values():
            for reference in ("mot", "rc"):
                cfg = dataclasses.replace(
                    config, variant=variant, track=phase2_track, reference=reference,
                    racing_line_file=line_file if reference != "mot" else None,
                )
                for seed in config.seeds:
                    result = train_run(cfg, seed)
                    run_dirs.append(result.run_dir)
                    s = summarize_run(cfg, seed, result.run_dir)
                    s.variant = f"{variant}-{reference}"
                    phase2_summaries.append(s)
        phase2 = build_leaderboard(phase2_summaries)

    report = TournamentReport(phase1, winners, phase2, run_dirs)
    if report_path:
        with open(report_path, "w") as fh:
            json.dump({
                "phase1": leaderboard_to_rows(phase1),
                "winners": winners,
                "phase2": leaderboard_to_rows(phase2) if phase2 else None,
                "run_dirs": run_dirs,
            }, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report


# --- generalization ------------------------------------------------------------------


def select_general_model(entries, training_track):
    """The checkpoint with the best training-track lap among those finishing
    every track; ties go to the earlier checkpoint. None when no checkpoint
    finishes everywhere."""
    best = None
    for entry in entries:
        laps = entry["laps"]
        if any(v is None for v in laps.values()):
            continue
        if best is None or laps[training_track] < best["laps"][training_track]:
            best = entry
    return best


GENERALIZATION_HEADER = "checkpoint_episode,track,best_lap_time,damage,finished"


def generalization_eval(run_dir, track_names, laps=1, out_csv=None, report_path=None):
    """Evaluate every saved checkpoint of a run on several tracks.

    Emits the per-checkpoint lap-time series and selects the general model
    per the best-on-training-but-finishes-everywhere rule.
    """
    config = ExperimentConfig.from_file(os.path.join(run_dir, "config.json"))
    training_track = config.track
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    paths = sorted(
        os.path.join(ckpt_dir, f) for f in os.listdir(ckpt_dir) if f.endswith(".npz")
    ) if os.path.isdir(ckpt_dir) else []
    if not paths:
        raise FileNotFoundError(f"no checkpoints under {run_dir}")

    entries = []
    rows = []
    for path in paths:
        episode = int(os.path.basename(path).split("_")[1].split(".")[0])
        agent = DDPGAgent.load(path)
        lap_by_track = {}
        for name in track_names:
            # unseen tracks are evaluated against their own track axis; the
            # lac flag follows the agent's input layout
            reference = "rc-lac" if agent.config.lac_enabled else "mot"
            line_file = None
            if reference == "rc-lac":
                line_file = _mot_line_file(run_dir, name, config)
            res = evaluate(agent, name, reference=reference, laps=laps,
                           racing_line_file=line_file, config=config)[0]
            lap_by_track[name] = res.best_lap_time
            rows.append((episode, name, res.best_lap_time, res.damage,
                         int(res.finished)))
        entries.append({"checkpoint": path, "episode": episode, "laps": lap_by_track})

    out_csv = out_csv or os.path.join(run_dir, "generalization.csv")
    with open(out_csv, "w") as fh:
        fh.write(GENERALIZATION_HEADER + "\n")
        for episode, name, lap, damage, fin in rows:
            fh.write(f"{episode},{name},{_fmt(lap)},{_fmt(damage)},{fin}\n")

    general = select_general_model(entries, training_track)
    report = {
        "training_track": training_track,
        "tracks": list(track_names),
        "general_model": None if general is None else {
            "checkpoint": general["checkpoint"],
            "episode": general["episode"],
            "laps": general["laps"],
        },
        "series_csv": out_csv,
        "note": None if general is not None else
        "no checkpoint finished every track; no general model exists",
    }
    report_path = report_path or os.path.join(run_dir, "generalization.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _mot_line_file(run_dir, track_name, config):
    """Materialize a middle-of-track line file (for LAC inputs on unseen tracks)."""
    path = os.path.join(run_dir, f"motline_{track_name}.json")
    if not os.path.exists(path):
        track = tracks.get_track(track_name)
        save_racing_line(RacingLine.middle_of_track(track), path)
    return path


# --- AT ablation ------------------------------------------------------------------------


@dataclass
class AblationReport:
    per_seed: list
    at_wins: int
    seeds: int
    curves_csv: str


def ablation_at(config, seeds=None, final_window=20, out_dir=None):
    """Twin runs differing only in the termination-target rule.

    Trains an adopted-target arm and a y=r arm per seed with identical
    configs, then compares the mean return over the final episodes. Writes
    the two smoothed training curves (moving average over 5 episodes).
    """
    seeds = list(seeds) if seeds is not None else list(config.seeds)
    out_dir = out_dir or os.path.join(config.output_dir, "ablation_at")
    os.makedirs(out_dir, exist_ok=True)

    returns = {True: [], False: []}
    per_seed = []
    for seed in seeds:
        means = {}
        for adopted in (True, False):
            arm = "at" if adopted else "plain"
            cfg = dataclasses.replace(
                config,
                agent=dataclasses.replace(config.agent, adopted_target=adopted),
            )
            result = train_run(cfg, seed, run_dir=os.path.join(out_dir, arm, f"seed{seed}"))
            eps, rets = _read_returns(os.path.join(result.run_dir, "metrics.csv"))
            returns[adopted].append(rets)
            means[arm] = float(np.mean(rets[-final_window:]))
        per_seed.append({
            "seed": seed,
            "at_mean": means["at"],
            "plain_mean": means["plain"],
            "at_wins": means["at"] > means["plain"],
        })

    n = min(min(len(r) for r in returns[True]), min(len(r) for r in returns[False]))
    at_curve = moving_average(np.mean([r[:n] for r in returns[True]], axis=0), 5)
    plain_curve = moving_average(np.mean([r[:n] for r in returns[False]], axis=0), 5)
    curves_csv = os.path.join(out_dir, "curves.csv")
    with open(curves_csv, "w") as fh:
        fh.write("episode,at_smoothed,plain_smoothed\n")
        for i in range(n):
            fh.write(f"{i + 1},{_fmt(at_curve[i])},{_fmt(plain_curve[i])}\n")

    report = AblationReport(
        per_seed=per_seed,
        at_wins=sum(1 for r in per_seed if r["at_wins"]),
        seeds=len(seeds),
        curves_csv=curves_csv,
    )
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump({"per_seed": per_seed, "at_wins": report.at_wins,
                   "seeds": report.seeds, "curves_csv": curves_csv},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _read_returns(metrics_csv):
    episodes = []
    rets = []
    with open(metrics_csv) as fh:
        header = fh.readline().strip().split(",")
        i_ep = header.index("episode")
        i_ret = header.index("return")
        for line in fh:
            parts = line.strip().split(",")
            episodes.append(int(parts[i_ep]))
            rets.append(float(parts[i_ret]))
    return episodes, np.asarray(rets)


# --- baseline ---------------------------------------------------------------------------


def baseline_report(track_name, laps=3, params=None):
    """Deterministic bot lap time plus its episode stats (the repo baseline)."""
    track = tracks.get_track(track_name)
    best, stats = bot_lap_time(track, laps=laps, params=params)
    return {"track": track_name, "best_lap_time": best,
            "laps": stats["laps"], "damage": stats["damage"]}
