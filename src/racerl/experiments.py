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
import re
from contextlib import closing
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__, tracks
from .agent import VARIANTS, AgentSettings, DDPGAgent, ExplorationConfig, ObservationWindow
from .bot import record_reference_line
from .config import Config, from_dict, ranged
from .files import write_text
from .geometry import RacingLine, load_racing_line, save_racing_line
from .nn import NumericError, load_arrays
from .plotting import moving_average, read_csv_columns
from .replay import Transition
from .simulator import CarParams, EnvSettings, RacingEnv, csv_row, eval_step_cap

REFERENCE_MODES = ("mot", "rc", "rc-lac")


def _check_seed(seed, name="seed"):
    """Raise ValueError unless seed is a non-negative int (a bool is not)."""
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {seed!r}")


def _check_track(track, name):
    """Raise ValueError unless get_track knows track."""
    if not tracks.is_track(track):
        raise ValueError(f"{name} must be one of {list(tracks.TRACK_NAMES)}, got {track!r}")


def check_file_name(path, name, kind="file"):
    """Raise ValueError if the optional path is given but empty."""
    if path == "":
        raise ValueError(f"{name} must name a {kind}, got ''")


def _check_distinct(values, noun, check=None, key=None):
    """Raise ValueError unless values is a non-empty list of items distinct by
    key(item) (the item if no key), each passing check(item, name) if given:
    a repeated seed, variant or track would run the same work twice."""
    if not values:
        raise ValueError(f"need at least one {noun}")
    first = {}
    for i, value in enumerate(values):
        if check is not None:
            check(value, f"{noun}s[{i}]")
        k = value if key is None else key(value)
        if k in first:
            raise ValueError(f"{noun}s[{i}] repeats {noun}s[{first[k]}]")
        first[k] = i


def write_json(path, data):
    """Write data as indented JSON with sorted keys and a final newline, atomically."""
    write_text(path, json.dumps(data, indent=2, sort_keys=True) + "\n")


@dataclass
class TrainSettings(Config, tree="train"):
    episodes: int = ranged("at least 1", 500)
    eval_every: int = ranged("at least 1", 10)
    checkpoint_every: int = ranged("at least 1", 50)
    warmup_steps: int = ranged("non-negative", 1000)
    updates_per_step: int = ranged("at least 1", 1)  # gradient steps per environment step
    spread_starts: bool = False        # deterministic per-episode start positions
    # stop once an eval lap completes with 0 damage and, when success_lap_time
    # is set, beats that lap time
    stop_on_success: bool = False
    success_lap_time: float | None = ranged("None or finite and positive", None)


@dataclass
class ExperimentConfig(Config):
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

    def validate(self, path=None):
        """Raise ValueError naming the first bad field: the memberships and
        seeds here, then every tree's declared ranges."""
        if self.variant not in VARIANTS:
            raise ValueError(f"config variant must be one of {sorted(VARIANTS)}, "
                             f"got {self.variant!r}")
        _check_track(self.track, "config track")
        if self.reference not in REFERENCE_MODES:
            raise ValueError(f"config reference must be one of {REFERENCE_MODES}, "
                             f"got {self.reference!r}")
        if self.reference != "mot" and not self.racing_line_file:
            raise ValueError(f"config racing_line_file must name a racing-line file for "
                             f"reference {self.reference!r}, got {self.racing_line_file!r}")
        _check_distinct(self.seeds, "seed", _check_seed)
        super().validate(path)

    @property
    def lac_enabled(self):
        return self.reference == "rc-lac"

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return from_dict(cls, json.load(fh))

    def save(self, path):
        write_json(path, asdict(self))


def default_config_json():
    return json.dumps(asdict(ExperimentConfig()), indent=2, sort_keys=True)


# --- assembly -----------------------------------------------------------------


def build_reference(config, track):
    """Reference line per the configured mode (None lines mean MOT)."""
    if config.reference == "mot":
        return RacingLine.middle_of_track(track)
    try:
        return load_racing_line(config.racing_line_file, track)
    except FileNotFoundError as err:
        raise FileNotFoundError(
            f"racing_line_file {config.racing_line_file!r} not found") from err


def make_env(config, track=None, reference=None, max_steps=None):
    """The env of config's env, car and LAC settings on track (the training
    track if None). Without a reference it races the run's reference on the
    training track, in any spelling, and the track's axis elsewhere."""
    track = track if track is not None else tracks.get_track(config.track)
    if reference is None and track.name == tracks.canonical_name(config.track):
        reference = build_reference(config, track)
    settings = config.env
    if max_steps is not None:
        settings = dataclasses.replace(settings, max_steps=max_steps)
    return RacingEnv(track, reference=reference, lac_enabled=config.lac_enabled,
                     params=config.car, settings=settings)


def make_agent(config, seed):
    return DDPGAgent(config, seed=seed)


def load_agent(path):
    """The agent a checkpoint holds, built under the run config it stores;
    each network array must be there with its network's shape."""
    meta, arrays = load_arrays(path)
    if meta.get("kind") != "agent":
        raise ValueError(f"{path} is not an agent checkpoint")
    try:
        config = from_dict(ExperimentConfig, meta["config"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    agent = DDPGAgent(config)
    expected = agent.network_arrays()
    for name in sorted(set(arrays) | set(expected)):
        want, got = _shape_of(expected, name), _shape_of(arrays, name)
        if want != got:
            raise ValueError(f"{path}: checkpoint array {name!r}: expected {want}, got {got}")
    for name, p in expected.items():
        p[...] = arrays[name]
    agent.train_steps = int(meta["train_steps"])
    return agent


def _shape_of(arrays, name):
    return f"shape {arrays[name].shape}" if name in arrays else "no array"


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
    """Deterministic rollout from the env's configured start until `laps`
    laps (termination "none"), a termination, or the step cap."""
    if laps < 1:
        raise ValueError(f"laps must be at least 1, got {laps}")
    env.reset()
    window = ObservationWindow(agent.variant.window)
    window.reset(env.observe())
    while len(env.lap_times) < laps and not env.done:
        env.step(agent.act(window.array()))
        window.push(env.observe())
    lap_times = env.lap_times
    return EpisodeResult(
        lap_times=lap_times,
        best_lap_time=min(lap_times) if lap_times else None,
        damage=env.state.damage,
        termination="none" if len(lap_times) >= laps else env.termination.value,
        return_=env.episode_return,
        steps=env.tracker.steps,
    )


def evaluate(checkpoint, track_name, laps=3, racing_line_file=None):
    """Race the checkpoint file at path checkpoint in one deterministic
    episode, under the env, car and LAC settings of the run config it carries.

    Returns a one-element list of its EpisodeResult; callers index [0].
    Telemetry is measured against the line file's racing line; without one,
    against the line make_env picks. An episode with no completed lap is an
    explicit DNF result, not an error.
    """
    check_file_name(racing_line_file, "evaluate racing_line_file")
    agent = load_agent(checkpoint)
    track = tracks.get_track(track_name)
    line = load_racing_line(racing_line_file, track) if racing_line_file is not None else None
    env = make_env(agent.config, track=track, reference=line,
                   max_steps=eval_step_cap(track, laps, agent.config.env.dt))
    return [run_eval_episode(agent, env, laps=laps)]


# --- training ------------------------------------------------------------------

METRICS_HEADER = "episode,steps,return,critic_loss_mean,actor_obj_mean,epsilon_prime,laps,damage"
EVAL_HEADER = "episode,return,steps,laps,best_lap_time,damage,termination"


def run_dir_for(config, seed):
    tag = f"{config.variant}_{config.track}_{config.reference}"
    return os.path.join(config.output_dir, tag, f"seed{seed}")


# an earlier run's files in the same directory that a run might not rewrite, and its checkpoints
EARLIER_RUN_FILES = ("FAILED", "best.npz", "latest.npz", "generalization.csv",
                     "generalization.json")
CHECKPOINT = "ckpt_{:06d}.npz"  # under checkpoints/, named by episode; see list_checkpoints
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def list_checkpoints(run_dir):
    """(episode, path) of each checkpoints/ckpt_<digits>.npz of a run, by
    episode; none when the run has no checkpoints/ directory."""
    ckpt_dir = os.path.join(run_dir, "checkpoints")
    if not os.path.isdir(ckpt_dir):
        return []
    found = [re.fullmatch(r"ckpt_(\d+)\.npz", name) for name in os.listdir(ckpt_dir)]
    return sorted((int(m[1]), os.path.join(ckpt_dir, m[0])) for m in found if m)


class Run:
    """One training run: exploration-annealed episodes, periodic deterministic
    evaluation, checkpointing and CSV metrics. It owns the one env it trains
    and races on, the agent, the observation window, the open CSV files and
    every progress fact, and builds everything that can fail on the config
    before it writes a file."""

    def __init__(self, config, seed, run_dir=None):
        config.validate()
        _check_seed(seed)
        check_file_name(run_dir, "train_run run_dir", "directory")
        if config.racing_line_file:  # so config.json names it from any directory
            config = dataclasses.replace(config, racing_line_file=os.path.abspath(
                config.racing_line_file))
        self.config, self.seed = config, seed
        self.run_dir = run_dir if run_dir is not None else run_dir_for(config, seed)
        self.env = make_env(config)
        self.agent = make_agent(config, seed)
        self.window = ObservationWindow(self.agent.variant.window)
        self.episodes_run = 0
        self.failed = False
        self.success_episode = None
        self.best_score = (-1,)  # below every eval's score

        os.makedirs(os.path.join(self.run_dir, "checkpoints"), exist_ok=True)
        stale = [os.path.join(self.run_dir, name) for name in EARLIER_RUN_FILES]
        for path in stale + [path for _, path in list_checkpoints(self.run_dir)]:
            if os.path.exists(path):
                os.remove(path)
        config.save(os.path.join(self.run_dir, "config.json"))
        write_json(os.path.join(self.run_dir, "runinfo.json"),
                   {"version": f"racerl-{__version__}", "seed": seed, "variant": config.variant,
                    "track": config.track, "reference": config.reference})
        # line-buffered: each row is on disk once written, for readers mid-run
        self.metrics_fh = open(os.path.join(self.run_dir, "metrics.csv"), "w", buffering=1)
        self.metrics_fh.write(METRICS_HEADER + "\n")
        self.eval_fh = open(os.path.join(self.run_dir, "eval.csv"), "w", buffering=1)
        self.eval_fh.write(EVAL_HEADER + "\n")

    @property
    def done(self):
        t = self.config.train
        return (self.failed or self.episodes_run >= t.episodes
                or (t.stop_on_success and self.success_episode is not None))

    def episode(self):
        """Train one episode, then run the eval and checkpoint that are due.
        A non-finite update writes FAILED and ends the episode and the run."""
        env, agent, window, t = self.env, self.agent, self.window, self.config.train
        episode = self.episodes_run + 1
        # low-discrepancy start positions (single-corner-style drills)
        env.reset((episode * GOLDEN % 1.0) * env.track.length if t.spread_starts else None)
        vec = env.observe()
        window.reset(vec)
        agent.explorer.reset_noise()
        losses, objs = [], []
        while not (env.done or self.failed):
            action = agent.act_explore(window.array())
            result = env.step(action)
            next_vec = env.observe()
            agent.buffer.push(Transition(
                state=vec, action=action, reward=result.reward, next_state=next_vec,
                termination=result.termination, episode=episode, step=env.tracker.steps - 1))
            window.push(next_vec)
            vec = next_vec
            # explorer.steps counts env steps: act_explore runs once a step, evals call act
            if agent.explorer.steps > t.warmup_steps:
                try:
                    for _ in range(t.updates_per_step):
                        m = agent.train_step()
                        losses.append(m.critic_loss)
                        objs.append(m.actor_objective)
                except NumericError as err:
                    write_text(os.path.join(self.run_dir, "FAILED"), f"episode {episode}: {err}\n")
                    self.failed = True
        self.episodes_run = episode
        self.metrics_fh.write(csv_row((
            episode, env.tracker.steps, env.episode_return,
            float(np.mean(losses)) if losses else 0.0,
            float(np.mean(objs)) if objs else 0.0,
            agent.explorer.eps_prime, len(env.lap_times), env.state.damage)))
        if self.failed:
            return
        if episode % t.eval_every == 0:
            self.evaluate(episode)
        if episode % t.checkpoint_every == 0:
            agent.save(os.path.join(self.run_dir, "checkpoints", CHECKPOINT.format(episode)))

    def evaluate(self, episode):
        """Race one deterministic lap into eval.csv. A better score rewrites
        best.npz, and the first zero-damage lap under success_lap_time (any
        lap when it is None) sets success_episode."""
        res = run_eval_episode(self.agent, self.env, laps=1)
        self.eval_fh.write(csv_row((episode, res.return_, res.steps, len(res.lap_times),
                                    res.best_lap_time, res.damage, res.termination)))
        score = (1, -res.best_lap_time) if res.finished else (0, res.return_)
        if score > self.best_score:
            self.best_score = score
            self.agent.save(os.path.join(self.run_dir, "best.npz"))
        target = self.config.train.success_lap_time
        if (res.finished and res.damage == 0.0 and self.success_episode is None
                and (target is None or res.best_lap_time < target)):
            self.success_episode = episode

    def close(self):
        self.metrics_fh.close()
        self.eval_fh.close()


def train_run(config, seed, run_dir=None):
    """Train one run to its end and save its latest.npz; returns the Run."""
    with closing(Run(config, seed, run_dir)) as run:
        while not run.done:
            run.episode()
    run.agent.save(os.path.join(run.run_dir, "latest.npz"))
    return run


# --- leaderboard -----------------------------------------------------------------


@dataclass
class LeaderboardRow:
    variant: str
    blt: float | None        # best lap over zero-damage models
    alt: float | None        # mean best lap over zero-damage models
    avg_damage: float | None  # over models that finished a lap
    finish_rate: float
    models: int


def build_leaderboard(results):
    """Table-style aggregation of (variant label, EpisodeResult) races, one
    per model: bLT/aLT over zero-damage models only."""
    by_variant = {}
    for variant, res in results:
        by_variant.setdefault(variant, []).append(res)
    rows = []
    for variant, group in by_variant.items():
        finished = [res for res in group if res.finished]
        zero = [res for res in finished if res.damage == 0.0]
        laps = [res.best_lap_time for res in zero]
        rows.append(LeaderboardRow(
            variant=variant,
            blt=min(laps) if laps else None,
            alt=float(np.mean(laps)) if laps else None,
            avg_damage=float(np.mean([res.damage for res in finished])) if finished else None,
            finish_rate=len(finished) / len(group),
            models=len(group),
        ))
    rows.sort(key=lambda r: (r.alt is None, r.alt if r.alt is not None else 0.0,
                             -r.finish_rate))
    return rows


def select_family_winners(rows):
    """Per-family winner by average best lap-time (aLT)."""
    winners = {}
    for row in rows:
        fam = VARIANTS[row.variant].family
        if row.alt is not None and (fam not in winners or row.alt < winners[fam].alt):
            winners[fam] = row
    return {fam: row.variant for fam, row in winners.items()}


# --- tournament --------------------------------------------------------------------


@dataclass
class TournamentReport:
    phase1: list
    winners: dict
    phase2: list | None
    run_dirs: list


def summarize_run(run):
    """Race a finished run's best.npz (its latest.npz when no eval saved a
    best) for 3 laps on its own track; returns its EpisodeResult."""
    best = os.path.join(run.run_dir, "best.npz")
    path = best if os.path.exists(best) else os.path.join(run.run_dir, "latest.npz")
    return evaluate(path, run.config.track)[0]


def _train_and_rank(labelled_configs, seeds, run_dirs):
    """Train each (config, label) pair on every seed, race each run under its
    label, and rank them; appends every run directory to run_dirs."""
    results = []
    for cfg, label in labelled_configs:
        for seed in seeds:
            run = train_run(cfg, seed)
            run_dirs.append(run.run_dir)
            results.append((label, summarize_run(run)))
    return build_leaderboard(results)


def tournament(config, variants=None, phase2_track="technical", report_path=None):
    """Study-1-style tournament.

    Phase 1 trains every variant on the configured (simple) track with the
    MOT reference and builds the leaderboard; per-family winners (by aLT)
    are then promoted to the technical track, trained with both MOT and a
    recorded racing line. The variants and the phase-2 track are checked
    before anything trains.
    """
    variants = variants if variants is not None else sorted(VARIANTS)
    _check_distinct(variants, "variant")
    if phase2_track is not None:
        _check_track(phase2_track, "tournament phase2_track")
    check_file_name(report_path, "tournament report_path")
    run_dirs = []
    phase1 = _train_and_rank([(dataclasses.replace(config, variant=variant), variant)
                           for variant in variants], config.seeds, run_dirs)
    winners = select_family_winners(phase1)

    phase2 = None
    if winners and phase2_track is not None:
        track2 = tracks.get_track(phase2_track)
        line_file = os.path.join(config.output_dir, f"{track2.name}_line.json")
        save_racing_line(record_reference_line(track2, params=config.car), line_file)
        phase2 = _train_and_rank([
            (dataclasses.replace(config, variant=variant, track=phase2_track, reference=reference,
                                 racing_line_file=line_file if reference != "mot" else None),
             f"{variant}-{reference}")
            for variant in winners.values() for reference in ("mot", "rc")
        ], config.seeds, run_dirs)

    report = TournamentReport(phase1, winners, phase2, run_dirs)
    if report_path is not None:
        write_json(report_path, asdict(report))
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


def generalization_eval(run_dir, track_names, laps=1):
    """Race every saved checkpoint of a run on several tracks.

    Each track and its env are built once; every checkpoint races on them
    in one deterministic episode, against the line make_env picks, with the
    run's env and car settings and LAC input, as evaluate races it.
    Writes the per-checkpoint lap-time series to generalization.csv and the
    general model, selected per the best-on-training-but-finishes-everywhere
    rule, to generalization.json, both in the run directory. track_names
    must include the training track.
    """
    check_file_name(run_dir, "generalization_eval run_dir", "directory")
    _check_distinct(track_names, "track", _check_track, key=tracks.canonical_name)
    config = ExperimentConfig.from_file(os.path.join(run_dir, "config.json"))
    training_track = config.track
    # the caller's spelling of the training track keys its laps
    trained = [name for name in track_names
               if tracks.canonical_name(name) == tracks.canonical_name(training_track)]
    if not trained:
        raise ValueError(f"tracks {list(track_names)} must include the run's training track "
                         f"{training_track!r}")
    checkpoints = list_checkpoints(run_dir)
    if not checkpoints:
        raise FileNotFoundError(f"no checkpoints under {run_dir}")

    envs = []
    for name in track_names:
        track = tracks.get_track(name)
        envs.append((name, make_env(config, track=track,
                                    max_steps=eval_step_cap(track, laps, config.env.dt))))
    entries, rows = [], []
    for episode, path in checkpoints:
        agent = load_agent(path)
        lap_by_track = {}
        for name, env in envs:
            res = run_eval_episode(agent, env, laps=laps)
            lap_by_track[name] = res.best_lap_time
            rows.append((episode, name, res.best_lap_time, res.damage, int(res.finished)))
        entries.append({"checkpoint": path, "episode": episode, "laps": lap_by_track})

    out_csv = os.path.join(run_dir, "generalization.csv")
    write_text(out_csv, GENERALIZATION_HEADER + "\n" + "".join(map(csv_row, rows)))

    general = select_general_model(entries, trained[0])
    report = {
        "training_track": training_track,
        "tracks": list(track_names),
        "general_model": general,
        "series_csv": out_csv,
        "note": None if general is not None else
        "no checkpoint finished every track; no general model exists",
    }
    write_json(os.path.join(run_dir, "generalization.json"), report)
    return report


# --- AT ablation ------------------------------------------------------------------------


@dataclass
class AblationReport:
    per_seed: list
    at_wins: int
    seeds: int
    curves_csv: str


def ablation_at(config, seeds=None, final_window=20):
    """Twin runs differing only in the termination-target rule.

    Trains an adopted-target arm and a y=r arm per seed with identical
    configs, then compares the mean return over the final episodes. Writes
    the runs, the report and the two training curves smoothed over 5
    episodes under the config's output_dir/ablation_at.
    """
    seeds = list(seeds) if seeds is not None else list(config.seeds)
    _check_distinct(seeds, "seed", _check_seed)
    config.validate()
    out_dir = os.path.join(config.output_dir, "ablation_at")
    os.makedirs(out_dir, exist_ok=True)

    returns = {True: [], False: []}
    per_seed = []
    for seed in seeds:
        means = {}
        for adopted in (True, False):
            arm = "at" if adopted else "plain"
            cfg = dataclasses.replace(
                config, agent=dataclasses.replace(config.agent, adopted_target=adopted))
            result = train_run(cfg, seed, run_dir=os.path.join(out_dir, arm, f"seed{seed}"))
            cols = read_csv_columns(os.path.join(result.run_dir, "metrics.csv"))
            rets = np.asarray([float(v) for v in cols["return"]])
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
    text = "".join(csv_row((i + 1, at_curve[i], plain_curve[i])) for i in range(n))
    write_text(curves_csv, "episode,at_smoothed,plain_smoothed\n" + text)

    report = AblationReport(per_seed=per_seed, at_wins=sum(r["at_wins"] for r in per_seed),
                            seeds=len(seeds), curves_csv=curves_csv)
    write_json(os.path.join(out_dir, "report.json"), asdict(report))
    return report
