"""The benchmark's workloads, each a fixed unit of work that a run repeats.

Every unit calls only public functions of ``racerl`` and returns a
``Unit``: the work done, the operations attempted and failed, and a digest
of everything the program wrote or returned. The same seed gives the same
inputs, so repeated units of one run must give the same digest.

Module attributes are looked up at call time (``experiments.train_run``,
not an imported name), so that a traced run can wrap them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os

from racerl import bot, experiments, nn, tracks
from racerl.agent import ExplorationConfig

TRACKS = ("oval", "fast_mixed", "technical")
VARIANTS = ("WIN8", "MS4", "PER40k", "LSTM8")


@dataclasses.dataclass
class Unit:
    steps: int = 0            # env steps counted in the step rate
    step_wall: float = 0.0    # wall seconds of the calls that took them; 0 means the whole unit
    updates: int = 0          # learner updates (train_step calls)
    attempted: int = 0        # checked operations: bot laps, episodes, evaluations
    failed: int = 0
    errors: list = dataclasses.field(default_factory=list)
    outputs: dict = dataclasses.field(default_factory=dict)  # name -> value compared with the seed commit
    digest: str = ""


def _finite(values):
    return all(math.isfinite(v) for v in values)


# --- bot_laps ---------------------------------------------------------------


def bot_laps_setup(seed):
    for name in TRACKS:
        track = tracks.get_track(name)
        bot.BaselineBot(track)


def bot_laps(seed, workdir, clock):
    """The bot's best of three laps per track, then the recorded line on technical.

    The bot is deterministic, so the seed does not change the work.
    """
    u = Unit()
    h = hashlib.sha256()
    for name in TRACKS:
        u.attempted += 1
        track = tracks.get_track(name)
        t0 = clock()
        try:
            best, stats = bot.bot_lap_time(track, laps=3)
        except RuntimeError as err:
            u.failed += 1
            u.errors.append(f"{name}: {err}")
            continue
        u.step_wall += clock() - t0
        u.steps += stats["steps"]
        if not _finite([best, stats["damage"], stats["return"]]):
            u.failed += 1
            u.errors.append(f"{name}: non-finite lap {best!r}")
        u.outputs[f"bot_lap.{name}"] = best
        h.update(repr((name, best, stats["laps"], stats["damage"], stats["steps"])).encode())
    u.attempted += 1
    try:
        line = bot.record_reference_line(tracks.get_track("technical"))
    except RuntimeError as err:
        u.failed += 1
        u.errors.append(f"record line: {err}")
    else:
        if not (_finite(line.alpha) and _finite(line.delta)):
            u.failed += 1
            u.errors.append("record line: non-finite point")
        line_digest = hashlib.sha256(line.delta.tobytes() + line.alpha.tobytes()).hexdigest()
        u.outputs["record_line.technical"] = line_digest
        h.update(line_digest.encode())
    u.digest = h.hexdigest()
    return u


# --- training workloads -------------------------------------------------------

WIN1_EPISODES = 300
VARIANT_EPISODES = 8
EPISODE_CAP = 12


def win1_config(workdir):
    """Criterion 9's learner settings on episodes capped at 12 steps.

    Uncapped, the work depends on the seed: a seed that learns to drive
    runs 400-step episodes where another still crashes after 15 steps.
    Capped, 300 episodes are about 3,400 steps for every seed, of which
    the 900 after the 2,500-step warm-up make 3 updates each.
    """
    cfg = experiments.ExperimentConfig(output_dir=workdir)
    t = cfg.train
    t.episodes = WIN1_EPISODES
    t.eval_every = 10
    t.checkpoint_every = 100
    t.warmup_steps = 2500
    t.updates_per_step = 3
    t.stop_on_success = False
    cfg.env.max_steps = EPISODE_CAP
    cfg.exploration = ExplorationConfig(horizon=15_000)
    return cfg


def variant_config(workdir, variant):
    """Short capped episodes, a small warm-up and 4 updates per step."""
    cfg = experiments.ExperimentConfig(output_dir=workdir, variant=variant)
    t = cfg.train
    t.episodes = VARIANT_EPISODES
    t.eval_every = VARIANT_EPISODES
    t.checkpoint_every = VARIANT_EPISODES
    t.warmup_steps = 30
    t.updates_per_step = 4
    cfg.env.max_steps = EPISODE_CAP
    return cfg


def _train_setup(cfg, seed):
    track = tracks.get_track(cfg.track)
    reference = experiments.build_reference(cfg, track)
    experiments.make_env(cfg, track=track, reference=reference)
    experiments.make_agent(cfg, seed)


def _csv_rows(path):
    with open(path) as fh:
        return [line.rstrip("\n").split(",") for line in fh][1:]


def _check_train_run(u, h, cfg, seed, run_dir):
    """Check one finished train_run's files; add its steps, updates and digest."""
    t = cfg.train
    tag = f"{cfg.variant} seed {seed}"
    u.attempted += t.episodes
    bad = 0
    if os.path.exists(os.path.join(run_dir, "FAILED")):
        bad += 1
        u.errors.append(f"{tag}: FAILED file")
    rows = _csv_rows(os.path.join(run_dir, "metrics.csv"))
    if len(rows) != t.episodes:
        bad += abs(t.episodes - len(rows))
        u.errors.append(f"{tag}: metrics.csv has {len(rows)} rows, want {t.episodes}")
    nonfinite = sum(1 for r in rows if not _finite(float(v) for v in r))
    if nonfinite:
        bad += nonfinite
        u.errors.append(f"{tag}: {nonfinite} non-finite metrics.csv rows")
    u.failed += min(bad, t.episodes)
    eval_rows = _csv_rows(os.path.join(run_dir, "eval.csv"))
    u.steps += sum(int(r[1]) for r in rows) + sum(int(r[2]) for r in eval_rows)
    meta, _ = nn.load_arrays(os.path.join(run_dir, "latest.npz"))
    u.updates += int(meta["train_steps"])
    for name in ("metrics.csv", "eval.csv"):
        with open(os.path.join(run_dir, name), "rb") as fh:
            h.update(fh.read())


def train_oval_win1_setup(seed):
    cfg = win1_config("")
    _train_setup(cfg, seed)
    for name in TRACKS[1:]:
        tracks.get_track(name)


def train_oval_win1(seed, workdir, clock):
    """WIN1 learns on oval; its best checkpoint then races three laps per track."""
    u = Unit()
    h = hashlib.sha256()
    cfg = win1_config(workdir)
    run_dir = os.path.join(workdir, "win1")
    t0 = clock()
    experiments.train_run(cfg, seed, run_dir=run_dir)
    u.step_wall = clock() - t0
    _check_train_run(u, h, cfg, seed, run_dir)
    # How far an untrained policy drives depends on the seed, so these
    # steps count in the unit's wall but not in its step rate.
    best = os.path.join(run_dir, "best.npz")
    for name in TRACKS:
        u.attempted += 1
        res = experiments.evaluate(best, name, laps=3)[0]
        if not _finite([res.return_, res.damage]):
            u.failed += 1
            u.errors.append(f"evaluate {name}: non-finite result")
        h.update(repr(dataclasses.astuple(res)).encode())
    u.digest = h.hexdigest()
    u.outputs["digest"] = u.digest
    return u


def train_variants_setup(seed):
    for variant in VARIANTS:
        _train_setup(variant_config("", variant), seed)


def train_variants(seed, workdir, clock):
    """One short train_run per learner mechanism that WIN1 skips."""
    u = Unit()
    h = hashlib.sha256()
    for variant in VARIANTS:
        cfg = variant_config(workdir, variant)
        run_dir = os.path.join(workdir, variant)
        experiments.train_run(cfg, seed, run_dir=run_dir)
        _check_train_run(u, h, cfg, seed, run_dir)
    u.digest = h.hexdigest()
    u.outputs["digest"] = u.digest
    return u


WORKLOADS = {
    "bot_laps": (bot_laps_setup, bot_laps),
    "train_oval_win1": (train_oval_win1_setup, train_oval_win1),
    "train_variants": (train_variants_setup, train_variants),
}
