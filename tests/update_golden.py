"""Golden trajectories: sha256 digests of short same-seed runs and bot laps.

    PYTHONPATH=src python3 tests/update_golden.py

rewrites tests/golden.json from the current source; tests/test_golden.py
checks the source against it. Rewrite the file only in a change that alters
trajectories on purpose, and say so in its CHANGES.md line. The digests hold
for the numpy and BLAS recorded next to them: another BLAS may round a
matmul differently.
"""

import dataclasses
import hashlib
import json
import os
import sys
import tempfile

import numpy as np

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SEED = 3


def versions():
    """The numpy and BLAS the digests were computed with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def _file(path, workdir=None):
    """Digest of a file's bytes, with workdir (where a report embeds the
    paths it wrote) replaced by a fixed token."""
    with open(path, "rb") as fh:
        data = fh.read()
    if workdir is not None:
        data = data.replace(workdir.encode(), b"<workdir>")
    return hashlib.sha256(data).hexdigest()


def _arrays(path):
    """Digest of a checkpoint's arrays by name; its meta is left out."""
    from racerl.nn import load_arrays

    _, arrays = load_arrays(path)
    h = hashlib.sha256()
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name])
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _run(config, tag, workdir, out):
    from racerl import experiments as ex

    run_dir = ex.train_run(config, SEED, run_dir=os.path.join(workdir, tag)).run_dir
    out[f"{tag}/metrics.csv"] = _file(os.path.join(run_dir, "metrics.csv"))
    out[f"{tag}/eval.csv"] = _file(os.path.join(run_dir, "eval.csv"))
    out[f"{tag}/latest.npz"] = _arrays(os.path.join(run_dir, "latest.npz"))
    return run_dir


def compute_digests(workdir):
    """Digests of everything golden.json records, with runs under workdir:

    - a 6-episode run of every variant on oval (cap 30 steps, warm-up 40,
      an eval and a checkpoint every 3 episodes);
    - an rc-lac WIN1 run of the same size on technical, against the
      recorded line, with spread starts so that its episodes see the
      line's corners;
    - generalization.csv and generalization.json of the oval WIN1 run over
      every track, and the arrays of its first checkpoint;
    - a one-seed tournament of WIN4 and PER40k of the same size with phase 2
      on technical: its report and each run's best.npz arrays;
    - a one-seed AT ablation of the same size: its report.json and curves.csv;
    - the bot's lap time and its recorded line on every track.

    The reports embed the paths they wrote, so their digests read workdir
    as a fixed token.
    """
    from racerl import experiments as ex
    from racerl import tracks
    from racerl.agent import VARIANTS
    from racerl.bot import bot_lap_time, record_reference_line
    from racerl.geometry import save_racing_line

    out = {}
    lines = {}
    for name in tracks.TRACK_NAMES:
        track = tracks.get_track(name)
        best, _ = bot_lap_time(track)
        out[f"bot_lap_time/{name}"] = repr(best)
        line = lines[name] = record_reference_line(track)
        out[f"recorded_line/{name}"] = hashlib.sha256(
            line.delta.tobytes() + line.alpha.tobytes()).hexdigest()

    base = ex.ExperimentConfig(output_dir=workdir, seeds=[SEED])
    base.train.episodes = 6
    base.train.eval_every = 3
    base.train.checkpoint_every = 3
    base.train.warmup_steps = 40
    base.env.max_steps = 30
    for variant in sorted(VARIANTS):
        run_dir = _run(dataclasses.replace(base, variant=variant), f"oval/{variant}", workdir, out)
        if variant == "WIN1":
            ex.generalization_eval(run_dir, tracks.TRACK_NAMES)
            out["oval/WIN1/generalization.csv"] = _file(
                os.path.join(run_dir, "generalization.csv"))
            out["oval/WIN1/generalization.json"] = _file(
                os.path.join(run_dir, "generalization.json"), workdir)
            out["oval/WIN1/checkpoints/ckpt_000003.npz"] = _arrays(
                os.path.join(run_dir, "checkpoints", "ckpt_000003.npz"))

    line_file = os.path.join(workdir, "technical_line.json")
    save_racing_line(lines["technical"], line_file)
    rc_lac = dataclasses.replace(base, track="technical", reference="rc-lac",
                                 racing_line_file=line_file,
                                 train=dataclasses.replace(base.train, spread_starts=True))
    _run(rc_lac, "technical/rc-lac/WIN1", workdir, out)

    t_dir = os.path.join(workdir, "tournament")
    report = ex.tournament(dataclasses.replace(base, output_dir=t_dir), variants=["WIN4", "PER40k"],
                           phase2_track="technical", report_path=os.path.join(t_dir, "report.json"))
    out["tournament/report.json"] = _file(os.path.join(t_dir, "report.json"), workdir)
    for run_dir in report.run_dirs:
        tag = os.path.relpath(run_dir, workdir)
        out[f"{tag}/best.npz"] = _arrays(os.path.join(run_dir, "best.npz"))

    ex.ablation_at(dataclasses.replace(base, output_dir=os.path.join(workdir, "ablation")))
    for name in ("report.json", "curves.csv"):
        out[f"ablation/ablation_at/{name}"] = _file(
            os.path.join(workdir, "ablation", "ablation_at", name), workdir)
    return out


def main():
    with tempfile.TemporaryDirectory() as workdir:
        digests = compute_digests(workdir)
    with open(GOLDEN, "w") as fh:
        json.dump({**versions(), "digests": digests}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(digests)} digests to {GOLDEN}")


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(GOLDEN), os.pardir, "src"))
    main()
