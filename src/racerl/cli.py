"""Command-line entry points for the training and benchmarking workflows."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import experiments, plotting, tracks
from .bot import bot_lap_time, record_reference_line
from .geometry import save_racing_line


def _load_config(path):
    if path is None:
        return experiments.ExperimentConfig()
    return experiments.ExperimentConfig.from_file(path)


def cmd_train(args):
    config = _load_config(args.config)
    seeds = [args.seed] if args.seed is not None else config.seeds
    for seed in seeds:
        result = experiments.train_run(config, seed)
        status = "FAILED" if result.failed else "ok"
        print(f"seed {seed}: {result.episodes_run} episodes [{status}] -> {result.run_dir}")
    return 0


def cmd_eval(args):
    res = experiments.evaluate(args.checkpoint, args.track, laps=args.laps,
                               racing_line_file=args.racing_line)[0]
    lap = f"{res.best_lap_time:.3f}s" if res.finished else "DNF"
    print(f"{res.status} best_lap={lap} laps={len(res.lap_times)} "
          f"damage={res.damage:.2f} return={res.return_:.1f} ({res.termination})")
    return 0


def cmd_tournament(args):
    config = _load_config(args.config)
    report = experiments.tournament(
        config,
        variants=args.variants.split(",") if args.variants is not None else None,
        phase2_track=args.phase2_track,
        report_path=args.out,
    )
    print("phase 1 leaderboard (aLT over zero-damage models):")
    for row in report.phase1:
        alt = f"{row.alt:.3f}" if row.alt is not None else "DNF"
        blt = f"{row.blt:.3f}" if row.blt is not None else "-"
        print(f"  {row.variant:8s} bLT={blt:>8s} aLT={alt:>8s} finish_rate={row.finish_rate:.2f}")
    print(f"family winners: {report.winners}")
    if report.phase2:
        print(f"phase 2 ({args.phase2_track} track):")
        for row in report.phase2:
            alt = f"{row.alt:.3f}" if row.alt is not None else "DNF"
            print(f"  {row.variant:14s} aLT={alt}")
    return 0


def cmd_generalize(args):
    report = experiments.generalization_eval(
        args.run_dir, args.tracks.split(","), laps=args.laps,
    )
    if report["general_model"] is None:
        print(report["note"])
    else:
        gm = report["general_model"]
        print(f"general model: episode {gm['episode']} ({gm['checkpoint']})")
        for track, lap in gm["laps"].items():
            print(f"  {track}: {lap:.3f}s")
    print(f"series: {report['series_csv']}")
    return 0


def cmd_ablate_at(args):
    config = _load_config(args.config)
    if args.track is not None:
        config = dataclasses.replace(config, track=args.track)
    if args.episodes is not None:
        config.train = dataclasses.replace(config.train, episodes=args.episodes)
    if args.max_steps is not None:
        config.env = dataclasses.replace(config.env, max_steps=args.max_steps)
    seeds = range(args.seeds) if args.seeds is not None else None
    report = experiments.ablation_at(config, seeds=seeds)
    for row in report.per_seed:
        mark = "AT" if row["at_wins"] else "y=r"
        print(f"seed {row['seed']}: AT={row['at_mean']:.2f} "
              f"y=r={row['plain_mean']:.2f} winner={mark}")
    print(f"AT wins {report.at_wins}/{report.seeds}; curves: {report.curves_csv}")
    return 0


def cmd_record_line(args):
    if args.out == "":
        raise ValueError("record-line --out must name a file, got ''")
    track = tracks.get_track(args.track)
    line = record_reference_line(track)
    out = args.out if args.out is not None else f"{track.name}_line.json"
    save_racing_line(line, out)
    print(f"recorded {len(line.delta)} points -> {out}")
    return 0


def cmd_plot(args):
    try:
        out = plotting.plot_csv(args.csv, args.out)
    except plotting.EmptyDataError:
        print(f"nothing to plot in {args.csv}", file=sys.stderr)
        return 1
    print(f"wrote {out}")
    return 0


def cmd_baseline(args):
    track = tracks.get_track(args.track)
    best, stats = bot_lap_time(track, laps=args.laps)
    print(f"{args.track}: best lap {best:.3f}s damage={stats['damage']:.2f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="racerl",
        description="2D telemetry racing benchmark: DDPG variants vs a heuristic bot",
    )
    parser.add_argument("--print-config", action="store_true",
                        help="print the default experiment config as JSON and exit")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("train", help="run training for a config")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--seed", type=int, help="single seed (default: all in config)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--track", required=True)
    p.add_argument("--laps", type=int, default=3)
    p.add_argument("--racing-line", dest="racing_line")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("tournament", help="train and rank the variant grid")
    p.add_argument("--config", help="experiment config JSON")
    p.add_argument("--variants", help="comma list (default: all ten)")
    p.add_argument("--phase2-track", default="technical")
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(fn=cmd_tournament)

    p = sub.add_parser("generalize", help="evaluate run checkpoints on other tracks")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--tracks", required=True, help="comma list of track names")
    p.add_argument("--laps", type=int, default=1)
    p.set_defaults(fn=cmd_generalize)

    p = sub.add_parser("ablate-at", help="adopted-target vs y=r twin runs")
    p.add_argument("--config")
    p.add_argument("--track")
    p.add_argument("--episodes", type=int)
    p.add_argument("--max-steps", type=int)
    p.add_argument("--seeds", type=int, help="number of paired seeds")
    p.set_defaults(fn=cmd_ablate_at)

    p = sub.add_parser("record-line", help="record a slow-lap racing line")
    p.add_argument("--track", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_record_line)

    p = sub.add_parser("plot", help="render a metrics/telemetry CSV to SVG")
    p.add_argument("csv")
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(fn=cmd_plot)

    p = sub.add_parser("baseline", help="time the heuristic bot on a track")
    p.add_argument("--track", required=True)
    p.add_argument("--laps", type=int, default=3)
    p.set_defaults(fn=cmd_baseline)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.print_config:
        print(experiments.default_config_json())
        return 0
    if not getattr(args, "fn", None):
        parser.print_help()
        return 1
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
