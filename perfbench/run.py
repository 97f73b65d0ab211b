"""racerl benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload bot_laps --seed 1 --seconds 20 --trace 0

Run from the root of a racerl checkout; the benchmark imports the program
from its ``src`` directory. After one untimed warm-up unit, the run
repeats the workload's fixed unit of work until ``--seconds`` have passed
(at least once) and reports medians over the timed units. ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and
traced units and prints the per-layer metrics. The last line of standard
output is the JSON result; the line before it records the host, the
versions, the thread settings and the outputs.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools would contend with the Python thread on a small
# host; pin them before numpy is first imported, here or in a child.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 7
BYTES_TRANSITIONS = 2000
REFERENCE = os.path.join(HERE, "reference.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def host_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
    }


def measure_setup(workload, seed):
    """Median of several fresh processes' imports, track builds and agent construction."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, probe, workload, str(seed)], cwd=ROOT,
                             capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_unit(unit, seed, index, clock, tracer=None):
    """One unit in a fresh work directory; with a tracer, as one root span."""
    workdir = os.path.join(WORK, f"{os.getpid()}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        with tracer.span("bench.unit") if tracer else contextlib.nullcontext():
            t0 = clock()
            result = unit(seed, workdir, clock)
            wall = clock() - t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result, wall


def load_reference(workload, seed):
    """What the seed commit produced for this workload and seed, if recorded."""
    with open(REFERENCE) as fh:
        ref = json.load(fh)[workload]
    return ref.get("any", ref.get(str(seed)))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "racerl", "__init__.py")):
        fail(f"no racerl sources under {SRC}; run from the root of a racerl checkout")
    sys.path[:0] = [SRC, HERE]
    import probes
    import workloads
    from tracer import Tracer, self_times, span_cost

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    _, unit = workloads.WORKLOADS[args.workload]
    clock = time.perf_counter
    info = {"workload": args.workload, "seed": args.seed, **host_info()}
    tracer, probed = Tracer(clock), probes.Probes()

    # The first unit in a fresh process can run slower (by a median 19% on
    # train_oval_win1); it is checked like the others but not timed.
    first, warmup_wall = run_unit(unit, args.seed, 0, clock)
    checked, timed, walls, traced_walls = [first], [], [], []
    start = clock()
    while not walls or clock() - start < args.seconds:
        result, wall = run_unit(unit, args.seed, len(checked), clock)
        checked.append(result)
        timed.append(result)
        walls.append(wall)
        if args.trace:
            probed.install(tracer)
            try:
                result, wall = run_unit(unit, args.seed, len(checked), clock, tracer)
            finally:
                tracer.restore()
            checked.append(result)
            traced_walls.append(wall)

    attempted = sum(u.attempted for u in checked)
    failed = sum(u.failed for u in checked)
    digests = sorted({u.digest for u in checked})
    errors = sorted({e for u in checked for e in u.errors})
    reference = load_reference(args.workload, args.seed)
    info.update(
        warmup_wall_s=warmup_wall,
        unit_walls_s=walls,
        digests=digests,
        outputs=first.outputs,
        outputs_identical=None if reference is None else first.outputs == reference,
        errors=errors[:20],
    )

    if args.trace:
        spans = tracer.spans
        untraced_wall = statistics.median(walls) * len(traced_walls)
        metrics = probes.layer_metrics(spans, self_times(spans), probed,
                                       sum(traced_walls), untraced_wall)
        for kind, name in (("uniform", ""), ("per", ".per")):
            metrics["replay.bytes_per_transition" + name] = (
                probes.bytes_per_transition(kind, BYTES_TRANSITIONS, args.seed), "B")
        metrics["experiments.op_fail_ratio"] = (failed / attempted, "ratio")
        metrics["trace.est_overhead_ratio"] = (len(spans) * span_cost() / untraced_wall, "ratio")
        info["traced_walls_s"] = traced_walls
    else:
        rates = [u.steps / (u.step_wall or w) for u, w in zip(timed, walls)]
        info["updates_per_s"] = statistics.median(u.updates / w for u, w in zip(timed, walls))
        metrics = {
            "setup_s": (measure_setup(args.workload, args.seed), "s"),
            "run_wall_s": (statistics.median(walls), "s"),
            "env_steps_per_s": (statistics.median(rates), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "op_ok_ratio": (1.0 - failed / attempted, "ratio"),
        }

    finite = all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(digests) == 1 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
