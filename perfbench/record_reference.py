"""Record what the program produces for each workload, for later runs to compare with.

    python3 perfbench/record_reference.py FIRST_SEED LAST_SEED

Runs one unit of every workload per seed (bot_laps once, since its bot
takes no seed) and rewrites perfbench/reference.json. Run it only on the
commit whose outputs later runs are meant to match.
"""

import json
import os
import sys
import tempfile
import time

import run

if __name__ == "__main__":
    first, last = int(sys.argv[1]), int(sys.argv[2])
    sys.path[:0] = [run.SRC, run.HERE]
    import workloads

    ref = {}
    os.makedirs(run.WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as workdir:
        for name, (_, unit) in workloads.WORKLOADS.items():
            seeds = ["any"] if name == "bot_laps" else range(first, last + 1)
            ref[name] = {}
            for seed in seeds:
                u = unit(0 if seed == "any" else seed, os.path.join(workdir, f"{name}-{seed}"),
                         time.perf_counter)
                if u.failed:
                    sys.exit(f"{name} seed {seed}: {u.errors}")
                ref[name][str(seed)] = u.outputs
                print(name, seed, u.outputs, flush=True)
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
