"""Time one workload's set-up in a fresh process: imports, tracks, agents.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the seconds taken. run.py starts it several times, with the
thread settings already in the environment, and reports the median.
"""

import os
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(os.path.dirname(here), "src"), here]
    import workloads

    setup, _ = workloads.WORKLOADS[sys.argv[1]]
    setup(int(sys.argv[2]))
    print(time.perf_counter() - start)
