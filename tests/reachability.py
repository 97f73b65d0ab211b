"""Which functions of src/racerl only the tests reach.

    PYTHONPATH=src python3 tests/reachability.py

Under ``sys.setprofile`` it records every src/racerl function called by
what a user runs: every ``racerl`` subcommand on a tiny config (a
four-family tournament, ``ablate-at``, ``generalize``, ``record-line``, an
rc-lac ``train`` on the recorded line and an ``eval`` of it against that
line, ``plot``, ``baseline``, ``eval``, ``train`` and ``--print-config``),
the demos, and one unit of each
perfbench workload with its setup and replay-bytes probe. Then it runs the
tier-1 tests in the same process under the same profiler, leaving out the
two learning criteria (9 and 10), which only train and race as the
commands do, and prints each function that the tests reach and no command
does, with its length in lines. A function that neither reaches (an error
path) is listed apart. Only the tests run the tournament's phase 2, which
a tiny budget never promotes to.

It is a script, not a test: a tier-1 version would need an allow-list of
the functions that wait for a caller, and that list would go stale.
"""

import ast
import contextlib
import glob
import io
import json
import os
import runpy
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "racerl")
TINY = {
    "seeds": [0],
    "env": {"max_steps": 20},
    "train": {"episodes": 2, "eval_every": 1, "checkpoint_every": 1, "warmup_steps": 10},
}
# the criteria that train for a minute each, on paths the commands take too
SLOW_TESTS = ("tests/test_acceptance.py::test_criterion_9_learning_capability",
              "tests/test_acceptance.py::test_criterion_10_at_ablation")


def defined_functions():
    """(file, qualname) -> length in lines of every def under src/racerl."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(path, name)] = child.end_lineno - first + 1
                    visit(child, name + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(tree, "")
    return out


class Reached:
    """The (file, qualname) of each src/racerl function called while recording."""

    def __init__(self):
        self.calls = set()

    def _profile(self, frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            self.calls.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    @contextlib.contextmanager
    def recording(self):
        sys.setprofile(self._profile)
        try:
            yield
        finally:
            sys.setprofile(None)


def run_commands(workdir):
    """Every subcommand, the demos and one unit of each perfbench workload."""
    from racerl.cli import main

    os.chdir(workdir)
    with open("tiny.json", "w") as fh:
        json.dump({**TINY, "output_dir": "runs"}, fh)
    run_dir = os.path.join("runs", "WIN1_oval_mot", "seed0")
    commands = [
        ["--print-config"],
        ["train", "--config", "tiny.json"],
        ["eval", "--checkpoint", os.path.join(run_dir, "latest.npz"), "--track", "oval",
         "--laps", "1"],
        ["generalize", "--run-dir", run_dir, "--tracks", "oval,technical"],
        ["plot", os.path.join(run_dir, "metrics.csv"), "-o", "metrics.svg"],
        ["tournament", "--config", "tiny.json", "--variants", "WIN1,MS2,PER40k,LSTM4",
         "--out", "tournament.json"],
        ["ablate-at", "--config", "tiny.json", "--seeds", "1"],
        ["record-line", "--track", "technical", "--out", "technical_line.json"],
        ["baseline", "--track", "oval", "--laps", "1"],
    ]
    with open("rc_lac.json", "w") as fh:
        json.dump({**TINY, "output_dir": "runs", "track": "technical", "reference": "rc-lac",
                   "racing_line_file": "technical_line.json"}, fh)
    commands.append(["train", "--config", "rc_lac.json"])
    commands.append(["eval", "--checkpoint",
                     os.path.join("runs", "WIN1_technical_rc-lac", "seed0", "latest.npz"),
                     "--track", "technical", "--laps", "1", "--racing-line", "technical_line.json"])
    for argv in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            main(argv)

    for demo in sorted(glob.glob(os.path.join(ROOT, "demos", "[0-9]*.py"))):
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(demo, run_name="__main__")

    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import probes
    import workloads

    for name, (setup, unit) in workloads.WORKLOADS.items():
        setup(1)
        unit(1, os.path.join(workdir, "bench", name), lambda: 0.0)
    for kind in ("uniform", "per"):
        probes.bytes_per_transition(kind, 100, 1)


def run_tests():
    import pytest

    os.chdir(ROOT)
    args = ["-q", "-p", "no:cacheprovider", "-o", "addopts=", "tests", "perfbench"]
    args += [f"--deselect={t}" for t in SLOW_TESTS]
    with contextlib.redirect_stdout(io.StringIO()):
        code = pytest.main(args)
    if code != 0:
        raise SystemExit(f"the tests failed (pytest exit code {code})")


def report(title, keys, lengths):
    print(f"{title}: {len(keys)} functions, {sum(lengths[k] for k in keys)} lines")
    for path, name in sorted(keys):
        print(f"  {os.path.basename(path)} {name} ({lengths[(path, name)]} lines)")


def main():
    sys.path.insert(0, os.path.dirname(SRC))
    lengths = defined_functions()
    commands, tests = Reached(), Reached()
    with tempfile.TemporaryDirectory() as workdir:
        with commands.recording():
            run_commands(workdir)
        os.chdir(ROOT)
    with tests.recording():
        run_tests()
    only_tests = (tests.calls - commands.calls) & set(lengths)
    neither = set(lengths) - tests.calls - commands.calls
    report("reached only by the tests", only_tests, lengths)
    report("reached by neither", neither, lengths)


if __name__ == "__main__":
    main()
