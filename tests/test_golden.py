"""Same-seed trajectories against the digests in tests/golden.json.

A mismatch means a change altered what a run computes. If that is on
purpose, rewrite the file with tests/update_golden.py and say why in
CHANGES.md; on another numpy or BLAS, the message names both versions.
"""

import json

import update_golden


def test_runs_and_bot_laps_match_the_golden_digests(tmp_path):
    with open(update_golden.GOLDEN) as fh:
        golden = json.load(fh)
    digests = update_golden.compute_digests(str(tmp_path))
    want = golden["digests"]
    differ = sorted(k for k in set(want) | set(digests) if want.get(k) != digests.get(k))
    here = update_golden.versions()
    assert not differ, (
        f"{len(differ)} of {len(want)} golden digests differ: {', '.join(differ)}. "
        f"golden.json was written with numpy {golden['numpy']} and {golden['blas']}; "
        f"this run has numpy {here['numpy']} and {here['blas']}")
