"""Smoke test of `scripts/callmix.py`: one `library-mix` pass, whose table
lists every type of timed call once, each called once per round."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CALLS = {"fan_from_data", "is_complete", "validate_cover", "solve rational", "solve integral",
         "group_triviality", "_json_round_trip", "verify", "necessary_dimension_check", "dual",
         "chern", "branched_cover_of"}


def test_one_pass_lists_every_call_type():
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "callmix.py"), "--passes", "1"],
                          capture_output=True, text=True, timeout=120, check=True)
    lines = done.stdout.splitlines()
    assert lines[2].split() == ["call", "calls", "median", "ms", "share", ">p50", ">p99"]
    rows = {line[:26].strip(): line[26:].split() for line in lines[3:]}
    assert set(rows) == CALLS
    assert all(row[0] == "108.0" for row in rows.values())
    assert sum(float(row[2].rstrip("%")) for row in rows.values()) > 99
