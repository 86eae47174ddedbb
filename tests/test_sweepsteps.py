"""Smoke test of `scripts/sweepsteps.py` on the first records of the
`sigma3-stride` sample, with the workload's sample cut short and, where the
test needs it, the stored digest replaced: one row per step, and exit code 1
when the records' digest is not the stored one or the timed records' digest
is not the workload's."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "sweepsteps.py"
STEPS = ["orbits_at", "sum_zero_columns", "_int_echelon", "_pattern_verdict",
         "SweepRecord.to_json", "rest of evaluate_assignment"]


def _run(records: int, *patch: str) -> subprocess.CompletedProcess:
    """The script at `--passes 1`, its sample cut to the first `records`
    indices, after the lines of `patch` have run with `checks` and
    `workloads` imported."""
    code = "\n".join([
        "import itertools, runpy, sys",
        f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(ROOT / 'perfbench')!r}]",
        "import checks, workloads",
        "init = workloads.Sigma3Stride.__init__",
        "def cut(self, *args):",
        "    init(self, *args)",
        f"    self.indices = self.indices[:{records}]",
        "workloads.Sigma3Stride.__init__ = cut",
        *patch,
        f"sys.argv = [{str(SCRIPT)!r}, '--passes', '1']",
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')",
    ])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)


# the stored digest replaced by that of the cut sample's records
STORE_CUT_DIGEST = [
    "w = workloads.Sigma3Stride(1, None)",
    "checks.SIGMA3_SEED1_SHA256 = checks.digest(",
    "    w._record(w.fan, w.tree, w.DEGREE, i)[1] for i in w.indices)",
]


def test_a_small_sample_lists_every_step():
    done = _run(150, *STORE_CUT_DIGEST)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("sigma3-stride seed 1, 150 records x 1 passes")
    assert lines[1].split() == ["step", "ms/record", "share"]
    rows = {line[:30].strip(): line[30:].split() for line in lines[2:]}
    assert list(rows) == STEPS + ["total"]
    assert all(float(ms) > 0 for ms, *_ in rows.values())
    assert abs(sum(float(share.rstrip("%")) for _, share in list(rows.values())[:-1]) - 100) < 0.5


def test_records_that_differ_from_the_stored_digest_exit_1():
    done = _run(20)
    assert done.returncode == 1
    assert done.stdout.strip() == "records differ from the stored digest for the default seed"


def test_a_digest_that_differs_exits_1():
    # the untimed pass's digest is the stored one; every later one differs
    done = _run(20, "count = itertools.count()",
                "checks.digest = lambda lines: checks.SIGMA3_SEED1_SHA256 if next(count) == 0 else 'x'")
    assert done.returncode == 1
    assert done.stdout.strip() == "timed records differ from the workload's"
