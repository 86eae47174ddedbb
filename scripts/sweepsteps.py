#!/usr/bin/env python3
"""Where the time of a `sigma3-stride` record goes, by step.

Runs the records of the benchmark's `sigma3-stride` workload in process,
with the workload imported from `perfbench/workloads.py` and left unchanged,
and prints the ms per record of each step: `orbits_at`, `sum_zero_columns`,
`_int_echelon`, `_pattern_verdict`, `SweepRecord.to_json`, and the rest of
`evaluate_assignment`.  The steps are traced by perfbench's `Tracer`, which
rebinds each one in every `fanbranch` module that holds it, and a step's
time is its self time, leaving out the steps traced inside it.  Times are
normalised to the reference host speed, as perfbench reports them, one
stretch of records at a time.

One untimed pass of the workload's own record function comes first: it
fills the tables that the timed passes read, as the benchmark's first pass
does, and gives the digest of the workload's records.  The script exits
with code 1 if, at the default seed, that digest is not the stored one, or
if a timed pass's records have another digest.

    python3 scripts/sweepsteps.py --passes 3 --seed 1
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Traced names, by module of definition, and the row each one is shown in.
STEPS = {
    "monodromy": ("orbits_at", "RayOrbits.sum_zero_columns"),
    "exact_linalg": ("_int_echelon",),
    "pl_group": ("_pattern_verdict",),
    "cli": ("SweepRecord.to_json", "evaluate_assignment"),
}
ROWS = {
    "monodromy.orbits_at": "orbits_at",
    "monodromy.RayOrbits.sum_zero_columns": "sum_zero_columns",
    "exact_linalg._int_echelon": "_int_echelon",
    "pl_group._pattern_verdict": "_pattern_verdict",
    "cli.SweepRecord.to_json": "SweepRecord.to_json",
    "cli.evaluate_assignment": "rest of evaluate_assignment",
}


def run_records(w, timed: bool = False) -> tuple[list[str], dict[str, float]]:
    """The workload's record lines over its indices, and, if `timed`, the
    normalised seconds of each step, scaled stretch by stretch."""
    lines, norm = [], dict.fromkeys(ROWS.values() if timed else (), 0.0)
    ref = speed.reference_s()
    for k in range(0, len(w.indices), w.STRETCH):
        t = tracer.Tracer()
        if timed:
            t.install(traced=STEPS)
            if t.absent:
                raise SystemExit(f"not found to trace: {', '.join(t.absent)}")
        try:
            for index in w.indices[k:k + w.STRETCH]:
                lines.append(w._record(w.fan, w.tree, w.DEGREE, index)[1])
        finally:
            t.uninstall()
        if timed:
            ref, before = speed.reference_s(), ref
            f = speed.factor([before, ref])
            for name, (ns, _) in tracer.self_times(t.spans()).items():
                norm[ROWS[name]] += ns * 1e-9 * f
    return lines, norm


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=3, help="timed passes (default 3)")
    parser.add_argument("--seed", type=int, default=1, help="sigma3-stride seed (default 1)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    w = workloads.Sigma3Stride(args.seed, None)
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {speed.bench_cpu()})
    try:
        lines, _ = run_records(w)
        expected = checks.digest(lines)
        if args.seed == checks.SIGMA3_DEFAULT_SEED and expected != checks.SIGMA3_SEED1_SHA256:
            print("records differ from the stored digest for the default seed")
            return 1
        runs = [run_records(w, timed=True) for _ in range(args.passes)]
    finally:
        os.sched_setaffinity(0, allowed)
    if any(checks.digest(lines) != expected for lines, _ in runs):
        print("timed records differ from the workload's")
        return 1
    n = len(w.indices) * args.passes
    per_record = {row: sum(norm[row] for _, norm in runs) / n * 1e3 for row in ROWS.values()}
    total = sum(per_record.values())
    print(f"sigma3-stride seed {args.seed}, {len(w.indices)} records x {args.passes} passes, "
          f"Python {platform.python_version()}, {len(allowed)} cores; times normalised")
    print(f"{'step':<30}{'ms/record':>10}{'share':>8}")
    for row, ms in per_record.items():
        print(f"{row:<30}{ms:>10.4f}{ms / total:>8.1%}")
    print(f"{'total':<30}{total:>10.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
