#!/usr/bin/env python3
"""Where the time of a `library-mix` pass goes, by call type.

Runs passes of the benchmark's `library-mix` workload in process, with the
workload imported from `perfbench/workloads.py` and left unchanged, and
prints one row per type of timed call (`solve` split by its mode): calls
per pass, median ms, share of the pass's call time, and how many calls per
pass lie above the pass's p50 and p99 of all its calls (the p99 by the
nearest-rank rule).  Times are normalised to the reference host speed, as
perfbench reports them.  It exits with code 1 if a pass fails a check.

    python3 scripts/callmix.py --passes 8 --seed 1
"""

from __future__ import annotations

import argparse
import math
import os
import platform
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


@dataclass
class LabelledPass(workloads.Pass):
    """A pass that also records each timed call's type, in call order."""

    labels: list = field(default_factory=list)

    def timed(self, fn, *args):
        label = fn.__name__
        if label == "solve":
            label += " " + (args[1] if len(args) > 1 else "rational")
        self.labels.append(label)
        return super().timed(fn, *args)


def run_passes(seed: int, passes: int) -> list[LabelledPass]:
    mix = workloads.LibraryMix(seed, None)
    workloads.Pass = LabelledPass  # `run_pass` makes its pass by this name
    done = [mix.run_pass() for _ in range(passes)]
    for p in done:
        if p.failed:
            raise SystemExit(f"library-mix seed {seed}: {p.failed} calls failed: {p.errors}")
    return done


def percentiles(p: LabelledPass) -> tuple[float, float]:
    """(p50, p99) of a pass's normalised call times, the p99 by nearest rank."""
    ordered = sorted(p.norm_latencies_ms)
    return median(ordered), ordered[math.ceil(0.99 * len(ordered)) - 1]


def call_mix(done: list[LabelledPass]) -> dict[str, dict]:
    """Per call type: calls per pass, median ms, share of call time, and
    calls per pass above the pass's p50 and p99."""
    times: dict[str, list] = defaultdict(list)
    above: dict[str, list] = defaultdict(lambda: [0, 0])
    total = 0.0
    for p in done:
        ms = p.norm_latencies_ms
        p50, p99 = percentiles(p)
        total += sum(ms)
        for label, x in zip(p.labels, ms):
            times[label].append(x)
            above[label][0] += x > p50
            above[label][1] += x > p99
    n = len(done)
    return {label: {"calls": len(xs) / n, "median_ms": median(xs), "share": sum(xs) / total,
                    "above_p50": above[label][0] / n, "above_p99": above[label][1] / n}
            for label, xs in sorted(times.items(), key=lambda kv: -sum(kv[1]))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--passes", type=int, default=8, help="passes to run (default 8)")
    parser.add_argument("--seed", type=int, default=1, help="library-mix seed (default 1)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    done = run_passes(args.seed, args.passes)
    print(f"library-mix seed {args.seed}, {args.passes} passes, Python "
          f"{platform.python_version()}, {len(os.sched_getaffinity(0))} cores; "
          "times normalised, counts per pass")
    p50s, p99s = zip(*map(percentiles, done))
    print(f"median over passes: p50 {median(p50s):.4f} ms, p99 {median(p99s):.4f} ms")
    print(f"{'call':<26}{'calls':>7}{'median ms':>11}{'share':>8}{'>p50':>8}{'>p99':>7}")
    for label, row in call_mix(done).items():
        print(f"{label:<26}{row['calls']:>7.1f}{row['median_ms']:>11.4f}{row['share']:>8.1%}"
              f"{row['above_p50']:>8.1f}{row['above_p99']:>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
