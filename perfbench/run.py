"""Run one fanbranch benchmark workload and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  With `--trace 0` the workload's passes repeat, untraced, while the
time allows (at least one), and the end-to-end metrics are reported.  With
`--trace 1` one untraced and one traced pass run over the same inputs and
the per-layer metrics are reported.  The last line of standard output is
the result as one JSON object; the exit code is 1 if any output was wrong
and 2 if the benchmark could not run at all.

Times are reported normalised to a reference host speed (`speed.py`); the
facts line before the result holds them as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from dataclasses import dataclass
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
RUNG_TAGS = ("pullbacks-only", "matched-pattern", "wedge-of-pullbacks", "nontrivial")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "rate_per_s": "1/s",
    "call_ms_p50": "ms",
    "call_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Context:
    out_dir: str
    env: dict
    probe: str


def load_package() -> None:
    """Import fanbranch from this checkout's source and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fanbranch", "__init__.py")):
        raise BenchError(f"no fanbranch package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    import fanbranch

    if not os.path.abspath(fanbranch.__file__).startswith(SRC + os.sep):
        raise BenchError(f"fanbranch imported from {fanbranch.__file__}, not {SRC}")


def measure_setup(cls, ctx: Context) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters doing the workload's set-up, on the
    benchmark's CPU between reference runs: (normalised, as measured)."""
    import speed
    from workloads import run_child

    times, refs = [], [speed.reference_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        done = run_child(cls.setup_argv(ctx), ctx.env, SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        refs.append(speed.reference_s())
        if done.returncode != 0:
            raise BenchError(f"set-up exited {done.returncode}: {done.stderr.strip()[-300:]}")
    factors = speed.stretch_factors(refs)
    return [t * f for t, f in zip(times, factors)], times


def run_passes(workload, seconds: float) -> list:
    """Passes until another one of average length would overrun `seconds`."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def time_metrics(passes, setup_times, norm: bool) -> dict:
    from measure import tail_percentile

    prefix = "norm_" if norm else ""
    walls = [getattr(p, prefix + "wall_s") for p in passes]
    calls = [x for p in passes for x in getattr(p, prefix + "latencies_ms")]
    return {
        "setup_s": median(setup_times),
        "wall_s": median(walls),
        "cpu_s": median([getattr(p, prefix + "cpu_s") for p in passes]),
        "rate_per_s": median([p.attempted / w for p, w in zip(passes, walls)]),
        "call_ms_p50": median(calls),
        "call_ms_tail": tail_percentile(calls)[1],
    }


def end_to_end(passes, setup, peak_rss_mb) -> tuple[dict, dict]:
    """The end-to-end metrics, normalised, and the facts behind them: sample
    counts and the same metrics as measured."""
    from measure import tail_percentile

    norm_setup, raw_setup = setup
    values = time_metrics(passes, norm_setup, True)
    values["peak_rss_mb"] = peak_rss_mb
    samples = {
        "passes": len(passes),
        "setup_runs": len(norm_setup),
        "calls": sum(len(p.latencies_ms) for p in passes),
        "call_ms_tail_percentile": tail_percentile(
            [x for p in passes for x in p.latencies_ms])[0],
        "items_per_pass": passes[0].attempted,
        "reference_runs": sum(len(p.refs) for p in passes) + len(raw_setup) + 1,
        "pass_wall_s": [p.wall_s for p in passes],
        "pass_norm_wall_s": [p.norm_wall_s for p in passes],
        "as_measured": time_metrics(passes, raw_setup, False),
    }
    return values, samples


def per_layer(tracer, untraced, traced) -> dict:
    """Per-item self time and calls of every traced function, the rung
    counts, and how much of the traced time the spans explain."""
    from tracer import self_times, traced_names

    items = traced.attempted
    totals = self_times(tracer.spans())
    metrics = {}
    for name in traced_names():
        if name in tracer.absent:
            continue
        self_ns, calls = totals.get(name, (0, 0))
        metrics[f"{name}.self_ms"] = (self_ns / 1e6 / items, "ms/item")
        metrics[f"{name}.calls"] = (calls / items, "calls/item")
    for tag in RUNG_TAGS:
        metrics[f"pl_group.rung.{tag}"] = (traced.rungs[tag], "count")
    wall_ns = traced.wall_s * 1e9
    metrics["trace.wall_ms"] = (wall_ns / 1e6 / items, "ms/item")
    metrics["trace.untraced_ms"] = ((wall_ns - tracer.root_ns()) / 1e6 / items, "ms/item")
    metrics["trace.overhead_ratio"] = (traced.norm_wall_s / untraced.norm_wall_s, "ratio")
    return metrics


def run(args) -> int:
    load_package()
    import measure
    import speed
    import workloads
    from tracer import Tracer

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        raise BenchError(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=SRC)
    ctx = Context(OUT_DIR, env, os.path.join(HERE, "setup_probe.py"))

    facts = {"workload": cls.name, "seed": args.seed, "seconds": args.seconds,
             "trace": args.trace, **measure.machine_facts(ROOT)}
    # In-process work and its reference runs share one CPU; a sweep's worker
    # processes get them all back once set-up has been timed.
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {speed.bench_cpu()})
    facts["bench_cpu"] = speed.bench_cpu()
    if args.trace:
        workload = cls(args.seed, ctx)
        untraced = workload.traceable_pass()
        tracer = Tracer()
        tracer.install()
        try:
            traced = workload.traceable_pass()
        finally:
            tracer.uninstall()
        spans_path = os.path.join(OUT_DIR, f"spans-{cls.name}-seed{args.seed}.json")
        tracer.write(spans_path)
        passes = [untraced, traced]
        metrics = per_layer(tracer, untraced, traced)
        if untraced.rungs != traced.rungs:
            traced.fail_all(f"rung counts differ with tracing: {dict(untraced.rungs)} "
                            f"vs {dict(traced.rungs)}")
        facts.update(spans=os.path.relpath(spans_path, ROOT), spans_recorded=len(tracer.start),
                     absent=tracer.absent,
                     pass_wall_s=[untraced.wall_s, traced.wall_s],
                     pass_norm_wall_s=[untraced.norm_wall_s, traced.norm_wall_s])
    else:
        setup = measure_setup(cls, ctx)
        if cls.CHILD_PROCESSES:
            os.sched_setaffinity(0, allowed)
        workload = cls(args.seed, ctx)
        passes = run_passes(workload, args.seconds)
        who = resource.RUSAGE_CHILDREN if cls.CHILD_PROCESSES else resource.RUSAGE_SELF
        peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
        values, samples = end_to_end(passes, setup, peak_rss_mb)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
        facts["samples"] = samples

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    facts["failed_ratio"] = failed / attempted
    facts["errors"] = [e for p in passes for e in p.errors][:workloads.MAX_ERRORS]
    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}", file=sys.stderr)
    for error in facts["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    print(json.dumps({"facts": facts}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
