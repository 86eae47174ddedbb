#!/usr/bin/env python3
"""Record end-to-end figures of this checkout against a parent checkout.

First it gates the change's traced runs: one `--trace 1` run per workload,
which must end in a facts line and a result that parse as strict JSON (no
NaN or infinities), with `correct` true, exactly the per-layer metrics that
`BENCHMARK.json` lists and no traced function reported absent; otherwise it
exits with code 1.  Then, for each side, in alternating order, it times
the fulton degree-2, eikelberg degree-3 and full sigma_prime degree-3
sweeps through the CLI at --jobs 2, and the eikelberg and sigma_prime ones
again at --jobs 1 as the one-worker baseline, which shows whether the pool
pays for a small sweep and for the large one (wall seconds, cache sha256,
summary counts), and exits with code 1 as soon as a cache's sha256 differs
from its pin; then it runs ten alternating pairs of perfbench runs per
workload and seed.  It writes
one JSON file: core count, Python version and both commits; whether
bytecode writing is off and whether each checkout held compiled bytecode
before any run (with writing off and no bytecode, every interpreter
compiles the package, which shows in `setup_s`); the sweep figures; and for
each workload and seed, every run's end-to-end metrics and operations
attempted, with each side's median and quartiles, the change's wins per
metric, whether the gain rule holds (wins in at least nine tenths of
the pairs and a median difference larger than the parent's quartile
distance), and the regression verdict against the metric's `bound` in
`BENCHMARK.json` (see `regression`), which it also prints to standard
error, one line per workload and seed.

Run from the root of the change's checkout; the parent is a second checkout
(a `git clone` at the parent commit):

    python3 scripts/bench.py --parent ../parent --out BENCH.json
    python3 scripts/bench.py --parent ../parent --out BENCH.json \\
        --runs eikelberg3-full:1 eikelberg3-full:7 sigma3-stride:1 library-mix:1
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
# sha256 of each sweep's cache, the same for every worker count and commit
SWEEP_PINS = {
    ("fulton", 2): "00a001fde95114f980c5b978f9f16d5b65d52a2b3bd864417dd79b09116087d9",
    ("eikelberg", 3): "536b3f7efd36972ef2b49d3f278a06b97fa13243777a84e8287e434ca25d7779",
    ("sigma_prime", 3): "bcc117809b5034804373d7ac9a7e55e77f9f0889591382a03351ad37169b9018",
}
# (fan, degree, --jobs) of each timed sweep: every pinned sweep with two
# workers, and the benchmark's eikelberg sweep and the criterion-5 sweep
# with one beside it
SWEEPS = [("fulton", 2, 2), ("eikelberg", 3, 2), ("eikelberg", 3, 1), ("sigma_prime", 3, 2),
          ("sigma_prime", 3, 1)]
SWEEP_PAIRS = 2
BENCH_PAIRS = 10
BENCH_SECONDS = 20


def commit(checkout: Path) -> str | None:
    """HEAD of a git checkout, with `-dirty` when tracked files differ."""
    try:
        head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(checkout), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty else "")


def clean_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.pop("FANBRANCH_JOBS", None)
    return env


def bytecode_state(sides: dict) -> dict:
    """Whether the runs' environment turns bytecode writing off
    (PYTHONDONTWRITEBYTECODE set and not empty, as Python reads it) and,
    per side, whether its checkout holds `src/fanbranch/__pycache__`."""
    return {"write_off": bool(clean_env().get("PYTHONDONTWRITEBYTECODE")),
            "pycache": {side: (path / "src" / "fanbranch" / "__pycache__").is_dir()
                        for side, path in sides.items()}}


def time_sweep(checkout: Path, fan: str, degree: int, jobs: int, scratch: str) -> dict:
    cache = os.path.join(scratch, f"{fan}-{degree}.jsonl")
    if os.path.exists(cache):
        os.remove(cache)
    env = clean_env()
    env["PYTHONPATH"] = str(checkout / "src")
    argv = [sys.executable, "-m", "fanbranch.cli", "pl", "sweep", fan, "-d", str(degree),
            "--jobs", str(jobs), "--cache", cache]
    t0 = time.perf_counter()
    done = subprocess.run(argv, env=env, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: {' '.join(argv[3:])} exited {done.returncode}:\n"
                         f"{done.stderr[-2000:]}")
    # Hash in blocks: a child started later inherits this process's peak RSS
    # (Linux keeps the high-water mark across vfork and exec), and a whole
    # criterion-5 cache in memory would set the peak_rss_mb of every
    # in-process perfbench run.
    sha = hashlib.sha256()
    with open(cache, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    digest = sha.hexdigest()
    os.remove(cache)
    if digest != SWEEP_PINS[fan, degree]:
        raise SystemExit(f"{checkout}: {fan} -d {degree} wrote a cache with sha256 "
                         f"{digest}, not its pin {SWEEP_PINS[fan, degree]}")
    counts = next(x for x in done.stdout.splitlines() if x.startswith("dim > 3 records:"))
    return {"wall_s": round(wall, 2), "sha256": digest, "counts": counts}


def perfbench(checkout: Path, workload: str, seed: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH_SECONDS), "--trace", "0"]
    done = subprocess.run(argv, env=clean_env(), cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: perfbench {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: perfbench {workload} seed {seed} was not correct: "
                         f"{lines[-2] if len(lines) > 1 else lines[-1]}")
    # operations attempted: a workload's pass count, which peak_rss_mb grows with
    return {"attempted": result["attempted"],
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def strict_json(text: str):
    """`json.loads` refusing the NaN and infinities that strict JSON lacks."""
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")

    return json.loads(text, parse_constant=refuse)


def traced_problems(stdout: str, per_layer: list[str]) -> list[str]:
    """What is wrong with the standard output of a traced perfbench run: its
    last two lines must be the facts, with no traced function `absent`, and
    a correct result holding exactly the `per_layer` metric names."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        return ["no facts line and result"]
    try:
        facts = strict_json(lines[-2])["facts"]
        result = strict_json(lines[-1])
        names = sorted(result["metrics"])
        correct, absent = result["correct"], facts["absent"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"the last two lines are not a facts line and a result: {exc!r}"]
    problems = [] if correct is True else ["the result is not correct"]
    if names != sorted(per_layer):
        problems.append(f"metrics missing {sorted(set(per_layer) - set(names))}, "
                        f"extra {sorted(set(names) - set(per_layer))}")
    if absent != []:
        problems.append(f"traced functions absent: {absent}")
    return problems


def traced_gate(checkout: Path, workload: str, seed: int, per_layer: list[str]) -> None:
    """Run the workload traced once and exit with code 1 on any problem."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(BENCH_SECONDS), "--trace", "1"]
    done = subprocess.run(argv, env=clean_env(), cwd=checkout, capture_output=True, text=True)
    problems = traced_problems(done.stdout, per_layer)
    if done.returncode != 0:
        problems.insert(0, f"exited {done.returncode}: {done.stderr[-2000:]}")
    if problems:
        raise SystemExit(f"{checkout}: traced perfbench {workload} seed {seed}: "
                         + "; ".join(problems))
    print(f"traced {workload} seed {seed}: {len(per_layer)} per-layer metrics, none absent",
          file=sys.stderr)


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def regression(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The regression verdict on one metric, `bound` being the fraction of
    the parent's median by which it may worsen: `worse` when the change's
    median is worse than the parent's by more than that; `unresolved` when
    the parent's own quartile distance exceeds it, unless every change run
    beats every parent run; otherwise `none`."""
    sign = 1 if better == "higher" else -1
    ps, cs = spread(parent), spread(change)
    allowed = bound * abs(ps["median"])
    if sign * (ps["median"] - cs["median"]) > allowed:
        return "worse"
    if ps["q3"] - ps["q1"] > allowed and not all(sign * (b - a) > 0
                                                 for a in parent for b in change):
        return "unresolved"
    return "none"


def compare(parent: list[dict], change: list[dict], metrics: dict) -> dict:
    """Per metric of `metrics` (name -> its `BENCHMARK.json` entry): each
    side's median and quartiles, the change's wins over the pairs (ties
    count for neither), whether the gain rule holds, and the regression
    verdict."""
    out = {}
    for name, metric in metrics.items():
        p = [run[name] for run in parent]
        c = [run[name] for run in change]
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        ps, cs = spread(p), spread(c)
        gain = sign * (cs["median"] - ps["median"])
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_wins": wins,
            "pairs": len(p),
            "change_over_parent": round(cs["median"] / ps["median"], 4) if ps["median"] else None,
            "gain_rule_met": wins >= 0.9 * len(p) and gain > ps["q3"] - ps["q1"],
            "bound": metric["bound"],
            "regression": regression(p, c, metric["better"], metric["bound"]),
        }
    return out


def regression_line(item: str, compared: dict) -> str:
    """One line naming the metrics of an item that are worse or unresolved."""
    named = {verdict: [name for name, m in compared.items() if m["regression"] == verdict]
             for verdict in ("worse", "unresolved")}
    return f"{item} regression: " + "; ".join(f"{verdict} {', '.join(names) or 'none'}"
                                              for verdict, names in named.items())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--runs", nargs="+", default=["eikelberg3-full:1", "sigma3-stride:1",
                                                       "library-mix:1"],
                        help="perfbench workload:seed items")
    args = parser.parse_args()
    sides = {"parent": args.parent.resolve(), "change": CHANGE}
    for path in sides.values():
        if not (path / "src" / "fanbranch").is_dir() or not (path / "perfbench").is_dir():
            parser.error(f"{path} holds no src/fanbranch and perfbench/")
    bytecode = bytecode_state(sides)  # before the first run can compile anything
    benchmark = json.loads((CHANGE / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m for m in benchmark["end_to_end"]}
    items = [(workload, int(seed or 1))
             for workload, _, seed in (item.partition(":") for item in args.runs)]
    gated: dict = {}
    for workload, seed in items:
        gated.setdefault(workload, seed)
    for workload, seed in gated.items():
        traced_gate(CHANGE, workload, seed, [m["name"] for m in benchmark["per_layer"]])

    report = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "perfbench_seconds": BENCH_SECONDS,
        "commits": {side: commit(path) for side, path in sides.items()},
        "bytecode": bytecode,
        "sweeps": {},
        "perfbench": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for fan, degree, jobs in SWEEPS:
            runs = {"parent": [], "change": []}
            for k in range(SWEEP_PAIRS):
                for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                    runs[side].append(time_sweep(sides[side], fan, degree, jobs, scratch))
                    print(f"{fan} -d {degree} --jobs {jobs} {side}: {runs[side][-1]}",
                          file=sys.stderr)
            report["sweeps"][f"{fan} -d {degree} --jobs {jobs}"] = {
                side: {"wall_s": [r["wall_s"] for r in got],
                       "median_wall_s": statistics.median(r["wall_s"] for r in got),
                       "sha256": sorted({r["sha256"] for r in got}),
                       "counts": sorted({r["counts"] for r in got})}
                for side, got in runs.items()
            }
    for item, (workload, seed) in zip(args.runs, items):
        runs = {"parent": [], "change": []}
        for k in range(BENCH_PAIRS):
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                runs[side].append(perfbench(sides[side], workload, seed))
            print(f"{item} pair {k + 1}: rate_per_s {runs['parent'][-1]['rate_per_s']:.4g} -> "
                  f"{runs['change'][-1]['rate_per_s']:.4g}", file=sys.stderr)
        compared = compare(runs["parent"], runs["change"], end_to_end)
        report["perfbench"][item] = {"runs": runs, "metrics": compared}
        print(regression_line(item, compared), file=sys.stderr)
        args.out.write_text(json.dumps(report, indent=1) + "\n")  # after each item


if __name__ == "__main__":
    main()
