"""The traced-run gate of `scripts/bench.py`: a traced perfbench run counts
only if its last two lines are strict-JSON facts and a correct result with
exactly the benchmark's per-layer metrics and no traced function absent.
`test_every_traced_name_is_present` checks the absent list ahead of any
run: every name that `perfbench/tracer.py` traces must exist in the loaded
package.  Later tests check the bytecode state the report records, the
sweep cache pins, the timed sweep rows, and the regression verdict of each
end-to-end metric against its bound, on synthetic runs."""

import importlib
import importlib.util
import json
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import fanbranch

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def output(metrics=None, correct=True, absent=(), tail=""):
    metrics = {name: {"value": 0.5, "unit": "ms/item"} for name in PER_LAYER} \
        if metrics is None else metrics
    facts = json.dumps({"facts": {"workload": "sigma3-stride", "absent": list(absent)}})
    result = json.dumps({"correct": correct, "attempted": 6000, "failed": 0, "metrics": metrics})
    return f"{facts}\n{result}\n{tail}"


def test_a_whole_result_passes():
    assert len(PER_LAYER) == 77
    assert bench.traced_problems(output(), PER_LAYER) == []


def test_nan_and_infinity_refused():
    for constant in ("NaN", "Infinity", "-Infinity"):
        text = output().replace('"value": 0.5', f'"value": {constant}', 1)
        assert "not a facts line and a result" in bench.traced_problems(text, PER_LAYER)[0]
        with pytest.raises(ValueError, match="not strict JSON"):
            bench.strict_json(f'{{"x": {constant}}}')


@pytest.mark.parametrize("case", ["stray line", "cut", "missing metric", "extra metric",
                                  "absent", "not correct"])
def test_each_fault_refused(case):
    metrics = {name: {"value": 1, "unit": "count"} for name in PER_LAYER}
    if case == "stray line":
        text = output(tail="done\n")
    elif case == "cut":
        text = output().splitlines()[0]
    elif case == "missing metric":
        del metrics[PER_LAYER[0]]
        text = output(metrics)
    elif case == "extra metric":
        metrics["pl_group.split_triviality.calls"] = {"value": 1, "unit": "calls/item"}
        text = output(metrics)
    elif case == "absent":
        text = output(absent=["pl_group.wedge_summands"])
    else:
        text = output(correct=False)
    assert bench.traced_problems(text, PER_LAYER) != []


def test_every_traced_name_is_present():
    """The tracer finds every function that `TRACED` names once all
    `fanbranch` modules are loaded; a renamed or deleted one would make a
    traced run report it absent, and the traced-run gate refuse that run."""
    for info in pkgutil.iter_modules(fanbranch.__path__):
        importlib.import_module(f"fanbranch.{info.name}")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    try:
        tracer.install()
        assert tracer.absent == []
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("setting, off", [(None, False), ("", False), ("1", True), ("x", True)])
def test_bytecode_state(tmp_path, monkeypatch, setting, off):
    """The report records whether bytecode writing is off, as Python reads
    PYTHONDONTWRITEBYTECODE (set and not empty), and which checkouts hold
    compiled bytecode of the package."""
    sides = {"parent": tmp_path / "parent", "change": tmp_path / "change"}
    for path in sides.values():
        (path / "src" / "fanbranch").mkdir(parents=True)
    (sides["change"] / "src" / "fanbranch" / "__pycache__").mkdir()
    if setting is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", setting)
    assert bench.bytecode_state(sides) == {"write_off": off,
                                           "pycache": {"parent": False, "change": True}}


def test_sweep_pins_are_the_roadmap_digests(monkeypatch):
    """`SWEEP_PINS` holds exactly the three cache pins that ROADMAP.md
    names (abbreviated there as the first 8 and last 4 hex digits), and the
    eikelberg degree-3 pin is the one the benchmark checks."""
    spec = importlib.util.spec_from_file_location("perfbench_checks", ROOT / "perfbench" / "checks.py")
    checks = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, checks)  # its dataclasses look it up
    spec.loader.exec_module(checks)
    text = " ".join((ROOT / "ROADMAP.md").read_text().split())
    named = re.search(r"The pins are fulton degree 2 `(\w+)…(\w+)`, eikelberg degree 3 "
                      r"`(\w+)…(\w+)` and `sigma_prime` degree 3 `(\w+)…(\w+)`", text)
    assert named is not None
    digests = dict(zip([("fulton", 2), ("eikelberg", 3), ("sigma_prime", 3)],
                       zip(named.groups()[::2], named.groups()[1::2])))
    assert set(bench.SWEEP_PINS) == set(digests)
    for key, (head, tail) in digests.items():
        pin = bench.SWEEP_PINS[key]
        assert re.fullmatch(r"[0-9a-f]{64}", pin) and pin.startswith(head) and pin.endswith(tail)
    assert bench.SWEEP_PINS["eikelberg", 3] == checks.EIKELBERG3.sha256


def test_every_sweep_row_names_a_pinned_cache():
    """Each timed sweep is checked against its cache pin, and the pin holds
    at any worker count, so every row's fan and degree must have one; the
    criterion-5 sweep is timed with one worker beside two."""
    assert all((fan, degree) in bench.SWEEP_PINS for fan, degree, _ in bench.SWEEPS)
    assert {(fan, degree) for fan, degree, _ in bench.SWEEPS} == set(bench.SWEEP_PINS)
    assert len(set(bench.SWEEPS)) == len(bench.SWEEPS)
    assert {("sigma_prime", 3, 1), ("sigma_prime", 3, 2)} <= set(bench.SWEEPS)


END_TO_END = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


def runs(values, name="peak_rss_mb"):
    return [{name: v} for v in values]


@pytest.mark.parametrize("parent, change, verdict", [
    # quartiles 33.0-33.2 MB, bound 10% of 33.1: a 1 MB rise is none, a 4 MB one worse
    ([33.0, 33.1, 33.2] * 3 + [33.1], [34.0, 34.1, 34.2] * 3 + [34.1], "none"),
    ([33.0, 33.1, 33.2] * 3 + [33.1], [37.0, 37.1, 37.2] * 3 + [37.1], "worse"),
    # the parent's quartiles, 30-36 MB, lie further apart than 10% of its median
    ([28.0, 30.0, 36.0, 38.0] * 2 + [33.0, 33.0], [30.0, 32.0, 34.0, 36.0] * 2 + [33.0, 33.0],
     "unresolved"),
    # as wide, but every change run is lower than every parent run
    ([40.0, 44.0, 48.0, 52.0] * 2 + [46.0, 46.0], [30.0, 32.0, 34.0, 36.0] * 2 + [33.0, 33.0],
     "none"),
], ids=["within-bound", "worse", "unresolved", "wide-but-every-run-better"])
def test_regression_verdict(parent, change, verdict):
    """`compare` records the regression verdict against the metric's bound
    in `BENCHMARK.json`: 10% for `peak_rss_mb`."""
    got = bench.compare(runs(parent), runs(change), {"peak_rss_mb": END_TO_END["peak_rss_mb"]})
    assert got["peak_rss_mb"]["bound"] == 0.1
    assert got["peak_rss_mb"]["regression"] == verdict


def test_regression_follows_the_direction_of_better():
    """A rate that falls by more than its 25% bound is worse; one that rises
    as much is not."""
    rate = {"rate_per_s": END_TO_END["rate_per_s"]}
    parent = runs([2500.0, 2510.0, 2490.0] * 3 + [2500.0], "rate_per_s")
    lower = runs([1800.0, 1810.0, 1790.0] * 3 + [1800.0], "rate_per_s")
    higher = runs([3300.0, 3310.0, 3290.0] * 3 + [3300.0], "rate_per_s")
    assert bench.compare(parent, lower, rate)["rate_per_s"]["regression"] == "worse"
    assert bench.compare(parent, higher, rate)["rate_per_s"]["regression"] == "none"
    assert bench.compare(parent, higher, rate)["rate_per_s"]["gain_rule_met"]


def test_regression_line_names_worse_and_unresolved_metrics():
    compared = {"wall_s": {"regression": "worse"}, "cpu_s": {"regression": "none"},
                "peak_rss_mb": {"regression": "unresolved"}, "setup_s": {"regression": "worse"}}
    assert bench.regression_line("sigma3-stride:1", compared) == (
        "sigma3-stride:1 regression: worse wall_s, setup_s; unresolved peak_rss_mb")
    assert bench.regression_line("library-mix:1", {"wall_s": {"regression": "none"}}) == (
        "library-mix:1 regression: worse none; unresolved none")
