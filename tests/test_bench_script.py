"""The traced-run gate of `scripts/bench.py`: a traced perfbench run counts
only if its last two lines are strict-JSON facts and a correct result with
exactly the benchmark's per-layer metrics and no traced function absent."""

import importlib.util
import json
from pathlib import Path

import pytest

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
