"""What a sweep record builds, and what it leaves on its fan.

`SweepRecord.to_json` writes a record's line directly; the tests hold it to
`json.dumps` with sorted keys and no spaces on every record of full sweeps,
on the benchmark's `sigma3-stride` sample and on hand-made records.  A
record that stops below the pattern rung builds no per-cone orbit table
(`RayOrbits.at`).  A fan that records have read, and a bundle on such a
fan, still deep-copy and pickle, and the copy gives the same records.
"""

import copy
import importlib
import json
import pickle
from dataclasses import fields
from pathlib import Path

import pytest

from fanbranch.cli import _VERDICT_CERTS, SweepRecord, evaluate_assignment, run_sweep
from fanbranch.fan_core import load_fan
from fanbranch.klyachko import load_bundle, verify
from fanbranch.monodromy import _record_tables, count_assignments, orbits_at, spanning_tree
from fanbranch.pl_group import split_triviality

ROOT = Path(__file__).resolve().parents[1]

# The benchmark's `sigma3-stride` workload and its stored digest, read from
# `perfbench/` unchanged.
with pytest.MonkeyPatch.context() as mp:
    mp.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")


def dumps_line(rec: SweepRecord) -> str:
    """The record's line as `json.dumps` writes it."""
    return json.dumps({f.name: getattr(rec, f.name) for f in fields(rec)},
                      sort_keys=True, separators=(",", ":"))


def _swept(name, d):
    fan = load_fan(name)
    tree = spanning_tree(fan)
    return [evaluate_assignment(fan, tree, d, i) for i in range(count_assignments(fan, d))]


def _sigma3_stride():
    w = workloads.Sigma3Stride(checks.SIGMA3_DEFAULT_SEED, None)
    records = [w._record(w.fan, w.tree, w.DEGREE, i)[0] for i in w.indices]
    assert checks.digest(map(dumps_line, records)) == checks.SIGMA3_SEED1_SHA256
    return records


def _hand_made():
    """Empty branch rays at degree 1, and a two-digit dim_pl over an index
    of seven digits, with each (verdict, cert) pair a record may hold."""
    for verdict, cert in _VERDICT_CERTS:
        yield SweepRecord(0, [], [[1], [1], [1]], 3, verdict, cert)
        yield SweepRecord(1234567, [0, 2, 10], [[2, 1], [3], [1, 1, 1]], 12, verdict, cert)


RECORDS = {
    "eikelberg-3-all": lambda: _swept("eikelberg", 3),
    "fulton-2-all": lambda: _swept("fulton", 2),
    "sigma3-stride-seed1": _sigma3_stride,
    "hand-made": lambda: list(_hand_made()),
}


@pytest.mark.parametrize("case", list(RECORDS))
def test_line_equals_json_dumps(case):
    records = RECORDS[case]()
    assert records
    for rec in records:
        assert rec.to_json() == dumps_line(rec), rec


def test_only_the_pattern_rung_builds_the_cone_orbits():
    """On every eikelberg degree-3 index, a record builds `at` exactly when
    it reaches the pattern rung; both kinds occur."""
    fan = load_fan("eikelberg")
    tree = spanning_tree(fan)
    built = {}
    for i in range(count_assignments(fan, 3)):
        orbits = orbits_at(fan, 3, i, tree)
        tag = split_triviality(fan, orbits).tag
        built.setdefault(tag, set()).add("at" in vars(orbits))
    assert built["pullbacks-only"] == built["wedge-of-pullbacks"] == {False}
    assert built["matched-pattern"] == {True}


CLONES = {"deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("clone", list(CLONES))
def test_swept_fan_copies_and_pickles(clone):
    """A fan after a whole sweep copies without its record tables, and the
    copy's records are the original's."""
    fan = load_fan("fulton")
    run_sweep(fan, 2)
    got = CLONES[clone](fan)
    assert _record_tables in fan._derived and not got._derived
    lines = [[evaluate_assignment(f, spanning_tree(f), 2, i).to_json() for i in range(128)]
             for f in (fan, got)]
    assert lines[1] == lines[0]


@pytest.mark.parametrize("clone", list(CLONES))
def test_bundle_on_a_swept_fan_copies_and_pickles(clone):
    data, cert = load_bundle("eikelberg")
    tree = spanning_tree(data.fan)
    lines = [evaluate_assignment(data.fan, tree, 3, i).to_json() for i in range(0, 7776, 97)]
    got_data, got_cert = CLONES[clone]((data, cert))
    assert got_data.filtrations == data.filtrations
    assert verify(got_data, got_cert) == verify(data, cert)
    got_tree = spanning_tree(got_data.fan)
    assert [evaluate_assignment(got_data.fan, got_tree, 3, i).to_json()
            for i in range(0, 7776, 97)] == lines
