"""Sweep records shared across a conjugacy class of assignments.

A sweep evaluates one record per class, at the class's smallest index, and
writes it for every index of the class (simultaneous conjugates give
isomorphic covers).  The digest pins the full eikelberg degree-3 cache as
the sweep wrote it when every record was solved.
"""

import hashlib
import json
import multiprocessing
import shutil
from functools import lru_cache

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fanbranch import cli
from fanbranch.cli import evaluate_assignment, main, run_sweep, sidecar_path
from fanbranch.fan_core import load_fan
from fanbranch.monodromy import (
    MonodromyAssignment,
    Permutation,
    all_permutations,
    assignment_at,
    canonical_class,
    class_representatives,
    count_assignments,
    spanning_tree,
)

EIKELBERG_DEG3_CACHE_SHA256 = "536b3f7efd36972ef2b49d3f278a06b97fa13243777a84e8287e434ca25d7779"
EIKELBERG_DEG3_HIGH_DIM = 1840


@lru_cache(maxsize=None)
def _fan(name):
    fan = load_fan(name)
    return fan, spanning_tree(fan)


def _sweep(cache, jobs, *extra):
    result = CliRunner().invoke(
        main,
        ["pl", "sweep", "eikelberg", "-d", "3", "--jobs", str(jobs), "--cache", str(cache),
         *extra],
    )
    assert result.exit_code == 0, result.output
    return result.output


def _class_line(output) -> tuple[int, int, int]:
    line = next(x for x in output.splitlines() if x.startswith("dim > 3 records: "))
    fields = dict(part.split(": ") for part in line.split(", "))
    return (int(fields["dim > 3 records"]), int(fields["solved"]), int(fields["reused"]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_eikelberg_degree3_cache_pinned(tmp_path, jobs):
    """The shared records leave the cache byte for byte as it was; each
    class of dim > 3 records is solved once at any --jobs, and the counts
    reach stdout only."""
    cache = tmp_path / "eik3.jsonl"
    output = _sweep(cache, jobs)
    data = cache.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EIKELBERG_DEG3_CACHE_SHA256
    assert b"solved" not in data and b"reused" not in data
    assert not cli._WORKER_STATE
    fan, tree = _fan("eikelberg")
    classes = {
        tuple(p.images for p in canonical_class(assignment_at(fan, 3, rec["index"], tree)).perms)
        for rec in map(json.loads, data.decode().splitlines())
        if rec["dim_pl"] > 3
    }
    high_dim, solved, reused = _class_line(output)
    assert high_dim == EIKELBERG_DEG3_HIGH_DIM and solved + reused == high_dim
    assert solved == len(classes) == 333


def test_resume_starts_a_fresh_memo(tmp_path):
    """A resumed sweep writes the same bytes, counts the records of dim > 3
    over the whole cache, and solves only the classes of its own records."""
    cache = tmp_path / "eik3.jsonl"
    _sweep(cache, 2)
    data = cache.read_bytes()
    lines = data.split(b"\n")
    cut = sum(len(x) + 1 for x in lines[:5000])
    cache.write_bytes(data[:cut])
    rep = class_representatives(3, _fan("eikelberg")[1].generators)
    classes_left = {rep[i] for i, x in enumerate(lines[5000:], 5000)
                    if x and json.loads(x)["dim_pl"] > 3}
    output = _sweep(cache, 2, "--resume")
    assert cache.read_bytes() == data
    high_dim = EIKELBERG_DEG3_HIGH_DIM
    assert _class_line(output) == (high_dim, len(classes_left), high_dim - len(classes_left))


def _summary(output) -> list[str]:
    """The summary lines that hold counts over the whole cache."""
    return [x for x in output.splitlines()
            if x.startswith(("assignments processed", "verdicts:", "nontrivial findings", "  index "))]


def test_resume_at_an_index_whose_representative_is_cached(tmp_path):
    """A cut above its own class's representative re-evaluates that
    representative: the bytes, the dim > 3 records and the summary over the
    whole cache come out as in a fresh sweep, and only the classes of the
    records after the cut are solved."""
    fresh_cache = tmp_path / "fresh.jsonl"
    fresh = _sweep(fresh_cache, 2)
    data = fresh_cache.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EIKELBERG_DEG3_CACHE_SHA256
    records = [json.loads(x) for x in data.decode().splitlines()]
    _, tree = _fan("eikelberg")
    rep = class_representatives(3, tree.generators)
    cut = next(i for i in range(len(records) // 2, len(records))
               if rep[i] < i and records[i]["dim_pl"] > 3)
    cache = tmp_path / "resumed.jsonl"
    whole = sum(len(x) + 1 for x in data.split(b"\n")[:cut])
    cache.write_bytes(data[:whole + 25])  # torn 25 bytes into record `cut`
    shutil.copy(sidecar_path(str(fresh_cache)), sidecar_path(str(cache)))
    resumed = _sweep(cache, 2, "--resume")
    assert f"resuming: {cut} records already cached" in resumed
    assert cache.read_bytes() == data
    left = [rec["index"] for rec in records[cut:] if rec["dim_pl"] > 3]
    classes_left = len({rep[i] for i in left})
    high_dim = EIKELBERG_DEG3_HIGH_DIM
    assert _class_line(resumed) == (high_dim, classes_left, high_dim - classes_left)
    assert _summary(resumed) == _summary(fresh)
    assert len(_summary(fresh)) == 3 + 648


@pytest.mark.parametrize("name, d", [("fulton", 2), ("eikelberg", 3)])
def test_class_indexed_cache_equals_per_index_records(tmp_path, name, d):
    """Every line the sweep writes from its class's record is the line
    `evaluate_assignment` gives for that index on its own."""
    fan, _ = _fan(name)
    cache = tmp_path / "sweep.jsonl"
    run_sweep(fan, d, jobs=2, cache_path=str(cache))
    cases = [(name, d, i) for i in range(count_assignments(fan, d))]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        reference = pool.map(_per_index_line, cases, chunksize=256)
    assert cache.read_text() == "".join(reference)


def _per_index_line(case) -> str:
    name, d, index = case
    fan, tree = _fan(name)
    return evaluate_assignment(fan, tree, d, index).to_json() + "\n"


def _index_of(a: MonodromyAssignment) -> int:
    position = {p.images: k for k, p in enumerate(all_permutations(a.degree))}
    index = 0
    for p in a.perms:
        index = index * len(position) + position[p.images]
    return index


@pytest.mark.parametrize("name, d", [("fulton", 2), ("eikelberg", 3)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_conjugate_records_agree_but_for_index(name, d, data):
    """The records of a and of a^g agree on every field but `index`: the
    invariance that sharing a record across a class rests on."""
    fan, tree = _fan(name)
    index = data.draw(st.integers(0, count_assignments(fan, d) - 1), label="index")
    g = Permutation(data.draw(st.permutations(range(d)), label="g"))
    a = assignment_at(fan, d, index, tree)
    conjugate = MonodromyAssignment(d, tuple(p.conjugate(g) for p in a.perms))
    other = _index_of(conjugate)
    assert assignment_at(fan, d, other, tree) == conjugate
    mine = json.loads(evaluate_assignment(fan, tree, d, index).to_json())
    theirs = json.loads(evaluate_assignment(fan, tree, d, other).to_json())
    event(f"dim {mine['dim_pl']}")
    assert mine.pop("index") == index and theirs.pop("index") == other
    assert mine == theirs
