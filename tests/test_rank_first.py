"""Sweep records from the values-at-rays system against the reference path.

`evaluate_assignment` decides every record on the sheet-averaging split of
the system read off the monodromy, with no cover built (`test_sum_zero.py`
checks the split step by step); the reference path builds the cover and
runs `group_triviality` on it.  The digests pin the record bytes that the
cover-first sweep wrote before records were decided on the system.
"""

import hashlib
import json
import multiprocessing
import random
import time
from collections import Counter
from functools import lru_cache
from operator import mul

import pytest

from fanbranch import cli
from fanbranch.cli import SweepRecord, evaluate_assignment, run_sweep
from fanbranch.exact_linalg import rank_of_int_rows
from fanbranch.fan_core import load_fan, stellar_subdivision, wall_relation
from fanbranch.monodromy import (
    assignment_at,
    branch_rays,
    build_cover,
    count_assignments,
    orbits_at,
    ray_orbits,
    spanning_tree,
)
from fanbranch.pl_group import _max_cell_geometry, _pullback_z, group_triviality, ray_value_system

from conftest import ray_value_rows

FULTON_DEG2_CACHE_SHA256 = "00a001fde95114f980c5b978f9f16d5b65d52a2b3bd864417dd79b09116087d9"
EIKELBERG_DEG3_STRIDE8_SHA256 = "b8e414ae30a18902d845331fdd0ea92c1f96e3efffe8c5bfcbdd595c34043a59"


def _digest(lines) -> str:
    return hashlib.sha256("".join(x + "\n" for x in lines).encode()).hexdigest()


def reference_record(fan, tree, d, index) -> str:
    """The record from the cover: profile from its ray cells, verdict from
    `group_triviality`."""
    a = assignment_at(fan, d, index, tree)
    cover = build_cover(fan, a, tree)
    profile = [
        sorted((cover.cells[i].weight for i in cover.cells_over(fan.cone_id((ray,)))),
               reverse=True)
        for ray in range(len(fan.rays))
    ]
    v = group_triviality(cover)
    return SweepRecord(
        index=index,
        branch_rays=[ray for ray, weights in enumerate(profile) if weights[0] > 1],
        profile=profile,
        dim_pl=v.dim,
        verdict="AllTrivial" if v.all_trivial else "Nontrivial",
        cert=v.tag,
    ).to_json()


CASES = {
    "fulton-2-all": ("fulton", 2, 1),
    "eikelberg-3-every-8th": ("eikelberg", 3, 8),
}


@lru_cache(maxsize=None)
def sweep_case(case):
    """(fan, tree, degree, indices, record lines from the system) of a case."""
    name, d, step = CASES[case]
    fan = load_fan(name)
    tree = spanning_tree(fan)
    indices = range(0, count_assignments(fan, d), step)
    return fan, tree, d, indices, [evaluate_assignment(fan, tree, d, i).to_json() for i in indices]


@pytest.mark.parametrize("case", sorted(CASES))
def test_rank_first_records_equal_reference(case):
    fan, tree, d, indices, fast = sweep_case(case)
    assert fast == [reference_record(fan, tree, d, i) for i in indices]


@pytest.mark.parametrize("case", sorted(CASES))
def test_system_is_the_covers_entry_for_entry(case):
    fan, tree, d, indices, _ = sweep_case(case)
    for i in indices:
        a = assignment_at(fan, d, i, tree)
        system = ray_value_rows(fan, a, tree)
        cover = build_cover(fan, a, tree)
        rows, zvars = ray_value_system(cover)
        assert (system.rows, system.ncols) == (rows, len(zvars))
        # the same base cone, weight and columns per row block
        assert [c[1:] for c in system.cells] == [c[1:] for c in _max_cell_geometry(cover)]


def test_eikelberg_stride_digest_and_rungs():
    *_, fast = sweep_case("eikelberg-3-every-8th")
    assert len(fast) == 972
    assert _digest(fast) == EIKELBERG_DEG3_STRIDE8_SHA256
    # the stride reaches every rung, dimension above 3 included
    certs = [json.loads(line)["cert"] for line in fast]
    assert Counter(certs) == {
        "pullbacks-only": 728,
        "matched-pattern": 173,
        "nontrivial": 64,
        "wedge-of-pullbacks": 7,
    }


def test_fulton_degree2_cache_digest(tmp_path):
    cache = tmp_path / "fulton2.jsonl"
    run_sweep(load_fan("fulton"), 2, jobs=1, cache_path=str(cache))
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == FULTON_DEG2_CACHE_SHA256


def test_worker_error_leaves_clean_prefix_and_closed_pool(tmp_path, monkeypatch):
    """A record that raises in a worker stops the sweep: the error reaches
    the caller, the pool is gone, the cache holds whole records in index
    order, and a resume finishes it to the pinned bytes."""

    def fail_at_100(fan, tree, d, index):
        if index == 100:
            raise RuntimeError("record 100 failed")
        return evaluate_assignment(fan, tree, d, index)

    fan = load_fan("fulton")
    cache = tmp_path / "fulton2.jsonl"
    monkeypatch.setattr(cli, "evaluate_assignment", fail_at_100)
    with pytest.raises(RuntimeError, match="record 100 failed"):
        run_sweep(fan, 2, jobs=2, cache_path=str(cache))
    assert not multiprocessing.active_children()
    lines = cache.read_text().splitlines()
    assert [json.loads(x)["index"] for x in lines] == list(range(len(lines)))
    assert len(lines) <= 100
    monkeypatch.undo()
    run_sweep(fan, 2, jobs=2, cache_path=str(cache), resume=True)
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == FULTON_DEG2_CACHE_SHA256


@pytest.mark.parametrize("name", ["fulton", "eikelberg"])
def test_pullbacks_solve_every_degree2_system(name):
    """The per-assignment form of the once-per-fan pullback check."""
    fan = load_fan(name)
    tree = spanning_tree(fan)
    for i in range(count_assignments(fan, 2)):
        cover = build_cover(fan, assignment_at(fan, 2, i, tree), tree)
        rows, zvars = ray_value_system(cover)
        pull = [_pullback_z(cover, j) for j in range(fan.rank)]
        assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in rows for z in pull)
        assert rank_of_int_rows([list(z) for z in pull], len(zvars)) == fan.rank


def cover_orbits(fan, a, tree):
    """(lengths, at, sum-zero columns and rows) of `RayOrbits`, read off `build_cover`'s
    cover: the weights of the cells over each ray, the index of the ray cell
    under each maximal cell (cone position, place of the ray, sheet), and the
    cover's values-at-rays rows for sheets 0, ..., d-2, cone by cone, applied
    to the sum-zero values that each column stands for."""
    d = a.degree
    cover = build_cover(fan, a, tree)
    rows, zvars = ray_value_system(cover)
    over = [cover.cells_over(fan.cone_id((ray,))) for ray in range(len(fan.rays))]
    lengths = [[cover.cells[c].weight for c in cells] for cells in over]
    at = [[[None] * d for _ in cone.ray_indices] for cone in fan.max_cones]
    blocks, start = {}, 0
    for m, pos, _, cols in _max_cell_geometry(cover):
        sheet = cover.cells[m].copy
        for place, col in enumerate(cols):
            at[pos][place][sheet] = cover.cells[zvars[col]].copy
        nrel = len(wall_relation(fan, pos))
        blocks[pos, sheet] = rows[start:start + nrel]
        start += nrel
    kept = [row for pos in range(len(fan.max_cones)) for s in range(d - 1)
            for row in blocks[pos, s]]
    columns, first = [], 0
    for lens in lengths:
        k = len(lens)
        for i in range(k - 1):
            values = [0] * len(zvars)
            values[first + i], values[first + k - 1] = lens[k - 1], -lens[i]
            columns.append([sum(map(mul, row, values)) for row in kept])
        first += k
    return lengths, at, (columns, len(kept))


# degree-4 records: the rank tables of S_4, with orbit lengths up to 4
@pytest.mark.parametrize("name, pos", [("fulton", None), ("sigma_prime", 2)],
                         ids=["fulton", "sigma_prime-subdivided"])
def test_degree4_orbits_and_records_equal_cover(name, pos):
    fan = load_fan(name)
    if pos is not None:
        fan = stellar_subdivision(fan, pos)
    tree = spanning_tree(fan)
    rng = random.Random(4)
    indices = [0] + sorted(rng.randrange(count_assignments(fan, 4)) for _ in range(24))
    long_orbits = 0
    for i in indices:
        a = assignment_at(fan, 4, i, tree)
        orbits = orbits_at(fan, 4, i, tree)
        assert orbits == ray_orbits(fan, a, tree)
        lengths, at, sum_zero = cover_orbits(fan, a, tree)
        assert [list(x) for x in orbits.lengths] == lengths, i
        assert [[list(x) for x in cone] for cone in orbits.at] == at, i
        assert orbits.profile == [sorted(x, reverse=True) for x in lengths]
        assert orbits.branch_rays == branch_rays(fan, a, tree)
        assert orbits.sum_zero_columns() == sum_zero, i
        assert evaluate_assignment(fan, tree, 4, i).to_json() == reference_record(fan, tree, 4, i)
        long_orbits += any(4 in x for x in lengths)
    assert long_orbits


def test_degree6_record_from_a_fresh_fan():
    """The degree-6 tables fill on the first record of a fan just loaded."""
    fan = load_fan("fulton")
    tree = spanning_tree(fan)
    index = random.Random(6).randrange(count_assignments(fan, 6))
    start = time.perf_counter()
    record = evaluate_assignment(fan, tree, 6, index).to_json()
    assert time.perf_counter() - start < 1
    assert record == reference_record(fan, tree, 6, index)
