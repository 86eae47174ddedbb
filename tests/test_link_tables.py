"""Sweep records read off the per-ray tables of `monodromy._RecordTables`.

Each ray's loop, orbits and block of sum-zero columns are looked up by the
digits of the generators its link crosses, and shared by every record with
those digits.  The tests compare each record with `conftest.reference_orbits`,
which walks every link and builds every column for the record alone, check
that no record changes what the next one reads, and bound the tables' size.
"""

import importlib
import random
from dataclasses import replace
from math import factorial
from pathlib import Path

import pytest

from fanbranch.cli import evaluate_assignment, run_sweep
from fanbranch.exact_linalg import _int_echelon
from fanbranch.fan_core import derived, load_fan, stellar_subdivision
from fanbranch.monodromy import (
    _LINK_TABLE_MAX,
    _record_tables,
    assignment_at,
    class_representatives,
    count_assignments,
    orbits_at,
    ray_orbits,
    spanning_tree,
)
from fanbranch.pl_group import split_triviality

from conftest import reference_orbits, reference_split_record

ROOT = Path(__file__).resolve().parents[1]

# The benchmark's `sigma3-stride` workload and its stored digest, read from
# `perfbench/` unchanged.
with pytest.MonkeyPatch.context() as mp:
    mp.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    workloads = importlib.import_module("workloads")


def _cases():
    """(id, fan, degree, indices) of every record compared with the reference."""
    rng = random.Random(29)
    yield "eikelberg-3-all", load_fan("eikelberg"), 3, range(7776)
    yield "fulton-2-all", load_fan("fulton"), 2, range(count_assignments(load_fan("fulton"), 2))
    w = workloads.Sigma3Stride(checks.SIGMA3_DEFAULT_SEED, None)
    yield "sigma3-stride-seed1", w.fan, w.DEGREE, w.indices
    for name in ("fulton", "eikelberg", "sigma_prime"):
        base = load_fan(name)
        for pos in range(len(base.max_cones)):
            fan = stellar_subdivision(base, pos)
            d = rng.choice((2, 3))
            yield f"{name}-stellar-{pos}", fan, d, [rng.randrange(count_assignments(fan, d))]


CASES = {case: rest for case, *rest in _cases()}


@pytest.mark.parametrize("case", list(CASES))
def test_records_equal_reference(case):
    fan, d, indices = CASES[case]
    tree = spanning_tree(fan)
    lines = []
    for i in indices:
        assert orbits_at(fan, d, i, tree) == reference_orbits(fan, d, i, tree), i
        lines.append(evaluate_assignment(fan, tree, d, i).to_json())
        assert lines[-1] == reference_split_record(fan, tree, d, i), i
    if case == "sigma3-stride-seed1":
        assert checks.digest(lines) == checks.SIGMA3_SEED1_SHA256


def _class_records(fan, order) -> list[str]:
    tree = spanning_tree(fan)
    reps = sorted(set(class_representatives(3, tree.generators)), reverse=order == "down")
    return sorted(evaluate_assignment(fan, tree, 3, r).to_json() for r in reps)


def test_no_state_leaks_between_records():
    """Every eikelberg degree-3 class ascending, then descending, then on a
    freshly loaded fan give the same records, and afterwards every stored
    entry, block included, equals a fresh build of it."""
    fan = load_fan("eikelberg")
    up = _class_records(fan, "up")
    assert _class_records(fan, "down") == up
    assert _class_records(load_fan("eikelberg"), "down") == up
    tables = derived(fan, _record_tables)
    stored = 0
    for walk, link in zip(tables.walks, tables.links[3]):
        for key, entry in link.items():
            assert entry == tables._link_entry(3, walk, key)
            stored += 1
    assert stored > 0


def test_split_triviality_leaves_the_shared_columns_alone():
    """The columns handed out are the tables' own lists: the column
    elimination, and the whole ladder on them, must not change one."""
    fan = load_fan("eikelberg")
    tree = spanning_tree(fan)
    dims = set()
    for i in range(0, 7776, 7):
        orbits = orbits_at(fan, 3, i, tree)
        columns, nrows = orbits.sum_zero_columns()
        before = [list(col) for col in columns]
        _int_echelon(columns[:], nrows)
        assert columns == before, i
        dims.add(split_triviality(fan, orbits).dim)
        assert orbits.sum_zero_columns() == (before, nrows), i
    assert max(dims) > 3  # the ladder past rung 1 ran too


@pytest.mark.parametrize("name, d, bound", [("eikelberg", 3, 306), ("fulton", 2, 32)])
def test_table_size_bound(name, d, bound):
    """After a full sweep a ray's table holds at most (d!)^k entries, k the
    generator walls its link crosses."""
    fan = load_fan(name)
    run_sweep(fan, d)
    tables = derived(fan, _record_tables)
    assert sum(factorial(d) ** len(crossed) for _, crossed, _ in tables.walks) == bound
    for (_, crossed, _), link in zip(tables.walks, tables.links[d]):
        assert 0 < len(link) <= factorial(d) ** len(crossed)
    assert sum(map(len, tables.links[d])) <= bound


def test_rays_past_the_cap_keep_no_entry():
    """At degree 5 the eikelberg ray whose link crosses three generator
    walls could come to 120^3 entries, so its table keeps none; the other
    rays keep theirs, and the records still equal the reference."""
    fan = load_fan("eikelberg")
    tree = spanning_tree(fan)
    for i in random.Random(5).sample(range(count_assignments(fan, 5)), 20):
        assert orbits_at(fan, 5, i, tree) == reference_orbits(fan, 5, i, tree), i
        assert evaluate_assignment(fan, tree, 5, i).to_json() == reference_split_record(fan, tree, 5, i), i
    tables = derived(fan, _record_tables)
    kept = sorted((len(crossed), len(link) > 0) for (_, crossed, _), link in zip(tables.walks, tables.links[5]))
    assert kept == [(1, True)] * 3 + [(2, True)] * 2 + [(3, False)]
    assert 120 ** 2 <= _LINK_TABLE_MAX < 120 ** 3


def test_only_the_fans_own_tree_is_taken():
    """The tables are built on the fan's `spanning_tree`, so a record reads
    the tree it is given only when it is that tree or equal to it: another
    tree, or another fan's, is refused."""
    fan = load_fan("fulton")
    tree = spanning_tree(fan)
    a = assignment_at(fan, 2, 5)
    assert orbits_at(fan, 2, 5, spanning_tree(load_fan("fulton"))) == orbits_at(fan, 2, 5, tree)
    assert ray_orbits(fan, a, spanning_tree(load_fan("fulton"))) == ray_orbits(fan, a)
    for other in (replace(tree, root=1), spanning_tree(load_fan("eikelberg"))):
        for call in (lambda: orbits_at(fan, 2, 5, other), lambda: ray_orbits(fan, a, other)):
            with pytest.raises(ValueError, match="^the tree is not the fan's spanning tree$"):
                call()
