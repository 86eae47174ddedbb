"""Rungs 2 and 3 of the triviality ladder against their references.

Rung 3 reads its verdict off the common pattern of the PL group, computed in
integers from the system's kernel.  The reference below is the path it
replaced: solve a basis, combine it into a deterministic generic element,
and test that element's multisets.  Both must give the same tag and pattern
on every cover past rung 2, and the witness of a nontrivial verdict must be
the reference's generic element, byte for byte.  The witness takes its
parameter from the cells' integer keys; `reference_parameter` and
`reference_combine` are the `Fraction` routines it replaced.  The ladder
run on the system read off the monodromy (`system_triviality` on
`conftest.ray_value_rows`) must agree with the one run on the built cover.

Rung 2 counts the wedge summands, found from the maximal cells' columns in
`system_triviality` and as `sheet_components` in a sweep record; the
reference ranks the columns of each `wedge_summands` piece separately.
Sweep records eliminate the sum-zero part of the system once, as columns,
and on rung 3 the rows at its pivots; never the whole system.
"""

import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest

from fanbranch import cli, exact_linalg, monodromy, pl_group
from fanbranch.cli import evaluate_assignment, run_sweep
from fanbranch.cover_poset import components
from fanbranch.exact_linalg import _int_echelon, rank_of_int_rows
from fanbranch.fan_core import load_fan
from fanbranch.klyachko import branched_cover_of, load_bundle
from fanbranch.monodromy import (
    assignment_at,
    assignment_for_branch_set,
    build_cover,
    class_representatives,
    count_assignments,
    ray_orbits,
    sheet_components,
    spanning_tree,
)
from fanbranch.pl_group import (
    PLError,
    group_triviality,
    is_trivial_function,
    ray_value_system,
    solve,
    system_triviality,
    wedge_summands,
)

from conftest import ray_value_rows


def reference_parameter(basis, maxcells) -> int:
    """The generic element's t, computed from the basis functions' `Fraction`
    functionals, as the witness did before it read the cells' integer keys:
    for two cells and a coordinate, sum_i (b_i(c1) - b_i(c2))_j x^i is either
    zero or has all its roots below its Cauchy bound; t lies above the
    smallest such bound of each pair."""
    bound = Fraction(1)
    n_coords = len(next(iter(basis[0].cell_values.values()))) if basis else 0
    for c1, c2 in combinations(maxcells, 2):
        best: Fraction | None = None
        for j in range(n_coords):
            seq = [b.cell_values[c1][j] - b.cell_values[c2][j] for b in basis]
            top = max((i for i, x in enumerate(seq) if x != 0), default=None)
            if top is None:
                continue
            lead = abs(seq[top])
            cand = Fraction(1) + max(
                (abs(seq[i]) / lead for i in range(top)), default=Fraction(0)
            )
            if best is None or cand < best:
                best = cand
        if best is not None and best > bound:
            bound = best
    return max(2, int(bound) + 1)


def reference_combine(basis, t: int):
    """sum(t^i . basis_i), by `PLFunction` addition and scaling."""
    acc = basis[0]
    scale = 1
    for b in basis[1:]:
        scale *= t
        acc = acc + b.scale(scale)
    return acc


def reference_witness(cover, basis):
    """The generic element of `basis` on the reference path."""
    return reference_combine(basis.functions, reference_parameter(basis.functions, cover.max_cells))


def reference_rung3(cover, basis):
    """(all trivial, pattern, candidate) from the generic element of `basis`,
    as rung 3 decided before it read the common pattern."""
    candidate = reference_witness(cover, basis)
    if not is_trivial_function(candidate):
        return False, None, candidate
    groups: dict[tuple, list[int]] = {}
    for m in cover.max_cells:
        groups.setdefault(candidate.cell_values[m], []).append(m)
    pattern = tuple(sorted(tuple(g) for g in groups.values()))
    for b in basis.functions:
        assert all(b.cell_values[m] == b.cell_values[g[0]] for g in pattern for m in g[1:])
    return True, pattern, candidate


@lru_cache(maxsize=None)
def _fan(name):
    fan = load_fan(name)
    return fan, spanning_tree(fan)


@lru_cache(maxsize=None)
def high_dim_indices(name, d, step):
    """The indices of dim > 3 among the class representatives, taking every
    `step`-th index."""
    fan, tree = _fan(name)
    reps = sorted(set(class_representatives(d, tree.generators)[::step]))
    return [i for i in reps if evaluate_assignment(fan, tree, d, i).dim_pl > 3]


# (fan, degree, index step) -> (dim > 3 classes, nontrivial among them)
CASES = {
    ("fulton", 2, 1): (16, 0),
    ("eikelberg", 3, 1): (333, 115),
    ("sigma_prime", 3, 97): (146, 0),
}


@pytest.mark.parametrize("case", sorted(CASES), ids=lambda c: f"{c[0]}-{c[1]}-every-{c[2]}")
def test_common_pattern_equals_generic_element(case):
    fan, tree = _fan(case[0])
    indices = high_dim_indices(*case)
    nontrivial = 0
    for i in indices:
        a = assignment_at(fan, case[1], i, tree)
        cover = build_cover(fan, a, tree)
        basis = solve(cover)
        v = group_triviality(cover)
        ref_trivial, ref_pattern, candidate = reference_rung3(cover, basis)
        assert v.all_trivial == ref_trivial, i
        if v.tag != "wedge-of-pullbacks":
            assert (v.tag, v.pattern) == (
                "matched-pattern" if ref_trivial else "nontrivial", ref_pattern), i
        assert group_triviality(cover, basis) == v, i
        # the same ladder on the system read off the monodromy; row block k
        # is the cover's k-th maximal cell
        system = ray_value_rows(fan, a, tree)
        sv = system_triviality(fan, system.rows, system.ncols, system.cells)
        labels = cover.max_cells
        pattern = sv.pattern and tuple(tuple(labels[k] for k in g) for g in sv.pattern)
        assert (sv.all_trivial, sv.tag, sv.dim, pattern) == (
            v.all_trivial, v.tag, v.dim, v.pattern), i
        if not v.all_trivial:
            nontrivial += 1
            assert v.witness.to_dict() == candidate.to_dict(), i
    assert (len(indices), nontrivial) == CASES[case]


def test_verdict_builds_no_generic_element_until_the_witness_is_read(monkeypatch):
    fan, _ = _fan("eikelberg")
    calls = []
    original = pl_group._generic_parameter

    def counted(keys, k):
        calls.append(k)
        return original(keys, k)

    monkeypatch.setattr(pl_group, "_generic_parameter", counted)
    cover = build_cover(fan, assignment_for_branch_set(fan, [0, 5]))
    v = group_triviality(cover)
    assert v.tag == "nontrivial" and calls == []
    assert not is_trivial_function(v.witness)
    assert v.witness is v.witness and calls == [v.dim]


def test_full_eikelberg_degree3_sweep_builds_no_generic_element(monkeypatch):
    def refuse(*args):
        raise AssertionError("a sweep built a generic element")

    monkeypatch.setattr(pl_group, "_generic_parameter", refuse)
    monkeypatch.setattr(pl_group, "_lift", refuse)
    fan, _ = _fan("eikelberg")
    summary = run_sweep(fan, 3, jobs=1)
    assert summary.processed == count_assignments(fan, 3)
    assert len(summary.nontrivial) == 648


def witness_covers():
    """Every eikelberg degree-2 cover, 60 seeded eikelberg degree-3 covers
    and the covers of the bundled rank-3 bundles."""
    fan, tree = _fan("eikelberg")
    indices = [(2, i) for i in range(count_assignments(fan, 2))]
    indices += [(3, i) for i in random.Random(19).sample(range(count_assignments(fan, 3)), 60)]
    covers = [build_cover(fan, assignment_at(fan, d, i, tree), tree) for d, i in indices]
    for name in ("eikelberg", "fulton_rank3"):
        covers.append(branched_cover_of(*load_bundle(name))[0])
    return covers


def test_witness_and_pullbacks_equal_the_reference():
    """The witness read off the integer keys is the reference generic
    element, byte for byte, for a supplied rational, integral or fractional
    basis (each function scaled by its own factor, so the keys' common
    denominator differs from every function's).  A rational basis is headed
    by its pullbacks; an integral basis lifts them, the constant e_j."""
    nontrivial = 0
    for cover in witness_covers():
        rational, integral = solve(cover), solve(cover, mode="integral")
        assert len(rational.pullbacks) == 3
        assert all(p is f for p, f in zip(rational.pullbacks, rational.functions))
        for j, p in enumerate(integral.pullbacks):
            e = tuple(int(i == j) for i in range(3))
            assert set(p.cell_values) == set(cover.max_cells)
            assert all(u == e for u in p.cell_values.values())
        fractional = replace(rational, functions=[
            f.scale(Fraction(i + 1, i + 2)) for i, f in enumerate(rational.functions)])
        for basis in (rational, integral, fractional):
            v = group_triviality(cover, basis)
            if not v.all_trivial:
                nontrivial += 1
                assert v.witness.to_dict() == reference_witness(cover, basis).to_dict()
    assert nontrivial == 3 * 9


def reference_summand_dim(rows, cols):
    """Corank of a cover's values-at-rays system on one wedge summand's
    columns: the summand's own rows, since every other row is zero there."""
    return len(cols) - rank_of_int_rows([[row[c] for c in cols] for row in rows], len(cols))


def test_summand_count_decides_the_wedge_rung():
    """Every summand has dimension 3 exactly when k > 1 summands and d = 3k,
    with k counted from the cells' columns or as `sheet_components`."""
    wedges = rung2 = 0
    for case in sorted(CASES):
        fan, tree = _fan(case[0])
        for i in high_dim_indices(*case):
            a = assignment_at(fan, case[1], i, tree)
            cover = build_cover(fan, a, tree)
            summands = wedge_summands(cover)
            rows, zvars = ray_value_system(cover)
            system = ray_value_rows(fan, a, tree)
            assert system.rows == rows, (case, i)
            columns = sorted([k for k, r in enumerate(zvars) if r in s] for s in map(set, summands))
            assert components(system.ncols, [c for *_, c in system.cells]) == columns, (case, i)
            assert len(sheet_components(a)) == len(summands), (case, i)
            dims = [reference_summand_dim(rows, cols) for cols in columns]
            assert min(dims) >= 3, (case, i)
            k, d = len(summands), sum(dims)
            assert all(x == 3 for x in dims) == (d == 3 * k), (case, i)
            v = system_triviality(fan, system.rows, system.ncols, system.cells)
            assert v.dim == d and (v.tag == "wedge-of-pullbacks") == (k > 1 and d == 3 * k)
            wedges += k > 1
            rung2 += v.tag == "wedge-of-pullbacks"
    assert (wedges, rung2) == (35, 20)


# tag -> (fan, branch rays) of a degree-2 cover the ladder settles there
LADDER_COVERS = {
    "pullbacks-only": ("fulton", (0, 2, 5, 7)),
    "wedge-of-pullbacks": ("fulton", ()),
    "matched-pattern": ("fulton", (6, 7)),
    "nontrivial": ("eikelberg", (0, 5)),
}


@pytest.mark.parametrize("tag", sorted(LADDER_COVERS))
def test_ladder_eliminates_once(tag, monkeypatch):
    name, branch = LADDER_COVERS[tag]
    fan, _ = _fan(name)
    cover = build_cover(fan, assignment_for_branch_set(fan, list(branch)))
    # the first call fills the per-fan caches (pullback check, lift data)
    assert group_triviality(cover).tag == tag
    calls = []

    def counted(rows, ncols):
        calls.append(ncols)
        return _int_echelon(rows, ncols)

    monkeypatch.setattr(exact_linalg, "_int_echelon", counted)
    monkeypatch.setattr(pl_group, "_int_echelon", counted)
    assert group_triviality(cover).tag == tag
    assert calls == [len(cover.ray_cells)]


# tag -> an eikelberg degree-3 index whose record the ladder settles there
SWEEP_RECORDS = {
    "pullbacks-only": 22,
    "wedge-of-pullbacks": 0,
    "matched-pattern": 1,
    "nontrivial": 37,
}


# the tags whose records read the sum-zero kernel (rung 3)
PATTERN_TAGS = ("matched-pattern", "nontrivial")


def sweep_record_shapes(fan, tree, d, index, tag):
    """The (rows, columns) of each `_int_echelon` call of a sweep record: the
    sum-zero system M once, as its columns, then on rung 3 only, the rank
    many rows of M at that elimination's pivots."""
    columns, nrows = ray_orbits(fan, assignment_at(fan, d, index, tree), tree).sum_zero_columns()
    rank = rank_of_int_rows(columns, nrows)
    return [(len(columns), nrows)] + ([(rank, len(columns))] if tag in PATTERN_TAGS else [])


@pytest.mark.parametrize("tag", sorted(SWEEP_RECORDS))
def test_sweep_record_eliminates_once_and_builds_no_cover(tag, monkeypatch):
    fan, tree = _fan("eikelberg")
    index = SWEEP_RECORDS[tag]
    # the first call fills the per-fan caches (pullback check, lift data)
    assert evaluate_assignment(fan, tree, 3, index).cert == tag
    expected = sweep_record_shapes(fan, tree, 3, index, tag)
    calls = []

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return _int_echelon(rows, ncols)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep record built or decided a cover")

    monkeypatch.setattr(exact_linalg, "_int_echelon", counted)
    monkeypatch.setattr(pl_group, "_int_echelon", counted)
    # `cli` imports none of these; set there too, they catch an import added later
    for module in (monodromy, cli):
        monkeypatch.setattr(module, "build_cover", refuse, raising=False)
    for module in (pl_group, cli):
        monkeypatch.setattr(module, "ray_value_system", refuse, raising=False)
        monkeypatch.setattr(module, "group_triviality", refuse, raising=False)
    rec = evaluate_assignment(fan, tree, 3, index)
    assert rec.cert == tag and calls == expected


def test_sweep_record_eliminates_only_the_sum_zero_system(monkeypatch):
    """On `sigma_prime` degree-3 records of dimension above 3, no record
    builds or eliminates the whole values-at-rays system: its `_int_echelon`
    calls are the sum-zero system's, once as columns, then the rows at that
    elimination's pivots where rung 3 decides (tags from the whole system)."""
    fan, tree = _fan("sigma_prime")
    expected = {}
    for i in high_dim_indices("sigma_prime", 3, 97):
        whole = ray_value_rows(fan, assignment_at(fan, 3, i, tree), tree)
        shape = (len(whole.rows), whole.ncols)
        tag = system_triviality(fan, whole.rows, whole.ncols, whole.cells).tag
        expected[i] = (sweep_record_shapes(fan, tree, 3, i, tag), shape)
    calls = []

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return _int_echelon(rows, ncols)

    def refuse(*args, **kwargs):
        raise AssertionError("a sweep record built or decided the whole system")

    monkeypatch.setattr(exact_linalg, "_int_echelon", counted)
    monkeypatch.setattr(pl_group, "_int_echelon", counted)
    for module in (monodromy, cli):
        monkeypatch.setattr(module, "build_cover", refuse, raising=False)
    for module in (pl_group, cli):
        for name in ("ray_value_system", "group_triviality", "system_triviality"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    pattern = 0
    for i, (shapes, whole) in expected.items():
        calls.clear()
        assert evaluate_assignment(fan, tree, 3, i).dim_pl > 3
        assert calls == shapes and whole not in calls, i
        pattern += len(shapes) == 2
    assert (len(expected), pattern) == (146, 144)


def test_witness_of_a_verdict_without_a_cover_refused():
    fan, tree = _fan("eikelberg")
    system = ray_value_rows(fan, assignment_for_branch_set(fan, [0, 5], tree), tree)
    v = system_triviality(fan, system.rows, system.ncols, system.cells)
    assert v.tag == "nontrivial"
    with pytest.raises(PLError, match="needs the cover"):
        v.witness


def test_basis_of_another_cover_refused():
    fan, _ = _fan("fulton")
    wedge = build_cover(fan, assignment_for_branch_set(fan, []))
    type_c = build_cover(fan, assignment_for_branch_set(fan, [0, 2, 5, 7]))
    same_dim = build_cover(fan, assignment_for_branch_set(fan, [5, 7]))
    for cover, other in ((type_c, wedge), (wedge, type_c), (type_c, same_dim)):
        with pytest.raises(PLError, match="does not span this cover's PL group"):
            group_triviality(cover, solve(other))
