import hashlib
import json
import random
import re
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest

from fanbranch.cover_poset import (
    CoverCell,
    CoverPoset,
    cover_from_dict,
    cover_to_dict,
    identity_cover,
    wedge_power,
)
from fanbranch.exact_linalg import integer_kernel, nullspace_of_int_rows, rref
from fanbranch.fan_core import fan_from_data, load_fan
from fanbranch.klyachko import (
    BUNDLED_BUNDLES,
    branched_cover_of,
    direct_sum,
    line_bundle,
    load_bundle,
)
from fanbranch.monodromy import (
    assignment_at,
    assignment_for_branch_set,
    build_cover,
    count_assignments,
    spanning_tree,
)
from fanbranch import pl_group
from fanbranch.pl_group import (
    PLBasis,
    PLError,
    PLFunction,
    evaluate,
    group_triviality,
    is_trivial_function,
    multisets,
    per_cell_system,
    ray_value_system,
    solve,
    wedge_summands,
)

from conftest import (
    reference_add,
    reference_basis,
    reference_scale,
    reference_to_dict,
    stellar_covers,
)

EIKELBERG_MULTISETS = {
    0: [(15, -15, 3), (3, 3, -9)],
    1: [(16, -14, -4), (2, 2, -2)],
    2: [(12, -18, 0), (6, 6, -6)],
    3: [(24, -18, 0), (-6, 6, -6)],
    4: [(12, -6, 0), (6, -6, -6)],
}


@pytest.fixture(scope="module")
def fulton():
    return load_fan("fulton")


@pytest.fixture(scope="module")
def eikelberg():
    return load_fan("eikelberg")


@pytest.fixture(scope="module")
def type_c(fulton):
    return build_cover(fulton, assignment_for_branch_set(fulton, [0, 2, 5, 7]))


@pytest.fixture(scope="module")
def eik_cover(eikelberg):
    return build_cover(eikelberg, assignment_for_branch_set(eikelberg, [0, 5]))


def published_psi(eikelberg, eik_cover) -> PLFunction:
    """Realize the published function on the cover branched over rays 1, 6."""
    per_cell = []
    for m in eik_cover.max_cells:
        base = eik_cover.cells[m].base
        pos = next(
            p
            for p, c in enumerate(eikelberg.max_cones)
            if eikelberg.cone_id(c.ray_indices) == base
        )
        per_cell.append((m, EIKELBERG_MULTISETS[pos]))
    for combo in product((0, 1), repeat=len(per_cell)):
        per_base: dict[int, list[int]] = {}
        for (m, _), c in zip(per_cell, combo):
            per_base.setdefault(eik_cover.cells[m].base, []).append(c)
        if any(sorted(v) != [0, 1] for v in per_base.values()):
            continue
        try:
            return PLFunction(
                eik_cover, {m: us[c] for (m, us), c in zip(per_cell, combo)}
            )
        except PLError:
            continue
    raise AssertionError("published function is not realizable on the cover")


class TestSolve:
    def test_type_c_system_is_12x12_rank9(self, type_c):
        rows, zvars = ray_value_system(type_c)
        assert len(rows) == 12 and len(zvars) == 12
        _, r = rref(rows)
        assert r == 9
        # row shapes match the published matrix: six rows of each relation type
        shapes = sorted(tuple(sorted(map(abs, (x for x in row if x)))) for row in rows)
        assert shapes.count((1, 1, 1, 1)) == 6
        assert shapes.count((2, 3, 4, 5)) == 6

    def test_type_c_dimension_three(self, type_c):
        basis = solve(type_c)
        assert basis.dim == 3
        assert len(basis.pullbacks) == 3
        assert basis.functions[:3] == list(basis.pullbacks)

    def test_identity_cover_dimension(self, fulton, eikelberg):
        # both fans carry only globally linear support functions
        assert solve(identity_cover(fulton)).dim == 3
        assert solve(identity_cover(eikelberg)).dim == 3

    def test_wedge_dimension_decouples(self, fulton):
        w = wedge_power(fulton, 2)
        basis = solve(w)
        assert basis.dim == 6
        # block-diagonal oracle: each summand contributes its own dimension
        summands = wedge_summands(w)
        assert len(summands) == 2
        rows, zvars = ray_value_system(w)
        for s in summands:
            idx = [i for i, r in enumerate(zvars) if r in set(s)]
            sub = [[row[i] for i in idx] for row in rows if any(row[i] for i in idx)]
            nullity = len(idx) - rref(sub)[1]
            assert nullity == 3

    def test_pullbacks_solve_the_system(self, type_c):
        rows, zvars = ray_value_system(type_c)
        for pb in solve(type_c).pullbacks:
            z = [pb.ray_values[r] for r in zvars]
            for row in rows:
                assert sum(a * b for a, b in zip(row, z)) == 0

    def test_degree_one_reproduces_fan_support_functions(self, fulton):
        basis = solve(identity_cover(fulton))
        for f in basis.functions:
            assert is_trivial_function(f)

    def test_requires_complete_rank3(self):
        octant = fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
        with pytest.raises(PLError, match="complete"):
            solve(identity_cover(octant))
        with pytest.raises(PLError, match="rank-3"):
            solve(identity_cover(load_fan("p2")))

    def test_formulation_equivalence_exhaustive_degree2(self, fulton):
        tree = spanning_tree(fulton)
        for i in range(count_assignments(fulton, 2)):
            cov = build_cover(fulton, assignment_at(fulton, 2, i, tree), tree)
            dim_z = solve(cov).dim
            rows = per_cell_system(cov)
            dim_full = len(nullspace_of_int_rows(rows, len(rows[0])))
            assert dim_z == dim_full

    def test_integral_mode(self, type_c, eik_cover):
        for cov in (type_c, eik_cover):
            integral = solve(cov, mode="integral")
            rational = solve(cov)
            assert integral.dim == rational.dim
            for f in integral.functions:
                for u in f.cell_values.values():
                    assert all(x.denominator == 1 for x in u)

    def test_integral_functions_equal_checked_construction(self):
        # the integral basis reads its ray values off the kernel's ray-cell
        # coordinates; the checked constructor computes them from the cells
        for cov in stellar_covers():
            for f in solve(cov, mode="integral").functions:
                checked = PLFunction(cov, f.cell_values)
                assert f.cell_values == checked.cell_values
                assert f.ray_values == checked.ray_values


# sha256 of one JSON line per cover: the `solve` basis, and the tag, pattern
# and witness of `group_triviality` on it; pinned before `solve` moved to the
# shared fraction-free elimination.
BASIS_AND_VERDICT_SHA256 = {
    ("fulton", 2, 1): "b8441165132262e32d22a4651e09c4f9e6f30be6e9247e95f80c272d7e2bc11e",
    ("eikelberg", 2, 1): "04a18690f5f6afe4a7f2595464239adb2639f7660be6f2975ac2bdcc02895eda",
    ("eikelberg", 3, 7): "ebd774f0cc9fd685da9c563f2f7dd02df6a0ec2e5535a6168bad8f29a8d1c27d",
}


@pytest.mark.parametrize(
    "case", sorted(BASIS_AND_VERDICT_SHA256), ids=lambda c: f"{c[0]}-{c[1]}-every-{c[2]}"
)
def test_bases_and_witnesses_pinned(case):
    name, d, step = case
    fan = load_fan(name)
    tree = spanning_tree(fan)
    lines = []
    for i in range(0, count_assignments(fan, d), step):
        cover = build_cover(fan, assignment_at(fan, d, i, tree), tree)
        basis = solve(cover)
        v = group_triviality(cover, basis)
        lines.append(json.dumps(
            {
                "index": i,
                "basis": [f.to_dict() for f in basis.functions],
                "tag": v.tag,
                "pattern": v.pattern,
                "witness": v.witness.to_dict() if v.witness else None,
            },
            sort_keys=True,
            separators=(",", ":"),
        ))
    digest = hashlib.sha256("".join(x + "\n" for x in lines).encode()).hexdigest()
    assert digest == BASIS_AND_VERDICT_SHA256[case]


def _integral_covers(case):
    """The covers of one case of `test_integral_basis_equals_per_cell_kernel`."""
    if case == "fulton-2-all":
        fan = load_fan("fulton")
        tree = spanning_tree(fan)
        return [build_cover(fan, assignment_at(fan, 2, i, tree), tree)
                for i in range(count_assignments(fan, 2))]
    if case in ("eikelberg-3-seeded", "sigma_prime-3-seeded"):
        fan = load_fan(case.split("-")[0])
        tree = spanning_tree(fan)
        rng = random.Random(18)
        return [build_cover(fan, assignment_at(fan, 3, i, tree), tree)
                for i in rng.sample(range(count_assignments(fan, 3)), 12)]
    if case == "stellar":
        return list(stellar_covers())
    if case == "bundles":
        rng = random.Random(18)
        covers = []
        for name in ("eikelberg", "fulton_rank3"):
            data, cert = load_bundle(name)
            covers.append(branched_cover_of(data, cert)[0])
            for _ in range(2):
                line, line_cert = line_bundle(data.fan, [rng.randint(-3, 3) for _ in range(3)])
                covers.append(branched_cover_of(*direct_sum(data, line, cert, line_cert))[0])
        return covers
    fan = load_fan("eikelberg")
    cover = build_cover(fan, assignment_for_branch_set(fan, [0, 5]))
    return [cover_from_dict(fan, json.loads(json.dumps(cover_to_dict(cover))))]


@pytest.mark.parametrize("case", ["fulton-2-all", "eikelberg-3-seeded", "sigma_prime-3-seeded",
                                  "stellar", "bundles", "read-back"])
def test_integral_basis_equals_per_cell_kernel(case):
    # the lifted values-at-rays kernel, saturated, against the integer
    # kernel of the per-cell incidence system, coordinate for coordinate
    for cover in _integral_covers(case):
        got = [
            tuple(x for m in cover.max_cells for x in f.cell_values[m])
            + tuple(f.ray_values[r] for r in cover.ray_cells)
            for f in solve(cover, mode="integral").functions
        ]
        assert got == integer_kernel(per_cell_system(cover))


# sha256 of one JSON line per cover: the integral `solve` basis; pinned
# before the integral mode moved off the per-cell system.
INTEGRAL_BASIS_SHA256 = {
    ("fulton", 2, 1): "b0443a56237cd93686fcdeab69b7eefcd833781bc470bfc9832f08f8fa25aae9",
    ("eikelberg", 2, 1): "ac70e80edc92dcb7033ec7506acf3aecf97e14fe7e6e74a5c4ee55117aa16a67",
    ("sigma_prime", 2, 1): "a53a14e9ef64bd27f84eb96747139ac1f7d8cdecf868cd8a1e0785b31ce2784d",
    ("eikelberg", 3, 97): "ce1bb79835669ebbb739ef027a942fe4a9b1b2f9c29f9ca67e51900650067933",
}


@pytest.mark.parametrize(
    "case", sorted(INTEGRAL_BASIS_SHA256), ids=lambda c: f"{c[0]}-{c[1]}-every-{c[2]}"
)
def test_integral_bases_pinned(case):
    name, d, step = case
    fan = load_fan(name)
    tree = spanning_tree(fan)
    lines = []
    for i in range(0, count_assignments(fan, d), step):
        cover = build_cover(fan, assignment_at(fan, d, i, tree), tree)
        basis = solve(cover, mode="integral")
        lines.append(json.dumps(
            {"index": i, "basis": [f.to_dict() for f in basis.functions]},
            sort_keys=True,
            separators=(",", ":"),
        ))
    digest = hashlib.sha256("".join(x + "\n" for x in lines).encode()).hexdigest()
    assert digest == INTEGRAL_BASIS_SHA256[case]


class TestMultisets:
    def test_pullback_multisets_constant(self, type_c):
        pb = solve(type_c).pullbacks[0]
        ms = multisets(pb)
        expected = ((tuple(Fraction(x) for x in (1, 0, 0)), 2),)
        assert all(m.entries == expected for m in ms)

    def test_eikelberg_table(self, eikelberg, eik_cover):
        psi = published_psi(eikelberg, eik_cover)
        ms = multisets(psi)
        for m in ms:
            expected = sorted(
                tuple(Fraction(x) for x in u)
                for u in EIKELBERG_MULTISETS[m.cone_position]
            )
            got = sorted(u for u, w in m.entries for _ in range(w))
            assert got == expected

    def test_sum_acts_cellwise(self, type_c):
        b = solve(type_c)
        f, g = b.pullbacks[0], b.pullbacks[1]
        s = f + g
        for m in type_c.max_cells:
            assert s.cell_values[m] == tuple(
                a + c for a, c in zip(f.cell_values[m], g.cell_values[m])
            )


class TestTriviality:
    def test_pullbacks_trivial(self, type_c):
        for pb in solve(type_c).pullbacks:
            assert is_trivial_function(pb)

    def test_zero_function_trivial(self, type_c):
        zero = PLFunction(type_c, {m: (0, 0, 0) for m in type_c.max_cells})
        assert is_trivial_function(zero)

    def test_eikelberg_psi_nontrivial(self, eikelberg, eik_cover):
        psi = published_psi(eikelberg, eik_cover)
        assert not is_trivial_function(psi)
        ms = multisets(psi)
        assert ms[0].entries != ms[1].entries

    def test_type_c_verdict(self, type_c):
        v = group_triviality(type_c)
        assert v.all_trivial and v.certificate == "pullbacks-only" and v.dim == 3

    def test_wedge_verdict(self, fulton):
        v = group_triviality(wedge_power(fulton, 2))
        assert v.all_trivial and v.certificate == "wedge-of-pullbacks" and v.dim == 6

    def test_eikelberg_nontrivial_with_selfcertifying_witness(self, eik_cover):
        v = group_triviality(eik_cover)
        assert not v.all_trivial
        assert v.witness is not None
        assert not is_trivial_function(v.witness)

    def test_matched_pattern_certificates_reverify(self, fulton):
        # adjacent-pair branch sets give dimension-4 groups that are still
        # all-trivial; their pattern certificate must hold on a full basis
        cov = build_cover(fulton, assignment_for_branch_set(fulton, [6, 7]))
        basis = solve(cov)
        v = group_triviality(cov, basis)
        assert v.all_trivial and v.certificate == "matched-pattern"
        assert v.dim == 4
        for b in basis.functions:
            for group in v.pattern:
                first = b.cell_values[group[0]]
                assert all(b.cell_values[m] == first for m in group[1:])

    def test_full_degree2_census_verdicts(self, fulton):
        tree = spanning_tree(fulton)
        tags = {"pullbacks-only": 0, "wedge-of-pullbacks": 0, "matched-pattern": 0}
        for i in range(count_assignments(fulton, 2)):
            cov = build_cover(fulton, assignment_at(fulton, 2, i, tree), tree)
            v = group_triviality(cov)
            assert v.all_trivial
            tags[v.certificate] += 1
        assert tags == {
            "pullbacks-only": 112,
            "wedge-of-pullbacks": 1,
            "matched-pattern": 15,
        }


class TestEvaluate:
    def test_published_value_at_first_ray(self, eikelberg, eik_cover):
        psi = published_psi(eikelberg, eik_cover)
        cell = next(
            r
            for r in eik_cover.ray_cells
            if eikelberg.cones[eik_cover.cells[r].base].ray_indices == (0,)
        )
        assert evaluate(psi, cell, (-1, 0, 1)) == -12
        # both maximal cells over the first cone agree there
        for m in eik_cover.max_cells:
            if eik_cover.cells[m].base == eikelberg.cone_id((0, 1, 2)):
                assert evaluate(psi, m, (-1, 0, 1)) == -12

    def test_pullback_evaluation(self, type_c):
        pb = solve(type_c).pullbacks[2]
        m = type_c.max_cells[0]
        gens = type_c.fan.generators(type_c.cells[m].base)
        point = tuple(sum(c) for c in zip(*gens))
        assert evaluate(pb, m, point) == point[2]

    def test_point_not_of_ints_or_fractions_refused(self, type_c):
        # a float point used to give a binary fraction
        pb = solve(type_c).pullbacks[2]
        m = type_c.max_cells[0]
        gens = type_c.fan.generators(type_c.cells[m].base)
        point = tuple(sum(c) for c in zip(*gens))
        for bad, entry in (([x / 10 for x in point], point[0] / 10), ([True, *point[1:]], True)):
            with pytest.raises(ValueError, match=re.escape(
                    f"point row 0 has entry {entry!r}, not an int or a Fraction")):
                evaluate(pb, m, bad)
        value = evaluate(pb, m, [Fraction(x, 10) for x in point])
        assert (type(value), value) == (Fraction, Fraction(point[2], 10))

    def test_outside_cone_rejected(self, type_c):
        pb = solve(type_c).pullbacks[0]
        m = type_c.max_cells[0]
        gens = type_c.fan.generators(type_c.cells[m].base)
        outside = tuple(-sum(c) for c in zip(*gens))
        with pytest.raises(PLError, match="outside"):
            evaluate(pb, m, outside)

    def test_serialization_roundtrip(self, eikelberg, eik_cover):
        psi = published_psi(eikelberg, eik_cover)
        again = PLFunction.from_dict(eik_cover, psi.to_dict())
        assert again.cell_values == psi.cell_values


class TestWallConsistency:
    def test_functionals_agree_on_wall_spans(self, type_c):
        # any two maximal cells sharing a wall cell carry functionals whose
        # difference vanishes on the wall's two-dimensional span
        fan = type_c.fan
        basis = solve(type_c)
        for f in basis.functions:
            for w in type_c.wall_cells:
                tops = [m for m in type_c.above[w] if m in set(type_c.max_cells)]
                assert len(tops) == 2
                u1, u2 = (f.cell_values[m] for m in tops)
                diff = tuple(a - b for a, b in zip(u1, u2))
                for ray in fan.cones[type_c.cells[w].base].ray_indices:
                    assert sum(a * b for a, b in zip(diff, fan.rays[ray])) == 0


def _int_function_cases():
    """(cover, int cell values): each bundled bundle's tautological function,
    and the pullback of one global functional on a few stellar covers."""
    for name in BUNDLED_BUNDLES:
        cover, psi = branched_cover_of(*load_bundle(name))
        yield cover, {m: tuple(map(int, u)) for m, u in psi.cell_values.items()}
    for cover in stellar_covers()[::6]:
        yield cover, {m: (2, -1, 3) for m in cover.max_cells}


class TestIntegerConsistencyCheck:
    """Exact `int` entries are checked in `int` arithmetic; the values, their
    types and the refusals equal the `Fraction` path's."""

    @staticmethod
    def _outcome(cover, values):
        try:
            f = PLFunction(cover, values)
        except PLError as exc:
            return str(exc)
        assert all(type(x) is Fraction for u in f.cell_values.values() for x in u)
        assert all(type(x) is Fraction for x in f.ray_values.values())
        return list(f.cell_values.items()), list(f.ray_values.items())

    def test_int_and_fraction_paths_agree(self):
        refusals = 0
        for cover, values in _int_function_cases():
            first = min(values)
            moved = {**values, first: (values[first][0] + 1, *values[first][1:])}
            for ints in (values, moved):
                fractions = {m: tuple(map(Fraction, u)) for m, u in ints.items()}
                got = self._outcome(cover, ints)
                assert got == self._outcome(cover, fractions)
                refusals += isinstance(got, str)
        assert refusals > 0


# The message that refuses each malformed `PLFunction.from_dict` input.
FROM_DICT_REFUSALS = {
    "float": r"^cell entry 1: entry 1\.5 is not an int or a 'p/q' string$",
    "bool": r"^cell entry 1: entry True is not an int or a 'p/q' string$",
    "null": r"^cell entry 1: entry None is not an int or a 'p/q' string$",
    "word": r"^cell entry 1: entry 'half' is not an int or a 'p/q' string$",
    "foreign cell": r"^cell entry 1: the cover has no cell with base 21 and copy 9$",
    "string base": r"^cell entry 1: the cover has no cell with base '21' and copy 0$",
    "twice": r"^cell entry 1: cell \(\d+, \d+\) is given twice$",
    "u not a list": r"^cell entry 1: u is not a list: '1/2'$",
    "no cells": r"^a PL function is an object whose 'cells' key holds a list$",
    "no base": r"^cell entry 1 has no 'base' key$",
    "no copy": r"^cell entry 1 has no 'copy' key$",
    "no u": r"^cell entry 1 has no 'u' key$",
    "short u": r"^maximal cell \d+: 2 entries, not 3$",
}


class TestCheckedConstructor:
    """Entries are exactly `int`s or `Fraction`s; anything else, a float
    that happens to be integral included, is refused by its cell."""

    @pytest.mark.parametrize("bad", [15.0, 0.1, True, "1/2", None], ids=repr)
    def test_entry_not_int_or_fraction_refused_by_cell(self, type_c, bad):
        m = type_c.max_cells[1]
        values = {c: (0, 0, 0) for c in type_c.max_cells}
        values[m] = (Fraction(1, 2), bad, 0)
        with pytest.raises(PLError, match=rf"^maximal cell {m}: entry {re.escape(repr(bad))} "
                                          r"is not an int or a Fraction$"):
            PLFunction(type_c, values)

    def test_from_dict_reads_fraction_strings(self, type_c):
        f = solve(type_c).pullbacks[1].scale(Fraction(-3, 4))
        blob = f.to_dict()
        assert "-3/4" in {u for cell in blob["cells"] for u in cell["u"]}
        again = PLFunction.from_dict(type_c, json.loads(json.dumps(blob)))
        assert (again.cell_values, again.ray_values) == (f.cell_values, f.ray_values)

    @pytest.mark.parametrize("bad", [0.1, 2.0, True, "1/2", None], ids=repr)
    def test_scale_refuses_a_scalar_not_int_or_fraction(self, type_c, bad):
        f = solve(type_c).pullbacks[0]
        with pytest.raises(PLError, match=rf"^scalar {re.escape(repr(bad))} "
                                          r"is not an int or a Fraction$"):
            f.scale(bad)
        assert f.scale(-2).cell_values == f.scale(Fraction(-2)).cell_values

    @pytest.mark.parametrize("case", list(FROM_DICT_REFUSALS))
    def test_from_dict_refuses_malformed_input_by_entry(self, type_c, case):
        blob = json.loads(json.dumps(solve(type_c).pullbacks[1].scale(Fraction(-3, 4)).to_dict()))
        entry = blob["cells"][1]
        if case in ("float", "bool", "null", "word"):
            entry["u"][0] = {"float": 1.5, "bool": True, "null": None, "word": "half"}[case]
        elif case == "foreign cell":
            entry["base"], entry["copy"] = 21, 9
        elif case == "string base":
            entry["base"], entry["copy"] = "21", 0
        elif case == "twice":
            blob["cells"][1] = blob["cells"][0]
        elif case == "u not a list":
            entry["u"] = "1/2"
        elif case == "no cells":
            blob = {"cell": blob["cells"]}
        elif case == "short u":
            entry["u"] = entry["u"][:2]
        else:
            del entry[case.split()[1]]
        with pytest.raises(PLError, match=FROM_DICT_REFUSALS[case]):
            PLFunction.from_dict(type_c, blob)

    def test_ray_cell_under_no_maximal_cell_refused(self, fulton):
        base = identity_cover(fulton)
        ray = base.ray_cells[0]
        extra = CoverCell(base.cells[ray].base, 1, 1)
        cells = list(base.cells) + [extra]
        pairs = [(lo, hi) for hi, below in enumerate(base.below) for lo in below]
        cover = CoverPoset(fulton, cells, pairs + [(base.minimal_cell, len(cells) - 1)])
        lonely = cover.cells.index(extra)
        with pytest.raises(PLError, match=f"^ray cell {lonely} lies under no maximal cell$"):
            PLFunction(cover, {m: (1, 2, 3) for m in cover.max_cells})


class TestSharedElimination:
    """`group_triviality` reads a basis that `solve` returned for the same
    cover instead of eliminating again; with no basis, or any other basis,
    it eliminates and refuses as it did before the basis carried that."""

    @pytest.fixture
    def builds(self, monkeypatch):
        seen = []
        real = pl_group.ray_value_system

        def counted(cover):
            seen.append(cover)
            return real(cover)

        monkeypatch.setattr(pl_group, "ray_value_system", counted)
        return seen

    @pytest.fixture(scope="class")
    def covers(self, fulton, eik_cover):
        # matched-pattern (dimension 4), nontrivial, and wedge-of-pullbacks
        return [build_cover(fulton, assignment_for_branch_set(fulton, [6, 7])), eik_cover,
                wedge_power(fulton, 2)]

    def test_solved_basis_is_not_eliminated_again(self, covers, builds):
        for cover in covers:
            alone = group_triviality(cover)
            for mode in ("rational", "integral"):
                basis = solve(cover, mode)
                del builds[:]
                v = group_triviality(cover, basis)
                assert builds == [] and v == alone
                if not v.all_trivial:
                    assert v.witness.to_dict() == group_triviality(
                        cover, PLBasis(cover, basis.functions, mode)).witness.to_dict()

    def test_no_basis_or_a_hand_built_one_eliminates(self, covers, builds):
        for cover in covers:
            basis = solve(cover)
            del builds[:]
            assert group_triviality(cover) == group_triviality(
                cover, PLBasis(cover, basis.functions, "rational"))
            assert builds == [cover, cover]

    def test_basis_of_another_cover_refused(self, eik_cover, builds):
        twin = cover_from_dict(eik_cover.fan, json.loads(json.dumps(cover_to_dict(eik_cover))))
        basis = solve(twin)
        del builds[:]
        with pytest.raises(PLError, match="^the basis does not span this cover's PL group of "
                                          "dimension 4$"):
            group_triviality(eik_cover, basis)
        assert builds == [eik_cover]

    def test_basis_of_wrong_dimension_refused(self, covers, builds):
        for cover in covers:
            basis = solve(cover)
            short = basis.functions[:-1]
            for wrong, eliminated in ((PLBasis(cover, short, "rational"), [cover]),
                                      (replace(basis, functions=short), [])):
                del builds[:]
                with pytest.raises(PLError, match="^the basis does not span this cover's PL "
                                                  f"group of dimension {basis.dim}$"):
                    group_triviality(cover, wrong)
                assert builds == eliminated

    def test_basis_that_does_not_span_refused(self, covers, builds):
        """A hand-built basis of the group's dimension is refused unless its
        functions are of this cover and independent; a spanning one, in any
        order, passes."""
        for cover in covers:
            basis = solve(cover)
            f, g, *rest = basis.functions
            twin = cover_from_dict(cover.fan, json.loads(json.dumps(cover_to_dict(cover))))
            for functions in ([f] * basis.dim, [f, f + g, *rest[:-1], f.scale(2)],
                              [*solve(twin).functions[:-1], f]):
                del builds[:]
                with pytest.raises(PLError, match="^the basis does not span this cover's PL "
                                                  f"group of dimension {basis.dim}$"):
                    group_triviality(cover, PLBasis(cover, functions, "rational"))
                assert builds == [cover]
            spanning = [f + g, *reversed(rest), g]
            assert group_triviality(cover, PLBasis(cover, spanning, "rational")) == group_triviality(cover)


def _differential_covers():
    """`conftest.stellar_covers`, every fulton degree-2 cover and 24 seeded
    eikelberg degree-3 covers."""
    covers = list(stellar_covers())
    for name, d, sample in (("fulton", 2, None), ("eikelberg", 3, 24)):
        fan = load_fan(name)
        tree = spanning_tree(fan)
        indices = range(count_assignments(fan, d))
        if sample:
            indices = random.Random(24).sample(indices, sample)
        covers += [build_cover(fan, assignment_at(fan, d, i, tree), tree) for i in indices]
    return covers


@pytest.mark.parametrize("mode", ["rational", "integral"])
def test_integer_storage_equals_the_fraction_construction(mode):
    """Functions stored as numerators over one denominator read as the
    `Fraction` dicts they were built as, and add, scale and serialize the
    same; `conftest.reference_basis` builds those dicts as before."""
    scales = (Fraction(-3, 7), 0, 2, Fraction(5, 4))
    for cover in _differential_covers():
        basis = solve(cover, mode)
        ref_functions, ref_pullbacks = reference_basis(cover, mode)
        for got, ref in ((basis.functions, ref_functions), (basis.pullbacks, ref_pullbacks)):
            assert [(f.cell_values, f.ray_values) for f in got] == ref
            assert [f.to_dict() for f in got] == [reference_to_dict(cover, f) for f in ref]
        fs = basis.functions
        for i, f in enumerate(fs):
            j, c, d = (i + 1) % len(fs), scales[i % len(scales)], Fraction(1, i + 2)
            s = (f + fs[j].scale(c)).scale(d)
            ref = reference_scale(reference_add(ref_functions[i],
                                                reference_scale(ref_functions[j], c)), d)
            assert (s.cell_values, s.ray_values) == ref
            assert s.to_dict() == reference_to_dict(cover, ref)
            for g in (f, s):
                assert all(type(x) is Fraction for u in g.cell_values.values() for x in u)
                assert all(type(x) is Fraction for x in g.ray_values.values())
