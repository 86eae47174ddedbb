import random

import pytest
from conftest import stellar_covers

from fanbranch.cover_poset import (
    CoverCell,
    CoverPoset,
    CoverError,
    CoverReport,
    Violation,
    are_isomorphic,
    canonical_signature,
    cover_from_dict,
    cover_to_dict,
    degree,
    euler_characteristic,
    fibered_product,
    identity_cover,
    is_maximal,
    ramification_cells,
    validate_cover,
    wedge_power,
    wedge_sum,
    weighted_identity,
)
from fanbranch.fan_core import load_fan
from fanbranch.monodromy import assignment_for_branch_set, build_cover


@pytest.fixture(scope="module")
def fulton():
    return load_fan("fulton")


@pytest.fixture(scope="module")
def type_c(fulton):
    return build_cover(fulton, assignment_for_branch_set(fulton, [0, 2, 5, 7]))


class TestValidation:
    def test_weighted_identity_valid(self, fulton):
        for d in (1, 2, 3):
            cov = weighted_identity(fulton, d)
            assert validate_cover(cov).ok
            assert degree(cov) == d

    def test_wedge_valid_unramified(self, fulton):
        cov = wedge_power(fulton, 2)
        assert validate_cover(cov).ok
        assert degree(cov) == 2
        assert ramification_cells(cov) == []

    def test_deleted_wall_cell_breaks_axiom_b(self, fulton):
        cov = identity_cover(fulton)
        victim = cov.wall_cells[0]
        cells = [c for i, c in enumerate(cov.cells) if i != victim]
        remap = {}
        j = 0
        for i in range(len(cov.cells)):
            if i != victim:
                remap[i] = j
                j += 1
        pairs = [
            (remap[lo], remap[hi])
            for hi in range(len(cov.cells))
            if hi != victim
            for lo in cov.below[hi]
            if lo != victim
        ]
        broken = CoverPoset(cov.fan, cells, pairs, _closed=True)
        report = validate_cover(broken)
        assert not report.ok
        assert any(v.axiom == "b" for v in report.violations)

    def test_wrong_weight_breaks_trace(self, fulton):
        cov = identity_cover(fulton)
        cells = list(cov.cells)
        m = cov.max_cells[0]
        cells[m] = CoverCell(cells[m].base, cells[m].copy, 5)
        pairs = [
            (lo, hi) for hi in range(len(cells)) for lo in cov.below[hi]
        ]
        broken = CoverPoset(cov.fan, cells, pairs, _closed=True)
        report = validate_cover(broken)
        assert not report.ok
        assert any(v.axiom == "c" for v in report.violations)

    def test_weighted_fiber_counts(self, type_c, fulton):
        d = degree(type_c)
        for cone_id in range(len(fulton.cones)):
            total = sum(
                type_c.cells[i].weight for i in type_c.cells_over(cone_id)
            )
            assert total == d


class TestDegreeAndRamification:
    def test_wedge_three(self, fulton):
        cov = wedge_power(fulton, 3)
        assert degree(cov) == 3
        assert ramification_cells(cov) == []

    def test_type_c_ramified_over_four_rays(self, type_c, fulton):
        ram = ramification_cells(type_c)
        assert len(ram) == 4
        ray_ids = sorted(
            fulton.cones[type_c.cells[i].base].ray_indices[0] for i in ram
        )
        assert ray_ids == [0, 2, 5, 7]

    def test_weighted_identity_ramified_everywhere(self, fulton):
        cov = weighted_identity(fulton, 2)
        assert len(ramification_cells(cov)) == len(fulton.cones) - 1


class TestMaximality:
    def test_monodromy_cover_maximal(self, type_c):
        assert is_maximal(type_c)

    def test_weighted_identity_not_maximal(self, fulton):
        assert not is_maximal(weighted_identity(fulton, 2))

    def test_wedge_maximal(self, fulton):
        assert is_maximal(wedge_power(fulton, 2))


class TestConstructors:
    def test_wedge_of_identities_is_wedge_power(self, fulton):
        w = wedge_sum(identity_cover(fulton), identity_cover(fulton))
        assert validate_cover(w).ok
        assert degree(w) == 2
        assert are_isomorphic(w, wedge_power(fulton, 2))

    def test_wedge_with_nontrivial_cover(self, fulton, type_c):
        w = wedge_sum(type_c, identity_cover(fulton))
        assert validate_cover(w).ok
        assert degree(w) == 3

    def test_wedge_commutative_up_to_isomorphism(self, fulton, type_c):
        a = wedge_sum(type_c, identity_cover(fulton))
        b = wedge_sum(identity_cover(fulton), type_c)
        assert canonical_signature(a) == canonical_signature(b)
        assert are_isomorphic(a, b)

    def test_fibered_product_with_identity(self, fulton, type_c):
        prod = fibered_product(type_c, identity_cover(fulton))
        assert validate_cover(prod).ok
        assert are_isomorphic(prod, type_c)

    def test_fibered_product_of_wedges(self, fulton):
        w = wedge_power(fulton, 2)
        prod = fibered_product(w, w)
        assert validate_cover(prod).ok
        assert degree(prod) == 4
        for cone_id in range(1, len(fulton.cones)):
            assert len(prod.cells_over(cone_id)) == 4

    def test_fibered_product_of_weighted_identities(self, fulton):
        prod = fibered_product(weighted_identity(fulton, 2), weighted_identity(fulton, 3))
        assert validate_cover(prod).ok
        assert are_isomorphic(prod, weighted_identity(fulton, 6))


class TestPartialOrderSanity:
    def test_weighted_identity_is_dominated_by_every_cover(self, fulton, type_c):
        # the cell-wise collapse of any degree-d cover onto the weighted
        # identity has constant trace d over every cone, so d.identity sits
        # below each of them in the pull-apart order
        for cov in (type_c, wedge_power(fulton, 2)):
            d = degree(cov)
            for cone_id in range(len(fulton.cones)):
                assert sum(cov.cells[i].weight for i in cov.cells_over(cone_id)) == d

    def test_star_trace_condition_on_every_cell(self, type_c):
        # the star form of the trace axiom: constant weight trace on the
        # up-set of each nonminimal cell
        root = type_c.minimal_cell
        for x in range(len(type_c.cells)):
            if x == root:
                continue
            up = [x, *type_c.above[x]]
            w = type_c.cells[x].weight
            per_cone: dict[int, int] = {}
            for y in up:
                b = type_c.cells[y].base
                per_cone[b] = per_cone.get(b, 0) + type_c.cells[y].weight
            assert all(v == w for v in per_cone.values())


class TestEuler:
    def test_identity_sphere(self, fulton):
        assert euler_characteristic(identity_cover(fulton)) == 2

    def test_type_c_torus(self, type_c):
        assert len(type_c.ray_cells) == 12
        assert len(type_c.wall_cells) == 24
        assert len(type_c.max_cells) == 12
        assert euler_characteristic(type_c) == 0

    def test_wedge_two_spheres(self, fulton):
        assert euler_characteristic(wedge_power(fulton, 2)) == 4


class TestSerialization:
    def test_roundtrip(self, fulton, type_c):
        data = cover_to_dict(type_c)
        again = cover_from_dict(fulton, data)
        assert validate_cover(again).ok
        assert are_isomorphic(again, type_c)
        assert [c.base for c in again.cells] == [c.base for c in type_c.cells]

    def test_cell_weight_positive(self):
        with pytest.raises(CoverError):
            CoverCell(0, 0, 0)


def reference_validate_cover(cover):
    """The former check, with faces found as ray subsets: the down-set
    order is compared pair by pair for every cell, and the weight trace
    over every cone of the fan."""
    fan = cover.fan
    rays = [set(c.ray_indices) for c in fan.cones]

    def is_face(a, b):
        return rays[a] <= rays[b]

    violations = []
    mins = cover.minimal_cells()
    if len(mins) != 1:
        violations.append(Violation(None, "a", f"expected one minimal cell, found {len(mins)}"))
        return CoverReport(False, violations)
    root = mins[0]
    if cover.cells[root].base != 0:
        violations.append(Violation(root, "a", "minimal cell does not lie over the zero cone"))

    for x in range(len(cover.cells)):
        down = sorted(cover.below[x]) + [x]
        base_faces = [i for i in range(len(fan.cones)) if is_face(i, cover.cells[x].base)]
        bases = sorted(cover.cells[y].base for y in down)
        if bases != base_faces:
            violations.append(Violation(
                x, "b", f"down-set projects to cones {bases}, expected faces {base_faces}"))
            continue
        for y in down:
            for z in down:
                if is_face(cover.cells[y].base, cover.cells[z].base) != cover.leq(y, z):
                    violations.append(Violation(
                        x, "b", f"down-set order mismatch between cells {y} and {z}"))
                    break
            else:
                continue
            break

    for x in range(len(cover.cells)):
        w = cover.cells[x].weight
        trace = {}
        for y in [x, *cover.above[x]]:
            b = cover.cells[y].base
            trace[b] = trace.get(b, 0) + cover.cells[y].weight
        for gamma in range(len(fan.cones)):
            if is_face(cover.cells[x].base, gamma) and trace.get(gamma, 0) != w:
                violations.append(Violation(
                    x, "c", f"weight trace over cone {gamma} is {trace.get(gamma, 0)}, "
                            f"expected {w}"))
    return CoverReport(not violations, violations)


def strict_pairs(cover):
    return [(lo, hi) for hi in range(len(cover.cells)) for lo in sorted(cover.below[hi])]


def mutations(cover, rng):
    """Covers one edit away from `cover`: a dropped strict pair, with and
    without the transitive closure; a strict pair (y, z) rewired to, or
    doubled by, (y', z) with y' another cell over y's base, unclosed; a
    changed weight; and two cells with swapped bases (where the swap keeps
    base and copy unique)."""
    cells = list(cover.cells)
    pairs = strict_pairs(cover)
    for _ in range(3):
        dropped = pairs[:]
        del dropped[rng.randrange(len(dropped))]
        yield CoverPoset(cover.fan, cells, dropped)
        yield CoverPoset(cover.fan, cells, dropped, _closed=True)
    twins = [(k, other) for k, (y, z) in enumerate(pairs)
             for other in cover.cells_over(cells[y].base) if other != y]
    for k, other in rng.sample(twins, min(2, len(twins))):
        rewired = pairs[:]
        rewired[k] = (other, pairs[k][1])
        yield CoverPoset(cover.fan, cells, rewired, _closed=True)
        yield CoverPoset(cover.fan, cells, pairs + [(other, pairs[k][1])], _closed=True)
    for _ in range(2):
        i = rng.randrange(len(cells))
        changed = cells[:]
        changed[i] = CoverCell(cells[i].base, cells[i].copy, cells[i].weight + rng.choice((1, 2)))
        yield CoverPoset(cover.fan, changed, pairs, _closed=True)
    for _ in range(3):
        i, j = rng.sample(range(len(cells)), 2)
        swapped = cells[:]
        swapped[i] = CoverCell(cells[j].base, cells[i].copy, cells[i].weight)
        swapped[j] = CoverCell(cells[i].base, cells[j].copy, cells[j].weight)
        try:
            yield CoverPoset(cover.fan, swapped, pairs, _closed=True)
        except CoverError:
            continue


class TestValidationEqualsReference:
    def test_on_stellar_covers(self):
        for cover in stellar_covers():
            report = validate_cover(cover)
            assert report.ok
            assert report.describe() == reference_validate_cover(cover).describe()

    def test_on_mutated_covers(self):
        rng = random.Random("mutations")
        kinds = set()
        seen = 0
        for cover in stellar_covers():
            for broken in mutations(cover, rng):
                report = validate_cover(broken)
                assert report.violations == reference_validate_cover(broken).violations
                assert report.describe() == reference_validate_cover(broken).describe()
                kinds |= {(v.axiom, v.message.split()[1]) for v in report.violations}
                seen += 1
        assert seen >= 300
        # every kind of violation occurs, order mismatches of (b) included
        assert kinds == {("a", "one"), ("a", "cell"), ("b", "projects"), ("b", "order"),
                         ("c", "trace")}
