import random
from itertools import combinations

import pytest

from fanbranch.cli import evaluate_assignment
from fanbranch.cover_poset import (
    are_isomorphic,
    degree,
    euler_characteristic,
    is_maximal,
    validate_cover,
    wedge_power,
)
from fanbranch.fan_core import fan_from_data, load_fan
from fanbranch.monodromy import (
    MonodromyAssignment,
    Permutation,
    all_permutations,
    assignment_at,
    assignment_for_branch_set,
    branch_rays,
    build_cover,
    canonical_class,
    class_representatives,
    count_assignments,
    orbits_at,
    ray_monodromy,
    sheet_components,
    spanning_tree,
)

from conftest import ray_value_rows


@pytest.fixture(scope="module")
def fulton():
    return load_fan("fulton")


@pytest.fixture(scope="module")
def sigma_prime():
    return load_fan("sigma_prime")


def bipyramid():
    # triangular bipyramid: 5 rays, 6 cones, 9 walls
    rays = [[1, 0, 0], [0, 1, 0], [-1, -1, 0], [0, 0, 1], [0, 0, -1]]
    cones = [[0, 1, 3], [1, 2, 3], [0, 2, 3], [0, 1, 4], [1, 2, 4], [0, 2, 4]]
    return fan_from_data(3, rays, cones)


class TestPermutation:
    def test_compose_and_inverse(self):
        a = Permutation((1, 2, 0))
        b = Permutation((0, 2, 1))
        assert (a * b).images == tuple(a(b(i)) for i in range(3))
        assert (a * a.inverse()).is_identity

    def test_cycle_type(self):
        assert Permutation((1, 0, 2)).cycle_type() == (2, 1)
        assert Permutation((1, 2, 0)).cycle_type() == (3,)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("images", [(0.0, 1), (True, False), (1, 0.0)])
    def test_rejects_images_that_are_not_ints(self, images):
        # they compare equal to a permutation, but `inverse` indexes with them
        with pytest.raises(ValueError, match="is not a permutation"):
            Permutation(images)

    def test_all_permutations_lexicographic(self):
        perms = all_permutations(3)
        assert len(perms) == 6
        images = [p.images for p in perms]
        assert images == sorted(images)


class TestSpanningTree:
    def test_fulton(self, fulton):
        tree = spanning_tree(fulton)
        assert len(tree.tree_walls) == 5
        assert tree.generators == 7
        assert tree.generators == len(fulton.rays) - 1

    def test_sigma_prime(self, sigma_prime):
        assert spanning_tree(sigma_prime).generators == 7

    def test_bipyramid(self):
        fan = bipyramid()
        assert len(fan.walls) == 9
        assert spanning_tree(fan).generators == 4


class TestEnumeration:
    def test_fulton_degree2_count(self, fulton):
        assert count_assignments(fulton, 2) == 128
        assignments = {assignment_at(fulton, 2, i).perms for i in range(128)}
        assert len(assignments) == 128

    def test_degree1_single(self, fulton):
        assert count_assignments(fulton, 1) == 1
        assert all(p.is_identity for p in assignment_at(fulton, 1, 0).perms)

    def test_sigma_prime_degree3_count(self, sigma_prime):
        assert count_assignments(sigma_prime, 3) == 279936

    def test_lexicographic_and_indexable(self, fulton):
        words = [
            tuple(p.images for p in assignment_at(fulton, 2, i).perms) for i in range(128)
        ]
        assert words == sorted(set(words))

    def test_index_out_of_range(self, fulton):
        with pytest.raises(IndexError):
            assignment_at(fulton, 2, 128)


class TestBuildCover:
    def test_trivial_assignment_gives_wedge(self, fulton):
        cov = build_cover(fulton, assignment_at(fulton, 2, 0))
        assert are_isomorphic(cov, wedge_power(fulton, 2))

    def test_type_c_cover_shape(self, fulton):
        a = assignment_for_branch_set(fulton, [0, 2, 5, 7])
        cov = build_cover(fulton, a)
        assert validate_cover(cov).ok
        assert is_maximal(cov)
        assert degree(cov) == 2
        assert len(cov.ray_cells) == 12
        assert len(cov.max_cells) == 12

    def test_exhaustive_degree2_valid_maximal_riemann_hurwitz(self, fulton):
        tree = spanning_tree(fulton)
        for i in range(count_assignments(fulton, 2)):
            a = assignment_at(fulton, 2, i, tree)
            cov = build_cover(fulton, a, tree)
            assert validate_cover(cov).ok
            assert is_maximal(cov)
            chi = euler_characteristic(cov)
            defect = sum(
                2 - len(ray_monodromy(fulton, a, r, tree).cycles())
                for r in range(len(fulton.rays))
            )
            assert chi == 2 * 2 - defect

    def test_degree3_samples_valid(self, sigma_prime):
        tree = spanning_tree(sigma_prime)
        total = count_assignments(sigma_prime, 3)
        rng = random.Random(4)
        for _ in range(12):
            i = rng.randrange(total)
            a = assignment_at(sigma_prime, 3, i, tree)
            cov = build_cover(sigma_prime, a, tree)
            assert validate_cover(cov).ok
            assert is_maximal(cov)
            chi = euler_characteristic(cov)
            defect = sum(
                3 - len(ray_monodromy(sigma_prime, a, r, tree).cycles())
                for r in range(8)
            )
            assert chi == 2 * 3 - defect

    @pytest.mark.parametrize("count", [0, 1, 6, 8, 9])
    @pytest.mark.parametrize("build", [build_cover, ray_value_rows, branch_rays])
    def test_wrong_permutation_count_refused(self, fulton, build, count):
        # fulton's spanning tree has 7 generators
        a = MonodromyAssignment(2, (Permutation((1, 0)),) * count)
        with pytest.raises(ValueError, match=f"{count} permutations, but .* 7 generators"):
            build(fulton, a)

    def test_fiber_sizes_match_monodromy_orbits(self, fulton):
        a = assignment_for_branch_set(fulton, [0, 2, 5, 7])
        cov = build_cover(fulton, a)
        for ray in range(len(fulton.rays)):
            orbits = ray_monodromy(fulton, a, ray).cycles()
            cells = [
                cov.cells[i]
                for i in cov.ray_cells
                if fulton.cones[cov.cells[i].base].ray_indices == (ray,)
            ]
            assert sorted(c.weight for c in cells) == sorted(len(o) for o in orbits)


class TestRayMonodromy:
    def test_identity_assignment(self, fulton):
        a = assignment_at(fulton, 2, 0)
        for ray in range(8):
            assert ray_monodromy(fulton, a, ray).is_identity

    def test_branch_parity_even(self, fulton):
        tree = spanning_tree(fulton)
        for i in range(count_assignments(fulton, 2)):
            a = assignment_at(fulton, 2, i, tree)
            assert len(branch_rays(fulton, a, tree)) % 2 == 0

    def test_every_admissible_branch_set_realized(self, fulton):
        walls = {
            tuple(sorted(fulton.cones[w].ray_indices)) for w in fulton.walls
        }
        admissible = []
        for size in (2, 4):
            for combo in combinations(range(8), size):
                if not any(tuple(sorted(p)) in walls for p in combinations(combo, 2)):
                    admissible.append(set(combo))
        assert len(admissible) == 18
        tree = spanning_tree(fulton)
        seen = set()
        for i in range(count_assignments(fulton, 2)):
            a = assignment_at(fulton, 2, i, tree)
            seen.add(frozenset(branch_rays(fulton, a, tree)))
        for target in admissible:
            assert frozenset(target) in seen

    def test_branch_set_shortcut_matches(self, fulton):
        a = assignment_for_branch_set(fulton, [1, 4])
        assert branch_rays(fulton, a) == [1, 4]
        with pytest.raises(ValueError, match="parity"):
            assignment_for_branch_set(fulton, [0])

    @pytest.mark.parametrize("name", ["fulton", "sigma_prime", "eikelberg"])
    def test_branch_set_solve_inverts_branch_rays(self, name):
        # the solve is unique, so every degree-2 assignment is recovered from
        # its branch set, and so is every even ray subset; an odd one is refused
        fan = load_fan(name)
        tree = spanning_tree(fan)
        for i in range(count_assignments(fan, 2)):
            a = assignment_at(fan, 2, i, tree)
            assert assignment_for_branch_set(fan, branch_rays(fan, a, tree), tree).perms == a.perms
        rays = range(len(fan.rays))
        for k in range(len(fan.rays) + 1):
            for subset in combinations(rays, k):
                if k % 2:
                    with pytest.raises(ValueError) as refused:
                        assignment_for_branch_set(fan, list(subset), tree)
                    assert str(refused.value) == (
                        "no degree-2 cover has that branch set (parity obstruction)")
                else:
                    a = assignment_for_branch_set(fan, list(subset), tree)
                    assert branch_rays(fan, a, tree) == list(subset)

    @pytest.mark.parametrize("rays, repeated", [
        ([0, 0, 2, 2, 5, 7], 0), ([0, 2, 5, 7, 5], 5), ([1, 4, 4, 1], 4), ([3, 3], 3)])
    def test_branch_set_refuses_a_repeated_ray(self, fulton, rays, repeated):
        # a ray given twice is refused by name, not read as the set of rays,
        # whatever the parity of the list or of the set
        with pytest.raises(ValueError) as refused:
            assignment_for_branch_set(fulton, rays)
        assert str(refused.value) == f"branch ray {repeated} is given twice"

    @pytest.mark.parametrize("rays", [[True, 4], [1.0, 4], ["1", 4], [None], 1])
    def test_branch_set_refuses_what_is_no_ray_index(self, fulton, rays):
        # `True` was read as ray 1, as `fan_from_data` never reads a bool
        with pytest.raises(ValueError) as refused:
            assignment_for_branch_set(fulton, rays)
        assert str(refused.value) == f"branch rays {rays!r} are not a list of ray indices"


class TestCanonicalClass:
    def test_degree2_identity_map(self, fulton):
        for i in (0, 3, 77, 127):
            a = assignment_at(fulton, 2, i)
            assert canonical_class(a).perms == a.perms

    def test_degree2_class_count(self, fulton):
        classes = {
            tuple(p.images for p in canonical_class(assignment_at(fulton, 2, i)).perms)
            for i in range(128)
        }
        assert len(classes) == 128

    def test_degree3_conjugates_share_class(self):
        rng = random.Random(8)
        perms3 = all_permutations(3)
        for _ in range(20):
            tup = tuple(perms3[rng.randrange(6)] for _ in range(7))
            a = MonodromyAssignment(3, tup)
            g = perms3[rng.randrange(6)]
            b = MonodromyAssignment(3, tuple(p.conjugate(g) for p in tup))
            assert canonical_class(a).perms == canonical_class(b).perms

    def test_constant_transposition_tuple(self):
        swap01 = Permutation((1, 0, 2))
        a = MonodromyAssignment(3, (swap01,) * 7)
        canon = canonical_class(a)
        # the least transposition image-tuple under conjugation is (0,2,1)
        assert canon.perms == (Permutation((0, 2, 1)),) * 7

    def test_conjugate_assignments_give_isomorphic_covers(self, sigma_prime):
        rng = random.Random(13)
        perms3 = all_permutations(3)
        tree = spanning_tree(sigma_prime)
        for _ in range(4):
            tup = tuple(perms3[rng.randrange(6)] for _ in range(7))
            g = perms3[rng.randrange(1, 6)]
            a = MonodromyAssignment(3, tup)
            b = MonodromyAssignment(3, tuple(p.conjugate(g) for p in tup))
            ca = build_cover(sigma_prime, a, tree)
            cb = build_cover(sigma_prime, b, tree)
            assert are_isomorphic(ca, cb)

    @pytest.mark.parametrize("name, d, step", [
        ("fulton", 2, 1), ("eikelberg", 3, 1), ("sigma_prime", 3, 97),
    ])
    def test_class_representatives_are_canonical_classes(self, name, d, step):
        fan = load_fan(name)
        tree = spanning_tree(fan)
        rep = class_representatives(d, tree.generators)
        assert len(rep) == count_assignments(fan, d)
        for i in range(0, len(rep), step):
            canon = canonical_class(assignment_at(fan, d, i, tree))
            assert assignment_at(fan, d, rep[i], tree) == canon

    def test_sheet_components(self):
        ident = Permutation.identity(3)
        a = MonodromyAssignment(3, (ident,) * 7)
        comps = sheet_components(a)
        assert [sorted(c) for c in comps] == [[0], [1], [2]]
        swap = Permutation((1, 0, 2))
        b = MonodromyAssignment(3, (swap,) + (ident,) * 6)
        comps = sheet_components(b)
        assert [sorted(c) for c in comps] == [[0, 1], [2]]


class TestSerialization:
    def test_roundtrip(self, fulton):
        a = assignment_at(fulton, 2, 99)
        d = a.to_dict()
        b = MonodromyAssignment.from_dict(d)
        assert a.perms == b.perms and a.degree == b.degree


@pytest.mark.parametrize("d", [0, -1, True, 2.0], ids=repr)
def test_degree_below_one_refused_by_every_index_reader(d):
    # degree 0 used to give a record with eight empty profiles, and -1
    # "permutation degree mismatch"
    fan = load_fan("fulton")
    tree = spanning_tree(fan)
    calls = [lambda: count_assignments(fan, d), lambda: assignment_at(fan, d, 0, tree),
             lambda: orbits_at(fan, d, 0, tree), lambda: evaluate_assignment(fan, tree, d, 0)]
    for call in calls:
        with pytest.raises(ValueError, match="^degree must be a positive integer$"):
            call()
