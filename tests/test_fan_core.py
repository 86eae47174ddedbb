import itertools
import json
import random
import re
from fractions import Fraction

import pytest
from conftest import reference_fan_from_data
from hypothesis import given, settings
from hypothesis import strategies as st

from fanbranch import fan_core
from fanbranch.exact_linalg import nullspace_of_int_rows, primitive
from fanbranch.fan_core import (
    BUNDLED_FANS,
    FanError,
    combinatorial_automorphisms,
    cone_contains_point,
    fan_from_data,
    fan_to_dict,
    is_complete,
    linear_functional_witness,
    load_fan,
    ray_link,
    stellar_subdivision,
    wall_relation,
)


@pytest.fixture(scope="module")
def fulton():
    return load_fan("fulton")


@pytest.fixture(scope="module")
def eikelberg():
    return load_fan("eikelberg")


@pytest.fixture(scope="module")
def sigma_prime():
    return load_fan("sigma_prime")


def octant():
    return fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])


# Rays near 0, 144, 288, 72 and 216 degrees with cones on consecutive pairs:
# the plane wound twice.  Every ray lies in exactly two cones.
PENTAGRAM_RAYS = [[1, 0], [-4, 3], [1, -3], [1, 3], [-4, -3]]
PENTAGRAM_CONES = [[i, (i + 1) % 5] for i in range(5)]


class TestConstruction:
    def test_fulton_counts(self, fulton):
        assert len(fulton.rays) == 8
        assert len(fulton.max_cones) == 6
        assert len(fulton.walls) == 12

    def test_eikelberg_counts(self, eikelberg):
        assert len(eikelberg.rays) == 6
        assert len(eikelberg.max_cones) == 5
        assert len(eikelberg.walls) == 9

    def test_octant_valid_not_complete(self):
        fan = octant()
        assert len(fan.cones) == 8  # 0, 3 rays, 3 walls, the cone itself
        assert not is_complete(fan)

    def test_rays_primitivized(self):
        fan = fan_from_data(2, [[2, 0], [0, 3], [-4, -4]], [[0, 1], [1, 2], [0, 2]])
        assert fan.rays == ((1, 0), (0, 1), (-1, -1))

    def test_duplicate_ray_rejected(self):
        with pytest.raises(FanError, match="duplicate ray"):
            fan_from_data(3, [[1, 0, 0], [2, 0, 0], [0, 1, 0]], [[0, 1, 2]])

    def test_non_strongly_convex_rejected(self):
        with pytest.raises(FanError, match="strongly convex"):
            fan_from_data(2, [[1, 0], [-1, 0], [0, 1]], [[0, 1, 2]])

    def test_non_extremal_generator_rejected(self):
        with pytest.raises(FanError, match="extremal"):
            fan_from_data(2, [[1, 0], [0, 1], [1, 1]], [[0, 1, 2]])

    def test_bad_intersection_rejected(self):
        # two 2-dim cones overlapping in a 2-dim region, not a common face
        with pytest.raises(FanError, match="non-face"):
            fan_from_data(2, [[1, 0], [0, 1], [1, -1], [-1, 2]], [[0, 1], [2, 3]])

    def test_unused_ray_rejected(self, fulton):
        with pytest.raises(FanError, match="ray 3 lies in no maximal cone"):
            fan_from_data(2, [[1, 0], [0, 1], [-1, -1], [1, 1]], [[0, 1], [1, 2], [0, 2]])
        data = fan_to_dict(fulton)
        with pytest.raises(FanError, match="ray 8 lies in no maximal cone"):
            fan_from_data(3, data["rays"] + [[1, 2, 7]], data["max_cones"])

    def test_pentagram_rejected(self):
        # Every wall of these fans lies in exactly two maximal cones, so
        # `is_complete` relies on this refusal.
        with pytest.raises(FanError, match="non-face"):
            fan_from_data(2, PENTAGRAM_RAYS, PENTAGRAM_CONES)
        rays = [r + [0] for r in PENTAGRAM_RAYS] + [[0, 0, 1], [0, 0, -1]]
        cones = [c + [apex] for c in PENTAGRAM_CONES for apex in (5, 6)]
        with pytest.raises(FanError, match="non-face"):
            fan_from_data(3, rays, cones)

    def test_face_poset_closed_downward(self, fulton):
        for c in fulton.cones:
            for sub in fulton.face_ids(fulton.cone_id(c.ray_indices)):
                assert fulton.cones[sub].ray_indices in fulton._cone_ids

    def test_wall_extremal_ray_count(self, fulton, eikelberg):
        for fan in (fulton, eikelberg):
            for w in fan.walls:
                assert len(fan.cones[w].ray_indices) == 2

    def test_euler_relation(self, fulton, eikelberg, sigma_prime):
        for fan in (fulton, eikelberg, sigma_prime):
            assert len(fan.rays) - len(fan.walls) + len(fan.max_cones) == 2


class TestMalformedInput:
    @pytest.mark.parametrize(
        "rays, message",
        [
            ([[0.5, 0], [0, 1], [-1, -1]], "ray 0 is not a list of integers: [0.5, 0]"),
            ([[1, 0], ["1", 1], [-1, -1]], "ray 1 is not a list of integers: ['1', 1]"),
            ([[1, 0], [0, 1], [-1, True]], "ray 2 is not a list of integers: [-1, True]"),
            ([[1, 0], [0, 1], [Fraction(-1), -1]], "ray 2 is not a list of integers"),
            ([[1, 0], 7, [-1, -1]], "ray 1 is not a list of integers: 7"),
            ("rays", "rays must be a list of integer vectors"),
        ],
    )
    def test_non_integer_ray_refused(self, rays, message):
        with pytest.raises(FanError) as info:
            fan_from_data(2, rays, [[0, 1], [1, 2], [0, 2]])
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize(
        "cones, message",
        [
            ([[0, 1], [1, 2.0], [0, 2]], "maximal cone 1 is not a list of ray indices: [1, 2.0]"),
            ([[0, 1], [1, 2], [0, "2"]], "maximal cone 2 is not a list of ray indices: [0, '2']"),
            ([[0, 1], 2, [0, 2]], "maximal cone 1 is not a list of ray indices: 2"),
            ({"a": [0, 1]}, "max_cones must be a list of ray-index lists"),
        ],
    )
    def test_non_integer_cone_index_refused(self, cones, message):
        with pytest.raises(FanError) as info:
            fan_from_data(2, [[1, 0], [0, 1], [-1, -1]], cones)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("rank", ["2", 2.0, True])
    def test_non_integer_rank_refused(self, rank):
        with pytest.raises(FanError, match="lattice rank must be an integer"):
            fan_from_data(rank, [[1, 0], [0, 1]], [[0, 1]])

    @pytest.mark.parametrize("key", ["rank", "rays", "max_cones"])
    def test_missing_key_refused(self, key):
        data = {"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 1]]}
        del data[key]
        with pytest.raises(FanError, match=f"fan data has no '{key}' key"):
            fan_core.fan_from_dict(data)

    def test_non_object_refused(self):
        with pytest.raises(FanError, match="a fan is an object"):
            fan_core.fan_from_dict([[1, 0], [0, 1]])


def reference_faces(vectors):
    """The former face search, one Fourier-Motzkin run per subset: a subset S
    of the generators is a face iff some functional vanishes on S and is
    positive on the other generators."""
    k = len(vectors)
    faces = {frozenset(range(k))}
    for mask in range(2 ** k - 1):
        subset = [vectors[i] for i in range(k) if mask >> i & 1]
        rest = [vectors[i] for i in range(k) if not mask >> i & 1]
        if linear_functional_witness(subset, rest) is not None:
            faces.add(frozenset(i for i in range(k) if mask >> i & 1))
    return faces


def subdivided_fans():
    """The bundled fans, each single stellar subdivision, and three
    iterated subdivisions of each rank-3 fan."""
    fans = []
    for name in BUNDLED_FANS:
        fan = load_fan(name)
        fans.append(fan)
        fans += [stellar_subdivision(fan, p) for p in range(len(fan.max_cones))]
        if fan.rank == 3:
            for _ in range(3):
                fan = stellar_subdivision(fan, len(fan.max_cones) // 2)
                fans.append(fan)
    return fans


class TestFacesFromFacets:
    def test_matches_subset_search_on_every_cone(self):
        count = 0
        for fan in subdivided_fans():
            for cone in fan.cones[1:]:
                vectors = [fan.rays[i] for i in cone.ray_indices]
                assert fan_core._cone_faces(vectors) == reference_faces(vectors), vectors
                count += 1
        assert count >= 900

    @pytest.mark.parametrize(
        "vectors",
        [
            # lower-dimensional: a 2-dimensional cone in rank 4, with a
            # non-extremal generator, and a square cone of dimension 3 in rank 4
            [[1, 0, 0, 0], [1, 1, 0, 0], [0, 1, 0, 0]],
            [[1, 0, 0, 1], [0, 1, 0, 1], [-1, 0, 0, 1], [0, -1, 0, 1]],
            [[2, 1, 0], [1, 1, 0]],
            # not pointed: a half-plane, a line, a half-space, the whole plane
            [[1, 0], [-1, 0], [0, 1]],
            [[1, 1, 0], [-1, -1, 0]],
            [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1]],
            [[1, 0, 0], [-1, 0, 0], [0, 1, 1], [1, 1, 1]],
            [[1, 0], [0, 1], [-1, -1]],
        ],
    )
    def test_matches_subset_search_on_special_cones(self, vectors):
        assert fan_core._cone_faces(vectors) == reference_faces(vectors)

    def test_matches_subset_search_on_random_cones(self):
        rng = random.Random("faces")
        for _ in range(60):
            rank = rng.choice((2, 3, 4))
            rays = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, 6))]
            vectors = sorted({primitive(r) for r in rays if any(r)})
            if not vectors:
                continue
            assert fan_core._cone_faces(vectors) == reference_faces(vectors), vectors


def reference_fm_inequalities(rows, nvars):
    """The former back-substitution, in Fractions, after the same
    elimination as `fan_core._fm_inequalities`."""
    levels = []
    current = []
    for coeffs, strict in rows:
        norm = fan_core._normalize_ineq(coeffs, strict)
        if norm is None:
            continue
        if norm[0] == "infeasible":
            return None
        current.append(norm)
    for var in range(nvars - 1, 0, -1):
        levels.append(current)
        current = fan_core._eliminate(current, var)
        if current is None:
            return None
    levels.append(current)

    y = [Fraction(0)] * nvars
    for var in range(nvars):
        lo = hi = None
        lo_strict = hi_strict = False
        for coeffs, strict in levels[nvars - 1 - var]:
            c = coeffs[var]
            if c == 0:
                continue
            bound = Fraction(-sum(coeffs[j] * y[j] for j in range(var)), c)
            if c > 0:
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
            else:
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
        if lo is None and hi is None:
            y[var] = Fraction(0)
        elif hi is None:
            y[var] = lo + 1 if lo_strict else lo
        elif lo is None:
            y[var] = hi - 1 if hi_strict else hi
        elif lo < hi:
            y[var] = (lo + hi) / 2
        elif lo == hi and not (lo_strict or hi_strict):
            y[var] = lo
        elif var == 0:
            return None
        else:
            raise AssertionError("Fourier-Motzkin back-substitution failed")
    return tuple(y)


def reference_linear_functional_witness(zero_on, positive_on, negative_on=()):
    """The former witness: u assembled and sign-checked in Fractions."""
    vectors = [*zero_on, *positive_on, *negative_on]
    dim = len(vectors[0])
    if zero_on:
        basis = nullspace_of_int_rows(list(zero_on), dim)
        if not basis:
            if positive_on or negative_on:
                return None
            return tuple(Fraction(0) for _ in range(dim))
    else:
        basis = [[int(i == j) for j in range(dim)] for i in range(dim)]
    k = len(basis)
    rows = []
    for v in positive_on:
        rows.append((tuple(sum(b[i] * v[i] for i in range(dim)) for b in basis), True))
    for v in negative_on:
        rows.append((tuple(-sum(b[i] * v[i] for i in range(dim)) for b in basis), True))
    if not rows:
        y = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(k))
        return tuple(sum(y[j] * basis[j][i] for j in range(k)) for i in range(dim))
    y = reference_fm_inequalities(rows, k)
    if y is None:
        return None
    u = tuple(sum(y[j] * basis[j][i] for j in range(k)) for i in range(dim))
    for v in zero_on:
        assert sum(a * b for a, b in zip(u, v)) == 0
    for v in positive_on:
        assert sum(a * b for a, b in zip(u, v)) > 0
    for v in negative_on:
        assert sum(a * b for a, b in zip(u, v)) < 0
    return u


@st.composite
def witness_families(draw):
    """Three families of integer vectors of rank 2-4, not all empty.  With
    `clash`, one vector must be both positive and negative, so no witness
    exists; other families are infeasible by chance."""
    rank = draw(st.integers(2, 4))
    vectors = st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank), max_size=4)
    zero_on, positive_on, negative_on = draw(vectors), draw(vectors), draw(vectors)
    clash = draw(st.booleans())
    if clash or not (zero_on or positive_on or negative_on):
        v = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
        positive_on, negative_on = [*positive_on, v], [*negative_on, v]
    return zero_on, positive_on, negative_on, clash


class TestIntegerWitness:
    @given(witness_families())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_equals_fraction_reference(self, family):
        zero_on, positive_on, negative_on, clash = family
        got = linear_functional_witness(zero_on, positive_on, negative_on)
        assert got == reference_linear_functional_witness(zero_on, positive_on, negative_on)
        assert got is None or all(type(x) is Fraction for x in got)
        if clash:
            assert got is None

    @pytest.mark.parametrize("last", [(0, 0, 1), (0, 0, -1), (1, 1, 1), (-1, 1, -2)])
    def test_equals_fraction_reference_after_a_fractional_value(self, last):
        # y_0 = 1, y_1 = -1/12 halfway between -1/2 and 1/3, then y_2 one
        # step beyond a strict bound: the step is 1 in y, 12 over the
        # common denominator
        positive_on = [(1, 0, 0), (1, 2, 0), (1, -3, 0), last]
        got = linear_functional_witness([], positive_on)
        assert got[1] == Fraction(-1, 12)
        assert got == reference_linear_functional_witness([], positive_on)

    def test_equals_fraction_reference_on_every_pair_of_maximal_cones(self):
        count = 0
        for fan in subdivided_fans():
            for a, b in itertools.combinations(fan.max_cones, 2):
                ra, rb = set(a.ray_indices), set(b.ray_indices)
                args = ([fan.rays[i] for i in sorted(ra & rb)],
                        [fan.rays[i] for i in sorted(ra - rb)],
                        [fan.rays[i] for i in sorted(rb - ra)])
                got = linear_functional_witness(*args)
                assert got is not None
                assert got == reference_linear_functional_witness(*args)
                count += 1
        assert count >= 1100

    def test_cone_membership_agrees_with_the_fraction_reference(self):
        rng = random.Random("membership")
        for fan in subdivided_fans()[:12]:
            for cone in fan.cones[1:]:
                gens = [fan.rays[i] for i in cone.ray_indices]
                point = [rng.randint(-3, 3) for _ in range(fan.rank)]
                rows = [(tuple(g), False) for g in gens] + [(tuple(-x for x in point), True)]
                want = not any(point) or reference_fm_inequalities(rows, fan.rank) is None
                assert cone_contains_point(gens, point) == want


def moved_ray_inputs():
    """(rank, rays, max_cones) of the three rank-3 bundled fans with one ray
    moved to a point of [-2, 2]^3, for every ray and point."""
    out = []
    for name in ("fulton", "eikelberg", "sigma_prime"):
        data = fan_to_dict(load_fan(name))
        for i in range(len(data["rays"])):
            for point in itertools.product(range(-2, 3), repeat=3):
                rays = [list(point) if j == i else r for j, r in enumerate(data["rays"])]
                out.append((3, rays, data["max_cones"]))
    return out


def random_inputs(count):
    """Seeded rank-2 and rank-3 inputs: distinct primitive rays in [-2, 2]^r
    and random cones over them, with a one-ray cone for each ray left over,
    so some cones are not full-dimensional."""
    rng = random.Random("fan validation")
    out = []
    for _ in range(count):
        rank = rng.choice((2, 3))
        points = sorted({primitive(p) for p in itertools.product(range(-2, 3), repeat=rank)
                         if any(p)})
        rays = rng.sample(points, rng.randint(3, 7))
        cones = [rng.sample(range(len(rays)), rng.randint(1, min(rank + 1, len(rays))))
                 for _ in range(rng.randint(2, 5))]
        cones += [[i] for i in range(len(rays)) if not any(i in c for c in cones)]
        out.append((rank, [list(r) for r in rays], cones))
    return out


def validation_outcome(build, rank, rays, max_cones):
    """The fan's rays, cones with their dimensions and walls, or the message
    of the `FanError` that refuses the input."""
    try:
        fan = build(rank, rays, max_cones)
    except FanError as exc:
        return str(exc)
    return (fan.rays, [(c.ray_indices, c.dim) for c in fan.max_cones],
            [(c.ray_indices, c.dim) for c in fan.cones], fan.walls, fan.wall_cones)


class TestValidationEqualsReference:
    """`fan_from_data` against the pair loop that seeks a Fourier-Motzkin
    witness for every pair of maximal cones (`conftest.reference_fan_from_data`)."""

    def test_same_fans_and_messages(self, monkeypatch):
        fm_calls = []
        witness = fan_core._witness

        def counted(basis, zero_on, positive_on, negative_on):
            fm_calls.append(len(zero_on))
            return witness(basis, zero_on, positive_on, negative_on)

        subdivided = [(f.rank, [list(r) for r in f.rays], [list(c.ray_indices) for c in f.max_cones])
                      for f in subdivided_fans()]
        refusals = []
        for group, inputs in (("subdivided", subdivided), ("moved", moved_ray_inputs()),
                              ("random", random_inputs(600))):
            for args in inputs:
                want = validation_outcome(reference_fan_from_data, *args)
                monkeypatch.setattr(fan_core, "_witness", counted)
                start = len(fm_calls)
                got = validation_outcome(fan_from_data, *args)
                monkeypatch.setattr(fan_core, "_witness", witness)
                assert got == want, args
                if isinstance(got, str):
                    refusals.append(got)
                elif group == "subdivided":
                    # every pair of full-dimensional cones on a wall (rank - 1
                    # common rays, in ranks 2 and 3) is decided by a candidate
                    assert all(n < args[0] - 1 for n in fm_calls[start:]), args
        assert fm_calls
        assert any("intersect in a non-face" in m for m in refusals)

    def test_facet_normals_point_inward(self):
        for fan in subdivided_fans():
            for cone in fan.max_cones:
                gens = [fan.rays[i] for i in cone.ray_indices]
                facets = fan_core._cone_facets(gens, list(range(fan.rank)))
                assert facets
                for zeros, u in facets.items():
                    values = [sum(a * b for a, b in zip(u, g)) for g in gens]
                    assert min(values) == 0 and frozenset(
                        i for i, x in enumerate(values) if x == 0) == zeros


class TestFaceTables:
    def test_match_the_ray_subset_definition(self):
        for fan in subdivided_fans():
            rays = [set(c.ray_indices) for c in fan.cones]
            for b, big in enumerate(rays):
                assert fan.face_ids(b) == tuple(a for a, small in enumerate(rays) if small <= big)
                assert fan.coface_ids(b) == tuple(a for a, other in enumerate(rays) if big <= other)
                for a, small in enumerate(rays):
                    assert fan.is_face(a, b) == (small <= big)


class TestCompleteness:
    def test_fulton_complete(self, fulton):
        assert is_complete(fulton)

    def test_sigma_prime_complete(self, sigma_prime):
        assert is_complete(sigma_prime)

    def test_eikelberg_complete(self, eikelberg):
        assert is_complete(eikelberg)

    def test_octant_incomplete(self):
        assert not is_complete(octant())

    def test_p2_complete(self):
        assert is_complete(load_fan("p2"))

    def test_rank2_incomplete_halfplane(self):
        fan = fan_from_data(2, [[1, 0], [0, 1], [-1, 0]], [[0, 1], [1, 2]])
        assert not is_complete(fan)

    def test_rank1(self):
        assert is_complete(fan_from_data(1, [[1], [-1]], [[0], [1]]))
        assert not is_complete(fan_from_data(1, [[1]], [[0]]))

    def test_lower_dimensional_cones_incomplete(self):
        # no walls at all, so only the dimension of the cones decides
        assert not is_complete(fan_from_data(3, [[1, 0, 0], [-1, 0, 0]], [[0], [1]]))
        assert not is_complete(fan_from_data(2, [[1, 0], [-1, 0]], [[0], [1]]))

    def test_rank4_rejected(self):
        fan = fan_from_data(4, [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 1]])
        with pytest.raises(FanError, match="rank"):
            is_complete(fan)

    def test_missing_cone_makes_incomplete(self, fulton):
        data = fan_to_dict(fulton)
        data["max_cones"] = data["max_cones"][:-1]
        fan = fan_from_data(data["rank"], data["rays"], data["max_cones"])
        assert not is_complete(fan)

    @pytest.mark.parametrize("name", BUNDLED_FANS)
    def test_verdict_matches_point_membership(self, name):
        # The bundled fan, its stellar subdivisions (rank 3) and each of those
        # with one maximal cone dropped.  A fan is complete exactly when every
        # sample point lies in some maximal cone; an incomplete fan's sample
        # includes the dropped cone's ray sum, which lies in no other cone.
        base = load_fan(name)
        fans = [base]
        if base.rank == 3:
            fans += [stellar_subdivision(base, p) for p in range(len(base.max_cones))]
        cases = []
        for fan in fans:
            cases.append((fan, None))
            for dropped in fan.max_cones:
                cones = [c.ray_indices for c in fan.max_cones if c is not dropped]
                witness = [sum(col) for col in zip(*(fan.rays[i] for i in dropped.ray_indices))]
                cases.append((fan_from_data(fan.rank, fan.rays, cones), witness))
        rng = random.Random(f"complete-{name}")
        for fan, witness in cases:
            points = [[rng.randint(-9, 9) for _ in range(fan.rank)] for _ in range(4)]
            if witness is not None:
                points.append(witness)
            covered = all(
                any(cone_contains_point([fan.rays[i] for i in c.ray_indices], pt)
                    for c in fan.max_cones)
                for pt in points
            )
            assert is_complete(fan) == covered == (witness is None)

    def test_builds_no_fan(self, sigma_prime, monkeypatch):
        fresh = [load_fan("sigma_prime"), stellar_subdivision(sigma_prime, 0)]
        calls = []
        real = fan_core.fan_from_data

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(fan_core, "fan_from_data", counted)
        for fan in fresh:
            assert is_complete(fan)
            assert list(fan._derived) == [fan_core._fills_space]  # no ray links
        assert calls == []


def _annihilates(rows, v) -> bool:
    """Whether every row has dot product 0 with v."""
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


class TestWallRelation:
    def test_sigma1(self, fulton):
        assert wall_relation(fulton, 0) == [(2, -4, 3, -5)]

    def test_simplicial_cone_empty(self, eikelberg):
        # first Eikelberg cone has three rays
        assert wall_relation(eikelberg, 0) == []

    def test_sigma3_by_substitution(self, fulton):
        rels = wall_relation(fulton, 2)
        assert len(rels) == 1
        gens = [fulton.rays[i] for i in fulton.max_cones[2].ray_indices]
        assert _annihilates(zip(*gens), rels[0])

    def test_all_relations_annihilate(self, fulton, sigma_prime):
        for fan in (fulton, sigma_prime):
            for i in range(len(fan.max_cones)):
                gens = [fan.rays[j] for j in fan.max_cones[i].ray_indices]
                for rel in wall_relation(fan, i):
                    assert _annihilates(zip(*gens), rel)


class TestRayLinks:
    def test_single_cycle_each_ray(self, fulton):
        for ray in range(len(fulton.rays)):
            cones, walls = ray_link(fulton, ray)
            assert len(cones) == len(walls)
            assert len(cones) == len(set(cones))
            assert set(cones) == set(fulton.cones_containing_ray(ray))
            # consecutive cones share the connecting wall
            for j, w in enumerate(walls):
                a, b = fulton.wall_cones[w]
                assert {cones[j], cones[(j + 1) % len(cones)]} == {a, b}

    def test_link_starts_at_lowest_cone_and_wall(self, fulton):
        cones, walls = ray_link(fulton, 0)
        assert cones[0] == min(fulton.cones_containing_ray(0))
        incident_walls = [
            w
            for w, wid in enumerate(fulton.walls)
            if 0 in fulton.cones[wid].ray_indices and cones[0] in fulton.wall_cones[w]
        ]
        assert walls[0] == min(incident_walls)


class TestSymmetriesAndIO:
    def test_fulton_automorphism_group_order(self, fulton):
        assert len(combinatorial_automorphisms(fulton)) == 48

    def test_roundtrip(self, fulton, tmp_path):
        p = tmp_path / "f.fan.json"
        p.write_text(json.dumps(fan_to_dict(fulton)))
        again = load_fan(str(p))
        assert again.rays == fulton.rays
        assert [c.ray_indices for c in again.max_cones] == [
            c.ray_indices for c in fulton.max_cones
        ]

    def test_cone_membership(self, fulton):
        gens = fulton.generators(fulton.cone_id(fulton.max_cones[0].ray_indices))
        inside = tuple(sum(col) for col in zip(*gens))
        assert cone_contains_point(gens, inside)
        assert cone_contains_point(gens, gens[0])
        assert not cone_contains_point(gens, (0, 0, -1))

    def test_cone_membership_of_rational_points(self, fulton):
        gens = [fulton.rays[i] for i in fulton.max_cones[0].ray_indices]
        inside = [Fraction(sum(col), 7) for col in zip(*gens)]
        assert cone_contains_point(gens, inside)
        assert cone_contains_point(gens, [Fraction(x, 3) for x in gens[1]])
        assert not cone_contains_point(gens, [-x for x in inside])
        assert cone_contains_point(gens, [Fraction(0), Fraction(0), Fraction(0)])

    @pytest.mark.parametrize("point, bad", [((0.5, "1", True), 0.5), ((1, "1", True), "'1'"),
                                            ((1, 2, True), True), ((1, 0.0, 3), 0.0)],
                             ids=["float", "str", "bool", "zero-float"])
    def test_cone_membership_refuses_an_entry_not_int_or_fraction(self, fulton, point, bad):
        gens = [fulton.rays[i] for i in fulton.max_cones[0].ray_indices]
        with pytest.raises(ValueError, match=re.escape(
                f"point row 0 has entry {bad}, not an int or a Fraction")):
            cone_contains_point(gens, point)

    @pytest.mark.parametrize("point, length", [((1, 1), 2), ((1, 1, 1, 5), 4)])
    def test_cone_membership_refuses_a_point_of_another_length(self, fulton, point, length):
        gens = [fulton.rays[i] for i in fulton.max_cones[0].ray_indices]
        with pytest.raises(ValueError, match=f"^a point of length {length} against "
                                             "generators of length 3$"):
            cone_contains_point(gens, point)
