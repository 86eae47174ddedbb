import copy
import importlib
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanbranch.cover_poset import (
    are_isomorphic,
    cover_to_dict,
    degree,
    is_maximal,
    validate_cover,
)
from fanbranch.exact_linalg import (
    SubspaceBasis,
    _rational_rows,
    annihilator,
    integer_solve,
    intersect,
    rank_of_int_rows,
)
from fanbranch.fan_core import BUNDLED_FANS, fan_from_data, load_fan
from fanbranch.klyachko import (
    BUNDLED_BUNDLES,
    ChernData,
    Filtration,
    KlyachkoData,
    KlyachkoError,
    NecessityReport,
    SplittingCertificate,
    VerifyResult,
    branched_cover_of,
    bundle_from_dict,
    bundle_to_dict,
    chern,
    direct_sum,
    dual,
    equal_chern,
    flag,
    interpolate,
    is_trivial_chern,
    line_bundle,
    load_bundle,
    necessary_dimension_check,
    pullback,
    verify,
)
from fanbranch.monodromy import assignment_at, build_cover
from fanbranch.pl_group import group_triviality, is_trivial_function, multisets, solve

from conftest import (
    FULTON_PRINTED_MULTISETS,
    forced_chain,
    forced_collision,
    random_bundle,
    random_filtration,
    reference_annihilator,
    reference_branched_cover_of,
    reference_dual,
    reference_face_agreement,
    reference_solve_linear,
    reference_subspace_basis,
    reference_verify,
)


@pytest.fixture(scope="module")
def eikelberg_bundle():
    return load_bundle("eikelberg")


@pytest.fixture(scope="module")
def p2_bundle():
    return load_bundle("p2_tangent")


@pytest.fixture(scope="module")
def fulton_bundle():
    return load_bundle("fulton_rank3")


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("name", sorted(BUNDLED_BUNDLES))
def test_loaded_bundle_copies_and_pickles(name, clone):
    """A bundle's data and certificate survive a deep copy and a pickle round
    trip (a `SubspaceBasis` used to refuse both as immutable)."""
    data, cert = load_bundle(name)
    got_data, got_cert = clone((data, cert))
    assert got_data.filtrations == data.filtrations
    assert got_cert.entries == cert.entries
    assert bundle_to_dict(got_data, got_cert) == bundle_to_dict(data, cert)
    assert verify(got_data, got_cert) == verify(data, cert)
    assert got_data == data and data == got_data


@pytest.mark.parametrize("name", sorted(BUNDLED_BUNDLES))
def test_bundle_equality_reads_the_fan_by_rays_and_cones(name):
    data, _ = load_bundle(name)
    renamed = copy.deepcopy(data)
    renamed.fan.name = "renamed"
    assert renamed == data
    cones = copy.deepcopy(data)
    cones.fan.max_cones = (cones.fan.max_cones[1],) + cones.fan.max_cones[1:]
    assert cones != data
    moved = copy.deepcopy(data)
    f = moved.filtrations[0]
    moved.filtrations[0] = Filtration(f.ambient_dim, [(t + 1, s) for t, s in f.steps])
    assert moved != data


class TestFiltration:
    def test_value_lookup(self):
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        L = SubspaceBasis(2, [[1, 0]])
        f = Filtration(2, [(-1, E), (3, L)])
        assert f.value(-5) == E
        assert f.value(-1) == E
        assert f.value(0) == L
        assert f.value(3) == L
        assert f.value(4).dim == 0

    def test_value_at_a_fraction(self):
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        L = SubspaceBasis(2, [[1, 0]])
        f = Filtration(2, [(-1, E), (3, L)])
        assert f.value(Fraction(-3, 2)) == E
        assert f.value(Fraction(5, 2)) == L
        assert f.value(Fraction(7, 2)).dim == 0

    @pytest.mark.parametrize("index", [0.1, 2.0, True, "x", "3/2", None, [1], float("nan")],
                             ids=repr)
    def test_value_refuses_an_index_that_is_not_an_int_or_a_fraction(self, eikelberg_bundle,
                                                                     index):
        # 0.1 and True used to answer (0.1 read as a binary fraction), "3/2"
        # was parsed, and the rest ended in a bare ValueError or TypeError
        f = eikelberg_bundle[0].filtrations[0]
        with pytest.raises(KlyachkoError, match="is not an int or a Fraction") as exc:
            f.value(index)
        assert repr(index) in str(exc.value)

    def test_drop_multiset(self):
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        L = SubspaceBasis(2, [[1, 0]])
        assert drop_multiset(Filtration(2, [(-1, E), (3, L)])) == [(-1, 1), (3, 1)]
        assert drop_multiset(Filtration(2, [(6, E)])) == [(6, 2)]

    def test_rejects_bad_chains(self):
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        L = SubspaceBasis(2, [[1, 0]])
        with pytest.raises(KlyachkoError):
            Filtration(2, [(0, L)])  # first step not the full space
        with pytest.raises(KlyachkoError):
            Filtration(2, [(0, E), (0, L)])  # thresholds not increasing
        with pytest.raises(KlyachkoError):
            Filtration(2, [(0, E), (1, E)])  # not strictly decreasing

    def test_refuses_a_raw_float_row(self):
        # 1.5 used to be read into the subspace as 3/2
        with pytest.raises(ValueError, match=r"basis row 1 has entry 1\.5, not an int"):
            Filtration(2, [(0, [[1, 0], [0, 1.5]])])

    @pytest.mark.parametrize("threshold", [Fraction(1, 2), Fraction(2), 2.7, 2.0, True],
                             ids=repr)
    def test_refuses_a_threshold_that_is_not_an_int(self, threshold):
        # these used to be truncated by int(): 1/2 to 0, 2.7 to 2, True to 1
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        with pytest.raises(KlyachkoError, match="is not an integer"):
            Filtration(2, [(threshold, E)])


@pytest.mark.parametrize("u", [(Fraction(3, 2), 0, 1), (1, 0.9, 1), (1, 0, True)], ids=repr)
def test_certificate_refuses_a_u_that_is_not_of_ints(u):
    # (3/2, 0.9, 1) used to become (1, 0, 1)
    E = SubspaceBasis(1, [[1]])
    with pytest.raises(KlyachkoError, match="is not a vector of integers"):
        SplittingCertificate({0: [((1, 2, 3), E)], 1: [(u, E)]})


class TestVerify:
    def test_eikelberg_ok(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        assert verify(data, cert).ok

    def test_p2_ok(self, p2_bundle):
        data, cert = p2_bundle
        assert verify(data, cert).ok

    def test_rank_one_ok(self):
        fan = load_fan("fulton")
        data, cert = line_bundle(fan, (2, -1, 3))
        assert verify(data, cert).ok
        cd = chern(data, cert)
        assert all(len(ms) == 1 for ms in cd.multisets.values())

    def test_fulton_rank3_violation(self, fulton_bundle):
        data, cert = fulton_bundle
        result = verify(data, cert)
        assert not result.ok
        assert result.cone == 0 and result.ray == 2

    def test_broken_certificate_reported(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        bad_entries = dict(cert.entries)
        (u1, s1), (u2, s2) = bad_entries[0]
        bad_entries[0] = ((u1, s2), (u2, s1))  # swap the two lines
        result = verify(data, SplittingCertificate(bad_entries))
        assert not result.ok and result.cone == 0


    def test_zero_summand_is_a_violation_at_its_cone(self, eikelberg_bundle):
        # the induced filtration used to refuse it with "zero subspaces are
        # implicit above the last threshold", which does not name the fault
        data, cert = eikelberg_bundle
        entries = dict(cert.entries)
        entries[0] = entries[0] + (((7, 7, 7), SubspaceBasis(2)),)
        result = verify(data, SplittingCertificate(entries))
        assert result == VerifyResult(False, cone=0, reason="the summand of u = (7, 7, 7) is zero")

    def test_summand_outside_the_rank_refused_by_cone_and_entry(self, eikelberg_bundle):
        # a line in Q^3 for a rank-2 bundle: `verify` used to raise a bare
        # ValueError, `chern` and `branched_cover_of` to accept it
        data, cert = eikelberg_bundle
        entries = dict(cert.entries)
        (u, _), second = entries[1]
        entries[1] = ((u, SubspaceBasis(3, [[1, 0, 0]])), second)
        bad = SplittingCertificate(entries)
        assert verify(data, bad) == VerifyResult(
            False, cone=1, reason=f"the summand of u = {u} is a subspace of Q^3, not of Q^2")
        message = r"^splitting of cone 1: entry 0 is a subspace of Q\^3, not of Q\^2$"
        with pytest.raises(KlyachkoError, match=message):
            chern(data, bad)
        with pytest.raises(KlyachkoError, match=message):
            branched_cover_of(data, bad)


def _dual_certificate(cert: SplittingCertificate, r: int) -> SplittingCertificate:
    """The dual's splitting: E*_{-u} is the annihilator of the other summands."""
    return SplittingCertificate({
        pos: [(tuple(-x for x in u),
               annihilator(SubspaceBasis(r, [row for j, (_, t) in enumerate(es) if j != i
                                             for row in t.basis])))
              for i, (u, _) in enumerate(es)]
        for pos, es in cert.entries.items()
    })


def _verify_cases():
    """(label, data, certificate): every bundled bundle and its sums with
    seeded line bundles, each with its dual."""
    rng = random.Random(23)
    for name in BUNDLED_BUNDLES:
        data, cert = load_bundle(name)
        cases = [(name, data, cert)]
        for _ in range(2):
            u = [rng.randint(-3, 3) for _ in range(data.fan.rank)]
            line, line_cert = line_bundle(data.fan, u)
            cases.append((f"{name} + L{u}", *direct_sum(data, line, cert, line_cert)))
        for label, d, c in cases:
            yield label, d, c
            yield f"dual {label}", dual(d), _dual_certificate(c, d.rank)


def _mutants(cert: SplittingCertificate, rng):
    """(kind, certificate): per cone, seeded copies with two subspaces
    swapped, one entry's class repeated on another, one coordinate of one
    `u` moved by 1, one entry dropped, and one summand repeated under a new
    class."""
    for pos, entries in cert.entries.items():
        es = list(entries)
        changed = []
        if len(es) > 1:
            i, j = rng.sample(range(len(es)), 2)
            swapped = es[:]
            swapped[i], swapped[j] = (es[i][0], es[j][1]), (es[j][0], es[i][1])
            repeated = es[:]
            repeated[j] = (es[i][0], es[j][1])
            changed += [("swapped subspaces", swapped), ("repeated class", repeated)]
        k = rng.randrange(len(es))
        u = list(es[k][0])
        u[rng.randrange(len(u))] += rng.choice((-1, 1))
        perturbed = es[:]
        perturbed[k] = (tuple(u), es[k][1])
        u[0] += 100
        changed += [("perturbed u", perturbed), ("entry dropped", es[:k] + es[k + 1:]),
                    ("summand doubled", es + [(tuple(u), es[k][1])])]
        for kind, new in changed:
            yield kind, SplittingCertificate({**cert.entries, pos: new})


class TestVerifyEqualsReference:
    """`verify` decides in integers; `conftest.reference_verify` rebuilds
    each induced filtration in `Fraction` subspaces.  Every field agrees."""

    def test_bundled_bundles_sums_and_duals(self):
        verdicts = {}
        for label, data, cert in _verify_cases():
            got = verify(data, cert)
            assert got == reference_verify(data, cert), label
            verdicts[label] = got.ok
        assert verdicts["eikelberg"] and verdicts["dual eikelberg"]
        assert not verdicts["fulton_rank3"] and not verdicts["dual fulton_rank3"]

    def test_mutated_certificates(self):
        rng = random.Random(9)
        reasons = set()
        kinds = set()
        for label, data, cert in _verify_cases():
            for kind, mutant in _mutants(cert, rng):
                got = verify(data, mutant)
                assert got == reference_verify(data, mutant), (label, kind)
                kinds.add(kind)
                reasons.add(got.reason.split(" ")[0])
        assert kinds == {"swapped subspaces", "repeated class", "perturbed u", "entry dropped",
                         "summand doubled"}
        # a repeated class, a sum that is not direct, and a filtration missed
        assert reasons == {"repeated", "summands", "splitting"}


class TestPrintedMultisetsObstruction:
    """The printed rank-3 multisets admit no compatible splitting at all:
    chasing one-dimensional filtration values around shared rays forces two
    distinct summands of one cone to be the same line."""

    def test_fulton_printed_multisets_are_unrealizable(self):
        fan = load_fan("fulton")
        printed = FULTON_PRINTED_MULTISETS
        a, b, c = (1, -1, 0), (0, -1, 1), (0, 0, 0)
        assert forced_collision(fan, printed) == (2, a, b)
        # ray 5 at 2, ray 2 at 2, ray 0 at 1: E_a = E_f = E_b
        chain = forced_chain(fan, printed, (2, a), (2, b))
        assert [(ray, t) for ray, t, _, _ in chain] == [(5, 2), (2, 2), (0, 1)]
        assert chain[0][3] == (3, (0, -2, 0)) and chain[1][3] == (0, b)
        # the same steps with ray 7 at 0 collapse E_b and E_c in cone 5
        assert forced_chain(fan, printed, (5, b), (5, c)) is not None

    def test_eikelberg_multisets_pass_the_same_chase(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        fan = data.fan
        printed = {
            pos: tuple(u for u, _ in cert.cone(pos))
            for pos in range(len(fan.max_cones))
        }
        assert forced_collision(fan, printed) is None


class TestNecessaryDimensionCheck:
    def test_three_distinct_lines_violation(self):
        fan = fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        lines = [
            SubspaceBasis(2, [[1, 0]]),
            SubspaceBasis(2, [[0, 1]]),
            SubspaceBasis(2, [[1, 1]]),
        ]
        data = KlyachkoData(
            fan,
            2,
            {i: Filtration(2, [(0, E), (1, lines[i])]) for i in range(3)},
        )
        assert necessary_dimension_check(data).status == "violation"

    def test_verified_data_passes(self, eikelberg_bundle, p2_bundle):
        for data, cert in (eikelberg_bundle, p2_bundle):
            report = necessary_dimension_check(data)
            assert report.ok
            assert "necessary" in report.note

    def test_eikelberg_recovers_printed_multisets(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        report = necessary_dimension_check(data)
        for pos in range(5):
            expected = sorted(
                (tuple(Fraction(x) for x in u), s.dim) for u, s in cert.cone(pos)
            )
            assert sorted(report.multisets[pos]) == expected

    def test_fulton_rank3_screened_out(self, fulton_bundle):
        data, _ = fulton_bundle
        assert necessary_dimension_check(data).status == "violation"


def drop_multiset(f: Filtration) -> list[tuple[int, int]]:
    """(threshold, dimension drop) pairs of a filtration; drops sum to the
    ambient dim."""
    dims = [s.dim for _, s in f.steps] + [0]
    return [(t, d0 - d1) for (t, _), d0, d1 in zip(f.steps, dims, dims[1:])]


def reference_necessary_dimension_check(data: KlyachkoData) -> NecessityReport:
    """The screen with one `Fraction` Gauss-Jordan solve and one
    `integer_solve` per threshold combination and dimensions from `Fraction`
    intersections."""
    fan = data.fan
    r = data.rank
    full = SubspaceBasis(r, [[int(j == i) for j in range(r)] for i in range(r)])
    recovered = {}
    for pos in range(len(fan.max_cones)):
        cone_rays = fan.max_cones[pos].ray_indices
        filts = [data.filtrations[ray] for ray in cone_rays]
        threshold_sets = [f.thresholds() for f in filts]
        ray_matrix = [list(fan.rays[ray]) for ray in cone_rays]
        grid = list(product(*threshold_sets))
        candidates = sorted(
            combo for combo in grid
            if reference_solve_linear(ray_matrix, combo) is not None
            and integer_solve(ray_matrix, combo) is not None
        )
        drops = [dict(drop_multiset(f)) for f in filts]
        dims = {}
        for combo in grid:
            acc = full
            for f, t in zip(filts, combo):
                acc = intersect(acc, f.value(t))
            dims[combo] = acc.dim
        solution = None
        for multiset in combinations_with_replacement(candidates, r):
            okay = True
            for j, dmap in enumerate(drops):
                seen: dict[int, int] = {}
                for cand in multiset:
                    seen[cand[j]] = seen.get(cand[j], 0) + 1
                if seen != dmap:
                    okay = False
                    break
            if not okay:
                continue
            for combo in grid:
                predicted = sum(
                    1
                    for cand in multiset
                    if all(cv >= t for cv, t in zip(cand, combo))
                )
                if predicted != dims[combo]:
                    okay = False
                    break
            if okay:
                solution = multiset
                break
        if solution is None:
            return NecessityReport("violation", None)
        counts: dict = {}
        for combo in solution:
            # the unique solution of a full-dimensional cone, else an integral one
            key = reference_solve_linear(ray_matrix, combo)
            if rank_of_int_rows(ray_matrix, fan.rank) < fan.rank:
                key = tuple(Fraction(x) for x in integer_solve(ray_matrix, combo))
            counts[key] = counts.get(key, 0) + 1
        recovered[pos] = tuple(sorted(counts.items()))
    return NecessityReport("ok", recovered)


def _screen_cases():
    """Every bundled bundle, its dual, and its sums with seeded line bundles
    and their duals."""
    rng = random.Random(12)
    for name in BUNDLED_BUNDLES:
        data, cert = load_bundle(name)
        yield name, data
        yield f"dual {name}", dual(data)
        for _ in range(3):
            u = [rng.randint(-3, 3) for _ in range(data.fan.rank)]
            line, line_cert = line_bundle(data.fan, u)
            summed, _ = direct_sum(data, line, cert, line_cert)
            yield f"{name} + L{u}", summed
            yield f"dual ({name} + L{u})", dual(summed)


def _lower_dimensional_fan():
    # cone 1 is a maximal cone of dimension 2: its ray matrix has rank 2 < 3,
    # and (-2, -1, 0) puts a pivot 2 into its elimination
    return fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-2, -1, 0]], [[0, 1, 2], [2, 3]])


def _index_two_fan():
    # cone 0 has full rank and determinant 2; cone 1 has dimension 2, and
    # an integral functional takes the values (t0, t3) on it exactly when
    # t0 - t3 is even
    return fan_from_data(3, [[1, 0, 0], [0, 1, 0], [1, 1, 2], [1, 0, -2]], [[0, 1, 2], [0, 3]])


def _rank_one(fan, thresholds):
    full = SubspaceBasis(1, [[1]])
    return KlyachkoData(fan, 1, {ray: Filtration(1, [(t, full)])
                                 for ray, t in enumerate(thresholds)})


def _sum_of_lines(fan, functionals):
    data, cert = line_bundle(fan, functionals[0])
    for u in functionals[1:]:
        line, line_cert = line_bundle(fan, u)
        data, cert = direct_sum(data, line, cert, line_cert)
    return data


class TestScreenEqualsReference:
    def test_bundled_duals_and_sums(self):
        for label, data in _screen_cases():
            got = necessary_dimension_check(data)
            want = reference_necessary_dimension_check(data)
            assert (got.status, got.multisets) == (want.status, want.multisets), label

    @pytest.mark.parametrize("make_fan", [_lower_dimensional_fan, _index_two_fan])
    def test_lower_dimensional_maximal_cone(self, make_fan):
        fan = make_fan()
        rng = random.Random(7)
        cases = [_sum_of_lines(fan, [[rng.randint(-2, 2) for _ in range(3)]
                                     for _ in range(rng.randint(1, 3))]) for _ in range(12)]
        cases += [random_bundle(fan, rng.randint(1, 3), rng) for _ in range(12)]
        cases += [_rank_one(fan, [rng.randint(-2, 2) for _ in fan.rays]) for _ in range(12)]
        statuses = set()
        for data in cases + [dual(data) for data in cases]:
            got = necessary_dimension_check(data)
            want = reference_necessary_dimension_check(data)
            assert (got.status, got.multisets) == (want.status, want.multisets)
            statuses.add(got.status)
        assert statuses == {"ok", "violation"}

    def test_integral_solution_off_the_rational_one(self):
        # on cone 1, u = (0, 1, 0) takes the values (0, -1); the solution with
        # free variables 0 is (1/2, 0, 0), not integral, yet u is, and the
        # functional reported is integral and takes the same values
        fan = _lower_dimensional_fan()
        data = _sum_of_lines(fan, [[0, 1, 0]])
        report = necessary_dimension_check(data)
        assert report.status == "ok"
        [(u, multiplicity)] = report.multisets[1]
        assert multiplicity == 1
        assert all(x.denominator == 1 for x in u)
        assert [sum(a * b for a, b in zip(u, fan.rays[ray]))
                for ray in fan.max_cones[1].ray_indices] == [0, -1]

    @pytest.mark.parametrize("thresholds, status", [
        ((0, 0, 2, 0), "ok"),
        ((0, 0, 1, 0), "violation"),  # cone 0 needs u = (0, 0, 1/2)
        ((0, 0, 2, 1), "violation"),  # cone 1 needs u_3 = -1/2, u_2 being free
    ])
    def test_no_integral_functional(self, thresholds, status):
        data = _rank_one(_index_two_fan(), thresholds)
        got = necessary_dimension_check(data)
        want = reference_necessary_dimension_check(data)
        assert got.status == want.status == status
        assert got.multisets == want.multisets


SCREEN_FANS = {**{name: load_fan(name) for name in BUNDLED_FANS},
               "lower dimensional": _lower_dimensional_fan(), "index two": _index_two_fan()}


def _values_at(fan, pos, u) -> tuple:
    return tuple(sum(a * b for a, b in zip(u, fan.rays[ray]))
                 for ray in fan.max_cones[pos].ray_indices)


class TestScreenOnSumsOfLines:
    """Beyond the reference's reach (it searches every multiset of r grid
    points): a sum of line bundles passes the screen, and each cone's
    recovered multiset is that of the summands, up to the functionals'
    values at the cone's rays, which are all the screen can see."""

    @pytest.mark.parametrize("name", sorted(SCREEN_FANS))
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_sum_of_lines_recovers_its_summands(self, name, data):
        fan = SCREEN_FANS[name]
        coordinate = st.integers(-3, 3)
        functionals = data.draw(st.lists(st.lists(coordinate, min_size=fan.rank,
                                                  max_size=fan.rank),
                                         min_size=1, max_size=6), label="functionals")
        report = necessary_dimension_check(_sum_of_lines(fan, functionals))
        assert report.status == "ok"
        for pos in range(len(fan.max_cones)):
            got = Counter()
            for u, multiplicity in report.multisets[pos]:
                assert all(x.denominator == 1 for x in u)
                got[_values_at(fan, pos, u)] += multiplicity
            assert got == Counter(_values_at(fan, pos, u) for u in functionals), (name, pos)

    @pytest.mark.parametrize("obstructed", ["negative count", "no integral functional"])
    def test_obstruction_survives_adding_lines(self, obstructed):
        # three distinct lines in Q^2 at threshold 1 count -1 at the origin,
        # and rank one at thresholds (0, 0, 1, 0) on `_index_two_fan` needs
        # u = (0, 0, 1/2) on cone 0 with every count >= 0; a line adds one at
        # its own values (never the origin here), so each check alone must
        # screen out every sum
        if obstructed == "negative count":
            fan = fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
            full = SubspaceBasis(2, [[1, 0], [0, 1]])
            data = KlyachkoData(fan, 2, {i: Filtration(2, [(0, full), (1, SubspaceBasis(2, [row]))])
                                         for i, row in enumerate([[1, 0], [0, 1], [1, 1]])})
        else:
            fan = _index_two_fan()
            data = _rank_one(fan, (0, 0, 1, 0))
        rng = random.Random(6)
        for lines in range(1, 6):
            summed = data
            while summed.rank < data.rank + lines:
                u = [rng.randint(-2, 2) for _ in range(3)]
                if any(u):
                    summed = direct_sum(summed, line_bundle(fan, u)[0])
            assert necessary_dimension_check(summed) == NecessityReport("violation", None)

    def test_fulton_rank3_plus_lines_screened_out(self, fulton_bundle):
        # on cone 2 the printed data's grid counts -1 at the values
        # (-1, 2, -2, 0), which no integral functional takes; a line only
        # adds one at its own values, so every sum with lines is screened out
        data, cert = fulton_bundle
        rng = random.Random(4)
        for lines in (1, 1, 2, 2, 3, 3):
            summed = data
            for _ in range(lines):
                u = [rng.randint(-3, 3) for _ in range(3)]
                summed = direct_sum(summed, line_bundle(data.fan, u)[0])
            assert summed.rank == 3 + lines
            assert necessary_dimension_check(summed) == NecessityReport("violation", None)


class TestDual:
    def test_rank_one_jump_negates(self):
        fan = load_fan("fulton")
        data, _ = line_bundle(fan, (1, 1, 1))
        dd = dual(data)
        for ray in range(len(fan.rays)):
            d = data.filtrations[ray].thresholds()[0]
            assert dd.filtrations[ray].thresholds() == [-d]

    def test_involution_on_random_bundles(self):
        rng = random.Random(42)
        fans = [load_fan("fulton"), load_fan("eikelberg")]
        for i in range(100):
            fan = fans[i % 2]
            data = random_bundle(fan, rng.randint(1, 3), rng)
            assert dual(dual(data)).filtrations == data.filtrations

    def test_unchecked_steps_equal_the_validating_constructors(self):
        rng = random.Random(5)
        fans = [load_fan("fulton"), load_fan("eikelberg")]
        cases = [data for _, data, _ in _verify_cases()]
        cases += [random_bundle(fans[i % 2], rng.randint(1, 4), rng) for i in range(40)]
        for data in cases:
            for ray, f in dual(data).filtrations.items():
                steps = data.filtrations[ray].steps
                full = SubspaceBasis(data.rank, [[int(i == j) for j in range(data.rank)]
                                                 for i in range(data.rank)])
                checked = Filtration(data.rank, [(-steps[-1][0], full)] + [
                    (-steps[j - 1][0], annihilator(steps[j][1]))
                    for j in range(len(steps) - 1, 0, -1)])
                assert f == checked and type(f.steps) is tuple

    def test_eikelberg_dual_against_annihilator_oracle(self, eikelberg_bundle):
        data, _ = eikelberg_bundle
        dd = dual(data)
        for ray, f in data.filtrations.items():
            g = dd.filtrations[ray]
            for i in range(-25, 25):
                assert g.value(i) == annihilator(f.value(1 - i))


class TestPullbackInterpolationFlag:
    def test_identity_pullback(self, eikelberg_bundle, p2_bundle):
        for data, cert in (eikelberg_bundle, p2_bundle):
            n = data.fan.rank
            ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            pb = pullback(data, ident, data.fan, cert)
            assert pb.filtrations == data.filtrations

    def test_rank1_pullback_along_projection(self):
        line_fan = fan_from_data(1, [[1], [-1]], [[0], [1]])
        E = SubspaceBasis(1, [[1]])
        data = KlyachkoData(
            line_fan,
            1,
            {0: Filtration(1, [(3, E)]), 1: Filtration(1, [(-1, E)])},
        )
        cert = SplittingCertificate({0: [((3,), E)], 1: [((1,), E)]})
        assert verify(data, cert).ok
        square = fan_from_data(
            2,
            [[1, 0], [0, 1], [-1, 0], [0, -1]],
            [[0, 1], [1, 2], [2, 3], [0, 3]],
        )
        phi = [[1, 0]]
        pb = pullback(data, phi, square, cert)

        def support(v):  # oracle: the support function of the source bundle
            x = v[0]
            return 3 * x if x >= 0 else -1 * -x

        for ray in range(4):
            image = square.rays[ray][0]
            assert pb.filtrations[ray].thresholds() == [support((image,))]

    def test_non_integral_lattice_map_refused(self, p2_bundle):
        data, cert = p2_bundle
        with pytest.raises(KlyachkoError, match=re.escape(
                "lattice map row 1 has entry Fraction(1, 2), not an integer")):
            pullback(data, [[1, 0], [0, Fraction(1, 2)]], data.fan, cert)
        with pytest.raises(KlyachkoError, match="lattice map row 1 has 1 entries, row 0 has 2"):
            pullback(data, [[1, 0], [1]], data.fan, cert)
        integral = pullback(data, [[Fraction(1), 0], [0, Fraction(2, 2)]], data.fan, cert)
        assert integral.filtrations == data.filtrations

    def test_bool_lattice_map_refused(self, p2_bundle):
        data, cert = p2_bundle
        with pytest.raises(KlyachkoError, match=re.escape(
                "lattice map row 0 has entry True, not an integer")):
            pullback(data, [[True, 0], [0, 1]], data.fan, cert)

    def test_incompatible_projection_rejected(self):
        data, cert = load_bundle("p2_tangent")
        # the reflection sends the cone over (0,1), (-1,-1) across a ray
        with pytest.raises(KlyachkoError, match="does not map"):
            pullback(data, [[1, 0], [0, -1]], load_fan("p2"), cert)

    def test_interpolate_reproduces_filtrations(self, eikelberg_bundle, p2_bundle):
        for data, cert in (eikelberg_bundle, p2_bundle):
            fan = data.fan
            for ray in range(len(fan.rays)):
                f = data.filtrations[ray]
                lo = f.thresholds()[0] - 2
                hi = f.thresholds()[-1] + 2
                for t in range(lo, hi + 1):
                    assert interpolate(data, cert, fan.rays[ray], t) == f.value(t)

    def test_interpolate_far_below_is_full(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        v = tuple(
            sum(c)
            for c in zip(*[data.fan.rays[i] for i in data.fan.max_cones[0].ray_indices])
        )
        assert interpolate(data, cert, v, -10**6).dim == data.rank

    def test_interpolate_outside_support_rejected(self):
        octant = fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 1, 2]])
        data, cert = line_bundle(octant, (0, 0, 0))
        with pytest.raises(KlyachkoError, match="outside"):
            interpolate(data, cert, (-1, -1, -1), 0)

    def test_flag_generic_interior_point_full_flag(self, fulton_bundle):
        # mechanical sort-and-sum oracle; works with any direct-sum certificate
        data, cert = fulton_bundle
        fan = data.fan
        v = (0, 1, 6)  # interior of the first maximal cone (sum of its rays)
        entries = cert.cone(0)
        values = sorted(
            (sum(a * b for a, b in zip(u, v)) for u, _ in entries), reverse=True
        )
        assert len(set(values)) == 3
        fl = flag(data, cert, v)
        assert [s.dim for s in fl] == [1, 2, 3]

    def test_flag_at_origin(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        fl = flag(data, cert, (0, 0, 0))
        assert len(fl) == 1 and fl[0].dim == data.rank

    def test_flag_constant_on_order_regions(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        fan = data.fan
        gens = [fan.rays[i] for i in fan.max_cones[0].ray_indices]
        a = tuple(3 * x + y + z for x, y, z in zip(*gens))
        b = tuple(5 * x + 2 * y + z for x, y, z in zip(*gens))
        entries = cert.cone(0)

        def pattern(v):
            vals = [sum(p * q for p, q in zip(u, v)) for u, _ in entries]
            return sorted(range(len(vals)), key=lambda i: vals[i])

        assert pattern(a) == pattern(b)
        assert flag(data, cert, a) == flag(data, cert, b)


class TestCallersPoint:
    """A point or threshold given to `interpolate`, `flag`, `pullback` or
    `elementary_symmetric` holds exactly `int`s and `Fraction`s.  A float
    used to give a float or a binary fraction, and a bool or a string a
    bare `TypeError` or a value read through `Fraction`."""

    @pytest.mark.parametrize("v, says", [
        ((True, 0, "1"), "point row 0 has entry True, not an int or a Fraction"),
        ((0, 1, 6.0), "point row 0 has entry 6.0, not an int or a Fraction"),
        ((0, "1", 6), "point row 0 has entry '1', not an int or a Fraction"),
        ((0, 1), "point (0, 1) has 2 entries, not 3"),
    ], ids=["bool", "float", "str", "short"])
    def test_interpolate_and_flag_refuse_the_point(self, fulton_bundle, v, says):
        data, cert = fulton_bundle
        for call in (lambda: flag(data, cert, v), lambda: interpolate(data, cert, v, 0)):
            with pytest.raises(KlyachkoError, match=f"^{re.escape(says)}$"):
                call()

    @pytest.mark.parametrize("t", [0.5, True, "1", None], ids=repr)
    def test_interpolate_refuses_the_threshold(self, fulton_bundle, t):
        data, cert = fulton_bundle
        with pytest.raises(KlyachkoError, match=f"^threshold {re.escape(repr(t))} is not an int "
                                                "or a Fraction$"):
            interpolate(data, cert, (0, 1, 6), t)

    def test_interpolate_at_fractions(self, fulton_bundle):
        data, cert = fulton_bundle
        v = (0, Fraction(1, 2), 3)
        values = sorted({sum(a * b for a, b in zip(u, v)) for u, _ in cert.cone(0)})
        assert interpolate(data, cert, v, values[0]).dim == 3
        assert interpolate(data, cert, v, values[-1] + Fraction(1, 7)).dim == 0
        assert [s.dim for s in flag(data, cert, v)] == [1, 2, 3]

    @pytest.mark.parametrize("v, says", [
        ((0.1, 0, 0), "point row 0 has entry 0.1, not an int or a Fraction"),
        ((1, 1, True), "point row 0 has entry True, not an int or a Fraction"),
        ((1, 1), "point (1, 1) has 2 entries, not 3"),
    ], ids=["float", "bool", "short"])
    def test_elementary_symmetric_refuses_the_point(self, eikelberg_bundle, v, says):
        cd = chern(*eikelberg_bundle)
        with pytest.raises(KlyachkoError, match=f"^{re.escape(says)}$"):
            cd.elementary_symmetric(0, 1, v)
        assert cd.elementary_symmetric(0, 1, (Fraction(1, 10), 0, 0)) == \
            Fraction(sum(m * u[0] for u, m in cd.multisets[0]), 10)

    @pytest.mark.parametrize("i", [True, 1.0, -1, "len + 1"])
    def test_elementary_symmetric_refuses_the_index(self, eikelberg_bundle, i):
        # True used to answer as 1, and 1.0 ended in a bare TypeError
        cd = chern(*eikelberg_bundle)
        rank = sum(m for _, m in cd.multisets[0])
        i = rank + 1 if i == "len + 1" else i
        says = f"elementary symmetric index {i!r} is not an int in 0..{rank}"
        with pytest.raises(KlyachkoError, match=f"^{re.escape(says)}$"):
            cd.elementary_symmetric(0, i, (1, 0, 0))
        assert cd.elementary_symmetric(0, rank, (1, 0, 0)) == \
            prod(u[0] ** m for u, m in cd.multisets[0])

    def test_flag_searches_the_cones_once(self, fulton_bundle, monkeypatch):
        # it used to search for the containing cone once more per value at v
        from fanbranch import klyachko
        data, cert = fulton_bundle
        calls = []
        real = klyachko.cone_contains_point
        monkeypatch.setattr(klyachko, "cone_contains_point",
                            lambda gens, v: calls.append(v) or real(gens, v))
        assert len(flag(data, cert, (0, 1, 6))) == 3
        assert len(calls) == 1  # (0, 1, 6) lies in the first maximal cone


class TestRefusalsNamed:
    """Each refusal of the Klyachko module that no other test reaches, with
    its message."""

    def test_filtration_needs_a_step(self):
        with pytest.raises(KlyachkoError, match="^a filtration needs at least one step$"):
            Filtration(2, [])

    def test_filtration_subspace_of_another_space(self):
        with pytest.raises(KlyachkoError, match="^subspace ambient dimension mismatch$"):
            Filtration(2, [(0, SubspaceBasis(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]))])

    def test_filtration_zero_last_step(self):
        with pytest.raises(KlyachkoError, match="^zero subspaces are implicit above the last "
                                                "threshold$"):
            Filtration(1, [(0, SubspaceBasis(1, [[1]])), (1, SubspaceBasis(1))])

    def test_data_filtration_of_another_rank(self, p2_bundle):
        data, _ = p2_bundle
        filtrations = dict(data.filtrations)
        filtrations[1] = Filtration(1, [(0, SubspaceBasis(1, [[1]]))])
        with pytest.raises(KlyachkoError, match="^filtration dimension does not match rank$"):
            KlyachkoData(data.fan, data.rank, filtrations)

    def test_certificate_without_the_cone(self, p2_bundle):
        with pytest.raises(KlyachkoError, match="^certificate does not cover maximal cone 7$"):
            p2_bundle[1].cone(7)

    def test_pullback_map_of_another_rank(self, p2_bundle):
        data, cert = p2_bundle
        with pytest.raises(KlyachkoError, match="^lattice map has wrong target rank$"):
            pullback(data, [[1, 0]], data.fan, cert)

    def test_chern_data_without_every_cone(self):
        fan = load_fan("fulton")
        multisets = {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        del multisets[5]
        with pytest.raises(KlyachkoError, match="^need one multiset per maximal cone$"):
            ChernData(fan, multisets)

    def test_chern_data_of_two_sizes(self):
        fan = load_fan("fulton")
        multisets = {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        multisets[2] = multisets[2][:2]
        with pytest.raises(KlyachkoError, match="^multiset sizes differ between cones$"):
            ChernData(fan, multisets)

    def test_direct_sum_of_two_fans(self):
        a, b = line_bundle(load_fan("fulton"), (1, 0, 0)), line_bundle(load_fan("eikelberg"),
                                                                       (1, 0, 0))
        with pytest.raises(KlyachkoError, match="^direct sum requires bundles on the same fan$"):
            direct_sum(a[0], b[0])

    @pytest.mark.parametrize("rank", [0, "2", 2.0, True], ids=repr)
    def test_bundle_rank_not_positive(self, eikelberg_bundle, rank):
        raw = bundle_to_dict(*eikelberg_bundle)
        raw["rank"] = rank
        with pytest.raises(KlyachkoError, match=f"^rank {re.escape(repr(rank))} is not a "
                                                "positive integer$"):
            bundle_from_dict(eikelberg_bundle[0].fan, raw)

    def test_bundle_subspace_row_not_a_list(self, p2_bundle):
        raw = bundle_to_dict(*p2_bundle)
        raw["filtrations"]["1"][0]["subspace"] = [[1, 0], 1]
        with pytest.raises(KlyachkoError, match=re.escape(
                "filtration of ray '1': subspace [[1, 0], 1] is not a list of rows of 2 "
                "integers or 'p/q' strings")):
            bundle_from_dict(p2_bundle[0].fan, raw)


def _two_lines(fan):
    """(data, certificate) of the sum of the line bundles (1, 2, 3) and
    (0, 1, -1)."""
    (a, cert_a), (b, cert_b) = line_bundle(fan, (1, 2, 3)), line_bundle(fan, (0, 1, -1))
    return direct_sum(a, b, cert_a, cert_b)


class TestBranchedCover:
    def test_p2_tangent(self, p2_bundle):
        data, cert = p2_bundle
        cover, psi = branched_cover_of(data, cert)
        assert validate_cover(cover).ok
        assert degree(cover) == 2
        assert len(cover.max_cells) == 6
        assert all(cover.cells[m].weight == 1 for m in cover.max_cells)
        assert cover.cells[cover.minimal_cell].weight == 2
        got = sorted(tuple(int(x) for x in u) for u in psi.cell_values.values())
        assert got == [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)]

    def test_rank_one_cover_is_the_fan(self):
        fan = load_fan("fulton")
        data, cert = line_bundle(fan, (1, 2, 3))
        cover, psi = branched_cover_of(data, cert)
        assert degree(cover) == 1
        assert len(cover.cells) == len(fan.cones)
        assert [c.base for c in cover.cells] == list(range(len(fan.cones)))

    def test_repeated_functional_gives_weighted_identity(self):
        # two copies of the same line bundle: one weight-2 cell per cone
        fan = load_fan("fulton")
        d1, c1 = line_bundle(fan, (1, 2, 3))
        data, cert = direct_sum(d1, d1, c1, c1)
        assert verify(data, cert).ok
        cover, psi = branched_cover_of(data, cert)
        assert validate_cover(cover).ok
        assert degree(cover) == 2
        from fanbranch.cover_poset import weighted_identity

        assert are_isomorphic(cover, weighted_identity(fan, 2))
        assert is_trivial_function(psi)

    def test_eikelberg_cover(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        fan = data.fan
        cover, psi = branched_cover_of(data, cert)
        assert validate_cover(cover).ok
        assert is_maximal(cover)
        branch = sorted(
            fan.cones[cover.cells[i].base].ray_indices[0]
            for i in cover.ray_cells
            if cover.cells[i].weight > 1
        )
        assert branch == [0, 5]
        cd = chern(data, cert)
        for m in multisets(psi):
            got = tuple(
                (tuple(int(x) for x in u), w) for u, w in m.entries
            )
            assert got == cd.multisets[m.cone_position]
        assert not is_trivial_function(psi)

    def test_refuses_a_ray_in_no_full_dimensional_cone_by_cone(self):
        # cone 1 = [2, 3] has dimension 2 and ray 3 lies in no other cone, so
        # the tautological function has no value there; this used to end in
        # a bare PLError('ray cell 7 lies under no maximal cell')
        data, cert = _two_lines(_lower_dimensional_fan())
        for args in ((data, cert), (chern(data, cert),)):
            with pytest.raises(KlyachkoError, match="maximal cone 1 has dimension 2 < 3, and "
                               "its ray 3 lies in no maximal cone of dimension 3"):
                branched_cover_of(*args)

    def test_non_pure_fan_with_every_ray_in_a_full_cone(self):
        # cone 2 = [0, 3] has dimension 2, but rays 0 and 3 lie in the
        # full-dimensional cones 0 and 1, so the cover is built
        fan = fan_from_data(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]],
                            [[0, 1, 2], [1, 2, 3], [0, 3]])
        assert [c.dim for c in fan.max_cones] == [3, 3, 2]
        data, cert = _two_lines(fan)
        cover, psi = branched_cover_of(data, cert)
        assert validate_cover(cover).ok and degree(cover) == 2

    def test_psi_multisets_equal_chern_everywhere(self, p2_bundle):
        data, cert = p2_bundle
        cover, psi = branched_cover_of(data, cert)
        cd = chern(data, cert)
        for m in multisets(psi):
            got = tuple((tuple(int(x) for x in u), w) for u, w in m.entries)
            assert got == cd.multisets[m.cone_position]


ROOT = Path(__file__).resolve().parents[1]


def _cover_cases(lines=range(-2, 3)):
    """(label, data, certificate): every bundled bundle and its dual, each
    alone and plus the line bundle of every u in `lines`^n."""
    for name in BUNDLED_BUNDLES:
        data, cert = load_bundle(name)
        for label, d, c in ((name, data, cert),
                            (f"dual {name}", dual(data), _dual_certificate(cert, data.rank))):
            yield label, d, c
            for u in product(lines, repeat=d.fan.rank):
                line, line_cert = line_bundle(d.fan, u)
                yield f"{label} + L{u}", *direct_sum(d, line, c, line_cert)


def _library_mix_bundles():
    """(label, data, certificate) of the bundle calls in the `library-mix`
    rounds of seeds 1, 7 and 3, drawn by the benchmark's own workload."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
    for seed in (1, 7, 3):
        for k, r in enumerate(workloads.LibraryMix(seed, None).rounds):
            yield f"library-mix seed {seed} round {k}", r.data, r.cert


def _random_bundles():
    """(label, data): rank 1 to 4 bundles of `random_filtration` draws."""
    rng = random.Random(28)
    fans = [load_fan("fulton"), load_fan("eikelberg")]
    for i in range(40):
        yield f"random bundle {i}", random_bundle(fans[i % 2], rng.randint(1, 4), rng)


def _subspace_cases():
    """(label, bundle or list of subspaces) whose subspaces are compared
    with the reference: every bundled bundle and its dual, the random
    bundles, and the bundle of each `library-mix` round of seeds 1, 7 and 3
    followed by the list of its certificate's summands."""
    for name in BUNDLED_BUNDLES:
        data, _ = load_bundle(name)
        yield name, data
        yield f"dual {name}", dual(data)
    yield from _random_bundles()
    for label, data, cert in _library_mix_bundles():
        yield label, data
        summands = [s for entries in cert.entries.values() for _, s in entries]
        yield f"{label} summands", summands


def _steps(case) -> list:
    if isinstance(case, list):
        return case
    return [s for f in case.filtrations.values() for _, s in f.steps]


def _generators(rng, s: SubspaceBasis) -> list:
    """A random unreduced list in `s`: dim + 1 random rational combinations
    of its basis (which span it unless the draw is degenerate), and a zero
    row."""
    rows = []
    for _ in range(s.dim + 1 if s.dim else 0):
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in s.basis]
        rows.append([sum((c * x for c, x in zip(coeffs, col)), Fraction(0))
                     for col in zip(*s.basis)])
    return rows + [[0] * s.ambient_dim]


class TestSubspaceBasisEqualsReference:
    """`SubspaceBasis` stores primitive integer rows reached in integers;
    `conftest.reference_subspace_basis` is the `Fraction` Gauss-Jordan
    construction.  `basis`, `dim` and `==` agree with it, and the stored
    rows are the reference basis cleared of denominators."""

    def test_bundled_random_and_library_mix_steps(self):
        rng = random.Random(7)
        seen = set()
        for label, case in _subspace_cases():
            for s in _steps(case):
                r = s.ambient_dim
                ref = reference_subspace_basis(r, s.basis)
                if (r, ref) in seen:
                    continue
                assert s.basis == ref and s.dim == len(ref), label
                assert s.rows == tuple(map(tuple, _rational_rows(ref))), label
                gens = _generators(rng, s)
                rebuilt = SubspaceBasis(r, gens)
                ref_rebuilt = reference_subspace_basis(r, gens)
                assert rebuilt.basis == ref_rebuilt and rebuilt.dim == len(ref_rebuilt), label
                assert (rebuilt == s) == (ref_rebuilt == ref), label
                assert rebuilt.rows == tuple(map(tuple, _rational_rows(ref_rebuilt))), label
                seen.add((r, ref))
        assert len(seen) == 325

    def test_random_filtration_draws(self):
        rng = random.Random(3)
        for _ in range(150):
            r = rng.randint(1, 5)
            f = random_filtration(rng, r)
            for (_, a), (_, b) in zip(f.steps, f.steps[1:] + f.steps[:1]):
                for s in (a, b):
                    gens = _generators(rng, s)
                    assert SubspaceBasis(r, gens).basis == reference_subspace_basis(r, gens)
                assert (a == b) == (reference_subspace_basis(r, a.basis) ==
                                    reference_subspace_basis(r, b.basis))

    def test_random_integer_and_rational_spans(self):
        rng = random.Random(11)
        for _ in range(2000):
            r = rng.randint(1, 5)
            gens = [[Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 6))) for _ in range(r)]
                    for _ in range(rng.randint(0, r + 1))]
            s, ref = SubspaceBasis(r, gens), reference_subspace_basis(r, gens)
            assert s.basis == ref and s.dim == len(ref)
            assert s.rows == tuple(map(tuple, _rational_rows(ref)))
            assert annihilator(s).basis == reference_annihilator(r, ref)

    def test_dual_equals_reference_dual(self):
        seen = 0
        for label, case in _subspace_cases():
            if isinstance(case, list):
                continue
            got = {ray: [(t, s.basis) for t, s in f.steps]
                   for ray, f in dual(case).filtrations.items()}
            assert got == reference_dual(case), label
            seen += 1
        assert seen == 2 * len(BUNDLED_BUNDLES) + 40 + 324


def _perturbed(cd: ChernData, rng, every=False):
    """(kind, multisets) from a `ChernData`'s multisets: per cone, one
    coordinate of one functional moved by 1 (with `every`, each coordinate
    of each functional by +1 and by -1), and one functional replaced by one
    of another cone's; and every functional of every cone plus the same
    unit vector, which keeps the multisets agreeing."""
    multisets = cd.multisets
    n = cd.fan.rank

    def moved(pos, k, u):
        entries = list(multisets[pos])
        entries[k] = (u, entries[k][1])
        return {**multisets, pos: tuple(entries)}

    for pos, entries in multisets.items():
        if every:
            for k, (u, _) in enumerate(entries):
                for j, step in product(range(n), (1, -1)):
                    yield "coordinate moved", moved(pos, k, u[:j] + (u[j] + step,) + u[j + 1:])
        else:
            k, j = rng.randrange(len(entries)), rng.randrange(n)
            u = entries[k][0]
            yield "coordinate moved", moved(pos, k, u[:j] + (u[j] + rng.choice((-1, 1)),) + u[j + 1:])
        other = rng.choice([p for p in multisets if p != pos])
        yield "another cone's functional", moved(pos, rng.randrange(len(entries)),
                                                 rng.choice(multisets[other])[0])
    j = rng.randrange(n)
    yield "twisted everywhere", {pos: tuple((tuple(x + (i == j) for i, x in enumerate(u)), m)
                                            for u, m in entries)
                                 for pos, entries in multisets.items()}


def _refusal(check, fan, multisets) -> str | None:
    try:
        check(fan, multisets)
    except KlyachkoError as exc:
        return str(exc)
    return None


class TestCoverEqualsReference:
    """`branched_cover_of` reads every restriction from `ChernData`'s value
    tables and each cone's classes from its first carrier;
    `conftest.reference_branched_cover_of` computes each restriction from
    dot products and cross-checks every carrier.  The covers and the
    tautological functions agree byte for byte, and face agreement accepts
    and refuses the same multisets with the same message."""

    @pytest.mark.parametrize("cases, count", [(_cover_cases, 556), (_library_mix_bundles, 324)],
                             ids=["bundled-duals-and-lines", "library-mix"])
    def test_same_cover_and_function(self, cases, count):
        seen = 0
        for label, data, cert in cases():
            cover, psi = branched_cover_of(data, cert)
            want_cover, want_psi = reference_branched_cover_of(chern(data, cert))
            assert cover_to_dict(cover) == cover_to_dict(want_cover), label
            assert psi.to_dict() == want_psi.to_dict(), label
            seen += 1
        assert seen == count

    def test_face_agreement_on_perturbed_multisets(self):
        rng = random.Random(31)
        verdicts = Counter()
        for label, data, cert in _cover_cases(lines=range(-1, 2)):
            cd = chern(data, cert)
            for kind, multisets in _perturbed(cd, rng, every=" + L" not in label):
                got = _refusal(ChernData, data.fan, multisets)
                assert got == _refusal(reference_face_agreement, data.fan, multisets), (label, kind)
                verdicts[kind, got is None] += 1
        # 132 cases: 6 alone, 2 * 27 on each rank-3 fan and 2 * 9 on P^2
        assert verdicts["twisted everywhere", True] == 132
        assert verdicts["coordinate moved", False] > 1000
        assert verdicts["another cone's functional", True] > 0
        assert verdicts["another cone's functional", False] > 0


class TestChern:
    def test_printed_fulton_multisets_face_consistent_but_nontrivial(self):
        fan = load_fan("fulton")
        cd = ChernData(
            fan, {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        )
        assert not cd.is_trivial()
        assert cd.multisets[1] != cd.multisets[0]

    def test_c1_of_first_cone(self):
        fan = load_fan("fulton")
        cd = ChernData(
            fan, {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        )
        assert cd.c1(0) == (1, -2, 1)

    def test_elementary_symmetric_queries(self):
        fan = load_fan("fulton")
        cd = ChernData(
            fan, {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        )
        v = (1, 1, 1)
        vals = [sum(u) for u in FULTON_PRINTED_MULTISETS[0]]
        assert cd.elementary_symmetric(0, 1, v) == sum(vals)
        assert cd.elementary_symmetric(0, 3, v) == vals[0] * vals[1] * vals[2]

    def test_face_inconsistent_multisets_rejected(self):
        fan = load_fan("fulton")
        bad = {pos: tuple((u, 1) for u in ms) for pos, ms in FULTON_PRINTED_MULTISETS.items()}
        bad[0] = (((5, 5, 5), 1), ((0, -1, 1), 1), ((0, 0, 0), 1))
        with pytest.raises(KlyachkoError, match="disagree"):
            ChernData(fan, bad)

    def test_non_integral_functional_refused_by_name(self):
        # eikelberg degree-3 index 37 is nontrivial; the rational basis gives
        # its witness half-integral functionals, which used to be truncated
        fan = load_fan("eikelberg")
        cover = build_cover(fan, assignment_at(fan, 3, 37))
        verdict = group_triviality(cover)
        witness = {m.cone_position: m.entries for m in multisets(verdict.witness)}
        with pytest.raises(KlyachkoError, match=r"^cone 0 has a non-integral functional "
                                                r"\(-18223/2, 8025/2, -3627/2\)$"):
            ChernData(fan, witness)

    @pytest.mark.parametrize("entry, message", [
        pytest.param(((-1, 0), 0), r"multiplicity 0 is not a positive integer", id="zero"),
        pytest.param(((-1, 0), -1), r"multiplicity -1 is not a positive integer", id="negative"),
        pytest.param(((-1, 0), 1.0), r"multiplicity 1\.0 is not a positive integer", id="float"),
        pytest.param(((-1, 0), True), r"multiplicity True is not a positive integer", id="bool"),
        pytest.param(((-1, 0), Fraction(1)),
                     r"multiplicity Fraction\(1, 1\) is not a positive integer", id="Fraction"),
        pytest.param(((True, 0), 1), r"functional \(True, 0\) is not 2 ints or Fractions",
                     id="bool-coordinate"),
        pytest.param(((-1.0, 0), 1), r"functional \(-1\.0, 0\) is not 2 ints or Fractions",
                     id="float-coordinate"),
        pytest.param((("-1", 0), 1), r"functional \('-1', 0\) is not 2 ints or Fractions",
                     id="str-coordinate"),
        pytest.param(((-1, 0, 0), 1), r"functional \(-1, 0, 0\) is not 2 ints or Fractions",
                     id="too-long"),
        pytest.param(((-1,), 1), r"functional \(-1,\) is not 2 ints or Fractions",
                     id="too-short"),
        pytest.param(((-1, 0),),
                     r"\(\(-1, 0\),\) is not a pair \(functional, multiplicity\)",
                     id="not-a-pair"),
    ])
    def test_malformed_entry_refused_by_cone_and_entry(self, p2_bundle, entry, message):
        data, cert = p2_bundle
        multisets = dict(chern(data, cert).multisets)
        multisets[1] = (multisets[1][0], entry)
        with pytest.raises(KlyachkoError, match=rf"^cone 1 entry 1: {message}$"):
            ChernData(data.fan, multisets)

    def test_integral_fractions_read_as_integers(self, p2_bundle):
        data, cert = p2_bundle
        cd = chern(data, cert)
        as_fractions = {pos: [(tuple(map(Fraction, u)), m) for u, m in ms]
                        for pos, ms in cd.multisets.items()}
        assert ChernData(data.fan, as_fractions) == cd

    def test_repeated_functionals_merge(self, p2_bundle):
        # every summand listed once per dimension, in reverse, and a global
        # twist w listed twice on every cone: one entry each, w's of weight 2
        data, cert = p2_bundle
        cd = chern(data, cert)
        w = (5, 7)
        listed = {pos: [(u, 1) for u, m in ms for _ in range(m)][::-1] + [(w, 1), (w, 1)]
                  for pos, ms in cd.multisets.items()}
        merged = ChernData(data.fan, listed)
        assert merged.rank == 4
        assert merged.multisets == {pos: tuple(sorted(ms + ((w, 2),)))
                                    for pos, ms in cd.multisets.items()}
        assert equal_chern(merged, ChernData(data.fan, {pos: ms + ((w, 2),)
                                                        for pos, ms in cd.multisets.items()}))

    def test_twice_a_line_written_unevenly_is_trivial(self):
        fan = load_fan("fulton")
        u = (1, -2, 3)
        uneven = {pos: ((u, 2),) if pos % 2 else ((u, 1), (u, 1))
                  for pos in range(len(fan.max_cones))}
        cd = ChernData(fan, uneven)
        assert cd.is_trivial()
        d1, c1 = line_bundle(fan, u)
        assert equal_chern(cd, chern(*direct_sum(d1, d1, c1, c1)))

    def test_missing_certificate_refused_by_name(self, p2_bundle):
        data, _ = p2_bundle
        for call in (lambda: chern(data, None), lambda: branched_cover_of(data),
                     lambda: is_trivial_chern(data, None)):
            with pytest.raises(KlyachkoError, match=r"^no splitting certificate"):
                call()

    def test_integral_witness_passes_face_agreement(self):
        fan = load_fan("eikelberg")
        cover = build_cover(fan, assignment_at(fan, 3, 37))
        verdict = group_triviality(cover, solve(cover, "integral"))
        assert not verdict.all_trivial
        witness = {m.cone_position: m.entries for m in multisets(verdict.witness)}
        cd = ChernData(fan, witness)
        assert not cd.is_trivial()
        assert cd.rank == 3

    def test_trivial_chern_of_split_bundle(self):
        fan = load_fan("fulton")
        d1, c1 = line_bundle(fan, (1, 0, 0))
        d2, c2 = line_bundle(fan, (0, 1, 0))
        data, cert = direct_sum(d1, d2, c1, c2)
        assert verify(data, cert).ok
        assert is_trivial_chern(data, cert)

    def test_equal_chern_iff_isomorphic_labeled_covers(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        # a different bundle with the same multisets: swap which lines realize
        # the splitting (relabel L <-> L' consistently)
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        La = SubspaceBasis(2, [[1, 2]])
        Lb = SubspaceBasis(2, [[2, 1]])
        Lc = SubspaceBasis(2, [[1, -1]])
        fan = data.fan
        filtrations = {
            0: Filtration(2, [(-12, E)]),
            1: Filtration(2, [(-12, E), (18, La)]),
            2: Filtration(2, [(-12, E), (0, Lb)]),
            3: Filtration(2, [(-12, E), (0, Lc)]),
            4: Filtration(2, [(0, E), (18, La)]),
            5: Filtration(2, [(6, E)]),
        }
        other = KlyachkoData(fan, 2, filtrations)
        cert2 = SplittingCertificate(
            {
                0: [((15, -15, 3), La), ((3, 3, -9), Lb)],
                1: [((16, -14, -4), La), ((2, 2, -2), Lc)],
                2: [((12, -18, 0), La), ((6, 6, -6), Lc)],
                3: [((24, -18, 0), La), ((-6, 6, -6), Lb)],
                4: [((12, -6, 0), Lb), ((6, -6, -6), Lc)],
            }
        )
        assert verify(other, cert2).ok
        assert equal_chern(chern(data, cert), chern(other, cert2))
        c_a, psi_a = branched_cover_of(data, cert)
        c_b, psi_b = branched_cover_of(other, cert2)
        labels_a = {m: u for m, u in psi_a.cell_values.items()}
        labels_b = {m: u for m, u in psi_b.cell_values.items()}
        assert are_isomorphic(c_a, c_b, labels_a, labels_b)
        # and a genuinely different Chern datum gives non-equal data
        d1, c1 = line_bundle(fan, (0, 0, 0))
        d2, c2 = line_bundle(fan, (0, 0, 0))
        split, split_cert = direct_sum(d1, d2, c1, c2)
        assert not equal_chern(chern(data, cert), chern(split, split_cert))


class TestDirectSum:
    def test_rank_one_sum_multisets_union(self):
        fan = load_fan("eikelberg")
        d1, c1 = line_bundle(fan, (1, 0, 0))
        d2, c2 = line_bundle(fan, (0, 0, 2))
        data, cert = direct_sum(d1, d2, c1, c2)
        assert verify(data, cert).ok
        cd = chern(data, cert)
        for pos in range(len(fan.max_cones)):
            expected = sorted(
                [(tuple(chern(d1, c1).multisets[pos][0][0]), 1),
                 (tuple(chern(d2, c2).multisets[pos][0][0]), 1)]
            )
            assert sorted(cd.multisets[pos]) == expected

    def test_chern_of_sum_is_union(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        lb, lc = line_bundle(data.fan, (1, 1, 1))
        total, total_cert = direct_sum(data, lb, cert, lc)
        assert verify(total, total_cert).ok
        cd_total = chern(total, total_cert)
        cd_data = chern(data, cert)
        cd_line = chern(lb, lc)
        for pos in cd_total.multisets:
            merged: dict = {}
            for u, m in cd_data.multisets[pos] + cd_line.multisets[pos]:
                merged[u] = merged.get(u, 0) + m
            assert cd_total.multisets[pos] == tuple(sorted(merged.items()))

    def test_non_integral_functional_refused(self):
        fan = load_fan("eikelberg")
        with pytest.raises(KlyachkoError, match=re.escape(
                "functional row 0 has entry Fraction(1, 2), not an integer")):
            line_bundle(fan, (Fraction(1, 2), 0, 0))
        with pytest.raises(KlyachkoError, match="functional row 0 has an entry that int cannot take"):
            line_bundle(fan, (0, None, 0))
        data, cert = line_bundle(fan, (Fraction(4, 2), 0, -1))
        want, want_cert = line_bundle(fan, (2, 0, -1))
        assert data == want and cert.entries == want_cert.entries

    def test_bool_and_float_functional_refused(self):
        # they used to pass, `int` keeping their values: the character (1, 2, 0)
        fan = load_fan("fulton")
        with pytest.raises(KlyachkoError, match=re.escape(
                "functional row 0 has entry True, not an integer")):
            line_bundle(fan, [True, 2.0, 0])
        with pytest.raises(KlyachkoError, match=re.escape(
                "functional row 0 has entry 2.0, not an integer")):
            line_bundle(fan, [1, 2.0, 0])

    def test_dual_commutes_with_direct_sum(self):
        rng = random.Random(7)
        fan = load_fan("eikelberg")
        for _ in range(10):
            a = random_bundle(fan, rng.randint(1, 2), rng)
            b = random_bundle(fan, rng.randint(1, 2), rng)
            lhs = dual(direct_sum(a, b))
            rhs = direct_sum(dual(a), dual(b))
            assert lhs.filtrations == rhs.filtrations


class TestSerialization:
    def test_roundtrip(self, eikelberg_bundle):
        data, cert = eikelberg_bundle
        blob = bundle_to_dict(data, cert)
        data2, cert2 = bundle_from_dict(data.fan, blob)
        assert data2.filtrations == data.filtrations
        assert cert2.entries == cert.entries

    @pytest.mark.parametrize("rows", [[], [[0, 0]]], ids=repr)
    def test_zero_summand_refused_by_cone_and_entry(self, eikelberg_bundle, rows):
        data, cert = eikelberg_bundle
        blob = bundle_to_dict(data, cert)
        blob["splittings"]["0"].append({"u": [7, 7, 7], "subspace": rows})
        with pytest.raises(KlyachkoError, match=r"^splitting of cone '0': entry 2 is the zero "
                                                r"subspace, which is no summand$"):
            bundle_from_dict(data.fan, blob)

    def test_fraction_encoding(self):
        fan = load_fan("p2")
        E = SubspaceBasis(2, [[1, 0], [0, 1]])
        half = SubspaceBasis(2, [[Fraction(1, 2), 1]])
        data = KlyachkoData(
            fan,
            2,
            {i: Filtration(2, [(0, E), (1, half)]) for i in range(3)},
        )
        blob = bundle_to_dict(data)
        data2, cert2 = bundle_from_dict(fan, blob)
        assert cert2 is None
        assert data2.filtrations == data.filtrations
