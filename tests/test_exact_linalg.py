import copy
import pickle
import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fanbranch.exact_linalg import (
    RationalMatrix,
    SubspaceBasis,
    _int_echelon,
    _row_hnf_transform,
    annihilator,
    hermite_normal_form,
    independent_rows,
    integer_kernel,
    integer_solve,
    intersect,
    left_nullspace,
    nullspace_of_int_rows,
    primitive,
    rank,
    rank_of_int_rows,
    right_nullspace,
    rref,
    solve_linear,
    span,
    subspace_sum,
)
from fanbranch.pl_group import per_cell_system

from conftest import stellar_covers

# The 12x12 constraint matrix of the degree-2 computation on the Fulton-type
# fan, copied verbatim; rank 9 and a 3-dimensional kernel are fixed values.
FULTON_12x12 = [
    [-2, 4, 0, -3, 0, 5, 0, 0, 0, 0, 0, 0],
    [-2, 0, 4, -3, 5, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 0, 0, 0, 0, -1, 0, 1, 0, -1, 1],
    [0, 0, 0, 0, 0, 0, 0, -1, 1, -1, 0, 1],
    [2, -4, 0, 0, 0, 0, 0, -3, 5, 0, 0, 0],
    [2, 0, -4, 0, 0, 0, -3, 0, 5, 0, 0, 0],
    [0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 1, 0],
    [0, 0, 1, -1, 0, 0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, 1, -1, 0, 0, 0, 0, 0, -1, 1],
    [0, 0, 0, 1, 0, -1, 0, 0, 0, -1, 0, 1],
    [2, 0, 0, 0, -5, 0, 0, -3, 0, 0, 0, 4],
    [2, 0, 0, 0, 0, -5, -3, 0, 0, 0, 0, 4],
]

FULTON_RAYS = [(1, 2, 3), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]


def rank_by_minors(entries):
    """Brute-force rank oracle: largest k with a nonzero k x k minor."""

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det(minor)
        return total

    m, n = len(entries), len(entries[0])
    ent = [[Fraction(x) for x in row] for row in entries]
    for k in range(min(m, n), 0, -1):
        for rows_idx in combinations(range(m), k):
            for cols_idx in combinations(range(n), k):
                sub = [[ent[i][j] for j in cols_idx] for i in rows_idx]
                if det(sub) != 0:
                    return k
    return 0


class TestRref:
    def test_fulton_matrix_has_rank_nine(self):
        m = RationalMatrix(FULTON_12x12)
        _, r = rref(m)
        assert r == 9

    def test_identity(self):
        for n in (1, 2, 5):
            m = RationalMatrix.identity(n)
            red, r = rref(m)
            assert r == n
            assert red == m

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            m = RationalMatrix(
                [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)] for _ in range(4)]
            )
            once, r1 = rref(m)
            twice, r2 = rref(once)
            assert once == twice and r1 == r2

    def test_random_rank_against_minor_oracle(self):
        rng = random.Random(20240531)
        for _ in range(8):
            entries = [[Fraction(rng.randint(-3, 3)) for _ in range(7)] for _ in range(5)]
            assert rank(RationalMatrix(entries)) == rank_by_minors(entries)


class TestNullspaces:
    def test_fulton_matrix_kernel_is_three_dimensional(self):
        m = RationalMatrix(FULTON_12x12)
        basis = right_nullspace(m)
        assert len(basis) == 3
        for v in basis:
            assert all(x == 0 for x in m.mul_vector(v))

    def test_identity_kernel_empty(self):
        assert right_nullspace(RationalMatrix.identity(4)) == []
        assert left_nullspace(RationalMatrix.identity(4)) == []

    def test_row_of_ones(self):
        basis = right_nullspace(RationalMatrix([[1, 1, 1]]))
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_rank_nullity(self):
        rng = random.Random(99)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = RationalMatrix([[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)])
            assert rank(m) + len(right_nullspace(m)) == cols

    def test_ray_relation_of_fulton_cone(self):
        # generating relation among the four rays of the first maximal cone
        m = RationalMatrix(FULTON_RAYS)
        basis = left_nullspace(m)
        assert basis == [(2, -4, 3, -5)]

    def test_left_nullspace_generic_3x2(self):
        m = RationalMatrix([[1, 0], [0, 1], [2, 3]])
        basis = left_nullspace(m)
        assert len(basis) == 1
        c = basis[0]
        assert all(x == 0 for x in m.transpose().mul_vector(c))

    def test_normalization(self):
        basis = right_nullspace(RationalMatrix([[Fraction(1, 2), Fraction(1, 3)]]))
        assert len(basis) == 1
        v = basis[0]
        assert all(isinstance(x, int) for x in v)
        g = gcd(abs(v[0]), abs(v[1]))
        assert g == 1
        assert next(x for x in v if x != 0) > 0


class TestIntegerKernel:
    def test_two_minus_two(self):
        assert integer_kernel([[2, -2]]) == [(1, 1)]

    def test_identity_empty(self):
        assert integer_kernel([[1, 0], [0, 1]]) == []

    def test_lattice_saturation_oracle(self):
        # saturation check: the gcd of maximal minors of a saturated lattice
        # basis is 1, and the kernel spans the rational nullspace
        rng = random.Random(5)
        for _ in range(15):
            m = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            basis = integer_kernel(m)
            rat = right_nullspace(RationalMatrix(m))
            assert len(basis) == len(rat)
            for v in basis:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            if basis:
                k = len(basis)
                minors_gcd = 0
                for cols in combinations(range(4), k):
                    sub = RationalMatrix([[v[c] for c in cols] for v in basis])
                    if k == 1:
                        d = sub.entries[0][0]
                    elif k == 2:
                        d = sub.entries[0][0] * sub.entries[1][1] - sub.entries[0][1] * sub.entries[1][0]
                    else:
                        d = 0
                    minors_gcd = gcd(minors_gcd, abs(int(d)))
                assert minors_gcd == 1

    def test_every_integral_kernel_vector_is_integral_combination(self):
        m = [[1, 2, 3, 4], [0, 5, 0, 5]]
        basis = integer_kernel(m)
        # 5*(rational solution) must decompose integrally over the basis
        rat = right_nullspace(RationalMatrix(m))
        for v in rat:
            sol = integer_solve([list(col) for col in zip(*basis)], v)
            assert sol is not None


class TestPrimitive:
    def test_examples(self):
        assert primitive((2, 4, 6)) == (1, 2, 3)
        assert primitive((1, -1, 1)) == (1, -1, 1)
        assert primitive((-4, 6, -10)) == (-2, 3, -5)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError, match="zero vector"):
            primitive((0, 0, 0))

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=6), st.integers(1, 9))
    @settings(max_examples=60)
    def test_scaling_invariance(self, entries, scale):
        if all(x == 0 for x in entries):
            return
        assert primitive(entries) == primitive([scale * x for x in entries])
        g = 0
        for x in primitive(entries):
            g = gcd(g, x)
        assert g == 1


class TestSubspaces:
    def test_intersect_coordinate_planes(self):
        a = span([(1, 0, 0), (0, 1, 0)], 3)
        b = span([(0, 1, 0), (0, 0, 1)], 3)
        assert intersect(a, b) == span([(0, 1, 0)], 3)

    def test_annihilator_in_dim_two(self):
        assert annihilator(span([(1, 0)], 2)) == span([(0, 1)], 2)

    def test_canonical_equality(self):
        a = span([(1, 1, 0), (0, 2, 2)], 3)
        b = span([(2, 2, 0), (1, 3, 2), (1, -1, -2)], 3)
        assert a == b

    def test_intersection_dim_against_stacked_system(self):
        rng = random.Random(11)
        for _ in range(20):
            arows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            brows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(2)]
            a, b = span(arows, 4), span(brows, 4)
            # oracle: x in A cap B iff x = A^T s = B^T t; solve stacked system
            if a.dim and b.dim:
                stacked = [list(ar) + [-x for x in br] for ar, br in
                           zip([list(r) for r in zip(*a.basis)], [list(r) for r in zip(*b.basis)])]
                pairs = right_nullspace(RationalMatrix(stacked))
                got = intersect(a, b).dim
                expect = span(
                    [tuple(sum(Fraction(p[i]) * Fraction(x) for i, x in enumerate(col)) for col in zip(*a.basis))
                     for p in pairs],
                    4,
                ).dim if pairs else 0
                assert got == expect

    def test_sum_and_containment(self):
        a = span([(1, 0, 0)], 3)
        b = span([(0, 1, 0)], 3)
        s = subspace_sum(a, b)
        assert s.dim == 2
        assert s.contains((3, -7, 0))
        assert not s.contains((0, 0, 1))
        assert s.contains_subspace(a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_sum(span([(1, 0)], 2), span([(1, 0, 0)], 3))
        with pytest.raises(ValueError):
            span([(1, 0)], 2).contains((1, 0, 0))

    def test_annihilator_involution(self):
        rng = random.Random(3)
        for _ in range(15):
            vecs = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(rng.randint(0, 3))]
            a = span(vecs, 4)
            assert annihilator(annihilator(a)) == a

    @pytest.mark.parametrize("entry", [0.1, True, "1/3", None, float("nan")],
                             ids=["float", "bool", "str", "None", "nan"])
    def test_entry_not_int_or_fraction_refused(self, entry):
        with pytest.raises(ValueError, match=re.escape(f"basis row 1 has entry {entry!r}, not an int")):
            SubspaceBasis(2, [[1, 0], [entry, 1]])

    def test_fraction_entries_read(self):
        s = SubspaceBasis(3, [[Fraction(1, 2), Fraction(-1, 3), 0], [0, 0, Fraction(5, 7)]])
        assert s.rows == ((3, -2, 0), (0, 0, 1))
        assert s == span([(3, -2, 0), (0, 0, 1)], 3)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_round_trip(self, clone):
        s = span([(1, Fraction(1, 2), 0), (0, 2, 4)], 3)
        got = clone(s)
        assert type(got) is SubspaceBasis
        assert got == s and hash(got) == hash(s)
        assert (got.ambient_dim, got.rows, got.basis) == (s.ambient_dim, s.rows, s.basis)
        with pytest.raises(AttributeError, match="immutable"):
            got.rows = ()


class TestSolvers:
    def test_solve_linear(self):
        x = solve_linear([[1, 2], [3, 4]], [5, 6])
        assert x == (Fraction(-4), Fraction(9, 2))
        assert solve_linear([[1, 1], [1, 1]], [0, 1]) is None

    def test_integer_solve(self):
        assert integer_solve([[2, 0], [0, 3]], [4, 9]) == (2, 3)
        assert integer_solve([[2]], [3]) is None
        x = integer_solve([[2, 3]], [1])
        assert x is not None and 2 * x[0] + 3 * x[1] == 1

    def test_hermite_normal_form_canonical(self):
        h1 = hermite_normal_form([[2, 4], [2, 2]])
        h2 = hermite_normal_form([[4, 6], [2, 2]])
        assert h1 == h2 == [(2, 0), (0, 2)]


@given(
    st.integers(1, 7).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n), max_size=8),
            st.just(n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_rank_of_int_rows_is_columns_minus_nullity(case):
    rows, ncols = case
    before = [r[:] for r in rows]
    assert rank_of_int_rows(rows, ncols) == ncols - len(nullspace_of_int_rows(rows, ncols))
    assert rows == before


def fraction_back_substitution(rows, ncols):
    """The kernel as `nullspace_of_int_rows` computed it with `Fraction`
    back-substitution, before the whole vector was kept in integers."""
    ech, pivots = _int_echelon([r[:] for r in rows], ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for j in range(len(pivots) - 1, -1, -1):
            p, row = pivots[j], ech[j]
            x[p] = -sum(row[c] * x[c] for c in range(p + 1, ncols) if x[c]) / row[p]
        v = primitive(x)
        basis.append(v if next(c for c in v if c) > 0 else tuple(-c for c in v))
    return basis


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=8),
            st.just(n),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_integer_back_substitution_equals_fraction_copy(case):
    rows, ncols = case
    assert nullspace_of_int_rows(rows, ncols) == fraction_back_substitution(rows, ncols)


rational_matrices = st.integers(1, 7).flatmap(
    lambda n: st.lists(
        st.lists(
            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
            min_size=n,
            max_size=n,
        ),
        min_size=1,
        max_size=7,
    )
).map(RationalMatrix)


def kernel_off_rref(m: RationalMatrix) -> list[tuple[int, ...]]:
    """Kernel read off the reduced form: for each free column, 1 there and
    minus that column's entry of each row at the row's pivot; primitive,
    first nonzero entry positive."""
    red, r = rref(m)
    pivots = [next(k for k, x in enumerate(row) if x) for row in red.entries[:r]]
    out = []
    for free in range(m.cols):
        if free in pivots:
            continue
        x = [Fraction(0)] * m.cols
        x[free] = Fraction(1)
        for p, row in zip(pivots, red.entries):
            x[p] = -row[free]
        v = primitive(x)
        out.append(v if next(c for c in v if c) > 0 else tuple(-c for c in v))
    return out


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_right_nullspace_and_rank_read_off_rref(m):
    assert right_nullspace(m) == kernel_off_rref(m)
    assert rank(m) == rref(m)[1]


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_annihilator_read_off_rref(m):
    a = span(m.entries, m.cols)
    assert annihilator(a) == span(kernel_off_rref(m), m.cols)


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), max_size=9),
            st.just(n),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_independent_rows_raise_the_rank_of_their_prefix(case):
    vectors, ncols = case

    def prefix_rank(k):
        return rref(RationalMatrix(vectors[:k]))[1] if k else 0

    raising = [i for i in range(len(vectors)) if prefix_rank(i + 1) > prefix_rank(i)]
    assert independent_rows(vectors, ncols) == raising


def reference_integer_kernel(rows):
    """The kernel lattice by Hermite reduction of the transposed system: the
    bottom rows of its full unimodular transform, in Hermite form."""
    a = [[int(x) for x in row] for row in rows]
    nrows, ncols = len(a), len(a[0])
    at = [[a[i][j] for i in range(nrows)] for j in range(ncols)]
    _, u, pivots = _row_hnf_transform(at, nrows)
    kernel_rows = u[len(pivots):]
    return hermite_normal_form(kernel_rows) if kernel_rows else []


@given(
    st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.sampled_from([-12, -6, -4, -3, -2, -1, 0, 0, 0, 1, 2, 3, 4, 5, 6, 12]),
                     min_size=n, max_size=n),
            min_size=1, max_size=6,
        )
    )
)
@settings(max_examples=400, deadline=None, derandomize=True)
def test_integer_kernel_equals_transform_route(rows):
    assert integer_kernel(rows) == reference_integer_kernel(rows)


def test_integer_kernel_equals_transform_route_on_per_cell_systems():
    # 48-96 rows over 52-102 columns; every one has a rational kernel that
    # is not unimodular on its free columns (lcm of pivots 2 to 324520)
    for cover in stellar_covers():
        rows = [[int(x) for x in row] for row in per_cell_system(cover).entries]
        assert integer_kernel(rows) == reference_integer_kernel(rows)


def reference_row_hnf_transform(a, ncols):
    """The Hermite loop that carried its transform alongside, row by row."""
    h = [r[:] for r in a]
    n = len(h)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    pivots = []
    for c in range(ncols):
        while True:
            idx = [i for i in range(r, n) if h[i][c]]
            if not idx:
                break
            imin = min(idx, key=lambda i: (abs(h[i][c]), i))
            h[r], h[imin] = h[imin], h[r]
            u[r], u[imin] = u[imin], u[r]
            done = True
            for i in range(r + 1, n):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                        u[i] = [x - q * y for x, y in zip(u[i], u[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < n and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
                u[r] = [-x for x in u[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[r])]
            pivots.append(c)
            r += 1
    return h, u, pivots


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(st.integers(-12, 12), min_size=n, max_size=n), max_size=7),
            st.integers(0, n),
        )
    )
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_row_hnf_transform_equals_the_carried_transform(case):
    # the transform read off the reduction of [A | I] is the one the old
    # loop carried; neither changes its input
    a, ncols = case
    before = [row[:] for row in a]
    assert _row_hnf_transform(a, ncols) == reference_row_hnf_transform(a, ncols)
    assert a == before
