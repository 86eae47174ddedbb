import ast
import copy
import importlib.util
import pickle
import random
import re
from fractions import Fraction
from itertools import chain, combinations
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fanbranch.exact_linalg import (
    SubspaceBasis,
    _cancel,
    _int_echelon,
    _rational_rows,
    _row_hnf_transform,
    annihilator,
    hermite_normal_form,
    independent_rows,
    integer_kernel,
    integer_solve,
    intersect,
    nullspace_of_int_rows,
    primitive,
    rank_of_int_rows,
    rref,
    solve_linear,
    span,
    subspace_sum,
)
from fanbranch.pl_group import per_cell_system

from conftest import reference_rref, reference_solve_linear, stellar_covers

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
        _, r = rref(FULTON_12x12)
        assert r == 9

    def test_identity(self):
        for n in (1, 2, 5):
            m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            red, r = rref(m)
            assert r == n
            assert red == m

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            m = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(5)] for _ in range(4)]
            once, r1 = rref(m)
            twice, r2 = rref(once)
            assert once == twice and r1 == r2

    def test_random_rank_against_minor_oracle(self):
        rng = random.Random(20240531)
        for _ in range(8):
            entries = [[rng.randint(-3, 3) for _ in range(7)] for _ in range(5)]
            assert rank_of_int_rows(entries, 7) == rank_by_minors(entries)


def _annihilates(rows, v) -> bool:
    """Whether every row has dot product 0 with v."""
    return all(sum(a * b for a, b in zip(row, v)) == 0 for row in rows)


class TestNullspaces:
    def test_fulton_matrix_kernel_is_three_dimensional(self):
        basis = nullspace_of_int_rows(FULTON_12x12, 12)
        assert len(basis) == 3
        for v in basis:
            assert _annihilates(FULTON_12x12, v)

    def test_identity_kernel_empty(self):
        identity = [[int(i == j) for j in range(4)] for i in range(4)]
        assert nullspace_of_int_rows(identity, 4) == []

    def test_row_of_ones(self):
        basis = nullspace_of_int_rows([[1, 1, 1]], 3)
        assert len(basis) == 2
        for v in basis:
            assert sum(v) == 0

    def test_rank_nullity(self):
        rng = random.Random(99)
        for _ in range(25):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 6)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            assert rank_of_int_rows(m, cols) + len(nullspace_of_int_rows(m, cols)) == cols

    def test_ray_relation_of_fulton_cone(self):
        # generating relation among the four rays of the first maximal cone
        # the left kernel of the rays is the kernel of their transpose
        basis = nullspace_of_int_rows([list(col) for col in zip(*FULTON_RAYS)], 4)
        assert basis == [(2, -4, 3, -5)]

    def test_left_nullspace_generic_3x2(self):
        basis = nullspace_of_int_rows([[1, 0, 2], [0, 1, 3]], 3)
        assert len(basis) == 1
        assert _annihilates([[1, 0, 2], [0, 1, 3]], basis[0])

    def test_normalization(self):
        basis = nullspace_of_int_rows(_rational_rows([[Fraction(1, 2), Fraction(1, 3)]]), 2)
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
            rat = nullspace_of_int_rows(m, 4)
            assert len(basis) == len(rat)
            for v in basis:
                assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m)
            if basis:
                k = len(basis)
                minors_gcd = 0
                for cols in combinations(range(4), k):
                    sub = [[v[c] for c in cols] for v in basis]
                    if k == 1:
                        d = sub[0][0]
                    elif k == 2:
                        d = sub[0][0] * sub[1][1] - sub[0][1] * sub[1][0]
                    else:
                        d = 0
                    minors_gcd = gcd(minors_gcd, abs(int(d)))
                assert minors_gcd == 1

    def test_every_integral_kernel_vector_is_integral_combination(self):
        m = [[1, 2, 3, 4], [0, 5, 0, 5]]
        basis = integer_kernel(m)
        # 5*(rational solution) must decompose integrally over the basis
        rat = nullspace_of_int_rows(m, 4)
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
                pairs = nullspace_of_int_rows(_rational_rows(stacked), len(stacked[0]))
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
        assert s.contains_subspace(span([(3, -7, 0)], 3))
        assert not s.contains_subspace(span([(0, 0, 1)], 3))
        assert s.contains_subspace(a)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            subspace_sum(span([(1, 0)], 2), span([(1, 0, 0)], 3))
        with pytest.raises(ValueError):
            span([(1, 0)], 2).contains_subspace(span([(1, 0, 0)], 3))

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


class TestRefusals:
    """An entry that is no integer value, or a ragged row, is refused, naming
    it; before, `int` truncated each entry and `zip` cut each row to the
    shortest, and later still read a bool or an integral float."""

    def test_integer_solve_refuses_a_fraction(self):
        with pytest.raises(ValueError, match=re.escape("matrix row 0 has entry Fraction(3, 2), not an integer")):
            integer_solve([[Fraction(3, 2)]], [1])

    def test_integer_kernel_refuses_a_fraction(self):
        with pytest.raises(ValueError, match=re.escape("matrix row 0 has entry Fraction(1, 2), not an integer")):
            integer_kernel([[Fraction(1, 2), 1]])

    def test_hermite_normal_form_refuses_a_float(self):
        with pytest.raises(ValueError, match=re.escape("matrix row 1 has entry 0.5, not an integer")):
            hermite_normal_form([[1, 0], [0.5, 1]])

    @pytest.mark.parametrize("bad, says", [
        (float("nan"), "has an entry that int cannot take: cannot convert float NaN to integer"),
        (float("inf"), "has an entry that int cannot take: cannot convert float infinity to integer"),
        (None, "has an entry that int cannot take: int() argument must be"),
        ("x", "has an entry that int cannot take: invalid literal for int()"),
        ("1", "has entry '1', not an integer"),
        (True, "has entry True, not an integer"),
        (2.0, "has entry 2.0, not an integer"),
    ])
    def test_entries_int_cannot_take_refused(self, bad, says):
        for call in (lambda: integer_solve([[1, 0], [0, bad]], [0, 0]),
                     lambda: integer_kernel([[1, 0], [0, bad]]), lambda: hermite_normal_form([[1, 0], [0, bad]])):
            with pytest.raises(ValueError, match=re.escape(f"matrix row 1 {says}")):
                call()

    def test_ragged_rows_refused(self):
        for call in (lambda: integer_kernel([[1, 2], [1]]), lambda: integer_solve([[1, 2], [1]], [0, 0]),
                     lambda: hermite_normal_form([[1, 2], [1]])):
            with pytest.raises(ValueError, match="matrix row 1 has 1 entries, row 0 has 2"):
                call()
        with pytest.raises(ValueError, match="matrix row 1 has 2 entries, row 0 has 1"):
            solve_linear([[1], [1, 2]], [1, 2])

    def test_integer_solve_refuses_a_short_right_hand_side(self):
        with pytest.raises(ValueError, match="dimension mismatch: 2 rows, 1 right-hand sides"):
            integer_solve([[1, 0], [0, 1]], [1])

    def test_integral_fractions_pass(self):
        assert integer_solve([[Fraction(2), 0], [0, Fraction(6, 2)]], [4, 9]) == (2, 3)
        assert integer_kernel([[Fraction(2), Fraction(-2)]]) == [(1, 1)]
        assert hermite_normal_form([[Fraction(4, 2), 4], [2, 2]]) == [(2, 0), (0, 2)]


class TestRationalRows:
    """A rational row, point or right-hand side from a caller holds exactly
    `int`s and `Fraction`s; a float, a bool or a string is refused, naming
    the argument, the row and the entry.  `Fraction(x)` used to read each
    of them (0.5 as 1/2, True as 1, '3' as 3)."""

    @pytest.mark.parametrize("call, says", [
        (lambda: solve_linear([[0.5]], [1]), "matrix row 0 has entry 0.5"),
        (lambda: solve_linear([[1, 0], [0, 1]], [1, True]), "right-hand side row 1 has entry True"),
        (lambda: integer_solve([[1]], ["3"]), "right-hand side row 0 has entry '3'"),
        (lambda: integer_solve([[1]], [True]), "right-hand side row 0 has entry True"),
        (lambda: integer_solve([[1], [2]], [1, 0.5]), "right-hand side row 1 has entry 0.5"),
        (lambda: primitive([0.5, True]), "vector row 0 has entry 0.5"),
        (lambda: primitive([1, True]), "vector row 0 has entry True"),
        (lambda: rref([["1/3", 0.1]]), "matrix row 0 has entry '1/3'"),
        (lambda: rref([[1, 2], [Fraction(1, 3), 0.1]]), "matrix row 1 has entry 0.1"),
    ], ids=["solve-matrix", "solve-rhs", "int-rhs-str", "int-rhs-bool", "int-rhs-float",
            "primitive-float", "primitive-bool", "rref-str", "rref-float"])
    def test_entry_not_int_or_fraction_refused(self, call, says):
        with pytest.raises(ValueError, match=re.escape(f"{says}, not an int or a Fraction")):
            call()

    def test_rref_gives_fraction_rows_with_zero_rows_last(self):
        red, r = rref([[0, 0], [2, 4], [1, Fraction(2)]])
        assert (red, r) == (((1, 2), (0, 0), (0, 0)), 1)
        assert {type(x) for row in red for x in row} == {Fraction}

    def test_fraction_rows_read(self):
        assert solve_linear([[Fraction(1, 2)]], [Fraction(1, 3)]) == (Fraction(2, 3),)
        assert integer_solve([[2]], [Fraction(4, 2)]) == (1,)
        assert integer_solve([[2]], [Fraction(1, 2)]) is None
        assert primitive([Fraction(1, 2), Fraction(-1, 3)]) == (3, -2)


small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def linear_systems(draw):
    """[A | b] over Q: A of 0-6 columns, with rows that combine earlier ones
    (so A may be rank-deficient), and b either A.x or drawn freely (so the
    system may be inconsistent)."""
    n = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(small_fractions, min_size=n, max_size=n), max_size=5))
    for coeffs in draw(st.lists(st.lists(st.integers(-2, 2), min_size=len(rows), max_size=len(rows)),
                                max_size=3 if rows else 0)):
        rows.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)])
    if draw(st.booleans()):
        x = draw(st.lists(small_fractions, min_size=n, max_size=n))
        b = [sum(a * y for a, y in zip(row, x)) for row in rows]
    else:
        b = draw(st.lists(small_fractions, min_size=len(rows), max_size=len(rows)))
    return rows, b


@given(linear_systems())
@example(([], []))
@example(([[]], [1]))
@example(([[0, 0], [0, 0]], [0, 0]))
@example(([[0, 0], [0, 0]], [0, 1]))
@example(([[1, 2], [2, 4]], [1, 3]))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_rref_and_solve_linear_equal_the_fraction_gauss_jordan(case):
    rows, b = case
    (red, r), (want, want_r) = rref(rows), reference_rref(rows)
    assert (repr(red), r) == (repr(want), want_r)
    assert repr(solve_linear(rows, b)) == repr(reference_solve_linear(rows, b))


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
            x[p] = -sum((row[c] * x[c] for c in range(p + 1, ncols) if x[c]), Fraction(0)) / row[p]
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
)


def kernel_off_rref(m) -> list[tuple[int, ...]]:
    """Kernel read off the reduced form: for each free column, 1 there and
    minus that column's entry of each row at the row's pivot; primitive,
    first nonzero entry positive."""
    red, r = reference_rref(m)
    pivots = [next(k for k, x in enumerate(row) if x) for row in red[:r]]
    ncols = len(m[0])
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for p, row in zip(pivots, red):
            x[p] = -row[free]
        v = primitive(x)
        out.append(v if next(c for c in v if c) > 0 else tuple(-c for c in v))
    return out


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_right_nullspace_and_rank_read_off_rref(m):
    rows = _rational_rows(m)
    assert nullspace_of_int_rows(rows, len(m[0])) == kernel_off_rref(m)
    assert rank_of_int_rows(rows, len(m[0])) == reference_rref(m)[1]


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_annihilator_read_off_rref(m):
    a = span(m, len(m[0]))
    assert annihilator(a) == span(kernel_off_rref(m), len(m[0]))


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
        return reference_rref(vectors[:k])[1] if k else 0

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
        rows = per_cell_system(cover)
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


def reference_cancel(row, prow, c):
    """`_cancel` with the gcd folded entry by entry, stopping at 1."""
    new = [prow[c] * x - row[c] * y for x, y in zip(row, prow)]
    g = 0
    for x in new:
        if x:
            g = gcd(g, x)
            if g == 1:
                break
    return [x // g for x in new] if g > 1 else new


@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-12, 12), min_size=n, max_size=n),
            st.lists(st.integers(-12, 12), min_size=n, max_size=n),
            st.integers(0, n - 1),
            st.integers(-3, 3),
        )
    )
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cancel_equals_the_folded_gcd(case):
    # also on a row that is a multiple of the pivot row, which cancels to 0
    row, prow, c, k = case
    prow[c] = prow[c] or 1
    for r in (row, [k * x for x in prow]):
        assert _cancel(r, prow, c) == reference_cancel(r, prow, c)


ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (ROOT / "src" / "fanbranch").glob("*.py") if p.stem != "__init__")

# Public names of `src/` that have no caller in the repository's code, apart
# from the click commands and the `TRACED` names, which perfbench times by
# name: the library API that README's "What it does" describes, whose
# callers are tests.  A method is written as ".method", or as
# "Class.method" if it is a static or class method.
UNCALLED_API = {
    # wedge sums, fibered products, maximality tests, Euler characteristics
    # and exact isomorphism tests
    "cover_poset": {"are_isomorphic", "canonical_signature", "euler_characteristic",
                    "fibered_product", "is_maximal", "ramification_cells", "wedge_power"},
    "exact_linalg": {"span", "intersect"},
    "fan_core": {"linear_functional_witness", "stellar_subdivision"},
    # pullbacks, interpolated filtrations, partial flags and Chern classes
    "klyachko": {"interpolate", "flag", "pullback", "equal_chern", "is_trivial_chern",
                 ".c1", ".elementary_symmetric"},
    "monodromy": {"ray_monodromy", "ray_orbits", ".cycle_type", ".is_identity", ".to_dict"},
    # a function's value at a point, its pullbacks, scaling and dict form
    "pl_group": {"evaluate", ".pullbacks", ".ray_values", ".scale", ".to_dict",
                 "PLFunction.from_dict"},
}


def _traced_names() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def _names_read(path: Path, module: str) -> set[str]:
    """The names of `fanbranch.<module>` that the module at `path` reads: a
    name it defines (when it is that module) or imports from that module and
    then loads, or an attribute it reads off the module itself; an attribute
    read off such a class, as "Class.attribute"; and every attribute it
    reads off anything else, as ".attribute"."""
    tree = ast.parse(path.read_text())
    imported, modules = {}, set()
    if path.stem == module:
        imported = {node.name: node.name for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if (node.module or "").split(".")[-1] == module:
                    imported[alias.asname or alias.name] = alias.name
                elif alias.name == module:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name.split(".")[-1] == module and a.asname)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in imported:
            read.add(imported[node.id])
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value.id if isinstance(node.value, ast.Name) else None
            if owner in modules:
                read.add(node.attr)
            elif owner in imported:
                read.add(f"{imported[owner]}.{node.attr}")
            else:
                read.add(f".{node.attr}")
    return read


def _is_command(node) -> bool:
    """Whether a function is a click command or group, which click calls."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _public_methods(tree: ast.Module) -> set[str]:
    """"Class.method" for each public method of a public class, properties
    included.  A static or class method is read as an attribute of its
    class; any other as ".method", an attribute of that name read off
    anything, so it passes when it shares its name with one that is read."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    bound = not any(isinstance(d, ast.Name) and d.id in ("staticmethod", "classmethod")
                                    for d in item.decorator_list)
                    out.add(f".{item.name}" if bound else f"{node.name}.{item.name}")
    return out


def _uncalled(module: str) -> set[str]:
    """The public functions, classes and methods of `fanbranch.<module>` that
    no module of `src/`, `scripts/` or `perfbench/` reads (not only
    imports), less the click commands and the `TRACED` names."""
    tree = ast.parse((ROOT / "src" / "fanbranch" / f"{module}.py").read_text())
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
              and not (isinstance(node, ast.FunctionDef) and _is_command(node))}
    read = set()
    for path in chain.from_iterable((ROOT / d).rglob("*.py") for d in ("src", "scripts", "perfbench")):
        read |= _names_read(path, module)
    return (public - read - set(_traced_names().get(module, ()))) | (_public_methods(tree) - read)


def test_every_public_linalg_function_has_a_caller():
    """Each public function or class of every module of `src/` (the name is
    older than the widening from `exact_linalg`), and each public method of
    a public class, is read (not only imported) by some module of `src/`,
    `scripts/` or `perfbench/`, is a click command or is traced, or else it
    is on the allowlist: so a wrapper that nothing calls does not come back.
    A name that gains a caller leaves the allowlist."""
    uncalled = {module: _uncalled(module) for module in MODULES}
    assert {m: sorted(names) for m, names in uncalled.items() if names} == \
        {m: sorted(names) for m, names in UNCALLED_API.items()}


def test_the_caller_guard_sees_methods(tmp_path):
    """An uncalled method is reported by the guard's reading: a static one
    unless it is read off its class, any other unless its name is read."""
    module = tmp_path / "reader.py"
    module.write_text("from fanbranch.exact_linalg import Matrix\n"
                      "Matrix.identity(2).rows\nx.contains_subspace\n")
    tree = ast.parse("class Matrix:\n"
                     "    @staticmethod\n    def identity(n): pass\n"
                     "    @staticmethod\n    def zero(n): pass\n"
                     "    def mul_vector(self, v): pass\n"
                     "class SubspaceBasis:\n    def contains_subspace(self, o): pass\n")
    assert sorted(_public_methods(tree) - _names_read(module, "exact_linalg")) == [
        ".mul_vector", "Matrix.zero"]
