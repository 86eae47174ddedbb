"""Exact rational and integer linear algebra.

Everything in this package runs on arbitrary-precision rationals
(`fractions.Fraction`) and Python integers; there is no floating point
anywhere.  This module provides the shared substrate: deterministic row
reduction, rational and integer kernels, primitive integer
vectors, and canonical subspace algebra.

Which routine answers which question:

* one elimination over Q, the fraction-free `_int_echelon` (row step
  `_cancel`), on integer rows.  A caller's rational rows or point are read
  by `_rational_rows` (`rref`, `solve_linear`, `primitive`, `SubspaceBasis`,
  `integer_solve`'s right-hand side, `fan_core.cone_contains_point`): each
  entry exactly an `int` or a `Fraction`, else refused by name, and each
  row cleared of denominators, which keeps the row space.  A rank is
  its pivot count (`rank_of_int_rows`), a kernel its back-substitution
  (`nullspace_of_int_rows`, `_echelon_kernel`), first-come independent
  vectors its pivot columns (`independent_rows`), and `_extend_echelon`
  grows it by further rows.  The reduced row-echelon form, unique, is
  `_primitive_rref` (back-substitution, then primitive rows): `rref`,
  `solve_linear`, every `SubspaceBasis` (`subspace_sum`, `annihilator`)
  and the inverse of a maximal cone's rays, read off [V | I]
  (`pl_group._lifts`, the Klyachko screen's `_cone_eliminations`);
* one Hermite loop, `_row_hnf`, for every lattice question:
  `hermite_normal_form`, `integer_solve` (its transform, from [A | I],
  `_row_hnf_transform`), and the duality step of `_saturate`, which gives
  the integral points of a rational span (`integer_kernel`, the integral
  `pl_group.solve`).  These take integer values only (`_integer_rows`):
  any other entry, a bool or a float included, or a ragged row is refused,
  never truncated.

Determinism conventions, fixed once for the whole package:

* row reduction always picks the leftmost nonzero pivot column and the
  topmost available row (no magnitude heuristics);
* kernel basis vectors are scaled to primitive integer vectors with the
  first nonzero entry positive, ordered by their free column;
* integer kernels are returned as the row Hermite normal form of the kernel
  lattice, which is a canonical basis;
* subspaces are stored in reduced row-echelon form, each row scaled to a
  primitive integer vector with a positive pivot, so subspace equality is
  representation equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .fields import is_integer_row, is_rational_row

Vector = tuple[Fraction, ...]
IntVector = tuple[int, ...]


def rref(rows) -> tuple[tuple[Vector, ...], int]:
    """Reduced row-echelon form and rank, with deterministic pivoting: the
    rows of `_primitive_rref` of the denominator-cleared rows, each divided
    by its pivot, then zero rows.  The reduced form is unique."""
    ints = _rational_rows(rows)
    ncols = len(ints[0]) if ints else 0
    reduced = _fraction_basis(_primitive_rref(ints, ncols))
    return reduced + ((Fraction(0),) * ncols,) * (len(ints) - len(reduced)), len(reduced)


def primitive(v) -> IntVector:
    """Scale a nonzero rational vector to a primitive integer vector.

    Direction is preserved; the result has gcd of entries equal to 1.
    """
    (ints,) = _rational_rows([v], "vector")
    if not any(ints):
        raise ValueError("zero vector has no primitive form")
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _cancel(row: list[int], prow: list[int], c: int) -> list[int]:
    """`row` with its column-c entry cancelled against `prow` (whose entry
    there is nonzero): cross-multiplied, then divided by the gcd of its
    entries to control coefficient growth.

    The gcd is one `gcd(*new)`, the same value as folding `gcd` over the
    entries: zeros leave the fold unchanged, so an all-zero row gives 0
    and is returned as it is."""
    a, b = prow[c], row[c]
    new = [a * x - b * y for x, y in zip(row, prow)]
    g = gcd(*new)
    return [x // g for x in new] if g > 1 else new


def _int_echelon(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form over Z (forward elimination only).

    Returns (echelon rows, pivot columns).
    """
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                rows[i] = _cancel(rows[i], prow, c)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r], pivots


def _extend_echelon(ech: list[list[int]], pivots: list[int], rows) -> None:
    """Extend independent rows `ech` with pivot columns `pivots`, in place,
    by integer `rows`: each is cancelled against the pivot rows in insertion
    order and kept, pivoted at its first nonzero column, unless it vanishes.
    `len(pivots)` is then the rank of every row given so far.

    Each kept row is zero at the pivots before its own: its cancellation at
    a pivot leaves a zero there, and the later pivot rows, being zero there
    themselves, keep it.  So the kept rows are independent, and a row that
    vanishes lay in their span."""
    for row in rows:
        for prow, c in zip(ech, pivots):
            if row[c]:
                row = _cancel(row, prow, c)
        for c, x in enumerate(row):
            if x:
                ech.append(row)
                pivots.append(c)
                break


def rank_of_int_rows(rows: list[list[int]], ncols: int) -> int:
    """Rank over Q of an integer matrix, with no `Fraction` arithmetic."""
    return len(_int_echelon([r[:] for r in rows], ncols)[1])


def independent_rows(vectors, ncols: int) -> list[int]:
    """Indices of the first-come independent subset of integer vectors of
    length `ncols`: exactly those that raise the rank of the vectors before
    them, which are the pivot columns of the vectors taken as columns."""
    columns = [[v[k] for v in vectors] for k in range(ncols)]
    return _int_echelon(columns, len(vectors))[1]


def nullspace_of_int_rows(rows: list[list[int]], ncols: int) -> list[IntVector]:
    """Kernel basis over Q of an integer matrix, primitive and sign-normalized,
    one vector per free column."""
    return [tuple(v) for v in _echelon_kernel(*_int_echelon([r[:] for r in rows], ncols), ncols)]


def _echelon_kernel(ech: list[list[int]], pivots: list[int], ncols: int) -> list[list[int]]:
    """The kernel of `nullspace_of_int_rows`, read off an `_int_echelon`
    result, each vector as a list.

    Back-substitution stays in integers: before pivot p is set to -s/a, the
    whole vector is scaled by |a|/gcd(s, a), which makes the quotient exact.
    The result is already primitive.  The solutions that are 0 at the other
    free columns form a line, and the multiples t of the rational solution
    (1 at the free column) that are integral form a group tZ.  Inductively,
    the scale so far is the least positive t keeping the coordinates set so
    far integral, and |a|/gcd(s, a) is the least positive k that makes the
    new one integral too, so the final scale is the least positive t of the
    line, whose integral points are then the multiples of the result.  Only
    the sign is normalized, to a positive first nonzero entry.

    No tuple of the vector's length is made: CPython 3.11 puts every freed
    tuple of length 20 on a free list that it never draws from (it draws
    only below 20), so with 20 columns each one would stay behind as dead
    memory, up to 2000 of them.
    """
    pivset = set(pivots)
    basis: list[list[int]] = []
    for free in range(ncols):
        if free in pivset:
            continue
        x = [0] * ncols
        x[free] = 1
        # back-substitute pivot variables bottom-up
        for j in range(len(pivots) - 1, -1, -1):
            p = pivots[j]
            row = ech[j]
            s = sum(row[c] * x[c] for c in range(p + 1, ncols) if x[c])
            if s:
                a = row[p]
                g = gcd(s, a)
                k = abs(a) // g
                if k > 1:
                    x = [k * v for v in x]
                x[p] = -(s * k) // a
        if next(v for v in x if v) < 0:
            x = [-v for v in x]
        basis.append(x)
    return basis


def _rational_rows(rows, what: str = "matrix", error=ValueError) -> list[list[int]]:
    """`rows` cleared of denominators, as lists of ints of one length: each
    row times the lcm of its denominators, which keeps the row space.  Each
    entry must be exactly an `int` or a `Fraction` (`fields.is_rational_row`);
    anything else (True, 0.5, "1/3", None), or a row of another length, is
    refused with `error`, naming the row."""
    out = []
    for i, row in enumerate(map(list, rows)):
        if not is_rational_row(row):
            bad = next(x for x in row if not is_rational_row([x]))
            raise error(f"{what} row {i} has entry {bad!r}, not an int or a Fraction")
        if out and len(row) != len(out[0]):
            raise error(f"{what} row {i} has {len(row)} entries, row 0 has {len(out[0])}")
        den = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (den // x.denominator) for x in row])
    return out


def _integer_rows(rows, what: str = "matrix", error=ValueError) -> list[list[int]]:
    """`rows` as lists of ints of one length.  Each entry must be an integer
    value (`fields.is_integer_row`): an `int`, or a `Fraction` equal to an
    integer.  Anything else (True, 2.0, 1/2, nan, None), or a row of another
    length, is refused with `error`, naming the row."""
    out = []
    for i, row in enumerate(map(list, rows)):
        try:
            ints = [int(x) for x in row]
        except (TypeError, ValueError, OverflowError) as exc:
            raise error(f"{what} row {i} has an entry that int cannot take: {exc}") from None
        if not is_integer_row(row):
            bad = next(x for x in row if not is_integer_row([x]))
            raise error(f"{what} row {i} has entry {bad!r}, not an integer")
        if out and len(ints) != len(out[0]):
            raise error(f"{what} row {i} has {len(ints)} entries, row 0 has {len(out[0])}")
        out.append(ints)
    return out


def _row_hnf(rows: list[list[int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Row Hermite normal form of the first `ncols` columns: (H, pivot
    columns).  Pivots are positive, entries above each pivot are reduced
    into [0, pivot).  Each row operation acts on the whole row, so columns
    past `ncols` ride along: reducing [A | I] carries the transform U with
    U*A = H in its last columns.  The rows of `rows` are not changed."""
    h = list(rows)
    n = len(h)
    r = 0
    pivots: list[int] = []
    for c in range(ncols):
        # Euclid on the entries of column c below row r
        while True:
            idx = [i for i in range(r, n) if h[i][c]]
            if not idx:
                break
            imin = min(idx, key=lambda i: (abs(h[i][c]), i))
            h[r], h[imin] = h[imin], h[r]
            done = True
            for i in range(r + 1, n):
                if h[i][c]:
                    q = h[i][c] // h[r][c]
                    if q:
                        h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                    if h[i][c]:
                        done = False
            if done:
                break
        if r < n and h[r][c]:
            if h[r][c] < 0:
                h[r] = [-x for x in h[r]]
            p = h[r][c]
            for i in range(r):
                q = h[i][c] // p
                if q:
                    h[i] = [x - q * y for x, y in zip(h[i], h[r])]
            pivots.append(c)
            r += 1
    return h, pivots


def _row_hnf_transform(a: list[list[int]], ncols: int) -> tuple[list[list[int]], list[list[int]], list[int]]:
    """Row Hermite normal form with unimodular transform, U*A = H: `_row_hnf`
    of [A | I], split.  Returns (H, U, pivot columns)."""
    n = len(a)
    width = len(a[0]) if a else 0
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    h, pivots = _row_hnf(aug, ncols)
    return [row[:width] for row in h], [row[width:] for row in h], pivots


def hermite_normal_form(rows) -> list[IntVector]:
    """Canonical row Hermite normal form of the lattice spanned by the rows,
    whose entries must be integers."""
    return _hnf(_integer_rows(rows))


def _hnf(a: list[list[int]]) -> list[IntVector]:
    """`hermite_normal_form` of integer rows, unchecked."""
    if not a:
        return []
    h, pivots = _row_hnf(a, len(a[0]))
    return [tuple(r) for r in h[: len(pivots)]]


def _saturate(kernel: list[list[int]], free: list[int], others) -> list[IntVector]:
    """The integral points of the Q-span of the integer vectors `kernel`, in
    canonical row Hermite form.  Vector i is nonzero at column free[i] and
    zero at every other column of `free`; `others` lists every column not
    in `free`.

    Scaling vector i by D / (its entry at free[i]), D the lcm of those
    entries, gives S = D.M with M the identity on the free columns F.  Every
    vector x of the span is x_F . M, so x -> x_F maps its integral points
    onto L = {y in Z^k : y.M integral}, and y.M is integral iff y pairs
    integrally with every column of M: L is the dual of
    C = Z^k + sum of Z.(columns of M).  With G the row Hermite form of the
    rows D.e_i and the distinct nonzero columns of S mod D, C is the row
    lattice of G divided by D, so y is in L iff G.y is in D.Z^k: L has the
    rows of D.(G^T)^-1 as a basis, and the integral points the rows of
    X = D.(G^T)^-1.M = (G^T)^-1.S.  G^T is lower triangular and X is
    integral, so forward substitution in G^T.X = S divides exactly.  The
    Hermite form of a lattice is unique, so X reduces to the same basis as
    any other route.
    """
    big = lcm(*(v[f] for v, f in zip(kernel, free)))
    s = [[big // v[f] * x for x in v] for v, f in zip(kernel, free)]
    k = len(s)
    gens = [[big if i == j else 0 for j in range(k)] for i in range(k)]
    residues = dict.fromkeys(tuple([row[c] % big for row in s]) for c in others)
    gens += [list(col) for col in residues if any(col)]
    g, _ = _row_hnf(gens, k)
    x: list[list[int]] = []
    for i in range(k):
        acc = s[i]
        for j in range(i):
            if g[j][i]:
                acc = [p - g[j][i] * q for p, q in zip(acc, x[j])]
        d = g[i][i]
        x.append([p // d for p in acc])
    return _hnf(x)


def integer_kernel(rows) -> list[IntVector]:
    """Basis of the kernel lattice {x in Z^cols : m.x = 0}, in canonical row
    Hermite form: a full lattice basis (saturated, hence each member
    primitive) and deterministic.

    Computed by duality on the k-dimensional rational kernel, never on the
    full system: the back-substituted kernel of `_echelon_kernel` has one
    vector per free column, zero at the other free columns, and nonzero
    entries elsewhere only at pivot columns, so `_saturate` reads the
    lattice off it.
    """
    a = _integer_rows(rows)
    if not a:
        raise ValueError("integer_kernel needs at least one row to fix the column count")
    ncols = len(a[0])
    ech, pivots = _int_echelon(a, ncols)
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    return _saturate(_echelon_kernel(ech, pivots, ncols), free, pivots)


def solve_linear(a_rows, b) -> Vector | None:
    """One exact solution of A.x = b (free variables set to 0), or None: read
    off `_primitive_rref` of the denominator-cleared [A | b], which has a
    pivot in the last column exactly when the system is inconsistent."""
    a, bvec = [list(r) for r in a_rows], list(b)
    n = len(_rational_rows(a)[0]) if a else 0  # A's own entries and lengths first
    if len(a) != len(bvec):
        raise ValueError("dimension mismatch")
    rows = _primitive_rref(_rational_rows([r + [x] for r, x in zip(a, bvec)], "right-hand side"), n + 1)
    x = [Fraction(0)] * n
    for row, p in zip(rows, _pivots(rows)):
        if p == n:
            return None
        x[p] = Fraction(row[n], row[p])
    return tuple(x)


def integer_solve(a_rows, b) -> IntVector | None:
    """One integer solution of A.x = b, or None if no integral solution
    exists.  The entries of A must be integers, those of b exactly `int`s or
    `Fraction`s."""
    a = _integer_rows(a_rows)
    bvec = list(b)
    _rational_rows([[x] for x in bvec], "right-hand side")
    if len(bvec) != len(a):
        raise ValueError(f"dimension mismatch: {len(a)} rows, {len(bvec)} right-hand sides")
    if not is_integer_row(bvec):
        return None
    bint = [int(x) for x in bvec]
    if not a:
        return ()
    nrows, ncols = len(a), len(a[0])
    at = [[a[i][j] for i in range(nrows)] for j in range(ncols)]
    h, u, pivots = _row_hnf_transform(at, nrows)
    # b must be an integer combination of the rows of H (= image lattice of A)
    y = [0] * len(pivots)
    residue = bint[:]
    for j, p in enumerate(pivots):
        if residue[p] % h[j][p] != 0:
            return None
        y[j] = residue[p] // h[j][p]
        if y[j]:
            residue = [x - y[j] * v for x, v in zip(residue, h[j])]
    if any(residue):
        return None
    x = [0] * ncols
    for j, yj in enumerate(y):
        if yj:
            x = [xi + yj * ui for xi, ui in zip(x, u[j])]
    return tuple(x)


class SubspaceBasis:
    """Subspace of Q^n stored as its reduced row-echelon basis, each row
    scaled to a primitive integer vector with a positive pivot (`rows`).

    The reduced form is unique, so this one is too: equality of subspaces
    is equality of `rows`, which the rest of the package relies on.  `basis`
    is the same form as `Fraction` rows with pivot 1, built when read.  The
    spanning vectors given hold exactly `int`s and `Fraction`s.  A copy or
    an unpickled subspace is rebuilt from `rows`.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, basis=()):
        rows = _rational_rows(basis, "basis")
        if rows and len(rows[0]) != ambient_dim:
            raise ValueError("basis vector of wrong length")
        self._set(ambient_dim, rows)

    def __reduce__(self):
        return SubspaceBasis._of_int_rows, (self.ambient_dim, self.rows)

    @classmethod
    def _of_int_rows(cls, ambient_dim: int, rows) -> "SubspaceBasis":
        """The span of integer vectors of length `ambient_dim`, unchecked."""
        s = cls.__new__(cls)
        s._set(ambient_dim, list(rows))
        return s

    def _set(self, ambient_dim: int, rows: list) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", _primitive_rref(rows, ambient_dim))

    def __setattr__(self, name, value):
        raise AttributeError("SubspaceBasis is immutable")

    @property
    def basis(self) -> tuple[Vector, ...]:
        return _fraction_basis(self.rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SubspaceBasis)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        rows = "; ".join("(" + ", ".join(str(x) for x in r) + ")" for r in self.basis)
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient_dim}: {rows})"

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        pivots = _pivots(self.rows)
        for vec in other.rows:  # in the subspace iff cancelled at each pivot, it vanishes
            for row, p in zip(self.rows, pivots):
                if vec[p]:
                    vec = _cancel(vec, row, p)
            if any(vec):
                return False
        return True


def _pivot_entries(rows) -> list[int]:
    """The pivot entry, the first nonzero one, of each echelon row."""
    return [next(filter(None, row)) for row in rows]


def _fraction_basis(rows) -> tuple[Vector, ...]:
    """Echelon integer rows as `Fraction` rows, each divided by its pivot."""
    return tuple(tuple([Fraction(x, p) for x in row]) for row, p in zip(rows, _pivot_entries(rows)))


def _pivots(rows) -> list[int]:
    """The pivot column of each echelon row: where its pivot entry first
    occurs, every entry before it being 0."""
    return [row.index(a) for row, a in zip(rows, _pivot_entries(rows))]


def _primitive_rref(rows: list, ncols: int) -> tuple[IntVector, ...]:
    """The reduced row-echelon basis of the span of integer `rows`, each row
    scaled to a primitive integer vector with a positive pivot.

    `_int_echelon`, then back-substitution bottom-up: each row above pivot
    row j is cancelled against it at its pivot column.  Row j is then zero
    at every other pivot (at the later ones by the earlier steps, at the
    earlier ones being an echelon row), and the cancellation keeps the
    zeros of the row above at the later pivots.  So row i ends zero at
    every pivot but its own, as the reduced row i is, and both lie in the
    row space, where a vector is fixed by its entries at the pivots: row i
    is a multiple of the reduced row i.  Scaling it to be primitive with a
    positive pivot leaves the reduced row times the lcm of its denominators
    (that vector is primitive: a prime dividing the lcm divides the
    denominator of some entry as often, and so not its scaled numerator).
    The list `rows` is reordered; its rows are not changed."""
    ech, pivots = _int_echelon(rows, ncols)
    for j in range(len(ech) - 1, 0, -1):
        prow, p = ech[j], pivots[j]
        for i in range(j):
            if ech[i][p]:
                ech[i] = _cancel(ech[i], prow, p)
    out = []
    for row, p in zip(ech, pivots):
        g = gcd(*row)
        out.append(tuple([x // g for x in row] if row[p] > 0 else [-x // g for x in row]))
    return tuple(out)


def _annihilator_rows(rows, ncols: int) -> list[list[int]]:
    """Integer vectors spanning the annihilator of the subspace with
    `SubspaceBasis.rows` `rows`, read off them with no elimination: one per
    non-pivot column f, D at f and -row_i[f] * D / pivot_i at each row's
    pivot, D the lcm of the pivot entries pivot_i.

    This is D times the reduced form's kernel vector (1 at f, -row_i[f] /
    pivot_i at pivot i).  It pairs to 0 with row i, which is zero at every
    other pivot, and the vectors are independent, one per free column and
    zero at the others: n - dim of them, the annihilator's dimension."""
    entries = _pivot_entries(rows)
    pivots = [row.index(a) for row, a in zip(rows, entries)]
    big = lcm(*entries)
    scaled = [(p, row, big // a) for row, p, a in zip(rows, pivots, entries)]
    pivset = set(pivots)
    vectors = []
    for free in range(ncols):
        if free in pivset:
            continue
        x = [0] * ncols
        x[free] = big
        for p, row, k in scaled:
            x[p] = -row[free] * k
        vectors.append(x)
    return vectors


def span(vectors, ambient_dim: int) -> SubspaceBasis:
    return SubspaceBasis(ambient_dim, vectors)


def subspace_sum(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis._of_int_rows(a.ambient_dim, a.rows + b.rows)


def annihilator(a: SubspaceBasis) -> SubspaceBasis:
    """The subspace {u : u.v = 0 for all v in a} under the standard pairing:
    the span of `_annihilator_rows`, put in the stored form by
    `_primitive_rref`."""
    return SubspaceBasis._of_int_rows(a.ambient_dim, _annihilator_rows(a.rows, a.ambient_dim))


def intersect(a: SubspaceBasis, b: SubspaceBasis) -> SubspaceBasis:
    if a.ambient_dim != b.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return annihilator(subspace_sum(annihilator(a), annihilator(b)))
