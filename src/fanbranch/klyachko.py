"""Toric vector bundles as collections of filtrations over Q.

A bundle of rank r on a fan is a vector space E = Q^r with one decreasing
integer-indexed filtration per ray, compatible on every maximal cone through
a common splitting indexed by integral linear functionals.  Splittings are
supplied explicitly as certificates: along with the stored filtrations they
make compatibility a finite, exactly checkable statement, while
`necessary_dimension_check` provides a certificate-free screen (necessary,
never claimed sufficient).

Both decide in integers.  Each question about a subspace is asked of its
stored integer rows (`SubspaceBasis.rows`), or of the integer rows of its
annihilator, read off the stored rows with no elimination
(`_annihilators`): a rank for a sum or an intersection, a zero pairing for
an inclusion.  No subspace sum or intersection is built; the proofs are in
the docstrings.  The screen's elimination of each cone's rays is a
constant of the fan, kept in its store (`fan_core.derived`).

The associated branched cover glues one cell per restricted functional class
over every cone, weighted by multiplicity, and carries the tautological
piecewise-linear function whose per-cone multisets are the equivariant Chern
data.  `ChernData` evaluates each maximal cone's functionals once at the
cone's rays; every restriction, in face agreement and in the cover, is a
projection of such a value table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib.resources import files
from itertools import chain, combinations, product
from math import lcm
from operator import mul

from .cover_poset import CoverCell, CoverPoset, validate_cover
from .exact_linalg import (
    SubspaceBasis,
    _annihilator_rows,
    _extend_echelon,
    _integer_rows,
    _pivot_entries,
    _pivots,
    _primitive_rref,
    _rational_rows,
    annihilator,
    integer_solve,
    rank_of_int_rows,
    subspace_sum,
)
from .fan_core import Fan, cone_contains_point, derived, load_fan
from .fields import (
    is_int,
    is_int_list,
    is_integer_row,
    is_rational_row,
    read_json,
    read_rational,
    write_rational,
)
from .pl_group import PLFunction


class KlyachkoError(ValueError):
    pass


def _full_space(r: int) -> SubspaceBasis:
    return SubspaceBasis(r, [[1 if j == i else 0 for j in range(r)] for i in range(r)])


class Filtration:
    """A decreasing filtration of Q^r with integer jump thresholds.

    Stored as steps [(t_1, S_1), ..., (t_k, S_k)] with t_1 < ... < t_k and
    S_1 > ... > S_k (strict): the filtration equals S_j on the interval
    (t_{j-1}, t_j], the full space below, and zero above t_k.  S_1 must be
    the full space.
    """

    __slots__ = ("ambient_dim", "steps")

    def __init__(self, ambient_dim: int, steps):
        steps = tuple(
            (t, s if isinstance(s, SubspaceBasis) else SubspaceBasis(ambient_dim, s))
            for t, s in steps
        )
        if not steps:
            raise KlyachkoError("a filtration needs at least one step")
        for t in (t for t, _ in steps if not is_int(t)):
            raise KlyachkoError(f"threshold {t!r} is not an integer")
        if any(s.ambient_dim != ambient_dim for _, s in steps):
            raise KlyachkoError("subspace ambient dimension mismatch")
        if steps[0][1].dim != ambient_dim:
            raise KlyachkoError("lowest step must be the full space")
        for (t1, s1), (t2, s2) in zip(steps, steps[1:]):
            if t2 <= t1:
                raise KlyachkoError("thresholds must strictly increase")
            if not (s1.contains_subspace(s2) and s1.dim > s2.dim):
                raise KlyachkoError("subspaces must strictly decrease")
        if steps[-1][1].dim == 0:
            raise KlyachkoError("zero subspaces are implicit above the last threshold")
        self.ambient_dim = ambient_dim
        self.steps = steps

    @classmethod
    def _unchecked(cls, ambient_dim: int, steps: tuple) -> "Filtration":
        """A filtration from a tuple of (int, `SubspaceBasis`) steps that the
        caller has proven valid: no coercion, no check."""
        f = cls.__new__(cls)
        f.ambient_dim = ambient_dim
        f.steps = steps
        return f

    def value(self, i) -> SubspaceBasis:
        """The subspace at index i, exactly an `int` or a `Fraction` (full
        below all thresholds, 0 above)."""
        if not is_rational_row([i]):
            raise KlyachkoError(f"index {i!r} is not an int or a Fraction")
        for t, s in self.steps:
            if i <= t:
                return s
        return SubspaceBasis(self.ambient_dim)

    def thresholds(self) -> list[int]:
        return [t for t, _ in self.steps]

    def __eq__(self, other):
        return (
            isinstance(other, Filtration)
            and self.ambient_dim == other.ambient_dim
            and self.steps == other.steps
        )

    def __repr__(self):
        parts = ", ".join(f"(<= {t}: dim {s.dim})" for t, s in self.steps)
        return f"Filtration({parts})"


@dataclass(eq=False)
class KlyachkoData:
    """One filtration of Q^rank per ray of the fan.  Equality reads the fan
    by its rays and maximal cones, so a copy equals the original."""

    fan: Fan
    rank: int
    filtrations: dict

    def __post_init__(self):
        if set(self.filtrations) != set(range(len(self.fan.rays))):
            raise KlyachkoError("need exactly one filtration per ray")
        for f in self.filtrations.values():
            if f.ambient_dim != self.rank:
                raise KlyachkoError("filtration dimension does not match rank")

    def __eq__(self, other):
        return isinstance(other, KlyachkoData) and (
            (self.fan.rays, self.fan.max_cones, self.rank, self.filtrations)
            == (other.fan.rays, other.fan.max_cones, other.rank, other.filtrations))


class SplittingCertificate:
    """Per maximal cone: pairs (integral functional lift, subspace).

    The multiset of functionals weighted by subspace dimensions is the
    cone's Chern multiset; the subspaces must decompose the full space.
    """

    def __init__(self, entries: dict):
        self.entries = {pos: tuple((tuple(u), s) for u, s in es) for pos, es in entries.items()}
        for u, _ in chain.from_iterable(self.entries.values()):
            if not is_int_list(u):
                raise KlyachkoError(f"u {u!r} is not a vector of integers")

    def cone(self, pos: int):
        try:
            return self.entries[pos]
        except KeyError:
            raise KlyachkoError(f"certificate does not cover maximal cone {pos}") from None


@dataclass
class VerifyResult:
    ok: bool
    cone: int | None = None
    ray: int | None = None
    threshold: int | None = None
    reason: str | None = None

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        where = []
        if self.cone is not None:
            where.append(f"maximal cone {self.cone}")
        if self.ray is not None:
            where.append(f"ray {self.ray}")
        if self.threshold is not None:
            where.append(f"threshold {self.threshold}")
        loc = ", ".join(where)
        return f"violation at {loc}: {self.reason}"


def _annihilators(data: KlyachkoData):
    """(ray, t) -> integer rows spanning the annihilator of the stored step
    of `ray` at t, read off its stored rows (`_annihilator_rows`) once per
    ray and threshold.  The memo lives as long as the function returned,
    which is one call of its caller."""
    r = data.rank
    memo: dict[tuple[int, int], list[list[int]]] = {}

    def rows(ray: int, t: int) -> list[list[int]]:
        key = (ray, t)
        if key not in memo:
            memo[key] = _annihilator_rows(data.filtrations[ray].value(t).rows, r)
        return memo[key]

    return rows


def verify(data: KlyachkoData, cert: SplittingCertificate) -> VerifyResult:
    """Exact check of the compatibility identity on every maximal cone.

    For each maximal cone, every summand must be a nonzero subspace of
    Q^r, the certified decomposition must be a direct sum, and for every
    ray of the cone the sums of summands with functional value at least t
    must reproduce the stored filtration at every integer t.  The first
    threshold reported is the least t at which they differ.

    Decided in integers, with no subspace sum built.  The sum is direct
    exactly when the summands' dimensions add up to r and their cleared
    rows have rank r.  Then, at a ray, the induced filtration
    F(t) = sum of E_u over <u, v> >= t is a filtration of the stored kind:
    full at its lowest value, strictly decreasing at each further value
    (a nonzero summand drops out), nonzero at its highest.  Two such
    filtrations are constant between consecutive thresholds of either, full
    below all of them and 0 above, so they are equal exactly when they agree
    at every threshold of the union, and the first t of the ascending union
    at which they differ is the first integer at all.  At t, F(t) is a
    direct sum of the E_u with <u, v> >= t, so F(t) = S(t) exactly when
    those dimensions add up to dim S(t) and each such E_u lies in S(t): a
    subspace of S(t) of dimension dim S(t) is S(t).  E_u lies in S(t)
    exactly when every integer row of the annihilator of S(t) (read off its
    stored rows) pairs to 0 with every stored row of E_u.
    """
    fan = data.fan
    r = data.rank
    annihilator_rows = _annihilators(data)
    for pos in range(len(fan.max_cones)):
        entries = cert.cone(pos)
        for u in (u for u, s in entries if s.dim == 0):
            return VerifyResult(False, cone=pos, reason=f"the summand of u = {u} is zero")
        cone_rays = fan.max_cones[pos].ray_indices
        # distinct functional classes on this cone
        tuples = [
            tuple(sum(a * b for a, b in zip(u, fan.rays[ray])) for ray in cone_rays)
            for u, _ in entries
        ]
        if len(set(tuples)) != len(tuples):
            return VerifyResult(False, cone=pos, reason="repeated functional class in splitting")
        for u, s in (e for e in entries if e[1].ambient_dim != r):
            return VerifyResult(False, cone=pos, reason=f"the summand of u = {u} is a "
                                f"subspace of Q^{s.ambient_dim}, not of Q^{r}")
        blocks = [s.rows for _, s in entries]
        dim_sum = sum(map(len, blocks))
        spanned = rank_of_int_rows([row for block in blocks for row in block], r)
        if dim_sum != r or spanned != r:
            return VerifyResult(
                False, cone=pos,
                reason=f"summands have total dimension {dim_sum} spanning {spanned}, want {r}",
            )
        for j, ray in enumerate(cone_rays):
            values = [tup[j] for tup in tuples]
            for t in sorted(set(values) | set(data.filtrations[ray].thresholds())):
                above = [block for v, block in zip(values, blocks) if v >= t]
                ann = annihilator_rows(ray, t)
                if sum(map(len, above)) != r - len(ann) or any(
                    sum(map(mul, a, row)) for block in above for row in block for a in ann
                ):
                    return VerifyResult(
                        False, cone=pos, ray=ray, threshold=t,
                        reason="splitting does not reproduce the stored filtration",
                    )
    return VerifyResult(True)


@dataclass
class NecessityReport:
    status: str  # "ok" | "violation"
    multisets: dict | None
    note: str = "necessary condition only, never sufficient"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _cone_eliminations(fan: Fan) -> tuple:
    """Per maximal cone, a constant of the fan: (V, pivots, den, T'), V its
    ray matrix, of the reduced form of [V | I_m] by `_primitive_rref`, the
    pivots in V's block and the right block T times den as integers T', den
    the lcm of the rows' pivot entries."""
    out = []
    n = fan.rank
    for cone in fan.max_cones:
        ray_matrix = [list(fan.rays[ray]) for ray in cone.ray_indices]
        m = len(ray_matrix)
        rows = _primitive_rref([v + [int(i == j) for j in range(m)]
                                for i, v in enumerate(ray_matrix)], n + m)
        entries = _pivot_entries(rows)
        den = lcm(*entries)
        t = [[x * (den // a) for x in row[n:]] for row, a in zip(rows, entries)]
        out.append((ray_matrix, [p for p in _pivots(rows) if p < n], den, t))
    return tuple(out)


def _integral_solutions(fan: Fan, pos: int, combos) -> dict:
    """The combos b for which V.u = b has an integral solution u, V the ray
    matrix of maximal cone `pos`, each mapped to an integral solution (as
    `Fraction`s): the only solution when V has full column rank, and
    `integer_solve`'s otherwise.

    One reduced form of [V | I_m] serves every b (`_cone_eliminations`): it
    is [R | T] = T.[V | I_m], T invertible, so V.u = b iff R.u = T.b.  Its
    rows below the rank r of V are [0 | C], and C.V = 0 with C of rank
    m - r, so the system is consistent iff C.b = 0.  Row j < r then reads
    u at its pivot, plus R's non-pivot entries times u, equals (T.b)_j =
    (T'.b)_j / den.  With full column rank there are no non-pivot columns:
    the solution is unique, and integral solutions exist iff it is
    integral.  Otherwise `integer_solve` decides, as the solution with free
    variables 0 need not be integral.
    """
    ray_matrix, pivots, den, t = derived(fan, _cone_eliminations)[pos]
    rank, n = len(pivots), fan.rank
    out = {}
    for b in combos:
        tb = [sum(map(mul, row, b)) for row in t]
        if any(tb[rank:]):
            continue
        if rank < n:
            z = integer_solve(ray_matrix, b)
            if z is not None:
                out[b] = tuple([Fraction(x) for x in z])
        elif not any(x % den for x in tb):
            u = [Fraction(0)] * n
            for j, p in enumerate(pivots):
                u[p] = Fraction(tb[j], den)
            out[b] = tuple(u)
    return out


def necessary_dimension_check(data: KlyachkoData) -> NecessityReport:
    """Certificate-free screen: per maximal cone, some multiset of r integral
    functionals must reproduce every intersection dimension of the stored
    filtrations.  `ok` results are always inconclusive; `violation` proves
    that no compatible splitting can exist.

    On a cone with rays 1, ..., k, let the grid be the threshold
    combinations t = (t_1, ..., t_k), each t_j a threshold of ray j, and
    D(t) = dim of the intersection of the steps F_j(t_j).  The screen asks
    for a multiset of r grid points, each the values at the rays of some
    integral functional (`_integral_solutions`; the values fix the
    functional on the cone), whose j-th values drop as F_j does and which
    reproduce D: at every t of the grid, exactly D(t) of them (with
    multiplicity) are >= t.  That multiset is read off D by Moebius
    inversion:

        m = Delta_1 ... Delta_k D,

    Delta_j the difference to ray j's next threshold, D being 0 above a
    top threshold (the filtration is 0 there).  The screen passes exactly
    when m >= 0 and every t with m(t) > 0 has an integral functional; the
    cone's multiset is m, keyed by those functionals.

    Why this is exact.  For a multiset M of grid points, let
    N(t) = #{c in M : c >= t}, 0 above a top threshold.  Since M lies on the
    grid, the points counted by N(t) but not by N at t with coordinate j
    moved to its next threshold are those with c_j = t_j, so Delta_j takes
    N to the count of c >= t with c_j = t_j, and all k differences give
    M(t).  So a multiset that reproduces D (N = D on the grid) is m: there
    is at most one.  Conversely, summing m back over the points >= t
    inverts the differences, so when m >= 0 it reproduces D, and the other
    conditions hold by themselves.  It has r elements, since its N at the
    lowest thresholds is D there, the intersection of the full spaces S_1.
    Its j-th values drop as F_j does: with every other ray at its lowest
    threshold, D is dim F_j(t_j), so m holds dim F_j(s) - dim F_j(s')
    points with j-th value s, s' the next threshold.  So the screen passes
    exactly when m >= 0 and its support has integral functionals.

    D(t) is r less the rank of the stacked integer annihilator rows of the
    steps (`_annihilators`).  The grid is walked in `product` order, each
    prefix (t_1, ..., t_i) holding the echelon of its rays' rows, extended
    by ray i+1's rows at each of its thresholds (`_extend_echelon`, on a
    copy), so each prefix is eliminated once.  The inversion is one
    in-place pass per ray over D laid out flat in that order, and only the
    support of m is solved for functionals.
    """
    fan = data.fan
    r = data.rank
    annihilator_rows = _annihilators(data)
    recovered = {}
    for pos in range(len(fan.max_cones)):
        cone_rays = fan.max_cones[pos].ray_indices
        threshold_sets = [data.filtrations[ray].thresholds() for ray in cone_rays]
        echelons = [([], [])]
        for ray, thresholds in zip(cone_rays, threshold_sets):
            steps = [annihilator_rows(ray, t) for t in thresholds]
            extended = []
            for ech, pivots in echelons:
                for rows in steps:
                    ech_t, pivots_t = ech[:], pivots[:]
                    _extend_echelon(ech_t, pivots_t, rows)
                    extended.append((ech_t, pivots_t))
            echelons = extended
        m = [r - len(pivots) for _, pivots in echelons]
        stride = len(m)  # ascending i: m[i + stride] is read before this pass changes it
        for n in map(len, threshold_sets):
            stride //= n
            for i in range(len(m)):
                if i // stride % n < n - 1:
                    m[i] -= m[i + stride]
        if min(m) < 0:
            return NecessityReport("violation", None)
        support = {t: k for t, k in zip(product(*threshold_sets), m) if k}
        solutions = _integral_solutions(fan, pos, support)
        if len(solutions) < len(support):
            return NecessityReport("violation", None)
        recovered[pos] = tuple(sorted((solutions[t], k) for t, k in support.items()))
    return NecessityReport("ok", recovered)


# ---------------------------------------------------------------------------
# Dual, pullback, interpolation
# ---------------------------------------------------------------------------


def dual(data: KlyachkoData) -> KlyachkoData:
    """Dual bundle: the filtration at index i becomes the annihilator of the
    original filtration at index 1 - i.

    The steps are built unchecked, since they are valid by construction.
    From steps (t_1, S_1), ..., (t_k, S_k) with S_1 the full space, the dual
    has (-t_k, Q^r), then (-t_{j-1}, ann S_j) for j = k, ..., 2.  Its
    thresholds are ints and strictly increase.  Annihilation reverses strict
    inclusions, so S_{j-1} > S_j gives ann S_j < ann S_{j-1}, and it swaps
    the full space with 0: S_k != 0 gives ann S_k < Q^r, and S_2 < Q^r
    gives ann S_2 != 0, so the last step is nonzero (when k = 1 the only
    step is Q^r, nonzero since r >= 1).
    """
    r = data.rank
    full = _full_space(r)
    out = {}
    for ray, f in data.filtrations.items():
        steps = f.steps
        out[ray] = Filtration._unchecked(r, ((-steps[-1][0], full),) + tuple(
            (-steps[j - 1][0], annihilator(steps[j][1])) for j in range(len(steps) - 1, 0, -1)))
    return KlyachkoData(data.fan, r, out)


def _point(v, n: int) -> tuple:
    """A caller's point of Q^n, read by `_rational_rows`, which names a bad entry."""
    v = tuple(v)
    _rational_rows([v], "point", KlyachkoError)
    if len(v) != n:
        raise KlyachkoError(f"point {v} has {len(v)} entries, not {n}")
    return v


def _splitting_at(data: KlyachkoData, cert: SplittingCertificate, v) -> list:
    """The filtration that the splitting induces at a point v, as ascending
    steps (t, F(t)) over the distinct values t of the functionals at v:
    F(t) the span of the summands whose functional is at least t there.  The
    splitting is that of the first maximal cone containing v."""
    v, fan = _point(v, data.fan.rank), data.fan
    pos = next((pos for pos, cone in enumerate(fan.max_cones)
                if cone_contains_point([fan.rays[i] for i in cone.ray_indices], v)), None)
    if pos is None:
        raise KlyachkoError(f"point {v} lies outside the fan's support")
    values = [(sum(map(mul, u, v)), s.rows) for u, s in cert.cone(pos)]
    return [(t, SubspaceBasis(data.rank, [row for value, rows in values if value >= t for row in rows]))
            for t in sorted({t for t, _ in values})]


def interpolate(data: KlyachkoData, cert: SplittingCertificate, v, t) -> SubspaceBasis:
    """The interpolated filtration at a point: sum of certified summands
    whose functional is at least t at v, t exactly an `int` or a
    `Fraction`."""
    steps = _splitting_at(data, cert, v)
    if not is_rational_row([t]):
        raise KlyachkoError(f"threshold {t!r} is not an int or a Fraction")
    return next((s for value, s in steps if t <= value), SubspaceBasis(data.rank))


def flag(data: KlyachkoData, cert: SplittingCertificate, v) -> list[SubspaceBasis]:
    """Distinct nonzero interpolated subspaces at v, ordered by inclusion."""
    out = []
    for _, s in reversed(_splitting_at(data, cert, v)):
        if s.dim > 0 and (not out or s != out[-1]):
            out.append(s)
    return out


def pullback(data: KlyachkoData, lattice_map, target_fan: Fan,
             cert: SplittingCertificate) -> KlyachkoData:
    """Pull back along a lattice map into the source fan's lattice.

    Every cone of the target fan must map into some cone of the source fan;
    the pulled-back filtration at a target ray is the source interpolation
    at the image of its primitive generator.  Its thresholds are integers,
    as the image and each certified functional are integer vectors.
    """
    rows = _integer_rows(lattice_map, "lattice map", KlyachkoError)
    if len(rows) != data.fan.rank:
        raise KlyachkoError("lattice map has wrong target rank")

    def apply(v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in rows)

    sources = [[data.fan.rays[i] for i in cone.ray_indices] for cone in data.fan.max_cones]
    for pos, cone in enumerate(target_fan.max_cones):
        images = [apply(target_fan.rays[i]) for i in cone.ray_indices]
        if not any(all(cone_contains_point(gens, img) for img in images) for gens in sources):
            raise KlyachkoError(f"target cone {pos} does not map into a cone of the source fan")
    return KlyachkoData(target_fan, data.rank, {
        ray: Filtration(data.rank, _splitting_at(data, cert, apply(v)))
        for ray, v in enumerate(target_fan.rays)})


# ---------------------------------------------------------------------------
# Chern data and the associated branched cover
# ---------------------------------------------------------------------------


def _restriction(table, at) -> tuple:
    """The restricted functional classes of a maximal cone on a face: its
    value table projected onto the face's ray positions `at`, with the
    multiplicities of equal projections summed, as sorted (values at the
    face's rays, multiplicity) pairs."""
    acc: dict[tuple, int] = {}
    for values, mult in table:
        key = tuple([values[i] for i in at])
        acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


def _positions(rays, face_rays) -> list[int]:
    """Positions of a face's rays among a cone's, in the face's ray order."""
    return [rays.index(ray) for ray in face_rays]


def _shared_faces(fan: Fan) -> tuple:
    """(a, b, positions in a, positions in b) of the rays that maximal cones
    a < b share, for each pair that shares one.  A constant of the fan,
    read through `derived`."""
    shared = []
    for (a, ca), (b, cb) in combinations(enumerate(fan.max_cones), 2):
        common = [ray for ray in ca.ray_indices if ray in cb.ray_indices]
        if common:
            shared.append((a, b, _positions(ca.ray_indices, common),
                           _positions(cb.ray_indices, common)))
    return tuple(shared)


def _multiset(fan: Fan, pos: int, entries) -> tuple:
    """A cone's entries as sorted (functional, multiplicity) pairs, the
    multiplicities of a repeated functional summed.  Each multiplicity must
    be an exact `int` >= 1, and each functional `fan.rank` integer values."""
    acc: dict[tuple, int] = {}
    for i, entry in enumerate(entries):
        try:
            u, mult = entry
            size = len(u)
        except (TypeError, ValueError):
            raise KlyachkoError(f"cone {pos} entry {i}: {entry!r} is not a pair "
                                "(functional, multiplicity)") from None
        if not is_int(mult, 1):
            raise KlyachkoError(f"cone {pos} entry {i}: multiplicity {mult!r} "
                                "is not a positive integer")
        if size != fan.rank:
            raise KlyachkoError(f"cone {pos} entry {i}: functional {u!r} is not "
                                f"{fan.rank} ints or Fractions")
        if not is_integer_row(u):
            raise KlyachkoError(
                f"cone {pos} has a non-integral functional ({', '.join(map(str, u))})"
                if is_rational_row(u) else
                f"cone {pos} entry {i}: functional {u!r} is not {fan.rank} ints or Fractions")
        point = tuple(map(int, u))
        acc[point] = acc.get(point, 0) + mult
    return tuple(sorted(acc.items()))


class ChernData:
    """Per maximal cone, the multiset of functionals with multiplicities.

    Functionals are stored as ambient integer vectors, each once with its
    total multiplicity; the elementary symmetric evaluations at lattice
    points answer Chern class queries.  Each maximal cone's functionals are
    also evaluated once at the cone's rays: its value table, aligned with
    its multiset.  A restriction to a face is read from a table by
    projection (`_restriction`).
    """

    def __init__(self, fan: Fan, multisets: dict):
        self.fan = fan
        if set(multisets) != set(range(len(fan.max_cones))):
            raise KlyachkoError("need one multiset per maximal cone")
        self.multisets = {pos: _multiset(fan, pos, multisets[pos])
                          for pos in range(len(fan.max_cones))}
        ranks = {sum(m for _, m in ms) for ms in self.multisets.values()}
        if len(ranks) != 1:
            raise KlyachkoError("multiset sizes differ between cones")
        (self.rank,) = ranks
        rays = fan.rays
        tables = self._tables = tuple(
            tuple((tuple([sum(map(mul, u, rays[ray])) for ray in cone.ray_indices]), m)
                  for u, m in self.multisets[pos])
            for pos, cone in enumerate(fan.max_cones))
        for a, b, at_a, at_b in derived(fan, _shared_faces):
            if _restriction(tables[a], at_a) != _restriction(tables[b], at_b):
                raise KlyachkoError(f"multisets of cones {a} and {b} disagree on their shared face")

    def c1(self, pos: int):
        ms = self.multisets[pos]
        n = len(next(iter(ms))[0]) if ms else 0
        acc = [0] * n
        for u, m in ms:
            acc = [a + m * x for a, x in zip(acc, u)]
        return tuple(acc)

    def elementary_symmetric(self, pos: int, i: int, v):
        """e_i of the pairings of the cone's multiset against a point."""
        v = _point(v, self.fan.rank)
        values = []
        for u, m in self.multisets[pos]:
            values.extend([sum(map(mul, u, v))] * m)
        if i < 0 or i > len(values):
            raise KlyachkoError("elementary symmetric index out of range")
        # e_i via the generating polynomial prod(1 + x t)
        coeffs = [Fraction(1)] + [Fraction(0)] * len(values)
        for x in values:
            for k in range(len(values), 0, -1):
                coeffs[k] += x * coeffs[k - 1]
        return coeffs[i]

    def is_trivial(self) -> bool:
        first = next(iter(self.multisets.values()))
        return all(ms == first for ms in self.multisets.values())

    def __eq__(self, other):
        return (
            isinstance(other, ChernData)
            and self.fan.rays == other.fan.rays
            and self.multisets == other.multisets
        )


def chern(data: KlyachkoData, cert: SplittingCertificate) -> ChernData:
    """The Chern data read from a splitting certificate: per maximal cone,
    each functional with the total dimension of its summands."""
    if cert is None:
        raise KlyachkoError("no splitting certificate: a bundle's Chern data are read "
                            "from its splittings")
    fan = data.fan
    out = {}
    for pos in range(len(fan.max_cones)):
        acc: dict[tuple, int] = {}
        for i, (u, s) in enumerate(cert.cone(pos)):
            if s.ambient_dim != data.rank:
                raise KlyachkoError(f"splitting of cone {pos}: entry {i} is a subspace of "
                                    f"Q^{s.ambient_dim}, not of Q^{data.rank}")
            acc[u] = acc.get(u, 0) + s.dim
        out[pos] = tuple(sorted(acc.items()))
    return ChernData(fan, out)


def equal_chern(a: ChernData, b: ChernData) -> bool:
    return a == b


def is_trivial_chern(data: KlyachkoData, cert: SplittingCertificate) -> bool:
    return chern(data, cert).is_trivial()


def _cover_plan(fan: Fan) -> tuple:
    """Per cone: the position of its first carrier (the maximal cone of
    least id having it as a face), the cone's ray positions in that
    carrier, and each proper face as (id, its ray positions in the cone).
    A constant of the fan, read through `derived`.  Every cone has a
    carrier: `fan_from_data` makes the cones the faces of the maximal ones.

    A fan with a ray in no full-dimensional maximal cone is refused, naming
    a maximal cone of lower dimension through that ray: the tautological
    function is defined on the full-dimensional cones only, so it would
    have no value at that ray."""
    n = fan.rank
    covered = {ray for cone in fan.max_cones if cone.dim == n for ray in cone.ray_indices}
    for pos, cone in enumerate(fan.max_cones):
        for ray in (ray for ray in cone.ray_indices if ray not in covered):
            raise KlyachkoError(f"maximal cone {pos} has dimension {cone.dim} < {n}, and its "
                                f"ray {ray} lies in no maximal cone of dimension {n}, where "
                                "the tautological function is defined")
    max_pos = fan._max_positions  # cone id -> position in fan.max_cones
    plan = []
    for cone_id, cone in enumerate(fan.cones):
        carrier = next(max_pos[i] for i in fan.coface_ids(cone_id) if i in max_pos)
        plan.append((carrier, _positions(fan.max_cones[carrier].ray_indices, cone.ray_indices),
                     [(fid, _positions(cone.ray_indices, fan.cones[fid].ray_indices))
                      for fid in fan.face_ids(cone_id) if fid != cone_id]))
    return tuple(plan)


def branched_cover_of(data_or_chern, cert: SplittingCertificate | None = None):
    """The branched cover and tautological PL function of a bundle.

    Accepts (KlyachkoData, cert) or a ChernData; cells are (cone, restricted
    functional class) pairs weighted by multiplicity, the function restricts
    to the defining functional on each cell over a full-dimensional maximal
    cone.  The result passes validate_cover with degree equal to the rank.
    The fan need not be pure, but each of its rays must lie in a
    full-dimensional maximal cone (`_cover_plan` refuses it otherwise, up
    front).

    The classes over a cone c are read from one carrier only: the maximal
    cone of least id among those having c as a face, its value table
    projected onto c's rays.  Every other carrier gives the same classes.
    Let a and b carry c, and let C be the rays that a and b share.  The rays
    of c lie in C, so projecting a's table onto c is projecting its
    restriction to C onto c: a projection of a multiset that sums equal
    keys, followed by another, is the composite projection with the same
    sums.  `ChernData` has checked that a and b restrict to C alike (when C
    is empty, both restrict to the one class () of weight the rank), so
    they restrict to c alike.  For the same reason a cell's face pairs land on
    classes that exist: a class of c projected onto a face f of c is a
    restriction of c's carrier to f, which equals that of f's carrier.
    """
    fan = data_or_chern.fan
    plan = derived(fan, _cover_plan)
    if isinstance(data_or_chern, ChernData):
        cdata = data_or_chern
    else:
        cdata = chern(data_or_chern, cert)
    classes = [_restriction(cdata._tables[carrier], at) for carrier, at, _ in plan]

    cells = []
    cell_index: dict[tuple, int] = {}
    for cone_id, cone_classes in enumerate(classes):
        for copy, (key, mult) in enumerate(cone_classes):
            cell_index[cone_id, key] = len(cells)
            cells.append(CoverCell(cone_id, copy, mult))

    pairs = []
    for cone_id, (_, _, faces) in enumerate(plan):
        for key, _ in classes[cone_id]:
            hi = cell_index[cone_id, key]
            for fid, at in faces:
                pairs.append((cell_index[fid, tuple([key[i] for i in at])], hi))

    cover = CoverPoset(fan, cells, pairs, _closed=True)
    report = validate_cover(cover)
    if not report.ok:
        raise KlyachkoError(f"associated cover is invalid: {report.describe()}")

    # the tautological function: each maximal cell (over a full-dimensional
    # cone) carries its functional, the cell's key being the functional's row
    # of the cone's value table (cells are built in (base, copy) order, which
    # cover.cells keeps)
    cell_values = {}
    for cone_id, pos in fan._max_positions.items():  # cone id -> position
        if fan.cones[cone_id].dim != fan.rank:
            continue
        for (values, _), (u, _) in zip(cdata._tables[pos], cdata.multisets[pos]):
            cell_values[cell_index[cone_id, values]] = u
    psi = PLFunction(cover, cell_values)
    return cover, psi


# ---------------------------------------------------------------------------
# Direct sums
# ---------------------------------------------------------------------------


def direct_sum(a: KlyachkoData, b: KlyachkoData,
               cert_a: SplittingCertificate | None = None,
               cert_b: SplittingCertificate | None = None):
    """Block sum of two bundles on the same fan; certificates concatenate.

    Returns (data, certificate) when both certificates are given, otherwise
    just the data.
    """
    if a.fan.rays != b.fan.rays:
        raise KlyachkoError("direct sum requires bundles on the same fan")
    ra, rb = a.rank, b.rank
    r = ra + rb

    def embed_a(s: SubspaceBasis) -> list:
        return [list(row) + [0] * rb for row in s.rows]

    def embed_b(s: SubspaceBasis) -> list:
        return [[0] * ra + list(row) for row in s.rows]

    filtrations = {}
    for ray in range(len(a.fan.rays)):
        fa, fb = a.filtrations[ray], b.filtrations[ray]
        thresholds = sorted(set(fa.thresholds()) | set(fb.thresholds()))
        steps = []
        prev = None
        for t in thresholds:
            rows = embed_a(fa.value(t)) + embed_b(fb.value(t))
            s = SubspaceBasis(r, rows)
            if prev is None or s != prev:
                steps.append((t, s))
                prev = s
        filtrations[ray] = Filtration(r, steps)
    data = KlyachkoData(a.fan, r, filtrations)
    if cert_a is None or cert_b is None:
        return data
    entries = {}
    for pos in range(len(a.fan.max_cones)):
        merged: dict[tuple, SubspaceBasis] = {}
        for u, s in cert_a.cone(pos):
            merged[u] = SubspaceBasis(r, embed_a(s))
        for u, s in cert_b.cone(pos):
            if u in merged:
                merged[u] = SubspaceBasis(r, list(merged[u].rows) + embed_b(s))
            else:
                merged[u] = SubspaceBasis(r, embed_b(s))
        entries[pos] = tuple(sorted(merged.items()))
    return data, SplittingCertificate(entries)


def line_bundle(fan: Fan, functional) -> tuple[KlyachkoData, SplittingCertificate]:
    """The rank-1 bundle of a global linear functional (trivial line bundle
    twisted by the character)."""
    u = tuple(_integer_rows([functional], "functional", KlyachkoError)[0])
    full = _full_space(1)
    filtrations = {}
    for ray in range(len(fan.rays)):
        d = sum(a * b for a, b in zip(u, fan.rays[ray]))
        filtrations[ray] = Filtration(1, [(d, full)])
    data = KlyachkoData(fan, 1, filtrations)
    cert = SplittingCertificate(
        {pos: [(u, full)] for pos in range(len(fan.max_cones))}
    )
    return data, cert


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def bundle_to_dict(data: KlyachkoData, cert: SplittingCertificate | None = None) -> dict:
    def rows(s: SubspaceBasis) -> list:
        return [list(map(write_rational, row)) for row in s.basis]

    out = {"fan": data.fan.name or "inline", "rank": data.rank, "filtrations": {
        str(ray): [{"threshold": t, "subspace": rows(s)} for t, s in f.steps]
        for ray, f in data.filtrations.items()}}
    if cert is not None:
        out["splittings"] = {str(pos): [{"u": list(u), "subspace": rows(s)} for u, s in entries]
                             for pos, entries in cert.entries.items()}
    return out


def _subspace(rows, r: int, where: str) -> SubspaceBasis:
    try:  # SubspaceBasis refuses a row of another length than r
        if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
            raise ValueError(rows)
        return SubspaceBasis(r, [[read_rational(x) for x in row] for row in rows])
    except ValueError:
        raise KlyachkoError(f"{where} subspace {rows!r} is not a list of rows of {r} "
                            "integers or 'p/q' strings") from None


def _summand(rows, r: int, where: str, entry: int) -> SubspaceBasis:
    s = _subspace(rows, r, where)
    if s.dim == 0:
        raise KlyachkoError(f"{where} entry {entry} is the zero subspace, which is no summand")
    return s


def _position(key: str, n: int, where: str, what: str) -> int:
    if key not in map(str, range(n)):  # not "99", "01" or " 1"
        raise KlyachkoError(f"{where} the fan has no such {what}")
    return int(key)


def bundle_from_dict(fan: Fan, data: dict):
    """(data, certificate) from the bundle format, refusing by name a field
    that breaks it: the rank, thresholds and `u` entries are exact integers
    and subspace entries rationals of a file (`fanbranch.fields`), `u` has
    the fan's lattice rank, subspace rows have `rank` entries, every
    splitting summand is nonzero, and keys are positions of the fan's rays
    and maximal cones."""
    r = data["rank"]
    if not is_int(r, 1):
        raise KlyachkoError(f"rank {r!r} is not a positive integer")
    filtrations = {}
    for key, steps in data["filtrations"].items():
        where = f"filtration of ray {key!r}:"
        parsed = [(step["threshold"], _subspace(step["subspace"], r, where)) for step in steps]
        try:
            filtration = Filtration(r, parsed)
        except KlyachkoError as exc:
            raise KlyachkoError(f"{where} {exc}") from None
        filtrations[_position(key, len(fan.rays), where, "ray")] = filtration
    kdata = KlyachkoData(fan, r, filtrations)
    entries = {}
    for key, lst in data.get("splittings", {}).items():
        where = f"splitting of cone {key!r}:"
        for u in (e["u"] for e in lst):
            if not (isinstance(u, list) and is_int_list(u, fan.rank)):
                raise KlyachkoError(f"{where} u {u!r} is not a list of {fan.rank} integers")
        entries[_position(key, len(fan.max_cones), where, "maximal cone")] = [
            (tuple(e["u"]), _summand(e["subspace"], r, where, i)) for i, e in enumerate(lst)]
    return kdata, SplittingCertificate(entries) if "splittings" in data else None


BUNDLED_BUNDLES = ("eikelberg", "fulton_rank3", "p2_tangent")


def load_bundle(source):
    """Load (data, certificate) from a bundled name or a JSON file path.

    A file that `read_json` refuses, that does not name its fan, or whose
    fields do not make a bundle raises `KlyachkoError` naming the file;
    loading the named fan raises what `load_fan` raises.
    """
    if source in BUNDLED_BUNDLES:
        source = files("fanbranch.data") / f"{source}.bundle.json"
    raw = read_json(source, "bundle", KlyachkoError)
    if not isinstance(raw.get("fan"), str):
        raise KlyachkoError(f"invalid bundle: {source} does not name its fan by a string 'fan'")
    fan = load_fan(raw["fan"], beside=source)
    try:
        return bundle_from_dict(fan, raw)
    except KlyachkoError as exc:
        raise KlyachkoError(f"invalid bundle: {source}: {exc}") from None
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise KlyachkoError(f"invalid bundle: {source} does not hold bundle data: {exc!r}") from None
