"""Fans as cone complexes in poset form.

A fan is stored combinatorially: a table of primitive ray generators plus the
ray-index sets of its maximal cones.  The full face poset, walls and the
dual graph are derived at construction time by exact arithmetic.  The face
tables (each cone's faces and cofaces, as bitmasks over cone ids) are
derived once in `Fan.__init__` from the ray-to-cone incidence, so
`Fan.is_face` is a lookup.  Every other constant of a fan (the decoded face
ids, completeness, ray links, wall relations, and those of other modules)
is built on first use and kept in the fan's one store, `derived`.

Faces come from facet normals: every face of a cone is the whole cone or an
intersection of facets, and each facet normal is the one-dimensional kernel
of some of the cone's generators (see `_cone_facets`).  Whether two maximal
cones meet in a common face is decided with no LP solver: first by
candidate functionals summed from the two cones' inward facet normals, each
accepted only once its signs check in integers, and by exact
Fourier-Motzkin elimination only where no candidate separates the pair (see
`fan_from_data`).  Fourier-Motzkin also decides whether a point lies in a
cone.  Its witnesses are computed in integers, as an integer vector over one
positive denominator, and re-checked by sign evaluation on the integer
vector.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd
from operator import mul

from .exact_linalg import _rational_rows, independent_rows, nullspace_of_int_rows, primitive, rank_of_int_rows
from .fields import is_int, is_int_list, missing_key, read_json

IntVector = tuple[int, ...]


class FanError(ValueError):
    """Raised when input data violates the fan axioms."""


# ---------------------------------------------------------------------------
# Exact homogeneous feasibility (Fourier-Motzkin with witness extraction)
# ---------------------------------------------------------------------------


def _normalize_ineq(coeffs, strict):
    g = gcd(*coeffs)
    if g == 0:
        return None if not strict else ("infeasible",)
    return (tuple([c // g for c in coeffs]), strict)


def _eliminate(rows, var):
    """One Fourier-Motzkin step removing variable `var` from homogeneous rows."""
    keep, pos, neg = [], [], []
    for coeffs, strict in rows:
        c = coeffs[var]
        if c == 0:
            keep.append((coeffs, strict))
        elif c > 0:
            pos.append((coeffs, strict))
        else:
            neg.append((coeffs, strict))
    out = {}
    for coeffs, strict in keep:
        key = coeffs
        out[key] = out.get(key, False) or strict
    for pc, ps in pos:
        a = pc[var]
        for nc, ns in neg:
            b = -nc[var]
            combo = tuple(b * x + a * y for x, y in zip(pc, nc))
            norm = _normalize_ineq(combo, ps or ns)
            if norm is None:
                continue
            if norm[0] == "infeasible":
                return None
            key, strict = norm
            out[key] = out.get(key, False) or strict
    return [(k, s) for k, s in out.items()]


def _fm_inequalities(rows, nvars):
    """Witness y in Q^nvars with c.y >= 0 (or > 0 when strict) for all integer
    rows c, as a pair (Y, D): an integer vector Y and an integer D > 0 with
    y = Y / D, jointly in lowest terms.  None if there is no witness.

    Back-substitution fixes y_0, y_1, ... in turn.  With the fixed part held
    as Y / D, each row c of the variable's level bounds it by -rest / (c_var D)
    where rest = c_0 Y_0 + ... is an integer dot product; in units of 1 / D
    the bound is the rational -rest / c_var, kept as an integer pair
    (numerator, positive denominator) and compared by cross-multiplying.  The
    value is chosen by the same rules as in y, where a step of 1 is a step
    of D in these units.  The chosen value p / q (lowest terms) is stored by
    rescaling Y and D by q, so D stays the lcm of the denominators of y.
    """
    levels = []
    current = []
    for coeffs, strict in rows:
        norm = _normalize_ineq(coeffs, strict)
        if norm is None:
            continue
        if norm[0] == "infeasible":
            return None
        current.append(norm)
    for var in range(nvars - 1, 0, -1):
        levels.append(current)
        current = _eliminate(current, var)
        if current is None:
            return None
    levels.append(current)

    Y = [0] * nvars
    D = 1
    for var in range(nvars):
        lo = hi = None  # (numerator, denominator > 0), in units of 1 / D
        lo_strict = hi_strict = False
        for coeffs, strict in levels[nvars - 1 - var]:
            c = coeffs[var]
            if c == 0:
                continue
            rest = 0
            for j in range(var):
                rest += coeffs[j] * Y[j]
            if c > 0:
                num, den = -rest, c
                if lo is None or num * lo[1] > lo[0] * den:
                    lo, lo_strict = (num, den), strict
                elif num * lo[1] == lo[0] * den:
                    lo_strict = lo_strict or strict
            else:
                num, den = rest, -c
                if hi is None or num * hi[1] < hi[0] * den:
                    hi, hi_strict = (num, den), strict
                elif num * hi[1] == hi[0] * den:
                    hi_strict = hi_strict or strict
        if lo is None and hi is None:
            continue
        if hi is None:
            p, q = (lo[0] + D * lo[1], lo[1]) if lo_strict else lo
        elif lo is None:
            p, q = (hi[0] - D * hi[1], hi[1]) if hi_strict else hi
        elif lo[0] * hi[1] < hi[0] * lo[1]:
            p, q = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        elif lo[0] * hi[1] == hi[0] * lo[1] and not (lo_strict or hi_strict):
            p, q = lo
        elif var == 0:
            # contradictions on the innermost variable are found here, since
            # it is never eliminated
            return None
        else:  # pragma: no cover - contradicts FM projection soundness
            raise AssertionError("Fourier-Motzkin back-substitution failed")
        g = gcd(p, q)
        p, q = p // g, q // g
        if q != 1:
            Y = [x * q for x in Y]
            D *= q
        Y[var] = p
    return Y, D


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _separates(u, zero_on, positive_on, negative_on) -> bool:
    """Whether the integer vector u is 0, > 0 and < 0 on the three families."""
    for v in positive_on:
        if sum(map(mul, u, v)) <= 0:
            return False
    for v in negative_on:
        if sum(map(mul, u, v)) >= 0:
            return False
    for v in zero_on:
        if sum(map(mul, u, v)):
            return False
    return True


def _kernel_basis(zero_on, dim: int):
    """A basis of the functionals vanishing on `zero_on`: its integer
    kernel, or the unit vectors when the family is empty."""
    if zero_on:
        return nullspace_of_int_rows(list(zero_on), dim)
    return [[int(i == j) for j in range(dim)] for i in range(dim)]


def _witness(basis, zero_on, positive_on, negative_on):
    """The integer core of `linear_functional_witness`: (U, D) with D > 0
    and u = U / D, or None.  `basis` is `_kernel_basis(zero_on, dim)`."""
    if zero_on and not basis:
        return None if positive_on or negative_on else ([0] * len(zero_on[0]), 1)
    rows = [(tuple([_dot(b, v) for b in basis]), True) for v in positive_on]
    rows += [(tuple([-_dot(b, v) for b in basis]), True) for v in negative_on]
    if not rows:
        # any nonzero element of the kernel works
        return list(basis[0]), 1
    fm = _fm_inequalities(rows, len(basis))
    if fm is None:
        return None
    Y, D = fm
    U = [0] * len(basis[0])
    for y, b in zip(Y, basis):
        if y:
            for i, x in enumerate(b):
                U[i] += y * x
    if not _separates(U, zero_on, positive_on, negative_on):
        raise AssertionError("Fourier-Motzkin witness fails its sign check")
    return U, D


def linear_functional_witness(zero_on, positive_on, negative_on=()):
    """Exact witness u with u.v = 0, > 0, < 0 on three families of integer
    vectors, not all empty.

    Returns a tuple of Fractions or None if no such functional exists.  The
    witness is u = U / D with U = sum of Y_j b_j over the kernel basis b of
    `zero_on` and (Y, D) from `_fm_inequalities`; its signs are re-checked
    on the integer vector U, which has those of u as D > 0.
    """
    dim = len([*zero_on, *positive_on, *negative_on][0])
    found = _witness(_kernel_basis(zero_on, dim), zero_on, positive_on, negative_on)
    if found is None:
        return None
    U, D = found
    return tuple(Fraction(x, D) for x in U)


def cone_contains_point(generators, point) -> bool:
    """Exact membership of a rational point in the cone of integer generators,
    via Farkas.  The point, exactly `int`s and `Fraction`s, is first scaled
    by the lcm of its denominators (`_rational_rows`), which keeps
    membership.  A point of another length than the generators is
    refused."""
    (pt,) = _rational_rows([point], "point")
    lengths = {len(g) for g in generators} - {len(pt)}
    if lengths:
        raise ValueError(f"a point of length {len(pt)} against generators of length "
                         f"{', '.join(map(str, sorted(lengths)))}")
    if not any(pt):
        return True
    if not generators:
        return False
    # Farkas: point is outside iff some u is >= 0 on generators and < 0 at point.
    rows = [(tuple(g), False) for g in generators]
    rows.append((tuple(-x for x in pt), True))
    return _fm_inequalities(rows, len(pt)) is None


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    rank: int

    def __post_init__(self):
        if not is_int(self.rank):
            raise FanError(f"lattice rank must be an integer, got {self.rank!r}")
        if self.rank < 1:
            raise FanError("lattice rank must be at least 1")


@dataclass(frozen=True)
class Cone:
    """A cone of the fan, recorded by the indices of its extremal rays."""

    ray_indices: IntVector
    dim: int


def _bit_positions(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of a nonnegative integer, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Fan:
    """A fan with its derived face poset, walls, dual graph and ray links.

    Immutable after construction; use :func:`fan_from_data` to build one.
    """

    def __init__(self, lattice, rays, max_cones, cones, name=None):
        self.lattice = lattice
        self.rays = rays                  # tuple of primitive IntVector
        self.max_cones = max_cones        # tuple of Cone, input order
        self.cones = cones                # tuple of Cone, id order (zero cone first)
        self.name = name
        self._cone_ids = {c.ray_indices: i for i, c in enumerate(cones)}  # ray tuple -> cone id
        self._max_positions = {self._cone_ids[c.ray_indices]: p for p, c in enumerate(max_cones)}
        # face tables from the ray-to-cone incidence: bit j of cofaces[i] is
        # set iff the rays of cone i are among those of cone j, i.e. cone i
        # is a face of cone j; faces[j] holds the same relation by column
        with_ray = [0] * len(rays)
        for i, c in enumerate(cones):
            for r in c.ray_indices:
                with_ray[r] |= 1 << i
        everything = (1 << len(cones)) - 1
        cofaces = []
        faces = []
        for c in cones:
            up = everything
            for r in c.ray_indices:
                up &= with_ray[r]
            cofaces.append(up)
            off = 0
            for r, m in enumerate(with_ray):
                if r not in c.ray_indices:
                    off |= m
            faces.append(everything & ~off)
        self.faces: tuple[int, ...] = tuple(faces)      # cone id -> bitmask of face ids
        self.cofaces: tuple[int, ...] = tuple(cofaces)  # cone id -> bitmask of coface ids
        # walls are the codim-1 cones; wall position -> max-cone positions on it
        self.walls = tuple(i for i, c in enumerate(cones) if c.dim == lattice.rank - 1)
        self.wall_cones = tuple(
            tuple(sorted(self._max_positions[j] for j in _bit_positions(cofaces[w])
                         if j in self._max_positions))
            for w in self.walls
        )
        self._derived: dict = {}  # builder -> what it built, see `derived`

    def __getstate__(self) -> dict:
        """The fan's state for pickles and copies, with an empty store, which
        may hold local functions (the sweep's record tables): they do not pickle."""
        return {**self.__dict__, "_derived": {}}

    # -- basic queries ------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.lattice.rank

    def cone_id(self, ray_indices) -> int:
        key = tuple(sorted(ray_indices))
        try:
            return self._cone_ids[key]
        except KeyError:
            raise FanError(f"no cone with rays {key} in fan") from None

    def cone(self, cone_id: int) -> Cone:
        return self.cones[cone_id]

    def max_cone_position(self, cone_id: int) -> int:
        try:
            return self._max_positions[cone_id]
        except KeyError:
            raise FanError("cone is not maximal") from None

    def generators(self, cone_id: int) -> tuple[IntVector, ...]:
        return tuple(self.rays[i] for i in self.cones[cone_id].ray_indices)

    def face_ids(self, cone_id: int) -> tuple[int, ...]:
        """Ids of all faces of the cone, itself included, ascending."""
        return derived(self, _id_tables)[0][cone_id]

    def coface_ids(self, cone_id: int) -> tuple[int, ...]:
        """Ids of all cones having the cone as a face, itself included, ascending."""
        return derived(self, _id_tables)[1][cone_id]

    def is_face(self, small_id: int, big_id: int) -> bool:
        return self.faces[big_id] >> small_id & 1 == 1

    def cones_containing_ray(self, ray_index: int) -> tuple[int, ...]:
        """Positions (in max_cones) of maximal cones containing the ray."""
        return tuple(
            i for i, c in enumerate(self.max_cones) if ray_index in c.ray_indices
        )

    # -- dual graph ---------------------------------------------------------

    def dual_graph_edges(self) -> list[tuple[int, int, int]]:
        """(wall position, max cone position, max cone position) triples."""
        out = []
        for w, cs in enumerate(self.wall_cones):
            if len(cs) == 2:
                out.append((w, cs[0], cs[1]))
        return out


def derived(owner, build):
    """`build(owner)`, built once and kept in `owner._derived`: the one store
    of what follows from a fan, or a cover, alone.  Keys are private
    builders, which a tracer never rebinds; a build that raises keeps nothing."""
    try:
        return owner._derived[build]
    except KeyError:
        value = owner._derived[build] = build(owner)
        return value


def _id_tables(fan: Fan) -> tuple:
    """Per cone, its face ids, and per cone, its coface ids."""
    return tuple(map(_bit_positions, fan.faces)), tuple(map(_bit_positions, fan.cofaces))


def _validate_rays(rank, rays):
    if not isinstance(rays, (list, tuple)):
        raise FanError(f"rays must be a list of integer vectors, got {rays!r}")
    prim = []
    seen = {}
    for i, r in enumerate(rays):
        if not is_int_list(r):
            raise FanError(f"ray {i} is not a list of integers: {r!r}")
        if len(r) != rank:
            raise FanError(f"ray {i} has wrong length for rank {rank}")
        g = gcd(*r)
        if g == 0:
            raise FanError(f"ray {i} is the zero vector")
        p = tuple([x // g for x in r])
        if p in seen:
            raise FanError(f"duplicate ray: rays {seen[p]} and {i} span the same ray")
        seen[p] = i
        prim.append(p)
    return tuple(prim)


def _normal(rows, d: int):
    """A nonzero functional on Q^d vanishing on the d - 1 integer `rows`
    when they are independent, else None.

    In rank 3 this is the cross product of the two rows, their signed
    maximal minors: u.x = det(a, b, x), so u.a = u.b = 0, and u = 0 exactly
    when a and b are dependent, which is when the kernel of (a; b) is not
    one-dimensional.  When it is not 0, u spans that kernel.  In other
    ranks it is the one vector of the kernel basis, when there is one.
    """
    if d == 3:
        (a0, a1, a2), (b0, b1, b2) = rows
        u = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        return u if any(u) else None
    kernel = nullspace_of_int_rows(list(rows), d)
    return kernel[0] if len(kernel) == 1 else None


def _cone_facets(vectors, coords):
    """The facets of the cone over nonzero integer vectors, as {frozenset of
    the positions of the vectors in the facet: its inward normal}.  `coords`
    are the independent columns of the generator matrix (`independent_rows`
    of its columns), d of them for a cone of dimension d.  Each normal u is
    written in those coordinates, which are all coordinates, in order, when
    the cone is full-dimensional; u is primitive and >= 0 on the cone.

    Proof.  Project onto the coordinates of the independent columns of the
    generator matrix; this map is injective on the span of the generators,
    so the cone becomes a full-dimensional cone C in Q^d with the same face
    poset.  A facet F of C is the cone over the generators it contains;
    these span its hyperplane, so d - 1 independent generators lie in F and
    their kernel is the line of F's normal u.  Conversely, if d - 1
    generators have a one-dimensional kernel spanned by u (`_normal`) and
    every generator lies on one side of u, then u (or -u) supports C in a
    face whose span holds those d - 1 independent generators: a facet.  So
    the loop below finds exactly the facets, each as its zero set, and the
    sign that makes u >= 0 on the generators makes it >= 0 on C.
    """
    w = [[v[c] for c in coords] for v in vectors]
    d = len(coords)
    facets = {}
    for s in combinations(w, d - 1):
        normal = _normal(s, d)
        if normal is None:
            continue
        values = [_dot(normal, x) for x in w]
        if min(values) >= 0 or max(values) <= 0:
            zeros = frozenset(i for i, x in enumerate(values) if x == 0)
            if zeros not in facets:
                g = gcd(*normal) if max(values) > 0 else -gcd(*normal)
                facets[zeros] = tuple([x // g for x in normal])
    return facets


def _faces_of(k: int, facets) -> set:
    """The faces of a cone over k generators from its `_cone_facets`, each
    as the frozenset of positions of the generators that lie in it.

    Every face of a polyhedral cone is the cone itself or an intersection of
    facets (Ziegler, Lectures on Polytopes, 2.2; Fulton, Introduction to
    Toric Varieties, 1.2), faces are the cones over the generators they
    contain, and the generators in an intersection of faces are those in
    each.  Hence the faces are the whole set and the intersection closure of
    the facets' zero sets.  The smallest face is the lineality space, the
    cone over the generators in it, so the cone is strongly convex iff the
    empty set is a face; and generator i spans an extremal ray iff {i} is a
    face (generators on one ray are equal, as `_validate_rays` refuses
    duplicate rays).
    """
    faces = {frozenset(range(k))}
    for f in facets:
        faces |= {f & g for g in faces}
    return faces


def _cone_faces(vectors):
    """All faces of the cone over nonzero integer vectors, each face as the
    frozenset of positions of the vectors that lie in it."""
    coords = independent_rows(list(zip(*vectors)), len(vectors))
    return _faces_of(len(vectors), _cone_facets(vectors, coords))


def _candidate_separates(mask, normals, zero_on, positive_on, negative_on) -> bool:
    """Whether the sum of a cone's inward facet normals over the facets that
    contain the rays in `mask` separates the families (see `fan_from_data`)."""
    chosen = [u for z, u in normals if mask & z == mask]
    if not chosen:
        return False
    u = [sum(x) for x in zip(*chosen)]
    return _separates(u, zero_on, positive_on, negative_on)


def fan_from_data(rank, rays, max_cones, name=None) -> Fan:
    """Build and fully validate a fan from ray vectors and ray-index lists.

    Rays are integer vectors, replaced by their primitive forms.  The
    derived face poset, walls and dual graph are computed here; the fan
    axioms (strong convexity, extremality, pairwise intersection in common
    faces) are checked exactly, and every ray must lie in some maximal cone.

    Two maximal cones s and t with common rays C meet in a common face iff
    some functional u is 0 on C, > 0 on the other rays of s and < 0 on the
    other rays of t (the separation lemma, Fulton 1.2 (12)).  When both
    cones are full-dimensional, the candidates are u_s, the sum of the
    inward normals of the facets of s that contain C, then -u_t.  Each of
    these normals is >= 0 on s and 0 on C, so u_s is 0 on C; if C is a face
    of s, u_s is also > 0 on the other rays of s, since a face of a pointed
    cone is the intersection of the facets that contain it (Ziegler,
    Lectures on Polytopes, 2.2).  So u_s is a witness exactly when it is
    < 0 on the other rays of t as well.  A candidate is accepted only once
    all its signs check in integers, which makes it a witness whatever C
    is.  When s and t meet in a wall, u_s is the wall's normal and always
    separates.  Fourier-Motzkin over the kernel basis of C, kept per common
    ray set for the call, decides the pairs that no candidate separates and
    those with a cone that is not full-dimensional.  So a pair is refused
    exactly when Fourier-Motzkin finds no witness.
    """
    lattice = Lattice(rank)
    prim = _validate_rays(rank, rays)
    if not isinstance(max_cones, (list, tuple)):
        raise FanError(f"max_cones must be a list of ray-index lists, got {max_cones!r}")

    seen_cones = set()
    max_list = []
    max_coords = []
    for ci, idxs in enumerate(max_cones):
        if not is_int_list(idxs):
            raise FanError(f"maximal cone {ci} is not a list of ray indices: {idxs!r}")
        t = tuple(sorted(idxs))
        if len(set(t)) != len(t):
            raise FanError(f"maximal cone {ci} repeats a ray index")
        if not t:
            raise FanError(f"maximal cone {ci} is empty")
        if any(i < 0 or i >= len(prim) for i in t):
            raise FanError(f"maximal cone {ci} has an out-of-range ray index")
        if t in seen_cones:
            raise FanError(f"maximal cone {ci} duplicates another maximal cone")
        seen_cones.add(t)
        max_coords.append(independent_rows(list(zip(*(prim[i] for i in t))), len(t)))
        max_list.append(Cone(t, len(max_coords[-1])))
    used = {i for c in max_list for i in c.ray_indices}
    for i in range(len(prim)):
        if i not in used:
            raise FanError(f"ray {i} lies in no maximal cone")

    # face lattice per maximal cone, accumulated globally, and the inward
    # facet normals of each full-dimensional one, as (ray mask, normal)
    all_faces: set[tuple[int, ...]] = {()}
    normals = []
    for c, coords in zip(max_list, max_coords):
        facets = _cone_facets([prim[i] for i in c.ray_indices], coords)
        faces = _faces_of(len(c.ray_indices), facets)
        if frozenset() not in faces:
            raise FanError("cone is not strongly convex")
        for i, r in enumerate(c.ray_indices):
            if frozenset([i]) not in faces:
                raise FanError(f"generator {r} is not an extremal ray of its cone")
        for f in faces:
            all_faces.add(tuple([r for i, r in enumerate(c.ray_indices) if i in f]))
        normals.append([(sum(1 << c.ray_indices[i] for i in z), u) for z, u in facets.items()]
                       if c.dim == rank else None)

    # pairwise intersections must be common faces (checked on maximal cones;
    # faces of faces then agree automatically)
    kernels = {}
    for a, ca in enumerate(max_list):
        ra = set(ca.ray_indices)
        for b in range(a + 1, len(max_list)):
            cb = max_list[b]
            rb = set(cb.ray_indices)
            common = tuple([i for i in ca.ray_indices if i in rb])
            if len(common) == len(ra) or len(common) == len(rb):
                raise FanError(
                    f"maximal cone {a} is contained in maximal cone {b}"
                )
            zero_on = [prim[i] for i in common]
            pos = [prim[i] for i in ca.ray_indices if i not in rb]
            neg = [prim[i] for i in cb.ray_indices if i not in ra]
            mask = sum(1 << i for i in common)
            if not (normals[a] and normals[b] and (
                    _candidate_separates(mask, normals[a], zero_on, pos, neg)
                    or _candidate_separates(mask, normals[b], zero_on, neg, pos))):
                if common not in kernels:
                    kernels[common] = _kernel_basis(zero_on, rank)
                if _witness(kernels[common], zero_on, pos, neg) is None:
                    raise FanError(
                        f"maximal cones {a} and {b} intersect in a non-face"
                    )
            if common and common not in all_faces:
                raise FanError(
                    f"common face {common} of cones {a} and {b} missing from face set"
                )

    # Distinct primitive rays are dependent only when opposite, and no
    # strongly convex cone holds two opposite rays: so a face of at most two
    # rays has their number as its dimension.
    dims = {c.ray_indices: c.dim for c in max_list}
    cones = []
    for t in sorted(all_faces, key=lambda t: (len(t), t)):
        if len(t) > 2 and t not in dims:
            dims[t] = rank_of_int_rows([prim[i] for i in t], rank)
        cones.append(Cone(t, dims.get(t, len(t))))
    return Fan(lattice, prim, tuple(max_list), tuple(cones), name=name)


# ---------------------------------------------------------------------------
# Completeness
# ---------------------------------------------------------------------------


def _link_cycles(fan: Fan) -> dict[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    links = {}
    for ray in range(len(fan.rays)):
        carriers = fan.cones_containing_ray(ray)
        walls_here = [w for w, wid in enumerate(fan.walls) if ray in fan.cones[wid].ray_indices]
        incident = {c: [] for c in carriers}
        for w in walls_here:
            for c in fan.wall_cones[w]:
                incident[c].append(w)
        if any(len(ws) != 2 for ws in incident.values()):
            raise FanError(f"ray {ray} link is not a cycle")
        start = min(carriers)
        first_wall = min(incident[start])
        cone_seq = [start]
        wall_seq = [first_wall]
        current_cone, current_wall = start, first_wall
        while True:
            a, b = fan.wall_cones[current_wall]
            nxt = b if a == current_cone else a
            if nxt == start:
                break
            w1, w2 = incident[nxt]
            current_wall = w2 if w1 == current_wall else w1
            cone_seq.append(nxt)
            wall_seq.append(current_wall)
            current_cone = nxt
            if len(cone_seq) > len(carriers):
                raise FanError(f"ray {ray} link does not close into a single cycle")
        if len(cone_seq) != len(carriers):
            raise FanError(f"ray {ray} link is disconnected")
        links[ray] = (tuple(cone_seq), tuple(wall_seq))
    return links


def is_complete(fan: Fan) -> bool:
    """Whether the fan's support is the whole space (rank <= 3 only).

    The fan is complete iff it has a maximal cone, every maximal cone is
    full-dimensional and every wall lies in exactly two maximal cones.
    Necessity is clear.  Sufficiency in rank 3, given that cones meet in
    common faces (checked by `fan_from_data`): if the support S is not
    everything, its complement C on the unit sphere is open and nonempty
    and S holds a full-dimensional cone, so the boundary of C is not empty.
    Removing finitely many ray points does not disconnect the sphere, so
    that boundary has a point p on no ray; p lies in S, hence in the
    relative interior of some wall w.  The cones through p are exactly the
    two maximal cones on w, on opposite sides of w since their interiors
    do not overlap, so p is interior to S: a contradiction.  In rank 2, p
    is any boundary point and w the ray through it; in rank 1 the one wall
    is the origin, and its two maximal cones are the two half-lines.
    """
    return derived(fan, _fills_space)


def _fills_space(fan: Fan) -> bool:
    if fan.rank > 3:
        raise FanError("completeness check requires rank <= 3")
    return (bool(fan.max_cones)
            and all(c.dim == fan.rank for c in fan.max_cones)
            and all(len(cs) == 2 for cs in fan.wall_cones))


def ray_link(fan: Fan, ray_index: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Cyclic (max cone positions, wall positions) around a ray.

    The cycle starts at the lowest-index incident maximal cone and its first
    step crosses the lowest-index incident wall; wall j joins cone j to cone
    j+1 (cyclically).  Requires a complete rank-3 fan.
    """
    if fan.rank != 3 or not is_complete(fan):
        raise FanError("ray links require a complete rank-3 fan")
    return derived(fan, _link_cycles)[ray_index]


# ---------------------------------------------------------------------------
# Wall relations and subdivisions
# ---------------------------------------------------------------------------


def wall_relation(fan: Fan, max_cone_position: int) -> list[IntVector]:
    """Generating relations among the primitive ray generators of a maximal cone.

    Returns the left kernel of the generator matrix, one primitive integer
    vector per excess ray (k rays in rank 3 give k-3 relations).
    """
    relations = derived(fan, _wall_relations)[max_cone_position]
    if relations is None:
        raise FanError("wall relations are defined for full-dimensional maximal cones")
    return list(relations)


def _wall_relations(fan: Fan) -> tuple:
    """Per maximal cone, its relations, or None if it is not full-dimensional."""
    return tuple(
        tuple(nullspace_of_int_rows(list(zip(*(fan.rays[i] for i in cone.ray_indices))),
                                    len(cone.ray_indices)))
        if cone.dim == fan.rank else None
        for cone in fan.max_cones)


def stellar_subdivision(fan: Fan, position: int) -> Fan:
    """The fan with maximal cone `position` replaced by the cones over its
    facets from the primitive sum of its generators, a new last ray."""
    cone = fan.max_cones[position].ray_indices
    new_ray = primitive([sum(fan.rays[i][k] for i in cone) for k in range(fan.rank)])
    new = len(fan.rays)
    cone_id = fan.cone_id(cone)
    facets = [fan.cones[w].ray_indices for w in fan.walls if fan.is_face(w, cone_id)]
    cones = [c.ray_indices for j, c in enumerate(fan.max_cones) if j != position]
    cones += [f + (new,) for f in facets]
    return fan_from_data(fan.rank, fan.rays + (new_ray,), cones)


# ---------------------------------------------------------------------------
# Combinatorial symmetries
# ---------------------------------------------------------------------------


def combinatorial_automorphisms(fan: Fan) -> tuple[tuple[int, ...], ...]:
    """Ray permutations preserving the set of maximal cones (brute force)."""
    return derived(fan, _ray_symmetries)


def _ray_symmetries(fan: Fan) -> tuple[tuple[int, ...], ...]:
    n = len(fan.rays)
    if n > 10:
        raise FanError("automorphism search is limited to fans with at most 10 rays")
    cone_sets = {frozenset(c.ray_indices) for c in fan.max_cones}
    return tuple(perm for perm in permutations(range(n))
                 if {frozenset(perm[i] for i in s) for s in cone_sets} == cone_sets)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def fan_to_dict(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [list(c.ray_indices) for c in fan.max_cones],
    }


def fan_from_dict(data: dict, name=None) -> Fan:
    if not isinstance(data, dict):
        raise FanError("a fan is an object with keys 'rank', 'rays' and 'max_cones'")
    key = missing_key(data, ("rank", "rays", "max_cones"))
    if key:
        raise FanError(f"fan data has no {key!r} key")
    return fan_from_data(data["rank"], data["rays"], data["max_cones"], name=name)


BUNDLED_FANS = ("fulton", "eikelberg", "sigma_prime", "p2")


def load_fan(source, beside=None) -> Fan:
    """Load a fan from a bundled name ('fulton', ...) or a JSON file path, a
    relative one named in the file `beside` taken from that file's directory."""
    if source in BUNDLED_FANS:
        from importlib.resources import files

        return fan_from_dict(read_json(files("fanbranch.data") / f"{source}.fan.json",
                                       "fan", FanError), name=source)
    path = os.path.join(os.path.dirname(beside), source) if beside else source
    data = read_json(path, "fan", FanError)
    try:
        return fan_from_dict(data, name=str(path))
    except FanError as exc:
        raise FanError(f"invalid fan: {exc}") from None
