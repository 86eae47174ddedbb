import random
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from operator import mul

from fanbranch.exact_linalg import (
    SubspaceBasis,
    independent_rows,
    integer_kernel,
    rank_of_int_rows,
    subspace_sum,
)
from fanbranch import fan_core
from fanbranch.fan_core import (
    Cone,
    Fan,
    FanError,
    Lattice,
    derived,
    linear_functional_witness,
    load_fan,
    ray_link,
    stellar_subdivision,
    wall_relation,
)
from fanbranch.cover_poset import CoverCell, CoverPoset, validate_cover
from fanbranch.klyachko import (
    Filtration,
    KlyachkoData,
    KlyachkoError,
    SplittingCertificate,
    VerifyResult,
)
from fanbranch.cli import SweepRecord
from fanbranch.monodromy import (
    Permutation,
    RayOrbits,
    _digits,
    _record_tables,
    assignment_at,
    build_cover,
    count_assignments,
    ray_orbits,
    spanning_tree,
)
from fanbranch.pl_group import (
    PLFunction,
    _kernel_keys,
    _lifts,
    _max_cell_geometry,
    _pullback_z,
    _ray_value_kernel,
    per_cell_system,
    split_triviality,
)

# The per-cone functional multisets printed for the rank-3 example on the
# Fulton-type fan, keyed by maximal-cone position (0-based, bundled order).
FULTON_PRINTED_MULTISETS = {
    0: ((1, -1, 0), (0, -1, 1), (0, 0, 0)),
    1: ((0, -1, 1), (0, -1, -1), (1, 0, 1)),
    2: ((1, -1, 0), (0, -1, 1), (0, 0, 0)),
    3: ((1, 0, 1), (0, -2, 0), (0, 0, 0)),
    4: ((1, -1, 0), (-1, -1, 0), (1, 0, 1)),
    5: ((1, -1, 0), (0, -1, 1), (0, 0, 0)),
}


def random_filtration(rng, r) -> Filtration:
    while True:
        m = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(r)]
        if rank_of_int_rows(m, r) == r:
            break
    dims = sorted(rng.sample(range(1, r + 1), rng.randint(1, r)), reverse=True)
    if dims[0] != r:
        dims = [r] + dims
    thresholds = sorted(rng.sample(range(-9, 10), len(dims)))
    steps = [(t, SubspaceBasis(r, m[:d])) for t, d in zip(thresholds, dims)]
    return Filtration(r, steps)


def random_bundle(fan, r, rng) -> KlyachkoData:
    return KlyachkoData(
        fan, r, {ray: random_filtration(rng, r) for ray in range(len(fan.rays))}
    )


@lru_cache(maxsize=None)
def stellar_covers() -> tuple:
    """One seeded degree-2 and one degree-3 cover of every single stellar
    subdivision of the three bundled rank-3 fans (34 covers)."""
    rng = random.Random(12)
    covers = []
    for name in ("fulton", "eikelberg", "sigma_prime"):
        base = load_fan(name)
        for pos in range(len(base.max_cones)):
            sub = stellar_subdivision(base, pos)
            tree = spanning_tree(sub)
            for d in (2, 3):
                index = rng.randrange(count_assignments(sub, d))
                covers.append(build_cover(sub, assignment_at(sub, d, index, tree), tree))
    return tuple(covers)


# -- fan validation by one Fourier-Motzkin run per pair ----------------------
#
# `fan_from_data` decides most pairs of maximal cones from sign-checked
# facet-normal candidates.  This is the pair loop that it is tested against:
# `linear_functional_witness` on every pair, and every cone's dimension from
# an elimination.


def reference_fan_from_data(rank, rays, max_cones, name=None) -> Fan:
    """`fan_from_data` with a Fourier-Motzkin witness sought for every pair
    of maximal cones."""
    lattice = Lattice(rank)
    prim = fan_core._validate_rays(rank, rays)
    if not isinstance(max_cones, (list, tuple)):
        raise FanError(f"max_cones must be a list of ray-index lists, got {max_cones!r}")
    seen_cones = set()
    max_list = []
    for ci, idxs in enumerate(max_cones):
        if not isinstance(idxs, (list, tuple)) or not all(type(i) is int for i in idxs):
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
        max_list.append(Cone(t, rank_of_int_rows([prim[i] for i in t], rank)))
    used = {i for c in max_list for i in c.ray_indices}
    for i in range(len(prim)):
        if i not in used:
            raise FanError(f"ray {i} lies in no maximal cone")
    all_faces = {()}
    for c in max_list:
        faces = fan_core._cone_faces([prim[i] for i in c.ray_indices])
        if frozenset() not in faces:
            raise FanError("cone is not strongly convex")
        for i, r in enumerate(c.ray_indices):
            if frozenset([i]) not in faces:
                raise FanError(f"generator {r} is not an extremal ray of its cone")
        for f in faces:
            all_faces.add(tuple(sorted(c.ray_indices[i] for i in f)))
    for a in range(len(max_list)):
        for b in range(a + 1, len(max_list)):
            ra = set(max_list[a].ray_indices)
            rb = set(max_list[b].ray_indices)
            common = tuple(sorted(ra & rb))
            if ra <= rb or rb <= ra:
                raise FanError(f"maximal cone {a} is contained in maximal cone {b}")
            u = linear_functional_witness(
                [prim[i] for i in common],
                [prim[i] for i in sorted(ra - rb)],
                [prim[i] for i in sorted(rb - ra)],
            )
            if u is None:
                raise FanError(f"maximal cones {a} and {b} intersect in a non-face")
            if common and common not in all_faces:
                raise FanError(
                    f"common face {common} of cones {a} and {b} missing from face set")
    cones = tuple(Cone(t, rank_of_int_rows([prim[i] for i in t], rank))
                  for t in sorted(all_faces, key=lambda t: (len(t), t)))
    return Fan(lattice, prim, tuple(max_list), cones, name=name)


# -- the `Fraction` Gauss-Jordan elimination -----------------------------------
#
# `rref` and `solve_linear` read the reduced form off the fraction-free
# `_primitive_rref`.  This is the `Fraction` Gauss-Jordan they ran before,
# kept as the independent reference for them and for the tests that read a
# rank or a kernel off a reduced form.


def _rref_rows(rows: list[list[Fraction]], ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan; returns (rows, pivot column list)."""
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = 1 / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def _fractions(rows) -> tuple:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def reference_rref(rows) -> tuple[tuple, int]:
    """`rref` by the `Fraction` Gauss-Jordan."""
    rows = [list(r) for r in _fractions(rows)]
    rows, pivots = _rref_rows(rows, len(rows[0]) if rows else 0)
    return _fractions(rows), len(pivots)


def reference_solve_linear(a_rows, b):
    """`solve_linear` by the `Fraction` Gauss-Jordan."""
    arows = _fractions(a_rows)
    bvec = tuple(Fraction(x) for x in b)
    if len(arows) != len(bvec):
        raise ValueError("dimension mismatch")
    if not arows:
        return ()
    ncols = len(arows[0])
    aug = [list(r) + [bv] for r, bv in zip(arows, bvec)]
    aug, pivots = _rref_rows(aug, ncols)
    # inconsistent iff a pivot appears in the augmented column
    npiv = len(pivots)
    for i in range(npiv, len(aug)):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for j, p in enumerate(pivots):
        x[p] = aug[j][ncols]
    return tuple(x)


# -- subspaces as `Fraction` reduced row-echelon bases ------------------------
#
# `SubspaceBasis` stores its reduced basis as primitive integer rows, reached
# by a fraction-free elimination, and `annihilator` puts the vectors it reads
# off those rows through the same path.  These are the `Fraction` Gauss-Jordan
# construction and the annihilator it is tested against, as they stood before.


def reference_subspace_basis(ambient_dim: int, basis=()) -> tuple:
    """The `Fraction` reduced row-echelon basis of the span of `basis`."""
    rows = [list(r) for r in _fractions(basis)]
    for r in rows:
        if len(r) != ambient_dim:
            raise ValueError("basis vector of wrong length")
    rows, pivots = _rref_rows(rows, ambient_dim)
    return tuple(tuple(r) for r in rows[: len(pivots)])


def reference_annihilator(ambient_dim: int, basis) -> tuple:
    """The reference basis of the annihilator of the subspace with reference
    basis `basis`, read off it: one vector per non-pivot column `free`, with
    1 there and -row[free] at each row's pivot."""
    pivots = [next(k for k, x in enumerate(row) if x) for row in basis]
    vectors = []
    for free in range(ambient_dim):
        if free in pivots:
            continue
        x = [0] * ambient_dim
        x[free] = 1
        for p, row in zip(pivots, basis):
            x[p] = -row[free]
        vectors.append(x)
    return reference_subspace_basis(ambient_dim, vectors)


def reference_dual(data: KlyachkoData) -> dict:
    """ray -> the dual's steps as (threshold, reference basis): (-t_k, Q^r),
    then (-t_{j-1}, the reference annihilator of S_j) for j = k, ..., 2."""
    r = data.rank
    full = reference_subspace_basis(r, [[int(i == j) for j in range(r)] for i in range(r)])
    out = {}
    for ray, f in data.filtrations.items():
        steps = f.steps
        out[ray] = [(-steps[-1][0], full)] + [
            (-steps[j - 1][0], reference_annihilator(r, reference_subspace_basis(r, steps[j][1].basis)))
            for j in range(len(steps) - 1, 0, -1)]
    return out


# -- compatibility by rebuilding each induced filtration ----------------------
#
# `klyachko.verify` decides in integers, with no subspace sum built.  This is
# the direct reading it is tested against: per cone and ray, the validated
# `Filtration` that the summands induce, compared with the stored one.


def _induced_filtration(rank: int, pairs) -> Filtration:
    """Filtration generated by (value, subspace) summands: sum over value >= i."""
    values = sorted({v for v, _ in pairs})
    steps = []
    for t in values:
        acc = SubspaceBasis(rank)
        for v, s in pairs:
            if v >= t:
                acc = subspace_sum(acc, s)
        steps.append((t, acc))
    return Filtration(rank, steps)


def reference_verify(data: KlyachkoData, cert: SplittingCertificate) -> VerifyResult:
    """`verify` as the literal compatibility identity, in `Fraction` subspaces.
    A zero summand can make `_induced_filtration` raise here, where `verify`
    reports a violation, so the comparison leaves such certificates out."""
    fan = data.fan
    r = data.rank
    for pos in range(len(fan.max_cones)):
        entries = cert.cone(pos)
        cone_rays = fan.max_cones[pos].ray_indices
        tuples = [
            tuple(sum(a * b for a, b in zip(u, fan.rays[ray])) for ray in cone_rays)
            for u, _ in entries
        ]
        if len(set(tuples)) != len(tuples):
            return VerifyResult(False, cone=pos, reason="repeated functional class in splitting")
        total = SubspaceBasis(r)
        dim_sum = 0
        for _, s in entries:
            total = subspace_sum(total, s)
            dim_sum += s.dim
        if dim_sum != r or total.dim != r:
            return VerifyResult(
                False, cone=pos,
                reason=f"summands have total dimension {dim_sum} spanning {total.dim}, want {r}",
            )
        for ray in cone_rays:
            pairs = [
                (sum(a * b for a, b in zip(u, fan.rays[ray])), s) for u, s in entries
            ]
            induced = _induced_filtration(r, pairs)
            stored = data.filtrations[ray]
            if induced != stored:
                thresholds = sorted(set(induced.thresholds()) | set(stored.thresholds()))
                bad = next(
                    (t for t in thresholds if induced.value(t) != stored.value(t)),
                    thresholds[0],
                )
                return VerifyResult(
                    False, cone=pos, ray=ray, threshold=bad,
                    reason="splitting does not reproduce the stored filtration",
                )
    return VerifyResult(True)


# -- the associated cover from every carrier ----------------------------------
#
# `ChernData` evaluates each maximal cone's functionals once at its rays and
# reads every restriction from that table; `branched_cover_of` takes each
# cone's classes from one carrier.  This is the construction they are tested
# against: each restriction recomputed from dot products, face agreement on
# the shared face's cone, and the classes over every cone cross-checked
# against every carrier.


def _restriction_multiset(fan: Fan, pos: int, entries, cone_id: int):
    """Multiset of restricted functional classes of a maximal cone's
    splitting on a face, keyed by value tuples at the face's rays."""
    face_rays = fan.cones[cone_id].ray_indices
    acc: dict[tuple, int] = {}
    for u, mult in entries:
        key = tuple([sum(map(mul, u, fan.rays[ray])) for ray in face_rays])
        acc[key] = acc.get(key, 0) + mult
    return tuple(sorted(acc.items()))


def reference_face_agreement(fan: Fan, multisets: dict) -> None:
    """Raise `KlyachkoError` naming the first pair of maximal cones whose
    multisets restrict differently to their shared face."""
    for a in range(len(fan.max_cones)):
        for b in range(a + 1, len(fan.max_cones)):
            common = tuple(
                sorted(
                    set(fan.max_cones[a].ray_indices)
                    & set(fan.max_cones[b].ray_indices)
                )
            )
            if not common:
                continue
            cone_id = fan.cone_id(common)
            ra = _restriction_multiset(fan, a, multisets[a], cone_id)
            rb = _restriction_multiset(fan, b, multisets[b], cone_id)
            if ra != rb:
                raise KlyachkoError(
                    f"multisets of cones {a} and {b} disagree on their shared face"
                )


def reference_branched_cover_of(cdata):
    """(cover, tautological function) of a `ChernData`, every carrier of a
    cone cross-checked."""
    fan = cdata.fan

    max_pos_of_base = {
        fan.cone_id(c.ray_indices): pos for pos, c in enumerate(fan.max_cones)
    }
    # classes over every cone, from the first incident maximal cone by id,
    # cross-checked against all others
    classes: dict[int, tuple] = {}
    for cone_id in range(len(fan.cones)):
        carriers = [max_pos_of_base[i] for i in fan.coface_ids(cone_id) if i in max_pos_of_base]
        if not carriers:
            raise KlyachkoError(f"cone {cone_id} is not a face of any maximal cone")
        first = _restriction_multiset(fan, carriers[0], cdata.multisets[carriers[0]], cone_id)
        for other in carriers[1:]:
            if _restriction_multiset(fan, other, cdata.multisets[other], cone_id) != first:
                raise KlyachkoError(
                    f"restriction multisets disagree over cone {cone_id}"
                )
        classes[cone_id] = first

    cells = []
    cell_index: dict[tuple, int] = {}
    for cone_id in range(len(fan.cones)):
        for copy, (key, mult) in enumerate(classes[cone_id]):
            cell_index[(cone_id, key)] = len(cells)
            cells.append(CoverCell(cone_id, copy, mult))

    pairs = []
    for cone_id in range(len(fan.cones)):
        face_sets = {
            fid: fan.cones[fid].ray_indices
            for fid in fan.face_ids(cone_id)
            if fid != cone_id
        }
        cone_rays = fan.cones[cone_id].ray_indices
        for key, mult in classes[cone_id]:
            hi = cell_index[(cone_id, key)]
            value_at = dict(zip(cone_rays, key))
            for fid, frays in face_sets.items():
                fkey = tuple(value_at[rr] for rr in frays)
                pairs.append((cell_index[(fid, fkey)], hi))

    cover = CoverPoset(fan, cells, pairs, _closed=True)
    report = validate_cover(cover)
    if not report.ok:
        raise KlyachkoError(f"associated cover is invalid: {report.describe()}")

    # the tautological function: each maximal cell carries its functional
    cell_values = {}
    lookup = {(c.base, c.copy): i for i, c in enumerate(cover.cells)}
    for cone_id in range(len(fan.cones)):
        if fan.cones[cone_id].dim != fan.rank:
            continue
        pos = max_pos_of_base[cone_id]
        by_key = {}
        for u, m in cdata.multisets[pos]:
            key = tuple(
                sum(a * b for a, b in zip(u, fan.rays[ray]))
                for ray in fan.cones[cone_id].ray_indices
            )
            by_key[key] = u
        for copy, (key, mult) in enumerate(classes[cone_id]):
            cell_values[lookup[(cone_id, copy)]] = by_key[key]
    psi = PLFunction(cover, cell_values)
    return cover, psi


# -- PL functions as `Fraction` dicts ----------------------------------------
#
# `solve` stores each function as integer numerators over one denominator and
# builds its `Fraction` dicts on first read.  This is the construction that
# storage replaced, on plain dicts: per maximal cell its `_kernel_keys` entry
# over L, each entry as `Fraction(key, L)`, and per ray cell `Fraction(z)`.
# A reference function is a pair (cell values, ray values).


def reference_lift(cover, z) -> tuple[dict, dict]:
    """The function with integer ray-cell values z, in `cover.ray_cells` order."""
    big = _lifts(cover.fan)[0]
    keys = _kernel_keys(cover.fan, _max_cell_geometry(cover), [z])
    return ({m: tuple(Fraction(x, big) for x in key) for m, key in zip(cover.max_cells, keys)},
            {r: Fraction(x) for r, x in zip(cover.ray_cells, z)})


def reference_basis(cover, mode: str) -> tuple[list, list]:
    """(functions, pullbacks) of `solve(cover, mode)`, built as `Fraction`s:
    the rational basis picks its kernel vectors on the whole ray-cell
    vectors, the integral one is the per-cell system's integer kernel."""
    n = cover.fan.rank
    pullbacks = [reference_lift(cover, _pullback_z(cover, j)) for j in range(n)]
    if mode == "rational":
        ordered = [_pullback_z(cover, j) for j in range(n)] + _ray_value_kernel(cover)[0]
        picked = independent_rows(ordered, len(cover.ray_cells))
        functions = [reference_lift(cover, ordered[i]) for i in picked]
        return functions, functions[:n]
    zstart = n * len(cover.max_cells)
    functions = [({m: tuple(map(Fraction, vec[n * i:n * i + n]))
                   for i, m in enumerate(cover.max_cells)},
                  {r: Fraction(x) for r, x in zip(cover.ray_cells, vec[zstart:])})
                 for vec in integer_kernel(per_cell_system(cover))]
    return functions, pullbacks


def reference_add(f, g) -> tuple[dict, dict]:
    return ({m: tuple(a + b for a, b in zip(u, g[0][m])) for m, u in f[0].items()},
            {r: a + g[1][r] for r, a in f[1].items()})


def reference_scale(f, c) -> tuple[dict, dict]:
    c = Fraction(c)
    return {m: tuple(c * x for x in u) for m, u in f[0].items()}, {r: c * a for r, a in f[1].items()}


def reference_to_dict(cover, f) -> dict:
    def enc(x: Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    return {"cells": [{"base": cover.cells[m].base, "copy": cover.cells[m].copy,
                       "u": [enc(x) for x in f[0][m]]} for m in sorted(f[0])]}


# -- the whole values-at-rays system of a monodromy cover --------------------
#
# No sweep record builds it: records are decided on the sheet-averaging split
# (`RayOrbits.sum_zero_columns`).  It is the reference the split is tested
# against, and `system_triviality` decides it as it decides a cover's.


@dataclass(frozen=True)
class RayValueSystem:
    """The values-at-rays system of an assignment's cover, built without it."""

    rows: list[list[int]]
    ncols: int
    cells: list[tuple]  # per row block: (block, cone position, weight 1, columns)


def value_system(fan, orbits) -> RayValueSystem:
    """The whole system of the cover that `orbits` reads off the monodromy:
    per maximal cell of `orbits.cells()`, one row per wall relation of its
    cone, with each ray of the cone sent to the column of the cell over it."""
    ncols = sum(map(len, orbits.lengths))
    cells = orbits.cells()
    rows = []
    for _, pos, _, cols in cells:
        for rel in wall_relation(fan, pos):
            row = [0] * ncols
            for coeff, col in zip(rel, cols):
                row[col] = coeff
            rows.append(row)
    return RayValueSystem(rows, ncols, cells)


def ray_value_rows(fan, assignment, tree=None) -> RayValueSystem:
    """The system of `pl_group.ray_value_system` on `build_cover`'s cover,
    read straight off the monodromy (`value_system` of `ray_orbits`).  The
    columns are the ray cells in the cover's order, the rows follow the
    cover's maximal cells (base cone id, then sheet), so the matrix is the
    cover's entry for entry, and row block i, labelled i in `cells`, is the
    cover's `max_cells[i]`."""
    return value_system(fan, ray_orbits(fan, assignment, tree))


# -- a ray's monodromy, walked around its link --------------------------------
#
# `build_cover` and `branch_rays` glue the sheets over a ray's link across
# its walls (`monodromy._glued_sheets`) and never walk the link.  This walk
# is the reference they are tested against.


def ray_monodromy(fan, assignment, ray, tree=None) -> Permutation:
    """The product of the wall-crossing maps around the ray's link cycle
    (`ray_link`), from its first cone: each sheet there goes to the sheet
    that it comes back to.  Its cycles, by least point, are the cells over
    the ray in `build_cover`'s order, each of weight its length."""
    tree = tree or spanning_tree(fan)
    identity = Permutation.identity(assignment.degree)
    crossing = dict(zip(tree.nontree_walls, assignment.perms))
    cones, walls = ray_link(fan, ray)
    loop = identity
    for w, a, b in zip(walls, cones, cones[1:] + cones):
        step = crossing.get(w, identity)
        loop = (step if tree.orientations[w] == (a, b) else step.inverse()) * loop
    return loop


# -- a record's ray orbits, walked and built per record ---------------------
#
# Records read each ray's loop, orbits and sum-zero columns off the ray's
# table in `monodromy._RecordTables`, keyed by the digits of the generators
# its link crosses.  This is the per-record path that the tables replace,
# and the reference they are tested against.


def reference_orbits(fan, d, index, tree=None) -> RayOrbits:
    """`orbits_at(fan, d, index, tree)` with every ray's link walked on the
    rank tables of S_d, and the sum-zero columns built cone by cone, sheet
    by sheet and relation by relation for this record alone."""
    tree = tree or spanning_tree(fan)
    tables = derived(fan, _record_tables)
    ranks = tables.ranks[d]
    digits = _digits(index, factorial(d), tree.generators)
    slot = {w: g for g, w in enumerate(tree.nontree_walls)}
    at = [[None] * len(cone.ray_indices) for cone in fan.max_cones]
    loops, entries = [], []
    for ray in range(len(fan.rays)):
        cones, walls = ray_link(fan, ray)
        t = 0
        transports = [t]
        for w, a, b in zip(walls, cones, cones[1:] + cones):
            if w in slot:
                r = digits[slot[w]]
                t = ranks.compose[t][ranks.inverse[r] if tree.orientations[w] == (a, b) else r]
            transports.append(t)
        loop = transports.pop()
        loops.append(ranks.loops[loop])
        entries.append(tuple((pos, fan.max_cones[pos].ray_indices.index(ray), ranks.at[loop][u])
                             for pos, u in zip(cones, transports)))
        for pos, place, orbit in entries[-1]:
            at[pos][place] = orbit
    relations = [wall_relation(fan, pos) for pos in range(len(fan.max_cones))]
    nrows = (d - 1) * sum(map(len, relations))
    blocks = [[[0] * nrows for _ in loop.spread[1:]] for loop in loops]
    row = 0
    for cone, rels, over in zip(fan.max_cones, relations, at):
        for orbits in list(zip(*over))[:-1]:
            for rel in rels:
                for coeff, ray, k in zip(rel, cone.ray_indices, orbits):
                    for col, factor in loops[ray].spread[k]:
                        blocks[ray][col][row] = coeff * factor
                row += 1
    return RayOrbits(d, digits, tables, list(zip(loops, entries, blocks)))


def reference_split_record(fan, tree, d, index) -> str:
    """The record line of `cli.evaluate_assignment`, from `reference_orbits`
    and `split_triviality`."""
    orbits = reference_orbits(fan, d, index, tree)
    verdict = split_triviality(fan, orbits)
    return SweepRecord(
        index=index,
        branch_rays=orbits.branch_rays,
        profile=orbits.profile,
        dim_pl=verdict.dim,
        verdict="AllTrivial" if verdict.all_trivial else "Nontrivial",
        cert=verdict.tag,
    ).to_json()


# -- the forced-equality chase ----------------------------------------------
#
# Klyachko compatibility gives each maximal cone one decomposition
# E = sum of E_u with E^ray(t) = sum of E_u over <u, v_ray> >= t, for every
# ray of the cone.  Where every cone through a ray has exactly one functional
# reaching a threshold, that filtration step is one line, so those summands
# are the same line in every such cone.  A slot is (cone position, functional);
# the functionals within one cone are assumed distinct.


def _pairing(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def forced_steps(fan, printed):
    """Yield (ray, threshold, slots) for every one-dimensional filtration
    step that the multisets alone pin down."""
    for ray, v in enumerate(fan.rays):
        carriers = fan.cones_containing_ray(ray)
        values = sorted({_pairing(u, v) for pos in carriers for u in printed[pos]})
        for t in values:
            tops = [
                (pos, [u for u in printed[pos] if _pairing(u, v) >= t])
                for pos in carriers
            ]
            if all(len(hits) == 1 for _, hits in tops):
                yield ray, t, [(pos, hits[0]) for pos, hits in tops]


def forced_chain(fan, printed, start, end):
    """The shortest chain of forced steps that makes slot `start` and slot
    `end` the same line, as (ray, threshold, from_slot, to_slot) links, or
    None if the steps do not connect them."""
    steps = list(forced_steps(fan, printed))
    came_from = {start: None}
    queue = deque([start])
    while queue:
        slot = queue.popleft()
        if slot == end:
            chain = []
            while came_from[slot] is not None:
                prev, ray, t = came_from[slot]
                chain.append((ray, t, prev, slot))
                slot = prev
            return chain[::-1]
        for ray, t, group in steps:
            if slot in group:
                for other in group:
                    if other not in came_from:
                        came_from[other] = (slot, ray, t)
                        queue.append(other)
    return None


def forced_collision(fan, printed):
    """The first (cone, u, u') in which two distinct summands are forced to
    be the same line -- so no filtration data over any field has these
    multisets -- or None if the chase finds no such cone."""
    for pos, ms in printed.items():
        for i, u in enumerate(ms):
            for w in ms[i + 1:]:
                if forced_chain(fan, printed, (pos, u), (pos, w)) is not None:
                    return pos, u, w
    return None

