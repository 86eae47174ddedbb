"""Branched covers of a fan in weighted-poset form.

A cover is a rooted weighted poset of cells projecting to the fan's cone
poset: one minimal cell over the zero cone, and over each cone a fiber of
cells whose down-sets copy the base face poset.  The two covering axioms
(local down-set isomorphism and constancy of the weight trace on up-sets)
are checked exhaustively by :func:`validate_cover`.

Covers are never realized topologically; every downstream computation
consumes the poset plus the base fan's geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fan_core import Fan, is_complete
from .fields import is_int_list


class CoverError(ValueError):
    pass


@dataclass(frozen=True)
class CoverCell:
    """One cell of a cover: which base cone it lies over, which copy, weight."""

    base: int
    copy: int
    weight: int

    def __post_init__(self):
        if self.weight < 1:
            raise CoverError("cell weight must be a positive integer")


@dataclass
class Violation:
    cell: int | None
    axiom: str
    message: str


@dataclass
class CoverReport:
    ok: bool
    violations: list[Violation]

    def __bool__(self):
        return self.ok

    def describe(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(f"[{v.axiom}] cell {v.cell}: {v.message}" for v in self.violations)


class CoverPoset:
    """A weighted cell poset over a fan.

    `below[i]` is the frozenset of cell ids strictly below cell i; the order
    is stored fully (transitively closed).  Cells are sorted by
    (base cone id, copy).  `max_cells`, `ray_cells` and `wall_cells` are
    computed once and shared by every reader, which must not mutate them.
    """

    def __init__(self, fan: Fan, cells, strict_pairs, _closed=False):
        order = sorted(range(len(cells)), key=lambda i: (cells[i].base, cells[i].copy))
        remap = {old: new for new, old in enumerate(order)}
        self.fan = fan
        self.cells: tuple[CoverCell, ...] = tuple(cells[i] for i in order)
        n = len(self.cells)
        below = [set() for _ in range(n)]
        try:
            for lo, hi in strict_pairs:
                below[remap[hi]].add(remap[lo])
        except (KeyError, TypeError, ValueError):
            raise CoverError("each face is a pair [lower, upper] of cell positions")
        if not _closed:
            below = _transitive_closure(below)
        self.below: tuple[frozenset, ...] = tuple(frozenset(b) for b in below)
        above = [set() for _ in range(n)]
        for hi, bs in enumerate(self.below):
            for lo in bs:
                above[lo].add(hi)
        self.above: tuple[frozenset, ...] = tuple(frozenset(a) for a in above)
        by_base: dict[int, list[int]] = {}
        for i, c in enumerate(self.cells):
            by_base.setdefault(c.base, []).append(i)
        self.by_base = by_base
        self._derived: dict = {}  # what other modules derive from it: `fan_core.derived`
        seen = set()
        for c in self.cells:
            key = (c.base, c.copy)
            if key in seen:
                raise CoverError(f"two cells share base {c.base} and copy {c.copy}")
            seen.add(key)

    def __getstate__(self) -> dict:
        """As `Fan.__getstate__`: a copy or a pickle starts with an empty store."""
        return {**self.__dict__, "_derived": {}}

    # -- structural queries --------------------------------------------------

    def minimal_cells(self) -> list[int]:
        return [i for i in range(len(self.cells)) if not self.below[i]]

    @property
    def minimal_cell(self) -> int:
        mins = self.minimal_cells()
        if len(mins) != 1:
            raise CoverError("cover has no unique minimal cell")
        return mins[0]

    def cells_over(self, cone_id: int) -> list[int]:
        return list(self.by_base.get(cone_id, ()))

    def cells_over_dim(self, dim: int) -> list[int]:
        return [
            i for i, c in enumerate(self.cells) if self.fan.cones[c.base].dim == dim
        ]

    @cached_property
    def max_cells(self) -> list[int]:
        return self.cells_over_dim(self.fan.rank)

    @cached_property
    def ray_cells(self) -> list[int]:
        return self.cells_over_dim(1)

    @cached_property
    def wall_cells(self) -> list[int]:
        return self.cells_over_dim(self.fan.rank - 1)

    def leq(self, a: int, b: int) -> bool:
        return a == b or a in self.below[b]


def _transitive_closure(below: list[set]) -> list[set]:
    n = len(below)
    memo: dict[int, set] = {}

    def down(i):
        if i not in memo:
            acc = memo[i] = set(below[i])  # read unfinished only on a cycle back to i
            for j in below[i]:
                acc |= down(j)
        return memo[i]

    closure = [down(i) for i in range(n)]
    if any(i in cells_below for i, cells_below in enumerate(closure)):
        raise CoverError("the faces form a cycle")
    return closure


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def components(n: int, links) -> list[list[int]]:
    """The classes of range(n) under the equivalence that joins the members
    of each link: each class ascending, the classes by least member."""
    root = list(range(n))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for first, *rest in links:
        for x in rest:
            root[find(x)] = find(first)
    groups: dict[int, list[int]] = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return list(groups.values())


def validate_cover(cover: CoverPoset) -> CoverReport:
    """Exhaustive check of the branched-cover axioms.

    (a) a unique minimal cell over the zero cone; (b) every cell's down-set
    maps isomorphically onto the base cone's face poset; (c) the weight trace
    over each up-set is constant; (d) degree equals the minimal cell weight.
    """
    fan = cover.fan
    violations: list[Violation] = []

    mins = cover.minimal_cells()
    if len(mins) != 1:
        violations.append(
            Violation(None, "a", f"expected one minimal cell, found {len(mins)}")
        )
        return CoverReport(False, violations)
    root = mins[0]
    if cover.cells[root].base != 0:
        violations.append(
            Violation(root, "a", "minimal cell does not lie over the zero cone")
        )

    # (b) x passes its projection check iff the bases of its down-set are the
    # faces of its base, each once: as many cells as faces, and the mask of
    # the bases is the base's face mask.
    cells = cover.cells
    below = cover.below
    faces = fan.faces
    n = len(cells)
    projects = [False] * n
    for x in range(n):
        mask = 1 << cells[x].base
        for y in below[x]:
            mask |= 1 << cells[y].base
        want = faces[cells[x].base]
        projects[x] = mask == want and len(below[x]) + 1 == want.bit_count()
    for x in range(n):
        # The order on the down-set of a projecting x matches the face order
        # when every z below x projects too and its down-set lies in x's: for
        # y, z in the down-set, y <= z puts base(y) among base(z)'s faces, and
        # a face of base(z) is the base of some y' <= z, which is y since the
        # bases of x's down-set are distinct.  Only otherwise is the order
        # compared pair by pair, in the order that names the first mismatch.
        if projects[x] and all(projects[z] and below[z] <= below[x] for z in below[x]):
            continue
        down = sorted(below[x]) + [x]
        if not projects[x]:
            bases = sorted(cells[y].base for y in down)
            violations.append(
                Violation(
                    x,
                    "b",
                    f"down-set projects to cones {bases}, "
                    f"expected faces {list(fan.face_ids(cells[x].base))}",
                )
            )
            continue
        for y in down:
            for z in down:
                want = fan.is_face(cells[y].base, cells[z].base)
                got = cover.leq(y, z)
                if want != got:
                    violations.append(
                        Violation(
                            x,
                            "b",
                            f"down-set order mismatch between cells {y} and {z}",
                        )
                    )
                    break
            else:
                continue
            break

    # (c) the weight over each coface of x's base, in ascending id order
    for x in range(n):
        w = cells[x].weight
        trace: dict[int, int] = {}
        for y in (x, *cover.above[x]):
            b = cells[y].base
            trace[b] = trace.get(b, 0) + cells[y].weight
        for gamma in fan.coface_ids(cells[x].base):
            if trace.get(gamma, 0) != w:
                violations.append(
                    Violation(
                        x,
                        "c",
                        f"weight trace over cone {gamma} is {trace.get(gamma, 0)}, expected {w}",
                    )
                )
    return CoverReport(not violations, violations)


def degree(cover: CoverPoset) -> int:
    return cover.cells[cover.minimal_cell].weight


def ramification_cells(cover: CoverPoset) -> list[int]:
    """Nonminimal cells of weight greater than one."""
    root = cover.minimal_cell
    return [
        i
        for i, c in enumerate(cover.cells)
        if i != root and c.weight > 1
    ]


def is_maximal(cover: CoverPoset) -> bool:
    """Maximality in the pull-apart order, over a complete rank-3 base.

    Combinatorial form: no ramification on maximal or wall cells, and around
    every ray cell the incident wall/maximal cells close into a single cycle
    (the covering surface is a manifold).
    """
    fan = cover.fan
    if fan.rank != 3 or not is_complete(fan):
        raise CoverError("maximality is defined over complete rank-3 fans")
    for i in cover.max_cells + cover.wall_cells:
        if cover.cells[i].weight != 1:
            return False
    for r in cover.ray_cells:
        walls = [i for i in cover.above[r] if fan.cones[cover.cells[i].base].dim == 2]
        maxes = [i for i in cover.above[r] if fan.cones[cover.cells[i].base].dim == 3]
        if not walls or not maxes:
            return False
        adj = {m: [] for m in maxes}
        for w in walls:
            touching = [m for m in maxes if w in cover.below[m]]
            if len(touching) != 2:
                return False
            a, b = touching
            adj[a].append(b)
            adj[b].append(a)
        if any(len(v) != 2 for v in adj.values()):
            return False
        seen = {maxes[0]}
        frontier = [maxes[0]]
        while frontier:
            x = frontier.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) != len(maxes):
            return False
    return True


def euler_characteristic(cover: CoverPoset) -> int:
    """Cell count (rays - walls + maximal) of the covering surface."""
    fan = cover.fan
    if fan.rank != 3 or not is_complete(fan):
        raise CoverError("the Euler characteristic is defined over complete rank-3 fans")
    return len(cover.ray_cells) - len(cover.wall_cells) + len(cover.max_cells)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def weighted_identity(fan: Fan, d: int) -> CoverPoset:
    """The fan covering itself with constant weight d."""
    if d < 1:
        raise CoverError("degree must be positive")
    cells = [CoverCell(base=i, copy=0, weight=d) for i in range(len(fan.cones))]
    pairs = [(a, b) for a in range(len(fan.cones)) for b in fan.coface_ids(a) if a != b]
    return CoverPoset(fan, cells, pairs, _closed=True)


def identity_cover(fan: Fan) -> CoverPoset:
    return weighted_identity(fan, 1)


def wedge_sum(c1: CoverPoset, c2: CoverPoset) -> CoverPoset:
    """Join two covers at their minimal cells; degrees add."""
    if c1.fan is not c2.fan and c1.fan.rays != c2.fan.rays:
        raise CoverError("wedge sum requires covers of the same fan")
    fan = c1.fan
    d = degree(c1) + degree(c2)
    copies_used: dict[int, int] = {}
    cells = [CoverCell(0, 0, d)]
    cell_map = {}
    for side, cov in ((0, c1), (1, c2)):
        root = cov.minimal_cell
        for i, cell in enumerate(cov.cells):
            if i == root:
                continue
            nxt = copies_used.get(cell.base, 0)
            copies_used[cell.base] = nxt + 1
            cell_map[(side, i)] = len(cells)
            cells.append(CoverCell(cell.base, nxt, cell.weight))
    pairs = []
    for side, cov in ((0, c1), (1, c2)):
        root = cov.minimal_cell
        for hi in range(len(cov.cells)):
            if hi == root:
                continue
            pairs.append((0, cell_map[(side, hi)]))
            for lo in cov.below[hi]:
                if lo != root:
                    pairs.append((cell_map[(side, lo)], cell_map[(side, hi)]))
    return CoverPoset(fan, cells, pairs, _closed=True)


def wedge_power(fan: Fan, d: int) -> CoverPoset:
    """The unramified wedge of d copies of the identity cover."""
    cover = identity_cover(fan)
    for _ in range(d - 1):
        cover = wedge_sum(cover, identity_cover(fan))
    return cover


def fibered_product(c1: CoverPoset, c2: CoverPoset) -> CoverPoset:
    """Cells are pairs over a common base cone; weights multiply."""
    if c1.fan is not c2.fan and c1.fan.rays != c2.fan.rays:
        raise CoverError("fibered product requires covers of the same fan")
    fan = c1.fan
    pairs_by_base: dict[int, list[tuple[int, int]]] = {}
    cell_map = {}
    cells = []
    for base in range(len(fan.cones)):
        combos = [
            (x, y)
            for x in c1.cells_over(base)
            for y in c2.cells_over(base)
        ]
        combos.sort(key=lambda xy: (c1.cells[xy[0]].copy, c2.cells[xy[1]].copy))
        pairs_by_base[base] = combos
        for copy, (x, y) in enumerate(combos):
            cell_map[(x, y)] = len(cells)
            cells.append(
                CoverCell(base, copy, c1.cells[x].weight * c2.cells[y].weight)
            )
    pairs = []
    for (x, y), i in cell_map.items():
        for (x2, y2), j in cell_map.items():
            if i != j and c1.leq(x, x2) and c2.leq(y, y2):
                pairs.append((i, j))
    return CoverPoset(fan, cells, pairs, _closed=True)


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _refined_keys(cover: CoverPoset) -> list:
    keys = [(c.base, c.weight) for c in cover.cells]
    for _ in range(len(cover.fan.cones).bit_length() + 2):
        nxt = []
        for i in range(len(cover.cells)):
            lows = tuple(sorted(keys[j] for j in cover.below[i]))
            highs = tuple(sorted(keys[j] for j in cover.above[i]))
            nxt.append((keys[i], lows, highs))
        # compress to small hashable tags to avoid exponential growth
        tags = {k: t for t, k in enumerate(sorted(set(nxt)))}
        new_keys = [(cover.cells[i].base, cover.cells[i].weight, tags[nxt[i]]) for i in range(len(nxt))]
        if new_keys == keys:
            break
        keys = new_keys
    return keys


def canonical_signature(cover: CoverPoset):
    """Isomorphism-invariant signature (equal signatures are necessary for
    isomorphism; use :func:`are_isomorphic` for the decision)."""
    keys = _refined_keys(cover)
    return tuple(sorted(keys))


def are_isomorphic(c1: CoverPoset, c2: CoverPoset, labels1=None, labels2=None) -> bool:
    """Exact isomorphism test over the same fan, by backtracking on fibers.

    Optional `labels` dicts (cell id -> hashable) constrain the bijection to
    preserve labels, used for covers carrying piecewise-linear data.
    """
    if c1.fan.rays != c2.fan.rays or len(c1.cells) != len(c2.cells):
        return False
    k1, k2 = _refined_keys(c1), _refined_keys(c2)
    if labels1 or labels2:
        labels1 = labels1 or {}
        labels2 = labels2 or {}
        k1 = [(k, labels1.get(i)) for i, k in enumerate(k1)]
        k2 = [(k, labels2.get(i)) for i, k in enumerate(k2)]
    if sorted(k1) != sorted(k2):
        return False

    order = sorted(range(len(c1.cells)), key=lambda i: (k1[i], i))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(pos: int) -> bool:
        if pos == len(order):
            return True
        x = order[pos]
        for y in range(len(c2.cells)):
            if y in used or k2[y] != k1[x]:
                continue
            ok = True
            for a, b in mapping.items():
                if c1.leq(a, x) != c2.leq(b, y) or c1.leq(x, a) != c2.leq(y, b):
                    ok = False
                    break
            if ok:
                mapping[x] = y
                used.add(y)
                if extend(pos + 1):
                    return True
                del mapping[x]
                used.remove(y)
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def cover_to_dict(cover: CoverPoset) -> dict:
    return {"fan": cover.fan.name or "inline",
            "cells": [{"base": c.base, "copy": c.copy, "weight": c.weight} for c in cover.cells],
            "faces": sorted([lo, hi] for hi in range(len(cover.cells)) for lo in cover.below[hi])}


def cover_from_dict(fan: Fan, data: dict) -> CoverPoset:
    try:
        rows = [(d["base"], d["copy"], d["weight"]) for d in data["cells"]]
        if not all(map(is_int_list, rows)):
            raise TypeError
    except (KeyError, TypeError):
        raise CoverError("a cover needs 'cells', each an object with 'base', 'copy' and "
                         "'weight' integers")
    bad = [base for base, _, _ in rows if base not in range(len(fan.cones))]
    if bad:
        raise CoverError(f"cell base {bad[0]!r} is not a cone id of the fan")
    return CoverPoset(fan, [CoverCell(*row) for row in rows], data.get("faces", ()))
