"""Enumeration of maximal degree-d branched covers by monodromy.

Over a complete rank-3 fan, maximal covers correspond to assignments of one
degree-d permutation per non-tree edge of the dual graph (the fundamental
cycles of the sphere minus the ray points), up to simultaneous conjugacy.
This module fixes the generator conventions, streams the raw assignments in
lexicographic order, builds the cover determined by an assignment (the cells
over a ray are the sheets around it, glued across the walls of its link),
reads the same cells off per-fan tables for sweep records, and canonicalizes
assignments under conjugation.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import accumulate, islice, permutations as iter_permutations
from math import factorial
from operator import mul

from .cover_poset import CoverCell, CoverPoset, components
from .exact_linalg import integer_solve
from .fan_core import Fan, FanError, derived, is_complete, ray_link, wall_relation
from .fields import is_int, is_int_list


class Permutation:
    """A permutation of {0, ..., d-1} in one-line image form."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not is_int_list(images) or sorted(images) != list(range(len(images))):
            raise ValueError(f"{images} is not a permutation")
        self.images = images

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "Permutation":
        return cls(range(d))

    def __call__(self, i: int) -> int:
        return self.images[i]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(i) = self(other(i))
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def conjugate(self, g: "Permutation") -> "Permutation":
        return g * self * g.inverse()

    @property
    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            nxt = self.images[start]
            while nxt != start:
                cyc.append(nxt)
                seen[nxt] = True
                nxt = self.images[nxt]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Permutation({list(self.images)})"


@lru_cache(maxsize=None)
def all_permutations(d: int) -> tuple[Permutation, ...]:
    """All of S_d in lexicographic order of one-line images."""
    return tuple(Permutation(p) for p in iter_permutations(range(d)))


@dataclass(frozen=True)
class DualSpanningTree:
    """BFS spanning tree of the dual graph, fixing the fundamental cycles.

    Walls are referred to by their position in `fan.walls`; `orientations`
    maps each dual-graph wall to its (lower, higher) maximal cone positions.
    """

    root: int
    tree_walls: tuple[int, ...]
    nontree_walls: tuple[int, ...]
    orientations: dict

    @property
    def generators(self) -> int:
        return len(self.nontree_walls)


def spanning_tree(fan: Fan) -> DualSpanningTree:
    """Deterministic BFS tree from the lowest-index maximal cone, one per fan (`derived`).

    Incident walls are explored in wall-index order; non-tree walls, each
    oriented from its lower-indexed to its higher-indexed maximal cone, are
    the free generators of the covering monodromy.
    """
    return derived(fan, _spanning_tree)


def _spanning_tree(fan: Fan) -> DualSpanningTree:
    if fan.rank != 3 or not is_complete(fan):
        raise FanError(f"{fan.name or 'the fan'!r} has no monodromy covers: "
                       "spanning trees are built over complete rank-3 fans")
    edges = fan.dual_graph_edges()
    incident: dict[int, list[int]] = {i: [] for i in range(len(fan.max_cones))}
    endpoints = {}
    for w, a, b in edges:
        incident[a].append(w)
        incident[b].append(w)
        endpoints[w] = (min(a, b), max(a, b))
    for lst in incident.values():
        lst.sort()
    visited = {0}
    tree = []
    queue = [0]
    while queue:
        cone = queue.pop(0)
        for w in incident[cone]:
            a, b = endpoints[w]
            other = b if a == cone else a
            if other not in visited:
                visited.add(other)
                tree.append(w)
                queue.append(other)
    nontree = tuple(sorted(w for w, _, _ in edges if w not in set(tree)))
    return DualSpanningTree(0, tuple(tree), nontree, endpoints)


@dataclass(frozen=True)
class MonodromyAssignment:
    """One permutation per non-tree wall, in the tree's generator order."""

    degree: int
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        if any(p.degree != self.degree for p in self.perms):
            raise ValueError("permutation degree mismatch")

    def to_dict(self) -> dict:
        return {"degree": self.degree, "perms": [list(p.images) for p in self.perms]}

    @classmethod
    def from_dict(cls, data: dict) -> "MonodromyAssignment":
        try:
            degree, perms = data["degree"], [tuple(p) for p in data["perms"]]
            if not (is_int(degree) and all(map(is_int_list, perms))):
                raise TypeError
        except (KeyError, TypeError):
            raise ValueError(
                "a monodromy is an object with 'degree' and 'perms', a list of permutation images"
            )
        return cls(_degree(degree), tuple(map(Permutation, perms)))


def _degree(d) -> int:
    """`d`, refused unless it is an `int` of at least 1."""
    if not is_int(d, 1):
        raise ValueError("degree must be a positive integer")
    return d


def count_assignments(fan: Fan, d: int) -> int:
    tree = spanning_tree(fan)
    return factorial(_degree(d)) ** tree.generators


def assignment_at(fan: Fan, d: int, index: int, tree: DualSpanningTree | None = None) -> MonodromyAssignment:
    """The index-th assignment in lexicographic order (mixed radix, first
    generator most significant)."""
    perms = all_permutations(_degree(d))
    digits = _digits(index, len(perms), (tree or spanning_tree(fan)).generators)
    return MonodromyAssignment(d, tuple(perms[r] for r in digits))


def _digits(index: int, base: int, places: int) -> list[int]:
    """The mixed-radix digits of an assignment index, most significant
    first: with base d!, the ranks of its permutations in `all_permutations(d)`."""
    if not 0 <= index < base ** places:
        raise IndexError("assignment index out of range")
    return [index // base ** k % base for k in range(places - 1, -1, -1)]


def _sheet_maps(tree: DualSpanningTree, assignment: MonodromyAssignment) -> dict:
    """Each dual-graph wall's sheet map, as an image tuple: sheet s over the
    wall's lower cone is glued to sheet `map[s]` over its higher cone, by
    the generator's permutation at a non-tree wall, the identity at a tree wall."""
    if len(assignment.perms) != tree.generators:
        raise ValueError(
            f"assignment has {len(assignment.perms)} permutations, but the fan's"
            f" spanning tree has {tree.generators} generators"
        )
    maps = dict.fromkeys(tree.orientations, tuple(range(assignment.degree)))
    maps.update(zip(tree.nontree_walls, (p.images for p in assignment.perms)))
    return maps


def _glued_sheets(fan: Fan, tree: DualSpanningTree, maps: dict, d: int,
                  ray: int) -> tuple[tuple[int, ...], list[list[int]]]:
    """The cells over `ray`: the cones of its link (`ray_link`), and the
    classes of the d sheets over each, glued across each wall of the link by
    its sheet map (`_sheet_maps`), sheet s over the link's j-th cone being
    numbered j * d + s.

    Each map is a bijection and the link is one cycle, so a class meets
    every cone of the link in as many sheets, its cell's weight, and its
    least member lies over the link's first cone.  `components` lists the
    classes by least member, so by least sheet over that cone, which is how
    `_loop` numbers the orbits of the ray monodromy, whose cells they are."""
    cones, walls = ray_link(fan, ray)
    place = {pos: j * d for j, pos in enumerate(cones)}
    glue = []
    for w in walls:
        a, b = tree.orientations[w]
        glue += [(place[a] + s, place[b] + t) for s, t in enumerate(maps[w])]
    return cones, components(len(cones) * d, glue)


def branch_rays(fan: Fan, assignment: MonodromyAssignment,
                tree: DualSpanningTree | None = None) -> list[int]:
    """Rays with nontrivial monodromy (the branch set on the sphere): those
    with fewer cells over them than sheets."""
    tree = tree or spanning_tree(fan)
    maps, d = _sheet_maps(tree, assignment), assignment.degree
    return [ray for ray in range(len(fan.rays))
            if len(_glued_sheets(fan, tree, maps, d, ray)[1]) < d]


def build_cover(fan: Fan, assignment: MonodromyAssignment,
                tree: DualSpanningTree | None = None) -> CoverPoset:
    """The maximal branched cover determined by a monodromy assignment.

    Maximal cells are (cone, sheet) pairs of weight 1, wall cells glue sheet
    s of the lower cone to its image sheet of the higher cone, and the cells
    over a ray are the sheets over the cones of its link glued across its
    walls (`_glued_sheets`), numbered by least sheet over the link's first
    cone, each weighted by the sheets it holds over one cone.
    """
    if fan.rank != 3 or not is_complete(fan):
        raise FanError("covers are built over complete rank-3 fans")
    tree = tree or spanning_tree(fan)
    d = assignment.degree
    maps = _sheet_maps(tree, assignment)

    cells: list[CoverCell] = [CoverCell(0, 0, d)]
    pairs: list[tuple[int, int]] = []
    ray_cell_at = {}  # (ray, maximal cone position, sheet) -> the cell over the ray
    for ray in range(len(fan.rays)):
        cones, classes = _glued_sheets(fan, tree, maps, d, ray)
        for k, members in enumerate(classes):
            for m in members:
                ray_cell_at[ray, cones[m // d], m % d] = len(cells)
            pairs.append((0, len(cells)))
            cells.append(CoverCell(fan.cone_id((ray,)), k, len(members) // len(cones)))

    max_cell_id = {}
    for pos, cone in enumerate(fan.max_cones):
        for s in range(d):
            mid = max_cell_id[pos, s] = len(cells)
            cells.append(CoverCell(fan.cone_id(cone.ray_indices), s, 1))
            pairs += [(0, mid)] + [(ray_cell_at[ray, pos, s], mid) for ray in cone.ray_indices]

    # wall cells, with sheet measured over the lower-position cone
    for w, (a, b) in tree.orientations.items():
        base = fan.walls[w]
        for s in range(d):
            wid = len(cells)
            cells.append(CoverCell(base, s, 1))
            pairs += [(0, wid), (wid, max_cell_id[a, s]), (wid, max_cell_id[b, maps[w][s]])]
            pairs += [(ray_cell_at[ray, a, s], wid) for ray in fan.cones[base].ray_indices]

    return CoverPoset(fan, cells, pairs, _closed=True)


class _Lazy(dict):
    """A table that fills each entry from `fill(key)` on its first lookup."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class _Unkept(_Lazy):
    """A `_Lazy` that builds an entry on every lookup and keeps none."""

    def __missing__(self, key):
        return self.fill(key)


# The most entries a ray's table may come to, (d!)^k for k generator walls
# crossed, for the table to be kept: at about 0.6 KB an entry, 16,384 is
# some 10 MB.  A larger table (d >= 5 with k >= 3, d >= 6 with k >= 2) would
# grow by an entry a record as long as a sweep runs, with few records
# sharing one, so such a ray builds its entry on each lookup instead.
_LINK_TABLE_MAX = 1 << 14


_Loop = namedtuple("_Loop", "orbit lengths profile spread")


def _loop(images) -> _Loop:
    """A loop's `_Loop`: the orbit of each sheet, numbered by least sheet as
    `build_cover` numbers the cells it glues over a ray (`_glued_sheets`),
    the orbit lengths, unsorted and in descending order, and per orbit, the
    (column, factor) pairs of its value in the ray's sum-zero columns.  Orbit lengths l_1, ..., l_k give columns
    x_i (i < k) for l_k x_i on orbit i and -(l_1 x_1 + ...) on orbit k."""
    cycles = Permutation(images).cycles()  # by least point
    orbit, lengths = [0] * len(images), [len(c) for c in cycles]
    for k, cycle in enumerate(cycles):
        for s in cycle:
            orbit[s] = k
    last = len(lengths) - 1
    spread = [((i, lengths[last]),) for i in range(last)]
    spread.append(tuple((i, -lengths[i]) for i in range(last)))
    return _Loop(tuple(orbit), tuple(lengths), tuple(sorted(lengths, reverse=True)), tuple(spread))


class _Ranks:
    """S_d by rank, the place in `all_permutations(d)` that index digits give:
    `rank` of each image tuple, then, filled on first use, `inverse[a]`,
    `compose[a][b]` (the rank of a * b), `loops[a]` and `at[a][u]`, the
    orbit under `loops[a]` of each sheet over a cone whose transport to the
    reference cone has rank u: O(d!) entries plus the pairs met."""

    def __init__(self, d: int):
        perms = [p.images for p in all_permutations(d)]
        rank = self.rank = {p: a for a, p in enumerate(perms)}
        self.inverse = _Lazy(lambda a: rank[tuple(sorted(range(d), key=perms[a].__getitem__))])
        self.compose = _Lazy(lambda a: _Lazy(lambda b: rank[tuple(perms[a][j] for j in perms[b])]))
        self.loops = _Lazy(lambda a: _loop(perms[a]))
        self.at = _Lazy(lambda a: _Lazy(lambda u: tuple(self.loops[a].orbit[y] for y in perms[u])))


@dataclass(frozen=True)
class _RecordTables:
    """What a record reads of a fan and of its spanning tree `tree`, built
    once per fan by `_record_tables`, so that no record walks the fan itself.

    `walks[ray]` is the ray's link cycle as `ray_link` gives it, in three
    parts: per incident cone, its position and the ray's place among its
    rays; the generators whose walls the link crosses, in the order
    crossed; per wall crossed, its move: -1 for a tree wall (the identity),
    j for the inverse of the j-th crossed generator's permutation on a step
    from the wall's lower cone to its higher one, K + j for that
    permutation the other way (K generators crossed).  `by_cell` lists the
    maximal cone positions in the order of their base cone ids, `rays` and
    `relations` give each position's rays and wall relations, and
    `offsets[pos]` counts the relations of the positions before pos,
    `offsets[-1]` all of them.  `ranks[d]` holds the `_Ranks` of S_d, built
    when a record of degree d first needs them, and `links[d][ray]` the
    ray's table at degree d, filled entry by entry (`_link_entry`), or, if
    it could come to more than `_LINK_TABLE_MAX` entries, an `_Unkept`
    one that keeps none.
    """

    tree: DualSpanningTree
    walks: tuple
    by_cell: tuple
    rays: tuple
    relations: tuple
    offsets: tuple
    ranks: dict = field(default_factory=lambda: _Lazy(_Ranks), repr=False)
    links: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "links", _Lazy(lambda d: [
            (_Lazy if factorial(d) ** len(walk[1]) <= _LINK_TABLE_MAX else _Unkept)(
                partial(self._link_entry, d, walk)) for walk in self.walks]))

    def orbits(self, d: int, digits: list[int]) -> "RayOrbits":
        """The `RayOrbits` of the assignment whose permutations have ranks
        `digits`, with one lookup per ray, keyed by the digits of the
        generators its link crosses."""
        return RayOrbits(d, digits, self, [
            link[tuple([digits[g] for g in crossed])]
            for link, (_, crossed, _) in zip(self.links[d], self.walks)])

    def _link_entry(self, d: int, walk: tuple, key: tuple) -> tuple:
        """(`_Loop`, (cone position, place, orbit tuple) per incident cone,
        block of sum-zero columns) of the ray walked by `walk` at degree d,
        for the permutations of ranks `key` on the generators it crosses.

        Why the key decides the entry.  Transport around the link composes
        only the maps of the walls it crosses, the identity at a tree wall
        and a generator's permutation, or its inverse, at a generator wall;
        so the transports to the reference cone, the ray monodromy, its
        orbits and the orbit under each sheet over each incident cone depend
        only on the ranks in `key`.  The ray's sum-zero columns stand for
        values on its own cells, and a row meets them only over a cone of
        its link, with the coefficient of the ray's place in a relation of
        that cone, at the orbit under the row's sheet there: so the block
        depends on nothing else either.  The table of a ray whose link
        crosses k generator walls thus holds at most (d!)^k entries: 528
        over the 8 rays of `sigma_prime` at degree 3 (k = 1, 1, 1, 1, 2, 2,
        3, 3), as many for `fulton`, 306 for `eikelberg`, and 32 for
        `fulton` at degree 2.  A ray whose bound passes `_LINK_TABLE_MAX`
        keeps no entry.

        The block is the ray's columns of `RayOrbits.sum_zero_columns`,
        with rows laid out cone by cone, then by sheet 0, ..., d-2, then by
        relation.  Every record that reads the entry shares it, so no
        caller may change it.
        """
        ranks = self.ranks[d]
        compose = ranks.compose
        moves = [ranks.inverse[a] for a in key] + list(key)
        cones, _, steps = walk
        t = 0  # the identity: sheet s here lies over sheet s at the reference cone
        transports = [t]
        for m in steps:
            if m >= 0:
                t = compose[t][moves[m]]
            transports.append(t)
        loop = transports.pop()  # the inverse of the ray monodromy: the same orbits
        orbit_at = ranks.at[loop]
        entries = tuple((pos, place, orbit_at[u]) for (pos, place), u in zip(cones, transports))
        loop = ranks.loops[loop]
        block = [[0] * ((d - 1) * self.offsets[-1]) for _ in loop.spread[1:]]
        for pos, place, orbits in entries:
            rels = self.relations[pos]
            row = (d - 1) * self.offsets[pos]
            for k in orbits[:-1]:
                for rel in rels:
                    for col, factor in loop.spread[k]:
                        block[col][row] = rel[place] * factor
                    row += 1
        return loop, entries, block


def _record_tables(fan: Fan) -> _RecordTables:
    """The fan's `_RecordTables`, on its `spanning_tree`: a constant of the fan."""
    tree = spanning_tree(fan)
    slot = {w: g for g, w in enumerate(tree.nontree_walls)}
    rays = tuple(c.ray_indices for c in fan.max_cones)
    walks = []
    for ray in range(len(fan.rays)):
        cones, walls = ray_link(fan, ray)
        crossed = tuple(dict.fromkeys(slot[w] for w in walls if w in slot))
        steps = tuple(-1 if w not in slot else crossed.index(slot[w]) + len(crossed) * (
            tree.orientations[w] != (a, b)) for w, a, b in zip(walls, cones, cones[1:] + cones))
        walks.append((tuple((pos, rays[pos].index(ray)) for pos in cones), crossed, steps))
    relations = tuple(tuple(wall_relation(fan, pos)) for pos in range(len(rays)))
    return _RecordTables(
        tree,
        tuple(walks),
        tuple(sorted(range(len(rays)), key=lambda pos: fan.cone_id(rays[pos]))),
        rays,
        relations,
        tuple(accumulate(map(len, relations), initial=0)),
    )


@dataclass(frozen=True)
class RayOrbits:
    """The cells over the rays of an assignment's cover, read off each ray's
    table of `_record_tables` (`ray_orbits`, `orbits_at`).

    `digits` are the ranks of the assignment's permutations, and
    `links[ray]` the ray's entry of its table (`_RecordTables._link_entry`):
    its `_Loop`, per incident cone the orbit under each sheet, and its
    block of sum-zero columns (`sum_zero_columns`), shared with every record
    whose digits on the generators that the ray's link crosses are the
    same: never changed.  `lengths[ray]` holds the lengths of the ray
    monodromy's orbits, numbered by least sheet over the ray's reference
    cone: the weights of the cells that `build_cover` glues over the ray,
    in its order, read off the loop rather than glued.

    `at[pos][i][s]` is the orbit under sheet s over maximal cone `pos`, over
    the cone's i-th ray.  It is built from the links' cone entries on its
    first read, which only `cells` makes, on the pattern rung: a record that
    stops at a lower rung never builds it.  It is the same table as one
    filled when the record is made, since the entries are never changed,
    and equality, which compares the links, covers it."""

    degree: int
    digits: list[int]
    tables: _RecordTables = field(repr=False)
    links: list[tuple] = field(repr=False)

    @property
    def lengths(self) -> list[tuple[int, ...]]:
        return [loop.lengths for loop, _, _ in self.links]

    @cached_property
    def at(self) -> list[list[tuple[int, ...]]]:
        at = [[None] * len(rays) for rays in self.tables.rays]
        for _, entries, _ in self.links:
            for pos, place, orbit in entries:
                at[pos][place] = orbit
        return at

    @property
    def assignment(self) -> MonodromyAssignment:
        perms = all_permutations(self.degree)
        return MonodromyAssignment(self.degree, tuple(perms[r] for r in self.digits))

    @property
    def profile(self) -> list[list[int]]:
        """Per ray, its orbit lengths in descending order."""
        return [list(loop.profile) for loop, _, _ in self.links]

    @property
    def branch_rays(self) -> list[int]:
        """The rays with nontrivial monodromy."""
        return [ray for ray, lens in enumerate(self.lengths) if len(lens) < self.degree]

    def cells(self) -> list[tuple]:
        """Per maximal cell, in `build_cover`'s order (base cone id, then
        sheet), what `pl_group.system_triviality` reads: (its place in that
        order, base cone position, weight 1, the column of the cell over each
        of the cone's rays, ray cells numbered ray by ray as in `lengths`)."""
        first = list(accumulate(map(len, self.lengths), initial=0))
        cells = [(pos, [first[ray] + k for ray, k in zip(self.tables.rays[pos], orbits)])
                 for pos in self.tables.by_cell for orbits in zip(*self.at[pos])]
        return [(label, pos, 1, cols) for label, (pos, cols) in enumerate(cells)]

    def lift(self, sum_zero, base=()) -> list[list[int]]:
        """Ray-cell values, in the columns of `cells`: those that each vector
        over `sum_zero_columns` stands for, then each vector of `base` (one
        value per ray) put on every cell over its ray."""
        out = []
        for x in sum_zero:
            values, w = iter(x), []
            for lens in self.lengths:
                part = list(islice(values, len(lens) - 1))
                w += [lens[-1] * v for v in part] + [-sum(map(mul, lens, part))]
            out.append(w)
        return out + [[b[ray] for ray, lens in enumerate(self.lengths) for _ in lens] for b in base]

    def sum_zero_columns(self) -> tuple[list[list[int]], int]:
        """The columns of the cover's values-at-rays system (as
        `pl_group.ray_value_system` builds it on `build_cover`'s cover)
        restricted to the values whose weighted sum over each ray's cells is
        0, each as a vector over the rows, and the number of rows.

        Why the kernel splits by sheet averaging.  Give each ray the mean
        a = (l_1 w_1 + ... + l_k w_k) / d of a solution w over its cells, l_i
        being its orbit lengths.  Transport to a ray's reference cone is a
        bijection on sheets, so each orbit is hit by its length many sheets,
        and the d sheet rows of one relation of a maximal cone sum to d times
        the base fan's row at a.  So a solves the base fan's system; put on
        every cell over its ray it solves the whole, and w - a has sum zero
        over each ray.  Only 0 is both constant on sheets and of sum zero,
        so the kernel is the base fan's, lifted constant on sheets, plus the
        sum-zero part (both lifted by `lift`): the PL group's dimension is
        `pl_group.base_dimension` plus the sum-zero corank.

        Each ray's k orbits get k-1 integer columns, which stand for exactly
        the rational values of sum zero, each from one vector; the loop's
        `spread` says how (see `_loop`).  A maximal cone keeps its rows for
        sheets 0, ..., d-2 only, since on sum-zero values the d sheet rows of
        one relation sum to 0.  The columns, not the rows, are handed back:
        over all 47,449 `sigma_prime` degree-3 classes, the rank took 2.2 s
        by columns and 4.4 s in row form (one core, Python 3.11.7).

        The columns are the blocks of the rays' `links`, in ray order, each
        built once per key of the ray's table (`_RecordTables._link_entry`),
        and the very lists that the table holds: a caller may reorder or
        replace them in the returned list, as `_int_echelon` does with its
        rows, but must not change a column in place.
        """
        nrows = (self.degree - 1) * self.tables.offsets[-1]
        return [col for _, _, block in self.links for col in block], nrows


def orbits_at(fan: Fan, d: int, index: int, tree: DualSpanningTree | None = None) -> RayOrbits:
    """`ray_orbits` of `assignment_at(fan, d, index, tree)`, with no assignment built."""
    tables = derived(fan, _record_tables)
    if tree not in (tables.tree, None):
        raise ValueError("the tree is not the fan's spanning tree")
    return tables.orbits(d, _digits(index, factorial(_degree(d)), tables.tree.generators))


def ray_orbits(fan: Fan, assignment: MonodromyAssignment,
               tree: DualSpanningTree | None = None) -> RayOrbits:
    """The cells over every ray of the assignment's cover, as `build_cover`
    numbers them, from the fan's constants (`_record_tables`), refusing a
    `tree` other than the fan's `spanning_tree`, which they are built on."""
    tables = derived(fan, _record_tables)
    if tree not in (tables.tree, None):
        raise ValueError("the tree is not the fan's spanning tree")
    if len(assignment.perms) != tables.tree.generators:
        raise ValueError(
            f"assignment has {len(assignment.perms)} permutations, but the fan's"
            f" spanning tree has {tables.tree.generators} generators"
        )
    rank = tables.ranks[assignment.degree].rank
    return tables.orbits(assignment.degree, [rank[p.images] for p in assignment.perms])


def sheet_components(assignment: MonodromyAssignment) -> list[set[int]]:
    """Orbits of the subgroup generated by the assignment (wedge summands)."""
    links = [(i, j) for p in assignment.perms for i, j in enumerate(p.images)]
    return [set(c) for c in components(assignment.degree, links)]


def canonical_class(assignment: MonodromyAssignment) -> MonodromyAssignment:
    """Lexicographically minimal simultaneous conjugate of the tuple."""
    d = assignment.degree
    best = None
    for g in all_permutations(d):
        candidate = tuple(p.conjugate(g).images for p in assignment.perms)
        if best is None or candidate < best:
            best = candidate
    return MonodromyAssignment(d, tuple(Permutation(p) for p in best or ()))


def class_representatives(d: int, generators: int) -> array:
    """For each assignment index (as in `assignment_at`, for a tree with
    `generators` generators), the smallest index of its conjugacy class.

    Conjugation acts digit by digit on the mixed-radix index, and the digits
    are ranks in `all_permutations(d)`, which is lexicographic; so the
    assignment at the smallest index of a class is its `canonical_class`.
    The table is filled by walking the indices upward: each one not yet
    marked is the smallest of its class and marks its d! conjugates.
    """
    perms = all_permutations(d)
    rank = {p.images: k for k, p in enumerate(perms)}
    conjugation = [[rank[p.conjugate(g).images] for p in perms] for g in perms]
    base = len(perms)
    rep = array("q", [-1]) * base ** generators
    for index in range(len(rep)):
        if rep[index] >= 0:
            continue
        digits = _digits(index, base, generators)
        for row in conjugation:
            other = 0
            for r in digits:
                other = other * base + row[r]
            rep[other] = index
    return rep


def assignment_for_branch_set(fan: Fan, rays: list[int],
                              tree: DualSpanningTree | None = None) -> MonodromyAssignment:
    """The degree-2 assignment whose monodromy is the transposition exactly
    at the given rays: mod 2, ray i's monodromy sums the generators at the
    non-tree walls of its link, so x solves A.x = b mod 2, A the rays' wall
    counts and b the branch set, and x is `integer_solve` of [A | 2I] mod 2.
    It is unique: by tree-cotree duality on the sphere, the non-tree walls
    of a dual spanning tree form a spanning tree of the rays, whose
    incidence matrix A has full column rank mod 2."""
    if not is_int_list(rays):
        raise ValueError(f"branch rays {rays!r} are not a list of ray indices")
    tree = tree or spanning_tree(fan)
    n, nrays = tree.generators, len(fan.rays)
    nontree_index = {w: i for i, w in enumerate(tree.nontree_walls)}
    target = set(rays)
    if not target <= set(range(nrays)):
        raise ValueError("branch ray index out of range")
    for ray in (ray for i, ray in enumerate(rays) if ray in rays[:i]):
        raise ValueError(f"branch ray {ray} is given twice")
    rows = []
    for ray in range(nrays):
        row = [0] * n + [2 * (i == ray) for i in range(nrays)]
        for w in ray_link(fan, ray)[1]:
            if w in nontree_index:
                row[nontree_index[w]] += 1
        rows.append(row)
    x = integer_solve(rows, [int(ray in target) for ray in range(nrays)])
    if x is None:
        raise ValueError("no degree-2 cover has that branch set (parity obstruction)")
    swap, ident = Permutation((1, 0)), Permutation.identity(2)
    return MonodromyAssignment(2, tuple(swap if xi % 2 else ident for xi in x[:n]))
