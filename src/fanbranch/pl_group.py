"""Integral piecewise-linear functions on branched covers.

A piecewise-linear function on a cover assigns an ambient linear functional
to every maximal cell so that any two cells agree on shared faces; since in
rank 3 every shared face is generated by shared ray cells, consistency is
exactly the existence of one well-defined value per ray cell.

The solver therefore runs on the values-at-rays form: one variable per ray
cell, and one relation row per generating relation among each maximal cell's
base rays.  A maximal cell's values at its ray cells fix its functional by
an exact 3x3 solve, a linear isomorphism between the two solution spaces.
`_kernel_keys` is the one place that lift is applied, in integers over one
denominator per fan; both modes of `solve`, the pullbacks, the common
pattern and the witness read it.  The integral lattice is read through it
too: `solve` saturates the lifted kernel, so the per-cell form, the
integer rows of `per_cell_system`, is kept only as the independent check.
A `PLFunction` is integer numerators over one denominator, read as
`Fraction`s on demand.

Triviality of the whole group is decided on one fraction-free echelon of
the values-at-rays system: its corank is the group's dimension, and its
kernel gives the common pattern, the partition of maximal cells on which
every PL function agrees, in integers; `group_triviality(cover, basis)`
reuses `solve`'s.  A sweep record eliminates its sum-zero part once, as
columns (`split_triviality`).  Verdicts are proofs.
A deterministic generic element, which separates exactly the cells that
some function separates, is built only as the witness of a nontrivial
verdict, when that witness is read, and its parameter in integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .cover_poset import CoverPoset, components
from .exact_linalg import (
    _echelon_kernel,
    _int_echelon,
    _primitive_rref,
    _saturate,
    independent_rows,
    rank_of_int_rows,
)
from .fan_core import cone_contains_point, derived, is_complete, wall_relation
from .fields import is_int_list, is_rational_row, missing_key, read_rational, write_rational
from .monodromy import sheet_components


class PLError(ValueError):
    pass


def _lifts(fan) -> tuple[int, list]:
    """(L, per maximal cone: the local positions of 3 independent rays and
    L times the inverse of their matrix), a constant of the fan.  L is the
    lcm of the inverses' denominators, so every lifted matrix is integral,
    and u = lifted . z / L solves V.u = z on the chosen rays V.  The reduced
    form of [V | I] is [I | V^-1], and `_primitive_rref` gives its row i
    times a_i, the lcm of the row's denominators, at column i: so L is the
    lcm of the a_i, and row i of L.V^-1 is the right block times L / a_i."""
    n = fan.rank
    inverses = []
    for cone in fan.max_cones:
        gens = [fan.rays[i] for i in cone.ray_indices]
        chosen = independent_rows(gens, n)
        if len(chosen) != n:
            raise PLError("maximal cone is not full-dimensional")
        rows = _primitive_rref([list(gens[c]) + [int(i == j) for j in range(n)]
                                for i, c in enumerate(chosen)], 2 * n)
        inverses.append((tuple(chosen), rows))
    big = lcm(*(row[i] for _, rows in inverses for i, row in enumerate(rows)))
    return big, [
        (chosen, tuple(tuple([x * (big // row[i]) for x in row[n:]]) for i, row in enumerate(rows)))
        for chosen, rows in inverses]


def _kernel_keys(fan, cells, kernel: list[list[int]]) -> list[tuple[int, ...]]:
    """Per cell of `system_triviality`, in order: L times its lifted
    functional on every vector of ray-cell values in `kernel`, as one tuple,
    of integers when the vectors are.  This is the one place that ray-cell
    values become per-cell functionals."""
    if not kernel:
        return [()] * len(cells)
    lifts = derived(fan, _lifts)[1]
    columns = list(zip(*kernel))
    keys = []
    # Tuples are built from lists, at their final length: tuple() of a
    # generator grows by resizing, and CPython keeps up to 2000 freed tuples
    # of each length below 21 on a free list that resizing never draws from,
    # so a long run would hold that many dead keys of each length.
    for _, pos, _, cell_cols in cells:
        chosen, lifted = lifts[pos]
        values = zip(*[columns[cell_cols[i]] for i in chosen])  # per vector of `kernel`
        keys.append(tuple([sum(map(mul, row, v)) for v in values for row in lifted]))
    return keys


def _max_cell_geometry(cover: CoverPoset):
    """Per maximal cell: (cell id, base max-cone position, weight, position
    in `cover.ray_cells` of the ray cell per base ray), the cells that
    `system_triviality` reads.

    Read through `derived`, which keeps it in the cover's store; this is
    the bridge between poset cells and the base cone geometry.
    """
    fan = cover.fan
    ray_of_cell = {r: (fan.cones[cover.cells[r].base].ray_indices[0], col)
                   for col, r in enumerate(cover.ray_cells)}
    geo = []
    for m in cover.max_cells:
        pos = fan.max_cone_position(cover.cells[m].base)
        cols = {}
        for y in cover.below[m]:
            if y in ray_of_cell:
                ray, col = ray_of_cell[y]
                cols[ray] = col
        rays_needed = fan.max_cones[pos].ray_indices
        if sorted(cols) != sorted(rays_needed):
            raise PLError(f"maximal cell {m} is missing ray cells")
        geo.append((m, pos, cover.cells[m].weight, [cols[r] for r in rays_needed]))
    return geo


class PLFunction:
    """A piecewise-linear function: one ambient functional per maximal cell,
    stored as integer numerators over one positive denominator, a tuple per
    maximal cell and a value per ray cell (in `cover.max_cells` and
    `cover.ray_cells` order); `cell_values` and `ray_values` are their
    `Fraction` dicts, built on first read."""

    def __init__(self, cover: CoverPoset, cell_values):
        """Check that every functional has one entry per coordinate, each
        exactly an `int` or a `Fraction`, and that the functionals agree at
        every ray cell, in integers over the least common denominator of the
        entries."""
        rank = cover.fan.rank
        for m, u in cell_values.items():
            if len(u) != rank:
                raise PLError(f"maximal cell {m}: {len(u)} entries, not {rank}")
            if not is_rational_row(u):
                x = next(x for x in u if not is_rational_row([x]))
                raise PLError(f"maximal cell {m}: entry {x!r} is not an int or a Fraction")
        if set(cell_values) != set(cover.max_cells):
            raise PLError("need exactly one functional per maximal cell")
        den = lcm(*(x.denominator for u in cell_values.values() for x in u))
        cells = [tuple([x.numerator * (den // x.denominator) for x in cell_values[m]])
                 for m in cover.max_cells]
        fan = cover.fan
        zvars = cover.ray_cells
        rays: list = [None] * len(zvars)
        for u, (_, pos, _, cols) in zip(cells, derived(cover, _max_cell_geometry)):
            for ray, c in zip(fan.max_cones[pos].ray_indices, cols):
                val = sum(map(mul, u, fan.rays[ray]))
                old = rays[c]
                if old is not None and old != val:
                    raise PLError(f"inconsistent values {Fraction(old, den)} != "
                                  f"{Fraction(val, den)} at ray cell {zvars[c]}")
                rays[c] = val
        if None in rays:
            raise PLError(f"ray cell {zvars[rays.index(None)]} lies under no maximal cell")
        self.cover, self._cells, self._rays, self._den = cover, cells, rays, den

    @classmethod
    def _of_numerators(cls, cover: CoverPoset, cells, rays, den: int) -> "PLFunction":
        """The function with these numerator tuples per maximal cell and ray
        values per ray cell, over `den` > 0, used as given: no check."""
        plf = cls.__new__(cls)
        plf.cover, plf._cells, plf._rays, plf._den = cover, cells, rays, den
        return plf

    @cached_property
    def cell_values(self) -> dict[int, tuple[Fraction, ...]]:
        den = self._den
        return {m: tuple([Fraction(x, den) for x in u])
                for m, u in zip(self.cover.max_cells, self._cells)}

    @cached_property
    def ray_values(self) -> dict[int, Fraction]:
        den = self._den
        return {r: Fraction(x, den) for r, x in zip(self.cover.ray_cells, self._rays)}

    def __add__(self, other: "PLFunction") -> "PLFunction":
        if other.cover is not self.cover:
            raise PLError("cannot add functions on different covers")
        den = lcm(self._den, other._den)
        a, b = den // self._den, den // other._den
        return PLFunction._of_numerators(
            self.cover, [tuple([a * x + b * y for x, y in zip(u, v)])
                         for u, v in zip(self._cells, other._cells)],
            [a * x + b * y for x, y in zip(self._rays, other._rays)], den)

    def scale(self, c) -> "PLFunction":
        if not is_rational_row([c]):
            raise PLError(f"scalar {c!r} is not an int or a Fraction")
        p = c.numerator
        return PLFunction._of_numerators(
            self.cover, [tuple([p * x for x in u]) for u in self._cells],
            [p * x for x in self._rays], self._den * c.denominator)

    def to_dict(self) -> dict:
        den, cells = self._den, self.cover.cells
        return {"cells": [{"base": cells[m].base, "copy": cells[m].copy,
                           "u": [write_rational(Fraction(x, den)) for x in u]}
                          for m, u in sorted(zip(self.cover.max_cells, self._cells))]}

    @classmethod
    def from_dict(cls, cover: CoverPoset, data: dict) -> "PLFunction":
        """The function of `to_dict`: per cell its integer `base` and `copy`
        and its functional `u`, whose entries are ints or "p/q" strings.
        Anything else is refused, naming the cell entry."""
        if not isinstance(data, dict) or not isinstance(data.get("cells"), list):
            raise PLError("a PL function is an object whose 'cells' key holds a list")
        lookup = {(c.base, c.copy): i for i, c in enumerate(cover.cells)}
        values = {}
        for n, entry in enumerate(data["cells"]):
            key = missing_key(entry, ("base", "copy", "u"))
            if key:
                raise PLError(f"cell entry {n} has no {key!r} key")
            base, copy, u = entry["base"], entry["copy"], entry["u"]
            m = lookup.get((base, copy)) if is_int_list((base, copy)) else None
            if m is None:
                raise PLError(f"cell entry {n}: the cover has no cell with base {base!r} "
                              f"and copy {copy!r}")
            if m in values:
                raise PLError(f"cell entry {n}: cell ({base}, {copy}) is given twice")
            if not isinstance(u, list):
                raise PLError(f"cell entry {n}: u is not a list: {u!r}")
            try:
                values[m] = tuple(map(read_rational, u))
            except ValueError as exc:
                raise PLError(f"cell entry {n}: entry {exc.args[0]!r} is not an int "
                              "or a 'p/q' string") from None
        return cls(cover, values)


@dataclass
class ConeMultiset:
    """The weighted multiset of functionals over one base maximal cone."""

    cone_position: int
    entries: tuple  # ((functional, multiplicity), ...) sorted


def _cone_counts(plf: PLFunction) -> list[dict]:
    """Per base maximal cone, the weights of its cells summed by numerator
    tuple: the multiset of functionals times the positive denominator."""
    counts: list[dict] = [{} for _ in plf.cover.fan.max_cones]
    for u, (_, pos, weight, _) in zip(plf._cells, derived(plf.cover, _max_cell_geometry)):
        counts[pos][u] = counts[pos].get(u, 0) + weight
    return counts


def multisets(plf: PLFunction) -> list[ConeMultiset]:
    """Per base maximal cone, the multiset of functionals weighted by cells."""
    den = plf._den
    return [ConeMultiset(pos, tuple(sorted((tuple([Fraction(x, den) for x in u]), w)
                                           for u, w in counts.items())))
            for pos, counts in enumerate(_cone_counts(plf))]


def is_trivial_function(plf: PLFunction) -> bool:
    """True iff the functional multiset is the same over every maximal cone."""
    counts = _cone_counts(plf)
    return all(c == counts[0] for c in counts[1:])


def evaluate(plf: PLFunction, cell: int, point) -> Fraction:
    """Value of the function on a cell at a point of its base cone, whose
    entries are exactly `int`s or `Fraction`s (`cone_contains_point`)."""
    cover = plf.cover
    base = cover.cells[cell].base
    gens = cover.fan.generators(base)
    if not cone_contains_point(gens, point):
        raise PLError("point lies outside the cell's base cone")
    if cell in plf.cell_values:
        u = plf.cell_values[cell]
    else:
        carrier = next((m for m in cover.above[cell] if m in plf.cell_values), None)
        if carrier is None:
            if cover.cells[cell].base == 0:
                return Fraction(0)
            raise PLError("cell has no maximal cell above it")
        u = plf.cell_values[carrier]
    return sum(a * b for a, b in zip(point, u))


# ---------------------------------------------------------------------------
# The two constraint systems
# ---------------------------------------------------------------------------


def ray_value_system(cover: CoverPoset) -> tuple[list[list[int]], list[int]]:
    """Values-at-rays constraint rows over the ray-cell variables.

    One row per generating relation per maximal cell; a function is PL iff
    its ray-cell values annihilate every row.  Returns (rows, ray cell ids).
    """
    fan = cover.fan
    zvars = cover.ray_cells
    rows: list[list[int]] = []
    for _, pos, _, cols in derived(cover, _max_cell_geometry):
        for rel in wall_relation(fan, pos):
            row = [0] * len(zvars)
            for coeff, c in zip(rel, cols):
                row[c] = coeff
            rows.append(row)
    return rows, zvars


def _check_pullbacks(fan) -> None:
    """Check, once per fan (`derived`), that the pullbacks of the coordinate
    functionals are independent solutions of every values-at-rays system.

    A row is one relation `rel` of a maximal cone with the cone's rays sent
    to distinct ray cells over them (what `_max_cell_geometry` checks of
    every cover), and pullback j takes the value v_j at every cell over
    ray v; so row . z_j = (rel . V)_j, a fact about the fan alone.  The
    pullbacks' values are the rays' coordinates, repeated over their cells,
    so they are independent iff the rays span Q^rank.
    """
    for pos, cone in enumerate(fan.max_cones):
        for rel in wall_relation(fan, pos):
            for j in range(fan.rank):
                if sum(c * fan.rays[r][j] for c, r in zip(rel, cone.ray_indices)):
                    raise RuntimeError("pullback fails the ray-value system")
    if rank_of_int_rows([list(v) for v in fan.rays], fan.rank) != fan.rank:
        raise RuntimeError("pullback functionals are not independent")


def _base_kernel(fan) -> list[list[int]]:
    """The kernel of the fan's own values-at-rays system, one column per ray
    and each maximal cone's wall relations as rows, a constant of the fan."""
    rows = []
    for pos, cone in enumerate(fan.max_cones):
        for rel in wall_relation(fan, pos):
            row = [0] * len(fan.rays)
            for coeff, ray in zip(rel, cone.ray_indices):
                row[ray] = coeff
            rows.append(row)
    return _echelon_kernel(*_int_echelon(rows, len(fan.rays)), len(fan.rays))


def base_dimension(fan) -> int:
    """The dimension of the fan's own PL group, 3 iff all are linear."""
    return len(derived(fan, _base_kernel))


def per_cell_system(cover: CoverPoset) -> list[list[int]]:
    """The incidence form, as integer rows: variables are all per-cell
    functionals plus one value per ray cell, constraints <u_c, v_ray> =
    z_ray per incidence."""
    fan = cover.fan
    n = fan.rank
    maxcells = cover.max_cells
    zvars = cover.ray_cells
    col_of_cell = {m: n * i for i, m in enumerate(maxcells)}
    width = n * len(maxcells) + len(zvars)
    rows = []
    for m, pos, _, cols in derived(cover, _max_cell_geometry):
        for ray, c in zip(fan.max_cones[pos].ray_indices, cols):
            row = [0] * width
            for k, x in enumerate(fan.rays[ray]):
                row[col_of_cell[m] + k] = x
            row[n * len(maxcells) + c] = -1
            rows.append(row)
    return rows


def _pullback_z(cover: CoverPoset, coordinate: int) -> list[int]:
    fan = cover.fan
    return [fan.rays[fan.cones[cover.cells[r].base].ray_indices[0]][coordinate]
            for r in cover.ray_cells]


def _lift(cover: CoverPoset, zs: list[list[int]], den: int = 1, keys=None) -> list[PLFunction]:
    """The PL functions with ray-cell values z / den, z in `zs`, lifted in one
    `_kernel_keys` call unless its `keys` are given: functionals key / L.den."""
    fan = cover.fan
    big = derived(fan, _lifts)[0]
    n = fan.rank
    if keys is None:
        keys = _kernel_keys(fan, derived(cover, _max_cell_geometry), zs)
    return [PLFunction._of_numerators(cover, [key[n * i:n * i + n] for key in keys],
                                      [big * x for x in z], big * den)
            for i, z in enumerate(zs)]


@dataclass
class PLBasis:
    """A basis of PL functions.  In `rational` mode the first `rank` entries
    are the pullbacks of the ambient coordinate functionals; an `integral`
    basis spans them, and lifts them when `pullbacks` is first read.
    `elimination`, for `group_triviality`, is `solve`'s (cover, dimension,
    cells' `_kernel_keys` on vectors spanning the group)."""

    cover: CoverPoset
    functions: list[PLFunction]
    mode: str
    elimination: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.functions)

    @cached_property
    def pullbacks(self) -> tuple[PLFunction, ...]:
        rank = self.cover.fan.rank
        if self.mode == "rational":
            return tuple(self.functions[:rank])
        return tuple(_lift(self.cover, [_pullback_z(self.cover, j) for j in range(rank)]))


def _ray_value_kernel(cover: CoverPoset) -> tuple[list[list[int]], list[int]]:
    """The rational kernel of `ray_value_system(cover)`, one primitive vector
    per free column and zero at the other free columns, with those free
    columns: the one elimination both modes of `solve` share."""
    rows, zvars = ray_value_system(cover)
    ncols = len(zvars)
    ech, pivots = _int_echelon(rows, ncols)
    pivset = set(pivots)
    return _echelon_kernel(ech, pivots, ncols), [c for c in range(ncols) if c not in pivset]


def solve(cover: CoverPoset, mode: str = "rational") -> PLBasis:
    """Basis of the group of piecewise-linear functions on the cover.

    Both modes eliminate the values-at-rays system once
    (`_ray_value_kernel`) and lift vectors spanning its kernel in one
    `_kernel_keys` call.  `rational` mode lifts its kernel vectors to
    per-cell functionals, after the pullbacks, which head its basis; it
    picks them on the free columns, which fix a kernel vector, and the
    pullbacks lie in the kernel (`_check_pullbacks`).
    `integral` mode returns the kernel lattice of the per-cell incidence
    system (`per_cell_system`), so each basis function has an integral
    functional on every cell, in canonical row Hermite form; the pullback
    space is contained in its span.

    The integral basis is read off the small kernel, never off the per-cell
    system.  A per-cell kernel vector (u, z) has z in the values-at-rays
    kernel, and each u_m is the unique solution of V_m.u_m = z on 3
    independent rays of its cone, so (u, z) = (lift(z), z): the per-cell
    kernel is the Q-span of the lifted kernel vectors, and its lattice is
    the set of integral points of that span, which `_saturate` computes.  A
    lifted vector is nonzero at its own free z column and zero at the
    others, like the kernel it lifts, so the free columns serve; its other
    nonzero entries may lie in any u column, so the residues run over every
    column but the free ones.  The lifted rows are the cells' keys on the
    kernel, transposed, then L.z: scaled by the fan's L, not the cover's,
    which keeps the Q-span.  The row Hermite form of a lattice is unique,
    so the basis is the one that `integer_kernel(per_cell_system(...))`
    gives.  Each basis vector is
    (lift(z), z), so its function is read off it: the u blocks in
    `cover.max_cells` order, then z, over 1.
    """
    fan = cover.fan
    if fan.rank != 3:
        raise PLError("the solver requires a rank-3 base fan")
    if not is_complete(fan):
        raise PLError("the solver requires a complete base fan")
    if mode not in ("rational", "integral"):
        raise ValueError(f"unknown mode {mode!r}")
    kernel, free = _ray_value_kernel(cover)
    n = fan.rank
    cells = derived(cover, _max_cell_geometry)
    if mode == "rational":
        derived(fan, _check_pullbacks)
        ordered = [_pullback_z(cover, j) for j in range(n)] + kernel
        picked = independent_rows([[z[c] for c in free] for z in ordered], len(free))
        if picked[:n] != list(range(n)):
            raise RuntimeError("pullback functionals are not independent")
        if len(picked) != len(kernel):
            raise RuntimeError("basis completion lost dimensions")
        zs = [ordered[i] for i in picked]
        keys = _kernel_keys(fan, cells, zs)
        return PLBasis(cover, _lift(cover, zs, keys=keys), "rational",
                       (cover, len(kernel), keys))

    keys = _kernel_keys(fan, cells, kernel)
    big = derived(fan, _lifts)[0]
    lifted = [[x for key in keys for x in key[n * i:n * i + n]] + [big * x for x in z]
              for i, z in enumerate(kernel)]
    zstart = n * len(cover.max_cells)
    zfree = [zstart + c for c in free]
    others = set(range(zstart + len(cover.ray_cells))).difference(zfree)
    lattice = _saturate(lifted, zfree, others)
    return PLBasis(cover, [PLFunction._of_numerators(
        cover, [tuple(vec[i:i + n]) for i in range(0, zstart, n)], vec[zstart:], 1)
        for vec in lattice], "integral", (cover, len(kernel), keys))


def wedge_summands(cover: CoverPoset) -> list[list[int]]:
    """Connected components of the nonminimal cells (the wedge pieces)."""
    root = cover.minimal_cell
    links = [(lo, hi) for hi, below in enumerate(cover.below) for lo in below if lo != root]
    return [g for g in components(len(cover.cells), links) if g != [root]]


@dataclass
class TrivialityVerdict:
    """The ladder's verdict.  `witness` is a nontrivial PL function, built
    on first access from `cover` and `basis` (solved then when none was
    supplied), and refused for a verdict decided without a cover; it is
    None when every function is trivial."""

    all_trivial: bool
    certificate: str | None
    pattern: tuple | None
    dim: int
    cover: CoverPoset | None = field(default=None, repr=False, compare=False)
    basis: PLBasis | None = field(default=None, repr=False, compare=False)

    @property
    def tag(self) -> str:
        return self.certificate if self.all_trivial else "nontrivial"

    @cached_property
    def witness(self) -> PLFunction | None:
        """The generic element sum(t^i . b_i) of the basis, which separates
        every two cells that some PL function separates, so it is nontrivial
        whenever the group is.  It is lifted from sum(t^i . z_i), z_i the
        ray-cell values of b_i over their common denominator D, and t is
        read off the cells' `_kernel_keys` on the z_i: L.D times the
        functionals, a factor the Cauchy-bound ratios do not see."""
        if self.all_trivial:
            return None
        if self.cover is None:
            raise PLError("the witness of a verdict decided without a cover needs the cover")
        cover = self.cover
        pl = self.basis if self.basis is not None else solve(cover)
        den = lcm(*(f._den for f in pl.functions))
        zs = [[x * (den // f._den) for x in f._rays] for f in pl.functions]
        t = _generic_parameter(_kernel_keys(cover.fan, derived(cover, _max_cell_geometry), zs), len(zs))
        (candidate,) = _lift(cover, [[sum(t**i * x for i, x in enumerate(col))
                                      for col in zip(*zs)]], den)
        if is_trivial_function(candidate):
            raise RuntimeError("the generic element of a nontrivial group is trivial")
        return candidate


def _generic_parameter(keys: list[tuple[int, ...]], k: int) -> int:
    """Integer t making sum(t^i . b_i) avoid every avoidable functional
    coincidence between maximal cells, from each cell's key: its functional
    on b_0, ..., b_(k-1) in turn, times a positive factor common to all.

    For two cells and a coordinate, the differences s_i make sum_i s_i x^i
    zero or a polynomial with every root below its Cauchy bound
    1 + max_(i < top) |s_i| / |s_top|; t exceeds the smallest such bound of
    each pair, so the element separates two cells exactly when some b_i
    does.  Floor is monotone, so t = 1 + the maximum over pairs of the
    minimum over coordinates of 1 + M // lead, in integers.
    """
    n = len(keys[0]) // k
    bound = 1
    for key1, key2 in combinations(set(keys), 2):
        diff = [a - b for a, b in zip(key1, key2)]
        floors = []
        for seq in (diff[j::n] for j in range(n)):
            top = max((i for i, x in enumerate(seq) if x), default=None)
            if top is not None:
                floors.append(1 + max(map(abs, seq[:top]), default=0) // abs(seq[top]))
        bound = max(bound, min(floors))
    return bound + 1


def system_triviality(fan, rows: list[list[int]], ncols: int, cells) -> TrivialityVerdict:
    """Decide whether every PL function is trivial, from the values-at-rays
    system alone: `rows` over `ncols` ray-cell columns, and `cells`, one
    (label, base max-cone position, weight, column of each base ray) per
    maximal cell, in row-block order.  `rows` is eliminated in place, and
    `_ladder` decides on that one `_int_echelon`."""
    ech, pivots = _int_echelon(rows, ncols)
    return _ladder(fan, ncols - len(pivots), _column_summands, _echelon_pattern,
                   cells, ncols, ech, pivots)


def _column_summands(cells, ncols: int, *_) -> int:
    """Rung 2's k, the classes of columns that the cells' columns join: a
    column under no cell is a class of its own, not a summand."""
    return sum(len(s) > 1 for s in components(ncols, [cols for *_, cols in cells]))


def _echelon_pattern(fan, cells, ncols: int, ech, pivots) -> tuple:
    """Rung 3's cells and their keys on the kernel of the echelon `ech`."""
    return cells, _kernel_keys(fan, cells, _echelon_kernel(ech, pivots, ncols))


def _kept_pattern(fan, cells, ncols: int, keys) -> tuple:
    """Rung 3's cells and the keys that `solve` kept."""
    return cells, keys


def _ladder(fan, d: int, summands, pattern, *args) -> TrivialityVerdict:
    """The decision ladder for a PL group of dimension d.  `summands(*args)`
    gives the number k of wedge summands, for rung 2, and
    `pattern(fan, *args)` the maximal cells and their `_kernel_keys` on
    vectors spanning the group, for rung 3: module-level functions, each
    called only when its rung is reached.

    1. d = 3 means the pullbacks only.
    2. A wedge all of whose summands have dimension 3 carries only
       summand-wise pullbacks, and that is a count: k > 1 summands and
       d = 3k.  Every row lies in one summand, so the PL group is the
       summands' direct sum, and each summand has a cell over 3 independent
       rays, so its own pullbacks give it dimension at least 3.
    3. Otherwise the common pattern of the keys decides (`_pattern_verdict`).
    """
    derived(fan, _check_pullbacks)
    if d == 3:
        return TrivialityVerdict(True, "pullbacks-only", None, d)
    k = summands(*args)
    if k > 1 and d == 3 * k:
        return TrivialityVerdict(True, "wedge-of-pullbacks", None, d)
    return _pattern_verdict(fan, *pattern(fan, *args), d)


def _pattern_verdict(fan, cells, keys: list[tuple], d: int) -> TrivialityVerdict:
    """Rung 3: the common pattern, the partition of the maximal `cells` on
    which every PL function agrees, listed by labels.  Cells are keyed by
    `keys`, their functionals (`_kernel_keys`) on vectors that span the
    group's ray-cell values, with or without the pullbacks (the same
    functional on every cell): cells agree on a span exactly when they
    agree on a spanning set.

    Why the verdict may be read off the pattern: every PL function is
    constant on each group, and some function (a generic element, avoiding
    the finitely many proper subspaces that identify two groups) takes a
    different functional on every group.  Over a cone, a function constant
    on groups has each group's functional with multiplicity the group's
    cell weight over that cone.  So every function is trivial exactly when
    each group has the same cell weight over every maximal cone: the "if"
    because then every multiset is the same, the "only if" because the
    generic element's multisets differ otherwise.  That element is built
    only when `witness` is read, which needs the cover (`group_triviality`).
    """
    groups: dict[tuple, list[int]] = {}
    weights: dict[tuple, list[int]] = {}
    npos = len(fan.max_cones)
    for (label, pos, weight, _), key in zip(cells, keys):
        groups.setdefault(key, []).append(label)
        weights.setdefault(key, [0] * npos)[pos] += weight
    if any(min(w) != max(w) for w in weights.values()):
        return TrivialityVerdict(False, None, None, d)
    pattern = tuple(sorted(tuple(g) for g in groups.values()))
    return TrivialityVerdict(True, "matched-pattern", pattern, d)


def split_triviality(fan, orbits) -> TrivialityVerdict:
    """`system_triviality`'s verdict for the assignment's cover, by `_ladder`
    on the sheet-averaging split (`RayOrbits.sum_zero_columns`) and with no
    cover: one elimination of the sum-zero system M, as columns, gives d,
    `base_dimension(fan)` plus M's corank.  Rung 2's wedge summands are the
    orbits of `orbits.assignment`'s group (`monodromy.sheet_components`); each
    covers the whole fan, so it carries its own 3 pullbacks, and the group
    is their direct sum.  Rung 3 keys the cells on M's kernel and the base
    kernel, lifted by `RayOrbits.lift`, which span the group; at base
    dimension 3 the base kernel is the pullbacks, which may be left out.

    M's kernel is read off M_P, the r rows of M at the pivots P of the
    column elimination.  M_P has rank r, because the echelon of M's columns
    has its pivots at P (row operations keep the relations among the
    columns of its input, which are M's rows).  The rows of M_P are rows of
    M, so M_P has the same row space as M.  So it has the same pivot columns
    and the same `_echelon_kernel`, byte for byte, which the row space fixes.
    """
    columns, nrows = orbits.sum_zero_columns()
    pivots = _int_echelon(columns[:], nrows)[1]
    return _ladder(fan, base_dimension(fan) + len(columns) - len(pivots),
                   _sheet_summands, _split_pattern, orbits, columns, pivots)


def _sheet_summands(orbits, *_) -> int:
    """`split_triviality`'s rung 2: the orbits of the assignment's group."""
    return len(sheet_components(orbits.assignment))


def _split_pattern(fan, orbits, columns, pivots) -> tuple:
    """`split_triviality`'s rung 3: the cells, keyed on M_P's and the base kernel."""
    ncols = len(columns)
    rows = [[col[p] for col in columns] for p in pivots]
    base = derived(fan, _base_kernel)
    kernel = orbits.lift(_echelon_kernel(*_int_echelon(rows, ncols), ncols),
                         base if len(base) > 3 else ())
    cells = orbits.cells()
    return cells, _kernel_keys(fan, cells, kernel)


def group_triviality(cover: CoverPoset, basis: PLBasis | None = None) -> TrivialityVerdict:
    """Decide whether every PL function on the cover is trivial: the ladder
    on the cover's values-at-rays system, labelled by its maximal cells,
    read off `basis.elimination` when `solve` made it for this cover.  A
    supplied `basis` also seeds the witness of a nontrivial verdict, which
    keeps it and the cover.  A basis is refused unless it is of this cover
    and of the group's dimension, and, unless `solve` made it, its functions'
    ray values, which fix them, have that rank on this cover.
    """
    cells = derived(cover, _max_cell_geometry)
    ncols = len(cover.ray_cells)
    kept = basis is not None and basis.elimination is not None and basis.elimination[0] is cover
    if kept:
        verdict = _ladder(cover.fan, basis.elimination[1], _column_summands, _kept_pattern,
                          cells, ncols, basis.elimination[2])
    else:
        verdict = system_triviality(cover.fan, ray_value_system(cover)[0], ncols, cells)
    if basis is not None and (basis.cover is not cover or basis.dim != verdict.dim or not kept and (
            any(f.cover is not cover for f in basis.functions)
            or rank_of_int_rows([f._rays for f in basis.functions], ncols) != verdict.dim)):
        raise PLError(
            f"the basis does not span this cover's PL group of dimension {verdict.dim}")
    if not verdict.all_trivial:
        verdict.cover, verdict.basis = cover, basis
    return verdict
