import random
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from fanbranch.exact_linalg import RationalMatrix, SubspaceBasis, rank, subspace_sum
from fanbranch.fan_core import load_fan, stellar_subdivision, wall_relation
from fanbranch.klyachko import (
    Filtration,
    KlyachkoData,
    SplittingCertificate,
    VerifyResult,
    _induced_filtration,
)
from fanbranch.monodromy import (
    assignment_at,
    build_cover,
    count_assignments,
    ray_orbits,
    spanning_tree,
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
        if rank(RationalMatrix(m)) == r:
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


# -- compatibility by rebuilding each induced filtration ----------------------
#
# `klyachko.verify` decides in integers, with no subspace sum built.  This is
# the direct reading it is tested against: per cone and ray, the validated
# `Filtration` that the summands induce, compared with the stored one.


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

