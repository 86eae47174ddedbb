"""The sum-zero rung of the sweep's record path against the whole system.

`evaluate_assignment` settles a record as pullbacks-only when
`pl_group.sum_zero_triviality` proves it on the sum-zero part of the
values-at-rays system (`RayOrbits.sum_zero_columns`).  By the averaging
argument at `monodromy.ray_value_rows`, the PL group's dimension is
`base_dimension` plus that part's corank.  These tests check the identity
against `system_triviality(...).dim` on the whole system, and that the rung
fires exactly when that dimension is 3, on every class of `fulton` degree 2
and `eikelberg` degree 3, on seeded samples of the classes of `fulton` and
`sigma_prime` degree 3, and on seeded covers of every single stellar
subdivision of the three fans, where the base dimension is 4 or 5 and the
subdivided cone's pieces are simplicial, so they give no rows.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from fanbranch.exact_linalg import rank_of_int_rows
from fanbranch.fan_core import load_fan, stellar_subdivision
from fanbranch.monodromy import (
    assignment_at,
    branch_rays,
    build_cover,
    class_representatives,
    count_assignments,
    ray_orbits,
    spanning_tree,
)
from fanbranch.pl_group import (
    _max_cell_geometry,
    base_dimension,
    ray_value_system,
    sum_zero_triviality,
    system_triviality,
)

FANS = ("fulton", "eikelberg", "sigma_prime")
SAMPLE = 1500


def check_records(fan, tree, d: int, indices) -> int:
    """Assert the identity and the firing rule on each index; returns how
    often the rung fired."""
    fired = 0
    for index in indices:
        a = assignment_at(fan, d, index, tree)
        orbits = ray_orbits(fan, a, tree)
        columns, nrows = orbits.sum_zero_columns()
        corank = len(columns) - rank_of_int_rows(columns, nrows)
        system = orbits.value_system()
        full = system_triviality(fan, system.rows, system.ncols, system.cells)
        assert base_dimension(fan) + corank == full.dim, index
        rung = sum_zero_triviality(fan, columns, nrows)
        assert (rung is not None) == (full.dim == 3), index
        if rung is not None:
            assert rung == full
            fired += 1
        assert orbits.branch_rays == branch_rays(fan, a, tree), index
    return fired


@lru_cache(maxsize=None)
def classes(name: str, d: int) -> tuple:
    fan = load_fan(name)
    tree = spanning_tree(fan)
    return fan, tree, tuple(sorted(set(class_representatives(d, tree.generators))))


@pytest.mark.parametrize("name, d, fired", [("fulton", 2, 112), ("eikelberg", 3, 1060)])
def test_every_class(name, d, fired):
    fan, tree, reps = classes(name, d)
    assert base_dimension(fan) == 3
    assert check_records(fan, tree, d, reps) == fired


@pytest.mark.parametrize("name", ["fulton", "sigma_prime"])
def test_sampled_degree3_classes(name):
    fan, tree, reps = classes(name, 3)
    assert len(reps) == 47449
    sample = sorted(random.Random(15).sample(reps, SAMPLE))
    fired = check_records(fan, tree, 3, sample)
    # about 95% of the classes are pullbacks-only; both outcomes occur
    assert 0.9 * SAMPLE < fired < SAMPLE


@lru_cache(maxsize=None)
def subdivisions() -> tuple:
    return tuple((name, pos, stellar_subdivision(base, pos))
                 for name in FANS
                 for base in [load_fan(name)]
                 for pos in range(len(base.max_cones)))


@pytest.mark.parametrize("d", [2, 3])
def test_stellar_subdivisions(d):
    rng = random.Random(d)
    dims = set()
    for name, pos, fan in subdivisions():
        tree = spanning_tree(fan)
        total = count_assignments(fan, d)
        indices = [0] + [rng.randrange(total) for _ in range(14)]
        assert check_records(fan, tree, d, indices) == 0, (name, pos)
        dims.add(base_dimension(fan))
    assert dims == {4, 5}


def test_stellar_systems_are_the_covers():
    """`RayOrbits.value_system` reads the system off the link walks of
    `_record_tables`; `build_cover` still crosses walls one by one."""
    rng = random.Random(3)
    for name, pos, fan in subdivisions():
        tree = spanning_tree(fan)
        for d in (2, 3):
            a = assignment_at(fan, d, rng.randrange(count_assignments(fan, d)), tree)
            system = ray_orbits(fan, a, tree).value_system()
            cover = build_cover(fan, a, tree)
            rows, zvars = ray_value_system(cover)
            assert (system.rows, system.ncols) == (rows, len(zvars)), (name, pos, d)
            assert [c[1:] for c in system.cells] == [c[1:] for c in _max_cell_geometry(cover)]
