"""The sheet-averaging split of the sweep's record path against the whole
system.

`evaluate_assignment` decides every record with `pl_group.split_triviality`
on the sum-zero part of the values-at-rays system
(`RayOrbits.sum_zero_columns`): the pullbacks-only rung on its rank, the
wedge rung by counting `sheet_components`, the pattern rung on the lifted
sum-zero kernel, plus the lifted base kernel where the base dimension
exceeds 3.  By the averaging argument at `RayOrbits.sum_zero_columns`, the
PL group's dimension is `base_dimension` plus that part's corank.

These tests build the whole system (`conftest.value_system`) and check, on
every index, the identity against `system_triviality(...).dim`, and that the
split's verdict equals `system_triviality`'s: the verdict, tag, dimension
and pattern.  The split reads the sum-zero kernel off the rows at the pivots
of its column elimination; that kernel must equal `_echelon_kernel` of the
whole sum-zero system in row form, byte for byte.
They run on every class of `fulton` degree 2 and `eikelberg` degree 3, on
seeded samples of the classes of `fulton` and `sigma_prime` degree 3 and
the 2 nontrivial classes of `fulton` degree 3, and on seeded covers of
every single stellar subdivision of the three fans, where the base
dimension is 4 or 5 and the subdivided cone's pieces are simplicial, so
they give no rows, and of seeded iterated subdivisions.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest

from fanbranch import pl_group
from fanbranch.cli import evaluate_assignment
from fanbranch.exact_linalg import _echelon_kernel, _int_echelon, rank_of_int_rows
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
    split_triviality,
    system_triviality,
)

from conftest import value_system

FANS = ("fulton", "eikelberg", "sigma_prime")
SAMPLE = 1500
# the only classes of `fulton` degree 3 with a nontrivial PL function
FULTON_DEG3_NONTRIVIAL = (10649, 11539)


def check_records(fan, tree, d: int, indices, tags: Counter | None = None) -> int:
    """Assert the identity, the split's verdict and its sum-zero kernel on
    each index; returns how often the pullbacks-only rung decided, and
    counts the whole system's tags in `tags`."""
    fired = 0
    for index in indices:
        a = assignment_at(fan, d, index, tree)
        orbits = ray_orbits(fan, a, tree)
        columns, nrows = orbits.sum_zero_columns()
        ncols = len(columns)
        corank = ncols - rank_of_int_rows(columns, nrows)
        system = value_system(fan, orbits)
        full = system_triviality(fan, system.rows, system.ncols, system.cells)
        assert base_dimension(fan) + corank == full.dim, index
        row_form = _echelon_kernel(*_int_echelon([list(r) for r in zip(*columns)], ncols), ncols)
        kernels = []

        def recorded(*args):
            kernels.append(_echelon_kernel(*args))
            return kernels[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pl_group, "_echelon_kernel", recorded)
            # verdict, tag, dim and pattern, with row block labels
            split = split_triviality(fan, orbits)
        assert split == full, index
        rung3 = split.tag in ("matched-pattern", "nontrivial")
        assert kernels == ([row_form] if rung3 else []), index
        fired += split.tag == "pullbacks-only"
        record = evaluate_assignment(fan, tree, d, index)
        assert (record.dim_pl, record.cert) == (full.dim, full.tag), index
        assert orbits.branch_rays == branch_rays(fan, a, tree), index
        if tags is not None:
            tags[full.tag] += 1
    return fired


@lru_cache(maxsize=None)
def classes(name: str, d: int) -> tuple:
    fan = load_fan(name)
    tree = spanning_tree(fan)
    return fan, tree, tuple(sorted(set(class_representatives(d, tree.generators))))


# the tags past the pullbacks-only rung, on every class
SPLIT_TAGS = {
    "fulton": {"matched-pattern": 15, "wedge-of-pullbacks": 1},
    "eikelberg": {"matched-pattern": 201, "nontrivial": 115, "wedge-of-pullbacks": 17},
}


@pytest.mark.parametrize("name, d, fired", [("fulton", 2, 112), ("eikelberg", 3, 1060)])
def test_every_class(name, d, fired):
    fan, tree, reps = classes(name, d)
    assert base_dimension(fan) == 3
    tags = Counter()
    assert check_records(fan, tree, d, reps, tags) == fired
    assert tags == {"pullbacks-only": fired, **SPLIT_TAGS[name]}


@pytest.mark.parametrize("name", ["fulton", "sigma_prime"])
def test_sampled_degree3_classes(name):
    fan, tree, reps = classes(name, 3)
    assert len(reps) == 47449
    sample = sorted(random.Random(15).sample(reps, SAMPLE))
    tags = Counter()
    fired = check_records(fan, tree, 3, sample, tags)
    # about 95% of the classes are pullbacks-only; both outcomes occur
    assert 0.9 * SAMPLE < fired < SAMPLE
    assert tags["matched-pattern"] > 0 and tags["wedge-of-pullbacks"] > 0


def test_fulton_degree3_nontrivial_classes():
    fan, tree, _ = classes("fulton", 3)
    tags = Counter()
    check_records(fan, tree, 3, FULTON_DEG3_NONTRIVIAL, tags)
    assert tags == {"nontrivial": 2}


@lru_cache(maxsize=None)
def subdivisions() -> tuple:
    return tuple((name, pos, stellar_subdivision(base, pos))
                 for name in FANS
                 for base in [load_fan(name)]
                 for pos in range(len(base.max_cones)))


# Every cover of a fan whose own PL group exceeds the pullbacks is
# nontrivial: a PL function of the fan, lifted constant on sheets, has one
# functional with multiplicity d over each cone, and these differ.


@pytest.mark.parametrize("d", [2, 3])
def test_stellar_subdivisions(d):
    rng = random.Random(d)
    dims, tags = set(), Counter()
    for name, pos, fan in subdivisions():
        tree = spanning_tree(fan)
        total = count_assignments(fan, d)
        indices = [0] + [rng.randrange(total) for _ in range(14)]
        assert check_records(fan, tree, d, indices, tags) == 0, (name, pos)
        dims.add(base_dimension(fan))
    assert dims == {4, 5}
    assert tags == {"nontrivial": 255}


def test_iterated_stellar_subdivisions():
    """Two or three seeded stellar subdivisions in a row, each of a cone of
    the last, then seeded degree-2 and degree-3 covers."""
    rng = random.Random(17)
    dims, tags = set(), Counter()
    for name in FANS:
        for _ in range(3):
            fan = load_fan(name)
            for _ in range(rng.choice((2, 3))):
                fan = stellar_subdivision(fan, rng.randrange(len(fan.max_cones)))
            tree = spanning_tree(fan)
            for d in (2, 3):
                total = count_assignments(fan, d)
                indices = [0] + [rng.randrange(total) for _ in range(4)]
                assert check_records(fan, tree, d, indices, tags) == 0, name
            dims.add(base_dimension(fan))
    assert max(dims) > 5
    assert tags == {"nontrivial": 90}


def test_stellar_systems_are_the_covers():
    """`RayOrbits.cells` reads the cells off the link walks of
    `_record_tables`; `build_cover` still crosses walls one by one."""
    rng = random.Random(3)
    for name, pos, fan in subdivisions():
        tree = spanning_tree(fan)
        for d in (2, 3):
            a = assignment_at(fan, d, rng.randrange(count_assignments(fan, d)), tree)
            system = value_system(fan, ray_orbits(fan, a, tree))
            cover = build_cover(fan, a, tree)
            rows, zvars = ray_value_system(cover)
            assert (system.rows, system.ncols) == (rows, len(zvars)), (name, pos, d)
            assert [c[1:] for c in system.cells] == [c[1:] for c in _max_cell_geometry(cover)]
