"""One store for the constants of a fan.

Everything derived from a fan alone is built on first use and kept in the
fan's one store, `Fan._derived`, keyed by its private builder
(`fan_core.derived`); what `pl_group` derives from a cover is kept in the
cover's own store.  Nothing else is attached to either object, and a copy
or a pickle of a fan, or of a cover, starts with an empty store and gives
the same results.
"""

import copy
import pickle
from functools import cached_property

import pytest

from fanbranch import fan_core, klyachko, monodromy, pl_group
from fanbranch.cli import evaluate_assignment, run_sweep
from fanbranch.cover_poset import CoverPoset
from fanbranch.fan_core import combinatorial_automorphisms, is_complete, ray_link, wall_relation
from fanbranch.klyachko import (
    KlyachkoData,
    branched_cover_of,
    chern,
    load_bundle,
    necessary_dimension_check,
    verify,
)
from fanbranch.monodromy import assignment_at, build_cover, count_assignments, spanning_tree
from fanbranch.pl_group import group_triviality, solve

# every builder that the calls of `_results` reach, by module
BUILDERS = {
    fan_core._id_tables, fan_core._fills_space,
    fan_core._link_cycles, fan_core._wall_relations, fan_core._ray_symmetries,
    monodromy._spanning_tree, monodromy._record_tables,
    pl_group._lifts, pl_group._check_pullbacks, pl_group._base_kernel,
    klyachko._cone_eliminations, klyachko._shared_faces, klyachko._cover_plan,
}
COVER_PROPERTIES = {name for name, value in vars(CoverPoset).items()
                    if isinstance(value, cached_property)}
# an eikelberg degree-2 index whose cover has a PL group past dimension 3
INDEX = 5


def _results(fan, bundle, cert) -> tuple:
    """Every builder's result on the fan, read through the public calls: its
    completeness, ray links, wall relations and automorphisms, a degree-2
    sweep and its records, one cover's two solves and verdicts, and the
    bundle's verification, screen, Chern data and branched cover."""
    data = KlyachkoData(fan, bundle.rank, bundle.filtrations)
    run_sweep(fan, 2)
    cover = build_cover(fan, assignment_at(fan, 2, INDEX))
    bases = [solve(cover, mode) for mode in ("rational", "integral")]
    _, psi = branched_cover_of(data, cert)
    return (
        is_complete(fan),
        [ray_link(fan, ray) for ray in range(len(fan.rays))],
        [wall_relation(fan, pos) for pos in range(len(fan.max_cones))],
        combinatorial_automorphisms(fan),
        spanning_tree(fan),
        [evaluate_assignment(fan, spanning_tree(fan), 2, i).to_json()
         for i in range(count_assignments(fan, 2))],
        [[f.to_dict() for f in basis.functions] for basis in bases],
        [group_triviality(cover, basis) for basis in (None, *bases)],
        verify(data, cert),
        necessary_dimension_check(data),
        chern(data, cert).multisets,
        psi.to_dict(),
    ), cover


@pytest.fixture
def bundle():
    return load_bundle("eikelberg")


def test_every_builder_keeps_to_the_store(bundle):
    data, cert = bundle
    fan = data.fan
    attributes = set(vars(fan))
    results, cover = _results(fan, data, cert)
    assert results[7][0].dim > 3  # the pattern rung ran
    assert set(vars(fan)) == attributes
    assert set(fan._derived) == BUILDERS
    assert set(vars(cover)) - set(vars(CoverPoset(fan, cover.cells, ()))) <= COVER_PROPERTIES
    assert set(cover._derived) == {pl_group._max_cell_geometry}
    assert spanning_tree(fan) is spanning_tree(fan)


CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
          "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("clone", list(CLONES))
def test_a_copy_starts_empty_and_agrees(bundle, clone):
    data, cert = bundle
    fan = data.fan
    results = _results(fan, data, cert)[0]
    got = CLONES[clone](fan)
    assert got._derived == {} and set(fan._derived) == BUILDERS
    assert set(vars(got)) == set(vars(fan))
    assert _results(got, data, cert)[0] == results
    assert set(got._derived) == BUILDERS


@pytest.mark.parametrize("clone", list(CLONES))
def test_a_cover_copy_starts_empty_and_agrees(bundle, clone):
    # a shallow copy used to share the original's store
    fan = bundle[0].fan
    cover = build_cover(fan, assignment_at(fan, 2, INDEX))
    bases = [solve(cover, mode) for mode in ("rational", "integral")]
    got = CLONES[clone](cover)
    assert got._derived == {} and set(cover._derived) == {pl_group._max_cell_geometry}
    assert set(vars(got)) == set(vars(cover))
    again = [solve(got, mode) for mode in ("rational", "integral")]
    assert [[f.to_dict() for f in b.functions] for b in again] == \
        [[f.to_dict() for f in b.functions] for b in bases]
    assert group_triviality(got, again[0]).tag == group_triviality(cover, bases[0]).tag
    assert got._derived.keys() == cover._derived.keys()
    assert got._derived is not cover._derived
