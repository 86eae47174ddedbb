"""The subcommands of the `fanbranch` command line tool.

Fan validation, cover enumeration with a branch-set census, exhaustive
piecewise-linear sweeps with a resumable line-delimited cache (run by the
engine in `fanbranch.cli`), single-cover solving, bundle operations, and a
reproduction harness that diffs known computations against expected values
shipped with the package.

Errors have one boundary, `main`'s `invoke`: a `FanError`, `CoverError`,
`KlyachkoError`, `PLError` or `CacheError`, whose message is whole (the
loaders name the file and the field), becomes one `Error: <message>` line
on stderr with exit status 1.  Everything else passes through unchanged: a
`RuntimeError` from a broken invariant, `--expect-trivial`'s exit 2 and
click's usage errors.  A command catches an error only to add context.
"""

from __future__ import annotations

import os
import sys

import click

from .cli import CacheError, branch_census, run_sweep
from .cover_poset import CoverError, cover_from_dict, degree as cover_degree, validate_cover
from .exact_linalg import rank_of_int_rows
from .fan_core import FanError, fan_to_dict, is_complete, load_fan, wall_relation
from .fields import read_json
from .klyachko import (
    KlyachkoError,
    branched_cover_of,
    chern,
    load_bundle,
    necessary_dimension_check,
    verify,
)
from .monodromy import (
    MonodromyAssignment,
    assignment_for_branch_set,
    build_cover,
    class_representatives,
    count_assignments,
    spanning_tree,
)
from .pl_group import (
    PLError,
    group_triviality,
    is_trivial_function,
    multisets,
    ray_value_system,
    solve,
)


class _Digits(click.IntRange):
    """The one rule for an integer on the command line: `IntRange` over
    ASCII digits, so "２", " 2" and "+2" are refused."""

    def convert(self, value, param, ctx):
        if isinstance(value, str) and not (value.isascii() and value.isdecimal()):
            self.fail(f"{value!r} is not written in ASCII digits", param, ctx)
        return super().convert(value, param, ctx)


def _default_jobs() -> int:
    env = os.environ.get("FANBRANCH_JOBS")
    if not env:
        return os.cpu_count() or 1
    try:
        return _Digits(min=1).convert(env, None, None)
    except click.BadParameter:
        raise click.ClickException(f"FANBRANCH_JOBS must be a positive integer, got {env!r}") from None


# ---------------------------------------------------------------------------
# Command groups
# ---------------------------------------------------------------------------


class _ErrorBoundary(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (FanError, CoverError, KlyachkoError, PLError, CacheError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_ErrorBoundary)
def main():
    """Branched covers of complete fans and their piecewise-linear functions."""


@main.group()
def fan():
    """Fan validation and inspection."""


@fan.command("validate")
@click.argument("source")
def fan_validate(source):
    """Load and validate a fan; report rays, cones, walls, completeness."""
    f = load_fan(source)
    if f.rank > 3:
        status = "valid, completeness not decided above rank 3"
    else:
        status = "complete" if is_complete(f) else "valid, not complete"
    click.echo(
        f"{status}, {len(f.rays)} rays, {len(f.max_cones)} maximal cones, "
        f"{len(f.walls)} walls"
    )


@main.group()
def covers():
    """Enumeration of branched covers."""


@covers.command("enumerate")
@click.argument("source")
@click.option("--degree", "-d", type=_Digits(min=1), required=True)
@click.option("--classes", is_flag=True, help="count conjugacy classes as well")
@click.option("--branch-report", is_flag=True, help="tabulate degree-2 branch sets")
def covers_enumerate(source, degree, classes, branch_report):
    """Count the monodromy assignments of the given degree."""
    f = load_fan(source)
    click.echo(f"assignments: {count_assignments(f, degree)}")
    if classes:
        reps = class_representatives(degree, spanning_tree(f).generators)
        click.echo(f"conjugacy classes: {sum(r == i for i, r in enumerate(reps))}")
    if branch_report:
        if degree != 2:
            raise click.ClickException("--branch-report is defined for degree 2")
        census = branch_census(f)
        click.echo(
            f"admissible branch sets (nonempty, no wall pair): {len(census['admissible'])}"
        )
        click.echo(
            "orbit sizes under fan symmetries: "
            + " / ".join(str(s) for s in census["orbit_sizes"])
        )
        for orbit in census["orbits"]:
            click.echo(f"  orbit of {orbit[0]}: {len(orbit)} sets")


@main.group()
def pl():
    """Piecewise-linear function computations."""


@pl.command("sweep")
@click.argument("source")
@click.option("--degree", "-d", type=_Digits(min=1), required=True)
@click.option("--jobs", "-j", type=_Digits(min=1), default=None,
              help="worker processes")
@click.option("--cache", type=click.Path(), default=None, help="record file")
@click.option("--resume", is_flag=True, help="skip indices already cached")
@click.option("--expect-trivial", is_flag=True,
              help="exit with status 2 if any nontrivial verdict appears")
def pl_sweep(source, degree, jobs, cache, resume, expect_trivial):
    """Solve and classify every degree-d cover of the fan."""
    f = load_fan(source)
    jobs = jobs or _default_jobs()
    summary = run_sweep(f, degree, jobs=jobs, cache_path=cache, resume=resume, echo=click.echo)
    click.echo(summary.describe())
    if expect_trivial and summary.nontrivial:
        sys.exit(2)


@pl.command("solve")
@click.argument("source")
@click.option("--cover", "cover_file", type=click.Path(exists=True), default=None)
@click.option("--branch-rays", "branch", default=None,
              help="degree-2 shortcut: comma-separated ray indices (may be empty)")
def pl_solve(source, cover_file, branch):
    """Report dimension, basis, and triviality verdict for one cover."""
    f = load_fan(source)
    if (cover_file is None) == (branch is None):
        raise click.ClickException("pass exactly one of --cover or --branch-rays")
    if branch is not None:
        try:
            rays = [_Digits().convert(x, None, None) for x in branch.split(",") if x.strip() != ""]
        except click.BadParameter:
            raise click.ClickException(
                f"--branch-rays takes comma-separated ray indices, got {branch!r}"
            )
        try:
            cover = build_cover(f, assignment_for_branch_set(f, rays))
        except ValueError as exc:
            raise click.ClickException(f"branch rays {rays}: {exc}")
    else:
        data = read_json(cover_file, "cover", CoverError)
        if "monodromy" in data and "cells" in data:
            raise click.ClickException(f"{cover_file} holds both 'cells' and 'monodromy'")
        named = data.get("fan", source)  # "inline": `cover_to_dict` of an unnamed fan
        if named not in (source, "inline") and (
                not isinstance(named, str)
                or fan_to_dict(load_fan(named, beside=cover_file)) != fan_to_dict(f)):
            raise click.ClickException(f"{cover_file} is a cover of {named!r}, not of {source!r}")
        kind = "monodromy" if "monodromy" in data else "cover"
        try:
            cover = (build_cover(f, MonodromyAssignment.from_dict(data["monodromy"]))
                     if kind == "monodromy" else cover_from_dict(f, data))
        except ValueError as exc:
            raise click.ClickException(f"invalid {kind} in {cover_file}: {exc}")
        if kind == "cover":
            report = validate_cover(cover)
            if not report.ok:
                raise click.ClickException(f"cover invalid: {report.describe()}")
    basis = solve(cover)
    verdict = group_triviality(cover, basis)
    nrows = sum(len(wall_relation(f, f.max_cone_position(cover.cells[m].base)))
                for m in cover.max_cells)
    ncols = len(cover.ray_cells)
    rank_str = f", system {nrows}x{ncols} of rank {ncols - verdict.dim}" if nrows else ""
    click.echo(f"degree {cover_degree(cover)} cover{rank_str}")
    click.echo(f"dim PL = {basis.dim} (pullbacks span 3)")
    if verdict.all_trivial:
        click.echo(f"verdict: AllTrivial({verdict.certificate})")
    else:
        click.echo("verdict: Nontrivial; witness multisets:")
        for ms in multisets(verdict.witness):
            entries = ", ".join(
                f"{tuple(int(x) if x.denominator == 1 else x for x in u)} x{w}"
                for u, w in ms.entries
            )
            click.echo(f"  cone {ms.cone_position}: {entries}")
        sys.exit(0)


@main.group()
def bundle():
    """Filtration-data operations."""


@bundle.command("verify")
@click.argument("source")
def bundle_verify(source):
    """Check the compatibility of filtration data with its splittings."""
    data, cert = load_bundle(source)
    if cert is None:
        screen = necessary_dimension_check(data)
        click.echo(f"no splittings given; dimension screen: {screen.status} ({screen.note})")
        sys.exit(0 if screen.ok else 1)
    result = verify(data, cert)
    click.echo(result.describe())
    if not result.ok:
        screen = necessary_dimension_check(data)
        click.echo(f"dimension screen: {screen.status}")
        sys.exit(1)


@bundle.command("chern")
@click.argument("source")
def bundle_chern(source):
    """Print the per-cone functional multisets and triviality."""
    data, cert = load_bundle(source)
    if cert is None:
        raise click.ClickException("chern data needs splittings in the bundle file")
    cd = chern(data, cert)
    for pos in sorted(cd.multisets):
        entries = ", ".join(f"{u} x{m}" for u, m in cd.multisets[pos])
        click.echo(f"cone {pos}: {entries}")
    click.echo("trivial" if cd.is_trivial() else "nontrivial")


@bundle.command("cover")
@click.argument("source")
def bundle_cover(source):
    """Build the associated branched cover and its function."""
    data, cert = load_bundle(source)
    if cert is None:
        raise click.ClickException("the cover needs splittings in the bundle file")
    cover, psi = branched_cover_of(data, cert)
    click.echo(
        f"degree {cover_degree(cover)} cover, {len(cover.cells)} cells, "
        f"branched over rays {_branch_rays(cover)}"
    )
    click.echo(f"function trivial: {is_trivial_function(psi)}")


def _branch_rays(cover) -> list[int]:
    return sorted(cover.fan.cones[cover.cells[i].base].ray_indices[0]
                  for i in cover.ray_cells if cover.cells[i].weight > 1)


# ---------------------------------------------------------------------------
# Reproduction harness
# ---------------------------------------------------------------------------


def _expected() -> dict:
    from importlib.resources import files

    return read_json(files("fanbranch.data") / "expected.json", "expected values", ValueError)


class _Diff:
    def __init__(self, echo):
        self.echo = echo
        self.ok = True

    def check(self, label, expected, got):
        match = expected == got
        if not match:
            self.ok = False
        status = "OK" if match else "MISMATCH"
        self.echo(f"  {label}: expected {expected}, got {got} [{status}]")


def _reproduce_eikelberg(diff: _Diff):
    f = load_fan("eikelberg")
    expected = _expected()["eikelberg"]
    diff.check("fan complete", expected["fan_complete"], is_complete(f))
    data, cert = load_bundle("eikelberg")
    diff.check("bundle verifies", expected["bundle_verifies"], bool(verify(data, cert)))
    cover, psi = branched_cover_of(data, cert)
    branch = _branch_rays(cover)
    diff.check("branch rays", expected["branch_rays"], branch)
    diff.check("psi nontrivial", expected["psi_nontrivial"], not is_trivial_function(psi))
    mono_cover = build_cover(f, assignment_for_branch_set(f, branch))
    verdict = group_triviality(mono_cover)
    diff.check(
        "cover verdict nontrivial",
        expected["cover_nontrivial_verdict"],
        not verdict.all_trivial,
    )


def _reproduce_fulton_deg2(diff: _Diff, jobs: int):
    f = load_fan("fulton")
    expected = _expected()["fulton-deg2"]
    diff.check("assignments", expected["assignments"], count_assignments(f, 2))
    cover = build_cover(f, assignment_for_branch_set(f, [0, 2, 5, 7]))
    rows, zvars = ray_value_system(cover)
    diff.check("matrix rows", expected["matrix_rows"], len(rows))
    diff.check("matrix cols", expected["matrix_cols"], len(zvars))
    diff.check("matrix rank", expected["matrix_rank"], rank_of_int_rows(rows, len(zvars)))
    diff.check("type-C PL dimension", expected["type_c_pl_dim"], solve(cover).dim)
    census = branch_census(f)
    diff.check(
        "admissible branch sets",
        expected["admissible_branch_sets"],
        len(census["admissible"]),
    )
    diff.check("orbit counts", expected["orbit_counts"], census["orbit_sizes"])
    summary = run_sweep(f, 2, jobs=jobs)
    diff.check("nontrivial verdicts", expected["nontrivial_verdicts"], len(summary.nontrivial))


def _reproduce_fulton_rank3(diff: _Diff):
    expected = _expected()["fulton-rank3"]
    data, cert = load_bundle("fulton_rank3")
    result = verify(data, cert)
    diff.check("bundle verifies", expected["bundle_verifies"], bool(result))
    if not result.ok:
        diff.echo(f"  note: {result.describe()}")
        diff.echo(
            "  note: the printed filtration data is inconsistent with its own"
            " multisets (dimension screen agrees); see the package README"
        )
    cd = chern(data, cert)
    diff.check("chern trivial", expected["chern_trivial"], cd.is_trivial())


def _reproduce_sigma_prime(diff: _Diff, jobs: int):
    f = load_fan("sigma_prime")
    expected = _expected()["sigma-prime-deg3"]
    total = count_assignments(f, 3)
    diff.check("assignments", expected["assignments"], total)
    diff.echo(f"  sweeping {total} assignments with {jobs} jobs ...")
    summary = run_sweep(f, 3, jobs=jobs, echo=diff.echo)
    diff.check("processed", expected["assignments"], summary.processed)
    diff.check("nontrivial verdicts", expected["nontrivial_verdicts"], len(summary.nontrivial))
    diff.echo(f"  sweep wall-clock: {summary.seconds:.1f}s")


def _reproduce_p2_tangent(diff: _Diff):
    expected = _expected()["p2-tangent"]
    data, cert = load_bundle("p2_tangent")
    cover, psi = branched_cover_of(data, cert)
    diff.check("maximal cells", expected["max_cells"], len(cover.max_cells))
    diff.check(
        "minimal cell weight",
        expected["min_weight"],
        cover.cells[cover.minimal_cell].weight,
    )
    got = sorted([int(x) for x in u] for u in psi.cell_values.values())
    diff.check("psi functionals", expected["psi_functionals"], got)


@main.group(name="paper")
def paper_group():
    """Reproduction harness for the published computations."""


@paper_group.command("reproduce")
@click.argument(
    "name",
    type=click.Choice(
        ["eikelberg", "fulton-deg2", "fulton-rank3", "sigma-prime-deg3", "p2-tangent"]
    ),
)
@click.option("--jobs", "-j", type=_Digits(min=1), default=None)
def paper_reproduce(name, jobs):
    """Re-run a known computation and diff against bundled expected values."""
    jobs = jobs or _default_jobs()
    diff = _Diff(click.echo)
    click.echo(f"reproducing {name}:")
    if name == "eikelberg":
        _reproduce_eikelberg(diff)
    elif name == "fulton-deg2":
        _reproduce_fulton_deg2(diff, jobs)
    elif name == "fulton-rank3":
        _reproduce_fulton_rank3(diff)
    elif name == "sigma-prime-deg3":
        _reproduce_sigma_prime(diff, jobs)
    elif name == "p2-tangent":
        _reproduce_p2_tangent(diff)
    if diff.ok:
        click.echo("all expectations matched")
    else:
        click.echo("DISCREPANCIES FOUND (see mismatches above)")
        sys.exit(1)
