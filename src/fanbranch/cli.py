"""The `fanbranch` command line tool.

Subcommands: fan validation, cover enumeration with a branch-set census,
exhaustive piecewise-linear sweeps with a resumable line-delimited cache,
single-cover solving, bundle operations, and a reproduction harness that
diffs known computations against expected values shipped with the package.

Sweeps are deterministic: records are written in assignment-index order and
contain nothing run-dependent, so the cache bytes are identical for any
worker count, and an interrupted run resumes into the same file.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, fields
from itertools import chain

import click

from .cover_poset import CoverError, cover_from_dict, degree as cover_degree, validate_cover
from .exact_linalg import rank_of_int_rows
from .fan_core import (
    BUNDLED_FANS,
    FanError,
    combinatorial_automorphisms,
    is_complete,
    load_fan,
    wall_relation,
)
from .klyachko import (
    branched_cover_of,
    chern,
    load_bundle,
    necessary_dimension_check,
    verify,
)
from .monodromy import (
    MonodromyAssignment,
    assignment_at,
    assignment_for_branch_set,
    build_cover,
    class_representatives,
    count_assignments,
    ray_value_rows,
    spanning_tree,
)
from .pl_group import (
    group_triviality,
    is_trivial_function,
    multisets,
    ray_value_system,
    solve,
    system_triviality,
)


def _resolve_fan(source: str):
    try:
        return load_fan(source)
    except FileNotFoundError:
        raise click.ClickException(
            f"no such fan: {source!r} (bundled fans: {', '.join(BUNDLED_FANS)})"
        )
    except OSError as exc:
        raise click.ClickException(f"cannot read fan {source!r}: {exc.strerror or exc}")
    except FanError as exc:
        raise click.ClickException(f"invalid fan: {exc}")


def _default_jobs() -> int:
    env = os.environ.get("FANBRANCH_JOBS")
    if not env:
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise click.ClickException(f"FANBRANCH_JOBS must be a positive integer, got {env!r}")
    return int(env)


# ---------------------------------------------------------------------------
# Sweep engine
# ---------------------------------------------------------------------------


@dataclass
class SweepRecord:
    index: int
    branch_rays: list[int]
    profile: list[list[int]]
    dim_pl: int
    verdict: str
    cert: str

    def to_json(self) -> str:
        return json.dumps(
            {
                "index": self.index,
                "branch_rays": self.branch_rays,
                "profile": self.profile,
                "dim_pl": self.dim_pl,
                "verdict": self.verdict,
                "cert": self.cert,
            },
            sort_keys=True,
            separators=(",", ":"),
        )


def evaluate_assignment(fan, tree, d: int, index: int) -> SweepRecord:
    """One sweep record, from the values-at-rays system alone.

    The system is read straight off the monodromy (`ray_value_rows`), which
    also gives the profile and the branch rays, and `system_triviality`
    decides it on one elimination.  No record builds a cover.
    """
    a = assignment_at(fan, d, index, tree)
    system = ray_value_rows(fan, a, tree)
    verdict = system_triviality(fan, system.rows, system.ncols, system.cells)
    return SweepRecord(
        index=index,
        branch_rays=system.branch_rays,
        profile=system.profile,
        dim_pl=verdict.dim,
        verdict="AllTrivial" if verdict.all_trivial else "Nontrivial",
        cert=verdict.tag,
    )


def _summary_tag(verdict: str, cert: str) -> str:
    """The key a record is counted under in the summary's verdicts line."""
    return f"{verdict}({cert})" if verdict == "AllTrivial" else verdict


# One sweep's fan, tree and degree; forked workers inherit them.
_WORKER_STATE: dict = {}

_INDEX_KEY = '"index":'


def _sweep_chunk(reps: list[int]) -> list[tuple[str, str, str, bool]]:
    """For each class representative, its record line cut around the index
    value (the line of any index of the class is head + index + tail), its
    summary tag, and whether its dimension exceeds 3."""
    fan = _WORKER_STATE["fan"]
    tree = _WORKER_STATE["tree"]
    d = _WORKER_STATE["degree"]
    out = []
    for r in reps:
        rec = evaluate_assignment(fan, tree, d, r)
        line = rec.to_json()
        cut = line.index(_INDEX_KEY) + len(_INDEX_KEY)
        out.append((line[:cut], line[cut + len(str(r)):] + "\n",
                    _summary_tag(rec.verdict, rec.cert), rec.dim_pl > 3))
    return out


@dataclass
class SweepSummary:
    """Verdict counts over the whole cache; `high_dim` counts the records of
    dim > 3 that this run wrote, `solved` the classes of dim > 3 that it
    evaluated."""

    total: int
    processed: int
    verdicts: dict
    nontrivial: list
    seconds: float
    high_dim: int
    solved: int

    def describe(self) -> str:
        lines = [
            f"assignments processed: {self.processed} / {self.total}",
            f"verdicts: "
            + ", ".join(f"{k}: {v}" for k, v in sorted(self.verdicts.items())),
            f"dim > 3 records: {self.high_dim}, solved: {self.solved}, "
            f"reused: {self.high_dim - self.solved}",
            f"nontrivial findings: {len(self.nontrivial)}",
        ]
        for rec in self.nontrivial:
            lines.append(
                f"  index {rec['index']}: branch rays {rec['branch_rays']}, dim {rec['dim_pl']}"
            )
        lines.append(f"wall-clock: {self.seconds:.1f}s")
        return "\n".join(lines)


_RECORD_FIELDS = {f.name for f in fields(SweepRecord)}


def _read_cache_prefix(path: str, total: int, nrays: int, d: int,
                       echo=None) -> tuple[int, dict, list]:
    """(records, verdict counts, nontrivial records) of an existing cache;
    refuses anything but a clean index prefix of whole records whose
    profiles fit the sweep: one cycle type of d per ray of the fan.

    An unterminated last line is what a kill mid-write leaves behind: it is
    dropped, and once the rest has passed, the file is truncated to its last
    newline so that the resumed sweep appends after whole records only.  A
    blank line is refused like any other line that is not a record, and a
    record missing a field once every line has passed the index checks.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    whole = data.rfind(b"\n") + 1
    count = 0
    verdicts: dict = {}
    nontrivial = []
    incomplete = None
    for lineno, raw in enumerate(data[:whole].decode(errors="replace").split("\n")[:-1]):
        try:
            rec = json.loads(raw)
            idx = rec["index"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise click.ClickException(
                f"cache corruption at line {lineno + 1}; refusing to resume"
            )
        if idx != count or idx >= total:
            raise click.ClickException(
                f"cache is not a clean index prefix at line {lineno + 1}; refusing to resume"
            )
        count += 1
        if not _RECORD_FIELDS <= rec.keys():
            incomplete = incomplete or lineno + 1
            continue
        profile = rec["profile"]
        if not (isinstance(profile, list) and len(profile) == nrays and all(
                isinstance(p, list) and all(type(k) is int and k > 0 for k in p)
                and sum(p) == d for p in profile)):
            raise click.ClickException(
                f"cache record at line {lineno + 1} does not fit {nrays} rays at "
                f"degree {d}; refusing to resume"
            )
        tag = _summary_tag(rec["verdict"], rec["cert"])
        verdicts[tag] = verdicts.get(tag, 0) + 1
        if rec["verdict"] == "Nontrivial":
            nontrivial.append(rec)
    if incomplete:
        raise click.ClickException(
            f"cache corruption at line {incomplete}; refusing to resume"
        )
    if whole < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(whole)
        if echo:
            echo(f"dropped an unterminated last line of {len(data) - whole} bytes")
    return count, verdicts, nontrivial


_FLUSH_EVERY = 4096


def run_sweep(fan, d: int, jobs: int = 1, cache_path: str | None = None,
              resume: bool = False, echo=None) -> SweepSummary:
    """Sweep every assignment, evaluating one record per conjugacy class.

    Why a class shares its record: conjugating every permutation by one
    g in S_d relabels the sheets, sheet s becoming g(s), so the covers of
    a and a^g are isomorphic over the fan, cell for cell with the same base
    cone and weight.  The isomorphism carries PL functions to PL functions
    with the same functional on corresponding cells, hence the same
    multiset over every cone.  It therefore preserves the PL dimension,
    the wedge summands with their dimensions, and whether every PL function
    is trivial, which are what the ladder's rungs decide on (see
    `system_triviality`): the verdict and its tag are invariants.  So are
    the branch rays and the profile, the orbit lengths of each ray's
    monodromy, and thus every record field except `index`.

    `class_representatives` gives each index the smallest index of its
    class.  The workers evaluate the representatives the run needs in
    increasing order; the parent walks the indices upward and writes each
    one's record from its representative's, with the index filled in.  A
    representative is never larger than the indices of its class, so
    without a resume point each one is evaluated by the time its class is
    first met.  Representatives below a resume point are evaluated again,
    not read from the cache.
    """
    tree = spanning_tree(fan)
    total = count_assignments(fan, d)
    start, verdicts, nontrivial = 0, {}, []
    if cache_path and resume and os.path.exists(cache_path):
        start, verdicts, nontrivial = _read_cache_prefix(
            cache_path, total, len(fan.rays), d, echo)
        if echo:
            echo(f"resuming: {start} records already cached")
    elif cache_path and not resume and os.path.exists(cache_path):
        raise click.ClickException(
            f"cache file {cache_path} exists; pass --resume to continue it"
        )

    t0 = time.perf_counter()
    out = open(cache_path, "a") if cache_path else None
    high_dim = solved = 0
    try:
        if start < total:
            rep = class_representatives(d, tree.generators)
            needed = sorted(set(rep[start:]))
            chunk = max(64, min(4096, len(needed) // (jobs * 8) or 64))
            chunks = [needed[k:k + chunk] for k in range(0, len(needed), chunk)]

            def walk(chunk_results):
                nonlocal high_dim, solved
                pending = zip(needed, chain.from_iterable(chunk_results))
                settled: dict = {}
                for index in range(start, total):
                    r = rep[index]
                    if r not in settled:
                        for got, entry in pending:
                            settled[got] = entry
                            solved += entry[3]
                            if got == r:
                                break
                    head, tail, tag, high = settled[r]
                    line = head + str(index) + tail
                    if out:
                        out.write(line)
                    verdicts[tag] = verdicts.get(tag, 0) + 1
                    high_dim += high
                    if tag == "Nontrivial":
                        nontrivial.append(json.loads(line))
                    emitted = index + 1
                    if out and emitted % _FLUSH_EVERY == 0:
                        out.flush()
                    if echo and emitted % 25000 == 0:
                        echo(f"  ... {emitted}/{total}")

            _WORKER_STATE.update(fan=fan, tree=tree, degree=d)
            if jobs <= 1:
                walk(map(_sweep_chunk, chunks))
            else:
                import multiprocessing

                with multiprocessing.get_context("fork").Pool(jobs) as pool:
                    walk(pool.imap(_sweep_chunk, chunks))
    finally:
        _WORKER_STATE.clear()
        if out:
            out.close()

    return SweepSummary(total, total, verdicts, nontrivial,
                        time.perf_counter() - t0, high_dim, solved)


def branch_census(fan) -> dict:
    """Degree-2 census: branch sets that are nonempty and never contain the
    two rays of a wall, grouped into orbits under the fan's combinatorial
    symmetries.  Orbits are keyed by (set size, orbit size)."""
    tree = spanning_tree(fan)
    wall_pairs = {
        tuple(sorted(fan.cones[w].ray_indices)) for w in fan.walls
    }
    from .monodromy import branch_rays as branch_of

    admissible = set()
    total = count_assignments(fan, 2)
    for i in range(total):
        a = assignment_at(fan, 2, i, tree)
        b = tuple(sorted(branch_of(fan, a, tree)))
        if not b:
            continue
        if any(
            tuple(sorted((x, y))) in wall_pairs
            for k, x in enumerate(b)
            for y in b[k + 1 :]
        ):
            continue
        admissible.add(b)
    autos = combinatorial_automorphisms(fan)
    orbits = []
    remaining = set(admissible)
    while remaining:
        seed = min(remaining)
        orbit = {tuple(sorted(g[i] for i in seed)) for g in autos}
        orbit &= admissible
        remaining -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda o: (len(o[0]), len(o)))
    return {
        "total_assignments": total,
        "admissible": sorted(admissible),
        "orbit_sizes": [len(o) for o in orbits],
        "orbits": orbits,
    }


# ---------------------------------------------------------------------------
# Command groups
# ---------------------------------------------------------------------------


@click.group()
def main():
    """Branched covers of complete fans and their piecewise-linear functions."""


@main.group()
def fan():
    """Fan validation and inspection."""


@fan.command("validate")
@click.argument("source")
def fan_validate(source):
    """Load and validate a fan; report rays, cones, walls, completeness."""
    f = _resolve_fan(source)
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
@click.option("--degree", "-d", type=click.IntRange(min=1), required=True)
@click.option("--classes", is_flag=True, help="count conjugacy classes as well")
@click.option("--branch-report", is_flag=True, help="tabulate degree-2 branch sets")
def covers_enumerate(source, degree, classes, branch_report):
    """Count the monodromy assignments of the given degree."""
    f = _resolve_fan(source)
    total = count_assignments(f, degree)
    click.echo(f"assignments: {total}")
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
@click.option("--degree", "-d", type=click.IntRange(min=1), required=True)
@click.option("--jobs", "-j", type=click.IntRange(min=1), default=None,
              help="worker processes")
@click.option("--cache", type=click.Path(), default=None, help="record file")
@click.option("--resume", is_flag=True, help="skip indices already cached")
@click.option("--expect-trivial", is_flag=True,
              help="exit with status 2 if any nontrivial verdict appears")
def pl_sweep(source, degree, jobs, cache, resume, expect_trivial):
    """Solve and classify every degree-d cover of the fan."""
    f = _resolve_fan(source)
    jobs = jobs or _default_jobs()
    summary = run_sweep(f, degree, jobs=jobs, cache_path=cache, resume=resume,
                        echo=click.echo)
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
    f = _resolve_fan(source)
    if (cover_file is None) == (branch is None):
        raise click.ClickException("pass exactly one of --cover or --branch-rays")
    if branch is not None:
        try:
            rays = [int(x) for x in branch.split(",") if x.strip() != ""]
        except ValueError:
            raise click.ClickException(
                f"--branch-rays takes comma-separated ray indices, got {branch!r}"
            )
        try:
            cover = build_cover(f, assignment_for_branch_set(f, rays))
        except ValueError as exc:
            raise click.ClickException(f"branch rays {rays}: {exc}")
    else:
        try:
            with open(cover_file) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise click.ClickException(f"{cover_file} is not JSON: {exc}")
        except OSError as exc:
            raise click.ClickException(f"cannot read cover {cover_file!r}: {exc.strerror or exc}")
        if not isinstance(data, dict):
            raise click.ClickException(f"{cover_file} does not hold a JSON object")
        if "monodromy" in data:
            try:
                cover = build_cover(f, MonodromyAssignment.from_dict(data["monodromy"]))
            except ValueError as exc:
                raise click.ClickException(f"invalid monodromy in {cover_file}: {exc}")
        else:
            try:
                cover = cover_from_dict(f, data)
            except CoverError as exc:
                raise click.ClickException(f"invalid cover in {cover_file}: {exc}")
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


def _load_bundle_arg(source):
    try:
        return load_bundle(source)
    except FileNotFoundError:
        raise click.ClickException(f"no such bundle: {source!r}")
    except OSError as exc:
        raise click.ClickException(f"cannot read bundle {source!r}: {exc.strerror or exc}")


@bundle.command("verify")
@click.argument("source")
def bundle_verify(source):
    """Check the compatibility of filtration data with its splittings."""
    data, cert = _load_bundle_arg(source)
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
    data, cert = _load_bundle_arg(source)
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
    data, cert = _load_bundle_arg(source)
    if cert is None:
        raise click.ClickException("the cover needs splittings in the bundle file")
    cover, psi = branched_cover_of(data, cert)
    f = data.fan
    branch = sorted(
        f.cones[cover.cells[i].base].ray_indices[0]
        for i in cover.ray_cells
        if cover.cells[i].weight > 1
    )
    click.echo(
        f"degree {cover_degree(cover)} cover, {len(cover.cells)} cells, "
        f"branched over rays {branch}"
    )
    click.echo(f"function trivial: {is_trivial_function(psi)}")


# ---------------------------------------------------------------------------
# Reproduction harness
# ---------------------------------------------------------------------------


def _expected() -> dict:
    from importlib.resources import files

    return json.loads(files("fanbranch.data").joinpath("expected.json").read_text())


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
    branch = sorted(
        f.cones[cover.cells[i].base].ray_indices[0]
        for i in cover.ray_cells
        if cover.cells[i].weight > 1
    )
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
@click.option("--jobs", "-j", type=click.IntRange(min=1), default=None)
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


if __name__ == "__main__":
    main()
