"""The sweep engine of the `fanbranch` command line tool, and its entry point.

Sweeps are deterministic: records are written in assignment-index order and
contain nothing run-dependent, so the cache bytes are identical for any
worker count, and an interrupted run resumes into the same file.

The subcommands themselves (fan validation, cover enumeration with a
branch-set census, sweeps, single-cover solving, bundle operations and the
reproduction harness) are in `fanbranch.commands`.  `main` is loaded from
there on first use, so that importing the engine loads neither the
commands nor `click`.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields
from itertools import chain

from .fan_core import combinatorial_automorphisms
from .fields import is_int, is_int_list, read_json
from .monodromy import class_representatives, count_assignments, orbits_at, spanning_tree
from .pl_group import split_triviality


class CacheError(ValueError):
    """A sweep cache that cannot be resumed or must not be overwritten."""


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
        """The record's cache line, written directly in sorted key order.

        It is the string that `json.dumps` gives for the record's fields
        with `sort_keys=True` and `separators=(",", ":")`, for any record
        whose `index` and `dim_pl` are ints, `branch_rays` a list of ints,
        `profile` a list of lists of ints and (verdict, cert) a pair of
        `_VERDICT_CERTS`, as every record of `evaluate_assignment` is:
        `str` writes an int as `json.dumps` does, and a list with ", "
        between its items, while the pair's strings hold no space and
        nothing to escape; so dropping every space leaves that line.
        """
        return (f'{{"branch_rays":{self.branch_rays},"cert":"{self.cert}",'
                f'"dim_pl":{self.dim_pl},"index":{self.index},"profile":{self.profile},'
                f'"verdict":"{self.verdict}"}}').replace(" ", "")


# The fields of a record line, and the (verdict, cert) pairs it may hold.
_RECORD_FIELDS = frozenset(f.name for f in fields(SweepRecord))
_VERDICT_CERTS = (("AllTrivial", "pullbacks-only"), ("AllTrivial", "wedge-of-pullbacks"),
                  ("AllTrivial", "matched-pattern"), ("Nontrivial", "nontrivial"))


def _record_problem(rec: dict, nrays: int, d: int) -> str | None:
    """Why a record with every field cannot be one of a sweep over `nrays`
    rays at degree d, or None; no check costs a solve."""
    profile, branch, dim, cert = rec["profile"], rec["branch_rays"], rec["dim_pl"], rec["cert"]
    if not (isinstance(profile, list) and len(profile) == nrays and all(
            is_int_list(p, low=1) and sum(p) == d and p == sorted(p, reverse=True)
            for p in profile)):
        return f"does not fit {nrays} rays at degree {d}"
    if not (is_int_list(branch)
            and branch == [ray for ray, p in enumerate(profile) if len(p) < d]):
        return f"has branch rays {branch!r}, which are not those of its profile"
    if (rec["verdict"], cert) not in _VERDICT_CERTS:
        return f"has verdict {rec['verdict']!r} with cert {cert!r}"
    if not (is_int(dim, 3) and (dim == 3) == (cert == "pullbacks-only")
            and (cert != "wedge-of-pullbacks" or dim % 3 == 0)):
        return f"has dim_pl {dim!r} with cert {cert!r}"
    return None


def evaluate_assignment(fan, tree, d: int, index: int) -> SweepRecord:
    """One sweep record, with no cover and no row of the whole values-at-rays
    system built: the cells over each ray are read off the index on the rank
    tables (`orbits_at`), and `split_triviality` runs the whole ladder on one
    elimination of the system's sum-zero part, about half its size.
    """
    orbits = orbits_at(fan, d, index, tree)
    verdict = split_triviality(fan, orbits)
    return SweepRecord(
        index=index,
        branch_rays=orbits.branch_rays,
        profile=orbits.profile,
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
    """Verdict counts over the whole cache; `high_dim` counts its records of
    dim > 3, `solved` the classes of dim > 3 that this run evaluated."""

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


_SIDECAR_SCHEMA = 1


def sidecar_path(cache_path: str) -> str:
    """The file that records which sweep wrote the cache at `cache_path`."""
    return cache_path + ".meta.json"


def _sweep_meta(fan, d: int, tree) -> dict:
    """What a cache's sidecar records of the sweep that wrote it, in the
    order a resume compares the fields.  The records themselves cannot tell
    two sweeps apart: the degree-2 records of `fulton` and `sigma_prime`
    coincide at 127 of 128 indices."""
    return {
        "schema": _SIDECAR_SCHEMA,
        "rays": [list(r) for r in fan.rays],
        "cones": [list(c.ray_indices) for c in fan.max_cones],
        "degree": d,
        "generator_walls": [list(fan.cones[fan.walls[w]].ray_indices)
                            for w in tree.nontree_walls],
    }


def _check_sidecar(cache_path: str, meta: dict) -> None:
    """Refuse a cache whose sidecar is missing, unreadable, or names another
    sweep, by the first field whose JSON text differs (so `true` or `1.0`
    does not pass for `1`), or by a key that no sweep writes."""
    path = sidecar_path(cache_path)
    found = read_json(path, "sidecar", CacheError)
    for key, value in meta.items():
        if json.dumps(found.get(key)) != json.dumps(value):
            raise CacheError(f"sidecar {path} differs from this sweep in {key!r}")
    for key in (key for key in found if key not in meta):
        raise CacheError(f"sidecar {path} holds {key!r}, which no sweep writes")


def _read_cache_prefix(path: str, total: int, nrays: int, d: int, meta: dict,
                       echo=None) -> tuple[int, dict, list, int]:
    """(records, verdict counts, nontrivial records, records of dim > 3) of
    an existing cache; refuses anything but a clean index prefix of whole
    records that pass `_record_problem`, and then a sidecar that does not
    match `meta`; `run_sweep` adds "; refusing to resume" to each refusal.

    An unterminated last line is what a kill mid-write leaves behind: it is
    dropped, and once the rest and the sidecar have passed, the file is
    truncated to its last newline so that the resumed sweep appends after
    whole records only.  A blank line is refused like any other line that
    is not a record, and a record missing a field, or holding another,
    once every line has passed the index checks.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    whole = data.rfind(b"\n") + 1
    count = high_dim = 0
    verdicts: dict = {}
    nontrivial = []
    incomplete = None
    for lineno, raw in enumerate(data[:whole].decode(errors="replace").split("\n")[:-1]):
        try:
            rec = json.loads(raw)
            idx = rec["index"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise CacheError(f"cache corruption at line {lineno + 1}")
        if not is_int(idx) or idx != count or idx >= total:
            raise CacheError(f"cache is not a clean index prefix at line {lineno + 1}")
        count += 1
        if rec.keys() != _RECORD_FIELDS:
            incomplete = incomplete or lineno + 1
            continue
        problem = _record_problem(rec, nrays, d)
        if problem:
            raise CacheError(f"cache record at line {lineno + 1} {problem}")
        tag = _summary_tag(rec["verdict"], rec["cert"])
        verdicts[tag] = verdicts.get(tag, 0) + 1
        high_dim += rec["dim_pl"] > 3
        if rec["verdict"] == "Nontrivial":
            nontrivial.append(rec)
    if incomplete:
        raise CacheError(f"cache corruption at line {incomplete}")
    _check_sidecar(path, meta)
    if whole < len(data):
        with open(path, "r+b") as fh:
            fh.truncate(whole)
        if echo:
            echo(f"dropped an unterminated last line of {len(data) - whole} bytes")
    return count, verdicts, nontrivial, high_dim


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

    A new cache gets a sidecar (`sidecar_path`) naming the sweep, written
    before the first record, and a resume refuses a cache whose sidecar
    does not name this one, leaving both files as they are.
    """
    tree = spanning_tree(fan)
    total = count_assignments(fan, d)
    start, verdicts, nontrivial, high_dim = 0, {}, [], 0
    if cache_path and os.path.exists(cache_path):
        if not resume:
            raise CacheError(
                f"cache file {cache_path} exists; pass --resume to continue it"
            )
        try:
            start, verdicts, nontrivial, high_dim = _read_cache_prefix(
                cache_path, total, len(fan.rays), d, _sweep_meta(fan, d, tree), echo)
        except CacheError as exc:
            raise CacheError(f"{exc}; refusing to resume") from None
        if echo:
            echo(f"resuming: {start} records already cached")
    elif cache_path:
        with open(sidecar_path(cache_path), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(_sweep_meta(fan, d, tree), separators=(",", ":")) + "\n")

    t0 = time.perf_counter()
    out = open(cache_path, "a") if cache_path else None
    solved = 0
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
    admissible = set()
    total = count_assignments(fan, 2)
    for i in range(total):
        b = tuple(orbits_at(fan, 2, i, tree).branch_rays)
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


def __getattr__(name):
    if name == "main":
        from .commands import main

        return main
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    from fanbranch.commands import main

    main()
