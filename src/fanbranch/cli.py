"""The sweep engine of the `fanbranch` command line tool, and its entry point.

Sweeps are deterministic: records are written in assignment-index order and
contain nothing run-dependent, so the cache bytes are identical for any
worker count.  A sweep that stops early, on an interrupt, a lost worker or a
write that fails, leaves whole records that `--resume` continues.

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
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from itertools import chain, combinations

from .fan_core import combinatorial_automorphisms
from .fields import is_int, is_int_list, read_json
from .monodromy import class_representatives, count_assignments, orbits_at, spanning_tree
from .pl_group import split_triviality


class CacheError(ValueError):
    """A sweep cache that cannot be resumed, overwritten or written, or a lost worker."""


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


# One sweep's (fan, tree, degree) under "sweep"; forked workers inherit it.
_WORKER_STATE: dict = {}

_INDEX_KEY = '"index":'


def _sweep_chunk(reps: list[int]) -> list[tuple[str, str, str, bool]]:
    """For each class representative, its record line cut around the index
    value (the line of any index of the class is head + index + tail), its
    summary tag, and whether its dimension exceeds 3."""
    fan, tree, d = _WORKER_STATE["sweep"]
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
    """The tally of a sweep over its whole cache, fed by `add` alone;
    `high_dim` counts its records of dim > 3, `solved` the classes of
    dim > 3 that this run evaluated."""

    total: int
    verdicts: dict = field(default_factory=dict)
    nontrivial: list = field(default_factory=list)
    high_dim: int = 0
    solved: int = 0
    seconds: float = 0.0

    @property
    def processed(self) -> int:
        return sum(self.verdicts.values())

    def add(self, line: str, tag: str, high: bool) -> None:
        """Count one record by its summary tag and dim > 3; keep it as a dict if Nontrivial."""
        self.verdicts[tag] = self.verdicts.get(tag, 0) + 1
        self.high_dim += high
        if tag == "Nontrivial":
            self.nontrivial.append(json.loads(line))

    def describe(self) -> str:
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(self.verdicts.items()))
        lines = [f"assignments processed: {self.processed} / {self.total}", f"verdicts: {counts}",
                 f"dim > 3 records: {self.high_dim}, solved: {self.solved}, "
                 f"reused: {self.high_dim - self.solved}",
                 f"nontrivial findings: {len(self.nontrivial)}"]
        lines += [f"  index {rec['index']}: branch rays {rec['branch_rays']}, dim {rec['dim_pl']}"
                  for rec in self.nontrivial]
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


def _read_cache_prefix(path: str, tally: SweepSummary, nrays: int, d: int, meta: dict,
                       echo=None) -> None:
    """Add the records of an existing cache to an empty `tally`; refuses
    anything but a clean index prefix of whole records that pass
    `_record_problem`, and then a sidecar that does not match `meta`;
    `run_sweep` adds "; refusing to resume" to each refusal.

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
    incomplete = None
    for lineno, raw in enumerate(data[:whole].decode(errors="replace").split("\n")[:-1]):
        try:
            rec = json.loads(raw)
            idx = rec["index"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise CacheError(f"cache corruption at line {lineno + 1}")
        if not is_int(idx) or idx != lineno or idx >= tally.total:
            raise CacheError(f"cache is not a clean index prefix at line {lineno + 1}")
        if rec.keys() != _RECORD_FIELDS:
            incomplete = incomplete or lineno + 1
            continue
        problem = _record_problem(rec, nrays, d)
        if problem:
            raise CacheError(f"cache record at line {lineno + 1} {problem}")
        tally.add(raw, _summary_tag(rec["verdict"], rec["cert"]), rec["dim_pl"] > 3)
    if incomplete:
        raise CacheError(f"cache corruption at line {incomplete}")
    _check_sidecar(path, meta)
    if whole < len(data):
        os.truncate(path, whole)
        if echo:
            echo(f"dropped an unterminated last line of {len(data) - whole} bytes")


def _records(rep, start: int, tally: SweepSummary, map_, jobs: int):
    """A sweep's record stream from index `start` up: (index, line, summary
    tag, dim > 3), each line read off its representative's with the index
    filled in.  `map_` evaluates the representatives that the stream needs,
    in increasing order and in chunks sized for `jobs` workers, and
    `tally.solved` counts those of dim > 3."""
    needed = sorted(set(rep[start:]))
    chunk = max(64, min(4096, len(needed) // (jobs * 8) or 64))
    chunks = [needed[k:k + chunk] for k in range(0, len(needed), chunk)]
    pending = zip(needed, chain.from_iterable(map_(_sweep_chunk, chunks)))
    settled: dict = {}
    for index in range(start, len(rep)):
        r = rep[index]
        if r not in settled:
            for got, entry in pending:
                settled[got] = entry
                tally.solved += entry[3]
                if got == r:
                    break
        head, tail, tag, high = settled[r]
        yield index, head + str(index) + tail, tag, high


@contextmanager
def _pool_map(jobs: int):
    """The `map` of a pool of `jobs` forked workers, whose queued chunks are
    cancelled however the sweep ends; a lost worker breaks the pool, and is refused."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(jobs, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool.map
    except BrokenProcessPool:
        raise CacheError("a worker process was lost") from None
    finally:
        pool.shutdown(cancel_futures=True)


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
    class, which is never larger than the indices of its class; so the
    stream of `_records` has evaluated it by the time the class is first
    met, unless it lies below a resume point, and then it is evaluated
    again.  One loop writes each line of the stream to the cache (or to a
    null sink) and adds it to the tally, which a resume has fed the cached
    records; `--jobs` picks only the `map` the stream is given.

    A new cache gets a sidecar (`sidecar_path`) naming the sweep, written
    before the first record, and a resume refuses a cache whose sidecar
    does not name this one, leaving both files as they are.  A lost worker
    or a file that cannot be opened or written ends the sweep with a
    `CacheError`, and an interrupt passes through; either way the cache
    is closed on whole records first, and `--resume` continues it.
    """
    tree = spanning_tree(fan)
    tally = SweepSummary(count_assignments(fan, d))
    try:
        if cache_path and os.path.exists(cache_path):
            if not resume:
                raise CacheError(f"cache file {cache_path} exists; pass --resume to continue it")
            try:
                _read_cache_prefix(cache_path, tally, len(fan.rays), d,
                                   _sweep_meta(fan, d, tree), echo)
            except CacheError as exc:
                raise CacheError(f"{exc}; refusing to resume") from None
            if echo:
                echo(f"resuming: {tally.processed} records already cached")
        elif cache_path:
            with open(sidecar_path(cache_path), "w", encoding="utf-8") as fh:
                fh.write(json.dumps(_sweep_meta(fan, d, tree), separators=(",", ":")) + "\n")
    except OSError as exc:
        raise CacheError(f"cannot open {exc.filename!r}: {exc.strerror}") from None

    t0 = time.perf_counter()
    start = tally.processed
    rep = class_representatives(d, tree.generators) if start < tally.total else []
    mapper = nullcontext(map) if jobs <= 1 else _pool_map(jobs)
    _WORKER_STATE["sweep"] = fan, tree, d
    try:
        with mapper as map_, open(cache_path or os.devnull, "a", encoding="utf-8") as out:
            for index, line, tag, high in _records(rep, start, tally, map_, jobs):
                out.write(line)
                tally.add(line, tag, high)
                if echo and (index + 1) % 25000 == 0:
                    echo(f"  ... {index + 1}/{tally.total}")
    except (OSError, CacheError) as exc:  # the cache file's, or the pool's lost worker
        reason = (exc if isinstance(exc, CacheError)
                  else f"cannot write {cache_path!r}: {exc.strerror or exc}")
        resumable = "; the cache holds them, and --resume continues it" if cache_path else ""
        raise CacheError(f"{reason} after {tally.processed} records{resumable}") from None
    finally:
        _WORKER_STATE.clear()
    tally.seconds = time.perf_counter() - t0
    return tally


def branch_census(fan) -> dict:
    """Degree-2 census: branch sets that are nonempty and never contain the
    two rays of a wall, grouped into orbits under the fan's combinatorial
    symmetries.  Orbits are keyed by (set size, orbit size)."""
    tree = spanning_tree(fan)
    wall_pairs = {tuple(sorted(fan.cones[w].ray_indices)) for w in fan.walls}
    admissible = set()
    total = count_assignments(fan, 2)
    for i in range(total):
        b = tuple(orbits_at(fan, 2, i, tree).branch_rays)  # increasing, so are its pairs
        if b and wall_pairs.isdisjoint(combinations(b, 2)):
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
