"""Sweep records shared across a conjugacy class of assignments.

A sweep evaluates one record per class, at the class's smallest index, and
writes it for every index of the class (simultaneous conjugates give
isomorphic covers).  The digest pins the full eikelberg degree-3 cache as
the sweep wrote it when every record was solved.
"""

import errno
import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from functools import lru_cache
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fanbranch import cli
from fanbranch.cli import evaluate_assignment, main, run_sweep, sidecar_path
from fanbranch.fan_core import load_fan
from fanbranch.monodromy import (
    MonodromyAssignment,
    Permutation,
    all_permutations,
    assignment_at,
    canonical_class,
    class_representatives,
    count_assignments,
    spanning_tree,
)

EIKELBERG_DEG3_CACHE_SHA256 = "536b3f7efd36972ef2b49d3f278a06b97fa13243777a84e8287e434ca25d7779"
EIKELBERG_DEG3_HIGH_DIM = 1840


@lru_cache(maxsize=None)
def _fan(name):
    fan = load_fan(name)
    return fan, spanning_tree(fan)


def _sweep(cache, jobs, *extra):
    result = CliRunner().invoke(
        main,
        ["pl", "sweep", "eikelberg", "-d", "3", "--jobs", str(jobs), "--cache", str(cache),
         *extra],
    )
    assert result.exit_code == 0, result.output
    return result.output


def _class_line(output) -> tuple[int, int, int]:
    line = next(x for x in output.splitlines() if x.startswith("dim > 3 records: "))
    fields = dict(part.split(": ") for part in line.split(", "))
    return (int(fields["dim > 3 records"]), int(fields["solved"]), int(fields["reused"]))


@pytest.mark.parametrize("jobs", [1, 2])
def test_eikelberg_degree3_cache_pinned(tmp_path, jobs):
    """The shared records leave the cache byte for byte as it was; each
    class of dim > 3 records is solved once at any --jobs, and the counts
    reach stdout only."""
    cache = tmp_path / "eik3.jsonl"
    output = _sweep(cache, jobs)
    data = cache.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EIKELBERG_DEG3_CACHE_SHA256
    assert b"solved" not in data and b"reused" not in data
    assert not cli._WORKER_STATE
    fan, tree = _fan("eikelberg")
    classes = {
        tuple(p.images for p in canonical_class(assignment_at(fan, 3, rec["index"], tree)).perms)
        for rec in map(json.loads, data.decode().splitlines())
        if rec["dim_pl"] > 3
    }
    high_dim, solved, reused = _class_line(output)
    assert high_dim == EIKELBERG_DEG3_HIGH_DIM and solved + reused == high_dim
    assert solved == len(classes) == 333


def test_resume_starts_a_fresh_memo(tmp_path):
    """A resumed sweep writes the same bytes, counts the records of dim > 3
    over the whole cache, and solves only the classes of its own records."""
    cache = tmp_path / "eik3.jsonl"
    _sweep(cache, 2)
    data = cache.read_bytes()
    lines = data.split(b"\n")
    cut = sum(len(x) + 1 for x in lines[:5000])
    cache.write_bytes(data[:cut])
    rep = class_representatives(3, _fan("eikelberg")[1].generators)
    classes_left = {rep[i] for i, x in enumerate(lines[5000:], 5000)
                    if x and json.loads(x)["dim_pl"] > 3}
    output = _sweep(cache, 2, "--resume")
    assert cache.read_bytes() == data
    high_dim = EIKELBERG_DEG3_HIGH_DIM
    assert _class_line(output) == (high_dim, len(classes_left), high_dim - len(classes_left))


def _summary(output) -> list[str]:
    """The summary lines that hold counts over the whole cache."""
    return [x for x in output.splitlines()
            if x.startswith(("assignments processed", "verdicts:", "nontrivial findings", "  index "))]


def test_resume_at_an_index_whose_representative_is_cached(tmp_path):
    """A cut above its own class's representative re-evaluates that
    representative: the bytes, the dim > 3 records and the summary over the
    whole cache come out as in a fresh sweep, and only the classes of the
    records after the cut are solved."""
    fresh_cache = tmp_path / "fresh.jsonl"
    fresh = _sweep(fresh_cache, 2)
    data = fresh_cache.read_bytes()
    assert hashlib.sha256(data).hexdigest() == EIKELBERG_DEG3_CACHE_SHA256
    records = [json.loads(x) for x in data.decode().splitlines()]
    _, tree = _fan("eikelberg")
    rep = class_representatives(3, tree.generators)
    cut = next(i for i in range(len(records) // 2, len(records))
               if rep[i] < i and records[i]["dim_pl"] > 3)
    cache = tmp_path / "resumed.jsonl"
    whole = sum(len(x) + 1 for x in data.split(b"\n")[:cut])
    cache.write_bytes(data[:whole + 25])  # torn 25 bytes into record `cut`
    shutil.copy(sidecar_path(str(fresh_cache)), sidecar_path(str(cache)))
    resumed = _sweep(cache, 2, "--resume")
    assert f"resuming: {cut} records already cached" in resumed
    assert cache.read_bytes() == data
    left = [rec["index"] for rec in records[cut:] if rec["dim_pl"] > 3]
    classes_left = len({rep[i] for i in left})
    high_dim = EIKELBERG_DEG3_HIGH_DIM
    assert _class_line(resumed) == (high_dim, classes_left, high_dim - classes_left)
    assert _summary(resumed) == _summary(fresh)
    assert len(_summary(fresh)) == 3 + 648


@pytest.mark.parametrize("name, d", [("fulton", 2), ("eikelberg", 3)])
def test_class_indexed_cache_equals_per_index_records(tmp_path, name, d):
    """Every line the sweep writes from its class's record is the line
    `evaluate_assignment` gives for that index on its own."""
    fan, _ = _fan(name)
    cache = tmp_path / "sweep.jsonl"
    run_sweep(fan, d, jobs=2, cache_path=str(cache))
    cases = [(name, d, i) for i in range(count_assignments(fan, d))]
    with multiprocessing.get_context("fork").Pool(2) as pool:
        reference = pool.map(_per_index_line, cases, chunksize=256)
    assert cache.read_text() == "".join(reference)


def _per_index_line(case) -> str:
    name, d, index = case
    fan, tree = _fan(name)
    return evaluate_assignment(fan, tree, d, index).to_json() + "\n"


def _index_of(a: MonodromyAssignment) -> int:
    position = {p.images: k for k, p in enumerate(all_permutations(a.degree))}
    index = 0
    for p in a.perms:
        index = index * len(position) + position[p.images]
    return index


@pytest.mark.parametrize("name, d", [("fulton", 2), ("eikelberg", 3)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_conjugate_records_agree_but_for_index(name, d, data):
    """The records of a and of a^g agree on every field but `index`: the
    invariance that sharing a record across a class rests on."""
    fan, tree = _fan(name)
    index = data.draw(st.integers(0, count_assignments(fan, d) - 1), label="index")
    g = Permutation(data.draw(st.permutations(range(d)), label="g"))
    a = assignment_at(fan, d, index, tree)
    conjugate = MonodromyAssignment(d, tuple(p.conjugate(g) for p in a.perms))
    other = _index_of(conjugate)
    assert assignment_at(fan, d, other, tree) == conjugate
    mine = json.loads(evaluate_assignment(fan, tree, d, index).to_json())
    theirs = json.loads(evaluate_assignment(fan, tree, d, other).to_json())
    event(f"dim {mine['dim_pl']}")
    assert mine.pop("index") == index and theirs.pop("index") == other
    assert mine == theirs


# -- A sweep that stops early: each fault ends it at once on whole records,
# -- and a resume writes the pinned cache.

SIGMA_PRIME_DEG3_CACHE_SHA256 = "bcc117809b5034804373d7ac9a7e55e77f9f0889591382a03351ad37169b9018"
RESUMABLE = "the cache holds them, and --resume continues it"


def _whole_records(cache) -> int:
    """The number of records in `cache`, which must be whole and in index order."""
    data = cache.read_bytes()
    assert not data or data.endswith(b"\n")
    lines = data.decode().splitlines()
    assert [json.loads(x)["index"] for x in lines] == list(range(len(lines)))
    return len(lines)


def _resume_writes_the_pin(cache, name="eikelberg", d=3):
    summary = run_sweep(load_fan(name), d, jobs=2, cache_path=str(cache), resume=True)
    pin = EIKELBERG_DEG3_CACHE_SHA256 if name == "eikelberg" else SIGMA_PRIME_DEG3_CACHE_SHA256
    assert hashlib.sha256(cache.read_bytes()).hexdigest() == pin
    return summary


def _fault_at(monkeypatch, first_index, fault):
    """Make the forked workers, and only them, call `fault` on reaching a
    representative at or above `first_index`."""
    parent = os.getpid()
    real = cli.evaluate_assignment

    def evaluate(fan, tree, d, index):
        if index >= first_index and os.getpid() != parent:
            fault()
        return real(fan, tree, d, index)

    monkeypatch.setattr(cli, "evaluate_assignment", evaluate)


@pytest.mark.parametrize("first_index", [0, 2000], ids=["first-chunk", "later-chunk"])
def test_lost_worker_ends_the_sweep_with_one_error_line(tmp_path, monkeypatch, first_index):
    """A worker that exits (as one killed for memory would) breaks the pool:
    the sweep used to wait for its chunk for ever."""
    cache = tmp_path / "eik3.jsonl"
    _fault_at(monkeypatch, first_index, lambda: os._exit(3))
    t0 = time.perf_counter()
    result = CliRunner().invoke(
        main, ["pl", "sweep", "eikelberg", "-d", "3", "--jobs", "2", "--cache", str(cache)])
    assert time.perf_counter() - t0 < 5
    assert result.exit_code == 1
    written = _whole_records(cache)
    assert result.output == (f"Error: a worker process was lost after {written} records; "
                             f"{RESUMABLE}\n")
    assert written < first_index or written == first_index == 0
    assert not multiprocessing.active_children()
    monkeypatch.undo()
    _resume_writes_the_pin(cache)


def test_interrupt_in_a_worker_ends_the_sweep(tmp_path, monkeypatch):
    """A `KeyboardInterrupt` raised in a worker reaches the caller at once,
    with the cache closed on whole records and the pool gone."""
    cache = tmp_path / "eik3.jsonl"

    def interrupt():
        raise KeyboardInterrupt

    _fault_at(monkeypatch, 2000, interrupt)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_sweep(load_fan("eikelberg"), 3, jobs=2, cache_path=str(cache))
    assert time.perf_counter() - t0 < 5
    assert 0 < _whole_records(cache) <= 2000
    assert not multiprocessing.active_children() and not cli._WORKER_STATE
    monkeypatch.undo()
    _resume_writes_the_pin(cache)


class _FullDisk:
    """A cache file whose writes fail with ENOSPC after `room` lines."""

    def __init__(self, fh, room):
        self.fh, self.room = fh, room

    def write(self, line):
        if not self.room:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.room -= 1
        return self.fh.write(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("jobs", [1, 2])
def test_full_disk_ends_the_sweep_with_one_error_line(tmp_path, monkeypatch, jobs):
    cache = tmp_path / "eik3.jsonl"
    monkeypatch.setattr(cli, "open", lambda path, mode="r", **kw: (
        _FullDisk(open(path, mode, **kw), 1000) if mode == "a" else open(path, mode, **kw)),
        raising=False)
    t0 = time.perf_counter()
    result = CliRunner().invoke(
        main, ["pl", "sweep", "eikelberg", "-d", "3", "--jobs", str(jobs), "--cache", str(cache)])
    assert time.perf_counter() - t0 < 5
    assert result.exit_code == 1
    assert result.output == (f"Error: cannot write {str(cache)!r}: No space left on device "
                             f"after 1000 records; {RESUMABLE}\n")
    assert _whole_records(cache) == 1000
    monkeypatch.undo()
    _resume_writes_the_pin(cache)


def test_sigint_to_the_process_group_leaves_a_resumable_cache(tmp_path):
    """Ctrl-C at a terminal: SIGINT reaches the parent and every worker."""
    cache = tmp_path / "sigma3.jsonl"
    root = Path(__file__).resolve().parents[1]
    sweep = subprocess.Popen(
        [sys.executable, "-m", "fanbranch.cli", "pl", "sweep", "sigma_prime", "-d", "3",
         "--jobs", "2", "--cache", str(cache)],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        deadline = time.perf_counter() + 60
        while not (cache.exists() and cache.stat().st_size) and time.perf_counter() < deadline:
            assert sweep.poll() is None
            time.sleep(0.02)
        os.killpg(sweep.pid, signal.SIGINT)
        t0 = time.perf_counter()
        sweep.communicate(timeout=10)
        assert time.perf_counter() - t0 < 5
    finally:
        if sweep.poll() is None:
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.wait()
    assert sweep.returncode == 1
    assert 0 < _whole_records(cache) < 279936
    assert _resume_writes_the_pin(cache, "sigma_prime", 3).processed == 279936
