"""Malformed input files never end in a traceback.

A valid file of each input format -- a fan, a cover given by its cells, a
cover given by its monodromy, a bundle, a line of a sweep cache and the
cache's sidecar -- is mutated at one place and run through the command line
in process; a sweep cache and its sidecar through `pl sweep --resume`.
Every run exits 0, or exits 1 with exactly one line, which starts with
`Error:` (`bundle verify` may instead report a violation, its verdict).  A
mutation that keeps every value (key order, whitespace, `"n/1"` for an
integer n where rationals are allowed) gives byte-identical output, apart
from a sweep's wall-clock line.  A PL function's dict, which no command
reads, is mutated the same way and read by `PLFunction.from_dict`: it is
read, or refused by a one-line `PLError`, and a mutation that keeps every
value reads the same function.  Seeds are fixed (`derandomize`).

A rational in a file is an exact int or an ASCII string "p" or "p/q" with q
nonzero.  Strings that `Fraction` would read otherwise, or fail on, are
refused with the reader's message by the bundle loader through the command
line and by `PLFunction.from_dict`, which no command reads.
"""

import copy
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from fanbranch.cli import _sweep_meta, evaluate_assignment, main, sidecar_path
from fanbranch.cover_poset import cover_from_dict, cover_to_dict
from fanbranch.fan_core import load_fan
from fanbranch.monodromy import (
    assignment_at,
    assignment_for_branch_set,
    build_cover,
    spanning_tree,
)
from fanbranch.pl_group import PLError, PLFunction, solve

DATA = Path(__file__).resolve().parents[1] / "src" / "fanbranch" / "data"
FILE = "<file>"  # stands for the mutated file's path in a command
BIG = 10**39 + 7  # a 40-digit integer
RESUME = ["pl", "sweep", "fulton", "-d", "2", "--jobs", "1", "--cache", FILE, "--resume"]
FULTON = load_fan("fulton")
# the first five records of a fulton degree-2 sweep; the last, a
# matched-pattern record with two branch rays, is the mutated cache line
RECORDS = [evaluate_assignment(FULTON, spanning_tree(FULTON), 2, i).to_json() for i in range(5)]
SIDECAR = _sweep_meta(FULTON, 2, spanning_tree(FULTON))


def _fixtures() -> dict:
    fulton = FULTON
    cells = cover_to_dict(build_cover(fulton, assignment_for_branch_set(fulton, [0, 2, 5, 7])))
    solve = ["pl", "solve", "fulton", "--cover", FILE]
    return {
        "fan": (json.loads((DATA / "fulton.fan.json").read_text()),
                [["fan", "validate", FILE], ["pl", "solve", FILE, "--branch-rays", "0,2,5,7"]]),
        "cells cover": (cells, [solve]),
        "monodromy cover": (
            {"fan": "fulton", "monodromy": assignment_at(fulton, 3, 1234).to_dict()}, [solve]),
        "bundle": (json.loads((DATA / "eikelberg.bundle.json").read_text()),
                   [["bundle", command, FILE] for command in ("verify", "chern", "cover")]),
        "cache line": (json.loads(RECORDS[-1]), [RESUME]),
        "sidecar": (SIDECAR, [RESUME]),
    }


FIXTURES = _fixtures()


def _files(name: str, text: str) -> tuple:
    """(the input file, its sidecar) holding `text` as fixture `name`'s content."""
    if name == "cache line":
        return "\n".join([*RECORDS[:-1], text]) + "\n", json.dumps(SIDECAR)
    if name == "sidecar":
        return "\n".join(RECORDS) + "\n", text
    return text, None


def _nodes(value, path=()):
    yield path, value
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _nodes(child, (*path, key))


def _mutations(content) -> list[tuple]:
    """Every (path, kind, argument) that changes one place of `content`."""
    out = []
    for path, node in _nodes(content):
        if isinstance(node, dict):
            out += [(path, "drop", key) for key in node] + [(path, "add", "unknown")]
        elif isinstance(node, list):
            out += [(path, "append", 0)] + [(path, "pop", None)] * bool(node)
            out += [(path, "duplicate", i) for i in range(len(node))]
        elif type(node) is int:
            out += [(path, "replace", x) for x in (node + 0.0, True, str(node), None, BIG, -1, 99)]
    return out


def _mutated(content, path, kind, argument):
    content = copy.deepcopy(content)
    *parents, last = path or (None,)
    parent = content
    for key in parents:
        parent = parent[key]
    node = parent[last] if path else content
    if kind == "drop":
        del node[argument]
    elif kind == "add":
        node[argument] = 1
    elif kind == "append":
        node.append(argument)
    elif kind == "pop":
        node.pop()
    elif kind == "duplicate":
        node.insert(argument, copy.deepcopy(node[argument]))
    else:
        parent[last] = argument
    return content


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    runner = CliRunner()
    path = tmp_path_factory.mktemp("mutants") / "input.json"

    def run(files: tuple, command: list[str]):
        text, sidecar = files
        path.write_text(text)
        if sidecar is not None:
            Path(sidecar_path(str(path))).write_text(sidecar)
        return runner.invoke(main, [str(path) if arg == FILE else arg for arg in command])
    return run


def _check_outcome(result, command):
    assert result.exception is None or isinstance(result.exception, SystemExit), \
        result.exception
    if result.exit_code == 0:
        return
    assert result.exit_code == 1, result.output
    if command[:2] == ["bundle", "verify"] and not result.output.startswith("Error:"):
        assert result.output.startswith(("violation at ", "no splittings given")), result.output
        return
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1, \
        result.output


@pytest.mark.parametrize("name", sorted(FIXTURES))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutant_fails_in_one_line_or_runs(run, name, data):
    content, commands = FIXTURES[name]
    mutant = _mutated(content, *data.draw(st.sampled_from(_mutations(content))))
    for command in commands:
        _check_outcome(run(_files(name, json.dumps(mutant)), command), command)


def _reordered(value):
    if isinstance(value, dict):
        return {key: _reordered(value[key]) for key in reversed(list(value))}
    return [_reordered(v) for v in value] if isinstance(value, list) else value


def _as_fractions(bundle):
    """The bundle with every integer subspace entry n written as "n/1"."""
    bundle = copy.deepcopy(bundle)
    for section in ("filtrations", "splittings"):
        for entries in bundle[section].values():
            for entry in entries:
                entry["subspace"] = [[f"{x}/1" for x in row] for row in entry["subspace"]]
    return bundle


def _timeless(output: str) -> str:
    return re.sub(r"(?m)^wall-clock: .*$", "wall-clock:", output)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_value_keeping_mutant_gives_identical_output(run, name):
    content, commands = FIXTURES[name]
    # a cache record is one line: spaces, but no line break
    layout = {"indent": None, "separators": (", ", ": ")} if name == "cache line" \
        else {"indent": 3}
    same = [json.dumps(_reordered(content)), json.dumps(content, **layout)]
    if name == "bundle":
        same.append(json.dumps(_as_fractions(content)))
    for command in commands:
        expected = run(_files(name, json.dumps(content, separators=(",", ":"))), command)
        assert expected.exit_code == 0, expected.output
        for text in same:
            result = run(_files(name, text), command)
            assert (result.exit_code, _timeless(result.output)) == \
                (0, _timeless(expected.output))


def _equal_value_mutants(content) -> list:
    """`content` with one int replaced by its float, one 1 by true, or one
    key added: each keeps every value equal under Python's `==`."""
    out = [_mutated(content, (), "add", "unknown")]
    for path, node in _nodes(content):
        if type(node) is int:
            out.append(_mutated(content, path, "replace", float(node)))
            if node == 1:
                out.append(_mutated(content, path, "replace", True))
    return out


def test_sidecar_with_an_equal_but_other_value_refused(run):
    # each of these used to resume, the sidecar compared by `==`
    mutants = _equal_value_mutants(SIDECAR)
    assert len(mutants) > 40
    for mutant in mutants:
        result = run(_files("sidecar", json.dumps(mutant)), RESUME)
        assert result.exit_code == 1, json.dumps(mutant)
        assert result.output.startswith("Error: sidecar ") and result.output.count("\n") == 1, \
            result.output


def test_every_fixture_is_mutated_at_every_kind():
    for content, _ in FIXTURES.values():
        kinds = {(kind, type(argument)) for _, kind, argument in _mutations(content)}
        assert {"drop", "add", "append", "pop", "duplicate", "replace"} <= \
            {kind for kind, _ in kinds}
        assert {float, bool, str, type(None), int} <= \
            {kind_type for kind, kind_type in kinds if kind == "replace"}


# Not rationals of a file, though `Fraction` reads the first six (the last
# one a non-ASCII digit 3) and fails on "1/0" with ZeroDivisionError.
NOT_RATIONAL = ["1.5", "1e3", "1_000", " 3/2 ", "+2", "\u0663", "3/-2", "1/0"]


@pytest.mark.parametrize("text", NOT_RATIONAL, ids=ascii)
def test_bundle_entry_not_a_rational_string_refused(run, text):
    content, commands = FIXTURES["bundle"]
    bundle = copy.deepcopy(content)
    rows = bundle["filtrations"]["1"][1]["subspace"]
    rows[0][0] = text
    for command in commands:
        result = run((json.dumps(bundle), None), command)
        assert result.exit_code == 1
        assert result.output.startswith("Error: invalid bundle: ")
        assert result.output.endswith(
            f": filtration of ray '1': subspace {rows!r} is not a list of rows of 2 integers "
            "or 'p/q' strings\n")


@pytest.fixture(scope="module")
def pl_blob():
    cover = cover_from_dict(load_fan("fulton"), FIXTURES["cells cover"][0])
    return cover, solve(cover).pullbacks[1].to_dict()


@pytest.mark.parametrize("text", NOT_RATIONAL, ids=ascii)
def test_pl_function_entry_not_a_rational_string_refused(pl_blob, text):
    cover, blob = pl_blob
    blob = copy.deepcopy(blob)
    blob["cells"][1]["u"][0] = text
    with pytest.raises(PLError, match=f"^cell entry 1: entry {re.escape(repr(text))} "
                                      r"is not an int or a 'p/q' string$"):
        PLFunction.from_dict(cover, blob)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_pl_function_mutant_read_or_refused_in_one_line(pl_blob, data):
    cover, blob = pl_blob
    mutant = _mutated(blob, *data.draw(st.sampled_from(_mutations(blob))))
    try:
        PLFunction.from_dict(cover, json.loads(json.dumps(mutant)))
    except PLError as exc:
        assert str(exc) and "\n" not in str(exc)


def test_pl_function_value_keeping_mutant_reads_the_same(pl_blob):
    cover, blob = pl_blob
    f = PLFunction.from_dict(cover, blob)
    for same in (_reordered(blob), json.loads(json.dumps(blob, indent=3))):
        g = PLFunction.from_dict(cover, same)
        assert (g.cell_values, g.ray_values) == (f.cell_values, f.ray_values)


def test_pl_function_rational_strings_keep_their_values(pl_blob):
    cover, blob = pl_blob
    f = PLFunction.from_dict(cover, blob)
    written = copy.deepcopy(blob)
    for cell in written["cells"]:
        cell["u"] = [f"{2 * x}/2" if type(x) is int else x for x in cell["u"]]
    g = PLFunction.from_dict(cover, written)
    assert (g.cell_values, g.ray_values) == (f.cell_values, f.ray_values)
