"""One rule per kind of input field, in one module.

`fanbranch.fields` decides whether a field is an exact integer, a list of
them, a rational built in Python, an integer value or a record with its
keys, and it is the one reader of a JSON file.  A guard scans `src/` so
that no other module decides these for itself again.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from fanbranch import fields
from fanbranch.fields import (
    is_int,
    is_int_list,
    is_integer_row,
    is_rational_row,
    missing_key,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "fanbranch"
NOT_INTS = [True, False, 2.0, Fraction(2), "2", None]


@pytest.mark.parametrize("x", NOT_INTS, ids=repr)
def test_an_exact_int_is_no_bool_float_fraction_or_string(x):
    assert not is_int(x) and not is_int_list([1, x]) and not is_int_list((x,))
    assert is_int(2) and is_int_list([1, 2]) and is_int_list(())


def test_int_bounds_and_lengths():
    assert is_int(3, 3) and not is_int(2, 3)
    assert is_int_list([1, 2], n=2, low=1)
    assert not is_int_list([1, 2], n=3) and not is_int_list([0, 2], low=1)
    assert not is_int_list("12") and not is_int_list({1, 2}) and not is_int_list(3)


def test_rationals_and_integer_values():
    assert is_rational_row([-3, Fraction(1, 2)]) and is_rational_row([])
    for bad in (True, 0.5, "1/2", None):
        assert not is_rational_row([1, bad])
    assert is_integer_row([1, Fraction(4, 2)]) and is_integer_row([])
    for bad in (Fraction(1, 2), True, 2.0, "2"):
        assert not is_integer_row([1, bad])


def test_key_sets():
    assert missing_key({"a": 1, "b": 2}, ("a", "b")) is None
    assert missing_key({"b": 2}, ("a", "b")) == "a"
    assert missing_key([("a", 1)], ("a", "b")) == "a"


def _policy_sites(tree) -> list[int]:
    """Lines that decide an input field's kind by hand: a comparison of
    `type(...)` with `int` or `Fraction`, an `isinstance` test against
    `bool`, or `json.load` (or `json.loads` of a file's text)."""

    def names(node):
        parts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return {part.id for part in parts if isinstance(part, ast.Name)}

    def is_call(node, name):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == name

    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(is_call(x, "type") for x in operands) and \
                    set().union(*map(names, operands)) & {"int", "Fraction"}:
                out.append(node.lineno)
        elif is_call(node, "isinstance") and len(node.args) == 2 and "bool" in names(node.args[1]):
            out.append(node.lineno)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "json":
            reads_text = node.args and isinstance(node.args[0], ast.Call) \
                and isinstance(node.args[0].func, ast.Attribute) \
                and node.args[0].func.attr in ("read", "read_text")
            if node.func.attr == "load" or node.func.attr == "loads" and reads_text:
                out.append(node.lineno)
    return out


def test_only_the_fields_module_decides_a_field_kind():
    """No module of `src/` but `fields` compares `type(...)` with `int` or
    `Fraction`, tests `isinstance(..., bool)` or reads a JSON file."""
    found = {path.name: _policy_sites(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py")) if path.name != "fields.py"}
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _policy_sites(ast.parse(Path(fields.__file__).read_text()))


@pytest.mark.parametrize("line", [
    "ok = type(x) is int", "ok = type(x) is not Fraction", "ok = type(a) is type(b) is int",
    "ok = type(x) in (int, Fraction)", "ok = isinstance(x, bool)",
    "ok = isinstance(x, (int, bool))", "data = json.load(fh)",
    "data = json.loads(path.read_text())",
])
def test_the_guard_sees_each_kind_of_site(line):
    assert _policy_sites(ast.parse(line)) == [1]


@pytest.mark.parametrize("line", [
    "ok = type(x) is str", "ok = isinstance(x, int)", "rec = json.loads(raw)",
    "text = json.dumps(x)",
])
def test_the_guard_passes_other_code(line):
    assert _policy_sites(ast.parse(line)) == []
