"""The one rule for each kind of input field (README, "File formats").  It
imports nothing from the package, so every module may use it."""

from __future__ import annotations

import json
import re
from fractions import Fraction


def is_int(x, low: int | None = None) -> bool:
    return type(x) is int and (low is None or x >= low)


def is_int_list(x, n: int | None = None, low: int | None = None) -> bool:
    """A list or tuple of exact `int`s: `n` of them and each >= `low`, if given."""
    if not isinstance(x, (list, tuple)) or n is not None and len(x) != n:
        return False
    for v in x:
        if type(v) is not int or low is not None and v < low:
            return False
    return True


def is_rational_row(row) -> bool:
    for x in row:
        if type(x) is not int and type(x) is not Fraction:
            return False
    return True


def is_integer_row(row) -> bool:
    for x in row:
        if type(x) is not int and (type(x) is not Fraction or x.denominator != 1):
            return False
    return True


def missing_key(data, keys):
    """The first of `keys` that `data` lacks (the first of all if it is no dict), or None."""
    if not isinstance(data, dict):
        return keys[0]
    return next((key for key in keys if key not in data), None)


# an ASCII integer, or a fraction whose denominator has a nonzero digit
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def read_rational(x) -> Fraction:
    """An exact rational of an input file: an exact `int`, or an ASCII string
    "p" or "p/q" with q nonzero.  Anything else raises `ValueError(x)`: a
    float, a bool, and strings that `Fraction` alone would read or fail on,
    such as "1.5", "1e3", "1_000", " 3/2 ", "+2", "3/-2", "1/0" or "٣"."""
    if type(x) is int or type(x) is str and _RATIONAL.fullmatch(x):
        return Fraction(x)
    raise ValueError(x)


def write_rational(x: Fraction):
    """`x` as `read_rational` reads it back: an `int`, or a "p/q" string."""
    return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def read_json(path, kind: str, error: type[ValueError]) -> dict:
    """The JSON object in the `kind` file at `path`; a file that is missing, unreadable,
    not UTF-8 JSON or not an object raises `error` with a whole one-line message."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise error(f"no such {kind}: {str(path)!r}") from None
    except OSError as exc:
        raise error(f"cannot read {kind} {str(path)!r}: {exc.strerror or exc}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise error(f"invalid {kind}: {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise error(f"invalid {kind}: {path} does not hold a JSON object")
    return data
