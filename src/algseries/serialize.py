"""JSON file formats: rationals as canonical "num/den" strings, series as
1-based coefficient arrays with a precision field, polynomials as term
lists, shapes as F/G pair lists.  Output is deterministic (sorted keys,
fixed separators).

Integers are read under the interpreter's int <-> str digit limit
(``sys.get_int_max_str_digits``), so that a huge literal costs no
quadratic parse; a longer one is an input error.  Output is exact at any
length."""

from __future__ import annotations

import json
import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Any

from .bivar import BivarPoly
from .errors import InputError
from .series import TruncatedSeries
from .support import SupportShape

_RAT = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?")


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true`` and ``false`` load as bools, which are ints
    to ``isinstance`` but not to the file formats."""
    return isinstance(value, int) and not isinstance(value, bool)


def _too_many_digits(where: str) -> InputError:
    return InputError(f"{where} has an integer past the "
                      f"{sys.get_int_max_str_digits()}-digit limit")


def rat_to_str(value: Fraction) -> str:
    value = Fraction(value)
    try:
        return str(value)
    except ValueError:  # past the digit limit, which guards input only
        # Decimal prints an integer exactly at any length, and leaves the
        # limit alone for every other thread
        num, den = (str(Decimal(n)) for n in value.as_integer_ratio())
        return num if den == "1" else f"{num}/{den}"


def parse_rat(text: str) -> Fraction:
    """Parse a canonical rational: reduced, positive denominator, den = 1
    written bare, no wasted characters."""
    if not isinstance(text, str):
        raise InputError(f"rational must be a string, got {type(text).__name__}")
    m = _RAT.fullmatch(text)
    if not m:
        raise InputError(f"not a canonical rational: {text!r}")
    try:
        num = int(m.group(1))
        den = int(m.group(2)) if m.group(2) else 1
    except ValueError:
        raise _too_many_digits("rational") from None
    if m.group(1) == "-0":
        raise InputError("zero is written '0'")
    if den == 1 and m.group(2):
        raise InputError(f"denominator 1 is written bare: {text!r}")
    value = Fraction(num, den)
    if value.denominator != den:
        raise InputError(f"rational not in lowest terms: {text!r}")
    return value


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": ")) + "\n"


def series_to_obj(series: TruncatedSeries) -> dict:
    return {
        "coefficients": [rat_to_str(c) for c in series.one_based()],
        "precision": series.precision,
    }


def series_from_obj(obj: Any) -> TruncatedSeries:
    if not isinstance(obj, dict):
        raise InputError("series file must be a JSON object")
    coeffs = obj.get("coefficients")
    if not isinstance(coeffs, list):
        raise InputError("series needs a 'coefficients' array (index 1 first)")
    values = [parse_rat(c) for c in coeffs]
    precision = obj.get("precision", len(values))
    if not _is_int(precision) or precision != len(values):
        raise InputError("series 'precision' must equal the coefficient count")
    return TruncatedSeries(values, precision=precision, start=1)


def poly_to_obj(poly: BivarPoly) -> dict:
    return {
        "terms": [
            {"i": i, "j": j, "c": rat_to_str(c)}
            for (i, j), c in poly.sorted_terms()
        ]
    }


def poly_from_obj(obj: Any) -> BivarPoly:
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise InputError("polynomial file must be an object with a 'terms' array")
    terms: dict[tuple[int, int], Fraction] = {}
    for entry in obj["terms"]:
        if not isinstance(entry, dict):
            raise InputError("each term must be an object with i, j, c")
        try:
            i, j, c = entry["i"], entry["j"], entry["c"]
        except KeyError as missing:
            raise InputError(f"term missing field {missing}") from None
        if not _is_int(i) or not _is_int(j) or i < 0 or j < 0:
            raise InputError(f"term exponents must be natural numbers: {entry}")
        value = parse_rat(c)
        if not value:
            raise InputError("stored coefficients must be nonzero")
        if (i, j) in terms:
            raise InputError(f"duplicate term ({i}, {j})")
        terms[(i, j)] = value
    return BivarPoly(terms)


def shape_to_obj(shape: SupportShape) -> dict:
    return {"F": [list(p) for p in shape.F], "G": [list(p) for p in shape.G]}


def shape_from_obj(obj: Any) -> SupportShape:
    if not isinstance(obj, dict):
        raise InputError("shape file must be a JSON object with F and G arrays")
    def pairs(name: str) -> tuple[tuple[int, int], ...]:
        raw = obj.get(name, [])
        if not isinstance(raw, list):
            raise InputError(f"shape field {name} must be an array of [i, j] pairs")
        out = []
        for p in raw:
            if (not isinstance(p, list)) or len(p) != 2 or not all(_is_int(v) for v in p):
                raise InputError(f"shape entry {p!r} is not an [i, j] pair")
            out.append((p[0], p[1]))
        return tuple(out)
    return SupportShape(pairs("F"), pairs("G"))


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"{path} is not UTF-8: {exc}") from exc
    except ValueError:  # an integer literal past the digit limit
        raise _too_many_digits(path) from None
    except RecursionError:
        raise InputError(f"{path} nests its JSON values too deeply") from None
