"""The CLI contract on random files: every call of every subcommand writes
exactly one JSON object to stdout and exits 0, 1, 2 or 3, never 4.

The files mix canonical and malformed rationals, JSON values of the wrong
type, wrong and over-long ``precision`` fields, literals past the
interpreter's int <-> str digit limit, text that is not JSON and arrays
nested too deeply to read.  Counts, k and the degree bounds run over -1..4
and exponents stay at most 3: a large exponent is a large but honest
computation, not a contract case.
"""

import contextlib
import io
import json
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from algseries.cli import main

BIG = "1" + "0" * 4999
_BIG_MARK = "@big@"  # a JSON integer of 5000 digits, spliced in after dumping

CANONICAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)).map(str)
NONZERO = CANONICAL.filter(lambda t: t != "0")
MALFORMED = st.sampled_from(["-0", "2/4", "1/0", "1.5", "+1", "", " 1", "01", BIG,
                             "-" + BIG, "1/" + BIG])
NON_STRING = st.one_of(st.integers(-3, 3), st.booleans(), st.none(), st.floats(-2, 2),
                       st.just([]), st.just({}), st.just(_BIG_MARK))
RATIONAL = st.one_of(CANONICAL, CANONICAL, CANONICAL, MALFORMED, NON_STRING)
EXPONENT = st.one_of(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3),
                     st.sampled_from([-1, True, "1", None, _BIG_MARK]))
SMALL = st.integers(-1, 4)
PAIR = st.tuples(st.integers(0, 3), st.integers(0, 3))


def _terms(coefficients):
    return [{"i": i, "j": j, "c": c} for (i, j), c in coefficients.items()]


def _dirty_term():
    full = st.fixed_dictionaries({"i": EXPONENT, "j": EXPONENT, "c": RATIONAL})
    no_i = full.map(lambda t: {"j": t["j"], "c": t["c"]})
    return st.one_of(full, full, full, no_i, st.integers(0, 2))


CLEAN_POLY = st.dictionaries(PAIR, NONZERO, max_size=6).map(lambda d: {"terms": _terms(d)})
POLY = st.one_of(CLEAN_POLY, CLEAN_POLY,
                 st.fixed_dictionaries({"terms": st.lists(_dirty_term(), max_size=6)}),
                 st.sampled_from([{}, [], {"terms": {}}]))


@st.composite
def dirty_series(draw):
    coefficients = draw(st.lists(RATIONAL, max_size=6))
    obj = {"coefficients": coefficients}
    precision = draw(st.sampled_from(["omit", "right", "wrong", "bool", "big", "text"]))
    if precision != "omit":
        obj["precision"] = {"right": len(coefficients), "wrong": len(coefficients) + 1,
                            "bool": True, "big": _BIG_MARK, "text": "3"}[precision]
    return obj


CLEAN_SERIES = st.lists(CANONICAL, max_size=12).map(lambda c: {"coefficients": c})
SERIES = st.one_of(CLEAN_SERIES, CLEAN_SERIES, dirty_series(),
                   st.sampled_from([{}, [1, 2], {"coefficients": "1"}]))
SHAPE_PAIR = st.lists(st.integers(-1, 3), min_size=2, max_size=2)
SHAPE = st.one_of(st.fixed_dictionaries({"F": st.lists(SHAPE_PAIR, max_size=5),
                                         "G": st.lists(SHAPE_PAIR, max_size=2)}),
                  st.sampled_from([{"F": "x"}, {"F": [[1, True]]}, []]))


@st.composite
def liftable(draw):
    """A polynomial a (y - c x^v) + terms of weight i + v j > v, v in 1..3,
    with its root's leading terms 0, .., 0, c as the seed, then zero to
    three more seed coefficients, right or wrong."""
    v, a, c = draw(st.integers(1, 3)), draw(NONZERO), draw(NONZERO)
    higher = draw(st.dictionaries(PAIR.filter(lambda p: p[0] + v * p[1] > v), NONZERO,
                                  max_size=4))
    poly = {(0, 1): a, (v, 0): str(-Fraction(a) * Fraction(c)), **higher}
    more = draw(st.lists(CANONICAL, max_size=3))
    return {"terms": _terms(poly)}, {"coefficients": ["0"] * (v - 1) + [c] + more}


def _file_bytes(obj):
    return json.dumps(obj).replace(f'"{_BIG_MARK}"', BIG).encode()


_DEEP = b"[" * 5000 + b"]" * 5000  # past the JSON reader's nesting depth


def _file(obj_strategy):
    """A drawn object as JSON, or bytes that do not read as JSON."""
    dumped = obj_strategy.map(_file_bytes)
    broken = st.sampled_from([b"", b"{", b"[1,", b"{not json", b"\xef\xbb\xbf{}", b"nul\x00l",
                              b'{"terms": [}', b"\xff\xfe{}", _DEEP,
                              b'{"terms": ' + _DEEP + b"}"])
    return st.one_of(dumped, dumped, dumped, dumped, broken)


@st.composite
def calls(draw):
    """(argv, files): one subcommand with its argument files' contents."""
    command = draw(st.sampled_from(["expand", "implicitize", "henselize", "certify", "oracle"]))
    files, argv = {}, [command]
    if command in ("expand", "henselize", "oracle") and draw(st.booleans()):
        poly, seed = draw(liftable())
        files["poly"], files["seed"] = _file_bytes(poly), _file_bytes(seed)
    elif command in ("expand", "henselize", "oracle"):
        files["poly"], files["seed"] = draw(_file(POLY)), draw(_file(SERIES))
    else:
        files["series"] = draw(_file(SERIES))
    if command == "certify":
        files["poly"] = draw(_file(POLY))
    if command == "implicitize" and draw(st.booleans()):
        files["shape"] = draw(_file(SHAPE))
    for name in sorted(files):
        argv += [f"--{name}", name + ".json"]
    numbers = {"expand": ["count"], "oracle": ["count"], "henselize": ["k"],
               "implicitize": ["dx", "dy"], "certify": ["dx", "dy"]}[command]
    for name in numbers:
        argv += [f"--{name}", str(draw(SMALL))]
    if command == "expand":
        argv += ["--method", draw(st.sampled_from(["all", "fs", "closed", "newton"]))]
    return argv, files


@settings(max_examples=400, deadline=None)
@given(call=calls())
def test_one_json_object_and_a_documented_exit_code(call):
    argv, files = call
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            path = Path(tmp) / f"{name}.json"
            path.write_bytes(data)
            paths[name + ".json"] = str(path)
        argv = [paths.get(a, a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, files, out.getvalue(), err.getvalue())
    text = out.getvalue()
    assert text.endswith("\n") and text.count("\n") == 1
    assert isinstance(json.loads(text), dict)
