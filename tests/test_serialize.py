from fractions import Fraction as F

import pytest

from algseries import BivarPoly, InputError, SupportShape, TruncatedSeries
from algseries.serialize import (dumps, parse_rat, poly_from_obj, poly_to_obj,
                                 rat_to_str, series_from_obj, series_to_obj,
                                 shape_from_obj, shape_to_obj)


def test_rat_round_trip():
    for v in [F(0), F(3), F(-3), F(3, 4), F(-22, 7)]:
        assert parse_rat(rat_to_str(v)) == v


@pytest.mark.parametrize("text", ["3/1", "2/4", "-0", "+3", "3.5", " 3", "3/-4", "", "03",
                                  "1\n", "3/4\n"])
def test_rat_rejects_noncanonical(text):
    with pytest.raises(InputError):
        parse_rat(text)


def test_series_round_trip():
    s = TruncatedSeries([1, 0, F(-1, 2)])
    obj = series_to_obj(s)
    assert obj == {"coefficients": ["1", "0", "-1/2"], "precision": 3}
    assert series_from_obj(obj) == s


def test_series_precision_mismatch():
    with pytest.raises(InputError):
        series_from_obj({"coefficients": ["1"], "precision": 5})
    with pytest.raises(InputError):
        series_from_obj({"coefficients": ["1"], "precision": True})


def test_poly_round_trip():
    p = BivarPoly({(0, 2): 1, (2, 0): F(-1, 3)})
    assert poly_from_obj(poly_to_obj(p)) == p


def test_poly_rejects_bad_terms():
    with pytest.raises(InputError):
        poly_from_obj({"terms": [{"i": 0, "j": 0, "c": "0"}]})
    with pytest.raises(InputError):
        poly_from_obj({"terms": [{"i": 0, "j": 1, "c": "1"},
                                 {"i": 0, "j": 1, "c": "2"}]})
    with pytest.raises(InputError):
        poly_from_obj({"terms": [{"i": -1, "j": 0, "c": "1"}]})
    for i, j in ((True, 0), (0, False)):
        with pytest.raises(InputError):
            poly_from_obj({"terms": [{"i": i, "j": j, "c": "1"}]})


def test_shape_round_trip():
    shape = SupportShape(F=((2, 1), (0, 2)), G=((1, 0),))
    assert shape_from_obj(shape_to_obj(shape)) == shape


@pytest.mark.parametrize("obj", [{"F": [[False, True]]}, {"F": [[0, 2]], "G": [[True, 0]]}])
def test_shape_rejects_booleans(obj):
    with pytest.raises(InputError):
        shape_from_obj(obj)


def test_dumps_deterministic():
    assert dumps({"b": 1, "a": [2]}) == '{"a": [2], "b": 1}\n'
