import pytest

from algseries import InputError, SupportShape, antilex_key, full_support


def test_full_support_grid():
    shape = full_support(2, 2)
    assert shape.F == ((0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2))
    assert shape.G == ((1, 0), (2, 0))


def test_full_support_is_the_sorted_grid():
    for dx in range(7):
        for dy in range(1, 7):
            shape = full_support(dx, dy)
            assert shape.F == tuple(sorted(((i, j) for i in range(dx + 1)
                                            for j in range(1, dy + 1)), key=antilex_key))
            assert shape.G == tuple((i, 0) for i in range(1, dx + 1))


def test_full_support_rejects_bounds_without_a_y_term():
    with pytest.raises(InputError):
        full_support(2, 0)
    with pytest.raises(InputError):
        full_support(-1, 2)


def test_antilex_order():
    assert antilex_key((2, 1)) < antilex_key((0, 2)) < antilex_key((2, 2))


def test_shape_validation():
    with pytest.raises(InputError):
        SupportShape(F=((0, 0),), G=())
    with pytest.raises(InputError):
        SupportShape(F=((0, 1),), G=((0, 0),))
    with pytest.raises(InputError):
        SupportShape(F=((2, 1), (0, 1)), G=())  # not increasing
    with pytest.raises(InputError):
        SupportShape(F=(), G=((1, 0),))


def test_bounds_check():
    shape = full_support(2, 2)
    assert shape.within_bounds(2, 2)
    assert not shape.within_bounds(1, 2)
    assert shape.max_y == 2
