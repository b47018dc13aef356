"""Exact integer roots: big radicands stay exact and finish quickly."""

import time
from fractions import Fraction
from random import Random

import pytest

from triforms.intutil import exact_nth_root, integer_nth_root, rational_nth_roots


def test_integer_nth_root_is_the_floor():
    rng = Random(77)
    for k in (1, 2, 3, 4, 5, 7):
        for n in list(range(300)) + [rng.randrange(10**rng.randint(1, 500)) for _ in range(40)]:
            r = integer_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_roots_beyond_float_range_are_exact_and_fast():
    start = time.perf_counter()
    assert integer_nth_root(10**400, 2) == 10**200
    assert integer_nth_root(10**400 - 1, 2) == 10**200 - 1
    assert exact_nth_root(3**400, 2) == 3**200
    assert exact_nth_root(3**400 + 1, 2) is None
    assert exact_nth_root(-(7**999), 3) == -(7**333)
    assert rational_nth_roots(Fraction(2**600, 3**600), 6) == [
        Fraction(2**100, 3**100),
        -Fraction(2**100, 3**100),
    ]
    assert time.perf_counter() - start < 1.0


def test_root_order_must_be_positive():
    with pytest.raises(ValueError):
        integer_nth_root(8, 0)
    with pytest.raises(ValueError):
        integer_nth_root(-8, 3)
