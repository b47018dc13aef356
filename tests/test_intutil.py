"""Exact integer roots, the prime table and trial factoring."""

import time
from bisect import bisect_right
from fractions import Fraction
from math import isqrt, prod
from random import Random

import pytest

from triforms.intutil import (
    PRIME_PROOF_LIMIT,
    _PRIMES,
    _PrimeTable,
    exact_nth_root,
    integer_nth_root,
    is_prime,
    rational_nth_roots,
    trial_factor,
)


def test_integer_nth_root_is_the_floor():
    rng = Random(77)
    for k in (1, 2, 3, 4, 5, 7):
        for n in list(range(300)) + [rng.randrange(10**rng.randint(1, 500)) for _ in range(40)]:
            r = integer_nth_root(n, k)
            assert r**k <= n < (r + 1) ** k


def test_is_prime_is_a_proof_below_its_limit():
    # the least strong pseudoprime to the first twelve prime bases, 2..37:
    # base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)
    assert is_prime(PRIME_PROOF_LIMIT - 1)  # the largest prime a field accepts
    assert [n for n in range(200) if is_prime(n)] == _plain_sieve(200)


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


def test_root_of_order_beyond_the_bit_length_is_1_at_once():
    # Newton from 2 would first build 2**(k - 1), a number of k bits
    start = time.perf_counter()
    for n in (1, 2, 16, 10**18):
        assert integer_nth_root(n, max(n.bit_length(), 1)) == 1
        assert integer_nth_root(n, 10**18) == 1
    assert exact_nth_root(16, 10**18) is None
    assert exact_nth_root(-1, 10**18 + 1) == -1
    assert rational_nth_roots(Fraction(1, 16), 10**18) == []
    assert time.perf_counter() - start < 1.0


def test_root_order_must_be_positive():
    with pytest.raises(ValueError):
        integer_nth_root(8, 0)
    with pytest.raises(ValueError):
        integer_nth_root(-8, 3)


# -- the prime table and trial factoring ---------------------------------------


def _plain_sieve(bound):
    flags = bytearray([1]) * (bound + 1)
    flags[: min(2, bound + 1)] = bytes(min(2, bound + 1))
    for i in range(2, isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(flags[i * i :: i]))
    return [i for i, flag in enumerate(flags) if flag]


def _reference_trial_factor(n, bound):
    """Plain trial division by every integer from 2 on."""
    n = abs(n)
    factors = {}
    d = 2
    while d <= bound and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if 1 < n <= bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def test_prime_table_grows_by_segments():
    rng = Random(3)
    table = _PrimeTable()
    bound = 1
    for step in [0, 1, 1, 2, 5, 30] + [rng.randint(0, 9000) for _ in range(10)]:
        bound += step
        table.extend(bound)
        assert table.primes == _plain_sieve(bound)
        for h in range(1, table.HEIGHT + 1):
            width = table.FAN**h
            products = [
                prod(table.primes[k : k + width])
                for k in range(0, len(table.primes) - width + 1, width)
            ]
            assert table.levels[h] == products
    before = [level[:] for level in table.levels]
    table.extend(bound // 2)
    assert table.levels == before and table.limit == bound


def test_primes_up_to_is_the_plain_sieve():
    # the shared table only grows; its primes up to any bound are the sieve's
    for bound in (-5, 0, 1, 2, 3, 4, 10, 97, 20000, 1000, 2, 12345):
        _PRIMES.extend(bound)
        primes = _PRIMES.primes[: bisect_right(_PRIMES.primes, bound)]
        assert primes == _plain_sieve(max(bound, 0))


def _prime_near(n, step):
    while not is_prime(n):
        n += step
    return n


def _trial_cases(bound, rng):
    below = _prime_near(max(bound, 2), -1) if bound >= 2 else 2
    above = _prime_near(bound + 1, 1)
    root = _prime_near(max(isqrt(bound), 2), -1)
    cases = [1, 2, 3, 4, 12, below, above, below**2, above**2, root**2, root**2 + 2]
    cases += [root * _prime_near(root + 1, 1), above * _prime_near(above + 1, 1)]
    cases += [2**40, 3**5 * 7**3 * below, 6 * above * _prime_near(above + 1, 1)]
    if bound >= 10**4:
        # every prime up to 10**4: past the first node of 32**2 primes
        cases += [prod(_plain_sieve(10**4)), prod(p * p for p in _plain_sieve(10**4)[1000:1100])]
    small = bound >= 10**6
    for _ in range(25):
        cases.append(rng.randrange(1, 10**8 if small else 10**rng.randint(1, 12)))
    for _ in range(5 if small else 15):
        n = 1
        for p in rng.sample(_plain_sieve(200), 4):
            n *= p ** rng.randint(1, 3)
        cases.append(n * rng.choice((1, below, above)))
    return cases + [-n for n in cases]


@pytest.mark.parametrize("bound", [1, 2, 10, 10**5, 10**6])
def test_trial_factor_matches_plain_division(bound):
    rng = Random(bound)
    for n in _trial_cases(bound, rng):
        expected = _reference_trial_factor(n, bound)
        got = trial_factor(n, bound)
        assert got == expected, n
        assert list(got[0]) == list(expected[0])  # ascending, like the reference


def test_trial_factor_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        trial_factor(0, 100)
