"""Small exact integer helpers shared across modules."""

from __future__ import annotations

from fractions import Fraction
from math import isqrt


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(bound: int) -> list[int]:
    """Sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def integer_nth_root(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if k < 1:
        raise ValueError("root order must be positive")
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    if k == 1:
        return n
    if k == 2:
        return isqrt(n)
    # integer Newton from a power of two above the root: the iterates
    # decrease strictly until they reach the floor of the root
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def exact_nth_root(n: int, k: int) -> int | None:
    """The integer r with r**k == n, or None.  Handles negative n for odd k."""
    if n < 0:
        if k % 2 == 0:
            return None
        r = exact_nth_root(-n, k)
        return None if r is None else -r
    r = integer_nth_root(n, k)
    return r if r**k == n else None


def rational_nth_roots(q: Fraction, k: int) -> list[Fraction]:
    """All rational r with r**k == q, in a deterministic order."""
    if k <= 0:
        raise ValueError("root order must be positive")
    if q == 0:
        return [Fraction(0)]
    num = exact_nth_root(q.numerator, k)
    den = exact_nth_root(q.denominator, k)
    if num is None or den is None:
        return []
    root = Fraction(num, den)
    if k % 2 == 0:
        return [root, -root] if root != 0 else [root]
    return [root]


def strip_primes(n: int, primes) -> int:
    """Divide all factors of the given primes out of |n|."""
    n = abs(n)
    for p in primes:
        if p < 2:
            continue
        while n % p == 0:
            n //= p
    return n


def trial_factor(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Factor |n| by trial division up to ``bound``.

    Returns (exponents by prime, unfactored cofactor).  The cofactor is 1
    when the factorization is complete below the bound.
    """
    n = abs(n)
    if n == 0:
        raise ZeroDivisionError("cannot factor 0")
    factors: dict[int, int] = {}
    # primes above isqrt(n) are never tried: the loop stops at p * p > n
    for p in primes_up_to(min(bound, isqrt(n))):
        if p * p > n:
            break
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    if n > 1 and n <= bound:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n
