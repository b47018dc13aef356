"""Small exact integer helpers shared across modules."""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from itertools import compress, islice
from math import gcd, isqrt, prod


# Strong-probable-prime bases: the first 13 primes.  No composite below
# 3317044064679887385961981 passes all of them (Sorenson and Webster,
# "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017), so below
# PRIME_PROOF_LIMIT, that bound rounded down, ``is_prime`` is a proof.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_PROOF_LIMIT = 33 * 10**23


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, a proof for all n < PRIME_PROOF_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
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


class _PrimeTable:
    """The primes up to a limit that grows on demand, with a product tree.

    ``extend`` sieves only the segment past the current limit, so no range
    is sieved twice.  ``levels[0]`` holds the primes; ``levels[h][k]`` is
    the product of levels[h-1][k*FAN : (k+1)*FAN], that is of FAN**h
    consecutive primes, for h up to HEIGHT.  A product is built once, when
    its last factor arrives.  Taller trees would save few gcds but cost
    much more to build: a product of FAN**3 primes is a large
    multiplication for each of its factors.
    """

    FAN = 32
    HEIGHT = 2

    def __init__(self):
        self.limit = 1
        self.levels: list[list[int]] = [[] for _ in range(self.HEIGHT + 1)]

    @property
    def primes(self) -> list[int]:
        return self.levels[0]

    def extend(self, bound: int) -> None:
        if bound <= self.limit:
            return
        root = isqrt(bound)
        self.extend(root)  # the sieving primes of the new segment
        if self.limit < 2:
            self.primes.append(2)
        # the segment holds the odd numbers lo, lo + 2, ..., up to bound
        lo = max(self.limit + 1, 3) | 1
        size = (bound - lo) // 2 + 1
        segment = bytearray([1]) * size
        for p in islice(self.primes, 1, None):
            if p > root:
                break
            start = max(p * p, -(-lo // p) * p)
            if start % 2 == 0:
                start += p  # the first odd multiple
            start = (start - lo) // 2
            segment[start::p] = bytes(len(range(start, size, p)))
        self.primes.extend(compress(range(lo, bound + 1, 2), segment))
        fan = self.FAN
        for below, above in zip(self.levels, self.levels[1:]):
            for k in range(len(above) * fan, len(below) - fan + 1, fan):
                above.append(prod(below[k : k + fan]))
        self.limit = bound

    def divisors(self, n: int, h: int, k: int):
        """The primes of node (h, k) of the tree that divide n, ascending."""
        if h == 0:
            yield self.primes[k]
            return
        below = self.levels[h - 1]
        for child in range(k * self.FAN, (k + 1) * self.FAN):
            g = gcd(n, below[child])
            if g > 1:
                yield from self.divisors(g, h - 1, child)


# Filled on first use, never at import.
_PRIMES = _PrimeTable()


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
    if k >= n.bit_length():
        return 1  # 1 <= n < 2**k
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
    """Factor |n| over the primes up to ``bound``.

    Returns (exponents by prime, ascending, unfactored cofactor).  The
    cofactor is 1 when the factorization is complete below the bound.

    Primes are taken from the process-wide table, and only up to
    min(bound, isqrt(|n|)), so neither the sieve nor the products go past
    that.  The primes are walked in blocks of consecutive ones whose
    product the table holds (Bernstein, "How to find smooth parts of
    integers"): a gcd of n with a block's product of 1 skips the block,
    and otherwise the gcd is split by the sub-block products down to the
    primes that divide n, which alone are divided out.  The walk stops once
    the next prime squared exceeds what is left of n, which is then 1 or a
    prime.
    """
    n = abs(n)
    if n == 0:
        raise ZeroDivisionError("cannot factor 0")
    factors: dict[int, int] = {}
    limit = min(bound, isqrt(n))
    if limit >= 2:
        table = _PRIMES
        table.extend(limit)
        primes, fan = table.primes, table.FAN
        count = bisect_right(primes, limit)
        i = 0
        while i < count and primes[i] * primes[i] <= n:
            # the highest node that starts at prime i and ends within the limit
            h = 0
            while h < table.HEIGHT and i % fan ** (h + 1) == 0 and i + fan ** (h + 1) <= count:
                h += 1
            k = i // fan**h
            g = gcd(n, table.levels[h][k])
            if g > 1:
                for p in table.divisors(g, h, k):
                    e = 0
                    while n % p == 0:
                        n //= p
                        e += 1
                    factors[p] = e
            i += fan**h
    # every prime below the last one tried is divided out, so a rest within
    # the bound is a prime larger than all factors found
    if 1 < n <= bound:
        factors[n] = 1
        n = 1
    return factors, n
