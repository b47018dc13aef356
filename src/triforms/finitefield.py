"""Quadratic extensions F_{p^2} and projective-plane point enumeration.

Elements of F_{p^2} = F_p[t]/(t^2 - s t - c) are (a, b) pairs meaning
a + b t.  For odd p the modulus is t^2 = ns with ns the smallest quadratic
nonresidue; for p = 2 it is t^2 = t + 1.  Only what the brute-force scans
need is implemented: addition, negation and multiplication.  The scans
themselves work on plain coefficient/exponent data.  The zero scan's inner
Horner loop, which runs about q^2 * degree times, does not call these
methods: it inlines the multiply-add on integer pairs, using the modulus
(s, c) of the extension it is given.
"""

from __future__ import annotations

from .domains import GF
from .errors import PrimeError


class QuadExtension:
    """F_{p^2} with elements as (a, b) = a + b*t, t^2 = s*t + c."""

    def __init__(self, p: int):
        self.p = GF(p).p  # GF refuses a p it cannot prove prime
        if p == 2:
            self.s, self.c = 1, 1
        else:
            self.s, self.c = 0, self._nonresidue(p)

    @staticmethod
    def _nonresidue(p: int) -> int:
        for candidate in range(2, p):
            if pow(candidate, (p - 1) // 2, p) == p - 1:
                return candidate
        raise PrimeError(f"no quadratic nonresidue mod {p}")

    def zero(self):
        return (0, 0)

    def one(self):
        return (1, 0)

    def embed(self, a: int):
        return (a % self.p, 0)

    def elements(self):
        p = self.p
        for a in range(p):
            for b in range(p):
                yield (a, b)

    def add(self, x, y):
        p = self.p
        return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)

    def neg(self, x):
        p = self.p
        return ((-x[0]) % p, (-x[1]) % p)

    def mul(self, x, y):
        p, s, c = self.p, self.s, self.c
        a, b = x
        d, e = y
        be = b * e
        return ((a * d + c * be) % p, (a * e + b * d + s * be) % p)

    def mul_int(self, x, k: int):
        p = self.p
        return (x[0] * k % p, x[1] * k % p)

    def pow_int(self, x, e: int):
        result = self.one()
        base = x
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result


def projective_points_ext(ext: QuadExtension):
    """Normalized representatives of P^2(F_{p^2}): q^2 + q + 1 points."""
    one, zero = ext.one(), ext.zero()
    elems = list(ext.elements())
    for a in elems:
        for b in elems:
            yield (one, a, b)
    for a in elems:
        yield (zero, one, a)
    yield (zero, zero, one)


def evaluate_terms_ext(terms, point, ext: QuadExtension):
    """Evaluate integer-coefficient exponent terms at an F_{p^2} point.

    ``terms`` is an iterable of (exponent-triple, int-coefficient).
    """
    total = ext.zero()
    coords = point
    powers = ({}, {}, {})

    def pw(i, e):
        cache = powers[i]
        v = cache.get(e)
        if v is None:
            v = ext.pow_int(coords[i], e)
            cache[e] = v
        return v

    for (e1, e2, e3), c in terms:
        acc = ext.embed(c)
        if e1:
            acc = ext.mul(acc, pw(0, e1))
        if e2:
            acc = ext.mul(acc, pw(1, e2))
        if e3:
            acc = ext.mul(acc, pw(2, e3))
        total = ext.add(total, acc)
    return total


def ternary_zeros_ext(terms, degree: int, ext: QuadExtension):
    """All P^2(F_{p^2}) zeros of an integer-coefficient ternary form.

    Scans the affine chart x = 1 with a Horner double loop (coefficients in
    the last variable precomputed as univariate tables in the middle one),
    then the line x = 0.  Cost is about q^2 * degree Horner steps; the
    F_{p^2} arithmetic of each step is inlined on plain integer pairs with
    one reduction mod p per component.
    """
    p, s_mod, c_mod = ext.p, ext.s, ext.c
    add, mul = ext.add, ext.mul
    zero = ext.zero()
    elems = list(ext.elements())

    # chart x = 1: f(1, s, t) = sum_k c_k(s) t^k
    by_t: dict[int, list[tuple[int, int]]] = {}
    for (e1, e2, e3), c in terms:
        by_t.setdefault(e3, []).append((e2, c % p))
    max_t = max(by_t, default=0)
    # (u + v t)(ta + tb t) = (u ta + v c tb) + (u tb + v (ta + s tb)) t
    t_table = [(t, t[0], t[1], c_mod * t[1], t[0] + s_mod * t[1]) for t in elems]
    out = []
    for s in elems:
        spow = [ext.one()]
        for _ in range(degree):
            spow.append(mul(spow[-1], s))
        coeffs = []
        for k in range(max_t, -1, -1):
            ca = cb = 0
            for e2, c in by_t.get(k, ()):
                sa, sb = spow[e2]
                ca += c * sa
                cb += c * sb
            coeffs.append((ca % p, cb % p))
        (lead_a, lead_b), rest = coeffs[0], coeffs[1:]
        for t, ta, tb, ctb, tas in t_table:
            u, v = lead_a, lead_b
            for ka, kb in rest:
                u, v = (u * ta + v * ctb + ka) % p, (u * tb + v * tas + kb) % p
            if not u and not v:
                out.append((ext.one(), s, t))

    # line x = 0: g(s, t) = f(0, s, t); points (0, 1, t) and (0, 0, 1)
    line_terms = [((e2, e3), c % p) for (e1, e2, e3), c in terms if e1 == 0]
    for t in elems:
        acc = zero
        tpow = [ext.one()]
        for _ in range(degree):
            tpow.append(mul(tpow[-1], t))
        for (e2, e3), c in line_terms:
            acc = add(acc, ext.mul_int(tpow[e3], c))
        if acc == zero:
            out.append((zero, ext.one(), t))
    acc = zero
    for (e2, e3), c in line_terms:
        if e2 == 0:
            acc = add(acc, ext.embed(c))
    if acc == zero:
        out.append((zero, zero, ext.one()))
    return out
