"""Invariants of ternary cubic forms and weighted invariant tuples.

The two generating invariants of degrees 4 and 6 are produced by the
classical symbolic method: a bracket monomial is a product of 3x3
determinants in letter coordinates, with every letter occurring in exactly
three brackets.  Expanding the product and replacing each letter-exponent
triple alpha by the scaled coefficient f_alpha / multinomial(3, alpha) of
the cubic yields a polynomial invariant of the corresponding degree.  The
expansion is derived from the brackets once per process: each letter's
triple is folded into the term's multiset of triples as soon as its last
bracket is expanded, so terms merge early (about 8 ms for the degree-6
monomial, against 0.1 s when every letter stayed open to the end).  The
degree-4 slice of the invariant ring is one-dimensional and the degree-6
slice is one-dimensional as well (the generators have degrees 4 and 6), so
one nonvanishing bracket monomial of each degree determines the invariants
up to normalization.

Normalization is pinned by the exact relation

    4 I(f)^3 - J(f)^2 = KAPPA * R(f)

against the raw resultant-of-partials R from the elimination module, with
KAPPA a fixed rational; the scales below were computed once from that
relation and frozen, and the stability tests re-derive KAPPA on every run.

Weighted tuples (values with G_m-weights) support the scaling action
lambda . (I_i) = (lambda**n_i I_i), the primitivity test outside a prime
set, and exact equivalence testing by rational root extraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .domains import QQ, ZZ, Domain, PrimeField
from .errors import (
    BudgetExceededError,
    DegreeError,
    DomainMismatchError,
    PrimeError,
    VariableSetError,
    ZeroInputError,
)
from .intutil import PRIME_PROOF_LIMIT, is_prime, rational_nth_roots, strip_primes, trial_factor

# Bracket monomials: letters are 0..k-1, each bracket lists three letters;
# every letter occurs in exactly three brackets.
_SYMBOL_DEG4 = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
_SYMBOL_DEG6 = ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5))

_PERMS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)

_MULTINOMIAL3 = {}
for _a in range(4):
    for _b in range(4 - _a):
        _c = 3 - _a - _b
        _f = [1, 1, 2, 6]
        _MULTINOMIAL3[(_a, _b, _c)] = 6 // (_f[_a] * _f[_b] * _f[_c])


# The ten letter-exponent triples of degree 3, ascending.
_ALPHAS = tuple(sorted((a, b, 3 - a - b) for a in range(4) for b in range(4 - a)))


@lru_cache(maxsize=None)
def _expand_symbol(brackets) -> tuple[tuple[tuple[tuple[int, int, int], ...], int], ...]:
    """Expand a bracket monomial into (sorted letter-exponent multiset, coeff).

    The brackets are expanded one at a time into terms keyed by one integer:
    2 bits per coordinate of each letter still open (a coordinate reaches at
    most 3, since every letter occurs in three brackets), then 3 bits per
    triple alpha counting the letters already finished with that triple (at
    most 7 letters).  Once the last bracket holding a letter is expanded,
    its triple is folded into those counts, so terms that differ only in
    which finished letter carries which triple merge at once instead of
    after the whole product is expanded.
    """
    nletters = max(max(b) for b in brackets) + 1
    last = {letter: k for k, b in enumerate(brackets) for letter in b}
    base = 6 * nletters
    fold = {a | b << 2 | c << 4: 1 << (base + 3 * i) for i, (a, b, c) in enumerate(_ALPHAS)}
    acc = {0: 1}
    for k, (l1, l2, l3) in enumerate(brackets):
        steps = [
            ((1 << 2 * (3 * l1 + s1)) + (1 << 2 * (3 * l2 + s2)) + (1 << 2 * (3 * l3 + s3)), sign)
            for (s1, s2, s3), sign in _PERMS3
        ]
        finished = [6 * letter for letter in (l1, l2, l3) if last[letter] == k]
        nxt: dict[int, int] = {}
        for key, coeff in acc.items():
            for step, sign in steps:
                new_key = key + step
                for off in finished:
                    bits = new_key >> off & 63
                    new_key += fold[bits] - (bits << off)
                nxt[new_key] = nxt.get(new_key, 0) + sign * coeff
        acc = {key: v for key, v in nxt.items() if v}
    terms = []
    for key, coeff in acc.items():
        multiset = []
        for i, alpha in enumerate(_ALPHAS):
            multiset += [alpha] * (key >> (base + 3 * i) & 7)
        terms.append((tuple(multiset), coeff))
    return tuple(sorted(terms))


def _evaluate_symbol(expansion, f, dom: Domain):
    """6**k times the value of a degree-k expansion on a ternary cubic.

    The symbolic method puts f_alpha / m in place of each letter-exponent
    triple alpha, with m = multinomial(3, alpha) in {1, 3, 6}.  Here each
    coefficient is scaled instead by the integer 6/m, so nothing is divided
    in f's domain (an integer cubic is evaluated in integers), and each
    term, a product of k scaled coefficients, is 6**k times the classical
    one.  The caller divides by 6**k once.
    """
    scaled = {
        exps: dom.mul(coeff, dom.from_int(6 // _MULTINOMIAL3[exps]))
        for exps, coeff in f.terms.items()
    }
    total = dom.zero()
    for multiset, coeff in expansion:
        acc = dom.from_int(coeff)
        for alpha in multiset:
            c = scaled.get(alpha)
            if c is None:
                break
            acc = dom.mul(acc, c)
        else:
            total = dom.add(total, acc)
    return total


# Frozen normalization.  The raw bracket values S0, T0 satisfy the exact
# relation  raw_disc = -(3^9/8) S0^3 + (3^10/4) T0^2;  the scales below are
# the smallest pair (u, v) with v^2 = 24 u^3 making u*S0 an integer
# polynomial (it is then primitive).  They give
#
#     4 I^3 - J^2 = KAPPA * raw_disc,       KAPPA = -256,
#
# I and J integer-valued on integer cubics, and on the Weierstrass cubic
# y^2 z - x^3 - A x z^2 - B z^3 the values I = -48 A and J = 1728 B.
I_SCALE = Fraction(54)
J_SCALE = Fraction(1944)
KAPPA = Fraction(-256)


def _check_cubic(f):
    if len(f.vars) != 3:
        raise VariableSetError("cubic invariants need a ternary form")
    if f.is_zero():
        return  # invariants of 0 are 0
    if not f.is_homogeneous() or f.homogeneous_degree() != 3:
        raise DegreeError("cubic invariants need a homogeneous cubic")


def _check_domain(dom):
    if isinstance(dom, PrimeField):
        if dom.p in (2, 3):
            raise PrimeError("cubic invariants need characteristic > 3")
    elif dom != ZZ and dom != QQ:
        raise DomainMismatchError(f"cubic invariants unsupported over {dom.name}")


def _scaled_invariant(f, symbol, scale: Fraction):
    """The bracket monomial ``symbol`` evaluated on f, times the frozen scale.

    Each letter occurs in three brackets of three letters, so the degree of
    the invariant is the number of brackets.  Over ZZ and QQ the value is a
    Fraction.
    """
    _check_cubic(f)
    dom = f.domain
    _check_domain(dom)
    value = _evaluate_symbol(_expand_symbol(symbol), f, dom)
    divisor = 6 ** len(symbol)
    if isinstance(dom, PrimeField):
        num, den = scale.numerator, scale.denominator * divisor
        return dom.mul(value, dom.mul(dom.from_int(num), dom.inv(dom.from_int(den))))
    return value * scale / divisor


def cubic_I(f):
    """Degree-4 generating invariant of a ternary cubic."""
    return _scaled_invariant(f, _SYMBOL_DEG4, I_SCALE)


def cubic_J(f):
    """Degree-6 generating invariant of a ternary cubic."""
    return _scaled_invariant(f, _SYMBOL_DEG6, J_SCALE)


def cubic_invariants(f):
    return cubic_I(f), cubic_J(f)


def delta_from_invariants(i_value, j_value):
    """(4 I^3 - J^2) / 27, the discriminant in invariant coordinates."""
    return (4 * Fraction(i_value) ** 3 - Fraction(j_value) ** 2) / 27


# -- weighted invariant tuples ---------------------------------------------


@dataclass(frozen=True)
class InvariantTuple:
    """Invariant values with their G_m-weights."""

    values: tuple
    weights: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.weights):
            raise VariableSetError("values and weights must have equal length")
        if not self.weights:
            raise VariableSetError("empty invariant tuple")
        if any(w <= 0 for w in self.weights):
            raise DegreeError("weights must be strictly positive")
        object.__setattr__(self, "values", tuple(Fraction(v) for v in self.values))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))

    @property
    def weight_gcd(self) -> int:
        g = 0
        for w in self.weights:
            g = gcd(g, w)
        return g

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


def tuple_of_cubic(f) -> InvariantTuple:
    return InvariantTuple((cubic_I(f), cubic_J(f)), (4, 6))


def scale_tuple(lam, t: InvariantTuple) -> InvariantTuple:
    """The weighted scaling action: I_i -> lam**n_i * I_i."""
    lam = Fraction(lam)
    if lam == 0:
        raise ZeroInputError("scaling by zero is not in the acting group")
    return InvariantTuple(
        tuple(lam**w * v for v, w in zip(t.values, t.weights)), t.weights
    )


# Denominators are trial-divided up to _TRIAL_BOUND; the cofactor left over
# is accepted only when it is certainly prime.
_TRIAL_BOUND = 10**6


def _integralize(t: InvariantTuple) -> tuple[int, ...]:
    """Clear denominators by the smallest positive integer weighted scaling."""
    lam = 1
    for v, w in zip(t.values, t.weights):
        # smallest k with den | k**w, built prime by prime with ceil(e/w)
        factors, rest = trial_factor(v.denominator, _TRIAL_BOUND)
        # every prime factor of rest exceeds the bound, so below its square
        # rest is 1 or prime
        if rest >= _TRIAL_BOUND**2 and not (rest < PRIME_PROOF_LIMIT and is_prime(rest)):
            raise BudgetExceededError(
                f"denominator {v.denominator} has a factor beyond the trial-division budget"
            )
        k = rest
        for q, e in factors.items():
            k *= q ** -(-e // w)
        lam = lam * k // gcd(lam, k)
    scaled = scale_tuple(Fraction(lam), t)
    return tuple(v.numerator for v in scaled.values)


def tuple_is_primitive_outside(t: InvariantTuple, s_primes=()) -> bool:
    """Whether, at every prime outside S, some entry has valuation zero.

    Implemented after clearing denominators by the weighted action: every
    prime factor of gcd(values) must lie in S.
    """
    if t.is_zero():
        raise ZeroInputError("the zero tuple is excluded")
    entries = _integralize(t)
    g = 0
    for v in entries:
        g = gcd(g, v)
    g = strip_primes(g, set(int(p) for p in s_primes))
    return g == 1


@dataclass(frozen=True)
class EquivalenceWitness:
    alpha_candidates: tuple[Fraction, ...]
    alpha_power_d: Fraction
    d: int
    s_unit: bool


def _is_s_unit(q: Fraction, s_primes) -> bool:
    s = set(int(p) for p in s_primes)
    return (
        strip_primes(q.numerator, s) == 1 and strip_primes(q.denominator, s) == 1
    )


def _power_fits(alpha: Fraction, w: int, target: Fraction) -> bool:
    """Whether alpha**w, alpha nonzero, can equal target by bit length alone.

    |m|**w has at least w * (bitlen(m) - 1) + 1 bits, so a candidate whose
    numerator or denominator power would outgrow target's is rejected
    before the power, which can be huge for a large weight, is built.
    """
    return all(
        w * (abs(m).bit_length() - 1) + 1 <= abs(t).bit_length()
        for m, t in ((alpha.numerator, target.numerator), (alpha.denominator, target.denominator))
    )


def tuples_equivalent(
    t1: InvariantTuple, t2: InvariantTuple, s_primes=()
) -> EquivalenceWitness | None:
    """Search for rational alpha with alpha**n_i * t1_i == t2_i for all i.

    Returns the surviving alpha candidates (two when the solution is only
    determined up to sign), the well-defined power alpha**d for d the gcd of
    all weights, and whether that power is an S-unit.  None when no witness
    exists.
    """
    if t1.weights != t2.weights:
        raise VariableSetError("tuples must share weights")
    if t1.is_zero():
        raise ZeroInputError("equivalence base tuple must be nonzero")
    pairs = list(zip(t1.values, t2.values, t1.weights))
    for v1, v2, _w in pairs:
        if v1 == 0 and v2 != 0:
            return None
    anchor = next((p for p in pairs if p[0] != 0), None)
    if anchor is None:
        return None
    v1, v2, w = anchor
    if v2 == 0:
        return None
    candidates = rational_nth_roots(Fraction(v2) / v1, w)
    survivors = []
    for alpha in candidates:
        if all(
            a == 0 or (_power_fits(alpha, wi, b / a) and alpha**wi * a == b)
            for a, b, wi in pairs
        ):
            survivors.append(alpha)
    if not survivors:
        return None
    d = t1.weight_gcd
    powers = {a**d for a in survivors}
    alpha_d = sorted(powers)[0]
    return EquivalenceWitness(
        alpha_candidates=tuple(sorted(survivors)),
        alpha_power_d=alpha_d,
        d=d,
        s_unit=_is_s_unit(alpha_d, s_primes),
    )
