"""Exact coefficient domains.

Three domains are supported: the integers, the rationals, and prime fields
F_p.  Values are stored as plain machine objects (int for the integers and
for prime-field residues, Fraction for rationals); each container (polynomial,
matrix) carries a single Domain tag and every binary operation checks that
both operands live over the same domain.  Nothing is ever coerced silently.

Invariants maintained by ``canon``:
  * rationals are in lowest terms with positive denominator (Fraction does
    this on construction),
  * prime-field values are residues in [0, p),
  * integers are Python ints (bools rejected).
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceededError, DomainMismatchError, PrimeError
from .intutil import PRIME_PROOF_LIMIT, is_prime


class Domain:
    """Base class; subclasses implement exact arithmetic on raw values."""

    name = "abstract"

    def canon(self, value):
        raise NotImplementedError

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def halve(self, a):
        """a/2 where it exists exactly; PrimeError in characteristic 2."""
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def fmt(self, a) -> str:
        """The value's text; a budget refusal for an integer (or a rational's
        numerator or denominator) longer than Python converts to decimal,
        4300 digits by default (``sys.set_int_max_str_digits``)."""
        try:
            return str(a)
        except ValueError as exc:
            raise BudgetExceededError(f"a number is too long to print: {exc}") from exc

    def parse(self, text: str):
        raise NotImplementedError

    def require_same(self, other: "Domain"):
        if self != other:
            raise DomainMismatchError(f"domains differ: {self.name} vs {other.name}")

    def __repr__(self):
        return self.name


class IntegerDomain(Domain):
    name = "ZZ"

    def canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainMismatchError(f"not an integer value: {value!r}")
        return value

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a):
        return a in (1, -1)

    def inv(self, a):
        if not self.is_unit(a):
            raise DomainMismatchError(f"{a} is not an integer unit")
        return a

    def halve(self, a):
        if a % 2:
            raise DomainMismatchError(f"{a} is odd; halving leaves the integers")
        return a // 2

    def from_int(self, n):
        return n

    def parse(self, text):
        try:
            return int(text)
        except ValueError as exc:
            raise DomainMismatchError(f"bad integer literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, IntegerDomain)

    def __hash__(self):
        return hash(self.name)


class RationalDomain(Domain):
    name = "QQ"

    def canon(self, value):
        if isinstance(value, bool):
            raise DomainMismatchError("bool is not a rational value")
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, Fraction):
            return value
        raise DomainMismatchError(f"not a rational value: {value!r}")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def is_zero(self, a) -> bool:
        return not a

    def is_unit(self, a):
        return a != 0

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def halve(self, a):
        return a / 2

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainMismatchError(f"bad rational literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, RationalDomain)

    def __hash__(self):
        return hash(self.name)


class PrimeField(Domain):
    """F_p with values stored as canonical residues in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_PROOF_LIMIT:
            raise PrimeError(f"{p} is not below the primality-proof limit {PRIME_PROOF_LIMIT}")
        if not is_prime(p):
            raise PrimeError(f"{p} is not prime")
        self.p = p
        self.name = f"GF({p})"

    def canon(self, value):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DomainMismatchError(f"not a residue value: {value!r}")
        return value % self.p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def is_unit(self, a):
        return a % self.p != 0

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def halve(self, a):
        if self.p == 2:
            raise PrimeError("cannot halve in characteristic 2")
        return a * pow(2, self.p - 2, self.p) % self.p

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        try:
            return int(text) % self.p
        except ValueError as exc:
            raise DomainMismatchError(f"bad residue literal {text!r}") from exc

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash((self.name, self.p))


ZZ = IntegerDomain()
QQ = RationalDomain()

_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    field = _GF_CACHE.get(p)
    if field is None:
        field = PrimeField(p)
        _GF_CACHE[p] = field
    return field
