"""Sparse multivariate polynomials with exact coefficients.

A MultiPoly is an immutable value: an ordered variable tuple, a coefficient
Domain, and a term map from exponent tuples to nonzero coefficients.  Two
polynomials are equal exactly when their variable sets, domains, and term
maps agree, so the term map is the canonical form.

Monomials are ordered by graded lex (higher total degree first, then
lexicographically with earlier variables larger); printing, leading-term
conventions, and content normalization all use this order.

Text syntax (round-trips through ``parse_poly``/``str``):

    3*x1^2*z2^2 - 1/2*x1*x2*z1*z3

JSON form:

    {"vars": ["x", "y", "z"], "terms": [{"e": [2, 0, 0], "c": "3"}]}

Validation happens once, at the boundary: the public constructor (and the
``zero``/``constant``/``variable``/``monomial`` class methods), ``parse_poly``
and ``poly_from_json`` check arity, distinct variables, exponent sign and
``MAX_EXPONENT``, and put every coefficient in its domain's canonical form,
dropping zeros.  Closed operations (``+``, ``-``, ``*``, ``**``, ``scale``,
``partial_derivative``, ``restrict_to_vars``, ``substitute_linear`` and the
exact domain moves ``content_and_primitive``/``to_rationals``/``to_integers``)
produce canonical, zero-free term maps by construction and build their
results with the private ``MultiPoly._trusted``, which does no checks.  A
product whose exponents could pass ``MAX_EXPONENT`` is still built by the
validating constructor, so exponent overflow is always reported.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import chain
from math import gcd
from operator import add

from .domains import GF, QQ, ZZ, Domain, PrimeField
from .errors import (
    DegreeError,
    DomainMismatchError,
    ExponentOverflowError,
    ParseError,
    VariableSetError,
    ZeroInputError,
)

# Degrees in this problem domain stay below ~30; anything bigger is a bug.
MAX_EXPONENT = 10**6

VARS_XYZ = ("x", "y", "z")
VARS_BIQUAD = ("x1", "x2", "x3", "z1", "z2", "z3")


def _monomial_key(exponents):
    return (-sum(exponents),) + tuple(-e for e in exponents)


def _max_exponent(terms) -> int:
    return max(chain.from_iterable(terms), default=0)


def _add_into(terms: dict, other: dict, dom) -> None:
    """Add the terms of ``other`` into ``terms`` in place, dropping zeros."""
    for exps, coeff in other.items():
        cur = terms.get(exps)
        if cur is None:
            terms[exps] = coeff
        else:
            s = dom.add(cur, coeff)
            if dom.is_zero(s):
                del terms[exps]
            else:
                terms[exps] = s


def _mul_into(terms: dict, left: dict, right: dict, dom) -> None:
    """Add the product of two term maps into ``terms`` in place, dropping zeros."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(add, e1, e2))
            prod = dom.mul(c1, c2)
            cur = terms.get(exps)
            if cur is None:
                terms[exps] = prod
            else:
                s = dom.add(cur, prod)
                if dom.is_zero(s):
                    del terms[exps]
                else:
                    terms[exps] = s


class MultiPoly:
    """Immutable sparse polynomial over an exact domain."""

    __slots__ = ("domain", "vars", "terms")

    def __init__(self, domain: Domain, variables, terms):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "vars", tuple(variables))
        nvars = len(self.vars)
        if len(set(self.vars)) != nvars:
            raise VariableSetError(f"duplicate variable in {self.vars}")
        canon: dict[tuple[int, ...], object] = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != nvars:
                raise VariableSetError(
                    f"exponent vector {exps} does not match {nvars} variables"
                )
            if any(e < 0 for e in exps):
                raise ExponentOverflowError(f"negative exponent in {exps}")
            if any(e > MAX_EXPONENT for e in exps):
                raise ExponentOverflowError(f"exponent too large in {exps}")
            c = domain.canon(coeff)
            if not domain.is_zero(c):
                canon[exps] = c
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _trusted(cls, domain: Domain, variables: tuple, terms: dict) -> "MultiPoly":
        """Wrap a term map that is already canonical: no checks, no copy.

        ``variables`` must be a tuple of distinct names and ``terms`` a map
        from in-range exponent tuples of that length to canonical nonzero
        coefficients of ``domain``; only closed operations call this.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "domain", domain)
        object.__setattr__(poly, "vars", variables)
        object.__setattr__(poly, "terms", terms)
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def __delattr__(self, name):
        raise AttributeError("MultiPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, domain, variables):
        return cls(domain, variables, {})

    @classmethod
    def constant(cls, domain, variables, value):
        variables = tuple(variables)
        return cls(domain, variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, domain, variables, name):
        variables = tuple(variables)
        if name not in variables:
            raise VariableSetError(f"unknown variable {name!r}")
        exps = [0] * len(variables)
        exps[variables.index(name)] = 1
        return cls(domain, variables, {tuple(exps): domain.one()})

    @classmethod
    def monomial(cls, domain, variables, exponents, coeff):
        return cls(domain, variables, {tuple(exponents): coeff})

    # -- inspection ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        """Max term degree, or None for the zero polynomial."""
        if not self.terms:
            return None
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def homogeneous_degree(self) -> int:
        if not self.terms:
            raise ZeroInputError("zero polynomial has no homogeneous degree")
        degrees = {sum(e) for e in self.terms}
        if len(degrees) != 1:
            raise DegreeError("polynomial is not homogeneous")
        return degrees.pop()

    def bidegree(self, first_block, second_block):
        """(deg in first block, deg in second block) when bihomogeneous."""
        idx1 = [self._var_index(v) for v in first_block]
        idx2 = [self._var_index(v) for v in second_block]
        pairs = {(sum(e[i] for i in idx1), sum(e[i] for i in idx2)) for e in self.terms}
        if len(pairs) > 1:
            raise DegreeError("polynomial is not bihomogeneous")
        return pairs.pop() if pairs else None

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: _monomial_key(item[0]))

    def leading_coefficient(self):
        if not self.terms:
            raise ZeroInputError("zero polynomial has no leading term")
        return self.terms[min(self.terms, key=_monomial_key)]

    def coefficient(self, exponents):
        return self.terms.get(tuple(exponents), self.domain.zero())

    def _var_index(self, name: str) -> int:
        try:
            return self.vars.index(name)
        except ValueError:
            raise VariableSetError(f"unknown variable {name!r}") from None

    def _check_compatible(self, other: "MultiPoly"):
        self.domain.require_same(other.domain)
        if self.vars != other.vars:
            raise VariableSetError(f"variable sets differ: {self.vars} vs {other.vars}")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check_compatible(other)
        terms = dict(self.terms)
        _add_into(terms, other.terms, self.domain)
        return MultiPoly._trusted(self.domain, self.vars, terms)

    def __neg__(self):
        dom = self.domain
        return MultiPoly._trusted(dom, self.vars, {e: dom.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compatible(other)
        dom = self.domain
        if not self.terms or not other.terms:
            return MultiPoly._trusted(dom, self.vars, {})
        result: dict[tuple[int, ...], object] = {}
        _mul_into(result, self.terms, other.terms, dom)
        # products of nonzero coefficients are nonzero (every domain is an
        # integral domain); only the exponent bound can still fail
        if _max_exponent(self.terms) + _max_exponent(other.terms) > MAX_EXPONENT:
            return MultiPoly(dom, self.vars, result)
        return MultiPoly._trusted(dom, self.vars, result)

    def scale(self, scalar):
        dom = self.domain
        c = dom.canon(scalar)
        if dom.is_zero(c):
            return MultiPoly._trusted(dom, self.vars, {})
        terms = {e: dom.mul(v, c) for e, v in self.terms.items()}
        return MultiPoly._trusted(dom, self.vars, terms)

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        one = {(0,) * len(self.vars): self.domain.one()}
        result = MultiPoly._trusted(self.domain, self.vars, one)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.domain == other.domain
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.domain, self.vars, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------

    def partial_derivative(self, name: str) -> "MultiPoly":
        idx = self._var_index(name)
        dom = self.domain
        # lowering one exponent is injective, so no two terms merge
        terms: dict[tuple[int, ...], object] = {}
        for exps, coeff in self.terms.items():
            k = exps[idx]
            if k == 0:
                continue
            c = dom.mul(coeff, dom.from_int(k))
            if not dom.is_zero(c):
                terms[exps[:idx] + (k - 1,) + exps[idx + 1:]] = c
        return MultiPoly._trusted(dom, self.vars, terms)

    def substitute_linear(self, matrix) -> "MultiPoly":
        """f((v_1, ..., v_k) . M): variable j becomes sum_i M[i][j] v_i."""
        dom = self.domain
        k = len(self.vars)
        rows = [list(r) for r in matrix]
        if len(rows) != k or any(len(r) != k for r in rows):
            raise VariableSetError(
                f"substitution matrix must be {k}x{k} for variables {self.vars}"
            )
        constant = (0,) * k
        images = []
        for j in range(k):
            img_terms: dict[tuple[int, ...], object] = {}
            for i in range(k):
                c = dom.canon(rows[i][j])
                if dom.is_zero(c):
                    continue
                exps = [0] * k
                exps[i] = 1
                img_terms[tuple(exps)] = c
            images.append(MultiPoly._trusted(dom, self.vars, img_terms))
        power_cache: list[dict[int, MultiPoly]] = [{1: images[j]} for j in range(k)]

        def power(j, e):
            cache = power_cache[j]
            if e not in cache:
                cache[e] = cache[e - 1] * images[j] if e - 1 in cache else images[j] ** e
            return cache[e]

        result: dict[tuple[int, ...], object] = {}
        for exps, coeff in self.terms.items():
            term = MultiPoly._trusted(dom, self.vars, {constant: coeff})
            for j, e in enumerate(exps):
                if e:
                    term = term * power(j, e)
            _add_into(result, term.terms, dom)
        return MultiPoly._trusted(dom, self.vars, result)

    def evaluate(self, point):
        """Evaluate at a full point given as {var: value} or a sequence."""
        dom = self.domain
        if isinstance(point, dict):
            values = [dom.canon(point[v]) for v in self.vars]
        else:
            values = [dom.canon(v) for v in point]
            if len(values) != len(self.vars):
                raise VariableSetError("point length does not match variable count")
        total = dom.zero()
        for exps, coeff in self.terms.items():
            acc = coeff
            for v, e in zip(values, exps):
                if e:
                    acc = dom.mul(acc, dom.pow(v, e))
            total = dom.add(total, acc)
        return total

    def restrict_to_vars(self, variables):
        """Project onto a sub-variable set; other exponents must be zero."""
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise VariableSetError(f"duplicate variable in {variables}")
        idx = [self._var_index(v) for v in variables]
        other = [i for i in range(len(self.vars)) if i not in idx]
        terms = {}
        for exps, coeff in self.terms.items():
            if any(exps[i] for i in other):
                raise VariableSetError(
                    f"term {exps} uses variables outside {variables}"
                )
            terms[tuple(exps[i] for i in idx)] = coeff
        return MultiPoly._trusted(self.domain, variables, terms)

    # -- domain movement ------------------------------------------------

    def content_and_primitive(self):
        """(c, g) with f = c*g, g primitive with positive leading coefficient."""
        if self.domain != ZZ:
            raise DomainMismatchError("content is defined over the integers")
        if not self.terms:
            raise ZeroInputError("zero polynomial has no content decomposition")
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        if self.leading_coefficient() < 0:
            g = -g
        return g, MultiPoly._trusted(ZZ, self.vars, {e: c // g for e, c in self.terms.items()})

    def reduce_mod_p(self, p: int) -> "MultiPoly":
        if self.domain != ZZ:
            raise DomainMismatchError("reduction mod p expects integer coefficients")
        field = GF(p)
        return MultiPoly(field, self.vars, {e: c % p for e, c in self.terms.items()})

    def to_rationals(self) -> "MultiPoly":
        if self.domain == QQ:
            return self
        if self.domain != ZZ:
            raise DomainMismatchError("only integer polynomials lift to QQ")
        return MultiPoly._trusted(QQ, self.vars, {e: Fraction(c) for e, c in self.terms.items()})

    def to_integers(self) -> "MultiPoly":
        """Exact move QQ -> ZZ; error if any coefficient has a denominator."""
        if self.domain == ZZ:
            return self
        if self.domain != QQ:
            raise DomainMismatchError("only rational polynomials move to ZZ")
        terms = {}
        for e, c in self.terms.items():
            if c.denominator != 1:
                raise DomainMismatchError(f"coefficient {c} is not an integer")
            terms[e] = c.numerator
        return MultiPoly._trusted(ZZ, self.vars, terms)

    def map_domain(self, domain: Domain) -> "MultiPoly":
        if domain == self.domain:
            return self
        if domain == QQ:
            return self.to_rationals()
        if domain == ZZ:
            return self.to_integers()
        if isinstance(domain, PrimeField):
            if self.domain == ZZ:
                return self.reduce_mod_p(domain.p)
            if self.domain == QQ:
                terms = {}
                for e, c in self.terms.items():
                    den = c.denominator % domain.p
                    if den == 0:
                        raise DomainMismatchError(
                            f"denominator of {c} vanishes mod {domain.p}"
                        )
                    terms[e] = c.numerator * domain.inv(den) % domain.p
                return MultiPoly(domain, self.vars, terms)
        raise DomainMismatchError(f"unsupported domain move to {domain.name}")

    # -- text and JSON ----------------------------------------------------

    def __str__(self):
        if not self.terms:
            return "0"
        dom = self.domain
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = [
                f"{v}^{e}" if e > 1 else v for v, e in zip(self.vars, exps) if e
            ]
            c_str = dom.fmt(coeff)
            negative = c_str.startswith("-")
            mag = c_str[1:] if negative else c_str
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            if not pieces:
                pieces.append(("-" if negative else "") + body)
            else:
                pieces.append(("- " if negative else "+ ") + body)
        return " ".join(pieces)

    def __repr__(self):
        return f"MultiPoly({self.domain.name}, {self})"

    def to_json_dict(self) -> dict:
        data = {
            "vars": list(self.vars),
            "terms": [
                {"e": list(e), "c": self.domain.fmt(c)} for e, c in self.sorted_terms()
            ],
        }
        if isinstance(self.domain, PrimeField):
            data["p"] = self.domain.p
        elif self.domain == QQ:
            data["domain"] = "QQ"
        return data


_VAR_TOKEN = re.compile(r"^([A-Za-z][A-Za-z0-9]*)(?:\^(\d+))?$")
_NUM_TOKEN = re.compile(r"^\d+(?:/\d+)?$")


def infer_variables(names) -> tuple[str, ...]:
    """Pick the canonical alphabet ({x,y,z} or {x1..x3,z1..z3}) covering names."""
    names = set(names)
    if names <= set(VARS_XYZ):
        return VARS_XYZ
    if names <= set(VARS_BIQUAD):
        return VARS_BIQUAD
    raise ParseError(f"variables {sorted(names)} fit neither supported alphabet")


def parse_poly(text: str, variables=None, domain: Domain | None = None) -> MultiPoly:
    """Parse the textual polynomial syntax.

    When ``variables`` is None the alphabet is inferred; when ``domain`` is
    None, rational literals force QQ and otherwise ZZ is used.
    """
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial text")
    normalized = stripped.replace("**", "^").replace("−", "-")
    chunks: list[tuple[int, str]] = []
    sign = 1
    buf: list[str] = []
    for ch in normalized:
        if ch in "+-":
            if "".join(buf).strip():
                chunks.append((sign, "".join(buf)))
                buf = []
                sign = -1 if ch == "-" else 1
            elif not chunks and sign == 1 and ch == "-":
                sign = -1
            elif not chunks and sign == 1 and ch == "+":
                pass
            else:
                raise ParseError(f"misplaced sign in {text!r}")
        else:
            buf.append(ch)
    if not "".join(buf).strip():
        raise ParseError(f"trailing sign in {text!r}")
    chunks.append((sign, "".join(buf)))

    raw_terms: list[tuple[int, Fraction, dict[str, int]]] = []
    seen_vars: set[str] = set()
    saw_fraction = False
    for sgn, chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            raise ParseError(f"empty term in {text!r}")
        coeff = Fraction(1)
        powers: dict[str, int] = {}
        for factor in chunk.split("*"):
            factor = factor.strip()
            if not factor:
                raise ParseError(f"empty factor in term {chunk!r}")
            if _NUM_TOKEN.match(factor):
                if "/" in factor:
                    saw_fraction = True
                coeff *= Fraction(factor)
                continue
            m = _VAR_TOKEN.match(factor)
            if not m:
                raise ParseError(f"bad factor {factor!r} in term {chunk!r}")
            name, exp = m.group(1), int(m.group(2) or 1)
            powers[name] = powers.get(name, 0) + exp
            seen_vars.add(name)
        raw_terms.append((sgn, coeff, powers))

    if variables is None:
        variables = infer_variables(seen_vars) if seen_vars else VARS_XYZ
    else:
        variables = tuple(variables)
        unknown = seen_vars - set(variables)
        if unknown:
            raise ParseError(f"variables {sorted(unknown)} not in {variables}")

    if domain is None:
        domain = QQ if saw_fraction else ZZ

    result = MultiPoly.zero(domain, variables)
    for sgn, coeff, powers in raw_terms:
        q = coeff * sgn
        if domain == ZZ:
            if q.denominator != 1:
                raise ParseError(f"rational coefficient {q} in integer context")
            value: object = q.numerator
        elif isinstance(domain, PrimeField):
            den = q.denominator % domain.p
            if den == 0:
                raise ParseError(f"denominator of {q} vanishes mod {domain.p}")
            value = q.numerator * domain.inv(den) % domain.p
        else:
            value = q
        exps = [0] * len(variables)
        for name, e in powers.items():
            exps[variables.index(name)] = e
        mono = MultiPoly.monomial(domain, variables, tuple(exps), value)
        result = result + mono
    return result


def poly_from_json(data) -> MultiPoly:
    if isinstance(data, str):
        data = json.loads(data)
    try:
        variables = tuple(data["vars"])
        term_list = list(data["terms"])
        p = int(data["p"]) if "p" in data else None
        rational = data.get("domain") == "QQ" or any("/" in str(t["c"]) for t in term_list)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed polynomial JSON: {exc}") from exc
    domain: Domain = GF(p) if p is not None else QQ if rational else ZZ
    terms = {}
    for t in term_list:
        try:
            exps = tuple(int(e) for e in t["e"])
            coeff = domain.parse(str(t["c"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed term {t!r}") from exc
        if exps in terms:
            raise ParseError(f"duplicate exponent vector {exps}")
        terms[exps] = coeff
    return MultiPoly(domain, variables, terms)


def euler_contraction(f: MultiPoly) -> MultiPoly:
    """sum_v v * df/dv; equals deg(f) * f for homogeneous f."""
    total = MultiPoly.zero(f.domain, f.vars)
    for v in f.vars:
        total = total + MultiPoly.variable(f.domain, f.vars, v) * f.partial_derivative(v)
    return total
