"""Bidegree-(2,2) forms modulo the incidence ideal, and their covariants.

The space of bihomogeneous (2,2) forms in (x1, x2, x3, z1, z2, z3) is
36-dimensional; the 9-dimensional subspace of multiples of the incidence
form sigma = x1 z1 + x2 z2 + x3 z3 by (1,1) forms is quotiented out.  A
class is stored as the remainder of its representative on division by
sigma at the term x1 z1, which has coefficient 1: so {sigma} is a Groebner
basis over every ring, and the remainder, the part of the coset with no
term divisible by x1 z1, is the same over ZZ, QQ and GF(p) (Cox, Little
and O'Shea, "Ideals, Varieties, and Algorithms", ch. 2).  Two inputs are
congruent exactly when they canonicalize identically.

A representative f is a quadratic form in either block: f = (x) G (x)^t
with G symmetric and quadratic in z, and symmetrically for the z-block
(``gram_matrices`` names the two matrices by their contraction block).
Contracting the adjugate of each Gram matrix with the *other* block's
variables produces two sextic covariants,

    sextic_covariant_x(f) = (x) Adj(gram_z) (x)^t      (sextic in x),
    sextic_covariant_z(f) = (z) Adj(gram_x) (z)^t      (sextic in z).

These are independent of the coset representative and satisfy exact
covariance laws under the twisted action; both facts are verified by the
test suite, symbolically and on random samples.  A Gram matrix is
symmetric, so its adjugate has six distinct cofactors; a covariant adds
each one's two products of entries, times b_i b_j and doubled off the
diagonal, straight into one term map (``_adjugate_contraction``).

Over a finite field of odd characteristic, a point of the projective plane
lies on the branch locus of the corresponding projection exactly when the
fiber line is tangent to the fiber conic; the restricted-discriminant test
and the exhaustive branch-locus scan below implement that oracle.  The
genericity test is the smoothness of both sextic covariants, which also
rules out degenerate fibers over the algebraic closure (a degenerate point
is a singular point of its side's sextic; see ``is_generic_mod_p``);
``degenerate_points`` lists such points over F_{p^2}.

A class builds its Gram pair once, on first use, into a record that lives
in a private slot of the class (``_derived``).  One side's Gram matrix
gives both its fiber conics (entries as ternary terms, of which only the
six distinct ones are evaluated) and, through its adjugate, its sextic
covariant.  Every scan, ``tangency_test``, ``gram_matrices`` and the
ternary covariant accessors read that record when given a class; a raw
representative is computed afresh each time.  The branch-locus scan walks
P^2(F_p) one chart line (x, y, t) at a time.  The six distinct entries and
the sextic get their coefficients in t on every line at once, packed into
one integer per power of t; on each line those times the packed powers of
t, summed, hold all seven values at every t in fields of one integer, which
one ``int.to_bytes`` unpacks into an array (``_values_on_lines``).  The
restricted discriminant has a closed form.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache

from .domains import QQ, ZZ, Domain, PrimeField
from .errors import (
    DegreeError,
    DegeneratePointError,
    DomainMismatchError,
    PrimeError,
    SingularMatrixError,
    VariableSetError,
    ZeroInputError,
)
from .elimination import is_smooth_mod_p
from .finitefield import (
    QuadExtension,
    evaluate_terms_ext,
    ternary_zeros_ext,
)
from .matrices import Mat3, block_substitution
from .poly import (
    MAX_EXPONENT,
    VARS_BIQUAD,
    MultiPoly,
    _add_into,
    _max_exponent,
    _monomial_key,
    _mul_into,
)

X_BLOCK = ("x1", "x2", "x3")
Z_BLOCK = ("z1", "z2", "z3")


def incidence_form(domain: Domain, variables=VARS_BIQUAD) -> MultiPoly:
    """sigma = x1 z1 + x2 z2 + x3 z3 over the given variable set."""
    variables = tuple(variables)
    one = domain.one()
    terms = {}
    for xi, zi in zip(X_BLOCK, Z_BLOCK):
        exps = [0] * len(variables)
        exps[variables.index(xi)] += 1
        exps[variables.index(zi)] += 1
        terms[tuple(exps)] = one
    return MultiPoly(domain, variables, terms)


def _check_22(f: MultiPoly):
    if f.vars != VARS_BIQUAD:
        raise VariableSetError(f"expected variables {VARS_BIQUAD}")
    # x block: exponents 0-2, z block: 3-5; bidegree raises if not bihomogeneous
    if not all(e[0] + e[1] + e[2] == 2 == e[3] + e[4] + e[5] for e in f.terms):
        f.bidegree(X_BLOCK, Z_BLOCK)
        raise DegreeError("expected a bihomogeneous (2,2) form")


# The 36 monomials of bidegree (2,2), in graded-lex order.
_MONOMIALS_22: list[tuple[int, ...]] = sorted(
    (
        (a1, a2, 2 - a1 - a2, b1, b2, 2 - b1 - b2)
        for a1 in range(3)
        for a2 in range(3 - a1)
        for b1 in range(3)
        for b2 in range(3 - b1)
    ),
    key=_monomial_key,
)


def _divide_by_sigma(f: MultiPoly) -> tuple[dict, dict]:
    """The term maps (remainder, quotient) of f divided by sigma at x1 z1.

    A term x1^a z1^b m with a, b >= 1 puts q = x1^(a-1) z1^(b-1) m into the
    quotient and leaves -(x2 z2 + x3 z3) q to divide in turn; every other
    term goes to the remainder.  A (2,2) term is divided at most twice.
    """
    dom = f.domain
    remainder: dict = {}
    quotient: dict = {}
    work = f.terms
    while work:
        kept, shifted = {}, {}
        for e, c in work.items():
            x1, x2, x3, z1, z2, z3 = e
            if x1 and z1:
                shifted[(x1 - 1, x2, x3, z1 - 1, z2, z3)] = c
            else:
                kept[e] = c
        _add_into(remainder, kept, dom)
        _add_into(quotient, shifted, dom)
        work = {}
        for (x1, x2, x3, z1, z2, z3), c in shifted.items():
            c = dom.neg(c)
            _add_into(work, {(x1, x2 + 1, x3, z1, z2 + 1, z3): c}, dom)
            _add_into(work, {(x1, x2, x3 + 1, z1, z2, z3 + 1): c}, dom)
    return remainder, quotient


class Class22:
    """A (2,2)-form class stored by its canonical representative.

    A second, private slot holds the record of the class's derived data
    (see ``_derived``), set on first use; equality, hashing, repr and
    immutability ignore it.
    """

    __slots__ = ("rep", "_record")

    def __init__(self, rep: MultiPoly):
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_record", None)

    def __setattr__(self, name, value):
        raise AttributeError("Class22 is immutable")

    def __delattr__(self, name):
        raise AttributeError("Class22 is immutable")

    @property
    def domain(self):
        return self.rep.domain

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Class22):
            return NotImplemented
        return self.rep == other.rep

    def __hash__(self):
        return hash(self.rep)

    def __repr__(self):
        return f"Class22({self.rep!r})"

    # Reducing or lifting coefficients creates no term divisible by x1 z1,
    # so the moved representative is already canonical.
    def reduce_mod_p(self, p: int) -> "Class22":
        return Class22(self.rep.reduce_mod_p(p))

    def to_rationals(self) -> "Class22":
        return Class22(self.rep.to_rationals())


def canonicalize(f: MultiPoly) -> Class22:
    """The canonical coset representative of f modulo the incidence ideal."""
    _check_22(f)
    remainder, _ = _divide_by_sigma(f)
    return Class22(MultiPoly._trusted(f.domain, VARS_BIQUAD, remainder))


def ideal_multiplier(f: MultiPoly) -> MultiPoly | None:
    """The (1,1) form L with f = L * sigma, or None when f is not in the ideal."""
    _check_22(f)
    remainder, quotient = _divide_by_sigma(f)
    if remainder:
        return None
    return MultiPoly._trusted(f.domain, VARS_BIQUAD, quotient)


def is_ideal_member(f: MultiPoly) -> bool:
    return ideal_multiplier(f) is not None


def act_22(gamma: Mat3, cls: Class22) -> Class22:
    """The twisted action: x-block by gamma, z-block by its cofactor matrix.

    Any nonzero determinant is accepted: the incidence form transforms by
    det(gamma), so the ideal is preserved and the class map stays well
    defined even when the determinant is a nonunit integer.
    """
    gamma.domain.require_same(cls.domain)
    if gamma.domain.is_zero(gamma.det()):
        raise SingularMatrixError("the twisted action needs an invertible matrix")
    moved = block_substitution(gamma, gamma.cofactor_matrix(), cls.rep)
    return canonicalize(moved)


# -- Gram matrices and sextic covariants --------------------------------------


def _halved(f) -> MultiPoly:
    """The representative over a domain with exact halving (ZZ moves to QQ)."""
    rep = f.rep if isinstance(f, Class22) else f
    domain = rep.domain
    if domain == ZZ:
        return rep.to_rationals()
    if domain == QQ:
        return rep
    if isinstance(domain, PrimeField):
        if domain.p == 2:
            raise PrimeError("Gram matrices need odd characteristic")
        return rep
    raise DomainMismatchError(f"no Gram matrices over {domain.name}")


def gram_in_block(f: MultiPoly, block) -> tuple:
    """Symmetric 3x3 G with f = (b1, b2, b3) G (b1, b2, b3)^t for the block.

    Entries are polynomials over f's full variable set with the block
    exponents removed; off-diagonal entries are half the mixed coefficients,
    so the domain must admit exact halving.
    """
    dom = f.domain
    idx = [f.vars.index(b) for b in block]
    # each term of f lands in one entry (two mirrored ones off the diagonal)
    # under its own remaining exponents, so no entry ever sums two terms, and
    # its coefficient (or its half, in odd characteristic) stays canonical
    # and nonzero
    entries = [[{} for _ in range(3)] for _ in range(3)]
    for exps, coeff in f.terms.items():
        block_exps = [exps[k] for k in idx]
        if sum(block_exps) != 2:
            raise DegreeError("form is not quadratic in the chosen block")
        rest = list(exps)
        for k in idx:
            rest[k] = 0
        rest = tuple(rest)
        hot = [i for i, e in enumerate(block_exps) if e]
        if len(hot) == 1:
            entries[hot[0]][hot[0]][rest] = coeff
        else:
            entries[hot[0]][hot[1]][rest] = entries[hot[1]][hot[0]][rest] = dom.halve(coeff)
    return tuple(tuple(MultiPoly._trusted(dom, f.vars, terms) for terms in row) for row in entries)


@dataclass(frozen=True)
class GramPair:
    """Gram matrices of a representative, named by their contraction block."""

    in_x: tuple  # f = (x) in_x (x)^t; entries quadratic in z
    in_z: tuple  # f = (z) in_z (z)^t; entries quadratic in x


def gram_matrices(f) -> GramPair:
    """Both Gram matrices of f; a class's pair is built once and kept."""
    if isinstance(f, Class22):
        return _derived(f).grams
    rep = _halved(f)
    return GramPair(
        in_x=gram_in_block(rep, X_BLOCK),
        in_z=gram_in_block(rep, Z_BLOCK),
    )


# Adj(G) of a symmetric G is symmetric, with six distinct cofactors, each a
# difference of two products of entries: rows (i, j, weight, (a, b), (c, d))
# add weight * b_i b_j * G[a][b] G[c][d] to (b) Adj(G) (b)^t, the weight
# carrying the cofactor's sign and doubling the off-diagonal ones
_COFACTOR_PRODUCTS = (
    (0, 0, 1, (1, 1), (2, 2)), (0, 0, -1, (1, 2), (1, 2)),
    (1, 1, 1, (0, 0), (2, 2)), (1, 1, -1, (0, 2), (0, 2)),
    (2, 2, 1, (0, 0), (1, 1)), (2, 2, -1, (0, 1), (0, 1)),
    (0, 1, 2, (0, 2), (1, 2)), (0, 1, -2, (0, 1), (2, 2)),
    (0, 2, 2, (0, 1), (1, 2)), (0, 2, -2, (0, 2), (1, 1)),
    (1, 2, 2, (0, 1), (0, 2)), (1, 2, -2, (0, 0), (1, 2)),
)


def _adjugate_contraction(gram, block) -> MultiPoly:
    """(b) Adj(gram) (b)^t for the block variables: one side's sextic covariant.

    gram must be symmetric.  Each of its twelve cofactor products is added
    straight into one term map, its first factor's terms shifted by the
    block exponents of b_i b_j and scaled by the row's weight.  Generic in
    the coefficient ring and the variable set, so entries may carry extra
    indeterminates.
    """
    entry = gram[0][0]
    dom, variables = entry.domain, entry.vars
    idx = [variables.index(b) for b in block]
    terms: dict = {}
    for i, j, weight, (a, b), (c, d) in _COFACTOR_PRODUCTS:
        scale = dom.from_int(weight)
        shifted = {}
        for exps, coeff in gram[a][b].terms.items():
            exps = list(exps)
            exps[idx[i]] += 1
            exps[idx[j]] += 1
            shifted[tuple(exps)] = dom.mul(coeff, scale)
        _mul_into(terms, shifted, gram[c][d].terms, dom)
    if _max_exponent(terms) > MAX_EXPONENT:
        return MultiPoly(dom, variables, terms)
    return MultiPoly._trusted(dom, variables, terms)


def _covariant(f, own_block, other_block) -> MultiPoly:
    return _adjugate_contraction(gram_in_block(_halved(f), other_block), own_block)


def _ternary_terms(gram, block):
    """Gram entries as lists of (exponent triple in the block, coefficient)."""
    idx = [gram[0][0].vars.index(n) for n in block]
    return [
        [[(tuple(e[k] for k in idx), c) for e, c in gram[i][j].terms.items()] for j in range(3)]
        for i in range(3)
    ]


@dataclass(frozen=True)
class _Side:
    """One projection of a class: the fiber conics over its plane."""

    name: str  # "x" or "z"
    block: tuple  # the variables of its plane
    gram: tuple  # the fiber conic's Gram matrix, entries quadratic in the block
    terms: list  # the same entries as ternary terms in the block
    sextic: MultiPoly  # the side's sextic covariant, ternary in the block


@dataclass(frozen=True)
class _Record:
    grams: GramPair
    sides: tuple  # (x-side, z-side)


def _derived(cls: Class22) -> _Record:
    """The class's Gram pair and both sides, built on first use and kept.

    Over a point of the x-plane the fiber conic lives in the z-plane: its
    Gram matrix is the one contracted in the z-block, with entries quadratic
    in x, and the adjugate of that same matrix contracted with x is the
    x-sextic covariant.  The z-side mirrors this.  This is the only place
    that pairs a side with its Gram matrix, and the record lives as long as
    the class does.
    """
    record = cls._record
    if record is None:
        grams = gram_matrices(cls.rep)
        record = _Record(grams, tuple(
            _Side(name, block, gram, _ternary_terms(gram, block),
                  _adjugate_contraction(gram, block).restrict_to_vars(block))
            for name, block, gram in (("x", X_BLOCK, grams.in_z), ("z", Z_BLOCK, grams.in_x))
        ))
        object.__setattr__(cls, "_record", record)
    return record


def sextic_covariant_x(f) -> MultiPoly:
    """(x) Adj(G) (x)^t for G the Gram matrix in the z-block; sextic in x."""
    return _covariant(f, X_BLOCK, Z_BLOCK)


def sextic_covariant_z(f) -> MultiPoly:
    """(z) Adj(G) (z)^t for G the Gram matrix in the x-block; sextic in z."""
    return _covariant(f, Z_BLOCK, X_BLOCK)


def covariant_x_ternary(f) -> MultiPoly:
    """sextic_covariant_x as an honest ternary form in (x1, x2, x3)."""
    if isinstance(f, Class22):
        return _derived(f).sides[0].sextic
    return sextic_covariant_x(f).restrict_to_vars(X_BLOCK)


def covariant_z_ternary(f) -> MultiPoly:
    if isinstance(f, Class22):
        return _derived(f).sides[1].sextic
    return sextic_covariant_z(f).restrict_to_vars(Z_BLOCK)


def verify_well_defined(f: MultiPoly, L: MultiPoly) -> bool:
    """Covariants agree on f and f + L*sigma computed from raw representatives.

    Works over any variable superset of the two blocks, so L (and f) may
    carry extra indeterminate coefficient variables.
    """
    f.domain.require_same(L.domain)
    if f.vars != L.vars:
        raise VariableSetError("f and L must share a variable set")
    sigma = incidence_form(f.domain, f.vars)
    shifted = f + L * sigma
    same_x = _covariant(f, X_BLOCK, Z_BLOCK) == _covariant(shifted, X_BLOCK, Z_BLOCK)
    same_z = _covariant(f, Z_BLOCK, X_BLOCK) == _covariant(shifted, Z_BLOCK, X_BLOCK)
    return same_x and same_z


# -- tangency, branch locus, genericity over F_p -------------------------------


def _require_odd_prime_class(f) -> tuple[Class22, PrimeField]:
    cls = f if isinstance(f, Class22) else canonicalize(f)
    dom = cls.domain
    if not isinstance(dom, PrimeField):
        raise DomainMismatchError("finite-field scan needs a prime-field class")
    if dom.p == 2:
        raise PrimeError("tangency tests need odd characteristic")
    return cls, dom


def _field_bytes(p: int, terms: int) -> tuple[int, str | None]:
    """Bytes a field of a packed value and the array typecode of that size
    (None when no typecode is that wide), for values of lists of at most
    ``terms`` terms: such a value, assembled by ``_values_on_lines`` from
    products of three residues, is below terms * p^3."""
    need = -(-(max(terms, 1) * (p - 1) ** 3).bit_length() // 8)
    code = next((c for c in "BHIQ" if array(c).itemsize >= need), None)
    return (array(code).itemsize if code else need), code


@lru_cache(maxsize=64)
def _packed_monomials(p: int, points: tuple, top: int, slots: int, size: int) -> dict:
    """x^a y^b mod p at each (x, y) of ``points``, for a + b <= top, packed:
    the value at point i sits in field i * slots, ``size`` bytes a field."""
    step = 8 * size * slots
    return {
        (a, b): sum(pow(x, a, p) * pow(y, b, p) % p << (i * step) for i, (x, y) in enumerate(points))
        for a in range(top + 1)
        for b in range(top + 1 - a)
    }


@lru_cache(maxsize=64)
def _packed_powers(p: int, ts, top: int, slots: int, size: int) -> tuple:
    """t^k mod p at each t of ``ts`` (a range or a tuple), k = 0..top,
    packed as in ``_packed_monomials``."""
    step = 8 * size * slots
    return tuple(sum(pow(t, k, p) << (i * step) for i, t in enumerate(ts)) for k in range(top + 1))


def _values_on_lines(polys, lines, p: int):
    """Values of integer ternary term lists at every point of each line.

    Yields (x, y, ts, values) for each line (x, y, ts), the points (x, y, t)
    with t in ts; item i * len(polys) + j of ``values`` is congruent mod p
    to the value of polys[j] at the i-th point, and below
    len(polys[j]) * p^3.  Each list is packed once for all lines: the
    coefficient of t^k on line l, sum c x^a y^b over its terms (a, b, k),
    sits in field l * len(polys) + j of a packed integer per k, from the
    packed monomials of the lines' (x, y).  On a line, its block of those
    fields times the packed powers t^k puts every list's value at every t
    in its own field (the fields of t^k are len(polys) apart); the products
    summed over k are unpacked by one ``int.to_bytes`` into an array.
    """
    slots = len(polys)
    top = max((sum(e) for terms in polys for e, _ in terms), default=0)
    size, code = _field_bytes(p, max(len(terms) for terms in polys))
    monomials = _packed_monomials(p, tuple((x, y) for x, y, _ in lines), top, slots, size)
    coefficients = [0] * (top + 1)
    for j, terms in enumerate(polys):
        own = [0] * (top + 1)
        for (a, b, k), c in terms:
            own[k] += c % p * monomials[a, b]
        for k, packed in enumerate(own):
            coefficients[k] += packed << (8 * size * j)
    width = slots * size
    blocks = [packed.to_bytes(len(lines) * width, "little") for packed in coefficients]
    for l, (x, y, ts) in enumerate(lines):
        powers = _packed_powers(p, ts, top, slots, size)
        total = sum(
            power * int.from_bytes(block[l * width : (l + 1) * width], "little")
            for power, block in zip(powers, blocks)
        )
        data = total.to_bytes(len(ts) * width, "little")
        if code is None:
            values = [int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size)]
        else:
            values = array(code, data)
            if sys.byteorder == "big":
                values.byteswap()
        yield x, y, ts, values


def _eval_fp(terms, point, p: int) -> int:
    """Value mod p of integer ternary terms at an integer point."""
    x, y, t = point
    ((_, _, _, values),) = _values_on_lines([terms], [(x, y, (t,))], p)
    return values[0] % p


# the six distinct entries of a symmetric 3x3 matrix
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


def _symmetric_conic(gram_terms, value):
    """3x3 scalar Gram of a fiber conic, evaluating only the six distinct entries."""
    m = [[None] * 3 for _ in range(3)]
    for i, j in _UPPER:
        m[i][j] = m[j][i] = value(gram_terms[i][j])
    return m


# the parameters (k, l) of the fiber line a.w = 0 solved for coordinate v
_LINE_PARAMS = ((1, 2), (0, 2), (0, 1))


def _restricted_disc(m, a, p: int):
    """(discriminant, degenerate) of the conic m restricted to the line a.w = 0.

    The line is solved for its largest-index nonzero coordinate a_v and
    spanned by w_k = e_k + r_k e_v, w_l = e_l + r_l e_v (k < l, r = -a/a_v);
    on s w_k + t w_l the conic is alpha s^2 + beta s t + gamma t^2 with
    alpha = m(w_k, w_k), beta = 2 m(w_k, w_l), gamma = m(w_l, w_l), and the
    discriminant beta^2 - 4 alpha gamma = 4 (m(w_k, w_l)^2 - alpha gamma).
    """
    v = 2 if a[2] else 1 if a[1] else 0
    k, l = _LINE_PARAMS[v]
    u = pow(a[v], p - 2, p)
    rk, rl = -a[k] * u, -a[l] * u
    mv, mvv = m[v], m[v][v]
    alpha = (m[k][k] + 2 * rk * mv[k] + rk * rk * mvv) % p
    gamma = (m[l][l] + 2 * rl * mv[l] + rl * rl * mvv) % p
    q = (m[k][l] + rl * mv[k] + rk * mv[l] + rk * rl * mvv) % p
    return 4 * (q * q - alpha * gamma) % p, not (alpha or q or gamma)


def tangency_test(f, point, side: str = "x"):
    """Restricted discriminant of the fiber conic on the fiber line.

    The line sum(a_i w_i) = 0 is solved for the largest-index nonzero
    coordinate of ``point``; the conic restricted to the remaining two
    parameters is alpha s^2 + beta s t + gamma t^2, and the returned value
    is beta^2 - 4 alpha gamma in F_p.  ``degenerate`` reports the restricted
    form vanishing identically (the fiber contains the whole line).
    """
    cls, field = _require_odd_prime_class(f)
    p = field.p
    a = [int(v) % p for v in point]
    if all(v == 0 for v in a):
        raise ZeroInputError("projective point must be nonzero")
    for s in _derived(cls).sides:
        if s.name == side:
            m = _symmetric_conic(s.terms, lambda t: _eval_fp(t, a, p))
            return _restricted_disc(m, a, p)
    raise ValueError("side must be 'x' or 'z'")


@dataclass(frozen=True)
class BranchLocusReport:
    prime: int
    points_checked: int
    pairing: dict
    counterexamples: tuple

    @property
    def consistent(self) -> bool:
        return not self.counterexamples

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "points_checked": self.points_checked,
            "pairing": dict(self.pairing),
            "counterexamples": [
                {"side": side, "point": list(point), "disc": disc, "covariant": cov}
                for side, point, disc, cov in self.counterexamples
            ],
            "consistent": self.consistent,
        }


def branch_locus_report(f) -> BranchLocusReport:
    """Exhaustive check over P^2(F_p): tangency iff covariant vanishing.

    For each point of the x-plane the restricted discriminant of the fiber
    conic must vanish exactly when the x-sextic covariant does (and the
    mirror statement for the z-plane).  A degenerate fiber aborts with the
    offending point: the projection is not a covering there.
    """
    cls, field = _require_odd_prime_class(f)
    if cls.is_zero():
        raise ZeroInputError("the zero class has no branch locus")
    p = field.p
    counterexamples = []
    checked = 0
    # P^2(F_p) line by line, each point once with its first nonzero
    # coordinate 1: (1, a, t) for each a, then (0, 1, t), then (0, 0, 1)
    lines = [(1, a, range(p)) for a in range(p)] + [(0, 1, range(p)), (0, 0, (1,))]
    for s in _derived(cls).sides:
        side = s.name
        # the six distinct Gram entries and the sextic, the slots of a point
        polys = [s.terms[i][j] for i, j in _UPPER] + [list(s.sextic.terms.items())]
        for x, y, ts, values in _values_on_lines(polys, lines, p):
            for t, m00, m01, m02, m11, m12, m22, cov in zip(ts, *(values[j::7] for j in range(7))):
                point = (x, y, t)
                m = ((m00, m01, m02), (m01, m11, m12), (m02, m12, m22))
                cov %= p
                disc, degenerate = _restricted_disc(m, point, p)
                if degenerate:
                    raise DegeneratePointError(
                        f"fiber over {point} on the {side}-side contains its whole line",
                        point=point,
                        side=side,
                    )
                if (disc == 0) != (cov == 0):
                    counterexamples.append((side, point, disc, cov))
                checked += 1
    pairing = {
        "x_projection_branch": "sextic_covariant_x",
        "z_projection_branch": "sextic_covariant_z",
    }
    return BranchLocusReport(
        prime=p,
        points_checked=checked,
        pairing=pairing,
        counterexamples=tuple(counterexamples),
    )


def _degenerate_scan_side(side: _Side, ext: QuadExtension):
    """Degenerate fiber points over P^2(F_{p^2}) for one projection.

    Degenerate points lie on the vanishing of the side's sextic covariant,
    so only the covariant's zero locus is examined pointwise, evaluating the
    six distinct Gram entries there.
    """
    sextic = side.sextic
    if sextic.is_zero():
        raise ZeroInputError(f"{side.name}-side covariant vanishes identically")
    zero = ext.zero()

    def qform(m, u, v):
        acc = zero
        for i in range(3):
            for j in range(3):
                acc = ext.add(acc, ext.mul(ext.mul(u[i], m[i][j]), v[j]))
        return acc

    degenerate = []
    for pt in ternary_zeros_ext(list(sextic.terms.items()), 6, ext):
        m = _symmetric_conic(side.terms, lambda t: evaluate_terms_ext(t, pt, ext))
        # the line a.w = 0 is spanned by a_pivot e_k - a_k e_pivot, k != pivot
        pivot = max(i for i in range(3) if pt[i] != zero)
        vecs = []
        for k in range(3):
            if k != pivot:
                vec = [zero] * 3
                vec[k], vec[pivot] = pt[pivot], ext.neg(pt[k])
                vecs.append(vec)
        u, v = vecs
        if qform(m, u, u) == zero and qform(m, v, v) == zero and qform(m, u, v) == zero:
            degenerate.append(pt)
    return degenerate


def degenerate_points(f, p: int | None = None):
    """Degenerate fiber points of both projections over P^2(F_{p^2})."""
    cls, field = _require_odd_prime_class(f if p is None else _reduced(f, p))
    ext = QuadExtension(field.p)
    return {s.name: _degenerate_scan_side(s, ext) for s in _derived(cls).sides}


def _reduced(f, p: int):
    """The class over GF(p): an integer class is reduced, a GF(p) one kept."""
    cls = f if isinstance(f, Class22) else canonicalize(f)
    dom = cls.domain
    if dom == ZZ:
        return cls.reduce_mod_p(p)
    if not isinstance(dom, PrimeField):
        raise DomainMismatchError("expected an integer or prime-field class")
    if dom.p != p:
        raise DomainMismatchError(f"a class over GF({dom.p}) has no reduction mod {p}")
    return cls


def is_generic_mod_p(f, p: int) -> bool:
    """Whether the reduction mod p has good shape over F_p-bar.

    Good shape means (i) both sextic covariants of the reduction are
    nonzero and cut smooth plane curves, and (ii) neither projection has a
    degenerate fiber, one whose conic contains its whole fiber line.  Only
    (i) is tested, because it implies (ii).  Take the x-side (the z-side
    mirrors it) and write its sextic as a bordered determinant,
    S(x) = x^t Adj(G(x)) x = -det B(x) with B(x) = [[G(x), x], [x^t, 0]].
    Over a degenerate point x0, G(x0) = x0 l^t + l x0^t for some vector l,
    so B(x0) has the two-dimensional kernel {(v, -l.v) : x0.v = 0}; then
    Adj(B(x0)) = 0, and Jacobi's formula gives grad S(x0) = 0.  Every
    degenerate point over every extension of F_p is thus a singular point
    of its side's sextic, and the verdict is exact.

    Smoothness is the rank certificate of ``is_smooth_mod_p``, which answers
    at every odd prime, p = 3 included (there the raw discriminant of a
    sextic vanishes identically, and the sextic joins its partials among
    the generators), and scans no points, so the cost hardly depends on p.
    """
    if p == 2:
        raise PrimeError("genericity test needs odd characteristic")
    cls = _reduced(f, p)
    if cls.is_zero():
        return False
    sextics = [s.sextic for s in _derived(cls).sides]
    if any(sextic.is_zero() for sextic in sextics):
        return False
    return all(is_smooth_mod_p(sextic, p) for sextic in sextics)
