"""Macaulay resultants of ternary forms and discriminants of plane curves.

For three ternary forms of equal degree d, the classical square Macaulay
matrix M is built at the critical degree nu = 3(d-1)+1: rows and columns are
indexed by the degree-nu monomials, and the row of a monomial m holds the
coefficients of (m / v_i^d) * g_i, where v_i is the first variable whose
exponent in m reaches d.  The resultant is the exact quotient

    Res(g1, g2, g3) = det(M) / det(M'),

where M' is the submatrix indexed by the monomials divisible by at least two
of v_1^d, v_2^d, v_3^d.  The identity det(M) = Res * det(M') holds for all
coefficient values, so the quotient is valid whenever det(M') != 0.  When
det(M') vanishes, the forms are transformed by a fixed sequence of unimodular
changes of variables (det = 1 leaves the resultant unchanged) and the
computation is retried; after eight failures we give up loudly.

The curve discriminant is the resultant of the three partial derivatives,
homogeneous of degree 3(n-1)^2 in the coefficients; dividing by the content
of that integer polynomial (a per-degree constant, read from a built-in
table that ``derive_normalization_constant`` reproduces by sampling) gives
the primitive normalization.

The rows of M and M' are built straight from the forms' terms, as
(column, coefficient) pairs of their nonzero entries.  Determinants are
fraction-free Bareiss over the integers, on those rows made dense, and,
over prime fields, row elimination on the same rows packed into one Python
integer each, from coefficients reduced mod p once per form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from random import Random

from .domains import GF, QQ, ZZ, PrimeField
from .errors import (
    ConstantSupportError,
    DegreeError,
    DomainMismatchError,
    MacaulayDegenerateError,
    VariableSetError,
    ZeroInputError,
)
from .finitefield import QuadExtension, evaluate_terms_ext, ternary_zeros_ext
from .intutil import strip_primes, trial_factor
from .poly import MultiPoly


# -- determinants over exact scalars -----------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix (destroys its input)."""
    n = len(rows)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, n):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        tail = rows[k][k + 1 :]
        for i in range(k + 1, n):
            row = rows[i]
            lead = row[k]
            if lead:
                row[k + 1 :] = [
                    (pivot * a - lead * b) // prev for a, b in zip(row[k + 1 :], tail)
                ]
            elif prev != pivot:
                row[k + 1 :] = [pivot * a // prev for a in row[k + 1 :]]
        prev = pivot
    return sign * rows[n - 1][n - 1]


def det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant over F_p of an integer matrix given as dense rows.

    The input is read, not modified.
    """
    return _det_sparse_mod_p([[(j, a % p) for j, a in enumerate(row) if a] for row in rows], p)


def _det_sparse_mod_p(rows: list[list[tuple[int, int]]], p: int) -> int:
    """Determinant over F_p of a square matrix given row by row as
    (column, entry) pairs, each entry in [0, p), by row elimination on rows
    packed into integers.

    Each row becomes one nonnegative integer with column j in bits
    [j*w, (j+1)*w), w = (n*p*p).bit_length().  After step k every remaining
    row is shifted right by w, so the pivot column is always the low field.
    The pivot row is reduced to [0, p) and scaled to lead 1 once per step;
    every other row with lead l != 0 becomes (row >> w) + (p - l) * pivot,
    which adds less than p*p to each field.  A row takes at most n - 1 such
    updates on top of an entry below p, so every field stays below n*p*p
    < 2**w and no carry crosses a field.  Pivot choice (first row whose
    lead is nonzero mod p) and the sign of each swap are those of plain
    elimination.
    """
    n = len(rows)
    w = (n * p * p).bit_length()
    mask = (1 << w) - 1
    packed = [sum(a << (j * w) for j, a in row) for row in rows]
    det = 1
    for k in range(n):
        for i in range(k, n):
            lead = (packed[i] & mask) % p
            if lead:
                break
        else:
            return 0
        if i != k:
            packed[k], packed[i] = packed[i], packed[k]
            det = -det
        det = det * lead % p
        inv = pow(lead, p - 2, p)
        # the pivot row past its lead, each field reduced and scaled by 1/lead
        rest, pivot, shift = packed[k] >> w, 0, 0
        while rest:
            a = rest & mask
            if a:
                pivot |= (a * inv % p) << shift
            rest >>= w
            shift += w
        for i in range(k + 1, n):
            r = packed[i]
            lead = (r & mask) % p
            packed[i] = (r >> w) + (p - lead) * pivot if lead else r >> w
    return det % p


# -- the Macaulay construction ------------------------------------------------


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    out = []
    for a in range(degree, -1, -1):
        for b in range(degree - a, -1, -1):
            out.append((a, b, degree - a - b))
    return out


@dataclass(frozen=True)
class _MacaulayPlan:
    degree: int
    critical: int
    monomials: tuple[tuple[int, int, int], ...]
    index: dict
    assignment: tuple[tuple[int, tuple[int, int, int]], ...]
    nonreduced: tuple[int, ...]
    minor_index: dict  # column of each monomial of M' within M'


@lru_cache(maxsize=None)
def _plan(d: int) -> _MacaulayPlan:
    nu = 3 * (d - 1) + 1
    monos = tuple(_monomials(nu))
    index = {m: i for i, m in enumerate(monos)}
    assignment = []
    nonreduced = []
    for i, m in enumerate(monos):
        flags = [m[0] >= d, m[1] >= d, m[2] >= d]
        which = flags.index(True)
        mult = list(m)
        mult[which] -= d
        assignment.append((which, tuple(mult)))
        if sum(flags) >= 2:
            nonreduced.append(i)
    minor_index = {monos[i]: j for j, i in enumerate(nonreduced)}
    return _MacaulayPlan(
        d, nu, monos, index, tuple(assignment), tuple(nonreduced), minor_index
    )


def _sparse_rows(plan: _MacaulayPlan, terms, minor: bool) -> list[list[tuple[int, int]]]:
    """The rows of M, or of M' when ``minor``, as (column, coefficient) pairs.

    ``terms`` holds each form's (exponents, coefficient) pairs.  A row's
    pairs are its form's terms shifted by the row's multiplier, so only the
    nonzero entries are ever touched; in M' a shifted term whose monomial
    is not a column of M' is dropped.
    """
    if minor:
        row_ids, index = plan.nonreduced, plan.minor_index
    else:
        row_ids, index = range(len(plan.monomials)), plan.index
    rows = []
    for r in row_ids:
        which, (a, b, c) = plan.assignment[r]
        row = []
        for (x, y, z), coeff in terms[which]:
            j = index.get((a + x, b + y, c + z))
            if j is not None:
                row.append((j, coeff))
        rows.append(row)
    return rows


def _dense(rows: list[list[tuple[int, int]]]) -> list[list[int]]:
    """Square dense rows from rows of (column, entry) pairs."""
    out = []
    for pairs in rows:
        row = [0] * len(rows)
        for j, a in pairs:
            row[j] = a
        out.append(row)
    return out


_SHEAR_TABLE = (
    (1, 0, 0, 1, 0, 0),
    (0, 1, 0, 0, 1, 0),
    (1, 1, 0, 0, 0, 1),
    (0, 0, 1, 1, 1, 0),
    (2, 0, 1, 0, 1, 1),
    (1, 2, 0, 1, 0, 2),
    (0, 1, 2, 2, 1, 0),
    (2, 1, 1, 1, 2, 1),
)


def _unimodular(attempt: int) -> list[list[int]]:
    """attempt-th fixed unimodular change: a lower shear times an upper shear."""
    a, b, c, d, e, f = _SHEAR_TABLE[attempt]
    lower = ((1, 0, 0), (a, 1, 0), (b, c, 1))
    upper = ((1, d, e), (0, 1, f), (0, 0, 1))
    return [
        [sum(lower[i][k] * upper[k][j] for k in range(3)) for j in range(3)]
        for i in range(3)
    ]


def _quotient(plan, forms, p: int | None) -> int | None:
    """det(M)/det(M') over ZZ (p None) or GF(p), or None when det(M') = 0.

    Over ZZ the rows are densified for Bareiss; over GF(p) each form's
    coefficients are reduced mod p once and the rows are packed from them.
    """
    if p is None:
        terms = [list(g.terms.items()) for g in forms]
    else:
        terms = [[(e, c % p) for e, c in g.terms.items()] for g in forms]

    def det(minor):
        rows = _sparse_rows(plan, terms, minor)
        return det_bareiss(_dense(rows)) if p is None else _det_sparse_mod_p(rows, p)

    dprime = 1
    if plan.nonreduced:
        dprime = det(True)
        if dprime == 0:
            return None
    dfull = det(False)
    if p is not None:
        return dfull * pow(dprime, p - 2, p) % p
    quotient, remainder = divmod(dfull, dprime)
    if remainder:
        raise ArithmeticError("Macaulay quotient failed to divide exactly")
    return quotient


def _sheared(forms):
    """The forms themselves, then their images under each fixed unimodular change."""
    yield forms
    for attempt in range(len(_SHEAR_TABLE)):
        change = _unimodular(attempt)
        yield tuple(g.substitute_linear(change) for g in forms)


def _resultant_exact(forms, p: int | None):
    """The Macaulay quotient over ZZ (p None) or GF(p), with the degenerate path."""
    plan = _plan(forms[0].homogeneous_degree())
    for moved in _sheared(forms):
        quotient = _quotient(plan, moved, p)
        if quotient is not None:
            return quotient
    raise MacaulayDegenerateError(
        "reduced Macaulay minor vanished for every retry; resultant undetermined"
    )


def macaulay_resultant(g1: MultiPoly, g2: MultiPoly, g3: MultiPoly):
    """Classical resultant of three ternary forms of equal degree.

    Returns a scalar in the forms' domain.  Zero exactly when the forms share
    a projective zero over the algebraic closure.  Scaling g_i by c scales
    the result by c**(d*d).
    """
    forms = (g1, g2, g3)
    dom = g1.domain
    for g in forms[1:]:
        dom.require_same(g.domain)
        if g.vars != g1.vars:
            raise VariableSetError("resultant inputs must share one variable set")
    if len(g1.vars) != 3:
        raise VariableSetError("resultant is defined for ternary forms")
    for g in forms:
        if g.is_zero():
            raise ZeroInputError("resultant of a zero form is identically zero")
        if not g.is_homogeneous():
            raise DegreeError("resultant inputs must be homogeneous")
    d = g1.homogeneous_degree()
    if any(g.homogeneous_degree() != d for g in forms[1:]):
        raise DegreeError("resultant inputs must have equal degrees")
    if d < 1:
        raise DegreeError("resultant needs positive degree")

    if dom == ZZ:
        return _resultant_exact(forms, None)
    if isinstance(dom, PrimeField):
        return _resultant_exact(forms, dom.p)
    if dom == QQ:
        scaled = []
        correction = Fraction(1)
        for g in forms:
            lam = 1
            for c in g.terms.values():
                lam = lam * c.denominator // gcd(lam, c.denominator)
            scaled.append(g.scale(Fraction(lam)).to_integers())
            correction *= Fraction(lam) ** (d * d)
        return Fraction(_resultant_exact(tuple(scaled), None)) / correction
    raise DomainMismatchError(f"resultant unsupported over {dom.name}")


# -- discriminants -------------------------------------------------------------


def resultant_of_partials(f: MultiPoly):
    """Raw discriminant value: Res(df/dv1, df/dv2, df/dv3).

    A vanishing partial derivative forces the value 0 (the resultant is
    multihomogeneous of positive degree in each form's coefficients).
    """
    if len(f.vars) != 3:
        raise VariableSetError("discriminants are defined for ternary forms")
    if f.is_zero():
        raise ZeroInputError("discriminant of the zero form")
    if not f.is_homogeneous():
        raise DegreeError("discriminant inputs must be homogeneous")
    partials = [f.partial_derivative(v) for v in f.vars]
    if any(g.is_zero() for g in partials):
        return f.domain.zero()
    return _resultant_lifting_mod_p(partials)


def _resultant_lifting_mod_p(forms):
    """macaulay_resultant, retried over ZZ when every GF(p) retry degenerates.

    The resultant is an integer polynomial in the coefficients, so the
    reduction of the integer resultant of the least-residue lifts equals the
    mod-p one.
    """
    try:
        return macaulay_resultant(*forms)
    except MacaulayDegenerateError:
        domain = forms[0].domain
        if not isinstance(domain, PrimeField):
            raise
        return macaulay_resultant(*(_lift(g) for g in forms)) % domain.p


NORMALIZATION_SEED = 74025521
NORMALIZATION_MAX_DEGREE = 4

# Per-degree content of the raw discriminant polynomial, derived by
# ``derive_normalization_constant`` (gcd of raw values over a seeded sample;
# an overestimate is possible in principle but is caught by the stability
# tests).  Sign convention: positive.  The cached values below were derived
# with the default seed and reproduced with independent seeds.
_BUILTIN_CONSTANTS: dict[int, dict] = {
    2: {"value": 2, "samples_used": 18, "seed": NORMALIZATION_SEED,
        "method": "gcd of raw resultant-of-partials values"},
    3: {"value": 27, "samples_used": 18, "seed": NORMALIZATION_SEED,
        "method": "gcd of raw resultant-of-partials values"},
    4: {"value": 16384, "samples_used": 19, "seed": NORMALIZATION_SEED,
        "method": "gcd of raw resultant-of-partials values"},
}

def derive_normalization_constant(
    n: int, samples: int = 64, seed: int = NORMALIZATION_SEED, coeff_bound: int = 6
) -> tuple[int, dict]:
    """gcd of raw discriminant values over a deterministic random sample."""
    if n < 2:
        raise DegreeError("discriminant constants start at degree 2")
    rng = Random(seed + 1009 * n)
    monos = _monomials(n)
    g = 0
    used = 0
    stable = 0
    while used < samples and stable < 16:
        terms = {
            m: rng.randint(-coeff_bound, coeff_bound) for m in monos
        }
        f = MultiPoly(ZZ, ("x", "y", "z"), terms)
        if f.is_zero():
            continue
        raw = resultant_of_partials(f)
        if raw == 0:
            continue
        new = gcd(g, raw)
        stable = stable + 1 if new == g and g else 0
        g = new
        used += 1
    meta = {
        "degree": n,
        "samples_used": used,
        "seed": seed,
        "coeff_bound": coeff_bound,
        "method": "gcd of raw resultant-of-partials values",
    }
    return g, meta


def normalization_constant(n: int) -> tuple[int, dict]:
    """The built-in content constant for degree n, with its derivation record."""
    if n < 2:
        raise DegreeError("discriminant constants start at degree 2")
    if n not in _BUILTIN_CONSTANTS:
        raise ConstantSupportError(
            f"no cached normalization constant for degree {n}; "
            "raw (unnormalized) discriminants remain available"
        )
    entry = _BUILTIN_CONSTANTS[n]
    return entry["value"], dict(entry)


@dataclass(frozen=True)
class DiscriminantReport:
    degree: int
    raw: object
    constant: int | None
    normalized: object
    degree_check: int

    def to_json_dict(self, fmt=str) -> dict:
        return {
            "degree": self.degree,
            "raw": fmt(self.raw),
            "constant": None if self.constant is None else str(self.constant),
            "normalized": None if self.normalized is None else fmt(self.normalized),
            "degree_check": self.degree_check,
        }


def discriminant(f: MultiPoly, normalize: bool = True) -> DiscriminantReport:
    """Discriminant of a ternary form of degree n >= 2.

    ``raw`` is the resultant of the three partials; ``normalized`` divides by
    the per-degree content constant so that normalized * constant == raw.
    Zero exactly when the cut-out plane curve is singular over the closure.
    """
    if f.is_zero():
        raise ZeroInputError("discriminant of the zero form")
    n = f.homogeneous_degree()
    if n < 2:
        raise DegreeError(f"discriminant needs degree >= 2, got {n}")
    raw = resultant_of_partials(f)
    constant = None
    normalized = None
    if normalize:
        if not (f.domain == ZZ or f.domain == QQ):
            raise DomainMismatchError(
                "normalized discriminants are defined over ZZ/QQ"
            )
        constant, _meta = normalization_constant(n)
        if f.domain == ZZ:
            quotient, remainder = divmod(raw, constant)
            if remainder:
                raise ArithmeticError(
                    "normalization constant does not divide a raw value; "
                    "the cached constant is an overestimate"
                )
            normalized = quotient
        else:
            normalized = Fraction(raw) / constant
    return DiscriminantReport(
        degree=n,
        raw=raw,
        constant=constant,
        normalized=normalized,
        degree_check=3 * (n - 1) ** 2,
    )


# -- smoothness over prime fields ----------------------------------------------

_WITNESS_CACHE: dict[tuple[int, int], bool] = {}


def _content_coprime_witness(n: int, p: int) -> bool:
    """True when some degree-n form over F_p has nonzero raw discriminant.

    One nonzero value certifies that p does not divide the content of the
    raw discriminant polynomial; exhausting the attempts without a witness
    leaves the verdict at this prime unreliable.
    """
    key = (n, p)
    if key in _WITNESS_CACHE:
        return _WITNESS_CACHE[key]
    field = GF(p)
    candidates = []
    fermat = {(n, 0, 0): 1, (0, n, 0): 1, (0, 0, n): 1}
    candidates.append(fermat)
    if n >= 3:
        candidates.append({(n - 1, 1, 0): 1, (0, n - 1, 1): 1, (1, 0, n - 1): 1})
    rng = Random(900001 + 31 * n + p)
    monos = _monomials(n)
    for _ in range(12):
        candidates.append({m: rng.randrange(p) for m in monos})
    found = False
    for terms in candidates:
        g = MultiPoly(field, ("x", "y", "z"), terms)
        if g.is_zero():
            continue
        partials = [g.partial_derivative(v) for v in g.vars]
        if any(q.is_zero() for q in partials):
            continue
        try:
            if macaulay_resultant(*partials) != 0:
                found = True
                break
        except MacaulayDegenerateError:
            continue
    _WITNESS_CACHE[key] = found
    return found


def is_smooth_mod_p(f: MultiPoly, p: int) -> bool:
    """Whether the reduction of f cuts a smooth plane curve over F_p-bar.

    The verdict is the nonvanishing of the primitive discriminant of the
    reduction.  A nonzero mod-p resultant of the partials certifies
    smoothness directly.  A zero one certifies singularity once p is known
    not to divide the content of the raw discriminant polynomial (a nonzero
    witness value establishes that).  At a content prime the verdict falls
    back, for integer input of degree within the cached-constant range, to
    reducing the exact normalized integer discriminant; otherwise a
    ConstantSupportError is raised instead of guessing.
    """
    if f.domain == ZZ:
        fint = f
        fbar = f.reduce_mod_p(p)
    elif isinstance(f.domain, PrimeField) and f.domain.p == p:
        fint = None
        fbar = f
    else:
        raise DomainMismatchError("is_smooth_mod_p expects an integer form")
    if fbar.is_zero():
        raise ZeroInputError(f"form vanishes identically mod {p}")
    n = fbar.homogeneous_degree()
    if n < 2:
        raise DegreeError("smoothness test needs degree >= 2")
    partials = [fbar.partial_derivative(v) for v in fbar.vars]
    nonzero = [g for g in partials if not g.is_zero()]
    if not nonzero:
        # the Jacobian vanishes identically on a nonempty curve
        return False
    if len(nonzero) == 3:
        try:
            raw = _resultant_lifting_mod_p(partials)
        except MacaulayDegenerateError:
            # too degenerate for the quotient on every retry: certify
            # singularity by exhibiting a singular point instead
            if singular_points_fp2(fbar, p):
                return False
            raise
        if raw != 0:
            return True
    if _content_coprime_witness(n, p):
        return False
    if fint is not None and n <= NORMALIZATION_MAX_DEGREE:
        constant, _meta = normalization_constant(n)
        raw_int = resultant_of_partials(fint)
        quotient, remainder = divmod(raw_int, constant)
        if remainder:
            raise ArithmeticError("cached normalization constant is an overestimate")
        return quotient % p != 0
    raise ConstantSupportError(
        f"raw discriminant vanishes identically over GF({p}) at degree {n}; "
        "smoothness verdict would be unreliable"
    )


def _lift(g: MultiPoly) -> MultiPoly:
    """Least-residue lift F_p -> ZZ (coefficientwise)."""
    return MultiPoly(ZZ, g.vars, dict(g.terms))


def singular_points_fp2(fbar: MultiPoly, p: int) -> list:
    """Singular points of the curve over P^2(F_{p^2}), as pairs a + b t.

    Sound singularity certificate for inputs too degenerate for the
    Macaulay quotient (e.g. partials with a common factor).  Zeros of the
    form are enumerated first; the partials are checked only there.
    """
    ext = QuadExtension(p)
    zeros = ternary_zeros_ext(
        list(fbar.terms.items()), fbar.homogeneous_degree(), ext
    )
    partial_terms = [
        list(fbar.partial_derivative(v).terms.items()) for v in fbar.vars
    ]
    zero = ext.zero()
    return [
        pt
        for pt in zeros
        if all(evaluate_terms_ext(ts, pt, ext) == zero for ts in partial_terms)
    ]


def bad_primes(
    f: MultiPoly, s_primes=(), trial_bound: int = 100_000
) -> tuple[set[int], int]:
    """Primes outside S dividing the raw discriminant, plus unfactored rest.

    Trial-divides |raw| by all primes up to ``trial_bound`` and by every
    prime of S; any remaining cofactor > 1 is returned explicitly rather
    than factored further.
    """
    report = discriminant(f, normalize=False)
    raw = report.raw
    if raw == 0:
        raise ZeroInputError("form is singular over QQ; no good-reduction profile")
    if isinstance(raw, Fraction):
        raise DomainMismatchError("bad-prime profiles need integer coefficients")
    s_primes = set(int(p) for p in s_primes)
    value = strip_primes(abs(raw), s_primes)
    factors, cofactor = trial_factor(value, trial_bound)
    return set(factors) - s_primes, cofactor
