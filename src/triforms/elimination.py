"""Resultants of ternary forms and discriminants of plane curves.

Over ZZ and QQ (cleared of denominators) the resultant of three ternary
d-ics is the determinant of their hybrid Sylvester-Bezout matrix
(``_hybrid_rows``), with no extraneous factor and so no degenerate case,
by fraction-free Bareiss (Math. Comp. 1968) in which each row keeps its own
divisor: the pivot of the last step that updated it.  A step at which a
row's lead is zero would only multiply it by p_k / p_(k-1); these factors
telescope, so such a row is not touched.

Over GF(p) it is the classical Macaulay quotient det(M) / det(M'), M the
square matrix at the critical degree 3(d-1)+1 whose row of a monomial m
holds (m / v^d) g_v for the first variable v with m_v >= d, and M' its
submatrix on the monomials divisible by at least two of the v^d.  When
det(M') vanishes mod p the quotient is retried on the five permutations of
the variables (an odd one multiplies the resultant by (-1)^d), and when
all six vanish the hybrid determinant is taken mod p.

The curve discriminant is the resultant of the three partial derivatives,
homogeneous of degree 3(n-1)^2 in the coefficients; dividing by the content
of that integer polynomial, n^a with a = ((n-1)^3 + 1)/n (Demazure), gives
the primitive normalization.

Every Macaulay elimination reads one layout per degree tuple (``_layout``):
column (a, b, c) is field b(D + 1) + c, and each row is a form shifted up by
the fields of its multiplier, M' the rows of M masked to its columns; rows
and columns are both in field order, so neither determinant changes.  Each
form is packed into one Python integer, w bits a field, and
``_eliminate_mod_p`` reduces each pivot row mod p at once by division by an
invariant integer (Granlund-Montgomery), then adds it to every other row
with lead l times the one scalar -l / lead mod p.

Smoothness mod p needs no value, only whether the partials (with the form
itself when p divides the degree) have a common zero over F_p-bar: a rank
certificate, ``_no_common_zero``, on the same layout, since forms with no
common zero span every form of degree d1 + d2 + d3 - 2 (Macaulay).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import gcd

from .domains import QQ, ZZ, PrimeField
from .errors import (
    DegreeError,
    DomainMismatchError,
    VariableSetError,
    ZeroInputError,
)
from .intutil import strip_primes, trial_factor
from .poly import MultiPoly


# -- determinants over exact scalars -----------------------------------------


def det_bareiss(rows: list[list[int]]) -> int:
    """Fraction-free elimination of an integer matrix (destroys its input).

    Given at least as many rows as columns: the determinant when square,
    and always nonzero exactly when the columns are independent, 0 as soon
    as a column has no pivot (so 0 for fewer rows than columns).

    Bareiss (Math. Comp. 1968) with the row's own divisor.  ``pivots[0]``
    is 1 and ``pivots[k + 1]`` the pivot of step k, from the first row at
    or below k nonzero in column k; ``since[i]`` is 0 or the step after the
    last one that updated row i, and moves with the row.  Bareiss's step k
    would multiply a row with a zero lead by pivots[k + 1] / pivots[k];
    these factors telescope, so the true row before step k is the stored
    row times pivots[k] / pivots[since[i]], with the same zeros, and such a
    row is not touched.  A row with lead l becomes (pivot * a - l * b) /
    pivots[since[i]], with b the pivot row brought up to date at its step:
    the true update divided by pivots[k].  Every division is exact, each
    quotient a minor of the input.  Returns the swaps' sign times the last
    pivot.
    """
    m, n = len(rows), len(rows[0]) if rows else 0
    sign, pivots, since = 1, [1], [0] * m
    for k in range(n):
        for r in range(k, m):
            if rows[r][k]:
                break
        else:
            return 0
        if r != k:
            rows[k], rows[r] = rows[r], rows[k]
            since[k], since[r] = since[r], since[k]
            sign = -sign
        pivot, tail = rows[k][k], rows[k][k + 1 :]
        if since[k] != k:
            prev, own = pivots[k], pivots[since[k]]
            pivot, tail = pivot * prev // own, [a * prev // own for a in tail]
        pivots.append(pivot)
        for i in range(k + 1, m):
            row = rows[i]
            lead = row[k]
            if lead:
                own = pivots[since[i]]
                row[k + 1 :] = [(pivot * a - lead * b) // own for a, b in zip(row[k + 1 :], tail)]
                since[i] = k + 1
    return sign * pivots[-1]


def det_mod_p(rows: list[list[int]], p: int) -> int:
    """Determinant over F_p of an integer matrix given as dense rows.

    The input is read, not modified: each row is reduced mod p and packed
    into one integer for ``_eliminate_mod_p``.
    """
    n = len(rows)
    w = _field_width(n, p)
    packed = [sum((a % p) << (j * w) for j, a in enumerate(row)) for row in rows]
    return _eliminate_mod_p(packed, p, w, (1,) * n)


def _field_width(steps: int, p: int) -> int:
    """Bits per field of a packed row that takes up to ``steps`` updates.

    A field starts below p and each update adds a scalar below p times a
    reduced pivot field, less than p*p, so it stays below steps*p*p; one
    guard bit above that keeps every field below 2^(w-1), the range in
    which ``_residues`` reduces it.
    """
    return (max(steps, 1) * p * p).bit_length() + 1


@lru_cache(maxsize=256)
def _reducer(p: int, w: int, slots: int) -> tuple[int, int, int, int]:
    """Constants that reduce every field of a packed row mod p at once.

    Division by an invariant integer (Granlund and Montgomery, PLDI 1994):
    with s = (w - 1) + bitlen(p) and m = ceil(2^s / p), floor(x m / 2^s)
    = floor(x / p) for 0 <= x < 2^(w-1), and x m < 2^(2w).  So when every
    other field of a row is spread into a 2w-bit slot, one product by m
    holds each slot's x m without a carry into the next.  Returns s, m and,
    over ``slots`` slots, the mask of each slot's low w bits and that of
    the 2w - s bits that hold floor(x m / 2^s) after the shift by s.
    """
    s = w - 1 + p.bit_length()
    ones = ((1 << (2 * w * slots)) - 1) // ((1 << (2 * w)) - 1)  # bit 0 of every slot
    return s, -(-(1 << s) // p), ones * ((1 << w) - 1), ones * ((1 << (2 * w - s)) - 1)


def _residues(row: int, p: int, w: int) -> int:
    """The packed row with each field reduced mod p, in one pass.

    Every field must be below 2^(w-1), as a width from ``_field_width``
    ensures.  The even and the odd fields, each spread into 2w-bit slots,
    are reduced by x - p*floor(x/p), with the quotient of every slot from
    one product (see ``_reducer``).  The work is a few big-integer
    operations whatever the width, not one per field.  The masks cover a
    power of two of slots, so few are cached.
    """
    slots = -(-row.bit_length() // (2 * w))
    s, m, fields, quotients = _reducer(p, w, 1 << (slots - 1).bit_length() if slots else 1)
    even, odd = row & fields, (row >> w) & fields
    even -= p * (((even * m) >> s) & quotients)
    odd -= p * (((odd * m) >> s) & quotients)
    return even | (odd << w)


@lru_cache(maxsize=256)
def _column_map(gaps: tuple[int, ...]) -> dict[int, int]:
    """The column of each field that starts one, from the gaps between columns."""
    column, position = {}, 0
    for k, gap in enumerate(gaps):
        column[position] = k
        position += gap
    return column


def _eliminate_mod_p(rows: list[int], p: int, w: int, gaps: tuple[int, ...], spare=()) -> int:
    """Row elimination over F_p on rows packed into integers, w bits a field.

    Column k sits ``gaps[0] + ... + gaps[k-1]`` fields up; the fields in
    between are holes, zero in every row.  Each row waits, shifted so that
    its low field is that column, at the first column where it may be
    nonzero (its lowest nonzero field at the start, the next column after
    each step), so no step touches a row before its first entry.  At step
    k the pivot is the first waiting row whose lead is nonzero mod p; its
    fields are reduced mod p once, and every other waiting row with lead
    l != 0 becomes (row >> gap) + (-l / lead mod p) * pivot.  Returns the
    product of the leads with the sign of the permutation that orders the
    pivot rows by column (the determinant, for a square matrix), or 0 when
    a column has no pivot.

    ``spare`` rows are used only when no waiting row has a pivot: each is
    then brought up to date with the pivots of the steps it missed, kept
    with -1 / lead mod p, one at a time until one has a nonzero lead.
    Every row takes at most len(gaps) updates, which ``_field_width``
    allows for.
    """
    mask = (1 << w) - 1
    column = _column_map(gaps)
    waiting = [[] for _ in range(len(gaps) + 1)]  # (row, index) pairs per column
    for i, r in enumerate(rows):
        if r:
            low = ((r & -r).bit_length() - 1) // w
            waiting[column[low]].append((r >> (low * w), i))
    spare = [[r, 0] for r in spare]  # each with the step it is current at
    history = []  # (shift, reduced pivot, -1 / lead) of each step, while spare rows wait
    order = []  # the index of each step's pivot row
    det = 1
    for k, gap in enumerate(gaps):
        shift = gap * w
        here, later = waiting[k], waiting[k + 1]
        for j, (r, i) in enumerate(here):
            lead = (r & mask) % p
            if lead:
                break
            later.append((r >> shift, i))
        else:
            for entry in spare:
                r = entry[0]
                for step_shift, step_pivot, step_scale in history[entry[1] : k]:
                    lead = (r & mask) % p
                    r = (r >> step_shift) + lead * step_scale % p * step_pivot if lead else r >> step_shift
                entry[:] = r, k
                lead = (r & mask) % p
                if lead:
                    spare.remove(entry)
                    i, j = len(rows) + k, len(here)
                    break
            else:
                return 0
        order.append(i)
        det = det * lead % p
        scale = p - pow(lead, p - 2, p)
        pivot = _residues(r >> shift, p, w)
        for r, i in here[j + 1 :]:
            lead = (r & mask) % p
            later.append(((r >> shift) + lead * scale % p * pivot if lead else r >> shift, i))
        here.clear()
        if spare:
            history.append((shift, pivot, scale))
    return det * _permutation_sign(order) % p


def _permutation_sign(order) -> int:
    """(-1) to the number of inversions of a sequence of distinct integers."""
    place = {v: t for t, v in enumerate(sorted(order))}
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        t, length = start, 0
        while not seen[t]:
            seen[t] = True
            t = place[order[t]]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


# -- the Macaulay construction ------------------------------------------------


@dataclass(frozen=True)
class _Layout:
    """Where the Macaulay rows of forms of degrees d1, d2, d3 (and more) sit,
    in degree D = d1 + d2 + d3 - 2, for the eliminations over GF(p).

    Column (a, b, c) is field b*stride + c, stride = D + 1, so the multiple
    of a form by x^i y^j z^k is the form shifted up by j*stride + k
    fields, and fields with b + c > D are holes: column k of a Macaulay
    matrix is the k-th field that is not a hole.  ``rows`` holds, as (form, shift) pairs in column order, the rows of the
    classical matrix: the row of a monomial m is m / v^d_v times the form of
    the first variable v with m_v >= d_v.  For three forms of equal degree
    d, D is the critical degree 3(d - 1) + 1 and these rows make the square
    matrix M, with rows and columns both in field order.  ``gaps`` are the
    distances in fields from each column to the next, as
    ``_eliminate_mod_p`` reads them.  ``spare`` holds every other multiple
    of every form.  ``minor_rows`` are the indices in ``rows`` of the
    monomials divisible by at least two of x^d1, y^d2, z^d3, the rows and
    columns of M'; ``minor_columns`` are their fields and ``minor_gaps`` the
    gaps between them.
    """

    stride: int
    rows: tuple[tuple[int, int], ...]
    gaps: tuple[int, ...]
    spare: tuple[tuple[int, int], ...]
    minor_rows: tuple[int, ...]
    minor_columns: tuple[int, ...]
    minor_gaps: tuple[int, ...]


@lru_cache(maxsize=None)
def _layout(degrees: tuple[int, ...]) -> _Layout:
    """The layout of forms of these degrees, the first three the largest."""
    top = degrees[:3]
    D = sum(top) - 2
    stride = D + 1
    columns, rows, minor_rows, minor_columns = [], [], [], []
    for b in range(D + 1):
        for c in range(D + 1 - b):
            m = (D - b - c, b, c)
            v = next(v for v in range(3) if m[v] >= top[v])
            columns.append(b * stride + c)
            rows.append((v, (b - top[1] * (v == 1)) * stride + c - top[2] * (v == 2)))
            if sum(e >= d for e, d in zip(m, top)) >= 2:
                minor_rows.append(len(rows) - 1)
                minor_columns.append(b * stride + c)
    classical = set(rows)
    spare = tuple(
        (g, b * stride + c)
        for g, degree in enumerate(degrees)
        for b in range(D - degree + 1)
        for c in range(D - degree - b + 1)
        if (g, b * stride + c) not in classical
    )
    return _Layout(
        stride,
        tuple(rows),
        _gaps(columns),
        spare,
        tuple(minor_rows),
        tuple(minor_columns),
        _gaps(minor_columns),
    )


def _gaps(columns: list[int]) -> tuple[int, ...]:
    """The distance in fields from each column to the next, and 1 after the last."""
    return tuple(b - a for a, b in zip(columns, columns[1:])) + ((1,) if columns else ())


def _pack(layout: _Layout, terms, w: int) -> list[int]:
    """Each form packed into one integer, from its ((a, b, c), coefficient)
    pairs, coefficients in [0, p)."""
    stride = layout.stride
    return [sum(coeff << ((b * stride + c) * w) for (_, b, c), coeff in t) for t in terms]


def _shifted(packed: list[int], pairs, w: int) -> list[int]:
    """The rows named by (form, shift) pairs, each a shift of a packed form."""
    return [packed[g] << (shift * w) for g, shift in pairs]


def _minor_packed_rows(layout: _Layout, rows: list[int], w: int) -> list[int]:
    """The rows of M', from the rows of M masked to its columns, with its
    first column moved to field 0."""
    mask = sum(((1 << w) - 1) << (j * w) for j in layout.minor_columns)
    low = layout.minor_columns[0] * w
    return [(rows[i] & mask) >> low for i in layout.minor_rows]


def _quotient(layout: _Layout, forms, p: int) -> int | None:
    """det(M)/det(M') over GF(p), or None when det(M') = 0.

    The coefficients are in [0, p).  Each form is packed once; the rows of
    M are its shifts and those of M' the same rows masked to the columns of
    M', both in field order, a common permutation of the monomial order, so
    neither determinant changes.
    """
    w = _field_width(len(layout.gaps), p)
    rows = _shifted(_pack(layout, [g.terms.items() for g in forms], w), layout.rows, w)
    dprime = 1
    if layout.minor_rows:
        dprime = _eliminate_mod_p(_minor_packed_rows(layout, rows, w), p, w, layout.minor_gaps)
        if dprime == 0:
            return None
    return _eliminate_mod_p(rows, p, w, layout.gaps) * pow(dprime, p - 2, p) % p


def _permuted(g: MultiPoly, perm) -> MultiPoly:
    """g with its variables permuted: exponent triple e becomes (e[perm[0]], ...)."""
    terms = {tuple(e[v] for v in perm): c for e, c in g.terms.items()}
    return MultiPoly._trusted(g.domain, g.vars, terms)


def _permuted_retries(forms):
    """(sign, forms) of each retry: the forms themselves, then their images
    under the five other permutations of the variables.

    A change of variables A multiplies the resultant of three d-ics by
    det(A)^(d^3).  A permutation only relabels exponents, with no
    substitution and no growth of the coefficients; an odd one has
    det = -1, so its sign is (-1)^d.  The resultant is the sign times the
    retry's Macaulay quotient.
    """
    d = forms[0].homogeneous_degree()
    yield 1, forms
    for perm in list(permutations(range(3)))[1:]:
        yield _permutation_sign(perm) ** d, tuple(_permuted(g, perm) for g in forms)


# -- the hybrid Sylvester-Bezout matrix -------------------------------------------


def _key_width(d: int) -> int:
    """Bits of a packed-key field for three d-ics: 2d - 2 is the largest exponent."""
    return max(2 * d - 2, 1).bit_length()


@lru_cache(maxsize=64)
def _hybrid_layout(d: int) -> tuple[int, dict[int, int], tuple[int, ...], tuple[int, ...]]:
    """The key width w, the column of each x-key of degree 2d - 2, and the
    x-keys of degree d - 2 (Sylvester multipliers) and y-keys of degree
    d - 1 (Bezout rows), in field order.  The key of x^a y^b z^c is
    c + (b << w), so keys ascend as (b, c) do; a Morley-form key is
    x-key + (y-key << 2w), the first exponents set by the degrees.
    """
    w = _key_width(d)
    top = 2 * d - 2
    keys = [c | b << w for b in range(top + 1) for c in range(top + 1 - b)]
    column = {key: k for k, key in enumerate(keys)}
    multipliers = tuple(c | b << w for b in range(d - 1) for c in range(d - 1 - b))
    bezout = tuple(c | b << w for b in range(d) for c in range(d - b))
    return w, column, multipliers, bezout


def _divided_differences(terms, d: int, w: int) -> list[list[dict[int, int]]]:
    """Delta_0, Delta_1, Delta_2 of one d-ic, each as d term maps (packed
    key -> coefficient) by y-degree, with f(x) - f(y) = sum_j (x_j - y_j)
    Delta_j, x_j swapped for y_j one variable at a time: x_0^a x_1^b x_2^c
    gives x_0^k y_0^(a-1-k) x_1^b x_2^c, y_0^a x_1^k y_1^(b-1-k) x_2^c and
    y_0^a y_1^b x_2^k y_2^(c-1-k) over k.  No two terms share a key.
    """
    first, second, third = diffs = [[{} for _ in range(d)] for _ in range(3)]
    for (a, b, c), coeff in terms:
        key = c | b << w
        for t in range(a):
            first[t][key] = coeff
        for k in range(b):
            second[a + b - 1 - k][c | k << w | (b - 1 - k) << 3 * w] = coeff
        for k in range(c):
            third[d - 1 - k][k | (c - 1 - k) << 2 * w | b << 3 * w] = coeff
    return diffs


def _accumulate(out: dict[int, int], left: dict[int, int], right: dict[int, int], sign: int):
    """out += sign * left * right, on packed keys."""
    for ka, ca in left.items():
        ca *= sign
        for kb, cb in right.items():
            k = ka + kb
            out[k] = out.get(k, 0) + ca * cb


def _hybrid_rows(forms, d: int) -> list[list[int]]:
    """The hybrid Sylvester-Bezout matrix of three ternary d-ics as dense
    integer rows, d(2d - 1) square, whose determinant is their resultant
    (Jouanolou, Adv. Math. 126, 1997; D'Andrea-Dickenstein, JPAA 164, 2001).

    Columns are the monomials of degree 2d - 2, rows the x^alpha f_i with
    |alpha| = d - 2, form by form, then one Bezout row for each y^beta of
    degree d - 1: its coefficient in the Morley form det(Delta_ij), all in
    field order, so that Res(x^d, y^d, z^d) = +1.  Only the y-degree d - 1
    part is built: the minors up to it, the first row's products at it.
    """
    w, column, multipliers, bezout = _hybrid_layout(d)
    n = len(column)
    rows = []
    for form in forms:
        keyed = [(c | b << w, coeff) for (_, b, c), coeff in form.terms.items()]
        for shift in multipliers:
            row = [0] * n
            for key, coeff in keyed:
                row[column[key + shift]] = coeff
            rows.append(row)
    f, g, h = (_divided_differences(form.terms.items(), d, w) for form in forms)
    morley = {}
    for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
        # cofactor i of the first row: the minor on columns j < k, by y-degree
        minor = [{} for _ in range(d)]
        for t in range(d):
            for u in range(d - t):
                _accumulate(minor[t + u], g[j][t], h[k][u], 1)
                _accumulate(minor[t + u], g[k][t], h[j][u], -1)
        for t in range(d):
            _accumulate(morley, f[i][t], minor[d - 1 - t], (-1) ** i)
    by_y = {y: [0] * n for y in bezout}
    low = (1 << 2 * w) - 1
    for key, coeff in morley.items():
        by_y[key >> 2 * w][column[key & low]] = coeff
    rows.extend(by_y[y] for y in bezout)
    return rows


def _resultant_exact(forms, p: int | None):
    """The resultant of three d-ics over ZZ (p None) or GF(p).

    Over ZZ the hybrid determinant.  Over GF(p) the Macaulay quotient of
    the first permutation of the variables whose det(M') is a unit, else
    the hybrid determinant of the least-residue lifts mod p: an integer
    polynomial in the coefficients, it reduces to the resultant mod p.
    """
    d = forms[0].homogeneous_degree()
    if p is None:
        return det_bareiss(_hybrid_rows(forms, d))
    layout = _layout((d,) * 3)
    for sign, moved in _permuted_retries(forms):
        quotient = _quotient(layout, moved, p)
        if quotient is not None:
            return sign * quotient % p
    return det_mod_p(_hybrid_rows(forms, d), p)


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
    return macaulay_resultant(*partials)


def normalization_constant(n: int) -> tuple[int, dict]:
    """The content n^a of the raw discriminant in degree n, with its record.

    Demazure ("Resultant, discriminant", Enseign. Math. 2012): for a ternary
    n-ic f, Res(df/dx, df/dy, df/dz) = n^a disc(f) with disc primitive and
    a = ((n - 1)^3 + 1)/n, an integer since (n - 1)^3 = -1 mod n.
    """
    if n < 2:
        raise DegreeError("discriminant constants start at degree 2")
    a = ((n - 1) ** 3 + 1) // n
    record = {"degree": n, "exponent": a, "method": "n^a, a = ((n-1)^3 + 1)/n (Demazure 2012)"}
    return n**a, record


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
    their content, ``normalization_constant(n)`` = n^a, so that
    normalized * constant == raw and the normalized discriminant, as a
    polynomial in the coefficients, is primitive.  Zero exactly when the
    cut-out plane curve is singular over the closure.
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
                    f"{n}^a does not divide a raw value, against Demazure's theorem"
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


# -- the rank certificate and smoothness over prime fields ----------------------


def _no_common_zero(forms, p: int) -> bool:
    """Whether ternary forms over F_p have no common zero over F_p-bar.

    ``forms`` holds (degree, terms) pairs, terms as ((a, b, c), coefficient)
    pairs, coefficients in [0, p); there are at least three, and the first
    three have the largest degrees d1, d2, d3.  Macaulay's theorem (Lazard,
    EUROCAL 1983; Cox-Little-O'Shea, Using Algebraic Geometry, ch. 3): the
    forms have no common zero exactly when their multiples span every form
    of degree D = d1 + d2 + d3 - 2.  Rank over F_p is rank over F_p-bar, so
    the test is the full column rank of that Macaulay matrix, in the
    ``_layout`` of the degrees: whether every column has a pivot.  The rows
    are shifts of the packed forms; the rows of the classical square matrix
    are eliminated first, and the other multiples are spare rows, brought
    in only when a column has no pivot (for instance when the extraneous
    factor det M' vanishes).
    """
    layout = _layout(tuple(degree for degree, _ in forms))
    w = _field_width(len(layout.gaps), p)
    packed = _pack(layout, [t for _, t in forms], w)
    rows, spare = _shifted(packed, layout.rows, w), _shifted(packed, layout.spare, w)
    return _eliminate_mod_p(rows, p, w, layout.gaps, spare) != 0


def is_smooth_mod_p(f: MultiPoly, p: int) -> bool:
    """Whether the reduction of f cuts a smooth plane curve over F_p-bar.

    f is an integer form or a form over GF(p), of degree n >= 2.  The
    reduction is smooth exactly when it and its partials have no common
    zero over F_p-bar.  When p does not divide n, Euler's formula
    n f = sum v df/dv puts f in the partials' span, so the generators are
    the partials; when p divides n, f joins them.  A zero partial is
    dropped; fewer than three generators always share a zero in the plane.
    The verdict is the rank certificate of ``_no_common_zero`` over F_p.  It
    agrees with the nonvanishing mod p of the primitive discriminant
    (Demazure, "Resultant, discriminant", Enseign. Math. 2012), and for p
    not dividing n with that of the raw one, the resultant of the partials.
    """
    if f.domain == ZZ:
        fbar = f.reduce_mod_p(p)
    elif isinstance(f.domain, PrimeField) and f.domain.p == p:
        fbar = f
    else:
        raise DomainMismatchError("is_smooth_mod_p expects an integer form")
    if len(fbar.vars) != 3:
        raise VariableSetError("smoothness is defined for ternary forms")
    if fbar.is_zero():
        raise ZeroInputError(f"form vanishes identically mod {p}")
    n = fbar.homogeneous_degree()
    if n < 2:
        raise DegreeError("smoothness test needs degree >= 2")
    generators = [(n, fbar)] if n % p == 0 else []
    for v in fbar.vars:
        g = fbar.partial_derivative(v)
        if not g.is_zero():
            generators.append((n - 1, g))
    if len(generators) < 3:
        return False
    return _no_common_zero([(degree, g.terms.items()) for degree, g in generators], p)


def bad_primes(
    f: MultiPoly, s_primes=(), trial_bound: int = 100_000
) -> tuple[set[int], int]:
    """Primes outside S dividing the raw discriminant, plus unfactored rest.

    f must be over ZZ; any other form is refused before its discriminant is
    computed.  Trial-divides |raw| by all primes up to ``trial_bound`` and
    by every prime of S; any remaining cofactor > 1 is returned explicitly
    rather than factored further.
    """
    if f.domain != ZZ:
        raise DomainMismatchError("bad-prime profiles need integer coefficients")
    raw = discriminant(f, normalize=False).raw
    if raw == 0:
        raise ZeroInputError("form is singular over QQ; no good-reduction profile")
    s_primes = set(int(p) for p in s_primes)
    value = strip_primes(abs(raw), s_primes)
    factors, cofactor = trial_factor(value, trial_bound)
    return set(factors) - s_primes, cofactor
