"""Macaulay resultants, discriminants, and good-reduction machinery.

The smoothness verdicts are checked against an independent oracle: an
exhaustive singular-point search over F_p and F_{p^2}.
"""

from collections import Counter, namedtuple
from fractions import Fraction
from itertools import permutations
from math import gcd
from random import Random

import pytest

from triforms import elimination
from triforms.domains import GF, QQ, ZZ
from triforms.elimination import (
    _divided_differences,
    _field_width,
    _hybrid_rows,
    _key_width,
    _layout,
    _minor_packed_rows,
    _pack,
    _permuted_retries,
    _quotient,
    _residues,
    _shifted,
    bad_primes,
    det_bareiss,
    det_mod_p,
    discriminant,
    is_smooth_mod_p,
    macaulay_resultant,
    normalization_constant,
    resultant_of_partials,
)
from triforms.errors import DegreeError, DomainMismatchError, ZeroInputError
from triforms.fixtures import coordinate_triangle, fermat
from triforms.matrices import Mat3, act_ternary
from triforms.poly import MultiPoly, VARS_XYZ, parse_poly
from triforms.suites import random_form, random_invertible

from conftest import sampled_content, singular_points_fp, singular_points_fp2


def test_bareiss_matches_cofactor_expansion(rng):
    for _ in range(50):
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        expected = Mat3(ZZ, rows).det()
        assert det_bareiss([row[:] for row in rows]) == expected


def _rational_echelon(rows):
    """Rank, and the determinant of a square matrix, by Gaussian elimination
    over Fraction: the product of the pivots with the sign of the swaps, 0
    when the rank is short."""
    rows = [[Fraction(a) for a in row] for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(rows[0]) if rows else 0):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            det = -det
        det *= rows[rank][col]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            if factor:
                rows[r][col:] = [a - factor * b for a, b in zip(rows[r][col:], rows[rank][col:])]
        rank += 1
    return rank, det if rank == len(rows) else 0


def _assert_full_rank_test(rows, name=None):
    """``det_bareiss`` is nonzero exactly when the columns are independent."""
    columns = len(rows[0]) if rows else 0
    full = _rational_echelon(rows)[0] == columns
    assert (det_bareiss([row[:] for row in rows]) != 0) == full, name


def _lazy_divisor_cases(n, rng):
    """Square integer matrices of size n that take every path of a Bareiss
    elimination whose rows keep their own divisor, by name:

    - ``staircase``: row i is zero left of a column start_i <= i, the starts
      ascending, so rows start late and sit untouched for several steps;
    - ``zero-runs``: dense, but each row zero over a run of columns, so its
      lead vanishes for several steps in a row after it was updated;
    - ``lagged-swap``: dense rows, then staircase rows in swapped pairs, the
      first of each pair a multiple of row 0 plus a row that starts one
      column late; at its step it has been updated once, has a zero lead and
      is swapped for a row that was never updated;
    - ``lagged-last``: dense, but the last row zero except its last entry,
      so it is never updated and is brought up to date only as the last
      pivot;
    - ``zero-column``: a column that is a combination of earlier ones, so
      it has no pivot once they are eliminated (determinant 0).
    """

    def entry():
        return rng.randint(-9, 9)

    dense = [[entry() for _ in range(n)] for _ in range(n)]
    starts = sorted(rng.randint(0, i) for i in range(n))
    staircase = [[0] * s + [entry() for _ in range(n - s)] for s in starts]
    zero_runs = [row[:] for row in dense]
    for row in zero_runs:
        a = rng.randint(0, n)
        b = min(n, a + rng.randint(0, n // 2 + 1))
        row[a:b] = [0] * (b - a)
    top = max(1, n // 3)
    lagged_swap = [row[:] for row in dense[:top]]
    if n:
        lagged_swap[0][0] = lagged_swap[0][0] or 1
    for i in range(top, n):
        start = i + 1 if (i - top) % 2 == 0 and i + 1 < n else i - ((i - top) % 2)
        row = [0] * start + [entry() or 1 for _ in range(n - start)]
        if start > i:
            c = rng.choice((-2, -1, 1, 2))
            row = [a + c * b for a, b in zip(row, lagged_swap[0])]
        lagged_swap.append(row)
    lagged_last = [row[:] for row in dense]
    if n >= 2:
        lagged_last[-1] = [0] * (n - 1) + [entry() or 1]
    cases = {
        "dense": dense,
        "staircase": staircase,
        "zero-runs": zero_runs,
        "lagged-swap": lagged_swap,
        "lagged-last": lagged_last,
    }
    if n >= 3:
        c = rng.randint(2, n - 1)
        weights = [rng.choice((-1, 0, 1)) for _ in range(c)]
        zero_column = [row[:] for row in dense]
        for row in zero_column:
            row[c] = sum(u * a for u, a in zip(weights, row))
        cases["zero-column"] = zero_column
    return cases


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 6, 9, 14, 21, 40])
def test_bareiss_kernels_match_rational_elimination(n):
    rng = Random(4000 + n)
    for _ in range(3 if n < 40 else 1):
        for name, rows in _lazy_divisor_cases(n, rng).items():
            assert det_bareiss([row[:] for row in rows]) == _rational_echelon(rows)[1], name
            _assert_full_rank_test(rows, name)
            # a dependent extra row adds no rank; a zero column in front
            # has no pivot
            if rows:
                extra = [a - 2 * b for a, b in zip(rows[0], rows[-1])]
                _assert_full_rank_test([row[:] for row in rows] + [extra], name)
                assert det_bareiss([[0] + row for row in rows]) == 0, name


def _macaulay_matrices(n, rng):
    """For the partials of an n-ic (a dense form, a sparse one): the square
    hybrid matrix of their resultant, the reference M and M' of its
    Macaulay quotient, and the rows of every multiple of the partials in
    the degree of M, of full column rank exactly when they have no common
    zero."""
    degrees = (n - 1,) * 3
    plan = _reference_plan(degrees)
    for density in (1.0, 0.4):
        f = _sparse_form(ZZ, rng, n, density)
        partials = [f.partial_derivative(v) for v in f.vars]
        yield "hybrid", _hybrid_rows(partials, n - 1)
        yield "M", _reference_rows(plan, partials)
        yield "M'", _reference_rows(plan, partials, plan.nonreduced)
        yield "all", list(_multiples(plan, partials, degrees).values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_bareiss_kernels_on_macaulay_matrices(n):
    rng = Random(6000 + n)
    for name, rows in _macaulay_matrices(n, rng):
        if name != "all":
            assert det_bareiss([row[:] for row in rows]) == _rational_echelon(rows)[1], name
        _assert_full_rank_test(rows, name)


def _kernel_cases(n, p, rng):
    """Matrices for the mod-p determinant: dense with entries far outside
    [0, p), sparse, a zero column, a singular one (row dependency) and one
    whose first pivot candidates vanish mod p (forcing swaps)."""
    dense = [[rng.randint(-3 * p - 5, 3 * p + 5) for _ in range(n)] for _ in range(n)]
    sparse = [[rng.randint(-9, 9) if rng.random() < 0.2 else 0 for _ in range(n)] for _ in range(n)]
    cases = [dense, sparse]
    if n >= 2:
        zero_col = [row[:] for row in dense]
        for row in zero_col:
            row[n // 2] = p * rng.randint(-2, 2)
        dependent = [row[:] for row in dense]
        dependent[-1] = [a - 3 * b + p for a, b in zip(dense[0], dense[1])]
        # row i < n - 1 vanishes mod p up to column i and has 1 just after,
        # so only the last row can take the first pivot; the determinant is
        # a unit mod p
        swaps = [[p * rng.randint(-2, 2) if j <= i < n - 1 else rng.randint(-9, 9)
                  for j in range(n)] for i in range(n)]
        for i in range(n - 1):
            swaps[i][i + 1] = 1
        swaps[-1][0] = 1
        cases += [zero_col, dependent, swaps]
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 13, 10007, 2**61 - 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
def test_det_mod_p_matches_bareiss(n, p):
    rng = Random(1000 * n + p % 1000)
    for rows in _kernel_cases(n, p, rng):
        before = [row[:] for row in rows]
        assert det_mod_p(rows, p) == det_bareiss([row[:] for row in rows]) % p
        assert rows == before  # the input is read, not modified


def test_det_mod_p_macaulay_size():
    # the degree-13 Macaulay matrix of sextic partials is 105 x 105
    rng = Random(105)
    rows = [[rng.randint(-20, 20) if rng.random() < 0.3 else 0 for _ in range(105)]
            for _ in range(105)]
    for p in (13, 10007):
        assert det_mod_p(rows, p) == det_bareiss([row[:] for row in rows]) % p


@pytest.mark.parametrize("p", [2, 3, 11, 251, 10007, 65521, 2**61 - 1])
def test_scaled_pivot_reduces_every_field(p):
    # the one-pass reduction of a pivot row before it scales an update:
    # every field below 2^(w-1), at the widths _field_width gives for
    # eliminations of 1 to 1000 steps, the extreme values included
    rng = Random(p % 100_003)
    for steps in (1, 2, 7, 105, 1000):
        w = _field_width(steps, p)
        top = 2 ** (w - 1) - 1
        for _ in range(8):
            count = rng.randrange(1, 160)
            fields = [rng.choice((0, top, rng.randrange(top + 1))) for _ in range(count)]
            row = sum(a << (j * w) for j, a in enumerate(fields))
            assert _residues(row, p, w) == sum((a % p) << (j * w) for j, a in enumerate(fields))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_scaled_reduces_every_field_value_at_width_6(p):
    # all 32 values a field may hold at w = 6, in one row and each alone,
    # reduced in the one pass that precedes the scalar of an update
    fields = list(range(32))
    row = sum(a << (6 * j) for j, a in enumerate(fields))
    assert _residues(row, p, 6) == sum((a % p) << (6 * j) for j, a in enumerate(fields))
    for j, a in enumerate(fields):
        assert _residues(a << (6 * j), p, 6) == (a % p) << (6 * j)


_Reference = namedtuple("_Reference", "monomials assignment nonreduced")


def _reference_plan(degrees):
    """The classical Macaulay matrix of ternary forms of degrees d1, d2, d3,
    built monomial by monomial: the monomials of degree d1 + d2 + d3 - 2
    (x-exponent descending, then y's), the row of each as (form,
    multiplier), m / v^d_v times the form of the first variable v with
    m_v >= d_v, and the indices of M', the monomials divisible by at least
    two of x^d1, y^d2, z^d3."""
    nu = sum(degrees) - 2
    monomials = [(a, b, nu - a - b) for a in range(nu, -1, -1) for b in range(nu - a, -1, -1)]
    assignment = []
    for m in monomials:
        which = next(v for v in range(3) if m[v] >= degrees[v])
        shift = degrees[which]
        assignment.append((which, tuple(e - shift * (v == which) for v, e in enumerate(m))))
    nonreduced = [
        i for i, m in enumerate(monomials) if sum(e >= d for e, d in zip(m, degrees)) >= 2
    ]
    return _Reference(monomials, assignment, nonreduced)


def _reference_rows(plan, forms, subset=None):
    """Dense rows of M, or of the submatrix on ``subset``, entry by entry."""
    ids = range(len(plan.monomials)) if subset is None else subset
    column = {plan.monomials[i]: j for j, i in enumerate(ids)}
    rows = []
    for r in ids:
        which, mult = plan.assignment[r]
        row = [0] * len(ids)
        for exps, coeff in forms[which].terms.items():
            j = column.get(tuple(m + e for m, e in zip(mult, exps)))
            if j is not None:
                row[j] = coeff
        rows.append(row)
    return rows


def _reference_quotient(forms, degrees):
    """det M / det M' of the reference matrices of integer forms, both by
    ``det_bareiss``, or None when det M' = 0."""
    plan = _reference_plan(degrees)
    minor = det_bareiss(_reference_rows(plan, forms, plan.nonreduced))
    if minor == 0:
        return None
    quotient, remainder = divmod(det_bareiss(_reference_rows(plan, forms)), minor)
    assert remainder == 0
    return quotient


def _multiples(plan, forms, degrees, ids=None):
    """Every multiple of every form in the degree of the plan, keyed by
    (form, multiplier), as a dense row over the plan's monomials (or those
    at ``ids``, in that order)."""
    nu = sum(degrees) - 2
    monomials = plan.monomials if ids is None else [plan.monomials[i] for i in ids]
    rows = {}
    for g, (form, d) in enumerate(zip(forms, degrees)):
        for a in range(nu - d, -1, -1):
            for b in range(nu - d - a, -1, -1):
                mult = (a, b, nu - d - a - b)
                row = {}
                for exps, coeff in form.terms.items():
                    row[tuple(m + e for m, e in zip(mult, exps))] = coeff
                rows[g, mult] = [row.get(m, 0) for m in monomials]
    return rows


def _lift(g):
    """The least-residue lift of a form over GF(p) to ZZ."""
    return MultiPoly(ZZ, g.vars, dict(g.terms))


def _field_order(plan, layout):
    """The field of each monomial in the layout, and the indices of M and of
    M' sorted by field."""
    field = {i: layout.stride * b + c for i, (_, b, c) in enumerate(plan.monomials)}
    full = sorted(field, key=field.get)
    return field, full, [i for i in full if i in plan.nonreduced]


def _unpacked(row, positions, w):
    """The fields of a packed row at the given positions; none may be set elsewhere."""
    fields = [(row >> (j * w)) & ((1 << w) - 1) for j in positions]
    assert row == sum(a << (j * w) for j, a in zip(positions, fields))
    return fields


@pytest.mark.parametrize("p", [2, 3, 5, 13, 10007, 2**61 - 1])
def test_rows_from_terms_match_dense_rows(p):
    # the packed rows of the rank certificate, the layout's rows and then
    # its spare rows, are every multiple of every form in degree 3d - 2,
    # columns in field order; up to d = 3, where the GF(p) quotient is
    # defined, it is the reference integer quotient of the least-residue
    # lifts, reduced mod p
    rng = Random(p % 1000)
    for d in range(1, 6):
        plan, layout = _reference_plan((d,) * 3), _layout((d, d, d))
        field, full, _ = _field_order(plan, layout)
        w = _field_width(len(layout.gaps), p)
        D, stride = 3 * d - 2, layout.stride
        for _ in range(3 if d < 5 else 1):
            forms = tuple(random_form(GF(p), rng, d) for _ in range(3))
            multiples = _multiples(plan, forms, (d,) * 3, full)
            pairs = layout.rows + layout.spare
            packed = _shifted(_pack(layout, [g.terms.items() for g in forms], w), pairs, w)
            built = {}
            for (g, shift), row in zip(pairs, packed):
                b, c = divmod(shift, stride)
                built[g, (D - d - b - c, b, c)] = _unpacked(row, [field[j] for j in full], w)
            assert len(built) == len(pairs) and built == multiples
            quotient = _quotient(layout, forms, p) if d <= 3 else None
            if quotient is not None:
                lifts = tuple(_lift(g) for g in forms)
                assert _reference_quotient(lifts, (d,) * 3) % p == quotient


@pytest.mark.parametrize("p", [2, 3, 5, 13, 10007, 2**61 - 1])
def test_shift_built_rows_match_reference_rows_in_field_order(p):
    # M and M' built by shifting packed forms are the reference matrices
    # with rows and columns both in field order (b, then c, ascending), and
    # the GF(p) quotient is the one of the dense reference matrices
    rng = Random(500 + p % 1000)
    for d in range(1, 6):
        plan, layout = _reference_plan((d,) * 3), _layout((d, d, d))
        w = _field_width(len(layout.gaps), p)
        field, full, reduced = _field_order(plan, layout)
        for _ in range(3 if d < 5 else 1):
            forms = tuple(random_form(GF(p), rng, d) for _ in range(3))
            rows = _shifted(_pack(layout, [g.terms.items() for g in forms], w), layout.rows, w)
            minor = _minor_packed_rows(layout, rows, w) if reduced else []
            dense = _reference_rows(plan, forms)
            dets = []
            for built, ids in ((rows, full), (minor, reduced)):
                reference = [[dense[i][j] for j in ids] for i in ids]
                low = field[ids[0]] if ids else 0
                assert [_unpacked(r, [field[j] - low for j in ids], w) for r in built] == reference
                dets.append(det_mod_p(reference, p))
            full_det, minor_det = dets
            expected = None if minor_det == 0 else full_det * pow(minor_det, -1, p) % p
            assert _quotient(layout, forms, p) == expected


def test_macaulay_matrix_is_square_at_critical_degree():
    for d in (1, 2, 3, 5):
        layout = _layout((d, d, d))
        nu = 3 * (d - 1) + 1
        assert layout.stride == nu + 1
        assert len(layout.gaps) == len(layout.rows) == (nu + 2) * (nu + 1) // 2
        # every monomial of degree 3d-2 is divisible by some v^d, and its row
        # is the monomial over v^d times the form of v; column k sits the
        # sum of the first k gaps up
        fields = [sum(layout.gaps[:k]) for k in range(len(layout.gaps))]
        for (which, shift), field in zip(layout.rows, fields):
            b, c = divmod(field, layout.stride)
            mono = (nu - b - c, b, c)
            b, c = divmod(shift, layout.stride)
            mult = (nu - d - b - c, b, c)
            assert min(mult) >= 0 and mono[which] >= d
            assert all(m + d * (v == which) == e for v, (m, e) in enumerate(zip(mult, mono)))


@pytest.mark.parametrize("d", range(1, 13))
def test_hybrid_matrix_is_square_and_gives_res_of_powers_one(d):
    # d(2d - 1) Sylvester and Bezout rows against as many monomials of
    # degree 2d - 2; the determinant is the resultant with its sign
    forms = [parse_poly(f"{v}^{d}") for v in "xyz"]
    rows = _hybrid_rows(forms, d)
    assert len(rows) == d * (2 * d - 1) and all(len(row) == len(rows) for row in rows)
    assert det_bareiss(rows) == 1


@pytest.mark.parametrize("d", range(1, 7))
def test_hybrid_determinant_is_the_reference_macaulay_quotient(d):
    # seeded dense and sparse integer triples; where det M' vanishes, the
    # quotient of the first permutation of the variables with det M' != 0,
    # times (-1)^d for an odd one (the transposition's determinant to the
    # power d^3)
    rng = Random(8100 + d)
    for density in (1.0, 0.5, 0.25):
        checked = drawn = 0
        while checked < (4 if d < 5 else 1):
            assert drawn < 40, "too few triples with a reference quotient"
            drawn += 1
            forms = tuple(_sparse_form(ZZ, rng, d, density) for _ in range(3))
            for perm in permutations(range(3)):
                moved = [
                    MultiPoly(ZZ, g.vars, {tuple(e[v] for v in perm): c for e, c in g.terms.items()})
                    for g in forms
                ]
                expected = _reference_quotient(moved, (d, d, d))
                if expected is not None:
                    odd = sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3)) % 2
                    assert det_bareiss(_hybrid_rows(forms, d)) == (-1) ** (d * odd) * expected
                    checked += 1
                    break


def test_an_integer_resultant_is_one_bareiss_call(monkeypatch):
    # over ZZ and QQ, one determinant of the hybrid matrix and no other
    sizes = []
    original = elimination.det_bareiss

    def recording(rows):
        sizes.append(len(rows))
        return original(rows)

    monkeypatch.setattr(elimination, "det_bareiss", recording)
    rng = Random(8200)
    for d in range(1, 6):
        for dom in (ZZ, QQ):
            sizes.clear()
            macaulay_resultant(*(random_form(dom, rng, d, 9) for _ in range(3)))
            assert sizes == [d * (2 * d - 1)]


def _expand_morley_identity(diffs, d, w):
    """sum_j (x_j - y_j) Delta_j as {(x exponents, y exponents): coefficient},
    with each packed key unpacked and checked to pack back to itself."""
    mask = (1 << w) - 1
    total = Counter()
    for j, groups in enumerate(diffs):
        for t, group in enumerate(groups):
            for key, coeff in group.items():
                c, b, y2, y1 = ((key >> (i * w)) & mask for i in range(4))
                assert key == c | b << w | y2 << 2 * w | y1 << 3 * w
                x = (d - 1 - t - b - c, b, c)
                y = (t - y1 - y2, y1, y2)
                assert min(x + y) >= 0, (j, t, key)
                for space, sign in ((0, 1), (1, -1)):
                    step = [list(x), list(y)]
                    step[space][j] += 1
                    total[tuple(step[0]), tuple(step[1])] += sign * coeff
    return {k: v for k, v in total.items() if v}


def test_divided_differences_telescope_on_wide_packed_keys():
    # f(x) - f(y) = sum_j (x_j - y_j) Delta_j, keys unpacked by the width
    # the degree asks for: 10 bits at x^50 y^300 z^150, whose y- and
    # z-exponents would carry out of 8-bit fields; then seeded forms of low
    # degree
    f = parse_poly("x^50*y^300*z^150")
    cases = [(f, 500)] + [(random_form(ZZ, Random(8300 + d), d, 9), d) for d in (1, 2, 3, 4)]
    for g, d in cases:
        w = _key_width(d)
        assert w == (10 if d == 500 else max(2 * d - 2, 1).bit_length())
        diffs = _divided_differences(g.terms.items(), d, w)
        expected = {}
        for e, coeff in g.terms.items():
            expected[e, (0, 0, 0)] = coeff
            expected[(0, 0, 0), e] = -coeff
        assert _expand_morley_identity(diffs, d, w) == expected


def test_linear_resultant_is_coefficient_determinant():
    assert macaulay_resultant(*(parse_poly(v) for v in "xyz")) == 1
    assert macaulay_resultant(parse_poly("2*x"), parse_poly("y"), parse_poly("z")) == 2
    g1 = parse_poly("x + 2*y - z")
    g2 = parse_poly("3*x - y")
    g3 = parse_poly("y + 4*z")
    coeffs = Mat3(ZZ, ((1, 2, -1), (3, -1, 0), (0, 1, 4)))
    assert macaulay_resultant(g1, g2, g3) == coeffs.det()


@pytest.mark.parametrize("d", (2, 3))
def test_monomial_resultant_is_one(d):
    forms = [parse_poly(f"{v}^{d}") for v in "xyz"]
    assert macaulay_resultant(*forms) == 1


def test_resultant_multihomogeneity(rng):
    d = 2
    forms = [random_form(ZZ, rng, d, 4) for _ in range(3)]
    base = macaulay_resultant(*forms)
    scaled = macaulay_resultant(forms[0].scale(3), forms[1], forms[2])
    assert scaled == 3 ** (d * d) * base


def test_resultant_vanishes_iff_common_zero():
    # x, y, and a form vanishing at (0:0:1)
    assert macaulay_resultant(parse_poly("x^2"), parse_poly("y^2"), parse_poly("x*z")) == 0


def test_resultant_rejects_zero_and_mixed_degrees():
    with pytest.raises(ZeroInputError):
        macaulay_resultant(MultiPoly.zero(ZZ, VARS_XYZ), parse_poly("y"), parse_poly("z"))
    with pytest.raises(DegreeError):
        macaulay_resultant(parse_poly("x^2"), parse_poly("y"), parse_poly("z"))


def test_degenerate_minor_retry_path():
    # the reduced Macaulay minor vanishes for this triple, which has no
    # bearing on the hybrid determinant; its value is checked by the
    # scaling law
    g1 = parse_poly("-3*x^2 + 2*y^2 + 3*z^2")
    g2 = parse_poly("-2*x*z - 3*z^2")
    g3 = parse_poly("-2*x^2 + 2*x*z - 2*y*z")
    plan = _reference_plan((2, 2, 2))
    minor = _reference_rows(plan, (g1, g2, g3), plan.nonreduced)
    assert det_bareiss([row[:] for row in minor]) == 0
    value = macaulay_resultant(g1, g2, g3)
    assert value == 49920
    assert macaulay_resultant(g1.scale(2), g2, g3) == 2**4 * value


def test_raw_discriminant_mod_p_when_every_retry_degenerates():
    # every GF(5) retry of the Macaulay quotient degenerates for this smooth
    # quartic; the value is the hybrid determinant mod 5
    f = parse_poly(
        "4*x^3*y + 3*x^3*z + 3*x^2*y*z + x^2*z^2 + x*y^2*z + 4*x*y*z^2 + 2*y^3*z + 4*z^4"
    )
    fbar = f.reduce_mod_p(5)
    partials = tuple(fbar.partial_derivative(v) for v in fbar.vars)
    layout = _layout((3, 3, 3))
    assert all(_quotient(layout, moved, 5) is None for _, moved in _permuted_retries(partials))
    raw = discriminant(fbar, normalize=False).raw
    assert raw == macaulay_resultant(*partials) == resultant_of_partials(f) % 5 != 0
    assert is_smooth_mod_p(f, 5) is True


@pytest.mark.parametrize("p", [7, 10007])
def test_permuted_retries_give_the_resultant_up_to_their_sign(p):
    # each permutation of the variables yields its sign, (-1)^d when odd,
    # and that sign times its quotient, where det M' != 0, is the resultant
    rng = Random(5300 + p)
    for d in (1, 2, 3, 4):
        layout = _layout((d, d, d))
        forms = tuple(random_form(GF(p), rng, d) for _ in range(3))
        retries = list(_permuted_retries(forms))
        assert [sign for sign, _ in retries] == [1] + [(-1) ** d, (-1) ** d, 1, 1, (-1) ** d]
        expected = macaulay_resultant(*forms)
        for sign, moved in retries:
            quotient = _quotient(layout, moved, p)
            if quotient is not None:
                assert sign * quotient % p == expected


def test_gf2_triple_whose_retries_all_degenerate_has_resultant_1():
    # no common zero over GF(2)-bar, yet the packed GF(2) quotient of every
    # permutation of the variables degenerates; the hybrid determinant mod 2
    # is 1, as is the integer resultant of the least-residue lifts
    forms = tuple(parse_poly(t).reduce_mod_p(2) for t in ("y*z", "x^2 + x*y", "y^2 + z^2"))
    layout = _layout((2, 2, 2))
    assert all(_quotient(layout, moved, 2) is None for _, moved in _permuted_retries(forms))
    assert macaulay_resultant(*forms) == 1
    assert macaulay_resultant(*(_lift(g) for g in forms)) == 1


def test_gf2_triple_rescued_by_a_permutation_of_the_variables():
    # the forms themselves and the first two permutations degenerate, the
    # third answers, before the hybrid determinant
    forms = tuple(
        parse_poly(t).reduce_mod_p(2) for t in ("y^2", "x*y + y^2 + z^2", "x^2 + y^2")
    )
    layout = _layout((2, 2, 2))
    quotients = [_quotient(layout, moved, 2) for _, moved in _permuted_retries(forms)]
    assert quotients == [None, None, None, 1, None, None]
    assert macaulay_resultant(*forms) == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_sparse_mod_p_resultants_equal_the_lifts_resultant_mod_p(p, monkeypatch):
    # the GF(p) resultant is the reduction of the integer one; triples are
    # drawn, at degrees 1 to 3 and densities 0.3 to 0.6, until one with a
    # nonzero resultant has every permuted Macaulay quotient degenerate and
    # reaches the hybrid determinant mod p; that took 317, 24 and 33 draws
    # at p = 2, 3 and 5, most of those that reached it sharing a zero
    reached = []
    original = elimination.det_mod_p

    def counting(rows, q):
        reached.append(q)
        return original(rows, q)

    monkeypatch.setattr(elimination, "det_mod_p", counting)
    rng = Random(5100 + p)
    for trial in range(1000):
        density = 0.3 + 0.1 * (trial // 3 % 4)
        forms = tuple(_sparse_form(GF(p), rng, 1 + trial % 3, density) for _ in range(3))
        lifts = tuple(_lift(g) for g in forms)
        reached.clear()
        value = macaulay_resultant(*forms)
        assert value == macaulay_resultant(*lifts) % p, forms
        if value and reached:
            assert reached == [p]
            return
    pytest.fail("no triple with a nonzero resultant reached the hybrid determinant mod p")


def test_bareiss_full_column_rank_matches_rational_elimination(rng):
    for _ in range(60):
        n_rows, n_cols, true_rank = rng.randint(1, 7), rng.randint(1, 7), rng.randint(0, 5)
        left = [[rng.randint(-5, 5) for _ in range(true_rank)] for _ in range(n_rows)]
        right = [[rng.randint(-5, 5) if rng.random() < 0.7 else 0 for _ in range(n_cols)]
                 for _ in range(true_rank)]
        rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] if right
                else [0] * n_cols for row in left]
        _assert_full_rank_test(rows)


def test_integer_discriminant_when_every_retry_degenerates():
    # the reduced Macaulay minor of the partials of this singular quartic,
    # xz(6x^2 - 7xz - 4yz + 4z^2), vanishes under every permutation of the
    # variables; the hybrid determinant has no such case, and the raw
    # discriminant is 0
    f = parse_poly("6*x^3*z - 7*x^2*z^2 - 4*x*y*z^2 + 4*x*z^3")
    partials = [f.partial_derivative(v) for v in f.vars]
    for _, moved in _permuted_retries(partials):
        assert _reference_quotient(moved, (3, 3, 3)) is None
    for g in (f, f.to_rationals()):
        report = discriminant(g)
        assert report.raw == 0 and report.normalized == 0


def test_rational_resultant_clears_denominators():
    g1 = parse_poly("1/2*x^2 + y^2 - z^2", domain=QQ)
    g2 = parse_poly("x*y - 1/3*z^2", domain=QQ)
    g3 = parse_poly("x^2 + x*z", domain=QQ)
    value = macaulay_resultant(g1, g2, g3)
    scaled = macaulay_resultant(g1.scale(2), g2.scale(3), g3)
    assert scaled == 2**4 * 3**4 * value


# -- discriminants ----------------------------------------------------------------


def test_quadric_raw_discriminant():
    assert resultant_of_partials(fermat(2)) == 8


def test_coordinate_triangle_is_singular():
    assert resultant_of_partials(coordinate_triangle()) == 0


def test_pure_power_is_singular():
    assert resultant_of_partials(parse_poly("x^4")) == 0


def test_fermat_quartic_raw_value():
    # scaling law: partials are 4 v^3, so the raw value is 4^27 * Res(x^3,y^3,z^3)
    assert abs(resultant_of_partials(fermat(4))) == 2**54
    assert resultant_of_partials(fermat(4)) == 4**27 * macaulay_resultant(
        *(parse_poly(f"{v}^3") for v in "xyz")
    )


@pytest.mark.parametrize("n", (2, 3, 4))
def test_discriminant_covariance(n, rng):
    dom = GF(10007)
    for _ in range(30):
        f = random_form(dom, rng, n, 10006)
        gamma = random_invertible(dom, rng, 10006)
        lhs = resultant_of_partials(act_ternary(gamma, f))
        rhs = dom.mul(dom.pow(gamma.det(), n * (n - 1) ** 2), resultant_of_partials(f))
        assert lhs == rhs


@pytest.mark.parametrize("n", (2, 3, 4))
def test_discriminant_homogeneity(n, rng):
    for _ in range(10):
        f = random_form(ZZ, rng, n, 5)
        c = rng.choice((-3, -2, 2, 3, 5))
        assert resultant_of_partials(f.scale(c)) == c ** (3 * (n - 1) ** 2) * resultant_of_partials(f)


def _sylvester(a, b):
    """The Sylvester matrix of two binary forms of positive degree, each a
    coefficient list with the highest power of the first variable first."""
    da, db = len(a) - 1, len(b) - 1
    return [[0] * i + a + [0] * (db - 1 - i) for i in range(db)] + [
        [0] * i + b + [0] * (da - 1 - i) for i in range(da)
    ]


def _euler_oracle(f):
    """Res(f_x, f_y, f_z) of an integer n-ic by Euler's identity, or None.

    n f = x f_x + y f_y + z f_z, and a resultant is unchanged when its first
    form gains multiples of the others and multiplicative in that form, so
    n^((n-1)^2) Res(f, f_y, f_z) = Res(x, f_y, f_z) Res(f_x, f_y, f_z), where
    Res(x, f_y, f_z) is the Sylvester resultant of f_y(0, y, z) and
    f_z(0, y, z) (a Fraction elimination).  Res(f, f_y, f_z) is the Macaulay
    quotient of degrees (n, n-1, n-1) on the reference matrices, two
    determinants of other sizes than the raw value's.  Swapping two variables leaves the raw value alone (the
    transposition has determinant -1 and n(n-1)^2 is even), so y and then z
    take the place of x when a denominator vanishes; None when one vanishes
    for all three.
    """
    n = f.homogeneous_degree()
    for swap in ((0, 1, 2), (1, 0, 2), (2, 1, 0)):
        g = MultiPoly(ZZ, f.vars, {tuple(e[i] for i in swap): c for e, c in f.terms.items()})
        _, gy, gz = (g.partial_derivative(v) for v in g.vars)
        binary = [[h.coefficient((0, n - 1 - j, j)) for j in range(n)] for h in (gy, gz)]
        sylvester = _rational_echelon(_sylvester(*binary))[1]
        middle = _reference_quotient((g, gy, gz), (n, n - 1, n - 1)) if sylvester else None
        if middle is not None:
            value = Fraction(n ** ((n - 1) ** 2) * middle, sylvester)
            assert value.denominator == 1, f
            return value.numerator
    return None


def test_raw_discriminants_match_the_euler_identity_oracle():
    # seeded forms of degree 2-6: dense and sparse over ZZ, dense over QQ
    # (cleared of denominators for the oracle) and over GF(p) (against the
    # oracle's value of the least-residue lift, reduced mod p)
    rng = Random(7717)
    checked, skipped = Counter(), Counter()
    for n in range(2, 7):
        for k in range(8 if n < 6 else 4):
            if k % 4 == 0:
                f = random_form(ZZ, rng, n, 9)
            elif k % 4 == 1:
                f = _sparse_form(ZZ, rng, n, 0.7)
            elif k % 4 == 2:
                f = random_form(QQ, rng, n, 9)
            else:
                f = random_form(GF(rng.choice((5, 7, 10007))), rng, n, 10**4)
            if f.domain == QQ:
                scale = 1
                for c in f.terms.values():
                    scale = scale * c.denominator // gcd(scale, c.denominator)
                expected = _euler_oracle(f.scale(scale).to_integers())
                if expected is not None:
                    expected = Fraction(expected, scale ** (3 * (n - 1) ** 2))
            elif f.domain == ZZ:
                expected = _euler_oracle(f)
            else:
                expected = _euler_oracle(_lift(f))
                if expected is not None:
                    expected %= f.domain.p
            if expected is None:
                skipped[f.domain.name] += 1
                continue
            assert resultant_of_partials(f) == expected, f
            checked["GF(p)" if f.domain not in (ZZ, QQ) else f.domain.name] += 1
    assert sum(checked.values()) >= 30 and all(checked[d] >= 8 for d in ("ZZ", "QQ", "GF(p)")), (
        checked,
        skipped,
    )


def test_discriminant_report_consistency():
    report = discriminant(fermat(4))
    assert report.raw == report.constant * report.normalized
    assert report.degree_check == 27
    assert report.constant == 16384


def test_discriminant_rejects_low_degree_and_zero():
    with pytest.raises(DegreeError):
        discriminant(parse_poly("x + y"))
    with pytest.raises(ZeroInputError):
        discriminant(MultiPoly.zero(ZZ, VARS_XYZ))


def test_quadratic_discriminant_matches_gram_determinant(rng):
    """Independent oracle: the Gram determinant of a ternary quadratic.

    One fixed constant must relate the normalized discriminant and
    det(Gram) across all samples.
    """
    kappa = None
    for _ in range(100):
        f = random_form(ZZ, rng, 2, 9)
        gram = Mat3(
            QQ,
            (
                (Fraction(f.coefficient((2, 0, 0))), Fraction(f.coefficient((1, 1, 0)), 2), Fraction(f.coefficient((1, 0, 1)), 2)),
                (Fraction(f.coefficient((1, 1, 0)), 2), Fraction(f.coefficient((0, 2, 0))), Fraction(f.coefficient((0, 1, 1)), 2)),
                (Fraction(f.coefficient((1, 0, 1)), 2), Fraction(f.coefficient((0, 1, 1)), 2), Fraction(f.coefficient((0, 0, 2)))),
            ),
        )
        oracle = gram.det()
        normalized = discriminant(f).normalized
        if oracle == 0:
            assert normalized == 0
            continue
        if kappa is None:
            kappa = Fraction(normalized) / oracle
        assert normalized == kappa * oracle
    assert kappa == 4


# -- smoothness over prime fields ---------------------------------------------------


def test_fermat_quartic_reduction_profile():
    assert is_smooth_mod_p(fermat(4), 2) is False
    for p in (3, 5, 7, 11, 13):
        assert is_smooth_mod_p(fermat(4), p) is True
    # cross-check at p = 5 by exhaustive singular-point search
    fbar = fermat(4).reduce_mod_p(5)
    assert singular_points_fp(fbar, 5) == []
    assert singular_points_fp2(fbar, 5) == []


def test_coordinate_triangle_singular_everywhere():
    for p in (2, 3, 5, 7):
        assert is_smooth_mod_p(coordinate_triangle(), p) is False


def test_smooth_conic_in_characteristic_two():
    # xy + z^2 has empty Jacobian locus over every field; the raw resultant
    # vanishes identically at degree 2 mod 2, so the verdict rests on the
    # rank certificate
    f = parse_poly("x*y + z^2")
    assert is_smooth_mod_p(f, 2) is True
    assert singular_points_fp(f.reduce_mod_p(2), 2) == []
    assert singular_points_fp2(f.reduce_mod_p(2), 2) == []


def test_smooth_conic_given_over_gf2_without_integer_lift():
    # the same conic given directly over GF(2): no integer form stands
    # behind it, and the rank certificate answers without one
    f = parse_poly("x*y + z^2").reduce_mod_p(2)
    assert is_smooth_mod_p(f, 2) is True
    assert singular_points_fp(f, 2) == []
    assert singular_points_fp2(f, 2) == []


def test_smoothness_mod_p_zero_form_rejected():
    with pytest.raises(ZeroInputError):
        is_smooth_mod_p(parse_poly("5*x^2 + 5*y*z"), 5)


@pytest.mark.parametrize("n", (2, 3, 4))
@pytest.mark.parametrize("p", (3, 5, 7, 11))
def test_smoothness_agrees_with_exhaustive_search(n, p, rng):
    """One-sided oracle agreement over F_p and F_{p^2}.

    A singular point over either field forces the verdict False; a True
    verdict forces an empty singular locus over both fields.
    """
    trials = 50
    for _ in range(trials):
        f = random_form(ZZ, rng, n, 9)
        fbar = f.reduce_mod_p(p)
        if fbar.is_zero():
            continue
        verdict = is_smooth_mod_p(f, p)
        singular = singular_points_fp(fbar, p) or singular_points_fp2(fbar, p)
        if singular:
            assert verdict is False
        if verdict:
            assert not singular


def _sparse_form(dom, rng, n, density):
    """A seeded form of degree n keeping each monomial with the given chance."""
    while True:
        f = random_form(dom, rng, n, 9)
        terms = {e: c for e, c in f.terms.items() if rng.random() < density}
        if terms and len({sum(e) for e in terms}) == 1:
            return MultiPoly(dom, f.vars, terms)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 101, 10007, 2**61 - 1])
def test_smoothness_is_a_nonzero_resultant_when_p_does_not_divide_the_degree(p):
    # Euler's formula puts f in the span of its partials, so the rank
    # certificate and the resultant of the partials decide the same question
    rng = Random(3000 + p % 1000)
    verdicts = set()
    for n in range(2, 7):
        if n % p == 0:
            continue
        for density in (1.0, 0.6, 0.3):
            for _ in range(3):
                f = _sparse_form(GF(p), rng, n, density)
                verdict = is_smooth_mod_p(f, p)
                assert verdict == (resultant_of_partials(f) != 0)
                verdicts.add(verdict)
    assert verdicts == {True, False}


class _CubicExtension:
    """F_{p^3} = F_p[t]/(t^3 - c1 t - c0), elements as coefficient triples."""

    def __init__(self, p):
        self.p = p
        self.c0, self.c1 = next(
            (c0, c1) for c0 in range(1, p) for c1 in range(p)
            if all((r**3 - c1 * r - c0) % p for r in range(p))
        )

    def elements(self):
        p = self.p
        return [(a, b, c) for a in range(p) for b in range(p) for c in range(p)]

    def mul(self, x, y):
        p = self.p
        prod = [0] * 5
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        for k in (4, 3):  # t^k = t^(k-3) (c1 t + c0)
            top, prod[k] = prod[k], 0
            prod[k - 3] += top * self.c0
            prod[k - 2] += top * self.c1
        return tuple(v % p for v in prod[:3])

    def evaluate(self, g, point):
        total = [0, 0, 0]
        for exps, coeff in g.terms.items():
            term = (coeff % self.p, 0, 0)
            for x, e in zip(point, exps):
                for _ in range(e):
                    term = self.mul(term, x)
            total = [a + b for a, b in zip(total, term)]
        return tuple(v % self.p for v in total)


def _has_singular_point_fp3(fbar, p):
    """Whether the curve has a singular point in P^2(F_{p^3})."""
    ext = _CubicExtension(p)
    elems = ext.elements()
    one, zero = (1, 0, 0), (0, 0, 0)
    points = [(one, a, b) for a in elems for b in elems]
    points += [(zero, one, a) for a in elems] + [(zero, zero, one)]
    forms = [fbar] + [fbar.partial_derivative(v) for v in fbar.vars]
    return any(all(ext.evaluate(g, pt) == zero for g in forms) for pt in points)


@pytest.mark.parametrize("n, p", [(2, 2), (4, 2), (6, 2), (3, 3), (6, 3), (5, 5)])
def test_smoothness_when_p_divides_the_degree(n, p, capsys):
    """Verdicts where the raw discriminant vanishes identically mod p.

    A True verdict has no singular point over F_p or F_{p^2}; for integer
    forms every verdict is the nonvanishing of the normalized discriminant
    mod p, checked on every form up to degree 4 and on the first three of
    each verdict above (a degree-6 discriminant over ZZ costs ~0.15 s).  A False verdict
    is backed by a singular point over F_{p^2} or, for p <= 3, F_{p^3};
    singular points can lie in larger extensions only, so the unbacked
    False verdicts are counted.
    """
    rng = Random(4000 + 10 * n + p)
    verdicts, checked = [], Counter()
    beyond_fp2 = unbacked = 0
    for density in (1.0, 0.6, 0.3):
        for _ in range(24):
            f = _sparse_form(ZZ, rng, n, density)
            fbar = f.reduce_mod_p(p)
            if fbar.is_zero() or not fbar.is_homogeneous():
                continue
            verdict = is_smooth_mod_p(f, p)
            assert verdict == is_smooth_mod_p(fbar, p)
            verdicts.append(verdict)
            if n <= 4 or checked[verdict] < 3:
                assert verdict == (discriminant(f).normalized % p != 0)
                checked[verdict] += 1
            singular = singular_points_fp(fbar, p) or singular_points_fp2(fbar, p)
            if verdict:
                assert not singular
            elif not singular:
                beyond_fp2 += 1
                if not (p <= 3 and _has_singular_point_fp3(fbar, p)):
                    unbacked += 1
    assert True in verdicts and False in verdicts
    assert set(checked) == {True, False}
    assert unbacked <= verdicts.count(False) // 4
    with capsys.disabled():
        print(f"[n={n} p={p}] {verdicts.count(False)} False verdicts: {beyond_fp2} with no "
              f"singular point over F_p^2, {unbacked} with none over F_p^3 either")


def test_rank_certificate_degree(monkeypatch):
    # D = d1 + d2 + d3 - 2 over the three largest generator degrees: the
    # partials alone (3n - 5) when p does not divide n, with f (3n - 4) when
    # it does; D - 1 would miss smooth forms, D + 1 only costs more
    sizes = []
    original = elimination._eliminate_mod_p

    def recording(rows, p, w, gaps, spare=()):
        sizes.append(len(gaps))
        return original(rows, p, w, gaps, spare)

    monkeypatch.setattr(elimination, "_eliminate_mod_p", recording)
    for n, p, D in ((4, 5, 7), (4, 2, 8), (6, 3, 14), (6, 13, 13), (2, 2, 2), (2, 3, 1)):
        sizes.clear()
        assert is_smooth_mod_p(fermat(n) + parse_poly(f"x^{n - 1}*y"), p) in (True, False)
        assert sizes == [(D + 1) * (D + 2) // 2]


def test_resultant_of_coincident_partials_mod_2_is_zero():
    # x^3 + x^2 y + x z^2 + y^2 z + y z^2: the x- and y-partials coincide
    # mod 2, so every Macaulay retry, and the integer lift's, degenerates;
    # the common zero they share makes the resultant 0
    f = parse_poly("x^3 + x^2*y + x*z^2 + y^2*z + y*z^2").reduce_mod_p(2)
    assert resultant_of_partials(f) == 0
    partials = [f.partial_derivative(v) for v in f.vars]
    assert macaulay_resultant(*partials) == 0


def test_gf2_cubics_and_quartics_have_resultants():
    rng = Random(2080)
    for trial in range(80):
        n = 3 + trial % 2
        f = _sparse_form(GF(2), rng, n, 1.0 if trial % 4 < 2 else 0.5)
        raw = resultant_of_partials(f)
        assert raw in (0, 1)
        if n == 3:
            assert (raw != 0) == is_smooth_mod_p(f, 2)
        else:
            assert raw == 0  # 2 divides the content of the raw quartic discriminant


def test_bad_primes_fermat_quartic():
    assert bad_primes(fermat(4), {2}) == (set(), 1)
    assert bad_primes(fermat(4), set()) == ({2}, 1)


def test_bad_primes_rejects_singular():
    with pytest.raises(ZeroInputError):
        bad_primes(coordinate_triangle(), set())


def test_bad_primes_refuses_forms_not_over_zz(monkeypatch):
    # refused before any discriminant is computed; over GF(p) the residue
    # of a raw discriminant has no bad primes to find
    def no_discriminant(*args, **kwargs):
        raise AssertionError("discriminant computed")

    monkeypatch.setattr(elimination, "discriminant", no_discriminant)
    f = parse_poly("x^3 + y^3 + z^3 + 2*x*y*z")
    for g in (f.to_rationals(), coordinate_triangle().to_rationals(), f.reduce_mod_p(11)):
        with pytest.raises(DomainMismatchError, match="need integer coefficients"):
            bad_primes(g, set())


def test_bad_primes_finds_odd_primes():
    bad, cofactor = bad_primes(fermat(3), {3})
    assert bad == set() and cofactor == 1
    bad, cofactor = bad_primes(fermat(3), set())
    assert bad == {3} and cofactor == 1


# -- normalization constants ----------------------------------------------------------


def test_closed_form_matches_the_sampled_content():
    # Demazure's n^a against the gcd of seeded raw values, which knows no theory
    for n, expected in ((2, 2), (3, 27), (4, 16384), (5, 5**13)):
        constant, record = normalization_constant(n)
        assert constant == expected == n ** record["exponent"]
        assert sampled_content(n) == expected


def test_normalization_constant_below_degree_2_refused():
    for n in (0, 1):
        with pytest.raises(DegreeError):
            normalization_constant(n)


@pytest.mark.parametrize("n, forms", [(5, 3), (6, 2), (7, 1)])
def test_normalized_times_constant_is_raw_beyond_degree_4(n, forms):
    rng = Random(7000 + n)
    for _ in range(forms):
        f = _sparse_form(ZZ, rng, n, 0.5)
        report = discriminant(f)
        assert report.constant == n ** (((n - 1) ** 3 + 1) // n)
        assert report.normalized * report.constant == report.raw


def test_normalized_discriminants_are_primitive():
    # the gcd of normalized values over a sample is 1: n^a is the whole content
    rng = Random(7100)
    for n in (2, 3, 4, 5):
        content = 0
        for _ in range(16):
            report = discriminant(random_form(ZZ, rng, n, 6))
            assert report.constant == n ** (((n - 1) ** 3 + 1) // n)
            content = gcd(content, report.normalized)
        assert content == 1


def test_constant_divides_every_raw_value(rng):
    for n in (2, 3, 4):
        constant, _ = normalization_constant(n)
        for _ in range(10):
            f = random_form(ZZ, rng, n, 9)
            assert resultant_of_partials(f) % constant == 0
