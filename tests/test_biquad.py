"""(2,2)-classes: canonicalization, covariants, tangency, genericity."""

from fractions import Fraction
from random import Random

import pytest

from triforms import biquadratic
from triforms.biquadratic import (
    X_BLOCK,
    Class22,
    Z_BLOCK,
    _MONOMIALS_22,
    _adjugate_contraction,
    act_22,
    branch_locus_report,
    canonicalize,
    covariant_x_ternary,
    covariant_z_ternary,
    degenerate_points,
    gram_matrices,
    ideal_multiplier,
    incidence_form,
    is_generic_mod_p,
    is_ideal_member,
    sextic_covariant_x,
    sextic_covariant_z,
    tangency_test,
    verify_well_defined,
)
from triforms.domains import GF, QQ, ZZ
from triforms.errors import (
    DegreeError,
    DegeneratePointError,
    DomainMismatchError,
    PrimeError,
    SingularMatrixError,
    TriformsError,
    ZeroInputError,
)
from triforms.finitefield import QuadExtension, evaluate_terms_ext, projective_points_ext
from triforms.fixtures import diagonal_22_cycle, diagonal_22_same, sigma_squared
from triforms.matrices import Mat3, adjugate3
from triforms.poly import VARS_BIQUAD, MultiPoly, parse_poly
from triforms.suites import random_bilinear, random_form22, random_invertible, random_scalar

from conftest import contract_with_block, projective_points_prime, singular_points_fp2


# -- canonicalization ------------------------------------------------------------


def test_sigma_squared_is_zero_class():
    assert canonicalize(sigma_squared()).is_zero()


def test_canonicalize_idempotent(rng):
    for dom in (ZZ, QQ, GF(7)):
        f = random_form22(dom, rng)
        once = canonicalize(f)
        assert canonicalize(once.rep) == once


def test_coset_invariance_random(rng):
    sigma = incidence_form(QQ)
    for _ in range(100):
        f = random_form22(QQ, rng)
        L = random_bilinear(QQ, rng)
        assert canonicalize(f + L * sigma) == canonicalize(f)


def test_coset_soundness_via_multiplier_solve(rng):
    """canonicalize(f) == canonicalize(g) exactly when f - g = L * sigma.

    The multiplier is recovered by exact linear solve and checked by
    multiplying back.
    """
    sigma = incidence_form(ZZ)
    for _ in range(50):
        f = random_form22(ZZ, rng)
        L = random_bilinear(ZZ, rng)
        g = f + L * sigma
        assert canonicalize(f) == canonicalize(g)
        recovered = ideal_multiplier(g - f)
        assert recovered == L
        assert recovered * sigma == g - f
    # near-misses: perturbing one coefficient leaves the ideal
    f = random_form22(ZZ, rng)
    bump = MultiPoly(ZZ, VARS_BIQUAD, {(2, 0, 0, 0, 2, 0): 1})
    assert canonicalize(f) != canonicalize(f + bump) or is_ideal_member(bump)


def test_wrong_bidegree_rejected():
    # a bihomogeneous form of another bidegree, or of the right total degree
    # with its terms split unevenly, and one that is not bihomogeneous, each
    # through both entry points
    for text, message in (
        ("x1^2*z1", "expected a bihomogeneous (2,2) form"),
        ("x1^3*z1 + x2^3*z3", "expected a bihomogeneous (2,2) form"),
        ("x1^2*z1^2 + x1*z1", "polynomial is not bihomogeneous"),
        ("x1^2*z1^2 + x1^3*z2", "polynomial is not bihomogeneous"),
    ):
        for check in (canonicalize, ideal_multiplier):
            with pytest.raises(DegreeError) as info:
                check(parse_poly(text, variables=VARS_BIQUAD, domain=ZZ))
            assert str(info.value) == message, (check.__name__, text)


def _sparse_form22(dom, rng, density):
    terms = {m: random_scalar(dom, rng) for m in _MONOMIALS_22 if rng.random() < density}
    return MultiPoly(dom, VARS_BIQUAD, terms)


def test_canonicalization_commutes_with_domain_moves(rng):
    for k in range(60):
        f = random_form22(ZZ, rng) if k % 2 else _sparse_form22(ZZ, rng, 0.2)
        cls = canonicalize(f)
        assert cls.to_rationals() == canonicalize(f.to_rationals())
        for p in (2, 3, 5, 101):
            assert cls.reduce_mod_p(p) == canonicalize(f.reduce_mod_p(p))


def test_canonical_representative_is_the_remainder_of_division_by_sigma(rng):
    for dom in (ZZ, QQ, GF(2), GF(3), GF(101)):
        sigma = incidence_form(dom)
        forms = [sigma_squared(dom), sigma_squared(dom).scale(3)]
        for _ in range(20):
            forms.append(random_form22(dom, rng))
            forms.append(_sparse_form22(dom, rng, 0.15))
            forms.append(random_bilinear(dom, rng) * sigma)
            forms.append(sigma_squared(dom) + _sparse_form22(dom, rng, 0.1))
        for f in forms:
            rep = canonicalize(f).rep
            assert not any(e[0] and e[3] for e in rep.terms)
            assert f - rep == ideal_multiplier(f - rep) * sigma
            assert (ideal_multiplier(f) is None) == (not rep.is_zero())


# -- the twisted action ----------------------------------------------------------


def test_action_identity_and_zero(rng):
    f = canonicalize(random_form22(GF(7), rng))
    assert act_22(Mat3.identity(GF(7)), f) == f
    zero = canonicalize(MultiPoly.zero(GF(7), VARS_BIQUAD))
    g = random_invertible(GF(7), rng)
    assert act_22(g, zero).is_zero()


def test_action_rejects_singular():
    m = Mat3(QQ, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    with pytest.raises(SingularMatrixError):
        act_22(m, canonicalize(diagonal_22_same(QQ)))


def test_center_scaling_acts_by_sixth_power(rng):
    dom = GF(11)
    f = canonicalize(random_form22(dom, rng))
    for u in (2, 3, 7):
        gamma = Mat3.scalar(dom, u)
        assert act_22(gamma, f) == canonicalize(f.rep.scale(pow(u, 6, 11)))


def test_action_invertible_via_inverse(rng):
    for _ in range(10):
        f = canonicalize(random_form22(QQ, rng))
        gamma = random_invertible(QQ, rng)
        assert act_22(gamma.inverse(), act_22(gamma, f)) == f


def test_ideal_element_maps_to_zero_class(rng):
    dom = GF(7)
    sigma = incidence_form(dom)
    elem = sigma * MultiPoly.variable(dom, VARS_BIQUAD, "x1") * MultiPoly.variable(
        dom, VARS_BIQUAD, "z1"
    )
    for _ in range(10):
        gamma = random_invertible(dom, rng)
        assert act_22(gamma, canonicalize(elem)).is_zero()


# -- Gram matrices ---------------------------------------------------------------


def test_gram_single_monomial():
    pair = gram_matrices(canonicalize(parse_poly("x1^2*z2^2", variables=VARS_BIQUAD, domain=ZZ)))
    z2sq = parse_poly("z2^2", variables=VARS_BIQUAD, domain=QQ)
    x1sq = parse_poly("x1^2", variables=VARS_BIQUAD, domain=QQ)
    assert pair.in_x[0][0] == z2sq
    assert all(
        pair.in_x[i][j].is_zero() for i in range(3) for j in range(3) if (i, j) != (0, 0)
    )
    assert pair.in_z[1][1] == x1sq


def test_gram_symmetrization_halves():
    pair = gram_matrices(canonicalize(parse_poly("x1*x2*z3^2", variables=VARS_BIQUAD, domain=ZZ)))
    half = parse_poly("z3^2", variables=VARS_BIQUAD, domain=QQ).scale(Fraction(1, 2))
    assert pair.in_x[0][1] == half
    assert pair.in_x[1][0] == half


def test_gram_contraction_roundtrip(rng):
    for _ in range(100):
        f = random_form22(QQ, rng)
        pair = gram_matrices(f)
        rebuilt_x = contract_with_block(pair.in_x, VARS_BIQUAD, X_BLOCK, QQ)
        rebuilt_z = contract_with_block(pair.in_z, VARS_BIQUAD, Z_BLOCK, QQ)
        assert rebuilt_x == f
        assert rebuilt_z == f


def _random_symmetric_grid(dom, rng, variables, monomials):
    """A symmetric 3x3 grid of MultiPolys, each entry on up to six of the monomials."""
    entries = {}
    for i in range(3):
        for j in range(i, 3):
            chosen = rng.sample(monomials, rng.randint(0, 6))
            terms = {m: random_scalar(dom, rng, 5) for m in chosen}
            entries[i, j] = entries[j, i] = MultiPoly(dom, variables, terms)
    return tuple(tuple(entries[i, j] for j in range(3)) for i in range(3))


def test_adjugate_contraction_matches_the_full_adjugate(rng):
    """The six-cofactor kernel against all nine cofactors contracted one by one."""
    z_quadratics = [(0, 0, 0) + m[3:] for m in _MONOMIALS_22 if m[0] == 2]
    extra = VARS_BIQUAD + ("s", "t")
    mixed = [
        x + z[3:] + st
        for x in ((0, 0, 0), (1, 0, 0), (0, 0, 1))
        for z in z_quadratics
        for st in ((0, 0), (1, 0), (0, 2), (1, 1))
    ]
    for dom in (ZZ, QQ, GF(3), GF(5), GF(101)):
        for variables, monomials in ((VARS_BIQUAD, z_quadratics), (extra, mixed)):
            for _ in range(8):
                gram = _random_symmetric_grid(dom, rng, variables, monomials)
                for block in (X_BLOCK, Z_BLOCK):
                    expected = contract_with_block(adjugate3(gram), variables, block, dom)
                    assert _adjugate_contraction(gram, block) == expected


def test_gram_symmetry(rng):
    pair = gram_matrices(random_form22(QQ, rng))
    for i in range(3):
        for j in range(3):
            assert pair.in_x[i][j] == pair.in_x[j][i]
            assert pair.in_z[i][j] == pair.in_z[j][i]


def test_gram_rejects_characteristic_two(rng):
    with pytest.raises(PrimeError):
        gram_matrices(random_form22(GF(2), rng))


# -- sextic covariants -------------------------------------------------------------


def test_covariants_of_diagonal_classes():
    same = canonicalize(diagonal_22_same())
    assert covariant_x_ternary(same) == parse_poly("3*x1^2*x2^2*x3^2", variables=X_BLOCK, domain=QQ)
    assert covariant_z_ternary(same) == parse_poly("3*z1^2*z2^2*z3^2", variables=Z_BLOCK, domain=QQ)
    cycle = canonicalize(diagonal_22_cycle())
    assert covariant_x_ternary(cycle) == parse_poly(
        "x1^4*x2^2 + x2^4*x3^2 + x3^4*x1^2", variables=X_BLOCK, domain=QQ
    )


def test_covariants_of_zero_class():
    zero = canonicalize(MultiPoly.zero(ZZ, VARS_BIQUAD))
    assert sextic_covariant_x(zero).is_zero()
    assert sextic_covariant_z(zero).is_zero()


def test_covariant_degrees(rng):
    f = canonicalize(random_form22(QQ, rng))
    ix = covariant_x_ternary(f)
    iz = covariant_z_ternary(f)
    assert ix.homogeneous_degree() == 6
    assert iz.homogeneous_degree() == 6


def test_well_definedness_random_rationals(rng):
    for _ in range(100):
        f = random_form22(QQ, rng)
        L = random_bilinear(QQ, rng)
        assert verify_well_defined(f, L)


def test_well_definedness_random_prime_field(rng):
    dom = GF(101)
    for _ in range(100):
        f = random_form22(dom, rng)
        L = random_bilinear(dom, rng)
        assert verify_well_defined(f, L)


def test_well_definedness_trivial_shift():
    f = diagonal_22_cycle(QQ)
    L = MultiPoly.zero(QQ, VARS_BIQUAD)
    assert verify_well_defined(f, L)


def test_well_definedness_fully_symbolic():
    """Indeterminate coefficients on both the form and the multiplier.

    51 variables: the 6 geometric ones, 36 form coefficients, 9 multiplier
    coefficients.  Verifies the representative independence as a polynomial
    identity, not just on samples.
    """
    from triforms.biquadratic import _MONOMIALS_22

    cvars = tuple(f"c{k}" for k in range(36))
    tvars = tuple(f"t{i}{j}" for i in range(3) for j in range(3))
    allvars = VARS_BIQUAD + cvars + tvars
    f_terms = {}
    for k, mono in enumerate(_MONOMIALS_22):
        exps = [0] * len(allvars)
        exps[:6] = mono
        exps[6 + k] = 1
        f_terms[tuple(exps)] = Fraction(1)
    f = MultiPoly(QQ, allvars, f_terms)
    l_terms = {}
    for idx, (i, j) in enumerate((i, j) for i in range(3) for j in range(3)):
        exps = [0] * len(allvars)
        exps[i] += 1
        exps[3 + j] += 1
        exps[6 + 36 + idx] = 1
        l_terms[tuple(exps)] = Fraction(1)
    L = MultiPoly(QQ, allvars, l_terms)
    assert verify_well_defined(f, L)


def test_covariance_laws(rng):
    dom = GF(101)
    for _ in range(30):
        f = canonicalize(random_form22(dom, rng))
        gamma = random_invertible(dom, rng)
        moved = act_22(gamma, f)
        lhs_x = covariant_x_ternary(moved)
        rhs_x = covariant_x_ternary(f).substitute_linear(gamma.rows).scale(dom.pow(gamma.det(), 2))
        assert lhs_x == rhs_x
        lhs_z = covariant_z_ternary(moved)
        rhs_z = covariant_z_ternary(f).substitute_linear(gamma.cofactor_matrix().rows)
        assert lhs_z == rhs_z


def test_covariance_laws_rationals(rng):
    for _ in range(5):
        f = canonicalize(random_form22(QQ, rng))
        gamma = random_invertible(QQ, rng)
        moved = act_22(gamma, f)
        assert covariant_x_ternary(moved) == covariant_x_ternary(f).substitute_linear(
            gamma.rows
        ).scale(gamma.det() ** 2)
        assert covariant_z_ternary(moved) == covariant_z_ternary(f).substitute_linear(
            gamma.cofactor_matrix().rows
        )


def test_integrality_probe(rng):
    """Covariants of integer classes have denominators dividing 4.

    Plain integrality fails in general: the class of x1 x2 z1 z2 has
    -1/4 x1^2 x2^2 x3^2 as its x-covariant.  Scaling by 4 always lands in
    the integers (Gram entries live in (1/2)Z, adjugate entries in (1/4)Z).
    """
    witness = canonicalize(
        parse_poly("x1*x2*z1*z2", variables=VARS_BIQUAD, domain=ZZ)
    )
    ix = covariant_x_ternary(witness)
    assert ix == parse_poly("x3^2", variables=X_BLOCK, domain=QQ).scale(
        Fraction(-1, 4)
    ) * parse_poly("x1^2*x2^2", variables=X_BLOCK, domain=QQ)
    for _ in range(200):
        f = canonicalize(random_form22(ZZ, rng))
        for cov in (covariant_x_ternary(f), covariant_z_ternary(f)):
            assert all((4 * c).denominator == 1 for c in cov.terms.values())


# -- tangency and branch locus ------------------------------------------------------


def test_tangency_cycle_example():
    cls = canonicalize(diagonal_22_cycle().reduce_mod_p(11))
    disc, degenerate = tangency_test(cls, (1, 0, 0), "x")
    assert disc == 0 and not degenerate
    assert covariant_x_ternary(cls).evaluate([1, 0, 0]) == 0


def test_tangency_degenerate_example():
    cls = canonicalize(diagonal_22_same().reduce_mod_p(11))
    _disc, degenerate = tangency_test(cls, (1, 0, 0), "x")
    assert degenerate


def test_tangency_zero_gram_is_degenerate():
    zero = canonicalize(MultiPoly.zero(GF(11), VARS_BIQUAD))
    _disc, degenerate = tangency_test(zero, (1, 0, 0), "x")
    assert degenerate


def test_tangency_rejects_zero_point_and_char_two(rng):
    cls = canonicalize(random_form22(GF(11), rng))
    with pytest.raises(ZeroInputError):
        tangency_test(cls, (0, 0, 0), "x")
    with pytest.raises(PrimeError):
        tangency_test(canonicalize(random_form22(GF(2), rng)), (1, 0, 0), "x")


def test_branch_locus_raises_on_degenerate_class():
    cls = canonicalize(diagonal_22_same().reduce_mod_p(11))
    with pytest.raises(DegeneratePointError):
        branch_locus_report(cls)


def test_branch_locus_rejects_zero_class():
    with pytest.raises(ZeroInputError):
        branch_locus_report(canonicalize(MultiPoly.zero(GF(11), VARS_BIQUAD)))


def test_branch_locus_consistency_random(rng):
    found = 0
    while found < 3:
        cls = canonicalize(random_form22(GF(11), rng, 10))
        try:
            if not is_generic_mod_p(cls, 11):
                continue
            report = branch_locus_report(cls)
        except (DegeneratePointError, ZeroInputError):
            continue
        assert report.consistent
        assert report.points_checked == 2 * (11**2 + 11 + 1)
        assert report.pairing["x_projection_branch"] == "sextic_covariant_x"
        found += 1


def _pointwise_branch_locus(cls, p):
    """branch_locus_report's outcome rebuilt from public per-point calls."""
    counterexamples = []
    checked = 0
    for side, sextic in (("x", covariant_x_ternary(cls)), ("z", covariant_z_ternary(cls))):
        for point in projective_points_prime(p):
            disc, degenerate = tangency_test(cls, point, side)
            if degenerate:
                return ("degenerate", side, point)
            cov = sextic.evaluate(list(point))
            if (disc == 0) != (cov == 0):
                counterexamples.append((side, point, disc, cov))
            checked += 1
    return (checked, tuple(counterexamples))


@pytest.mark.parametrize("p", [5, 7])
def test_branch_locus_report_matches_pointwise_tangency(rng, p):
    outcomes = set()
    for trial in range(8):
        # sparse classes reach degenerate fibers too, dense ones rarely do
        density = 0.25 if trial % 2 else 1.0
        terms = {m: rng.randrange(p) for m in _MONOMIALS_22 if rng.random() < density}
        cls = canonicalize(MultiPoly(GF(p), VARS_BIQUAD, terms))
        if cls.is_zero():
            continue
        expected = _pointwise_branch_locus(cls, p)
        try:
            report = branch_locus_report(cls)
        except DegeneratePointError as exc:
            assert expected == ("degenerate", exc.side, exc.point)
            outcomes.add("degenerate")
            continue
        assert (report.points_checked, report.counterexamples) == expected
        outcomes.add("report")
    assert outcomes == {"degenerate", "report"}


def _reference_eval_fp(terms, point, p):
    a0, a1, a2 = point
    return sum(c * a0**e0 * a1**e1 * a2**e2 for (e0, e1, e2), c in terms) % p


def _reference_restricted_disc(m, a, p):
    """The restricted discriminant by explicit line vectors, point by point."""
    pivot = max(i for i in range(3) if a[i])
    inv = pow(a[pivot], p - 2, p)
    vecs = []
    for k in (i for i in range(3) if i != pivot):
        vec = [0, 0, 0]
        vec[k] = 1
        vec[pivot] = (-a[k] * inv) % p
        vecs.append(vec)

    def form(u, v):
        return sum(u[i] * m[i][j] * v[j] for i in range(3) for j in range(3)) % p

    alpha, gamma = form(vecs[0], vecs[0]), form(vecs[1], vecs[1])
    beta = 2 * form(vecs[0], vecs[1]) % p
    return (beta * beta - 4 * alpha * gamma) % p, alpha == 0 and beta == 0 and gamma == 0


def _reference_branch_locus(cls, p):
    """branch_locus_report's outcome by evaluating every entry at every point."""
    counterexamples = []
    checked = 0
    for s in biquadratic._derived(cls).sides:
        side, gram_terms = s.name, s.terms
        sextic_terms = list(s.sextic.terms.items())
        for point in projective_points_prime(p):
            m = [[_reference_eval_fp(gram_terms[i][j], point, p) for j in range(3)]
                 for i in range(3)]
            disc, degenerate = _reference_restricted_disc(m, point, p)
            if degenerate:
                return ("degenerate", side, point)
            cov = _reference_eval_fp(sextic_terms, point, p)
            if (disc == 0) != (cov == 0):
                counterexamples.append((side, point, disc, cov))
            checked += 1
    return (checked, tuple(counterexamples))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_branch_locus_report_matches_per_point_reference(p):
    rng = Random(7000 + p)
    outcomes = set()
    for trial in range(12):
        density = (1.0, 0.5, 0.25)[trial % 3]
        terms = {m: rng.randrange(p) for m in _MONOMIALS_22 if rng.random() < density}
        cls = canonicalize(MultiPoly(GF(p), VARS_BIQUAD, terms))
        if cls.is_zero():
            continue
        expected = _reference_branch_locus(cls, p)
        try:
            report = branch_locus_report(cls)
        except DegeneratePointError as exc:
            assert expected == ("degenerate", exc.side, exc.point)
            outcomes.add("degenerate")
            continue
        assert (report.points_checked, report.counterexamples) == expected
        outcomes.add("report")
    assert outcomes == {"degenerate", "report"}


@pytest.mark.parametrize("p", [3, 7, 13, 1031, 2**61 - 1])
def test_line_values_match_pointwise_evaluation(p):
    # integer coefficients beyond [0, p), and term sets free of t, included;
    # each list alone and all six in the slots of one packed value.  Fields
    # are over 32 bits at p = 1031, and wider than any array typecode at
    # 2^61 - 1, where t runs over a sample of F_p
    rng = Random(7200 + p % 100_003)
    ts = range(p) if p < 2000 else tuple(rng.randrange(p) for _ in range(40))
    polys = []
    for degree in (0, 2, 6):
        monos = [(a, b, degree - a - b) for a in range(degree + 1) for b in range(degree + 1 - a)]
        for no_t in (False, True):
            polys.append([(e, rng.randint(-3 * p, 3 * p)) for e in monos
                          if rng.random() < 0.6 and not (no_t and e[2])])
    lines = [(x, y, ts) for x, y in ((1, rng.randrange(p)), (0, 1), (0, 0), (2, 3))]
    size, code = biquadratic._field_bytes(p, max(len(terms) for terms in polys))
    assert (size > 4, code is None) == (p > 13, p > 2000)
    for group in [[terms] for terms in polys] + [polys]:
        for x, y, line_ts, values in biquadratic._values_on_lines(group, lines, p):
            assert line_ts is ts and len(values) == len(ts) * len(group)
            for j, terms in enumerate(group):
                got = values[j :: len(group)]
                expected = [_reference_eval_fp(terms, (x, y, t), p) for t in ts]
                assert [v % p for v in got] == expected
                assert all(v < max(len(terms), 1) * p**3 for v in got)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_restricted_disc_closed_form_matches_line_vectors(p):
    # counterexample reports carry the discriminant value itself, so the
    # closed form must agree with the explicit one value for value
    rng = Random(7100 + p)
    for _ in range(6):
        m = [[0] * 3 for _ in range(3)]
        for i in range(3):
            for j in range(i, 3):
                m[i][j] = m[j][i] = rng.randrange(p) if rng.random() < 0.7 else 0
        for point in projective_points_prime(p):
            expected = _reference_restricted_disc(m, point, p)
            assert biquadratic._restricted_disc(m, point, p) == expected


@pytest.mark.parametrize("p", [5, 7, 13])
def test_branch_locus_report_builds_grams_once_per_side(rng, monkeypatch, p):
    calls = []
    original = biquadratic.gram_matrices

    def counting(f):
        calls.append(f)
        return original(f)

    monkeypatch.setattr(biquadratic, "gram_matrices", counting)
    while True:
        cls = canonicalize(random_form22(GF(p), rng, 10))
        try:
            branch_locus_report(cls)
        except (DegeneratePointError, ZeroInputError):
            calls.clear()
            continue
        break
    assert len(calls) == 1


@pytest.mark.parametrize("p", [5, 7, 11])
def test_scans_build_one_gram_pair_and_no_public_covariant(rng, monkeypatch, p):
    # one gram_matrices call per class covers every scan, both ternary
    # covariants and a per-point tangency loop, in whichever order they run
    calls = []
    original = biquadratic.gram_matrices

    def counting(f):
        calls.append(f)
        return original(f)

    def forbidden(f):
        raise AssertionError("scans derive the covariant from their Gram pair")

    monkeypatch.setattr(biquadratic, "gram_matrices", counting)
    monkeypatch.setattr(biquadratic, "sextic_covariant_x", forbidden)
    monkeypatch.setattr(biquadratic, "sextic_covariant_z", forbidden)

    def report(c):
        try:
            out = branch_locus_report(c)
        except DegeneratePointError as exc:
            return ("degenerate", exc.side, exc.point)
        return (out.points_checked, out.counterexamples)

    uses = {
        "report": report,
        "generic": lambda c: is_generic_mod_p(c, p),
        "degenerate": degenerate_points,
        "covariant_x": covariant_x_ternary,
        "covariant_z": covariant_z_ternary,
        "tangency_loop": lambda c: _pointwise_branch_locus(c, p),
    }
    for trial in range(4):
        density = 0.3 if trial % 2 else 1.0
        terms = {m: rng.randrange(p) for m in _MONOMIALS_22 if rng.random() < density}
        cls = canonicalize(MultiPoly(GF(p), VARS_BIQUAD, terms))
        if cls.is_zero():
            continue
        calls.clear()
        outcomes = {}
        for name in rng.sample(sorted(uses), len(uses)):
            try:
                outcomes[name] = uses[name](cls)
            except TriformsError:
                pass  # a refusal still builds the pair once
        assert len(calls) == 1
        assert outcomes["tangency_loop"] == outcomes["report"]


def _record_uses(dom):
    """Every reader of a class's record, by name, for a class over dom."""
    uses = {
        "gram": gram_matrices,
        "covariant_x": covariant_x_ternary,
        "covariant_z": covariant_z_ternary,
    }
    if dom == ZZ:
        uses["generic"] = lambda c: is_generic_mod_p(c, 11)
        uses["degenerate"] = lambda c: degenerate_points(c, 11)
    elif dom != QQ:
        p = dom.p
        points = list(projective_points_prime(p))[-12:]
        uses["generic"] = lambda c: is_generic_mod_p(c, p)
        uses["report"] = branch_locus_report
        uses["degenerate"] = degenerate_points
        uses["tangency"] = lambda c: [
            tangency_test(c, point, side) for side in "xz" for point in points
        ]
    return uses


def _outcome(use, cls):
    try:
        return use(cls)
    except TriformsError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("dom", [GF(5), GF(7), GF(11), GF(13), ZZ, QQ], ids=str)
def test_record_matches_a_fresh_class_in_any_order(rng, dom):
    uses = _record_uses(dom)
    for trial in range(2):
        density = 0.3 if trial else 1.0
        dense = random_form22(dom, rng).terms
        terms = {m: c for m, c in dense.items() if rng.random() < density}
        cls = canonicalize(MultiPoly(dom, VARS_BIQUAD, terms))
        for name in rng.sample(sorted(uses), len(uses)):
            assert _outcome(uses[name], cls) == _outcome(uses[name], Class22(cls.rep)), name
        assert cls._record is not None
        # and the record holds what the raw representative gives
        for name in ("gram", "covariant_x", "covariant_z"):
            assert _outcome(uses[name], cls) == _outcome(uses[name], cls.rep), name
        fresh = Class22(cls.rep)
        assert cls == fresh and hash(cls) == hash(fresh)
        assert repr(cls) == repr(fresh) == f"Class22({cls.rep!r})"
        for slot in ("rep", "_record"):
            with pytest.raises(AttributeError):
                setattr(cls, slot, None)


def test_class_slots_cannot_be_deleted():
    cls = canonicalize(diagonal_22_same())
    gram_matrices(cls)  # fills the record
    for slot in ("rep", "_record", "domain"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(cls, slot)
    assert cls.rep == canonicalize(diagonal_22_same()).rep and cls._record is not None


# -- genericity -------------------------------------------------------------------


def test_generic_rejects_degenerate_diagonal():
    assert not is_generic_mod_p(canonicalize(diagonal_22_same()), 11)


def test_generic_rejects_zero_and_char2():
    assert not is_generic_mod_p(canonicalize(MultiPoly.zero(ZZ, VARS_BIQUAD)), 11)
    with pytest.raises(PrimeError):
        is_generic_mod_p(canonicalize(diagonal_22_same()), 2)


@pytest.mark.parametrize(
    "text",
    # a class with nonzero sextic covariants, and one whose sextics vanish
    ["x1^2*z2^2 + x2^2*z3^2 + x3^2*z1^2 + x1*x2*z1*z3", "x1^2*z1^2"],
)
def test_prime_field_class_refused_at_another_prime(text):
    cls = canonicalize(parse_poly(text).reduce_mod_p(5))
    for scan in (is_generic_mod_p, degenerate_points):
        with pytest.raises(DomainMismatchError, match="GF\\(5\\).*13"):
            scan(cls, 13)
    assert is_generic_mod_p(cls, 5) is False  # its own prime still answers


def test_generic_rejects_singular_covariant(rng):
    # the cycle class has smooth-looking structure but its covariant
    # x1^4 x2^2 + ... is singular at coordinate points
    assert not is_generic_mod_p(canonicalize(diagonal_22_cycle()), 11)


def test_generic_class_passes_branch_check(rng):
    found = 0
    while found < 2:
        f = random_form22(ZZ, rng, 5)
        if not is_generic_mod_p(canonicalize(f), 11):
            continue
        report = branch_locus_report(canonicalize(f.reduce_mod_p(11)))
        assert report.consistent
        found += 1


def test_degenerate_points_found_for_special_class():
    pts = degenerate_points(canonicalize(diagonal_22_same().reduce_mod_p(7)))
    assert pts["x"] and pts["z"]


def _degenerate_points_brute_force(cls, p):
    """Every point of P^2(F_{p^2}) whose fiber conic contains its whole line.

    All nine Gram entries are evaluated; the line a.w = 0 is spanned by the
    cross products of a with the unit vectors, and the conic contains it
    exactly when its quadratic form vanishes on each of them and on their
    pairwise sums (odd characteristic).
    """
    ext = QuadExtension(p)
    zero = ext.zero()
    grams = gram_matrices(cls)
    out = {}
    for side, block, gram in (("x", X_BLOCK, grams.in_z), ("z", Z_BLOCK, grams.in_x)):
        entries = [[list(gram[i][j].restrict_to_vars(block).terms.items()) for j in range(3)]
                   for i in range(3)]

        def qform(m, w):
            acc = zero
            for i in range(3):
                for j in range(3):
                    acc = ext.add(acc, ext.mul(ext.mul(w[i], m[i][j]), w[j]))
            return acc

        found = []
        for a in projective_points_ext(ext):
            m = [[evaluate_terms_ext(entries[i][j], a, ext) for j in range(3)] for i in range(3)]
            spans = []
            for k in range(3):
                e = [zero] * 3
                e[k] = ext.one()
                # a x e_k, orthogonal to a under the plain dot product
                spans.append([
                    ext.add(ext.mul(a[1], e[2]), ext.neg(ext.mul(a[2], e[1]))),
                    ext.add(ext.mul(a[2], e[0]), ext.neg(ext.mul(a[0], e[2]))),
                    ext.add(ext.mul(a[0], e[1]), ext.neg(ext.mul(a[1], e[0]))),
                ])
            sums = [[ext.add(u[i], v[i]) for i in range(3)] for u in spans for v in spans]
            if all(qform(m, w) == zero for w in spans + sums):
                found.append(a)
        out[side] = found
    return out


@pytest.mark.parametrize("p", [3, 5])
def test_degenerate_points_match_brute_force(rng, p):
    nonempty = checked = 0
    candidate = canonicalize(diagonal_22_same().reduce_mod_p(p))
    while checked < 5:
        cls, candidate = candidate, None
        if cls is None:
            terms = {m: rng.randrange(p) for m in _MONOMIALS_22 if rng.random() < 0.3}
            cls = canonicalize(MultiPoly(GF(p), VARS_BIQUAD, terms))
        if covariant_x_ternary(cls).is_zero() or covariant_z_ternary(cls).is_zero():
            continue
        checked += 1
        pts = degenerate_points(cls)
        assert pts == _degenerate_points_brute_force(cls, p)
        nonempty += bool(pts["x"] or pts["z"])
    assert nonempty >= 1


# the x1^2 * z^b monomials with b off z1: zeroing them makes f(e1, z)
# divisible by z1, so the fiber over x = e1 contains its line z1 = 0
_OFF_LINE_AT_E1 = [m for m in _MONOMIALS_22 if m[0] == 2 and m[3] == 0]


def _lemma_classes(p, rng):
    """Seeded GF(p) classes: dense, sparse, and degenerate over x = e1."""
    for kind in ("dense", "sparse", "forced"):
        for _ in range(4):
            density = 0.25 if kind == "sparse" else 1.0
            terms = {m: rng.randrange(p) for m in _MONOMIALS_22 if rng.random() < density}
            if kind == "forced":
                for m in _OFF_LINE_AT_E1:
                    terms.pop(m, None)
            yield kind, canonicalize(MultiPoly(GF(p), VARS_BIQUAD, terms))


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_degenerate_points_are_singular_points_of_the_sextic(p):
    # the lemma behind is_generic_mod_p: a degenerate fiber point is a
    # singular point of its side's sextic, so smooth sextics leave none
    rng = Random(6000 + p)
    degenerate_classes = 0
    for kind, cls in _lemma_classes(p, rng):
        sextics = {s.name: s.sextic for s in biquadratic._derived(cls).sides}
        if any(sextic.is_zero() for sextic in sextics.values()):
            continue
        points = degenerate_points(cls)
        for side, found in points.items():
            if found:
                assert set(found) <= set(singular_points_fp2(sextics[side], p))
        if kind == "forced":
            assert ((1, 0), (0, 0), (0, 0)) in points["x"]
        if points["x"] or points["z"]:
            degenerate_classes += 1
            assert is_generic_mod_p(cls, p) is False
    assert degenerate_classes >= 4


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_generic_never_scans_fibers(monkeypatch, p):
    def forbidden(*args, **kwargs):
        raise AssertionError("is_generic_mod_p scanned a fiber or a zero set")

    # smoothness is a rank certificate, so no point is scanned on any path
    classes = list(_lemma_classes(p, Random(6100 + p)))
    monkeypatch.setattr(biquadratic, "ternary_zeros_ext", forbidden)
    monkeypatch.setattr(biquadratic, "_degenerate_scan_side", forbidden)
    monkeypatch.setattr(biquadratic, "QuadExtension", forbidden)
    verdicts = [is_generic_mod_p(cls, p) for _, cls in classes]
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("p", [5, 7])
def test_scan_sides_match_public_covariants_and_evaluation(rng, p):
    for _ in range(3):
        cls = canonicalize(random_form22(GF(p), rng, 10))
        sides = biquadratic._derived(cls).sides
        assert [s.name for s in sides] == ["x", "z"]
        # the record against the raw representative's covariants and Gram pair
        assert sides[0].sextic == covariant_x_ternary(cls.rep)
        assert sides[1].sextic == covariant_z_ternary(cls.rep)
        grams = gram_matrices(cls.rep)
        assert gram_matrices(cls) == grams
        for s, gram, block in zip(sides, (grams.in_z, grams.in_x), (X_BLOCK, Z_BLOCK)):
            assert (s.block, s.gram) == (block, gram)
            gram_terms, sextic = s.terms, s.sextic
            sextic_terms = list(sextic.terms.items())
            for point in projective_points_prime(5):
                assert biquadratic._eval_fp(sextic_terms, point, p) == sextic.evaluate(point)
                for i in range(3):
                    for j in range(3):
                        entry = gram[i][j].restrict_to_vars(block)
                        value = biquadratic._eval_fp(gram_terms[i][j], point, p)
                        assert value == entry.evaluate(point)


def test_generic_at_3_answers(rng):
    # the raw discriminant of a sextic vanishes identically mod 3, and the
    # rank certificate, with the sextic among its generators, answers anyway
    verdicts = set()
    for dom in (GF(3), ZZ):
        for _ in range(8):
            cls = canonicalize(random_form22(dom, rng, 5))
            generic = is_generic_mod_p(cls, 3)
            if generic:
                for s in biquadratic._derived(biquadratic._reduced(cls, 3)).sides:
                    assert singular_points_fp2(s.sextic, 3) == []
            verdicts.add(generic)
    assert verdicts == {True, False}
