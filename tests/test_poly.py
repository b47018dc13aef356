"""Polynomial substrate: arithmetic laws, calculus, parsing, domain moves."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triforms.domains import GF, QQ, ZZ, PrimeField
from triforms.errors import (
    DomainMismatchError,
    ExponentOverflowError,
    ParseError,
    VariableSetError,
    ZeroInputError,
)
from triforms.poly import (
    VARS_XYZ,
    MultiPoly,
    euler_contraction,
    parse_poly,
    poly_from_json,
)
from triforms.suites import random_form

DOMAINS = (ZZ, QQ, GF(7), GF(10007))


def var(dom, name):
    return MultiPoly.variable(dom, VARS_XYZ, name)


def test_cancellation():
    x, y = var(ZZ, "x"), var(ZZ, "y")
    assert (x + y) + (-x) == y


def test_difference_of_squares():
    x, y = var(ZZ, "x"), var(ZZ, "y")
    assert (x + y) * (x - y) == x * x - y * y


def test_zero_absorbs():
    f = parse_poly("3*x^2 - y*z")
    zero = MultiPoly.zero(ZZ, VARS_XYZ)
    assert zero * f == zero


def test_slots_cannot_be_deleted():
    f = parse_poly("3*x^2 - y*z")
    for slot in ("terms", "vars", "domain"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(f, slot)
    assert f == parse_poly("3*x^2 - y*z")


@pytest.mark.parametrize("dom", DOMAINS, ids=lambda d: d.name)
def test_ring_axioms_random(dom, rng):
    for _ in range(40):
        f = random_form(dom, rng, rng.randint(1, 3), 5)
        g = random_form(dom, rng, rng.randint(1, 3), 5)
        h = random_form(dom, rng, rng.randint(1, 3), 5)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_product_degree_additive(rng):
    for _ in range(20):
        f = random_form(ZZ, rng, rng.randint(1, 4), 5)
        g = random_form(ZZ, rng, rng.randint(1, 4), 5)
        assert (f * g).total_degree() == f.total_degree() + g.total_degree()


def test_domain_mixing_rejected():
    f = parse_poly("x + y", domain=ZZ)
    g = parse_poly("x + y", domain=QQ)
    with pytest.raises(DomainMismatchError):
        f + g
    with pytest.raises(DomainMismatchError):
        f * g


def test_variable_set_mismatch_rejected():
    f = parse_poly("x + y")
    g = parse_poly("x1*z1 + x2*z2", variables=("x1", "x2", "x3", "z1", "z2", "z3"))
    with pytest.raises(VariableSetError):
        f + g


# -- derivatives --------------------------------------------------------------


def test_power_rule():
    assert parse_poly("x^2").partial_derivative("x") == parse_poly("2*x")


def test_derivative_of_constant_in_x():
    assert parse_poly("y^3").partial_derivative("x").is_zero()


def test_euler_identity_cubic():
    f = parse_poly("x^3 + y^3 + z^3")
    assert euler_contraction(f) == f.scale(3)


def test_euler_identity_random_rationals(rng):
    for _ in range(100):
        n = rng.randint(1, 5)
        f = random_form(QQ, rng, n, 9)
        assert euler_contraction(f) == f.scale(Fraction(n))


# -- substitution --------------------------------------------------------------


def test_substitution_identity():
    f = parse_poly("x")
    assert f.substitute_linear(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == f


def test_substitution_swap():
    f = parse_poly("x")
    swapped = f.substitute_linear(((0, 1, 0), (1, 0, 0), (0, 0, 1)))
    assert swapped == parse_poly("y")


def test_substitution_all_ones():
    f = parse_poly("x + y + z")
    image = f.substitute_linear(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
    assert image == f.scale(3)


def test_substitution_composes_with_matrix_product(rng):
    # substituting by m1 and then by m2 equals substituting by m2 . m1:
    # the later substitution acts on the inside of f(v . m1)
    dom = GF(101)
    for _ in range(100):
        f = random_form(dom, rng, rng.randint(1, 3), 50)
        m1 = [[rng.randrange(101) for _ in range(3)] for _ in range(3)]
        m2 = [[rng.randrange(101) for _ in range(3)] for _ in range(3)]
        prod = [
            [sum(m2[i][k] * m1[k][j] for k in range(3)) % 101 for j in range(3)]
            for i in range(3)
        ]
        assert f.substitute_linear(prod) == f.substitute_linear(m1).substitute_linear(m2)


def test_substitution_preserves_homogeneous_degree(rng):
    f = random_form(ZZ, rng, 4, 5)
    g = f.substitute_linear(((1, 2, 0), (0, 1, 1), (3, 0, 1)))
    assert g.is_zero() or g.homogeneous_degree() == 4


# -- content and reduction -------------------------------------------------------


def test_content_gcd_extraction():
    c, g = parse_poly("6*x + 9*y").content_and_primitive()
    assert c == 3 and g == parse_poly("2*x + 3*y")


def test_content_sign_convention():
    c, g = parse_poly("-2*x").content_and_primitive()
    assert c == -2 and g == parse_poly("x")


def test_content_fixed_point():
    f = parse_poly("2*x + 3*y - z")
    c, g = f.content_and_primitive()
    assert c == 1 and g == f


def test_content_of_zero_rejected():
    with pytest.raises(ZeroInputError):
        MultiPoly.zero(ZZ, VARS_XYZ).content_and_primitive()


def test_reduce_mod_p_kills_coefficients():
    assert parse_poly("5*x + 3*y").reduce_mod_p(5) == parse_poly("3*y").reduce_mod_p(5)


def test_reduce_mod_p_idempotent_values(rng):
    f = random_form(ZZ, rng, 3, 50)
    g = f.reduce_mod_p(7)
    again = MultiPoly(ZZ, g.vars, dict(g.terms)).reduce_mod_p(7)
    assert g == again


def test_fermat_quartic_mod_2_is_fourth_power():
    lhs = parse_poly("x^4 + y^4 + z^4").reduce_mod_p(2)
    rhs = (parse_poly("x + y + z").reduce_mod_p(2)) ** 4
    assert lhs == rhs


def test_reduction_is_ring_homomorphism(rng):
    for p in (2, 5, 11):
        for _ in range(25):
            f = random_form(ZZ, rng, rng.randint(1, 3), 20)
            g = random_form(ZZ, rng, rng.randint(1, 3), 20)
            assert (f * g).reduce_mod_p(p) == f.reduce_mod_p(p) * g.reduce_mod_p(p)
            assert (f + g).reduce_mod_p(p) == f.reduce_mod_p(p) + g.reduce_mod_p(p)


# -- parsing and printing ---------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
            st.fractions(min_value=-50, max_value=50),
        ),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=100, deadline=None)
def test_text_roundtrip(term_list):
    f = MultiPoly.zero(QQ, VARS_XYZ)
    for exps, coeff in term_list:
        f = f + MultiPoly(QQ, VARS_XYZ, {exps: coeff})
    if f.is_zero():
        return
    assert parse_poly(str(f), domain=QQ) == f


def test_json_roundtrip():
    f = parse_poly("3*x1^2*z2^2 - 1/2*x1*x2*z1*z3")
    assert poly_from_json(f.to_json_dict()) == f
    g = parse_poly("x^2 - 7*y*z").reduce_mod_p(11)
    assert poly_from_json(g.to_json_dict()) == g


def test_parse_rejects_garbage():
    for bad in ("", "x +", "x^^2", "x**", "3//2*x", "w^2", "x1 + y"):
        with pytest.raises(ParseError):
            parse_poly(bad)


def test_parse_infers_alphabets():
    assert parse_poly("x + y").vars == VARS_XYZ
    assert parse_poly("x1*z3").vars == ("x1", "x2", "x3", "z1", "z2", "z3")


def test_graded_lex_printing_deterministic():
    f = parse_poly("z^2 + x*y + x^2 + y^2 + x*z")
    assert str(f) == "x^2 + x*y + x*z + y^2 + z^2"


def test_exponent_overflow_is_hard_error():
    from triforms.poly import MAX_EXPONENT

    with pytest.raises(ExponentOverflowError):
        MultiPoly(ZZ, VARS_XYZ, {(MAX_EXPONENT + 1, 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        MultiPoly(ZZ, VARS_XYZ, {(-1, 0, 0): 1})


# -- closed operations stay canonical ----------------------------------------------
# Closed operations skip the constructor's checks; these tests pin the
# contract that makes that safe.

CLOSED_DOMAINS = (ZZ, QQ, GF(2), GF(3), GF(101))


@st.composite
def small_polys(draw, dom):
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, st.integers(-20, 20), max_size=6))
    if dom == QQ:
        terms = {e: Fraction(c, draw(st.integers(1, 3))) for e, c in terms.items()}
    return MultiPoly(dom, VARS_XYZ, terms)


def assert_canonical(r):
    dom = r.domain
    assert r == MultiPoly(dom, r.vars, r.terms)
    for e, c in r.terms.items():
        assert type(e) is tuple and len(e) == len(r.vars)
        assert c != 0
        assert type(c) is (Fraction if dom == QQ else int)
        if isinstance(dom, PrimeField):
            assert 0 <= c < dom.p


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_closed_operations_give_canonical_results(data):
    dom = data.draw(st.sampled_from(CLOSED_DOMAINS), label="domain")
    f, g = data.draw(small_polys(dom)), data.draw(small_polys(dom))
    scalar = data.draw(st.integers(-5, 5))
    power = data.draw(st.integers(0, 3))
    row = st.lists(st.integers(-3, 3), min_size=3, max_size=3)
    matrix = data.draw(st.lists(row, min_size=3, max_size=3))
    zero = MultiPoly.zero(dom, VARS_XYZ)
    flat = MultiPoly(dom, VARS_XYZ, {e: c for e, c in f.terms.items() if e[2] == 0})
    results = [
        f + g, f - g, f * g, -f, f.scale(scalar), f**power,
        f - f, f + (-f), f * zero, zero * f, f.scale(0),
        *(f.partial_derivative(v) for v in VARS_XYZ),
        f.substitute_linear(matrix),
        flat.restrict_to_vars(("x", "y")), flat.restrict_to_vars(("y", "x")),
    ]
    if dom == ZZ:
        results += [f.to_rationals(), f.to_rationals().to_integers()]
        if f:
            results.append(f.content_and_primitive()[1])
    for r in results:
        assert_canonical(r)
    assert (f - f).is_zero() and (f * zero).is_zero() and f.scale(0).is_zero()


def test_closed_operations_keep_the_constructor_errors():
    big = MultiPoly(ZZ, VARS_XYZ, {(600000, 0, 0): 1})
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ExponentOverflowError):
        big**2
    with pytest.raises(VariableSetError):
        big.restrict_to_vars(("x", "x"))
