"""Cubic invariants, the kappa relation, and weighted tuple logic."""

import time
from fractions import Fraction
from math import gcd

import pytest

from triforms.cubic import (
    KAPPA,
    InvariantTuple,
    cubic_I,
    cubic_J,
    delta_from_invariants,
    scale_tuple,
    tuple_is_primitive_outside,
    _integralize,
    tuple_of_cubic,
    tuples_equivalent,
)
from triforms.domains import GF, QQ, ZZ
from triforms.elimination import resultant_of_partials
from triforms.errors import (
    BudgetExceededError,
    DegreeError,
    VariableSetError,
    ZeroInputError,
)
from triforms.intutil import is_prime
from triforms.fixtures import fermat, weierstrass_cubic
from triforms.matrices import Mat3, act_ternary
from triforms.poly import MultiPoly, VARS_XYZ
from triforms.suites import random_form, random_invertible

from conftest import rand_sl3


def hesse(m: int) -> MultiPoly:
    return MultiPoly(
        ZZ, VARS_XYZ, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1, (1, 1, 1): 6 * m}
    )


# -- frozen fixtures and classical anchors ----------------------------------------


def test_fermat_cubic_values_frozen():
    f = fermat(3)
    assert cubic_I(f) == 0
    assert cubic_J(f) == -11664


def test_weierstrass_anchor():
    # y^2 z - x^3 - A x z^2 - B z^3 carries I = -48 A, J = 1728 B
    for a, b in ((1, 0), (0, 1), (2, 3), (-1, 5)):
        w = weierstrass_cubic(a, b)
        assert cubic_I(w) == -48 * a
        assert cubic_J(w) == 1728 * b


@pytest.mark.parametrize("dom", [ZZ, QQ, GF(5), GF(7), GF(101)], ids=str)
def test_kappa_relation_and_weierstrass_anchor_in_every_domain(dom, rng):
    for _ in range(15):
        f = random_form(dom, rng, 3, 9)
        i, j = cubic_I(f), cubic_J(f)
        gap = 4 * i**3 - j**2 - int(KAPPA) * resultant_of_partials(f)
        assert gap == 0 if dom in (ZZ, QQ) else gap % dom.p == 0
    for a, b in ((1, 0), (0, 1), (2, 3), (-1, 5)):
        w = weierstrass_cubic(a, b, dom)
        assert cubic_I(w) == dom.from_int(-48 * a)
        assert cubic_J(w) == dom.from_int(1728 * b)


def test_integer_invariants_equal_rational_ones(rng):
    # an integer cubic is evaluated in integers, and its invariants match
    # those of the same cubic over QQ in value, type and text
    for bound in (1, 9, 1000):
        for _ in range(10):
            f = random_form(ZZ, rng, 3, bound)
            for invariant in (cubic_I, cubic_J):
                got, expected = invariant(f), invariant(f.to_rationals())
                assert (got, type(got), str(got)) == (expected, type(expected), str(expected))


def test_hesse_family_vanishing_locus():
    # the degree-4 invariant vanishes on the Fermat and m = 1 members only
    # (vanishing loci are normalization independent)
    assert cubic_I(hesse(0)) == 0
    assert cubic_I(hesse(1)) == 0
    assert cubic_I(hesse(2)) != 0
    assert cubic_J(hesse(0)) != 0


def test_hesse_family_proportionality():
    # frozen ratio against the classical closed forms on the Hesse pencil
    for m in (2, 3, 4, 5):
        assert cubic_I(hesse(m)) == -1296 * (m - m**4)
        assert cubic_J(hesse(m)) == -11664 * (1 - 20 * m**3 - 8 * m**6)


def test_wrong_degree_rejected():
    with pytest.raises(DegreeError):
        cubic_I(fermat(4))


# -- invariance and covariance ------------------------------------------------------


def test_homogeneity_weights(rng):
    for _ in range(10):
        f = random_form(ZZ, rng, 3, 7)
        c = rng.choice((-3, -2, 2, 5))
        assert cubic_I(f.scale(c)) == c**4 * cubic_I(f)
        assert cubic_J(f.scale(c)) == c**6 * cubic_J(f)


def test_sl3_invariance_over_prime_field(rng):
    dom = GF(1009)
    for _ in range(100):
        f = random_form(dom, rng, 3, 1008)
        gamma = rand_sl3(dom, rng, 500)
        assert dom.is_zero(dom.sub(cubic_I(act_ternary(gamma, f)), cubic_I(f)))
        assert dom.is_zero(dom.sub(cubic_J(act_ternary(gamma, f)), cubic_J(f)))


def test_sl3_invariance_over_rationals(rng):
    for _ in range(20):
        f = random_form(QQ, rng, 3, 6)
        gamma = rand_sl3(QQ, rng, 3)
        assert cubic_I(act_ternary(gamma, f)) == cubic_I(f)
        assert cubic_J(act_ternary(gamma, f)) == cubic_J(f)


def test_gl3_covariance_weights(rng):
    for _ in range(20):
        f = random_form(ZZ, rng, 3, 5)
        gamma = random_invertible(ZZ, rng, 3)
        d = gamma.det()
        assert cubic_I(act_ternary(gamma, f)) == Fraction(d) ** 4 * cubic_I(f)
        assert cubic_J(act_ternary(gamma, f)) == Fraction(d) ** 6 * cubic_J(f)


def test_kappa_stability(rng):
    kappa = None
    for _ in range(60):
        f = random_form(ZZ, rng, 3, 7)
        raw = resultant_of_partials(f)
        lhs = 4 * cubic_I(f) ** 3 - cubic_J(f) ** 2
        if raw == 0:
            assert lhs == 0
            continue
        if kappa is None:
            kappa = Fraction(lhs, raw)
        assert lhs == kappa * raw
    assert kappa == KAPPA == -256


def test_center_scaling_matches_weighted_tuple_action(rng):
    for u in (-1, 2, 3):
        f = random_form(ZZ, rng, 3, 5)
        scaled = act_ternary(Mat3.scalar(ZZ, u), f)
        expected = scale_tuple(Fraction(u) ** 3, tuple_of_cubic(f))
        assert tuple_of_cubic(scaled).values == expected.values
        assert tuple_of_cubic(scaled).values == (
            u**12 * cubic_I(f),
            u**18 * cubic_J(f),
        )
        assert resultant_of_partials(scaled) == u**36 * resultant_of_partials(f)


# -- the discriminant in invariant coordinates --------------------------------------


def test_delta_from_invariants_arithmetic():
    assert delta_from_invariants(0, 0) == 0
    assert delta_from_invariants(3, 6) == Fraction(8, 3)


def test_delta_from_invariants_vanishes_exactly_on_singular(rng):
    for _ in range(30):
        f = random_form(ZZ, rng, 3, 6)
        raw = resultant_of_partials(f)
        value = delta_from_invariants(cubic_I(f), cubic_J(f))
        assert (value == 0) == (raw == 0)


# -- weighted tuples -------------------------------------------------------------------


def test_scale_tuple_examples():
    t = InvariantTuple((1, 1), (4, 6))
    assert scale_tuple(1, t) == t
    assert scale_tuple(2, t).values == (16, 64)


def test_scale_tuple_composition(rng):
    for _ in range(20):
        t = InvariantTuple((rng.randint(-9, 9), rng.randint(-9, 9)), (4, 6))
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        mu = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        assert scale_tuple(lam * mu, t) == scale_tuple(lam, scale_tuple(mu, t))


def test_scale_by_zero_rejected():
    with pytest.raises(ZeroInputError):
        scale_tuple(0, InvariantTuple((1, 1), (4, 6)))


def test_primitive_outside_examples():
    assert tuple_is_primitive_outside(InvariantTuple((3, 5), (4, 6)), set())
    assert tuple_is_primitive_outside(InvariantTuple((4, 8), (4, 6)), {2})
    assert not tuple_is_primitive_outside(InvariantTuple((4, 8), (4, 6)), set())
    # (0, 7): at p = 7 both entries have positive valuation
    assert not tuple_is_primitive_outside(InvariantTuple((0, 7), (4, 6)), set())
    assert tuple_is_primitive_outside(InvariantTuple((0, 7), (4, 6)), {7})


def test_primitive_outside_matches_gcd_characterization(rng):
    from math import gcd

    from triforms.intutil import strip_primes

    for _ in range(100):
        values = (rng.randint(-40, 40), rng.randint(-40, 40))
        if values == (0, 0):
            continue
        s = set(rng.sample((2, 3, 5, 7, 11), rng.randint(0, 3)))
        t = InvariantTuple(values, (4, 6))
        expected = strip_primes(gcd(values[0], values[1]), s) == 1
        assert tuple_is_primitive_outside(t, s) == expected


def test_primitive_outside_clears_denominators():
    # scaling by the weighted action does not change the verdict
    t = InvariantTuple((Fraction(3, 16), Fraction(5, 64)), (4, 6))
    assert tuple_is_primitive_outside(t, set()) == tuple_is_primitive_outside(
        scale_tuple(2, t), set()
    )


def _integralize_by_full_trial_division(t: InvariantTuple):
    """Denominators cleared by trial division up to their square root."""
    lam = 1
    for v, w in zip(t.values, t.weights):
        k, d, q = 1, v.denominator, 2
        while q * q <= d:
            e = 0
            while d % q == 0:
                d //= q
                e += 1
            k *= q ** -(-e // w)
            q += 1
        k *= d
        lam = lam * k // gcd(lam, k)
    return tuple((Fraction(lam) ** w * v).numerator for v, w in zip(t.values, t.weights))


def test_integralize_matches_full_trial_division(rng):
    dens = [rng.randrange(1, 10**6) for _ in range(40)]
    dens += [1000003 * rng.randrange(1, 1000), 999983**2, 2**39, 3**25, 1000003 * 1013]
    for d in dens:
        t = InvariantTuple((Fraction(rng.randint(1, 50), d), Fraction(1, d * 7)), (4, 6))
        assert _integralize(t) == _integralize_by_full_trial_division(t)


def _timed_primitivity(den, s_primes):
    start = time.perf_counter()
    try:
        return tuple_is_primitive_outside(InvariantTuple((Fraction(1, den), 1), (4, 6)), s_primes)
    finally:
        assert time.perf_counter() - start < 1.0


def test_integralize_large_prime_denominator():
    den = next(n for n in range(10**24 + 1, 10**24 + 10**4, 2) if is_prime(n))
    assert len(str(den)) == 25
    # clearing 1/den by lam = den leaves (den^3, den^6)
    assert _timed_primitivity(den, {den}) is True
    assert _timed_primitivity(den, set()) is False


def test_integralize_smooth_denominator():
    assert _timed_primitivity(2**100 * 3, {2, 3}) is True
    assert _timed_primitivity(2**100 * 3, {2}) is False


def test_integralize_refuses_beyond_budget():
    p1, p2 = 1000003, 1000033
    assert is_prime(p1) and is_prime(p2)
    with pytest.raises(BudgetExceededError) as info:
        _timed_primitivity(p1 * p2, set())
    assert info.value.kind == "budget"


def test_zero_tuple_rejected():
    with pytest.raises(ZeroInputError):
        tuple_is_primitive_outside(InvariantTuple((0, 0), (4, 6)), set())
    with pytest.raises(ZeroInputError):
        tuples_equivalent(
            InvariantTuple((0, 0), (4, 6)), InvariantTuple((1, 1), (4, 6))
        )


def test_tuples_equivalent_examples():
    t1 = InvariantTuple((1, 1), (4, 6))
    same = tuples_equivalent(t1, t1, set())
    assert same is not None and same.alpha_power_d == 1 and same.s_unit

    w = tuples_equivalent(t1, InvariantTuple((16, 64), (4, 6)), {2})
    assert w is not None
    assert set(w.alpha_candidates) == {2, -2}
    assert w.alpha_power_d == 4 and w.d == 2
    assert w.s_unit
    w_empty = tuples_equivalent(t1, InvariantTuple((16, 64), (4, 6)), set())
    assert w_empty is not None and not w_empty.s_unit

    assert tuples_equivalent(t1, InvariantTuple((16, 32), (4, 6)), set()) is None


def test_tuples_equivalent_with_huge_weights_builds_no_huge_power():
    # alpha = +-2 from the weight-4 anchor; 2**(10**18) is rejected by its
    # bit length before it is built, while (+-1)**(10**18) is cheap
    huge = (4, 10**18)
    t1 = InvariantTuple((1, 1), huge)
    assert tuples_equivalent(t1, InvariantTuple((16, 64), huge)) is None
    assert tuples_equivalent(t1, InvariantTuple((16, 1), huge)) is None
    w = tuples_equivalent(t1, InvariantTuple((1, 1), huge))
    assert w is not None and w.alpha_candidates == (-1, 1) and w.alpha_power_d == 1
    half = InvariantTuple((Fraction(1, 2), 0), huge)
    assert tuples_equivalent(half, InvariantTuple((8, 0), huge)) is not None
    assert tuples_equivalent(InvariantTuple((1, 3), huge), InvariantTuple((16, 0), huge)) is None


def test_tuples_equivalent_weight_mismatch():
    with pytest.raises(VariableSetError):
        tuples_equivalent(
            InvariantTuple((1, 1), (4, 6)), InvariantTuple((1, 1), (2, 3))
        )


def test_tuples_equivalence_relation_properties(rng):
    for _ in range(40):
        t1 = InvariantTuple(
            (rng.randint(-6, 6), rng.randint(-6, 6)), (4, 6)
        )
        if t1.is_zero():
            continue
        lam = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        t2 = scale_tuple(lam, t1)
        t3 = scale_tuple(Fraction(rng.randint(1, 4)), t2)
        # reflexive, constructed-symmetric, transitive
        assert tuples_equivalent(t1, t1) is not None
        w12 = tuples_equivalent(t1, t2)
        assert w12 is not None and lam in w12.alpha_candidates or w12 is not None
        if not t2.is_zero():
            w21 = tuples_equivalent(t2, t1)
            assert w21 is not None
            w13 = tuples_equivalent(t1, t3)
            assert w13 is not None


def test_invariants_consistent_under_reduction(rng):
    for p in (5, 1009):
        dom = GF(p)
        for _ in range(10):
            f = random_form(ZZ, rng, 3, 9)
            expect_i = int(cubic_I(f)) % p
            expect_j = int(cubic_J(f)) % p
            fbar = f.reduce_mod_p(p)
            assert cubic_I(fbar) == expect_i
            assert cubic_J(fbar) == expect_j
