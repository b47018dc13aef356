"""Acceptance criteria.

Each test drives one criterion at its stated tolerance (exact equality
throughout) and prints a pass line with the measured runtime against the
stated budget.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from triforms.biquadratic import (
    branch_locus_report,
    canonicalize,
    covariant_x_ternary,
    covariant_z_ternary,
    act_22,
    is_generic_mod_p,
    verify_well_defined,
)
from triforms.cubic import (
    KAPPA,
    InvariantTuple,
    cubic_I,
    cubic_J,
    tuple_is_primitive_outside,
    tuples_equivalent,
)
from triforms.domains import GF, QQ, ZZ
from triforms.elimination import bad_primes, is_smooth_mod_p, resultant_of_partials
from triforms.errors import DegeneratePointError, ZeroInputError
from triforms.fixtures import fermat
from triforms.intutil import is_prime, strip_primes
from triforms.lattice import (
    ALLOWED_A22,
    brute_force_box,
    enumerate_isometry_candidates,
    qform,
    pairing,
)
from triforms.matrices import Mat3, act_ternary
from triforms.suites import (
    random_bilinear,
    random_form,
    random_form22,
    random_invertible,
)


def _finish(number: int, label: str, start: float, budget: float):
    elapsed = time.time() - start
    print(f"[criterion {number:2d}] PASS  {label}  ({elapsed:.1f}s < {budget:.0f}s)")
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_criterion_01_discriminant_covariance():
    start = time.time()
    rng = Random(101)
    field = GF(10007)
    for n in (2, 3, 4):
        for _ in range(200):
            f = random_form(field, rng, n, 10006)
            gamma = random_invertible(field, rng, 10006)
            lhs = resultant_of_partials(act_ternary(gamma, f))
            rhs = field.mul(
                field.pow(gamma.det(), n * (n - 1) ** 2), resultant_of_partials(f)
            )
            assert lhs == rhs
        for _ in range(50):
            f = random_form(QQ, rng, n, 5)
            gamma = random_invertible(QQ, rng, 3)
            lhs = resultant_of_partials(act_ternary(gamma, f))
            rhs = gamma.det() ** (n * (n - 1) ** 2) * resultant_of_partials(f)
            assert lhs == rhs
    _finish(1, "disc covariance, n=2,3,4, 200xGF(10007) + 50xQQ each", start, 60)


def test_criterion_02_degree_homogeneity():
    start = time.time()
    rng = Random(102)
    for n in (2, 3, 4):
        for _ in range(50):
            f = random_form(ZZ, rng, n, 6)
            c = rng.choice((-5, -3, -2, 2, 3, 4, 5))
            assert resultant_of_partials(f.scale(c)) == c ** (
                3 * (n - 1) ** 2
            ) * resultant_of_partials(f)
    _finish(2, "raw discriminant degree 3(n-1)^2, 50 scalings per n", start, 10)


def test_criterion_03_fermat_quartic_reduction_profile():
    start = time.time()
    f = fermat(4)
    assert is_smooth_mod_p(f, 2) is False
    for p in filter(is_prime, range(3, 98)):
        assert is_smooth_mod_p(f, p) is True
    assert bad_primes(f, {2}) == (set(), 1)
    _finish(3, "x^4+y^4+z^4: singular at 2, smooth at odd p <= 97, S={2} clean", start, 30)


def test_criterion_04_cubic_kappa_stability():
    start = time.time()
    rng = Random(104)
    kappa = None
    checked = 0
    while checked < 100:
        f = random_form(ZZ, rng, 3, 9)
        raw = resultant_of_partials(f)
        lhs = 4 * cubic_I(f) ** 3 - cubic_J(f) ** 2
        if raw == 0:
            assert lhs == 0
            continue
        if kappa is None:
            kappa = Fraction(lhs, raw)
        assert lhs == kappa * raw
        checked += 1
    assert kappa == KAPPA
    _finish(4, f"4I^3 - J^2 = {kappa} * raw_disc on 100 integer cubics", start, 60)


def test_criterion_05_center_scaling():
    start = time.time()
    rng = Random(105)
    for _ in range(20):
        f = random_form(ZZ, rng, 3, 6)
        base = resultant_of_partials(f)
        for u in (-1, 1, -2, 2, 3):
            moved = act_ternary(Mat3.scalar(ZZ, u), f)
            assert resultant_of_partials(moved) == u**36 * base
    _finish(5, "u*Id scales the cubic discriminant by u^36", start, 5)


def test_criterion_06_well_definedness():
    start = time.time()
    from test_biquad import test_well_definedness_fully_symbolic

    test_well_definedness_fully_symbolic()
    rng = Random(106)
    for dom in (QQ, GF(101)):
        for _ in range(100):
            f = random_form22(dom, rng)
            L = random_bilinear(dom, rng)
            assert verify_well_defined(f, L)
    _finish(6, "covariants well defined: symbolic + 100xQQ + 100xGF(101)", start, 60)


def test_criterion_07_v22_covariance():
    start = time.time()
    rng = Random(107)
    plans = ((GF(101), 100), (QQ, 25))
    for dom, trials in plans:
        for _ in range(trials):
            F = canonicalize(random_form22(dom, rng, 4))
            gamma = random_invertible(dom, rng, 3)
            moved = act_22(gamma, F)
            det2 = dom.pow(gamma.det(), 2)
            assert covariant_x_ternary(moved) == covariant_x_ternary(F).substitute_linear(
                gamma.rows
            ).scale(det2)
            assert covariant_z_ternary(moved) == covariant_z_ternary(F).substitute_linear(
                gamma.cofactor_matrix().rows
            )
    _finish(7, "both covariance laws, 100xGF(101) + 25xQQ", start, 120)


def test_criterion_08_branch_locus_oracle():
    start = time.time()
    rng = Random(108)
    pairings = set()
    for p in (11, 13):
        field = GF(p)
        found = 0
        while found < 10:
            cls = canonicalize(random_form22(field, rng, p - 1))
            try:
                if not is_generic_mod_p(cls, p):
                    continue
                report = branch_locus_report(cls)
            except (DegeneratePointError, ZeroInputError):
                continue
            assert report.consistent, report.counterexamples
            assert report.points_checked == 2 * (p * p + p + 1)
            pairings.add(tuple(sorted(report.pairing.items())))
            found += 1
    assert len(pairings) == 1
    _finish(8, "branch locus == covariant vanishing, 10 generic classes x {11,13}", start, 120)


def test_criterion_09_lattice_enumeration():
    start = time.time()
    cands = enumerate_isometry_candidates()
    entries = {c.entries for c in cands}
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    shear = ((Fraction(-1), Fraction(4)), (Fraction(0), Fraction(1)))
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert len(cands) < 100  # finite, materialized
    assert identity in entries and shear in entries and swap not in entries
    for c in cands:
        assert qform(*c.entries[0]) == 2
        assert qform(*c.entries[1]) == 2
        assert pairing(c.entries[0], c.entries[1]) == 4
        assert c.quarter_integral and c.a22 in ALLOWED_A22
    box = brute_force_box(20)
    in_box = {
        c.entries for c in cands if all(abs(v) <= 20 for row in c.entries for v in row)
    }
    assert {c.entries for c in box} == in_box
    _finish(9, f"{len(cands)} isometry candidates; brute-force box agreement", start, 5)


def test_criterion_10_invariant_tuple_logic():
    start = time.time()
    t1 = InvariantTuple((1, 1), (4, 6))
    t2 = InvariantTuple((16, 64), (4, 6))
    witness = tuples_equivalent(t1, t2, {2})
    assert witness is not None and witness.alpha_power_d == 4 and witness.s_unit
    witness_empty = tuples_equivalent(t1, t2, set())
    assert witness_empty is not None and not witness_empty.s_unit

    from math import gcd

    rng = Random(110)
    for _ in range(100):
        values = (rng.randint(-60, 60), rng.randint(-60, 60))
        if values == (0, 0):
            continue
        s = set(rng.sample((2, 3, 5, 7, 11, 13), rng.randint(0, 3)))
        expected = strip_primes(gcd(*values), s) == 1
        assert tuple_is_primitive_outside(InvariantTuple(values, (4, 6)), s) == expected
    _finish(10, "alpha^2 = 4 witness with S-unit verdict; gcd characterization x100", start, 5)
