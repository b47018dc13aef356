"""Shared samplers and independent oracles for the test suite."""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from triforms.domains import QQ, PrimeField
from triforms.elimination import _monomials
from triforms.finitefield import projective_points_prime
from triforms.matrices import Mat3
from triforms.poly import VARS_BIQUAD, VARS_XYZ, MultiPoly


def rand_scalar(dom, rng: Random, bound: int = 9):
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    if dom == QQ:
        return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 1, 2, 3)))
    return rng.randint(-bound, bound)


def rand_form(dom, rng: Random, degree: int, bound: int = 9) -> MultiPoly:
    while True:
        f = MultiPoly(dom, VARS_XYZ, {m: rand_scalar(dom, rng, bound) for m in _monomials(degree)})
        if not f.is_zero():
            return f


def rand_form22(dom, rng: Random, bound: int = 6) -> MultiPoly:
    from triforms.biquadratic import _MONOMIALS_22

    return MultiPoly(dom, VARS_BIQUAD, {m: rand_scalar(dom, rng, bound) for m in _MONOMIALS_22})


def rand_bilinear(dom, rng: Random, bound: int = 6) -> MultiPoly:
    terms = {}
    for i in range(3):
        for j in range(3):
            e = [0] * 6
            e[i] += 1
            e[3 + j] += 1
            terms[tuple(e)] = rand_scalar(dom, rng, bound)
    return MultiPoly(dom, VARS_BIQUAD, terms)


def rand_matrix(dom, rng: Random, bound: int = 4) -> Mat3:
    return Mat3(dom, [[rand_scalar(dom, rng, bound) for _ in range(3)] for _ in range(3)])


def rand_invertible(dom, rng: Random, bound: int = 4) -> Mat3:
    while True:
        m = rand_matrix(dom, rng, bound)
        if not dom.is_zero(m.det()):
            return m


def rand_sl3(dom, rng: Random, bound: int = 3) -> Mat3:
    """A determinant-1 matrix: product of random elementary shears."""
    m = Mat3.identity(dom)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        rows = [[dom.one() if r == c else dom.zero() for c in range(3)] for r in range(3)]
        rows[i][j] = rand_scalar(dom, rng, bound)
        m = m @ Mat3(dom, rows)
    return m


def singular_points_fp(fbar: MultiPoly, p: int):
    """Exhaustive singular points of the cut-out curve over F_p.

    A point is singular when the form and all three partials vanish there.
    """
    partials = [fbar.partial_derivative(v) for v in fbar.vars]
    out = []
    for pt in projective_points_prime(p):
        if fbar.evaluate(pt) == 0 and all(g.evaluate(pt) == 0 for g in partials):
            out.append(pt)
    return out


@pytest.fixture
def rng():
    return Random(20240816)
