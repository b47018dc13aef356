"""Test-only samplers and independent oracles; the shared samplers live in triforms.suites."""

from __future__ import annotations

from math import gcd
from random import Random

import pytest

from triforms.domains import ZZ
from triforms.elimination import resultant_of_partials
from triforms.finitefield import QuadExtension, evaluate_terms_ext, ternary_zeros_ext
from triforms.matrices import Mat3
from triforms.poly import MultiPoly
from triforms.suites import random_form, random_scalar


def rand_sl3(dom, rng: Random, bound: int = 3) -> Mat3:
    """A determinant-1 matrix: product of random elementary shears."""
    m = Mat3.identity(dom)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        rows = [[dom.one() if r == c else dom.zero() for c in range(3)] for r in range(3)]
        rows[i][j] = random_scalar(dom, rng, bound)
        m = m @ Mat3(dom, rows)
    return m


def projective_points_prime(p: int):
    """Normalized representatives of P^2(F_p): p^2 + p + 1 points."""
    for a in range(p):
        for b in range(p):
            yield (1, a, b)
    for a in range(p):
        yield (0, 1, a)
    yield (0, 0, 1)


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


def singular_points_fp2(fbar: MultiPoly, p: int) -> list:
    """Singular points of the curve over P^2(F_{p^2}), as pairs a + b t.

    An exhaustive search, about p^4 Horner steps: zeros of the form are
    enumerated first; the partials are checked only there.  A point found
    certifies singularity; none found leaves the larger extensions open.
    """
    ext = QuadExtension(p)
    zeros = ternary_zeros_ext(list(fbar.terms.items()), fbar.homogeneous_degree(), ext)
    partial_terms = [list(fbar.partial_derivative(v).terms.items()) for v in fbar.vars]
    zero = ext.zero()
    return [
        pt
        for pt in zeros
        if all(evaluate_terms_ext(ts, pt, ext) == zero for ts in partial_terms)
    ]


def contract_with_block(m, f_vars, block, domain) -> MultiPoly:
    """(b) m (b)^t for the block variables, summed entry by entry as MultiPolys."""
    total = MultiPoly.zero(domain, f_vars)
    bvars = [MultiPoly.variable(domain, f_vars, b) for b in block]
    for i in range(3):
        for j in range(3):
            total = total + bvars[i] * bvars[j] * m[i][j]
    return total


def sampled_content(n: int, samples: int = 24, seed: int = 555, bound: int = 6) -> int:
    """gcd of the raw discriminants of seeded random integer n-ics.

    The content of the raw discriminant polynomial divides every value, so
    this is a multiple of it, and equal to it once the sample is large
    enough; an oracle for the closed form, found with no theory at all.
    """
    rng = Random(seed + 1009 * n)
    content = 0
    for _ in range(samples):
        content = gcd(content, resultant_of_partials(random_form(ZZ, rng, n, bound)))
    return content


@pytest.fixture
def rng():
    return Random(20240816)
