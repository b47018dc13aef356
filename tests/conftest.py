"""Test-only samplers and independent oracles; the shared samplers live in triforms.suites."""

from __future__ import annotations

from random import Random

import pytest

from triforms.finitefield import projective_points_prime
from triforms.matrices import Mat3
from triforms.poly import MultiPoly
from triforms.suites import random_scalar


def rand_sl3(dom, rng: Random, bound: int = 3) -> Mat3:
    """A determinant-1 matrix: product of random elementary shears."""
    m = Mat3.identity(dom)
    for _ in range(4):
        i, j = rng.sample(range(3), 2)
        rows = [[dom.one() if r == c else dom.zero() for c in range(3)] for r in range(3)]
        rows[i][j] = random_scalar(dom, rng, bound)
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
