"""The F_{p^2} zero scan against a brute-force filter of every point."""

from random import Random

import pytest

from triforms.suites import _monomials
from triforms.finitefield import (
    QuadExtension,
    evaluate_terms_ext,
    projective_points_ext,
    ternary_zeros_ext,
)


def brute_force_zeros(terms, ext):
    zero = ext.zero()
    return [pt for pt in projective_points_ext(ext) if evaluate_terms_ext(terms, pt, ext) == zero]


def random_sextic(rng: Random, p: int, keep=lambda mono: True):
    # coefficients range past p on both sides, so reduction mod p is exercised
    return [
        (m, rng.randint(-3 * p, 3 * p))
        for m in _monomials(6)
        if keep(m) and rng.random() < 0.5
    ]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_zero_scan_matches_brute_force(p):
    rng = Random(9000 + p)
    ext = QuadExtension(p)
    forms = [random_sextic(rng, p) for _ in range(4)]
    forms.append([])  # the zero form vanishes everywhere
    forms.append(random_sextic(rng, p, keep=lambda m: m[0] > 0))  # x divides it
    forms.append([((6, 0, 0), 1), ((0, 6, 0), 1), ((0, 0, 6), 1)])
    for terms in forms:
        assert ternary_zeros_ext(terms, 6, ext) == brute_force_zeros(terms, ext)

