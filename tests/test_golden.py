"""Golden outputs of the mod-p kernels, pinned by hash.

A seeded sweep of GF(p) raw discriminants (degrees 2 to 6), smoothness
verdicts and genericity verdicts at a spread of primes, from characteristic
2 to a 61-bit prime, is rendered as text and hashed.  The hash was taken
before the packed mod-p elimination was rewritten, so any change to the
kernels that moves one value shows here, even one that every identity
test would miss.
"""

from __future__ import annotations

import hashlib
from random import Random

from triforms.biquadratic import is_generic_mod_p
from triforms.domains import GF, ZZ
from triforms.elimination import is_smooth_mod_p, resultant_of_partials
from triforms.errors import TriformsError
from triforms.poly import MultiPoly
from triforms.suites import random_form, random_form22

GOLDEN_PRIMES = (2, 3, 5, 11, 13, 10007, 2**61 - 1)
GOLDEN_SHA256 = "f1226fca54756da0aed51bf05ca1d8df969e6302c4090cf53e014ac2032f29eb"


def _sparse(f: MultiPoly, rng: Random) -> MultiPoly:
    """f with about half its terms kept (all of them when none would be)."""
    terms = {e: c for e, c in f.terms.items() if rng.random() < 0.5}
    return MultiPoly(f.domain, f.vars, terms or f.terms)


def _verdict(call, *args) -> str:
    try:
        return str(call(*args))
    except TriformsError as exc:
        return "refused:" + exc.kind


def golden_lines():
    rng = Random(14014)
    for p in GOLDEN_PRIMES:
        field = GF(p)
        for n in range(2, 7):
            for f in (random_form(field, rng, n), _sparse(random_form(field, rng, n), rng)):
                yield f"disc p={p} n={n} {f} -> {_verdict(resultant_of_partials, f)}"
            for f in (random_form(ZZ, rng, n), _sparse(random_form(ZZ, rng, n), rng)):
                yield f"smooth p={p} n={n} {f} -> {_verdict(is_smooth_mod_p, f, p)}"
        for _ in range(3):
            f = random_form22(ZZ, rng)
            yield f"generic p={p} {f} -> {_verdict(is_generic_mod_p, f, p)}"


def test_mod_p_kernels_match_their_golden_hash():
    digest = hashlib.sha256("\n".join(golden_lines()).encode()).hexdigest()
    assert digest == GOLDEN_SHA256
