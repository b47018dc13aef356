"""Golden outputs of the elimination kernels, pinned by hash.

A seeded sweep of GF(p) raw discriminants (degrees 2 to 6), smoothness
verdicts and genericity verdicts at a spread of primes, from characteristic
2 to a 61-bit prime, is rendered as text and hashed.  The hash was taken
before the packed mod-p elimination was rewritten, so any change to the
kernels that moves one value shows here, even one that every identity
test would miss.

A second sweep pins the integer outputs the same way: raw and normalized
ZZ and QQ discriminants (degrees 2 to 6, dense and sparse), resultants of
integer triples (degrees 1 to 4), bad-prime profiles, and a quartic whose
every shear retry degenerates.  Its hash was taken before the integer
quotient was moved onto the packed layout's rows.

A third sweep pins the cubic layer: both collapsed bracket expansions and
the invariants (I, J) of seeded dense and sparse cubics over ZZ, QQ and
GF(p), p in {5, 7, 10007}.  Its hash was taken before the bracket expansion
was rewritten to fold each finished letter into its coefficient.

A fourth sweep pins the (2,2) layer: for seeded dense and sparse classes
over ZZ, QQ and GF(p), p in {3, 5, 11, 13, 101}, both Gram matrices, both
sextic covariants (from the class record and from the raw representative),
``canonicalize`` and ``act_22`` images, ``verify_well_defined`` verdicts
and, at p <= 13, the branch-locus report or its refusal.  Its hash was
taken before the covariants were rewritten to contract the six distinct
cofactors of the symmetric Gram matrix by monomial shifts.
"""

from __future__ import annotations

import hashlib
import json
from random import Random

from triforms import cubic
from triforms.biquadratic import (
    act_22,
    branch_locus_report,
    canonicalize,
    covariant_x_ternary,
    covariant_z_ternary,
    gram_matrices,
    is_generic_mod_p,
    sextic_covariant_x,
    sextic_covariant_z,
    verify_well_defined,
)
from triforms.domains import GF, QQ, ZZ
from triforms.elimination import (
    bad_primes,
    discriminant,
    is_smooth_mod_p,
    macaulay_resultant,
    resultant_of_partials,
)
from triforms.errors import TriformsError
from triforms.poly import MultiPoly, parse_poly
from triforms.suites import random_bilinear, random_form, random_form22, random_invertible

GOLDEN_PRIMES = (2, 3, 5, 11, 13, 10007, 2**61 - 1)
GOLDEN_SHA256 = "f1226fca54756da0aed51bf05ca1d8df969e6302c4090cf53e014ac2032f29eb"
INTEGER_GOLDEN_SHA256 = "c9d2b4c46f62c6062c72584ad8c58c21bd31f309e1e3ff8596023e604a21bb01"
CUBIC_GOLDEN_SHA256 = "17750cf63ea80ab9adec159cdef216158e53148229e094e96542ec8ca9e8a7b4"
BIQUAD_GOLDEN_SHA256 = "7ca67ab9d6eaf152a49a54b8fb4a6adbcbfd93dc5e2757fd260ee848d1816353"


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


def _disc(f: MultiPoly) -> str:
    report = discriminant(f)
    return f"{report.raw} {report.normalized}"


def _profile(f: MultiPoly) -> str:
    bad, cofactor = bad_primes(f, {2, 3})
    return f"{sorted(bad)} {cofactor}"


def integer_golden_lines():
    rng = Random(15015)
    for domain in (ZZ, QQ):
        for n in range(2, 7):
            dense = [random_form(domain, rng, n) for _ in range(1 if n == 6 else 2)]
            for f in dense + [_sparse(random_form(domain, rng, n), rng) for _ in range(2)]:
                yield f"disc {domain.name} n={n} {f} -> {_verdict(_disc, f)}"
    for d in range(1, 5):
        for _ in range(4):
            forms = [_sparse(random_form(ZZ, rng, d, 4), rng) for _ in range(3)]
            triple = ", ".join(map(str, forms))
            yield f"res d={d} {triple} -> {_verdict(macaulay_resultant, *forms)}"
    for n in (3, 4):
        for _ in range(4):
            f = _sparse(random_form(ZZ, rng, n), rng)
            yield f"bad {f} -> {_verdict(_profile, f)}"
    f = parse_poly("6*x^3*z - 7*x^2*z^2 - 4*x*y*z^2 + 4*x*z^3")
    for g in (f, f.to_rationals()):
        yield f"degenerate {g} -> {_verdict(_disc, g)}"


def test_integer_outputs_match_their_golden_hash():
    digest = hashlib.sha256("\n".join(integer_golden_lines()).encode()).hexdigest()
    assert digest == INTEGER_GOLDEN_SHA256


def cubic_golden_lines():
    for symbol in (cubic._SYMBOL_DEG4, cubic._SYMBOL_DEG6):
        for multiset, coeff in cubic._expand_symbol(symbol):
            yield f"expand {symbol} {multiset} {coeff}"
    rng = Random(16016)
    for domain in (ZZ, QQ, GF(5), GF(7), GF(10007)):
        for _ in range(4):
            for f in (random_form(domain, rng, 3), _sparse(random_form(domain, rng, 3), rng)):
                yield f"cubic {domain.name} {f} -> {_verdict(cubic.cubic_invariants, f)}"


def test_cubic_outputs_match_their_golden_hash():
    digest = hashlib.sha256("\n".join(cubic_golden_lines()).encode()).hexdigest()
    assert digest == CUBIC_GOLDEN_SHA256


def _grams(f) -> str:
    pair = gram_matrices(f)
    return " | ".join(
        "; ".join(", ".join(map(str, row)) for row in gram) for gram in (pair.in_x, pair.in_z)
    )


def _report(cls) -> str:
    return json.dumps(branch_locus_report(cls).to_json_dict(), sort_keys=True)


def biquad_golden_lines():
    rng = Random(18018)
    for domain in (ZZ, QQ, GF(3), GF(5), GF(11), GF(13), GF(101)):
        for _ in range(3):
            dense = random_form22(domain, rng)
            for f in (dense, _sparse(dense, rng)):
                cls = canonicalize(f)
                yield f"class {domain.name} {f} -> {cls.rep}"
                yield f"grams {cls.rep} -> {_verdict(_grams, cls)}"
                yield f"raw grams {f} -> {_verdict(_grams, f)}"
                for name, call in (("cov_x", covariant_x_ternary), ("cov_z", covariant_z_ternary)):
                    yield f"{name} {cls.rep} -> {_verdict(call, cls)}"
                for name, call in (("cov_x", sextic_covariant_x), ("cov_z", sextic_covariant_z)):
                    yield f"raw {name} {f} -> {_verdict(call, f)}"
                gamma = random_invertible(domain, rng)
                yield f"act {gamma.to_json_list()} {cls.rep} -> {_verdict(act_22, gamma, cls)}"
                L = random_bilinear(domain, rng)
                yield f"welldef {f} {L} -> {_verdict(verify_well_defined, f, L)}"
                if domain.name.startswith("GF") and domain.p <= 13:
                    yield f"branch {cls.rep} -> {_verdict(_report, cls)}"


def test_biquadratic_outputs_match_their_golden_hash():
    digest = hashlib.sha256("\n".join(biquad_golden_lines()).encode()).hexdigest()
    assert digest == BIQUAD_GOLDEN_SHA256
