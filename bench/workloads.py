"""Seeded workloads of the triforms benchmark: inputs, jobs and exact checks.

Each workload is an endless stream of rounds.  A round has a fixed mix of
job kinds, shuffled by the seed, so every seed loads the layers in the same
proportions and only the coefficients differ.  The mixes are chosen so that
the median job falls inside a dense cluster of job costs rather than in a
gap between two clusters, which keeps ``job_p50_ms`` steady across seeds.

A job's ``run`` is the timed call into the library.  Its ``check`` runs
afterwards, outside the timed span, and verifies the answer exactly by an
identity the library documents; it returns a Counter of outcomes and raises
CheckError on a wrong answer.  The samplers here belong to the benchmark on
purpose: the program receives only the generated inputs, and a change to the
library's own samplers cannot silently change a workload.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random
from typing import Callable

from triforms import biquadratic, cli, cubic, elimination
from triforms.domains import GF, QQ, ZZ
from triforms.errors import TriformsError
from triforms.matrices import Mat3
from triforms.poly import MultiPoly

XYZ = ("x", "y", "z")
BIQUAD = ("x1", "x2", "x3", "z1", "z2", "z3")

ELIM_PRIME = 10007
SWEEP_PRIMES = tuple(
    p for p in range(3, 98, 2) if all(p % q for q in range(3, int(p**0.5) + 1, 2))
)
TRIAL_BOUND = 100_000  # the CLI's and bad_primes' default trial-division bound
KAPPA = -256  # 4 I^3 - J^2 = KAPPA * raw discriminant of a ternary cubic


class CheckError(Exception):
    """A job's answer failed its exact check."""


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Counter]


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# -- samplers ------------------------------------------------------------------


def _scalar(dom, rng: Random, bound: int):
    if dom == ZZ:
        return rng.randint(-bound, bound)
    if dom == QQ:
        return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3)))
    return rng.randrange(dom.p)


def _ternary_monomials(degree: int):
    return [
        (a, b, degree - a - b)
        for a in range(degree, -1, -1)
        for b in range(degree - a, -1, -1)
    ]


MONOMIALS_22 = [
    xs + zs
    for xs in _ternary_monomials(2)
    for zs in _ternary_monomials(2)
]


def ternary_form(dom, rng: Random, degree: int, bound: int = 9) -> MultiPoly:
    monos = _ternary_monomials(degree)
    while True:
        f = MultiPoly(dom, XYZ, {m: _scalar(dom, rng, bound) for m in monos})
        if not f.is_zero():
            return f


def form22(dom, rng: Random, bound: int = 6) -> MultiPoly:
    return MultiPoly(dom, BIQUAD, {m: _scalar(dom, rng, bound) for m in MONOMIALS_22})


def bilinear(dom, rng: Random, bound: int = 6) -> MultiPoly:
    terms = {}
    for i in range(3):
        for j in range(3):
            e = [0] * 6
            e[i] = 1
            e[3 + j] = 1
            terms[tuple(e)] = _scalar(dom, rng, bound)
    return MultiPoly(dom, BIQUAD, terms)


def invertible(dom, rng: Random, bound: int = 4) -> Mat3:
    while True:
        m = Mat3(dom, [[_scalar(dom, rng, bound) for _ in range(3)] for _ in range(3)])
        if not dom.is_zero(m.det()):
            return m


# -- shared checks -------------------------------------------------------------


def _mod(value, p: int) -> int:
    """Reduction of an integer or a rational with denominator prime to p."""
    if isinstance(value, Fraction):
        return value.numerator * pow(value.denominator, -1, p) % p
    return value % p


def _raw_disc(f: MultiPoly):
    return elimination.discriminant(f, normalize=False).raw


def _check_raw_mod_p(f: MultiPoly, raw) -> None:
    """A raw discriminant over ZZ or QQ, reduced mod p, equals the GF(p) raw
    discriminant of the reduced form."""
    expected = _raw_disc(f.map_domain(GF(ELIM_PRIME)))
    _require(_mod(raw, ELIM_PRIME) == expected, "raw discriminant mod p disagrees with GF(p)")


def _check_normalized(normalized, constant, raw) -> None:
    _require(normalized * constant == raw, "normalized * constant != raw")


def _dict_mul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return out


def substitute(f: MultiPoly, matrix) -> MultiPoly:
    """f((v_1, ..., v_k) . M), expanded with plain dicts.

    A reference for the checks that shares no code with the library's
    substitute_linear, which the jobs themselves run.
    """
    k = len(f.vars)
    unit = [tuple(int(i == r) for i in range(k)) for r in range(k)]
    images = [{unit[r]: matrix[r][j] for r in range(k) if matrix[r][j]} for j in range(k)]
    powers = [[{(0,) * k: 1}] for _ in range(k)]
    result: dict = {}
    for exps, coeff in f.terms.items():
        term = {(0,) * k: coeff}
        for j, e in enumerate(exps):
            while len(powers[j]) <= e:
                powers[j].append(_dict_mul(powers[j][-1], images[j]))
            term = _dict_mul(term, powers[j][e])
        for m, c in term.items():
            result[m] = result.get(m, 0) + c
    return MultiPoly(f.domain, f.vars, result)


def _check_disc_covariance(f: MultiPoly, raw, rng: Random) -> None:
    """raw(gamma . f) == det(gamma)^(n (n-1)^2) * raw(f) over f's field."""
    dom = f.domain
    n = f.homogeneous_degree()
    gamma = invertible(dom, rng)
    moved = _raw_disc(substitute(f, gamma.rows))
    _require(
        moved == dom.mul(dom.pow(gamma.det(), n * (n - 1) ** 2), raw),
        "discriminant covariance law fails",
    )


def _check_cubic_kappa(f: MultiPoly, i_value, j_value) -> None:
    lhs = 4 * Fraction(i_value) ** 3 - Fraction(j_value) ** 2
    _require(lhs == KAPPA * Fraction(_raw_disc(f)), "4 I^3 - J^2 != -256 * raw")


@functools.cache
def _trial_primes() -> frozenset[int]:
    sieve = bytearray([1]) * (TRIAL_BOUND + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, int(TRIAL_BOUND**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return frozenset(i for i, flag in enumerate(sieve) if flag)


def _check_bad_primes(f: MultiPoly, s_primes, bad, cofactor: int) -> None:
    """|raw| with S stripped is the product of the bad primes' powers and the
    cofactor, and the cofactor has no prime factor below the trial bound."""
    primes = _trial_primes()
    value = abs(_raw_disc(f))
    _require(value != 0, "bad primes reported for a singular form")
    for q in set(s_primes) | set(bad):
        _require(q in primes, f"{q} is not a prime below the trial bound")
        if q in bad:
            _require(q not in s_primes and value % q == 0, f"{q} is not a bad prime")
        while value % q == 0:
            value //= q
    _require(value == cofactor, "cofactor disagrees with the raw discriminant")
    _require(
        cofactor == 1 or all(cofactor % q for q in primes),
        "cofactor has a prime factor below the trial bound",
    )


# -- elim: discriminants and determinants ---------------------------------------


def _cli_run(argv):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    return run


def _cli_output(result) -> tuple[dict | None, Counter]:
    """Parsed CLI JSON, or None plus the refusal outcome for exit code 1."""
    code, text = result
    _require(code in (0, 1), f"CLI exit code {code}")
    out = json.loads(text)
    if code == 1:
        return None, Counter({"refused:" + out["error"]["kind"]: 1})
    return out, Counter({"ok": 1})


def _elim_disc_norm(rng, dom, degree):
    f = ternary_form(dom, rng, degree)

    def check(report):
        _check_normalized(report.normalized, report.constant, report.raw)
        _check_raw_mod_p(f, report.raw)
        return Counter({"ok": 1})

    return lambda: elimination.discriminant(f), check


def _elim_raw_zz(rng, degree):
    f = ternary_form(ZZ, rng, degree)

    def check(raw):
        _check_raw_mod_p(f, raw)
        return Counter({"ok": 1})

    return lambda: _raw_disc(f), check


def _elim_raw_gf(rng, degree):
    f = ternary_form(GF(ELIM_PRIME), rng, degree)
    check_rng = Random(rng.getrandbits(64))

    def check(raw):
        _check_disc_covariance(f, raw, check_rng)
        return Counter({"ok": 1})

    return lambda: _raw_disc(f), check


def _elim_sweep(rng):
    f = ternary_form(ZZ, rng, 4)

    def run():
        return [elimination.is_smooth_mod_p(f, p) for p in SWEEP_PRIMES]

    def check(verdicts):
        # smooth mod p iff p does not divide the primitive discriminant
        normalized = elimination.discriminant(f).normalized
        expected = [normalized % p != 0 for p in SWEEP_PRIMES]
        _require(verdicts == expected, "smoothness verdicts disagree with the discriminant")
        return Counter({"ok": 1, "smooth_verdicts": sum(verdicts)})

    return run, check


def _elim_cubic(rng):
    f = ternary_form(ZZ, rng, 3)

    def check(invariants):
        _check_cubic_kappa(f, *invariants)
        return Counter({"ok": 1})

    return lambda: cubic.cubic_invariants(f), check


def _elim_bad_primes(rng):
    f = ternary_form(ZZ, rng, 4)

    def check(result):
        bad, cofactor = result
        _check_bad_primes(f, {2}, bad, cofactor)
        return Counter({"ok": 1})

    return lambda: elimination.bad_primes(f, {2}), check


def _write_form(workdir: Path, rng: Random, f: MultiPoly) -> str:
    path = workdir / f"form-{rng.getrandbits(64):016x}.txt"
    path.write_text(str(f) + "\n")
    return str(path)


def _elim_cli_disc(rng, workdir):
    f = ternary_form(rng.choice((ZZ, QQ)), rng, rng.choice((3, 4)))
    path = _write_form(workdir, rng, f)

    def check(result):
        out, outcome = _cli_output(result)
        if out is not None:
            raw = Fraction(out["raw"])
            _check_normalized(Fraction(out["normalized"]), int(out["constant"]), raw)
            _check_raw_mod_p(f, raw)
        return outcome

    return _cli_run(["disc", "--form", path]), check


def _elim_cli_disc_mod(rng, workdir):
    f = ternary_form(ZZ, rng, 4)
    path = _write_form(workdir, rng, f)

    def check(result):
        out, outcome = _cli_output(result)
        if out is not None:
            _require(int(out["raw"]) == _raw_disc(f) % ELIM_PRIME, "disc --mod disagrees")
        return outcome

    return _cli_run(["disc", "--form", path, "--mod", str(ELIM_PRIME)]), check


def _elim_cli_cubic(rng, workdir):
    f = ternary_form(ZZ, rng, 3)
    path = _write_form(workdir, rng, f)

    def check(result):
        out, outcome = _cli_output(result)
        if out is not None:
            _require(out["kappa_checked"] is True, "CLI kappa check failed")
            _check_cubic_kappa(f, Fraction(out["I"]), Fraction(out["J"]))
        return outcome

    return _cli_run(["cubic-invariants", "--form", path]), check


def _elim_cli_good_reduction(rng, workdir):
    f = ternary_form(ZZ, rng, 3)
    path = _write_form(workdir, rng, f)

    def check(result):
        out, outcome = _cli_output(result)
        if out is not None:
            bad = set(out["bad_primes_outside_s"])
            cofactor = int(out["unfactored_cofactor"])
            _check_bad_primes(f, {2}, bad, cofactor)
            _require(
                out["good_reduction_outside_s"] == (not bad and cofactor == 1),
                "good-reduction verdict disagrees",
            )
        return outcome

    argv = ["good-reduction", "--form", path, "--s-set", "2"]
    return _cli_run(argv), check


_ELIM_BLOCK = [
    ("disc_zz_3", lambda rng, wd: _elim_disc_norm(rng, ZZ, 3)),
    ("disc_zz_4", lambda rng, wd: _elim_disc_norm(rng, ZZ, 4)),
    ("disc_qq_3", lambda rng, wd: _elim_disc_norm(rng, QQ, 3)),
    ("disc_qq_4", lambda rng, wd: _elim_disc_norm(rng, QQ, 4)),
    ("raw_gf_4", lambda rng, wd: _elim_raw_gf(rng, 4)),
    ("raw_gf_5", lambda rng, wd: _elim_raw_gf(rng, 5)),
    ("raw_gf_6", lambda rng, wd: _elim_raw_gf(rng, 6)),
    ("cubic_invariants", lambda rng, wd: _elim_cubic(rng)),
    ("bad_primes", lambda rng, wd: _elim_bad_primes(rng)),
    ("cli_disc", _elim_cli_disc),
    ("cli_disc_mod", _elim_cli_disc_mod),
    ("cli_cubic_invariants", _elim_cli_cubic),
    ("cli_good_reduction", _elim_cli_good_reduction),
]

# The two dearest kinds come once per five blocks (the sweep once per ten),
# so the tail (the eleventh-slowest job) falls inside their cluster rather
# than at the far end of one kind.  About one sweep in fifteen costs 2.5x the
# others; with fewer sweeps, how many of those a seed draws moves the tail less.
ELIM_ROUND = _ELIM_BLOCK * 10 + [
    *[("raw_zz_5", lambda rng, wd: _elim_raw_zz(rng, 5))] * 2,
    ("smooth_sweep", lambda rng, wd: _elim_sweep(rng)),
]


# -- v22: (2,2)-class algebra ----------------------------------------------------


def _v22_act(rng, dom):
    f = form22(dom, rng)
    gamma = invertible(dom, rng)

    def run():
        cls = biquadratic.canonicalize(f)
        moved = biquadratic.act_22(gamma, cls)
        return (
            cls,
            moved,
            biquadratic.covariant_x_ternary(moved),
            biquadratic.covariant_z_ternary(moved),
        )

    def check(result):
        cls, moved, cov_x, cov_z = result
        _require(biquadratic.is_ideal_member(f - cls.rep), "f is not congruent to its class")
        _require(biquadratic.canonicalize(moved.rep) == moved, "moved class is not canonical")
        det = gamma.det()
        expected_x = substitute(biquadratic.covariant_x_ternary(cls), gamma.rows).scale(
            dom.pow(det, 2)
        )
        expected_z = substitute(
            biquadratic.covariant_z_ternary(cls), gamma.cofactor_matrix().rows
        )
        _require(cov_x == expected_x, "x-covariance law fails")
        _require(cov_z == expected_z, "z-covariance law fails")
        return Counter({"ok": 1})

    return run, check


def _v22_welldef(rng, dom):
    f = form22(dom, rng)
    lin = bilinear(dom, rng)

    def check(same):
        _require(same is True, "covariants differ on congruent representatives")
        return Counter({"ok": 1})

    return lambda: biquadratic.verify_well_defined(f, lin), check


V22_PRIME = 101

# As many jobs cheaper than the ZZ actions (GF(101) jobs) as dearer ones (QQ
# jobs and ZZ well-definedness), so the median job is a typical ZZ action.
V22_ROUND = [
    *[("act_gf101", lambda rng, wd: _v22_act(rng, GF(V22_PRIME)))] * 2,
    ("welldef_gf101", lambda rng, wd: _v22_welldef(rng, GF(V22_PRIME))),
    *[("act_zz", lambda rng, wd: _v22_act(rng, ZZ))] * 2,
    ("act_qq", lambda rng, wd: _v22_act(rng, QQ)),
    ("welldef_qq", lambda rng, wd: _v22_welldef(rng, QQ)),
    ("welldef_zz", lambda rng, wd: _v22_welldef(rng, ZZ)),
]


# -- scan: point scans over P^2(F_p) and P^2(F_{p^2}) ----------------------------

SCAN_CANDIDATES = 12


def _scan(rng, p):
    """Classes are tried in seeded order until one is generic; that one gets a
    branch-locus report.  Non-generic verdicts are cheap, so every job carries
    exactly one report and the job cost does not swing with a seed's share of
    generic classes."""
    field = GF(p)
    candidates = [form22(field, rng) for _ in range(SCAN_CANDIDATES)]

    def run():
        tried = []
        for f in candidates:
            cls = biquadratic.canonicalize(f)
            try:
                if not biquadratic.is_generic_mod_p(cls, p):
                    tried.append(("non_generic", cls, None))
                    continue
                report = biquadratic.branch_locus_report(cls)
            except TriformsError as exc:
                tried.append(("refused:" + exc.kind, cls, None))
                continue
            tried.append(("generic", cls, report))
            break
        return tried

    def check(tried):
        outcomes = Counter()
        for verdict, cls, report in tried:
            if verdict == "generic":
                _check_generic(cls, report, p)
                outcomes["generic"] += 1
                outcomes["points_scanned"] += report.points_checked
            elif verdict == "non_generic":
                outcomes["non_generic:" + _non_generic_reason(cls, p)] += 1
            else:
                outcomes[verdict] += 1
        if outcomes["generic"] == 0:
            outcomes["no_generic_candidate"] += 1
        return outcomes

    return run, check


def _covariants(cls):
    return biquadratic.covariant_x_ternary(cls), biquadratic.covariant_z_ternary(cls)


def _check_generic(cls, report, p: int) -> None:
    _require(report.prime == p, "report names the wrong prime")
    _require(report.consistent, "tangency and covariant vanishing disagree")
    _require(report.points_checked == 2 * (p * p + p + 1), "wrong number of points")
    for cov in _covariants(cls):
        _require(not cov.is_zero(), "generic class with a vanishing covariant")
        _require(_raw_disc(cov) != 0, "generic class with a singular covariant")


def _non_generic_reason(cls, p: int) -> str:
    """The documented cause of a non-generic verdict; CheckError if none holds."""
    if cls.is_zero():
        return "zero_class"
    covs = _covariants(cls)
    if any(cov.is_zero() for cov in covs):
        return "covariant_zero"
    if any(_raw_disc(cov) == 0 for cov in covs):
        return "covariant_singular"
    degenerate = biquadratic.degenerate_points(cls)
    _require(degenerate["x"] or degenerate["z"], "non-generic verdict without a cause")
    return "degenerate_fiber"


# Three GF(11) jobs to one dearer GF(13) job: with the few jobs a run holds,
# both the median and the tail then fall inside the GF(11) cluster.
SCAN_ROUND = [
    *[("scan_gf11", lambda rng, wd: _scan(rng, 11))] * 3,
    ("scan_gf13", lambda rng, wd: _scan(rng, 13)),
]

WORKLOADS = {"elim": ELIM_ROUND, "v22": V22_ROUND, "scan": SCAN_ROUND}


def rounds(workload: str, seed: int, workdir: Path):
    """Endless stream of rounds (lists of Jobs) for a workload and seed."""
    mix = list(WORKLOADS[workload])
    rng = Random(f"triforms-bench:{workload}:{seed}")
    while True:
        rng.shuffle(mix)
        yield [Job(kind, *make(rng, workdir)) for kind, make in mix]
