"""Command-line front end.

JSON results go to stdout; diagnostics to stderr.  Exit codes: 0 success,
1 mathematical precondition failure (structured error JSON on stdout),
2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from math import lcm
from pathlib import Path

from . import biquadratic, cubic, elimination, lattice
from .domains import GF, QQ, ZZ, PrimeField
from .errors import BudgetExceededError, DomainMismatchError, ParseError, TriformsError
from .matrices import Mat3, act_ternary, mat3_from_json
from .poly import MultiPoly, parse_poly, poly_from_json
from .suites import DRAWS_PER_TRIAL, SUITE_NAMES, SuiteConfig, run_suite


# Work bounds of the scanning commands.  Each was sized from its measured
# unit cost on a 2-core x86-64 box running CPython 3.11 (~28 us per
# branch-check point of P^2(F_p), ~18 us per lattice-enum grid cell) so that
# an accepted input finishes in about 10 s: p <= 353 for branch-check,
# box <= 81.  A branch-check point now costs ~2.4 us: a whole class took
# 0.60-0.67 s at p = 353, against 0.81-1.07 s before each line of P^2(F_p)
# was evaluated as packed integers; the bound stays as it was.  generic has
# no budget: it scans no points, and deciding a class, one packed Macaulay
# elimination per sextic covariant, took 7-9 ms at p = 41 to 10007, 27 ms at 2^61 - 1 and 34 ms at the largest
# prime a field accepts, just below intutil.PRIME_PROOF_LIMIT (3.3 * 10**24);
# larger --mod values are refused with kind "bad-prime".
BRANCH_CHECK_MAX_POINTS = 250_000
LATTICE_BOX_MAX_CELLS = 430_000

# Milliseconds one raw discriminant (Bareiss over ZZ) of a dense ternary n-ic
# with coefficients in [-9, 9] took on the same box, rounded up, with a
# Bareiss that rescaled every row at every step; the cost grows ~4-8x per
# degree, and a dense nonic took 13 s.  With each row's own divisor
# (elimination.det_bareiss) the same kind of form takes at most 0.7, 2.1,
# 12, 72, 283 and 1145 ms at degrees 3 to 8 and 3.5-4.2 s at degree 9, so
# the table over-charges about 2x at degree 5 and 3x at degrees 6 to 8; it
# is kept as an upper bound.  With coefficients of
# h bits it grew about as ((h + 6) / 10)^2, measured from 1 to 100 digits at
# degrees 4 to 8 (a sextic: 0.18 s at one digit, 2.2 s at 10, 5.7 s at 20,
# 21 s at 40); the estimate was never below a measured time and up to 5x
# above one (degree 4, 100 digits).  disc (every mode) and good-reduction
# refuse a form above the table's degrees, or whose estimate is over
# DISC_MAX_MS, before computing.  Over GF(p), disc --mod included, the
# coefficients are residues and the form is charged as one with one-digit
# coefficients.  As one hybrid Sylvester-Bezout determinant, the same kind
# of form takes at most 0.5, 0.8, 3.4, 14, 45 and 136 ms at degrees 3 to 8
# (0.25-0.29 s at 9): the table over-charges 2-4x at degrees 3 and 4 and
# 7-25x at 5 to 8, and stays until one calibration re-fits every budget.
DISC_MS = {2: 1, 3: 1, 4: 3, 5: 25, 6: 200, 7: 900, 8: 3400}
DISC_MAX_DEGREE = max(DISC_MS)
DISC_MAX_MS = 10_000

# Nanoseconds of act (rep vn) per term of an n-ic form and per (n + 2)^4,
# rounded up from the same box: a dense form and a dense gamma, both with
# one-digit entries, took 13-20 ns a unit over ZZ and GF(p) at degrees 12 to
# 40 (2.4 s at degree 26, 35 s at 40) and ~80 ns over QQ, charged four
# times as much.  A sparse form of high degree costs less than that per
# term, and a gamma with zeros far less; both are charged as dense, but for
# a monomial gamma (one nonzero entry in each row and column), which maps
# each term to one term and is charged ACT_MONOMIAL_UNIT_NS a term instead:
# with one-digit entries it took 15-27 us a term over ZZ and GF(p) and ~24 us
# over QQ, from degree 40 (12-22 ms) to 160.  With b the bits of the
# result's coefficients, f's height plus n times gamma's (cleared of
# denominators, 4 over GF(p), as for disc), the cost of a dense gamma grew
# about as ((b + 2000) / 2000)^2, measured up to 40 000 bits at degrees 12
# and 20.  A monomial gamma's products mostly have one tall factor, and its
# cost grew about as (b + ACT_MONOMIAL_BITS) / ACT_MONOMIAL_BITS: a scaled
# permutation with 10**50 to 10**4300 entries on dense ZZ forms of degree 4
# to 160 (up to 430 000 bits) took 1.5-14x less than that estimate (1.3 s
# against 5.5 s at degree 40 with 10**1000 entries), where the squared
# factor charged up to 1000x the time.  The dense estimate was 1.6-3x above
# every time measured, so act, refusing an estimate over ACT_MAX_MS before
# computing, answers what takes up to a few seconds.  A result whose
# coefficients pass Python's 4300-digit printing limit is refused with kind
# budget: before computing, when a monomial integer gamma makes a lower
# bound on their height pass it (_require_printable_monomial_image), else
# once computed (``Domain.fmt``).
ACT_UNIT_NS = 30
ACT_MONOMIAL_UNIT_NS = 40_000
ACT_MONOMIAL_BITS = 800
ACT_MAX_MS = 10_000

# Largest good-reduction --trial-bound.  The primes up to the bound stay in
# memory for the life of the process; on the same box a first factoring at
# 10**7 took 0.6 s and a peak RSS of 55 MB, and both grow linearly with it.
TRIAL_BOUND_MAX = 10**7

# Milliseconds one verify trial took on the same box, rounded up, so that an
# accepted verify finishes in about VERIFY_MAX_MS.  A disc-covariance trial
# computes two raw discriminants, charged through DISC_MS: of f, with
# coefficients up to 5 (at most 5 bits over QQ once denominators are
# cleared), and of gamma.f.  The coefficients of gamma.f reach about 4n + 10
# bits, but most are far smaller; a QQ trial, the slower domain, cost about
# what a dense form of height 3n + 4 does (measured at degrees 4 to 7; at
# degree 7 one trial took 9.4-10.9 s against an estimate of 9.7 s; GF(p)
# trials are cheaper and are charged the same).  Every
# other suite is timed over ZZ, QQ and GF(101), at the slowest.  A
# branch-locus trial is charged once per prime: for the DRAWS_PER_TRIAL
# classes it may draw (drawing one and testing it for genericity took
# 4.8-6.4 ms on average at each prime from 3 to 353), plus BRANCH_POINT_US
# per point of its scan (~2.3 us measured at p = 353).  lattice-enum runs
# once whatever --trials is.
VERIFY_TRIAL_MS = {
    "euler": 1,
    "cubic-kappa": 1,
    "action-laws": 8,
    "v22-welldef": 20,
    "v22-covariance": 60,
    "branch-locus": 6 * DRAWS_PER_TRIAL,
    "lattice-enum": 0,
}
BRANCH_POINT_US = 3
VERIFY_MAX_MS = 10_000


def _plane_points(q: int) -> int:
    """Points a two-sided scan of P^2(F_q) visits: one pass per projection."""
    return 2 * (q * q + q + 1)


def _require_budget(command: str, cost: int, bound: int, unit: str) -> None:
    if cost > bound:
        raise BudgetExceededError(
            f"{command} would scan {cost} {unit}, over its bound of {bound}"
        )


def _disc_cost_ms(n: int, bits: int) -> int:
    """Estimated ms of one raw discriminant of an n-ic, 2 <= n <= DISC_MAX_DEGREE,
    whose largest coefficient has ``bits`` bits (see DISC_MS)."""
    return -(-DISC_MS[n] * (bits + 6) ** 2 // 100)


def _height_bits(domain, coeffs) -> int:
    """Bits of the largest of the coefficients, over QQ once the denominators
    are cleared; 4, as for one-digit coefficients, over GF(p)."""
    if isinstance(domain, PrimeField):
        return 4
    if domain == QQ:
        common = lcm(*(c.denominator for c in coeffs))
        coeffs = [c.numerator * (common // c.denominator) for c in coeffs]
    return max((abs(c).bit_length() for c in coeffs), default=0)


def _require_disc_budget(command: str, f: MultiPoly) -> None:
    """Refuse a form whose raw discriminant is over DISC_MAX_MS by its degree
    and coefficient height, before any resultant is computed."""
    n = f.total_degree() or 0
    if n > DISC_MAX_DEGREE:
        raise BudgetExceededError(
            f"{command} computes discriminants up to degree {DISC_MAX_DEGREE}, got {n}"
        )
    if n >= 2:
        cost = _disc_cost_ms(n, _height_bits(f.domain, f.terms.values()))
        _require_budget(command, cost, DISC_MAX_MS, "ms of estimated work")


def _act_cost_ms(f: MultiPoly, gamma: Mat3) -> int:
    """Estimated ms of gamma . f by substitution (see ACT_UNIT_NS)."""
    n = f.total_degree() or 0
    bits = _height_bits(f.domain, f.terms.values()) + n * _height_bits(
        gamma.domain, gamma.to_flat()
    )
    if _is_monomial(gamma):
        unit_ns, height, base = ACT_MONOMIAL_UNIT_NS, bits + ACT_MONOMIAL_BITS, ACT_MONOMIAL_BITS
    else:
        unit_ns, height, base = ACT_UNIT_NS * (n + 2) ** 4, (bits + 2000) ** 2, 2000**2
    unit_ns *= 4 if f.domain == QQ else 1
    work_ns = len(f.terms) * unit_ns * height
    return -(-work_ns // (base * 10**6))


def _is_monomial(gamma: Mat3) -> bool:
    """Whether gamma has one nonzero entry in each row and column."""
    lines = gamma.rows + tuple(zip(*gamma.rows))
    return all(sum(1 for a in line if a) == 1 for line in lines)


def _require_printable_monomial_image(f: MultiPoly, gamma: Mat3) -> None:
    """Refuse gamma . f before computing it when gamma is a monomial integer
    matrix and some coefficient of the result is surely too long to print.

    Such a gamma sends variable j to g_j times one variable, g_j the nonzero
    entry of column j, so it maps distinct terms to distinct terms and
    nothing cancels: the term c v^e becomes one term with coefficient
    c * prod g_j^e_j, of at least bitlen(c) + sum e_j (bitlen(g_j) - 1)
    bits.  A number of B bits is at least 2^(B - 1), which passes 10^L, and
    so has more than L digits, once B - 1 >= bitlen(10^L).  Results just
    below that bound are left to ``Domain.fmt``.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or f.domain != ZZ or not _is_monomial(gamma):
        return
    drop = [max(abs(a) for a in column).bit_length() - 1 for column in zip(*gamma.rows)]
    bits = max(
        (c.bit_length() + sum(e * d for e, d in zip(exps, drop)) for exps, c in f.terms.items()),
        default=0,
    )
    if bits - 1 >= (10**limit).bit_length():
        raise BudgetExceededError(
            f"a coefficient is too long to print: act would give one of over {limit} digits"
        )


def _emit(data) -> None:
    json.dump(data, sys.stdout, sort_keys=True, separators=(",", ":"))
    sys.stdout.write("\n")


def _read_form(path: str, mod: int | None = None) -> MultiPoly:
    text = Path(path).read_text().strip()
    if text.startswith("{"):
        f = poly_from_json(text)
    else:
        f = parse_poly(text)
    return f if mod is None else f.map_domain(GF(mod))


def _read_matrix(path: str, domain) -> Mat3:
    return mat3_from_json(Path(path).read_text(), domain)


def _cmd_disc(args) -> int:
    f = _read_form(args.form, args.mod)
    _require_disc_budget("disc", f)
    if args.mod is not None or args.raw:
        disc = elimination.discriminant(f, normalize=False)
        report = {"raw": f.domain.fmt(disc.raw), "degree_check": disc.degree_check}
        if args.mod is not None:
            report["mod"] = args.mod
        _emit(report)
        return 0
    report = elimination.discriminant(f, normalize=True)
    _emit(report.to_json_dict(f.domain.fmt))
    return 0


def _cmd_good_reduction(args) -> int:
    _require_budget("good-reduction", args.trial_bound, TRIAL_BOUND_MAX, "sieve entries")
    f = _read_form(args.form)
    _require_disc_budget("good-reduction", f)
    s = set(args.s_set)
    bad, cofactor = elimination.bad_primes(f, s, args.trial_bound)
    _emit(
        {
            "s_set": sorted(s),
            "bad_primes_outside_s": sorted(bad),
            "unfactored_cofactor": f.domain.fmt(cofactor),
            "good_reduction_outside_s": not bad and cofactor == 1,
        }
    )
    return 0


def _cmd_act(args) -> int:
    f = _read_form(args.form, args.mod)
    gamma = _read_matrix(args.gamma, f.domain)
    if args.rep == "vn":
        _require_budget("act", _act_cost_ms(f, gamma), ACT_MAX_MS, "ms of estimated work")
        _require_printable_monomial_image(f, gamma)
        result = act_ternary(gamma, f)
        _emit({"result": str(result)})
    else:
        cls = biquadratic.act_22(gamma, biquadratic.canonicalize(f))
        _emit({"result": str(cls.rep), "canonical": True})
    return 0


def _cmd_cubic_invariants(args) -> int:
    f = _read_form(args.form)
    if not (f.domain == ZZ or f.domain == QQ):
        raise DomainMismatchError("cubic invariants are defined over ZZ/QQ")
    i_val, j_val = cubic.cubic_invariants(f)
    raw = elimination.resultant_of_partials(f)
    kappa_checked = 4 * Fraction(i_val) ** 3 - Fraction(j_val) ** 2 == cubic.KAPPA * Fraction(raw)
    _emit(
        {
            "I": f.domain.fmt(i_val),
            "J": f.domain.fmt(j_val),
            "delta_IJ": f.domain.fmt(cubic.delta_from_invariants(i_val, j_val)),
            "kappa_checked": kappa_checked,
        }
    )
    return 0


def _cmd_tuple_equiv(args) -> int:
    t1 = cubic.InvariantTuple(args.t1, args.weights)
    t2 = cubic.InvariantTuple(args.t2, args.weights)
    witness = cubic.tuples_equivalent(t1, t2, set(args.s_set))
    if witness is None:
        _emit({"equivalent": False})
    else:
        _emit(
            {
                "equivalent": True,
                "alpha_candidates": [QQ.fmt(a) for a in witness.alpha_candidates],
                "alpha_power_d": QQ.fmt(witness.alpha_power_d),
                "d": witness.d,
                "s_unit": witness.s_unit,
            }
        )
    return 0


def _cmd_canonicalize(args) -> int:
    f = _read_form(args.form, args.mod)
    cls = biquadratic.canonicalize(f)
    _emit({"canonical": str(cls.rep), "is_zero_class": cls.is_zero()})
    return 0


def _cmd_covariants(args) -> int:
    f = _read_form(args.form, args.mod)
    cls = biquadratic.canonicalize(f)
    out = {}
    if args.which in ("x", "both"):
        out["sextic_x"] = str(biquadratic.covariant_x_ternary(cls))
    if args.which in ("z", "both"):
        out["sextic_z"] = str(biquadratic.covariant_z_ternary(cls))
    _emit(out)
    return 0


def _cmd_branch_check(args) -> int:
    _require_budget("branch-check", _plane_points(args.mod), BRANCH_CHECK_MAX_POINTS, "points")
    f = _read_form(args.form, args.mod)
    report = biquadratic.branch_locus_report(biquadratic.canonicalize(f))
    _emit(report.to_json_dict())
    return 0


def _cmd_generic(args) -> int:
    f = _read_form(args.form)
    generic = biquadratic.is_generic_mod_p(biquadratic.canonicalize(f), args.mod)
    _emit({"prime": args.mod, "generic": generic})
    return 0


def _cmd_lattice_enum(args) -> int:
    if args.box is not None:
        cells = (8 * args.box + 1) ** 2  # pairs of quarter-integers in the box
        _require_budget("lattice-enum", cells, LATTICE_BOX_MAX_CELLS, "grid cells")
    candidates = lattice.enumerate_isometry_candidates()
    out = {
        "count": len(candidates),
        "candidates": [c.to_json_dict() for c in candidates],
    }
    if args.box is not None:
        out["box"] = lattice.box_cross_check(args.box, candidates)
    _emit(out)
    return 0


def _cmd_verify(args) -> int:
    primes = args.primes
    if args.suite == "branch-locus":
        # each trial runs the scan of the branch-check command
        for p in primes:
            _require_budget("verify", _plane_points(p), BRANCH_CHECK_MAX_POINTS, "points")
    if args.suite == "disc-covariance":
        # degrees below 2 are refused by the suite itself, with kind "degree";
        # a trial above the table's degrees is over the bound on its own
        n = args.degree
        if n > DISC_MAX_DEGREE:
            per_trial = VERIFY_MAX_MS + 1
        elif n >= 2:
            per_trial = _disc_cost_ms(n, 5) + _disc_cost_ms(n, 3 * n + 4)
        else:
            per_trial = 0
    elif args.suite == "branch-locus":
        per_trial = sum(
            VERIFY_TRIAL_MS[args.suite] + -(-_plane_points(p) * BRANCH_POINT_US // 1000)
            for p in primes
        )
    else:
        per_trial = VERIFY_TRIAL_MS[args.suite]
    _require_budget("verify", args.trials * per_trial, VERIFY_MAX_MS, "ms of estimated work")
    cfg = SuiteConfig(
        suite=args.suite,
        seed=args.seed,
        trials=args.trials,
        domain=args.domain,
        primes=primes,
        degree=args.degree,
    )
    report = run_suite(cfg)
    _emit(report)
    return 0 if report["all_pass"] else 1


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _comma_list(convert):
    """An argument type: the comma-separated non-blank items, each converted."""

    def parse(text: str) -> tuple:
        try:
            return tuple(convert(tok) for tok in text.split(",") if tok.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


_int_list = _comma_list(int)


# One parser per process, built on the first call: building it takes
# ~1.6 ms, about fifty times what parsing one command line takes, and
# parse_args leaves the parser as it found it (each call fills a fresh
# namespace), so every main call shares it.
@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triforms",
        description="Exact invariant-theory computations for ternary and (2,2) forms",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc", help="discriminant of a ternary form")
    p.add_argument("--form", required=True)
    p.add_argument("--mod", type=int, default=None)
    p.add_argument("--raw", action="store_true", help="skip normalization")
    p.set_defaults(func=_cmd_disc)

    p = sub.add_parser("good-reduction", help="bad primes of a ternary form")
    p.add_argument("--form", required=True)
    p.add_argument("--s-set", type=_int_list, default="")
    p.add_argument("--trial-bound", type=_positive_int, default=100_000)
    p.set_defaults(func=_cmd_good_reduction)

    p = sub.add_parser("act", help="apply a matrix to a form")
    p.add_argument("--form", required=True)
    p.add_argument("--gamma", required=True, help="JSON row-major 9-array file")
    p.add_argument("--rep", choices=("vn", "v22"), default="vn")
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("cubic-invariants", help="degree 4 and 6 invariants of a cubic")
    p.add_argument("--form", required=True)
    p.set_defaults(func=_cmd_cubic_invariants)

    p = sub.add_parser("tuple-equiv", help="weighted equivalence of invariant tuples")
    p.add_argument("--t1", type=_comma_list(Fraction), required=True)
    p.add_argument("--t2", type=_comma_list(Fraction), required=True)
    p.add_argument("--weights", type=_int_list, default="4,6")
    p.add_argument("--s-set", type=_int_list, default="")
    p.set_defaults(func=_cmd_tuple_equiv)

    p = sub.add_parser("canonicalize", help="canonical (2,2)-class representative")
    p.add_argument("--form", required=True)
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=_cmd_canonicalize)

    p = sub.add_parser("covariants", help="sextic covariants of a (2,2) class")
    p.add_argument("--form", required=True)
    p.add_argument("--which", choices=("x", "z", "both"), default="both")
    p.add_argument("--mod", type=int, default=None)
    p.set_defaults(func=_cmd_covariants)

    p = sub.add_parser("branch-check", help="exhaustive branch-locus scan mod p")
    p.add_argument("--form", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=_cmd_branch_check)

    p = sub.add_parser("generic", help="good-shape test of a (2,2) class mod p")
    p.add_argument("--form", required=True)
    p.add_argument("--mod", type=int, required=True)
    p.set_defaults(func=_cmd_generic)

    p = sub.add_parser("lattice-enum", help="isometry candidates of the rank-2 pairing")
    p.add_argument("--box", type=_positive_int, default=None, help="brute-force cross-check bound")
    p.set_defaults(func=_cmd_lattice_enum)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=_positive_int, default=10)
    p.add_argument("--domain", default="QQ")
    p.add_argument("--primes", type=_int_list, default="11")
    p.add_argument("--degree", type=int, default=3)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except TriformsError as exc:
        _emit({"error": {"kind": exc.kind, "message": str(exc)}})
        return 1


if __name__ == "__main__":
    sys.exit(main())
