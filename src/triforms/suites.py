"""Seeded randomized verification suites.

Each suite drives one family of exact identities on pseudorandom inputs and
returns a JSON-ready report: per-trial pass/fail with a counterexample
payload on failure, plus an ``all_pass`` verdict.  Identical (seed, config)
pairs reproduce identical reports byte for byte; the CLI exposes them under
``verify`` and the acceptance tests call them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from . import biquadratic, cubic, elimination, lattice
from .domains import GF, QQ, ZZ, Domain, PrimeField
from .errors import DegreeError, TriformsError
from .matrices import Mat3, act_ternary
from .poly import VARS_BIQUAD, VARS_XYZ, MultiPoly, euler_contraction

SUITE_NAMES = (
    "disc-covariance",
    "cubic-kappa",
    "v22-welldef",
    "v22-covariance",
    "branch-locus",
    "lattice-enum",
    "euler",
    "action-laws",
)

# branch-locus draws classes until `trials` of them are generic, and stops
# after DRAWS_PER_TRIAL draws per requested trial.
DRAWS_PER_TRIAL = 40


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int = 1
    trials: int = 10
    domain: str = "QQ"  # "ZZ" | "QQ" | "GF(p)"
    primes: tuple[int, ...] = (11,)
    degree: int = 3

    def resolve_domain(self) -> Domain:
        name = self.domain.strip()
        if name == "ZZ":
            return ZZ
        if name == "QQ":
            return QQ
        if name.startswith("GF(") and name.endswith(")"):
            try:
                return GF(int(name[3:-1]))
            except ValueError:
                pass
        raise TriformsError(f"unknown domain {name!r}")


# -- samplers -------------------------------------------------------------


def random_scalar(dom: Domain, rng: Random, bound: int = 9):
    """An integer in [-bound, bound], over QQ divided by 1, 2 or 3; over GF(p) any residue."""
    if isinstance(dom, PrimeField):
        return rng.randrange(dom.p)
    if dom == QQ:
        return Fraction(rng.randint(-bound, bound), rng.choice((1, 1, 1, 2, 3)))
    return rng.randint(-bound, bound)


def _monomials(degree: int) -> list[tuple[int, int, int]]:
    """The ternary monomials of a degree, x-exponent descending, then y's."""
    return [
        (a, b, degree - a - b) for a in range(degree, -1, -1) for b in range(degree - a, -1, -1)
    ]


def random_form(dom: Domain, rng: Random, degree: int, bound: int = 9) -> MultiPoly:
    if degree < 0:
        raise DegreeError(f"no nonzero form of degree {degree}")
    monos = _monomials(degree)
    while True:
        f = MultiPoly(dom, VARS_XYZ, {m: random_scalar(dom, rng, bound) for m in monos})
        if not f.is_zero():
            return f


def random_matrix(dom: Domain, rng: Random, bound: int = 4) -> Mat3:
    return Mat3(dom, [[random_scalar(dom, rng, bound) for _ in range(3)] for _ in range(3)])


def random_invertible(dom: Domain, rng: Random, bound: int = 4) -> Mat3:
    while True:
        m = random_matrix(dom, rng, bound)
        if not dom.is_zero(m.det()):
            return m


def random_form22(dom: Domain, rng: Random, bound: int = 6) -> MultiPoly:
    return MultiPoly(
        dom, VARS_BIQUAD, {m: random_scalar(dom, rng, bound) for m in biquadratic._MONOMIALS_22}
    )


def random_bilinear(dom: Domain, rng: Random, bound: int = 6) -> MultiPoly:
    terms = {}
    for i in range(3):
        for j in range(3):
            e = [0] * 6
            e[i] += 1
            e[3 + j] += 1
            terms[tuple(e)] = random_scalar(dom, rng, bound)
    return MultiPoly(dom, VARS_BIQUAD, terms)


# -- individual suites -----------------------------------------------------


def _report(cfg: SuiteConfig, results: list[dict]) -> dict:
    return {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "trials": len(results),
        "config": {
            "domain": cfg.domain,
            "primes": list(cfg.primes),
            "degree": cfg.degree,
        },
        "results": results,
        # a report with no trials shows nothing, so it is not a pass
        "all_pass": bool(results) and all(r["pass"] for r in results),
    }


def suite_disc_covariance(cfg: SuiteConfig) -> dict:
    n = cfg.degree
    if n < 2:
        # a constant form has zero partials, which force both sides of the
        # identity to 0, so nothing would be checked; a linear form's
        # partials are constants, which have no resultant
        raise DegreeError(f"disc-covariance needs degree >= 2, got {n}")
    rng = Random(cfg.seed)
    dom = cfg.resolve_domain()
    results = []
    for trial in range(cfg.trials):
        f = random_form(dom, rng, n, 5)
        gamma = random_invertible(dom, rng, 3)
        lhs = elimination.resultant_of_partials(act_ternary(gamma, f))
        factor = dom.pow(gamma.det(), n * (n - 1) ** 2)
        rhs = dom.mul(factor, elimination.resultant_of_partials(f))
        ok = lhs == rhs
        entry = {"trial": trial, "pass": ok}
        if not ok:
            entry["counterexample"] = {"f": str(f), "gamma": gamma.to_json_list()}
        results.append(entry)
    return _report(cfg, results)


def suite_cubic_kappa(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    results = []
    kappa = None
    for trial in range(cfg.trials):
        f = random_form(ZZ, rng, 3, 7)
        raw = elimination.resultant_of_partials(f)
        lhs = 4 * cubic.cubic_I(f) ** 3 - cubic.cubic_J(f) ** 2
        if raw == 0:
            ok = lhs == 0
        elif kappa is None:
            kappa = Fraction(lhs) / raw
            ok = kappa == cubic.KAPPA
        else:
            ok = lhs == kappa * raw
        entry = {"trial": trial, "pass": bool(ok)}
        if not ok:
            entry["counterexample"] = {"f": str(f), "lhs": str(lhs), "raw": str(raw)}
        results.append(entry)
    report = _report(cfg, results)
    report["kappa"] = str(kappa) if kappa is not None else None
    return report


def suite_v22_welldef(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    dom = cfg.resolve_domain()
    results = []
    for trial in range(cfg.trials):
        f = random_form22(dom, rng)
        L = random_bilinear(dom, rng)
        ok = biquadratic.verify_well_defined(f, L)
        entry = {"trial": trial, "pass": ok}
        if not ok:
            entry["counterexample"] = {"f": str(f), "L": str(L)}
        results.append(entry)
    return _report(cfg, results)


def suite_v22_covariance(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    dom = cfg.resolve_domain()
    results = []
    for trial in range(cfg.trials):
        cls = biquadratic.canonicalize(random_form22(dom, rng))
        gamma = random_invertible(dom, rng)
        moved = biquadratic.act_22(gamma, cls)
        lhs_x = biquadratic.covariant_x_ternary(moved)
        rhs_x = (
            biquadratic.covariant_x_ternary(cls)
            .substitute_linear(gamma.rows)
            .scale(dom.pow(gamma.det(), 2))
        )
        lhs_z = biquadratic.covariant_z_ternary(moved)
        rhs_z = biquadratic.covariant_z_ternary(cls).substitute_linear(
            gamma.cofactor_matrix().rows
        )
        ok = lhs_x == rhs_x and lhs_z == rhs_z
        entry = {"trial": trial, "pass": ok}
        if not ok:
            entry["counterexample"] = {"F": str(cls.rep), "gamma": gamma.to_json_list()}
        results.append(entry)
    return _report(cfg, results)


def suite_branch_locus(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    results = []
    pairings = set()
    for p in cfg.primes:
        field = GF(p)
        found = 0
        attempts = 0
        while found < cfg.trials and attempts < DRAWS_PER_TRIAL * cfg.trials:
            attempts += 1
            cls = biquadratic.canonicalize(random_form22(field, rng))
            try:
                if not biquadratic.is_generic_mod_p(cls, p):
                    continue
                report = biquadratic.branch_locus_report(cls)
            except TriformsError:
                continue
            found += 1
            pairings.add(tuple(sorted(report.pairing.items())))
            entry = {
                "trial": found - 1,
                "prime": p,
                "pass": report.consistent,
                "points_checked": report.points_checked,
            }
            if not report.consistent:
                entry["counterexample"] = report.to_json_dict()["counterexamples"]
            results.append(entry)
    out = _report(cfg, results)
    out["pairing_consistent"] = len(pairings) == 1
    if pairings:
        out["pairing"] = dict(sorted(pairings)[0])
    return out


def suite_lattice_enum(cfg: SuiteConfig) -> dict:
    cands = lattice.enumerate_isometry_candidates()
    closure = lattice.inverse_closure_report(cands)
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    checks = {
        "finite": len(cands),
        "contains_identity": any(c.entries == identity for c in cands),
        "gram_preserved_all": all(c.residual_zero for c in cands),
        "quarter_integral_all": all(c.quarter_integral for c in cands),
        "box_agreement": lattice.box_cross_check(20, cands)["agrees_with_enumeration"],
        "closure_violations": len(closure["closure_violations"]),
    }
    ok = (
        checks["contains_identity"]
        and checks["gram_preserved_all"]
        and checks["quarter_integral_all"]
        and checks["box_agreement"]
        and checks["closure_violations"] == 0
    )
    results = [{"trial": 0, "pass": ok, "checks": {k: (v if isinstance(v, (int, bool)) else str(v)) for k, v in checks.items()}}]
    return _report(cfg, results)


def suite_euler(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    dom = cfg.resolve_domain()
    results = []
    for trial in range(cfg.trials):
        n = 2 + rng.randrange(4)
        f = random_form(dom, rng, n, 9)
        ok = euler_contraction(f) == f.scale(dom.from_int(n))
        entry = {"trial": trial, "pass": ok, "degree": n}
        if not ok:
            entry["counterexample"] = {"f": str(f)}
        results.append(entry)
    return _report(cfg, results)


def suite_action_laws(cfg: SuiteConfig) -> dict:
    rng = Random(cfg.seed)
    dom = cfg.resolve_domain()
    results = []
    for trial in range(cfg.trials):
        f = random_form(dom, rng, 2 + rng.randrange(3), 4)
        g1 = random_invertible(dom, rng)
        g2 = random_invertible(dom, rng)
        composed = act_ternary(g1 @ g2, f)
        nested = act_ternary(g1, act_ternary(g2, f))
        ok = composed == nested
        # cofactor multiplicativity rides along
        ok = ok and (g1 @ g2).cofactor_matrix() == g1.cofactor_matrix() @ g2.cofactor_matrix()
        entry = {"trial": trial, "pass": ok}
        if not ok:
            entry["counterexample"] = {
                "f": str(f),
                "gamma1": g1.to_json_list(),
                "gamma2": g2.to_json_list(),
            }
        results.append(entry)
    return _report(cfg, results)


_SUITES = {
    "disc-covariance": suite_disc_covariance,
    "cubic-kappa": suite_cubic_kappa,
    "v22-welldef": suite_v22_welldef,
    "v22-covariance": suite_v22_covariance,
    "branch-locus": suite_branch_locus,
    "lattice-enum": suite_lattice_enum,
    "euler": suite_euler,
    "action-laws": suite_action_laws,
}


def run_suite(cfg: SuiteConfig) -> dict:
    if cfg.suite not in _SUITES:
        raise TriformsError(f"unknown suite {cfg.suite!r}; choose from {SUITE_NAMES}")
    return _SUITES[cfg.suite](cfg)
