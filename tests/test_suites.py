"""The randomized verification suites behind the CLI verify command."""

import json

import pytest

from triforms.errors import DegreeError, TriformsError
from triforms.suites import SUITE_NAMES, SuiteConfig, run_suite


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig("disc-covariance", seed=1, trials=10, domain="GF(10007)", degree=3),
        SuiteConfig("disc-covariance", seed=1, trials=3, domain="QQ", degree=2),
        SuiteConfig("cubic-kappa", seed=2, trials=10),
        SuiteConfig("v22-welldef", seed=3, trials=10, domain="GF(101)"),
        SuiteConfig("v22-welldef", seed=3, trials=5, domain="QQ"),
        SuiteConfig("v22-covariance", seed=4, trials=8, domain="GF(101)"),
        SuiteConfig("branch-locus", seed=5, trials=3, primes=(11,)),
        SuiteConfig("lattice-enum"),
        SuiteConfig("euler", seed=6, trials=10, domain="QQ"),
        SuiteConfig("action-laws", seed=7, trials=10, domain="GF(7)"),
    ],
    ids=lambda c: f"{c.suite}-{c.domain}",
)
def test_suite_passes(cfg):
    report = run_suite(cfg)
    assert report["all_pass"], report
    assert report["trials"] == len(report["results"])


def test_reports_are_byte_deterministic():
    cfg = SuiteConfig("disc-covariance", seed=11, trials=5, domain="GF(10007)")
    first = json.dumps(run_suite(cfg), sort_keys=True)
    second = json.dumps(run_suite(cfg), sort_keys=True)
    assert first == second


def test_branch_locus_reports_single_pairing():
    report = run_suite(SuiteConfig("branch-locus", seed=12, trials=2, primes=(11,)))
    assert report["pairing_consistent"]
    assert report["pairing"]["x_projection_branch"] == "sextic_covariant_x"


def test_kappa_reported():
    report = run_suite(SuiteConfig("cubic-kappa", seed=13, trials=5))
    assert report["kappa"] == "-256"


@pytest.mark.parametrize(
    "cfg",
    [
        SuiteConfig("euler", seed=1, trials=0, domain="ZZ"),
        SuiteConfig("branch-locus", seed=1, trials=2, primes=()),
    ],
    ids=["no-trials", "no-primes"],
)
def test_report_without_trials_is_not_a_pass(cfg):
    report = run_suite(cfg)
    assert report["trials"] == 0
    assert report["all_pass"] is False


def test_negative_degree_refused():
    with pytest.raises(DegreeError):
        run_suite(SuiteConfig("disc-covariance", degree=-2))


@pytest.mark.parametrize("degree", [0, 1])
def test_disc_covariance_refuses_degrees_below_2(degree):
    # constant partials force both sides of the identity: nothing is checked
    with pytest.raises(DegreeError):
        run_suite(SuiteConfig("disc-covariance", seed=1, trials=1, domain="ZZ", degree=degree))


def test_unknown_suite_rejected():
    with pytest.raises(TriformsError):
        run_suite(SuiteConfig("nonsense"))


def test_counterexample_payload_shape():
    # suites never fail on healthy code; check the payload contract instead
    report = run_suite(SuiteConfig("euler", seed=1, trials=3, domain="ZZ"))
    for entry in report["results"]:
        assert set(entry) >= {"trial", "pass"}
        if not entry["pass"]:
            assert "counterexample" in entry


def test_all_suite_names_runnable():
    for name in SUITE_NAMES:
        cfg = SuiteConfig(
            name,
            seed=21,
            trials=2,
            domain="GF(101)" if name.startswith("v22") else "QQ",
            primes=(11,),
        )
        report = run_suite(cfg)
        assert report["all_pass"]
