"""CLI dispatch, output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from triforms import cli
from triforms.domains import QQ, ZZ
from triforms.intutil import PRIME_PROOF_LIMIT
from triforms.matrices import act_ternary, mat3_from_json
from triforms.poly import VARS_XYZ, MultiPoly, parse_poly
from triforms.suites import _monomials, random_form

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
# the package's source first on the child's path, as pytest's own
# ``pythonpath`` setting reaches only the pytest process
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "triforms.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    return proc


def test_disc_fermat4():
    proc = run_cli("disc", "--form", str(FIXTURES / "fermat4.txt"))
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["raw"] == str(2**54)
    assert data["constant"] == "16384"
    assert data["degree_check"] == 27
    assert int(data["normalized"]) * 16384 == 2**54


def test_disc_raw_and_mod():
    proc = run_cli("disc", "--form", str(FIXTURES / "fermat4.txt"), "--mod", "5")
    data = json.loads(proc.stdout)
    assert proc.returncode == 0
    assert int(data["raw"]) == 2**54 % 5


def test_disc_singular_form_reports_zero():
    proc = run_cli("disc", "--form", str(FIXTURES / "xyz.txt"))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["normalized"] == "0"


def test_disc_normalizes_a_quintic(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("x^5 + y^5 + z^5 - 2*x^2*y*z^2\n")
    assert cli.main(["disc", "--form", str(form)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["constant"] == "1220703125" == str(5**13)
    assert int(data["normalized"]) * 5**13 == int(data["raw"]) != 0


@pytest.mark.parametrize(
    "args", [["disc"], ["disc", "--raw"], ["disc", "--mod", "7"], ["good-reduction"]],
    ids=["disc", "disc-raw", "disc-mod", "good-reduction"],
)
def test_disc_degree_over_its_bound_refused(args, tmp_path, capsys):
    # refused before any resultant is computed: a raw discriminant one
    # degree above the bound takes seconds
    n = cli.DISC_MAX_DEGREE + 1
    form = tmp_path / "form.txt"
    form.write_text(f"x^{n} + y^{n} + z^{n} + x*y^{n - 1}\n")
    start = time.perf_counter()
    assert cli.main([args[0], "--form", str(form), *args[1:]]) == 1
    assert time.perf_counter() - start < 0.2
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "budget"


def _tall_sextic(domain):
    """A dense sextic with 100-digit coefficients; over QQ, numerators below
    10 over 100-digit denominators, which are as tall once cleared."""
    rng = Random(100)
    if domain == "ZZ":
        return str(random_form(ZZ, rng, 6, 10**100))
    terms = {m: Fraction(rng.randint(1, 9), 10**99 + rng.randrange(10**99)) for m in _monomials(6)}
    return str(MultiPoly(QQ, VARS_XYZ, terms))


@pytest.mark.parametrize("domain", ["ZZ", "QQ"])
@pytest.mark.parametrize("args", [["disc"], ["disc", "--raw"], ["good-reduction"]],
                         ids=["disc", "disc-raw", "good-reduction"])
def test_disc_of_a_tall_sextic_refused(args, domain, tmp_path, capsys):
    # its raw discriminant takes minutes; the bound reads the coefficients'
    # height and refuses before computing
    form = tmp_path / "form.txt"
    form.write_text(_tall_sextic(domain))
    start = time.perf_counter()
    assert cli.main([args[0], "--form", str(form), *args[1:]]) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "budget"


def test_disc_mod_p_of_a_tall_sextic_answers(tmp_path, capsys):
    # reduced mod p first, its height costs nothing
    form = tmp_path / "form.txt"
    form.write_text(_tall_sextic("ZZ"))
    assert cli.main(["disc", "--form", str(form), "--mod", "10007", "--raw"]) == 0
    assert set(json.loads(capsys.readouterr().out)) == {"raw", "degree_check", "mod"}


def test_one_digit_octics_still_answer(tmp_path, capsys):
    # a dense one-digit octic (~3 s) is within both commands' bound
    dense = random_form(ZZ, Random(8), 8, 9)
    for command in ("disc", "good-reduction"):
        cli._require_disc_budget(command, dense)
    form = tmp_path / "form.txt"
    form.write_text("x^8 + y^8 + z^8\n")
    assert cli.main(["disc", "--form", str(form)]) == 0
    assert json.loads(capsys.readouterr().out)["constant"] == str(8**43)


def test_good_reduction_fermat4():
    proc = run_cli("good-reduction", "--form", str(FIXTURES / "fermat4.txt"), "--s-set", "2")
    data = json.loads(proc.stdout)
    assert data["bad_primes_outside_s"] == []
    assert data["unfactored_cofactor"] == "1"
    assert data["good_reduction_outside_s"] is True
    proc = run_cli("good-reduction", "--form", str(FIXTURES / "fermat4.txt"))
    data = json.loads(proc.stdout)
    assert data["bad_primes_outside_s"] == [2]


def _gf_cubic(tmp_path, p):
    """x^3 + y^3 + z^3 + 2xyz as a JSON form over GF(p)."""
    terms = [{"e": e, "c": c} for e, c in (([3, 0, 0], 1), ([0, 3, 0], 1), ([0, 0, 3], 1),
                                           ([1, 1, 1], 2))]
    form = tmp_path / "form.json"
    form.write_text(json.dumps({"vars": ["x", "y", "z"], "p": p, "terms": terms}))
    return str(form)


@pytest.mark.parametrize("p", [11, 13])
def test_good_reduction_refuses_a_form_over_gf_p(p, tmp_path, capsys):
    # a residue of the raw discriminant has no bad primes: GF(11) once
    # answered [7] by trial-factoring it, GF(13) "good everywhere"
    assert cli.main(["good-reduction", "--form", _gf_cubic(tmp_path, p)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "domain-mismatch"


@pytest.mark.parametrize("p", [11, 13])
def test_cubic_invariants_refuses_a_form_over_gf_p(p, tmp_path, capsys):
    # residues compared as rationals once gave kappa_checked false
    assert cli.main(["cubic-invariants", "--form", _gf_cubic(tmp_path, p)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "domain-mismatch"


def test_act_subcommand(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(["1", "0", "0", "0", "1", "0", "0", "0", "2"]))
    proc = run_cli("act", "--form", str(FIXTURES / "fermat2.txt"), "--gamma", str(gamma))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "x^2 + y^2 + 4*z^2"


def _dense_act_files(tmp_path, degree, gamma_bound=4):
    rng = Random(degree)
    form = tmp_path / "form.txt"
    form.write_text(str(random_form(ZZ, rng, degree)))
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps([str(rng.randint(1, gamma_bound)) for _ in range(9)]))
    return str(form), str(gamma)


@pytest.mark.parametrize(
    "degree, gamma_bound", [(80, 4), (40, 4), (12, 10**1000)],
    ids=["degree-80", "degree-40", "tall-gamma"],
)
def test_act_over_its_bound_refused(degree, gamma_bound, tmp_path, capsys):
    # a dense degree-80 form took 47 s and one of degree 40 with a dense
    # gamma 35 s; 1000-digit gamma entries at degree 12 took 19 s
    form, gamma = _dense_act_files(tmp_path, degree, gamma_bound)
    start = time.perf_counter()
    assert cli.main(["act", "--form", form, "--gamma", gamma]) == 1
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "budget"


def test_act_within_its_bound_answers(tmp_path, capsys):
    form, gamma = _dense_act_files(tmp_path, 12)
    assert cli.main(["act", "--form", form, "--gamma", gamma]) == 0
    f = parse_poly(Path(form).read_text())
    expected = act_ternary(mat3_from_json(Path(gamma).read_text(), ZZ), f)
    assert json.loads(capsys.readouterr().out) == {"result": str(expected)}


@pytest.mark.parametrize(
    "entries", [(1, 0, 0, 0, 1, 0, 0, 0, 2), (0, 3, 0, 0, 0, -2, 1, 0, 0)],
    ids=["diagonal", "scaled-permutation"],
)
def test_act_with_a_monomial_gamma_answers_at_degree_40(entries, tmp_path, capsys):
    # a gamma with one nonzero entry in each row and column maps each term
    # to one term, ~20 ms on a dense degree-40 form; charged as a dense
    # gamma, the estimate was 83 s
    form, _ = _dense_act_files(tmp_path, 40)
    gamma = tmp_path / "monomial.json"
    gamma.write_text(json.dumps([str(a) for a in entries]))
    assert cli.main(["act", "--form", form, "--gamma", str(gamma)]) == 0
    f = parse_poly(Path(form).read_text())
    expected = act_ternary(mat3_from_json(gamma.read_text(), ZZ), f)
    assert json.loads(capsys.readouterr().out) == {"result": str(expected)}


@pytest.mark.parametrize("digits, printable", [(100, True), (1000, False)])
def test_act_with_a_tall_monomial_gamma_finishes_at_degree_40(digits, printable, tmp_path, capsys):
    # charged by the squared height factor, 10**1000 entries were refused
    # up front (estimate 149 s) although the substitution takes ~1.3-2 s;
    # its 40 000-digit coefficients are too long to print, and are refused,
    # while 10**100 entries print coefficients of 4001 digits
    form, _ = _dense_act_files(tmp_path, 40)
    big = str(10**digits)
    gamma = tmp_path / "tall.json"
    gamma.write_text(json.dumps(["0", big, "0", "0", "0", "-" + big, big, "0", "0"]))
    f = parse_poly(Path(form).read_text())
    assert cli._act_cost_ms(f, mat3_from_json(gamma.read_text(), ZZ)) <= cli.ACT_MAX_MS
    start = time.perf_counter()
    code = cli.main(["act", "--form", form, "--gamma", str(gamma)])
    assert time.perf_counter() - start < 5
    out = json.loads(capsys.readouterr().out)
    if printable:
        assert code == 0
        assert out == {"result": str(act_ternary(mat3_from_json(gamma.read_text(), ZZ), f))}
    else:
        assert code == 1
        assert out["error"]["kind"] == "budget"
        assert "too long to print" in out["error"]["message"]


@pytest.mark.parametrize("domain_flag", [[], ["--mod", "101"]], ids=["ZZ", "GF101"])
def test_act_refuses_an_unprintable_monomial_image_before_computing(
    domain_flag, tmp_path, capsys, monkeypatch
):
    # a monomial gamma cancels nothing, so 10**1000 entries on a degree-40
    # form surely give a coefficient of over 4300 digits; over ZZ that is
    # refused without substituting, while over GF(101) nothing grows
    form, _ = _dense_act_files(tmp_path, 40)
    big = str(10**1000)
    gamma = tmp_path / "tall.json"
    gamma.write_text(json.dumps(["0", big, "0", "0", "0", "-" + big, big, "0", "0"]))
    computed = []
    monkeypatch.setattr(cli, "act_ternary", lambda g, f: computed.append(f) or f)
    code = cli.main(["act", "--form", form, "--gamma", str(gamma), *domain_flag])
    out = json.loads(capsys.readouterr().out)
    if domain_flag:
        assert (code, len(computed)) == (0, 1)
    else:
        assert (code, computed) == (1, [])
        assert out["error"]["kind"] == "budget"
        assert out["error"]["message"].startswith("a coefficient is too long to print")


def test_covariants_too_long_to_print_refused(tmp_path, capsys):
    # 3000-digit coefficients give covariant coefficients of ~6000 digits,
    # past Python's limit on printing an integer; the CLI used to leak its
    # ValueError as a traceback
    tall = "7" * 3000
    form = tmp_path / "form.txt"
    form.write_text(f"{tall}*x1^2*z1^2 + {tall}*x2^2*z2^2 + x3^2*z3^2 + x1*x2*z1*z3")
    assert cli.main(["covariants", "--form", str(form)]) == 1
    assert json.loads(capsys.readouterr().out)["error"]["kind"] == "budget"


@pytest.mark.parametrize(
    "command, text",
    [
        (["disc"], "quartic-170"),
        (["disc", "--raw"], "quartic-170"),
        (["good-reduction", "--s-set", "2"], "quartic-170"),
        (["cubic-invariants"], "cubic-1000"),
        (["disc"], "1" * 5001 + "*x^2 + y^2 + z^2"),
        (["disc"], "x^" + "9" * 5000 + " + y^2 + z^2"),
    ],
    ids=["disc", "disc-raw", "good-reduction", "cubic-invariants", "long-literal",
         "long-exponent"],
)
def test_numbers_past_the_int_str_limit_are_refused_with_budget(command, text, tmp_path, capsys):
    # a dense quartic with 170-digit coefficients passes the disc budget
    # (estimate 9782 ms) and has a raw value of 4602 digits; the cubic
    # invariants of 1000-digit coefficients pass 4300 digits as well, and
    # the last two inputs cannot be read
    shapes = {"quartic-170": (4, 10**170), "cubic-1000": (3, 10**1000)}
    form = tmp_path / "form.txt"
    form.write_text(str(random_form(ZZ, Random(28), *shapes[text])) if text in shapes else text)
    assert cli.main([*command, "--form", str(form)]) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["kind"] == "budget" and "is too long to" in error["message"]
    assert "Traceback" not in err


def test_tuple_equiv_past_the_int_str_limit_is_refused_with_budget(capsys):
    big = "1" + "0" * 4000
    args = ["tuple-equiv", "--t1", f"1/{big},0", "--t2", f"{big},0", "--weights", "2,2"]
    assert cli.main(args) == 1
    out, err = capsys.readouterr()
    error = json.loads(out)["error"]
    assert error["kind"] == "budget" and "is too long to" in error["message"]
    assert "Traceback" not in err


def test_zero_denominator_in_a_text_form_is_a_parse_error(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("1/0*x^2 + y^2 + z^2")
    assert cli.main(["disc", "--form", str(form)]) == 2
    assert "zero denominator" in capsys.readouterr().err


def test_act_twisted_representation(tmp_path):
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps(["2", "0", "0", "0", "2", "0", "0", "0", "2"]))
    proc = run_cli(
        "act", "--form", str(FIXTURES / "diag22_cycle.txt"), "--gamma", str(gamma),
        "--rep", "v22",
    )
    assert proc.returncode == 0
    # u = 2 acts on a (2,2) class by u^6 = 64
    data = json.loads(proc.stdout)
    assert data["result"].startswith("64*")


def test_cubic_invariants_subcommand():
    proc = run_cli("cubic-invariants", "--form", str(FIXTURES / "fermat3.txt"))
    data = json.loads(proc.stdout)
    assert data["I"] == "0"
    assert data["J"] == "-11664"
    assert data["kappa_checked"] is True


def test_tuple_equiv_subcommand():
    proc = run_cli(
        "tuple-equiv", "--t1", "1,1", "--t2", "16,64", "--weights", "4,6", "--s-set", "2"
    )
    data = json.loads(proc.stdout)
    assert data["equivalent"] is True
    assert data["alpha_power_d"] == "4"
    assert data["s_unit"] is True


def test_tuple_equiv_beyond_float_range():
    big = 10**400
    proc = run_cli("tuple-equiv", "--t1", "1,1", "--t2", f"{big},{big * 10**200}")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["equivalent"] is True
    assert data["alpha_power_d"] == str(10**200)
    proc = run_cli("tuple-equiv", "--t1", "1,1", "--t2", f"{2 * big},{big}")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"equivalent": False}


def test_tuple_equiv_with_huge_weights_answers_at_once(capsys):
    # no root or power of the weights' size is built: a root of order at
    # least the radicand's bit length is 1, and a candidate whose power
    # would outgrow the target is rejected by bit length
    for weights in ("1000000000000000000,1500000000000000000", "4,1000000000000000000"):
        start = time.perf_counter()
        argv = ["tuple-equiv", "--t1", "1,1", "--t2", "16,64", "--weights", weights,
                "--s-set", "2"]
        assert cli.main(argv) == 0
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out) == {"equivalent": False}


def test_main_is_stateless_with_its_shared_parser(tmp_path, capsys):
    # one parser serves every call in a process; each call's output and exit
    # code must be those of a fresh interpreter, whatever ran before it
    fermat3 = str(FIXTURES / "fermat3.txt")
    fermat4 = str(FIXTURES / "fermat4.txt")
    calls = [
        (["disc", "--form", fermat3], 0),
        (["disc", "--form", fermat3, "--mod"], 2),
        (["good-reduction", "--form", _gf_cubic(tmp_path, 11)], 1),
        (["good-reduction", "--form", fermat4, "--s-set", "2"], 0),
        (["good-reduction", "--form", fermat4], 0),
        (["disc", "--form", fermat3], 0),
    ]
    for argv, code in calls:
        assert cli.main(argv) == code, argv
        out = capsys.readouterr().out
        proc = run_cli(*argv)
        assert (out, code) == (proc.stdout, proc.returncode), argv
        if code == 1:
            assert json.loads(out)["error"]["kind"] == "domain-mismatch"
    assert json.loads(out)["raw"] != "0"


def test_canonicalize_subcommand():
    proc = run_cli("canonicalize", "--form", str(FIXTURES / "sigma_squared.txt"))
    data = json.loads(proc.stdout)
    assert data["is_zero_class"] is True


def test_covariants_subcommand():
    proc = run_cli("covariants", "--form", str(FIXTURES / "diag22_cycle.txt"), "--which", "x")
    data = json.loads(proc.stdout)
    assert data["sextic_x"] == "x1^4*x2^2 + x1^2*x3^4 + x2^4*x3^2"


def test_generic_subcommand():
    proc = run_cli("generic", "--form", str(FIXTURES / "diag22_same.txt"), "--mod", "11")
    assert json.loads(proc.stdout) == {"generic": False, "prime": 11}


def test_branch_check_degenerate_class_errors():
    proc = run_cli("branch-check", "--form", str(FIXTURES / "diag22_same.txt"), "--mod", "11")
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["error"]["kind"] == "degenerate-point"


@pytest.mark.parametrize(
    "args",
    [
        ("branch-check", "--form", str(FIXTURES / "diag22_same.txt"), "--mod", "100003"),
        ("lattice-enum", "--box", "400"),
        ("verify", "--suite", "branch-locus", "--primes", "11,100003"),
        ("verify", "--suite", "disc-covariance", "--degree", "8", "--trials", "1"),
        ("verify", "--suite", "disc-covariance", "--degree", "10000000000", "--trials", "1"),
        ("verify", "--suite", "disc-covariance", "--degree", "7", "--trials", "2"),
        ("verify", "--suite", "disc-covariance", "--degree", "3", "--trials", "100000"),
        ("verify", "--suite", "euler", "--trials", "10001"),
        ("verify", "--suite", "cubic-kappa", "--trials", "10001"),
        ("verify", "--suite", "action-laws", "--trials", "1251"),
        ("verify", "--suite", "v22-welldef", "--trials", "501"),
        ("verify", "--suite", "v22-covariance", "--trials", "167"),
        ("verify", "--suite", "branch-locus", "--primes", "11", "--trials", "84"),
        ("verify", "--suite", "branch-locus", "--primes", "5,7", "--trials", "42"),
        ("good-reduction", "--form", str(FIXTURES / "fermat4.txt"), "--trial-bound", "10000001"),
    ],
    ids=[
        "branch-check", "lattice-enum", "verify-branch-locus",
        "disc-covariance-8", "disc-covariance-huge", "disc-covariance-7x2",
        "disc-covariance-trials", "euler-trials", "cubic-kappa-trials", "action-laws-trials",
        "v22-welldef-trials", "v22-covariance-trials", "branch-locus-trials",
        "branch-locus-trials-per-prime", "trial-bound",
    ],
)
def test_unbounded_scans_refused_with_budget_error(args):
    start = time.perf_counter()
    proc = run_cli(*args)
    assert time.perf_counter() - start < 5
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "budget"


GENERIC_22 = (
    "x1^2*z3^2 - x1*x2*z1*z2 - x1*x2*z2^2 + x1*x3*z2^2 - x2^2*z1*z3 + 2*x3^2*z1^2 - x3^2*z2^2"
)


@pytest.mark.parametrize("prime", ["41", "100003"], ids=["generic-41", "generic"])
def test_generic_answers_at_any_prime(prime, tmp_path):
    # genericity is a rank certificate, so it scans no points and has no bound
    form = tmp_path / "form.txt"
    form.write_text(GENERIC_22 + "\n")
    for path, generic in ((form, True), (FIXTURES / "diag22_same.txt", False)):
        start = time.perf_counter()
        proc = run_cli("generic", "--form", str(path), "--mod", prime)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"generic": generic, "prime": int(prime)}


@pytest.mark.parametrize(
    "prime", [PRIME_PROOF_LIMIT, 2**127 - 1, 2**4423 - 1], ids=["limit", "m127", "m4423"]
)
def test_primes_beyond_the_proof_limit_are_refused(prime, tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text(GENERIC_22 + "\n")
    commands = [
        ("generic", "--form", str(form)),
        ("covariants", "--form", str(form)),
        ("canonicalize", "--form", str(form)),
        ("disc", "--form", str(FIXTURES / "fermat4.txt")),
    ]
    for command in commands:
        start = time.perf_counter()
        assert cli.main([*command, "--mod", str(prime)]) == 1
        assert time.perf_counter() - start < 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "bad-prime"


def test_largest_prime_below_the_proof_limit_answers(tmp_path, capsys):
    prime = PRIME_PROOF_LIMIT - 1
    form = tmp_path / "form.txt"
    form.write_text(GENERIC_22 + "\n")
    assert cli.main(["generic", "--form", str(form), "--mod", str(prime)]) == 0
    assert json.loads(capsys.readouterr().out) == {"generic": True, "prime": prime}
    assert cli.main(["disc", "--form", str(FIXTURES / "fermat4.txt"), "--mod", str(prime)]) == 0
    assert json.loads(capsys.readouterr().out)["raw"] == str(2**54 % prime)


def test_integer_discriminant_whose_retries_all_degenerate_is_zero(tmp_path, capsys):
    form = tmp_path / "form.txt"
    form.write_text("6*x^3*z - 7*x^2*z^2 - 4*x*y*z^2 + 4*x*z^3\n")
    assert cli.main(["disc", "--form", str(form)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["raw"], report["normalized"]) == ("0", "0")


@pytest.mark.parametrize(
    "args, code",
    [
        (["tuple-equiv", "--t1", "1/0,1", "--t2", "1,1"], 2),
        (["tuple-equiv", "--t1", "x,1", "--t2", "1,1"], 2),
        (["tuple-equiv", "--t1", "1,1", "--t2", "1,1", "--weights", "a,b"], 2),
        (["tuple-equiv", "--t1", "1,1", "--t2", "1,1", "--s-set", "x"], 2),
        (["good-reduction", "--form", str(FIXTURES / "fermat4.txt"), "--s-set", "2,x"], 2),
        (["verify", "--suite", "euler", "--primes", "x"], 2),
        (["verify", "--suite", "euler", "--domain", "GF(x)"], 1),
    ],
    ids=["t1-zero-den", "t1-word", "weights", "tuple-s-set", "good-reduction-s-set",
         "verify-primes", "verify-domain"],
)
def test_malformed_lists_are_refused_without_traceback(args, code, capsys):
    assert cli.main(args) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 1:
        assert json.loads(out)["error"]["kind"] == "error"


@pytest.mark.parametrize(
    "text",
    [
        '{"vars": ["x", "y", "z"], "terms": [{"e": [1, 0, 0]}]}',
        '{"vars": ["x", "y", "z"], "p": "abc", "terms": []}',
        '{"vars": ["x", "y", "z"], "terms": 3}',
    ],
    ids=["term-without-c", "word-prime", "terms-not-a-list"],
)
def test_malformed_json_forms_are_parse_errors(text, tmp_path, capsys):
    form = tmp_path / "form.json"
    form.write_text(text)
    assert cli.main(["cubic-invariants", "--form", str(form)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_scans_within_budget_still_answer():
    proc = run_cli("branch-check", "--form", str(FIXTURES / "diag22_cycle.txt"), "--mod", "11")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["points_checked"] == 2 * (11 * 11 + 11 + 1)
    proc = run_cli("lattice-enum", "--box", "20")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["box"]["agrees_with_enumeration"]


def test_every_suite_has_a_trial_cost():
    from triforms.cli import VERIFY_TRIAL_MS
    from triforms.suites import SUITE_NAMES

    assert set(VERIFY_TRIAL_MS) | {"disc-covariance"} == set(SUITE_NAMES)


def test_trial_bound_at_its_limit_still_answers():
    form = str(FIXTURES / "fermat4.txt")
    proc = run_cli("good-reduction", "--form", form, "--trial-bound", "10000000")
    assert proc.returncode == 0
    assert proc.stdout == run_cli("good-reduction", "--form", form).stdout


def test_disc_covariance_within_budget_still_answers():
    proc = run_cli(
        "verify", "--suite", "disc-covariance", "--seed", "1", "--trials", "200",
        "--domain", "GF(10007)", "--degree", "3",
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["all_pass"] is True


@pytest.mark.parametrize("degree", ["0", "1", "-2"])
def test_disc_covariance_refuses_degree_below_2(degree):
    # a constant form has zero partials, so a degree-0 trial checked nothing
    proc = run_cli(
        "verify", "--suite", "disc-covariance", "--degree", degree, "--trials", "1",
        "--domain", "ZZ",
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "degree"


def test_lattice_enum_subcommand():
    proc = run_cli("lattice-enum")
    data = json.loads(proc.stdout)
    assert data["count"] == 16
    matrices = [c["matrix"] for c in data["candidates"]]
    assert [["1", "0"], ["0", "1"]] in matrices
    assert [["-1", "4"], ["0", "1"]] in matrices


def test_verify_subcommand_deterministic():
    args = (
        "verify", "--suite", "euler", "--seed", "7", "--trials", "5", "--domain", "QQ"
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["all_pass"] is True


def test_verify_unknown_suite_exits_2():
    proc = run_cli("verify", "--suite", "nonsense")
    assert proc.returncode == 2


def test_verify_has_no_jobs_flag():
    proc = run_cli("verify", "--suite", "euler", "--jobs", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_malformed_polynomial_exits_2(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("x^^2 + ")
    proc = run_cli("disc", "--form", str(bad))
    assert proc.returncode == 2
    assert proc.stdout == ""


def test_missing_file_exits_2():
    proc = run_cli("disc", "--form", "/nonexistent/path.txt")
    assert proc.returncode == 2


def test_math_error_carries_kind(tmp_path):
    # degree-1 form: discriminant precondition fails
    linear = tmp_path / "linear.txt"
    linear.write_text("x + y + z")
    proc = run_cli("disc", "--form", str(linear))
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["error"]["kind"] == "degree"


@pytest.mark.parametrize("text", ["7", "x + 2*y - z", "x^2 + y"])
@pytest.mark.parametrize("mode", [["--raw"], ["--mod", "5"]])
def test_disc_raw_and_mod_refuse_what_plain_disc_refuses(text, mode, tmp_path, capsys):
    # constant and linear forms have no discriminant, and a non-homogeneous
    # polynomial no degree, in every mode of disc
    form = tmp_path / "form.txt"
    form.write_text(text)
    assert cli.main(["disc", "--form", str(form)]) == 1
    plain = json.loads(capsys.readouterr().out)
    assert plain["error"]["kind"] == "degree"
    assert cli.main(["disc", "--form", str(form), *mode]) == 1
    assert json.loads(capsys.readouterr().out) == plain


def _write_json_form(path, variables, exponents, p):
    terms = [{"e": e, "c": "1"} for e in exponents]
    path.write_text(json.dumps({"vars": variables, "terms": terms, "p": p}))
    return str(path)


def test_mod_on_prime_field_form_must_match_its_prime(tmp_path):
    fermat = [[3, 0, 0], [0, 3, 0], [0, 0, 3]]
    f7 = _write_json_form(tmp_path / "f7.json", ["x", "y", "z"], fermat, 7)
    proc = run_cli("disc", "--form", f7, "--mod", "11")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain-mismatch"
    proc = run_cli("disc", "--form", f7, "--mod", "7")
    assert proc.returncode == 0
    # the same curve read over ZZ and reduced by --mod gives the same value
    fermat3 = str(FIXTURES / "fermat3.txt")
    assert proc.stdout == run_cli("disc", "--form", fermat3, "--mod", "7").stdout


@pytest.mark.parametrize("command", ["canonicalize", "branch-check", "generic"])
def test_prime_field_class_refused_at_another_prime(tmp_path, command):
    cycle = [[2, 0, 0, 0, 2, 0], [0, 2, 0, 0, 0, 2], [0, 0, 2, 2, 0, 0]]
    g5 = _write_json_form(tmp_path / "g5.json", ["x1", "x2", "x3", "z1", "z2", "z3"], cycle, 5)
    proc = run_cli(command, "--form", g5, "--mod", "13")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["error"]["kind"] == "domain-mismatch"


@pytest.mark.parametrize(
    "args",
    [
        ("lattice-enum", "--box", "0"),
        ("lattice-enum", "--box", "-5"),
        ("verify", "--suite", "euler", "--trials", "0"),
        ("verify", "--suite", "euler", "--trials", "-4"),
        ("good-reduction", "--form", str(FIXTURES / "fermat4.txt"), "--trial-bound", "0"),
        ("good-reduction", "--form", str(FIXTURES / "fermat4.txt"), "--trial-bound", "-3"),
    ],
    ids=[
        "box-0", "box-negative", "trials-0", "trials-negative", "trial-bound-0",
        "trial-bound-negative",
    ],
)
def test_sizes_below_one_are_usage_errors(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize("prime", ["2"])
def test_verify_with_no_trials_run_is_not_a_pass(prime):
    proc = run_cli("verify", "--suite", "branch-locus", "--primes", prime, "--trials", "2")
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["trials"] == 0
    assert report["all_pass"] is False


def test_verify_branch_locus_runs_trials_at_3():
    proc = run_cli("verify", "--suite", "branch-locus", "--primes", "3", "--trials", "2")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["trials"] == 2
    assert report["all_pass"] is True


def test_disc_mod_2_of_coincident_partials_is_zero(tmp_path):
    form = tmp_path / "form.txt"
    form.write_text("x^3 + x^2*y + x*z^2 + y^2*z + y*z^2\n")
    proc = run_cli("disc", "--form", str(form), "--mod", "2", "--raw")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["raw"] == "0"
