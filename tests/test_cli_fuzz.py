"""In-process fuzz of the CLI contract.

Whatever the arguments, ``cli.main`` returns 0, 1 or 2 without raising,
prints one JSON object on stdout for 0 and 1, and never leaks a traceback.
The generated inputs mix well-formed and malformed forms, matrices, primes
(composite, 2, huge, beyond the primality-proof limit), weights and sizes.
About half the examples are well-formed calls of the commands that compute
(disc, good-reduction, cubic-invariants, generic), so the algebra behind
them is fuzzed too, not only the parsing in front of it.  A second fuzz
draws well-formed calls whose work grows with their inputs' size, act on
forms up to degree 80 and tuple-equiv with weights up to 10**18, and
requires each to answer or be refused at once.  Every run draws the same
examples: the first fuzz from seed 0, so that an edit of its body leaves
its stream (and the resultant floor) as it is, and the second
derandomized.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from itertools import count
from random import Random

import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from triforms import cli, elimination
from triforms.domains import ZZ
from triforms.intutil import PRIME_PROOF_LIMIT
from triforms.poly import MultiPoly
from triforms.suites import random_form

PRIMES = [
    "-7", "0", "1", "2", "3", "4", "9", "11", "13", "101", "561",
    str(399165290221 * 798330580441),  # a strong pseudoprime to bases 2..37
    str(PRIME_PROOF_LIMIT - 1), str(PRIME_PROOF_LIMIT), str(2**127 - 1),
    "abc", "", "1e3", "0x11", "11,13",
]
SIZES = ["-3", "0", "1", "2", "10", str(10**9), "x", "2.5"]
SCALARS = ["0", "1", "-1", "2", "3", "-5", "1/2", "-7/3", "1/0", "x", "", "9" * 40]
# the last two once made tuple-equiv build roots and powers of 10**18 bits
WEIGHTS = ["4,6", "2,3", "1", "0,0", "-1,2", "4,6,8", "a,b", "", ",", "4,,6",
           "1000000000000000000,1500000000000000000", "4,1000000000000000000"]

TERNARY = ["x", "y", "z"]
BIQUAD = ["x1", "x2", "x3", "z1", "z2", "z3"]


@st.composite
def monomial_forms(draw, variables, max_degree):
    """Sums of small terms of degree up to max_degree, homogeneous about half the time."""
    degree = draw(st.integers(0, max_degree)) if draw(st.booleans()) else None
    terms = []
    for _ in range(draw(st.integers(0, 6))):
        factors = [draw(st.sampled_from(SCALARS[:7]))]
        for _ in range(draw(st.integers(0, max_degree)) if degree is None else degree):
            factors.append(draw(st.sampled_from(variables)))
        terms.append("*".join(factors))
    return " + ".join(terms)


def _sum(terms) -> str:
    """The text of a sum of (scalar, monomial) terms, signs written as the
    parser wants them: "a - b", never "a + -b"."""
    text = ""
    for scalar, monomial in terms:
        sign, scalar = ("-", scalar[1:]) if scalar.startswith("-") else ("+", scalar)
        text += f" {sign} {scalar}*{monomial}" if text else f"{sign}{scalar}*{monomial}"
    return text.removeprefix("+")


@st.composite
def biquadratic_forms(draw):
    """(2,2) forms, from sparse to dense, with small integer coefficients."""
    terms = []
    for a in range(3):
        for b in range(a, 3):
            for c in range(3):
                for d in range(c, 3):
                    if draw(st.booleans()):
                        monomial = "*".join(BIQUAD[i] for i in (a, b, 3 + c, 3 + d))
                        terms.append((str(draw(st.integers(-3, 3))), monomial))
    return _sum(terms)


JSON_FORMS = [
    '{"vars": ["x", "y", "z"], "terms": [{"e": [2, 0, 0], "c": "1"}, {"e": [0, 1, 1], "c": "-3"}]}',
    '{"vars": ["x", "y", "z"], "terms": [{"e": [-1, 0, 3], "c": "1"}]}',
    '{"vars": ["x", "y", "z"], "domain": "GF", "p": "4", "terms": []}',
    '{"vars": ["x", "y"], "terms": [{"e": [1, 1], "c": "1/2"}]}',
    '{"vars": ["x", "x", "z"], "terms": [{"e": [1, 0, 0], "c": "1"}]}',
    '{"vars": ["x", "y", "z"], "terms": [{"e": [1, 0, 0]}]}',
    '{"terms": 3}',
    "{not json",
    "[]",
]

forms = st.one_of(
    # up to degree 6, so normalized discriminants past degree 4 are drawn;
    # disc refuses forms over cli.DISC_MAX_DEGREE before computing
    monomial_forms(TERNARY, 6),
    monomial_forms(BIQUAD, 4),
    biquadratic_forms(),
    st.sampled_from(JSON_FORMS),
    st.text(alphabet="xyz123^*+-/ ()._", max_size=20),
)

matrices = st.one_of(
    st.lists(st.sampled_from(SCALARS), min_size=9, max_size=9).map(json.dumps),
    st.lists(st.sampled_from(SCALARS), max_size=12).map(json.dumps),
    st.sampled_from(['{"a": 1}', "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]", "nope", "[1, 2"]),
)


def _mod(draw):
    return ["--mod", draw(st.sampled_from(PRIMES))] if draw(st.booleans()) else []


@st.composite
def invocations(draw):
    """An argument list, plus the files it names: {placeholder: contents}."""
    files = {}

    def form_file():
        files["FORM"] = draw(forms)
        return "FORM"

    command = draw(st.sampled_from([
        "disc", "good-reduction", "act", "cubic-invariants", "tuple-equiv",
        "canonicalize", "covariants", "branch-check", "generic", "lattice-enum", "verify",
    ]))
    if command == "disc":
        args = ["--form", form_file(), *_mod(draw)]
        args += ["--raw"] if draw(st.booleans()) else []
    elif command == "good-reduction":
        args = ["--form", form_file(), "--trial-bound", draw(st.sampled_from(SIZES))]
        args += ["--s-set", draw(st.sampled_from(["", "2", "2,3", "x", "-5"]))]
    elif command == "act":
        files["GAMMA"] = draw(matrices)
        args = ["--form", form_file(), "--gamma", "GAMMA", *_mod(draw)]
        args += ["--rep", draw(st.sampled_from(["vn", "v22", "bad"]))]
    elif command == "cubic-invariants":
        args = ["--form", form_file()]
    elif command == "tuple-equiv":
        args = [
            "--t1", ",".join(draw(st.lists(st.sampled_from(SCALARS), max_size=3))),
            "--t2", ",".join(draw(st.lists(st.sampled_from(SCALARS), max_size=3))),
            "--weights", draw(st.sampled_from(WEIGHTS)),
            "--s-set", draw(st.sampled_from(["", "2", "2,3", "x"])),
        ]
    elif command in ("canonicalize", "covariants"):
        args = ["--form", form_file(), *_mod(draw)]
    elif command in ("branch-check", "generic"):
        args = ["--form", form_file(), "--mod", draw(st.sampled_from(PRIMES))]
    elif command == "lattice-enum":
        args = ["--box", draw(st.sampled_from(SIZES))] if draw(st.booleans()) else []
    else:
        # sizes small enough that an accepted run stays cheap
        args = [
            "--suite", draw(st.sampled_from(["euler", "cubic-kappa", "v22-welldef",
                                             "branch-locus", "disc-covariance", "nope"])),
            "--trials", draw(st.sampled_from(["0", "1", "x", str(10**9)])),
            "--domain", draw(st.sampled_from(["QQ", "ZZ", "GF(11)", "GF(4)", "GF(x)", "RR"])),
            "--primes",
            draw(st.sampled_from(["3", "11", "2", "4", "", "x", str(PRIME_PROOF_LIMIT)])),
            "--degree", draw(st.sampled_from(["-1", "1", "2", "3", "9", "x"])),
        ]
    return [command, *args], files


@st.composite
def ternary_forms(draw, degrees, scalars=SCALARS[1:7]):
    """Well-formed homogeneous ternary forms: small integer or rational
    coefficients, drawn from ``scalars``, on up to ten monomials of one
    degree."""
    degree = draw(st.sampled_from(degrees))
    terms = []
    for _ in range(draw(st.integers(1, 10))):
        a = draw(st.integers(0, degree))
        b = draw(st.integers(0, degree - a))
        monomial = "*".join(f"{v}^{e}" for v, e in zip(TERNARY, (a, b, degree - a - b)) if e)
        terms.append((draw(st.sampled_from(scalars)), monomial))
    return _sum(terms)


GOOD_PRIMES = ["2", "3", "5", "7", "11", "13", "101", "10007"]


@st.composite
def algebra_invocations(draw):
    """Well-formed calls of the commands that compute, with their files."""
    command = draw(st.sampled_from(["disc", "good-reduction", "cubic-invariants", "generic"]))
    if command == "disc":
        files = {"FORM": draw(ternary_forms(range(2, 6)))}
        args = ["--mod", draw(st.sampled_from(GOOD_PRIMES))] if draw(st.booleans()) else []
        args += ["--raw"] if draw(st.booleans()) else []
    elif command == "good-reduction":
        # bad-prime profiles are defined over ZZ alone; a rational form is
        # refused before any resultant is computed
        files = {"FORM": draw(ternary_forms(range(2, 5), SCALARS[1:6]))}
        args = ["--s-set", draw(st.sampled_from(["", "2", "2,3"])), "--trial-bound", "1000"]
    elif command == "cubic-invariants":
        files = {"FORM": draw(ternary_forms([3]))}
        args = []
    else:
        files = {"FORM": draw(biquadratic_forms())}
        args = ["--mod", draw(st.sampled_from(GOOD_PRIMES[1:]))]
    return [command, "--form", "FORM", *args], files


@st.composite
def high_degree_forms(draw):
    """Integer ternary forms built from a drawn seed: of degree 12, dense or
    cut to ten terms, which act answers; dense of degree 40 (35 s with a
    dense gamma) and cut to ten terms at degree 80, which it refuses."""
    rng = Random(draw(st.integers(0, 999)))
    degree, terms = draw(st.sampled_from([(12, None), (12, 10), (40, None), (80, 10)]))
    f = random_form(ZZ, rng, degree)
    if terms is not None:
        f = MultiPoly(ZZ, f.vars, dict(rng.sample(sorted(f.terms.items()), terms)))
    return str(f)


@st.composite
def bounded_invocations(draw):
    """Well-formed act calls on forms up to degree 80, and tuple-equiv calls
    with weights up to 10**18."""
    if draw(st.booleans()):
        gamma = [str(draw(st.integers(-3, 3))) for _ in range(9)]
        files = {"FORM": draw(high_degree_forms()), "GAMMA": json.dumps(gamma)}
        return ["act", "--form", "FORM", "--gamma", "GAMMA"], files
    values = st.sampled_from(["1", "-1", "4", "16", "64", "1/2", "1/64"])
    return [
        "tuple-equiv",
        f"--t1={draw(values)},{draw(values)}",
        f"--t2={draw(values)},{draw(values)}",
        "--weights", draw(st.sampled_from(WEIGHTS[:2] + WEIGHTS[-2:])),
    ], {}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


_RUN = count()

# Examples (of 250) in which a command computes a raw discriminant; about 4
# did when every example was drawn at random, 107 do from seed 0.
RESULTANT_FLOOR = 100


def test_cli_contract_holds_for_any_arguments(workdir, capsys, monkeypatch):
    calls = Counter()
    original = elimination.resultant_of_partials

    def counting(f):
        calls["now"] += 1
        return original(f)

    monkeypatch.setattr(elimination, "resultant_of_partials", counting)

    @seed(0)
    @settings(
        max_examples=250,
        deadline=None,
        database=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(st.booleans().flatmap(lambda algebra: algebra_invocations() if algebra else invocations()))
    def contract(invocation):
        argv, files = invocation
        run = next(_RUN)
        paths = {}
        for name, text in files.items():
            path = workdir / f"{name.lower()}{run}.txt"
            path.write_text(text)
            paths[name] = str(path)
        argv = [paths.get(a, a) for a in argv]
        calls["now"] = 0
        code = cli.main(argv)
        calls["reached"] += calls["now"] > 0
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err
        if code in (0, 1):
            lines = out.splitlines()
            assert len(lines) == 1, (argv, out)
            data = json.loads(lines[0])
            assert isinstance(data, dict)
            if code == 1 and argv[0] != "verify":
                assert set(data) == {"error"} and data["error"]["kind"], (argv, data)

    contract()
    assert calls["reached"] >= RESULTANT_FLOOR, calls


def test_inputs_that_grow_the_work_finish_or_are_refused(workdir, capsys):
    codes = Counter()

    @settings(derandomize=True, max_examples=40, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bounded_invocations())
    def bounded(invocation):
        argv, files = invocation
        run = next(_RUN)
        for name, text in files.items():
            path = workdir / f"{name.lower()}{run}.txt"
            path.write_text(text)
            argv = [str(path) if a == name else a for a in argv]
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 2, argv
        out = capsys.readouterr().out
        assert code in (0, 1), (argv, code)
        data = json.loads(out)
        assert code == 0 or data["error"]["kind"] == "budget", (argv, data)
        codes[argv[0], code] += 1

    bounded()
    assert codes["act", 0] and codes["act", 1] and codes["tuple-equiv", 0], codes
