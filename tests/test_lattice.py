"""Isometry candidates of the pairing [[2,4],[4,2]]."""

import time
from fractions import Fraction

import pytest

from triforms.errors import DegreeError, ZeroInputError
from triforms.lattice import (
    ALLOWED_A22,
    GRAM,
    IsometryCandidate,
    box_cross_check,
    brute_force_box,
    enumerate_isometry_candidates,
    inverse_closure_report,
    pairing,
    qform,
    solve_first_row,
    solve_second_row,
)


def test_qform_values():
    assert qform(1, 0) == 2
    assert qform(0, 1) == 2
    assert qform(1, 1) == 12


def test_qform_matches_gram():
    for x, y in ((1, 2), (-3, 5), (Fraction(1, 4), Fraction(-7, 2))):
        v = (Fraction(x), Fraction(y))
        expected = sum(v[i] * GRAM[i][j] * v[j] for i in range(2) for j in range(2))
        assert qform(x, y) == expected


def test_solve_second_row_examples():
    assert solve_second_row(1) == (-4, 0)
    assert solve_second_row(4) == (-15, -1)
    assert solve_second_row(2) == ()
    assert solve_second_row(Fraction(1, 4)) == ()
    assert solve_second_row(Fraction(1, 2)) == ()


def test_solve_second_row_rejects_outside_constraint():
    with pytest.raises(DegreeError):
        solve_second_row(3)
    with pytest.raises(DegreeError):
        solve_second_row(0)


def test_solve_first_row_examples():
    assert set(solve_first_row((0, 1))) == {(1, 0), (-1, 4)}
    assert set(solve_first_row((1, 0))) == {(0, 1), (4, -1)}


def test_solve_first_row_rejects_zero():
    with pytest.raises(ZeroInputError):
        solve_first_row((0, 0))


def test_solutions_satisfy_both_constraints():
    for a22 in ALLOWED_A22:
        for a21 in solve_second_row(a22):
            assert qform(a21, a22) == 2
            for row1 in solve_first_row((a21, a22)):
                assert qform(*row1) == 2
                assert pairing(row1, (a21, a22)) == 4


def test_enumeration_contents_and_certificates():
    cands = enumerate_isometry_candidates()
    entries = {c.entries for c in cands}
    identity = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
    shear = ((Fraction(-1), Fraction(4)), (Fraction(0), Fraction(1)))
    swap = ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)))
    assert identity in entries
    assert shear in entries
    assert swap not in entries  # a22 = 0 violates the determinant constraint
    for c in cands:
        assert c.residual_zero  # A G A^t == G exactly
        assert c.quarter_integral
        assert abs(c.det) == 1
        assert qform(*c.entries[0]) == 2
        assert qform(*c.entries[1]) == 2
        assert pairing(c.entries[0], c.entries[1]) == 4
        assert c.a22 in ALLOWED_A22


def test_enumeration_deterministic_and_fast():
    start = time.time()
    first = enumerate_isometry_candidates()
    second = enumerate_isometry_candidates()
    assert [c.entries for c in first] == [c.entries for c in second]
    assert time.time() - start < 1.0


def test_brute_force_box_agreement():
    cands = enumerate_isometry_candidates()
    box = brute_force_box(20)
    in_box = {
        c.entries for c in cands if all(abs(v) <= 20 for row in c.entries for v in row)
    }
    assert {c.entries for c in box} == in_box


def test_box_cross_check_reports_brute_force_count_and_agreement():
    cands = enumerate_isometry_candidates()
    for bound in (1, 20):
        report = box_cross_check(bound, cands)
        assert report == {
            "bound": bound,
            "count": len(brute_force_box(bound)),
            "agrees_with_enumeration": True,
        }


def test_inverse_closure_checked_not_assumed():
    report = inverse_closure_report()
    assert report["closure_violations"] == []
    # inverses escaping the a22 constraint are reported, never suppressed
    for original, inverse in report["inverses_outside_a22_constraint"]:
        inv = IsometryCandidate.build(inverse)
        assert inv.residual_zero
        assert inv.a22 not in ALLOWED_A22
