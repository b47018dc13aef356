"""Matrix algebra and the two group actions."""

import pytest

from triforms.domains import GF, QQ, ZZ
from triforms.elimination import resultant_of_partials
from triforms.errors import SingularMatrixError
from triforms.matrices import Mat3, act_ternary
from triforms.poly import parse_poly
from triforms.suites import random_form, random_invertible, random_matrix


def test_matrix_slots_cannot_be_deleted():
    m = Mat3.identity(ZZ)
    for slot in ("rows", "domain"):
        with pytest.raises(AttributeError, match="immutable"):
            delattr(m, slot)
    assert m == Mat3.identity(ZZ)


def test_det_identity():
    assert Mat3.identity(ZZ).det() == 1


def test_det_diagonal():
    m = Mat3(ZZ, ((2, 0, 0), (0, 3, 0), (0, 0, 5)))
    assert m.det() == 30


def test_det_repeated_rows():
    m = Mat3(ZZ, ((1, 2, 3), (1, 2, 3), (4, 5, 6)))
    assert m.det() == 0


def test_adjugate_identity():
    assert Mat3.identity(ZZ).adjugate() == Mat3.identity(ZZ)


def test_adjugate_diagonal():
    m = Mat3(ZZ, ((2, 0, 0), (0, 3, 0), (0, 0, 5)))
    assert m.adjugate() == Mat3(ZZ, ((15, 0, 0), (0, 10, 0), (0, 0, 6)))


def test_adjugate_rank_one_vanishes():
    m = Mat3(ZZ, ((1, 2, 3), (2, 4, 6), (3, 6, 9)))
    assert m.adjugate() == Mat3(ZZ, ((0,) * 3,) * 3)


@pytest.mark.parametrize("dom", (ZZ, GF(7)), ids=lambda d: d.name)
def test_fundamental_adjugate_identity_random(dom, rng):
    for trial in range(200):
        m = random_matrix(dom, rng, 6)
        if trial % 4 == 0:
            # force a singular sample: duplicate a row
            rows = [list(r) for r in m.rows]
            rows[1] = rows[0]
            m = Mat3(dom, rows)
        d = m.det()
        assert m @ m.adjugate() == Mat3.scalar(dom, d)
        assert m.adjugate() @ m == Mat3.scalar(dom, d)


def test_cofactor_of_identity_and_diagonal():
    assert Mat3.identity(ZZ).cofactor_matrix() == Mat3.identity(ZZ)
    m = Mat3(ZZ, ((2, 0, 0), (0, 3, 0), (0, 0, 5)))
    assert m.cofactor_matrix() == Mat3(ZZ, ((15, 0, 0), (0, 10, 0), (0, 0, 6)))


def test_cofactor_multiplicative_over_f7(rng):
    dom = GF(7)
    for _ in range(100):
        a = random_invertible(dom, rng)
        b = random_invertible(dom, rng)
        assert (a @ b).cofactor_matrix() == a.cofactor_matrix() @ b.cofactor_matrix()


def test_cofactor_equals_det_times_inverse_transpose(rng):
    dom = QQ
    for _ in range(25):
        m = random_invertible(dom, rng)
        expected = m.inverse().transpose().scale_entries(m.det())
        assert m.cofactor_matrix() == expected


def test_inverse_of_singular_matrix_rejected():
    m = Mat3(QQ, ((1, 2, 3), (2, 4, 6), (0, 0, 1)))
    with pytest.raises(SingularMatrixError):
        m.inverse()


# -- the linear-change action ---------------------------------------------------


def test_action_by_identity():
    f = parse_poly("x^3 - 2*y^2*z")
    assert act_ternary(Mat3.identity(ZZ), f) == f


def test_action_scales_last_variable():
    gamma = Mat3(ZZ, ((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert act_ternary(gamma, parse_poly("z^2")) == parse_poly("4*z^2")


def test_action_composition_law(rng):
    dom = GF(10007)
    for _ in range(100):
        f = random_form(dom, rng, rng.randint(1, 3), 100)
        g1 = random_invertible(dom, rng, 100)
        g2 = random_invertible(dom, rng, 100)
        assert act_ternary(g1 @ g2, f) == act_ternary(g1, act_ternary(g2, f))


def test_center_scaling_multiplies_discriminant_by_u36(rng):
    for u in (-1, 2, 3):
        f = random_form(ZZ, rng, 3, 4)
        gamma = Mat3.scalar(ZZ, u)
        moved = act_ternary(gamma, f)
        assert moved == f.scale(u**3)
        assert resultant_of_partials(moved) == u**36 * resultant_of_partials(f)
