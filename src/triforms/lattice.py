"""Isometry candidates of the rank-2 pairing [[2, 4], [4, 2]].

The fixed Gram matrix G has q(x, y) = (x, y) G (x, y)^t = 2(x^2 + 4xy + y^2),
indefinite with det(G) = -12.  A candidate is a rational 2x2 matrix A with

  * A G A^t = G exactly (both rows satisfy q = 2, the cross pairing is 4),
  * entries in (1/4) Z,
  * a22 restricted to +-{1/4, 1/2, 1, 2, 4}.

Enumeration follows the constraint chain: the allowed a22 values, then a21
from q(a21, a22) = 2 (a rational-square radicand test), then the first row
from the conic q = 2 intersected with the pairing line.  Everything is
exact rational arithmetic; non-square radicands yield empty branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeError, ZeroInputError
from .intutil import rational_nth_roots

GRAM = ((Fraction(2), Fraction(4)), (Fraction(4), Fraction(2)))

ALLOWED_A22 = tuple(
    sorted(
        {sign * Fraction(num, den) for sign in (1, -1) for num, den in ((1, 4), (1, 2), (1, 1), (2, 1), (4, 1))}
    )
)


def qform(x, y) -> Fraction:
    """(x, y) G (x, y)^t = 2 (x^2 + 4xy + y^2)."""
    x, y = Fraction(x), Fraction(y)
    return 2 * (x * x + 4 * x * y + y * y)


def pairing(u, v) -> Fraction:
    """(u) G (v)^t."""
    (a, b), (c, d) = u, v
    return 2 * Fraction(a) * c + 4 * Fraction(a) * d + 4 * Fraction(b) * c + 2 * Fraction(b) * d


def _quarter_integral(q: Fraction) -> bool:
    return (4 * q).denominator == 1


def solve_second_row(a22) -> tuple[Fraction, ...]:
    """All quarter-integral a21 with q(a21, a22) = 2.

    q = 2 means a21^2 + 4 a21 a22 + a22^2 = 1, so a21 = -2 a22 +- sqrt(3
    a22^2 + 1) whenever the radicand is a rational square.
    """
    a22 = Fraction(a22)
    if a22 not in ALLOWED_A22:
        raise DegreeError(f"a22 = {a22} is outside the determinant constraint set")
    radicand = 3 * a22 * a22 + 1
    roots = rational_nth_roots(radicand, 2)
    if not roots:
        return ()
    r = max(roots)
    out = {-2 * a22 + r, -2 * a22 - r}
    return tuple(sorted(v for v in out if _quarter_integral(v)))


def solve_first_row(row2) -> tuple[tuple[Fraction, Fraction], ...]:
    """Quarter-integral (a11, a12) with q = 2 and pairing 4 against row2.

    The pairing condition is a line; intersecting with the conic q = 2
    leaves at most two points.
    """
    a21, a22 = Fraction(row2[0]), Fraction(row2[1])
    if a21 == 0 and a22 == 0:
        raise ZeroInputError("second row must be nonzero")
    # pairing: x (2 a21 + 4 a22) + y (4 a21 + 2 a22) = 4
    cx = 2 * a21 + 4 * a22
    cy = 4 * a21 + 2 * a22
    solutions = []
    if cy != 0:
        # y = (4 - cx x) / cy; substitute into x^2 + 4xy + y^2 = 1
        # (cy^2) x^2 + 4 x (4 - cx x) cy + (4 - cx x)^2 = cy^2
        a = cy * cy - 4 * cx * cy + cx * cx
        b = 16 * cy - 8 * cx
        c = 16 - cy * cy
        for x in _quadratic_roots(a, b, c):
            y = (4 - cx * x) / cy
            solutions.append((x, y))
    else:
        if cx == 0:
            return ()
        x = Fraction(4) / cx
        # y^2 + 4xy + (x^2 - 1) = 0
        for y in _quadratic_roots(Fraction(1), 4 * x, x * x - 1):
            solutions.append((x, y))
    out = {
        (x, y)
        for x, y in solutions
        if _quarter_integral(x) and _quarter_integral(y) and qform(x, y) == 2
    }
    return tuple(sorted(out))


def _quadratic_roots(a, b, c) -> tuple[Fraction, ...]:
    """Rational roots of a x^2 + b x + c (a may be zero)."""
    if a == 0:
        if b == 0:
            return ()
        return (-Fraction(c) / b,)
    disc = Fraction(b) * b - 4 * Fraction(a) * c
    if disc < 0:
        return ()
    roots = rational_nth_roots(disc, 2)
    if not roots:
        return ()
    r = max(roots)
    return tuple(sorted({(-b + r) / (2 * a), (-b - r) / (2 * a)}))


@dataclass(frozen=True)
class IsometryCandidate:
    """A matrix preserving the pairing, with its certificate values."""

    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    det: Fraction
    a22: Fraction
    quarter_integral: bool
    residual_zero: bool

    @classmethod
    def build(cls, rows) -> "IsometryCandidate":
        (a11, a12), (a21, a22) = rows
        rows = ((Fraction(a11), Fraction(a12)), (Fraction(a21), Fraction(a22)))
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        quarter = all(_quarter_integral(v) for row in rows for v in row)
        residual = (
            qform(*rows[0]) == 2
            and qform(*rows[1]) == 2
            and pairing(rows[0], rows[1]) == 4
        )
        return cls(rows, det, rows[1][1], quarter, residual)

    def inverse_rows(self):
        d = self.det
        (a, b), (c, e) = self.entries
        return ((e / d, -b / d), (-c / d, a / d))

    def to_json_dict(self) -> dict:
        return {
            "matrix": [[str(v) for v in row] for row in self.entries],
            "det": str(self.det),
            "a22": str(self.a22),
            "quarter_integral": self.quarter_integral,
            "gram_preserved": self.residual_zero,
        }


def enumerate_isometry_candidates() -> tuple[IsometryCandidate, ...]:
    """The finite candidate set from the constraint chain, deduplicated.

    Deterministic output, ordered lexicographically by entries.
    """
    found = {}
    for a22 in ALLOWED_A22:
        for a21 in solve_second_row(a22):
            for a11, a12 in solve_first_row((a21, a22)):
                cand = IsometryCandidate.build(((a11, a12), (a21, a22)))
                if cand.residual_zero and cand.quarter_integral:
                    found[cand.entries] = cand
    return tuple(found[k] for k in sorted(found))


def brute_force_box(bound: int = 20) -> tuple[IsometryCandidate, ...]:
    """Scan of all quarter-integer matrices with entries in [-bound, bound].

    Applies the full constraint set (Gram preservation, quarter-integer
    entries, the a22 determinant constraint); factored through rows with
    q(row) = 2 for speed, which is implied by Gram preservation.
    """
    quarter_range = [Fraction(k, 4) for k in range(-4 * bound, 4 * bound + 1)]
    on_conic = [
        (x, y) for x in quarter_range for y in quarter_range if qform(x, y) == 2
    ]
    out = {}
    allowed = set(ALLOWED_A22)
    for row2 in on_conic:
        if row2[1] not in allowed:
            continue
        for row1 in on_conic:
            if pairing(row1, row2) != 4:
                continue
            cand = IsometryCandidate.build((row1, row2))
            if cand.residual_zero:
                out[cand.entries] = cand
    return tuple(out[k] for k in sorted(out))


def box_cross_check(bound: int, candidates) -> dict:
    """Compare the candidates inside the box [-bound, bound] with a brute-force scan."""
    box = brute_force_box(bound)
    in_box = {
        c.entries for c in candidates if all(abs(v) <= bound for row in c.entries for v in row)
    }
    return {
        "bound": bound,
        "count": len(box),
        "agrees_with_enumeration": {c.entries for c in box} == in_box,
    }


def inverse_closure_report(candidates=None) -> dict:
    """Check closure under inversion within the a22 constraint.

    For each candidate, the inverse preserves the pairing automatically;
    it belongs to the candidate set exactly when its a22 entry lies in the
    allowed set.  Violations are reported, never suppressed.
    """
    if candidates is None:
        candidates = enumerate_isometry_candidates()
    members = {c.entries for c in candidates}
    allowed = set(ALLOWED_A22)
    missing = []
    outside_constraint = []
    for c in candidates:
        inv = IsometryCandidate.build(c.inverse_rows())
        if inv.a22 in allowed:
            if inv.entries not in members:
                missing.append((c.entries, inv.entries))
        else:
            outside_constraint.append((c.entries, inv.entries))
    return {
        "candidates": len(candidates),
        "inverses_outside_a22_constraint": outside_constraint,
        "closure_violations": missing,
    }
