"""Exact 3x3 matrix algebra and the group actions on ternary forms.

The matrix convention throughout is the row-vector one: a matrix gamma acts
on a form f by f((x, y, z) . gamma), so variable j is replaced by the j-th
column combination sum_i gamma[i][j] v_i.  Composing two such substitutions
matches the matrix product: act(g1, act(g2, f)) == act(g1 @ g2, f).

``cofactor_matrix`` is the transpose of the adjugate, which for invertible
gamma equals det(gamma) (gamma^-1)^t; computing it via 2x2 minors keeps it
exact over the integers and defined for singular input.
"""

from __future__ import annotations

import json

from .domains import Domain
from .errors import ParseError, SingularMatrixError, VariableSetError
from .poly import MultiPoly


def adjugate3(m) -> tuple:
    """Adjugate of a 3x3 grid of scalars or polynomials, by signed 2x2 minors."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )


class Mat3:
    """Immutable 3x3 matrix over an exact domain."""

    __slots__ = ("domain", "rows")

    def __init__(self, domain: Domain, rows):
        object.__setattr__(self, "domain", domain)
        rows = tuple(tuple(domain.canon(v) for v in row) for row in rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise VariableSetError("Mat3 requires a 3x3 entry grid")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Mat3 is immutable")

    def __delattr__(self, name):
        raise AttributeError("Mat3 is immutable")

    @classmethod
    def identity(cls, domain: Domain) -> "Mat3":
        one, zero = domain.one(), domain.zero()
        return cls(domain, ((one, zero, zero), (zero, one, zero), (zero, zero, one)))

    @classmethod
    def scalar(cls, domain: Domain, value) -> "Mat3":
        c, zero = domain.canon(value), domain.zero()
        return cls(domain, ((c, zero, zero), (zero, c, zero), (zero, zero, c)))

    @classmethod
    def from_flat(cls, domain: Domain, values) -> "Mat3":
        values = list(values)
        if len(values) != 9:
            raise VariableSetError("need 9 entries row-major")
        return cls(domain, (values[0:3], values[3:6], values[6:9]))

    def __eq__(self, other):
        if not isinstance(other, Mat3):
            return NotImplemented
        return self.domain == other.domain and self.rows == other.rows

    def __hash__(self):
        return hash((self.domain, self.rows))

    def __repr__(self):
        return f"Mat3({self.domain.name}, {self.rows})"

    def __matmul__(self, other: "Mat3") -> "Mat3":
        self.domain.require_same(other.domain)
        dom = self.domain
        a, b = self.rows, other.rows
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = dom.zero()
                for k in range(3):
                    acc = dom.add(acc, dom.mul(a[i][k], b[k][j]))
                row.append(acc)
            rows.append(row)
        return Mat3(dom, rows)

    def transpose(self) -> "Mat3":
        r = self.rows
        return Mat3(self.domain, ((r[0][0], r[1][0], r[2][0]),
                                  (r[0][1], r[1][1], r[2][1]),
                                  (r[0][2], r[1][2], r[2][2])))

    def det(self):
        dom = self.domain
        (a, b, c), (d, e, f), (g, h, i) = self.rows
        t1 = dom.mul(a, dom.sub(dom.mul(e, i), dom.mul(f, h)))
        t2 = dom.mul(b, dom.sub(dom.mul(d, i), dom.mul(f, g)))
        t3 = dom.mul(c, dom.sub(dom.mul(d, h), dom.mul(e, g)))
        return dom.add(dom.sub(t1, t2), t3)

    def adjugate(self) -> "Mat3":
        """Adj with M @ Adj(M) == det(M) * I exactly, also for singular M."""
        return Mat3(self.domain, adjugate3(self.rows))

    def cofactor_matrix(self) -> "Mat3":
        """det(M) (M^-1)^t for invertible M; transpose of the adjugate."""
        return self.adjugate().transpose()

    def inverse(self) -> "Mat3":
        dom = self.domain
        d = self.det()
        if not dom.is_unit(d):
            raise SingularMatrixError(f"matrix with determinant {d} is not invertible")
        inv_d = dom.inv(d)
        adj = self.adjugate().rows
        return Mat3(dom, tuple(tuple(dom.mul(inv_d, v) for v in row) for row in adj))

    def scale_entries(self, c) -> "Mat3":
        dom = self.domain
        c = dom.canon(c)
        return Mat3(dom, tuple(tuple(dom.mul(c, v) for v in row) for row in self.rows))

    def to_flat(self) -> list:
        return [v for row in self.rows for v in row]

    def to_json_list(self) -> list[str]:
        return [self.domain.fmt(v) for v in self.to_flat()]


def mat3_from_json(data, domain: Domain) -> Mat3:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, list) or len(data) != 9:
        raise ParseError("matrix JSON must be a row-major 9-array")
    try:
        return Mat3.from_flat(domain, [domain.parse(str(v)) for v in data])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad matrix entry: {exc}") from exc


def act_ternary(gamma: Mat3, f: MultiPoly) -> MultiPoly:
    """gamma . f = f((v1, v2, v3) . gamma) for a form in three variables."""
    gamma.domain.require_same(f.domain)
    if len(f.vars) != 3:
        raise VariableSetError("ternary action needs exactly three variables")
    return f.substitute_linear(gamma.rows)


def block_substitution(gamma: Mat3, delta: Mat3, f: MultiPoly) -> MultiPoly:
    """Substitute the first three variables by gamma, the last three by delta."""
    gamma.domain.require_same(f.domain)
    delta.domain.require_same(f.domain)
    if len(f.vars) != 6:
        raise VariableSetError("block substitution needs six variables")
    dom = f.domain
    zero = dom.zero()
    g, d = gamma.rows, delta.rows
    big = [[zero] * 6 for _ in range(6)]
    for i in range(3):
        for j in range(3):
            big[i][j] = g[i][j]
            big[3 + i][3 + j] = d[i][j]
    return f.substitute_linear(big)
