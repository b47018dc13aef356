"""First use of the library's caches, as a CLI user pays it on every run.

Fills the Macaulay plans for partials of degree 2 to 5, the normalization
constants of degrees 3 and 4, the cubic bracket expansions and the (2,2)
reduction bases of every domain the workloads use, through public calls on
tiny inputs.
"""

from triforms import biquadratic, cubic, elimination
from triforms.domains import GF, QQ, ZZ
from triforms.poly import MultiPoly


def fermat(dom, n: int) -> MultiPoly:
    return MultiPoly(dom, ("x", "y", "z"), {(n, 0, 0): 1, (0, n, 0): 1, (0, 0, n): 1})


def warm_up() -> None:
    for n in (3, 4):
        elimination.discriminant(fermat(ZZ, n))
    for n in (5, 6):
        elimination.discriminant(fermat(GF(10007), n), normalize=False)
    cubic.cubic_invariants(fermat(ZZ, 3))
    exps = (2, 0, 0, 2, 0, 0)
    for dom in (ZZ, QQ, GF(11), GF(13), GF(101)):
        biquadratic.canonicalize(
            MultiPoly(dom, ("x1", "x2", "x3", "z1", "z2", "z3"), {exps: 1})
        )
