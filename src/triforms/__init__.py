"""triforms: exact invariant theory of ternary forms and (2,2)-forms.

Everything is computed over exact domains (arbitrary-precision integers,
rationals, prime fields): Macaulay resultants and plane-curve discriminants,
the linear-change and twisted group actions, sextic covariants of the
27-dimensional (2,2) representation with branch-locus oracles over finite
fields, cubic invariants with weighted-tuple equivalence, and the isometry
candidate enumeration for the rank-2 pairing [[2,4],[4,2]].
"""

from .biquadratic import (
    BranchLocusReport,
    Class22,
    GramPair,
    act_22,
    branch_locus_report,
    canonicalize,
    covariant_x_ternary,
    covariant_z_ternary,
    gram_matrices,
    ideal_multiplier,
    incidence_form,
    is_generic_mod_p,
    is_ideal_member,
    sextic_covariant_x,
    sextic_covariant_z,
    tangency_test,
    verify_well_defined,
)
from .cubic import (
    KAPPA,
    EquivalenceWitness,
    InvariantTuple,
    cubic_I,
    cubic_J,
    cubic_invariants,
    delta_from_invariants,
    scale_tuple,
    tuple_is_primitive_outside,
    tuple_of_cubic,
    tuples_equivalent,
)
from .domains import GF, QQ, ZZ
from .elimination import (
    DiscriminantReport,
    bad_primes,
    discriminant,
    is_smooth_mod_p,
    macaulay_resultant,
    normalization_constant,
    resultant_of_partials,
)
from .errors import TriformsError
from .lattice import (
    IsometryCandidate,
    brute_force_box,
    enumerate_isometry_candidates,
    inverse_closure_report,
    pairing,
    qform,
    solve_first_row,
    solve_second_row,
)
from .matrices import Mat3, act_ternary, block_substitution
from .poly import MultiPoly, euler_contraction, parse_poly, poly_from_json

__version__ = "0.1.0"
