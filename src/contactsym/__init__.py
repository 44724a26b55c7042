"""Exact symbol calculus over the projective contact algebra on R^(2n+1).

The package realizes, over a single Darboux chart and in exact rational
arithmetic: the contact Hamiltonian map and the sp(2n+2) generator basis
with its Killing duals; Lie actions on density-weighted symbol modules;
the classical invariant tensor fields and an exact invariant-space solver;
the contraction and generalized Hamiltonian operators with their
commutation law and the eigenspace decomposition they induce; the Casimir
operator in its assembled and diagonal forms; and the integrality
constraints tying together modules of different density weights.
"""

from .poly import Poly, poly_from_json
from .diffop import DiffOp
from .vartable import VarTable, table
from .rationals import format_rational, parse_rational
from .linalg import exact_nullspace
from .contact import (
    SpBasis,
    SpGenerator,
    VField,
    alpha_of,
    contact_hamiltonian,
    divergence,
    killing_form,
    lagrange_bracket,
    reeb_field,
    sp_basis,
    vfield_bracket,
)
from .symbols import (
    RModule,
    SModule,
    SymbolElem,
    lie_action_as_diffop,
    lie_action_symbol,
    weight_unit,
)
from .spectra import c_value, commutation_r, critical_set, eigenvalue
from .operators import (
    Decomposition,
    ModuleOp,
    classify_same_weight,
    decompose,
    gen_hamiltonian,
    i_alpha,
)
from .casimir import (
    CasimirResult,
    assemble_casimir,
    casimir_matrix,
    closed_form_casimir,
    verify_diagonal_form,
)
from .invariants import (
    InvariantQuery,
    count_S1,
    generator,
    invariant_space_dim,
    monomial_basis_classical,
)
from .diophantine import (
    DioInstance,
    admissible_pairs,
    discriminant_analysis,
    kappa3_delta,
    kappa4_consistency,
    relation_R,
    relation_Rprime,
)

__version__ = "0.1.0"
