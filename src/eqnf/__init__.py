"""Equivariant normal forms and Lyapunov-Schmidt reduction for families of
local diffeomorphisms near a symmetric fixed point."""

from .errors import (BadCharacter, CkSingular, DimensionMismatch, EqnfError,
                     InvariantViolation, InverseNewtonFailed, NoConvergence,
                     NonFinite, NonInvertibleLinearPart, NoRealLogarithm,
                     NotClosed, NotEquivariant, NotInU, NotSemisimple,
                     NotUnipotent, ProblemTooLarge, SingularInput,
                     SlopeTestFailed, SplitFailure)
from .groups import (GroupData, extended_group, invariant_inner_product,
                     is_chi_equivariant_linear, is_chi_equivariant_map,
                     project_map, tilde_character, validate_group)
from .linalg import (AdaptedInnerProduct, JCDecomposition, SUDecomposition,
                     image_basis, jordan_chevalley, kernel_basis,
                     matrix_log_unipotent, nullspace, real_log,
                     su_decomposition)
from .normalform import (NormalFormResult, admissible_exponent_basis,
                         hk_projection, nilpotent_nf, semisimple_nf)
from .polymap import (AffineMapFamily, MapFamily, TruncatedMap, adk_field,
                      adk_operator, ck_operator, compose,
                      conjugate_linear, exp_vf, hk_dim, inverse_truncated,
                      log_map, monomial_index, monomials, num_monomials,
                      substitution_matrix)
from .reduction import (LiftContext, PeriodicPoint, bifurcation_fn,
                        build_lift, find_periodic, ghat_vstar_identity_check,
                        nf_reduction_consistency, reduced_inverse, reduced_map,
                        solve_vstar, xi, xstar)

__version__ = "0.1.0"
