"""Exact computer algebra for capped-vertex generating functions of
Hilbert schemes of points, with desk-scale verification of the supporting
Macdonald and Fock-space identities."""

from .scalar import (Scalar, ZERO, ONE, T1, T2, Q, U, A, HBAR, LimitError,
                     ResourceLimitError)
from .series import Series, rational_reconstruct, ReconstructionError
from .characters import (partitions, conjugate, boxes, taut_character,
                         tangent_hilb, polarization_M2, tangent_M2, delta_11,
                         o_line_eigen, chern_eigen, fixed_points_rank2)
from .fock import (FockElement, TensorFockElement, heis, exp_linear, pexp,
                   tensor_exp, jj0_substitute, project_second)
from .macdonald import (MacdonaldBasis, macd_H, macd_H_hhl, macd_H_axioms,
                        macd_H_gram_schmidt, euler_hilb)
from .checks import (VerificationReport, CappedVertexTable,
                     check_kernel_identity, check_mellit, check_osum,
                     check_ook, check_main, check_degenerate_slice,
                     check_rationality, check_prop1, check_prop4,
                     closed_F, build_F, capped_vertex_table, calibrate)

__version__ = "0.1.0"
