"""Conforming finite element complexes on axis-aligned cuboid meshes.

Exactly-verified constructions of two discrete complexes (and their
reduced-regularity variants) built from anisotropic tensor-product
polynomial elements.  All element calculus, assembly, and rank
certification runs in rational arithmetic; floating point enters only as
an optional cross-check.
"""

from .assembly import (GlobalSpace, SparseMatrix, assemble_space,
                       interpolate, operator_matrix, read_matrix_market,
                       reconstruct_local, write_matrix_market)
from .elements import (FAMILY_NAMES, BubbleBasis, DofFunctional, FamilyId,
                       bubble_basis_divT, check_unisolvence, family,
                       global_dimension_formula, local_dofs, min_order,
                       shape_space)
from .mesh import (CuboidMesh, build_box_mesh, euler_characteristic,
                   uniform_unit_mesh)
from .operators import (OPERATORS, PolyField, check_identity_curl_symgrad,
                        curl_curl_transpose, curl_rows, curl_transpose,
                        div_rows, gradgrad, sym_grad)
from .polytensor import CellBox, Degree3, EntityRef, TensorPoly, box
from .verify import (COMPLEX_NAMES, COMPLEXES, ExactnessReport,
                     div_preimage_check, div_preimage_elasticity,
                     div_preimage_gradgrad, face_jump, identity_suite,
                     jump_check, kernel_identification, verify_complex,
                     verify_dimensions, verify_local_complex)

__version__ = "0.1.0"

__all__ = [
    "BubbleBasis", "CellBox", "COMPLEX_NAMES", "COMPLEXES", "CuboidMesh",
    "Degree3", "DofFunctional", "EntityRef", "ExactnessReport",
    "FAMILY_NAMES", "FamilyId", "GlobalSpace", "OPERATORS", "PolyField",
    "SparseMatrix", "TensorPoly", "assemble_space", "box",
    "bubble_basis_divT", "build_box_mesh", "check_identity_curl_symgrad",
    "check_unisolvence", "curl_curl_transpose", "curl_rows",
    "curl_transpose", "div_preimage_check", "div_preimage_elasticity",
    "div_preimage_gradgrad", "div_rows", "euler_characteristic",
    "face_jump", "family", "global_dimension_formula", "gradgrad",
    "identity_suite", "interpolate", "jump_check",
    "kernel_identification", "local_dofs", "min_order", "operator_matrix",
    "read_matrix_market", "reconstruct_local", "shape_space", "sym_grad",
    "uniform_unit_mesh", "verify_complex", "verify_dimensions",
    "verify_local_complex", "write_matrix_market",
    "__version__",
]
