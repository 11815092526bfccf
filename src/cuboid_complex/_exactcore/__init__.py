"""Exact integer kernels: fraction-free rank, exact inverse, matrix products.

The implementations live in :mod:`.pure`; this package re-exports them.
"""

from .pure import ff_rank, fj_inverse, imat_mul, spmul

__all__ = ["ff_rank", "fj_inverse", "imat_mul", "spmul"]
