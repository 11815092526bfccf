"""Exact integer kernels: fraction-free rank, exact inverse, matrix products,
and the one helper that clears rational rows to integers.

The implementations live in :mod:`.pure`; this package re-exports them.
"""

from .pure import clear_denominators, ff_rank, fj_inverse, imat_mul, spmul

__all__ = ["clear_denominators", "ff_rank", "fj_inverse", "imat_mul", "spmul"]
