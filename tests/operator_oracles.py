"""Dense and coefficient-wise references for operator tests.

Neither the package nor its command line reads these: they are the tests'
oracles for operator algebra, state application and the boundary solves.
"""

import numpy as np

from scartypes.opspace import (CapacityError, LocalOperator, _flip_diagonals,
                               to_boson_basis)

MATRIX_MAX_SITES = 14      # dense 2^N guard


def operators_equal(a: LocalOperator, b: LocalOperator, tol: float = 1e-12) -> bool:
    """Equality as operators, comparing coefficients in the boson basis."""
    diff = to_boson_basis(a) - to_boson_basis(b)
    return all(abs(c) <= tol for c in diff.terms.values())


def to_matrix(op: LocalOperator) -> np.ndarray:
    """Dense 2^N x 2^N matrix filled from _flip_diagonals; guarded against blowup."""
    if op.n_sites > MATRIX_MAX_SITES:
        raise CapacityError(f"N={op.n_sites} exceeds dense guard {MATRIX_MAX_SITES}")
    dim = 1 << op.n_sites
    mat = np.zeros((dim, dim), dtype=complex)
    idx = np.arange(dim)
    for flip, diag in _flip_diagonals(op).items():
        mat[idx ^ flip, idx] = diag
    return mat
