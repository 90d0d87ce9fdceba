"""Dense symmetric-matrix kernels used throughout the package.

Everything here operates on plain ``numpy`` arrays.  The eigensolver is
LAPACK's symmetric ``eigh`` behind a descending-order wrapper; the
pseudo-inverse is numpy's SVD-based one with an explicit rank cutoff.

Conventions:
    * ``vec`` is column-stacking; ``unvec`` is its inverse.
    * Eigenvalues are returned in descending order with orthonormal
      eigenvector columns.
    * The factorization Jacobian ``J_X`` maps ``vec(V) -> vec(X V^T + V X^T)``
      and is realized as a dense ``(n^2, n*r)`` matrix when needed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_symmetric",
    "as_factor",
    "sym_eig",
    "pinv",
    "vec",
    "unvec",
    "jacobian_apply",
    "jacobian_matrix",
    "residual_projector",
]

# Singular values below PINV_TOL_SCALE * max(rows, cols) * sigma_max are
# treated as zero when forming a pseudo-inverse.
PINV_TOL_SCALE = 1e-10


def as_symmetric(s) -> np.ndarray:
    """Validate a square finite matrix and return its symmetric part."""
    a = np.asarray(s, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return 0.5 * (a + a.T)


def as_factor(x) -> np.ndarray:
    """Validate a rectangular finite factor matrix."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d factor matrix, got ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("factor entries must be finite")
    return a


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(w, v)`` with ``w`` descending and ``v`` the matching
    orthonormal eigenvector columns.  A 1x1 or zero matrix is answered
    exactly, with ``v`` the identity.
    """
    a = as_symmetric(s)
    n = a.shape[0]
    if n == 1:
        return a[0, :1].copy(), np.eye(1)
    if not a.any():
        return np.zeros(n), np.eye(n)
    w, v = np.linalg.eigh(a)
    return w[::-1], v[:, ::-1]


def pinv(a, tol_scale: float = PINV_TOL_SCALE) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with an explicit rank cutoff.

    Singular values at or below ``tol_scale * max(rows, cols)`` times the
    largest singular value are treated as zero.  The zero matrix maps to the
    zero matrix.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError("pinv expects a 2-d array")
    if not np.all(np.isfinite(m)):
        raise ValueError("pinv input must be finite")
    if not m.any():
        return np.zeros((m.shape[1], m.shape[0]))
    return np.linalg.pinv(m, rcond=tol_scale * max(m.shape))


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=float).flatten(order="F")


def unvec(x, n: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix."""
    x = np.asarray(x, dtype=float)
    if n is None:
        n = int(round(np.sqrt(x.size)))
    if n * n != x.size:
        raise ValueError(f"cannot reshape length-{x.size} vector to a square matrix")
    return x.reshape((n, n), order="F")


def jacobian_apply(x, v) -> np.ndarray:
    """Directional derivative of ``X -> X X^T``: returns ``X V^T + V X^T``."""
    x = as_factor(x)
    v = as_factor(v)
    if v.shape != x.shape:
        raise ValueError(f"direction shape {v.shape} != factor shape {x.shape}")
    return x @ v.T + v @ x.T


def jacobian_matrix(x) -> np.ndarray:
    """Dense ``(n^2, n*r)`` matrix of ``vec(V) -> vec(X V^T + V X^T)``.

    Column ``c*n + i`` is ``vec(x[:, c] e_i^T + e_i x[:, c]^T)``: entry
    ``(a, i)`` holds ``x[a, c]``, entry ``(i, b)`` holds ``x[b, c]``, and the
    diagonal entry ``(i, i)`` holds their sum.
    """
    x = as_factor(x)
    n, r = x.shape
    idx = np.arange(n)
    # j[b, a, c, i] = d vec(X V^T + V X^T)[a + b*n] / d vec(V)[i + c*n]
    j = np.zeros((n, n, r, n))
    j[idx, :, :, idx] += x  # the column term x[:, c] e_i^T
    j[:, idx, :, idx] += x  # the row term e_i x[:, c]^T
    return j.reshape(n * n, n * r)


def residual_projector(x) -> np.ndarray:
    """Orthogonal projector onto the complement of ``range(X)``.

    With ``P = I - X pinv(X)``, the Kronecker identity
    ``(I - J_X pinv(J_X)) vec(W) == kron(P, P) vec(W)`` holds for every
    *symmetric* ``W``.  It cannot hold unrestricted: ``range(J_X)`` contains
    only symmetric matrices, so ``I - J_X pinv(J_X)`` fixes every
    antisymmetric ``W`` while ``kron(P, P)`` does not.
    """
    x = as_factor(x)
    n = x.shape[0]
    p = np.eye(n) - x @ pinv(x)
    return 0.5 * (p + p.T)
