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

import functools

import numpy as np

__all__ = [
    "as_symmetric",
    "as_factor",
    "sym_eig",
    "pinv",
    "vec",
    "unvec",
    "overflow_checked",
    "pair_residual",
    "jacobian_apply",
    "jacobian_matrix",
    "residual_projector",
]

# Singular values below PINV_TOL_SCALE * max(rows, cols) * sigma_max are
# treated as zero when forming a pseudo-inverse.
PINV_TOL_SCALE = 1e-10

# A quantity counts as zero when it is at most ZERO_RTOL times the scale it is
# measured against; the package's one zero test, and the slack of its checks
# that a unit-scale value lies in its interval.
ZERO_RTOL = 1e-12


def as_symmetric(s) -> np.ndarray:
    """Validate a square finite matrix and return its symmetric part."""
    a = as_factor(s)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def as_factor(x) -> np.ndarray:
    """The package's one matrix check: *x* as a finite 2-d float array."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got ndim {a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def sym_eig(s):
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    Returns ``(w, v)`` with ``w`` descending and ``v`` the matching
    orthonormal eigenvector columns.
    """
    w, v = np.linalg.eigh(as_symmetric(s))
    return w[::-1], v[:, ::-1]


def pinv(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with an explicit rank cutoff.

    Singular values at or below ``PINV_TOL_SCALE * max(rows, cols)`` times the
    largest singular value are treated as zero, so the zero matrix maps to
    the zero matrix.
    """
    m = as_factor(a)
    return np.linalg.pinv(m, rcond=PINV_TOL_SCALE * max(m.shape))


def vec(m) -> np.ndarray:
    """Column-stacking vectorization."""
    return np.asarray(m, dtype=float).flatten(order="F")


def unvec(x) -> np.ndarray:
    """Inverse of :func:`vec` for a square matrix."""
    x = np.asarray(x, dtype=float)
    n = int(round(np.sqrt(x.size)))
    if n * n != x.size:
        raise ValueError(f"cannot reshape length-{x.size} vector to a square matrix")
    return x.reshape((n, n), order="F")


def overflow_checked(what: str):
    """Decorator: the package's one overflow rule.

    Runs the function with numpy's overflow and invalid-value warnings
    silenced, and returns its result if every entry is finite; otherwise
    raises ``ValueError`` naming *what*.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def checked(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                out = fn(*args, **kwargs)
            if not np.all(np.isfinite(out)):
                raise ValueError(f"{what} overflows float64")
            return out

        return checked

    return decorate


@overflow_checked("residual X X^T - Z Z^T")
def _grams_and_residual(x, z):
    xx, zz = x @ x.T, z @ z.T
    return xx, zz, xx - zz


def pair_residual(x, z):
    """Validated factors ``(X, Z)`` of a pair and their residual ``X X^T - Z Z^T``.

    Rejects factors with different row counts, a residual that overflows
    (:func:`overflow_checked`) and a pair with identical Gram matrices:
    ``max |E|`` at most ``ZERO_RTOL`` times the larger of ``max |X X^T|``
    and ``max |Z Z^T|``.
    """
    x = as_factor(x)
    z = as_factor(z)
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"factors must share their row count, got {x.shape} and {z.shape}"
        )
    xx, zz, e = _grams_and_residual(x, z)
    if np.abs(e).max() <= ZERO_RTOL * max(np.abs(xx).max(), np.abs(zz).max()):
        raise ValueError("factor pair has identical Gram matrices X X^T = Z Z^T")
    return x, z, e


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
