"""Quadratic measurement objectives and their factored (low-rank) form.

An objective is built from a list of measurement matrices ``A_k`` and a
ground-truth factor ``Z``:

    phi(M) = 1/2 * sum_k <A_k, M - Z Z^T>^2

restricted to symmetric ``M``.  The factored form is ``f(X) = phi(X X^T)``
for an ``n x r`` factor ``X``.  Measurement matrices are stored exactly as
given (possibly unsymmetric); every formula applies them through their
symmetric part, and the raw stack stays available for certificate work.

This module is the only code that contracts the measurement stack, and it
does so once: into the ``n^2 x n^2`` curvature matrix ``G =
gram_symmetric`` with ``G vec(E) = vec(sum_k <A_k, E> A_k)``.  Values,
gradients and the ``S = grad phi(X X^T)`` term come from batched kernels on
the residual ``E = X X^T - M*`` (``residuals``, ``apply_gram``, ``values``,
``grads``): ``S = mat(G vec(E))``, ``f = 1/2 <E, S>`` and ``grad f = 2 S X``.
They take a leading batch axis and are the definitions: the single-factor
methods (``f_eval``, ``f_grad``, ``f_hess_quadform``, ``f_hess_matrix``)
are their batch-of-one case, and the trial engine calls them for its first
and final evaluations and unrolls ``grads``, ``residuals`` and
``apply_gram`` into its step loop as the same arithmetic in the same
order (with the gradient's factor 2 folded, exactly, into the step size),
so all of them report bitwise the same numbers; the engine's tests hold
its loop to these kernels.  The curvature constants come from ``G``
as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .matkernel import (
    ZERO_RTOL, as_factor, jacobian_apply, jacobian_matrix, overflow_checked, sym_eig
)

__all__ = ["STATIONARY_TOL", "QuadraticObjective", "SecondOrderReport", "symmetric_basis"]

# Default bound on the gradient norm and on the negative part of the least
# Hessian eigenvalue for a point to count as second-order stationary.
STATIONARY_TOL = 1e-9


def symmetric_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the symmetric n x n matrices, stacked ``(s, n, n)``.

    ``s = n(n+1)/2``, ordered lexicographically over index pairs (i <= j):
    unit diagonal matrices ``e_i e_i^T`` and off-diagonal
    ``(e_i e_j^T + e_j e_i^T)/sqrt(2)``.  Flattened to ``(s, n^2)`` it is
    the transpose of the basis ``Q`` of the symmetric subspace of vec space.
    """
    i, j = np.triu_indices(n)
    t = np.arange(len(i))
    value = np.where(i == j, 1.0, 1.0 / np.sqrt(2.0))
    basis = np.zeros((len(i), n, n))
    basis[t, i, j] = value
    basis[t, j, i] = value
    return basis


@dataclass(frozen=True)
class SecondOrderReport:
    """Stationarity diagnostics of the factored objective at one point.

    The family's minimum value is zero (attained where X X^T equals the
    ground-truth Gram matrix), so the objective value is also the gap to
    the global minimum, written as ``gap``.  One tolerance bounds both the
    gradient norm and the negative part of the Hessian's least eigenvalue.
    """

    grad_norm: float
    hess_min_eig: float
    objective_value: float
    tol: float

    @property
    def checks(self) -> dict:
        return {"first_order": self.grad_norm <= self.tol, "second_order": self.hess_min_eig >= -self.tol}

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def to_obj(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "hess_min_eig": self.hess_min_eig,
            "objective_value": self.objective_value,
            "gap": self.objective_value,
            "grad_tol": self.tol,
            "hess_tol": self.tol,
            "passed": self.passed,
        }


class QuadraticObjective:
    """Least-squares objective over PSD matrices defined by linear measurements."""

    def __init__(self, measurements, ground_truth):
        z = as_factor(ground_truth)
        stack = np.asarray(measurements, dtype=float)
        if stack.ndim != 3:
            raise ValueError("measurements must stack to an (m, n, n) array")
        m, n1, n2 = stack.shape
        if n1 != n2:
            raise ValueError(f"measurement matrices must be square, got {n1}x{n2}")
        if m == 0:
            raise ValueError("at least one measurement matrix is required")
        if z.shape[0] != n1:
            raise ValueError(
                f"ground truth has {z.shape[0]} rows but measurements are {n1}x{n1}"
            )
        if not np.all(np.isfinite(stack)):
            raise ValueError("measurement entries must be finite")
        self.measurements = stack
        self.ground_truth = z
        self.n = n1
        self.r_star = z.shape[1]
        self.m_star = overflow_checked("ground-truth Gram matrix Z Z^T")(np.matmul)(z, z.T)

    # -- batched kernels -------------------------------------------------
    #
    # A leading batch axis b holds independent points.  Every product is a
    # stacked (3-D) np.matmul, which makes the same BLAS call for each
    # point's own matrices, so each point's numbers are the same whatever
    # else shares its batch.  A flat 2-D product over the batch (E @ G with
    # E of shape (b, n^2)) is avoided: BLAS picks its routine and blocking
    # by the row count, and a row's bits then depend on the batch's size
    # (a one-row product differed from the same row of a 100-row one in
    # nearly every row tried).  matmul warns on overflow where einsum did
    # not; the single-factor methods and the trial engine silence it.

    def residuals(self, x) -> np.ndarray:
        """Residuals E_b = X_b X_b^T - M* of a batch of factors."""
        # a contiguous transpose is faster for the stacked gemm than a view
        e = np.matmul(x, np.ascontiguousarray(x.transpose(0, 2, 1)))
        e -= self.m_star
        return e

    def apply_gram(self, e) -> np.ndarray:
        """Matrices mat(G vec(E_b)) = sum_k <A_k, E_b> A_k of a batch."""
        b, n = len(e), self.n
        return np.matmul(e.reshape(b, 1, n * n), self.gram_symmetric).reshape(b, n, n)

    @staticmethod
    def values(e, s) -> np.ndarray:
        """Objective values 1/2 <E_b, S_b> = 1/2 sum_k <A_k, E_b>^2."""
        return 0.5 * np.einsum("bij,bij->b", e, s, optimize=False)

    @staticmethod
    def grads(x, s) -> np.ndarray:
        """Gradients 2 S_b X_b of f, given S_b = mat(G vec(E_b))."""
        g = np.matmul(s, x)
        g *= 2.0
        return g

    # -- curvature -----------------------------------------------------

    @functools.cached_property
    def gram_symmetric(self) -> np.ndarray:
        """n^2 x n^2 matrix G with G vec(E) = vec(hessian-of-phi applied to E)."""
        stack = self.measurements
        sym = 0.5 * (stack + stack.transpose(0, 2, 1))
        flat = sym.reshape(len(sym), -1, order="C")
        # vec is column-stacking, but each A is symmetric so order is moot
        return flat.T @ flat

    def measurement_gram(self) -> np.ndarray:
        """Gram matrix sum_k vec(A_k) vec(A_k)^T of the *raw* measurements."""
        # row k is vec(A_k): the column-stacking of A_k is the row-major A_k^T
        flat = self.measurements.transpose(0, 2, 1).reshape(len(self.measurements), -1)
        return flat.T @ flat

    def smoothness_bounds(self) -> tuple[float, float]:
        """Extreme curvatures (mu, L) of phi over symmetric matrices; needs mu > ZERO_RTOL * L."""
        basis = symmetric_basis(self.n).reshape(-1, self.n * self.n)
        w, _ = sym_eig(basis @ self.gram_symmetric @ basis.T)
        mu, big = float(w[-1]), float(w[0])
        if mu <= ZERO_RTOL * big:
            raise ValueError("measurement set does not induce positive-definite curvature")
        return mu, big

    # -- factored-space evaluations --------------------------------------

    def _terms(self, x):
        """Checked factor X, its residual E and S = grad phi(X X^T), each a batch of one."""
        x = as_factor(x)
        if x.shape[0] != self.n:
            raise ValueError(f"factor has {x.shape[0]} rows, expected {self.n}")
        e = self.residuals(x[None])
        return x[None], e, self.apply_gram(e)

    @overflow_checked("objective value f(X)")
    def f_eval(self, x) -> float:
        _, e, s = self._terms(x)
        return float(self.values(e, s)[0])

    @overflow_checked("gradient of f at X")
    def f_grad(self, x) -> np.ndarray:
        xb, _, s = self._terms(x)
        return self.grads(xb, s)[0]

    @overflow_checked("Hessian quadratic form of f at X")
    def f_hess_quadform(self, x, v) -> float:
        """Quadratic form <hess f(X)[V], V> along a direction V of X's shape."""
        (x,), _, (s,) = self._terms(x)
        v = as_factor(v)
        w = jacobian_apply(x, v)
        hw = self.apply_gram((0.5 * (w + w.T))[None])[0]
        return 2.0 * float(np.vdot(s, v @ v.T)) + float(np.vdot(hw, w))

    @overflow_checked("Hessian of f at X")
    def f_hess_matrix(self, x) -> np.ndarray:
        """Dense (n*r) x (n*r) Hessian of f at X in vec coordinates."""
        (x,), _, (s,) = self._terms(x)
        j = jacobian_matrix(x)
        h = j.T @ self.gram_symmetric @ j + 2.0 * np.kron(np.eye(x.shape[1]), s)
        return 0.5 * (h + h.T)

    def check_second_order(self, x, tol: float = STATIONARY_TOL) -> SecondOrderReport:
        """Evaluate first/second-order stationarity of f at X."""
        if not 0.0 <= tol < math.inf:
            raise ValueError(f"tol must be finite and nonnegative, got {tol}")
        value = self.f_eval(x)
        grad_norm = float(np.linalg.norm(self.f_grad(x)))
        w, _ = sym_eig(self.f_hess_matrix(x))
        return SecondOrderReport(grad_norm, float(w[-1]), value, tol)

    # -- serialization ----------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "r_star": self.r_star,
            "Z": serialize.matrix_to_lists(self.ground_truth),
            # one conversion: the stack was checked finite at construction
            "measurements": self.measurements.tolist(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "QuadraticObjective":
        meas = serialize._number_array(obj["measurements"])
        inst = cls(meas, serialize.matrix_from_lists(obj["Z"]))
        for name in ("n", "r_star"):
            if type(obj[name]) is not int or obj[name] != getattr(inst, name):
                raise ValueError(
                    f"objective field {name}={obj[name]!r} is not the integer "
                    f"{getattr(inst, name)} of its matrices"
                )
        return inst
