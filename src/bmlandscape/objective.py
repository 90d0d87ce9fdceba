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
They take a leading batch axis; the trial engine calls them on whole
batches and the single-factor methods (``f_eval``, ``f_grad``,
``phi_eval``, ``phi_grad``, ``hess_apply``, ``f_hess_quadform``,
``f_hess_matrix``) are their batch-of-one case, so both report bitwise the
same numbers.  The curvature constants come from ``G`` as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .matkernel import as_factor, as_symmetric, jacobian_matrix, sym_eig

__all__ = ["QuadraticObjective", "SecondOrderReport", "symmetric_basis"]


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
    """Stationarity diagnostics of the factored objective at one point."""

    grad_norm: float
    hess_min_eig: float
    objective_value: float
    gap: float
    grad_tol: float
    hess_tol: float

    @property
    def passed(self) -> bool:
        return self.grad_norm <= self.grad_tol and self.hess_min_eig >= -self.hess_tol

    def to_obj(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "hess_min_eig": self.hess_min_eig,
            "objective_value": self.objective_value,
            "gap": self.gap,
            "grad_tol": self.grad_tol,
            "hess_tol": self.hess_tol,
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
        with np.errstate(over="ignore", invalid="ignore"):
            m_star = z @ z.T
        if not np.all(np.isfinite(m_star)):
            raise ValueError("ground-truth Gram matrix Z Z^T overflows float64")
        self.m_star = m_star
        self._m_star_stack = m_star[None]
        self._gram_sym = None
        self._bounds = None

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
    # not; callers that expect overflow silence it themselves, outside any
    # hot loop.  ``out``, where a kernel takes it, is a C-contiguous array
    # of the result's shape that receives the result; writing there gives
    # the same bits as a fresh result.

    def residuals(self, x, out=None) -> np.ndarray:
        """Residuals E_b = X_b X_b^T - M* of a batch of factors."""
        # a contiguous transpose is faster for the stacked gemm than a view
        e = np.matmul(x, np.ascontiguousarray(x.transpose(0, 2, 1)), out=out)
        # a stack of copies of M* gives the broadcast's bits, and for small
        # matrices costs a third of the broadcast's per-matrix inner loops
        if len(self._m_star_stack) < len(e):
            self._m_star_stack = np.broadcast_to(self.m_star, e.shape).copy()
        e -= self._m_star_stack[: len(e)]
        return e

    def apply_gram(self, e, out=None) -> np.ndarray:
        """Matrices mat(G vec(E_b)) = sum_k <A_k, E_b> A_k of a batch."""
        b, n = len(e), self.n
        if out is None:
            out = np.empty((b, n, n))
        elif not out.flags.c_contiguous:
            raise ValueError("apply_gram needs a C-contiguous out array")
        flat = (b, 1, n * n)
        np.matmul(e.reshape(flat), self.gram_symmetric, out=out.reshape(flat))
        return out

    @staticmethod
    def values(e, s) -> np.ndarray:
        """Objective values 1/2 <E_b, S_b> = 1/2 sum_k <A_k, E_b>^2."""
        return 0.5 * np.einsum("bij,bij->b", e, s, optimize=False)

    @staticmethod
    def grads(x, s, out=None) -> np.ndarray:
        """Gradients 2 S_b X_b of f, given S_b = mat(G vec(E_b))."""
        g = np.matmul(s, x, out=out)
        g *= 2.0
        return g

    # -- curvature -----------------------------------------------------

    @property
    def gram_symmetric(self) -> np.ndarray:
        """n^2 x n^2 matrix G with G vec(E) = vec(hessian-of-phi applied to E)."""
        if self._gram_sym is None:
            stack = self.measurements
            sym = 0.5 * (stack + stack.transpose(0, 2, 1))
            flat = sym.reshape(len(sym), -1, order="C")
            # vec is column-stacking, but each A is symmetric so order is moot
            self._gram_sym = flat.T @ flat
        return self._gram_sym

    def measurement_gram(self) -> np.ndarray:
        """Gram matrix sum_k vec(A_k) vec(A_k)^T of the *raw* measurements."""
        # row k is vec(A_k): the column-stacking of A_k is the row-major A_k^T
        flat = self.measurements.transpose(0, 2, 1).reshape(len(self.measurements), -1)
        return flat.T @ flat

    def smoothness_bounds(self) -> tuple[float, float]:
        """Extreme curvatures (mu, L) of phi over symmetric matrices."""
        if self._bounds is None:
            basis = symmetric_basis(self.n).reshape(-1, self.n * self.n)
            w, _ = sym_eig(basis @ self.gram_symmetric @ basis.T)
            mu, big = float(w[-1]), float(w[0])
            if mu <= 1e-12:
                raise ValueError(
                    "measurement set does not induce positive-definite curvature"
                )
            self._bounds = (mu, big)
        return self._bounds

    # -- matrix-space evaluations ---------------------------------------

    def _residual(self, m_mat) -> np.ndarray:
        return as_symmetric(m_mat) - self.m_star

    def _apply(self, m) -> np.ndarray:
        """sum_k <A_k, M> A_k for one matrix; an overflow gives inf silently."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.apply_gram(m[None])[0]

    def phi_eval(self, m_mat) -> float:
        e = self._residual(m_mat)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            return float(self.values(e, self.apply_gram(e))[0])

    def phi_grad(self, m_mat) -> np.ndarray:
        return self._apply(self._residual(m_mat))

    def hess_apply(self, e_mat) -> np.ndarray:
        """Hessian of phi applied to a symmetric direction (constant in M)."""
        return self._apply(as_symmetric(e_mat))

    # -- factored-space evaluations --------------------------------------

    def _check_factor(self, x) -> np.ndarray:
        x = as_factor(x)
        if x.shape[0] != self.n:
            raise ValueError(f"factor has {x.shape[0]} rows, expected {self.n}")
        return x

    def _s_term(self, x) -> np.ndarray:
        """S = grad phi(X X^T) for one checked factor."""
        return self.apply_gram(self.residuals(x[None]))[0]

    def f_eval(self, x) -> float:
        xb = self._check_factor(x)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            e = self.residuals(xb)
            value = float(self.values(e, self.apply_gram(e))[0])
        if not math.isfinite(value):
            raise ValueError("objective value f(X) overflows float64")
        return value

    def f_grad(self, x) -> np.ndarray:
        xb = self._check_factor(x)[None]
        with np.errstate(over="ignore", invalid="ignore"):
            grad = self.grads(xb, self.apply_gram(self.residuals(xb)))[0]
        if not np.all(np.isfinite(grad)):
            raise ValueError("gradient of f at X overflows float64")
        return grad

    def f_hess_quadform(self, x, v) -> float:
        """Quadratic form <hess f(X)[V], V> along a direction V."""
        x = self._check_factor(x)
        v = self._check_factor(v)
        if v.shape != x.shape:
            raise ValueError(f"direction shape {v.shape} != factor shape {x.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            s = self._s_term(x)
            w = x @ v.T + v @ x.T
            # hess_apply without its finiteness check, so overflow reaches ours
            hw = self._apply(0.5 * (w + w.T))
            value = 2.0 * float(np.vdot(s, v @ v.T)) + float(np.vdot(hw, w))
        if not math.isfinite(value):
            raise ValueError("Hessian quadratic form of f at X overflows float64")
        return value

    def f_hess_matrix(self, x) -> np.ndarray:
        """Dense (n*r) x (n*r) Hessian of f at X in vec coordinates."""
        x = self._check_factor(x)
        r = x.shape[1]
        j = jacobian_matrix(x)
        with np.errstate(over="ignore", invalid="ignore"):
            s = self._s_term(x)
            h = j.T @ self.gram_symmetric @ j + 2.0 * np.kron(np.eye(r), s)
            h = 0.5 * (h + h.T)
        if not np.all(np.isfinite(h)):
            raise ValueError("Hessian of f at X overflows float64")
        return h

    def f_hess_min_eig(self, x) -> float:
        w, _ = sym_eig(self.f_hess_matrix(x))
        return float(w[-1])

    def check_second_order(
        self, x, grad_tol: float = 1e-9, hess_tol: float = 1e-9
    ) -> SecondOrderReport:
        """Evaluate first/second-order stationarity of f at X.

        The family's minimum value is zero (attained where X X^T equals the
        ground-truth Gram matrix), so the reported gap equals the objective
        value itself.
        """
        x = self._check_factor(x)
        value = self.f_eval(x)
        return SecondOrderReport(
            grad_norm=float(np.linalg.norm(self.f_grad(x))),
            hess_min_eig=self.f_hess_min_eig(x),
            objective_value=value,
            gap=value,
            grad_tol=grad_tol,
            hess_tol=hess_tol,
        )

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
        try:
            z = serialize.matrix_from_lists(obj["Z"])
            meas = [serialize.matrix_from_lists(a) for a in obj["measurements"]]
        except KeyError as exc:
            raise ValueError(f"objective record is missing field {exc}") from exc
        inst = cls(np.stack(meas), z)
        if inst.n != int(obj["n"]) or inst.r_star != int(obj["r_star"]):
            raise ValueError("objective record dimensions are inconsistent")
        return inst
