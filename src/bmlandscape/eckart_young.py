"""Regularized low-rank approximation with a Gram penalty.

Solves, in closed form,

    minimize_Y  ||A - Y Y^T||_F^2 + 2 <B, Y^T Y>

over n x r factors Y, where A (n x n) and B (r x r) are PSD.  With
eigenvalues ``s`` of A sorted descending and ``d`` of B sorted ascending,
the optimal value is ``sum(s^2) - sum_{i<=r} ((s_i - d_i)_+)^2``, attained
by pairing the largest remaining ``s`` with the smallest remaining ``d``
and keeping the clipped weight ``(s_i - d_i)_+`` on that eigenvector pair.
Setting ``B = 0`` recovers classical best rank-r approximation.

A brute-force oracle over all generalized-permutation minimizers is
included, along with two scalar inequalities used when bounding the value
from below.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .matkernel import ZERO_RTOL, overflow_checked

__all__ = [
    "EYProblem",
    "EYSolution",
    "solve",
    "brute_force",
    "objective_value",
    "first_order_residual",
    "value_lower_bound",
    "ones_projection_inequality",
]

BRUTE_FORCE_MAX_N = 7
BRUTE_FORCE_MAX_R = 4


def _check_spectrum(values, name: str, ascending: bool) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise ValueError(f"{name} must be nonempty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if np.any(arr < 0):
        raise ValueError(f"{name} must be nonnegative, got {arr}")
    diffs = np.diff(arr)
    if ascending and np.any(diffs < 0):
        raise ValueError(f"{name} must be sorted ascending, got {arr}")
    if not ascending and np.any(diffs > 0):
        raise ValueError(f"{name} must be sorted descending, got {arr}")
    return arr


@dataclass(frozen=True)
class EYProblem:
    """Eigenvalue-space description of one penalized approximation problem.

    ``s`` holds the target's eigenvalues sorted descending, ``d`` the
    penalty's sorted ascending with ``len(d) <= len(s)``; the problem is
    posed in the eigenbases, A = diag(s) and B = diag(d).  Sorting is
    enforced, never performed silently: the pairing argument behind the
    closed form is order-sensitive.
    """

    s: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        s = _check_spectrum(self.s, "s", ascending=False)
        d = _check_spectrum(self.d, "d", ascending=True)
        if d.size > s.size:
            raise ValueError(
                f"penalty rank {d.size} exceeds target dimension {s.size}"
            )
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "d", d)

    @property
    def n(self) -> int:
        return self.s.size

    @property
    def r(self) -> int:
        return self.d.size


@dataclass(frozen=True)
class EYSolution:
    y: np.ndarray  # minimizer in the eigenbases of A and B
    value: float
    weights: np.ndarray  # (s_i - d_i)_+ for i <= r


def _paired_value(s: np.ndarray, rows, d: np.ndarray) -> float:
    # Row i paired with penalty d keeps s^2 - (s - d)^2 = d (2s - d) when
    # d < s, else s^2.  The factored form is exact for B = 0 and stays
    # finite where s^2 overflows but the value does not.  On Python floats
    # an overflowing total is inf, without numpy's warning.
    s, d = s.tolist(), d.tolist()
    total = 0.0
    used = set()
    for i, dj in zip(rows, d):
        total += dj * (2.0 * s[i] - dj) if dj < s[i] else s[i] * s[i]
        used.add(i)
    for i in range(len(s)):
        if i not in used:
            total += s[i] * s[i]
    return total


def solve(p: EYProblem) -> EYSolution:
    """Closed-form minimizer and value of the penalized approximation."""
    weights = np.maximum(p.s[: p.r] - p.d, 0.0)
    value = _paired_value(p.s, range(p.r), p.d)
    y = np.zeros((p.n, p.r))
    y[np.arange(p.r), np.arange(p.r)] = np.sqrt(weights)
    return EYSolution(y=y, value=value, weights=weights)


def brute_force(p: EYProblem) -> float:
    """Exhaustive minimum of the objective over generalized permutations.

    Every column of the candidate minimizer is assigned to a distinct row of
    the diagonal frame and given its per-pair optimal weight; the smallest
    objective over all injective assignments is returned.  This enumerates
    the full minimizer family, so it equals :func:`solve`'s value — used as
    an independent oracle, hence kept deliberately free of the pairing
    shortcut.
    """
    if p.n > BRUTE_FORCE_MAX_N or p.r > BRUTE_FORCE_MAX_R:
        raise ValueError(
            f"brute force limited to n <= {BRUTE_FORCE_MAX_N}, "
            f"r <= {BRUTE_FORCE_MAX_R}, got n={p.n}, r={p.r}"
        )
    best = math.inf
    for rows in itertools.permutations(range(p.n), p.r):
        best = min(best, _paired_value(p.s, rows, p.d))
    return best


def objective_value(p: EYProblem, y) -> float:
    """||A - Y Y^T||_F^2 + 2 <B, Y^T Y> with A = diag(s), B = diag(d)."""
    y = np.asarray(y, dtype=float)
    resid = np.diag(p.s) - y @ y.T
    return float(np.vdot(resid, resid) + 2.0 * np.vdot(np.diag(p.d), y.T @ y))


def first_order_residual(p: EYProblem, y) -> float:
    """Norm of the stationarity defect (A - Y Y^T) Y - Y B."""
    y = np.asarray(y, dtype=float)
    defect = (np.diag(p.s) - y @ y.T) @ y - y @ np.diag(p.d)
    return float(np.linalg.norm(defect))


def value_lower_bound(s, d, s_lb: float) -> float:
    """Certified lower bound on ||s||^2 - ||(s - d)_+||^2.

    Requires every entry of ``s`` to be at least ``s_lb >= 0`` and ``d`` to
    be nonnegative.  Returns ``s_lb^2 (1^T d)^2 / ||d||^2`` when
    ``s_lb * 1^T d <= ||d||^2`` and ``||d||^2`` otherwise; an all-zero ``d``
    yields 0 (both case formulas degenerate and the true quantity vanishes).
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    d = np.asarray(d, dtype=float).reshape(-1)
    if s.size != d.size:
        raise ValueError(f"s and d must have equal length, got {s.size}, {d.size}")
    if s_lb < 0:
        raise ValueError(f"s_lb must be nonnegative, got {s_lb}")
    if np.any(s < s_lb):
        raise ValueError("every entry of s must be at least s_lb")
    if np.any(d < 0):
        raise ValueError("d must be nonnegative")
    d_sq = float(overflow_checked("squared norm d^T d")(np.matmul)(d, d))
    if d_sq == 0.0:
        return 0.0
    # t <= d_sq on the first branch, so t * (t / d_sq) <= d_sq is finite
    # where t * t may overflow
    t = s_lb * float(d.sum())
    if t <= d_sq:
        return t * (t / d_sq)
    return d_sq


def ones_projection_inequality(x) -> tuple[float, float]:
    """Evaluate 1^T (I - x x^T / ||x||^2) 1  >=  ||(1 - x)_+||^2.

    Valid for nonnegative ``x`` with ``1^T x <= ||x||^2``; returns the two
    sides (lhs, rhs) so callers can inspect the slack.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size == 0 or np.all(x == 0):
        raise ValueError("x must be a nonzero vector")
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    x_sq = float(overflow_checked("squared norm x^T x")(np.matmul)(x, x))
    x_sum = float(x.sum())
    if x_sum > x_sq * (1.0 + ZERO_RTOL):
        raise ValueError("hypothesis 1^T x <= ||x||^2 violated")
    # x_sum / x_sq <= 1 + ZERO_RTOL, so the product cannot overflow
    lhs = x.size - x_sum * (x_sum / x_sq)
    rhs = float(np.sum(np.maximum(1.0 - x, 0.0) ** 2))
    return lhs, rhs
