"""Closed-form landscape bounds for factored PSD optimization.

Given a candidate stuck factor ``X`` and a ground-truth factor ``Z``, two
scalars summarize the geometry:

    alpha = ||Z_perp Z_perp^T||_F / ||X X^T - Z Z^T||_F
    beta  = lam_min(X^T X) * tr(Z_perp Z_perp^T)
            / (||X X^T - Z Z^T||_F * ||Z_perp Z_perp^T||_F)

with ``Z_perp = (I - X X^+) Z`` the part of the ground truth invisible to
the range of ``X``.  From (alpha, beta) alone one gets a certified lower
bound on the condition number of any measurement operator that could make
``X`` a second-order stationary point, a valid inequality tying (alpha,
beta) to the rank overparameterization ratio, and the resulting rank
thresholds.  All functions here are pure closed forms; the companion
grid/witness oracles live in the test-suite and the certificates module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matkernel import ZERO_RTOL, overflow_checked, pair_residual, pinv, sym_eig

__all__ = [
    "AlphaBeta",
    "BoundEvaluation",
    "alpha_beta",
    "kappa_lb_closed_form",
    "gamma",
    "valid_inequality",
    "minab",
    "cos_theta_lb",
    "rank1_invariants",
    "check_ranks",
    "thresholds",
    "sufficient_rank",
]


@dataclass(frozen=True)
class AlphaBeta:
    """The (alpha, beta) invariants of a factor pair.

    ``degenerate`` is set when ``Z_perp`` vanishes identically; in that case
    ``alpha`` is zero and ``beta`` falls back to
    ``lam_min(X^T X) / ||X X^T - Z Z^T||_F``.
    """

    alpha: float
    beta: float
    degenerate: bool = False


@dataclass(frozen=True)
class BoundEvaluation:
    """A condition-number lower bound together with how it was attained."""

    kappa_lb: float  # math.inf when no finite bound is certified
    branch: str  # "first" (boundary optimum t=0) or "second" (interior)
    t_opt: float
    gamma_value: float


def _branch_is_first(alpha: float, beta: float) -> bool:
    return beta >= alpha / (1.0 + math.sqrt(max(0.0, 1.0 - alpha * alpha)))


def _check_unit(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0 + ZERO_RTOL:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return min(float(alpha), 1.0)


def check_ranks(r, r_star, n=math.inf) -> None:
    """The one rank rule: integers, not bools, with ``1 <= r_star <= r < n``
    and ``r < 2**53``, so r, r_star and ``q = r - r_star + 1`` are exact
    floats and no rank formula overflows; ``n`` is a built instance's size."""
    ints = all(isinstance(k, (int, np.integer)) and not isinstance(k, bool) for k in (r, r_star))
    if not (ints and 1 <= r_star <= r < n and r < 2**53):
        raise ValueError(
            f"need integer ranks 1 <= r_star <= r < n, r < 2**53; "
            f"got r_star={r_star!r}, r={r!r}, n={n!r}"
        )


def alpha_beta(x, z) -> AlphaBeta:
    """Geometric invariants of a factor pair (X, Z)."""
    return _pair_geometry(*pair_residual(x, z))[0]


def _pair_geometry(x, z, err):
    """``alpha_beta`` of a checked pair with residual ``err``, and its working.

    The pair is first scaled by the power of two ``2^k`` that puts ``max |E|``
    in [1/2, 2): the scaling is exact, (alpha, beta) are scale-free, and
    ``||E||_F`` cannot overflow.  Returns ``(ab, (X, Z, E, Z_perp), ||E||_F,
    ||Z_perp Z_perp^T||_F, v)`` for the scaled pair, with ``v`` the unit
    eigenvector of ``X^T X`` for ``lam_min``, or ``None`` if X is rank deficient.
    """
    k = -(math.frexp(float(np.abs(err).max()))[1] // 2)
    x, z, err = np.ldexp(x, k), np.ldexp(z, k), np.ldexp(err, 2 * k)
    err_norm = float(np.linalg.norm(err))
    z_perp = z - x @ (pinv(x) @ z)
    outer = z_perp @ z_perp.T
    outer_norm = float(np.linalg.norm(outer))

    gram_eigs, gram_vecs = sym_eig(x.T @ x)
    lam_min, v_min = float(gram_eigs[-1]), gram_vecs[:, -1:]
    if lam_min <= ZERO_RTOL * float(gram_eigs[0]):  # X is rank deficient
        lam_min, v_min = 0.0, None

    if outer_norm == 0.0:
        ab = AlphaBeta(alpha=0.0, beta=lam_min / err_norm, degenerate=True)
    else:
        alpha = _check_unit(outer_norm / err_norm)
        beta = lam_min * float(np.trace(outer)) / (err_norm * outer_norm)
        ab = AlphaBeta(alpha=alpha, beta=beta)
    return ab, (x, z, err, z_perp), err_norm, outer_norm, v_min


def kappa_lb_closed_form(ab: AlphaBeta) -> BoundEvaluation:
    """Certified condition-number lower bound from the (alpha, beta) pair.

    Two-case closed form: ``(1 + s)/(1 - s)`` with ``s = sqrt(1 - alpha^2)``
    when ``beta >= alpha/(1 + s)``, else ``(1 - alpha*beta)/((alpha - beta)*beta)``.
    It is the maximum of ``(1 + c(t))/(2t + 1 - c(t))`` over ``0 <= t <= alpha*beta``
    (``c =`` :func:`cos_theta_lb`), attained at ``t_opt``, and equals
    ``(1 + gamma)/(1 - gamma)`` with :func:`gamma`.
    A degenerate pair (``Z_perp = 0``) certifies nothing finite and yields an
    infinite sentinel; near-degenerate pairs flow through the same formulas
    to a finite but enormous bound.  A non-finite ``beta`` is rejected.
    """
    if not math.isfinite(ab.beta):
        raise ValueError(f"beta must be finite, got {ab.beta}")
    if ab.degenerate:
        return BoundEvaluation(
            kappa_lb=math.inf, branch="first", t_opt=0.0, gamma_value=1.0
        )
    alpha = _check_unit(ab.alpha)
    beta = float(ab.beta)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for a non-degenerate pair")
    g = gamma(alpha, beta)
    if _branch_is_first(alpha, beta):
        value = math.inf if g >= 1.0 else (1.0 + g) / (1.0 - g)
        return BoundEvaluation(kappa_lb=value, branch="first", t_opt=0.0, gamma_value=g)
    # a zero denominator (beta = 0 or an underflow) gets IEEE division's inf
    denom = (alpha - beta) * beta
    value = (1.0 - alpha * beta) / denom if denom > 0.0 else math.inf
    return BoundEvaluation(
        kappa_lb=value, branch="second", t_opt=_t_opt_second(alpha, beta), gamma_value=g
    )


def gamma(alpha: float, beta: float) -> float:
    """Two-branch cosine bound underlying the condition-number formula.

    Equals ``sqrt(1 - alpha^2)`` on the first branch and
    ``(1 - 2 alpha beta + beta^2) / (1 - beta^2)`` on the second; the
    branches agree on the boundary ``beta = alpha/(1 + sqrt(1 - alpha^2))``.
    The lower bound on the condition number is ``(1 + gamma)/(1 - gamma)``.
    """
    alpha = _check_unit(alpha)
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    if _branch_is_first(alpha, beta):
        return math.sqrt(max(0.0, 1.0 - alpha * alpha))
    return (1.0 - 2.0 * alpha * beta + beta * beta) / (1.0 - beta * beta)


def valid_inequality(ab: AlphaBeta, r: int, r_star: int) -> tuple[bool, float]:
    """Feasibility constraint linking (alpha, beta) to the rank ratio.

    Every admissible factor pair with rank-``r_star`` ground truth satisfies
    ``alpha^2 + (r/r_star) * min(alpha^2, beta^2) <= 1``.  Returns the flag
    and the slack ``1 - alpha^2 - (r/r_star) * min(alpha^2, beta^2)``.
    """
    check_ranks(r, r_star)
    a2 = ab.alpha * ab.alpha
    b2 = ab.beta * ab.beta
    slack = 1.0 - a2 - (r / r_star) * min(a2, b2)
    return slack >= -ZERO_RTOL, slack


def minab(r: int, r_star: int) -> float:
    """Minimum of gamma over the valid-inequality region: 1/(1 + sqrt(r_star/r)).

    Feeds the sufficiency threshold: condition numbers below
    ``(1 + minab)/(1 - minab) = 1 + 2 sqrt(r/r_star)`` admit no stuck pair.
    """
    check_ranks(r, r_star)
    return 1.0 / (1.0 + math.sqrt(r_star / r))


def cos_theta_lb(alpha: float, beta: float, t: float) -> float:
    """Alignment lower bound at witness parameter t, valid for 0 <= t <= alpha*beta."""
    alpha = _check_unit(alpha)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if t < -ZERO_RTOL or t > alpha * beta + ZERO_RTOL:
        raise ValueError(f"t must lie in [0, alpha*beta], got t={t}")
    ratio = min(max(t / beta, 0.0), 1.0)
    return alpha * ratio + math.sqrt(max(0.0, 1.0 - alpha * alpha)) * math.sqrt(
        max(0.0, 1.0 - ratio * ratio)
    )


def _t_opt_second(alpha: float, beta: float) -> float:
    # Interior maximizer of (1 + c(t)) / (2t + 1 - c(t)) on the second branch,
    # written with the half-angle substitution t = beta*sin(psi).
    theta = math.asin(alpha)
    phi = 2.0 * math.atan(
        beta * math.sqrt(max(0.0, 1.0 - alpha * alpha)) / (1.0 - alpha * beta)
    )
    return max(0.0, beta * math.sin(theta - phi))


def rank1_invariants(rho: float, sin_phi: float) -> AlphaBeta:
    """(alpha, beta) of the canonical rank-1 pair x = rho*e1, z = cos(phi)e1 + sin(phi)e2."""
    rho = float(rho)
    sin_phi = float(sin_phi)
    if rho <= 0.0:
        raise ValueError(f"rho must be positive, got {rho}")
    if not 0.0 <= sin_phi <= 1.0:
        raise ValueError(f"sin_phi must lie in [0, 1], got {sin_phi}")
    if rho == 1.0 and sin_phi == 0.0:
        raise ValueError("rho = 1 with sin_phi = 0 makes x x^T = z z^T")
    rho2 = rho * rho
    sin2 = sin_phi * sin_phi
    err_norm = math.sqrt((1.0 - rho2) ** 2 + 2.0 * rho2 * sin2)
    alpha = _check_unit(sin2 / err_norm)
    return AlphaBeta(alpha=alpha, beta=rho2 / err_norm, degenerate=sin_phi == 0.0)


def thresholds(r: int, r_star: int) -> tuple[float, float]:
    """Lower and upper bounds on the critical condition number at rank r.

    Below ``1 + 2 sqrt(r/r_star)`` every second-order point is global; at
    ``1 + 2 sqrt(r - r_star + 1)`` an explicit stuck instance exists.  The
    upper end is the one formula for that instance's condition number:
    ``counterexample.build`` and ``CounterexampleInstance.kappa`` read it.
    """
    check_ranks(r, r_star)
    return 1.0 + 2.0 * math.sqrt(r / r_star), 1.0 + 2.0 * math.sqrt(r - r_star + 1.0)


def sufficient_rank(kappa: float, r_star: int) -> int:
    """Smallest search rank guaranteeing a benign landscape at condition number kappa."""
    if not 1.0 <= kappa < math.inf:
        raise ValueError(f"kappa must be finite and at least 1, got {kappa}")
    check_ranks(r_star, r_star)
    threshold = overflow_checked("rank threshold 0.25 (kappa - 1)^2 r_star")(
        lambda: 0.25 * (kappa - 1.0) * (kappa - 1.0) * r_star * (1.0 + ZERO_RTOL)
    )()
    return max(r_star, int(math.floor(threshold)) + 1)
