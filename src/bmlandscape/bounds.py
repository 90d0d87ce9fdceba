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

from .matkernel import as_factor, pinv, sym_eig

__all__ = [
    "AlphaBeta",
    "BoundEvaluation",
    "alpha_beta",
    "kappa_lb_closed_form",
    "gamma",
    "valid_inequality",
    "minab",
    "cos_theta_lb",
    "tradeoff_max",
    "rank1_invariants",
    "thresholds",
    "sufficient_rank",
]

GRAM_EIG_CLAMP = 1e-12  # lam_min(X^T X) below this counts as rank deficiency
RESIDUAL_FLOOR = 1e-12  # minimal allowed ||XX^T - ZZ^T||_F


@dataclass(frozen=True)
class AlphaBeta:
    """The (alpha, beta) invariants of a factor pair.

    ``z_perp`` and ``err_norm`` are populated when the invariants were
    computed from matrices and are left at their defaults when the scalars
    were supplied directly.  ``degenerate`` is set when ``Z_perp`` vanishes
    identically; in that case ``alpha`` is zero and ``beta`` falls back to
    ``lam_min(X^T X) / err_norm``.
    """

    alpha: float
    beta: float
    z_perp: np.ndarray | None = None
    err_norm: float = math.nan
    degenerate: bool = False


@dataclass(frozen=True)
class BoundEvaluation:
    """A condition-number lower bound together with how it was attained."""

    ab: AlphaBeta
    kappa_lb: float  # math.inf when no finite bound is certified
    branch: str  # "first" (boundary optimum t=0) or "second" (interior)
    t_opt: float
    gamma_value: float


def _branch_is_first(alpha: float, beta: float) -> bool:
    return beta >= alpha / (1.0 + math.sqrt(max(0.0, 1.0 - alpha * alpha)))


def _check_unit(alpha: float) -> float:
    if not 0.0 <= alpha <= 1.0 + 1e-12:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return min(float(alpha), 1.0)


def alpha_beta(x, z) -> AlphaBeta:
    """Geometric invariants of a factor pair (X, Z)."""
    x = as_factor(x)
    z = as_factor(z)
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"factors must share their row count, got {x.shape} and {z.shape}"
        )
    err = x @ x.T - z @ z.T
    err_norm = float(np.linalg.norm(err))
    if err_norm <= RESIDUAL_FLOOR:
        raise ValueError(
            "factor pair has identical Gram matrices; the invariants require "
            "X X^T != Z Z^T"
        )
    z_perp = z - x @ (pinv(x) @ z)
    outer = z_perp @ z_perp.T
    outer_norm = float(np.linalg.norm(outer))

    gram_eigs, _ = sym_eig(x.T @ x)
    lam_min = float(gram_eigs[-1])
    if lam_min < GRAM_EIG_CLAMP:
        lam_min = 0.0

    if outer_norm == 0.0:
        return AlphaBeta(
            alpha=0.0,
            beta=lam_min / err_norm,
            z_perp=z_perp,
            err_norm=err_norm,
            degenerate=True,
        )
    alpha = _check_unit(outer_norm / err_norm)
    beta = lam_min * float(np.trace(outer)) / (err_norm * outer_norm)
    return AlphaBeta(alpha=alpha, beta=beta, z_perp=z_perp, err_norm=err_norm)


def kappa_lb_closed_form(ab: AlphaBeta) -> BoundEvaluation:
    """Certified condition-number lower bound from the (alpha, beta) pair.

    Two-case closed form: ``(1 + s)/(1 - s)`` with ``s = sqrt(1 - alpha^2)``
    when ``beta >= alpha/(1 + s)``, else ``(1 - alpha*beta)/((alpha - beta)*beta)``.
    A degenerate pair (``Z_perp = 0``) certifies nothing finite and yields an
    infinite sentinel; near-degenerate pairs flow through the same formulas
    to a finite but enormous bound.  A non-finite ``beta`` is rejected.
    """
    if not math.isfinite(ab.beta):
        raise ValueError(f"beta must be finite, got {ab.beta}")
    if ab.degenerate:
        return BoundEvaluation(
            ab=ab, kappa_lb=math.inf, branch="first", t_opt=0.0, gamma_value=1.0
        )
    alpha = _check_unit(ab.alpha)
    beta = float(ab.beta)
    if alpha <= 0.0:
        raise ValueError("alpha must be positive for a non-degenerate pair")
    if _branch_is_first(alpha, beta):
        s = math.sqrt(max(0.0, 1.0 - alpha * alpha))
        value = math.inf if s >= 1.0 else (1.0 + s) / (1.0 - s)
        return BoundEvaluation(
            ab=ab, kappa_lb=value, branch="first", t_opt=0.0, gamma_value=s
        )
    value = math.inf
    if beta > 0.0:
        value = (1.0 - alpha * beta) / ((alpha - beta) * beta)
    return BoundEvaluation(
        ab=ab,
        kappa_lb=value,
        branch="second",
        t_opt=_t_opt_second(alpha, beta),
        gamma_value=gamma(alpha, beta),
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
    if beta >= 1.0:
        raise ValueError("beta >= 1 is outside the second branch's domain")
    return (1.0 - 2.0 * alpha * beta + beta * beta) / (1.0 - beta * beta)


def valid_inequality(ab: AlphaBeta, r: int, r_star: int) -> tuple[bool, float]:
    """Feasibility constraint linking (alpha, beta) to the rank ratio.

    Every admissible factor pair with rank-``r_star`` ground truth satisfies
    ``alpha^2 + (r/r_star) * min(alpha^2, beta^2) <= 1``.  Returns the flag
    and the slack ``1 - alpha^2 - (r/r_star) * min(alpha^2, beta^2)``.
    """
    if not r >= r_star >= 1:
        raise ValueError(f"need r >= r_star >= 1, got r={r}, r_star={r_star}")
    a2 = ab.alpha * ab.alpha
    b2 = ab.beta * ab.beta
    slack = 1.0 - a2 - (r / r_star) * min(a2, b2)
    return slack >= -1e-9, slack


def minab(r: int, r_star: int) -> float:
    """Minimum of gamma over the valid-inequality region: 1/(1 + sqrt(r_star/r)).

    Feeds the sufficiency threshold: condition numbers below
    ``(1 + minab)/(1 - minab) = 1 + 2 sqrt(r/r_star)`` admit no stuck pair.
    """
    if not r >= r_star >= 1:
        raise ValueError(f"need r >= r_star >= 1, got r={r}, r_star={r_star}")
    return 1.0 / (1.0 + math.sqrt(r_star / r))


def cos_theta_lb(alpha: float, beta: float, t: float) -> float:
    """Alignment lower bound at witness parameter t, valid for 0 <= t <= alpha*beta."""
    alpha = _check_unit(alpha)
    if beta <= 0.0:
        raise ValueError(f"beta must be positive, got {beta}")
    if t < -1e-12 or t > alpha * beta + 1e-12:
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


def tradeoff_max(alpha: float, beta: float) -> BoundEvaluation:
    """Best witness-parameter tradeoff: max of (1 + c(t))/(2t + 1 - c(t)).

    The maximum over ``t in [0, alpha*beta]`` of the ratio built from
    :func:`cos_theta_lb` has a two-case closed form that coincides with
    :func:`kappa_lb_closed_form`; the first branch attains it at ``t = 0``,
    the second at an interior ``t_opt``.  ``alpha = 1`` is accepted by the
    limiting convention ``t_opt = beta`` with value ``1/beta``, matching the
    closed form's second branch.
    """
    alpha = _check_unit(alpha)
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    ab = AlphaBeta(alpha=alpha, beta=beta)
    if alpha == 0.0:
        return BoundEvaluation(
            ab=ab, kappa_lb=math.inf, branch="first", t_opt=0.0, gamma_value=1.0
        )
    # The second branch implies beta < alpha <= 1, so gamma is defined everywhere.
    gamma_value = gamma(alpha, beta)
    value = math.inf if gamma_value >= 1.0 else (1.0 + gamma_value) / (1.0 - gamma_value)
    if _branch_is_first(alpha, beta):
        return BoundEvaluation(
            ab=ab, kappa_lb=value, branch="first", t_opt=0.0, gamma_value=gamma_value
        )
    return BoundEvaluation(
        ab=ab,
        kappa_lb=value,
        branch="second",
        t_opt=_t_opt_second(alpha, beta),
        gamma_value=gamma_value,
    )


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
    z_perp = np.array([[0.0], [sin_phi]])
    alpha = _check_unit(sin2 / err_norm)
    return AlphaBeta(
        alpha=alpha,
        beta=rho2 / err_norm,
        z_perp=z_perp,
        err_norm=err_norm,
        degenerate=sin_phi == 0.0,
    )


def thresholds(r: int, r_star: int) -> tuple[float, float]:
    """Lower and upper bounds on the critical condition number at rank r.

    Below ``1 + 2 sqrt(r/r_star)`` every second-order point is global; at
    ``1 + 2 sqrt(r - r_star + 1)`` an explicit stuck instance exists.
    """
    if not r >= r_star >= 1:
        raise ValueError(f"need r >= r_star >= 1, got r={r}, r_star={r_star}")
    return 1.0 + 2.0 * math.sqrt(r / r_star), 1.0 + 2.0 * math.sqrt(r - r_star + 1.0)


def sufficient_rank(kappa: float, r_star: int) -> int:
    """Smallest search rank guaranteeing a benign landscape at condition number kappa."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    if r_star < 1:
        raise ValueError(f"r_star must be at least 1, got {r_star}")
    threshold = 0.25 * (kappa - 1.0) ** 2 * r_star
    return max(r_star, int(math.floor(threshold + 1e-12)) + 1)
