import math

import numpy as np
import pytest

from bmlandscape import bounds, certificates, counterexample
from bmlandscape.matkernel import pair_residual

SEED = 47101

ALPHA_BETA_GRID = [
    (a, b)
    for a in np.linspace(0.05, 0.999, 12)
    for b in np.linspace(0.0, 1.2, 12)
]


def grid_tradeoff_max(alpha, beta, points=10001):
    """Exhaustive witness-parameter search, the oracle for the closed form.

    The grid is relative to the admissible interval [0, alpha*beta]; an
    absolute step would under-resolve small alpha*beta and overstate the
    attainment error.
    """
    ts = np.linspace(0.0, alpha * beta, points)
    best = 0.0
    for t in ts:
        c = bounds.cos_theta_lb(alpha, beta, float(t))
        denom = 2.0 * t + 1.0 - c
        if denom <= 0.0:
            return math.inf
        best = max(best, (1.0 + c) / denom)
    return best


# -- alpha_beta ----------------------------------------------------------------


def test_alpha_beta_hand_case():
    # x = e1/sqrt(2), z = e2 in the plane: the worst-case rank-1 geometry
    x = np.array([[1.0 / math.sqrt(2.0)], [0.0]])
    z = np.array([[0.0], [1.0]])
    ab = bounds.alpha_beta(x, z)
    assert abs(ab.alpha - 2.0 / math.sqrt(5.0)) <= 1e-12
    assert abs(ab.beta - 1.0 / math.sqrt(5.0)) <= 1e-12
    assert not ab.degenerate


@pytest.mark.parametrize("rho,sin_phi", [(0.5, 0.3), (1.2, 0.8), (0.9, 1.0), (2.0, 0.05)])
def test_alpha_beta_agrees_with_rank1_formulas(rho, sin_phi):
    # dual route: matrix invariants vs the closed-form rank-1 parameterization
    cos_phi = math.sqrt(1.0 - sin_phi * sin_phi)
    x = np.array([[rho], [0.0]])
    z = np.array([[cos_phi], [sin_phi]])
    from_mats = bounds.alpha_beta(x, z)
    from_form = bounds.rank1_invariants(rho, sin_phi)
    assert abs(from_mats.alpha - from_form.alpha) <= 1e-12
    assert abs(from_mats.beta - from_form.beta) <= 1e-12


@pytest.mark.parametrize(
    "rho,sin_phi,message",
    [
        (0.0, 0.5, "rho must be positive"),
        (-1.0, 0.5, "rho must be positive"),
        (1.0, -0.1, "sin_phi must lie in"),
        (1.0, 1.5, "sin_phi must lie in"),
        (1.0, 0.0, "makes x x\\^T = z z\\^T"),
    ],
)
def test_rank1_invariants_validation(rho, sin_phi, message):
    with pytest.raises(ValueError, match=message):
        bounds.rank1_invariants(rho, sin_phi)


# the invariants and the certificate systems check a pair with one function
PAIR_CALLERS = (bounds.alpha_beta, lambda x, z: certificates.assemble(x, z, "ub"))


def test_alpha_beta_rejects_identical_grams():
    # Z = X Q with Q a rotation has X X^T = Z Z^T; its residual is rounding,
    # at most ZERO_RTOL times max |X X^T| at every scale of X
    base = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    q = np.array([[math.cos(0.7), -math.sin(0.7)], [math.sin(0.7), math.cos(0.7)]])
    pairs = [(np.eye(3)[:, :2], np.eye(3)[:, :2])] + [(s * base, s * base @ q) for s in (1e3, 1e6)]
    for x, z in pairs:
        for caller in PAIR_CALLERS:
            with pytest.raises(ValueError, match="identical Gram matrices"):
                caller(x, z)


def test_alpha_beta_rejects_row_mismatch():
    for caller in PAIR_CALLERS:
        with pytest.raises(ValueError, match="factors must share their row count"):
            caller(np.ones((3, 1)), np.ones((4, 1)))


def test_alpha_beta_at_overflowing_squared_residual_norm():
    # ||X X^T - Z Z^T||_F^2 overflows float64 for each pair below, though
    # every entry of the residual is finite; the pair is scaled by a power of
    # two first, so the jointly scaled pairs keep the unscaled kappa_lb and
    # X alone at 1e100 gives finite invariants.  A RuntimeWarning fails the test
    inst = counterexample.build(4, 2, 1)
    kappa = bounds.kappa_lb_closed_form(bounds.alpha_beta(inst.x_spur, inst.z)).kappa_lb
    for scale in (1e77, 1e150):
        scaled = bounds.alpha_beta(scale * inst.x_spur, scale * inst.z)
        assert bounds.kappa_lb_closed_form(scaled).kappa_lb == pytest.approx(kappa, rel=1e-15)
    ab = bounds.alpha_beta(1e100 * inst.x_spur, inst.z)
    assert math.isfinite(ab.alpha) and math.isfinite(ab.beta)


def test_alpha_beta_degenerate_when_truth_in_span():
    x = 2.0 * np.eye(2)
    z = np.array([[1.0], [0.0]])
    ab, (*_, z_perp), *_ = bounds._pair_geometry(*pair_residual(x, z))
    assert ab.degenerate
    assert ab.alpha == 0.0
    assert np.linalg.norm(z_perp) <= 1e-14
    ev = bounds.kappa_lb_closed_form(ab)
    assert math.isinf(ev.kappa_lb)


def test_alpha_beta_range_invariant():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n))
        rs = int(rng.integers(1, r + 1))
        ab = bounds.alpha_beta(
            rng.standard_normal((n, r)), rng.standard_normal((n, rs))
        )
        assert 0.0 <= ab.alpha <= 1.0
        assert ab.beta >= 0.0


SCALE_CASES = [((5, 3, 2), "standard", 0), ((4, 1, 1), "standard", 0), ((6, 4, 2), "random", 3)]


@pytest.mark.parametrize("shape,basis_mode,seed", SCALE_CASES)
@pytest.mark.parametrize("scale", [1e-3, 1e-6, 3e-7])
def test_invariants_do_not_change_under_joint_scaling(shape, basis_mode, seed, scale):
    # alpha and beta are homogeneous of degree 0 in (X, Z); at scale 1e-6
    # lam_min(X^T X) is near 1e-12, full rank relative to lam_max, and at
    # 3e-7 the residual's entries are below 1e-12, nonzero relative to the Grams
    inst = counterexample.build(*shape, basis_mode=basis_mode, seed=seed)
    ab = bounds.alpha_beta(inst.x_spur, inst.z)
    scaled = bounds.alpha_beta(scale * inst.x_spur, scale * inst.z)
    assert scaled.alpha == pytest.approx(ab.alpha, rel=1e-12, abs=0.0)
    assert scaled.beta == pytest.approx(ab.beta, rel=1e-12, abs=0.0)
    kappa = bounds.kappa_lb_closed_form(ab).kappa_lb
    assert math.isfinite(kappa)
    assert bounds.kappa_lb_closed_form(scaled).kappa_lb == pytest.approx(kappa, rel=1e-12, abs=0.0)


def scale_pairs():
    for shape, basis_mode, seed in SCALE_CASES:
        inst = counterexample.build(*shape, basis_mode=basis_mode, seed=seed)
        yield inst.x_spur, inst.z
    rng = np.random.default_rng(SEED)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        r = int(rng.integers(1, n))
        yield rng.standard_normal((n, r)), rng.standard_normal((n, int(rng.integers(1, r + 1))))


@pytest.mark.parametrize("k", [-40, -3, -1, 1, 2, 37])
def test_invariants_keep_their_bits_under_power_of_two_scaling(k):
    # scaling by 2^k is exact, and alpha_beta scales every pair by the power
    # of two that puts max |E| in [1/2, 2) before any rounding step, so both
    # pairs reach the same scaled pair and the same Z_perp
    for x, z in scale_pairs():
        ab, (*_, z_perp), *_ = bounds._pair_geometry(*pair_residual(x, z))
        scaled, (*_, scaled_z_perp), *_ = bounds._pair_geometry(
            *pair_residual(np.ldexp(x, k), np.ldexp(z, k))
        )
        assert (scaled.alpha, scaled.beta) == (ab.alpha, ab.beta)
        assert np.array_equal(scaled_z_perp, z_perp)


@pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
def test_rank_rule_is_relative_to_lam_max(scale):
    # duplicate columns are rank deficient at every scale of X, and a
    # full-rank X stays full rank however small it is
    z = np.array([[0.0], [0.0], [1.0]])
    deficient = scale * np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]])
    assert bounds.alpha_beta(deficient, z).beta == 0.0
    full = scale * np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    assert bounds.alpha_beta(full, z).beta > 0.0
    with pytest.raises(ValueError, match="full column rank"):
        certificates.cos_theta_witness(deficient, z, 0.0)


# -- closed-form bound ----------------------------------------------------------


def test_kappa_lb_first_branch_frozen_value():
    # alpha = 0.6 -> s = 0.8; beta = 0.9 is above the branch boundary, so
    # kappa = (1 + 0.8)/(1 - 0.8) = 9
    ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=0.6, beta=0.9))
    assert ev.branch == "first"
    assert ev.t_opt == 0.0
    assert abs(ev.kappa_lb - 9.0) <= 1e-12
    assert abs(ev.gamma_value - 0.8) <= 1e-15


def test_kappa_lb_second_branch_frozen_value():
    # (1 - 0.8*0.1) / ((0.8 - 0.1)*0.1) = 0.92/0.07
    ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=0.8, beta=0.1))
    assert ev.branch == "second"
    assert ev.t_opt > 0.0
    assert abs(ev.kappa_lb - 0.92 / 0.07) <= 1e-12


@pytest.mark.parametrize("alpha,beta", [(1e-160, 1e-170), (1e-155, 1e-160)])
def test_kappa_lb_second_branch_tiny_denominator_is_infinite(alpha, beta):
    # (alpha - beta) * beta underflows to zero, or to a subnormal; both give
    # the inf that IEEE division gives, in line with gamma = 1
    ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=alpha, beta=beta))
    assert ev.branch == "second"
    assert ev.kappa_lb == math.inf
    assert ev.gamma_value == 1.0


def test_kappa_lb_rank1_worst_case_is_exactly_three():
    ab = bounds.AlphaBeta(alpha=2.0 / math.sqrt(5.0), beta=1.0 / math.sqrt(5.0))
    ev = bounds.kappa_lb_closed_form(ab)
    assert abs(ev.kappa_lb - 3.0) <= 1e-9
    assert ev.branch == "second"
    assert 0.0 < ev.t_opt <= ab.alpha * ab.beta + 1e-12


def test_kappa_lb_rejects_zero_alpha_nondegenerate():
    with pytest.raises(ValueError):
        bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=0.0, beta=0.5))


def test_kappa_lb_at_least_one_whenever_finite():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(200):
        a = float(rng.uniform(0.01, 1.0))
        b = float(rng.uniform(0.0, 1.5))
        ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=a, beta=b))
        if math.isfinite(ev.kappa_lb):
            assert ev.kappa_lb >= 1.0 - 1e-12


# -- gamma and cos_theta ---------------------------------------------------------


@pytest.mark.parametrize("alpha", [0.1, 0.35, 0.7, 0.95])
def test_gamma_branches_agree_on_boundary(alpha):
    s = math.sqrt(1.0 - alpha * alpha)
    beta = alpha / (1.0 + s)
    first = math.sqrt(1.0 - alpha * alpha)
    second = (1.0 - 2.0 * alpha * beta + beta * beta) / (1.0 - beta * beta)
    assert abs(first - second) <= 1e-12
    assert abs(bounds.gamma(alpha, beta) - first) <= 1e-12


def test_gamma_validation():
    with pytest.raises(ValueError):
        bounds.gamma(0.5, -0.1)
    with pytest.raises(ValueError):
        bounds.gamma(1.5, 0.5)


def test_cos_theta_lb_endpoints():
    a, b = 0.8, 0.5
    assert abs(bounds.cos_theta_lb(a, b, 0.0) - math.sqrt(1.0 - a * a)) <= 1e-15
    assert abs(bounds.cos_theta_lb(a, b, a * b) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        bounds.cos_theta_lb(a, b, a * b + 1e-6)
    with pytest.raises(ValueError):
        bounds.cos_theta_lb(a, b, -1e-6)
    for beta in (0.0, -0.5):
        with pytest.raises(ValueError, match="beta must be positive"):
            bounds.cos_theta_lb(a, beta, 0.0)


def test_cos_theta_lb_is_nondecreasing_in_t():
    a, b = 0.9, 0.3
    ts = np.linspace(0.0, a * b, 500)
    vals = [bounds.cos_theta_lb(a, b, float(t)) for t in ts]
    assert all(v2 >= v1 - 1e-12 for v1, v2 in zip(vals, vals[1:]))


# -- tradeoff maximization --------------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(0.3, 0.1), (0.6, 0.2), (0.9, 0.05), (0.99, 0.3)])
def test_tradeoff_closed_form_matches_grid(alpha, beta):
    ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=alpha, beta=beta))
    grid = grid_tradeoff_max(alpha, beta)
    assert math.isfinite(ev.kappa_lb)
    assert abs(ev.kappa_lb - grid) <= 1e-4 * max(1.0, abs(ev.kappa_lb))
    # the attained t is feasible and achieves the max on the grid's scale
    ratio_at_topt = (1.0 + bounds.cos_theta_lb(alpha, beta, ev.t_opt)) / (
        2.0 * ev.t_opt + 1.0 - bounds.cos_theta_lb(alpha, beta, ev.t_opt)
    )
    assert abs(ratio_at_topt - ev.kappa_lb) <= 1e-9 * max(1.0, ev.kappa_lb)


def test_tradeoff_equals_closed_form_everywhere():
    # the bound is (1 + gamma)/(1 - gamma), on the branch the docstring's
    # boundary beta = alpha/(1 + sqrt(1 - alpha^2)) selects
    for a, b in ALPHA_BETA_GRID:
        a, b = float(a), float(b)
        direct = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=a, beta=b))
        g = bounds.gamma(a, b)
        traded = math.inf if g >= 1.0 else (1.0 + g) / (1.0 - g)
        if math.isinf(traded):
            assert math.isinf(direct.kappa_lb)
        else:
            assert abs(direct.kappa_lb - traded) <= 1e-9 * max(1.0, traded)
        first = b >= a / (1.0 + math.sqrt(1.0 - a * a))
        assert direct.branch == ("first" if first else "second")
        assert direct.gamma_value == g


def test_tradeoff_alpha_one_limit():
    ev = bounds.kappa_lb_closed_form(bounds.AlphaBeta(alpha=1.0, beta=0.25))
    assert abs(ev.kappa_lb - 4.0) <= 1e-9


# -- valid inequality and minab ----------------------------------------------------


def test_valid_inequality_frozen_slack():
    ab = bounds.AlphaBeta(alpha=0.6, beta=0.5)
    holds, slack = bounds.valid_inequality(ab, 4, 2)
    # 1 - 0.36 - 2*min(0.36, 0.25) = 0.14
    assert holds
    assert abs(slack - 0.14) <= 1e-12


def test_valid_inequality_violation():
    ab = bounds.AlphaBeta(alpha=1.0, beta=1.0)
    holds, slack = bounds.valid_inequality(ab, 2, 1)
    assert not holds
    assert abs(slack - (-2.0)) <= 1e-12


def test_valid_inequality_on_random_factor_pairs():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(100):
        n = int(rng.integers(2, 9))
        r = int(rng.integers(1, min(n, 5)))
        rs = int(rng.integers(1, r + 1))
        x = rng.standard_normal((n, r))
        z = rng.standard_normal((n, rs))
        ab = bounds.alpha_beta(x, z)
        holds, slack = bounds.valid_inequality(ab, r, rs)
        assert holds, f"slack {slack} at n={n}, r={r}, r_star={rs}"


def test_minab_formula_and_grid():
    for r, rs in [(1, 1), (2, 1), (4, 2), (8, 3)]:
        want = 1.0 / (1.0 + math.sqrt(rs / r))
        assert abs(bounds.minab(r, rs) - want) <= 1e-15
        # exhaustive oracle: minimize gamma over the feasible (alpha, beta) box
        best = math.inf
        for a in np.linspace(1e-3, 1.0, 320):
            for b in np.linspace(0.0, 1.0, 320):
                if a * a + (r / rs) * min(a * a, b * b) <= 1.0 + 1e-12:
                    best = min(best, bounds.gamma(float(a), float(b)))
        assert abs(best - bounds.minab(r, rs)) <= 1e-3


def test_minab_monotone_in_search_rank():
    for rs in (1, 2, 5):
        vals = [bounds.minab(r, rs) for r in range(rs, 65)]
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))


def test_minab_connects_to_threshold():
    for r, rs in [(1, 1), (3, 2), (9, 4)]:
        m = bounds.minab(r, rs)
        lo, _ = bounds.thresholds(r, rs)
        assert abs((1.0 + m) / (1.0 - m) - lo) <= 1e-12


# -- thresholds and sufficiency ------------------------------------------------------


def test_thresholds_rank_one():
    lo, hi = bounds.thresholds(1, 1)
    assert lo == hi == 3.0


def test_thresholds_ordering_everywhere():
    for rs in range(1, 9):
        for r in range(rs, 33):
            lo, hi = bounds.thresholds(r, rs)
            assert 3.0 <= lo <= hi + 1e-12


def test_thresholds_frozen_case():
    lo, hi = bounds.thresholds(3, 2)
    assert abs(lo - (1.0 + 2.0 * math.sqrt(1.5))) <= 1e-15
    assert abs(hi - (1.0 + 2.0 * math.sqrt(2.0))) <= 1e-15


def test_sufficient_rank_values():
    assert bounds.sufficient_rank(3.0, 1) == 2
    assert bounds.sufficient_rank(1.0, 4) == 4  # kappa = 1: truth rank suffices
    assert bounds.sufficient_rank(5.0, 2) == 9  # 0.25*16*2 = 8 -> 9


def test_sufficient_rank_crosses_the_guarantee():
    for kappa in (1.5, 3.0, 4.2, 7.9):
        for rs in (1, 2, 3):
            r = bounds.sufficient_rank(kappa, rs)
            lo, _ = bounds.thresholds(r, rs)
            assert kappa < lo + 1e-9
            if r > rs:
                lo_prev, _ = bounds.thresholds(r - 1, rs)
                assert kappa >= lo_prev - 1e-9


def test_sufficient_rank_at_the_threshold_is_the_next_rank():
    # at kappa = 1 + 2 sqrt(r/r_star) the threshold 0.25 (kappa - 1)^2 r_star
    # is r up to rounding, and rank r is not enough; from r = 4060 at
    # r_star = 1 an absolute slack of 1e-12 is below half an ulp, so a
    # threshold computed one rounding below r floored to r - 1 and gave r
    for rs in (1, 2, 3):
        for r in range(rs, 20001):
            assert bounds.sufficient_rank(bounds.thresholds(r, rs)[0], rs) == r + 1, (r, rs)


def test_sufficient_rank_validation():
    with pytest.raises(ValueError):
        bounds.sufficient_rank(0.5, 1)
    with pytest.raises(ValueError):
        bounds.sufficient_rank(2.0, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: bounds.thresholds(2.5, 1),
        lambda: bounds.thresholds(True, True),  # a bool is no rank: (3.0, 3.0)
        lambda: bounds.sufficient_rank(2.0, 1.5),  # returned the "rank" 1.5
        lambda: bounds.sufficient_rank(1.0, True),  # returned True
        lambda: bounds.thresholds(10**400, 10**399),  # OverflowError in sqrt(r / r_star)
        lambda: bounds.valid_inequality(bounds.AlphaBeta(0.5, 0.3), 10**400, 1),
        lambda: bounds.sufficient_rank(2.0, 10**400),  # OverflowError in the float product
    ],
    ids=["fractional", "bool", "fractional-r_star", "bool-r_star", "huge", "huge-inequality",
         "huge-r_star"],
)
def test_check_ranks_rejects_what_is_not_an_exact_integer_rank(call):
    with pytest.raises(ValueError, match="need integer ranks"):
        call()


def test_check_ranks_accepts_numpy_integers_below_two_to_the_53():
    assert bounds.thresholds(np.int64(3), np.int32(2)) == bounds.thresholds(3, 2)
    assert bounds.sufficient_rank(5.0, np.int64(2)) == 9
    bounds.check_ranks(2**53 - 1, 1)
    with pytest.raises(ValueError, match=r"r=9007199254740992, n=inf"):
        bounds.check_ranks(2**53, 1)
    with pytest.raises(ValueError, match=r"r_star=3, r=7, n=6"):
        bounds.check_ranks(7, 3, 6)


@pytest.mark.parametrize(
    "kappa, message",
    [
        (math.inf, "kappa must be finite and at least 1, got inf"),
        (math.nan, "kappa must be finite and at least 1, got nan"),
        (1e300, "rank threshold .* overflows float64"),
    ],
    ids=["inf", "nan", "1e300"],
)
def test_sufficient_rank_rejects_kappa_without_a_finite_threshold(kappa, message):
    with pytest.raises(ValueError, match=message):
        bounds.sufficient_rank(kappa, 1)
