import itertools
import math

import numpy as np
import pytest

from bmlandscape import eckart_young as ey

SEED = 33007


def random_problem(rng, n_max=5, r_max=3):
    n = int(rng.integers(1, n_max + 1))
    r = int(rng.integers(1, min(n, r_max) + 1))
    s = np.sort(rng.uniform(0.0, 4.0, size=n))[::-1].copy()
    d = np.sort(rng.uniform(0.0, 4.0, size=r)).copy()
    return ey.EYProblem(s=s, d=d)


# -- problem construction --------------------------------------------------------


def test_problem_validates_sorting_and_signs():
    with pytest.raises(ValueError):
        ey.EYProblem(s=np.array([1.0, 2.0]), d=np.array([0.5]))  # s ascending
    with pytest.raises(ValueError):
        ey.EYProblem(s=np.array([2.0, 1.0]), d=np.array([1.0, 0.5]))  # d descending
    with pytest.raises(ValueError):
        ey.EYProblem(s=np.array([2.0, -1.0]), d=np.array([0.5]))  # negative
    with pytest.raises(ValueError):
        ey.EYProblem(s=np.array([2.0]), d=np.array([0.5, 1.0]))  # r > n
    with pytest.raises(ValueError):
        ey.EYProblem(s=np.array([]), d=np.array([]))


# -- closed-form solution ----------------------------------------------------------


def test_solve_spec_example():
    p = ey.EYProblem(s=np.array([3.0, 2.0, 1.0]), d=np.array([0.5, 1.5]))
    sol = ey.solve(p)
    # pairs (3, 0.5) and (2, 1.5): weights 2.5, 0.5;
    # value = (9 - 6.25) + (4 - 0.25) + 1 = 7.5
    assert abs(sol.value - 7.5) <= 1e-12
    assert np.allclose(sol.weights, [2.5, 0.5], atol=1e-15)
    assert sol.y.shape == (3, 2)


def test_solve_zero_penalty_is_plain_truncation():
    p = ey.EYProblem(s=np.array([4.0, 2.0, 1.0]), d=np.array([0.0, 0.0]))
    sol = ey.solve(p)
    # no penalty: keep the top-r eigenvalues exactly, value = leftover mass
    assert sol.value == 1.0
    assert np.array_equal(sol.weights, [4.0, 2.0])


def test_solve_saturated_penalty_keeps_nothing():
    p = ey.EYProblem(s=np.array([2.0, 1.0]), d=np.array([3.0, 5.0]))
    sol = ey.solve(p)
    assert np.array_equal(sol.weights, [0.0, 0.0])
    assert abs(sol.value - 5.0) <= 1e-15
    assert np.linalg.norm(sol.y) == 0.0


def test_solution_is_first_order_stationary():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        p = random_problem(rng)
        sol = ey.solve(p)
        assert ey.first_order_residual(p, sol.y) <= 1e-9


def test_solution_value_matches_objective_evaluation():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(20):
        p = random_problem(rng)
        sol = ey.solve(p)
        assert abs(ey.objective_value(p, sol.y) - sol.value) <= 1e-9


# -- brute force oracle -------------------------------------------------------------


def test_brute_force_enforces_size_cap():
    with pytest.raises(ValueError):
        ey.brute_force(
            ey.EYProblem(s=np.arange(20, 0, -1, dtype=float), d=np.array([1.0]))
        )


def test_solve_matches_brute_force_sweep():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        p = random_problem(rng)
        assert abs(ey.solve(p).value - ey.brute_force(p)) <= 1e-10


def test_brute_force_zero_penalty_exact():
    # B = 0 keeps cancellation exact in both routes, not merely close
    p = ey.EYProblem(s=np.array([3.0, 2.0, 1.5, 0.5]), d=np.zeros(2))
    assert ey.solve(p).value == ey.brute_force(p)
    assert ey.solve(p).value == 1.5**2 + 0.5**2


def test_value_finite_where_target_squares_overflow():
    # s^2 overflows float64, yet each paired row keeps d (2s - d), finite
    p = ey.EYProblem(s=np.array([1e200, 2.0]), d=np.array([0.5, 1.0]))
    assert ey.solve(p).value == 1e200
    assert ey.brute_force(p) == 1e200


def test_identity_ordering_beats_permutations():
    # the sorted pairing is optimal: check one case exhaustively by hand
    p = ey.EYProblem(s=np.array([5.0, 1.0]), d=np.array([0.5, 4.0]))
    best = math.inf
    for rows in itertools.permutations(range(2), 2):
        w = [max(p.s[i] - dj, 0.0) for i, dj in zip(rows, p.d)]
        val = sum(p.s[i] ** 2 for i in range(2)) - sum(x * x for x in w)
        best = min(best, val)
    assert abs(ey.solve(p).value - best) <= 1e-12


# -- certified lower bound -----------------------------------------------------------


def test_value_lower_bound_cases():
    # small s_lb: quadratic-in-s_lb branch
    got = ey.value_lower_bound([2.0, 2.0], [1.0, 1.0], 0.5)
    assert abs(got - 0.25 * 4.0 / 2.0) <= 1e-15
    # large s_lb: saturates at ||d||^2
    got = ey.value_lower_bound([5.0, 5.0], [1.0, 1.0], 4.0)
    assert got == 2.0
    assert ey.value_lower_bound([1.0], [0.0], 0.5) == 0.0


def test_value_lower_bound_is_a_lower_bound():
    rng = np.random.default_rng(SEED + 5)
    for _ in range(200):
        k = int(rng.integers(1, 6))
        d = rng.uniform(0.0, 3.0, size=k)
        s_lb = float(rng.uniform(0.0, 2.0))
        s = s_lb + rng.uniform(0.0, 3.0, size=k)
        true_val = float(s @ s - np.maximum(s - d, 0.0) @ np.maximum(s - d, 0.0))
        assert ey.value_lower_bound(s, d, s_lb) <= true_val + 1e-10


def test_value_lower_bound_validation():
    with pytest.raises(ValueError):
        ey.value_lower_bound([1.0], [1.0, 2.0], 0.0)
    with pytest.raises(ValueError):
        ey.value_lower_bound([1.0], [1.0], -0.1)
    with pytest.raises(ValueError):
        ey.value_lower_bound([0.5], [1.0], 0.6)
    with pytest.raises(ValueError):
        ey.value_lower_bound([1.0], [-1.0], 0.5)


# -- projection inequality ------------------------------------------------------------


def test_ones_projection_inequality_holds_on_feasible_inputs():
    rng = np.random.default_rng(SEED + 6)
    checked = 0
    while checked < 200:
        k = int(rng.integers(1, 8))
        x = rng.uniform(0.0, 3.0, size=k)
        if x.sum() > float(x @ x) or not x.any():
            continue
        lhs, rhs = ey.ones_projection_inequality(x)
        assert lhs >= rhs - 1e-10
        checked += 1


def test_ones_projection_inequality_tight_at_ones():
    lhs, rhs = ey.ones_projection_inequality(np.ones(4))
    assert abs(lhs - 0.0) <= 1e-12
    assert rhs == 0.0


def test_ones_projection_inequality_validation():
    with pytest.raises(ValueError):
        ey.ones_projection_inequality(np.zeros(3))
    with pytest.raises(ValueError):
        ey.ones_projection_inequality([-1.0, 2.0])
    with pytest.raises(ValueError):
        ey.ones_projection_inequality([0.5, 0.5])  # sum > ||x||^2
    with pytest.raises(ValueError, match="hypothesis"):
        ey.ones_projection_inequality([1e-13])  # 1e-13 > 1e-26, below any absolute slack


@pytest.mark.parametrize(
    "call",
    [
        lambda: ey.ones_projection_inequality([1e200]),  # returned (nan, 0.0)
        lambda: ey.value_lower_bound([1e200], [1e200], 1e200),  # returned nan
    ],
    ids=["ones-projection", "value-lower-bound"],
)
def test_squared_norm_overflow_is_an_error(call):
    with pytest.raises(ValueError, match=r"squared norm \w\^T \w overflows float64"):
        call()


@pytest.mark.parametrize(
    "call, expected",
    [
        # x is parallel to 1, so the lhs is 0, but (1^T x)^2 = 5.8e308 overflows
        (lambda: ey.ones_projection_inequality([1.2e153] * 20)[0], 0.0),  # returned -inf
        # s_lb^2 (1^T d)^2 = 1.6e401 overflows before the division by ||d||^2
        (lambda: ey.value_lower_bound([1e100, 1e100], [1e100, 1e100], 1e100), 2e200),  # returned inf
    ],
    ids=["ones-projection", "value-lower-bound"],
)
def test_tails_stay_finite_where_their_value_is(call, expected):
    assert call() == pytest.approx(expected, rel=1e-15, abs=1e-13)
