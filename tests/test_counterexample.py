import math

import numpy as np
import pytest

from bmlandscape import counterexample as ce
from bmlandscape.matkernel import vec

# every admissible rank triple with n <= 8
SWEEP = [
    (n, r, rs) for n in range(2, 9) for r in range(1, n) for rs in range(1, r + 1)
]


def test_build_rejects_bad_rank_ordering():
    for n, r, rs in [(3, 3, 1), (4, 2, 3), (4, 0, 0), (5, 4, 0)]:
        with pytest.raises(ValueError):
            ce.build(n, r, rs)


def test_build_rejects_unknown_basis_mode():
    with pytest.raises(ValueError):
        ce.build(5, 3, 2, basis_mode="hadamard")


def test_build_shapes_and_derived_quantities():
    inst = ce.build(5, 3, 2)
    assert inst.q == 2
    assert abs(inst.kappa - (1.0 + 2.0 * math.sqrt(2.0))) <= 1e-15
    assert inst.basis.shape == (5, 5)
    assert inst.x_spur.shape == (5, 3)
    assert inst.z.shape == (5, 2)
    assert inst.objective.measurements.shape == (25, 5, 5)


def test_gap_formula_value():
    # q = 2: (1 + 2 sqrt 2) / (1 + sqrt 2) = 1.5857864376269049...
    assert abs(ce.spurious_gap(2) - 1.5857864376269049) <= 1e-15
    assert abs(ce.spurious_gap(1) - 1.5) <= 1e-15


@pytest.mark.parametrize("n,r,rs", [(5, 3, 2), (4, 2, 1), (6, 4, 2), (8, 6, 3)])
def test_objective_value_at_stuck_point_matches_formula(n, r, rs):
    inst = ce.build(n, r, rs)
    f = inst.objective.f_eval(inst.x_spur)
    assert abs(f - ce.spurious_gap(inst.q)) <= 1e-12


@pytest.mark.parametrize("n,r,rs", [(5, 3, 2), (4, 2, 1), (7, 5, 3)])
def test_stuck_point_is_second_order_stationary(n, r, rs):
    rep = ce.verify_spurious(ce.build(n, r, rs))
    assert rep.grad_norm <= 1e-9
    assert rep.hess_min_eig >= -1e-9
    assert rep.passed


def test_ground_truth_attains_zero():
    inst = ce.build(5, 3, 2)
    assert inst.objective.f_eval(inst.z) <= 1e-24


def test_smoothness_bounds_are_one_and_kappa():
    inst = ce.build(5, 3, 2)
    mu, big = inst.objective.smoothness_bounds()
    assert abs(mu - 1.0) <= 1e-12
    assert abs(big - inst.kappa) <= 1e-12


def test_gap_exceeds_strong_convexity_floor():
    # the hallmark of the construction: a second-order point whose value
    # gap strictly exceeds mu = 1, ruling out benign-landscape arguments
    for n, r, rs in [(5, 3, 2), (6, 4, 2), (8, 4, 1)]:
        inst = ce.build(n, r, rs)
        assert ce.spurious_gap(inst.q) > 1.0


@pytest.mark.parametrize("n,r,rs", SWEEP[:: max(1, len(SWEEP) // 24)])
def test_sweep_stationarity_and_gap(n, r, rs):
    inst = ce.build(n, r, rs)
    rep = ce.verify_spurious(inst)
    assert rep.passed
    assert abs(rep.gap - ce.spurious_gap(inst.q)) <= 1e-10


def test_random_basis_is_orthonormal_and_reproducible():
    a = ce.build(6, 4, 2, basis_mode="random", seed=7)
    b = ce.build(6, 4, 2, basis_mode="random", seed=7)
    c = ce.build(6, 4, 2, basis_mode="random", seed=8)
    assert np.array_equal(a.basis, b.basis)
    assert not np.array_equal(a.basis, c.basis)
    assert np.linalg.norm(a.basis.T @ a.basis - np.eye(6)) <= 1e-13


def test_random_basis_preserves_the_landscape():
    inst = ce.build(6, 4, 2, basis_mode="random", seed=3)
    rep = ce.verify_spurious(inst)
    assert rep.passed
    assert abs(rep.gap - ce.spurious_gap(inst.q)) <= 1e-10
    mu, big = inst.objective.smoothness_bounds()
    assert abs(mu - 1.0) <= 1e-10
    assert abs(big - inst.kappa) <= 1e-10


def test_eigen_pairs_against_measurement_gram():
    inst = ce.build(5, 3, 2)
    gram = inst.objective.measurement_gram()
    pairs = ce.eigen_pairs(inst)
    assert len(pairs) == inst.r + 2
    for lam, v in pairs:
        vv = vec(v)
        assert np.linalg.norm(gram @ vv - lam * vv) <= 1e-12 * max(1.0, lam)
    lams = sorted(lam for lam, _ in pairs)
    assert lams[0] == 1.0
    assert all(abs(l - inst.kappa) <= 1e-15 for l in lams[1:])


def test_padded_escape_direction_has_negative_curvature():
    inst = ce.build(5, 3, 2)
    x_pad, direction, predicted = ce.padded_escape(inst)
    assert x_pad.shape == (5, 4)
    assert predicted < 0.0
    quad = inst.objective.f_hess_quadform(x_pad, direction)
    assert abs(quad - predicted) <= 1e-10
    # the padded point is still first-order stationary
    assert np.linalg.norm(inst.objective.f_grad(x_pad)) <= 1e-12


def test_instance_round_trip():
    inst = ce.build(5, 3, 2, basis_mode="random", seed=11)
    back = ce.CounterexampleInstance.from_obj(inst.to_obj())
    assert back.n == inst.n and back.q == inst.q
    assert np.array_equal(back.x_spur, inst.x_spur)
    assert np.array_equal(back.z, inst.z)
    assert back.objective.f_eval(back.x_spur) == inst.objective.f_eval(inst.x_spur)


def test_from_obj_rejects_wrong_kind():
    record = ce.build(4, 2, 1).to_obj()
    record["kind"] = "something-else"
    with pytest.raises(ValueError):
        ce.CounterexampleInstance.from_obj(record)


@pytest.mark.parametrize("record", [[], "x", 5, None])
def test_from_obj_rejects_non_object(record):
    with pytest.raises(ValueError, match="not a counterexample"):
        ce.CounterexampleInstance.from_obj(record)
