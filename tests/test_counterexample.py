import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bmlandscape import bounds, counterexample as ce, serialize
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
    assert abs(rep.objective_value - ce.spurious_gap(inst.q)) <= 1e-10


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
    assert abs(rep.objective_value - ce.spurious_gap(inst.q)) <= 1e-10
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


# sha256 of serialize.dumps(build(...).to_obj()), computed while the instance
# record still stored n, r, r_star, q and z as fields: any changed byte of an
# instance file fails here.
RECORD_SHA256 = {
    ((5, 3, 2), None): "f012cef15a4889fad6bdcd88a2a5766408a83d879c7f4cbb83f39483211725d6",
    ((4, 2, 1), 7): "8b0642e70bd170bfb98c490b3f3fe438f0068fa26655af15cf64130cd93c0efb",
    ((10, 6, 2), 0): "99dcec33473bc31cbb1beab4a3c78bc417cc1cbeb38a20a3540cbd29ac4fc9aa",
}


@pytest.mark.parametrize(
    "dims,basis_seed",
    list(RECORD_SHA256),
    ids=[
        "x".join(map(str, dims)) + ("-standard" if seed is None else f"-random{seed}")
        for dims, seed in RECORD_SHA256
    ],
)
def test_instance_record_bytes_pinned(dims, basis_seed):
    if basis_seed is None:
        inst = ce.build(*dims)
    else:
        inst = ce.build(*dims, basis_mode="random", seed=basis_seed)
    digest = hashlib.sha256(serialize.dumps(inst.to_obj()).encode()).hexdigest()
    assert digest == RECORD_SHA256[(dims, basis_seed)]


def _per_pair_stack(n, q, kappa, u):
    """The measurement stack built with one np.outer per pair (i, j)."""
    outer = [np.outer(u[:, i], u[:, j]) for i in range(n) for j in range(n)]
    outer = np.asarray(outer).reshape(n, n, n, n)
    stack = np.sqrt(kappa) * outer.reshape(n * n, n, n).copy()
    a00 = np.sqrt(kappa / 2.0) * outer[0, 0]
    for i in range(1, q + 1):
        a00 += np.sqrt(kappa / (2.0 * q)) * outer[i, i]
    stack[0] = a00
    a11 = outer[0, 0] / np.sqrt(2.0)
    for i in range(1, q + 1):
        a11 -= outer[i, i] / np.sqrt(2.0 * q)
    stack[n + 1] = a11
    for i in range(2, q + 1):
        p = q - i + 1
        aii = np.sqrt(p / (p + 1.0)) * outer[i - 1, i - 1]
        for j in range(p):
            aii -= outer[i + j, i + j] / np.sqrt(p * (p + 1.0))
        stack[i * n + i] = aii
    return stack


@pytest.mark.parametrize("basis_mode", ["standard", "random"])
def test_measurement_stack_matches_per_pair_outer_products(basis_mode):
    # every (n, r, r*) with n <= 8; the random bases are seeded per triple
    for n in range(2, 9):
        for r in range(1, n):
            for rs in range(1, r + 1):
                seed = 1000 * n + 10 * r + rs
                inst = ce.build(n, r, rs, basis_mode=basis_mode, seed=seed)
                q = r - rs + 1
                expected = _per_pair_stack(n, q, inst.kappa, inst.basis)
                stack = ce._measurement_stack(n, q, inst.kappa, inst.basis)
                assert stack.tobytes() == expected.tobytes(), (n, r, rs)
                assert inst.objective.measurements.tobytes() == expected.tobytes()
                record = json.loads(serialize.dumps(inst.to_obj()))
                loaded = ce.CounterexampleInstance.from_obj(record)
                assert loaded.objective.measurements.tobytes() == expected.tobytes()


@pytest.mark.parametrize("delta", [-1, 1])
@pytest.mark.parametrize("field", ["n", "r", "r_star", "q"])
def test_from_obj_rejects_dimension_disagreeing_with_matrices(field, delta):
    record = ce.build(5, 3, 2).to_obj()
    record[field] += delta
    with pytest.raises(ValueError, match=f"record field {field}=.* disagrees"):
        ce.CounterexampleInstance.from_obj(record)


def test_from_obj_rejects_z_disagreeing_with_objective():
    record = ce.build(5, 3, 2).to_obj()
    record["z"][2][1] = math.nextafter(record["z"][2][1], 2.0)
    with pytest.raises(ValueError, match="record field z disagrees"):
        ce.CounterexampleInstance.from_obj(record)


@pytest.mark.parametrize("mode", [5, "5", None, True, "Standard", "custom", ["random"]])
def test_from_obj_accepts_only_the_build_basis_modes(mode):
    # no coercion: str(5) would load as "5" and skip the kappa check
    record = ce.build(4, 2, 1).to_obj()
    record["basis_mode"] = mode
    with pytest.raises(ValueError, match="record field basis_mode="):
        ce.CounterexampleInstance.from_obj(record)


def test_from_obj_rejects_factor_rows_disagreeing_with_objective():
    small, big = ce.build(4, 2, 1).to_obj(), ce.build(5, 2, 1).to_obj()
    small["objective"] = big["objective"]
    small["z"] = big["z"]
    with pytest.raises(ValueError, match="x_spur, basis and objective disagree on n"):
        ce.CounterexampleInstance.from_obj(small)


def test_instance_stores_five_fields_and_derives_the_rest():
    inst = ce.build(6, 4, 2)
    assert [f.name for f in fields(inst)] == [
        "basis_mode", "seed", "basis", "x_spur", "objective",
    ]
    assert (inst.n, inst.r, inst.r_star, inst.q) == (6, 4, 2, 3)
    assert inst.kappa == 1.0 + 2.0 * math.sqrt(3)
    assert inst.z is inst.objective.ground_truth


@pytest.mark.parametrize("basis_mode", ["standard", "random"])
def test_kappa_is_the_threshold_window_top_bitwise(basis_mode):
    for n, r, rs in SWEEP:
        inst = ce.build(n, r, rs, basis_mode=basis_mode, seed=n + r)
        kappa = inst.kappa
        assert type(kappa) is float
        assert kappa == bounds.thresholds(r, rs)[1] == 1.0 + 2.0 * math.sqrt(inst.q)


def test_from_obj_compares_kappa_as_the_json_value_it_is():
    record = ce.build(4, 2, 2).to_obj()  # q = 1, kappa = 3.0
    record["kappa"] = 3
    assert ce.CounterexampleInstance.from_obj(record).kappa == 3.0
    for value in ("3", True, None, 10**400):
        record["kappa"] = value
        with pytest.raises(ValueError, match="record field kappa=.* disagrees"):
            ce.CounterexampleInstance.from_obj(record)


def test_kappa_cannot_be_set():
    inst = ce.build(5, 3, 2)
    with pytest.raises(TypeError):
        ce.CounterexampleInstance(
            kappa=9.0, basis_mode="standard", seed=0, basis=inst.basis,
            x_spur=inst.x_spur, objective=inst.objective,
        )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    dims=st.sampled_from([d for d in SWEEP if d[0] <= 5]),
    seed=st.integers(min_value=0, max_value=2**16),
    field=st.sampled_from(["n", "r", "r_star", "q"]),
    delta=st.one_of(
        st.integers(min_value=-50, max_value=50),
        st.floats(min_value=-50.0, max_value=50.0),
    ),
)
def test_from_obj_rejects_any_scalar_change_and_round_trips_untouched(
    dims, seed, field, delta
):
    inst = ce.build(*dims, basis_mode="random", seed=seed)
    text = serialize.dumps(inst.to_obj())
    back = ce.CounterexampleInstance.from_obj(inst.to_obj())
    assert serialize.dumps(back.to_obj()) == text
    record = inst.to_obj()
    record[field] += delta
    assume(record[field] != getattr(inst, field))  # delta 0, or 4 + 1e-87 == 4
    with pytest.raises(ValueError, match=f"record field {field}="):
        ce.CounterexampleInstance.from_obj(record)


@pytest.mark.parametrize("dims,basis_seed", [((5, 3, 2), None), ((6, 4, 1), 9)])
@pytest.mark.parametrize("direction", [0.0, 10.0])
def test_from_obj_rejects_kappa_one_ulp_off_the_construction(dims, basis_seed, direction):
    if basis_seed is None:
        inst = ce.build(*dims)
    else:
        inst = ce.build(*dims, basis_mode="random", seed=basis_seed)
    record = inst.to_obj()
    assert ce.CounterexampleInstance.from_obj(record).kappa == 1.0 + 2.0 * math.sqrt(inst.q)
    record["kappa"] = math.nextafter(record["kappa"], direction)
    with pytest.raises(ValueError, match="record field kappa="):
        ce.CounterexampleInstance.from_obj(record)
