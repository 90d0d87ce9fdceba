import numpy as np
import pytest

from bmlandscape.matkernel import vec
from bmlandscape.objective import STATIONARY_TOL, QuadraticObjective, symmetric_basis

SEED = 91231


def make_objective(n, r_star, m, seed):
    rng = np.random.default_rng(seed)
    meas = rng.standard_normal((m, n, n))
    z = rng.standard_normal((n, r_star))
    return QuadraticObjective(meas, z), rng


def fd_gradient(obj, x, h_scale=1e-5):
    """Central-difference gradient, the independent oracle for f_grad."""
    h = h_scale * max(1.0, float(np.linalg.norm(x)))
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            xp = x.copy()
            xm = x.copy()
            xp[i, j] += h
            xm[i, j] -= h
            g[i, j] = (obj.f_eval(xp) - obj.f_eval(xm)) / (2.0 * h)
    return g


def fd_quadform(obj, x, v, h=1e-3):
    """Second central difference of t -> f(X + tV), oracle for the Hessian."""
    return (obj.f_eval(x + h * v) - 2.0 * obj.f_eval(x) + obj.f_eval(x - h * v)) / (
        h * h
    )


# -- symmetric basis -----------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_symmetric_basis_orthonormal_and_complete(n):
    basis = symmetric_basis(n)
    assert len(basis) == n * (n + 1) // 2
    for i, bi in enumerate(basis):
        assert np.array_equal(bi, bi.T)
        for j, bj in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(np.vdot(bi, bj) - want) <= 1e-15


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_symmetric_basis_matches_the_loop_construction(n):
    # reference: one matrix per index pair, built element by element
    reference = []
    for i in range(n):
        for j in range(i, n):
            b = np.zeros((n, n))
            b[i, j] = b[j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
            reference.append(b)
    basis = symmetric_basis(n)
    assert basis.shape == (n * (n + 1) // 2, n, n)
    assert np.array_equal(basis, np.stack(reference))


def test_symmetric_basis_expands_any_symmetric_matrix():
    rng = np.random.default_rng(SEED)
    s = rng.standard_normal((4, 4))
    s = 0.5 * (s + s.T)
    basis = symmetric_basis(4)
    recon = sum(np.vdot(b, s) * b for b in basis)
    assert np.linalg.norm(recon - s) <= 1e-14


# -- construction and validation ----------------------------------------------


def test_constructor_rejects_bad_shapes():
    z = np.ones((3, 1))
    with pytest.raises(ValueError):
        QuadraticObjective(np.ones((2, 3, 4)), z)  # non-square
    with pytest.raises(ValueError):
        QuadraticObjective(np.ones((0, 3, 3)), z)  # empty stack
    with pytest.raises(ValueError):
        QuadraticObjective(np.ones((2, 2, 2)), z)  # row mismatch
    with pytest.raises(ValueError):
        QuadraticObjective(np.full((1, 3, 3), np.nan), z)
    with pytest.raises(ValueError, match="overflows"):
        QuadraticObjective(np.ones((1, 3, 3)), 1e160 * z)  # finite Z, infinite Z Z^T


def test_attributes():
    obj, _ = make_objective(4, 2, 6, SEED)
    assert obj.n == 4
    assert obj.r_star == 2
    assert obj.measurements.shape == (6, 4, 4)
    assert np.allclose(obj.m_star, obj.ground_truth @ obj.ground_truth.T)


def test_measurement_gram_definition():
    obj, _ = make_objective(3, 1, 5, SEED + 5)
    want = sum(np.outer(vec(a), vec(a)) for a in obj.measurements)
    assert np.linalg.norm(obj.measurement_gram() - want) <= 1e-12
    # bitwise: the certificate checks and SDPA export consume this matrix
    flat = np.stack([vec(a) for a in obj.measurements])
    assert np.array_equal(obj.measurement_gram(), flat.T @ flat)


def test_asymmetric_measurements_act_through_symmetric_part():
    rng = np.random.default_rng(SEED + 6)
    meas = rng.standard_normal((6, 4, 4))
    z = rng.standard_normal((4, 2))
    raw = QuadraticObjective(meas, z)
    sym = QuadraticObjective(0.5 * (meas + meas.transpose(0, 2, 1)), z)
    x = rng.standard_normal((4, 3))
    assert abs(raw.f_eval(x) - sym.f_eval(x)) <= 1e-12
    assert np.linalg.norm(raw.f_grad(x) - sym.f_grad(x)) <= 1e-12


# -- batched kernels against the raw stack ----------------------------------------


def raw_stack_oracle(meas, z, x):
    """f, S and grad f of one factor by a loop over the raw measurements.

    S = sum_k <sym A_k, E> sym A_k with E = X X^T - Z Z^T, f = 1/2 sum_k
    <sym A_k, E>^2 and grad f = 2 S X; no Gram matrix is formed.
    """
    e = x @ x.T - z @ z.T
    f, s = 0.0, np.zeros_like(e)
    for a in meas:
        sym_a = 0.5 * (a + a.T)
        c = float(np.sum(sym_a * e))
        f += 0.5 * c * c
        s += c * sym_a
    return f, s, 2.0 * s @ x


def _rel_err(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


# m below n(n+1)/2 = 10 (rank-deficient curvature), m = n^2, and m above n^2
@pytest.mark.parametrize("m", [6, 16, 40])
def test_batched_kernels_match_raw_stack_loop(m):
    obj, rng = make_objective(4, 2, m, SEED + 20 + m)
    x = rng.standard_normal((9, 4, 3))
    e = obj.residuals(x)
    s = obj.apply_gram(e)
    f = obj.values(e, s)
    g = obj.grads(x, s)
    for t in range(len(x)):
        f_ref, s_ref, g_ref = raw_stack_oracle(obj.measurements, obj.ground_truth, x[t])
        assert abs(f[t] - f_ref) <= 1e-12 * f_ref
        assert _rel_err(s[t], s_ref) <= 1e-12
        assert _rel_err(g[t], g_ref) <= 1e-12


@pytest.mark.parametrize("b", [1, 7, 100])
def test_batched_kernels_equal_their_batch_of_one(b):
    # each point's bits are independent of the rest of its batch, and the
    # single-factor f_eval / f_grad are the batch-of-one case
    obj, rng = make_objective(5, 2, 25, SEED + 30)
    x = rng.standard_normal((b, 5, 4))
    e = obj.residuals(x)
    s = obj.apply_gram(e)
    f = obj.values(e, s)
    g = obj.grads(x, s)
    for t in range(b):
        xt = x[t : t + 1]
        e1 = obj.residuals(xt)
        s1 = obj.apply_gram(e1)
        assert np.array_equal(e[t : t + 1], e1)
        assert np.array_equal(s[t : t + 1], s1)
        assert np.array_equal(f[t : t + 1], obj.values(e1, s1))
        assert np.array_equal(g[t : t + 1], obj.grads(xt, s1))
        assert f[t] == obj.f_eval(x[t])
        assert np.array_equal(g[t], obj.f_grad(x[t]))


# -- smoothness bounds -----------------------------------------------------------


def test_smoothness_bounds_identity_family():
    # measurements forming an orthonormal symmetric basis give mu = L = 1
    basis = np.stack(symmetric_basis(3))
    obj = QuadraticObjective(basis, np.ones((3, 1)))
    mu, big = obj.smoothness_bounds()
    assert abs(mu - 1.0) <= 1e-12
    assert abs(big - 1.0) <= 1e-12


def test_smoothness_bounds_scaling():
    basis = np.stack(symmetric_basis(3))
    obj = QuadraticObjective(2.0 * basis, np.ones((3, 1)))
    mu, big = obj.smoothness_bounds()
    assert abs(mu - 4.0) <= 1e-12
    assert abs(big - 4.0) <= 1e-12
    # kappa = L / mu does not change with the scale of phi, nor does the
    # positive-definiteness test, which is relative to L
    tiny = QuadraticObjective(1e-7 * basis, np.ones((3, 1))).smoothness_bounds()
    assert tiny == pytest.approx((1e-14, 1e-14), rel=1e-13, abs=0.0)


def test_smoothness_bounds_rejects_degenerate_family():
    single = np.eye(2)[None, :, :]
    obj = QuadraticObjective(single, np.ones((2, 1)))
    with pytest.raises(ValueError, match="positive-definite"):
        obj.smoothness_bounds()


# -- factored-space calculus -----------------------------------------------------


def test_f_zero_and_stationary_at_ground_truth():
    obj, _ = make_objective(5, 2, 30, SEED + 7)
    z = obj.ground_truth
    assert obj.f_eval(z) <= 1e-25
    assert np.linalg.norm(obj.f_grad(z)) <= 1e-12


def test_f_grad_rejects_wrong_rows():
    obj, _ = make_objective(4, 1, 3, SEED + 8)
    with pytest.raises(ValueError):
        obj.f_grad(np.ones((5, 2)))
    with pytest.raises(ValueError, match="direction shape"):
        obj.f_hess_quadform(np.ones((4, 2)), np.ones((4, 3)))


GRAD_CASES = [(3, 1, 2, 5), (4, 2, 2, 9), (5, 2, 3, 25), (6, 3, 4, 12)]


@pytest.mark.parametrize("n,r_star,r,m", GRAD_CASES)
def test_f_grad_matches_central_differences(n, r_star, r, m):
    obj, rng = make_objective(n, r_star, m, SEED + 11 * n + r)
    for _ in range(3):
        x = rng.standard_normal((n, r))
        g = obj.f_grad(x)
        g_fd = fd_gradient(obj, x)
        rel = np.linalg.norm(g - g_fd) / max(1.0, np.linalg.norm(g))
        assert rel <= 1e-5


@pytest.mark.parametrize("n,r_star,r,m", GRAD_CASES)
def test_f_hess_quadform_matches_second_differences(n, r_star, r, m):
    obj, rng = make_objective(n, r_star, m, SEED + 13 * n + r)
    for _ in range(3):
        x = rng.standard_normal((n, r))
        v = rng.standard_normal((n, r))
        quad = obj.f_hess_quadform(x, v)
        quad_fd = fd_quadform(obj, x, v)
        assert abs(quad - quad_fd) / max(1.0, abs(quad)) <= 1e-4


def test_f_hess_matrix_consistent_with_quadform():
    obj, rng = make_objective(4, 2, 8, SEED + 9)
    x = rng.standard_normal((4, 2))
    h = obj.f_hess_matrix(x)
    assert np.array_equal(h, h.T)
    for _ in range(4):
        v = rng.standard_normal((4, 2))
        dense = float(vec(v) @ h @ vec(v))
        direct = obj.f_hess_quadform(x, v)
        assert abs(dense - direct) <= 1e-9 * max(1.0, abs(direct))


def test_f_hess_min_eig_is_a_lower_bound():
    obj, rng = make_objective(4, 1, 6, SEED + 10)
    x = rng.standard_normal((4, 2))
    lo = obj.check_second_order(x).hess_min_eig
    for _ in range(10):
        v = rng.standard_normal((4, 2))
        rayleigh = obj.f_hess_quadform(x, v) / float(np.vdot(v, v))
        assert rayleigh >= lo - 1e-9


# -- reporting and serialization -------------------------------------------------


def test_check_second_order_at_ground_truth():
    obj, _ = make_objective(4, 2, 20, SEED + 12)
    rep = obj.check_second_order(obj.ground_truth)
    assert rep.passed
    assert rep.objective_value <= 1e-20
    assert rep.tol == STATIONARY_TOL == 1e-9
    d = rep.to_obj()
    assert d["gap"] == d["objective_value"] == rep.objective_value
    assert d["grad_tol"] == d["hess_tol"] == rep.tol


def test_check_second_order_flags_nonstationary_point():
    obj, rng = make_objective(4, 2, 20, SEED + 13)
    x = rng.standard_normal((4, 2))
    rep = obj.check_second_order(x, tol=1e-9)
    assert rep.grad_norm > 1e-9
    assert not rep.passed
    d = rep.to_obj()
    assert d["passed"] is False
    assert set(d) == {
        "grad_norm",
        "hess_min_eig",
        "objective_value",
        "gap",
        "grad_tol",
        "hess_tol",
        "passed",
    }


@pytest.mark.parametrize("tol", [-1e-9, -np.inf, np.inf, np.nan])
def test_check_second_order_rejects_invalid_tol(tol):
    obj, _ = make_objective(4, 2, 20, SEED + 17)
    with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
        obj.check_second_order(obj.ground_truth, tol=tol)
    assert obj.check_second_order(obj.ground_truth, tol=0.0).tol == 0.0


def test_overflowing_factor_is_value_error():
    # X X^T overflows float64; the einsum kernels raise no floating-point
    # warning, so without a check f, its gradient, the Hessian's quadratic
    # form and the report are nan, and the dense Hessian's matmul warns
    obj, rng = make_objective(4, 2, 9, SEED + 16)
    x = 1e160 * rng.standard_normal((4, 2))
    with pytest.raises(ValueError, match="objective value f\\(X\\) overflows"):
        obj.f_eval(x)
    with pytest.raises(ValueError, match="gradient of f at X overflows"):
        obj.f_grad(x)
    with pytest.raises(ValueError, match="overflows"):
        obj.check_second_order(x)
    with pytest.raises(ValueError, match="Hessian quadratic form of f at X overflows"):
        obj.f_hess_quadform(x, x)
    with pytest.raises(ValueError, match="Hessian of f at X overflows"):
        obj.f_hess_matrix(x)


def test_objective_round_trip():
    obj, rng = make_objective(4, 2, 9, SEED + 14)
    back = QuadraticObjective.from_obj(obj.to_obj())
    x = rng.standard_normal((4, 3))
    assert back.f_eval(x) == obj.f_eval(x)
    assert np.array_equal(back.measurements, obj.measurements)


def test_from_obj_rejects_inconsistent_record():
    obj, _ = make_objective(3, 1, 4, SEED + 15)
    record = obj.to_obj()
    record["n"] = 5
    with pytest.raises(ValueError):
        QuadraticObjective.from_obj(record)
    record = obj.to_obj()
    del record["Z"]
    with pytest.raises(KeyError, match="'Z'"):  # the CLI names the field
        QuadraticObjective.from_obj(record)
