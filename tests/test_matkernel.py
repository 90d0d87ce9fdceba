import numpy as np
import pytest

from bmlandscape import serialize
from bmlandscape.matkernel import (
    as_factor,
    as_symmetric,
    jacobian_apply,
    jacobian_matrix,
    pair_residual,
    pinv,
    residual_projector,
    sym_eig,
    unvec,
    vec,
)

RNG_SEED = 20240611
CASES = [(1, 1), (2, 1), (3, 2), (4, 4), (5, 3), (7, 2), (8, 8)]


def random_sym(rng, n):
    g = rng.standard_normal((n, n))
    return 0.5 * (g + g.T)


# -- validation helpers -------------------------------------------------------


def test_as_symmetric_symmetrizes_and_validates():
    a = np.array([[1.0, 2.0], [0.0, 3.0]])
    s = as_symmetric(a)
    assert np.array_equal(s, np.array([[1.0, 1.0], [1.0, 3.0]]))
    with pytest.raises(ValueError):
        as_symmetric(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_symmetric(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_factor_validates():
    assert as_factor([[1.0], [2.0]]).shape == (2, 1)
    with pytest.raises(ValueError):
        as_factor(np.ones(3))
    with pytest.raises(ValueError):
        as_factor(np.array([[np.nan]]))


@pytest.mark.parametrize(
    "check",
    [as_factor, as_symmetric, serialize.matrix_to_lists, serialize.matrix_from_lists],
    ids=["as_factor", "as_symmetric", "matrix_to_lists", "matrix_from_lists"],
)
@pytest.mark.parametrize(
    "bad, message",
    [
        ([1.0, 2.0], r"^expected a 2-d array, got ndim 1$"),
        ([[1.0, float("inf")], [0.0, 1.0]], r"^matrix entries must be finite$"),
        ([[float("nan"), 0.0], [0.0, 1.0]], r"^matrix entries must be finite$"),
    ],
    ids=["1-d", "inf", "nan"],
)
def test_every_matrix_check_is_as_factor(check, bad, message):
    with pytest.raises(ValueError, match=message):
        check(bad)


# -- eigendecomposition -------------------------------------------------------


def test_sym_eig_diagonal_exact():
    w, v = sym_eig(np.diag([3.0, -1.0, 2.0]))
    assert np.array_equal(w, [3.0, 2.0, -1.0])
    # columns are signed unit vectors matching the sorted eigenvalues
    assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]])


def test_sym_eig_two_by_two_hand_value():
    # eigenvalues of [[2,1],[1,2]] are 3 and 1
    w, _ = sym_eig([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(w, [3.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 20])
def test_sym_eig_reconstruction_and_orthogonality(n):
    rng = np.random.default_rng(RNG_SEED + n)
    s = random_sym(rng, n)
    w, v = sym_eig(s)
    scale = max(1.0, np.linalg.norm(s))
    assert np.all(np.diff(w) <= 1e-13 * scale)  # descending
    assert np.linalg.norm(v.T @ v - np.eye(n)) <= 1e-13
    assert np.linalg.norm((v * w) @ v.T - s) <= 1e-12 * scale


def test_sym_eig_matches_numpy_spectrum():
    rng = np.random.default_rng(RNG_SEED)
    for n in (2, 4, 9):
        s = random_sym(rng, n)
        w, _ = sym_eig(s)
        ref = np.sort(np.linalg.eigvalsh(s))[::-1]
        assert np.allclose(w, ref, atol=1e-12 * max(1.0, abs(ref).max()))


def test_sym_eig_near_degenerate_cluster():
    # eigenvalues split by 1e-12 still come back orthonormal
    d = np.diag([1.0, 1.0 + 1e-12, 1.0 + 2e-12])
    rng = np.random.default_rng(5)
    g, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    s = g @ d @ g.T
    w, v = sym_eig(s)
    assert np.linalg.norm(v.T @ v - np.eye(3)) <= 1e-13
    assert abs(w[0] - w[2]) <= 1e-11


def test_sym_eig_zero_and_scalar():
    w, v = sym_eig(np.zeros((4, 4)))
    assert np.array_equal(w, np.zeros(4))
    assert np.linalg.norm(v.T @ v - np.eye(4)) <= 1e-14
    w, v = sym_eig([[7.0]])
    assert w[0] == 7.0 and abs(v[0, 0]) == 1.0


# -- pseudo-inverse -----------------------------------------------------------


@pytest.mark.parametrize("shape", [(3, 3), (5, 2), (2, 5)])
def test_pinv_moore_penrose_identities(shape):
    rng = np.random.default_rng(RNG_SEED)
    a = rng.standard_normal(shape)
    ap = pinv(a)
    assert np.linalg.norm(a @ ap @ a - a) <= 1e-12
    assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-12


def test_pinv_rank_deficient_and_zero():
    a = np.outer([1.0, 2.0], [3.0, 0.0, 1.0])
    ap = pinv(a)
    assert np.linalg.norm(a @ ap @ a - a) <= 1e-12
    assert np.array_equal(pinv(np.zeros((2, 4))), np.zeros((4, 2)))


# -- vec / unvec / Jacobian ----------------------------------------------------


def test_vec_is_column_stacking():
    m = np.array([[1.0, 3.0], [2.0, 4.0]])
    assert np.array_equal(vec(m), [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(unvec(vec(m)), m)


def test_unvec_rejects_non_square_length():
    with pytest.raises(ValueError):
        unvec(np.arange(6, dtype=float))


def test_pair_residual_returns_checked_factors_and_residual():
    rng = np.random.default_rng(RNG_SEED + 1)
    x = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 3))
    xc, zc, e = pair_residual(x.tolist(), z)
    assert np.array_equal(xc, x) and np.array_equal(zc, z)
    assert np.array_equal(e, x @ x.T - z @ z.T)
    # the zero test is relative to max |X X^T| and max |Z Z^T|: against Z = 0
    # every nonzero X is kept, however small its residual
    assert pair_residual([[2e-6]], [[0.0]])[2][0, 0] > 0.0
    assert pair_residual([[5e-7]], [[0.0]])[2][0, 0] > 0.0
    with pytest.raises(ValueError, match="identical Gram matrices"):
        pair_residual([[1e3]], [[1e3 + 1e-10]])
    with pytest.raises(ValueError, match="residual X X\\^T - Z Z\\^T overflows float64"):
        pair_residual(1e160 * x, z)


@pytest.mark.parametrize("n,r", CASES)
def test_jacobian_matrix_matches_apply(n, r):
    rng = np.random.default_rng(RNG_SEED + 10 * n + r)
    x = rng.standard_normal((n, r))
    v = rng.standard_normal((n, r))
    dense = jacobian_matrix(x) @ vec(v)
    direct = vec(jacobian_apply(x, v))
    assert np.linalg.norm(dense - direct) <= 1e-13 * max(1.0, np.linalg.norm(direct))


@pytest.mark.parametrize("n,r", CASES)
def test_jacobian_matrix_columns_equal_apply_on_unit_directions(n, r):
    # column c*n + i is J_X applied to E_ic, bit for bit: every entry is one
    # x[a, c] or a sum of two
    rng = np.random.default_rng(RNG_SEED + 10 * n + r)
    x = rng.standard_normal((n, r))
    j = jacobian_matrix(x)
    for c in range(r):
        for i in range(n):
            e_ic = np.zeros((n, r))
            e_ic[i, c] = 1.0
            assert np.array_equal(j[:, c * n + i], vec(jacobian_apply(x, e_ic)))


def test_jacobian_apply_rejects_shape_mismatch():
    x = np.ones((3, 2))
    for v in (np.ones((3, 1)), np.ones((2, 2))):
        with pytest.raises(ValueError, match="direction shape"):
            jacobian_apply(x, v)


def test_jacobian_is_first_order_exact():
    # X -> XX^T is quadratic: finite difference equals the Jacobian exactly
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 2))
    v = rng.standard_normal((4, 2))
    t = 0.5
    lhs = (x + t * v) @ (x + t * v).T - x @ x.T
    rhs = t * jacobian_apply(x, v) + t * t * (v @ v.T)
    assert np.linalg.norm(lhs - rhs) <= 1e-13


def symmetrizer(n):
    """Matrix S with S vec(W) = vec((W + W^T)/2)."""
    s = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            s[i * n + j, i * n + j] += 0.5
            s[i * n + j, j * n + i] += 0.5
    return s


@pytest.mark.parametrize("n,r", [(3, 1), (4, 2), (6, 3)])
def test_residual_projector_kronecker_identity_on_symmetric(n, r):
    # I - J J^+ agrees with P (x) P exactly on the symmetric subspace; the
    # antisymmetric subspace is orthogonal to range(J), where the two sides
    # genuinely differ, so the comparison is restricted by a symmetrizer.
    rng = np.random.default_rng(RNG_SEED + n + r)
    x = rng.standard_normal((n, r))
    j = jacobian_matrix(x)
    left = np.eye(n * n) - j @ pinv(j)
    p = residual_projector(x)
    diff = (left - np.kron(p, p)) @ symmetrizer(n)
    assert np.linalg.norm(diff) <= 1e-8


def test_residual_projector_identity_fails_off_symmetric():
    # sanity check of the restriction: an antisymmetric direction separates
    # the two operators whenever X has partial column span
    x = np.array([[1.0], [0.0]])
    j = jacobian_matrix(x)
    left = np.eye(4) - j @ pinv(j)
    p = residual_projector(x)
    w_anti = np.array([0.0, 1.0, -1.0, 0.0])
    assert np.linalg.norm(left @ w_anti - w_anti) <= 1e-14
    assert np.linalg.norm((left - np.kron(p, p)) @ w_anti) > 0.5


def test_residual_projector_annihilates_range():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 2))
    p = residual_projector(x)
    assert np.linalg.norm(p @ x) <= 1e-12
    assert np.linalg.norm(p @ p - p) <= 1e-12
