import hashlib
import math

import numpy as np
import pytest

from bmlandscape import bounds, certificates as certs, counterexample as ce
from bmlandscape.matkernel import vec
from bmlandscape.objective import symmetric_basis

SEED = 55117


def instance_with_gram(n, r, rs):
    inst = ce.build(n, r, rs)
    return inst, inst.objective.measurement_gram()


# -- assembly -------------------------------------------------------------------


def test_assemble_shapes_and_residual():
    rng = np.random.default_rng(SEED)
    x = rng.standard_normal((4, 2))
    z = rng.standard_normal((4, 1))
    cert = certs.assemble(x, z, "ub")
    assert cert.n == 4 and cert.r == 2 and cert.r_star == 1
    assert cert.e.shape == (16,)
    assert np.allclose(cert.e, vec(x @ x.T - z @ z.T))
    assert cert.j_x.shape == (16, 8)
    assert cert.j_z.shape == (16, 4)


def test_assemble_validation():
    x = np.eye(3)[:, :2]
    with pytest.raises(ValueError):
        certs.assemble(x, x, "ub")  # identical Gram matrices
    with pytest.raises(ValueError):
        certs.assemble(x, np.ones((4, 1)), "ub")
    with pytest.raises(ValueError):
        certs.assemble(x, np.ones((3, 1)), "middle")


def test_certificate_round_trip():
    rng = np.random.default_rng(SEED + 1)
    cert = certs.assemble(
        rng.standard_normal((3, 2)), rng.standard_normal((3, 1)), "lb"
    )
    back = certs.CertificateSDP.from_obj(cert.to_obj())
    assert back.which == "lb"
    assert np.array_equal(back.x, cert.x)
    assert np.array_equal(back.e, cert.e)
    assert np.array_equal(back.j_z, cert.j_z)


# -- feasibility verification -----------------------------------------------------


@pytest.mark.parametrize("n,r,rs", [(5, 3, 2), (4, 2, 1), (6, 4, 2)])
def test_verify_ub_certifies_built_instances(n, r, rs):
    inst, h = instance_with_gram(n, r, rs)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    report = certs.verify_ub(cert, inst.kappa, h)
    assert report.feasible
    assert report.which == "ub"
    assert max(abs(v) for v in report.residuals.values()) <= 1e-8


def test_verify_ub_rejects_smaller_kappa():
    inst, h = instance_with_gram(5, 3, 2)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    report = certs.verify_ub(cert, inst.kappa - 0.25, h)
    assert not report.feasible
    assert report.residuals["kappa_identity_minus_h"] < -1e-6


def test_verify_ub_flags_bad_h():
    inst, h = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    with pytest.raises(ValueError):
        certs.verify_ub(cert, 0.5, h)  # kappa below 1
    with pytest.raises(ValueError):
        certs.verify_ub(cert, 3.0, np.eye(5))  # wrong shape
    # identity H keeps the eigenvalue constraints but loses stationarity
    report = certs.verify_ub(cert, inst.kappa, np.eye(16))
    assert not report.feasible
    assert report.residuals["gradient_orthogonality"] > 1e-3


@pytest.mark.parametrize("n,r,rs", [(5, 3, 2), (4, 2, 1)])
def test_verify_lb_with_zero_slack(n, r, rs):
    # (kappa, H, s=0) is feasible for the built pairs: the gradient condition
    # is inherited and kappa J^T J dominates J^T H J in the matrix inequality
    inst, h = instance_with_gram(n, r, rs)
    cert = certs.assemble(inst.x_spur, inst.z, "lb")
    report = certs.verify_lb(cert, inst.kappa, h, np.zeros(n * n))
    assert report.feasible
    assert set(report.residuals) == {
        "h_minus_identity",
        "kappa_identity_minus_h",
        "slack_psd",
        "slack_truth_orthogonality",
        "gradient_orthogonality",
        "hessian_lmi",
    }


def test_verify_lb_validation():
    inst, h = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "lb")
    with pytest.raises(ValueError):
        certs.verify_lb(cert, inst.kappa, h, np.zeros(7))


def test_feasibility_report_sign_conventions():
    # norm-type residuals fail when above tol, eigenvalue-type below -tol
    rep = certs.FeasibilityReport(
        kappa=2.0,
        which="ub",
        residuals={"gradient_orthogonality": 5e-9, "hessian_lmi": -5e-9},
        tol=1e-8,
    )
    assert rep.feasible
    rep2 = certs.FeasibilityReport(
        kappa=2.0,
        which="ub",
        residuals={"gradient_orthogonality": 2e-8, "hessian_lmi": 0.0},
        tol=1e-8,
    )
    assert not rep2.feasible
    assert rep2.to_obj()["feasible"] is False


# -- analytic eigenpairs ------------------------------------------------------------


def test_eigen_equations_residuals_small():
    inst, h = instance_with_gram(6, 4, 2)
    res = certs.eigen_equations(inst, h)
    assert len(res) == inst.r + 2
    assert max(res) <= 1e-9


def test_eigen_equations_shape_check():
    inst, _ = instance_with_gram(4, 2, 1)
    with pytest.raises(ValueError):
        certs.eigen_equations(inst, np.eye(3))


# -- alignment witness ----------------------------------------------------------------


def test_witness_objective_matches_alignment_bound():
    # dual route: the realized witness value vs the closed-form alignment
    # bound at the matching parameter t = tau * beta
    inst = ce.build(5, 3, 2)
    ab = bounds.alpha_beta(inst.x_spur, inst.z)
    for tau in (0.0, 0.25 * ab.alpha, 0.7 * ab.alpha, ab.alpha):
        objective, report = certs.cos_theta_witness(inst.x_spur, inst.z, tau)
        assert report.feasible, report.residuals
        closed = bounds.cos_theta_lb(ab.alpha, ab.beta, tau * ab.beta)
        assert abs(objective - closed) <= 1e-9


def test_witness_energy_identity():
    inst = ce.build(4, 2, 1)
    ab = bounds.alpha_beta(inst.x_spur, inst.z)
    tau = 0.5 * ab.alpha
    _, report = certs.cos_theta_witness(inst.x_spur, inst.z, tau)
    assert report.residuals["jacobian_energy_deviation"] <= 1e-10
    assert report.residuals["witness_psd"] >= -1e-12


def test_witness_validation():
    inst = ce.build(4, 2, 1)
    ab = bounds.alpha_beta(inst.x_spur, inst.z)
    with pytest.raises(ValueError):
        certs.cos_theta_witness(inst.x_spur, inst.z, ab.alpha + 0.05)
    with pytest.raises(ValueError):
        certs.cos_theta_witness(inst.x_spur, inst.z, -0.1)
    with pytest.raises(ValueError):
        certs.cos_theta_witness(np.zeros((4, 2)), inst.z, 0.0)


# -- SDPA export -----------------------------------------------------------------------


def test_sdpa_lines_deterministic_and_commented():
    inst, _ = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    first = certs.sdpa_lines(cert, comments=("run A",))
    second = certs.sdpa_lines(cert, comments=("run A",))
    assert first == second
    assert first[0] == "* run A"


# sha256 of "\n".join(sdpa_lines(cert)) + "\n", computed with the per-entry
# loop emitter that the array version replaced: any changed byte fails here.
SDPA_SHA256 = {
    ((4, 2, 1), None, "ub"): "f67f84c7f1d4837c087c7042221b3e2ffa38e8b17cdd836641a8f4896c40c613",
    ((4, 2, 1), None, "lb"): "d5e01f442407040a499f904ae8ce9c3950ea2c034efe2a0d17b0d17c005a15e6",
    ((5, 3, 2), None, "ub"): "c0695efb5e99e20b2864c8fbc910c1d725810663682016502fad05fedd5553ff",
    ((5, 3, 2), None, "lb"): "6d332625cb75b3578ecc6182295e2cbb81f9add5adbca1998241f80931090eae",
    ((4, 2, 1), 3, "ub"): "a72baace66273c64b4f7303341bc5e673810aab37d56102dba8632033d4e0fff",
    ((4, 2, 1), 3, "lb"): "e6a8b54a50cf9958ade5ab50275244ac661a072614176488d5f0ef49fec25fa1",
}


@pytest.mark.parametrize(
    "dims,basis_seed,which",
    list(SDPA_SHA256),
    ids=[
        "x".join(map(str, dims)) + ("-standard" if seed is None else f"-random{seed}") + f"-{which}"
        for dims, seed, which in SDPA_SHA256
    ],
)
def test_sdpa_bytes_pinned(dims, basis_seed, which):
    if basis_seed is None:
        inst = ce.build(*dims)
    else:
        inst = ce.build(*dims, basis_mode="random", seed=basis_seed)
    cert = certs.assemble(inst.x_spur, inst.z, which)
    text = "\n".join(certs.sdpa_lines(cert)) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == SDPA_SHA256[(dims, basis_seed, which)]


def test_export_sdpa_byte_identical(tmp_path):
    inst, _ = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "lb")
    p1 = tmp_path / "a.dat-s"
    p2 = tmp_path / "b.dat-s"
    certs.export_sdpa(cert, p1)
    certs.export_sdpa(cert, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sdpa_header_structure():
    inst, _ = instance_with_gram(3, 2, 1)
    n = 3
    n_h = (n * n) * (n * n + 1) // 2
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    parsed = certs.parse_sdpa("\n".join(certs.sdpa_lines(cert)))
    assert parsed["m"] == 2 + n_h
    assert parsed["block_sizes"] == [9, 9, 6, -2, -12]
    assert parsed["c"] == [1.0, -1.0] + [0.0] * n_h

    cert_lb = certs.assemble(inst.x_spur, inst.z, "lb")
    parsed_lb = certs.parse_sdpa("\n".join(certs.sdpa_lines(cert_lb)))
    n_s = n * (n + 1) // 2
    assert parsed_lb["m"] == 2 + n_h + n_s
    assert parsed_lb["block_sizes"] == [9, 9, 6, -2, -12, 3, -6]


def test_parse_sdpa_rejects_malformed():
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n1\n4 4\n1.0 -1.0\n1 1 1\n")  # short entry line
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n3\n4\n1.0 -1.0\n")  # block count mismatch


def _dense_blocks(parsed, var):
    """Realize the F_var matrices of one variable from parsed entries."""
    blocks = {}
    for b, size in enumerate(parsed["block_sizes"], start=1):
        blocks[b] = np.zeros((abs(size), abs(size)))
    for matno, blkno, i, j, val in parsed["entries"]:
        if matno != var:
            continue
        m = blocks[blkno]
        m[i - 1, j - 1] = val
        m[j - 1, i - 1] = val
    return blocks


def test_sdpa_entries_realize_the_ub_system():
    # semantic oracle: contracting the exported coefficients with a random
    # assignment must reproduce the constraint matrices computed directly
    rng = np.random.default_rng(SEED + 2)
    x = rng.standard_normal((2, 1))
    z = rng.standard_normal((2, 1))
    cert = certs.assemble(x, z, "ub")
    parsed = certs.parse_sdpa("\n".join(certs.sdpa_lines(cert)))
    n, r = 2, 1
    n2 = n * n
    n_h = n2 * (n2 + 1) // 2

    # symmetric basis of the n^2 x n^2 H space in the documented lex order
    h_basis = []
    for u in range(n2):
        for v in range(u, n2):
            b = np.zeros((n2, n2))
            if u == v:
                b[u, u] = 1.0
            else:
                b[u, v] = b[v, u] = 1.0 / math.sqrt(2.0)
            h_basis.append(b)
    assert len(h_basis) == n_h

    kappa_plus, kappa_minus = 2.7, 0.4
    h_coords = rng.standard_normal(n_h)
    h = sum(c * b for c, b in zip(h_coords, h_basis))
    kappa = kappa_plus - kappa_minus

    y = np.concatenate([[kappa_plus, kappa_minus], h_coords])
    realized = {b: np.zeros((abs(s), abs(s))) for b, s in enumerate(parsed["block_sizes"], 1)}
    for var in range(1, parsed["m"] + 1):
        for b, mat in _dense_blocks(parsed, var).items():
            realized[b] += y[var - 1] * mat
    f0 = _dense_blocks(parsed, 0)
    for b in realized:
        realized[b] -= f0[b]

    he = h @ cert.e
    s_he = 0.5 * (he.reshape(n, n, order="F") + he.reshape(n, n, order="F").T)
    want3 = cert.j_x.T @ h @ cert.j_x + 2.0 * np.kron(np.eye(r), s_he)
    assert np.allclose(realized[1], h - np.eye(n2), atol=1e-12)
    assert np.allclose(realized[2], kappa * np.eye(n2) - h, atol=1e-12)
    assert np.allclose(realized[3], want3, atol=1e-12)
    assert np.allclose(np.diag(realized[4]), [kappa_plus, kappa_minus], atol=1e-15)
    grad = cert.j_x.T @ he
    assert np.allclose(np.diag(realized[5]), np.column_stack([grad, -grad]).ravel(), atol=1e-12)


def test_sdpa_slack_coordinates_realize_the_lb_system():
    rng = np.random.default_rng(SEED + 3)
    x = rng.standard_normal((2, 1))
    z = rng.standard_normal((2, 1))
    cert = certs.assemble(x, z, "lb")
    parsed = certs.parse_sdpa("\n".join(certs.sdpa_lines(cert)))
    n = 2
    n2, n_h = 4, 10
    s_basis = symmetric_basis(n)
    n_s = len(s_basis)
    assert parsed["m"] == 2 + n_h + n_s

    s_coords = rng.standard_normal(n_s)
    s_mat = sum(c * b for c, b in zip(s_coords, s_basis))
    realized = {b: np.zeros((abs(sz), abs(sz))) for b, sz in enumerate(parsed["block_sizes"], 1)}
    for t in range(n_s):
        var = 3 + n_h + t
        for b, mat in _dense_blocks(parsed, var).items():
            realized[b] += s_coords[t] * mat

    s_vec = s_mat.flatten(order="F")
    assert np.allclose(realized[3], 2.0 * np.kron(np.eye(1), s_mat), atol=1e-12)
    assert np.allclose(realized[6], s_mat, atol=1e-12)
    grad = cert.j_x.T @ s_vec
    assert np.allclose(np.diag(realized[5]), np.column_stack([grad, -grad]).ravel(), atol=1e-12)
    grad_z = cert.j_z.T @ s_vec
    assert np.allclose(np.diag(realized[7]), np.column_stack([grad_z, -grad_z]).ravel(), atol=1e-12)
