import dataclasses
import hashlib
import io
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bmlandscape import bounds, certificates as certs, counterexample as ce, serialize
from bmlandscape.matkernel import vec
from bmlandscape.objective import symmetric_basis

SEED = 55117


def instance_with_gram(n, r, rs):
    inst = ce.build(n, r, rs)
    return inst, inst.objective.measurement_gram()


def sdpa_text(cert, directory, comments=()) -> str:
    """The text ``export_sdpa`` writes for ``cert`` into ``directory``."""
    path = directory / "system.dat-s"
    certs.export_sdpa(cert, path, comments)
    return path.read_bytes().decode()


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
    with pytest.raises(ValueError, match="identical Gram matrices"):
        certs.assemble(x, x, "ub")
    with pytest.raises(ValueError, match="factors must share their row count"):
        certs.assemble(x, np.ones((4, 1)), "ub")
    with pytest.raises(ValueError, match="which must be"):
        certs.assemble(x, np.ones((3, 1)), "middle")


def test_assemble_rejects_overflowing_residual():
    inst = ce.build(4, 2, 1)
    for x, z in (
        (1e160 * inst.x_spur, inst.z),
        (inst.x_spur, 1e160 * inst.z),
        (1e155 * inst.x_spur, 1e155 * inst.z),  # inf - inf in the residual
    ):
        with pytest.raises(ValueError, match="residual X X\\^T - Z Z\\^T overflows float64"):
            certs.assemble(x, z, "ub")


def test_assemble_takes_the_residual_norm_without_overflow():
    rng = np.random.default_rng(SEED + 6)
    x = 1e80 * rng.standard_normal((3, 2))
    z = 1e80 * rng.standard_normal((3, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = certs.assemble(x, z, "ub")
    assert np.all(np.isfinite(cert.e))
    # X X^T = Z Z^T with Z = X Q for an orthogonal Q: still rejected
    c, s = math.cos(0.3), math.sin(0.3)
    with pytest.raises(ValueError, match="identical Gram matrices"):
        certs.assemble(x / 1e80, x / 1e80 @ np.array([[c, -s], [s, c]]), "ub")


# -- feasibility verification -----------------------------------------------------


@pytest.mark.parametrize("n,r,rs", [(5, 3, 2), (4, 2, 1), (6, 4, 2)])
def test_verify_ub_certifies_built_instances(n, r, rs):
    inst, h = instance_with_gram(n, r, rs)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    report = certs.verify_ub(cert, inst.kappa, h)
    assert report.feasible
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


@pytest.mark.parametrize("basis_mode", ce.BASIS_MODES)
def test_ub_residuals_at_the_measurement_gram_are_the_objectives_stationarity(basis_mode):
    # with H the measurement Gram, J_X^T H e is vec(grad f(X)) and the ub
    # matrix inequality is the Hessian of f, so verify_ub's two stationarity
    # residuals are check_second_order's gradient norm and least eigenvalue
    rng = np.random.default_rng(SEED + 9)
    shapes = [(n, r, rs) for n in range(2, 7) for r in range(1, n) for rs in range(1, r + 1)]
    for n, r, rs in shapes:
        inst = ce.build(n, r, rs, basis_mode=basis_mode, seed=n)
        h = inst.objective.measurement_gram()
        for x in (inst.x_spur, inst.x_spur + 0.1 * rng.standard_normal(inst.x_spur.shape)):
            residuals = certs.verify_ub(certs.assemble(x, inst.z, "ub"), inst.kappa, h).residuals
            report = inst.objective.check_second_order(x)
            for got, want in (
                (residuals["gradient_orthogonality"], report.grad_norm),
                (residuals["hessian_lmi"], report.hess_min_eig),
            ):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), ((n, r, rs), got, want)


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


def test_verify_residuals_pinned():
    # names, order and exact bits of both checks on the built (5, 3, 2) pair
    inst, h = instance_with_gram(5, 3, 2)
    ub = certs.verify_ub(certs.assemble(inst.x_spur, inst.z, "ub"), inst.kappa, h)
    lb = certs.verify_lb(
        certs.assemble(inst.x_spur, inst.z, "lb"), inst.kappa, h, np.zeros(25)
    )
    assert [(k, float(v).hex()) for k, v in ub.residuals.items()] == [
        ("h_minus_identity", "-0x1.0000000000000p-52"),
        ("kappa_identity_minus_h", "-0x1.0000000000000p-50"),
        ("gradient_orthogonality", "0x1.1517a7bdb3894p-51"),
        ("hessian_lmi", "-0x1.8be33112d2166p-50"),
    ]
    assert [(k, float(v).hex()) for k, v in lb.residuals.items()] == [
        ("h_minus_identity", "-0x1.0000000000000p-52"),
        ("kappa_identity_minus_h", "-0x1.0000000000000p-50"),
        ("slack_psd", "0x0.0p+0"),
        ("slack_truth_orthogonality", "0x0.0p+0"),
        ("gradient_orthogonality", "0x1.1517a7bdb3894p-51"),
        ("hessian_lmi", "-0x1.0000000000000p-50"),
    ]


def test_feasibility_report_sign_conventions():
    # norm-type residuals fail when above tol, eigenvalue-type below -tol
    rep = certs.FeasibilityReport(
        residuals={"gradient_orthogonality": 5e-9, "hessian_lmi": -5e-9},
    )
    assert rep.feasible
    rep2 = certs.FeasibilityReport(
        residuals={"gradient_orthogonality": 2e-8, "hessian_lmi": 0.0},
    )
    assert rep2.feasible is False


def test_feasibility_report_tolerance_boundary():
    # a norm residual at the tolerance passes, the next float above it fails;
    # an eigenvalue residual at minus the tolerance passes, the next below fails
    tol = certs.FEASIBILITY_TOL
    for name, edge in (("gradient_orthogonality", tol), ("hessian_lmi", -tol)):
        assert certs.FeasibilityReport(residuals={name: edge}).feasible
        outside = math.nextafter(edge, math.copysign(1.0, edge))
        assert certs.FeasibilityReport(residuals={name: outside}).feasible is False


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
    e1, e2 = np.eye(2)[:, :1], np.eye(2)
    # the residual -e2 e2^T is orthogonal to the range of J_X
    with pytest.raises(ValueError, match="no component along the factor's range"):
        certs.cos_theta_witness(e1, e2, 0.5)
    # Z = 2 e1 lies in range(X), so alpha = 0 and tau > 0 has no witness
    with pytest.raises(ValueError, match="requires Z to leave the range of X"):
        certs.cos_theta_witness(e1, 2.0 * e1, 1e-13)


def test_witness_makes_one_pass_over_the_pair(monkeypatch):
    # one residual, one X^T X eigendecomposition and one ||Z_perp Z_perp^T||_F
    # per call, shared with the (alpha, beta) invariants
    inst = ce.build(5, 3, 2)
    ab, (*_, z_perp), *_ = bounds._pair_geometry(*certs.pair_residual(inst.x_spur, inst.z))
    outer = z_perp @ z_perp.T
    residual, sym_eig, norm = certs.pair_residual, certs.sym_eig, np.linalg.norm
    seen = []

    def count_residual(x, z):
        seen.append("residual")
        return residual(x, z)

    def count_eig(s):
        seen.append(np.shape(s))
        return sym_eig(s)

    def count_norm(a, *args, **kwargs):
        if np.shape(a) == outer.shape and np.allclose(a, outer, rtol=1e-12, atol=0.0):
            seen.append("outer_norm")
        return norm(a, *args, **kwargs)

    for module in (bounds, certs):
        monkeypatch.setattr(module, "pair_residual", count_residual)
        monkeypatch.setattr(module, "sym_eig", count_eig)
    monkeypatch.setattr(np.linalg, "norm", count_norm)
    _, report = certs.cos_theta_witness(inst.x_spur, inst.z, 0.5 * ab.alpha)
    assert report.feasible, report.residuals
    assert seen.count("residual") == 1
    assert seen.count((3, 3)) == 1  # X^T X; the other eigensolves are 15 x 15 and 5 x 5
    assert seen.count("outer_norm") == 1


@pytest.mark.parametrize("scale", [1e-5, 1e5])
def test_witness_residuals_do_not_change_under_joint_scaling(scale):
    # the eigenvalue residuals are read for the pair scaled to ||e|| = 1, so
    # FEASIBILITY_TOL means the same at every scale of (X, Z)
    inst = ce.build(5, 3, 2, basis_mode="random", seed=3)
    tau = 0.5 * bounds.alpha_beta(inst.x_spur, inst.z).alpha
    _, unscaled = certs.cos_theta_witness(inst.x_spur, inst.z, tau)
    _, report = certs.cos_theta_witness(scale * inst.x_spur, scale * inst.z, tau)
    assert report.feasible, report.residuals
    for name, value in report.residuals.items():
        assert abs(value - unscaled.residuals[name]) <= 1e-14, (name, value)


# -- SDPA export -----------------------------------------------------------------------


def test_export_sdpa_deterministic_and_commented(tmp_path):
    inst, _ = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    first = sdpa_text(cert, tmp_path, comments=("run A",))
    second = sdpa_text(cert, tmp_path, comments=("run A",))
    assert first == second
    assert first.startswith("* run A\n")


# sha256 of the file export_sdpa writes, computed with the per-entry loop
# emitter that the array version replaced: any changed byte fails here.
SDPA_SHA256 = {
    ((4, 2, 1), None, "ub"): "f67f84c7f1d4837c087c7042221b3e2ffa38e8b17cdd836641a8f4896c40c613",
    ((4, 2, 1), None, "lb"): "d5e01f442407040a499f904ae8ce9c3950ea2c034efe2a0d17b0d17c005a15e6",
    ((5, 3, 2), None, "ub"): "c0695efb5e99e20b2864c8fbc910c1d725810663682016502fad05fedd5553ff",
    ((5, 3, 2), None, "lb"): "6d332625cb75b3578ecc6182295e2cbb81f9add5adbca1998241f80931090eae",
    ((4, 2, 1), 3, "ub"): "a72baace66273c64b4f7303341bc5e673810aab37d56102dba8632033d4e0fff",
    ((4, 2, 1), 3, "lb"): "e6a8b54a50cf9958ade5ab50275244ac661a072614176488d5f0ef49fec25fa1",
    # computed with the dense block-3 emitter that the support-based one
    # replaced: r = 1, a dense random basis and wide row supports
    ((8, 5, 2), None, "ub"): "1ee33c39e0742a46afeca62b931d793a4effe0f394ab8df4a3a32378d4479102",
    ((8, 5, 2), None, "lb"): "a59d4f4b7306c518dfe1e9c2e6226e067991d11100a6aa737f5a3b3a130625a6",
    ((6, 4, 1), 123, "ub"): "d41d63b2340d88afd302c0099f92f9071905b42a1f795ac40623b553b74dc18e",
    ((6, 4, 1), 123, "lb"): "15f230017249b7790e162edce6e1d9269307857d6e38853d3e931aff17852be8",
    ((4, 1, 1), 7, "ub"): "62c06afe26dd970c84bc488939e98c2a989ee6c23900e89ab3afe58cab47a552",
    ((4, 1, 1), 7, "lb"): "e2883257e576a6c5557deea58927cf1251eef05c949d859b68e4bae0829d4b67",
}


@pytest.mark.parametrize(
    "dims,basis_seed,which",
    list(SDPA_SHA256),
    ids=[
        "x".join(map(str, dims)) + ("-standard" if seed is None else f"-random{seed}") + f"-{which}"
        for dims, seed, which in SDPA_SHA256
    ],
)
def test_sdpa_bytes_pinned(tmp_path, dims, basis_seed, which):
    if basis_seed is None:
        inst = ce.build(*dims)
    else:
        inst = ce.build(*dims, basis_mode="random", seed=basis_seed)
    cert = certs.assemble(inst.x_spur, inst.z, which)
    digest = hashlib.sha256(sdpa_text(cert, tmp_path).encode()).hexdigest()
    assert digest == SDPA_SHA256[(dims, basis_seed, which)]


@pytest.mark.parametrize("which", ["ub", "lb"])
def test_export_sdpa_peak_memory_is_capped(tmp_path, which):
    # at the standard (10, 6, 2) pair few of the 5,050 H elements are live;
    # building vec(B e) and diagonal-block candidates for every element
    # peaked at 14.2 MB (ub) and 10.8 MB (lb)
    inst = ce.build(10, 6, 2)
    cert = certs.assemble(inst.x_spur, inst.z, which)
    tracemalloc.start()
    try:
        certs.export_sdpa(cert, tmp_path / "system.dat-s")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6


@pytest.mark.parametrize("which", ["ub", "lb"])
def test_negative_zero_residual_entries_export_the_same_bytes(tmp_path, which):
    # -0.0 counts as zero: it leaves an element dead, as +0.0 does
    inst = ce.build(5, 3, 2)
    cert = certs.assemble(inst.x_spur, inst.z, which)
    e = cert.e.copy()
    e[e == 0.0] = -0.0
    assert np.signbit(e).any() and not np.signbit(cert.e[cert.e == 0.0]).any()
    flipped = dataclasses.replace(cert, e=e)
    assert sdpa_text(flipped, tmp_path) == sdpa_text(cert, tmp_path)


def test_export_sdpa_byte_identical(tmp_path):
    inst, _ = instance_with_gram(4, 2, 1)
    cert = certs.assemble(inst.x_spur, inst.z, "lb")
    p1 = tmp_path / "a.dat-s"
    p2 = tmp_path / "b.dat-s"
    certs.export_sdpa(cert, p1)
    certs.export_sdpa(cert, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_export_sdpa_writes_the_pinned_bytes_in_slices(tmp_path):
    # (8,5,2) ub has more lines than one write slice
    inst = ce.build(8, 5, 2)
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    path = tmp_path / "ub.dat-s"
    certs.export_sdpa(cert, path)
    data = path.read_bytes()
    assert data.count(b"\n") > 2 * certs.SDPA_WRITE_LINES
    assert hashlib.sha256(data).hexdigest() == SDPA_SHA256[((8, 5, 2), None, "ub")]


# pairs whose entries have 3-digit exponents (a column scaled by 1e-55,
# factors scaled by 1e55) or are all negative in X
RENDER_PAIRS = {
    "column-1e-55": lambda g: (g.standard_normal((4, 2)) * [1.0, 1e-55], g.standard_normal((4, 1))),
    "scaled-1e55": lambda g: (1e55 * g.standard_normal((3, 2)), 1e55 * g.standard_normal((3, 1))),
    "negative": lambda g: (-np.abs(g.standard_normal((4, 3))), g.standard_normal((4, 2))),
}


@pytest.mark.parametrize("name", list(RENDER_PAIRS))
@pytest.mark.parametrize("which", ["ub", "lb"])
def test_sdpa_entry_lines_render_their_own_parse(tmp_path, name, which):
    x, z = RENDER_PAIRS[name](np.random.default_rng(SEED + 5))
    text = sdpa_text(certs.assemble(x, z, which), tmp_path)
    assert text.endswith("\n")
    lines = text[:-1].split("\n")
    assert all(lines)
    entries = lines[4:]
    for line in entries:
        var, blk, i, j, val = line.split(" ")
        text = serialize.format_float(float(val))
        assert line == "%d %d %d %d %s" % (int(var), int(blk), int(i), int(j), text)
    if name != "negative":
        assert any(re.search(r"e[-+][0-9]{3}$", line) for line in entries)


def test_entry_lines_of_zero_values_render_nothing():
    def render(var, blk, rows, cols, values):
        values = np.asarray(values, dtype=float)
        full = np.full(values.size, 1, dtype=np.intp)
        fh = io.BytesIO()
        certs._write_entries(fh, var * full, blk * full, rows, cols, values)
        return fh.getvalue()

    diag = np.arange(3)
    assert render(3, 5, diag, diag, [0.0, -0.0, 0.0]) == b""
    rows, cols = np.triu_indices(2)
    assert render(4, 1, rows, cols, np.zeros((2, 2))[rows, cols]) == b""
    assert render(5, 7, diag[:0], diag[:0], []) == b""
    assert render(2, 3, diag[:2], diag[:2], [0.0, -2.5]) == b"2 3 2 2 %s\n" % serialize.format_float(-2.5).encode()


def _realized_diagonals(parsed, blk):
    """Dense ``[var, k]`` diagonal of block ``blk`` from parsed entries."""
    e = np.array(parsed["entries"])
    e = e[e[:, 1] == blk]
    out = np.zeros((parsed["m"] + 1, abs(parsed["block_sizes"][blk - 1])))
    out[e[:, 0].astype(int), e[:, 2].astype(int) - 1] = e[:, 4]
    return out


@pytest.mark.parametrize(
    "dims,basis_seed",
    [((4, 2, 1), None), ((5, 3, 2), None), ((6, 4, 2), None), ((5, 3, 2), 11), ((6, 4, 1), 123)],
)
@pytest.mark.parametrize("which", ["ub", "lb"])
def test_stacked_products_match_one_product_per_row(tmp_path, dims, basis_seed, which):
    # entries are written with 17 significant digits, so their parse is the
    # emitted double; each row must equal J^T v on a freshly allocated v
    if basis_seed is None:
        inst = ce.build(*dims)
    else:
        inst = ce.build(*dims, basis_mode="random", seed=basis_seed)
    cert = certs.assemble(inst.x_spur, inst.z, which)
    parsed = certs.parse_sdpa(sdpa_text(cert, tmp_path))
    n = cert.n
    n2 = n * n

    def paired(j, v):
        g = j.T @ v.copy()
        return np.column_stack([g, -g]).ravel()

    rows5 = _realized_diagonals(parsed, 5)
    var = 3
    for u in range(n2):
        for v in range(u, n2):
            scale = 1.0 if u == v else 1.0 / math.sqrt(2.0)
            be = np.zeros(n2)
            be[u] = scale * cert.e[v]
            be[v] = scale * cert.e[u]
            assert np.array_equal(rows5[var], paired(cert.j_x, be)), (u, v)
            var += 1
    if which == "lb":
        rows7 = _realized_diagonals(parsed, 7)
        for c in symmetric_basis(n):
            s = vec(c)
            assert np.array_equal(rows5[var], paired(cert.j_x, s))
            assert np.array_equal(rows7[var], paired(cert.j_z, s))
            var += 1
    assert var == parsed["m"] + 1


def test_sdpa_header_structure(tmp_path):
    inst, _ = instance_with_gram(3, 2, 1)
    n = 3
    n_h = (n * n) * (n * n + 1) // 2
    cert = certs.assemble(inst.x_spur, inst.z, "ub")
    parsed = certs.parse_sdpa(sdpa_text(cert, tmp_path))
    assert parsed["m"] == 2 + n_h
    assert parsed["block_sizes"] == [9, 9, 6, -2, -12]
    assert parsed["c"] == [1.0, -1.0] + [0.0] * n_h

    cert_lb = certs.assemble(inst.x_spur, inst.z, "lb")
    parsed_lb = certs.parse_sdpa(sdpa_text(cert_lb, tmp_path))
    n_s = n * (n + 1) // 2
    assert parsed_lb["m"] == 2 + n_h + n_s
    assert parsed_lb["block_sizes"] == [9, 9, 6, -2, -12, 3, -6]


def test_parse_sdpa_rejects_malformed():
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n1\n4\n1.0 -1.0\n1 1 1\n")  # short entry line
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n1\n4\n1.0 -1.0\n1 1 1 1 one\n")  # non-numeric token
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n1\n4\n1.0 -1.0\n1.5 1 1 1 2.0\n")  # non-integer index
    with pytest.raises(ValueError):
        certs.parse_sdpa("2\n3\n4\n1.0 -1.0\n")  # block count mismatch
    with pytest.raises(ValueError, match="ends inside its header"):
        certs.parse_sdpa("* comment\n2\n1\n4\n")  # no objective line
    with pytest.raises(ValueError, match="objective length does not match"):
        certs.parse_sdpa("2\n1\n4\n1.0 -1.0 0.0\n")


def _dense_blocks(parsed, var):
    """Realize the F_var matrices of one variable from parsed entries."""
    blocks = {}
    for b, size in enumerate(parsed["block_sizes"], start=1):
        blocks[b] = np.zeros((abs(size), abs(size)))
    for *index, val in parsed["entries"]:
        matno, blkno, i, j = map(int, index)
        if matno != var:
            continue
        m = blocks[blkno]
        m[i - 1, j - 1] = val
        m[j - 1, i - 1] = val
    return blocks


def test_sdpa_entries_realize_the_ub_system(tmp_path):
    # semantic oracle: contracting the exported coefficients with a random
    # assignment must reproduce the constraint matrices computed directly
    rng = np.random.default_rng(SEED + 2)
    x = rng.standard_normal((2, 1))
    z = rng.standard_normal((2, 1))
    cert = certs.assemble(x, z, "ub")
    parsed = certs.parse_sdpa(sdpa_text(cert, tmp_path))
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


def test_sdpa_slack_coordinates_realize_the_lb_system(tmp_path):
    rng = np.random.default_rng(SEED + 3)
    x = rng.standard_normal((2, 1))
    z = rng.standard_normal((2, 1))
    cert = certs.assemble(x, z, "lb")
    parsed = certs.parse_sdpa(sdpa_text(cert, tmp_path))
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


# -- property: the emitted system over small pairs ---------------------------------

# a small value set with exact zeros and repeats, so that rows of J_X vanish,
# supports overlap and many block entries cancel to exactly 0.0
ENTRY_VALUES = (0.0, 1.0, -1.0, 0.5, -2.0, 3.0)


@st.composite
def factor_pairs(draw):
    n = draw(st.integers(1, 3))
    r_star = draw(st.integers(1, n))
    r = draw(st.integers(r_star, n))
    entries = st.sampled_from(ENTRY_VALUES)

    def factor(cols):
        return np.array(draw(st.lists(entries, min_size=n * cols, max_size=n * cols))).reshape(n, cols)

    return factor(r), factor(r_star)


def _expected_blocks(cert):
    """F_0 .. F_m of the documented SDPA layout, realized from the definitions."""
    n, r = cert.n, cert.r
    n2, nr = n * n, n * r
    lb = cert.which == "lb"
    sizes = [n2, n2, nr, 2, 2 * nr] + ([n, 2 * n * cert.r_star] if lb else [])
    j = cert.j_x

    def zero():
        return {b: np.zeros((s, s)) for b, s in enumerate(sizes, start=1)}

    def paired(g):
        return np.diag(np.column_stack([g, -g]).ravel())

    def sym(v):
        m = v.reshape(n, n, order="F")
        return 0.5 * (m + m.T)

    f0 = zero()
    f0[1] = np.eye(n2)
    out = [f0]
    for k, sign in enumerate((1.0, -1.0)):
        fk = zero()
        fk[2] = sign * np.eye(n2)
        fk[4][k, k] = 1.0
        if lb:
            fk[3] = sign * (j.T @ j)
        out.append(fk)
    for u in range(n2):
        for v in range(u, n2):
            b = np.zeros((n2, n2))
            b[u, v] = b[v, u] = 1.0 if u == v else 1.0 / math.sqrt(2.0)
            be = b @ cert.e
            fk = zero()
            fk[1], fk[2] = b, -b
            fk[3] = 2.0 * np.kron(np.eye(r), sym(be)) + (0.0 if lb else j.T @ b @ j)
            fk[5] = paired(j.T @ be)
            out.append(fk)
    for c in symmetric_basis(n) if lb else []:
        s = vec(c)
        fk = zero()
        fk[3] = 2.0 * np.kron(np.eye(r), c)
        fk[5] = paired(j.T @ s)
        fk[6] = c
        fk[7] = paired(cert.j_z.T @ s)
        out.append(fk)
    return out


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(factor_pairs())
def test_sdpa_entries_realize_both_systems(tmp_path_factory, pair):
    x, z = pair
    directory = tmp_path_factory.mktemp("sdpa")
    assume(np.any(x @ x.T != z @ z.T))
    for which in ("ub", "lb"):
        cert = certs.assemble(x, z, which)
        parsed = certs.parse_sdpa(sdpa_text(cert, directory))
        entries = [(*map(int, row[:4]), row[4]) for row in parsed["entries"].tolist()]
        sizes = parsed["block_sizes"]

        keys = [(var, blk, i, j) for var, blk, i, j, _ in entries]
        assert len(keys) == len(set(keys))
        # the coordinates' entries are in file order: by element, block, position
        coordinates = [key for key in keys if key[0] >= 3]
        assert all(a < b for a, b in zip(coordinates, coordinates[1:]))
        assert all(i <= j for _, blk, i, j, _ in entries if sizes[blk - 1] > 0)
        assert all(i == j for _, blk, i, j, _ in entries if sizes[blk - 1] < 0)
        assert all(value != 0.0 for *_, value in entries)

        expected = _expected_blocks(cert)
        assert parsed["m"] == len(expected) - 1
        for var, want in enumerate(expected):
            for b, mat in _dense_blocks(parsed, var).items():
                np.testing.assert_allclose(mat, want[b], rtol=1e-12, atol=1e-12)
