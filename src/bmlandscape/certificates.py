"""Feasibility systems certifying condition-number bounds at a factor pair.

For a pair (X, Z) with residual ``e = vec(X X^T - Z Z^T)``, a symmetric
``H`` with ``I <= H <= kappa*I`` witnesses that some kappa-conditioned
objective makes X second-order stationary ("ub" system):

    J_X^T H e = 0,    J_X^T H J_X + 2 I_r (x) mat(H e)  >=  0,

while the "lb" system adds a PSD slack ``mat(s)`` standing in for the
gradient at the ground truth and replaces the curvature of the right-hand
side by ``kappa * J_X^T J_X``.  This module assembles the data matrices of
both systems, verifies explicit certificates against them, checks the
analytic eigenpairs of the constructed hard instances, builds the dual
alignment witness, and exports the systems in SDPA sparse format for
external solvers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import alpha_beta
from .counterexample import CounterexampleInstance, eigen_pairs
from .matkernel import (
    as_factor,
    as_symmetric,
    jacobian_matrix,
    pinv,
    residual_projector,
    sym_eig,
    unvec,
    vec,
)
from .objective import symmetric_basis

__all__ = [
    "CertificateSDP",
    "FeasibilityReport",
    "assemble",
    "verify_ub",
    "verify_lb",
    "eigen_equations",
    "cos_theta_witness",
    "export_sdpa",
    "sdpa_lines",
    "parse_sdpa",
]

DEFAULT_TOL = 1e-8

# SDPA export realizes the block-3 matrices of H coordinates in chunks of at
# most this many float64 entries (128 KiB).  Much smaller chunks pay numpy's
# per-call overhead every few elements; larger ones exceed glibc's 128 KiB
# mmap threshold and fault in fresh pages on every chunk.
SDPA_CHUNK_ENTRIES = 1 << 14

# Residual names measured as norms (feasible iff <= tol); all other
# residuals are smallest eigenvalues (feasible iff >= -tol).
NORM_RESIDUALS = frozenset(
    {
        "gradient_orthogonality",
        "slack_truth_orthogonality",
        "pairing_normalization",
        "jacobian_energy_deviation",
        "objective_deviation",
    }
)


@dataclass(frozen=True)
class CertificateSDP:
    """Realized data of one feasibility system at a factor pair."""

    n: int
    r: int
    r_star: int
    which: str  # "ub" | "lb"
    x: np.ndarray
    z: np.ndarray
    e: np.ndarray  # vec(X X^T - Z Z^T), length n^2
    j_x: np.ndarray  # n^2 x (n r)
    j_z: np.ndarray  # n^2 x (n r_star)

    def to_obj(self) -> dict:
        return {
            "kind": "certificate_sdp",
            "which": self.which,
            "n": self.n,
            "r": self.r,
            "r_star": self.r_star,
            "x": serialize.matrix_to_lists(self.x),
            "z": serialize.matrix_to_lists(self.z),
            "e": list(self.e),
            "j_x": serialize.matrix_to_lists(self.j_x),
            "j_z": serialize.matrix_to_lists(self.j_z),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CertificateSDP":
        if obj.get("kind") != "certificate_sdp":
            raise ValueError("record is not an assembled certificate system")
        return cls(
            n=int(obj["n"]),
            r=int(obj["r"]),
            r_star=int(obj["r_star"]),
            which=str(obj["which"]),
            x=serialize.matrix_from_lists(obj["x"]),
            z=serialize.matrix_from_lists(obj["z"]),
            e=np.asarray(obj["e"], dtype=float),
            j_x=serialize.matrix_from_lists(obj["j_x"]),
            j_z=serialize.matrix_from_lists(obj["j_z"]),
        )


@dataclass(frozen=True)
class FeasibilityReport:
    """Named residuals of one certificate check.

    Entries listed in ``NORM_RESIDUALS`` are norms and pass when at most
    ``tol``; every other entry is a smallest eigenvalue and passes when at
    least ``-tol``.
    """

    kappa: float
    which: str
    residuals: dict
    tol: float

    @property
    def feasible(self) -> bool:
        for name, value in self.residuals.items():
            if name in NORM_RESIDUALS:
                if value > self.tol:
                    return False
            elif value < -self.tol:
                return False
        return True

    def to_obj(self) -> dict:
        return {
            "kappa": self.kappa,
            "which": self.which,
            "tol": self.tol,
            "residuals": dict(self.residuals),
            "feasible": self.feasible,
        }


def assemble(x, z, which: str) -> CertificateSDP:
    """Realize the data matrices of the ub or lb system at (X, Z)."""
    if which not in ("ub", "lb"):
        raise ValueError(f"which must be 'ub' or 'lb', got {which!r}")
    x = as_factor(x)
    z = as_factor(z)
    if x.shape[0] != z.shape[0]:
        raise ValueError(
            f"factors must share their row count, got {x.shape} and {z.shape}"
        )
    e = vec(x @ x.T - z @ z.T)
    if np.linalg.norm(e) <= 1e-12:
        raise ValueError(
            "factor pair has identical Gram matrices; the systems require "
            "a nonzero residual"
        )
    return CertificateSDP(
        n=x.shape[0],
        r=x.shape[1],
        r_star=z.shape[1],
        which=which,
        x=x,
        z=z,
        e=e,
        j_x=jacobian_matrix(x),
        j_z=jacobian_matrix(z),
    )


def _min_eig(m) -> float:
    w, _ = sym_eig(as_symmetric(m))
    return float(w[-1])


def _check_h(cert: CertificateSDP, h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    n2 = cert.n * cert.n
    if h.shape != (n2, n2):
        raise ValueError(f"H must be {n2}x{n2}, got {h.shape}")
    return h


def _kron_identity_with(mat_block: np.ndarray, r: int) -> np.ndarray:
    return np.kron(np.eye(r), mat_block)


def verify_ub(cert: CertificateSDP, kappa: float, h, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check (kappa, H) against the ub system; returns all four residuals.

    ``mat(H e)`` enters the matrix inequality only through its symmetric
    part (the quadratic form cannot see more), so that part is used here.
    """
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    h = _check_h(cert, h)
    eigs, _ = sym_eig(as_symmetric(h))
    s_he = as_symmetric(unvec(h @ cert.e, cert.n))
    lmi = cert.j_x.T @ h @ cert.j_x + 2.0 * _kron_identity_with(s_he, cert.r)
    residuals = {
        "h_minus_identity": float(eigs[-1]) - 1.0,
        "kappa_identity_minus_h": float(kappa) - float(eigs[0]),
        "gradient_orthogonality": float(np.linalg.norm(cert.j_x.T @ (h @ cert.e))),
        "hessian_lmi": _min_eig(lmi),
    }
    return FeasibilityReport(kappa=float(kappa), which="ub", residuals=residuals, tol=tol)


def verify_lb(
    cert: CertificateSDP, kappa: float, h, s, tol: float = DEFAULT_TOL
) -> FeasibilityReport:
    """Check (kappa, H, s) against the lb system's five constraint groups."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    h = _check_h(cert, h)
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size != cert.n * cert.n:
        raise ValueError(f"slack must have length {cert.n * cert.n}, got {s.size}")
    eigs, _ = sym_eig(as_symmetric(h))
    combined = h @ cert.e + s
    s_comb = as_symmetric(unvec(combined, cert.n))
    lmi = kappa * (cert.j_x.T @ cert.j_x) + 2.0 * _kron_identity_with(s_comb, cert.r)
    residuals = {
        "h_minus_identity": float(eigs[-1]) - 1.0,
        "kappa_identity_minus_h": float(kappa) - float(eigs[0]),
        "slack_psd": _min_eig(unvec(s, cert.n)),
        "slack_truth_orthogonality": float(np.linalg.norm(cert.j_z.T @ s)),
        "gradient_orthogonality": float(np.linalg.norm(cert.j_x.T @ combined)),
        "hessian_lmi": _min_eig(lmi),
    }
    return FeasibilityReport(kappa=float(kappa), which="lb", residuals=residuals, tol=tol)


def eigen_equations(instance: CounterexampleInstance, h) -> list[float]:
    """Residual norms ||H vec(V) - lam vec(V)|| of the r+2 analytic eigenpairs."""
    h = np.asarray(h, dtype=float)
    n2 = instance.n * instance.n
    if h.shape != (n2, n2):
        raise ValueError(f"H must be {n2}x{n2}, got {h.shape}")
    out = []
    for lam, v in eigen_pairs(instance):
        vv = vec(v)
        out.append(float(np.linalg.norm(h @ vv - lam * vv)))
    return out


def cos_theta_witness(x, z, tau: float, tol: float = DEFAULT_TOL):
    """Dual alignment witness at parameter tau; returns (objective, report).

    Builds ``y = gamma_1 J_X^+ e`` and the PSD combination ``W`` over the
    out-of-range columns of Z, forms ``f = J_X y - vec(sum_i W_ii)``, and
    checks the witness identities.  The energy identity is
    ``<J_X^T J_X, W> = 2 tau beta`` (the construction's gamma_2 scaling
    contributes 2 lam_min(X^T X) tr(Z_perp Z_perp^T) / (||e|| ||Z_perp
    Z_perp^T||_F), which is exactly 2 beta).  The achieved objective equals
    ``sqrt(1-tau^2) sqrt(1-alpha^2) + tau alpha``.
    """
    x = as_factor(x)
    z = as_factor(z)
    ab = alpha_beta(x, z)
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if tau > ab.alpha + 1e-12:
        raise ValueError(f"tau must not exceed alpha = {ab.alpha}, got {tau}")
    gram_eigs, gram_vecs = sym_eig(x.T @ x)
    if gram_eigs[-1] <= 1e-12:
        raise ValueError("X must have full column rank")

    n, r = x.shape
    e = vec(x @ x.T - z @ z.T)
    e_norm = float(np.linalg.norm(e))
    j = jacobian_matrix(x)
    j_pinv = pinv(j)
    e1 = j @ (j_pinv @ e)
    e1_norm = float(np.linalg.norm(e1))
    if e1_norm <= 1e-14 and tau < 1.0:
        raise ValueError("residual has no component along the factor's range")

    y = np.zeros(n * r) if tau >= 1.0 else (
        math.sqrt(1.0 - tau * tau) / (e_norm * e1_norm)
    ) * (j_pinv @ e)

    w = np.zeros((n * r, n * r))
    if tau > 0.0:
        z_perp = z - x @ (pinv(x) @ z)
        e2_norm = float(np.linalg.norm(z_perp @ z_perp.T))
        if e2_norm == 0.0:
            raise ValueError("tau > 0 requires Z to leave the range of X")
        gamma2 = tau / (e_norm * e2_norm)
        v_min = gram_vecs[:, -1]
        for i in range(z.shape[1]):
            col = vec(np.outer(z_perp[:, i], v_min))
            w += gamma2 * np.outer(col, col)

    ptrace = np.zeros((n, n))
    for a in range(r):
        ptrace += w[a * n : (a + 1) * n, a * n : (a + 1) * n]
    f = j @ y - vec(ptrace)

    objective = float(e @ f)
    expected = math.sqrt(max(0.0, 1.0 - tau * tau)) * math.sqrt(
        max(0.0, 1.0 - ab.alpha**2)
    ) + tau * ab.alpha
    proj = residual_projector(z)
    residuals = {
        "pairing_normalization": abs(e_norm * float(np.linalg.norm(f)) - 1.0),
        "witness_psd": _min_eig(w),
        "projected_alignment_psd": _min_eig(proj @ as_symmetric(unvec(f, n)) @ proj),
        "jacobian_energy_deviation": abs(
            float(np.vdot(j.T @ j, w)) - 2.0 * tau * ab.beta
        ),
        "objective_deviation": abs(objective - expected),
    }
    report = FeasibilityReport(
        kappa=math.nan, which="witness", residuals=residuals, tol=tol
    )
    return objective, report


# -- SDPA sparse export -------------------------------------------------
#
# Standard form: minimize c^T y subject to sum_i y_i F_i - F_0 >= 0 with a
# fixed block-diagonal structure.  The free scalar kappa is split into
# kappa_plus - kappa_minus (variables 1 and 2); variables 3..2+N_H are the
# coordinates of H over the orthonormal symmetric basis of n^2 x n^2
# matrices (N_H = n^2(n^2+1)/2), and for the lb system variables
# 3+N_H..2+N_H+N_S are the coordinates of mat(s) over the symmetric basis
# of n x n matrices (N_S = n(n+1)/2).
#
# Block layout (negative size = diagonal block):
#   1: n^2      H - I >= 0
#   2: n^2      kappa I - H >= 0
#   3: n r      ub: J_X^T H J_X + 2 I_r (x) mat(He) >= 0
#               lb: kappa J_X^T J_X + 2 I_r (x) mat(He + s) >= 0
#   4: -2       kappa_plus >= 0, kappa_minus >= 0
#   5: -(2nr)   paired inequalities for J_X^T H e = 0 (ub)
#               or J_X^T (H e + s) = 0 (lb)
#   6: n        (lb only) mat(s) >= 0
#   7: -(2nr*)  (lb only) paired inequalities for J_Z^T s = 0


def _format_entry(matno: int, blkno: int, i: int, j: int, value: float) -> str:
    return f"{matno} {blkno} {i} {j} {serialize.format_float(value)}"


def _emit_entries(entries: list, matno: int, blkno: int, rows, cols, values) -> None:
    """Append one entry per (0-based) ``rows[k], cols[k], values[k]``."""
    entries.extend(
        _format_entry(matno, blkno, i + 1, j + 1, value)
        for i, j, value in zip(rows, cols, values)
    )


def _emit_block(entries: list, matno: int, blkno: int, mat: np.ndarray) -> None:
    _, rows, cols, values = _split_nonzero(np.triu(mat)[None])
    _emit_entries(entries, matno, blkno, rows, cols, values)


def _emit_diag(entries: list, matno: int, blkno: int, values) -> None:
    _, idx, _, diag = _split_nonzero(np.asarray(values, dtype=float)[None])
    _emit_entries(entries, matno, blkno, idx, idx, diag)


def _paired(grad: np.ndarray) -> np.ndarray:
    """Interleave ``grad`` and ``-grad`` along the last axis."""
    out = np.empty(grad.shape[:-1] + (2 * grad.shape[-1],))
    out[..., 0::2] = grad
    out[..., 1::2] = -grad
    return out


def _h_coordinate_blocks(cert: CertificateSDP, u: np.ndarray, v: np.ndarray):
    """Block-3 and block-5 data of the H basis elements ``B`` at ``(u, v)``.

    Each element has at most two nonzero entries, so ``J_X^T B J_X`` is a
    scaled sum of outer products of rows of ``J_X``, ``B e`` holds two scaled
    entries of ``e``, and ``I_r (x) mat(B e)`` repeats the symmetric part of
    ``mat(B e)`` down the diagonal blocks.  Returns ``(scale, lmi, grad)``
    stacked over the elements, with ``grad[t] = J_X^T vec(B e)``.
    """
    n, r = cert.n, cert.r
    k = u.size
    diag = u == v
    scale = np.where(diag, 1.0, 1.0 / math.sqrt(2.0))
    vec_be = np.zeros((k, n * n))
    vec_be[np.arange(k), u] = scale * cert.e[v]
    vec_be[np.arange(k), v] = scale * cert.e[u]
    # C-order reshape of vec(B e) is mat(B e)^T; only the symmetric part is used
    mat_t = vec_be.reshape(k, n, n)
    s2 = 2.0 * (0.5 * (mat_t.transpose(0, 2, 1) + mat_t))
    if cert.which == "lb":
        lmi = np.zeros((k, n * r, n * r))
    else:
        outer = cert.j_x[u][:, :, None] * cert.j_x[v][:, None, :]
        lmi = outer + outer.transpose(0, 2, 1)
        np.copyto(lmi, outer, where=diag[:, None, None])
        lmi *= scale[:, None, None]
    blocks = lmi.reshape(k, r, n, r, n)
    blocks[:, np.arange(r), :, np.arange(r), :] += s2
    # One matrix-vector product per element, on a freshly allocated vector: a
    # batched matrix product may sum in another order and change digits.
    grad = np.array([cert.j_x.T @ row.copy() for row in vec_be])
    return scale, lmi, grad


def _split_nonzero(a: np.ndarray, mask: np.ndarray | None = None):
    """Nonzero entries of each ``a[t]`` (a vector or a matrix), row-major.

    Only positions where ``mask`` (broadcast against ``a[t]``) is true count.
    Returns ``(ends, rows, cols, values)``: lists over all entries in order,
    with ``a[t]`` owning the slice ``ends[t-1]:ends[t]``; a vector's entry
    ``i`` is reported at ``(i, i)``.
    """
    nz = a != 0.0
    if mask is not None:
        nz &= mask
    flat = np.flatnonzero(nz)
    t, pos = np.divmod(flat, a[0].size)
    rows, cols = np.divmod(pos, a.shape[-1]) if a.ndim == 3 else (pos, pos)
    ends = np.searchsorted(t, np.arange(1, a.shape[0] + 1))
    return ends.tolist(), rows.tolist(), cols.tolist(), a.reshape(-1)[flat].tolist()


def sdpa_lines(cert: CertificateSDP, comments=()) -> list[str]:
    """Render the assembled system as SDPA sparse-format lines."""
    n, r, r_star = cert.n, cert.r, cert.r_star
    n2 = n * n
    nr = n * r
    n_h = n2 * (n2 + 1) // 2
    lb = cert.which == "lb"
    basis_s = symmetric_basis(n) if lb else []
    m = 2 + n_h + len(basis_s)

    block_sizes = [n2, n2, nr, -2, -(2 * nr)]
    if lb:
        block_sizes += [n, -(2 * n * r_star)]

    lines = [f"* {c}" for c in comments]
    lines.append(str(m))
    lines.append(str(len(block_sizes)))
    lines.append(" ".join(str(b) for b in block_sizes))
    lines.append(
        " ".join(
            serialize.format_float(v) for v in [1.0, -1.0] + [0.0] * (m - 2)
        )
    )

    entries: list[str] = []
    # F_0: only block 1 has a right-hand side (the identity from H - I).
    _emit_diag(entries, 0, 1, np.ones(n2))

    # kappa_plus (variable 1) and kappa_minus (variable 2)
    for var, sign in ((1, 1.0), (2, -1.0)):
        _emit_diag(entries, var, 2, sign * np.ones(n2))
        if lb:
            _emit_block(entries, var, 3, sign * (cert.j_x.T @ cert.j_x))
    _emit_diag(entries, 1, 4, [1.0, 0.0])
    _emit_diag(entries, 2, 4, [0.0, 1.0])

    # H coordinates over the orthonormal symmetric basis, enumerated as
    # index pairs (u <= v) of the n^2 space in lexicographic order and
    # realized in chunks of about SDPA_CHUNK_ENTRIES block-3 positions.
    us, vs = np.triu_indices(n2)
    upper = np.triu(np.ones((nr, nr), dtype=bool))
    step = max(1, SDPA_CHUNK_ENTRIES // (nr * nr))
    var = 2
    for start in range(0, n_h, step):
        u, v = us[start : start + step], vs[start : start + step]
        scale, lmi, grad = _h_coordinate_blocks(cert, u, v)
        ends3, rows3, cols3, vals3 = _split_nonzero(lmi, upper)
        ends5, rows5, _, vals5 = _split_nonzero(_paired(grad))
        lo3 = lo5 = 0
        for t, (hi3, hi5) in enumerate(zip(ends3, ends5)):
            var += 1
            i, j, sc = int(u[t]) + 1, int(v[t]) + 1, float(scale[t])
            entries.append(_format_entry(var, 1, i, j, sc))
            entries.append(_format_entry(var, 2, i, j, -sc))
            _emit_entries(entries, var, 3, rows3[lo3:hi3], cols3[lo3:hi3], vals3[lo3:hi3])
            _emit_entries(entries, var, 5, rows5[lo5:hi5], rows5[lo5:hi5], vals5[lo5:hi5])
            lo3, lo5 = hi3, hi5

    # Slack coordinates (lb only).
    for t, c_mat in enumerate(basis_s):
        var = 3 + n_h + t
        s_vec = vec(c_mat)
        _emit_block(entries, var, 3, 2.0 * np.kron(np.eye(r), c_mat))
        _emit_diag(entries, var, 5, _paired(cert.j_x.T @ s_vec))
        _emit_block(entries, var, 6, c_mat)
        _emit_diag(entries, var, 7, _paired(cert.j_z.T @ s_vec))

    return lines + entries


def export_sdpa(cert: CertificateSDP, path, comments=()) -> None:
    """Write the system to ``path`` in SDPA sparse format (deterministic)."""
    text = "\n".join(sdpa_lines(cert, comments)) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def parse_sdpa(text: str) -> dict:
    """Parse SDPA sparse text back into its numeric pieces (test oracle)."""
    lines = [
        ln.strip()
        for ln in text.splitlines()
        if ln.strip() and not ln.lstrip().startswith(("*", '"'))
    ]
    m = int(lines[0])
    nblocks = int(lines[1])
    block_sizes = [int(tok) for tok in lines[2].split()]
    if len(block_sizes) != nblocks:
        raise ValueError("block count does not match declared number of blocks")
    c = [float(tok) for tok in lines[3].split()]
    if len(c) != m:
        raise ValueError("objective length does not match variable count")
    entries = []
    for ln in lines[4:]:
        toks = ln.split()
        if len(toks) != 5:
            raise ValueError(f"malformed entry line: {ln!r}")
        entries.append(
            (int(toks[0]), int(toks[1]), int(toks[2]), int(toks[3]), float(toks[4]))
        )
    return {"m": m, "block_sizes": block_sizes, "c": c, "entries": entries}
