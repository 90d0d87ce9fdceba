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

The export touches only what can be nonzero.  A basis element ``B`` of the
H coordinates has at most two nonzero entries, at ``(u, v)`` and ``(v, u)``,
and a row of ``J_X`` at most ``2r``, so the block-3 matrix
``J_X^T B J_X + 2 I_r (x) sym(mat(B e))`` is evaluated only at the pairs of
``supp J[u] x supp J[v]`` and the few diagonal-block positions of
``mat(B e)``: at most ``4r^2 + 2r`` upper-triangle candidates instead of
``(nr)^2`` dense positions.  Entry lines are joined from strings that are
formatted once each: a distinct value once per file, a ``var blk`` head and
an ``i j`` position once per chunk of elements.
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

# SDPA export realizes the H coordinates in chunks of about this many
# float64 values (64 KiB).  Per basis element it holds vec(B e) (n^2 values),
# the paired gradient (2nr) and its block-3 candidates: 2r, plus w^2 for ub
# with w <= 2r the widest row support of J_X.  A chunk covers 35 elements of
# a dense-basis (7,5,2) ub system and 34 of the standard-basis (10,6,2) one.
# Each chunk pays a fixed numpy overhead: the benchmark's six exports took
# 1.15x as long at 2^12 as at 2^13.  At 2^14 the peak RSS of a
# certify_export pass was 0.8 MB higher.
SDPA_CHUNK_ENTRIES = 1 << 13

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
    with np.errstate(over="ignore", invalid="ignore"):
        e = vec(x @ x.T - z @ z.T)
    if not np.all(np.isfinite(e)):
        raise ValueError("residual X X^T - Z Z^T overflows float64")
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
    w, _ = sym_eig(m)
    return float(w[-1])


def _check_h(h, n: int) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    n2 = n * n
    if h.shape != (n2, n2):
        raise ValueError(f"H must be {n2}x{n2}, got {h.shape}")
    return h


def verify_ub(cert: CertificateSDP, kappa: float, h, tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check (kappa, H) against the ub system; returns all four residuals.

    ``mat(H e)`` enters the matrix inequality only through its symmetric
    part (the quadratic form cannot see more), so that part is used here.
    """
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    h = _check_h(h, cert.n)
    eigs, _ = sym_eig(h)
    s_he = as_symmetric(unvec(h @ cert.e, cert.n))
    lmi = cert.j_x.T @ h @ cert.j_x + 2.0 * np.kron(np.eye(cert.r), s_he)
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
    h = _check_h(h, cert.n)
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size != cert.n * cert.n:
        raise ValueError(f"slack must have length {cert.n * cert.n}, got {s.size}")
    eigs, _ = sym_eig(h)
    combined = h @ cert.e + s
    s_comb = as_symmetric(unvec(combined, cert.n))
    lmi = kappa * (cert.j_x.T @ cert.j_x) + 2.0 * np.kron(np.eye(cert.r), s_comb)
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
    h = _check_h(h, instance.n)
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


def _texts(keys: np.ndarray, cache: dict, text_of):
    """``text_of(k)`` for every key, rendered once per key held in ``cache``."""
    keys = keys.tolist()
    for k in set(keys).difference(cache):
        cache[k] = text_of(k)
    return map(cache.__getitem__, keys)


# "var blk " heads are keyed var * _BLOCK_KEYS + blk; block numbers are 1..7.
_BLOCK_KEYS = 8


class _EntryLines:
    """SDPA entry lines ``var blk i j value`` with every field formatted once.

    ``add`` queues entries as arrays; ``flush`` renders the queue.  Each line
    joins three strings, ``"var blk "``, ``"i j "`` and the value.  Heads and
    positions are rendered once per distinct key in a flush; values go
    through ``serialize.format_float`` once per distinct value in the file.
    Zero values are dropped when queued, so ``-0.0`` and ``0.0`` (equal as
    keys, different as text) never meet.
    """

    def __init__(self, lines: list, width: int):
        self.lines = lines
        self._width = width  # largest block order: (i, j) keys are i*width + j
        self._values: dict[float, str] = {}
        self._queue: list = []

    def add(self, var, blk, rows, cols, values) -> None:
        """Queue the nonzero ``values`` at 0-based ``(rows, cols)``, in order.

        ``var`` and ``blk`` are scalars or arrays with one entry per value.
        """
        values = np.asarray(values, dtype=float)
        keep = values != 0.0
        heads = np.broadcast_to(var * _BLOCK_KEYS + blk, values.shape)[keep]
        places = np.broadcast_to(rows * self._width + cols, values.shape)[keep]
        self._queue.append((heads, places, values[keep]))

    def block(self, var: int, blk: int, mat: np.ndarray) -> None:
        rows, cols = np.triu_indices(len(mat))
        self.add(var, blk, rows, cols, mat[rows, cols])

    def diag(self, var: int, blk: int, values) -> None:
        idx = np.arange(len(values))
        self.add(var, blk, idx, idx, values)

    def flush(self) -> None:
        """Render the queued entries onto ``lines``."""
        if not self._queue:
            return
        heads, places, values = (np.concatenate(a) for a in zip(*self._queue))
        self._queue.clear()
        w = self._width
        self.lines.extend(
            map(
                "".join,
                zip(
                    _texts(heads, {}, lambda k: "%d %d " % divmod(k, _BLOCK_KEYS)),
                    _texts(places, {}, lambda k: "%d %d " % (k // w + 1, k % w + 1)),
                    _texts(values, self._values, serialize.format_float),
                ),
            )
        )


def _paired(grad: np.ndarray) -> np.ndarray:
    """Interleave ``grad`` and ``-grad`` along the last axis."""
    out = np.empty(grad.shape[:-1] + (2 * grad.shape[-1],))
    out[..., 0::2] = grad
    out[..., 1::2] = -grad
    return out


def _row_supports(j: np.ndarray) -> np.ndarray:
    """Column indices of each row's nonzeros, padded to a common width.

    Shorter rows are padded with some of their zero columns, which only add
    candidates whose value is evaluated like any other.
    """
    nz = j != 0.0
    width = max(1, int(nz.sum(axis=1).max()))
    return np.argsort(~nz, axis=1, kind="stable")[:, :width]


def _h_coordinate_blocks(cert: CertificateSDP, supports, u: np.ndarray, v: np.ndarray):
    """Block-3 and block-5 data of the H basis elements ``B`` at ``(u, v)``.

    Each element has at most two nonzero entries, so ``J_X^T B J_X`` is a
    scaled sum of outer products of rows ``u`` and ``v`` of ``J_X`` and is
    supported on ``supp J[u] x supp J[v]`` and its transpose.  ``B e`` holds
    two scaled entries of ``e``, so ``2 I_r (x) sym(mat(B e))`` touches at
    most two upper-triangle positions per diagonal block.  Only these
    candidate positions are evaluated, with the elementwise operations of
    the dense realization: ``(o_pq + o_qp) * scale`` off the diagonal of the
    H basis, ``o_pq`` on it (``o = J[u] J[v]^T``), then
    ``+ 2 sym(mat(B e))`` inside the diagonal blocks; values that come out
    exactly 0.0 are dropped.  Returns
    ``(scale, (t, rows, cols, values), grad)``: the nonzero upper-triangle
    block-3 entries sorted by element and row-major, and
    ``grad[t] = J_X^T vec(B e)``.
    """
    n, r = cert.n, cert.r
    nr = n * r
    k = u.size
    diag = u == v
    scale = np.where(diag, 1.0, 1.0 / math.sqrt(2.0))
    vec_be = np.zeros((k, n * n))
    vec_be[np.arange(k), u] = scale * cert.e[v]
    vec_be[np.arange(k), v] = scale * cert.e[u]

    # candidate keys t*nr^2 + p*nr + q with p <= q: the diagonal-block
    # positions of sym(mat(B e)), and (ub) the outer-product supports
    offsets = n * np.arange(r)
    cand = []
    for w in (u, v):
        a, b = np.divmod(w, n)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        cand.append((lo[:, None] + offsets) * nr + hi[:, None] + offsets)
    if cert.which == "ub":
        su, sv = supports[u][:, :, None], supports[v][:, None, :]
        cand.append((np.minimum(su, sv) * nr + np.maximum(su, sv)).reshape(k, -1))
    base = np.arange(k)[:, None] * (nr * nr)
    keys = np.sort(np.concatenate([c + base for c in cand], axis=1), axis=None, kind="stable")
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    t, pos = np.divmod(keys, nr * nr)
    rows, cols = np.divmod(pos, nr)

    if cert.which == "lb":
        values = np.zeros(keys.size)
    else:
        j, ut, vt = cert.j_x, u[t], v[t]
        o_pq = j[ut, rows] * j[vt, cols]
        o_qp = j[ut, cols] * j[vt, rows]
        values = np.where(diag[t], o_pq, (o_pq + o_qp) * scale[t])
    # inside the diagonal blocks add 2 sym(mat(B e))[p, q]; the C-order
    # reshape of vec(B e) is mat(B e)^T, whose symmetric part is the same
    in_block = rows // n == cols // n
    tb, p, q = t[in_block], rows[in_block] % n, cols[in_block] % n
    mat_t = vec_be.reshape(k, n, n)
    values[in_block] += 2.0 * (0.5 * (mat_t[tb, q, p] + mat_t[tb, p, q]))
    nz = values != 0.0
    # One matrix-vector product per element, on a freshly allocated vector: a
    # batched matrix product may sum in another order and change digits.
    jt = cert.j_x.T
    grad = np.array([jt @ row.copy() for row in vec_be])
    return scale, (t[nz], rows[nz], cols[nz], values[nz]), grad


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
    one, minus_one, zero = (serialize.format_float(v) for v in (1.0, -1.0, 0.0))
    lines.append(" ".join([one, minus_one] + [zero] * (m - 2)))

    out = _EntryLines(lines, max(abs(b) for b in block_sizes))
    # F_0: only block 1 has a right-hand side (the identity from H - I).
    out.diag(0, 1, np.ones(n2))

    # kappa_plus (variable 1) and kappa_minus (variable 2)
    for var, sign in ((1, 1.0), (2, -1.0)):
        out.diag(var, 2, sign * np.ones(n2))
        if lb:
            out.block(var, 3, sign * (cert.j_x.T @ cert.j_x))
    out.diag(1, 4, [1.0, 0.0])
    out.diag(2, 4, [0.0, 1.0])

    # H coordinates over the orthonormal symmetric basis, enumerated as
    # index pairs (u <= v) of the n^2 space in lexicographic order and
    # realized in chunks of about SDPA_CHUNK_ENTRIES floats.  Within an
    # element the entries run block 1, 2, 3, 5; a stable sort on the element
    # index interleaves the per-block arrays into that order.
    us, vs = np.triu_indices(n2)
    supports = _row_supports(cert.j_x)
    width = supports.shape[1]
    per_element = n2 + 2 * nr + 2 * r + (0 if lb else width * width)  # see SDPA_CHUNK_ENTRIES
    step = max(1, SDPA_CHUNK_ENTRIES // per_element)
    for start in range(0, n_h, step):
        u, v = us[start : start + step], vs[start : start + step]
        elem = np.arange(u.size)
        scale, (t3, rows3, cols3, vals3), grad = _h_coordinate_blocks(cert, supports, u, v)
        paired = _paired(grad)
        t5, i5 = np.nonzero(paired)
        t = np.concatenate([elem, elem, t3, t5])
        order = np.argsort(t, kind="stable")
        blk = np.repeat([1, 2, 3, 5], [elem.size, elem.size, t3.size, t5.size])
        out.add(
            3 + start + t[order],
            blk[order],
            np.concatenate([u, u, rows3, i5])[order],
            np.concatenate([v, v, cols3, i5])[order],
            np.concatenate([scale, -scale, vals3, paired[t5, i5]])[order],
        )
        out.flush()

    # Slack coordinates (lb only).
    for t, c_mat in enumerate(basis_s):
        var = 3 + n_h + t
        s_vec = vec(c_mat)
        out.block(var, 3, 2.0 * np.kron(np.eye(r), c_mat))
        out.diag(var, 5, _paired(cert.j_x.T @ s_vec))
        out.block(var, 6, c_mat)
        out.diag(var, 7, _paired(cert.j_z.T @ s_vec))
    out.flush()
    return lines


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
