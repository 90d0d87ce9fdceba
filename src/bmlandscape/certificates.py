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
``supp J[u] x supp J[v]`` (ub only) and the ``2r`` diagonal-block positions
of ``mat(B e)``: at most ``4r^2 + 2r`` upper-triangle candidates instead of
``(nr)^2`` dense positions.  ``B e`` is zero unless the element is live
(``e[u] != 0`` or ``e[v] != 0``), so the diagonal-block candidates, the rows
``vec(B e)`` and their block-5 products ``J_X^T vec(B e)`` are built for the
live elements only: 585 of the 5,050 at the standard (10, 6, 2) pair,
every element on a dense residual.  The block-5 products, and the
slack products of the lb system, are one stacked matmul each, bitwise equal
to one product per element.

The blocks of the H and slack coordinates come as parts
``(blk, t, rows, cols, values)`` in any order, repeats and zeros included;
``_in_file_order`` alone puts them in file order (by element, block and
position, each position once) with one ``np.unique`` over integer keys.
``export_sdpa`` writes the header, F_0 and the kappa variables in their
fixed order, then the coordinates, in byte slices rendered by
``np.char.add`` over two byte-string tables: the numbers ``0..max(m, w)``
and the texts of the distinct values, each formatted once per column set.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .bounds import _pair_geometry
from .counterexample import CounterexampleInstance, eigen_pairs
from .matkernel import (
    ZERO_RTOL,
    as_symmetric,
    jacobian_matrix,
    pair_residual,
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
    "parse_sdpa",
]

FEASIBILITY_TOL = 1e-8
SYSTEMS = ("ub", "lb")  # the two feasibility systems, as CertificateSDP.which names them

# export_sdpa renders and writes the entry lines this many at a time (about
# 150 KB of text per write).
SDPA_WRITE_LINES = 1 << 12

# Residual names measured as norms (feasible iff <= FEASIBILITY_TOL); all
# other residuals are smallest eigenvalues (feasible iff >= -FEASIBILITY_TOL).
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
    e: np.ndarray  # vec(X X^T - Z Z^T), length n^2
    j_x: np.ndarray  # n^2 x (n r)
    j_z: np.ndarray  # n^2 x (n r_star)


@dataclass(frozen=True)
class FeasibilityReport:
    """Named residuals of one certificate check.

    Entries listed in ``NORM_RESIDUALS`` are norms and pass when at most
    ``FEASIBILITY_TOL``; every other entry is a smallest eigenvalue and
    passes when at least ``-FEASIBILITY_TOL``.
    """

    residuals: dict

    @property
    def feasible(self) -> bool:
        for name, value in self.residuals.items():
            if name in NORM_RESIDUALS:
                if value > FEASIBILITY_TOL:
                    return False
            elif value < -FEASIBILITY_TOL:
                return False
        return True


def assemble(x, z, which: str) -> CertificateSDP:
    """Realize the data matrices of the ub or lb system at (X, Z)."""
    if which not in SYSTEMS:
        raise ValueError(f"which must be {' or '.join(map(repr, SYSTEMS))}, got {which!r}")
    x, z, e = pair_residual(x, z)
    return CertificateSDP(
        n=x.shape[0],
        r=x.shape[1],
        r_star=z.shape[1],
        which=which,
        e=vec(e),
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


def _h_residuals(cert: CertificateSDP, kappa: float, h) -> tuple[np.ndarray, dict]:
    """The checked H and the residuals of ``I <= H <= kappa*I`` (both systems)."""
    if kappa < 1.0:
        raise ValueError(f"kappa must be at least 1, got {kappa}")
    h = _check_h(h, cert.n)
    eigs, _ = sym_eig(h)
    return h, {
        "h_minus_identity": float(eigs[-1]) - 1.0,
        "kappa_identity_minus_h": float(kappa) - float(eigs[0]),
    }


def verify_ub(cert: CertificateSDP, kappa: float, h) -> FeasibilityReport:
    """Check (kappa, H) against the ub system; returns all four residuals.

    ``mat(H e)`` enters the matrix inequality only through its symmetric
    part (the quadratic form cannot see more), so that part is used here.
    """
    h, residuals = _h_residuals(cert, kappa, h)
    he = h @ cert.e
    lmi = cert.j_x.T @ h @ cert.j_x + 2.0 * np.kron(np.eye(cert.r), as_symmetric(unvec(he)))
    residuals |= {
        "gradient_orthogonality": float(np.linalg.norm(cert.j_x.T @ he)),
        "hessian_lmi": _min_eig(lmi),
    }
    return FeasibilityReport(residuals=residuals)


def verify_lb(cert: CertificateSDP, kappa: float, h, s) -> FeasibilityReport:
    """Check (kappa, H, s) against the lb system's five constraint groups."""
    h, residuals = _h_residuals(cert, kappa, h)
    s = np.asarray(s, dtype=float).reshape(-1)
    if s.size != cert.n * cert.n:
        raise ValueError(f"slack must have length {cert.n * cert.n}, got {s.size}")
    combined = h @ cert.e + s
    s_comb = as_symmetric(unvec(combined))
    lmi = kappa * (cert.j_x.T @ cert.j_x) + 2.0 * np.kron(np.eye(cert.r), s_comb)
    residuals |= {
        "slack_psd": _min_eig(unvec(s)),
        "slack_truth_orthogonality": float(np.linalg.norm(cert.j_z.T @ s)),
        "gradient_orthogonality": float(np.linalg.norm(cert.j_x.T @ combined)),
        "hessian_lmi": _min_eig(lmi),
    }
    return FeasibilityReport(residuals=residuals)


def eigen_equations(instance: CounterexampleInstance, h) -> list[float]:
    """Residual norms ||H vec(V) - lam vec(V)|| of the r+2 analytic eigenpairs."""
    h = _check_h(h, instance.n)
    out = []
    for lam, v in eigen_pairs(instance):
        vv = vec(v)
        out.append(float(np.linalg.norm(h @ vv - lam * vv)))
    return out


def cos_theta_witness(x, z, tau: float):
    """Dual alignment witness at parameter tau; returns (objective, report).

    Builds ``y = gamma_1 J_X^+ e`` and the PSD combination ``W`` over the
    out-of-range columns of Z, forms ``f = J_X y - vec(sum_i W_ii)``, and
    checks the witness identities.  ``gamma_2 = tau / (||e|| ||Z_perp
    Z_perp^T||_F)`` makes ``<J_X^T J_X, W> = 2 tau beta``, and the objective
    equals ``sqrt(1-tau^2) sqrt(1-alpha^2) + tau alpha``.  The two norms,
    ``Z_perp``, the ``lam_min(X^T X)`` eigenvector and the full-rank test
    come from ``alpha_beta``'s one pass over the pair, and the witness is
    built on the pair as that pass scales it.  The two eigenvalue
    residuals are those of the pair scaled to ``||e|| = 1`` (times ``||e||``).
    """
    ab, (x, z, e, z_perp), e_norm, e2_norm, v_min = _pair_geometry(*pair_residual(x, z))
    tau = float(tau)
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if tau > ab.alpha + ZERO_RTOL:
        raise ValueError(f"tau must not exceed alpha = {ab.alpha}, got {tau}")
    if v_min is None:
        raise ValueError("X must have full column rank")

    n, r = x.shape
    e = vec(e)
    j = jacobian_matrix(x)
    j_pinv_e = pinv(j) @ e
    e1 = j @ j_pinv_e
    e1_norm = float(np.linalg.norm(e1))
    if e1_norm <= ZERO_RTOL * e_norm and tau < 1.0:
        raise ValueError("residual has no component along the factor's range")

    y = np.zeros(n * r) if tau >= 1.0 else (
        math.sqrt(1.0 - tau * tau) / (e_norm * e1_norm)
    ) * j_pinv_e

    w = np.zeros((n * r, n * r))
    if tau > 0.0:
        if ab.degenerate:
            raise ValueError("tau > 0 requires Z to leave the range of X")
        gamma2 = tau / (e_norm * e2_norm)
        # column i is vec(z_perp[:, i] v_min^T)
        cols = np.kron(v_min, z_perp)
        w = gamma2 * (cols @ cols.T)

    # partial trace: the sum of the r diagonal n x n blocks of W
    f = j @ y - vec(np.trace(w.reshape(r, n, r, n), axis1=0, axis2=2))

    objective = float(e @ f)
    expected = math.sqrt(1.0 - tau * tau) * math.sqrt(1.0 - ab.alpha**2) + tau * ab.alpha
    proj = residual_projector(z)
    residuals = {
        "pairing_normalization": abs(e_norm * float(np.linalg.norm(f)) - 1.0),
        "witness_psd": e_norm * _min_eig(w),
        "projected_alignment_psd": e_norm * _min_eig(proj @ as_symmetric(unvec(f)) @ proj),
        "jacobian_energy_deviation": abs(float(np.vdot(j.T @ j, w)) - 2.0 * tau * ab.beta),
        "objective_deviation": abs(objective - expected),
    }
    return objective, FeasibilityReport(residuals=residuals)


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


def _write_entries(fh, var, blk, rows, cols, values) -> None:
    """Write the SDPA entry lines ``var blk i j value`` of the nonzero entries.

    The five arguments are arrays with one entry each, in file order and
    positions 0-based.  Zero values are dropped, so ``-0.0`` and ``0.0``
    (equal as keys, different as text) never meet.  Each distinct value goes
    through ``serialize.format_float`` once; the lines are then rendered and
    written to the binary file ``fh`` ``SDPA_WRITE_LINES`` at a time, with one
    ``np.char.add`` per field over fixed-width byte strings: a table of the
    numbers ``0..top`` (variables, blocks and 1-based positions) and one of
    the distinct values' texts.
    """
    keep = values != 0.0
    if not keep.all():
        var, blk, rows, cols, values = (a[keep] for a in (var, blk, rows, cols, values))
    if not values.size:
        return
    distinct, index = np.unique(values, return_inverse=True)
    value_texts = np.array([serialize.format_float(x).encode() for x in distinct.tolist()])
    top = max(int(var.max()), int(blk.max()), int(rows.max()) + 1, int(cols.max()) + 1)
    numbers = np.array([b"%d " % k for k in range(top + 1)])

    add = np.char.add
    for start in range(0, values.size, SDPA_WRITE_LINES):
        part = slice(start, start + SDPA_WRITE_LINES)
        text = add(numbers[var[part]], numbers[blk[part]])
        text = add(add(text, numbers[rows[part] + 1]), numbers[cols[part] + 1])
        text = add(text, value_texts[index[part]])
        fh.write(b"\n".join(text.tolist()) + b"\n")


def _paired_entries(blk: int, grad: np.ndarray, elements: np.ndarray) -> list:
    """Parts of the paired diagonal rows ``(grad[k], -grad[k])`` of the
    elements ``elements[k]``, interleaved: ``grad[k, i]`` at ``2i`` and
    ``-grad[k, i]`` at ``2i + 1``, nonzeros only."""
    k, i = np.nonzero(grad)
    g, t = grad[k, i], elements[k]
    return [(blk, t, 2 * i, 2 * i, g), (blk, t, 2 * i + 1, 2 * i + 1, -g)]


def _stacked_products(vecs: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``j.T @ vecs[t]`` for every row ``t``, as one stacked product.

    Each ``(1, n^2) @ j`` of the stack is its own BLAS vector-matrix product
    and rounds bitwise like ``j.T @ vecs[t].copy()`` (tested).  The two-term
    closed form ``j[u] a + j[v] b`` of a row with two nonzeros does not: BLAS
    fuses multiply and add, so some rows differ in the last digit.
    """
    return (vecs[:, None, :] @ j)[:, 0, :]


def _in_file_order(parts, size: int):
    """Entry columns ``(var, blk, rows, cols, values)`` of the element parts
    ``(blk, t, rows, cols, values)`` of the variables ``3 + t``, in file
    order: by element, then block, then position, each position once.

    Parts may come in any order and hold zero values, which are dropped, and
    repeated positions, which must carry bitwise equal values.  Every
    position is below ``size``, so one ``np.unique`` over the keys
    ``((t * 8 + blk) * size + i) * size + j`` sorts and dedupes them.
    """
    keys = np.concatenate([((t * 8 + blk) * size + i) * size + j for blk, t, i, j, _ in parts])
    values = np.concatenate([p[4] for p in parts])
    keep = values != 0.0
    keys, values = keys[keep], values[keep]
    keys, first = np.unique(keys, return_index=True)
    values = values[first]
    keys, cols = np.divmod(keys, size)
    keys, rows = np.divmod(keys, size)
    t, blk = np.divmod(keys, 8)
    return 3 + t, blk, rows, cols, values


def _h_coordinate_blocks(cert: CertificateSDP) -> list:
    """Parts ``(blk, t, rows, cols, values)`` of the H coordinates over the
    orthonormal symmetric basis ``B_t``, enumerated as index pairs ``(u, v)``,
    ``u <= v``, of the n^2 space in lexicographic order.

    Block 1 holds ``B_t`` and block 2 ``-B_t`` at ``(u, v)``.  Each ``B_t``
    has at most two nonzero entries, so ``J_X^T B J_X`` is a
    scaled sum of outer products of rows ``u`` and ``v`` of ``J_X`` and is
    supported on ``supp J[u] x supp J[v]`` and its transpose.  ``B e`` holds
    two scaled entries of ``e``, so ``2 I_r (x) sym(mat(B e))`` touches at
    most two upper-triangle positions per diagonal block.  Only these
    candidate positions are evaluated, with the elementwise operations of
    the dense realization: ``(o_pq + o_qp) * scale`` off the diagonal of the
    H basis, ``o_pq`` on it (``o = J[u] J[v]^T``), then
    ``+ 2 sym(mat(B e))`` inside the diagonal blocks; a position that is a
    candidate more than once gets the same value each time, and zeros are
    kept.

    ``B e`` is zero unless the element is live: ``e[u] != 0`` or
    ``e[v] != 0`` (``-0.0`` counts as zero).  The diagonal-block candidates,
    the rows ``vec(B e)`` and their block-5 products ``J_X^T vec(B e)`` (one
    ``_stacked_products`` call) are built for the live elements only; a dead
    element's diagonal-block values are zero (lb) or repeat its outer-product
    candidates (ub), and its products are zero, so the file is the same.
    On a dense residual every element is live.  Block 3 comes as one part
    per candidate set, so the large ub set is never copied into a joint
    array.
    """
    n, r = cert.n, cert.r
    u, v = np.triu_indices(n * n)
    k, elem, diag = u.size, np.arange(u.size), u == v
    scale = np.where(diag, 1.0, 1.0 / math.sqrt(2.0))
    nonzero = cert.e != 0.0
    live = np.flatnonzero(nonzero[u] | nonzero[v])
    lu, lv, ls = u[live], v[live], scale[live]
    # row_of[t]: the row of vec(B_t e) in vec_be; the dead elements share
    # the last row, which stays zero
    row_of = np.full(k, live.size)
    row_of[live] = np.arange(live.size)
    vec_be = np.zeros((live.size + 1, n * n))
    vec_be[row_of[live], lu] = ls * cert.e[lv]
    vec_be[row_of[live], lv] = ls * cert.e[lu]

    # candidate sets (t, rows, cols), positions p <= q: the diagonal-block
    # positions of sym(mat(B e)) of the live elements, and (ub) the
    # outer-product supports of all elements
    offsets = n * np.arange(r)
    a, b = np.divmod(np.column_stack([lu, lv]), n)
    lo, hi = np.minimum(a, b)[:, :, None] + offsets, np.maximum(a, b)[:, :, None] + offsets
    candidates = [(np.repeat(live, 2 * r), lo.ravel(), hi.ravel())]
    if cert.which == "ub":
        # column indices of each row's nonzeros, padded to the widest row
        # with zero columns, which only add candidates evaluated like any other
        nz = cert.j_x != 0.0
        supports = np.argsort(~nz, axis=1, kind="stable")[:, : max(1, int(nz.sum(axis=1).max()))]
        su, sv = supports[u][:, :, None], supports[v][:, None, :]
        t = np.repeat(elem, su.shape[1] * sv.shape[2])
        candidates.append((t, np.minimum(su, sv).ravel(), np.maximum(su, sv).ravel()))

    parts = [(1, elem, u, v, scale), (2, elem, u, v, -scale)]
    mat_t = vec_be.reshape(-1, n, n)
    for t, rows, cols in candidates:
        if cert.which == "lb":
            values = np.zeros(t.size)
        else:
            j, ut, vt = cert.j_x, u[t], v[t]
            o_pq = j[ut, rows] * j[vt, cols]
            o_qp = j[ut, cols] * j[vt, rows]
            values = np.where(diag[t], o_pq, (o_pq + o_qp) * scale[t])
        # inside the diagonal blocks add 2 sym(mat(B e))[p, q]; the C-order
        # reshape of vec(B e) is mat(B e)^T, whose symmetric part is the same
        in_block = rows // n == cols // n
        tb, p, q = row_of[t[in_block]], rows[in_block] % n, cols[in_block] % n
        values[in_block] += 2.0 * (0.5 * (mat_t[tb, q, p] + mat_t[tb, p, q]))
        parts.append((3, t, rows, cols, values))
    return parts + _paired_entries(5, _stacked_products(vec_be[:-1], cert.j_x), live)


def _slack_blocks(cert: CertificateSDP) -> list:
    """Parts ``(blk, t, rows, cols, values)`` of the lb slack coordinates,
    over the basis ``C_t`` of ``symmetric_basis(n)``.

    ``C_t`` has the value ``c`` at ``(i, j)`` and ``(j, i)``, so block 3,
    ``2 I_r (x) C_t``, holds ``2c`` at ``(a n + i, a n + j)`` for each ``a``,
    and block 6 holds ``c`` at ``(i, j)``; blocks 5 and 7 pair the stacked
    products ``J_X^T vec(C_t)`` and ``J_Z^T vec(C_t)``.
    """
    n, r = cert.n, cert.r
    i, j = np.triu_indices(n)
    elem = np.arange(i.size)
    c = np.where(i == j, 1.0, 1.0 / math.sqrt(2.0))
    vecs = symmetric_basis(n).reshape(i.size, n * n)
    t3 = np.repeat(elem, r)
    offsets = np.tile(n * np.arange(r), i.size)
    return [
        (3, t3, offsets + i[t3], offsets + j[t3], 2.0 * c[t3]),
        (6, elem, i, j, c),
        *_paired_entries(5, _stacked_products(vecs, cert.j_x), elem),
        *_paired_entries(7, _stacked_products(vecs, cert.j_z), elem),
    ]


def _sdpa_entries(cert: CertificateSDP, size: int):
    """The entry columns ``(var, blk, rows, cols, values)`` of F_0 and the
    kappa variables, then those of the H (and lb slack) coordinates, each in
    file order; positions 0-based and below ``size``, values may be zero."""
    n2 = cert.n * cert.n
    # F_0 (only block 1 has a right-hand side, the identity from H - I), then
    # kappa_plus (variable 1) and kappa_minus (variable 2), as pieces
    # (var, blk, rows, cols, values) with scalar var and blk
    diag, ones = np.arange(n2), np.ones(n2)
    pieces = [(0, 1, diag, diag, ones)]
    for var, sign in ((1, 1.0), (2, -1.0)):
        pieces.append((var, 2, diag, diag, sign * ones))
        if cert.which == "lb":
            rows, cols = np.triu_indices(cert.n * cert.r)
            pieces.append((var, 3, rows, cols, sign * (cert.j_x.T @ cert.j_x)[rows, cols]))
    pair = np.arange(2)
    pieces += [(1, 4, pair[:1], pair[:1], ones[:1]), (2, 4, pair[1:], pair[1:], ones[:1])]
    fixed = [np.concatenate([np.full(p[2].size, p[k]) for p in pieces]) for k in (0, 1)]
    fixed += [np.concatenate([p[k] for p in pieces]) for k in (2, 3, 4)]

    parts = _h_coordinate_blocks(cert)
    if cert.which == "lb":
        # the slack coordinates follow the n^2 (n^2 + 1) / 2 of H
        n_h = n2 * (n2 + 1) // 2
        parts += [(blk, n_h + t, *rest) for blk, t, *rest in _slack_blocks(cert)]
    return fixed, _in_file_order(parts, size)


def export_sdpa(cert: CertificateSDP, path, comments=()) -> None:
    """Write the system to ``path`` in SDPA sparse format (deterministic).

    Each comment becomes one ``* `` line at the top; a comment with a line
    break raises ``ValueError`` before the file is opened.
    """
    header = [f"* {c}" for c in comments]
    if any("\n" in line or "\r" in line for line in header):
        raise ValueError("SDPA comments must not contain line breaks")
    n, r, r_star = cert.n, cert.r, cert.r_star
    n2 = n * n
    nr = n * r
    n_h = n2 * (n2 + 1) // 2
    lb = cert.which == "lb"
    m = 2 + n_h + (n * (n + 1) // 2 if lb else 0)

    block_sizes = [n2, n2, nr, -2, -(2 * nr)]
    if lb:
        block_sizes += [n, -(2 * n * r_star)]

    header.append(str(m))
    header.append(str(len(block_sizes)))
    header.append(" ".join(str(b) for b in block_sizes))
    one, minus_one, zero = (serialize.format_float(v) for v in (1.0, -1.0, 0.0))
    header.append(" ".join([one, minus_one] + [zero] * (m - 2)))
    head = ("\n".join(header) + "\n").encode()

    with open(path, "wb") as fh:
        fh.write(head)
        for columns in _sdpa_entries(cert, max(abs(b) for b in block_sizes)):
            _write_entries(fh, *columns)


def parse_sdpa(text: str) -> dict:
    """Parse SDPA sparse text back into its numeric pieces (test oracle).

    ``entries`` is an ``(N, 5)`` float array of the entry lines
    ``var blk i j value``, in file order.
    """
    fh = io.BytesIO(text.encode())
    header = []
    while len(header) < 4:
        line = fh.readline()
        if not line:
            raise ValueError("SDPA text ends inside its header")
        line = line.strip()
        if line and not line.startswith((b"*", b'"')):
            header.append(line)
    m = int(header[0])
    nblocks = int(header[1])
    block_sizes = [int(tok) for tok in header[2].split()]
    if len(block_sizes) != nblocks:
        raise ValueError("block count does not match declared number of blocks")
    c = [float(tok) for tok in header[3].split()]
    if len(c) != m:
        raise ValueError("objective length does not match variable count")
    # loadtxt raises ValueError on a non-numeric token or a changing field count
    entries = np.loadtxt(fh, ndmin=2, comments=("*", '"'))
    if entries.size and (entries.shape[1] != 5 or np.any(entries[:, :4] % 1.0)):
        raise ValueError("malformed entry lines: each must be 'var blk i j value' with integer indices")
    return {"m": m, "block_sizes": block_sizes, "c": c, "entries": entries.reshape(-1, 5)}
