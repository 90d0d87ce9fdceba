"""Escape experiments around the spurious factor: seeded Nesterov descent.

Each trial samples an initial point uniformly from a small Frobenius ball
around the (zero-padded) spurious factor, runs accelerated gradient descent
with a fixed step size and momentum, and is classified by its final objective
value: ``success`` when it reached the global minimum (f below a small
tolerance), ``stuck`` when it is still pinned near the spurious value, and
``undetermined`` in between (reported honestly, never coerced either way).

Determinism contract
--------------------
Reports are bitwise reproducible for a fixed master seed:

* each trial owns a private PCG64 stream derived from
  ``SeedSequence(master_seed, spawn_key=(trial,))``;
* all trials run in one batch on one thread;
* the hot loop is the unrolled batch form of the objective's batched
  kernels (``grads``, ``residuals``, ``apply_gram`` in
  :mod:`bmlandscape.objective`, which stay the definitions): the same
  arithmetic in the same order, on buffers built once per batch shape, with
  the gradient's factor 2 folded exactly into the step size, carrying
  ``S = grad phi(X X^T)`` from one step to the next.  Each product is a
  stacked ``np.matmul`` that makes the same BLAS call per trial, never a
  flat product over the batch, so each trial's arithmetic is exactly that
  of a solo run whatever else shares its batch, and a trial's f and
  gradient equal the objective's single-factor ``f_eval`` and ``f_grad``
  (the batch-of-one case) bit for bit;
* the active trials are stepped ``WINDOW`` steps at a time and tested once
  per window; a trial that reached the success tolerance (or diverged) at
  some step of the window leaves the active set with its state and
  iteration count from that step.  Because of the per-trial kernels the
  steps it took after that point touched no other trial's bits, so the
  report equals that of testing after every step;
* after each window's exit test, every entry of the active trials' X, V
  and S below ``np.finfo(float).tiny`` in magnitude (a subnormal, or a zero
  of either sign) is set to +0.0.  The flush is elementwise and the windows
  start at the same steps for every trial, so it keeps batch independence.
  It leaves the reported numbers (f, gradient norm, distance, iteration
  count) bitwise equal to a plain step-by-step loop, and X equal to that
  loop's wherever the loop's entry is at least ``tiny``; below ``tiny`` the
  engine holds zeros where the loop holds subnormals.

The bits depend on the BLAS library, as any matmul's do: the same numpy
and BLAS build gives the same report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .counterexample import CounterexampleInstance
from .matkernel import as_factor

__all__ = [
    "CSV_HEADER",
    "TrialConfig",
    "TrialRecord",
    "TrialReport",
    "run_trials",
    "sample_near",
]

RNG_SPEC = "PCG64 via SeedSequence(master_seed, spawn_key=(trial,))"

CSV_HEADER = "trial,seed,outcome,final_f,final_grad_norm,dist_to_spur,iters"


@dataclass(frozen=True)
class TrialConfig:
    """Parameters of one escape experiment.

    Defaults follow the reference run: step size 5e-3, momentum 0.9, initial
    points within Frobenius distance 0.05 of the spurious factor, 100 trials.
    The iteration budget and the success threshold are our own choices (the
    reference leaves them open); they are sized so that overparameterized
    runs converge comfortably at the default step size.
    """

    instance: CounterexampleInstance
    search_rank: int
    learning_rate: float = 5e-3
    momentum: float = 0.9
    radius: float = 0.05
    max_iters: int = 20000
    trials: int = 100
    master_seed: int = 0
    success_tol: float = 1e-6
    stuck_tol: float = 0.1

    def __post_init__(self) -> None:
        if self.search_rank < self.instance.r:
            raise ValueError(
                f"search_rank {self.search_rank} is below the instance "
                f"rank {self.instance.r}"
            )
        # the trial engine steps with 2 * learning_rate, which must be finite
        if not 0.0 < self.learning_rate <= np.finfo(float).max / 2:
            raise ValueError(
                "learning_rate must be positive and at most half the largest float"
            )
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 <= self.max_iters < 2**63:
            raise ValueError("max_iters must be nonnegative and fit in a signed 64-bit integer")
        if self.trials < 1:
            raise ValueError("at least one trial is required")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must fit in an unsigned 64-bit integer")
        if not 0.0 < self.success_tol < self.stuck_tol:
            raise ValueError("tolerances must satisfy 0 < success_tol < stuck_tol")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    outcome: str
    final_f: float
    final_grad_norm: float
    dist_to_spur: float
    iters: int


@dataclass(frozen=True)
class TrialReport:
    """Per-trial records, sorted by trial id; ``to_obj`` counts their outcomes."""

    records: tuple[TrialRecord, ...]

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for rec in self.records:
            lines.append(
                ",".join(
                    [
                        str(rec.trial),
                        str(rec.seed),
                        rec.outcome,
                        serialize.format_float(rec.final_f),
                        serialize.format_float(rec.final_grad_norm),
                        serialize.format_float(rec.dist_to_spur),
                        str(rec.iters),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def to_obj(self) -> dict:
        outcomes = [rec.outcome for rec in self.records]
        return {
            "trials": len(outcomes),
            "successes": outcomes.count("success"),
            "stuck": outcomes.count("stuck"),
            "undetermined": outcomes.count("undetermined"),
            "rng": RNG_SPEC,
        }


def sample_near(x_center, radius, seed):
    """Uniform draw from the Frobenius ball of given radius around a matrix.

    The direction is a normalized Gaussian sample and the length is scaled by
    ``U ** (1/d)`` with ``d`` the entry count, which together make the draw
    uniform over the ball.  ``seed`` may be an integer, a ``SeedSequence`` or
    an existing ``Generator``; integers seed a fresh PCG64 stream.
    """
    center = as_factor(x_center)
    if not 0.0 < radius < np.inf:
        raise ValueError("radius must be positive and finite")
    rng = np.random.default_rng(seed)
    d = center.size
    while True:
        direction = rng.standard_normal(center.shape)
        length = float(np.sqrt(np.sum(direction * direction)))
        if length > 0.0:
            break
    u = rng.random()
    return center + (radius * u ** (1.0 / d) / length) * direction


# -- batched trial engine ---------------------------------------------------

# Steps per window of the trial engine.  The exit test runs once per window
# on the window's history of X, E and S, which holds WINDOW iterates of each
# active trial (448 kB at 100 trials, n = 5, r = 4); longer windows save
# little more Python overhead and cost memory.  At least 2, so that a
# window's first step never overwrites the iterate it starts from.
WINDOW = 8


def _run_batch(obj, x0, cfg):
    """Drive a batch of trials until each converges, diverges or runs out.

    The first and the final evaluations call the batched kernels of ``obj``,
    the instance's :class:`QuadraticObjective`.  Each step in between is
    their unrolled batch form: the arithmetic of ``grads``, ``residuals``
    and ``apply_gram`` in the same order, as eleven numpy calls on operands
    built once per batch shape, so it gives their bits (the tests check
    this against a loop that calls them).  Each trial carries its
    ``S = grad phi(X X^T)`` from one evaluation to the next step.  Only the
    active trials' rows are stepped, ``WINDOW`` steps at a time: each step
    writes its X, E and S into the window's history buffers, then one
    ``values`` call gives f at every step of the window and the exit test
    runs once.  A trial leaves the active set at the first step whose
    objective reached ``success_tol`` or stopped being finite; its X, S and
    f are taken from that step of the history and its iteration count is
    that step's.  The steps it took after that point within the window are
    discarded, and they touched no other trial's numbers, since every
    product works on each trial's own matrices.  Then every entry of the
    active trials' X, V and S whose magnitude is below
    ``np.finfo(float).tiny`` is set to zero.  In a trial trapped at a
    spurious point, a zero row of the point can decay geometrically into
    the subnormal range and stay there to ``max_iters`` (row 4 of
    ``x_spur`` in the rank-limited census), and subnormal operands make
    each product several times slower on CPUs without flush-to-zero; S is
    flushed too, or the next window's first step rebuilds subnormal rows of
    X from it.  A trial that left keeps its state from its exit step,
    unflushed.  Where a flushed entry meets normal terms in a later sum it
    lies far below half an ulp of that sum and would be rounded away, so f,
    the gradient norm and the iteration counts stay those of the unflushed
    loop (the tests check this bitwise).  Trials still active at
    ``max_iters`` are written back at the end.
    Returns the final iterates and per-trial (f, grad norm, iterations)
    arrays; a diverged trial keeps its non-finite f and the iteration at
    which it appeared.
    """
    x_out = np.array(x0, dtype=float)
    _, n, r = x_out.shape
    iters = np.zeros(len(x_out), dtype=np.int64)
    # 0-d arrays cost less per ufunc call than Python floats, same bits;
    # 2 * lr is exact, as TrialConfig keeps it finite
    lr2, mom = np.array(2.0 * cfg.learning_rate), np.array(cfg.momentum)
    tol, tiny = cfg.success_tol, np.finfo(float).tiny
    # local names skip a module lookup per call: about 3% of the census
    matmul, multiply, add, subtract, copyto = (
        np.matmul, np.multiply, np.add, np.subtract, np.copyto
    )
    # overflow in a diverging trial (or at a far initial point) is expected;
    # it is caught by the finiteness test and reported by run_trials
    with np.errstate(over="ignore", invalid="ignore"):
        e = obj.residuals(x_out)
        s_out = obj.apply_gram(e)
        f_out = obj.values(e, s_out)
        idx = np.flatnonzero(np.isfinite(f_out) & (f_out > tol))
        x, s, f = x_out[idx], s_out[idx], f_out[idx]
        v = np.zeros_like(x)
        g = np.empty_like(x)
        gram = obj.gram_symmetric
        # residuals' operands: a copy of M* per trial and a buffer for X^T
        m_star = np.broadcast_to(obj.m_star, s.shape).copy()
        xt_buf = np.empty(x.size)
        # sized for the first window and viewed C-contiguous at the current
        # batch size, so each step's slice is a contiguous batch; the views
        # are rebuilt only when the batch or the window length changes
        x_buf = np.empty(WINDOW * x.size)
        e_buf = np.empty(WINDOW * s.size)
        s_buf = np.empty(WINDOW * s.size)
        k, shape = 0, None
        while idx.size and k < cfg.max_iters:
            b = idx.size
            w = min(WINDOW, cfg.max_iters - k)
            if shape != (w, b):
                shape = (w, b)
                xh = x_buf[: w * b * n * r].reshape(w, b, n, r)
                eh = e_buf[: w * b * n * n].reshape(w, b, n, n)
                sh = s_buf[: w * b * n * n].reshape(w, b, n, n)
                e_rows, s_rows = eh.reshape(w * b, n, n), sh.reshape(w * b, n, n)
                # apply_gram's (b, 1, n^2) views of each step's E and S
                flat = (w, b, 1, n * n)
                steps = list(zip(xh, eh, eh.reshape(flat), sh, sh.reshape(flat)))
                xt = xt_buf[: b * r * n].reshape(b, r, n)
                m_b = m_star[:b]
            for x_j, e_j, e_vec, s_j, s_vec in steps:
                # grads' G = 2 S X, then the accelerated step
                #   V' = mom * V - lr * G,  X' = X + mom * V' - lr * G
                # with the bits of x + mom * (mom * v - lr * G) - lr * G.
                # G's factor 2 folds into the step size, since lr * (2 y)
                # and (2 lr) * y round the same real number while 2 y is
                # finite; g holds lr * G
                matmul(s, x, out=g)
                multiply(lr2, g, out=g)
                multiply(mom, v, out=v)
                subtract(v, g, out=v)
                multiply(mom, v, out=x_j)
                add(x, x_j, out=x_j)
                subtract(x_j, g, out=x_j)
                # residuals: E = X X^T - M*, with a contiguous X^T
                copyto(xt, x_j.transpose(0, 2, 1))
                matmul(x_j, xt, out=e_j)
                subtract(e_j, m_b, out=e_j)
                # apply_gram: S = mat(G vec(E))
                matmul(e_vec, gram, out=s_vec)
                x, s = x_j, s_j
            fh = obj.values(e_rows, s_rows).reshape(w, b)
            stop = ~(np.isfinite(fh) & (fh > tol))
            left = stop.any(axis=0)
            f = fh[-1]
            if left.any():
                cols = np.flatnonzero(left)
                at = stop[:, cols].argmax(axis=0)
                done = idx[cols]
                x_out[done], s_out[done], f_out[done] = (
                    xh[at, cols], sh[at, cols], fh[at, cols]
                )
                iters[done] = k + at + 1
                keep = ~left
                # copies: the next window's views overlap these rows
                idx, x, v, s, f = idx[keep], x[keep], v[keep], s[keep], f[keep]
                g = g[: idx.size]
            # subnormal operands slow every later product (see the docstring)
            for a in (x, v, s):
                copyto(a, 0.0, where=np.abs(a) < tiny)
            k += w
        x_out[idx], s_out[idx], f_out[idx] = x, s, f
        iters[idx] = cfg.max_iters
        g_fin = obj.grads(x_out, s_out)
        gnorm = np.sqrt(np.einsum("bij,bij->b", g_fin, g_fin, optimize=False))
    return x_out, f_out, gnorm, iters


def _classify(f: float, success_tol: float, stuck_tol: float) -> str:
    if f <= success_tol:
        return "success"
    if f >= stuck_tol:
        return "stuck"
    return "undetermined"


def run_trials(cfg: TrialConfig) -> TrialReport:
    """Run the full escape experiment described by ``cfg``.

    The spurious factor (and every sampled initial point) is padded with zero
    columns up to ``cfg.search_rank``.  All trials run in one batch on the
    calling thread.  Raises ``ValueError`` when a trial diverges, naming the
    earliest one.
    """
    obj = cfg.instance.objective
    n = obj.n
    pad = cfg.search_rank - cfg.instance.r
    spur = np.hstack([cfg.instance.x_spur, np.zeros((n, pad))])

    seeds = []
    x0 = np.empty((cfg.trials, n, cfg.search_rank))
    for t in range(cfg.trials):
        ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(t,))
        seeds.append(int(ss.generate_state(1, dtype=np.uint64)[0]))
        x0[t] = sample_near(spur, cfg.radius, np.random.default_rng(ss))

    x_fin, f_fin, g_fin, iters = _run_batch(obj, x0, cfg)
    bad = np.flatnonzero(~np.isfinite(f_fin))
    if bad.size:
        t = int(bad[np.argmin(iters[bad])])
        if iters[t] == 0:
            raise ValueError(
                f"trial {t} diverged (non-finite objective) at its initial "
                "point; lower the radius"
            )
        raise ValueError(
            f"trial {t} diverged (non-finite objective) at iteration "
            f"{iters[t]}; lower the learning rate"
        )
    diff = x_fin - spur
    dist = np.sqrt(np.einsum("bij,bij->b", diff, diff, optimize=False))

    return TrialReport(
        tuple(
            TrialRecord(
                trial=t,
                seed=seeds[t],
                outcome=_classify(float(f_fin[t]), cfg.success_tol, cfg.stuck_tol),
                final_f=float(f_fin[t]),
                final_grad_norm=float(g_fin[t]),
                dist_to_spur=float(dist[t]),
                iters=int(iters[t]),
            )
            for t in range(cfg.trials)
        )
    )
