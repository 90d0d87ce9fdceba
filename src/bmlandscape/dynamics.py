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
* all trials run in one batch on one thread; a trial leaves the active set
  as soon as it reaches the success tolerance (or diverges), and only the
  active trials are stepped;
* hot-loop contractions go through ``np.einsum(..., optimize=False)`` with
  the batch axis outermost, which never re-routes through BLAS, so each
  trial's arithmetic is exactly that of a solo run whatever else shares its
  batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import serialize
from .counterexample import CounterexampleInstance

__all__ = [
    "CSV_HEADER",
    "TrialConfig",
    "TrialRecord",
    "TrialReport",
    "nesterov_step",
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
        if not 0.0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if not 0.0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
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
    """Per-trial records (sorted by trial id) plus aggregate counts."""

    records: tuple[TrialRecord, ...]
    successes: int
    stuck: int
    undetermined: int
    rng: str = RNG_SPEC

    @property
    def total(self) -> int:
        return len(self.records)

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
        return {
            "trials": self.total,
            "successes": self.successes,
            "stuck": self.stuck,
            "undetermined": self.undetermined,
            "rng": self.rng,
        }


def nesterov_step(obj, x, v, lr, mom):
    """One accelerated descent step.

        V' = mom * V - lr * grad f(X)
        X' = X + mom * V' - lr * grad f(X)

    ``obj`` is anything exposing ``f_grad``; with ``grad f(X) = 0`` and
    ``V = 0`` the point is fixed, and with ``mom = 0`` this is plain
    gradient descent.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise ValueError(f"velocity shape {v.shape} != iterate shape {x.shape}")
    g = np.asarray(obj.f_grad(x), dtype=float)
    if g.shape != x.shape:
        raise ValueError(f"gradient shape {g.shape} != iterate shape {x.shape}")
    return _step(x, v, g, lr, mom)


def _step(x, v, g, lr, mom):
    """The update shared by ``nesterov_step`` and the trial engine."""
    v_next = mom * v - lr * g
    return x + mom * v_next - lr * g, v_next


def sample_near(x_center, radius, seed):
    """Uniform draw from the Frobenius ball of given radius around a matrix.

    The direction is a normalized Gaussian sample and the length is scaled by
    ``U ** (1/d)`` with ``d`` the entry count, which together make the draw
    uniform over the ball.  ``seed`` may be an integer, a ``SeedSequence`` or
    an existing ``Generator``; integers seed a fresh PCG64 stream.
    """
    center = np.asarray(x_center, dtype=float)
    if center.ndim != 2:
        raise ValueError("center must be a matrix")
    if not np.all(np.isfinite(center)):
        raise ValueError("center entries must be finite")
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
#
# f(X) = 1/2 sum_k <A_k, X X^T - M*>^2 evaluated for a whole batch at once.
# All contractions keep the batch axis on the outside, so each trial's
# numbers are exactly what a solo run would produce.


def _coeffs(a_sym, m_star, x):
    """Residual coefficients <A_k, X_b X_b^T - M*> for a batch of factors."""
    p = np.einsum("bik,bjk->bij", x, x, optimize=False)
    return np.einsum("kij,bij->bk", a_sym, p - m_star, optimize=False)


def _values(c):
    return 0.5 * np.einsum("bk,bk->b", c, c, optimize=False)


def _grads(a_sym, x, c):
    s = np.einsum("bk,kij->bij", c, a_sym, optimize=False)
    return 2.0 * np.einsum("bij,bjk->bik", s, x, optimize=False)


def _run_batch(a_sym, m_star, x0, cfg):
    """Drive a batch of trials until each converges, diverges or runs out.

    Only the active trials' rows are stepped.  A trial leaves the active set
    once its objective reaches ``success_tol`` or stops being finite, and its
    state is written back then; trials still active at ``max_iters`` are
    written back at the end.  Returns the final iterates and per-trial
    (f, grad norm, iterations) arrays; a diverged trial keeps its non-finite
    f and the iteration at which it appeared.
    """
    x_out = np.array(x0, dtype=float)
    c_out = _coeffs(a_sym, m_star, x_out)
    f_out = _values(c_out)
    iters = np.zeros(len(x_out), dtype=np.int64)
    idx = np.flatnonzero(np.isfinite(f_out) & (f_out > cfg.success_tol))
    x, c, f = x_out[idx], c_out[idx], f_out[idx]
    v = np.zeros_like(x)
    # overflow in a diverging trial is expected; it is caught by the
    # finiteness test and reported by run_trials
    with np.errstate(over="ignore", invalid="ignore"):
        k = 0
        while idx.size and k < cfg.max_iters:
            k += 1
            x, v = _step(x, v, _grads(a_sym, x, c), cfg.learning_rate, cfg.momentum)
            c = _coeffs(a_sym, m_star, x)
            f = _values(c)
            keep = np.isfinite(f) & (f > cfg.success_tol)
            if not keep.all():
                left = ~keep
                done = idx[left]
                x_out[done], c_out[done], f_out[done] = x[left], c[left], f[left]
                iters[done] = k
                idx, x, v, c, f = idx[keep], x[keep], v[keep], c[keep], f[keep]
        x_out[idx], c_out[idx], f_out[idx] = x, c, f
        iters[idx] = cfg.max_iters
        g_fin = _grads(a_sym, x_out, c_out)
        gnorm = np.sqrt(np.einsum("bij,bij->b", g_fin, g_fin, optimize=False))
    return x_out, f_out, gnorm, iters


def _classify(f: float, success_tol: float, stuck_tol: float) -> str:
    if f <= success_tol:
        return "success"
    if f >= stuck_tol:
        return "stuck"
    return "undetermined"


def run_trials(cfg: TrialConfig, threads: int | None = None) -> TrialReport:
    """Run the full escape experiment described by ``cfg``.

    The spurious factor (and every sampled initial point) is padded with zero
    columns up to ``cfg.search_rank``.  ``threads`` is accepted for
    compatibility and has no effect beyond validation: all trials run in one
    batch on the calling thread.  Raises ``ValueError`` when a trial
    diverges, naming the earliest one.
    """
    if threads is not None and threads < 1:
        raise ValueError("thread count must be at least 1")
    obj = cfg.instance.objective
    a_sym = 0.5 * (obj.measurements + obj.measurements.transpose(0, 2, 1))
    n = obj.n
    pad = cfg.search_rank - cfg.instance.r
    spur = np.hstack([cfg.instance.x_spur, np.zeros((n, pad))])

    seeds = []
    x0 = np.empty((cfg.trials, n, cfg.search_rank))
    for t in range(cfg.trials):
        ss = np.random.SeedSequence(cfg.master_seed, spawn_key=(t,))
        seeds.append(int(ss.generate_state(1, dtype=np.uint64)[0]))
        x0[t] = sample_near(spur, cfg.radius, np.random.default_rng(ss))

    x_fin, f_fin, g_fin, iters = _run_batch(a_sym, obj.m_star, x0, cfg)
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

    records = []
    counts = {"success": 0, "stuck": 0, "undetermined": 0}
    for t in range(cfg.trials):
        outcome = _classify(float(f_fin[t]), cfg.success_tol, cfg.stuck_tol)
        counts[outcome] += 1
        records.append(
            TrialRecord(
                trial=t,
                seed=seeds[t],
                outcome=outcome,
                final_f=float(f_fin[t]),
                final_grad_norm=float(g_fin[t]),
                dist_to_spur=float(dist[t]),
                iters=int(iters[t]),
            )
        )
    return TrialReport(
        records=tuple(records),
        successes=counts["success"],
        stuck=counts["stuck"],
        undetermined=counts["undetermined"],
    )
