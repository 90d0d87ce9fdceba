"""Hard measurement families with spurious second-order critical points.

For target rank ``r_star``, search rank ``r`` and ambient dimension ``n``
(``1 <= r_star <= r < n``), :func:`build` constructs a well-conditioned
quadratic objective together with a factor ``X`` that is second-order
stationary yet bounded away from the global minimum.  The condition number
of the instance is ``1 + 2 sqrt(q)`` with ``q = r - r_star + 1``, which is
the smallest possible for this kind of failure; the objective value at the
stuck point is ``(1 + 2 sqrt(q)) / (1 + sqrt(q))`` and sits strictly above
the curvature floor ``mu = 1``.

Everything is expressed in an orthonormal frame ``u_0, ..., u_{n-1}``:
either the standard basis or a seeded random rotation of it.

An instance stores only what the construction chose: the frame, the stuck
factor ``x_spur`` and the objective (which owns the ground truth ``Z``).
It derives ``n``, ``r``, ``r_star``, ``q``, ``z`` and ``kappa`` from those
matrices; ``kappa`` is the top of :func:`bounds.thresholds`' window, the
one place the formula is written.  Records still carry copies of the
derived facts, and :meth:`CounterexampleInstance.from_obj` rejects any
copy that disagrees with its matrices, naming the field.  It also rejects
a record that :func:`build` could not have written: a basis mode other
than ``standard`` or ``random``, or ranks outside ``1 <= r_star <= r < n``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, serialize
from .matkernel import overflow_checked
from .objective import STATIONARY_TOL, QuadraticObjective, SecondOrderReport

__all__ = [
    "SCALE",
    "CounterexampleInstance",
    "build",
    "spurious_gap",
    "verify_spurious",
    "eigen_pairs",
    "padded_escape",
]

# Global scale applied to both factors.  The fourth root of two is what makes
# the stuck point exactly stationary for the 1/2-weighted least-squares
# objective while keeping the curvature floor at one.
SCALE = 2.0 ** 0.25
BASIS_MODES = ("standard", "random")  # the frames build offers and records name


@dataclass(frozen=True)
class CounterexampleInstance:
    """A built instance: the objective plus its distinguished factor pair.

    Only the five fields are stored.  The dimensions ``n`` and ``r`` are the
    shape of ``x_spur``, the ground truth ``z`` and its rank ``r_star``
    belong to the objective, ``q = r - r_star + 1``, and ``kappa`` is the
    construction's condition number ``1 + 2 sqrt(q)``; so no copy of a
    fact can disagree with the matrices it describes.  A record must name
    one of the two :func:`build` basis modes.
    """

    basis_mode: str
    seed: int
    basis: np.ndarray  # n x n orthonormal, columns u_0..u_{n-1}
    x_spur: np.ndarray  # n x r spurious second-order point
    objective: QuadraticObjective

    @property
    def n(self) -> int:
        return self.x_spur.shape[0]

    @property
    def r(self) -> int:
        return self.x_spur.shape[1]

    @property
    def r_star(self) -> int:
        return self.objective.r_star

    @property
    def q(self) -> int:
        return self.r - self.r_star + 1

    @property
    def kappa(self) -> float:
        """The construction's condition number: ``thresholds``' upper end."""
        return bounds.thresholds(self.r, self.r_star)[1]

    @property
    def z(self) -> np.ndarray:
        """n x r_star ground-truth factor: the objective's ``Z``."""
        return self.objective.ground_truth

    def to_obj(self) -> dict:
        return {
            "kind": "counterexample",
            "n": self.n,
            "r": self.r,
            "r_star": self.r_star,
            "q": self.q,
            "kappa": self.kappa,
            "basis_mode": self.basis_mode,
            "seed": self.seed,
            "basis": serialize.matrix_to_lists(self.basis),
            "x_spur": serialize.matrix_to_lists(self.x_spur),
            "z": serialize.matrix_to_lists(self.z),
            "objective": self.objective.to_obj(),
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CounterexampleInstance":
        """Load a record, rejecting any stored copy its matrices contradict.

        A record whose ranks break ``1 <= r_star <= r < n`` is rejected
        too, as :func:`build` rejects them: no spurious-point formula holds
        for it.  ``basis_mode`` must be one of :func:`build`'s, the JSON
        string ``"standard"`` or ``"random"``.  The stored ``kappa`` is a
        derived copy like ``n``, ``r``, ``r_star`` and ``q``, and must equal
        ``1 + 2 sqrt(q)`` exactly; checking it against the spectrum of the
        objective would take an eigensolver call at every load, so the
        CLI's ``verify`` makes that check instead.  ``seed``, ``n``, ``r``,
        ``r_star`` and ``q`` must be JSON integers and the matrices' entries
        JSON numbers; none of them is coerced.
        """
        if not isinstance(obj, dict) or obj.get("kind") != "counterexample":
            raise ValueError("record is not a counterexample instance")
        seed, mode = obj["seed"], obj["basis_mode"]
        if mode not in BASIS_MODES:
            raise ValueError(
                f"record field basis_mode={mode!r} is not {' or '.join(map(repr, BASIS_MODES))}"
            )
        for name in ("seed", "n", "r", "r_star", "q"):
            if type(obj[name]) is not int:
                raise ValueError(f"record field {name}={obj[name]!r} is not an integer")
        factors = {}
        for name in ("x_spur", "z"):
            factors[name] = f = serialize.matrix_from_lists(obj[name])
            overflow_checked(f"Gram matrix {name} {name}^T")(np.matmul)(f, f.T)
        inst = cls(
            basis_mode=mode,
            seed=seed,
            basis=serialize.matrix_from_lists(obj["basis"]),
            x_spur=factors["x_spur"],
            objective=QuadraticObjective.from_obj(obj["objective"]),
        )
        z = factors["z"]
        if z.shape != inst.z.shape or z.tobytes() != inst.z.tobytes():
            raise ValueError("record field z disagrees with the objective's Z")
        if inst.objective.n != inst.n or inst.basis.shape != (inst.n, inst.n):
            raise ValueError("x_spur, basis and objective disagree on n")
        if inst.r < inst.r_star:
            raise ValueError(
                f"record has r={inst.r} below r_star={inst.r_star} (q={inst.q}); "
                "an instance needs r >= r_star, so q >= 1"
            )
        if not 1 <= inst.r_star <= inst.r < inst.n:
            raise ValueError(
                f"record has r_star={inst.r_star}, r={inst.r}, n={inst.n}; an "
                "instance needs 1 <= r_star <= r < n"
            )
        for name in ("n", "r", "r_star", "q", "kappa"):
            value = getattr(inst, name)
            if obj[name] != value:
                raise ValueError(
                    f"record field {name}={obj[name]!r} disagrees with its "
                    f"matrices ({name}={value})"
                )
        return inst


def _orthonormal_frame(n: int, mode: str, seed: int) -> np.ndarray:
    if mode not in BASIS_MODES:
        raise ValueError(f"unknown basis mode {mode!r}; use {' or '.join(map(repr, BASIS_MODES))}")
    if mode == "standard":
        return np.eye(n)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n))
    qmat, rmat = np.linalg.qr(g)
    return qmat * np.sign(np.diag(rmat))


def _measurement_stack(n: int, q: int, kappa: float, u: np.ndarray) -> np.ndarray:
    """All n^2 rank-structured measurement matrices of the family."""
    # outer[i, j] = np.outer(u[:, i], u[:, j]), one multiply per entry
    outer = u.T[:, None, :, None] * u.T[None, :, None, :]
    stack = np.sqrt(kappa) * outer.reshape(n * n, n, n)

    def at(i, j):
        return i * n + j

    # Diagonal slots 0..q carry the mass-splitting combinations that pin the
    # curvature spectrum to exactly {1, kappa}.
    a00 = np.sqrt(kappa / 2.0) * outer[0, 0]
    for i in range(1, q + 1):
        a00 += np.sqrt(kappa / (2.0 * q)) * outer[i, i]
    stack[at(0, 0)] = a00

    a11 = outer[0, 0] / np.sqrt(2.0)
    for i in range(1, q + 1):
        a11 -= outer[i, i] / np.sqrt(2.0 * q)
    stack[at(1, 1)] = a11

    for i in range(2, q + 1):
        p = q - i + 1
        aii = np.sqrt(p / (p + 1.0)) * outer[i - 1, i - 1]
        for j in range(p):
            aii -= outer[i + j, i + j] / np.sqrt(p * (p + 1.0))
        stack[at(i, i)] = aii

    return stack


def build(
    n: int, r: int, r_star: int, basis_mode: str = "standard", seed: int = 0
) -> CounterexampleInstance:
    """Construct the hard instance for the given rank triple."""
    if not 1 <= r_star <= r < n:
        raise ValueError(
            f"rank ordering must satisfy 1 <= r_star <= r < n, "
            f"got r_star={r_star}, r={r}, n={n}"
        )
    q = r - r_star + 1
    kappa = bounds.thresholds(r, r_star)[1]
    u = _orthonormal_frame(n, basis_mode, seed)

    x1 = u[:, 1 : q + 1] / np.sqrt(1.0 + np.sqrt(q))
    z2 = u[:, q + 1 : r + 1]
    x_spur = SCALE * np.hstack([x1, z2])
    z = SCALE * np.hstack([u[:, :1], z2])

    objective = QuadraticObjective(_measurement_stack(n, q, kappa, u), z)
    return CounterexampleInstance(
        basis_mode=basis_mode,
        seed=seed,
        basis=u,
        x_spur=x_spur,
        objective=objective,
    )


def spurious_gap(q: int) -> float:
    """Objective value at the stuck point: (1 + 2 sqrt(q)) / (1 + sqrt(q))."""
    s = math.sqrt(q)
    return (1.0 + 2.0 * s) / (1.0 + s)


def verify_spurious(
    instance: CounterexampleInstance, tol: float = STATIONARY_TOL
) -> SecondOrderReport:
    """Second-order diagnostics of the objective at the stuck factor."""
    return instance.objective.check_second_order(instance.x_spur, tol)


def eigen_pairs(instance: CounterexampleInstance) -> list[tuple[float, np.ndarray]]:
    """Analytic eigenpairs of the raw measurement Gram matrix.

    Returns ``r + 2`` pairs ``(eigenvalue, matrix)`` where the matrix ``V``
    satisfies ``G vec(V) = eigenvalue * vec(V)`` for the Gram matrix ``G``
    returned by :meth:`QuadraticObjective.measurement_gram`.
    """
    u = instance.basis
    q = instance.q
    kappa = instance.kappa
    v0 = np.sqrt(q) * np.outer(u[:, 0], u[:, 0])
    v1 = v0.copy()
    for i in range(1, q + 1):
        uu = np.outer(u[:, i], u[:, i])
        v0 = v0 + uu
        v1 = v1 - uu
    pairs = [(kappa, v0), (1.0, v1)]
    for i in range(1, instance.r + 1):
        cross = np.outer(u[:, 0], u[:, i])
        pairs.append((kappa, cross + cross.T))
    return pairs


def padded_escape(instance: CounterexampleInstance):
    """Escape direction unlocked by one extra column of search rank.

    Returns ``(x_padded, direction, predicted_curvature)`` where ``x_padded``
    is the stuck factor with a zero column appended and ``direction`` places
    ``u_0`` in that new column.  The Hessian quadratic form along the
    direction equals the (strictly negative) predicted curvature, so the
    point stops being second-order stationary at search rank ``r + 1``.
    """
    n, r = instance.x_spur.shape
    x_padded = np.hstack([instance.x_spur, np.zeros((n, 1))])
    direction = np.zeros((n, r + 1))
    direction[:, r] = instance.basis[:, 0]
    curvature = -2.0 * instance.kappa * SCALE**2 / (1.0 + math.sqrt(instance.q))
    return x_padded, direction, curvature

