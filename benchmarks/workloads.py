"""The benchmark's workloads: their inputs, the operations of one pass, and
the check of every operation's output.

Inputs are built from the workload seed with CLI ``build`` during set-up, in
``inputs/``.  A pass runs in its own directory next to it and names every
file by a relative path, so the manifests the CLI embeds are the same bytes
in every pass and every run.  Operations go through the entry points users
call: ``cli.main(argv)`` and the documented library functions, always looked
up on their module at call time so a traced run sees them.

Each check returns a dict of facts (exact counts read from the outputs) or
raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

from bmlandscape import certificates, cli, counterexample, serialize

TRIALS = 100
SUCCESS_FLOOR_R4 = 98  # acceptance criterion 02a
EIGEN_TOL = 1e-9
KAPPA_TOL = 1e-12


class CheckFailed(Exception):
    """An operation ran but its output is wrong."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    """One timed operation of a pass and the check of its output."""

    label: str
    stage: str | None
    run: Callable[[], object]
    check: Callable[[object], dict] = field(default=lambda evidence: {})
    # Library operations return their numbers instead of writing a file;
    # these are digested like artifacts.
    digest_evidence: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    # Layers the workload must call; a traced run that records no calls in
    # one of them fails.
    active_layers: tuple[str, ...]
    setup_ops: Callable[[int], list[Op]]
    ops: Callable[[int], list[Op]]


def _read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli(argv: list[str]) -> Callable[[], int]:
    return lambda: cli.main(argv)


def _exit_zero(rc) -> None:
    require(rc == 0, f"exit code {rc}")


# -- set-up -------------------------------------------------------------------


def _check_build(path: str):
    def check(rc) -> dict:
        _exit_zero(rc)
        rec = _read_json(path)
        q = rec["r"] - rec["r_star"] + 1
        require(rec["q"] == q, f"{path}: q={rec['q']}, expected {q}")
        want = 1.0 + 2.0 * math.sqrt(q)
        require(abs(rec["kappa"] - want) <= KAPPA_TOL, f"{path}: kappa={rec['kappa']!r}, expected {want!r}")
        return {}

    return check


def build_op(out: str, n: int, r: int, r_star: int, basis_seed: int | None = None) -> Op:
    """CLI ``build`` of one instance file, checked for kappa = 1 + 2 sqrt(q)."""
    argv = ["build", "--n", str(n), "--r", str(r), "--rstar", str(r_star), "--out", out]
    if basis_seed is not None:
        argv += ["--basis", "random", "--seed", str(basis_seed)]
    return Op(f"build {out}", None, _cli(argv), _check_build(out))


# -- escape -------------------------------------------------------------------

ESCAPE_INSTANCE = "inst-5x3x2.json"


def _escape_inputs(seed: int) -> list[Op]:
    return [build_op(ESCAPE_INSTANCE, 5, 3, 2)]


def _check_census(rank: int, csv: str, summary: str):
    def check(rc) -> dict:
        _exit_zero(rc)
        rec = _read_json(summary)
        counts = rec["successes"] + rec["stuck"] + rec["undetermined"]
        require(rec["trials"] == TRIALS and counts == TRIALS, f"{summary}: counts {counts}/{rec['trials']}")
        with open(csv, encoding="utf-8") as fh:
            rows = [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]
        header, body = rows[0].split(","), rows[1:]
        require(len(body) == TRIALS, f"{csv}: {len(body)} rows")
        iters = [int(row.split(",")[header.index("iters")]) for row in body]
        if rank > 3:
            require(rec["successes"] >= SUCCESS_FLOOR_R4, f"rank-{rank} successes {rec['successes']}")
        # Rank 3 is criterion 02b, red by design: its stuck count is
        # recorded, not gated.
        return {"trial_steps": sum(iters), f"census_r{rank}_stuck": rec["stuck"]}

    return check


def _escape_ops(seed: int) -> list[Op]:
    ops = []
    for rank in (3, 4):
        csv, summary = f"census-r{rank}.csv", f"census-r{rank}.json"
        argv = [
            "trials", "--instance", f"../inputs/{ESCAPE_INSTANCE}", "--search-rank", str(rank),
            "--trials", str(TRIALS), "--seed", str(seed), "--csv", csv, "--summary", summary,
        ]
        ops.append(Op(f"trials r{rank}", f"census_r{rank}_s", _cli(argv), _check_census(rank, csv, summary)))
    return ops


# -- certify ------------------------------------------------------------------

DENSE_CASES = ((8, 5, 2), (9, 5, 3), (10, 6, 2))
EY_N, EY_R = 7, 4


def _dense_name(n: int) -> str:
    return f"random-n{n}.json"


# The dense cases use the CLI's default basis seed, not the workload seed.
# Jacobi's sweep count depends on the basis: the n=10 certificate check took
# 1.6 s on one basis and 2.5 s on another, so seeded bases would spread this
# workload's time across seeds by more than its bound.
DENSE_BASIS_SEED = 0


def _certify_inputs(seed: int) -> list[Op]:
    return [build_op(_dense_name(n), n, r, rs, DENSE_BASIS_SEED) for n, r, rs in DENSE_CASES]


def _check_verify(out: str):
    def check(rc) -> dict:
        _exit_zero(rc)
        require(_read_json(out)["passed"] is True, f"{out}: passed is not true")
        return {}

    return check


def _check_bounds(out: str, instance: str):
    def check(rc) -> dict:
        _exit_zero(rc)
        rec = _read_json(out)
        kappa = _read_json(instance)["kappa"]
        require(rec["valid_inequality"]["holds"] is True, f"{out}: valid inequality fails")
        require(rec["kappa_lb"] is not None and rec["kappa_lb"] <= kappa + 1e-9, f"{out}: kappa_lb {rec['kappa_lb']} > {kappa}")
        return {}

    return check


def certify_instance(inst) -> tuple:
    """The criterion-03/04 checks of one instance: ub certificate and eigenpairs."""
    gram = inst.objective.measurement_gram()
    cert = certificates.assemble(inst.x_spur, inst.z, "ub")
    report = certificates.verify_ub(cert, inst.kappa, gram)
    eigen = certificates.eigen_equations(inst, gram)
    return inst.r, inst.q, inst.kappa, report.feasible, tuple(report.residuals.values()), tuple(eigen)


def check_certified(evidence) -> dict:
    r, q, kappa, feasible, _, eigen = evidence
    require(abs(kappa - (1.0 + 2.0 * math.sqrt(q))) <= KAPPA_TOL, f"kappa {kappa!r} at q={q}")
    require(feasible, "ub certificate infeasible")
    require(len(eigen) == r + 2, f"{len(eigen)} eigenpairs, expected {r + 2}")
    require(max(eigen) <= EIGEN_TOL, f"eigen-equation residual {max(eigen):.3e}")
    return {}


def _certificate_run(path: str):
    def run():
        inst = counterexample.CounterexampleInstance.from_obj(serialize.load_json(path))
        return certify_instance(inst)

    return run


def _sweep_run(n: int, r: int, r_star: int):
    return lambda: certify_instance(counterexample.build(n, r, r_star))


SWEEP_CASES = tuple((n, r, rs) for n in range(2, 9) for r in range(1, n) for rs in range(1, r + 1))


def _ey_argv(seed: int) -> list[str]:
    rng = random.Random(f"ey:{seed}")
    s = sorted((rng.uniform(0.5, 4.0) for _ in range(EY_N)), reverse=True)
    d = sorted(rng.uniform(0.0, 3.0) for _ in range(EY_R))
    return ["ey", "--s", ",".join(map(repr, s)), "--d", ",".join(map(repr, d)), "--brute-force", "--out", "ey.json"]


def _check_ey(rc) -> dict:
    _exit_zero(rc)
    require(_read_json("ey.json")["agrees"] is True, "ey.json: solver disagrees with enumeration")
    return {}


def _certify_ops(seed: int) -> list[Op]:
    ops = []
    for n, _, _ in DENSE_CASES:
        instance = f"../inputs/{_dense_name(n)}"
        out = f"verify-n{n}.json"
        ops.append(Op(f"verify n{n}", "verify_dense_s", _cli(["verify", "--instance", instance, "--out", out]), _check_verify(out)))
        out = f"bounds-n{n}.json"
        ops.append(Op(f"bounds n{n}", "verify_dense_s", _cli(["bounds", "--instance", instance, "--out", out]), _check_bounds(out, instance)))
    for n, _, _ in DENSE_CASES:
        instance = f"../inputs/{_dense_name(n)}"
        ops.append(Op(f"certificate n{n}", "certificate_dense_s", _certificate_run(instance), check_certified, True))
    for case in SWEEP_CASES:
        ops.append(Op("sweep {}x{}x{}".format(*case), "sweep_s", _sweep_run(*case), check_certified, True))
    ops.append(Op("ey", None, _cli(_ey_argv(seed)), _check_ey))
    return ops


# -- export -------------------------------------------------------------------

SPARSE_CASES = ((8, 5, 2), (10, 6, 2))
DENSE_EXPORT_CASE = (7, 5, 2)


def _export_inputs(seed: int) -> list[Op]:
    basis = random.Random(seed).randrange(2**32)
    ops = [build_op(f"standard-n{n}.json", n, r, rs) for n, r, rs in SPARSE_CASES]
    n, r, rs = DENSE_EXPORT_CASE
    ops.append(build_op(f"random-n{n}.json", n, r, rs, basis))
    return ops


def sdpa_shape(n: int, r: int, r_star: int, which: str) -> tuple[int, list[int]]:
    """Variable count and block sizes stated in ``certificates.sdpa_lines``."""
    n2 = n * n
    m = 2 + n2 * (n2 + 1) // 2
    blocks = [n2, n2, n * r, -2, -(2 * n * r)]
    if which == "lb":
        m += n * (n + 1) // 2
        blocks += [n, -(2 * n * r_star)]
    return m, blocks


def check_export(path: str, n: int, r: int, r_star: int, which: str):
    def check(rc) -> dict:
        _exit_zero(rc)
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        parsed = certificates.parse_sdpa(text)
        m, blocks = sdpa_shape(n, r, r_star, which)
        require(parsed["m"] == m, f"{path}: m={parsed['m']}, expected {m}")
        require(parsed["block_sizes"] == blocks, f"{path}: blocks {parsed['block_sizes']}, expected {blocks}")
        require(len(parsed["entries"]) > 0, f"{path}: no entries")
        return {"sdpa_entries": len(parsed["entries"]), "sdpa_bytes": os.path.getsize(path)}

    return check


def _export_ops(seed: int) -> list[Op]:
    cases = [(f"standard-n{n}", (n, r, rs), "export_sparse_s") for n, r, rs in SPARSE_CASES]
    n, r, rs = DENSE_EXPORT_CASE
    cases.append((f"random-n{n}", (n, r, rs), "export_dense_s"))
    ops = []
    for name, dims, stage in cases:
        for which in ("ub", "lb"):
            out = f"{name}-{which}.dat-s"
            argv = ["export", "--instance", f"../inputs/{name}.json", "--which", which, "--out", out]
            ops.append(Op(f"export {name} {which}", stage, _cli(argv), check_export(out, *dims, which)))
    return ops


# Why each workload exists is recorded in BENCHMARK.json and README.md.  The
# dense checks and the SDPA export share one workload so that each run can be
# long: the host's speed drifts over tens of seconds, and only runs that span
# several such periods give steady medians within the benchmark's total time.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "escape",
            ("cli", "counterexample", "objective", "dynamics", "serialize"),
            _escape_inputs,
            _escape_ops,
        ),
        Workload(
            "certify_export",
            ("cli", "counterexample", "objective", "matkernel", "certificates", "bounds", "eckart_young", "serialize"),
            lambda seed: _certify_inputs(seed) + _export_inputs(seed),
            lambda seed: _certify_ops(seed) + _export_ops(seed),
        ),
    )
}
