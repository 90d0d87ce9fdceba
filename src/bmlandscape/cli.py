"""Batch command-line front end.

Subcommands build worst-case instances, verify their spurious points,
evaluate condition-number bounds, run escape experiments, solve regularized
low-rank approximation problems, and export certificate feasibility programs
in SDPA sparse format.  All I/O goes through files so runs can be scripted
and reproduced; there is no interactive mode.

Exit codes: 0 success; 1 a verification ran and the property failed;
2 usage or input error (malformed files report their parse location, and
sizes too large to allocate report the subcommand's size flags with numpy's
message).

Every emitted artifact embeds a run manifest (subcommand, resolved
parameters, paths, tool version, timestamp).  The timestamp honors
``SOURCE_DATE_EPOCH`` when set and is null otherwise, keeping default runs
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import typing

import numpy as np

from . import (
    __version__,
    bounds,
    certificates,
    counterexample,
    dynamics,
    eckart_young,
    objective,
    serialize,
)
from .matkernel import ZERO_RTOL

__all__ = ["main"]


# TrialConfig's fields after the instance, in order, by the dest of their
# trials flag: each flag takes its field's default, and master_seed is --seed
_TRIAL_FIELDS = {
    {"master_seed": "seed"}.get(f.name, f.name): f
    for f in dataclasses.fields(dynamics.TrialConfig)[1:]
}

# parsed keys that are no run parameter: the file flags, which the manifest
# records as inputs and outputs, export's comment lines and the parser's own
_NOT_PARAMETERS = frozenset(
    ("instance", "out", "csv", "summary", "comment", "command", "handler", "size_flags", "outputs")
)


def _timestamp():
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer, got {raw!r}") from exc


def _manifest(args) -> dict:
    """Run manifest of the parsed *args*: every value set and not a file or
    parser key is a parameter, ``--instance`` the input, and the subcommand's
    ``outputs`` map names each output's flag dest ("-" for stdout)."""
    values = vars(args)
    instance = values.get("instance")
    return {
        "subcommand": args.command,
        "parameters": {
            k: v for k, v in values.items() if v is not None and k not in _NOT_PARAMETERS
        },
        "inputs": {} if instance is None else {"instance": instance},
        "outputs": {name: values[dest] or "-" for name, dest in args.outputs.items()},
        "version": __version__,
        "timestamp": _timestamp(),
    }


def _manifest_line(manifest: dict) -> str:
    return "".join(serialize.dumps(manifest, indent=0).splitlines())


def _load_instance(path: str) -> counterexample.CounterexampleInstance:
    try:
        obj = serialize.load_json(path)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    try:
        return counterexample.CounterexampleInstance.from_obj(obj)
    except KeyError as exc:
        raise ValueError(f"{path}: record is missing field {exc}") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit(obj: dict, out_path: str | None) -> None:
    _write(serialize.dumps(obj), out_path)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise ValueError(f"{flag} expects comma-separated reals, got {text!r}") from exc
    if not values:
        raise ValueError(f"{flag} expects at least one value")
    return values


# -- subcommand handlers ------------------------------------------------------


def _cmd_build(args) -> int:
    inst = counterexample.build(
        args.n, args.r, args.rstar, basis_mode=args.basis, seed=args.seed
    )
    record = {"manifest": _manifest(args)}
    record.update(inst.to_obj())
    _emit(record, args.out)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_instance(args.instance)
    report = counterexample.verify_spurious(inst, args.tol)
    gap_formula = counterexample.spurious_gap(inst.q)
    mu, big = inst.objective.smoothness_bounds()
    checks = {
        **report.checks,
        "gap_matches_formula": abs(report.objective_value - gap_formula) <= args.tol,
        "gap_exceeds_mu": report.objective_value > mu,
        "kappa_matches_spectrum": abs(inst.kappa - big / mu) <= ZERO_RTOL * big / mu,
    }
    passed = all(checks.values())
    record = {
        "manifest": _manifest(args),
        "instance": {
            "n": inst.n,
            "r": inst.r,
            "r_star": inst.r_star,
            "q": inst.q,
            "kappa": inst.kappa,
        },
        "report": report.to_obj(),
        "gap_formula": gap_formula,
        "checks": checks,
        "passed": passed,
    }
    _emit(record, args.out)
    return 0 if passed else 1


def _cmd_bounds(args) -> int:
    if args.instance is not None:
        if args.alpha is not None or args.beta is not None:
            raise ValueError("give either --instance or --alpha/--beta, not both")
        if args.r is not None or args.rstar is not None:
            raise ValueError("--r/--rstar go with --alpha/--beta, not --instance")
        inst = _load_instance(args.instance)
        ab = bounds.alpha_beta(inst.x_spur, inst.z)
        args.r, args.rstar = inst.r, inst.r_star
    else:
        if args.alpha is None or args.beta is None:
            raise ValueError("provide either --instance or both --alpha and --beta")
        if (args.r is None) != (args.rstar is None):
            raise ValueError("--r and --rstar must be given together")
        ab = bounds.AlphaBeta(alpha=args.alpha, beta=args.beta)
    evaluation = bounds.kappa_lb_closed_form(ab)
    record = {
        "manifest": _manifest(args),
        "alpha": ab.alpha,
        "beta": ab.beta,
        "degenerate": ab.degenerate,
        "kappa_lb": evaluation.kappa_lb,
        "branch": evaluation.branch,
        "t_opt": evaluation.t_opt,
        "gamma": evaluation.gamma_value,
    }
    if args.r is not None:
        holds, slack = bounds.valid_inequality(ab, args.r, args.rstar)
        lo, hi = bounds.thresholds(args.r, args.rstar)
        record["valid_inequality"] = {
            "holds": holds,
            "slack": slack,
            "min_alpha_beta": bounds.minab(args.r, args.rstar),
        }
        record["kappa_star_window"] = [lo, hi]
    _emit(record, args.out)
    return 0


def _cmd_trials(args) -> int:
    inst = _load_instance(args.instance)
    values = {f.name: getattr(args, dest) for dest, f in _TRIAL_FIELDS.items()}
    report = dynamics.run_trials(dynamics.TrialConfig(instance=inst, **values))
    manifest = _manifest(args)
    _write("# manifest: " + _manifest_line(manifest) + "\n" + report.to_csv(), args.csv)
    # the summary goes to its file, or to stdout when the CSV went to a file
    if args.summary is not None or args.csv is not None:
        _emit({"manifest": manifest, **report.to_obj()}, args.summary)
    return 0


def _cmd_ey(args) -> int:
    args.s = _parse_floats(args.s, "--s")
    args.d = _parse_floats(args.d, "--d")
    problem = eckart_young.EYProblem(s=np.array(args.s), d=np.array(args.d))
    solution = eckart_young.solve(problem)
    record = {
        "manifest": _manifest(args),
        "value": solution.value,
        "weights": list(solution.weights),
        "y": serialize.matrix_to_lists(solution.y),
    }
    if args.brute_force:
        reference = eckart_young.brute_force(problem)
        record["brute_force_value"] = reference
        # equal values, inf included, agree before any subtraction
        record["agrees"] = math.isclose(solution.value, reference, rel_tol=ZERO_RTOL)
    _emit(record, args.out)
    if args.brute_force and not record["agrees"]:
        return 1
    return 0


def _cmd_export(args) -> int:
    inst = _load_instance(args.instance)
    cert = certificates.assemble(inst.x_spur, inst.z, args.which)
    comments = ["manifest: " + _manifest_line(_manifest(args))]
    comments.extend(args.comment or [])
    certificates.export_sdpa(cert, args.out, comments=tuple(comments))
    return 0


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmlandscape",
        description="Worst-case landscape instances for factored low-rank "
        "minimization: build, verify, bound, experiment, export.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a worst-case instance file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--rstar", type=int, required=True)
    p.add_argument("--basis", choices=counterexample.BASIS_MODES, default="standard")
    p.add_argument("--seed", type=int, default=0, help="basis seed (random mode)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(
        handler=_cmd_build, size_flags=("--n", "--r", "--rstar"), outputs={"instance": "out"}
    )

    p = sub.add_parser("verify", help="check the spurious second-order point")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=objective.STATIONARY_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify, size_flags=("--instance",), outputs={"report": "out"})

    p = sub.add_parser("bounds", help="condition-number bounds from (alpha, beta)")
    p.add_argument("--instance", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rstar", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bounds, size_flags=("--instance",), outputs={"report": "out"})

    p = sub.add_parser("trials", help="run the escape experiment")
    p.add_argument("--instance", required=True)
    types = typing.get_type_hints(dynamics.TrialConfig)
    for dest, field in _TRIAL_FIELDS.items():
        p.add_argument(
            "--lr" if dest == "learning_rate" else "--" + dest.replace("_", "-"),
            dest=dest,
            type=types[field.name],
            required=field.default is dataclasses.MISSING,
            default=field.default,
        )
    p.add_argument("--csv", default=None, help="per-trial CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="aggregate JSON path")
    p.set_defaults(
        handler=_cmd_trials,
        size_flags=("--search-rank", "--trials"),
        outputs={"csv": "csv", "summary": "summary"},
    )

    p = sub.add_parser("ey", help="regularized low-rank approximation in spectral form")
    p.add_argument("--s", required=True, help="target spectrum, descending (e.g. 3,2,1)")
    p.add_argument("--d", required=True, help="penalty spectrum, ascending (e.g. 0.5,1.5)")
    p.add_argument("--brute-force", action="store_true", help="cross-check by enumeration")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ey, size_flags=("--s", "--d"), outputs={"report": "out"})

    p = sub.add_parser("export", help="write a certificate program in SDPA sparse format")
    p.add_argument("--instance", required=True)
    p.add_argument("--which", choices=certificates.SYSTEMS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comment", action="append", help="extra comment line (repeatable)")
    p.set_defaults(handler=_cmd_export, size_flags=("--instance",), outputs={"sdpa": "out"})

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # the flags that set the array sizes, with their values as typed: handlers
    # write resolved values back into args for the manifest
    sizes = " ".join(
        f"{flag} {value}"
        for flag in args.size_flags
        if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
    )
    try:
        return args.handler(args)
    except MemoryError as exc:
        print(f"error: {args.command} {sizes}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
