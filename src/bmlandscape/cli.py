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

__all__ = ["main"]


# relative tolerance of verify's check of the record's kappa against L/mu
KAPPA_RTOL = 1e-9

# TrialConfig's fields after the instance, in order: each is one trials flag
# (its dest and default) and one manifest parameter
_TRIAL_FIELDS = {f.name: f for f in dataclasses.fields(dynamics.TrialConfig)[1:]}


def _timestamp():
    raw = os.environ.get("SOURCE_DATE_EPOCH")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"SOURCE_DATE_EPOCH must be an integer, got {raw!r}") from exc


def _manifest(subcommand: str, parameters: dict, inputs: dict, outputs: dict) -> dict:
    return {
        "subcommand": subcommand,
        "parameters": parameters,
        "inputs": inputs,
        "outputs": outputs,
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


def _emit(obj: dict, out_path: str | None) -> None:
    text = serialize.dumps(obj)
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


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
    manifest = _manifest(
        "build",
        {
            "n": args.n,
            "r": args.r,
            "rstar": args.rstar,
            "basis": args.basis,
            "seed": args.seed,
        },
        {},
        {"instance": args.out or "-"},
    )
    record = {"manifest": manifest}
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
        "kappa_matches_spectrum": abs(inst.kappa - big / mu) <= KAPPA_RTOL * big / mu,
    }
    passed = all(checks.values())
    record = {
        "manifest": _manifest(
            "verify",
            {"tol": args.tol},
            {"instance": args.instance},
            {"report": args.out or "-"},
        ),
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
        r, r_star = inst.r, inst.r_star
        inputs = {"instance": args.instance}
        parameters = {}
    else:
        if args.alpha is None or args.beta is None:
            raise ValueError("provide either --instance or both --alpha and --beta")
        if (args.r is None) != (args.rstar is None):
            raise ValueError("--r and --rstar must be given together")
        ab = bounds.AlphaBeta(alpha=args.alpha, beta=args.beta)
        r, r_star = args.r, args.rstar
        inputs = {}
        parameters = {"alpha": args.alpha, "beta": args.beta}
    if r is not None:
        parameters.update({"r": r, "rstar": r_star})
    evaluation = bounds.kappa_lb_closed_form(ab)
    record = {
        "manifest": _manifest("bounds", parameters, inputs, {"report": args.out or "-"}),
        "alpha": ab.alpha,
        "beta": ab.beta,
        "degenerate": ab.degenerate,
        "kappa_lb": evaluation.kappa_lb,
        "branch": evaluation.branch,
        "t_opt": evaluation.t_opt,
        "gamma": evaluation.gamma_value,
    }
    if r is not None:
        holds, slack = bounds.valid_inequality(ab, r, r_star)
        lo, hi = bounds.thresholds(r, r_star)
        record["valid_inequality"] = {
            "holds": holds,
            "slack": slack,
            "min_alpha_beta": bounds.minab(r, r_star),
        }
        record["kappa_star_window"] = [lo, hi]
    _emit(record, args.out)
    return 0


def _cmd_trials(args) -> int:
    inst = _load_instance(args.instance)
    values = {name: getattr(args, name) for name in _TRIAL_FIELDS}
    report = dynamics.run_trials(dynamics.TrialConfig(instance=inst, **values))
    # artifacts name master_seed "seed" in the manifest, as the flag does
    parameters = {("seed" if k == "master_seed" else k): v for k, v in values.items()}
    manifest = _manifest(
        "trials",
        parameters,
        {"instance": args.instance},
        {"csv": args.csv or "-", "summary": args.summary or "-"},
    )
    csv_text = "# manifest: " + _manifest_line(manifest) + "\n" + report.to_csv()
    if args.csv is None:
        sys.stdout.write(csv_text)
    else:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    summary = {"manifest": manifest}
    summary.update(report.to_obj())
    if args.summary is not None:
        _emit(summary, args.summary)
    elif args.csv is not None:
        _emit(summary, None)
    return 0


def _cmd_ey(args) -> int:
    s = _parse_floats(args.s, "--s")
    d = _parse_floats(args.d, "--d")
    problem = eckart_young.EYProblem(s=np.array(s), d=np.array(d))
    solution = eckart_young.solve(problem)
    record = {
        "manifest": _manifest(
            "ey",
            {"s": s, "d": d, "brute_force": args.brute_force},
            {},
            {"report": args.out or "-"},
        ),
        "value": solution.value,
        "weights": list(solution.weights),
        "y": serialize.matrix_to_lists(solution.y),
    }
    if args.brute_force:
        reference = eckart_young.brute_force(problem)
        record["brute_force_value"] = reference
        # equal values, inf included, agree before any subtraction
        record["agrees"] = math.isclose(solution.value, reference, rel_tol=0.0, abs_tol=1e-10)
    _emit(record, args.out)
    if args.brute_force and not record["agrees"]:
        return 1
    return 0


def _cmd_export(args) -> int:
    inst = _load_instance(args.instance)
    cert = certificates.assemble(inst.x_spur, inst.z, args.which)
    manifest = _manifest(
        "export",
        {"which": args.which},
        {"instance": args.instance},
        {"sdpa": args.out},
    )
    comments = ["manifest: " + _manifest_line(manifest)]
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
    p.set_defaults(handler=_cmd_build, size_flags=("--n", "--r", "--rstar"))

    p = sub.add_parser("verify", help="check the spurious second-order point")
    p.add_argument("--instance", required=True)
    p.add_argument("--tol", type=float, default=objective.STATIONARY_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_verify, size_flags=("--instance",))

    p = sub.add_parser("bounds", help="condition-number bounds from (alpha, beta)")
    p.add_argument("--instance", default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--rstar", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_bounds, size_flags=("--instance",))

    p = sub.add_parser("trials", help="run the escape experiment")
    p.add_argument("--instance", required=True)
    types = typing.get_type_hints(dynamics.TrialConfig)
    for name, field in _TRIAL_FIELDS.items():
        flag = {"learning_rate": "--lr", "master_seed": "--seed"}.get(name, "--" + name)
        p.add_argument(
            flag.replace("_", "-"),
            dest=name,
            type=types[name],
            required=field.default is dataclasses.MISSING,
            default=field.default,
        )
    p.add_argument("--csv", default=None, help="per-trial CSV path (default stdout)")
    p.add_argument("--summary", default=None, help="aggregate JSON path")
    p.set_defaults(handler=_cmd_trials, size_flags=("--search-rank", "--trials"))

    p = sub.add_parser("ey", help="regularized low-rank approximation in spectral form")
    p.add_argument("--s", required=True, help="target spectrum, descending (e.g. 3,2,1)")
    p.add_argument("--d", required=True, help="penalty spectrum, ascending (e.g. 0.5,1.5)")
    p.add_argument("--brute-force", action="store_true", help="cross-check by enumeration")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_ey, size_flags=("--s", "--d"))

    p = sub.add_parser("export", help="write a certificate program in SDPA sparse format")
    p.add_argument("--instance", required=True)
    p.add_argument("--which", choices=certificates.SYSTEMS, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--comment", action="append", help="extra comment line (repeatable)")
    p.set_defaults(handler=_cmd_export, size_flags=("--instance",))

    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.handler(args)
    except MemoryError as exc:
        # name the flags that set the array sizes, with their values
        sizes = " ".join(
            f"{flag} {value}"
            for flag in args.size_flags
            if (value := getattr(args, flag[2:].replace("-", "_"))) is not None
        )
        print(f"error: {args.command} {sizes}: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
