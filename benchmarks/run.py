"""bmlandscape benchmark: escape census, dense certification and SDPA export.

    python3 benchmarks/run.py --workload escape|certify_export|all \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh worker process
(``worker.py``) against the package in ``src``, one process at a time.  With
``--trace 0`` the run passes over the workload's operations for ``--seconds``
and times nine set-ups (import plus CLI ``build`` of the workload's inputs,
each in a fresh process): four before the passes, four after and the
measured worker's own.  It prints the end-to-end metrics.
With ``--trace 1`` half the time is traced and it prints the per-layer
metrics.  Every output is checked; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files go to ``.bench_work/`` (removed at the end); the full record of
each run (environment, per-pass times, artifact digests, failures) and the
span files of traced runs go to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE_DIR = ROOT / "src" / "bmlandscape"
SETUP_REPEATS = 9
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


def _git_commit():
    """HEAD of the repository the benchmark runs in; None outside a git checkout."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _worker(args, mode: str, workdir: Path, seconds: float, trace: int) -> dict:
    result = workdir / "result.json"
    workdir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--mode", mode, "--workdir", str(workdir), "--result", str(result),
        "--spans", str(ROOT / ".bench_results"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {WORKER_TIMEOUT_S} s") from exc
    if done.returncode != 0 or not result.is_file():
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(result.read_text())


def run_workload(args, active_layers) -> dict:
    """One workload: set-ups around the measured run, or the traced run."""
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        # The host's speed drifts over seconds to minutes, so the set-ups are
        # split around the run instead of taken in one burst.  The run's
        # worker times its own set-up too, which is one more sample.
        before = 0 if args.trace else SETUP_REPEATS // 2
        after = 0 if args.trace else SETUP_REPEATS - 1 - before
        setups = [_worker(args, "setup", work / f"setup-{k}", 0, 0) for k in range(before)]
        result = _worker(args, "run", work / "run", args.seconds, args.trace)
        setups += [_worker(args, "setup", work / f"setup-{k}", 0, 0) for k in range(before, before + after)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    setup_samples = [result["setup_s"]] + [s["setup_s"] for s in setups]
    layer = metrics.per_layer(result) if args.trace else None
    checks, problems = metrics.run_checks(result, active_layers, layer)
    pass_results = [result["setup"]] + [s["setup"] for s in setups] + result["passes"]
    if args.trace:
        pass_results += [result["traced_setup"]] + result["traced_passes"]
    attempted = checks + sum(p["attempted"] for p in pass_results)
    failures = problems + [f for p in pass_results for f in p["failures"]]
    if args.trace:
        values = layer
        units = dict(metrics.PER_LAYER)
    else:
        values = metrics.end_to_end(setup_samples, result)
        units = dict(metrics.END_TO_END)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": dict(result["env"], commit=_git_commit()),
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "stages": metrics.stage_times(result["passes"]),
        "passes": [{k: p[k] for k in ("wall_s", "op_s", "stages", "facts", "warnings")} for p in result["passes"]],
        "setup_samples_s": [] if args.trace else setup_samples,
        "digests": result["passes"][0]["digests"],
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    return record


def _report(record: dict) -> None:
    env = record["env"]
    print(
        f"== {record['workload']} seed={record['seed']} seconds={record['seconds']} trace={record['trace']} "
        f"(nproc={env['nproc']} python={env['python']} numpy={env['numpy']} blas={env['blas']} "
        f"blas_threads={env['blas_threads']} commit={env['commit']})"
    )
    for name, m in record["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    if not record["trace"]:
        passes = record["passes"]
        print(
            f"  (lower quartile of each operation's times over {len(passes)} passes; "
            f"median of {len(record['setup_samples_s'])} set-ups)"
        )
        for name, value in record["stages"].items():
            if value:
                print(f"  {name:40s} {value:>14.6g} s")
        facts = passes[0]["facts"]
        if "census_r3_stuck" in facts:
            print(f"  {'census_r3_stuck (criterion 02b, not gated)':40s} {facts['census_r3_stuck']:>14d} count")
    ratio = record["failed"] / record["attempted"]
    print(f"  {'op_fail_ratio':40s} {ratio:>14.6g} ratio ({record['failed']}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="escape, certify_export or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no package source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            run_args = argparse.Namespace(**dict(vars(args), workload=name))
            records.append(run_workload(run_args, workloads.WORKLOADS[name].active_layers))
            _report(records[-1])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    prefix = len(records) > 1
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): m for r in records for name, m in r["metrics"].items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
