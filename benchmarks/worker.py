"""Run one workload in this (fresh) process and write its raw results as JSON.

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S \\
        --trace 0|1 --mode setup|run --workdir DIR --result FILE --spans DIR

``run.py`` starts this with ``src`` on ``PYTHONPATH``; it is not meant to be
called by hand.  ``--mode setup`` times importing the package plus building
the workload's inputs and stops.  ``--mode run`` then repeats passes over the
workload's operations until ``--seconds`` would be exceeded; with
``--trace 1`` the first half of that time is untraced passes and the second
half traced ones, preceded by a traced set-up.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import RuntimeWarningCounter, Tracer

PACKAGE = "bmlandscape"


def _probe_order(args, kwargs, result):
    return len(args[0] if args else kwargs["s"])


def _probe_text_length(args, kwargs, result):
    return len(result)


def _probe_file_size(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


PROBES = {
    "matkernel.sym_eig": _probe_order,
    "serialize.dumps": _probe_text_length,
    "serialize.load_json": _probe_file_size,
}


def _digest_files(directory: Path) -> dict[str, str]:
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        out[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_pass(ops, pass_dir: Path, counter: RuntimeWarningCounter, tracer: Tracer | None = None) -> dict:
    """Run ``ops`` in ``pass_dir``, timed (and traced), then check every output.

    Only the operations themselves are timed and traced; checks and digests
    run afterwards.  An operation that raises, exits non-zero or fails its
    check is a failure, recorded with its message.
    """
    pass_dir.mkdir(parents=True)
    home = os.getcwd()
    os.chdir(pass_dir)
    try:
        outcomes = []
        with counter.record(), (tracer or contextlib.nullcontext()):
            for op in ops:
                with tracer.operation(op.label) if tracer else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        evidence, error = op.run(), None
                    except (Exception, SystemExit) as exc:
                        evidence, error = None, f"{type(exc).__name__}: {exc}"
                    seconds = time.perf_counter() - t0
                outcomes.append((op, seconds, evidence, error))
        warnings = counter.pop_counts()

        stages: dict[str, float] = {}
        facts: dict[str, float] = {}
        digests: dict[str, str] = {}
        failures = []
        for op, seconds, evidence, error in outcomes:
            if op.stage is not None:
                stages[op.stage] = stages.get(op.stage, 0.0) + seconds
            if error is None:
                try:
                    for key, value in op.check(evidence).items():
                        facts[key] = facts.get(key, 0) + value
                except Exception as exc:  # a wrong output is a result, not a crash
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failures.append(f"{op.label}: {error}")
            elif op.digest_evidence:
                digests[f"op:{op.label}"] = hashlib.sha256(repr(evidence).encode()).hexdigest()
        digests.update(_digest_files(Path(".")))
    finally:
        os.chdir(home)
    return {
        "wall_s": sum(seconds for _, seconds, _, _ in outcomes),
        "op_s": {op.label: [op.stage, seconds] for op, seconds, _, _ in outcomes},
        "stages": stages,
        "facts": facts,
        "attempted": len(ops),
        "failures": failures,
        "digests": digests,
        "warnings": dict(warnings),
    }


def timed_passes(ops, phase_dir: Path, counter, budget: float, tracers: list | None = None) -> list[dict]:
    """Repeat passes while the next one is expected to end by ``budget``
    seconds plus half a pass (at least one pass).

    With ``tracers`` given, each pass is traced by a new tracer appended to it.
    """
    passes = []
    start = time.perf_counter()
    while True:
        tracer = None if tracers is None else Tracer(PACKAGE, PROBES)
        t0 = time.perf_counter()
        result = run_pass(ops, phase_dir / f"pass-{len(passes) + 1}", counter, tracer)
        last = time.perf_counter() - t0
        if tracer is not None:
            result["trace"] = trace_record(tracer)
            tracers.append(tracer)
        passes.append(result)
        if time.perf_counter() - start + last / 2 > budget:
            return passes


def trace_record(tracer: Tracer) -> dict:
    return {"summary": tracer.summary(), "probes": tracer.probe_values}


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def env_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True, help="directory for span CSVs of traced runs")
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    import bmlandscape.cli  # importing the package is part of set-up

    import_s = time.perf_counter() - t0
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    counter = RuntimeWarningCounter(Path(bmlandscape.cli.__file__).parent)
    untraced = args.workdir / "untraced"
    setup = run_pass(wl.setup_ops(args.seed), untraced / "inputs", counter)
    out = {"setup_s": import_s + setup["wall_s"], "setup": setup}

    if args.mode == "run":
        ops = wl.ops(args.seed)
        start = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        out["passes"] = timed_passes(ops, untraced, counter, budget)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["env"] = env_block()
        if args.trace:
            traced = args.workdir / "traced"
            tracer = Tracer(PACKAGE, PROBES)
            traced_setup = run_pass(wl.setup_ops(args.seed), traced / "inputs", counter, tracer)
            traced_setup["trace"] = trace_record(tracer)
            remaining = args.seconds - (time.perf_counter() - start)
            tracers = []
            passes = timed_passes(ops, traced, counter, remaining, tracers)
            args.spans.mkdir(parents=True, exist_ok=True)
            stem = f"spans-{args.workload}-seed{args.seed}"
            tracer.write_spans(args.spans / f"{stem}-setup.csv")
            for k, t in enumerate(tracers, 1):
                t.write_spans(args.spans / f"{stem}-pass{k}.csv")
            out["traced_setup"] = traced_setup
            out["traced_passes"] = passes
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
