"""Metric definitions: names, units and how each is computed from a worker's
raw result.  ``BENCHMARK.json`` lists the same names; the benchmark's tests
keep the two in step.

End-to-end metrics come from untraced runs: ``setup_s`` is the median over
set-ups, ``wall_s`` the sum of each operation's lower-quartile time over the run's
passes.  Per-layer metrics come from a ``--trace 1`` run: function counts and
self times cover the traced set-up plus one traced pass (counts from the
first pass, self times the median over traced passes); stage times are sums
of lower-quartile operation times over the run's untraced passes; counts read from
artifacts and warning counts are per set-up plus one pass.
"""

from __future__ import annotations

import statistics

LAYERS = (
    "cli",
    "counterexample",
    "objective",
    "matkernel",
    "certificates",
    "bounds",
    "eckart_young",
    "dynamics",
    "serialize",
)

STAGES = (
    "census_r3_s",
    "census_r4_s",
    "verify_dense_s",
    "certificate_dense_s",
    "sweep_s",
    "export_sparse_s",
    "export_dense_s",
)

# Reported function -> the tracer's key ("<module>.<qualname>").
FUNCTIONS = {
    "dynamics.run_trials": "dynamics.run_trials",
    "dynamics.sample_near": "dynamics.sample_near",
    "dynamics.TrialReport.to_csv": "dynamics.TrialReport.to_csv",
    "matkernel.sym_eig": "matkernel.sym_eig",
    "matkernel.jacobian_matrix": "matkernel.jacobian_matrix",
    "matkernel.pinv": "matkernel.pinv",
    "objective.f_hess_matrix": "objective.QuadraticObjective.f_hess_matrix",
    "objective.measurement_gram": "objective.QuadraticObjective.measurement_gram",
    "counterexample.build": "counterexample.build",
    "counterexample.from_obj": "counterexample.CounterexampleInstance.from_obj",
    "certificates.assemble": "certificates.assemble",
    "certificates.verify_ub": "certificates.verify_ub",
    "certificates.eigen_equations": "certificates.eigen_equations",
    "certificates.sdpa_lines": "certificates.sdpa_lines",
    "certificates.export_sdpa": "certificates.export_sdpa",
    "serialize.format_float": "serialize.format_float",
    "serialize.dumps": "serialize.dumps",
    "serialize.load_json": "serialize.load_json",
    "cli.main": "cli.main",
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer_spec() -> list[tuple[str, str]]:
    spec = [(name, "s") for name in STAGES]
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s"), (f"{layer}.runtime_warnings", "count")]
    for name in FUNCTIONS:
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    spec += [
        ("matkernel.sym_eig.max_order", "count"),
        ("matkernel.sym_eig.order_cubed", "count"),
        ("dynamics.trial_steps", "count"),
        ("dynamics.us_per_trial_step", "us"),
        ("certificates.sdpa_entries", "count"),
        ("certificates.sdpa_bytes", "B"),
        ("certificates.us_per_entry", "us"),
        ("serialize.bytes_written", "B"),
        ("serialize.bytes_read", "B"),
        ("trace_overhead_ratio", "ratio"),
    ]
    return spec


PER_LAYER = tuple(_per_layer_spec())


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _sum_dicts(*dicts) -> dict:
    out: dict = {}
    for d in dicts:
        for key, value in d.items():
            out[key] = out.get(key, 0) + value
    return out


def _lower_quartile(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def op_times(passes: list[dict]) -> dict[str, tuple]:
    """Each operation's stage and the lower quartile of its times over ``passes``.

    The host's speed drifts, in spells from seconds to minutes, by up to a
    factor of two.  A pass total, or the median of the few passes a run
    holds, flips with the share of slow spells in the run.  The fastest time
    of each operation removes short spells but makes a run that falls wholly
    in a long spell stand out.  The lower quartile sits between the two.
    """
    samples: dict[str, tuple] = {}
    for p in passes:
        for label, (stage, seconds) in p["op_s"].items():
            samples.setdefault(label, (stage, []))[1].append(seconds)
    return {label: (stage, _lower_quartile(times)) for label, (stage, times) in samples.items()}


def pass_s(passes: list[dict]) -> float:
    """One pass over the workload: the sum of every operation's time (see ``op_times``)."""
    return sum(seconds for _, seconds in op_times(passes).values())


def end_to_end(setup_samples: list[float], result: dict) -> dict[str, float]:
    return {
        "setup_s": _median(setup_samples),
        "wall_s": pass_s(result["passes"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def stage_times(passes: list[dict]) -> dict[str, float]:
    """Each stage's time: the sum of its operations' times (see ``op_times``)."""
    out = {name: 0.0 for name in STAGES}
    for stage, seconds in op_times(passes).values():
        if stage is not None:
            out[stage] += seconds
    return out


def per_layer(result: dict) -> dict[str, float]:
    """Per-layer metrics of a traced worker result (see the module docstring)."""
    setup = result["traced_setup"]["trace"]
    passes = [p["trace"] for p in result["traced_passes"]]
    first = passes[0]
    calls = _sum_dicts(
        {k: v["calls"] for k, v in setup["summary"].items()},
        {k: v["calls"] for k, v in first["summary"].items()},
    )
    keys = set(calls)
    self_s = {
        key: setup["summary"].get(key, {}).get("self_s", 0.0)
        + _median(p["summary"].get(key, {}).get("self_s", 0.0) for p in passes)
        for key in keys
    }
    probes = {key: setup["probes"].get(key, []) + first["probes"].get(key, []) for key in first["probes"]}
    facts = _sum_dicts(result["setup"]["facts"], result["passes"][0]["facts"])
    warnings = _sum_dicts(result["setup"]["warnings"], result["passes"][0]["warnings"])

    out = stage_times(result["passes"])
    for layer in LAYERS:
        mine = [k for k in keys if k.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = sum(calls[k] for k in mine)
        out[f"{layer}.self_s"] = sum(self_s[k] for k in mine)
        out[f"{layer}.runtime_warnings"] = warnings.get(layer, 0)
    for name, key in FUNCTIONS.items():
        out[f"{name}.calls"] = calls.get(key, 0)
        out[f"{name}.self_s"] = self_s.get(key, 0.0)
    orders = probes.get("matkernel.sym_eig", [])
    out["matkernel.sym_eig.max_order"] = max(orders, default=0)
    out["matkernel.sym_eig.order_cubed"] = sum(k**3 for k in orders)
    steps = facts.get("trial_steps", 0)
    out["dynamics.trial_steps"] = steps
    out["dynamics.us_per_trial_step"] = 1e6 * out["dynamics.run_trials.self_s"] / steps if steps else 0.0
    entries = facts.get("sdpa_entries", 0)
    out["certificates.sdpa_entries"] = entries
    out["certificates.sdpa_bytes"] = facts.get("sdpa_bytes", 0)
    out["certificates.us_per_entry"] = 1e6 * out["certificates.sdpa_lines.self_s"] / entries if entries else 0.0
    out["serialize.bytes_written"] = sum(probes.get("serialize.dumps", []))
    out["serialize.bytes_read"] = sum(probes.get("serialize.load_json", []))
    out["trace_overhead_ratio"] = pass_s(result["traced_passes"]) / pass_s(result["passes"]) - 1.0
    return out


def run_checks(result: dict, active_layers, layer_metrics: dict | None) -> tuple[int, list[str]]:
    """Checks across passes: how many were made, and one message per failure.

    Every pass must write the same bytes (a rerun is byte-identical), traced
    passes the same bytes as untraced ones, and traced passes the same call
    counts; on a traced run every layer the workload is predicted to use must
    record calls.
    """
    checks: list[tuple[bool, str]] = []
    reference = result["passes"][0]["digests"]
    for k, p in enumerate(result["passes"][1:], 2):
        checks.append((p["digests"] == reference, f"untraced pass {k} wrote different bytes than pass 1"))
    if layer_metrics is not None:
        same_setup = result["traced_setup"]["digests"] == result["setup"]["digests"]
        checks.append((same_setup, "traced set-up wrote different bytes than the untraced one"))
        for k, p in enumerate(result["traced_passes"], 1):
            checks.append((p["digests"] == reference, f"traced pass {k} wrote different bytes than untraced pass 1"))
        counts = [{key: v["calls"] for key, v in p["trace"]["summary"].items()} for p in result["traced_passes"]]
        checks.append((all(c == counts[0] for c in counts), "traced passes made different numbers of calls"))
        for layer in active_layers:
            checks.append((layer_metrics[f"{layer}.calls"] > 0, f"layer {layer} is predicted active but recorded no calls"))
    return len(checks), [message for ok, message in checks if not ok]
