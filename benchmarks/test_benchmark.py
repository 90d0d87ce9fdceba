"""Tests of the benchmark's own logic.

    python3 -m pytest benchmarks
"""

import json
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import RuntimeWarningCounter, Tracer, self_times  # noqa: E402
from worker import run_pass  # noqa: E402


def test_self_time_subtracts_children_once():
    # 0: root [0, 10]; 1, 2: overlapping children [1, 3] and [2, 4] (as from
    # two threads); 3: grandchild [1.5, 2.5] under 1; 4: child [5, 6];
    # 5: child poking out of the root [9, 12] counts only up to 10.
    starts = [0.0, 1.0, 2.0, 1.5, 5.0, 9.0]
    ends = [10.0, 3.0, 4.0, 2.5, 6.0, 12.0]
    parents = [-1, 0, 0, 1, 0, 0]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1 - 1, 2 - 1, 2, 1, 1, 3])


def test_pass_time_sums_each_operations_lower_quartile(monkeypatch):
    monkeypatch.setattr(metrics, "STAGES", ("s1", "s2"))
    passes = [
        {"op_s": {"a": ["s1", 3.0], "b": ["s2", 1.0], "c": [None, 0.5]}},
        {"op_s": {"a": ["s1", 2.0], "b": ["s2", 4.0], "c": [None, 0.7]}},
        {"op_s": {"a": ["s1", 9.0], "b": ["s2", 2.0], "c": [None, 0.6]}},
    ]
    # Inclusive lower quartile of three samples: halfway from the fastest
    # to the second fastest.
    assert metrics.pass_s(passes) == pytest.approx(2.5 + 1.5 + 0.55)
    assert metrics.stage_times(passes) == pytest.approx({"s1": 2.5, "s2": 1.5})
    assert metrics.pass_s(passes[:1]) == pytest.approx(3.0 + 1.0 + 0.5)


@pytest.fixture
def fake_package(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .kern import eig\n")
    (pkg / "kern.py").write_text(
        textwrap.dedent(
            """
            __all__ = ["eig", "Box"]

            def eig(m):
                return m + 1

            class Box:
                def __init__(self, v):
                    self.v = v

                def size(self):
                    return self.v

                @classmethod
                def of(cls, v):
                    return cls(v)

                @property
                def twice(self):
                    return 2 * self.v
            """
        )
    )
    (pkg / "user.py").write_text(
        textwrap.dedent(
            """
            from .kern import Box, eig

            __all__ = ["use"]

            def use(m):
                return eig(m) + Box.of(m).size() + Box(m).twice
            """
        )
    )
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.user

    yield fakepkg
    for name in [n for n in sys.modules if n == "fakepkg" or n.startswith("fakepkg.")]:
        del sys.modules[name]


def test_tracer_sees_name_bound_imports_and_restores_originals(fake_package):
    kern, user = fake_package.kern, fake_package.user
    before = {
        "kern": dict(vars(kern)),
        "user": dict(vars(user)),
        "pkg": dict(vars(fake_package)),
        "Box": dict(vars(kern.Box)),
    }
    with Tracer("fakepkg") as tracer:
        assert user.use(3) == 4 + 3 + 6
    summary = tracer.summary()
    assert summary["kern.eig"]["calls"] == 1  # bound into user by name
    assert summary["user.use"]["calls"] == 1
    assert summary["kern.Box.of"]["calls"] == 1
    assert summary["kern.Box.__init__"]["calls"] == 2
    assert summary["kern.Box.size"]["calls"] == 1
    assert summary["kern.Box.twice"]["calls"] == 1
    names = [tracer.names[i] for i in tracer.name_id]
    use = names.index("user.use")
    assert tracer.parent[names.index("kern.eig")] == use
    after = {
        "kern": dict(vars(kern)),
        "user": dict(vars(user)),
        "pkg": dict(vars(fake_package)),
        "Box": dict(vars(kern.Box)),
    }
    for space, attrs in before.items():
        for attr, value in attrs.items():
            assert after[space][attr] is value, f"{space}.{attr} not restored"
    assert user.eig is kern.eig is fake_package.eig


def test_tracer_counts_sym_eig_called_through_objective():
    from bmlandscape import counterexample, matkernel, objective

    original = matkernel.sym_eig
    inst = counterexample.build(3, 2, 1)
    with Tracer("bmlandscape") as tracer:
        counterexample.verify_spurious(inst)
    summary = tracer.summary()
    assert summary["matkernel.sym_eig"]["calls"] >= 1
    assert summary["objective.QuadraticObjective.f_hess_matrix"]["calls"] == 1
    assert objective.sym_eig is original and matkernel.sym_eig is original


def test_runtime_warnings_are_counted_by_module(tmp_path):
    import numpy as np
    from bmlandscape import matkernel

    counter = RuntimeWarningCounter(Path(matkernel.__file__).parent)
    with counter.record():
        np.float64(1e308) * np.float64(10.0)
    assert counter.pop_counts() == {"other": 1}
    assert counter.layer_of(matkernel.__file__) == "matkernel"


def _export_ops(corrupt: bool):
    ops = [workloads.build_op("inst.json", 3, 2, 1)]
    out = "inst-ub.dat-s"
    ops.append(
        workloads.Op(
            "export",
            "export_sparse_s",
            lambda: workloads.cli.main(["export", "--instance", "inst.json", "--which", "ub", "--out", out]),
            workloads.check_export(out, 3, 2, 1, "ub"),
        )
    )
    if corrupt:

        def damage():
            lines = Path(out).read_text().splitlines()
            sizes = next(i for i, ln in enumerate(lines) if not ln.startswith("*")) + 2
            lines[sizes] = "9 " + lines[sizes]
            Path(out).write_text("\n".join(lines) + "\n")

        ops.append(workloads.Op("damage", None, damage))
    return ops


def test_corrupted_artifact_counts_as_failed_operation(tmp_path):
    counter = RuntimeWarningCounter(tmp_path)
    clean = run_pass(_export_ops(False), tmp_path / "clean", counter)
    assert clean["failures"] == [] and clean["attempted"] == 2
    assert clean["facts"]["sdpa_entries"] > 0

    damaged = run_pass(_export_ops(True), tmp_path / "damaged", counter)
    assert damaged["attempted"] == 3
    assert len(damaged["failures"]) == 1 and damaged["failures"][0].startswith("export:")
    assert damaged["digests"]["inst-ub.dat-s"] != clean["digests"]["inst-ub.dat-s"]

    checks, problems = metrics.run_checks({"passes": [clean, damaged]}, (), None)
    assert checks == 1 and len(problems) == 1


def test_benchmark_json_matches_metric_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(metrics.PER_LAYER)
