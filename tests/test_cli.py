import argparse
import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

import bmlandscape
from bmlandscape import __version__, certificates, cli, counterexample
from bmlandscape.cli import main


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SOURCE_DATE_EPOCH", raising=False)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def build_instance(capsys, tmp_path, n=5, r=3, rstar=2, name="inst.json"):
    path = tmp_path / name
    rc, _, _ = run(
        capsys, "build", "--n", str(n), "--r", str(r), "--rstar", str(rstar),
        "--out", str(path),
    )
    assert rc == 0
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.strip() == __version__


def run_module(*argv):
    """Run ``python -m bmlandscape`` in a fresh interpreter."""
    path = [os.path.dirname(os.path.dirname(bmlandscape.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "bmlandscape", *argv], capture_output=True, text=True, env=env
    )


def test_module_entry_point_prints_version():
    proc = run_module("--version")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.strip() == __version__


def test_module_entry_point_reports_bad_input_once(tmp_path):
    proc = run_module("verify", "--instance", str(tmp_path / "missing.json"))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# -- build -------------------------------------------------------------------


def test_build_stdout_record(capsys):
    rc, out, err = run(capsys, "build", "--n", "5", "--r", "3", "--rstar", "2")
    assert rc == 0 and err == ""
    record = json.loads(out)
    assert list(record)[0] == "manifest"
    assert record["manifest"]["subcommand"] == "build"
    assert record["manifest"]["version"] == __version__
    assert record["manifest"]["timestamp"] is None
    assert record["kind"] == "counterexample"
    assert record["kappa"] == pytest.approx(3.8284271247461903, abs=1e-15)


def test_build_reruns_are_byte_identical(capsys, tmp_path):
    p1 = build_instance(capsys, tmp_path, name="a.json")
    p2 = build_instance(capsys, tmp_path, name="a.json")  # same path, rerun
    assert p1 == p2
    first = p1.read_bytes()
    build_instance(capsys, tmp_path, name="b.json")
    assert (tmp_path / "b.json").read_bytes() != b""
    assert p1.read_bytes() == first


def test_build_honors_source_date_epoch(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "12345")
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    assert record["manifest"]["timestamp"] == 12345


def test_build_rejects_bad_epoch(capsys, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "yesterday")
    rc, _, err = run(capsys, "build", "--n", "5", "--r", "3", "--rstar", "2")
    assert rc == 2
    assert "SOURCE_DATE_EPOCH" in err


def test_build_rejects_bad_ranks(capsys):
    rc, _, err = run(capsys, "build", "--n", "3", "--r", "3", "--rstar", "1")
    assert rc == 2
    assert err.startswith("error:")


# -- verify ------------------------------------------------------------------


def test_verify_passes_on_built_instance(capsys, tmp_path):
    path = build_instance(capsys, tmp_path)
    rc, out, _ = run(capsys, "verify", "--instance", str(path))
    assert rc == 0
    record = json.loads(out)
    assert record["passed"] is True
    assert all(record["checks"].values())
    assert record["report"]["grad_norm"] <= 1e-9
    assert record["gap_formula"] == pytest.approx(1.5857864376269049, abs=1e-12)


def test_verify_random_basis_n10_passes_without_warnings(capsys, tmp_path):
    # a dense 60x60 Hessian; RuntimeWarnings are errors throughout tests/
    path = tmp_path / "inst.json"
    rc, _, _ = run(
        capsys, "build", "--n", "10", "--r", "6", "--rstar", "2",
        "--basis", "random", "--seed", "0", "--out", str(path),
    )
    assert rc == 0
    rc, out, err = run(capsys, "verify", "--instance", str(path))
    assert rc == 0 and err == ""
    assert json.loads(out)["passed"] is True


def test_verify_gap_exceeds_mu_reads_the_spectrum(capsys, tmp_path):
    # halved measurements scale f by 1/4 and mu from 1 to 1/4: the gap
    # 0.3964 is below 1 but above mu
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    record["objective"]["measurements"] = [
        [[0.5 * v for v in row] for row in a] for a in record["objective"]["measurements"]
    ]
    path.write_text(json.dumps(record))
    rc, out, _ = run(capsys, "verify", "--instance", str(path))
    report = json.loads(out)
    assert report["report"]["objective_value"] == pytest.approx(0.39644660940672627)
    assert report["checks"]["gap_exceeds_mu"] is True
    assert report["checks"]["gap_matches_formula"] is False
    assert rc == 1


@pytest.mark.parametrize("tol", ["-1", "nan", "inf", "-inf"])
def test_verify_rejects_invalid_tol(capsys, tmp_path, tol):
    path = build_instance(capsys, tmp_path)
    report = tmp_path / "report.json"
    rc, out, err = run(capsys, "verify", "--instance", str(path), f"--tol={tol}", "--out", str(report))
    assert rc == 2 and out == ""
    assert err.startswith("error: tol must be finite and nonnegative") and err.count("\n") == 1
    assert not report.exists()


def test_verify_accepts_zero_tol(capsys, tmp_path):
    # a valid tolerance the built point does not meet: the checks run and fail
    path = build_instance(capsys, tmp_path)
    rc, out, err = run(capsys, "verify", "--instance", str(path), "--tol", "0")
    assert rc == 1 and err == ""
    record = json.loads(out)
    assert record["manifest"]["parameters"] == {"tol": 0.0}
    assert record["report"]["grad_tol"] == 0.0 and record["passed"] is False


def test_verify_fails_on_tampered_instance(capsys, tmp_path):
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    record["x_spur"][0][0] += 0.05
    path.write_text(json.dumps(record))
    out_path = tmp_path / "report.json"
    rc, _, _ = run(
        capsys, "verify", "--instance", str(path), "--out", str(out_path)
    )
    assert rc == 1
    report = json.loads(out_path.read_text())
    assert report["passed"] is False
    assert report["checks"]["first_order"] is False


def test_verify_checks_kappa_against_the_spectrum(capsys, tmp_path):
    path = build_instance(capsys, tmp_path)
    rc, out, _ = run(capsys, "verify", "--instance", str(path))
    assert rc == 0
    assert json.loads(out)["checks"]["kappa_matches_spectrum"] is True
    # a rescaled measurement moves L/mu; the record still claims 1 + 2 sqrt(q)
    record = json.loads(path.read_text())
    record["objective"]["measurements"][0] = [
        [2.0 * v for v in row] for row in record["objective"]["measurements"][0]
    ]
    path.write_text(json.dumps(record))
    rc, out, _ = run(capsys, "verify", "--instance", str(path))
    assert rc == 1
    report = json.loads(out)
    assert report["checks"]["kappa_matches_spectrum"] is False
    assert report["passed"] is False


def test_verify_missing_file(capsys, tmp_path):
    rc, _, err = run(capsys, "verify", "--instance", str(tmp_path / "nope.json"))
    assert rc == 2
    assert "nope.json" in err


def test_verify_malformed_json_reports_location(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "counterexample",\n???\n}')
    rc, _, err = run(capsys, "verify", "--instance", str(path))
    assert rc == 2
    assert "invalid JSON" in err and "line 2" in err


def test_verify_wrong_record_kind(capsys, tmp_path):
    path = tmp_path / "other.json"
    path.write_text('{"kind": "something-else"}')
    rc, _, err = run(capsys, "verify", "--instance", str(path))
    assert rc == 2
    assert "not a counterexample" in err


# -- instance files that load but are not usable ------------------------------


def instance_subcommand(name, path, tmp_path):
    return {
        "verify": ["verify", "--instance", str(path)],
        "bounds": ["bounds", "--instance", str(path)],
        "export": [
            "export", "--instance", str(path), "--which", "ub",
            "--out", str(tmp_path / "cert.dat-s"),
        ],
        "trials": [
            "trials", "--instance", str(path), "--search-rank", "3",
            "--trials", "2", "--max-iters", "5",
        ],
    }[name]


SUBCOMMANDS = ("verify", "bounds", "export", "trials")


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("payload", ["[]", '"x"', "5", "null"])
def test_non_object_instance_is_input_error(capsys, tmp_path, command, payload):
    path = tmp_path / "inst.json"
    path.write_text(payload)
    rc, _, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "not a counterexample" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("field", ["x_spur", "z", "Z"])
def test_overflowing_factor_gram_is_input_error(capsys, tmp_path, command, field):
    # entries of 1e160 are finite, their products are not; RuntimeWarnings
    # are errors throughout tests/, so none may be raised on the way
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    record = json.loads(path.read_text())
    owner = record["objective"] if field == "Z" else record
    owner[field] = [[1e160 * v for v in row] for row in owner[field]]
    path.write_text(json.dumps(record))
    rc, _, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "overflows" in err
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("field", ["n", "r", "r_star", "q", "z"])
def test_record_field_disagreeing_with_matrices_is_input_error(
    capsys, tmp_path, command, field
):
    # each stored copy of a fact the matrices determine, tampered alone
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    if field == "z":
        record["z"][0][0] += 0.5
    else:
        record[field] += 1
    path.write_text(json.dumps(record))
    rc, _, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and f"record field {field}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize(
    "field,value",
    [
        ("seed", 1.5), ("seed", 0.0), ("seed", True), ("seed", "5"), ("seed", None),
        ("kappa", "3.8284271247461903"), ("kappa", True), ("kappa", None),
    ],
)
def test_seed_and_kappa_of_wrong_json_type_are_input_errors(
    capsys, tmp_path, command, field, value
):
    # no coercion: int(1.5), int(True), float("3.8...") would all load
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    record[field] = value
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and f"record field {field}=" in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_rank_below_target_rank_is_input_error(capsys, tmp_path, command):
    # build(6,3,3) cut to one column of x_spur: the stored r=1 and q=-1 agree
    # with the matrices, but no instance has r < r_star
    path = build_instance(capsys, tmp_path, n=6, r=3, rstar=3)
    record = json.loads(path.read_text())
    record["x_spur"] = [row[:1] for row in record["x_spur"]]
    record["r"], record["q"] = 1, -1
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "r=1 below r_star=3 (q=-1)" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_kappa_off_the_construction_is_input_error(capsys, tmp_path, command):
    # a built record must claim exactly 1 + 2 sqrt(q); one ulp above is a lie
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    record["kappa"] = math.nextafter(record["kappa"], 10.0)
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "record field kappa=" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_kappa_beyond_float_range_is_input_error(capsys, tmp_path, command):
    # a 400-digit JSON integer is compared as an integer, never converted
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    record["kappa"] = 10**400
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "record field kappa=1000" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("case", ["relabelled", "wide"])
def test_record_build_could_not_write_is_input_error(capsys, tmp_path, command, case):
    # relabelled: a basis mode build has no kappa rule for, with kappa 2.0;
    # wide: x_spur of build(6,3,3) zero-padded to 7 columns, every stored
    # copy consistent with it, but r >= n
    path = build_instance(capsys, tmp_path, n=6, r=3, rstar=3)
    record = json.loads(path.read_text())
    if case == "relabelled":
        record["basis_mode"], record["kappa"] = "custom", 2.0
        message = "record field basis_mode='custom'"
    else:
        record["x_spur"] = [row + [0.0] * 4 for row in record["x_spur"]]
        record["r"], record["q"], record["kappa"] = 7, 5, 1.0 + 2.0 * math.sqrt(5)
        message = "r=7, n=6"
    path.write_text(json.dumps(record))
    argv = instance_subcommand(command, path, tmp_path)
    if command == "trials":  # at the record's own rank, which trials accepts
        argv[argv.index("--search-rank") + 1] = str(len(record["x_spur"][0]))
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


# measurement stacks that do not parse to one (m, n, n) array of numbers
MALFORMED_STACKS = {
    "ragged-row": lambda m: [[m[0][0], m[0][1][:-1], *m[0][2:]], *m[1:]],
    "mixed-shapes": lambda m: [[row[:2] for row in m[0][:2]], *m[1:]],
    "2-d": lambda m: m[0],
    "4-d": lambda m: [m],
    "empty": lambda m: [],
    "string-entry": lambda m: [[m[0][0], [m[0][1][0], "x", *m[0][1][2:]], *m[0][2:]], *m[1:]],
}


@pytest.mark.parametrize("command", ["verify", "export"])
@pytest.mark.parametrize("case", list(MALFORMED_STACKS))
def test_malformed_measurement_stack_is_input_error(capsys, tmp_path, command, case):
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    objective = record["objective"]
    objective["measurements"] = MALFORMED_STACKS[case](objective["measurements"])
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


# every field the loader reads; "kind" has its own message and "manifest"
# is not read
RECORD_FIELDS = [
    ("top", name)
    for name in (
        "n", "r", "r_star", "q", "kappa", "basis_mode", "seed", "basis",
        "x_spur", "z", "objective",
    )
] + [("objective", name) for name in ("n", "r_star", "Z", "measurements")]


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("owner,field", RECORD_FIELDS)
def test_missing_record_field_is_named(capsys, tmp_path, command, owner, field):
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    del (record["objective"] if owner == "objective" else record)[field]
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err == f"error: {path}: record is missing field '{field}'\n"
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize(
    "owner,field,value",
    [
        # each equals the built (4, 2, 1) record's value as a number
        ("top", "n", 4.0), ("top", "r", 2.0), ("top", "r_star", True),
        ("top", "q", 2.0), ("objective", "n", "4"), ("objective", "n", 4.0),
        ("objective", "r_star", True), ("objective", "r_star", 1.9),
    ],
)
def test_integer_field_of_wrong_json_type_is_input_error(
    capsys, tmp_path, command, owner, field, value
):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    record = json.loads(path.read_text())
    (record["objective"] if owner == "objective" else record)[field] = value
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:")
    assert f"field {field}={value!r} is not" in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("matrix", ["x_spur", "z", "basis", "Z", "measurements"])
def test_matrix_entry_spelled_as_string_is_input_error(
    capsys, tmp_path, command, matrix
):
    # a number written as a JSON string, e.g. "1.0", is not a number
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    rows = (record["objective"] if matrix in ("Z", "measurements") else record)[matrix]
    if matrix == "measurements":
        rows = rows[0]
    rows[0][0] = repr(rows[0][0])
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "entries must be JSON numbers" in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


@pytest.mark.parametrize("command", SUBCOMMANDS)
@pytest.mark.parametrize("matrix", ["x_spur", "z", "basis", "Z", "measurements"])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_matrix_entry_is_input_error(capsys, tmp_path, command, matrix, flag):
    # numpy parses [[1.0, false]] as floats, reading false as 0.0
    path = build_instance(capsys, tmp_path)
    record = json.loads(path.read_text())
    rows = (record["objective"] if matrix in ("Z", "measurements") else record)[matrix]
    if matrix == "measurements":
        rows = rows[-1]
    rows[-1][-1] = flag
    path.write_text(json.dumps(record))
    rc, out, err = run(capsys, *instance_subcommand(command, path, tmp_path))
    assert rc == 2
    assert err.startswith("error:") and "entries must be JSON numbers" in err
    assert "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "cert.dat-s").exists()


# -- bounds ------------------------------------------------------------------


def test_bounds_from_instance(capsys, tmp_path):
    path = build_instance(capsys, tmp_path)
    rc, out, _ = run(capsys, "bounds", "--instance", str(path))
    assert rc == 0
    record = json.loads(out)
    assert record["alpha"] == pytest.approx(0.8628562094610168, abs=1e-12)
    assert record["kappa_lb"] == pytest.approx(3.82842712474619, abs=1e-10)
    assert record["branch"] == "second"
    assert record["valid_inequality"]["holds"] is True
    assert record["kappa_star_window"][1] == pytest.approx(3.8284271247461903)


def test_bounds_from_scalars(capsys):
    rc, out, _ = run(
        capsys, "bounds",
        "--alpha", "0.8944271909999159", "--beta", "0.4472135954999579",
    )
    assert rc == 0
    record = json.loads(out)
    assert record["kappa_lb"] == pytest.approx(3.0, abs=1e-9)
    assert "valid_inequality" not in record


def test_bounds_with_ranks_adds_inequality(capsys):
    rc, out, _ = run(
        capsys, "bounds", "--alpha", "0.5", "--beta", "0.5", "--r", "3", "--rstar", "2",
    )
    assert rc == 0
    record = json.loads(out)
    assert set(record["valid_inequality"]) == {"holds", "slack", "min_alpha_beta"}
    assert record["kappa_star_window"][0] <= record["kappa_star_window"][1]


def test_bounds_unbounded_kappa_is_null(capsys):
    # beta = 0 on the interior branch certifies nothing finite
    rc, out, _ = run(capsys, "bounds", "--alpha", "0.5", "--beta", "0")
    assert rc == 0
    record = json.loads(out)
    assert record["degenerate"] is False
    assert record["kappa_lb"] is None  # infinite bound serializes as null


def test_bounds_underflowing_denominator_is_null(capsys):
    # (alpha - beta) * beta underflows to 0.0 on the interior branch
    rc, out, err = run(capsys, "bounds", "--alpha", "1e-160", "--beta", "1e-170")
    assert rc == 0 and err == ""
    record = json.loads(out)
    assert record["branch"] == "second"
    assert record["kappa_lb"] is None
    assert record["gamma"] == 1.0


def test_bounds_scalar_zero_alpha_is_input_error(capsys):
    rc, _, err = run(capsys, "bounds", "--alpha", "0", "--beta", "0.5")
    assert rc == 2
    assert "alpha must be positive" in err


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_bounds_rejects_non_finite_beta(capsys, beta):
    rc, out, err = run(capsys, "bounds", "--alpha", "0.5", f"--beta={beta}")
    assert rc == 2 and out == ""
    assert err.startswith("error: beta must be finite")


def test_bounds_instance_at_large_joint_scale_is_finite(capsys, tmp_path):
    # x_spur, z and the objective's Z scaled by 1e77 and by 1e150 load, and
    # ||X X^T - Z Z^T||_F^2 overflows float64 for both; kappa_lb does not
    # change.  A RuntimeWarning on the way fails the test
    built = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    _, out, _ = run(capsys, "bounds", "--instance", str(built))
    unscaled = json.loads(out)["kappa_lb"]
    for scale in (1e77, 1e150):
        record = json.loads(built.read_text())
        for holder, key in ((record, "x_spur"), (record, "z"), (record["objective"], "Z")):
            holder[key] = [[scale * v for v in row] for row in holder[key]]
        path = tmp_path / f"scaled-{scale}.json"
        path.write_text(json.dumps(record))
        rc, out, err = run(capsys, "bounds", "--instance", str(path))
        assert rc == 0 and err == ""
        assert json.loads(out)["kappa_lb"] == pytest.approx(unscaled, rel=1e-15, abs=0.0)


def test_bounds_instance_at_small_joint_scale_is_finite(capsys, tmp_path):
    # x_spur, z and the objective's Z scaled by 1e-6 put lam_min(X^T X) near
    # 1e-12, and by 3e-7 every residual entry below 1e-12; alpha, beta and
    # kappa_lb do not change
    built = build_instance(capsys, tmp_path)
    _, out, _ = run(capsys, "bounds", "--instance", str(built))
    unscaled = json.loads(out)
    for scale in (1e-6, 3e-7):
        record = json.loads(built.read_text())
        for holder, key in ((record, "x_spur"), (record, "z"), (record["objective"], "Z")):
            holder[key] = [[scale * v for v in row] for row in holder[key]]
        path = tmp_path / f"scaled-{scale}.json"
        path.write_text(json.dumps(record))
        rc, out, err = run(capsys, "bounds", "--instance", str(path))
        assert rc == 0 and err == ""
        report = json.loads(out)
        assert report["kappa_lb"] is not None and math.isfinite(report["kappa_lb"])
        for key in ("alpha", "beta", "kappa_lb"):
            assert report[key] == pytest.approx(unscaled[key], rel=1e-12, abs=0.0)


def test_bounds_flag_conflicts(capsys, tmp_path):
    path = build_instance(capsys, tmp_path)
    rc, _, err = run(
        capsys, "bounds", "--instance", str(path), "--alpha", "0.5"
    )
    assert rc == 2 and "not both" in err
    rc, _, err = run(capsys, "bounds", "--alpha", "0.5")
    assert rc == 2 and "both --alpha and --beta" in err
    rc, _, err = run(capsys, "bounds", "--alpha", "0.5", "--beta", "0.5", "--r", "3")
    assert rc == 2 and "together" in err


@pytest.mark.parametrize("ranks", [["--r", "9", "--rstar", "1"], ["--r", "9"], ["--rstar", "1"]])
def test_bounds_rejects_ranks_with_instance(capsys, tmp_path, ranks):
    # the instance sets its own ranks; --r/--rstar would be ignored
    path = build_instance(capsys, tmp_path)
    report = tmp_path / "bounds.json"
    rc, out, err = run(capsys, "bounds", "--instance", str(path), *ranks, "--out", str(report))
    assert rc == 2 and out == ""
    assert err == "error: --r/--rstar go with --alpha/--beta, not --instance\n"
    assert not report.exists()


# -- ey ------------------------------------------------------------------------


def test_ey_reference_values(capsys):
    rc, out, _ = run(capsys, "ey", "--s", "3,2,1", "--d", "0.5,1.5", "--brute-force")
    assert rc == 0
    record = json.loads(out)
    assert record["value"] == pytest.approx(7.5, abs=1e-12)
    assert record["weights"] == pytest.approx([2.5, 0.5], abs=1e-12)
    assert record["agrees"] is True
    assert record["brute_force_value"] == pytest.approx(7.5, abs=1e-12)


def test_ey_huge_target_with_small_penalty_is_finite(capsys):
    # s^2 - (s - d)^2 = d (2s - d) = 1e200, though s^2 overflows float64
    rc, out, err = run(capsys, "ey", "--s", "1e200", "--d", "0.5")
    assert rc == 0 and err == ""
    assert json.loads(out)["value"] == 1e200


def test_ey_overflowing_values_agree(capsys):
    # solver and oracle both overflow to inf: equal values agree, and
    # nothing warns or subtracts inf from inf
    rc, out, err = run(capsys, "ey", "--s", "1e300,1e300", "--d", "0.5", "--brute-force")
    assert rc == 0 and err == ""
    record = json.loads(out)
    assert record["value"] is None and record["brute_force_value"] is None
    assert record["agrees"] is True


def test_ey_agreement_is_relative(capsys):
    # solver and oracle sum the same terms in a different order: 4.7e-10
    # apart, which is 1.8e-16 of the value
    rc, out, _ = run(
        capsys, "ey", "--s", "2770.1721849571377,2770.1721849571345",
        "--d", "247.5738511663004,249.45996397365494", "--brute-force",
    )
    assert rc == 0
    record = json.loads(out)
    assert record["value"] != record["brute_force_value"]
    assert record["agrees"] is True


def test_ey_rejects_unsorted_spectrum(capsys):
    rc, _, err = run(capsys, "ey", "--s", "1,2,3", "--d", "0.5,1.5")
    assert rc == 2
    assert err.startswith("error:")


def test_ey_rejects_unparseable_floats(capsys):
    rc, _, err = run(capsys, "ey", "--s", "3,two,1", "--d", "0.5")
    assert rc == 2
    assert "--s" in err


# -- trials ----------------------------------------------------------------------


def trials_args(path, *extra):
    return [
        "trials", "--instance", str(path), "--search-rank", "3",
        "--trials", "4", "--max-iters", "50", "--seed", "7",
    ] + list(extra)


def test_trials_stdout_csv(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    rc, out, _ = run(capsys, *trials_args(path))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# manifest: ")
    assert lines[1] == "trial,seed,outcome,final_f,final_grad_norm,dist_to_spur,iters"
    assert len(lines) == 6
    manifest = json.loads(lines[0][len("# manifest: "):])
    assert manifest["subcommand"] == "trials"
    assert "threads" not in manifest["parameters"]


def test_trials_files_and_summary(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    csv_path = tmp_path / "runs.csv"
    summary_path = tmp_path / "runs.json"
    rc, out, _ = run(
        capsys,
        *trials_args(path, "--csv", str(csv_path), "--summary", str(summary_path)),
    )
    assert rc == 0 and out == ""
    summary = json.loads(summary_path.read_text())
    assert summary["trials"] == 4
    assert summary["successes"] + summary["stuck"] + summary["undetermined"] == 4
    assert csv_path.read_text().count("\n") == 6


def test_trials_summary_to_stdout_when_csv_redirected(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    csv_path = tmp_path / "runs.csv"
    rc, out, _ = run(capsys, *trials_args(path, "--csv", str(csv_path)))
    assert rc == 0
    assert json.loads(out)["trials"] == 4


def test_trials_rejects_search_rank_below_instance(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    rc, _, err = run(
        capsys, "trials", "--instance", str(path), "--search-rank", "1",
    )
    assert rc == 2
    assert "search_rank" in err


# -- export ------------------------------------------------------------------------


def test_export_embeds_manifest_and_comments(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    out_path = tmp_path / "cert.dat-s"
    rc, _, _ = run(
        capsys, "export", "--instance", str(path), "--which", "ub",
        "--out", str(out_path), "--comment", "batch 9",
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("* manifest: ")
    assert lines[1] == "* batch 9"
    parsed = certificates.parse_sdpa(out_path.read_text())
    assert parsed["m"] == 2 + 16 * 17 // 2
    assert parsed["c"][:2] == [1.0, -1.0]


def test_export_comments_do_not_carry_between_calls(capsys, tmp_path):
    # main reuses one parser; each call must see only its own --comment values
    path = build_instance(capsys, tmp_path, n=3, r=2, rstar=1)
    for name, comment in (("a.dat-s", "first"), ("b.dat-s", "second")):
        rc, _, _ = run(
            capsys, "export", "--instance", str(path), "--which", "ub",
            "--out", str(tmp_path / name), "--comment", comment,
        )
        assert rc == 0
    for name, comment in (("a.dat-s", "first"), ("b.dat-s", "second")):
        lines = (tmp_path / name).read_text().splitlines()
        assert [ln for ln in lines if ln.startswith("*")][1:] == [f"* {comment}"]


def test_export_reruns_byte_identical(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    out_path = tmp_path / "cert.dat-s"
    assert run(
        capsys, "export", "--instance", str(path), "--which", "lb", "--out", str(out_path)
    )[0] == 0
    first = out_path.read_bytes()
    assert run(
        capsys, "export", "--instance", str(path), "--which", "lb", "--out", str(out_path)
    )[0] == 0
    assert out_path.read_bytes() == first


# sha256 of the files the subcommands write, run from the output directory
# so the manifests carry relative paths; trials passes only the flags below,
# so its manifest carries every other default.  The first three were computed
# before the report fields, the trials flags and their defaults were each given
# one definition, the rest before the manifests were derived from the parsed
# arguments.
CLI_SHA256 = {
    "verify.json": "6823d8c6dcde3d2316da36d14830f5a1eb90d80e41da954a13f4dd2a4c1a94b3",
    "runs.csv": "e9ed1449d14b26d3211185e204d9694438fa8fb907cb44646beff3f6fb2719da",
    "runs.json": "d96ddff2b7a70680bf7c855397e7527e5be1c79eaea7a55f91c49ee2dfd328ed",
    "random.json": "c650c7b7d53b9621654586a38db65ef32e3279ac8c391b2ec4fd124045329ff2",
    "bounds-instance.json": "b46711ec6ff07e960c45c472951895ce7bca15459b99305c6c4f5ca7536c6b16",
    "bounds-ab.json": "d480cd4672db5e3fb9c5af8de3fbff3d8fed251eea29f38ae086154d64d33984",
    "bounds-ab-r.json": "c2d29e09d28cbb31f3ac94ebd3aa17fc7f5486b28ae933808c090317517438b5",
    "ey.json": "b5d95c276f1e25aa76a9677740482f8d93e6c42742b8732a75fe005789f93926",
    "ub.dat-s": "2438bb70ee55d44fe1b785bb566d2f793325f4cb8a9683219746d4634c190ac5",
    "lb.dat-s": "fbef748fcbbccd799cbbc4629f1f287df19813e0fd46aa2fe0ab617ff1c9a669",
    "epoch.json": "d281b16c067538a4acfe1ed37b3694654f04f4341f972767040b549465751612",
}


def test_cli_output_bytes_pinned(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, dims in (("inst532.json", ("5", "3", "2")), ("inst421.json", ("4", "2", "1"))):
        argv = ["build", "--n", dims[0], "--r", dims[1], "--rstar", dims[2], "--out", name]
        assert run(capsys, *argv)[0] == 0
    assert run(capsys, "verify", "--instance", "inst532.json", "--out", "verify.json")[0] == 0
    rc, out, _ = run(
        capsys, "trials", "--instance", "inst421.json", "--search-rank", "2",
        "--trials", "4", "--max-iters", "50", "--csv", "runs.csv", "--summary", "runs.json",
    )
    assert rc == 0 and out == ""
    runs = (
        ("build", "--n", "6", "--r", "4", "--rstar", "2", "--basis", "random", "--seed", "3",
         "--out", "random.json"),
        ("bounds", "--instance", "inst532.json", "--out", "bounds-instance.json"),
        ("bounds", "--alpha", "0.5", "--beta", "0.25", "--out", "bounds-ab.json"),
        ("bounds", "--alpha", "0.5", "--beta", "0.25", "--r", "3", "--rstar", "2",
         "--out", "bounds-ab-r.json"),
        ("ey", "--s", "3,2,1", "--d", "0.5,1.5", "--brute-force", "--out", "ey.json"),
        *(("export", "--instance", "inst421.json", "--which", which, "--out", f"{which}.dat-s",
           "--comment", "first line", "--comment", "second line") for which in ("ub", "lb")),
    )
    for argv in runs:
        assert run(capsys, *argv) == (0, "", "")
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    assert run(capsys, "verify", "--instance", "inst421.json", "--out", "epoch.json")[0] == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in CLI_SHA256
    }
    assert digests == CLI_SHA256


# -- malformed input never ends in a traceback --------------------------------

# Letters that spell no number, not even "inf" or "nan".
WORD = st.text(alphabet="abxyz", min_size=1, max_size=4)
# JSON values that no field of an instance record accepts.
JUNK = st.recursive(
    st.one_of(st.none(), WORD, st.sampled_from([math.inf, -math.inf, math.nan])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(WORD, inner, max_size=2)
    ),
    max_leaves=6,
)
# Every field the loader reads, then one entry of each matrix.
RECORD_FIELDS = (
    ("kind",), ("n",), ("r",), ("r_star",), ("q",), ("kappa",), ("seed",),
    ("basis_mode",), ("basis",), ("x_spur",), ("z",), ("objective",), ("objective", "n"),
    ("objective", "r_star"), ("objective", "Z"), ("objective", "measurements"),
)
MATRIX_ENTRIES = (
    ("basis", 1, 1), ("x_spur", 0, 0), ("z", 2, 0), ("objective", "Z", 0, 0),
    ("objective", "measurements", 0, 1, 1),
)
GOOD_RECORD = counterexample.build(3, 2, 1).to_obj()


@st.composite
def malformed_records(draw):
    """JSON text of a built record with one field or entry broken."""
    record = copy.deepcopy(GOOD_RECORD)
    path = draw(st.sampled_from(RECORD_FIELDS + MATRIX_ENTRIES))
    owner = record
    for key in path[:-1]:
        owner = owner[key]
    if path in RECORD_FIELDS and draw(st.booleans()):
        del owner[path[-1]]
    else:
        owner[path[-1]] = draw(JUNK)
    return json.dumps(record)


# None stands for a file that does not exist.
MALFORMED_FILES = st.one_of(
    malformed_records(),
    st.binary(max_size=40),
    st.text(max_size=40),
    st.sampled_from([None, "", '{"kind": "counterexample"}']),
)

# Malformed flags; {good} names a built (3, 2, 1) record, {dir} a scratch
# directory.  Trials that got past validation would stop after 5 steps.
TRIALS = ["trials", "--instance", "{good}", "--search-rank", "2", "--trials", "2", "--max-iters", "5"]
MALFORMED_FLAGS = [
    ["build", "--n", "3", "--r", "2", "--rstar", "1", "--basis", "spiral"],
    ["build", "--n", "3", "--r", "2", "--rstar", "1", "--basis", "random", "--seed", "-1"],
    ["verify", "--instance", "{good}", "--tol", "x"],
    ["bounds", "--instance", "{good}", "--alpha", "0.5", "--beta", "0.3"],
    ["bounds", "--alpha", "0.5"],
    ["bounds", "--alpha", "0.5", "--beta", "0.3", "--r", "2"],
    ["bounds", "--alpha", "1.5", "--beta", "0.3"],
    ["bounds", "--alpha", "0", "--beta", "0.3"],
    ["bounds", "--alpha", "0.5", "--beta", "-1"],
    ["bounds", "--alpha", "0.5", "--beta", "0.3", "--r", "1", "--rstar", "2"],
    TRIALS + ["--search-rank", "1"],
    TRIALS + ["--trials", "0"],
    TRIALS + ["--lr", "0"],
    TRIALS + ["--lr", "inf"],
    TRIALS + ["--momentum", "1"],
    TRIALS + ["--radius", "-0.1"],
    TRIALS + ["--max-iters", "-1"],
    TRIALS + ["--seed", "-1"],
    TRIALS + ["--success-tol", "0.5"],
    TRIALS + ["--stuck-tol", "nan"],
    TRIALS + ["--threads", "0"],
    ["ey", "--s", "1,2", "--d", "1"],
    ["ey", "--s", "3,2", "--d", "2,1"],
    ["ey", "--s", "3,2", "--d", "1,2,3"],
    ["ey", "--s", "3,-2", "--d", "1"],
    ["ey", "--s", "3,2", "--d", "nan"],
    ["ey", "--s", ",", "--d", "1"],
    ["ey", "--s", "9,8,7,6,5,4,3,2", "--d", "1", "--brute-force"],
    ["export", "--instance", "{good}", "--which", "mid", "--out", "{dir}/cert.dat-s"],
    ["export", "--instance", "{good}", "--which", "ub", "--out", "{dir}/none/cert.dat-s"],
    # a line break in an SDPA comment would write a stray header line
    ["export", "--instance", "{good}", "--which", "ub", "--out", "{dir}/cert.dat-s", "--comment", "hello\n7"],
    ["export", "--instance", "{good}", "--which", "lb", "--out", "{dir}/cert.dat-s", "--comment", "a\rb"],
    [], ["solve"], ["verify"], ["build", "--n", "3"],
]
# sizes whose arrays cannot be allocated fail at once, allocating nothing;
# the error line names the subcommand's size flags with their values
OVERSIZED = [
    (TRIALS + ["--search-rank", "1000000000000000"], "error: trials --search-rank 1000000000000000 --trials 2: "),
    (TRIALS + ["--trials", "1000000000000000"], "error: trials --search-rank 2 --trials 1000000000000000: "),
    (["build", "--n", "100000000", "--r", "2", "--rstar", "1"], "error: build --n 100000000 --r 2 --rstar 1: "),
]
MALFORMED_FLAGS += [argv for argv, _ in OVERSIZED]


@st.composite
def malformed_flags(draw):
    """A malformed argv for one of the subcommands, beyond the listed ones."""
    if draw(st.booleans()):  # ranks outside 1 <= r* <= r < n
        rank = st.integers(-2, 6)
        n, r, rs = draw(
            st.tuples(rank, rank, rank).filter(lambda t: not 1 <= t[2] <= t[1] < t[0])
        )
        return ["build", "--n", str(n), "--r", str(r), "--rstar", str(rs)]
    # a word where a number belongs
    argv = list(draw(st.sampled_from([
        ["build", "--n", "3", "--r", "2", "--rstar", "1", "--seed", None],
        ["build", "--n", None, "--r", "2", "--rstar", "1"],
        ["bounds", "--alpha", None, "--beta", "0.3"],
        TRIALS + ["--lr", None],
        ["ey", "--s", None, "--d", "1"],
    ])))
    argv[argv.index(None)] = draw(WORD)
    return argv


def _run_malformed(argv, text=None):
    """Run the CLI on *argv*, where {bad} names a file of *text*; check it
    exits 2 with an error line, no traceback, and no output; return stderr."""
    with tempfile.TemporaryDirectory() as work:
        good, bad = os.path.join(work, "good.json"), os.path.join(work, "bad.json")
        with open(good, "w", encoding="utf-8") as fh:
            json.dump(GOOD_RECORD, fh)
        if text is not None:
            with open(bad, "wb") as fh:
                fh.write(text if isinstance(text, bytes) else text.encode("utf-8"))
        argv = [a.replace("{good}", good).replace("{bad}", bad).replace("{dir}", work) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
        wrote = os.path.exists(os.path.join(work, "cert.dat-s"))
    assert rc == 2, (argv, err.getvalue())
    assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert out.getvalue() == "" and not wrote
    return err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(SUBCOMMANDS), text=MALFORMED_FILES)
@example(command="verify", text=json.dumps(dict(GOOD_RECORD, seed=math.inf)))
@example(command="export", text="[" * 100_000)
def test_malformed_instance_file_exits_2(command, text):
    argv = {
        "verify": ["verify"],
        "bounds": ["bounds"],
        "trials": TRIALS[:1] + TRIALS[3:],
        "export": ["export", "--which", "ub", "--out", "{dir}/cert.dat-s"],
    }[command]
    _run_malformed(argv + ["--instance", "{bad}"], text)


@pytest.mark.parametrize("argv", MALFORMED_FLAGS)
def test_listed_malformed_flags_exit_2(argv):
    _run_malformed(argv)


def test_max_iters_beyond_int64_is_named_in_the_error():
    # the engine counts iterations in int64, so a larger budget is an input
    # error, not an OverflowError from the engine
    err = _run_malformed(TRIALS + ["--max-iters", str(10**30)])
    assert err.startswith("error: max_iters must be nonnegative")


@pytest.mark.parametrize("argv,prefix", OVERSIZED, ids=["search-rank", "trials", "build-n"])
def test_oversized_flags_are_named_in_the_error(argv, prefix):
    err = _run_malformed(argv)
    assert err.startswith(prefix) and "Unable to allocate" in err


def test_memory_error_names_the_size_flags_as_typed(capsys, monkeypatch):
    # ey writes its parsed spectra back into args for the manifest; the error
    # line still shows the flags' text
    def fail(problem):
        raise MemoryError("Unable to allocate")

    monkeypatch.setattr(cli.eckart_young, "solve", fail)
    rc, out, err = run(capsys, "ey", "--s", "3, 2,1", "--d", "0.5")
    assert (rc, out, err) == (2, "", "error: ey --s 3, 2,1 --d 0.5: Unable to allocate\n")


# a minimal valid argv of each subcommand; parsing it runs no handler
MINIMAL_ARGV = {
    "build": ["--n", "2", "--r", "1", "--rstar", "1"],
    "verify": ["--instance", "inst.json"],
    "bounds": ["--alpha", "0.5", "--beta", "0.25"],
    "trials": ["--instance", "inst.json", "--search-rank", "1"],
    "ey": ["--s", "1", "--d", "1"],
    "export": ["--instance", "inst.json", "--which", "ub", "--out", "cert.dat-s"],
}


def test_every_subcommand_maps_its_outputs_to_parsed_dests():
    # the manifest reads each output's path from the dest its outputs map
    # names; a subcommand without the map would end in a traceback
    sub = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(MINIMAL_ARGV)
    for command, argv in MINIMAL_ARGV.items():
        args = cli._PARSER.parse_args([command, *argv])
        assert args.outputs and set(args.outputs.values()) <= set(vars(args))
        manifest = cli._manifest(args)
        assert manifest["subcommand"] == command
        assert set(manifest["outputs"]) == set(args.outputs)
        assert not set(manifest["parameters"]) & cli._NOT_PARAMETERS


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(malformed_flags())
def test_malformed_flags_exit_2(argv):
    _run_malformed(argv)
