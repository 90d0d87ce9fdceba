import contextlib
import copy
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from bmlandscape import __version__, certificates, counterexample
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


def test_bounds_scalar_zero_alpha_is_input_error(capsys):
    rc, _, err = run(capsys, "bounds", "--alpha", "0", "--beta", "0.5")
    assert rc == 2
    assert "alpha must be positive" in err


@pytest.mark.parametrize("beta", ["nan", "inf", "-inf"])
def test_bounds_rejects_non_finite_beta(capsys, beta):
    rc, out, err = run(capsys, "bounds", "--alpha", "0.5", f"--beta={beta}")
    assert rc == 2 and out == ""
    assert err.startswith("error: beta must be finite")


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


# -- ey ------------------------------------------------------------------------


def test_ey_reference_values(capsys):
    rc, out, _ = run(capsys, "ey", "--s", "3,2,1", "--d", "0.5,1.5", "--brute-force")
    assert rc == 0
    record = json.loads(out)
    assert record["value"] == pytest.approx(7.5, abs=1e-12)
    assert record["weights"] == pytest.approx([2.5, 0.5], abs=1e-12)
    assert record["agrees"] is True
    assert record["brute_force_value"] == pytest.approx(7.5, abs=1e-12)


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


def test_trials_csv_identical_across_thread_flags(capsys, tmp_path):
    path = build_instance(capsys, tmp_path, n=4, r=2, rstar=1)
    c1 = tmp_path / "t1.csv"
    c2 = tmp_path / "t2.csv"
    assert run(capsys, *trials_args(path, "--threads", "1", "--csv", str(c1)))[0] == 0
    assert run(capsys, *trials_args(path, "--threads", "3", "--csv", str(c2)))[0] == 0
    b1, b2 = c1.read_bytes(), c2.read_bytes()
    # embedded manifests cite their own output paths; compare past that line
    assert b1.split(b"\n", 1)[1] == b2.split(b"\n", 1)[1]


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
# Every field the loader reads except basis_mode, which takes any value,
# then one entry of each matrix.
RECORD_FIELDS = (
    ("kind",), ("n",), ("r",), ("r_star",), ("q",), ("kappa",), ("seed",),
    ("basis",), ("x_spur",), ("z",), ("objective",), ("objective", "n"),
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
    [], ["solve"], ["verify"], ["build", "--n", "3"],
]


@st.composite
def malformed_flags(draw):
    """A malformed argv for one of the subcommands."""
    kind = draw(st.sampled_from(["listed", "ranks", "word"]))
    if kind == "listed":
        return draw(st.sampled_from(MALFORMED_FLAGS))
    if kind == "ranks":
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
    exits 2 with an error line, no traceback, and no output."""
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


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(malformed_flags())
def test_malformed_flags_exit_2(argv):
    _run_malformed(argv)
