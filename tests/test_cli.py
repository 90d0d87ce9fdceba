import json

import pytest

from bmlandscape import __version__, certificates
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
