import numpy as np
import pytest

from bmlandscape import counterexample as ce, dynamics
from bmlandscape.cli import main

SEED = 42


class _StubObjective:
    """Duck-typed stand-in whose gradient is a fixed matrix."""

    def __init__(self, g):
        self.g = np.asarray(g, dtype=float)

    def f_grad(self, x):
        return self.g


def small_config(**overrides):
    inst = ce.build(5, 3, 2)
    kwargs = dict(
        instance=inst,
        search_rank=4,
        trials=10,
        max_iters=6000,
        master_seed=SEED,
    )
    kwargs.update(overrides)
    return dynamics.TrialConfig(**kwargs)


# -- configuration ---------------------------------------------------------------


def test_config_rejects_search_rank_below_instance_rank():
    inst = ce.build(5, 3, 2)
    with pytest.raises(ValueError, match="search_rank"):
        dynamics.TrialConfig(instance=inst, search_rank=2)


@pytest.mark.parametrize(
    "field,value",
    [
        ("learning_rate", 0.0),
        ("learning_rate", -1e-3),
        ("learning_rate", np.inf),
        ("learning_rate", np.nan),
        ("momentum", 1.0),
        ("momentum", -0.1),
        ("radius", 0.0),
        ("radius", np.inf),
        ("max_iters", -1),
        ("trials", 0),
        ("master_seed", -1),
        ("master_seed", 2**64),
        ("success_tol", 0.0),
        ("stuck_tol", 1e-7),  # below the success threshold
    ],
)
def test_config_validation(field, value):
    with pytest.raises(ValueError):
        small_config(**{field: value})


# -- single step -----------------------------------------------------------------


def test_nesterov_step_hand_values():
    obj = _StubObjective([[2.0]])
    x, v = dynamics.nesterov_step(obj, [[1.0]], [[0.2]], lr=0.1, mom=0.9)
    assert v[0, 0] == pytest.approx(-0.02, abs=1e-15)
    assert x[0, 0] == pytest.approx(0.782, abs=1e-15)


def test_nesterov_step_zero_momentum_is_gradient_descent():
    obj = _StubObjective([[3.0, -1.0]])
    x, v = dynamics.nesterov_step(obj, [[0.5, 0.5]], [[0.0, 0.0]], lr=0.2, mom=0.0)
    assert np.allclose(x, [[0.5 - 0.6, 0.5 + 0.2]])
    assert np.allclose(v, [[-0.6, 0.2]])


def test_nesterov_step_fixed_point_at_stationary_zero_velocity():
    obj = _StubObjective(np.zeros((2, 2)))
    x0 = np.eye(2)
    x, v = dynamics.nesterov_step(obj, x0, np.zeros((2, 2)), lr=0.1, mom=0.9)
    assert np.array_equal(x, x0)
    assert np.array_equal(v, np.zeros((2, 2)))


def test_nesterov_step_shape_mismatch():
    obj = _StubObjective(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        dynamics.nesterov_step(obj, np.zeros((2, 2)), np.zeros((3, 2)), 0.1, 0.9)


# -- ball sampling ----------------------------------------------------------------


def test_sample_near_stays_inside_ball():
    center = np.arange(6.0).reshape(3, 2)
    for seed in range(50):
        draw = dynamics.sample_near(center, 0.3, seed)
        assert np.linalg.norm(draw - center) <= 0.3 + 1e-12


def test_sample_near_deterministic_per_seed():
    center = np.zeros((2, 2))
    a = dynamics.sample_near(center, 1.0, 7)
    b = dynamics.sample_near(center, 1.0, 7)
    c = dynamics.sample_near(center, 1.0, 8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sample_near_mean_radius_matches_uniform_ball():
    # E ||draw - center|| = R * d / (d + 1) for the uniform ball in R^d
    center = np.zeros((3, 2))
    rng = np.random.default_rng(SEED)
    dists = [
        np.linalg.norm(dynamics.sample_near(center, 1.0, rng)) for _ in range(4000)
    ]
    assert np.mean(dists) == pytest.approx(6.0 / 7.0, abs=0.02)


def test_sample_near_validation():
    with pytest.raises(ValueError):
        dynamics.sample_near(np.zeros((2, 2)), 0.0, 1)
    with pytest.raises(ValueError):
        dynamics.sample_near(np.zeros((2, 2)), np.inf, 1)
    with pytest.raises(ValueError):
        dynamics.sample_near(np.zeros(4), 1.0, 1)
    with pytest.raises(ValueError):
        dynamics.sample_near(np.full((2, 2), np.nan), 1.0, 1)


# -- classification ----------------------------------------------------------------


def test_classify_boundaries():
    assert dynamics._classify(1e-6, 1e-6, 0.1) == "success"
    assert dynamics._classify(0.1, 1e-6, 0.1) == "stuck"
    assert dynamics._classify(1e-3, 1e-6, 0.1) == "undetermined"


# -- batch engine ------------------------------------------------------------------


def test_batch_returns_immediately_at_global_minimum():
    inst = ce.build(5, 3, 2)
    obj = inst.objective
    a_sym = 0.5 * (obj.measurements + obj.measurements.transpose(0, 2, 1))
    pad = np.zeros((5, 2))
    x0 = np.hstack([inst.z, pad])[None, :, :]
    cfg = small_config()
    x_fin, f_fin, g_fin, iters = dynamics._run_batch(a_sym, obj.m_star, x0, cfg)
    assert iters[0] == 0
    assert f_fin[0] <= cfg.success_tol
    assert np.array_equal(x_fin, x0)


def test_batch_equals_solo_runs_when_trials_leave_early():
    # trials 9..14 at seed 42 escape after 3675..4952 steps at rank 3, so a
    # budget of 3900 lets four of them leave the active set and holds two
    cfg = small_config(search_rank=3, max_iters=3900)
    obj = cfg.instance.objective
    a_sym = 0.5 * (obj.measurements + obj.measurements.transpose(0, 2, 1))
    seqs = [np.random.SeedSequence(SEED, spawn_key=(t,)) for t in range(9, 15)]
    x0 = np.stack([dynamics.sample_near(cfg.instance.x_spur, cfg.radius, s) for s in seqs])
    batch = dynamics._run_batch(a_sym, obj.m_star, x0, cfg)
    assert 0 < np.count_nonzero(batch[3] < cfg.max_iters) < len(x0)
    for t in range(len(x0)):
        solo = dynamics._run_batch(a_sym, obj.m_star, x0[t : t + 1], cfg)
        for whole, single in zip(batch, solo):
            assert np.array_equal(whole[t : t + 1], single)


# -- full experiment ----------------------------------------------------------------


def test_overparameterized_trials_all_escape():
    report = dynamics.run_trials(small_config(), threads=1)
    assert report.total == 10
    assert report.successes == 10
    assert report.stuck == 0 and report.undetermined == 0
    assert [r.trial for r in report.records] == list(range(10))
    for rec in report.records:
        assert rec.final_f <= 1e-6
        assert 0 < rec.iters < 6000


def test_trial_zero_frozen_regression_row():
    report = dynamics.run_trials(small_config(), threads=1)
    row = report.to_csv().splitlines()[1]
    assert row == (
        "0,16138347438539916964,success,9.9968168650199364e-07,"
        "1.0033689913260105e-04,1.5814340247145278e+00,3816"
    )


def test_rank_limited_trials_stay_pinned():
    cfg = small_config(search_rank=3, max_iters=50, trials=8)
    report = dynamics.run_trials(cfg, threads=1)
    gap = ce.spurious_gap(cfg.instance.r - cfg.instance.r_star + 1)
    assert report.successes == 0
    assert report.stuck == 8
    for rec in report.records:
        assert abs(rec.final_f - gap) <= 0.05
        assert rec.dist_to_spur <= cfg.radius + 1e-12


def test_report_identical_across_thread_counts():
    cfg = small_config(trials=30, max_iters=400)
    base = dynamics.run_trials(cfg, threads=1).to_csv()
    for threads in (2, 4, 7):
        assert dynamics.run_trials(cfg, threads=threads).to_csv() == base


@pytest.mark.parametrize(
    "overrides,message",
    [
        (dict(learning_rate=1.0), r"at iteration \d+; lower the learning rate"),
        (dict(radius=1e200), "at its initial point; lower the radius"),
    ],
)
def test_diverging_trials_raise(overrides, message):
    cfg = small_config(trials=3, max_iters=200, **overrides)
    prefix = r"trial \d diverged \(non-finite objective\) "
    with pytest.raises(ValueError, match=prefix + message):
        dynamics.run_trials(cfg)


def _cli_trials(capsys, tmp_path, *extra):
    inst = tmp_path / "inst.json"
    build = ["build", "--n", "4", "--r", "2", "--rstar", "1", "--out", str(inst)]
    assert main(build) == 0
    csv_path, summary_path = tmp_path / "runs.csv", tmp_path / "runs.json"
    capsys.readouterr()
    rc = main([
        "trials", "--instance", str(inst), "--search-rank", "2", "--trials", "3",
        "--max-iters", "100", "--csv", str(csv_path), "--summary", str(summary_path),
        *extra,
    ])
    err = capsys.readouterr().err
    assert not csv_path.exists() and not summary_path.exists()
    return rc, err


def test_cli_diverging_trials_exit_2_without_artifacts(capsys, tmp_path):
    rc, err = _cli_trials(capsys, tmp_path, "--lr", "1")
    assert rc == 2
    assert err.startswith("error: trial ") and "lower the learning rate" in err
    assert "Traceback" not in err


def test_cli_rejects_zero_threads(capsys, tmp_path):
    rc, err = _cli_trials(capsys, tmp_path, "--threads", "0")
    assert rc == 2
    assert "thread count" in err


def test_seed_column_follows_spawn_key_contract():
    cfg = small_config(trials=5, max_iters=1, master_seed=909)
    report = dynamics.run_trials(cfg, threads=1)
    for rec in report.records:
        ss = np.random.SeedSequence(909, spawn_key=(rec.trial,))
        assert rec.seed == int(ss.generate_state(1, dtype=np.uint64)[0])


def test_csv_shape_and_summary_counts():
    cfg = small_config(trials=6, max_iters=30)
    report = dynamics.run_trials(cfg, threads=2)
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == dynamics.CSV_HEADER
    assert len(lines) == 7
    assert text.endswith("\n")
    obj = report.to_obj()
    assert obj["trials"] == 6
    assert obj["successes"] + obj["stuck"] + obj["undetermined"] == 6
    assert obj["rng"] == dynamics.RNG_SPEC
