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
    pad = np.zeros((5, 2))
    x0 = np.hstack([inst.z, pad])[None, :, :]
    cfg = small_config()
    x_fin, f_fin, g_fin, iters = dynamics._run_batch(inst.objective, x0, cfg)
    assert iters[0] == 0
    assert f_fin[0] <= cfg.success_tol
    assert np.array_equal(x_fin, x0)


def test_batch_equals_solo_runs_when_trials_leave_early():
    # trials 9..14 at seed 42 escape after 3675..4952 steps at rank 3, so a
    # budget of 3900 lets four of them leave the active set and holds two
    cfg = small_config(search_rank=3, max_iters=3900)
    obj = cfg.instance.objective
    seqs = [np.random.SeedSequence(SEED, spawn_key=(t,)) for t in range(9, 15)]
    x0 = np.stack([dynamics.sample_near(cfg.instance.x_spur, cfg.radius, s) for s in seqs])
    batch = dynamics._run_batch(obj, x0, cfg)
    assert 0 < np.count_nonzero(batch[3] < cfg.max_iters) < len(x0)
    for t in range(len(x0)):
        solo = dynamics._run_batch(obj, x0[t : t + 1], cfg)
        for whole, single in zip(batch, solo):
            assert np.array_equal(whole[t : t + 1], single)


def test_batch_step_equals_single_factor_api():
    # the engine's first step and objective value are the objective's
    # batch-of-one kernels: nesterov_step (via f_grad) and f_eval agree bitwise
    cfg = small_config(max_iters=1)
    obj = cfg.instance.objective
    spur = np.hstack([cfg.instance.x_spur, np.zeros((5, 1))])
    x0 = np.stack([dynamics.sample_near(spur, cfg.radius, SEED + t) for t in range(4)])
    x_out, f_out, _, iters = dynamics._run_batch(obj, x0, cfg)
    assert np.all(iters == 1)
    for t in range(len(x0)):
        x_solo, _ = dynamics.nesterov_step(
            obj, x0[t], np.zeros_like(x0[t]), cfg.learning_rate, cfg.momentum
        )
        assert np.array_equal(x_out[t], x_solo)
        assert np.array_equal(f_out[t], obj.f_eval(x_out[t]))


# -- windowed engine against a step-by-step oracle ---------------------------------


def _reference_batch(obj, x0, cfg):
    """The engine's algorithm one step at a time, on the public kernels.

    The exit test runs after every step and a leaving trial's state is
    written back at once, so no rollback is involved.
    """
    lr, mom, tol = cfg.learning_rate, cfg.momentum, cfg.success_tol
    x_out = np.array(x0, dtype=float)
    iters = np.zeros(len(x_out), dtype=np.int64)
    with np.errstate(over="ignore", invalid="ignore"):
        e = obj.residuals(x_out)
        s_out = obj.apply_gram(e)
        f_out = obj.values(e, s_out)
        idx = np.flatnonzero(np.isfinite(f_out) & (f_out > tol))
        x, s, f = x_out[idx], s_out[idx], f_out[idx]
        v = np.zeros_like(x)
        k = 0
        while idx.size and k < cfg.max_iters:
            k += 1
            g = obj.grads(x, s)
            v = mom * v - lr * g
            x = x + mom * v - lr * g
            e = obj.residuals(x)
            s = obj.apply_gram(e)
            f = obj.values(e, s)
            keep = np.isfinite(f) & (f > tol)
            done = idx[~keep]
            x_out[done], s_out[done], f_out[done] = x[~keep], s[~keep], f[~keep]
            iters[done] = k
            idx, x, v, s, f = idx[keep], x[keep], v[keep], s[keep], f[keep]
        x_out[idx], s_out[idx], f_out[idx] = x, s, f
        iters[idx] = cfg.max_iters
        g = obj.grads(x_out, s_out)
        gnorm = np.sqrt(np.einsum("bij,bij->b", g, g, optimize=False))
    return x_out, f_out, gnorm, iters


def _assert_same_records(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b, equal_nan=True)


def _mixed_starts(inst, rank):
    # starts near the global minimum leave after 0, 0, 3, 6, 20 and 33 steps
    # at rank 4; starts near the spurious point stay for thousands
    z = np.hstack([inst.z, np.zeros((inst.n, rank - inst.r_star))])
    spur = np.hstack([inst.x_spur, np.zeros((inst.n, rank - inst.r))])
    near_z = [dynamics.sample_near(z, rad, t) for t, rad in enumerate(
        [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2])]
    near_spur = [dynamics.sample_near(spur, 0.05, SEED + t) for t in range(3)]
    return np.stack(near_spur[:2] + near_z + near_spur[2:])


K = dynamics.WINDOW


@pytest.mark.parametrize("max_iters", [0, 1, K - 1, K, K + 1, 3 * K + 3, 40])
def test_windowed_engine_matches_stepwise_oracle(max_iters):
    cfg = small_config(max_iters=max_iters)
    x0 = _mixed_starts(cfg.instance, cfg.search_rank)
    want = _reference_batch(cfg.instance.objective, x0, cfg)
    _assert_same_records(dynamics._run_batch(cfg.instance.objective, x0, cfg), want)


def test_windowed_engine_exits_on_first_and_last_window_step():
    # rank-4 trials at seed 42 leave after 3812..3851 steps: some on the
    # first step of a window, some on its last
    cfg = small_config(trials=10)
    obj = cfg.instance.objective
    spur = np.hstack([cfg.instance.x_spur, np.zeros((5, 1))])
    seqs = [np.random.SeedSequence(SEED, spawn_key=(t,)) for t in range(10)]
    x0 = np.stack([dynamics.sample_near(spur, cfg.radius, s) for s in seqs])
    want = _reference_batch(obj, x0, cfg)
    steps = want[3] % K
    assert np.any(steps == 1) and np.any(steps == 0)
    assert np.all(want[3] < cfg.max_iters)
    _assert_same_records(dynamics._run_batch(obj, x0, cfg), want)


def test_windowed_engine_rolls_back_a_trial_diverging_mid_window():
    cfg = small_config(trials=3, max_iters=200, learning_rate=0.1)
    obj = cfg.instance.objective
    spur = np.hstack([cfg.instance.x_spur, np.zeros((5, 1))])
    seqs = [np.random.SeedSequence(SEED, spawn_key=(t,)) for t in range(3)]
    x0 = np.stack([dynamics.sample_near(spur, cfg.radius, s) for s in seqs])
    want = _reference_batch(obj, x0, cfg)
    bad = np.flatnonzero(~np.isfinite(want[1]))
    t = int(bad[np.argmin(want[3][bad])])
    assert want[3][t] % K not in (0, 1)
    _assert_same_records(dynamics._run_batch(obj, x0, cfg), want)
    message = (
        f"trial {t} diverged (non-finite objective) at iteration {want[3][t]}; "
        "lower the learning rate"
    )
    with pytest.raises(ValueError) as err:
        dynamics.run_trials(cfg)
    assert str(err.value) == message


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
        "0,16138347438539916964,success,9.9968168650199258e-07,"
        "1.0033689913260094e-04,1.5814340247145278e+00,3816"
    )


# Per-trial (outcome, iters) of the two small censuses at seed 42.  A change
# of the kernels' rounding moves final_f in its last digits; it must not move
# these columns.
OUTCOME_ITERS = {
    4: [("success", k) for k in (3816, 3817, 3820, 3843, 3816, 3818, 3817, 3851, 3833, 3812)],
    3: [
        ("stuck", 6000), ("success", 5130), ("success", 4094), ("success", 4500),
        ("success", 4156), ("success", 4520), ("stuck", 6000), ("success", 4112),
        ("success", 4032), ("success", 4952),
    ],
}


@pytest.mark.parametrize("search_rank", [4, 3])
def test_outcome_and_iteration_columns_pinned(search_rank):
    report = dynamics.run_trials(small_config(search_rank=search_rank, trials=10))
    got = [(rec.outcome, rec.iters) for rec in report.records]
    assert got == OUTCOME_ITERS[search_rank]


def test_rank_limited_trials_stay_pinned():
    cfg = small_config(search_rank=3, max_iters=50, trials=8)
    report = dynamics.run_trials(cfg, threads=1)
    gap = ce.spurious_gap(cfg.instance.r - cfg.instance.r_star + 1)
    assert report.successes == 0
    assert report.stuck == 8
    for rec in report.records:
        assert abs(rec.final_f - gap) <= 0.05
        assert rec.dist_to_spur <= cfg.radius + 1e-12


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
