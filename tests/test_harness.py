import dataclasses
import functools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qsense as q
from qsense.cli import cli_main
from qsense.errors import ConfigurationError, DegenerateHessianError
from qsense.harness import (_RATE_TAG_BASE, ExperimentConfig, build_context,
                            constants_for, ks_distances, make_truth,
                            normality_experiment, rate_experiment,
                            run_replications)


def _config(**kw):
    base = dict(d=4, k=2, loss="gaussian", sigma=0.1, design="gaussian",
                n=400, replications=8, seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture
def fresh_pool():
    """Yields the call that drops the kept pool, and drops it at teardown.

    Kept workers see the modules as they were at the fork, so a test that
    patches what a worker calls drops the pool after patching; the pool it
    then forks saw the patches and must not outlive the test.
    """
    import qsense.harness as h

    yield h._drop_pool
    h._drop_pool()


# ---------------------------------------------------------------------------
# configuration and truth
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(d=2, k=3).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig(d=3, k=1, n_grid=[100, 100]).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"d": 3, "k": 1, "bogus": 1})


def test_make_truth_spectrum_and_determinism():
    cfg = _config(d=6, k=2, sigma_min=0.8, sigma_max=1.2)
    a = make_truth(cfg)
    b = make_truth(cfg)
    assert np.array_equal(a, b)
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0] == pytest.approx(1.2) and sv[-1] == pytest.approx(0.8)


def test_make_truth_explicit():
    truth = [[1.0], [0.5], [0.0]]
    cfg = _config(d=3, k=1, truth=truth)
    assert np.array_equal(make_truth(cfg), np.array(truth))


def test_constants_for_satisfies_conventions():
    cfg = _config(d=6, k=2)
    c = constants_for(cfg, make_truth(cfg))
    c.validate()
    assert c.K_ell == pytest.approx(100.0)  # 1 / sigma^2 at sigma = 0.1
    assert c.sigma_eps == pytest.approx(10.0)


# ---------------------------------------------------------------------------
# replication runs
# ---------------------------------------------------------------------------

def test_records_identical_across_thread_counts():
    recs1, _ = run_replications(_config(threads=1))
    recs4, _ = run_replications(_config(threads=4))
    assert len(recs1) == len(recs4)
    for a, b in zip(recs1, recs4):
        da, db = a.to_json_dict(), b.to_json_dict()
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_noiseless_runs_hit_solver_floor():
    cfg = _config(noise_sigma=0.0, grad_tol=1e-11, max_iters=50_000,
                  replications=4)
    records, _ = run_replications(cfg)
    assert all(rec.distance <= 1e-6 for rec in records)
    # the drawn residual row is exactly 0 at sigma = 0
    assert all(rec.final_loss <= 1e-20 for rec in records)


@pytest.mark.parametrize("noise_sigma, most", [(None, 2), (0.0, 0)],
                         ids=["criterion-5", "noiseless"])
def test_gaussian_fits_start_near_their_minimizer(noise_sigma, most):
    # the least-squares start leaves a median of 2 Newton steps at the
    # criterion-5 Gaussian config (4 from smat(b)); without noise it is the
    # truth itself
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1, n=8000,
                           noise_sigma=noise_sigma, replications=100,
                           seed=2024)
    records, _ = run_replications(cfg)
    assert np.median(records.iterations) <= most
    if noise_sigma == 0.0:
        assert np.max(records.final_loss) <= 1e-20


def test_record_count_matches_replications():
    cfg = _config(replications=6)
    records, _ = run_replications(cfg)
    assert len(records) == 6
    assert sum(rec.diverged for rec in records) == 0


def test_divergence_handling(monkeypatch):
    import qsense.harness as h

    real = h._replicate

    def flaky(ctx, r, fail_below=0):
        if r < fail_below:
            return h.ReplicationRecord(index=r, diverged=True, message="boom")
        return real(ctx, r)

    cfg = _config(replications=10)
    # one failure in ten: recorded, not fatal
    monkeypatch.setattr(h, "_replicate", lambda ctx, r: flaky(ctx, r, 1))
    records, _ = run_replications(cfg)
    assert sum(rec.diverged for rec in records) == 1
    # three failures in ten: abort with a summary
    monkeypatch.setattr(h, "_replicate", lambda ctx, r: flaky(ctx, r, 3))
    with pytest.raises(q.HarnessAbort, match="3/10"):
        run_replications(cfg)


def _same_record(a, b):
    """Field by field, arrays and floats bit for bit."""
    for f in dataclasses.fields(q.harness.ReplicationRecord):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            if not (isinstance(x, np.ndarray) and isinstance(y, np.ndarray)
                    and x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes()):
                return False
        elif isinstance(x, float):
            if type(y) is not float or \
                    np.float64(x).tobytes() != np.float64(y).tobytes():
                return False
        elif type(x) is not type(y) or x != y:
            return False
    return True


def test_record_store_rows_are_the_replicates_records(monkeypatch):
    import qsense.harness as h

    real = h._replicate

    def flaky(ctx, r):
        if r in (1, 4):
            return h.ReplicationRecord(index=r, diverged=True,
                                       message=f"boom {r}")
        return real(ctx, r)

    monkeypatch.setattr(h, "_replicate", flaky)
    # sigma = 3 at n = 20 puts some replicates beyond the injectivity
    # radius, whose Taylor fields are NaN
    cfg = _config(sigma=3.0, n=20, replications=12)
    records, ctx = run_replications(cfg)
    direct = [flaky(ctx, r) for r in range(cfg.replications)]
    rows = list(records)
    assert len(records) == len(rows) == cfg.replications
    assert all(_same_record(a, b) for a, b in zip(rows, direct))
    assert rows[1].z is None and rows[4].message == "boom 4"
    assert any(math.isnan(rec.taylor_ratio) for rec in rows
               if not rec.diverged)


def test_record_store_takes_at_most_500_bytes_per_replicate():
    import tracemalloc

    R, m = 200, 11
    rng = np.random.default_rng(0)
    records = [q.harness.ReplicationRecord(
        index=r, converged=True, iterations=4, grad_norm=1e-8,
        final_loss=0.5, distance=0.01, phi0=rng.standard_normal(m),
        z=rng.standard_normal(m), ci_hits=rng.random(m) < 0.95,
        taylor_lhs=1e-3, taylor_remainder=1e-4, taylor_ratio=1.0)
        for r in range(R)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = q.harness.ReplicationRecords(records, R, m)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == R
    assert held / R <= 500


def test_drawn_statistics_match_the_design_draws_in_law(monkeypatch,
                                                       fresh_pool):
    # criterion-5 Gaussian replicates from the drawn statistics against
    # replicates from X, on the same truth and disjoint streams; each of
    # the 11 coordinates of z passes a two-sample KS test at 0.01 / 11
    import qsense.harness as h
    import qsense.model as model
    from scipy import stats

    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1, n=8000,
                           replications=300, seed=2024, threads=2)
    drawn, _ = run_replications(cfg, stream_tag=11)
    monkeypatch.setattr(h, "simulate",
                        lambda dgp, n, loss: model.simulate(dgp, n))
    fresh_pool()
    from_x, _ = run_replications(cfg, stream_tag=12)
    assert not (drawn.diverged.any() or from_x.diverged.any())
    m = drawn.z.shape[1]
    pvalues = [stats.ks_2samp(drawn.z[:, j], from_x.z[:, j]).pvalue
               for j in range(m)]
    assert min(pvalues) >= 0.01 / m


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its life, runs in-process."""

    def __init__(self, events, max_workers):
        self.events, self.size = events, max_workers
        events.append(("start", max_workers))

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self):
        self.events.append(("shutdown", self.size))


def _recording_pools(monkeypatch):
    """The starts and shut-downs of the pools runs use from here on."""
    import qsense.harness as h

    events = []
    monkeypatch.setattr(h, "ProcessPoolExecutor",
                        functools.partial(_RecordingPool, events))
    monkeypatch.setattr(h, "_POOL", None)
    return events


@pytest.mark.parametrize("threads, cpus, size", [
    (500, 64, 8),  # no more workers than replicates
    (500, 3, 3),   # nor than usable CPUs
    (2, 1, 1),     # pooled, not serial: a crashed worker still exits 2
])
def test_pool_size_is_capped(monkeypatch, threads, cpus, size):
    import qsense.harness as h

    events = _recording_pools(monkeypatch)
    monkeypatch.setattr(h, "_usable_cpus", lambda: cpus)
    records, _ = run_replications(_config(replications=8, threads=threads))
    assert events == [("start", size)]
    assert [rec.index for rec in records] == list(range(8))


def test_pool_is_kept_until_a_run_needs_another_size(monkeypatch):
    # serial runs leave the pool alone; the old pool shuts down before the
    # new one starts
    import qsense.harness as h

    events = _recording_pools(monkeypatch)
    monkeypatch.setattr(h, "_usable_cpus", lambda: 64)
    for threads in (2, 2, 1, 3, 3):
        run_replications(_config(replications=8, threads=threads))
    assert events == [("start", 2), ("shutdown", 2), ("start", 3)]


def test_rate_experiment_starts_one_pool(monkeypatch):
    # the six grid points of one experiment share the process's pool
    events = _recording_pools(monkeypatch)
    cfg = _config(d=3, k=1, n=None, n_grid=[64, 128, 256, 512, 1024, 2048],
                  replications=4, threads=2)
    report = rate_experiment(cfg)
    assert len(report.medians) == 6
    assert [event for event, _ in events] == ["start"]


def _record_lines(records):
    return [json.dumps(rec.to_json_dict(), sort_keys=True) for rec in records]


def test_consecutive_pooled_runs_on_one_pool_match_serial_runs():
    # the kept pool carries nothing from one run into the next: each run
    # sends its own context
    import qsense.harness as h

    pools = []
    for kw in (dict(loss="gaussian", seed=5, n=400),
               dict(loss="logistic", seed=11, n=900)):
        serial, _ = run_replications(_config(threads=1, **kw))
        pooled, _ = run_replications(_config(threads=2, **kw))
        assert _record_lines(pooled) == _record_lines(serial)
        pools.append(h._POOL)
    assert pools[0] is pools[1] is not None


def test_debug_vertical_direction_aborts():
    cfg = _config(d=4, k=2, debug_include_vertical=True)
    with pytest.raises(DegenerateHessianError):
        build_context(cfg, cfg.n)


# ---------------------------------------------------------------------------
# normality experiment
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("R, m", [(100, 11), (2, 11), (2, 1)])
def test_ks_distances_match_scipy_kstest(R, m):
    from scipy import stats

    rng = np.random.default_rng(R + m)
    Z = rng.standard_normal((R, m)) * rng.uniform(0.5, 2.0, m)
    reference = [stats.kstest(Z[:, j], "norm").statistic for j in range(m)]
    assert np.max(np.abs(ks_distances(Z) - reference)) <= 1e-14


def test_normality_report_shapes():
    cfg = _config(d=4, k=2, n=400, replications=12)
    rep = normality_experiment(cfg)
    m = q.horizontal_dim(4, 2)
    assert rep.z_matrix.shape == (12, m)
    assert rep.covariance.shape == (m, m)
    assert rep.coverage_per_coordinate.shape == (m,)
    assert 0.0 <= rep.coverage_rate <= 1.0
    assert rep.hstar_condition_number >= 1.0


def test_normality_covariance_error_improves_with_n():
    # scaled-down version of the convergence trend: median error over
    # meta-seeds is larger at the smaller sample size
    small, large = [], []
    for meta in range(3):
        cfg_small = _config(d=4, k=2, n=150, replications=120, seed=50 + meta)
        cfg_large = _config(d=4, k=2, n=4000, replications=120, seed=50 + meta)
        small.append(normality_experiment(cfg_small).covariance_rel_error)
        large.append(normality_experiment(cfg_large).covariance_rel_error)
    assert np.median(small) > np.median(large)


def test_normality_bounded_logistic_runs_on_exact_hstar():
    # the bounded design is not Gaussian; its logistic H* is a quadrature
    cfg = _config(loss="logistic", sigma=0.1, design="bounded", n=500,
                  replications=6)
    rep = normality_experiment(cfg)
    assert rep.z_matrix.shape[0] == 6
    ctx = build_context(cfg, cfg.n)
    assert rep.hstar_condition_number == ctx.covariance.condition_number
    lam = np.linalg.eigvalsh(ctx.hstar)
    assert rep.hstar_condition_number == pytest.approx(lam[-1] / lam[0])


@pytest.mark.parametrize("design, loss", [
    ("gaussian", "gaussian"), ("gaussian", "logistic"),
    ("symmetric", "gaussian"), ("symmetric", "logistic"),
    ("bounded", "gaussian"), ("bounded", "logistic"),
])
def test_build_context_reads_hstar_through_the_module(monkeypatch, design,
                                                      loss):
    # the benchmark wraps inference.restricted_population_hessian by name
    import qsense.inference as inf

    seen = []
    original = inf.restricted_population_hessian

    def recording(*args, **kwargs):
        seen.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(inf, "restricted_population_hessian", recording)
    build_context(_config(design=design, loss=loss), 400)
    assert seen == [{}]


# ---------------------------------------------------------------------------
# rate experiment
# ---------------------------------------------------------------------------

def test_rate_requires_adequate_grid():
    with pytest.raises(ConfigurationError):
        rate_experiment(_config(n=None, n_grid=[100, 200, 400]))
    with pytest.raises(ConfigurationError):
        rate_experiment(_config(n=None, n_grid=[100, 200, 400, 800]))


def test_rate_slope_near_half_small():
    cfg = _config(d=4, k=1, n=None, n_grid=[128, 256, 512, 1024, 2048],
                  replications=30, seed=8)
    rep = rate_experiment(cfg)
    assert -0.75 <= rep.slope <= -0.3
    assert not rep.floor_limited
    assert np.all(rep.medians <= rep.bound_values)


def test_rate_floor_limited_flag_when_noiseless():
    cfg = _config(d=3, k=1, n=None, noise_sigma=0.0,
                  n_grid=[64, 128, 256, 512, 1024], replications=4,
                  grad_tol=1e-11, max_iters=50_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rep = rate_experiment(cfg)
    assert rep.floor_limited
    # no rate is fitted to rounding noise, and the report is strict JSON
    assert rep.slope is None and rep.intercept is None
    json.dumps(rep.to_json_dict(), allow_nan=False)


def test_newton_fit_takes_few_iterations_on_criterion_5_gaussian():
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1, n=8000,
                           replications=20, seed=2024)
    records, _ = run_replications(cfg)
    assert all(rec.converged for rec in records)
    assert np.median([rec.iterations for rec in records]) <= 5


def test_criterion_6_grid_converges_on_every_replicate():
    # descent that stalls just above grad_tol leaves replicates unconverged
    grid = [512, 1024, 2048, 4096, 8192, 16384]
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1,
                           n_grid=grid, replications=10, seed=7, delta=0.05)
    for i, n in enumerate(grid):
        records, _ = run_replications(cfg, n=n,
                                      stream_tag=_RATE_TAG_BASE + i)
        assert all(rec.converged for rec in records), n


def test_rate_median_grows_with_k():
    base = dict(d=5, n=None, n_grid=[256, 512, 1024, 2048, 4096],
                replications=20, seed=9)
    rep1 = rate_experiment(_config(k=1, **base))
    rep2 = rate_experiment(_config(k=2, **base))
    assert np.median(rep2.medians) > np.median(rep1.medians)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _reject_constant(name):
    raise ValueError(f"non-finite value {name} in a JSON output")


def _read_json(path):
    """Parse an output file strictly: NaN and Infinity are not JSON."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


def _write_config(tmp_path, obj, name="config.json"):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def test_cli_certificate_all_ones(tmp_path, capsys):
    cfg = {"constants": {"d": 1, "k": 1, "X_max": 1, "sigma_min": 1,
                         "sigma_max": 1, "sigma_eps": 1, "mu_max": 1,
                         "K_ell": 1, "mu0": 1, "lambda0": 1},
           "delta": 0.05, "n": 1000}
    path = _write_config(str(tmp_path), cfg)
    rc = cli_main(["certificate", "--config", path, "--out-dir", str(tmp_path)])
    assert rc == 0
    out = _read_json(os.path.join(str(tmp_path), "certificate.json"))
    assert out["report"]["K"] == pytest.approx(2720.0)
    assert out["report"]["rate_bound_at_n"] > 0
    assert out["version"].startswith("qsense-")


def test_cli_simulate_fit_round_trip(tmp_path):
    cfg_obj = {"d": 3, "k": 1, "loss": "gaussian", "sigma": 0.2, "n": 120,
               "replications": 1, "seed": 21, "grad_tol": 1e-9}
    path = _write_config(str(tmp_path), cfg_obj)
    assert cli_main(["simulate", "--config", path,
                     "--out-dir", str(tmp_path)]) == 0
    data_path = os.path.join(str(tmp_path), "dataset.json")
    assert cli_main(["fit", "--config", path, "--dataset", data_path,
                     "--out-dir", str(tmp_path)]) == 0
    cli_result = _read_json(os.path.join(str(tmp_path), "fit.json"))["report"]

    # reproduce in-process: same stream, same optimizer settings
    config = ExperimentConfig.from_dict(cfg_obj)
    theta_star = make_truth(config)
    dgp = q.DataGeneratingProcess(theta_star=theta_star, design="gaussian",
                                  noise="gaussian", sigma=0.2,
                                  seed=(21, 1, 0))
    data = q.simulate(dgp, 120)
    disk = q.Dataset.from_json(json.dumps(_read_json(data_path)))
    # the file holds sym X, u_ij / sqrt 2 off the diagonal: folding it back
    # into U costs a rounding or two per entry
    assert np.allclose(disk.U, data.U, rtol=1e-15, atol=0.0)
    assert np.array_equal(disk.y, data.y)
    fit_config = q.FitConfig(grad_tol=1e-9, max_iters=config.max_iters,
                             seed=21)
    res = q.fit(disk, q.GaussianNLL(0.2), fit_config)
    assert cli_result["theta0"] == res.theta0.tolist()
    assert cli_result["final_loss"] == res.final_loss
    assert cli_result["sbar"] == res.sbar.tolist()
    simulated = q.fit(data, q.GaussianNLL(0.2), fit_config)
    assert q.align(simulated.theta0, res.theta0).distance <= \
        1e-10 * np.linalg.norm(res.theta0)


def test_cli_verify_normality_outputs(tmp_path):
    cfg_obj = {"d": 3, "k": 2, "n": 200, "replications": 7, "seed": 5}
    path = _write_config(str(tmp_path), cfg_obj)
    rc = cli_main(["verify-normality", "--config", path,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    zpath = os.path.join(str(tmp_path), "z.csv")
    with open(zpath) as fh:
        lines = fh.read().strip().split("\n")
    m = q.horizontal_dim(3, 2)
    assert lines[0] == ",".join(f"z{j}" for j in range(m))
    assert len(lines) == 1 + 7
    assert all(len(line.split(",")) == m for line in lines[1:])
    report = _read_json(os.path.join(str(tmp_path), "report.json"))
    assert report["config"]["replications"] == 7


def test_cli_exit_codes(tmp_path):
    assert cli_main(["no-such-command"]) == 1
    assert cli_main([]) == 1
    cfg = _write_config(str(tmp_path), {"d": 2, "k": 1, "n": 50,
                                        "replications": 2})
    assert cli_main(["simulate", "--config", cfg, "--bogus-flag"]) == 1
    # validation failure inside the config
    bad = _write_config(str(tmp_path), {"d": 1, "k": 2}, name="bad.json")
    assert cli_main(["simulate", "--config", bad,
                     "--out-dir", str(tmp_path)]) == 1
    # there is no --format flag: every command writes fixed formats
    assert cli_main(["simulate", "--config", cfg, "--format", "csv",
                     "--out-dir", str(tmp_path)]) == 1


def test_cli_numerical_abort_exit_code(tmp_path):
    cfg = _write_config(str(tmp_path), {"d": 3, "k": 2, "n": 100,
                                        "replications": 2,
                                        "debug_include_vertical": True})
    rc = cli_main(["verify-normality", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    assert rc == 2


def test_cli_threads_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("QSENSE_THREADS", "2")
    cfg = _write_config(str(tmp_path), {"d": 2, "k": 1, "n": 60,
                                        "replications": 3, "seed": 2})
    rc = cli_main(["verify-normality", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    assert _read_json(os.path.join(str(tmp_path), "report.json"))["report"]


@pytest.mark.parametrize("flag, env", [("0", None), ("-4", None),
                                       (None, "0")])
def test_cli_rejects_nonpositive_worker_counts_in_one_line(
        tmp_path, capsys, monkeypatch, flag, env):
    def no_experiment(config):
        raise AssertionError("the experiment ran")
    monkeypatch.setattr("qsense.harness.normality_experiment", no_experiment)
    monkeypatch.delenv("QSENSE_THREADS", raising=False)
    if env is not None:
        monkeypatch.setenv("QSENSE_THREADS", env)
    cfg = _write_config(str(tmp_path), {"d": 2, "k": 1, "n": 60,
                                        "replications": 3})
    argv = ["verify-normality", "--config", cfg, "--out-dir", str(tmp_path)]
    rc = cli_main(argv + ([] if flag is None else ["--threads", flag]))
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "threads must be >= 1" in err


def test_cli_fit_rejects_config_of_another_shape(tmp_path, capsys):
    sim = _write_config(str(tmp_path), {"d": 3, "k": 1, "n": 40, "seed": 1},
                        name="sim.json")
    assert cli_main(["simulate", "--config", sim,
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    other = _write_config(str(tmp_path), {"d": 2, "k": 2})
    rc = cli_main(["fit", "--config", other, "--dataset",
                   os.path.join(str(tmp_path), "dataset.json"),
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1
    assert "d=2, k=2" in err and "d=3, k=1" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "fit.json"))


def test_cli_reports_an_overflowing_gaussian_fit_as_numerical(tmp_path,
                                                             capsys):
    # finite targets near 1e160 whose residual sum of squares overflows:
    # the p + 1 square-root rows cannot hold it, the fit reads the n rows
    # and its initial loss is not finite
    cfg = _write_config(str(tmp_path), {"d": 3, "k": 1, "n": 40, "seed": 1})
    assert cli_main(["simulate", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0
    path = os.path.join(str(tmp_path), "dataset.json")
    obj = _read_json(path)
    for sample in obj["samples"]:
        sample["y"] *= 1e160
    with open(path, "w") as fh:
        json.dump(obj, fh)
    capsys.readouterr()
    rc = cli_main(["fit", "--config", cfg, "--dataset", path,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "non-finite loss" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "fit.json"))


def test_cli_rate_sweep_outputs(tmp_path):
    cfg = _write_config(str(tmp_path), {
        "d": 3, "k": 1, "n_grid": [64, 128, 256, 512, 1024],
        "replications": 6, "seed": 4})
    rc = cli_main(["rate-sweep", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    with open(os.path.join(str(tmp_path), "rate.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "n,median,q25,q75,bound"
    assert len(lines) == 6
    rep = _read_json(os.path.join(str(tmp_path), "report.json"))["report"]
    assert len(rep["medians"]) == 5


def test_cli_check_assumptions(tmp_path):
    cfg = _write_config(str(tmp_path), {"d": 3, "k": 1, "sigma": 1.0,
                                        "n_mc": 5000, "seed": 6})
    rc = cli_main(["check-assumptions", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = _read_json(os.path.join(str(tmp_path), "report.json"))["report"]
    assert rep["all_pass"] is True


def test_cli_invariance_audit(tmp_path):
    cfg = _write_config(str(tmp_path), {"d": 4, "k": 2, "replications": 5,
                                        "seed": 7})
    rc = cli_main(["invariance-audit", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = _read_json(os.path.join(str(tmp_path), "report.json"))["report"]
    assert rep["max_discrepancy"] <= 1e-10
    assert rep["rotations"] == 5


def test_readme_schema_lists_every_config_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("### Experiment config schema")[1]
    section = section.split("\n###")[0]
    listed = [key for line in section.splitlines() if line.startswith("| `")
              for key in re.findall(r"`(\w+)`", line.split("|")[1])]
    assert sorted(listed) == sorted(f.name for f in
                                    dataclasses.fields(ExperimentConfig))


def test_certificate_json_echoes_constants(tmp_path):
    cfg = _write_config(str(tmp_path), {
        "constants": {"d": 2, "k": 1, "X_max": 1.5, "sigma_min": 0.9,
                      "sigma_max": 1.1, "sigma_eps": 2.0, "mu_max": 1.0,
                      "K_ell": 1.0, "mu0": 0.5, "lambda0": 1.0},
        "delta": 0.1})
    rc = cli_main(["certificate", "--config", cfg, "--out-dir", str(tmp_path)])
    assert rc == 0
    rep = _read_json(os.path.join(str(tmp_path), "certificate.json"))["report"]
    assert rep["constants"]["X_max"] == 1.5
    assert rep["constants"]["mu0"] == 0.5
    assert rep["delta"] == 0.1


_ALL_ONES = {"d": 1, "k": 1, "X_max": 1, "sigma_min": 1, "sigma_max": 1,
             "sigma_eps": 1, "mu_max": 1, "K_ell": 1, "mu0": 1, "lambda0": 1}


@pytest.mark.parametrize("cfg, named", [
    ({"constants": 5}, "constants must be a JSON object"),
    ([1, 2], "certificate config must be a JSON object"),
    ({"constants": {"d": 1}}, "requires key 'k'"),
    ({"constants": {**_ALL_ONES, "mu0": "high"}}, "'mu0'"),
    ({"constants": {**_ALL_ONES, "d": 1.5}}, "'d'"),
    ({"constants": _ALL_ONES, "delta": [0.1]}, "'delta'"),
    ({"constants": _ALL_ONES, "n": True}, "'n'"),
    ({"constants": _ALL_ONES, "n": 0}, "'n'"),
    ({"constants": _ALL_ONES, "detla": 0.5, "nn": 1000},
     "unknown certificate config keys: ['detla', 'nn']"),
])
def test_cli_certificate_rejects_bad_config_in_one_line(tmp_path, capsys,
                                                        cfg, named):
    path = _write_config(str(tmp_path), cfg)
    rc = cli_main(["certificate", "--config", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err


_BOUNDED_LOGISTIC = {"d": 3, "k": 1, "loss": "logistic", "design": "bounded",
                     "n": 200, "replications": 3}


@pytest.mark.parametrize("command, cfg, named", [
    # the H* budget is gone with the Monte Carlo route: an unknown key
    pytest.param("verify-normality", {**_BOUNDED_LOGISTIC, "hstar_mc_factor": 0},
                 "unknown config keys: ['hstar_mc_factor']",
                 id="verify-normality-cfg0-hstar_mc_factor"),
    pytest.param("verify-normality", {**_BOUNDED_LOGISTIC, "hstar_mc_factor": -1},
                 "unknown config keys: ['hstar_mc_factor']",
                 id="verify-normality-cfg1-hstar_mc_factor"),
    ("verify-normality", {"d": 3, "k": 1, "n": 200, "replications": 1},
     "replications"),
    ("check-assumptions", {"d": 3, "k": 1, "n_mc": 1}, "n_mc"),
])
def test_cli_rejects_degenerate_budgets_in_one_line(tmp_path, capsys, command,
                                                    cfg, named):
    # below these floors a run divides by zero: NaN in the report, or a
    # numerical abort that blames the basis
    path = _write_config(str(tmp_path), cfg)
    rc = cli_main([command, "--config", path, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(str(tmp_path), "report.json"))


@pytest.mark.parametrize("spectrum, named", [
    ({"k": 2, "sigma_min": 0}, "sigma_min"),
    ({"k": 2, "sigma_min": -0.5}, "sigma_min"),
    ({"k": 2, "sigma_min": 1.5, "sigma_max": 1.2}, "sigma_min"),
    ({"k": 2, "sigma_max": 0}, "sigma_max"),
    ({"k": 1, "sigma_max": 0}, "sigma_max"),
    ({"k": 1, "sigma_max": -1.0}, "sigma_max"),
], ids=["zero-min", "negative-min", "min-above-max", "zero-max",
        "k1-zero-max", "k1-negative-max"])
def test_cli_rejects_bad_truth_spectrum_in_one_line(tmp_path, capsys,
                                                    spectrum, named):
    cfg = _write_config(str(tmp_path), {"d": 3, "n": 20, **spectrum})
    rc = cli_main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and named in err
    assert not os.path.exists(os.path.join(str(tmp_path), "dataset.json"))


_SMALL_NORMALITY = {"d": 3, "k": 1, "n": 60, "replications": 4}


@pytest.mark.parametrize("sigma", [1e-300, 1e300])
def test_cli_rejects_a_sigma_whose_inverse_square_is_out_of_range(
        tmp_path, capsys, sigma):
    # 1 / sigma^2 rounds to inf or to 0; sigma**2 would raise
    cfg = _write_config(str(tmp_path), {**_SMALL_NORMALITY, "sigma": sigma})
    rc = cli_main(["verify-normality", "--config", cfg, "--threads", "1",
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "sigma" in err
    assert "Traceback" not in err
    with pytest.raises(ValueError, match="sigma"):
        q.GaussianNLL(sigma)


@pytest.mark.parametrize("truth", [{"truth": [[1e200], [0], [0]]},
                                   {"sigma_max": 1e200}],
                         ids=["explicit-truth", "sigma-max"])
def test_cli_reports_a_non_finite_population_curvature_as_numerical(
        tmp_path, capsys, truth):
    # M* = theta* theta*^T overflows; a RuntimeWarning would fail this test
    cfg = _write_config(str(tmp_path), {**_SMALL_NORMALITY, **truth})
    rc = cli_main(["verify-normality", "--config", cfg, "--threads", "1",
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "not finite" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "report.json"))


@pytest.mark.parametrize("entry", [1e200, 1e3], ids=["1e200", "1e3"])
def test_cli_reports_a_bounded_fourier_grid_beyond_its_cap_as_numerical(
        tmp_path, capsys, entry):
    # the bounded-design logistic H* takes 13 (a |vec M*|_1 + 40) / (2 pi)
    # points: unboundedly many at 1e200, 3.6 million at 1e3, where each
    # (points, d^2) array would take 0.26 GB; the count is checked before
    # any array is built
    cfg = _write_config(str(tmp_path), {
        **_SMALL_NORMALITY, "design": "bounded", "loss": "logistic",
        "truth": [[entry], [0], [0]]})
    rc = cli_main(["verify-normality", "--config", cfg, "--threads", "1",
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "Fourier grid" in err
    assert "Traceback" not in err
    assert not os.path.exists(os.path.join(str(tmp_path), "report.json"))


@pytest.mark.parametrize("spectrum", [
    # k = 1 reads only sigma_max, and an explicit truth reads neither
    {"k": 1, "sigma_min": 0},
    {"k": 1, "sigma_min": 1.5, "sigma_max": 1.2},
    {"k": 2, "sigma_min": 0, "sigma_max": 0,
     "truth": [[1.0, 0.0], [0.0, 0.5], [0.0, 0.0]]},
], ids=["k1-zero-min", "k1-min-above-max", "explicit-truth"])
def test_cli_accepts_unused_spectrum_keys(tmp_path, spectrum):
    cfg = _write_config(str(tmp_path), {"d": 3, "n": 20, **spectrum})
    assert cli_main(["simulate", "--config", cfg,
                     "--out-dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("key, flag", [(-1, None), (3, "-1")],
                         ids=["config-key", "flag"])
def test_cli_rejects_negative_seed_in_one_line(tmp_path, capsys, key, flag):
    cfg = _write_config(str(tmp_path), {"d": 3, "k": 1, "n": 20, "seed": key})
    argv = ["simulate", "--config", cfg, "--out-dir", str(tmp_path)]
    rc = cli_main(argv + ([] if flag is None else ["--seed", flag]))
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "qsense: error: seed must be >= 0\n"


def test_cli_rejects_removed_config_keys_in_one_line(tmp_path, capsys):
    cfg = _write_config(str(tmp_path), {
        "d": 3, "k": 1, "n": 50, "replications": 2, "restarts": 0,
        "basis_order": "lex", "x_max": 2.0, "out_dir": "."})
    rc = cli_main(["verify-normality", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("qsense: error: unknown config keys: "
                   "['basis_order', 'out_dir', 'restarts', 'x_max']\n")


_FIT_CONFIG = {"d": 2, "k": 1, "n": 20}


@pytest.mark.parametrize("command, cfg, dataset, named", [
    ("fit", _FIT_CONFIG, [1, 2], "dataset must be a JSON object"),
    ("fit", _FIT_CONFIG, {"d": None, "k": 1, "samples": []}, "'d'"),
    ("fit", _FIT_CONFIG, {"d": 2, "k": 1, "samples": [1, 2]}, "'samples'"),
    ("verify-normality", [1, 2], None, "config must be a JSON object"),
    ("verify-normality", {"d": 2, "k": 1, "n": 20, "replications": 2,
                          "truth": [[math.nan], [1.0]]}, None, "'truth'"),
])
def test_cli_rejects_malformed_json_in_one_line(tmp_path, capsys, command,
                                                cfg, dataset, named):
    argv = [command, "--config", _write_config(str(tmp_path), cfg),
            "--seed", "3", "--out-dir", str(tmp_path)]
    if dataset is not None:
        argv += ["--dataset", _write_config(str(tmp_path), dataset,
                                            name="dataset.json")]
    rc = cli_main(argv)
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and named in err
    assert "Traceback" not in err


def test_cli_rejects_sample_size_below_quotient_dimension(tmp_path, capsys):
    # horizontal_dim(4, 2) = 7: three samples cannot identify theta theta^T
    cfg = _write_config(str(tmp_path), {"d": 4, "k": 2, "n": 3,
                                        "loss": "logistic", "replications": 3})
    rc = cli_main(["verify-normality", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "quotient dimension 7" in err
    assert not os.path.exists(os.path.join(str(tmp_path), "report.json"))
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"d": 4, "k": 2, "n_grid": [6, 64, 128, 512]})
    assert ExperimentConfig.from_dict({"d": 4, "k": 2, "n": 7}).n == 7


def test_full_rank_square_problem_end_to_end():
    cfg = _config(d=3, k=3, n=600, replications=5, sigma=0.2)
    rep = normality_experiment(cfg)
    assert rep.z_matrix.shape == (5, q.horizontal_dim(3, 3))
    assert rep.excluded == 0


def test_fit_falls_back_to_random_init_when_spectrum_flat():
    # all-zero responses give an empty spectrum; fit should still run
    rng = np.random.default_rng(60)
    X = rng.standard_normal((40, 3, 3))
    data = q.Dataset(X=X, y=np.zeros(40), k=1)
    res = q.fit(data, q.GaussianNLL(1.0), q.FitConfig(grad_tol=1e-8))
    assert np.all(np.isfinite(res.theta0))


def test_config_values_are_type_checked():
    cfg = ExperimentConfig.from_dict({"d": "6", "k": 2.0, "sigma": 1,
                                      "n_grid": [512.0, "1024"]})
    assert (cfg.d, cfg.k, cfg.sigma, cfg.n_grid) == (6, 2, 1.0, [512, 1024])
    assert type(cfg.d) is int and type(cfg.sigma) is float
    for bad in ({"replications": 2.5}, {"d": "six"}, {"seed": True},
                {"sigma": "nan"}, {"loss": 3}, {"n_grid": 512},
                {"debug_include_vertical": 1}):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.from_dict({"d": 4, "k": 2, **bad})
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict([4, 2])


def test_cli_rejects_mistyped_config_in_one_line(tmp_path, capsys):
    cfg = _write_config(str(tmp_path), {"d": 4, "k": 2, "n": 100,
                                        "replications": 2.5})
    rc = cli_main(["verify-normality", "--config", cfg,
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "replications" in err
    assert "Traceback" not in err


def test_cli_worker_crash_exits_2(tmp_path, monkeypatch, capsys, fresh_pool):
    import qsense.harness as h

    # workers forked after the patch exit in their first fit
    monkeypatch.setattr(h, "fit", lambda *args: os._exit(3))
    fresh_pool()
    cfg = _write_config(str(tmp_path), {"d": 3, "k": 1, "n": 50,
                                        "replications": 4, "seed": 1})
    rc = cli_main(["verify-normality", "--config", cfg, "--threads", "2",
                   "--out-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.count("\n") == 1 and "worker" in err
    # the broken pool is dropped, and the next pooled run forks a new one
    assert h._POOL is None
    monkeypatch.undo()
    serial, _ = run_replications(_config(threads=1))
    pooled, _ = run_replications(_config(threads=2))
    assert _record_lines(pooled) == _record_lines(serial)


def test_pooled_process_exits_and_leaves_no_worker():
    # concurrent.futures joins the kept pool at interpreter exit
    code = (
        "import json, multiprocessing\n"
        "from qsense.harness import ExperimentConfig, normality_experiment\n"
        "normality_experiment(ExperimentConfig(d=3, k=1, n=200, "
        "replications=8, threads=2))\n"
        "print(json.dumps([p.pid for p in multiprocessing.active_children()]))\n")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                          capture_output=True, text=True, check=True)
    pids = json.loads(done.stdout)
    assert pids
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.parametrize("loss", ["gaussian", "logistic"])
def test_cached_whitening_matches_wald_intervals(loss):
    # each replicate whitens with the context's cached root and half-widths;
    # both must reproduce the public interval computation bit for bit
    cfg = ExperimentConfig(d=6, k=2, loss=loss, n=2000, replications=10,
                           seed=2024)
    records, ctx = run_replications(cfg)
    for rec in records:
        assert not rec.diverged
        ref = q.wald_intervals(rec.phi0, q.asymptotic_covariance(ctx.hstar),
                               ctx.n, cfg.alpha,
                               phi_star=q.represent(ctx.theta_star, ctx.basis))
        assert np.array_equal(rec.z, ref.standardized)
        assert np.array_equal(rec.ci_hits, ref.covers)


def test_replicates_beyond_the_injectivity_radius_keep_z_and_coverage():
    # at n = 20 and sigma = 3 most estimates land beyond the radius, where
    # the aligned chord is no chart: their Taylor fields are NaN, while the
    # whitened error and coverage are recorded and nothing counts as diverged
    records, ctx = run_replications(_config(sigma=3.0, n=20, replications=60))
    radius = q.injectivity_radius(ctx.theta_star)
    far = [rec for rec in records if rec.distance >= radius]
    near = [rec for rec in records if rec.distance < radius]
    assert len(far) >= 30 and near
    assert not any(rec.diverged for rec in records)
    for rec in far:
        assert np.all(np.isfinite(rec.z))
        assert rec.ci_hits.dtype == bool and rec.ci_hits.shape == rec.z.shape
        assert np.isnan([rec.taylor_lhs, rec.taylor_remainder,
                         rec.taylor_ratio]).all()
    for rec in near:
        assert np.isfinite([rec.taylor_lhs, rec.taylor_remainder]).all()


def test_serial_run_decomposes_hstar_once_and_aligns_once_per_replicate(
        monkeypatch):
    import qsense.geometry as geo
    import qsense.inference as inf

    calls = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(inf, "asymptotic_covariance")
    counting(geo, "align")
    records, _ = run_replications(_config(replications=5))
    assert calls.count("asymptotic_covariance") == 1
    assert calls.count("align") == len(records) == 5


@pytest.mark.parametrize("loss, n", [("gaussian", 8000), ("logistic", 16000)])
def test_serial_run_builds_curvature_only_inside_fits(monkeypatch, loss, n):
    # the fit builds the restricted curvature at most once per two accepted
    # steps, plus once per gradient fallback; the truth needs only H v
    import qsense.harness as harness
    import qsense.inference as inf

    builds, fits = [], []
    original_terms, original_fit = inf._restricted_terms, harness.fit

    def counting_terms(*args, **kwargs):
        builds.append(1)
        return original_terms(*args, **kwargs)

    def counting_fit(*args, **kwargs):
        before = len(builds)
        res = original_fit(*args, **kwargs)
        fits.append((res, len(builds) - before))
        return res

    monkeypatch.setattr(inf, "_restricted_terms", counting_terms)
    monkeypatch.setattr(harness, "fit", counting_fit)
    cfg = ExperimentConfig(d=6, k=2, loss=loss, sigma=0.1, n=n,
                           replications=4, seed=2024)
    records, _ = run_replications(cfg)
    assert len(fits) == len(records) == 4
    assert sum(count for _, count in fits) == len(builds)
    for res, count in fits:
        assert res.converged
        assert 1 <= count <= math.ceil(res.iterations / 2) + res.gradient_steps


def test_large_n_reports_identical_across_thread_counts():
    # n = 16000 is large enough for multi-threaded BLAS to split its sums,
    # which would change the rounding unless every replicate, serial or
    # pooled, runs with one BLAS thread
    outputs = []
    for threads in (1, 2):
        cfg = ExperimentConfig(d=6, k=2, loss="logistic", n=16000,
                               replications=4, seed=2024, threads=threads)
        rep = normality_experiment(cfg)
        outputs.append((json.dumps(rep.to_json_dict(), sort_keys=True),
                        rep.z_matrix.tobytes()))
    assert outputs[0] == outputs[1]
