import json
from dataclasses import replace
from functools import cached_property

import numpy as np
import pytest

import qsense as q
import qsense.model as model
from qsense.errors import DivergenceError, InitializationError
from qsense.estimator import _radial_scale
from qsense.harness import ExperimentConfig, make_truth, run_replications
from qsense.model import (Dataset, StackRoute, design_forward, empirical_loss,
                          euclidean_gradient)

from helpers import (dense_curvature, random_instance, random_orthogonal,
                     random_theta, rel_err, sbar_at)


def _tau(data, loss, start):
    route = StackRoute(data, loss)
    return _radial_scale(route, start, route.state(start))


def _noiseless(theta, n, seed=0, design="gaussian"):
    dgp = q.DataGeneratingProcess(theta_star=theta, design=design,
                                  noise="gaussian", sigma=0.0, seed=seed)
    return q.simulate(dgp, n)


# ---------------------------------------------------------------------------
# spectral initialization
# ---------------------------------------------------------------------------

def test_spectral_init_deterministic():
    rng = np.random.default_rng(0)
    theta = random_theta(rng, 4, 2)
    data = _noiseless(theta, 100)
    a = q.spectral_init(data, 2, q.GaussianNLL(1.0))
    b = q.spectral_init(data, 2, q.GaussianNLL(1.0))
    assert np.array_equal(a, b)


def test_spectral_init_exact_factor_when_k_equals_d():
    # one measurement designed so the weighted mean is itself PSD
    P = np.diag([2.0, 1.0])
    data = Dataset(X=P[None], y=np.array([1.0]), k=2)
    init = q.spectral_init(data, 2, q.GaussianNLL(1.0))
    assert np.allclose(init @ init.T, P, atol=1e-12)


def test_spectral_init_recovers_noiseless_truth_beyond_p_rows():
    # n > p: the least-squares m_hat is m* exactly, whatever Sigma_hat is;
    # smat(b) = smat(Sigma_hat m*) would miss M* by about |Sigma_hat - I|
    rng = np.random.default_rng(21)
    theta = random_theta(rng, 4, 2)
    data = _noiseless(theta, 40, seed=22, design="bounded")
    init = q.spectral_init(data, 2, q.GaussianNLL(1.0))
    M = theta @ theta.T
    assert rel_err(init @ init.T, M) <= 1e-10


@pytest.mark.parametrize("n", [15, 21])
def test_spectral_matrix_is_smat_b_up_to_p_rows(n):
    # d = 6, p = 21: Sigma_hat is singular, and least squares would
    # interpolate the targets; the matrix is the backprojection smat(b),
    # computed as for any other loss
    rng = np.random.default_rng(23)
    data = q.simulate(q.DataGeneratingProcess(
        theta_star=random_theta(rng, 6, 2), sigma=0.1, seed=24), n)
    route = StackRoute(data, q.GaussianNLL(0.1))
    assert np.array_equal(route.spectral(),
                          model.design_adjoint(data.U, data.y) / data.n)
    assert rel_err(route.spectral(),
                   model.smat(data.U.T @ data.y / data.n)) <= 1e-15


def test_spectral_init_close_to_truth_at_scale():
    rng = np.random.default_rng(1)
    theta = random_theta(rng, 6, 2)
    data = _noiseless(theta, 10_000, seed=3, design="symmetric")
    init = q.spectral_init(data, 2, q.GaussianNLL(1.0))
    M = theta @ theta.T
    err = np.linalg.norm(init @ init.T - M) / np.linalg.norm(M)
    assert err <= 0.1


def test_spectral_init_error_when_uninformative():
    data = Dataset(X=np.random.default_rng(2).standard_normal((5, 3, 3)),
                   y=np.zeros(5), k=1)
    with pytest.raises(InitializationError):
        q.spectral_init(data, 1, q.GaussianNLL(1.0))


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_noiseless_exact_recovery():
    rng = np.random.default_rng(3)
    theta = random_theta(rng, 4, 1)
    data = _noiseless(theta, 50, seed=5)
    res = q.fit(data, q.GaussianNLL(1.0),
                q.FitConfig(grad_tol=1e-11, max_iters=50_000))
    assert res.converged
    assert q.align(res.theta0, theta).distance <= 1e-6
    assert res.final_loss <= 1e-12


def test_fit_warm_start_at_truth_stops_immediately():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 3, 2)
    data = _noiseless(theta, 30, seed=6)
    res = q.fit(data, q.GaussianNLL(1.0), q.FitConfig(init=theta))
    assert res.converged
    assert res.iterations <= 1


def test_fit_sign_symmetry_k1():
    rng = np.random.default_rng(5)
    theta = random_theta(rng, 4, 1)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=0.3, seed=7)
    data = q.simulate(dgp, 80)
    init = theta + 0.1 * rng.standard_normal((4, 1))
    loss = q.GaussianNLL(0.3)
    r1 = q.fit(data, loss, q.FitConfig(init=init, grad_tol=1e-9))
    r2 = q.fit(data, loss, q.FitConfig(init=-init, grad_tol=1e-9))
    assert q.align(r1.theta0, theta).distance == pytest.approx(
        q.align(r2.theta0, theta).distance, abs=1e-8)


def test_fit_trace_monotone():
    rng = np.random.default_rng(6)
    theta = random_theta(rng, 5, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=0.5, seed=8)
    data = q.simulate(dgp, 200)
    res = q.fit(data, q.GaussianNLL(0.5), q.FitConfig(grad_tol=1e-8))
    assert np.all(np.diff(res.loss_trace) <= 0.0)


def test_fit_rotation_equivariance_of_argmin():
    rng = np.random.default_rng(7)
    theta = random_theta(rng, 4, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=0.2, seed=9)
    data = q.simulate(dgp, 150)
    loss = q.GaussianNLL(0.2)
    init = theta + 0.1 * rng.standard_normal((4, 2))
    U = random_orthogonal(rng, 2)
    r1 = q.fit(data, loss, q.FitConfig(init=init, grad_tol=1e-9))
    r2 = q.fit(data, loss, q.FitConfig(init=init @ U, grad_tol=1e-9))
    assert r1.final_loss == pytest.approx(r2.final_loss, abs=1e-8)


def test_fit_divergence_error_reports_trace():
    rng = np.random.default_rng(8)
    theta = random_theta(rng, 3, 1)
    data = _noiseless(theta, 20, seed=10)
    huge = np.full((3, 1), 1e200)
    with pytest.raises(DivergenceError) as err:
        q.fit(data, q.GaussianNLL(1.0), q.FitConfig(init=huge))
    assert err.value.trace  # the offending values are attached


def test_fit_requires_rank_for_spectral_init():
    data = Dataset(X=np.eye(2)[None], y=np.array([1.0]))
    with pytest.raises(ValueError):
        q.fit(data, q.GaussianNLL(1.0))


def test_fit_logistic_recovers_truth_direction():
    rng = np.random.default_rng(10)
    theta = random_theta(rng, 4, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="bernoulli", seed=12)
    data = q.simulate(dgp, 6000)
    res = q.fit(data, q.Logistic(), q.FitConfig(grad_tol=1e-7))
    assert res.converged
    assert q.align(res.theta0, theta).distance < 0.3


def test_fit_escapes_saddle_where_curvature_is_indefinite():
    # replicate 31 of this run (stream (11, 1, 31)): unguarded Newton steps
    # stop at a saddle 0.81 from the truth and report convergence
    cfg = ExperimentConfig(d=6, k=2, loss="logistic", n=2000,
                           replications=100, seed=11)
    theta_star = make_truth(cfg)
    data = q.simulate(cfg.make_dgp(theta_star, 1, 31), cfg.n)
    loss = cfg.make_loss()
    res = q.fit(data, loss, cfg.fit_config(cfg.seed * 1_000_003 + 31))
    assert res.converged
    assert q.align(res.theta0, theta_star).distance < 0.2
    H = q.restricted_hessian(data, res.theta0, q.horizontal_basis(res.theta0),
                             loss)
    assert np.linalg.eigvalsh(H)[0] > 0.0


def test_fit_from_rank_deficient_warm_start_falls_back_to_gradient():
    # no horizontal basis exists at a factor with a zero column
    rng = np.random.default_rng(13)
    theta = random_theta(rng, 4, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=0.5, seed=15)
    data = q.simulate(dgp, 200)
    init = theta.copy()
    init[:, 1] = 0.0
    res = q.fit(data, q.GaussianNLL(0.5), q.FitConfig(init=init, max_iters=200))
    assert isinstance(res, q.FitResult)
    assert res.final_loss < res.loss_trace[0]
    assert 1 <= res.gradient_steps <= res.iterations


def test_fit_config_validation():
    for bad in (dict(grad_tol=0.0), dict(max_iters=0)):
        with pytest.raises(ValueError):
            q.FitConfig(**bad).validate()


# ---------------------------------------------------------------------------
# the Gaussian loss on p + 1 square-root rows
# ---------------------------------------------------------------------------

def _criterion5_gaussian(sigma=0.1, n=8000):
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=sigma, n=n,
                           replications=1, seed=2024)
    data = q.simulate(cfg.make_dgp(make_truth(cfg), 1, 0), cfg.n)
    return data, cfg.make_loss(), cfg.fit_config(cfg.seed * 1_000_003)


def _noiseless_minimum(warm):
    # the truth is this problem's minimum, where both starts stop without a
    # step
    rng = np.random.default_rng(14)
    theta = random_theta(rng, 4, 2)
    data = _noiseless(theta, 80, seed=15)
    return data, q.GaussianNLL(1.0), q.FitConfig(
        init=theta if warm else "spectral", grad_tol=1e-12, max_iters=50_000)


@pytest.mark.parametrize("problem", [
    lambda: _noiseless_minimum(warm=False),
    lambda: _noiseless_minimum(warm=True),
    _criterion5_gaussian,
    # the square-root rows' residuals cancel terms about |M*| / sigma times
    # their own size
    lambda: _criterion5_gaussian(sigma=0.01),
], ids=["noiseless", "noiseless-warm-at-truth", "criterion-5-gaussian",
        "criterion-5-gaussian-sigma-0.01"])
def test_reported_losses_are_true_values(problem):
    data, loss, cfg = problem()
    assert StackRoute(data, loss).n == data.U.shape[1] + 1
    res = q.fit(data, loss, cfg)
    assert res.converged
    trace = res.loss_trace
    assert np.all(trace >= 0.0)
    # a step below the loss's rounding error may raise it by that error
    assert np.all(np.diff(trace) <= np.maximum(1e-12 * trace[:-1], 1e-14))
    true = empirical_loss(data, res.theta0, loss)
    assert abs(res.final_loss - true) <= max(1e-12 * true, 1e-14)


def _compressed_and_full_fits_agree(monkeypatch, data, loss, cfg):
    # both descents take one start, the spectral one on the p + 1 rows
    cfg = replace(cfg, init=q.spectral_init(data, data.k, loss))
    compressed = q.fit(data, loss, cfg)
    assert data.compressed is not data
    monkeypatch.setattr(Dataset, "compressed", property(lambda data: data))
    assert StackRoute(data, loss).n == data.n
    full = q.fit(data, loss, cfg)
    assert compressed.converged and full.converged
    assert compressed.iterations == full.iterations
    assert (np.linalg.norm(compressed.theta0 - full.theta0)
            <= 1e-10 * np.linalg.norm(full.theta0))


def test_row_blocked_and_dense_curvature_fits_agree(monkeypatch):
    # four row blocks of the stack curvature, the last one partial
    n = 3 * model._CURVATURE_ROWS + 17
    cfg = ExperimentConfig(d=6, k=2, loss="logistic", n=n, replications=1,
                           seed=2024)
    theta_star = make_truth(cfg)
    data = q.simulate(cfg.make_dgp(theta_star, 1, 0), n)
    loss = cfg.make_loss()
    blocked = q.fit(data, loss, cfg.fit_config(0))
    monkeypatch.setattr(StackRoute, "curvature", dense_curvature)
    dense = q.fit(data, loss, cfg.fit_config(0))
    assert blocked.converged and dense.converged
    assert blocked.iterations == dense.iterations
    assert blocked.gradient_steps == dense.gradient_steps
    assert rel_err(blocked.theta0 @ blocked.theta0.T,
                   dense.theta0 @ dense.theta0.T) <= 1e-10


def test_moment_and_stack_fits_agree(monkeypatch):
    _compressed_and_full_fits_agree(monkeypatch, *_criterion5_gaussian())


def test_moment_and_stack_fits_agree_below_4_d_squared(monkeypatch):
    # n = 100 < 4 d^2 = 144: library data of any size are compressed
    _compressed_and_full_fits_agree(monkeypatch, *_criterion5_gaussian(n=100))


def _count_compressions(monkeypatch):
    """The datasets whose ``compressed`` is built as new rows, in order."""
    compressed = []
    original = Dataset.compressed.func

    def counting(dataset):
        result = original(dataset)
        if result is not dataset:
            compressed.append(dataset)
        return result

    prop = cached_property(counting)
    prop.__set_name__(Dataset, "compressed")
    monkeypatch.setattr(Dataset, "compressed", prop)
    return compressed


@pytest.mark.parametrize("loss, n, builds, draws", [
    ("logistic", 400, 0, 3),
    # one sample short of 4 d^2 the harness simulates the n samples, which
    # the Gaussian loss compresses once per replicate; from 4 d^2 on it
    # draws p + 1 rows, read as they are
    ("gaussian", 4 * 36 - 1, 3, 3),
    ("gaussian", 4 * 36, 0, 0),
], ids=["logistic-400-0", "gaussian-143-0", "gaussian-144-0"])
def test_moments_are_built_only_on_the_moment_route(monkeypatch, loss, n,
                                                    builds, draws):
    compressed, simulated = _count_compressions(monkeypatch), []

    def counting_simulate(dgp, size):
        simulated.append(size)
        return q.simulate(dgp, size)

    monkeypatch.setattr(model, "simulate", counting_simulate)
    cfg = ExperimentConfig(d=6, k=2, loss=loss, sigma=0.1, n=n,
                           replications=3, seed=5)
    records, _ = run_replications(cfg)
    assert not any(rec.diverged for rec in records)
    assert len(compressed) == builds
    assert len(simulated) == draws


def test_library_fit_builds_the_moments_once(monkeypatch):
    compressed = _count_compressions(monkeypatch)
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1, n=4 * 36,
                           replications=1, seed=5)
    truth, loss = make_truth(cfg), cfg.make_loss()
    data = q.simulate(cfg.make_dgp(truth, 1, 0), cfg.n)
    res = q.fit(data, loss, cfg.fit_config(0))
    q.restricted_representation(data, truth, res.theta0,
                                q.horizontal_basis(truth), loss)
    assert res.converged
    assert compressed == [data]


def test_small_noise_fits_converge_below_the_loss_resolution():
    # sigma = 0.01: the last Newton step lowers the loss by about one unit
    # in its last place, which the loss values cannot resolve; taken within
    # their rounding error, it brings every gradient below its tolerance
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.01, n=8000,
                           replications=80, seed=2024)
    records, _ = run_replications(cfg)
    assert np.all(records.converged)
    assert np.all(records.iterations <= 2)


def test_tiny_noise_fits_stop_within_a_few_iterations():
    # sigma = 1e-6: the gradient's rounding error, about 1e-4, exceeds the
    # tolerance; the descent stops once the gradient is within it
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=1e-6, n=8000,
                           replications=2, seed=2024)
    records, _ = run_replications(cfg)
    assert not any(rec.diverged for rec in records)
    assert np.all(records.iterations <= 10)
    data, loss, fit_cfg = _criterion5_gaussian(sigma=1e-6)
    res = q.fit(data, loss, fit_cfg)
    assert res.converged and res.iterations <= 10
    true = empirical_loss(data, res.theta0, loss)
    assert abs(res.final_loss - true) <= 1e-10 * true


@pytest.mark.parametrize("loss_kind", ["gaussian", "logistic"])
@pytest.mark.parametrize("max_iters", [1, 2, 100_000])
def test_fit_carries_sbar_at_its_estimate(loss_kind, max_iters):
    # also when the loop runs out of iterations with its last derivative
    # pass at the previous iterate
    rng = np.random.default_rng(18)
    data, _, loss = random_instance(rng, 4, 2, 300, loss_kind)
    res = q.fit(data, loss, q.FitConfig(max_iters=max_iters))
    if max_iters <= 2:
        assert not res.converged and res.iterations == max_iters
    else:
        assert res.converged
    assert rel_err(res.sbar, sbar_at(data, res.theta0, loss)) <= 1e-12
    assert json.loads(json.dumps(res.to_json_dict()))["sbar"] == \
        res.sbar.tolist()


# ---------------------------------------------------------------------------
# radial start
# ---------------------------------------------------------------------------

def test_radial_scale_is_the_least_squares_ratio_for_gaussian_loss():
    rng = np.random.default_rng(14)
    theta = random_theta(rng, 5, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=0.4, seed=16)
    data = q.simulate(dgp, 300)
    start = 3.0 * q.spectral_init(data, 2, q.GaussianNLL(0.4))
    z0 = design_forward(data.U, start @ start.T)
    tau = _tau(data, q.GaussianNLL(0.4), start)
    assert tau == pytest.approx(z0 @ data.y / (z0 @ z0), rel=1e-12, abs=0)


def test_radial_scale_zeroes_the_ray_derivative_for_logistic_loss():
    rng = np.random.default_rng(15)
    theta = random_theta(rng, 4, 2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="bernoulli", seed=17)
    data = q.simulate(dgp, 3000)
    loss = q.Logistic()
    start = q.spectral_init(data, 2, loss)
    z0 = design_forward(data.U, start @ start.T)
    tau = _tau(data, loss, start)
    d1 = loss.d1(tau * z0, data.y)
    assert abs(np.mean(d1 * z0)) <= 1e-9 * np.mean(np.abs(d1 * z0))
    # the response-weighted mean shrinks the logistic factor's scale
    assert tau > 2.0


def test_separable_ray_keeps_the_start_and_fit_runs():
    # PSD designs and all-ones targets: the loss falls without bound
    # along the ray, so there is no scale to solve for
    V = np.random.default_rng(16).standard_normal((40, 3))
    data = Dataset(X=np.einsum("ni,nj->nij", V, V), y=np.ones(40), k=1)
    loss = q.Logistic()
    start = q.spectral_init(data, 1, loss)
    assert np.all(design_forward(data.U, start @ start.T) > 0.0)
    assert _tau(data, loss, start) is None
    res = q.fit(data, loss, q.FitConfig(max_iters=50))
    assert np.all(np.isfinite(res.theta0))
    assert res.final_loss < res.loss_trace[0]


@pytest.mark.parametrize("scale", [40.0, -800.0])
def test_saturated_ray_has_no_scale_and_a_finite_loss(scale):
    # every prediction lies where ell'' rounds to 0 (beyond 37 expit is 1,
    # below -745 it is 0), so the ray looks flat to the scalar solve
    rng = np.random.default_rng(17)
    n = 30
    X = scale * (1.0 + rng.random(n))[:, None, None] * np.eye(3)[None]
    y = (np.arange(n) % 2).astype(float)
    data = Dataset(X=X, y=y, k=1)
    loss = q.Logistic()
    start = np.array([[1.0], [0.0], [0.0]])
    z0 = design_forward(data.U, start @ start.T)
    assert np.all(loss.d2(z0, y) == 0.0)
    assert _tau(data, loss, start) is None
    value = loss.value(z0, y)
    assert np.all(np.isfinite(value))
    assert np.all(np.abs(value - (np.logaddexp(0.0, z0) - y * z0))
                  <= 4.4e-16 * np.abs(z0))
    res = q.fit(data, loss, q.FitConfig(init=start, max_iters=20))
    assert np.isfinite(res.loss_trace[0])
    assert res.final_loss < res.loss_trace[0]


@pytest.mark.parametrize("n, seed, r", [
    (16000, 2024, 0),  # criterion 5, logistic
    (2000, 11, 31),    # the saddle replicate above
])
def test_radial_and_raw_spectral_starts_reach_the_same_minimizer(n, seed, r):
    # the unscaled start crosses indefinite curvature on the way
    cfg = ExperimentConfig(d=6, k=2, loss="logistic", n=n, replications=1,
                           seed=seed)
    data = q.simulate(cfg.make_dgp(make_truth(cfg), 1, r), cfg.n)
    loss = cfg.make_loss()
    fit_cfg = cfg.fit_config(cfg.seed * 1_000_003 + r)
    radial = q.fit(data, loss, fit_cfg)
    fit_cfg.init = q.spectral_init(data, cfg.k, loss)
    raw = q.fit(data, loss, fit_cfg)
    assert radial.converged and raw.converged
    assert radial.iterations < raw.iterations
    assert raw.gradient_steps >= 1
    M = radial.theta0 @ radial.theta0.T
    assert np.linalg.norm(raw.theta0 @ raw.theta0.T - M) <= 1e-5 * np.linalg.norm(M)


# ---------------------------------------------------------------------------
# first- and second-order evidence of a minimizer
# ---------------------------------------------------------------------------

def test_certificate_at_converged_fit():
    rng = np.random.default_rng(11)
    theta = random_theta(rng, 4, 2)
    data = _noiseless(theta, 60, seed=13)
    loss = q.GaussianNLL(1.0)
    res = q.fit(data, loss, q.FitConfig(grad_tol=1e-10, max_iters=50_000))
    assert res.converged
    basis = q.horizontal_basis(res.theta0)
    assert np.linalg.norm(euclidean_gradient(data, res.theta0, loss)) <= 1e-10
    H = q.restricted_hessian(data, res.theta0, basis, loss)
    assert np.linalg.eigvalsh(H)[0] > 0.0
    assert q.align(res.theta0, theta).distance <= 1e-6


def test_certificate_exact_zero_gradient_at_noiseless_truth():
    rng = np.random.default_rng(12)
    theta = random_theta(rng, 3, 2)
    data = _noiseless(theta, 40, seed=14)
    loss = q.GaussianNLL(1.0)
    assert np.linalg.norm(euclidean_gradient(data, theta, loss)) == 0.0
