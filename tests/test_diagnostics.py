import math

import numpy as np
import pytest

import qsense as q
from qsense.diagnostics import projection_derivative
from qsense.errors import CapabilityError, OutOfInjectivityError
from qsense.model import Dataset, hessian_operator

from helpers import random_theta


def _dgp(theta, seed=0, design="gaussian", noise="gaussian", sigma=1.0):
    return q.DataGeneratingProcess(theta_star=theta, design=design,
                                   noise=noise, sigma=sigma, seed=seed)


def _constants(d=1, k=1, **kw):
    base = dict(d=d, k=k, X_max=1.0, sigma_min=1.0, sigma_max=1.0,
                sigma_eps=1.0, mu_max=1.0, K_ell=1.0, mu0=1.0, lambda0=1.0)
    base.update(kw)
    return q.ProblemConstants(**base)


# ---------------------------------------------------------------------------
# noise aggregates
# ---------------------------------------------------------------------------

def test_noise_aggregates_vanish_without_noise():
    rng = np.random.default_rng(0)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, sigma=0.0), 50)
    agg = q.noise_aggregates(data, theta, q.GaussianNLL(1.0))
    assert np.allclose(agg.xbar, 0.0)
    assert agg.eps_bar == 0.0


def test_noise_aggregates_half_normal_mean():
    # |eps| for unit Gaussian noise has mean sqrt(2/pi)
    rng = np.random.default_rng(1)
    theta = random_theta(rng, 3, 2)
    data = q.simulate(_dgp(theta, seed=2, sigma=1.0), 100_000)
    agg = q.noise_aggregates(data, theta, q.GaussianNLL(1.0))
    assert abs(agg.eps_bar - math.sqrt(2.0 / math.pi)) < 0.01


def test_xbar_concentration_envelope_holds():
    rng = np.random.default_rng(3)
    theta = random_theta(rng, 4, 2)
    constants = _constants(d=4, k=2, X_max=float(np.sqrt(3.0)),
                           sigma_min=0.8, sigma_max=1.5)
    hits = 0
    trials = 200
    for seed in range(trials):
        data = q.simulate(_dgp(theta, seed=(10, seed), design="bounded"), 500)
        agg = q.noise_aggregates(data, theta, q.GaussianNLL(1.0),
                                 delta=0.05, constants=constants)
        hits += agg.xbar_norm <= agg.xbar_bound
    assert hits / trials >= 0.95


def test_eps_envelope_holds():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 3, 2)
    data = q.simulate(_dgp(theta, seed=5), 2_000)
    agg = q.noise_aggregates(data, theta, q.GaussianNLL(1.0), delta=0.05,
                             constants=_constants(d=3, k=2, sigma_min=0.8,
                                                  sigma_max=1.5))
    for value in (agg.eps_bar, agg.eps1_bar, agg.eps2_bar):
        assert value <= agg.eps_bound


# ---------------------------------------------------------------------------
# restricted design eigenvalue
# ---------------------------------------------------------------------------

def test_restricted_eigenvalue_population_isotropic():
    assert q.restricted_eigenvalue_estimate("gaussian", 4,
                                            population=True) == 1.0
    assert q.restricted_eigenvalue_estimate("bounded", 4,
                                            population=True) == 1.0


def test_restricted_eigenvalue_population_symmetric_design_degenerate():
    # skew matrices are invisible to a symmetric design
    val = q.restricted_eigenvalue_estimate("symmetric", 3, population=True)
    assert val == pytest.approx(0.0, abs=1e-12)


def test_restricted_eigenvalue_population_values_need_no_form():
    # with d = 1 there is no skew direction to hide
    assert q.restricted_eigenvalue_estimate("symmetric", 1,
                                            population=True) == 1.0
    # exact values materialize nothing, so the size guard does not apply
    assert q.restricted_eigenvalue_estimate("symmetric", 13,
                                            population=True) == 0.0
    assert q.restricted_eigenvalue_estimate("gaussian", 13,
                                            population=True) == 1.0


def test_restricted_eigenvalue_single_matrix_is_rank_one():
    X = np.random.default_rng(6).standard_normal((3, 3))
    assert q.restricted_eigenvalue_estimate(X, 3) < 1e-12


def test_restricted_eigenvalue_monte_carlo_near_one():
    val = q.restricted_eigenvalue_estimate("gaussian", 4, n_mc=10_000,
                                           seed=7)
    assert abs(val - 1.0) <= 0.1


def test_restricted_eigenvalue_guard():
    with pytest.raises(CapabilityError):
        q.restricted_eigenvalue_estimate("gaussian", 13, n_mc=10)


# ---------------------------------------------------------------------------
# restricted curvature floor
# ---------------------------------------------------------------------------

def test_lambda_min_matches_closed_form_at_scale():
    rng = np.random.default_rng(8)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    Hstar = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
    target = float(np.linalg.eigvalsh(Hstar)[0])
    data = q.simulate(_dgp(theta, seed=9), 100_000)
    lam = q.minimizer_certificate(data, theta, loss,
                                    basis).restricted_min_eigenvalue
    assert lam == pytest.approx(target, rel=0.05)


def test_vertical_direction_kills_population_min_eigenvalue():
    rng = np.random.default_rng(10)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    vert = theta @ q.skew_basis(2)[0]
    vert /= np.linalg.norm(vert)
    extended = q.HorizontalBasis(anchor=theta,
                                 elements=np.concatenate([basis.elements,
                                                          vert[None]]),
                                 tag="debug")
    H = q.restricted_population_hessian(_dgp(theta), theta, extended,
                                        q.GaussianNLL(1.0))
    assert abs(np.linalg.eigvalsh(H)[0]) <= 1e-10


def test_lambda_min_above_certificate_floor_with_deviations():
    # the concentration envelopes are loose, so the implied floor should be
    # respected in nearly every trial
    rng = np.random.default_rng(11)
    theta = random_theta(rng, 4, 2, smin=0.8, smax=1.2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    constants = _constants(d=4, k=2, X_max=float(np.sqrt(3.0)), sigma_min=0.8,
                           sigma_max=1.2)
    cert = q.theory_constants(constants, 0.05)
    hits = 0
    trials = 50
    n = 1000
    for seed in range(trials):
        data = q.simulate(_dgp(theta, seed=(20, seed), design="bounded"), n)
        lam = q.minimizer_certificate(data, theta, loss,
                                      basis).restricted_min_eigenvalue
        agg = q.noise_aggregates(data, theta, loss, delta=0.05,
                                 constants=constants)
        floor = (cert.lambda_min_population
                 - 2.0 * agg.xbar_bound - agg.mbar_bound)
        hits += lam >= floor
    assert hits / trials >= 0.90


# ---------------------------------------------------------------------------
# theory certificate
# ---------------------------------------------------------------------------

def test_certificate_all_ones_lipschitz_constant():
    cert = q.theory_constants(_constants(), 0.05)
    assert cert.K == pytest.approx(160.0 * 17.0)  # = 2720


def test_certificate_rate_bound_scales_as_inverse_sqrt_n():
    cert = q.theory_constants(_constants(d=3, k=2), 0.05)
    assert cert.rate_bound(1000) / cert.rate_bound(4000) == pytest.approx(2.0)


def test_certificate_K_scales_with_fourth_power_of_d():
    a = q.theory_constants(_constants(d=2, k=1), 0.05).K
    b = q.theory_constants(_constants(d=4, k=1), 0.05).K
    assert b / a == pytest.approx(16.0)


def test_certificate_monotonicity():
    base = q.theory_constants(_constants(d=4, k=2), 0.05)
    ns = [10**p for p in range(3, 9)]
    bounds = [base.rate_bound(n) for n in ns]
    assert all(x > y for x, y in zip(bounds, bounds[1:]))
    bigger_d = q.theory_constants(_constants(d=6, k=2), 0.05)
    bigger_k = q.theory_constants(_constants(d=8, k=3), 0.05)
    smaller_delta = q.theory_constants(_constants(d=4, k=2), 0.005)
    assert bigger_d.n_required > base.n_required
    assert bigger_k.n_required > q.theory_constants(_constants(d=8, k=2), 0.05).n_required
    assert smaller_delta.n_required > base.n_required
    assert base.lambda_min_lower_bound(10**6) < base.lambda_min_population


def test_certificate_validates_constants():
    with pytest.raises(ValueError):
        q.theory_constants(_constants(mu0=1.5), 0.05)
    with pytest.raises(ValueError):
        q.theory_constants(_constants(), 1.5)


# ---------------------------------------------------------------------------
# expansion remainder
# ---------------------------------------------------------------------------

def test_taylor_lhs_is_score_norm_at_truth():
    rng = np.random.default_rng(12)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=13, sigma=0.5), 300)
    loss = q.GaussianNLL(0.5)
    basis = q.horizontal_basis(theta)
    rep = q.taylor_residual_check(
        data, q.restricted_representation(data, theta, theta, basis, loss),
        loss)
    g0 = q.restricted_score(data, theta, basis, loss)
    assert rep.lhs == pytest.approx(float(np.linalg.norm(g0)), rel=1e-12)
    assert rep.distance == pytest.approx(0.0, abs=1e-12)
    assert rep.ratio is None


def test_taylor_residual_tiny_at_noiseless_minimizer():
    rng = np.random.default_rng(14)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=15, sigma=0.0), 80)
    loss = q.GaussianNLL(1.0)
    res = q.fit(data, loss, q.FitConfig(grad_tol=1e-12, max_iters=50_000))
    basis = q.horizontal_basis(theta)
    rep = q.taylor_residual_check(
        data, q.restricted_representation(data, theta, res.theta0, basis,
                                          loss), loss)
    assert rep.lhs <= 1e-8


def test_taylor_remainder_scales_quadratically():
    rng = np.random.default_rng(16)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=17, sigma=0.1), 400)
    loss = q.GaussianNLL(0.1)
    basis = q.horizontal_basis(theta)
    W = q.horizontal_project(theta, rng.standard_normal((4, 2)))
    W /= np.linalg.norm(W)
    radii = 0.15 * q.injectivity_radius(theta) * 0.5 ** np.arange(6)
    dists, rems = [], []
    for r in radii:
        rep = q.taylor_residual_check(data, q.restricted_representation(
            data, theta, theta + r * W, basis, loss), loss)
        dists.append(rep.distance)
        rems.append(rep.remainder)
    slope = np.polyfit(np.log(dists), np.log(rems), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_taylor_remainder_below_certificate():
    rng = np.random.default_rng(18)
    theta = random_theta(rng, 4, 2, smin=0.8, smax=1.2)
    data = q.simulate(_dgp(theta, seed=19, sigma=0.1, design="bounded"), 400)
    loss = q.GaussianNLL(0.1)
    basis = q.horizontal_basis(theta)
    constants = _constants(d=4, k=2, X_max=float(np.sqrt(3.0)), sigma_min=0.8,
                           sigma_max=1.2, sigma_eps=10.0, mu_max=100.0,
                           K_ell=100.0)
    cert = q.theory_constants(constants, 0.05)
    W = q.horizontal_project(theta, rng.standard_normal((4, 2)))
    W /= np.linalg.norm(W)
    for r in 0.1 * 0.5 ** np.arange(5):
        rep = q.taylor_residual_check(
            data, q.restricted_representation(data, theta, theta + r * W,
                                              basis, loss),
            loss, certificate_k=cert.K)
        assert rep.remainder <= rep.certificate_rhs
        assert rep.ratio <= cert.K / 2.0


def test_taylor_check_rejects_far_points():
    rng = np.random.default_rng(20)
    theta = random_theta(rng, 3, 2)
    data = q.simulate(_dgp(theta, seed=21), 50)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    rep = q.restricted_representation(data, theta, 10.0 * theta + 1.0, basis,
                                      loss)
    with pytest.raises(OutOfInjectivityError):
        q.taylor_residual_check(data, rep, loss)


# ---------------------------------------------------------------------------
# curvature-Lipschitz probe
# ---------------------------------------------------------------------------

def test_probe_zero_for_zero_design():
    theta = random_theta(np.random.default_rng(22), 3, 2)
    data = Dataset(X=np.zeros((4, 3, 3)), y=np.ones(4), k=2)
    val = q.hessian_lipschitz_probe(data, theta, 5, q.GaussianNLL(1.0))
    assert val == 0.0


def test_probe_below_certificate():
    rng = np.random.default_rng(23)
    theta = random_theta(rng, 4, 2, smin=0.8, smax=1.2)
    data = q.simulate(_dgp(theta, seed=24, design="bounded"), 300)
    loss = q.GaussianNLL(1.0)
    probe = q.hessian_lipschitz_probe(data, theta, 10, loss, seed=1)
    constants = _constants(d=4, k=2, X_max=float(np.sqrt(3.0)), sigma_min=0.8,
                           sigma_max=1.2)
    cert = q.theory_constants(constants, 0.05)
    assert 0.0 < probe <= cert.K


def test_projection_derivative_bound():
    # the projector's directional derivative is bounded by 3 / sigma_min
    rng = np.random.default_rng(25)
    theta = random_theta(rng, 5, 3, smin=0.6, smax=1.5)
    smin = q.injectivity_radius(theta)
    for _ in range(10):
        w = rng.standard_normal((5, 3))
        w /= np.linalg.norm(w)
        v = rng.standard_normal((5, 3))
        v /= np.linalg.norm(v)
        dp = projection_derivative(theta, w, v)
        assert np.linalg.norm(dp) <= 3.0 / smin + 1e-6


def test_projection_term_bounded_by_curvature_norm():
    rng = np.random.default_rng(26)
    theta = random_theta(rng, 4, 2, smin=0.7, smax=1.3)
    data = q.simulate(_dgp(theta, seed=27), 200)
    loss = q.GaussianNLL(1.0)
    smin = q.injectivity_radius(theta)
    # materialize the curvature as a dk x dk matrix for its operator norm
    d, k = theta.shape
    units = np.eye(d * k).reshape(d * k, d, k)
    Hmat = np.array([hessian_operator(data, theta, u, loss).ravel()
                     for u in units])
    opnorm = float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (Hmat + Hmat.T)))))
    for _ in range(5):
        w = rng.standard_normal((d, k))
        w /= np.linalg.norm(w)
        v = rng.standard_normal((d, k))
        v /= np.linalg.norm(v)
        Hv = hessian_operator(data, theta, v, loss)
        term = projection_derivative(theta, w, Hv)
        assert np.linalg.norm(term) <= 3.0 / smin * opnorm + 1e-6


# ---------------------------------------------------------------------------
# standing assumptions
# ---------------------------------------------------------------------------

def test_assumptions_pass_for_matched_gaussian():
    rng = np.random.default_rng(28)
    theta = random_theta(rng, 4, 2)
    report = q.assumption_report(_dgp(theta, seed=29, sigma=1.0), theta,
                                 q.GaussianNLL(1.0), 100_000)
    assert report.all_pass()
    assert report.bartlett_ratio == pytest.approx(1.0, abs=0.1)


def test_assumptions_pass_for_matched_logistic():
    rng = np.random.default_rng(30)
    theta = random_theta(rng, 4, 2)
    report = q.assumption_report(_dgp(theta, seed=31, noise="bernoulli"),
                                 theta, q.Logistic(), 100_000)
    assert report.score_mean_pass
    assert report.curvature_pass
    assert report.bartlett_pass


def test_assumptions_flag_scale_mismatch():
    # data noise 2 against loss scale 1: score covariance is 4x the curvature
    rng = np.random.default_rng(32)
    theta = random_theta(rng, 4, 2)
    report = q.assumption_report(_dgp(theta, seed=33, sigma=2.0), theta,
                                 q.GaussianNLL(1.0), 100_000)
    assert report.score_mean_pass  # first moment still centered
    assert not report.bartlett_pass
    assert abs(report.bartlett_ratio - 4.0) <= 0.8


def test_assumptions_reject_budget_without_standard_error():
    # the score's standard error divides by n_mc - 1
    rng = np.random.default_rng(35)
    theta = random_theta(rng, 3, 1)
    with pytest.raises(ValueError, match="n_mc must be >= 2"):
        q.assumption_report(_dgp(theta, seed=36, noise="bernoulli"), theta,
                            q.Logistic(), 1)


# ---------------------------------------------------------------------------
# lift identities
# ---------------------------------------------------------------------------

def test_gradient_lift_identity():
    # the gradient of a rotation-invariant loss is horizontal everywhere, so
    # its norm equals the norm of the induced gradient on the quotient
    rng = np.random.default_rng(34)
    theta = random_theta(rng, 5, 3)
    data = q.simulate(_dgp(theta, seed=35, sigma=0.5), 100)
    G = q.euclidean_gradient(data, theta + 0.2 * rng.standard_normal((5, 3)),
                             q.GaussianNLL(0.5))
    # evaluated at a generic point, not only at minimizers
    theta_eval = theta + 0.2 * rng.standard_normal((5, 3))
    G = q.euclidean_gradient(data, theta_eval, q.GaussianNLL(0.5))
    assert np.linalg.norm(q.vertical_project(theta_eval, G)) <= 1e-10


def test_hessian_maps_into_horizontal_at_critical_point():
    rng = np.random.default_rng(36)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=37, sigma=0.0), 60)
    loss = q.GaussianNLL(1.0)
    res = q.fit(data, loss, q.FitConfig(grad_tol=1e-12, max_iters=50_000))
    for _ in range(5):
        Z = rng.standard_normal((4, 2))
        HZ = hessian_operator(data, res.theta0, Z, loss)
        assert np.linalg.norm(q.horizontal_project(res.theta0, HZ) - HZ) <= 1e-9
