import numpy as np
import pytest

import qsense as q
from qsense.errors import OutOfInjectivityError
from qsense.model import euclidean_gradient, hessian_operator

from helpers import random_orthogonal, random_theta, rel_err, sbar_at


def _dgp(theta, seed=0, design="gaussian", noise="gaussian", sigma=1.0):
    return q.DataGeneratingProcess(theta_star=theta, design=design,
                                   noise=noise, sigma=sigma, seed=seed)


def _constants(d=1, k=1, **kw):
    base = dict(d=d, k=k, X_max=1.0, sigma_min=1.0, sigma_max=1.0,
                sigma_eps=1.0, mu_max=1.0, K_ell=1.0, mu0=1.0, lambda0=1.0)
    base.update(kw)
    return q.ProblemConstants(**base)


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
    lam = np.linalg.eigvalsh(q.restricted_hessian(data, theta, basis, loss))[0]
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
        q.restricted_representation(data, theta, theta, basis, loss),
        sbar_at(data, theta, loss))
    g0 = q.represent(euclidean_gradient(data, theta, loss), basis)
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
        q.restricted_representation(data, theta, res.theta0, basis, loss),
        res.sbar)
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
        rep = q.taylor_residual_check(q.restricted_representation(
            data, theta, theta + r * W, basis, loss),
            sbar_at(data, theta + r * W, loss))
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
            q.restricted_representation(data, theta, theta + r * W, basis,
                                        loss),
            sbar_at(data, theta + r * W, loss), certificate_k=cert.K)
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
        q.taylor_residual_check(rep, sbar_at(data, 10.0 * theta + 1.0, loss))


@pytest.mark.parametrize("loss_kind", ["gaussian", "logistic"])
def test_taylor_check_on_the_fits_sbar_matches_a_pass_at_the_aligned_estimate(
        loss_kind):
    # Sbar reads theta only through theta theta^T: the fit's last pass, at
    # theta0, serves the aligned estimate theta0 Q
    rng = np.random.default_rng(22)
    theta = random_theta(rng, 4, 2)
    noise = "gaussian" if loss_kind == "gaussian" else "bernoulli"
    data = q.simulate(_dgp(theta, seed=23, sigma=0.3, noise=noise), 2000)
    loss = q.GaussianNLL(0.3) if loss_kind == "gaussian" else q.Logistic()
    res = q.fit(data, loss)
    basis = q.horizontal_basis(theta)
    rep = q.restricted_representation(data, theta, res.theta0, basis, loss)
    aligned = theta + rep.chord
    assert rel_err(res.sbar, sbar_at(data, aligned, loss)) <= 1e-12
    Q = random_orthogonal(rng, 2)
    assert rel_err(sbar_at(data, res.theta0 @ Q, loss), res.sbar) <= 1e-12
    fresh = q.taylor_residual_check(rep, sbar_at(data, aligned, loss))
    reused = q.taylor_residual_check(rep, res.sbar)
    # the gradient there is below the fit's tolerance, 1e-9
    assert abs(reused.remainder - fresh.remainder) <= 1e-13
    assert abs(reused.grad_at_estimate_norm
               - fresh.grad_at_estimate_norm) <= 1e-13


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
