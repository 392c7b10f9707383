"""Certificates and runtime checks backing the statistical guarantees.

Everything here is simulation-side: it assumes access to the ground truth
(and often the data generating process) and quantifies how far a concrete
instance is from the idealized constants the guarantees are phrased in:
noise aggregates and their high-probability envelopes, the restricted
design eigenvalue, the restricted curvature floor, the curvature-Lipschitz
constant, the quadratic remainder of the local expansion, and the standing
moment assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry, inference
from .errors import CapabilityError
from .jsonable import JsonFields
from .model import (ISOTROPIC_DESIGNS, design_adjoint, design_moment,
                    euclidean_gradient, hessian_operator, predictions,
                    sample_design, third_derivative_operator)

# Guard on the d^2 x d^2 design-form materialization.
MAX_FORM_DIM = 12

# Central finite-difference step for the projection-derivative probe;
# balances sqrt(eps_machine) truncation against the 1/sigma_min curvature
# scale of the projector.
FD_STEP = 1e-5

# Largest relative Frobenius gap between the restricted score covariance and
# curvature that the Bartlett check accepts.
BARTLETT_TOL = 0.1


# ---------------------------------------------------------------------------
# Noise aggregates (empirical counterparts of the concentration events)
# ---------------------------------------------------------------------------

@dataclass
class EmpiricalAggregates(JsonFields):
    xbar: np.ndarray = field(repr=False)
    xbar_norm: float
    eps_bar: float
    eps1_bar: float
    eps2_bar: float
    delta: float
    xbar_bound: float
    eps_bound: float
    mbar_bound: float


def xbar_envelope(d, k, sigma_eps, x_max, delta, n):
    """High-probability bound for the score-weighted design mean norm."""
    return math.sqrt(8.0 * d * k * sigma_eps**2 * x_max**2
                     * math.log(8.0 * d * k / delta) / n)


def eps_envelope(mu_max, sigma_eps, delta, n):
    """High-probability bound for the mean absolute noise derivatives."""
    return mu_max + (3.0 + math.sqrt(72.0 * math.log(12.0 / delta) / n)) * sigma_eps


def mbar_envelope(d, k, sigma_eps, sigma_max, x_max, delta, n):
    """High-probability bound for the centered curvature fluctuation norm."""
    return math.sqrt(128.0 * d**2 * k**6 * x_max**4 * sigma_max**4
                     * sigma_eps**2 * math.log(8.0 * d**2 * k**2 / delta) / n)


def noise_aggregates(dataset, theta_star, loss, delta=0.05, constants=None):
    """Empirical noise aggregates at the truth plus their envelopes.

    eps_i is the loss score at the noiseless prediction; the aggregates are
    the score-weighted design mean X-bar and the mean absolute values of the
    first three loss derivatives.  The centered curvature fluctuation M-bar
    has only its envelope here: ell'' does not depend on y, so the
    fluctuation itself is identically zero.  Envelope constants come from
    ``constants`` when given, otherwise from conservative plug-in estimates.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    z = predictions(dataset, theta_star)
    eps = loss.d1(z, dataset.y)
    eps1 = loss.d2(z, dataset.y)
    eps2 = loss.d3(z, dataset.y)
    n = dataset.n
    d, k = theta_star.shape
    xbar = design_adjoint(dataset.X, eps) / n

    if constants is not None:
        x_max = constants.X_max
        sigma_eps = constants.sigma_eps
        mu_max = constants.mu_max
        sigma_max = constants.sigma_max
    else:
        x_max = max(1.0, float(np.max(np.abs(dataset.X))))
        sigma_eps = max(1.0, float(np.std(eps)), float(np.std(eps1)),
                        float(np.std(eps2)))
        mu_max = max(1.0, float(np.max(np.abs(eps1))))
        sigma_max = float(np.linalg.svd(theta_star, compute_uv=False)[0])

    return EmpiricalAggregates(
        xbar=xbar,
        xbar_norm=float(np.linalg.norm(xbar)),
        eps_bar=float(np.mean(np.abs(eps))),
        eps1_bar=float(np.mean(np.abs(eps1))),
        eps2_bar=float(np.mean(np.abs(eps2))),
        delta=delta,
        xbar_bound=xbar_envelope(d, k, sigma_eps, x_max, delta, n),
        eps_bound=eps_envelope(mu_max, sigma_eps, delta, n),
        mbar_bound=mbar_envelope(d, k, sigma_eps, max(sigma_max, 1.0), x_max,
                                 delta, n),
    )


# ---------------------------------------------------------------------------
# Restricted design eigenvalue
# ---------------------------------------------------------------------------

def restricted_eigenvalue_estimate(design, d, n_mc=None, seed=0,
                                   population=False):
    """Minimum eigenvalue of the d^2 x d^2 second-moment form of the design.

    A conservative lower bound for the rank-restricted constant: the
    unrestricted minimum eigenvalue can only be smaller than the minimum
    over low-rank matrices.  ``design`` may be a design name or an
    explicit (n, d, d) array of pre-drawn matrices.  With
    ``population=True`` the named designs' exact value comes back, with no
    form materialized.
    """
    if population:
        if design in ISOTROPIC_DESIGNS:
            # iid unit-variance entries: E[vec vec^T] is the identity
            return 1.0
        if design == "symmetric":
            # the design cannot see skew matrices, which exist for d >= 2
            return 1.0 if d == 1 else 0.0
        raise CapabilityError("population form unavailable for this design")
    if d > MAX_FORM_DIM:
        raise CapabilityError(
            f"d = {d} exceeds the materialization guard ({MAX_FORM_DIM})")
    if isinstance(design, np.ndarray):
        X = np.asarray(design, dtype=float)
        if X.ndim == 2:
            X = X[None, :, :]
        if X.shape[1:] != (d, d):
            raise ValueError("pre-drawn samples do not match dimension d")
    else:
        if n_mc is None or n_mc < 1:
            raise ValueError("empirical estimate needs a sample budget n_mc")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xDE51)))
        X = sample_design(design, rng, n_mc, d)
    return float(np.linalg.eigvalsh(design_moment(X))[0])


# ---------------------------------------------------------------------------
# Theory certificate
# ---------------------------------------------------------------------------

@dataclass
class TheoryCertificate(JsonFields):
    """Closed-form constants of the convergence guarantee, evaluated verbatim.

    ``lambda_min_population`` is mu0 lambda0 sigma_min^2 (the proof-side
    convention); ``lambda_min_population_isotropic`` is 2 mu0 lambda0
    sigma_min^2, the value realized by the closed-form isotropic-design
    curvature.  Both are reported because the curvature floor enters the
    two statements with different factor conventions.
    """

    constants: object
    delta: float
    K: float
    n_required: float
    radius_required: float
    lambda_min_population: float
    lambda_min_population_isotropic: float

    def rate_bound(self, n):
        c = self.constants
        return math.sqrt(512.0 * c.d * c.k**2 * c.sigma_max**2 * c.sigma_eps**2
                         * c.X_max**2 * math.log(8.0 * c.d * c.k / self.delta)
                         / (n * c.mu0**2 * c.lambda0**2 * c.sigma_min**4))

    def lambda_min_lower_bound(self, n):
        c = self.constants
        dev = math.sqrt(160.0 * c.d**2 * c.k**6 * c.X_max**4 * c.sigma_max**4
                        * c.sigma_eps**2
                        * math.log(6.0 * c.d**2 * c.k**2 / self.delta) / n)
        return self.lambda_min_population - dev


def theory_constants(constants, delta):
    """Evaluate the guarantee constants exactly as stated.

    K is the curvature-Lipschitz certificate; n_required and radius_required
    are the sample-size and locality conditions under which the distance
    bound ``rate_bound(n)`` holds with probability 1 - delta.
    """
    constants.validate()
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    c = constants
    lip = c.K_ell + c.mu_max + 15.0 * c.sigma_eps
    K = 160.0 * c.X_max**4 * c.sigma_max**5 * c.d**4 * c.k**2.5 * lip
    n_required = (640.0 * c.d**2 * c.k**6 * c.X_max**4 * c.sigma_max**4
                  * c.sigma_eps**2 * math.log(12.0 * c.d**2 * c.k**2 / delta)
                  / (c.mu0 * c.lambda0 * c.sigma_min**2))
    radius_required = min(
        c.sigma_min,
        c.mu0 * c.lambda0 * c.sigma_min**3
        / (320.0 * c.X_max**4 * c.sigma_max**5 * c.d**4 * c.k**2.5 * lip))
    lam_pop = c.mu0 * c.lambda0 * c.sigma_min**2
    return TheoryCertificate(constants=constants, delta=delta, K=K,
                             n_required=n_required,
                             radius_required=radius_required,
                             lambda_min_population=lam_pop,
                             lambda_min_population_isotropic=2.0 * lam_pop)


# ---------------------------------------------------------------------------
# Quadratic remainder of the local expansion
# ---------------------------------------------------------------------------

@dataclass
class TaylorResidualReport(JsonFields):
    distance: float
    lhs: float
    remainder: float
    ratio: float | None
    certificate_rhs: float | None
    grad_at_estimate_norm: float


def taylor_residual_check(dataset, rep, loss, certificate_k=None):
    """First-order expansion residual of the represented gradient.

    Reads the score and aligned chord of ``rep``, a
    ``restricted_representation`` whose basis is anchored at the truth, and
    applies its curvature to the chord's coordinates (``curvature_times``,
    two passes over the design; the full curvature is never built).
    ``lhs`` is the norm of score + curvature x coordinate-error at the
    truth; ``remainder`` additionally subtracts the represented gradient at
    the aligned estimate, so it measures the genuine quadratic remainder
    even when the estimate is not a minimizer (at a minimizer the two
    coincide, since the gradient vanishes there).  ``ratio`` is remainder /
    distance^2 and should stay below certificate K / 2.  Raises
    OutOfInjectivityError when the distance is not below the injectivity
    radius, where the chord is no chart of the quotient.
    """
    theta_star, distance = rep.basis.anchor, rep.distance
    geometry.check_within_radius(theta_star, distance)
    first_order = rep.score + rep.curvature_times(
        inference.represent(rep.chord, rep.basis))
    grad_at = inference.represent(
        euclidean_gradient(dataset, theta_star + rep.chord, loss), rep.basis)
    lhs = float(np.linalg.norm(first_order))
    remainder = float(np.linalg.norm(grad_at - first_order))
    # below float resolution the squared distance is pure rounding noise
    ratio = None if distance < 1e-12 else remainder / distance**2
    rhs = None if certificate_k is None else 0.5 * certificate_k * distance**2
    return TaylorResidualReport(distance=distance, lhs=lhs,
                                remainder=remainder, ratio=ratio,
                                certificate_rhs=rhs,
                                grad_at_estimate_norm=float(np.linalg.norm(grad_at)))


# ---------------------------------------------------------------------------
# Curvature-Lipschitz probe
# ---------------------------------------------------------------------------

def projection_derivative(theta, w, v):
    """Directional derivative of the horizontal projector, applied to v.

    Central finite difference of theta -> P^H(theta) v along w.
    """
    theta = np.asarray(theta, dtype=float)
    plus = geometry.horizontal_project(theta + FD_STEP * w, v)
    minus = geometry.horizontal_project(theta - FD_STEP * w, v)
    return (plus - minus) / (2.0 * FD_STEP)


def hessian_lipschitz_probe(dataset, theta, n_dirs, loss, seed=0):
    """Empirical lower bound for the curvature-Lipschitz constant.

    For random unit direction pairs (w, v), assembles the derivative of the
    projected curvature operator along w,

        (DP^H[w]) Hess v  +  (D Hess[w]) v  +  Hess (DP^H[w] v),

    projects it horizontally, and returns the largest norm seen.  The
    projector derivative uses central finite differences; the curvature
    derivative is the analytic third-derivative contraction.
    """
    theta = np.asarray(theta, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x11B)))
    best = 0.0
    for _ in range(n_dirs):
        w = rng.standard_normal(theta.shape)
        w /= np.linalg.norm(w)
        v = rng.standard_normal(theta.shape)
        v /= np.linalg.norm(v)
        Hv = hessian_operator(dataset, theta, v, loss)
        term1 = projection_derivative(theta, w, Hv)
        term2 = third_derivative_operator(dataset, theta, v, w, loss)
        term3 = hessian_operator(dataset, theta,
                                 projection_derivative(theta, w, v),
                                 loss)
        probe = geometry.horizontal_project(theta, term1 + term2 + term3)
        best = max(best, float(np.linalg.norm(probe)))
    return best


# ---------------------------------------------------------------------------
# Standing assumption checks
# ---------------------------------------------------------------------------

@dataclass
class AssumptionReport(JsonFields):
    score_mean: float
    score_mean_se: float
    score_mean_pass: bool
    min_conditional_curvature: float
    curvature_pass: bool
    bartlett_gap: float
    bartlett_ratio: float
    bartlett_pass: bool

    def all_pass(self):
        return self.score_mean_pass and self.curvature_pass and self.bartlett_pass

    def to_json_dict(self):
        return {**super().to_json_dict(), "all_pass": self.all_pass()}


def assumption_report(dgp, theta_star, loss, n_mc):
    """Monte Carlo check of the three standing moment assumptions.

    On ``n_mc`` >= 2 draws, checks that
    1. the score has zero conditional mean at the truth (checked through
       the unconditional mean against 4 standard errors),
    2. the conditional curvature stays positive across design draws,
    3. the covariance of the restricted per-sample score matches the
       restricted expected curvature (relative Frobenius gap below
       ``BARTLETT_TOL``); ``bartlett_ratio`` is the trace ratio, which
       localizes a pure scale mismatch.
    """
    from .model import simulate

    if n_mc < 2:
        # the score's standard error divides by n_mc - 1
        raise ValueError("Monte Carlo budget n_mc must be >= 2")
    theta_star = np.asarray(theta_star, dtype=float)
    basis = geometry.horizontal_basis(theta_star)
    data = simulate(dgp, n_mc)
    z = predictions(data, theta_star)
    scores_scalar = loss.d1(z, data.y)
    score_mean = float(np.mean(scores_scalar))
    score_se = float(np.std(scores_scalar, ddof=1) / np.sqrt(n_mc))
    score_pass = abs(score_mean) <= 4.0 * max(score_se, 1e-300)

    cond_curv = loss.d2(z, data.y)
    min_curv = float(np.min(cond_curv))
    curvature_pass = min_curv > 0.0

    G = inference.per_sample_scores(data, theta_star, basis, loss)
    centered = G - G.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / n_mc
    H = inference.restricted_hessian(data, theta_star, basis, loss)
    gap = float(np.linalg.norm(cov - H) / np.linalg.norm(H))
    ratio = float(np.trace(cov) / np.trace(H))
    return AssumptionReport(
        score_mean=score_mean, score_mean_se=score_se,
        score_mean_pass=score_pass,
        min_conditional_curvature=min_curv, curvature_pass=curvature_pass,
        bartlett_gap=gap, bartlett_ratio=ratio,
        bartlett_pass=gap <= BARTLETT_TOL)
