"""Empirical-loss minimization over the factor matrix.

The default start is the spectral initializer rescaled along its own ray:
the loss at theta0 sqrt(tau) is a convex function of tau alone (the
predictions are tau times those at theta0), so a safeguarded scalar Newton
solve finds the best scale in O(n) per step, with no pass over the design.
This corrects the spectral estimate's scale, which is off by the factor
E[ell''(z*)] for losses other than the Gaussian.

From there, guarded Newton iteration in horizontal coordinates.  At each
iterate one derivative pass gives ell', ell'' and Sbar = pair_adjoint(X, ell')
/ n; Sbar theta is the gradient the stop rule reads, and the same three give
the loss's gradient and curvature in an orthonormal basis of the horizontal
space of R^(d x k) / O(k), where the curvature is invertible at a
nondegenerate minimizer.  The Newton step -H^(-1) g is taken back to a
d x k direction.  Newton steps alone are drawn to saddle points as well as
minimizers, so the step is used only when H is positive definite (its
Cholesky factorization succeeds); otherwise, or at a rank-deficient iterate
with no horizontal basis, the direction is the negative gradient, and the
result counts these steps.  Either direction is searched by Armijo
backtracking from unit length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, inference
from .errors import DegenerateFactorError, DivergenceError, InitializationError
from .jsonable import JsonFields
from .model import design_forward, euclidean_gradient, pair_adjoint

# Backtracking line search: every search starts at unit length (the natural
# length of a Newton step), shrinks by _SHRINK until the Armijo sufficient
# decrease with constant _ARMIJO holds, and gives up below _STEP_FLOOR,
# where the search direction is numerically useless and the run stops
# unconverged.
_SHRINK = 0.5
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-20

# Eigenvalue floor for the spectral initializer.
_EIG_FLOOR = 1e-12

# Radial start: the scalar Newton solve along the initial ray has settled
# once a step moves tau by at most _RADIAL_TOL relative; a solve that has
# not settled after _RADIAL_STEPS steps (a separable ray has no minimizer)
# leaves the start as it is.
_RADIAL_TOL = 1e-10
_RADIAL_STEPS = 50


@dataclass
class FitConfig:
    """Optimizer settings.

    ``init`` is "spectral" or an explicit warm-start factor.  The descent
    stops once the gradient norm is at most ``grad_tol`` or after
    ``max_iters`` steps.  ``seed`` seeds the random start that replaces an
    uninformative spectral one.
    """

    init: object = "spectral"
    grad_tol: float = 1e-9
    max_iters: int = 100_000
    seed: int = 0

    def validate(self):
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class FitResult(JsonFields):
    theta0: np.ndarray
    grad_norm: float
    iterations: int
    gradient_steps: int
    loss_trace: np.ndarray
    converged: bool

    @property
    def final_loss(self):
        return float(self.loss_trace[-1])

    def to_json_dict(self):
        return {**super().to_json_dict(), "final_loss": self.final_loss}


def spectral_init(dataset, k, loss):
    """Top-k eigenspace of the symmetrized response-weighted design mean.

    S = (1/n) sum_i y_i (X_i + X_i^T) / 2 is an unbiased estimate of
    theta* theta*^T for the Gaussian loss under an isotropic design.
    Negative leading eigenvalues are clamped to a small floor; if no
    eigenvalue clears the floor the initializer fails and the caller should
    fall back to a random start.
    """
    if k < 1 or k > dataset.d:
        raise ValueError("k must lie in [1, d]")
    S = pair_adjoint(dataset.X, dataset.y) / (2.0 * dataset.n)
    lam, V = np.linalg.eigh(S)
    top = np.argsort(lam)[::-1][:k]
    lam_top = lam[top]
    if np.all(lam_top <= _EIG_FLOOR):
        raise InitializationError(
            "all leading eigenvalues are below the floor; spectral "
            "initialization is uninformative")
    lam_top = np.maximum(lam_top, _EIG_FLOOR)
    return V[:, top] * np.sqrt(lam_top)[None, :]


def _radial_scale(dataset, loss, theta):
    """tau > 0 minimizing f(tau) = mean ell(tau z0, y), or None.

    z0 = <X_i, theta theta^T> are the predictions at theta, so tau z0 are
    those at theta sqrt(tau).  f is convex (ell is convex in z), with
    f' = mean(ell' z0) and f'' = mean(ell'' z0^2).  Scalar Newton steps from
    tau = 1 keep a bracket on the root of f' and bisect whenever a step
    leaves it.  For the Gaussian loss the first step lands on the closed
    form <z0, y> / <z0, z0>.  None when the ray is flat (f'' = 0, as for
    z0 = 0 or a saturated logistic ray) or the solve does not settle in
    _RADIAL_STEPS steps.
    """
    z0 = design_forward(dataset.X, theta @ theta.T)
    z0_sq = z0 * z0
    lo, hi, tau = 0.0, np.inf, 1.0
    for _ in range(_RADIAL_STEPS):
        d1, d2 = loss.d1_d2(tau * z0, dataset.y)
        slope = float(np.mean(d1 * z0))
        curv = float(np.mean(d2 * z0_sq))
        if not curv > 0.0:
            return None
        new = tau - slope / curv
        if abs(new - tau) <= _RADIAL_TOL * tau:
            return new
        if slope < 0.0:
            lo = tau
        else:
            hi = tau
        if not lo < new < hi:
            new = 0.5 * (lo + hi) if np.isfinite(hi) else 2.0 * tau
        tau = new
    return None


def _search_direction(dataset, loss, theta, G, terms):
    """Search direction D, its decrease rate -<G, D>, and whether D is -G.

    The Newton direction sum_j s_j E_j solves H s = -g in a horizontal
    basis E at theta, with g and H built from the iterate's derivative pass
    ``terms``.  It is used only when H is positive definite, so that it is
    a descent direction; a saddle's indefinite H, or a rank-deficient theta
    without a horizontal basis, gives the negative gradient instead.
    """
    try:
        E = geometry.horizontal_basis(theta).elements
        g, H = inference._restricted_terms(dataset, theta, E, loss, terms)
        L = np.linalg.cholesky(H)
    except (DegenerateFactorError, np.linalg.LinAlgError):
        return -G, float(np.sum(G * G)), True
    s = -np.linalg.solve(L.T, np.linalg.solve(L, g))
    return np.tensordot(s, E, axes=1), -float(g @ s), False


def fit(dataset, loss, config=None):
    """Minimize the empirical loss by one guarded Newton descent.

    The rank comes from ``dataset.k`` unless ``config.init`` is an explicit
    warm start, which is used as given.  Otherwise the start is the
    spectral initializer, or a seeded random factor when the spectrum is
    uninformative, rescaled along its ray to the loss's minimum there
    (``_radial_scale``).  The quotient distance of the result to a known
    truth is ``geometry.quotient_distance(result.theta0, truth)``.
    """
    config = FitConfig() if config is None else config
    config.validate()
    loss.validate_targets(dataset.y)
    d = dataset.d

    if isinstance(config.init, str):
        if config.init != "spectral":
            raise ValueError(f"unknown init {config.init!r}")
        if dataset.k is None:
            raise ValueError("dataset has no rank; supply a warm start")
        try:
            theta = spectral_init(dataset, dataset.k, loss)
        except InitializationError:
            # uninformative spectrum: fall back to a seeded random start
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, 0xFA11)))
            theta = rng.standard_normal((d, dataset.k))
        tau = _radial_scale(dataset, loss, theta)
        if tau is not None:
            theta = theta * np.sqrt(tau)
    else:
        theta = np.asarray(config.init, dtype=float)
        if theta.shape[0] != d:
            raise ValueError("warm start does not match the data dimension")

    def loss_at(th):
        # non-finite values are handled by the divergence/backtracking logic
        with np.errstate(over="ignore", invalid="ignore"):
            z = design_forward(dataset.X, th @ th.T)
            return float(np.mean(loss.value(z, dataset.y))), z

    f, z = loss_at(theta)
    if not np.isfinite(f):
        raise DivergenceError("non-finite loss at the initial point", [f])
    trace = [f]
    grad_norm = np.inf
    converged = False
    iterations = 0
    gradient_steps = 0
    null_steps = 0
    for _ in range(config.max_iters):
        terms = inference._derivative_pass(dataset, z, loss)
        G = terms[2] @ theta
        grad_norm = np.sqrt(float(np.sum(G * G)))
        if grad_norm <= config.grad_tol:
            converged = True
            break
        D, rate, fallback = _search_direction(dataset, loss, theta, G, terms)
        step = 1.0
        accepted = False
        while step >= _STEP_FLOOR:
            cand = theta + step * D
            fc, zc = loss_at(cand)
            if np.isfinite(fc) and fc <= f - _ARMIJO * step * rate:
                accepted = True
                break
            step *= _SHRINK
        if not accepted:
            break
        if fc >= f:
            # the Armijo decrease rounded below the loss's float resolution:
            # the step was accepted without representable descent
            null_steps += 1
            if null_steps >= 2:
                break
        else:
            null_steps = 0
        theta, f, z = cand, fc, zc
        trace.append(f)
        iterations += 1
        gradient_steps += fallback
    return FitResult(theta0=theta, grad_norm=float(grad_norm),
                     iterations=iterations, gradient_steps=gradient_steps,
                     loss_trace=np.array(trace), converged=converged)


@dataclass
class MinimizerCertificate(JsonFields):
    grad_norm: float
    restricted_min_eigenvalue: float
    distance_to_truth: float | None = None


def minimizer_certificate(dataset, theta0, loss, basis, truth=None):
    """First- and second-order evidence that theta0 is a local minimizer.

    Reports the gradient norm and the smallest eigenvalue of the empirical
    curvature restricted to the supplied horizontal basis (which should be
    anchored at theta0), plus the quotient distance to a known truth.
    """
    g = euclidean_gradient(dataset, theta0, loss)
    H = inference.restricted_hessian(dataset, theta0, basis, loss)
    eig_min = float(np.linalg.eigvalsh(H)[0])
    dist = None if truth is None else geometry.quotient_distance(theta0, truth)
    return MinimizerCertificate(grad_norm=float(np.linalg.norm(g)),
                                restricted_min_eigenvalue=eig_min,
                                distance_to_truth=dist)
