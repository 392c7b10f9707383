"""Empirical-loss minimization over the factor matrix.

The fit reads the data only through ``model.StackRoute``, on the rows of
the design U, the (n, p) matrix of the samples in half-vectorized
coordinates (``model.Dataset``).  For the Gaussian loss those rows are the
dataset's p + 1 square-root rows (``Dataset.compressed``), built once per
dataset, with the n samples' row means of u u^T, u y and y^2: the start,
every derivative pass, every curvature build and every line-search trial
then cost O(p^2), whatever n is.  A design ``model.draw_statistics`` draws
has p + 1 rows already.

The default start is the spectral initializer rescaled along its own ray.
The spectral matrix is the route's (``spectral_init``): the backprojection
(1/n) sum_i y_i sym X_i, and for the Gaussian loss, given more than p
rows, smat(m_hat) for m_hat the least-squares fit of y on U.  The
Gaussian loss is a quadratic in m = svec(theta theta^T) centred at m_hat,
so the best rank-k part of smat(m_hat) is within
O(|Sigma_hat - I| dist(m_hat, rank k)) of the minimizer, where the
backprojection smat(Sigma_hat m_hat) is O(|Sigma_hat - I| |M|) off: about
two Newton steps fewer at criterion-5 scale.  The loss at theta0 sqrt(tau)
is a convex function of tau alone (the predictions are tau times those at
theta0), so a safeguarded scalar Newton solve finds the best scale in O(n)
per step, with no pass over the design (for the Gaussian loss the first
step is exact).  This corrects the spectral estimate's scale, which is off
by the factor E[ell''(z*)] for losses other than the Gaussian.

From there, guarded Newton iteration in horizontal coordinates.  At each
iterate one derivative pass gives ell'' and Sbar (pair_adjoint(U, ell') / n
on the rows read); Sbar theta is the gradient the stop rule reads, and the
same two give the loss's gradient and curvature in an orthonormal basis E
of the horizontal space of R^(d x k) / O(k), where the curvature is
invertible at a nondegenerate minimizer.  The Newton step -H^(-1) g is
taken back to a d x k direction.  Newton steps alone are drawn to saddle
points as well as minimizers, so the step is used only when H is positive
definite (its Cholesky factorization succeeds); otherwise, or at a
rank-deficient iterate with no horizontal basis, the direction is the
negative gradient, and the result counts these steps.  Either direction
is searched by Armijo backtracking from unit length on the loss values
themselves.  Near a minimizer the last Newton step lowers the loss by less
than the rounding error of those values (``StackRoute.rounding``), so the
test allows the two values' rounding errors: a step they cannot resolve is
taken, and the reported loss may rise by at most that much.  After such a
step the descent also stops, converged, once the gradient norm is within
its own rounding error, which at small noise scales exceeds any useful
tolerance (about 1e-4 at sigma = 1e-6 and criterion-5 scale); two steps in
a row without descent end it unconverged.

Building H takes a pass over the rows with one column per basis
direction, in row blocks that fit a core's L2 cache
(``StackRoute.curvature``).  It is still the most expensive step of an
iterate, so E and the Cholesky factor of H are reused (the chord or
Shamanskii variant of Newton's method; Kelley, Iterative Methods for
Linear and Nonlinear Equations, SIAM 1995, sec. 5.4).  A factor serves at
most two accepted steps (_REUSE_STEPS); it is rebuilt sooner when the
gradient norm fails to halve from one iterate to the next (_CONTRACTION),
and after every negative-gradient step.  An iterate that reuses the
factor reads only g_j = <Sbar theta, E_j> from its own derivative pass,
and its step -H^(-1) g is still a descent direction, since H is positive
definite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve

from . import geometry, inference
from .errors import DegenerateFactorError, DivergenceError, InitializationError
from .jsonable import JsonFields
from .model import StackRoute

# Backtracking line search: every search starts at unit length (the natural
# length of a Newton step), shrinks by _SHRINK until the Armijo sufficient
# decrease with constant _ARMIJO holds, and gives up below _STEP_FLOOR,
# where the search direction is numerically useless and the run stops
# unconverged.
_SHRINK = 0.5
_ARMIJO = 1e-4
_STEP_FLOOR = 1e-20

# Chord reuse (module docstring): a curvature factor serves at most
# _REUSE_STEPS accepted steps, and fewer once |G| fails to shrink by
# _CONTRACTION in one step.
_REUSE_STEPS = 2
_CONTRACTION = 0.5

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
    stops once the gradient norm is at most ``grad_tol`` (or its own
    rounding error; module docstring) or after ``max_iters`` steps.
    ``seed`` seeds the random start that replaces an uninformative
    spectral one.
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
    """The minimizer and how the descent got there.

    ``loss_trace`` holds the empirical loss at the start and after each
    accepted step, computed as ``empirical_loss`` computes it up to
    rounding (on the p + 1 square-root rows for the Gaussian loss); a step
    below the loss's rounding error may raise it by that error.  ``sbar``
    is Sbar at theta0, from the fit's last derivative pass; it depends on
    theta0 only through theta0 theta0^T, so it is also Sbar at every
    rotation theta0 Q.
    """

    theta0: np.ndarray
    grad_norm: float
    iterations: int
    gradient_steps: int
    loss_trace: np.ndarray
    converged: bool
    sbar: np.ndarray

    @property
    def final_loss(self):
        return float(self.loss_trace[-1])

    def to_json_dict(self):
        return {**super().to_json_dict(), "final_loss": self.final_loss}


def spectral_init(dataset, k, loss):
    """Top-k eigenpairs of the loss route's spectral matrix, as a factor.

    The matrix is S = (1/n) sum_i y_i sym X_i, an unbiased estimate of
    theta* theta*^T for the Gaussian loss under an isotropic design, except
    for the Gaussian loss given more than p rows: there it is smat(m_hat),
    m_hat the least-squares fit of y on U, and the result is its best
    rank-k part (Eckart-Young; ``StackRoute.spectral``).
    Negative leading eigenvalues are clamped to a small floor; if no
    eigenvalue clears the floor the initializer fails and the caller should
    fall back to a random start.
    """
    if k < 1 or k > dataset.d:
        raise ValueError("k must lie in [1, d]")
    lam, V = np.linalg.eigh(StackRoute(dataset, loss).spectral())
    top = np.argsort(lam)[::-1][:k]
    lam_top = lam[top]
    if np.all(lam_top <= _EIG_FLOOR):
        raise InitializationError(
            "all leading eigenvalues are below the floor; spectral "
            "initialization is uninformative")
    lam_top = np.maximum(lam_top, _EIG_FLOOR)
    return V[:, top] * np.sqrt(lam_top)[None, :]


def _radial_scale(route, theta, state):
    """tau > 0 minimizing f(tau), the loss at theta sqrt(tau), or None.

    ``state`` is ``route.state(theta)``; the state is linear in
    theta theta^T, so tau times it is the state at theta sqrt(tau).  f is
    convex (ell is convex in the predictions tau z0), with f' = mean(ell' z0)
    and f'' = mean(ell'' z0^2) (``route.ray``).  Scalar Newton steps from
    tau = 1 keep a bracket on the root of f' and bisect whenever a step
    leaves it.  For the Gaussian loss the first step lands on the closed
    form <z0, y> / <z0, z0>.  None when the ray is flat (f'' = 0, as for
    z0 = 0 or a saturated logistic ray) or the solve does not settle in
    _RADIAL_STEPS steps.
    """
    lo, hi, tau = 0.0, np.inf, 1.0
    for _ in range(_RADIAL_STEPS):
        slope, curv = route.ray(theta, state, tau)
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


def _newton_factor(route, theta, terms):
    """(E, L): a horizontal basis at theta and the Cholesky factor of H there.

    H is the restricted curvature on E, built from the iterate's derivative
    pass ``terms``.  None when H is not positive definite (a saddle's
    indefinite curvature) or theta is rank deficient, with no horizontal
    basis.
    """
    try:
        E = geometry.newton_basis(theta)
        H = inference._restricted_terms(route, theta, E, terms)[1]
        return E, np.linalg.cholesky(H)
    except (DegenerateFactorError, np.linalg.LinAlgError):
        return None


def _search_direction(theta, G, terms, factor):
    """Search direction D, its decrease rate -<G, D>, and whether D is -G.

    With a ``_newton_factor`` (E, L), possibly built at an earlier iterate,
    D = sum_j s_j E_j for L L^T s = -g, g the restricted gradient of the
    derivative pass ``terms`` on E.  Without one, D is the negative
    gradient G.
    """
    if factor is None:
        return -G, float(np.sum(G * G)), True
    E, L = factor
    g = inference._restricted_gradient(terms, theta, E)
    s = -cho_solve((L, True), g, check_finite=False)
    D = (s @ E.reshape(len(s), -1)).reshape(E.shape[1:])
    return D, -float(g @ s), False


def fit(dataset, loss, config=None):
    """Minimize the empirical loss by one guarded Newton descent.

    The rank comes from ``dataset.k`` unless ``config.init`` is an explicit
    warm start, which is used as given.  Otherwise the start is the
    spectral initializer, or a seeded random factor when the spectrum is
    uninformative, rescaled along its ray to the loss's minimum there
    (``_radial_scale``).  The data are read through ``StackRoute(dataset,
    loss)``.  The quotient distance of the result to a known truth is
    ``geometry.align(result.theta0, truth).distance``.
    """
    config = FitConfig() if config is None else config
    config.validate()
    loss.validate_targets(dataset.y)
    d = dataset.d
    route = StackRoute(dataset, loss)

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
        state = route.state(theta)
        # a non-finite slope or curvature leaves the start as it is
        with np.errstate(over="ignore", invalid="ignore"):
            tau = _radial_scale(route, theta, state)
        if tau is not None:
            theta, state = theta * np.sqrt(tau), tau * state
        point = route.at(theta, state)
    else:
        theta = np.asarray(config.init, dtype=float)
        if theta.shape[0] != d:
            raise ValueError("warm start does not match the data dimension")
        point = route.at(theta)

    trace = [point.f]
    if not np.isfinite(trace[0]):
        raise DivergenceError("non-finite loss at the initial point", trace)
    grad_norm = np.inf
    converged = False
    iterations = 0
    gradient_steps = 0
    null_steps = 0
    unresolved = False
    factor, uses = None, 0
    for _ in range(config.max_iters):
        theta = point.theta
        terms = route.derivative_pass(theta, point.state)
        G = terms[1] @ theta
        prev_norm, grad_norm = grad_norm, np.sqrt(float(np.sum(G * G)))
        if grad_norm <= config.grad_tol:
            converged = True
            break
        # once a step's descent is below the loss's rounding, the gradient
        # may be at its own: no step can then lower it further
        errors = route.rounding(point) if unresolved else None
        if errors is not None and grad_norm <= errors[1]:
            converged = True
            break
        if (factor is None or uses >= _REUSE_STEPS
                or grad_norm > _CONTRACTION * prev_norm):
            factor, uses = _newton_factor(route, theta, terms), 0
        D, rate, fallback = _search_direction(theta, G, terms, factor)
        step = 1.0
        while step >= _STEP_FLOOR:
            cand = route.at(theta + step * D)
            excess = cand.f - (point.f - _ARMIJO * step * rate)
            if not excess <= 0.0 and errors is None:
                errors = route.rounding(point)
            # each of the two loss values carries a rounding error of df
            if excess <= 0.0 or excess <= 2.0 * errors[0]:
                break
            step *= _SHRINK
        else:
            break
        unresolved = excess > 0.0
        if cand.f < point.f:
            null_steps = 0
        else:
            # taken within the loss's rounding error without lowering it
            null_steps += 1
            if null_steps >= 2:
                break
        point = cand
        trace.append(point.f)
        iterations += 1
        gradient_steps += fallback
        uses += 1
    else:
        # out of iterations: the last derivative pass was at the previous
        # iterate
        terms = route.derivative_pass(point.theta, point.state)
    return FitResult(theta0=point.theta, grad_norm=float(grad_norm),
                     iterations=iterations, gradient_steps=gradient_steps,
                     loss_trace=np.array(trace), converged=converged,
                     sbar=terms[1])
