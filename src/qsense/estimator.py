"""Empirical-loss minimization over the factor matrix.

The fit reads the data only through ``model.data_route``.  For the Gaussian
loss that is the moments (Sigma_hat, b) = (U^T U / n, U^T y / n), p x p for
U the (n, p) design in half-vectorized coordinates (``model.Dataset``),
built once per dataset: the start, every derivative pass, every curvature
build and every line-search trial then cost O(d^4), whatever n is.  Only
the reported loss, at the start and after each accepted step, takes one
forward pass over the dataset's rows (``MomentRoute.value``): n for
samples, p + 1 for the design ``model.draw_statistics`` draws.  For every
other loss it is U itself.

The default start is the spectral initializer rescaled along its own ray:
the loss at theta0 sqrt(tau) is a convex function of tau alone (the
predictions are tau times those at theta0), so a safeguarded scalar Newton
solve finds the best scale in O(n) per step, with no pass over the design
(O(d^2) on the moments, where the first step is exact).  This corrects the
spectral estimate's scale, which is off by the factor E[ell''(z*)] for
losses other than the Gaussian.

From there, guarded Newton iteration in horizontal coordinates.  At each
iterate one derivative pass gives ell'' and Sbar (pair_adjoint(U, ell') / n
on the stack); Sbar theta is the gradient the stop rule reads, and the same
two give the loss's gradient and curvature in an orthonormal basis E of the
horizontal space of R^(d x k) / O(k), where the curvature is invertible at a
nondegenerate minimizer.  The Newton step -H^(-1) g is taken back to a
d x k direction.  Newton steps alone are drawn to saddle points as well as
minimizers, so the step is used only when H is positive definite (its
Cholesky factorization succeeds); otherwise, or at a rank-deficient iterate
with no horizontal basis, the direction is the negative gradient, and the
result counts these steps.  Either direction is searched by Armijo
backtracking from unit length.  On the moments the Armijo test reads the
loss change as a quadratic form in the change of theta theta^T, never as
the difference of two loss values, which would lose the change to rounding
once it falls below the loss's float resolution.

On the stack, building H takes a pass over the design with one column per
basis direction, the most expensive step of an iterate, so E and the
Cholesky factor of H are reused (the chord or Shamanskii variant of
Newton's method; Kelley, Iterative Methods for Linear and Nonlinear
Equations, SIAM 1995, sec. 5.4).  A factor serves at most two accepted
steps (_REUSE_STEPS); it is rebuilt sooner when the gradient norm fails to
halve from one iterate to the next (_CONTRACTION), and after every
negative-gradient step.  An iterate that reuses the factor reads only
g_j = <Sbar theta, E_j> from its own derivative pass, and its step
-H^(-1) g is still a descent direction, since H is positive definite.  Both
routes share the rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, inference
from .errors import DegenerateFactorError, DivergenceError, InitializationError
from .jsonable import JsonFields
from .model import data_route

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
    """The minimizer and how the descent got there.

    ``loss_trace`` holds the empirical loss at the start and after each
    accepted step, computed as ``empirical_loss`` computes it.  On the
    moment route the line search accepts a step by its loss change, not by
    these values, so once the change falls below their float resolution
    the trace may rise by a rounding unit.  ``sbar`` is Sbar at theta0,
    from the fit's last derivative pass; it depends on theta0 only through
    theta0 theta0^T, so it is also Sbar at every rotation theta0 Q.
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
    """Top-k eigenspace of the symmetrized response-weighted design mean.

    S = (1/n) sum_i y_i (X_i + X_i^T) / 2 is an unbiased estimate of
    theta* theta*^T for the Gaussian loss under an isotropic design; the
    loss's ``data_route`` computes it (sym(mat(b)) on the moments).
    Negative leading eigenvalues are clamped to a small floor; if no
    eigenvalue clears the floor the initializer fails and the caller should
    fall back to a random start.
    """
    if k < 1 or k > dataset.d:
        raise ValueError("k must lie in [1, d]")
    lam, V = np.linalg.eigh(data_route(dataset, loss).spectral())
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
    form <z0, y> / <z0, z0> = m0^T b / m0^T Sigma_hat m0.  None when the ray
    is flat (f'' = 0, as for z0 = 0 or a saturated logistic ray) or the
    solve does not settle in _RADIAL_STEPS steps.
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
    s = -np.linalg.solve(L.T, np.linalg.solve(L, g))
    return np.tensordot(s, E, axes=1), -float(g @ s), False


def fit(dataset, loss, config=None):
    """Minimize the empirical loss by one guarded Newton descent.

    The rank comes from ``dataset.k`` unless ``config.init`` is an explicit
    warm start, which is used as given.  Otherwise the start is the
    spectral initializer, or a seeded random factor when the spectrum is
    uninformative, rescaled along its ray to the loss's minimum there
    (``_radial_scale``).  The data are read through ``data_route(dataset,
    loss)``.  The quotient distance of the result to a known truth is
    ``geometry.align(result.theta0, truth).distance``.
    """
    config = FitConfig() if config is None else config
    config.validate()
    loss.validate_targets(dataset.y)
    d = dataset.d
    route = data_route(dataset, loss)

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
        tau = _radial_scale(route, theta, state)
        if tau is not None:
            theta, state = theta * np.sqrt(tau), tau * state
        point = route.at(theta, state)
    else:
        theta = np.asarray(config.init, dtype=float)
        if theta.shape[0] != d:
            raise ValueError("warm start does not match the data dimension")
        point = route.at(theta)

    trace = [route.value(point)]
    if not np.isfinite(trace[0]):
        raise DivergenceError("non-finite loss at the initial point", trace)
    grad_norm = np.inf
    converged = False
    iterations = 0
    gradient_steps = 0
    null_steps = 0
    factor, uses = None, 0
    for _ in range(config.max_iters):
        theta = point.theta
        terms = route.derivative_pass(theta, point.state)
        G = terms[1] @ theta
        prev_norm, grad_norm = grad_norm, np.sqrt(float(np.sum(G * G)))
        if grad_norm <= config.grad_tol:
            converged = True
            break
        if (factor is None or uses >= _REUSE_STEPS
                or grad_norm > _CONTRACTION * prev_norm):
            factor, uses = _newton_factor(route, theta, terms), 0
        D, rate, fallback = _search_direction(theta, G, terms, factor)
        step = 1.0
        accepted = False
        while step >= _STEP_FLOOR:
            cand = route.at(theta + step * D, base=point)
            accepted, descended = route.compare(point, cand,
                                                _ARMIJO * step * rate)
            if accepted:
                break
            step *= _SHRINK
        if not accepted:
            break
        if not descended:
            # the Armijo decrease rounded below the loss's float resolution:
            # the step was accepted without representable descent
            null_steps += 1
            if null_steps >= 2:
                break
        else:
            null_steps = 0
        point = cand
        trace.append(route.value(point))
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
