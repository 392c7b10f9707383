"""Empirical-loss minimization over the factor matrix.

Plain gradient descent on theta with a backtracking (Armijo) line search.
The loss is rotation invariant, so no attempt is made to steer the iterates
within an orbit; the quotient machinery only enters through reporting
(distance to a supplied truth) and through the certificate helpers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry, inference
from .errors import DivergenceError, InitializationError
from .jsonable import JsonFields
from .model import design_adjoint, design_forward, euclidean_gradient

# Line-search floor: a step this far below its initial value means the search
# direction is numerically useless, so the run stops unconverged.
_STEP_FLOOR_FACTOR = 1e-20

# Eigenvalue floor for the spectral initializer.
_EIG_FLOOR = 1e-12


@dataclass
class FitConfig:
    """Optimizer settings.

    ``init`` is "spectral" or an explicit warm-start factor.  ``restarts``
    adds that many extra runs from perturbed starts (seeded by ``seed``);
    the lowest-loss run is kept.
    """

    init: object = "spectral"
    step0: float = 1.0
    shrink: float = 0.5
    armijo: float = 1e-4
    grad_tol: float = 1e-9
    max_iters: int = 100_000
    restarts: int = 0
    seed: int = 0

    def validate(self):
        if not (0.0 < self.shrink < 1.0):
            raise ValueError("shrink must lie in (0, 1)")
        for name in ("step0", "armijo", "grad_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_iters < 1 or self.restarts < 0:
            raise ValueError("max_iters must be >= 1 and restarts >= 0")


@dataclass
class FitResult(JsonFields):
    theta0: np.ndarray
    grad_norm: float
    iterations: int
    loss_trace: np.ndarray
    converged: bool
    neighborhood_radius: float | None = None

    @property
    def final_loss(self):
        return float(self.loss_trace[-1])

    def to_json_dict(self):
        return {**super().to_json_dict(), "final_loss": self.final_loss}


def spectral_init(dataset, k, loss, calibration=1.0):
    """Top-k eigenspace of the symmetrized response-weighted design mean.

    S = (1/n) sum_i c y_i (X_i + X_i^T) / 2 is an unbiased estimate of
    theta* theta*^T for the Gaussian loss under an isotropic design with
    c = 1.  Negative leading eigenvalues are clamped to a small floor; if
    no eigenvalue clears the floor the initializer fails and the caller
    should fall back to a random start.
    """
    if k < 1 or k > dataset.d:
        raise ValueError("k must lie in [1, d]")
    S = calibration * design_adjoint(dataset.F, dataset.y) / (2.0 * dataset.n)
    lam, V = np.linalg.eigh(S)
    top = np.argsort(lam)[::-1][:k]
    lam_top = lam[top]
    if np.all(lam_top <= _EIG_FLOOR):
        raise InitializationError(
            "all leading eigenvalues are below the floor; spectral "
            "initialization is uninformative")
    lam_top = np.maximum(lam_top, _EIG_FLOOR)
    return V[:, top] * np.sqrt(lam_top)[None, :]


def _run_descent(dataset, loss, theta, config):
    """Backtracking gradient descent from one start.  Returns a FitResult."""
    X, F, y, n = dataset.X, dataset.F, dataset.y, dataset.n

    def loss_at(th):
        # non-finite values are handled by the divergence/backtracking logic
        with np.errstate(over="ignore", invalid="ignore"):
            z = design_forward(X, th @ th.T)
            return float(np.mean(loss.value(z, y))), z

    f, z = loss_at(theta)
    if not np.isfinite(f):
        raise DivergenceError("non-finite loss at the initial point", [f])
    trace = [f]
    step = config.step0
    step_floor = config.step0 * _STEP_FLOOR_FACTOR
    grad_norm = np.inf
    converged = False
    iterations = 0
    null_steps = 0
    for _ in range(config.max_iters):
        G = design_adjoint(F, loss.d1(z, y)) @ theta / n
        gsq = float(np.sum(G * G))
        grad_norm = np.sqrt(gsq)
        if grad_norm <= config.grad_tol:
            converged = True
            break
        accepted = False
        while step >= step_floor:
            cand = theta - step * G
            fc, zc = loss_at(cand)
            if np.isfinite(fc) and fc <= f - config.armijo * step * gsq:
                accepted = True
                break
            step *= config.shrink
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
        step *= 2.0
    return FitResult(theta0=theta, grad_norm=float(grad_norm),
                     iterations=iterations, loss_trace=np.array(trace),
                     converged=converged)


def fit(dataset, loss, config=None, truth=None):
    """Minimize the empirical loss; keep the best of 1 + restarts runs.

    The rank comes from ``dataset.k`` unless ``config.init`` is an explicit
    warm start.  An uninformative spectral initialization falls back to a
    seeded random start.  When ``truth`` is supplied the result records the
    quotient distance to it as ``neighborhood_radius``.
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
            base = spectral_init(dataset, dataset.k, loss)
        except InitializationError:
            # uninformative spectrum: fall back to a seeded random start
            rng = np.random.default_rng(
                np.random.SeedSequence((config.seed, 0xFA11)))
            base = rng.standard_normal((d, dataset.k))
    else:
        base = np.asarray(config.init, dtype=float)
        if base.shape[0] != d:
            raise ValueError("warm start does not match the data dimension")

    starts = [base]
    if config.restarts > 0:
        rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x5EED)))
        scale = max(np.linalg.norm(base) / np.sqrt(base.size), 1e-3)
        for _ in range(config.restarts):
            starts.append(base + 0.5 * scale * rng.standard_normal(base.shape))

    best = None
    for theta_init in starts:
        result = _run_descent(dataset, loss, theta_init, config)
        if best is None or result.final_loss < best.final_loss:
            best = result
    if truth is not None:
        best.neighborhood_radius = geometry.quotient_distance(best.theta0, truth)
    return best


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
