"""Measurement model and analytic derivatives for generalized low-rank sensing.

The observation model is ``y_i ~ noise(z_i)`` with ``z_i = <X_i, theta theta^T>``,
where ``X_i`` is a d x d measurement matrix, ``theta`` is a d x k factor and
``<.,.>`` is the Frobenius inner product.  The empirical objective is the mean
of a scalar loss ``ell(z_i, y_i)``; everything downstream (gradient, curvature,
third derivative) is computed from the analytic derivatives of ``ell`` in its
first argument.

The fit and the inference at the truth read the data through a route
(``data_route``): the X stack for any loss, or, for the Gaussian loss with
n >= MOMENT_RATIO d^2 (4 d^2, ``uses_moments``), the moments
(Sigma_hat, b) = (X^T X / n, X^T y / n).  A ``Dataset`` builds them once
(``Dataset.moments``), after which only the reported loss values touch
the n samples (one forward pass each).  Under the Gaussian design and
noise the moments and the least-squares residual can also be drawn
directly, without X (``draw_statistics``, Bartlett's decomposition of the
Wishart law), which is how the Monte Carlo harness draws its replicates
wherever the route reads the moments.  The public
derivative functions below (``empirical_loss``, ``euclidean_gradient``,
``hessian_operator``, ``hessian_bilinear``, ``third_derivative``) stay on X:
they are the finite-difference oracles the routes are checked against.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import quad
from scipy.linalg import solve_triangular
from scipy.special import expit

from .errors import ConfigurationError
from .jsonable import JsonFields


# ---------------------------------------------------------------------------
# Loss families
# ---------------------------------------------------------------------------

class LossModel:
    """Scalar loss ell(z, y) with analytic derivatives in z.

    Subclasses implement ``value``, ``d1``, ``d2``, ``d3`` (all vectorized
    over z and y), and may override ``d1_d2`` to share work between the
    first two.  ell'' must not depend on y: it is then its own conditional
    mean given z, which is how the population curvature reads it, with no
    target at hand.
    """

    def value(self, z, y):
        raise NotImplementedError

    def d1(self, z, y):
        raise NotImplementedError

    def d2(self, z, y):
        raise NotImplementedError

    def d3(self, z, y):
        raise NotImplementedError

    def d1_d2(self, z, y):
        """(d1(z, y), d2(z, y)) in one call."""
        return self.d1(z, y), self.d2(z, y)

    def validate_targets(self, y):
        """Raise ValueError if the targets are outside the loss's domain."""
        y = np.asarray(y, dtype=float)
        if not np.all(np.isfinite(y)):
            raise ValueError("targets must be finite")


class GaussianNLL(LossModel):
    """Gaussian negative log-likelihood, ell(z, y) = (z - y)^2 / (2 sigma^2).

    The 1/(2 sigma^2) scaling makes ell'(z*, y) = -eps / sigma^2 for additive
    noise eps, so the score covariance equals the expected curvature exactly
    when the noise scale matches ``sigma``.
    """

    def __init__(self, sigma=1.0):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.sigma = float(sigma)
        self._inv_var = 1.0 / self.sigma**2

    def value(self, z, y):
        r = np.asarray(z, dtype=float) - y
        return 0.5 * self._inv_var * r * r

    def d1(self, z, y):
        return (np.asarray(z, dtype=float) - y) * self._inv_var

    def d2(self, z, y):
        return np.full_like(np.asarray(z, dtype=float), self._inv_var)

    def d3(self, z, y):
        return np.zeros_like(np.asarray(z, dtype=float))

    def __repr__(self):
        return f"GaussianNLL(sigma={self.sigma})"


class Logistic(LossModel):
    """Logistic loss ell(z, y) = log(1 + e^z) - y z for binary targets."""

    def value(self, z, y):
        # log(1 + e^z) = max(z, 0) + log1p(e^-|z|): one exp and one log1p,
        # neither of which can overflow
        z = np.asarray(z, dtype=float)
        return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))) - y * z

    def d1(self, z, y):
        return expit(z) - y

    def d2(self, z, y):
        s = expit(z)
        return s * (1.0 - s)

    def d1_d2(self, z, y):
        s = expit(z)
        return s - y, s * (1.0 - s)

    def d3(self, z, y):
        s = expit(z)
        return s * (1.0 - s) * (1.0 - 2.0 * s)

    def validate_targets(self, y):
        super().validate_targets(y)
        y = np.asarray(y, dtype=float)
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("logistic loss requires targets in {0, 1}")

    def __repr__(self):
        return "Logistic()"


# ---------------------------------------------------------------------------
# Problem constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemConstants(JsonFields):
    """Bounds describing one sensing problem, used by the theory certificates.

    Conventions: X_max, sigma_eps, sigma_max, mu_max, K_ell are all >= 1 and
    mu0, lambda0 lie in (0, 1]; constants are clamped to those ranges when
    estimated automatically.
    """

    d: int
    k: int
    X_max: float
    sigma_min: float
    sigma_max: float
    sigma_eps: float
    mu_max: float
    K_ell: float
    mu0: float
    lambda0: float

    def validate(self):
        if self.d < 1 or self.k < 1 or self.k > self.d:
            raise ValueError("need d >= k >= 1")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ValueError("need 0 < sigma_min <= sigma_max")
        for name in ("X_max", "sigma_eps", "sigma_max", "mu_max", "K_ell"):
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be at least 1")
        for name in ("mu0", "lambda0"):
            v = getattr(self, name)
            if not (0.0 < v <= 1.0):
                raise ValueError(f"{name} must lie in (0, 1]")
        return self


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Dataset:
    """n measurement pairs: X is (n, d, d), y is (n,).  k is the target rank."""

    X: np.ndarray
    y: np.ndarray
    k: int | None = None

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if X.ndim != 3 or X.shape[1] != X.shape[2]:
            raise ValueError(f"X must be (n, d, d), got {X.shape}")
        if y.shape != (X.shape[0],):
            raise ValueError("y must have one entry per measurement matrix")
        if X.shape[0] < 1:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
            raise ValueError("dataset entries must be finite")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def d(self):
        return self.X.shape[1]

    @cached_property
    def moments(self):
        """(Sigma_hat, b) = (A^T A / n, A^T y / n).

        A is the design viewed as (n, d^2).  These are all the Gaussian
        loss's derivatives read of the data (``MomentRoute``); built on
        first use, then kept.
        """
        A = self.X.reshape(self.n, -1)
        return A.T @ A / self.n, A.T @ self.y / self.n

    def to_json(self):
        return json.dumps({
            "d": self.d,
            "k": self.k,
            "samples": [{"X": Xi.tolist(), "y": float(yi)}
                        for Xi, yi in zip(self.X, self.y)],
        })

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError("dataset must be a JSON object")
        d, k, samples = obj.get("d"), obj.get("k"), obj.get("samples")
        for key, value in (("d", d), ("k", 1 if k is None else k)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"dataset key {key!r} must be an integer")
        if not isinstance(samples, list) or not all(
                isinstance(s, dict) and "X" in s and "y" in s for s in samples):
            raise ValueError("dataset key 'samples' must be a list of "
                             "objects with 'X' and 'y'")
        try:
            X = np.array([s["X"] for s in samples], dtype=float)
            y = np.array([s["y"] for s in samples], dtype=float)
        except TypeError:
            raise ValueError("dataset samples must hold numbers") from None
        if X.shape[1:] != (d, d):
            raise ValueError("sample matrices do not match declared dimension")
        return cls(X=X, y=y, k=k)


@dataclass(frozen=True, eq=False)
class SufficientStatistics:
    """What the Gaussian loss reads of n samples, without the samples.

    ``gram`` and ``xy`` are the moments (Sigma_hat, b) = (A^T A / n,
    A^T y / n) of ``Dataset.moments``, ``anchor`` the least-squares fit
    m_hat = Sigma_hat^-1 b and ``residual`` its residual |y - A m_hat|^2,
    for A the design viewed as (n, d^2).  The loss at m = vec(theta
    theta^T) is then ((m - m_hat)^T Sigma_hat (m - m_hat) + residual / n)
    / (2 sigma^2).  ``X`` and ``y`` are empty (0, d, d) and (0,) arrays:
    nothing here reads a sample.
    """

    gram: np.ndarray
    xy: np.ndarray
    anchor: np.ndarray
    residual: float
    n: int
    k: int | None = None

    @property
    def d(self):
        return math.isqrt(self.xy.size)

    @property
    def moments(self):
        return self.gram, self.xy

    @property
    def X(self):
        return np.empty((0, self.d, self.d))

    @property
    def y(self):
        return np.empty(0)


# ---------------------------------------------------------------------------
# Design maps
# ---------------------------------------------------------------------------
# The (n, d, d) stack X is the only representation of the design.  Every
# derivative, curvature and the fit are built from the maps below, each one
# BLAS call on the stack viewed as 2-D.

def design_forward(X, M):
    """<X_i, M> for every matrix of the (n, d, d) stack X.

    M is one d x d matrix (result (n,)) or an (m, d, d) stack (result (n, m)).
    """
    Xf = X.reshape(X.shape[0], -1)
    if M.ndim == 2:
        return Xf @ M.ravel()
    return Xf @ M.reshape(M.shape[0], -1).T


def design_adjoint(X, w):
    """Matrix sum_i w_i X_i: the adjoint of the forward map."""
    n, d, _ = X.shape
    return (X.reshape(n, d * d).T @ w).reshape(d, d)


def _pair(A, B):
    """A B^T + B A^T, batched over a leading axis of either argument.

    <X, _pair(A, B)> = <(X + X^T) A, B>, the tangent coordinate of X along B
    at the factor A.
    """
    AB = A @ np.swapaxes(B, -1, -2)
    return AB + np.swapaxes(AB, -1, -2)


def pair_adjoint(X, w):
    """Matrix sum_i w_i (X_i + X_i^T), the adjoint of the tangent coordinates."""
    S = design_adjoint(X, w)
    return S + S.T


def pair_coordinates(X, theta, directions):
    """(n, m) matrix of <X_i, theta D_j^T + D_j theta^T> for a (m, d, k) stack.

    Entry (i, j) is the first-order change of the prediction z_i along D_j.
    """
    return design_forward(X, _pair(theta, directions))


# ---------------------------------------------------------------------------
# Data routes
# ---------------------------------------------------------------------------
# The fit and the inference at the truth reach the data through three
# operations: the loss at a factor and its change along a line search, the
# derivative pass (ell'', Sbar), and the design part of the curvature on
# pair matrices.  StackRoute computes them from X for any loss.  Under the
# Gaussian loss the empirical loss is a quadratic in m = vec(theta theta^T),
# so MomentRoute computes them from the moments alone; from a Dataset it
# reads the n samples only for the loss value the fit reports (``value``).
# The moments cost one (d^2 x d^2) Gram product over the design, which the
# saved passes repay from n >= MOMENT_RATIO d^2 on.

MOMENT_RATIO = 4


def uses_moments(loss, n, d):
    """Whether the fit reads n samples of dimension d through the moments.

    True for the Gaussian loss with n >= MOMENT_RATIO d^2.
    """
    return isinstance(loss, GaussianNLL) and n >= MOMENT_RATIO * d ** 2


def data_route(dataset, loss):
    """The route the fit and the inference read ``dataset`` through.

    MomentRoute where ``uses_moments`` holds or for drawn
    ``SufficientStatistics``, which hold no samples, StackRoute otherwise.
    """
    if isinstance(dataset, SufficientStatistics):
        if not isinstance(loss, GaussianNLL):
            raise ValueError("drawn statistics hold only what the Gaussian "
                             "loss reads")
        return MomentRoute(dataset, loss)
    if uses_moments(loss, dataset.n, dataset.d):
        return MomentRoute(dataset, loss)
    return StackRoute(dataset, loss)


@dataclass(frozen=True, eq=False)
class Iterate:
    """A factor and its route's ``state``, linear in theta theta^T.

    The stack route also holds the loss ``f``; the moment route holds the
    ``change`` of the loss from the iterate it was tried against.  Either
    route's ``value`` gives the loss the fit reports.
    """

    theta: np.ndarray
    state: np.ndarray
    f: float = math.nan
    change: float = math.nan


class StackRoute:
    """The data operations on the (n, d, d) stack X, for any loss.

    The state of a factor is its prediction vector z.
    """

    def __init__(self, dataset, loss):
        self.X, self.y, self.n, self.loss = dataset.X, dataset.y, dataset.n, loss

    def spectral(self):
        """(1/n) sum_i y_i (X_i + X_i^T) / 2."""
        return pair_adjoint(self.X, self.y) / (2.0 * self.n)

    def state(self, theta):
        return design_forward(self.X, theta @ theta.T)

    def at(self, theta, state=None, base=None):
        """The Iterate at theta (``base`` is not needed on this route)."""
        # non-finite values are handled by the divergence/backtracking logic
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.state(theta) if state is None else state
            return Iterate(theta, z, float(np.mean(self.loss.value(z, self.y))))

    def value(self, point):
        """The empirical loss at ``point``."""
        return point.f

    def ray(self, theta, state, tau):
        """(f'(tau), f''(tau)) for f(tau) the loss at theta sqrt(tau)."""
        d1, d2 = self.loss.d1_d2(tau * state, self.y)
        return (float(np.mean(d1 * state)),
                float(np.mean(d2 * (state * state))))

    def compare(self, base, cand, bound):
        """(f(cand) <= f(base) - bound with f(cand) finite, f(cand) < f(base))."""
        return (bool(np.isfinite(cand.f)) and cand.f <= base.f - bound,
                cand.f < base.f)

    def derivative_pass(self, theta, state=None):
        """(ell''(z), Sbar) with Sbar = pair_adjoint(X, ell'(z)) / n."""
        z = self.state(theta) if state is None else state
        d1, d2 = self.loss.d1_d2(z, self.y)
        return d2, pair_adjoint(self.X, d1) / self.n

    def curvature(self, theta, E, d2):
        """A^T diag(d2) A / n for A = pair_coordinates(X, theta, E)."""
        A = pair_coordinates(self.X, theta, E)
        return (A * d2[:, None]).T @ A / self.n

    def curvature_times(self, theta, Z, d2):
        """pair_adjoint(X, d2 a) theta / n for a_i = <X_i, theta Z^T + Z theta^T>."""
        a = design_forward(self.X, _pair(theta, Z))
        return pair_adjoint(self.X, d2 * a) @ theta / self.n


class MomentRoute:
    """The same operations from (Sigma_hat, b), for the Gaussian loss.

    With m = vec(theta theta^T), the state of a factor is q = Sigma_hat m,
    Sbar = R + R^T for R = mat(q - b) / sigma^2, and ell'' = 1 / sigma^2.
    The loss change to a candidate is the quadratic form
    (dm^T Sigma_hat dm / 2 + dm^T (q - b)) / sigma^2 in
    dm = theta (dtheta)^T + dtheta theta^T + dtheta dtheta^T, which avoids
    the cancellation of two loss values far above their difference.

    The loss itself would be (m^T (q - 2 b) + y^T y / n) / (2 sigma^2),
    which cancels terms about |M|^2 / sigma^2 times larger than its result,
    so ``value`` takes it from one forward pass over X instead: the one
    operation here that reads the samples, once per reported iterate.  On
    ``SufficientStatistics`` it is the anchored form, a sum of two terms
    >= 0 that do not cancel.
    """

    def __init__(self, dataset, loss):
        self.gram, self.xy = dataset.moments
        self.X, self.y, self.d, self.loss = dataset.X, dataset.y, dataset.d, loss
        self.inv_var = loss._inv_var
        self.drawn = dataset if isinstance(dataset, SufficientStatistics) \
            else None

    def spectral(self):
        B = self.xy.reshape(self.d, self.d)
        return 0.5 * (B + B.T)

    def state(self, theta):
        return self.gram @ (theta @ theta.T).ravel()

    def at(self, theta, state=None, base=None):
        """The Iterate at theta, with its loss change from ``base`` if given."""
        with np.errstate(over="ignore", invalid="ignore"):
            q = self.state(theta) if state is None else state
            if base is None:
                return Iterate(theta, q)
            step = theta - base.theta
            dm = (_pair(base.theta, step) + step @ step.T).ravel()
            change = self.inv_var * float(
                dm @ (0.5 * (self.gram @ dm) + base.state - self.xy))
            return Iterate(theta, q, change=change)

    def value(self, point):
        """The empirical loss at ``point``: one forward pass over X, or the
        anchored form on drawn statistics."""
        with np.errstate(over="ignore", invalid="ignore"):
            if self.drawn is not None:
                r = (point.theta @ point.theta.T).ravel() - self.drawn.anchor
                return 0.5 * self.inv_var * (
                    float(r @ (self.gram @ r))
                    + self.drawn.residual / self.drawn.n)
            z = design_forward(self.X, point.theta @ point.theta.T)
            return float(np.mean(self.loss.value(z, self.y)))

    def ray(self, theta, state, tau):
        m = (theta @ theta.T).ravel()
        curv = float(m @ state)
        return (self.inv_var * (tau * curv - float(m @ self.xy)),
                self.inv_var * curv)

    def compare(self, base, cand, bound):
        return (bool(np.isfinite(cand.change)) and cand.change <= -bound,
                cand.change < 0.0)

    def derivative_pass(self, theta, state=None):
        q = self.state(theta) if state is None else state
        R = (q - self.xy).reshape(self.d, self.d) * self.inv_var
        return self.inv_var, R + R.T

    def curvature(self, theta, E, d2):
        C = _pair(theta, E).reshape(E.shape[0], -1)
        return d2 * (C @ self.gram @ C.T)

    def curvature_times(self, theta, Z, d2):
        W = (self.gram @ _pair(theta, Z).ravel()).reshape(self.d, self.d)
        return d2 * ((W + W.T) @ theta)


def curvature_apply(route, theta, Z, terms):
    """The curvature operator at theta applied to Z, from a derivative pass.

    ``terms`` = (d2, Sbar) = ``route.derivative_pass(theta)``; the result is
    the route's design part plus Sbar Z (the exact curvature-vector product,
    two passes over X on the stack).
    """
    d2, Sbar = terms
    return route.curvature_times(theta, Z, d2) + Sbar @ Z


# ---------------------------------------------------------------------------
# Core predictions and derivatives
# ---------------------------------------------------------------------------

def predictions(dataset, theta):
    """Vector of <X_i, theta theta^T> for every sample."""
    theta = np.asarray(theta, dtype=float)
    if dataset.d != theta.shape[0]:
        raise ValueError("dataset and factor dimensions disagree")
    return design_forward(dataset.X, theta @ theta.T)


def empirical_loss(dataset, theta, loss):
    """Mean loss over the dataset at the factor theta."""
    loss.validate_targets(dataset.y)
    z = predictions(dataset, theta)
    return float(np.mean(loss.value(z, dataset.y)))


def euclidean_gradient(dataset, theta, loss):
    """Gradient of the empirical loss with respect to theta.

    Equals (1/n) sum_i ell'(z_i, y_i) (X_i + X_i^T) theta, the Riesz
    representative of the first derivative under the Frobenius inner product.
    """
    theta = np.asarray(theta, dtype=float)
    z = predictions(dataset, theta)
    w = loss.d1(z, dataset.y)
    return pair_adjoint(dataset.X, w) @ theta / dataset.n


def hessian_bilinear(dataset, theta, Z, W, loss):
    """Second derivative of the empirical loss as a bilinear form on (Z, W)."""
    W = np.asarray(W, dtype=float)
    if W.shape != np.shape(theta):
        raise ValueError("Z and W must match the factor shape")
    return float(np.sum(hessian_operator(dataset, theta, Z, loss) * W))


def hessian_operator(dataset, theta, Z, loss):
    """Riesz representative of the curvature form: <result, W> = bilinear(Z, W)."""
    theta = np.asarray(theta, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.shape != theta.shape:
        raise ValueError("Z must match the factor shape")
    route = StackRoute(dataset, loss)
    terms = route.derivative_pass(theta, predictions(dataset, theta))
    return curvature_apply(route, theta, Z, terms)


def third_derivative(dataset, theta, Z, W, V, loss):
    """Third derivative of the empirical loss, a symmetric trilinear form."""
    if np.shape(W) != np.shape(theta):
        raise ValueError("all directions must match the factor shape")
    R = third_derivative_operator(dataset, theta, Z, V, loss)
    return float(np.sum(R * W))


def third_derivative_operator(dataset, theta, V, W, loss):
    """Matrix R with <R, U> = third_derivative(dataset, theta, V, U, W, loss).

    This is the derivative of the curvature operator in direction W, applied
    to V.
    """
    theta = np.asarray(theta, dtype=float)
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if V.shape != theta.shape or W.shape != theta.shape:
        raise ValueError("all directions must match the factor shape")
    z = predictions(dataset, theta)
    d2 = loss.d2(z, dataset.y)
    d3 = loss.d3(z, dataset.y)
    X = dataset.X
    aV = design_forward(X, _pair(theta, V))
    aW = design_forward(X, _pair(theta, W))
    cVW = design_forward(X, _pair(V, W))
    R = (pair_adjoint(X, d3 * aV * aW + d2 * cVW) @ theta
         + pair_adjoint(X, d2 * aW) @ V
         + pair_adjoint(X, d2 * aV) @ W)
    return R / dataset.n


# ---------------------------------------------------------------------------
# Data generating processes
# ---------------------------------------------------------------------------

# Designs with iid zero-mean unit-variance entries satisfy
# E[<X, A><X, B>] = <A, B> for arbitrary A, B.  The symmetrized design does
# so only for symmetric A, B, the only kind the population curvature pairs.
ISOTROPIC_DESIGNS = ("gaussian", "bounded")
DESIGNS = ("gaussian", "symmetric", "bounded")
NOISES = ("gaussian", "bernoulli")

# Bounded design draws entries uniform on [-sqrt(3), sqrt(3)]: unit variance,
# hard entry bound sqrt(3).
BOUNDED_XMAX = float(np.sqrt(3.0))

# Design draws per batch of the population-curvature Monte Carlo.
MC_BATCH = 65536


def sample_design(design, rng, n, d):
    """Draw n measurement matrices of the named design."""
    if design == "gaussian":
        return rng.standard_normal((n, d, d))
    if design == "symmetric":
        G = rng.standard_normal((n, d, d))
        return 0.5 * (G + G.transpose(0, 2, 1))
    if design == "bounded":
        return rng.uniform(-BOUNDED_XMAX, BOUNDED_XMAX, size=(n, d, d))
    raise ConfigurationError(f"unknown design {design!r}")


@dataclass(frozen=True, eq=False)
class DataGeneratingProcess:
    """Sampler for (X, y) pairs around a ground-truth factor.

    ``noise`` is either "gaussian" (y = z* + sigma * eps) or "bernoulli"
    (y ~ Bernoulli(sigmoid(z*))).  ``seed`` may be an int or a tuple of ints;
    tuples give independent streams for e.g. per-replicate simulation.
    """

    theta_star: np.ndarray
    design: str = "gaussian"
    noise: str = "gaussian"
    sigma: float = 1.0
    seed: int | tuple = 0

    def __post_init__(self):
        theta = np.asarray(self.theta_star, dtype=float)
        if theta.ndim != 2:
            raise ValueError("theta_star must be a d x k matrix")
        object.__setattr__(self, "theta_star", theta)
        if self.design not in DESIGNS:
            raise ConfigurationError(f"unknown design {self.design!r}")
        if self.noise not in NOISES:
            raise ConfigurationError(f"unknown noise model {self.noise!r}")
        if self.noise == "gaussian" and self.sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")

    @property
    def d(self):
        return self.theta_star.shape[0]

    @property
    def k(self):
        return self.theta_star.shape[1]

    def rng(self, *extra):
        seed = (tuple(self.seed) if isinstance(self.seed, (tuple, list))
                else (int(self.seed),))
        ss = np.random.SeedSequence(seed + tuple(extra))
        return np.random.Generator(np.random.SFC64(ss))


def simulate(dgp, n):
    """Draw a Dataset of n samples.  Bit-identical for equal (seed, n)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    rng = dgp.rng()
    X = sample_design(dgp.design, rng, n, dgp.d)
    z = design_forward(X, dgp.theta_star @ dgp.theta_star.T)
    if dgp.noise == "gaussian":
        y = z + dgp.sigma * rng.standard_normal(n)
    else:
        y = (rng.random(n) < expit(z)).astype(float)
    return Dataset(X=X, y=y, k=dgp.k)


def draw_statistics(dgp, n):
    """Draw the ``SufficientStatistics`` of n samples without drawing X.

    For the Gaussian design and noise, with p = d^2, m* = vec(M*) and
    s = dgp.sigma (Bartlett's decomposition; Odell and Feiveson, JASA 1966):
    W = n Sigma_hat = L L^T ~ Wishart(n, I_p) for L lower triangular with
    L_ii = sqrt(chi^2_{n-i}), i = 0 ... p - 1, and N(0, 1) entries below
    the diagonal.  Writing the design as A = Q L^T, with Q (n x p)
    orthonormal, Haar-distributed and independent of L, and
    xi = Q^T eps ~ N(0, I_p):

        n b = W m* + s L xi,   m_hat = m* + s L^-T xi,
        |y - A m_hat|^2 = s^2 chi^2_{n-p}, independent of both.

    The stream is drawn in that order: the p diagonal chi^2, the
    p (p - 1) / 2 entries below it row by row, xi, the residual's chi^2.
    Bit-identical for equal (seed, n).
    """
    if dgp.design != "gaussian" or dgp.noise != "gaussian":
        raise ConfigurationError(
            "statistics are drawn only for the gaussian design and noise")
    p = dgp.d ** 2
    if n <= p:
        raise ValueError("drawing the statistics needs n > d^2")
    rng = dgp.rng()
    L = np.diag(np.sqrt(rng.chisquare(n - np.arange(p))))
    L[np.tril_indices(p, -1)] = rng.standard_normal(p * (p - 1) // 2)
    xi = rng.standard_normal(p)
    residual = dgp.sigma ** 2 * float(rng.chisquare(n - p))
    W = L @ L.T
    m_star = (dgp.theta_star @ dgp.theta_star.T).ravel()
    anchor = m_star + dgp.sigma * solve_triangular(L, xi, lower=True,
                                                   trans="T")
    return SufficientStatistics(
        gram=W / n, xy=(W @ m_star + dgp.sigma * (L @ xi)) / n,
        anchor=anchor, residual=residual, n=n, k=dgp.k)


def has_closed_form(design, loss):
    """Whether the population curvature is exact: no design draws.

    Stein's identity gives it for any loss under the two Gaussian designs;
    the Gaussian loss needs only an isotropic design's second moments.
    """
    return (design in ("gaussian", "symmetric")
            or (design in ISOTROPIC_DESIGNS and isinstance(loss, GaussianNLL)))


def _stein_moments(loss, s):
    """(E[ell''(s u)], E[ell''(s u) u^2]) for u ~ N(0, 1).

    Both are 1/sigma^2 for the Gaussian loss; other losses are integrated
    adaptively on each half-line.
    """
    if isinstance(loss, GaussianNLL):
        return loss._inv_var, loss._inv_var
    moments = []
    for power in (0, 2):
        def integrand(u):
            return loss.d2(s * u, None) * u**power * math.exp(-0.5 * u * u)
        halves = (quad(integrand, a, b, epsabs=0.0, epsrel=1e-12)[0]
                  for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
        moments.append(sum(halves) / math.sqrt(2.0 * math.pi))
    return tuple(moments)


def population_curvature(dgp, theta_star, directions, loss, n_mc=None,
                         return_se=False):
    """Population curvature E[ell''(z*) a_i a_j] on a (m, d, k) direction stack.

    a_i = <X, C_i> with C_i = theta D_i^T + D_i theta^T.  When
    ``has_closed_form`` holds and ``n_mc`` is None it is exact (Stein's
    identity): with s^2 = ||M*||_F^2, b_i = <C_i, M*> and u ~ N(0, 1),

        H = E[ell''(s u)] (C C^T - b b^T / s^2) + E[ell''(s u) u^2] b b^T / s^2,

    which is C C^T / sigma^2 for the Gaussian loss.  Otherwise it is a
    Monte Carlo average over ``n_mc`` >= 1 fresh design draws, taken
    ``MC_BATCH`` draws at a time.  With ``return_se`` the entrywise Monte
    Carlo standard errors (zero when exact; ``n_mc`` >= 2) come back too.
    """
    theta_star = np.asarray(theta_star, dtype=float)
    C = _pair(theta_star, np.asarray(directions, dtype=float))
    m = C.shape[0]
    M = theta_star @ theta_star.T
    se = np.zeros((m, m))
    if has_closed_form(dgp.design, loss) and n_mc is None:
        # a = b z* / s^2 + r, with r independent of z* ~ N(0, s^2)
        C = C.reshape(m, -1)
        s2 = float(np.sum(M * M))
        mean, tail = _stein_moments(loss, math.sqrt(s2))
        H = mean * (C @ C.T)
        if s2 > 0.0:
            b = C @ M.ravel()
            H += (tail - mean) / s2 * np.outer(b, b)
    elif n_mc is None:
        raise ConfigurationError("no exact form for this design/loss; "
                                 "supply a Monte Carlo budget n_mc")
    else:
        least = 2 if return_se else 1
        if n_mc < least:
            raise ValueError(f"Monte Carlo budget n_mc must be >= {least}")
        rng = dgp.rng(0x9E5)
        H = np.zeros((m, m))
        H2 = np.zeros((m, m))
        remaining = int(n_mc)
        while remaining > 0:
            nb = min(MC_BATCH, remaining)
            X = sample_design(dgp.design, rng, nb, dgp.d)
            mu1 = loss.d2(design_forward(X, M), None)
            A = design_forward(X, C)
            H += (A * mu1[:, None]).T @ A
            if return_se:
                A2 = A * A
                H2 += (A2 * (mu1 * mu1)[:, None]).T @ A2
            remaining -= nb
        H /= n_mc
        if return_se:
            var = np.maximum(H2 / n_mc - H * H, 0.0) * n_mc / (n_mc - 1)
            se = np.sqrt(var / n_mc)
    H = 0.5 * (H + H.T)
    return (H, se) if return_se else H

