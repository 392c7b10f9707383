"""Measurement model and analytic derivatives for generalized low-rank sensing.

The observation model is ``y_i ~ noise(z_i)`` with ``z_i = <X_i, theta theta^T>``,
where ``X_i`` is a d x d measurement matrix, ``theta`` is a d x k factor and
``<.,.>`` is the Frobenius inner product.  The empirical objective is the mean
of a scalar loss ``ell(z_i, y_i)``; everything downstream (gradient, curvature,
third derivative) is computed from the analytic derivatives of ``ell`` in its
first argument.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
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
        z = np.asarray(z, dtype=float)
        return np.logaddexp(0.0, z) - y * z

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


def evaluate_loss(loss, z, y):
    """Return (value, d1, d2, d3) of the loss at a scalar (z, y)."""
    if not (np.isfinite(z) and np.isfinite(y)):
        raise ValueError("z and y must be finite")
    loss.validate_targets(np.asarray([y]))
    return (float(loss.value(z, y)), float(loss.d1(z, y)),
            float(loss.d2(z, y)), float(loss.d3(z, y)))


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


def design_moment(X):
    """(d^2, d^2) second-moment form (1/n) sum_i vec(X_i) vec(X_i)^T."""
    V = X.reshape(X.shape[0], -1)
    return V.T @ V / X.shape[0]


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
# Core predictions and derivatives
# ---------------------------------------------------------------------------

def predict(X, theta):
    """Frobenius inner product <X, theta theta^T>."""
    X = np.asarray(X, dtype=float)
    theta = np.asarray(theta, dtype=float)
    if X.shape != (theta.shape[0], theta.shape[0]):
        raise ValueError(
            f"shape mismatch: X is {X.shape}, theta is {theta.shape}")
    return float(design_forward(X[None], theta @ theta.T)[0])


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
    z = predictions(dataset, theta)
    d1, d2 = loss.d1_d2(z, dataset.y)
    X = dataset.X
    aZ = design_forward(X, _pair(theta, Z))
    return (pair_adjoint(X, d2 * aZ) @ theta
            + pair_adjoint(X, d1) @ Z) / dataset.n


def third_derivative(dataset, theta, Z, W, V, loss):
    """Third derivative of the empirical loss, a symmetric trilinear form."""
    if np.shape(W) != np.shape(theta):
        raise ValueError("all directions must match the factor shape")
    R = third_derivative_operator(dataset, theta, Z, V, loss)
    return float(np.sum(R * W))


def third_derivative_operator(dataset, theta, V, W, loss):
    """Matrix R with <R, U> = third_derivative(dataset, theta, V, U, W, loss).

    This is the derivative of the curvature operator in direction W, applied
    to V; used by the curvature-Lipschitz probe.
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
        return np.random.Generator(np.random.Philox(ss))


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

