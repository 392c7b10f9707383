"""Shared test utilities: random problem instances and independent oracles."""

import numpy as np
import pytest

import qsense as q
from qsense.model import (Dataset, StackRoute, _pair, design_forward,
                          empirical_loss, euclidean_gradient, hessian_bilinear,
                          pair_coordinates, sample_design)


def random_orthogonal(rng, k):
    Q, R = np.linalg.qr(rng.standard_normal((k, k)))
    # fix signs so the distribution is Haar and the result deterministic
    return Q * np.sign(np.diag(R))[None, :]


def random_theta(rng, d, k, smin=0.8, smax=1.5):
    """Factor with singular values spread over [smin, smax]."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, k)))
    W = random_orthogonal(rng, k)
    s = np.linspace(smax, smin, k) if k > 1 else np.array([smax])
    return Q @ np.diag(s) @ W.T


def random_instance(rng, d, k, n, loss_kind="gaussian"):
    """Dataset with finite targets plus a generic evaluation point."""
    theta_star = random_theta(rng, d, k)
    X = rng.standard_normal((n, d, d))
    z = np.einsum("nij,ij->n", X, theta_star @ theta_star.T)
    if loss_kind == "gaussian":
        sigma = float(rng.uniform(0.5, 2.0))
        loss = q.GaussianNLL(sigma)
        y = z + sigma * rng.standard_normal(n)
    else:
        loss = q.Logistic()
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-z))).astype(float)
    data = Dataset(X=X, y=y, k=k)
    theta = theta_star + 0.2 * rng.standard_normal((d, k))
    return data, theta, loss


def sbar_at(data, theta, loss):
    """Sbar at theta from one derivative pass, as ``FitResult.sbar`` holds it
    at a fit's estimate: the Taylor check's input at any other point."""
    return StackRoute(data, loss).derivative_pass(theta)[1]


def full_rows_route(data, loss):
    """``StackRoute`` on all n rows of ``data``, also for the Gaussian loss,
    which reads the p + 1 square-root rows otherwise: their oracle."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Dataset, "compressed", property(lambda data: data))
        return StackRoute(data, loss)


def fd_gradient(data, theta, loss, h=1e-6):
    """Central finite differences of the empirical loss, entry by entry."""
    G = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        for j in range(theta.shape[1]):
            E = np.zeros_like(theta)
            E[i, j] = h
            G[i, j] = (empirical_loss(data, theta + E, loss)
                       - empirical_loss(data, theta - E, loss)) / (2 * h)
    return G


def fd_hessian_bilinear(data, theta, Z, W, loss, h=1e-6):
    """Directional finite difference of the analytic gradient along Z, dotted with W."""
    gp = euclidean_gradient(data, theta + h * Z, loss)
    gm = euclidean_gradient(data, theta - h * Z, loss)
    return float(np.sum((gp - gm) * W)) / (2 * h)


def fd_third(data, theta, Z, W, V, loss, h=1e-5):
    """Directional finite difference of the analytic curvature form along V."""
    bp = hessian_bilinear(data, theta + h * V, Z, W, loss)
    bm = hessian_bilinear(data, theta - h * V, Z, W, loss)
    return (bp - bm) / (2 * h)


def dense_curvature(route, theta, E, d2):
    """``StackRoute.curvature`` over all n rows at once, A^T diag(d2) A / n
    for A = pair_coordinates(U, theta, E): the row-blocked build's oracle."""
    A = pair_coordinates(route.U, theta, E)
    return (A * d2[:, None]).T @ A / route.n


def rel_err(a, b, floor=1e-10):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(a), floor))


def sampled_curvature(dgp, theta, directions, loss, draws, batch=65536):
    """Monte Carlo mean and entrywise standard error of E[ell''(z*) a_i a_j].

    a_i = <X, theta D_i^T + D_i theta^T> over ``draws`` fresh designs of
    ``dgp``, the oracle for ``population_curvature``.
    """
    C = _pair(theta, np.asarray(directions, dtype=float))
    M = theta @ theta.T
    rng = dgp.rng(0x9E5)
    total = np.zeros((len(C), len(C)))
    squares = np.zeros_like(total)
    for start in range(0, draws, batch):
        U = sample_design(dgp.design, rng, min(batch, draws - start), dgp.d)
        mu = loss.d2(design_forward(U, M), None)
        A = design_forward(U, C)
        total += (A * mu[:, None]).T @ A
        A2 = A * A
        squares += (A2 * (mu * mu)[:, None]).T @ A2
    mean = total / draws
    var = np.maximum(squares / draws - mean * mean, 0.0) * draws / (draws - 1)
    return mean, np.sqrt(var / draws)
