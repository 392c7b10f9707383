"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Statistical criteria use fixed seeds, so the whole
gate is deterministic.
"""

import json
import os
import time

import numpy as np
import pytest

import qsense as q
from qsense.cli import cli_main
from qsense.harness import ExperimentConfig, normality_experiment, rate_experiment

from helpers import (fd_gradient, fd_hessian_bilinear, fd_third,
                     random_instance, random_orthogonal, random_theta, rel_err)


def _check(num, description, ok, detail=""):
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    assert ok, line


def _scalar_rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def test_criterion_1_derivative_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(1001)
    worst = {"grad": 0.0, "hess": 0.0, "third": 0.0}
    for trial in range(100):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(d, 3) + 1))
        kind = "gaussian" if trial % 2 == 0 else "logistic"
        data, theta, loss = random_instance(rng, d, k, 10, kind)
        G = q.euclidean_gradient(data, theta, loss)
        worst["grad"] = max(worst["grad"],
                            rel_err(G, fd_gradient(data, theta, loss)))
        Z = rng.standard_normal(theta.shape)
        W = rng.standard_normal(theta.shape)
        V = rng.standard_normal(theta.shape)
        hb = q.hessian_bilinear(data, theta, Z, W, loss)
        worst["hess"] = max(worst["hess"],
                            _scalar_rel(hb, fd_hessian_bilinear(data, theta, Z, W, loss)))
        td = q.third_derivative(data, theta, Z, W, V, loss)
        worst["third"] = max(worst["third"],
                             _scalar_rel(td, fd_third(data, theta, Z, W, V, loss)))
    elapsed = time.monotonic() - t0
    ok = (worst["grad"] <= 1e-6 and worst["hess"] <= 1e-5
          and worst["third"] <= 1e-4 and elapsed < 30.0)
    _check(1, "derivative oracles on 100 random instances", ok,
           f"grad {worst['grad']:.2e}, hess {worst['hess']:.2e}, "
           f"third {worst['third']:.2e}, {elapsed:.1f}s")


def test_criterion_2_geometry_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(1002)
    ok = True
    detail = []

    # projection identities at 1e-10
    proj_worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(d, 4)))
        theta = random_theta(rng, d, k, smin=0.5, smax=2.0)
        Z = rng.standard_normal((d, k))
        W = rng.standard_normal((d, k))
        Pv = q.vertical_project(theta, Z)
        Ph = q.horizontal_project(theta, Z)
        proj_worst = max(
            proj_worst,
            float(np.linalg.norm(Pv + Ph - Z)),
            float(np.linalg.norm(q.vertical_project(theta, Pv) - Pv)),
            float(np.linalg.norm(q.horizontal_project(theta, Ph) - Ph)),
            float(np.linalg.norm(q.vertical_project(theta, Ph))),
            abs(float(np.sum(q.horizontal_project(theta, Z) * W))
                - float(np.sum(Z * q.horizontal_project(theta, W)))),
        )
    ok &= proj_worst <= 1e-10
    detail.append(f"proj {proj_worst:.1e}")

    # vertical projection against the least-squares oracle at 1e-8
    ls_worst = 0.0
    for _ in range(10):
        theta = random_theta(rng, 5, 3)
        Z = rng.standard_normal((5, 3))
        span = np.array([theta @ A for A in q.skew_basis(3)])
        flat = span.reshape(span.shape[0], -1)
        coef = np.linalg.solve(flat @ flat.T, flat @ Z.ravel())
        oracle = np.einsum("m,mij->ij", coef, span)
        ls_worst = max(ls_worst, float(np.linalg.norm(
            q.vertical_project(theta, Z) - oracle)))
    ok &= ls_worst <= 1e-8
    detail.append(f"frame-vs-ls {ls_worst:.1e}")

    # alignment beats 200 random rotations and the k=2 angle grid
    theta_a = random_theta(rng, 5, 2)
    theta_b = random_theta(rng, 5, 2)
    opt = q.align(theta_a, theta_b).distance
    beats = all(np.linalg.norm(theta_a @ random_orthogonal(rng, 2) - theta_b)
                >= opt - 1e-10 for _ in range(200))
    angles = np.arange(0.0, 2.0 * np.pi, 1e-3)
    c, s = np.cos(angles), np.sin(angles)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    best = np.inf
    for Us in (rot, rot @ np.diag([1.0, -1.0])):
        resid = np.einsum("ij,ajk->aik", theta_a, Us) - theta_b[None]
        best = min(best, float(np.sqrt(np.min(np.sum(resid**2, axis=(1, 2))))))
    grid_ok = abs(opt - best) < 1e-5 and opt <= best + 1e-5
    ok &= beats and grid_ok
    detail.append(f"procrustes gap {abs(opt - best):.1e}")

    # pair-map singular value inequality over 1000 horizontal unit directions
    slack_worst = np.inf
    for _ in range(1000):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(d, 4)))
        theta = random_theta(rng, d, k, smin=0.5, smax=2.0)
        Z = q.horizontal_project(theta, rng.standard_normal((d, k)))
        Z /= np.linalg.norm(Z)
        val = np.linalg.norm(theta @ Z.T + Z @ theta.T) ** 2
        slack_worst = min(slack_worst,
                          val - 2.0 * q.injectivity_radius(theta) ** 2)
    ok &= slack_worst >= -1e-10
    detail.append(f"pair-norm slack {slack_worst:.2e}")

    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    _check(2, "geometry suite (projections, alignment, pair-map bound)", ok,
           ", ".join(detail) + f", {elapsed:.1f}s")


def test_criterion_3_representation_invariance():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(50):
        d = int(rng.integers(3, 7))
        k = int(rng.integers(2, min(d, 4)))
        theta = random_theta(rng, d, k)
        loss = q.GaussianNLL(1.0) if trial % 2 == 0 else q.Logistic()
        noise = "gaussian" if trial % 2 == 0 else "bernoulli"
        dgp = q.DataGeneratingProcess(theta_star=theta, noise=noise,
                                      sigma=1.0, seed=trial)
        data = q.simulate(dgp, 1)
        U = random_orthogonal(rng, k)
        audit = q.invariance_audit(theta, U, (data.X[0], data.y[0]), loss)
        worst = max(worst, audit.max_discrepancy)
    _check(3, "representation invariance under 50 random rotations",
           worst <= 1e-9, f"max discrepancy {worst:.2e}")


def test_criterion_4_degeneracy_and_restriction():
    rng = np.random.default_rng(1004)
    theta = random_theta(rng, 6, 3, smin=0.8, smax=1.4)
    loss = q.GaussianNLL(1.0)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="gaussian",
                                  noise="gaussian", sigma=1.0, seed=0)
    vertical_worst = 0.0
    for A in q.skew_basis(3):
        Z = theta @ A
        vertical_worst = max(vertical_worst, abs(q.population_curvature(
            dgp, theta, np.stack([Z, Z]), loss)[0, 1]))
    basis = q.horizontal_basis(theta)
    H = q.restricted_population_hessian(dgp, theta, basis, loss)
    lam_min = float(np.linalg.eigvalsh(H)[0])
    floor = 2.0 * q.injectivity_radius(theta) ** 2
    ok = vertical_worst <= 1e-10 and lam_min >= floor - 1e-10
    _check(4, "population curvature kills verticals, restricted floor holds",
           ok, f"vertical {vertical_worst:.1e}, "
               f"min eig {lam_min:.4f} >= {floor:.4f}")


def test_criterion_5_normality_both_losses():
    t0 = time.monotonic()
    results = {}
    for tag, cfg in (
        ("gaussian", ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1,
                                      design="gaussian", n=8000,
                                      replications=1000, seed=2024, threads=2)),
        ("logistic", ExperimentConfig(d=6, k=2, loss="logistic",
                                      design="gaussian", n=16000,
                                      replications=1000, seed=2024, threads=2)),
    ):
        rep = normality_experiment(cfg)
        results[tag] = rep
    elapsed = time.monotonic() - t0
    ok = elapsed <= 300.0
    details = []
    for tag, rep in results.items():
        cov_ok = rep.covariance_rel_error <= 0.15
        cover_ok = bool(np.all((rep.coverage_per_coordinate >= 0.93)
                               & (rep.coverage_per_coordinate <= 0.97)))
        ks_ok = rep.max_ks_distance <= 0.06
        ok &= cov_ok and cover_ok and ks_ok
        details.append(f"{tag}: cov {rep.covariance_rel_error:.3f}, "
                       f"coverage [{rep.coverage_per_coordinate.min():.3f},"
                       f"{rep.coverage_per_coordinate.max():.3f}], "
                       f"KS {rep.max_ks_distance:.3f}")
    _check(5, "standardized errors are asymptotically standard normal", ok,
           "; ".join(details) + f", {elapsed:.0f}s")


def test_criterion_6_rate():
    t0 = time.monotonic()
    cfg = ExperimentConfig(d=6, k=2, loss="gaussian", sigma=0.1,
                           design="gaussian",
                           n_grid=[512, 1024, 2048, 4096, 8192, 16384],
                           replications=200, seed=7, threads=2, delta=0.05)
    rep = rate_experiment(cfg)
    elapsed = time.monotonic() - t0
    slope_ok = -0.6 <= rep.slope <= -0.4
    below = bool(np.all(rep.medians <= rep.bound_values))
    ok = slope_ok and below and elapsed <= 180.0
    _check(6, "median distance follows the n^(-1/2) rate below the certificate",
           ok, f"slope {rep.slope:.3f}, below-certificate {below}, {elapsed:.0f}s")


def test_criterion_7_taylor_residual():
    rng = np.random.default_rng(1007)
    theta = random_theta(rng, 5, 2, smin=0.8, smax=1.2)
    dgp = q.DataGeneratingProcess(theta_star=theta, design="bounded",
                                  noise="gaussian", sigma=0.1, seed=4)
    data = q.simulate(dgp, 500)
    loss = q.GaussianNLL(0.1)
    basis = q.horizontal_basis(theta)
    constants = q.ProblemConstants(
        d=5, k=2, X_max=float(np.sqrt(3.0)), sigma_min=0.8, sigma_max=1.2,
        sigma_eps=10.0, mu_max=100.0, K_ell=100.0, mu0=1.0, lambda0=1.0)
    cert = q.theory_constants(constants, 0.05)
    W = q.horizontal_project(theta, rng.standard_normal((5, 2)))
    W /= np.linalg.norm(W)
    radii = 0.15 * q.injectivity_radius(theta) * 0.5 ** np.arange(7)
    dists, rems, ratios_ok = [], [], True
    for r in radii:
        rep = q.taylor_residual_check(
            q.restricted_representation(data, theta, theta + r * W, basis,
                                        loss),
            certificate_k=cert.K)
        dists.append(rep.distance)
        rems.append(rep.remainder)
        ratios_ok &= rep.ratio <= cert.K / 2.0
    slope = float(np.polyfit(np.log(dists), np.log(rems), 1)[0])
    ok = 1.8 <= slope <= 2.2 and ratios_ok
    _check(7, "expansion remainder is quadratic and below certificate K/2",
           ok, f"slope {slope:.3f}, all ratios below K/2: {ratios_ok}")


def test_criterion_8_assumption_checkers():
    rng = np.random.default_rng(1008)
    theta = random_theta(rng, 4, 2)
    matched = q.assumption_report(
        q.DataGeneratingProcess(theta_star=theta, noise="gaussian", sigma=1.0,
                                seed=8),
        theta, q.GaussianNLL(1.0), 100_000)
    mismatched = q.assumption_report(
        q.DataGeneratingProcess(theta_star=theta, noise="gaussian", sigma=2.0,
                                seed=9),
        theta, q.GaussianNLL(1.0), 100_000)
    ok = (matched.all_pass()
          and not mismatched.bartlett_pass
          and abs(mismatched.bartlett_ratio - 4.0) <= 0.2 * 4.0)
    _check(8, "assumption checkers separate matched from mismatched noise",
           ok, f"matched pass {matched.all_pass()}, "
               f"mismatch ratio {mismatched.bartlett_ratio:.2f} (target 4)")


def test_criterion_9_determinism(tmp_path):
    cfg_obj = {"d": 4, "k": 2, "loss": "gaussian", "sigma": 0.1, "n": 800,
               "replications": 40, "seed": 99}
    cfg_path = os.path.join(str(tmp_path), "config.json")
    with open(cfg_path, "w") as fh:
        json.dump(cfg_obj, fh)
    outputs = []
    for threads, sub in ((1, "a"), (2, "b")):
        out_dir = os.path.join(str(tmp_path), sub)
        rc = cli_main(["verify-normality", "--config", cfg_path,
                       "--threads", str(threads), "--out-dir", out_dir])
        assert rc == 0
        with open(os.path.join(out_dir, "report.json"), "rb") as fh:
            report = fh.read()
        with open(os.path.join(out_dir, "z.csv"), "rb") as fh:
            zmat = fh.read()
        outputs.append((report, zmat))
    identical = (outputs[0][0] == outputs[1][0]
                 and outputs[0][1] == outputs[1][1])
    _check(9, "verify-normality output is byte-identical across thread counts",
           identical)
