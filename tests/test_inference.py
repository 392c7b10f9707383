import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsense as q
from qsense.errors import DegenerateHessianError
from qsense.geometry import newton_basis
from qsense.inference import _restricted_terms, per_sample_scores
from qsense.model import (StackRoute, euclidean_gradient, pair_coordinates,
                          predictions)

from helpers import random_instance, random_orthogonal, random_theta, rel_err


def _dgp(theta, seed=0, design="gaussian", noise="gaussian", sigma=1.0):
    return q.DataGeneratingProcess(theta_star=theta, design=design,
                                   noise=noise, sigma=sigma, seed=seed)


# ---------------------------------------------------------------------------
# representation
# ---------------------------------------------------------------------------

def test_represent_basis_element_gives_unit_vector():
    rng = np.random.default_rng(0)
    basis = q.horizontal_basis(random_theta(rng, 4, 2))
    for j in (0, basis.m - 1):
        e = q.represent(basis.elements[j], basis)
        expected = np.zeros(basis.m)
        expected[j] = 1.0
        assert np.allclose(e, expected, atol=1e-12)


def test_represent_vertical_is_zero():
    rng = np.random.default_rng(1)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    Z = theta @ q.skew_basis(2)[0]
    assert np.max(np.abs(q.represent(Z, basis))) < 1e-10


def test_represent_reconstruction_is_horizontal_projection():
    rng = np.random.default_rng(2)
    theta = random_theta(rng, 5, 2)
    basis = q.horizontal_basis(theta)
    M = rng.standard_normal((5, 2))
    rec = np.einsum("m,mik->ik", q.represent(M, basis), basis.elements)
    assert np.linalg.norm(rec - q.horizontal_project(theta, M)) < 1e-9


# ---------------------------------------------------------------------------
# restricted score
# ---------------------------------------------------------------------------

def test_restricted_score_zero_for_noiseless():
    rng = np.random.default_rng(3)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, sigma=0.0), 30)
    basis = q.horizontal_basis(theta)
    g = q.represent(euclidean_gradient(data, theta, q.GaussianNLL(1.0)), basis)
    assert np.max(np.abs(g)) < 1e-12


def test_restricted_score_single_sample_linearity():
    rng = np.random.default_rng(4)
    theta = random_theta(rng, 3, 2)
    data = q.simulate(_dgp(theta, seed=5), 1)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    g = q.represent(euclidean_gradient(data, theta, loss), basis)
    z = predictions(data, theta)[0]
    ell1 = float(loss.d1(z, data.y[0]))
    manual = ell1 * q.represent((data.X[0] + data.X[0].T) @ theta, basis)
    assert np.allclose(g, manual, atol=1e-12)


def test_restricted_score_mean_vanishes_over_fresh_samples():
    rng = np.random.default_rng(5)
    theta = random_theta(rng, 3, 2)
    data = q.simulate(_dgp(theta, seed=6), 100_000)
    basis = q.horizontal_basis(theta)
    G = per_sample_scores(data, theta, basis, q.GaussianNLL(1.0))
    mean = G.mean(axis=0)
    se = G.std(axis=0, ddof=1) / math.sqrt(G.shape[0])
    assert np.all(np.abs(mean) <= 4.0 * se)


# ---------------------------------------------------------------------------
# restricted curvature
# ---------------------------------------------------------------------------

def test_restricted_population_hessian_closed_form_entries():
    rng = np.random.default_rng(6)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    H = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
    for i in range(basis.m):
        for j in range(i, basis.m):
            Ci = theta @ basis.elements[i].T + basis.elements[i] @ theta.T
            Cj = theta @ basis.elements[j].T + basis.elements[j] @ theta.T
            assert H[i, j] == pytest.approx(float(np.sum(Ci * Cj)), rel=1e-12)


def test_population_hessian_consistent_with_design_second_moments():
    # independent route: entries of the population curvature are quadratic
    # forms of the exact design second-moment matrix (the identity for
    # entrywise-iid designs), contracted against the pair maps
    rng = np.random.default_rng(61)
    theta = random_theta(rng, 3, 2)
    basis = q.horizontal_basis(theta)
    d = 3
    form = np.eye(d * d)
    H_alt = np.zeros((basis.m, basis.m))
    for i in range(basis.m):
        Ci = (theta @ basis.elements[i].T + basis.elements[i] @ theta.T).ravel()
        for j in range(basis.m):
            Cj = (theta @ basis.elements[j].T
                  + basis.elements[j] @ theta.T).ravel()
            H_alt[i, j] = Ci @ form @ Cj
    H = q.restricted_population_hessian(_dgp(theta), theta, basis,
                                        q.GaussianNLL(1.0))
    assert np.allclose(H, H_alt, atol=1e-10)


def test_restricted_population_hessian_min_eigenvalue_bound():
    rng = np.random.default_rng(7)
    theta = random_theta(rng, 5, 2, smin=0.7, smax=1.4)
    basis = q.horizontal_basis(theta)
    H = q.restricted_population_hessian(_dgp(theta), theta, basis,
                                        q.GaussianNLL(1.0))
    smin = q.injectivity_radius(theta)
    assert np.linalg.eigvalsh(H)[0] >= 2.0 * smin**2 - 1e-10


def test_restricted_hessian_converges_to_population():
    rng = np.random.default_rng(8)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    Hstar = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
    data = q.simulate(_dgp(theta, seed=9), 100_000)
    H0 = q.restricted_hessian(data, theta, basis, loss)
    assert rel_err(Hstar, H0) <= 0.05


def test_restricted_hessian_error_decreases_with_n():
    rng = np.random.default_rng(10)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    Hstar = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
    errs = {n: [] for n in (1_000, 10_000, 100_000)}
    for seed in range(20):
        for n in errs:
            data = q.simulate(_dgp(theta, seed=(100 + seed)), n)
            H0 = q.restricted_hessian(data, theta, basis, loss)
            errs[n].append(rel_err(Hstar, H0))
    medians = [np.median(errs[n]) for n in sorted(errs)]
    assert medians[0] > medians[1] > medians[2]


def test_bartlett_second_identity_for_matched_model():
    rng = np.random.default_rng(11)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    loss = q.GaussianNLL(1.0)
    data = q.simulate(_dgp(theta, seed=12), 100_000)
    G = per_sample_scores(data, theta, basis, loss)
    centered = G - G.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / G.shape[0]
    Hstar = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
    assert rel_err(Hstar, cov) <= 0.1


# ---------------------------------------------------------------------------
# covariance, standardization, intervals
# ---------------------------------------------------------------------------

def test_asymptotic_covariance_scalar_multiples():
    out = q.asymptotic_covariance(2.0 * np.eye(3))
    assert np.allclose(out.inverse_hessian, 0.5 * np.eye(3))
    out = q.asymptotic_covariance(np.diag([1.0, 2.0, 4.0]))
    assert np.allclose(out.inverse_hessian, np.diag([1.0, 0.5, 0.25]))
    assert out.condition_number == pytest.approx(4.0)


def test_asymptotic_covariance_inverse_residual():
    rng = np.random.default_rng(13)
    for _ in range(5):
        A = rng.standard_normal((6, 6))
        H = A @ A.T + 0.5 * np.eye(6)
        out = q.asymptotic_covariance(H)
        residual = np.linalg.norm(H @ out.inverse_hessian - np.eye(6))
        assert residual <= 1e-10 * np.linalg.norm(H)


def test_asymptotic_covariance_rejects_singular():
    H = np.diag([1.0, 1e-13])
    with pytest.raises(DegenerateHessianError) as err:
        q.asymptotic_covariance(H)
    assert "rotation-invariant" in str(err.value)


def test_confidence_report_serializes():
    report = q.wald_intervals(np.zeros(3), q.asymptotic_covariance(np.eye(3)),
                              100, 0.05, phi_star=np.array([0.0, 0.1, 5.0]))
    blob = report.to_json_dict()
    assert blob["level"] == 0.95
    assert len(blob["lower"]) == 3
    assert blob["covers"] == [True, True, False]
    assert len(blob["standardized"]) == 3


def test_standardize_zero_difference():
    rng = np.random.default_rng(16)
    H = np.eye(4) * 3.0
    phi = rng.standard_normal(4)
    z = q.wald_intervals(phi, q.asymptotic_covariance(H), 50, 0.05,
                         phi_star=phi).standardized
    assert np.allclose(z, 0.0)


def test_standardize_identity_curvature():
    phi0 = np.array([1.0, 2.0])
    phi_star = np.array([0.5, 1.5])
    z = q.wald_intervals(phi0, q.asymptotic_covariance(np.eye(2)), 4, 0.05,
                         phi_star=phi_star).standardized
    assert np.allclose(z, 2.0 * (phi0 - phi_star))


def test_covariance_root_squares_back():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 5))
    H = A @ A.T + np.eye(5)
    R = q.asymptotic_covariance(H).root
    assert np.allclose(R @ R, H, atol=1e-10)


def test_wald_half_width_frozen_quantile():
    # alpha = 0.05, identity covariance, n = 100: half width = 1.95996.. / 10
    report = q.wald_intervals(np.zeros(3), q.asymptotic_covariance(np.eye(3)),
                              100, 0.05)
    assert np.all(np.abs(report.half_width - 0.19600) < 1e-3)
    assert report.z_crit == pytest.approx(1.959964, abs=1e-6)


def test_wald_half_width_shrinks_as_alpha_grows():
    cov = q.asymptotic_covariance(np.eye(2))
    report = q.wald_intervals(np.zeros(2), cov, 100, 1.0 - 1e-12)
    assert np.all(report.half_width < 1e-6)
    with pytest.raises(ValueError):
        q.wald_intervals(np.zeros(2), cov, 100, 1.5)


def test_wald_coverage_indicator():
    phi0 = np.array([0.0, 1.0])
    phi_star = np.array([0.05, 3.0])
    report = q.wald_intervals(phi0, q.asymptotic_covariance(np.eye(2)), 100,
                              0.05, phi_star=phi_star)
    assert report.covers.tolist() == [True, False]
    assert report.standardized is not None


# ---------------------------------------------------------------------------
# degeneracy witness and basis covariance
# ---------------------------------------------------------------------------

def test_population_curvature_vertical_degeneracy_witness():
    rng = np.random.default_rng(18)
    theta = random_theta(rng, 4, 3)
    loss = q.GaussianNLL(1.0)
    for A in q.skew_basis(3):
        Z = theta @ A
        val = q.population_curvature(_dgp(theta), theta, np.stack([Z, Z]),
                                     loss)[0, 1]
        assert abs(val) < 1e-10


def test_standardized_norm_is_basis_invariant():
    # two deterministic constructions span the same horizontal space, so the
    # whitened error norm must agree
    rng = np.random.default_rng(19)
    theta = random_theta(rng, 5, 2)
    theta0 = theta + 0.05 * rng.standard_normal((5, 2))
    loss = q.GaussianNLL(1.0)
    norms = []
    for basis in (q.horizontal_basis(theta),
                  q.HorizontalBasis(anchor=theta, elements=newton_basis(theta),
                                    tag="newton")):
        H = q.restricted_population_hessian(_dgp(theta), theta, basis, loss)
        phi0 = q.represent(theta0, basis)
        phi_star = q.represent(theta, basis)
        z = q.wald_intervals(phi0, q.asymptotic_covariance(H), 400, 0.05,
                             phi_star=phi_star).standardized
        norms.append(np.linalg.norm(z))
    assert norms[0] == pytest.approx(norms[1], abs=1e-8)


# ---------------------------------------------------------------------------
# bundled representation
# ---------------------------------------------------------------------------

def test_restricted_representation_bundle():
    rng = np.random.default_rng(40)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=41, sigma=0.3), 300)
    loss = q.GaussianNLL(0.3)
    basis = q.horizontal_basis(theta)
    theta0 = theta + 0.05 * rng.standard_normal((4, 2))
    rep = q.restricted_representation(data, theta, theta0, basis, loss)
    assert rep.phi_star.shape == (basis.m,)
    assert rep.hessian.shape == (basis.m, basis.m)
    assert np.max(np.abs(rep.hessian - rep.hessian.T)) < 1e-10
    # phi0 is alignment-first: recompute without the chord shortcut
    U = q.align(theta0, theta).rotation
    rotated_direct = q.represent(theta0 @ U, basis)
    assert np.allclose(rep.phi0, rotated_direct, atol=1e-10)
    blob = rep.to_json_dict()
    assert blob["basis_tag"] == "lex"
    assert len(blob["basis_anchor_hash"]) == 16
    assert blob["phi0"] == rep.phi0.tolist()
    assert "population_hessian" not in blob
    assert "chord" not in blob and "distance" not in blob
    assert rep.distance == pytest.approx(np.linalg.norm(rep.chord), rel=1e-12)
    with pytest.raises(ValueError):
        q.restricted_representation(data, 2.0 * theta, theta0, basis, loss)


def test_restricted_representation_orbit_independent():
    rng = np.random.default_rng(42)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=43, sigma=0.3), 200)
    loss = q.GaussianNLL(0.3)
    basis = q.horizontal_basis(theta)
    theta0 = theta + 0.05 * rng.standard_normal((4, 2))
    U = random_orthogonal(rng, 2)
    a = q.restricted_representation(data, theta, theta0, basis, loss)
    b = q.restricted_representation(data, theta, theta0 @ U, basis, loss)
    assert np.allclose(a.phi0, b.phi0, atol=1e-10)


def test_representation_json_and_hessian_on_demand():
    rng = np.random.default_rng(44)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=45, sigma=0.3), 200)
    loss = q.GaussianNLL(0.3)
    basis = q.horizontal_basis(theta)
    theta0 = theta + 0.05 * rng.standard_normal((4, 2))
    rep = q.restricted_representation(data, theta, theta0, basis, loss)
    # the curvature is built only when read
    assert "hessian" not in vars(rep)
    H = q.restricted_hessian(data, theta, basis, loss)
    assert np.array_equal(rep.hessian, H)
    assert rep.hessian is rep.hessian
    # the serialized layout of a representation that stored its curvature
    blob = rep.to_json_dict()
    assert list(blob) == ["basis_tag", "basis_anchor_hash", "phi_star",
                          "phi0", "score", "hessian"]
    assert blob["hessian"] == H.tolist()
    # the score against an independent route: the represented gradient
    g = q.represent(euclidean_gradient(data, theta, loss), basis)
    assert np.allclose(blob["score"], g, rtol=0.0, atol=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000),
       loss_kind=st.sampled_from(["gaussian", "logistic"]))
def test_score_and_curvature_product_match_the_full_curvature(seed, loss_kind):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    k = int(rng.integers(1, min(d, 3) + 1))
    data, theta, loss = random_instance(rng, d, k, int(rng.integers(20, 60)),
                                        loss_kind)
    basis = q.horizontal_basis(theta)
    U = random_orthogonal(rng, k)
    theta0 = theta + 0.1 * rng.standard_normal((d, k))
    v = rng.standard_normal(basis.m)
    reps = []
    # at the anchor and at the anchor rotated by U, in the pushed-forward basis
    for anchor, b in ((theta, basis), (theta @ U, q.rotate_basis(basis, U))):
        rep = q.restricted_representation(data, anchor, theta0, b, loss)
        g, H = _restricted_terms(StackRoute(data, loss), anchor, b.elements)
        # an independent form of the score: A^T ell' / n
        A = pair_coordinates(data.U, anchor, b.elements)
        d1 = loss.d1(predictions(data, anchor), data.y)
        g_tol = 1e-12 * np.linalg.norm(A) * np.linalg.norm(d1) / data.n
        assert np.linalg.norm(rep.score - A.T @ d1 / data.n) <= g_tol
        assert np.linalg.norm(rep.score - g) <= g_tol
        for w in (v, q.represent(rep.chord, b)):
            assert (np.linalg.norm(rep.curvature_times(w) - H @ w)
                    <= 1e-12 * np.linalg.norm(H) * np.linalg.norm(w))
        reps.append(rep)
    scale = np.linalg.norm(reps[0].hessian) * np.linalg.norm(v)
    assert np.allclose(reps[0].score, reps[1].score, rtol=0, atol=1e-10)
    assert np.allclose(reps[0].curvature_times(v), reps[1].curvature_times(v),
                       rtol=0, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# invariance audit
# ---------------------------------------------------------------------------

def test_invariance_audit_identity_rotation():
    rng = np.random.default_rng(20)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=21), 1)
    audit = q.invariance_audit(theta, np.eye(2), (data.X[0], data.y[0]),
                               q.GaussianNLL(1.0))
    assert audit.max_discrepancy == 0.0


def test_invariance_audit_random_rotations():
    rng = np.random.default_rng(22)
    theta = random_theta(rng, 4, 2)
    data = q.simulate(_dgp(theta, seed=23), 1)
    for _ in range(10):
        U = random_orthogonal(rng, 2)
        audit = q.invariance_audit(theta, U, (data.X[0], data.y[0]),
                                   q.Logistic() if rng.random() < 0.5
                                   else q.GaussianNLL(1.0))
        assert audit.max_discrepancy <= 1e-9


def test_invariance_audit_sign_flip_k1():
    rng = np.random.default_rng(24)
    theta = random_theta(rng, 3, 1)
    data = q.simulate(_dgp(theta, seed=25), 1)
    audit = q.invariance_audit(theta, np.array([[-1.0]]), (data.X[0], data.y[0]),
                               q.GaussianNLL(1.0))
    assert audit.max_discrepancy <= 1e-12


def test_basis_anchor_hash_is_stable_across_processes():
    script = (
        "import numpy as np, qsense as q\n"
        "theta = np.arange(8.0).reshape(4, 2) / 7.0 + np.eye(4, 2)\n"
        "data = q.simulate(q.DataGeneratingProcess(theta_star=theta), 20)\n"
        "rep = q.restricted_representation(data, theta, theta,\n"
        "    q.horizontal_basis(theta), q.GaussianNLL(1.0))\n"
        "print(rep.to_json_dict()['basis_anchor_hash'])\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(q.__file__)))
    digests = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.add(out.stdout.strip())
    assert len(digests) == 1
    assert len(digests.pop()) == 16


@pytest.mark.parametrize("design, loss", [("gaussian", q.GaussianNLL(1.0)),
                                          ("bounded", q.Logistic())],
                         ids=["gaussian", "bounded-logistic"])
def test_population_curvature_wrappers_agree(design, loss):
    rng = np.random.default_rng(70)
    theta = random_theta(rng, 4, 2)
    basis = q.horizontal_basis(theta)
    dgp = _dgp(theta, seed=71, design=design)
    H = q.restricted_population_hessian(dgp, theta, basis, loss)
    E = basis.elements
    for i, j in ((0, 0), (0, 3), (5, 2)):
        value = q.population_curvature(dgp, theta, np.stack([E[i], E[j]]),
                                       loss)
        assert value[0, 1] == pytest.approx(H[i, j], rel=1e-12, abs=1e-12)
