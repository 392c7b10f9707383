"""The benchmark's workloads and the correctness gate each run must pass.

Every workload is d=6, k=2 with the Gaussian design, as in acceptance
criteria 5 and 6.  Replicate counts are smaller than the acceptance runs so
that one run repeats the experiment many times.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from qsense.harness import ExperimentConfig, normality_experiment, rate_experiment

# Consecutive experiments of one run use seeds seed, seed + STRIDE, ... so
# each one builds a fresh truth and population curvature, and runs started
# from nearby seeds share no experiment.
SEED_STRIDE = 100_003

# False-alarm budget of one run's normality gate, split evenly over its three
# statistics.  Criterion 5's fixed thresholds (coverage 0.93-0.97, KS 0.06)
# would fail about 5% of runs at seeds other than 2024 even if the estimator
# were exactly normal, and the benchmark is run at many seeds.
GATE_FALSE_ALARM = 1e-4

RATE_SLOPE_RANGE = (-0.6, -0.4)  # criterion 6


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "normality" or "rate"
    seed: int            # acceptance seed, the default --seed
    replications: int
    settings: dict
    cpus: int | None = None  # CPUs the run is pinned to; None inherits them

    def config(self, seed, replications=None, threads=None):
        settings = dict(self.settings)
        if threads is not None:
            settings["threads"] = threads
        return ExperimentConfig(
            d=6, k=2, design="gaussian", seed=seed,
            replications=replications or self.replications, **settings)

    def run(self, config):
        if self.kind == "normality":
            return normality_experiment(config)
        return rate_experiment(config)

    def gate(self, reports, alpha):
        """(passed, details) for the reports of one run."""
        if self.kind == "normality":
            return normality_gate(reports, alpha)
        results = [rate_gate(r) for r in reports]
        return all(ok for ok, _ in results), [d for _, d in results]

    def replicates(self, config):
        """Replicates one experiment attempts."""
        grid = config.n_grid or [config.n]
        return config.replications * len(grid)


WORKLOADS = {w.name: w for w in (
    Workload("normality-gaussian", "normality", 2024, 100,
             dict(loss="gaussian", sigma=0.1, n=8000, threads=2)),
    Workload("normality-logistic", "normality", 2024, 12,
             dict(loss="logistic", n=16000, threads=2)),
    # One CPU: BLAS sizes its thread pool from the CPUs it may run on, and a
    # second BLAS thread gains this serial workload nothing but spins, so a
    # neighbour on either core nearly doubled its times.
    Workload("rate-sweep", "rate", 7, 20,
             dict(loss="gaussian", sigma=0.1, threads=1,
                  n_grid=[512, 1024, 2048, 4096, 8192, 16384]),
             cpus=1),
)}


def normality_thresholds(R, m, alpha):
    """Gate thresholds for R pooled replicates of m whitened coordinates.

    With a = GATE_FALSE_ALARM / 3 per statistic: each coordinate's coverage
    count lies in the central interval of Binomial(R, 1 - alpha) holding
    1 - a/m of its mass; each coordinate's KS distance is below the
    (1 - a/m) quantile of the exact one-sample KS distribution for R draws;
    and the covariance error ||C - I||_F / sqrt(m) is below its asymptotic
    (1 - a) quantile, from (R - 1) ||C - I||_F^2 -> 2 chi^2 with m(m+1)/2
    degrees of freedom.  At R = 1000, m = 11 the last gives 0.149, about
    criterion 5's 0.15.
    """
    a = GATE_FALSE_ALARM / 3
    p = 1.0 - alpha
    q = stats.chi2.isf(a, m * (m + 1) // 2)
    return {
        "coverage_min": float(stats.binom.ppf(a / (2 * m), R, p)) / R,
        "coverage_max": float(stats.binom.isf(a / (2 * m), R, p)) / R,
        "ks_max": float(stats.kstwo.isf(a / m, R)),
        "covariance_rel_error_max": math.sqrt(2.0 * q / (m * (R - 1))),
    }


def normality_gate(reports, alpha):
    """(passed, details): criterion 5's statistics over the pooled replicates.

    Under the theory every whitened error is an independent N(0, I) draw,
    whatever the experiment's seed, so one run's experiments pool into one
    sample and the gate is evaluated once per run.
    """
    Z = np.vstack([r.z_matrix for r in reports])
    R, m = Z.shape
    hits = sum(np.rint(r.coverage_per_coordinate * (r.replications - r.excluded))
               for r in reports)
    cover = hits / R
    cov = np.atleast_2d(np.cov(Z, rowvar=False, ddof=1))
    rel_err = float(np.linalg.norm(cov - np.eye(m)) / math.sqrt(m))
    ks = max(stats.kstest(Z[:, j], "norm").statistic for j in range(m))
    limits = normality_thresholds(R, m, alpha)
    checks = {
        "coverage": bool(np.all((cover >= limits["coverage_min"])
                                & (cover <= limits["coverage_max"]))),
        "ks": bool(ks <= limits["ks_max"]),
        "covariance": bool(rel_err <= limits["covariance_rel_error_max"]),
        "finite": bool(np.all(np.isfinite(Z))),
    }
    details = dict(limits, replicates=R, coverage_rate=float(cover.mean()),
                   coverage_range=[float(cover.min()), float(cover.max())],
                   max_ks_distance=float(ks), covariance_rel_error=rel_err,
                   checks=checks)
    return all(checks.values()), details


def rate_gate(report):
    """(passed, details) for a RateReport: the criterion-6 checks."""
    lo, hi = RATE_SLOPE_RANGE
    checks = {
        "slope": lo <= report.slope <= hi,
        "below_certificate": bool(np.all(report.medians <= report.bound_values)),
    }
    return all(checks.values()), {"slope": report.slope, "checks": checks}
