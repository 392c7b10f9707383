"""Experiment orchestration: replication runs, normality and rate studies.

Every replicate draws its own RNG stream from (seed, tag, index), so results
are bit-identical for a fixed seed regardless of how many workers execute
them.  Under the Gaussian loss, noise and design (``gaussian`` or
``symmetric``, which draw the same half-vectorized design) with
n >= 4 d^2, a replicate draws a ``Dataset`` of p + 1 rows whose moments
and least-squares residual are those of n measurements
(``model.draw_statistics``); everywhere else it draws the n measurements
(``model.simulate``), which the Gaussian loss compresses to such p + 1
rows when the fit first reads them (``model.Dataset.compressed``).  A
run's records come back in columns (``ReplicationRecords``), read in index
order.  Pooled runs share the process's one worker pool, forked at the
first of them (``_pool``).
H* is exact and draws nothing; the normality report carries its condition
number.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np
from scipy.special import ndtr

from . import __version__, diagnostics, geometry, inference, model
from .errors import (ConfigurationError, DivergenceError, HarnessAbort,
                     InitializationError)
from .estimator import FitConfig, fit
from .jsonable import JsonFields
from .model import (BOUNDED_XMAX, DataGeneratingProcess, GaussianNLL,
                    Logistic, ProblemConstants)

VERSION_STRING = f"qsense-{__version__}"

# Stream tags keep the truth draw and each experiment's replicate streams
# disjoint.
_TRUTH_TAG = 7
_RUN_TAG = 1
_RATE_TAG_BASE = 100

LOSSES = ("gaussian", "logistic")


@dataclass
class ExperimentConfig:
    """Resolved settings for one experiment.  See README for the JSON schema."""

    d: int
    k: int
    loss: str = "gaussian"
    sigma: float = 0.1
    design: str = "gaussian"
    noise: str | None = None
    noise_sigma: float | None = None
    truth: list | None = None
    sigma_min: float = 0.8
    sigma_max: float = 1.2
    n: int | None = None
    n_grid: list | None = None
    replications: int = 200
    alpha: float = 0.05
    delta: float = 0.05
    seed: int = 0
    threads: int = 1
    grad_tol: float = 1e-6
    max_iters: int = 20000
    n_mc: int = 100_000
    debug_include_vertical: bool = False

    def validate(self):
        if not (1 <= self.k <= self.d):
            raise ConfigurationError("need d >= k >= 1")
        if self.loss not in LOSSES:
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if not (0.0 < self.alpha < 1.0) or not (0.0 < self.delta < 1.0):
            raise ConfigurationError("alpha and delta must lie in (0, 1)")
        if self.n_grid is not None:
            grid = list(self.n_grid)
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigurationError("n_grid must be strictly increasing")
        # below the quotient's dimension theta theta^T is not identified
        dim = geometry.horizontal_dim(self.d, self.k)
        for n in [self.n, *(self.n_grid or ())]:
            if n is not None and n < dim:
                raise ConfigurationError(
                    f"sample size {n} is below the quotient dimension {dim} "
                    f"of d={self.d}, k={self.k}")
        if self.loss == "gaussian":
            try:
                GaussianNLL(self.sigma)
            except ValueError as exc:
                raise ConfigurationError(str(exc)) from None
        for key, least in (("replications", 1), ("threads", 1), ("seed", 0),
                           ("n_mc", 2)):
            if getattr(self, key) < least:
                raise ConfigurationError(f"{key} must be >= {least}")
        if self.truth is None:
            # the random truth's singular values run from sigma_max down to
            # sigma_min, which k = 1 does not use
            if not self.sigma_max > 0.0:
                raise ConfigurationError("sigma_max must be > 0")
            if self.k > 1 and not 0.0 < self.sigma_min <= self.sigma_max:
                raise ConfigurationError("sigma_min must lie in (0, sigma_max]")
        return self

    @classmethod
    def from_dict(cls, obj):
        """Build a validated config from JSON values.

        Each value is checked against its field's declared type.  Integral
        floats and numeric strings are converted where that loses nothing;
        anything else raises ConfigurationError.
        """
        return cls(**checked_fields(cls, obj, "config")).validate()

    def to_dict(self):
        # threads is an execution parameter, not part of the experiment
        # identity; excluding it keeps reports byte-identical across worker
        # counts
        out = asdict(self)
        out.pop("threads")
        return out

    def resolved_noise(self):
        if self.noise is not None:
            return self.noise
        return "gaussian" if self.loss == "gaussian" else "bernoulli"

    def resolved_noise_sigma(self):
        return self.sigma if self.noise_sigma is None else self.noise_sigma

    def make_loss(self):
        return GaussianNLL(self.sigma) if self.loss == "gaussian" else Logistic()

    def make_dgp(self, theta_star, *tags):
        """The configured process around theta_star, on stream (seed, *tags)."""
        return DataGeneratingProcess(
            theta_star=theta_star, design=self.design,
            noise=self.resolved_noise(), sigma=self.resolved_noise_sigma(),
            seed=(self.seed, *tags))

    def fit_config(self, seed):
        """The configured optimizer settings; ``seed`` seeds a fallback start."""
        return FitConfig(grad_tol=self.grad_tol, max_iters=self.max_iters,
                         seed=seed)


def _convert(kind, value):
    """``value`` as ``kind`` where that loses nothing; raises otherwise.

    Numbers may come as numeric strings, and integers as integral floats;
    booleans are never numbers.
    """
    if isinstance(value, bool) != (kind is bool):
        raise TypeError
    if kind in (int, float):
        converted = kind(value)
        if (not isinstance(value, str) and converted != value) \
                or not math.isfinite(converted):
            raise ValueError
        return converted
    if not isinstance(value, kind):
        raise TypeError
    return value


_KINDS = {"int": int, "float": float, "str": str, "bool": bool, "list": list}


def coerce_field(key, declared, value, what):
    """Value of field ``key`` converted to its declared type."""
    base, _, optional = declared.partition(" | ")
    if value is None and optional == "None":
        return None
    try:
        value = _convert(_KINDS[base], value)
        if key == "n_grid":
            value = [_convert(int, v) for v in value]
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"{what} key {key!r} must be {declared}, got {value!r}") from None
    return value


def checked_fields(cls, obj, what):
    """Keyword arguments of dataclass ``cls`` from the JSON object ``obj``.

    Every key must be a field and every field without a default present;
    each value is converted to its field's declared type.  Any mismatch
    raises a ConfigurationError that names the key.
    """
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    types = {f.name: f.type for f in fields(cls)}
    unknown = set(obj) - set(types)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")
    for f in fields(cls):
        if f.default is MISSING and f.name not in obj:
            raise ConfigurationError(f"{what} requires key {f.name!r}")
    return {key: coerce_field(key, types[key], value, what)
            for key, value in obj.items()}


def make_truth(config):
    """Ground-truth factor: explicit, or seeded with the configured spectrum."""
    if config.truth is not None:
        try:
            theta = np.asarray(config.truth, dtype=float)
        except (TypeError, ValueError):
            theta = None
        if theta is None or theta.shape != (config.d, config.k) \
                or not np.all(np.isfinite(theta)):
            raise ConfigurationError(
                f"config key 'truth' must be a {config.d} x {config.k} "
                "matrix of finite numbers")
        return theta
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, _TRUTH_TAG)))
    Q, _ = np.linalg.qr(rng.standard_normal((config.d, config.k)))
    W, _ = np.linalg.qr(rng.standard_normal((config.k, config.k)))
    if config.k > 1:
        s = np.linspace(config.sigma_max, config.sigma_min, config.k)
    else:
        s = np.array([config.sigma_max])
    return Q @ np.diag(s) @ W.T


def constants_for(config, theta_star):
    """Conservative certificate constants implied by one experiment setup.

    Design entry bound: exact for the bounded design; a union-bound Gaussian
    envelope over every entry the experiment will draw otherwise.  Loss
    constants follow the analytic derivatives; values are clamped into the
    certificate conventions (>= 1 upstairs, (0, 1] downstairs), which only
    loosens the resulting bounds.
    """
    sv = np.linalg.svd(np.asarray(theta_star, float), compute_uv=False)
    smin, smax = float(sv[-1]), max(1.0, float(sv[0]))
    if config.design == "bounded":
        x_max = BOUNDED_XMAX
    else:
        total = (max(config.n_grid) if config.n_grid else (config.n or 1)) \
            * config.replications * config.d**2
        x_max = max(1.0, math.sqrt(2.0 * math.log(4.0 * total / config.delta)))
    if config.loss == "gaussian":
        noise_scale = config.resolved_noise_sigma()
        inv_var = 1.0 / config.sigma**2
        sigma_eps = max(1.0, noise_scale * inv_var)
        k_ell = max(1.0, inv_var)
        mu_max = max(1.0, inv_var)
        mu0 = min(1.0, inv_var)
    else:
        sigma_eps = 1.0
        k_ell = 1.0
        mu_max = 1.0
        # sigmoid curvature floor at a 3-sigma prediction magnitude
        z_hi = 3.0 * float(np.sum(sv**4)) ** 0.5
        s_hi = 1.0 / (1.0 + math.exp(-z_hi))
        mu0 = min(1.0, max(s_hi * (1.0 - s_hi), 1e-12))
    return ProblemConstants(d=config.d, k=config.k, X_max=x_max,
                            sigma_min=smin, sigma_max=smax,
                            sigma_eps=sigma_eps, mu_max=mu_max,
                            K_ell=k_ell, mu0=mu0, lambda0=1.0).validate()


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------

@dataclass
class RunContext:
    """Everything a replicate needs; a pooled run sends it with each task."""

    config: ExperimentConfig
    n: int
    stream_tag: int
    theta_star: np.ndarray
    basis: geometry.HorizontalBasis
    hstar: np.ndarray
    covariance: inference.CovarianceEstimate


@dataclass
class ReplicationRecord(JsonFields):
    index: int
    diverged: bool = False
    message: str = ""
    converged: bool = False
    iterations: int = 0
    grad_norm: float = float("nan")
    final_loss: float = float("nan")
    distance: float = float("nan")
    phi0: np.ndarray | None = None
    z: np.ndarray | None = None
    ci_hits: np.ndarray | None = None
    taylor_lhs: float = float("nan")
    taylor_remainder: float = float("nan")
    taylor_ratio: float = float("nan")


class ReplicationRecords:
    """The records of one run in columns, one array per record field.

    ``len()`` and iteration give ``ReplicationRecord`` rows in index order,
    so the store reads like the list of records it replaces, at a few
    hundred bytes per replicate.  The vector fields ``phi0``, ``z`` and
    ``ci_hits`` are (R, m) arrays whose diverged rows read None; ``message``
    is a list.
    """

    _SCALARS = {"index": int, "diverged": bool, "converged": bool,
                "iterations": int, "grad_norm": float, "final_loss": float,
                "distance": float, "taylor_lhs": float,
                "taylor_remainder": float, "taylor_ratio": float}
    _VECTORS = {"phi0": float, "z": float, "ci_hits": bool}

    def __init__(self, records, size, m):
        """Store ``size`` records, taken from the iterable ``records``."""
        for name, kind in self._SCALARS.items():
            setattr(self, name, np.empty(size, kind))
        for name, kind in self._VECTORS.items():
            setattr(self, name, np.zeros((size, m), kind))
        self.message = [""] * size
        for row, rec in enumerate(records):
            for name in self._SCALARS:
                getattr(self, name)[row] = getattr(rec, name)
            if not rec.diverged:
                for name in self._VECTORS:
                    getattr(self, name)[row] = getattr(rec, name)
            self.message[row] = rec.message

    def __len__(self):
        return len(self.message)

    def __iter__(self):
        columns = [getattr(self, name).tolist() for name in self._SCALARS]
        for row, values in enumerate(zip(*columns)):
            rec = ReplicationRecord(**dict(zip(self._SCALARS, values)),
                                    message=self.message[row])
            if not rec.diverged:
                for name in self._VECTORS:
                    setattr(rec, name, getattr(self, name)[row].copy())
            yield rec


def simulate(dgp, n, loss):
    """One replicate's data: the drawn (p + 1)-row design or the n samples.

    ``model.draw_statistics`` for the Gaussian loss, noise and design
    (``gaussian`` or ``symmetric``), the law that draw follows, with
    n >= 4 d^2; ``model.simulate`` otherwise.  The fit reads either the
    same way; the 4 d^2 rule only picks which way a replicate draws, and so
    which stream it reads.
    """
    if (dgp.design != "bounded" and dgp.noise == "gaussian"
            and isinstance(loss, GaussianNLL) and n >= 4 * dgp.d ** 2):
        return model.draw_statistics(dgp, n)
    return model.simulate(dgp, n)


def _replicate(ctx, r):
    loss = ctx.config.make_loss()
    dgp = ctx.config.make_dgp(ctx.theta_star, ctx.stream_tag, r)
    data = simulate(dgp, ctx.n, loss)
    try:
        res = fit(data, loss,
                  ctx.config.fit_config(ctx.config.seed * 1_000_003 + r))
    except (DivergenceError, InitializationError) as exc:
        return ReplicationRecord(index=r, diverged=True, message=str(exc))
    rep = inference.restricted_representation(data, ctx.theta_star,
                                              res.theta0, ctx.basis, loss)
    ci = inference.wald_intervals(rep.phi0, ctx.covariance, ctx.n,
                                  ctx.config.alpha, phi_star=rep.phi_star)
    try:
        taylor = diagnostics.taylor_residual_check(rep, res.sbar)
        t_lhs, t_rem = taylor.lhs, taylor.remainder
        t_ratio = float("nan") if taylor.ratio is None else taylor.ratio
    except geometry.OutOfInjectivityError:
        # beyond the radius the chord is no chart: z and coverage stand,
        # the expansion does not
        t_lhs = t_rem = t_ratio = float("nan")
    return ReplicationRecord(
        index=r, converged=res.converged, iterations=res.iterations,
        grad_norm=res.grad_norm, final_loss=res.final_loss,
        distance=rep.distance, phi0=rep.phi0, z=ci.standardized,
        ci_hits=ci.covers, taylor_lhs=t_lhs, taylor_remainder=t_rem,
        taylor_ratio=t_ratio)


def _with_debug_vertical(basis):
    """Append a normalized vertical direction to the basis (debug only)."""
    theta = basis.anchor
    k = theta.shape[1]
    if k < 2:
        raise ConfigurationError(
            "debug vertical direction needs k >= 2 (no rotation freedom)")
    A = geometry.skew_basis(k)[0]
    vert = theta @ A
    vert = vert / np.linalg.norm(vert)
    elements = np.concatenate([basis.elements, vert[None]], axis=0)
    return geometry.HorizontalBasis(anchor=theta, elements=elements,
                                    tag=basis.tag + "+vertical")


def build_context(config, n, stream_tag=_RUN_TAG):
    """Shared per-experiment state: truth, basis, H* and its covariance."""
    config.validate()
    theta_star = make_truth(config)
    basis = geometry.horizontal_basis(theta_star)
    if config.debug_include_vertical:
        basis = _with_debug_vertical(basis)
    hstar = inference.restricted_population_hessian(
        config.make_dgp(theta_star), theta_star, basis, config.make_loss())
    return RunContext(config=config, n=n, stream_tag=stream_tag,
                      theta_star=theta_star, basis=basis, hstar=hstar,
                      # raises DegenerateHessianError if a vertical
                      # direction leaked in
                      covariance=inference.asymptotic_covariance(hstar))


# Thread-count entry points of OpenBLAS, "%s" standing for set or get: the
# symbol-prefixed builds numpy and scipy bundle (64- and 32-bit integer
# interfaces), then system builds.
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_%s_num_threads64_",
                        "scipy_openblas_%s_num_threads",
                        "openblas_%s_num_threads64_",
                        "openblas_%s_num_threads")


@functools.cache
def _blas_thread_controls():
    """(set, get) thread-count functions of every OpenBLAS already loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SYMBOLS:
            if hasattr(lib, name % "set") and hasattr(lib, name % "get"):
                set_threads, get_threads = lib[name % "set"], lib[name % "get"]
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                controls.append((set_threads, get_threads))
                break
    return tuple(controls)


@contextmanager
def single_threaded_blas():
    """Run the block with one BLAS thread, then restore the previous count.

    Replicates run many small BLAS calls; forked workers inherit the
    setting, so a pool of them does not oversubscribe the CPUs, and serial
    and pooled runs sum in the same order.  Does nothing where no OpenBLAS
    entry point is found.
    """
    controls = _blas_thread_controls()
    saved = [get() for _, get in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, saved):
            set_threads(count)


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


# The process's worker pool as (size, executor), kept across pooled runs.
_POOL = None


def _drop_pool():
    """Shut the kept pool down; the next pooled run forks a fresh one."""
    global _POOL
    if _POOL is not None:
        _POOL[1].shutdown()
        _POOL = None


def _pool(workers):
    """The kept pool of ``workers`` processes, replacing one of another size.

    A fork pool starts every worker at its first submit, so that submit
    must come with one BLAS thread, and the workers see the modules as they
    were then.  The old pool is shut down before the new one forks, so no
    fork happens while its manager thread runs.  Not thread-safe: call
    from one thread.
    """
    global _POOL
    if _POOL is not None and _POOL[0] != workers:
        _drop_pool()
    if _POOL is None:
        _POOL = (workers, ProcessPoolExecutor(max_workers=workers))
    return _POOL[1]


def run_replications(config, n=None, stream_tag=_RUN_TAG):
    """Fit ``config.replications`` simulated datasets and record each result.

    Returns (``ReplicationRecords``, ``RunContext``).  Records are
    bit-identical across thread counts for a fixed seed: the replicates run
    with single-threaded BLAS, serial or pooled.  A pooled run (threads > 1
    and more than one replicate) uses the process's kept pool, with at most
    one worker per replicate and per usable CPU, and sends the context with
    each chunk of replicates; a worker crash drops the pool and raises
    BrokenProcessPool.  More than 20% divergent replicates aborts the run.
    """
    if n is None:
        if config.n is None:
            raise ConfigurationError("config.n is required")
        n = config.n
    context = build_context(config, n, stream_tag)
    R = config.replications
    replicate = functools.partial(_replicate, context)
    with single_threaded_blas():
        try:
            if config.threads > 1 and R > 1:
                workers = min(config.threads, R, _usable_cpus())
                results = _pool(workers).map(
                    replicate, range(R), chunksize=max(1, R // (workers * 4)))
            else:
                results = map(replicate, range(R))
            records = ReplicationRecords(results, R, context.basis.m)
        except BrokenProcessPool:
            _drop_pool()
            raise
    n_div = int(records.diverged.sum())
    if n_div > 0.2 * R:
        raise HarnessAbort(
            f"{n_div}/{R} replicates diverged; check the configuration "
            "(loss scale, design, optimizer budget)")
    return records, context


# ---------------------------------------------------------------------------
# Normality experiment
# ---------------------------------------------------------------------------

@dataclass
class NormalityReport(JsonFields):
    n: int
    replications: int
    excluded: int
    # largest over smallest eigenvalue of H*
    hstar_condition_number: float
    coordinate_means: np.ndarray
    coordinate_variances: np.ndarray
    covariance: np.ndarray
    covariance_rel_error: float
    coverage_per_coordinate: np.ndarray
    coverage_rate: float
    ks_distances: np.ndarray
    max_ks_distance: float
    median_distance: float
    max_distance: float
    z_matrix: np.ndarray = field(repr=False, default=None)


def ks_distances(Z):
    """One-sample Kolmogorov-Smirnov distance of each column of Z from N(0, 1).

    One sort of Z: with F the normal CDF of the sorted column, the distance
    is the larger of max(i / R - F_i) and max(F_i - (i - 1) / R),
    i = 1 ... R.
    """
    R = Z.shape[0]
    F = ndtr(np.sort(Z, axis=0))
    i = np.arange(1.0, R + 1.0)[:, None]
    return np.maximum((i / R - F).max(axis=0), (F - (i - 1.0) / R).max(axis=0))


def normality_experiment(config):
    """Check that whitened coordinate errors behave like standard normals."""
    if config.n is None:
        raise ConfigurationError("normality experiment requires config.n")
    if config.replications < 2:
        # the variances and covariance of z divide by replications - 1
        raise ConfigurationError(
            "normality experiment requires replications >= 2")
    records, context = run_replications(config)
    good = ~records.diverged
    # the records' block itself when nothing diverged: no copy per run
    Z = records.z if good.all() else records.z[good]
    hits = records.ci_hits[good]
    distances = records.distance[good]
    m = Z.shape[1]
    cov = np.cov(Z, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    rel_err = float(np.linalg.norm(cov - np.eye(m)) / math.sqrt(m))
    ks = ks_distances(Z)
    coverage = hits.mean(axis=0)
    return NormalityReport(
        n=context.n, replications=config.replications,
        excluded=len(records) - Z.shape[0],
        hstar_condition_number=context.covariance.condition_number,
        coordinate_means=Z.mean(axis=0),
        coordinate_variances=Z.var(axis=0, ddof=1),
        covariance=cov, covariance_rel_error=rel_err,
        coverage_per_coordinate=coverage,
        coverage_rate=float(coverage.mean()),
        ks_distances=ks, max_ks_distance=float(ks.max()),
        median_distance=float(np.median(distances)),
        max_distance=float(np.max(distances)),
        z_matrix=Z)


# ---------------------------------------------------------------------------
# Rate experiment
# ---------------------------------------------------------------------------

@dataclass
class RateReport(JsonFields):
    n_grid: list
    medians: np.ndarray
    q25: np.ndarray
    q75: np.ndarray
    slope: float | None
    intercept: float | None
    bound_values: np.ndarray
    floor_limited: bool
    excluded: list


def rate_experiment(config):
    """Median quotient distance against n, with the certificate overlay."""
    if config.n_grid is None or len(config.n_grid) < 4:
        raise ConfigurationError("rate experiment needs an n_grid of >= 4 points")
    grid = [int(n) for n in config.n_grid]
    if grid[-1] < 16 * grid[0]:
        raise ConfigurationError("n_grid must span at least a factor of 16")
    medians, q25, q75, excluded = [], [], [], []
    theta_star = make_truth(config)
    for i, n in enumerate(grid):
        records, _ = run_replications(config, n=n,
                                      stream_tag=_RATE_TAG_BASE + i)
        dist = records.distance[~records.diverged]
        excluded.append(config.replications - dist.size)
        medians.append(float(np.median(dist)))
        q25.append(float(np.percentile(dist, 25)))
        q75.append(float(np.percentile(dist, 75)))
    medians = np.array(medians)
    floor = (config.resolved_noise() == "gaussian"
             and config.resolved_noise_sigma() == 0.0) \
        or bool(np.all(medians < 1e-6))
    # floor-limited medians are rounding noise (or exactly 0): no rate to fit
    slope = intercept = None
    if not floor:
        slope, intercept = map(float, np.polyfit(np.log(grid),
                                                 np.log(medians), 1))
    certificate = diagnostics.theory_constants(
        constants_for(config, theta_star), config.delta)
    bounds = np.array([certificate.rate_bound(n) for n in grid])
    return RateReport(n_grid=grid, medians=medians, q25=np.array(q25),
                      q75=np.array(q75), slope=slope, intercept=intercept,
                      bound_values=bounds, floor_limited=floor,
                      excluded=excluded)


# ---------------------------------------------------------------------------
# Deterministic serialization helpers
# ---------------------------------------------------------------------------

def report_envelope(config, report_dict):
    return {"version": VERSION_STRING, "config": config.to_dict(),
            "report": report_dict}


def json_text(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def matrix_csv(header, matrix):
    """CSV with a header row and shortest-round-trip float formatting."""
    lines = [",".join(header)]
    for row in np.atleast_2d(matrix):
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def default_threads():
    env = os.environ.get("QSENSE_THREADS")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ConfigurationError("QSENSE_THREADS must be an integer")
    return 1
