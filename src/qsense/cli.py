"""Command-line harness.

Subcommands: simulate, fit, verify-normality, rate-sweep, check-assumptions,
certificate, invariance-audit.  Exit codes: 0 success, 1 usage/validation
error, 2 numerical abort or a crashed worker process.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures.process import BrokenProcessPool

import numpy as np

from . import diagnostics, geometry, harness, inference
from .errors import (ConfigurationError, DegenerateFactorError,
                     DegenerateHessianError, DivergenceError, HarnessAbort,
                     InitializationError, OutOfInjectivityError)
from .estimator import fit
from .model import Dataset, ProblemConstants, simulate

# caught before ValueError, of which LinAlgError is a subclass
_NUMERICAL_ERRORS = (DivergenceError, DegenerateHessianError, HarnessAbort,
                     OutOfInjectivityError, InitializationError,
                     DegenerateFactorError, np.linalg.LinAlgError,
                     FloatingPointError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(p):
    p.add_argument("--config", required=True,
                   help="path to a JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--out-dir", default=".",
                   help="output directory (default .)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (falls back to QSENSE_THREADS)")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _experiment_config(args):
    obj = _load_json(args.config)
    config = harness.ExperimentConfig.from_dict(obj)
    if args.seed is not None:
        config.seed = args.seed
    if args.threads is not None:
        config.threads = args.threads
    elif "threads" not in obj:
        config.threads = harness.default_threads()
    # the flag and QSENSE_THREADS obey the config key's bounds
    return config.validate()


def _write(args, name, text):
    """Write ``text`` to ``name`` under --out-dir and print the path."""
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    print(path)


def _emit(args, config, report_dict, name="report.json"):
    _write(args, name, harness.json_text(
        harness.report_envelope(config, report_dict)))


def _cmd_simulate(args):
    config = _experiment_config(args)
    if config.n is None:
        raise ConfigurationError("simulate requires config.n")
    theta_star = harness.make_truth(config)
    data = simulate(config.make_dgp(theta_star, harness._RUN_TAG, 0), config.n)
    _write(args, "dataset.json", data.to_json())
    return 0


def _cmd_fit(args):
    config = _experiment_config(args)
    with open(args.dataset) as fh:
        data = Dataset.from_json(fh.read())
    if (config.d, config.k) != (data.d, data.k):
        raise ConfigurationError(
            f"config has d={config.d}, k={config.k} but the dataset has "
            f"d={data.d}, k={data.k}")
    loss = config.make_loss()
    result = fit(data, loss, config.fit_config(config.seed))
    _emit(args, config, result.to_json_dict(), name="fit.json")
    return 0


def _cmd_verify_normality(args):
    config = _experiment_config(args)
    report = harness.normality_experiment(config)
    _emit(args, config, report.to_json_dict())
    header = [f"z{j}" for j in range(report.z_matrix.shape[1])]
    _write(args, "z.csv", harness.matrix_csv(header, report.z_matrix))
    return 0


def _cmd_rate_sweep(args):
    config = _experiment_config(args)
    report = harness.rate_experiment(config)
    _emit(args, config, report.to_json_dict())
    table = np.column_stack([report.n_grid, report.medians, report.q25,
                             report.q75, report.bound_values])
    _write(args, "rate.csv",
           harness.matrix_csv(["n", "median", "q25", "q75", "bound"], table))
    return 0


def _cmd_check_assumptions(args):
    config = _experiment_config(args)
    theta_star = harness.make_truth(config)
    report = diagnostics.assumption_report(config.make_dgp(theta_star, 0xA55),
                                           theta_star, config.make_loss(),
                                           config.n_mc)
    _emit(args, config, report.to_json_dict())
    return 0


def _cmd_certificate(args):
    obj = _load_json(args.config)
    if not isinstance(obj, dict):
        raise ConfigurationError("certificate config must be a JSON object")
    unknown = set(obj) - {"constants", "delta", "n"}
    if unknown:
        raise ConfigurationError(
            f"unknown certificate config keys: {sorted(unknown)}")
    constants = ProblemConstants(**harness.checked_fields(
        ProblemConstants, obj.get("constants"), "constants"))
    delta = harness.coerce_field("delta", "float", obj.get("delta", 0.05),
                                 "certificate config")
    cert = diagnostics.theory_constants(constants, delta)
    report = cert.to_json_dict()
    if "n" in obj:
        n = harness.coerce_field("n", "int", obj["n"], "certificate config")
        if n < 1:
            raise ConfigurationError("certificate config key 'n' must be >= 1")
        report["rate_bound_at_n"] = cert.rate_bound(n)
        report["lambda_min_lower_bound_at_n"] = cert.lambda_min_lower_bound(n)
    _write(args, "certificate.json", harness.json_text(
        {"version": harness.VERSION_STRING, "config": obj, "report": report}))
    return 0


def _cmd_invariance_audit(args):
    config = _experiment_config(args)
    theta_star = harness.make_truth(config)
    loss = config.make_loss()
    data = simulate(config.make_dgp(theta_star, 0xAD1), 1)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xAD2)))
    basis = geometry.horizontal_basis(theta_star)
    worst = 0.0
    per_object = {}
    for _ in range(config.replications):
        rotation, _r = np.linalg.qr(rng.standard_normal((config.k, config.k)))
        audit = inference.invariance_audit(
            theta_star, rotation, (data.X[0], data.y[0]), loss, basis=basis)
        worst = max(worst, audit.max_discrepancy)
        for key, val in audit.discrepancies.items():
            per_object[key] = max(per_object.get(key, 0.0), val)
    _emit(args, config, {"rotations": config.replications,
                         "max_discrepancy": worst,
                         "per_object": per_object})
    return 0


def cli_main(argv=None):
    parser = _Parser(prog="qsense",
                     description="low-rank sensing estimation and inference")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    commands = [
        ("simulate", _cmd_simulate, "write a simulated dataset as JSON"),
        ("fit", _cmd_fit, "fit a dataset and write the result as JSON"),
        ("verify-normality", _cmd_verify_normality,
         "replicate, standardize, and test normality of coordinate errors"),
        ("rate-sweep", _cmd_rate_sweep,
         "median recovery distance across a sample-size grid"),
        ("check-assumptions", _cmd_check_assumptions,
         "Monte Carlo checks of the standing moment assumptions"),
        ("certificate", _cmd_certificate,
         "evaluate the theory certificate from problem constants"),
        ("invariance-audit", _cmd_invariance_audit,
         "check representation invariance under orbit rotations"),
    ]
    for name, func, help_text in commands:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "fit":
            p.add_argument("--dataset", required=True,
                           help="path to a dataset JSON file")
        p.set_defaults(func=func)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and -h both land here
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"qsense: numerical abort: {exc}\n")
        return 2
    except (ConfigurationError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"qsense: error: {exc}\n")
        return 1
    except BrokenProcessPool as exc:
        sys.stderr.write(f"qsense: worker process crashed: {exc}\n")
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
