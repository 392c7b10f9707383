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
from .errors import (CapabilityError, ConfigurationError, DegenerateFactorError,
                     DegenerateHessianError, DivergenceError, HarnessAbort,
                     InitializationError, OutOfInjectivityError)
from .estimator import FitConfig, fit
from .model import Dataset, ProblemConstants, simulate

_NUMERICAL_ERRORS = (DivergenceError, DegenerateHessianError, HarnessAbort,
                     OutOfInjectivityError, InitializationError,
                     DegenerateFactorError, CapabilityError)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_common(p, needs_config=True):
    p.add_argument("--config", required=needs_config,
                   help="path to a JSON config file")
    p.add_argument("--seed", type=int, default=None, help="override the seed")
    p.add_argument("--out-dir", default=None,
                   help="output directory (overrides the config; default .)")
    p.add_argument("--threads", type=int, default=None,
                   help="worker processes (falls back to QSENSE_THREADS)")
    p.add_argument("--format", choices=("json", "csv"), default="json",
                   help="report format (csv only where a table exists)")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _experiment_config(args):
    obj = _load_json(args.config)
    if args.seed is not None:
        obj["seed"] = args.seed
    config = harness.ExperimentConfig.from_dict(obj)
    if args.threads is not None:
        config.threads = max(1, args.threads)
    elif "threads" not in obj:
        config.threads = harness.default_threads()
    if args.out_dir is None:
        args.out_dir = config.out_dir or "."
    return config


def _emit(args, config, report_dict, name="report.json", **extra):
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, name)
    harness.dump_json(harness.report_envelope(config, report_dict, **extra),
                      path)
    print(path)
    return path


def _cmd_simulate(args):
    config = _experiment_config(args)
    if config.n is None:
        raise ConfigurationError("simulate requires config.n")
    theta_star = harness.make_truth(config)
    data = simulate(config.make_dgp(theta_star, harness._RUN_TAG, 0), config.n)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "dataset.json")
    with open(path, "w") as fh:
        fh.write(data.to_json())
    print(path)
    return 0


def _cmd_fit(args):
    config = _experiment_config(args)
    with open(args.dataset) as fh:
        data = Dataset.from_json(fh.read())
    loss = config.make_loss()
    result = fit(data, loss, FitConfig(grad_tol=config.grad_tol,
                                       max_iters=config.max_iters,
                                       restarts=config.restarts,
                                       seed=config.seed))
    _emit(args, config, result.to_json_dict(), name="fit.json")
    return 0


def _cmd_verify_normality(args):
    config = _experiment_config(args)
    report = harness.normality_experiment(config)
    _emit(args, config, report.to_json_dict(), name="report.json")
    z_path = os.path.join(args.out_dir, "z.csv")
    header = [f"z{j}" for j in range(report.z_matrix.shape[1])]
    harness.write_matrix_csv(z_path, header, report.z_matrix)
    print(z_path)
    return 0


def _cmd_rate_sweep(args):
    config = _experiment_config(args)
    report = harness.rate_experiment(config)
    _emit(args, config, report.to_json_dict(), name="report.json")
    table = np.column_stack([report.n_grid, report.medians, report.q25,
                             report.q75, report.bound_values])
    csv_path = os.path.join(args.out_dir, "rate.csv")
    harness.write_matrix_csv(csv_path, ["n", "median", "q25", "q75", "bound"],
                             table)
    print(csv_path)
    return 0


def _cmd_check_assumptions(args):
    config = _experiment_config(args)
    theta_star = harness.make_truth(config)
    report = diagnostics.assumption_report(config.make_dgp(theta_star, 0xA55),
                                           theta_star, config.make_loss(),
                                           config.n_mc)
    _emit(args, config, report.to_json_dict(), name="report.json")
    return 0


def _cmd_certificate(args):
    if args.out_dir is None:
        args.out_dir = "."
    obj = _load_json(args.config)
    constants = ProblemConstants.from_json_dict(obj["constants"])
    delta = float(obj.get("delta", 0.05))
    cert = diagnostics.theory_constants(constants, delta)
    report = cert.to_json_dict()
    if "n" in obj:
        n = int(obj["n"])
        report["rate_bound_at_n"] = cert.rate_bound(n)
        report["lambda_min_lower_bound_at_n"] = cert.lambda_min_lower_bound(n)
    os.makedirs(args.out_dir, exist_ok=True)
    path = os.path.join(args.out_dir, "certificate.json")
    harness.dump_json({"version": harness.VERSION_STRING, "config": obj,
                       "report": report}, path)
    print(path)
    return 0


def _cmd_invariance_audit(args):
    config = _experiment_config(args)
    theta_star = harness.make_truth(config)
    loss = config.make_loss()
    data = simulate(config.make_dgp(theta_star, 0xAD1), 1)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0xAD2)))
    basis = geometry.horizontal_basis(theta_star, order=config.basis_order)
    worst = 0.0
    per_object = {}
    for _ in range(config.replications):
        U, _r = np.linalg.qr(rng.standard_normal((config.k, config.k)))
        audit = inference.invariance_audit(theta_star, U, (data.X[0], data.y[0]),
                                           loss, basis=basis)
        worst = max(worst, audit.max_discrepancy)
        for key, val in audit.discrepancies.items():
            per_object[key] = max(per_object.get(key, 0.0), val)
    _emit(args, config, {"rotations": config.replications,
                         "max_discrepancy": worst,
                         "per_object": per_object},
          name="report.json")
    return 0


_CSV_CAPABLE = {"verify-normality", "rate-sweep"}


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
        p.set_defaults(func=func, command_name=name)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage errors and -h both land here
        return int(exc.code or 0)
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    if args.format == "csv" and args.command_name not in _CSV_CAPABLE:
        sys.stderr.write(
            f"qsense: error: --format csv is not supported for "
            f"{args.command_name}\n")
        return 1
    try:
        return args.func(args)
    except (ConfigurationError, ValueError, OSError, KeyError) as exc:
        sys.stderr.write(f"qsense: error: {exc}\n")
        return 1
    except _NUMERICAL_ERRORS as exc:
        sys.stderr.write(f"qsense: numerical abort: {exc}\n")
        return 2
    except BrokenProcessPool as exc:
        sys.stderr.write(f"qsense: worker process crashed: {exc}\n")
        return 2


def main():
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
