"""qsense benchmark: one Monte Carlo workload per invocation.

    python3 bench/run.py --workload normality-gaussian --seed 2024 \
        --seconds 30 --trace 0

Run from the repository root; the program is imported from ``src/``.  The
run repeats the workload's experiment (a closed loop of one caller, seeds
seed, seed + SEED_STRIDE, ...) until ``--seconds`` would be exceeded, checks
every report against the workload's gate, and prints one line per metric
followed by a JSON summary as the last line of standard output.

``--trace 0`` reports the end-to-end metrics of untraced runs.  ``--trace 1``
runs each experiment three ways with one seed -- untraced serial, traced
serial, untraced at the workload's worker count -- checks that the three
reports are byte-identical, and reports per-layer metrics from the traced
one.  Machine facts and per-experiment details go to a sidecar file under
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "replicates_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = {
    "harness.build_context.s": "s",
    "inference.restricted_population_hessian.s": "s",
    "inference.restricted_population_hessian.samples": "count",
    "harness.pool.speedup": "ratio",
    "estimator.fit.ms_p50": "ms",
    "estimator.fit.ms_p90": "ms",
    "estimator.fit.iterations_p50": "count",
    "estimator.fit.iterations_p90": "count",
    "estimator.fit.ms_per_iteration": "ms",
    "estimator.fit.loss_evals_per_iteration": "count",
    "estimator.fit.unconverged_share": "share",
    "model.simulate.ms_p50": "ms",
    "model.loss.calls_per_replicate": "count",
    "model.loss.samples_per_replicate": "count",
    "model.design.bytes_per_replicate": "bytes",
    "diagnostics.taylor_residual_check.ms_p50": "ms",
    "diagnostics.taylor_residual_check.skipped_share": "share",
    "geometry.align.ms_p50": "ms",
    "inference.represent.ms_p50": "ms",
    "harness.replicate.self_ms_p50": "ms",
    "harness.replicate.ms_p50": "ms",
    "harness.replicate.ms_p90": "ms",
    "harness.aggregate.ms": "ms",
    "trace.overhead_share": "share",
}

def load_program():
    """Import qsense from this checkout's src/, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import qsense
    except ImportError as exc:
        sys.exit(f"error: cannot import qsense from {SRC}: {exc}")
    if SRC.resolve() not in Path(qsense.__file__).resolve().parents:
        sys.exit(f"error: qsense was imported from {qsense.__file__}, "
                 f"not from {SRC}")


# ---------------------------------------------------------------------------
# Machine facts (a record beside the metrics, not metrics)
# ---------------------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_facts():
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        caches[f"L{level}-{kind}"] = _read(index / "size")

    def blas(module):
        try:
            dep = module.__config__.CONFIG["Build Dependencies"]["blas"]
            return {"name": dep.get("name"), "version": dep.get("version")}
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "env": {v: os.environ.get(v) for v in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "QSENSE_THREADS")},
    }


# ---------------------------------------------------------------------------
# One experiment
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    seed: int
    threads: int
    traced: bool
    trace_id: int
    wall_s: float
    setup_s: float
    phase_s: float
    cpu_s: float
    attempted: int
    failed: int
    unconverged: int = 0
    error: str | None = None
    report: object = field(default=None, repr=False)
    report_text: str = field(default="", repr=False)
    z_bytes: bytes = field(default=b"", repr=False)

    def summary(self):
        return {k: v for k, v in vars(self).items()
                if k not in ("report", "report_text", "z_bytes")}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib():
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def run_experiment(workload, config, tracer, traced=False):
    """Run one experiment; spans go to tracer, at every layer if traced."""
    from qsense import harness
    from qsense.errors import HarnessAbort
    from spans import BOUNDARY, LAYERS, instrument

    tracer.trace_id += 1
    first = len(tracer.spans)
    cpu0 = _cpu_s()
    report = error = None
    with instrument(tracer, LAYERS if traced else BOUNDARY), \
            tracer.span(f"harness.{workload.kind}_experiment") as root:
        try:
            report = workload.run(config)
        except HarnessAbort as exc:
            error = f"HarnessAbort: {exc}"
    cpu = _cpu_s() - cpu0
    mine = tracer.spans[first:]
    setup = sum(s.duration for s in mine if s.name == "harness.build_context")
    phases = [s for s in mine if s.name == "harness.run_replications"]
    attempted = workload.replicates(config)
    out = Outcome(seed=config.seed, threads=config.threads,
                  traced=traced, trace_id=tracer.trace_id,
                  wall_s=root.duration, setup_s=setup,
                  phase_s=sum(s.duration for s in phases) - setup, cpu_s=cpu,
                  attempted=attempted, failed=attempted, error=error,
                  report=report)
    if report is None:
        return out
    records = [rec for s in phases for rec in s.attrs["records"]]
    out.failed = sum(rec.diverged for rec in records)
    out.unconverged = sum(not (rec.diverged or rec.converged) for rec in records)
    out.report_text = json.dumps(
        harness.report_envelope(config, report.to_json_dict()),
        sort_keys=True, indent=2)
    z = getattr(report, "z_matrix", None)
    out.z_bytes = b"" if z is None else z.tobytes()
    return out


def closed_loop(seconds, step):
    """Call step(i) for i = 0, 1, ... until the next call would overrun."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds:
            return results


# ---------------------------------------------------------------------------
# End-to-end run
# ---------------------------------------------------------------------------

def end_to_end_run(workload, seed, seconds, replications):
    from spans import Tracer
    from workloads import SEED_STRIDE

    tracer = Tracer()
    outcomes = closed_loop(seconds, lambda i: run_experiment(
        workload, workload.config(seed + i * SEED_STRIDE, replications),
        tracer))
    # Pool sessions on an oversubscribed machine are bimodal (a session runs
    # fast or slow throughout), and the median of such a mixture flips
    # between the modes from run to run.  Times are therefore totals over
    # the run divided by its experiments; set-up, a single-process step,
    # is the median of the run's set-ups.  The first experiment warms the
    # process up (lazy imports, allocator, caches): it is checked but, when
    # the run has others, not timed.
    timed = outcomes[1:] or outcomes
    count = len(timed)
    metrics = {
        "wall_s": sum(o.wall_s for o in timed) / count,
        "setup_s": median(o.setup_s for o in timed),
        "replicates_per_s": sum(o.attempted for o in timed)
        / sum(o.wall_s - o.setup_s for o in timed),
        "cpu_s": sum(o.cpu_s for o in timed) / count,
        "peak_rss_mb": peak_rss_mib(),
    }
    return outcomes, metrics, {}, {}


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _pct(values, q):
    return float(np.percentile(list(values), q)) if values else float("nan")


def layer_metrics(tracer, traced_ids):
    """Per-layer metrics from the spans of the traced experiments."""
    kids = tracer.children()
    spans = tracer.spans
    in_traced = [i for i, s in enumerate(spans) if s.trace_id in traced_ids]

    def named(name, parent=None):
        return [i for i in in_traced if spans[i].name == name and
                (parent is None or spans[spans[i].parent].name == parent)]

    def ms(idx):
        return [1e3 * spans[i].duration for i in idx]

    def per_experiment(idx, value):
        totals = {t: 0.0 for t in traced_ids}
        for i in idx:
            totals[spans[i].trace_id] += value(spans[i])
        return median(totals.values())

    replicate = "harness.replicate"
    fits = named("estimator.fit", replicate)
    fit_attrs = [spans[i].attrs for i in fits]
    iters = [a["iterations"] for a in fit_attrs if "iterations" in a]
    fit_ms = ms(fits)
    calls = [sum(a["loss_calls"].values()) for a in fit_attrs]
    taylor = named("diagnostics.taylor_residual_check", replicate)
    reps = named(replicate)
    roots = [i for i in in_traced if spans[i].parent is None]
    hessian = named("inference.restricted_population_hessian")
    metrics = {
        "harness.build_context.s": per_experiment(
            named("harness.build_context"), lambda s: s.duration),
        "inference.restricted_population_hessian.s": per_experiment(
            hessian, lambda s: s.duration),
        "inference.restricted_population_hessian.samples": per_experiment(
            hessian, lambda s: s.attrs["samples"]),
        "estimator.fit.ms_p50": _pct(fit_ms, 50),
        "estimator.fit.ms_p90": _pct(fit_ms, 90),
        "estimator.fit.iterations_p50": _pct(iters, 50),
        "estimator.fit.iterations_p90": _pct(iters, 90),
        "estimator.fit.ms_per_iteration": sum(fit_ms) / max(1, sum(iters)),
        "estimator.fit.loss_evals_per_iteration":
            sum(a["loss_calls"]["value"] for a in fit_attrs) / max(1, sum(iters)),
        "estimator.fit.unconverged_share":
            sum(not a.get("converged", False) for a in fit_attrs) / len(fits),
        "model.simulate.ms_p50": _pct(ms(named("model.simulate", replicate)), 50),
        "model.loss.calls_per_replicate": sum(calls) / len(fits),
        "model.loss.samples_per_replicate":
            sum(a["loss_samples"] for a in fit_attrs) / len(fits),
        "model.design.bytes_per_replicate":
            sum(a["design_bytes"] for a in fit_attrs) / len(fits),
        "diagnostics.taylor_residual_check.ms_p50": _pct(ms(taylor), 50),
        "diagnostics.taylor_residual_check.skipped_share":
            sum(spans[i].attrs.get("skipped", False) for i in taylor) / len(taylor),
        "geometry.align.ms_p50": _pct(ms(named("geometry.align", replicate)), 50),
        "inference.represent.ms_p50":
            _pct(ms(named("inference.represent", replicate)), 50),
        "harness.replicate.self_ms_p50":
            _pct([1e3 * tracer.self_time(i, kids) for i in reps], 50),
        "harness.replicate.ms_p50": _pct(ms(reps), 50),
        "harness.replicate.ms_p90": _pct(ms(reps), 90),
        "harness.aggregate.ms":
            median(1e3 * tracer.self_time(i, kids) for i in roots),
    }
    # per grid point (rate-sweep), printed but kept out of the JSON summary
    per_grid = {}
    for n in sorted({spans[i].attrs["n"] for i in reps}):
        per_grid[f"estimator.fit.ms_p50.n{n}"] = _pct(
            [1e3 * spans[i].duration for i in fits if spans[i].attrs["n"] == n], 50)
        per_grid[f"harness.replicate.ms_p50.n{n}"] = _pct(
            [1e3 * spans[i].duration for i in reps if spans[i].attrs["n"] == n], 50)
    return metrics, per_grid


def traced_run(workload, seed, seconds, replications):
    from spans import Tracer
    from workloads import SEED_STRIDE

    tracer = Tracer()
    pooled_threads = workload.settings["threads"]

    def one_round(i):
        s = seed + i * SEED_STRIDE
        serial = workload.config(s, replications, threads=1)
        plain = run_experiment(workload, serial, tracer)
        traced = run_experiment(workload, serial, tracer, traced=True)
        pooled = plain if pooled_threads == 1 else run_experiment(
            workload, workload.config(s, replications), tracer)
        return plain, traced, pooled

    rounds = closed_loop(seconds, one_round)
    checks = {
        "trace_neutral": all(t.report_text == p.report_text and
                             t.z_bytes == p.z_bytes for p, t, _ in rounds),
        "threads_identical": all(q.report_text == p.report_text and
                                 q.z_bytes == p.z_bytes for p, _, q in rounds),
    }
    metrics, per_grid = layer_metrics(tracer, {t.trace_id for _, t, _ in rounds})
    traced_phase = sum(t.phase_s for _, t, _ in rounds)
    metrics["harness.pool.speedup"] = traced_phase / sum(
        q.phase_s for _, _, q in rounds)
    metrics["trace.overhead_share"] = sum(t.wall_s for _, t, _ in rounds) / sum(
        p.wall_s for p, _, _ in rounds) - 1.0
    outcomes = list({id(o): o for r in rounds for o in r}.values())
    return outcomes, {k: metrics[k] for k in PER_LAYER}, per_grid, checks


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the acceptance seed)")
    p.add_argument("--seconds", type=float, default=40.0,
                   help="stop starting experiments once this would be exceeded")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replicates", type=int, default=None,
                   help="replicates per experiment (default: the workload's; "
                        "small values are for smoke tests)")
    args = p.parse_args(argv)
    if args.seconds <= 0 or (args.replicates is not None and args.replicates < 2):
        p.error("--seconds must be positive and --replicates at least 2")
    return args


def pin(cpus, argv):
    """Restart this program on the last `cpus` CPUs it may run on.

    BLAS starts its threads when numpy loads, one per CPU the process may
    use, so the mask has to be narrowed before a fresh start: os.execv
    replaces this process and starts no other.
    """
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) <= cpus:
        return
    os.sched_setaffinity(0, allowed[-cpus:])
    sys.stdout.flush()
    os.execv(sys.executable, [sys.executable, __file__, *argv])


def main(argv=None):
    load_program()
    from workloads import WORKLOADS

    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    if workload.cpus:
        pin(workload.cpus, argv)
    seed = workload.seed if args.seed is None else args.seed
    run = traced_run if args.trace else end_to_end_run
    outcomes, metrics, per_grid, checks = run(workload, seed, args.seconds,
                                              args.replicates)
    units = PER_LAYER if args.trace else END_TO_END
    # the traced run's other experiments repeat the traced reports exactly
    reports = [o.report for o in outcomes
               if o.traced == bool(args.trace) and o.report is not None]
    checks["gate"], gate = workload.gate(reports, workload.config(seed).alpha) \
        if reports else (False, None)
    checks["no_abort"] = not any(o.error for o in outcomes)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes) if checks["gate"] else attempted
    correct = all(checks.values())

    OUT.mkdir(exist_ok=True)
    sidecar = OUT / f"{workload.name}.seed{seed}.trace{args.trace}.json"
    sidecar.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "seconds": args.seconds,
        "machine": machine_facts(), "checks": checks, "gate": gate,
        "metrics": metrics, "per_grid": per_grid,
        "experiments": [o.summary() for o in outcomes],
    }, indent=2, default=str) + "\n")

    print(f"# {workload.name} seed={seed} experiments={len(outcomes)} "
          f"sidecar={sidecar.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"{name:50s} {value:14.6g} {units[name]}")
    for name, value in per_grid.items():
        print(f"{name:50s} {value:14.6g} ms  (per grid point)")
    if not args.trace:
        unconverged = sum(o.unconverged for o in outcomes)
        print(f"{'failed_share':50s} {failed / attempted:14.6g} share")
        print(f"{'unconverged_share':50s} {unconverged / attempted:14.6g} share")
    for name, ok in checks.items():
        print(f"# check {name}: {'pass' if ok else 'FAIL'}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
