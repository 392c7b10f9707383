"""Tests of the benchmark itself.  Run with ``python -m pytest bench``."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import qsense as q  # noqa: E402
from qsense.harness import normality_experiment  # noqa: E402

from spans import LAYERS, Tracer, counting_loss, instrument  # noqa: E402
from workloads import WORKLOADS, normality_gate  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seconds", "1", "--replicates", "8", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in expected:
        assert any(line.split()[:1] == [m["name"]] and
                   line.split()[-1] == m["unit"] for line in lines[:-1])


def test_self_time_reconstructs_each_span():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0, 10.0, 12.0])
    tracer = Tracer(clock=lambda: next(ticks))
    with tracer.span("root"):          # 0 .. 12
        with tracer.span("a"):         # 1 .. 5
            with tracer.span("a1"):    # 2 .. 4
                pass
        with tracer.span("b"):         # 9 .. 10
            pass
    kids = tracer.children()
    assert [tracer.self_time(i, kids) for i in range(4)] == [7.0, 2.0, 2.0, 1.0]


def test_traced_experiment_span_invariants():
    config = WORKLOADS["normality-gaussian"].config(2024, replications=3,
                                                    threads=1)
    tracer = Tracer()
    with instrument(tracer, LAYERS):
        normality_experiment(config)
    kids = tracer.children()
    names = {s.name for s in tracer.spans}
    assert {name for _, _, name, _ in LAYERS} <= names
    for i, span in enumerate(tracer.spans):
        self_time = tracer.self_time(i, kids)
        assert self_time >= 0.0
        children = sorted((tracer.spans[j] for j in kids[i]),
                          key=lambda s: s.start)
        for c in children:
            assert span.start <= c.start <= c.end <= span.end
        for a, b in zip(children, children[1:]):
            assert a.end <= b.start
        assert self_time + sum(c.duration for c in children) == \
            pytest.approx(span.duration, rel=1e-12, abs=1e-12)


def test_instrument_restores_the_wrapped_names():
    before = [getattr(module, attr) for module, attr, _, _ in LAYERS]
    with instrument(Tracer(), LAYERS):
        pass
    assert before == [getattr(module, attr) for module, attr, _, _ in LAYERS]


@pytest.mark.parametrize("loss", [q.GaussianNLL(0.1), q.Logistic()])
def test_counting_loss_is_transparent(loss):
    rng = np.random.default_rng(0)
    z = rng.standard_normal(257)
    y = (rng.random(257) < 0.5).astype(float)
    proxy = counting_loss(loss)
    assert isinstance(proxy, type(loss)) and isinstance(proxy, q.LossModel)
    for method in ("value", "d1", "d2", "d3"):
        assert getattr(proxy, method)(z, y).tobytes() == \
            getattr(loss, method)(z, y).tobytes()
    assert dict(proxy.calls) == {"value": 1, "d1": 1, "d2": 1, "d3": 1}
    assert proxy.samples == 4 * z.size


def test_counting_loss_leaves_the_fit_unchanged():
    theta = np.array([[1.0, 0.0], [0.0, 0.9], [0.3, 0.2], [0.0, 0.4]])
    dgp = q.DataGeneratingProcess(theta_star=theta, sigma=0.1, seed=1)
    data = q.simulate(dgp, 500)
    plain = q.fit(data, q.GaussianNLL(0.1))
    proxy = counting_loss(q.GaussianNLL(0.1))
    counted = q.fit(data, proxy)
    assert counted.theta0.tobytes() == plain.theta0.tobytes()
    assert counted.loss_trace.tobytes() == plain.loss_trace.tobytes()
    assert proxy.calls["value"] >= counted.iterations


def test_normality_gate_rejects_inflated_errors():
    config = WORKLOADS["normality-gaussian"].config(2024, replications=40,
                                                    threads=1)
    report = normality_experiment(config)
    assert normality_gate([report], config.alpha)[0]
    inflated = dataclasses.replace(report, z_matrix=1.5 * report.z_matrix)
    passed, details = normality_gate([inflated], config.alpha)
    assert not passed and not details["checks"]["covariance"]
