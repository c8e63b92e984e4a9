"""Self-tests of the benchmark: python3 -m pytest specbench"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run  # first: puts the program under test on sys.path

import check
import layers
import workloads
from specshare import analytic


@pytest.fixture
def op_dir(monkeypatch):
    monkeypatch.chdir(run.ROOT)
    run.RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RUNS) as tmp:
        yield Path(tmp)


def _csv(op: workloads.Op, analytic_values, sim) -> str:
    """A CSV in the program's format; sim(metric, expected) gives the last four cells."""
    lines = [check.CSV_HEADER]
    values = iter(analytic_values)
    for value, keys in zip(op.grid(), op.expected_keys()):
        for metric, mode in keys:
            expected = next(values)
            lines.append(",".join([op.variable, repr(value), metric, mode, repr(expected),
                                   *sim(metric, expected)]))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name):
    first = workloads.schedule(name, 7)
    again = workloads.schedule(name, 7)
    assert [(op.config_text(), op.sweep_args()) for op in first] == \
        [(op.config_text(), op.sweep_args()) for op in again]
    assert [op.index for op in workloads.schedule(name, 8)] != [op.index for op in first]
    # every operation brings its own base scenario, so no cache entry carries over
    assert len({op.config_text() for op in first}) == len(first)


def test_checker_rejects_a_perturbed_analytic_cell(op_dir):
    op = workloads.catalog_op("link_sweep", 0)
    reference = check.load_reference("link_sweep")[0]
    text = run.run_op(op, op_dir, "op")["csv"]
    assert check.check_csv(op, text, reference).failed_rows == 0

    lines = text.splitlines()
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-5))
    lines[3] = ",".join(cells)
    result = check.check_csv(op, "\n".join(lines) + "\n", reference)
    assert (result.failed_rows, result.good_points) == (1, op.steps - 1)
    assert "differs from the reference" in result.problems[0]


def test_checker_rejects_an_outage_cell_10_se_off():
    op = workloads.catalog_op("mc_sweep", 0)
    reference = check.load_reference("mc_sweep")[0]
    kept = check.queue_samples(op.packets)
    shift = {}

    def sim(metric, p):
        if metric in workloads.OUTAGE_METRICS:
            se = math.sqrt(p * (1 - p) / op.trials)
            mean = p + shift.get(metric, 0.0) * se
            return repr(mean), repr(mean - 1.96 * se), repr(mean + 1.96 * se), str(op.trials)
        return repr(0.01), repr(0.009), repr(0.011), str(kept)

    assert check.check_csv(op, _csv(op, reference["analytic"], sim), reference).failed_rows == 0
    shift["outage_sharing"] = 4.9
    assert check.check_csv(op, _csv(op, reference["analytic"], sim), reference).failed_rows == 0
    shift["outage_sharing"] = 10.0
    result = check.check_csv(op, _csv(op, reference["analytic"], sim), reference)
    assert result.failed_rows == op.steps and result.good_points == 0
    assert "10.0 se" in result.problems[0]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_csv_is_byte_identical(name, op_dir):
    op = workloads.catalog_op(name, 1)
    originals = [getattr(module, attr) for module, attr, _, _ in layers.TARGETS]
    plain = run.run_op(op, op_dir, "plain")
    cache = analytic.truncated_service_moments
    cache.cache_clear()  # make the traced op compute again
    tracer = layers.Tracer(count_evals=True)  # the most intrusive wrappers
    traced = run.run_op(op, op_dir, "traced", tracer, 1)
    assert plain["status"] == traced["status"] == 0
    assert traced["csv"] == plain["csv"]
    assert check.check_csv(op, traced["csv"],
                           check.load_reference(name)[1]).failed_rows == 0
    assert [getattr(module, attr) for module, attr, _, _ in layers.TARGETS] == originals
    metrics = layers.layer_metrics(tracer.spans, tracer.spans, 0.0)
    assert metrics["quadrature.integrate_calls.combined"] > 0
    assert metrics["quadrature.integrand_evals.combined"] > 0
    # moment calls and hits inferred from spans agree with the cache's own counts
    info = cache.cache_info()
    assert metrics["analytic.moments.calls"] == info.hits + info.misses == 3 * op.steps
    assert metrics["analytic.moments.hit_ratio"] == info.hits / (info.hits + info.misses)


def test_timed_spans_count_no_integrand_evaluations(op_dir):
    analytic.truncated_service_moments.cache_clear()
    tracer = layers.Tracer()
    done = run.run_op(workloads.catalog_op("link_sweep", 2), op_dir, "op", tracer, 0)
    assert done["status"] == 0
    integrals = [s for s in tracer.spans if s.name == "quadrature.integrate"]
    assert integrals and not any("evals" in s.info for s in integrals)


def test_quadrature_counts_repeat_on_the_warmup_input(op_dir):
    counts = []
    for k in range(2):
        analytic.truncated_service_moments.cache_clear()
        tracer = layers.Tracer(count_evals=True)
        done = run.run_op(workloads.warmup_op("link_sweep"), op_dir, f"w{k}", tracer, -1)
        assert done["status"] == 0
        counts.append(layers.quadrature_counts(tracer.spans))
    assert counts[0] == counts[1] and counts[0][0] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "specbench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "specbench/run.py", "--workload", "link_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
