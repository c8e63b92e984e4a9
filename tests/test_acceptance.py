"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -s` or on failure)
and asserts the criterion. Runs the same checks as `specshare verify`.
"""

import os
import subprocess
import sys

import pytest

from specshare import cli, verify
from specshare.model import ScenarioParams, validate, with_updates


@pytest.fixture(scope="module")
def params():
    # reference setting: defaults with the 1e-4 /m^2 licensed-BS density
    return validate(ScenarioParams())


@pytest.fixture(scope="module")
def trend_results(params):
    return {result.name.split()[0]: result for result in verify.check_trend_suite(params)}


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name} "
          f"({result.elapsed:.1f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_criterion_1_outage_oracle(params):
    # 1e6 field draws agree with both outage closed forms within 3 SE, < 60 s
    _report(verify.check_outage_oracle(params))


def test_criterion_2_power_budget_identity(params):
    # substituting the unclamped power bound reproduces epsilon to 1e-9
    _report(verify.check_power_identity(params))


def test_criterion_3_service_cdf_match(params):
    # empirical CDFs of 1e5 sampled delays within 0.01 sup-norm, all modes
    _report(verify.check_service_cdf_match(params))


def test_criterion_4_capacity_distributions(params):
    # every capacity CDF bounded and monotone; combined mean = sum of band means to 1e-8
    _report(verify.check_capacity_distributions(params))


def test_criterion_5_queue_theory(params):
    # 1e6-packet event simulation matches closed-form delay and jitter
    _report(verify.check_queue_theory(params))


@pytest.fixture(scope="module")
def noise_free():
    # N0 = 0: the proprietary capacity is infinite, so every proprietary and
    # combined service delay is 0.0
    return with_updates(ScenarioParams(), noise_psd=0.0)


def test_noise_free_service_cdfs_match_the_atom_at_zero(noise_free):
    result = verify.check_service_cdf_match(noise_free)
    assert result.passed, result.detail
    assert "proprietary: sup-norm 0.0000" in result.detail
    assert "combined: sup-norm 0.0000" in result.detail


def test_noise_free_queue_cases_no_rate_can_load_fail_with_their_reason(noise_free):
    result = verify.check_queue_theory(noise_free, packets=20_000)
    assert not result.passed
    for case in ("proprietary@rho0.2", "proprietary@rho0.5", "proprietary@rho0.8",
                 "combined@rho0.5"):
        assert f"{case}: mean service 0 s, so no arrival rate gives load" in result.detail
    assert "shared@rho0.5: mean" in result.detail


def test_criterion_6_classical_oracles():
    # M/M/1 and M/D/1 exact at the formula level; simulator matches M/M/1
    _report(verify.check_classical_queues())


def test_criterion_7a_outage_vs_hbs_power(trend_results):
    _report(trend_results["7a"])


def test_criterion_7b_outage_vs_hbs_density(trend_results):
    _report(trend_results["7b"])


def test_criterion_7c_outage_vs_mbs_power(trend_results):
    _report(trend_results["7c"])


def test_criterion_7d_delay_vs_outage_tolerance(trend_results):
    _report(trend_results["7d"])


def test_criterion_7e_delay_vs_arrival_rate(trend_results):
    _report(trend_results["7e"])


def test_criterion_7f_delay_vs_device_density(trend_results):
    _report(trend_results["7f"])


def test_criterion_8_sweep_determinism(params, monkeypatch):
    # a preset single-worker environment must not turn the check into 1 vs 1
    monkeypatch.setenv("SPECSHARE_THREADS", "1")
    workers = []
    run_sweep = cli.run_sweep

    def spy(spec, base):
        workers.append(cli._worker_count())
        return run_sweep(spec, base)

    monkeypatch.setattr(cli, "run_sweep", spy)
    _report(verify.check_determinism(params))
    assert workers == [4, 1]
    assert os.environ["SPECSHARE_THREADS"] == "1"


def test_verify_import_leaves_scipy_interpolate_unloaded():
    # criterion 3 interpolates its combined reference with numpy alone
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = "import sys, specshare.verify; sys.exit('scipy.interpolate' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr or "scipy.interpolate was imported"
