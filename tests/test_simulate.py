import math

import numpy as np
import pytest

from specshare import analytic, geometry, simulate
from specshare.model import ScenarioParams, ServiceMode, validate, with_updates
from specshare.simulate import (
    estimate_outage_mc,
    ks_distance,
    lindley_waits,
    queue_stats_from_trace,
    run_mg1,
    run_mg1_detailed,
)

PARAMS = validate(ScenarioParams())
PROPRIETARY = ServiceMode.PROPRIETARY_ONLY


class TestOutageEstimator:
    def test_zero_threshold_never_fails(self):
        p = with_updates(PARAMS, theta_h=0.0)
        est = estimate_outage_mc(p, 5000, np.random.default_rng(0))[0]
        assert est.mean == 0.0 and est.std_error == 0.0

    def test_std_error_definition(self):
        est = estimate_outage_mc(PARAMS, 50_000, np.random.default_rng(1))[0]
        assert est.std_error == pytest.approx(
            math.sqrt(est.mean * (1 - est.mean) / est.n_trials), rel=1e-12)

    def test_matches_closed_form(self):
        est = estimate_outage_mc(PARAMS, 100_000, np.random.default_rng(2))[0]
        assert abs(est.mean - analytic.outage_no_sharing(PARAMS)) <= 3 * est.std_error

    def test_sharing_dominates_on_paired_streams(self):
        base, shared = estimate_outage_mc(PARAMS, 50_000, np.random.default_rng(3))
        assert shared.mean >= base.mean

    def test_deterministic_under_seed(self):
        a = estimate_outage_mc(PARAMS, 20_000, np.random.default_rng(4))
        b = estimate_outage_mc(PARAMS, 20_000, np.random.default_rng(4))
        assert a == b

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            estimate_outage_mc(PARAMS, 0, np.random.default_rng(5))


class TestEmpiricalDistribution:
    def test_ks_distance_of_hand_built_sample(self):
        # against the uniform CDF on [0, 1] the empirical CDF of these four
        # points lies furthest off just after 0.3: |0.3 - 3/4| = 0.45
        distance = ks_distance([0.9, 0.1, 0.3, 0.2], lambda t: t)
        assert distance == pytest.approx(0.45, abs=1e-15)

    def test_ks_distance_rejects_empty_sample(self):
        with pytest.raises(ValueError):
            ks_distance([], lambda t: t)

    def test_ks_distance_rejects_negative_sample(self):
        with pytest.raises(ValueError, match="negative"):
            ks_distance([0.5, -1e-300], lambda t: t)

    def test_ks_distance_takes_tied_samples_as_one_jump(self):
        # half the samples sit on the law's atom at zero, where both CDFs step
        # from 0 to 1/2; counting each zero as a jump of its own read 0.5
        samples = np.concatenate((np.zeros(10_000),
                                  np.random.default_rng(12).exponential(size=10_000)))
        law = lambda t: 0.5 + 0.5 * (1.0 - np.exp(-np.asarray(t)))
        assert ks_distance(samples, law) <= 1.63 / math.sqrt(20_000)  # 1% KS critical value

    def test_ks_against_own_cdf_is_small(self):
        rng = np.random.default_rng(6)
        distance = ks_distance(rng.exponential(size=20_000),
                               lambda t: 1.0 - np.exp(-np.asarray(t)))
        assert distance <= 1.63 / math.sqrt(20_000)  # 1% KS critical value

    def test_service_draws_positive(self):
        delays = geometry.sample_service_delays(PARAMS, (ServiceMode.COMBINED,), 2000,
                                                np.random.default_rng(7))
        assert delays[ServiceMode.COMBINED].min() > 0.0

    def test_proprietary_cdf_supnorm(self):
        delays = geometry.sample_service_delays(PARAMS, (PROPRIETARY,), 100_000,
                                                np.random.default_rng(8))[PROPRIETARY]
        reference = lambda t: analytic.service_cdf(PARAMS, PROPRIETARY, t)
        assert ks_distance(delays, reference) <= 0.01

    def test_truncated_mean_tracks_analytic(self):
        delays = geometry.sample_service_delays(PARAMS, (PROPRIETARY,), 200_000,
                                                np.random.default_rng(9))[PROPRIETARY]
        tm = analytic.truncated_service_moments(
            analytic.moment_key(PARAMS, PROPRIETARY), PROPRIETARY)
        capped = np.minimum(delays, PARAMS.t_out)
        m1 = float(np.mean(capped))
        m2 = float(np.mean(capped ** 2))
        se = math.sqrt((m2 - m1 * m1) / capped.size)
        assert abs(m1 - tm.m1) <= 3 * se


class TestLindley:
    def test_hand_built_trace(self):
        waits = lindley_waits([0.0, 1.0, 2.0], [5.0, 1.0, 1.0])
        assert waits.tolist() == [0.0, 4.0, 4.0]

    def test_idle_server_never_waits(self):
        waits = lindley_waits([0.0, 10.0, 20.0], [1.0, 1.0, 1.0])
        assert waits.tolist() == [0.0, 0.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            lindley_waits([0.0, 1.0], [1.0])


class TestQueueRun:
    def test_single_packet(self):
        lonely = with_updates(PARAMS, lambda_md=1e-9)
        stats = run_mg1(lonely, (PROPRIETARY,), 1, np.random.default_rng(10))[PROPRIETARY]
        assert stats.mean_waiting == 0.0
        assert stats.mean_sojourn > 0.0
        assert stats.n_packets == 1 and stats.warmup_discarded == 0

    def test_synthetic_mm1_sojourn(self):
        lam, mean_service = 50.0, 0.01
        rng = np.random.default_rng(11)
        n = 200_000
        stats = queue_stats_from_trace(rng.exponential(1 / lam, n),
                                       rng.exponential(mean_service, n),
                                       math.inf, n // 10)
        exact = 1.0 / (1.0 / mean_service - lam)
        assert stats.mean_sojourn == pytest.approx(exact, rel=0.02)
        assert stats.fail_fraction == 0.0

    def test_deterministic_under_seed(self):
        a = run_mg1(PARAMS, (PROPRIETARY,), 5000, np.random.default_rng(12))[PROPRIETARY]
        b = run_mg1(PARAMS, (PROPRIETARY,), 5000, np.random.default_rng(12))[PROPRIETARY]
        assert a == b

    def test_stats_invariants(self):
        stats = run_mg1(PARAMS, (ServiceMode.SHARED_ONLY,), 20_000,
                        np.random.default_rng(13))[ServiceMode.SHARED_ONLY]
        assert stats.mean_sojourn >= stats.mean_waiting
        assert stats.sojourn_variance >= 0.0
        assert 0.0 <= stats.fail_fraction <= 1.0
        assert stats.warmup_discarded == 2000

    def test_mode_stats_do_not_depend_on_the_other_modes(self):
        together = run_mg1(PARAMS, tuple(ServiceMode), 5000, np.random.default_rng(19))
        for mode in ServiceMode:
            assert run_mg1(PARAMS, (mode,), 5000, np.random.default_rng(19))[mode] \
                == run_mg1_detailed(PARAMS, mode, 5000, np.random.default_rng(19)) \
                == together[mode]

    def test_combined_service_never_slower_than_either_band(self, monkeypatch):
        # one run draws each band once, so combined adds the two capacities of
        # every packet and serves it no slower than either band alone
        traces = []
        record = simulate.queue_stats_from_trace

        def recorded(interarrivals, raw_services, t_out, warmup):
            traces.append((interarrivals, raw_services))
            return record(interarrivals, raw_services, t_out, warmup)

        monkeypatch.setattr(simulate, "queue_stats_from_trace", recorded)
        modes = (ServiceMode.SHARED_ONLY, PROPRIETARY, ServiceMode.COMBINED)
        run_mg1(PARAMS, modes, 20_000, np.random.default_rng(20))
        (arrivals, shared), (_, proprietary), (_, combined) = traces
        assert all(np.array_equal(arrivals, a) for a, _ in traces)
        assert np.all(combined <= shared) and np.all(combined <= proprietary)

    def test_waiting_converges_to_pk_formula_across_loads(self):
        moments = analytic.truncated_service_moments(
            analytic.moment_key(PARAMS, PROPRIETARY), PROPRIETARY)
        for k, (rho, tol) in enumerate([(0.2, 0.03), (0.5, 0.03), (0.8, 0.05)]):
            scenario = with_updates(PARAMS, lambda_md=rho / moments.m1)
            expected = analytic.mg1_waiting(moments, scenario.lambda_md).mean
            stats = run_mg1(scenario, (PROPRIETARY,), 400_000,
                            np.random.default_rng(140 + k))[PROPRIETARY]
            assert stats.mean_waiting == pytest.approx(expected, rel=tol)

    def test_fail_fraction_matches_closed_form(self):
        tm = analytic.truncated_service_moments(
            analytic.moment_key(PARAMS, PROPRIETARY), PROPRIETARY)
        stats = run_mg1(PARAMS, (PROPRIETARY,), 200_000, np.random.default_rng(15))[PROPRIETARY]
        kept = stats.n_packets - stats.warmup_discarded
        se = math.sqrt(tm.fail_prob * (1 - tm.fail_prob) / kept)
        assert abs(stats.fail_fraction - tm.fail_prob) <= 3 * se

    def test_error_bars_reported(self):
        stats = run_mg1(PARAMS, (PROPRIETARY,), 50_000, np.random.default_rng(16))[PROPRIETARY]
        kept = stats.n_packets - stats.warmup_discarded
        assert stats.se_mean_sojourn == pytest.approx(
            math.sqrt(stats.sojourn_variance / kept), rel=1e-6)
        assert stats.se_sojourn_variance > 0.0

    def test_requires_positive_arrival_rate(self):
        with pytest.raises(ValueError):
            run_mg1(with_updates(PARAMS, lambda_md=0.0), (PROPRIETARY,), 100,
                    np.random.default_rng(17))

    def test_unstable_run_is_flagged(self, caplog):
        flooded = with_updates(PARAMS, lambda_md=5000.0)
        with caplog.at_level("WARNING", logger="specshare.simulate"):
            run_mg1(flooded, (PROPRIETARY,), 5000, np.random.default_rng(18))
        assert any("load" in record.message for record in caplog.records)
