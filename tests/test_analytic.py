import math
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specshare import analytic, cli, geometry, simulate, verify
from specshare.analytic import (
    InfeasiblePowerError,
    TruncatedMoments,
    UnstableQueueError,
    apply_power_budget,
    capacity_cdf,
    delay_report,
    max_mbs_power,
    mg1_waiting,
    moment_key,
    outage_increment,
    outage_no_sharing,
    outage_with_sharing,
    service_cdf,
    truncated_service_moments,
)
from specshare.model import ScenarioParams, ServiceMode, dbm_to_watts, validate, with_updates
from specshare.quadrature import ABS_TOL, REL_TOL, QuadratureError, integrate

PARAMS = validate(ScenarioParams())

# frozen by hand-evaluating the closed forms at the default setting
OUTAGE_NO_SHARING_AT_DEFAULTS = 0.005714625593564749
OUTAGE_SHARING_AT_DEFAULTS = 0.015559035241153216
INCREMENT_AT_DEFAULTS = 1.7226692259024419
PROP_CDF_AT_BREAKPOINT = 0.018665624561518938  # t = u_m n_m / b_m

# a proprietary coefficient of 4e-308: the combined law must read as shared alone
TINY_PROPRIETARY_BAND = dict(b_m=1e-300)
# the shared interference coefficient overflows to inf: the shared band carries
# nothing, so combined serves as proprietary alone
DROWNED_SHARED_BAND = dict(lambda_h=1.4e222, p_m_shared=dbm_to_watts(-3000.0))
# the moment fields of the link_sweep benchmark's catalog op 3
CATALOG_LINK_BUDGET = dict(p_h=0.24618332147380845, p_m=0.23501938650728563,
                           p_m_shared=0.25760778450007243, y0=10.340565935202823,
                           alpha=4.195566563198109, u_m=317.61579767921614,
                           t_out=0.010889405343893125, lambda_h=9.656845085167784e-05, n_m=97)


class TestOutage:
    def test_zero_threshold(self):
        assert outage_no_sharing(with_updates(PARAMS, theta_h=0.0)) == 0.0

    def test_no_interference_no_noise(self):
        quiet = with_updates(PARAMS, lambda_h=0.0, noise_psd=0.0)
        assert outage_no_sharing(quiet) == 0.0

    def test_no_sharing_reference_value(self):
        assert outage_no_sharing(PARAMS) == pytest.approx(OUTAGE_NO_SHARING_AT_DEFAULTS, rel=1e-12)

    def test_sharing_reference_value(self):
        assert outage_with_sharing(PARAMS) == pytest.approx(OUTAGE_SHARING_AT_DEFAULTS, rel=1e-12)

    def test_sharing_reduces_to_no_sharing_without_mbs_power(self):
        silent = replace(PARAMS, p_m_shared=0.0)  # bypasses validation on purpose
        assert outage_with_sharing(silent) == outage_no_sharing(silent)

    def test_sharing_converges_at_large_cross_distance(self):
        far = with_updates(PARAMS, y0=1e9)
        assert abs(outage_with_sharing(far) - outage_no_sharing(far)) < 1e-12

    def test_sharing_dominates_no_sharing(self):
        for lam in (1e-5, 1e-4, 1e-3):
            p = with_updates(PARAMS, lambda_h=lam)
            assert outage_with_sharing(p) >= outage_no_sharing(p)

    def test_monte_carlo_agreement(self):
        est = simulate.estimate_outage_mc(PARAMS, 200_000,
                                          np.random.default_rng(31))[0]
        assert abs(est.mean - outage_no_sharing(PARAMS)) <= 3 * est.std_error
        est = simulate.estimate_outage_mc(PARAMS, 200_000,
                                          np.random.default_rng(32))[1]
        assert abs(est.mean - outage_with_sharing(PARAMS)) <= 3 * est.std_error

    def test_noise_free_outage_ignores_transmit_power(self):
        quiet = with_updates(PARAMS, noise_psd=0.0)
        values = {outage_no_sharing(with_updates(quiet, p_h=p)) for p in (0.01, 0.25, 10.0)}
        assert len(values) == 1

    def test_outage_increases_with_density(self):
        values = [outage_no_sharing(with_updates(PARAMS, lambda_h=lam))
                  for lam in np.linspace(1e-5, 1e-3, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_sharing_outage_increases_with_mbs_power(self):
        values = [outage_with_sharing(with_updates(PARAMS, p_m_shared=p))
                  for p in np.linspace(0.01, 1.0, 12)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestIncrement:
    def test_reference_value(self):
        assert outage_increment(PARAMS) == pytest.approx(INCREMENT_AT_DEFAULTS, rel=1e-12)

    def test_zero_when_mbs_silent(self):
        assert outage_increment(replace(PARAMS, p_m_shared=0.0)) == 0.0

    def test_zero_baseline_rejected(self):
        with pytest.raises(ValueError):
            outage_increment(with_updates(PARAMS, theta_h=0.0))


class TestPowerBudget:
    def test_bound_vanishes_at_the_outage_floor(self):
        floor = outage_no_sharing(PARAMS)
        bound = max_mbs_power(with_updates(PARAMS, epsilon=floor))
        scale = PARAMS.x0 ** (-PARAMS.alpha) * PARAMS.p_h / PARAMS.theta_h * PARAMS.y0 ** PARAMS.alpha
        assert abs(bound) <= 1e-9 * scale

    def test_loose_tolerance_clamps_to_p_max(self):
        scenario = with_updates(PARAMS, epsilon=0.999)
        assert apply_power_budget(scenario).p_m_shared == PARAMS.p_max
        assert max_mbs_power(scenario) >= PARAMS.p_max > 0.0

    def test_round_trip_identity(self):
        for lam in (1e-5, 1e-4, 1e-3):
            base = with_updates(PARAMS, lambda_h=lam)
            floor = outage_no_sharing(base)
            eps = floor + 0.3 * (1.0 - floor)
            scenario = with_updates(base, epsilon=eps)
            bound = max_mbs_power(scenario)
            achieved = outage_with_sharing(with_updates(scenario, p_m_shared=bound))
            assert achieved == pytest.approx(eps, abs=1e-9)

    def test_infeasible_tolerance(self):
        eps = outage_no_sharing(PARAMS) * 0.5
        assert max_mbs_power(with_updates(PARAMS, epsilon=eps)) <= 0.0
        with pytest.raises(InfeasiblePowerError):
            apply_power_budget(with_updates(PARAMS, epsilon=eps))

    def test_unreachable_tolerance_gives_a_finite_bound(self):
        # the no-sharing outage exponent is about 8e6 here; its exp overflows
        scenario = with_updates(PARAMS, noise_psd=1.0, epsilon=0.5)
        assert -math.inf < max_mbs_power(scenario) < 0.0

    def test_requires_epsilon(self):
        with pytest.raises(ValueError):
            max_mbs_power(PARAMS)

    def test_apply_budget_is_identity_without_epsilon(self):
        assert apply_power_budget(PARAMS) is PARAMS


class TestCapacityDistributions:
    def test_shared_cdf_limits(self):
        assert capacity_cdf(PARAMS, ServiceMode.SHARED_ONLY, 0.0) == 0.0
        assert capacity_cdf(PARAMS, ServiceMode.SHARED_ONLY, 1e12) == 1.0

    def test_cdf_is_zero_at_negative_rates(self):
        for mode in ServiceMode:
            assert capacity_cdf(PARAMS, mode, -1e6) == 0.0

    def test_shared_cdf_against_sampled_capacities(self):
        caps = geometry.sample_capacities(PARAMS, (ServiceMode.SHARED_ONLY,), 100_000,
                                          np.random.default_rng(41))[ServiceMode.SHARED_ONLY]
        assert simulate.ks_distance(
            caps, lambda z: capacity_cdf(PARAMS, ServiceMode.SHARED_ONLY, z)) <= 0.01

    @pytest.mark.parametrize("changes", [
        {}, dict(alpha=3.3), dict(b_m=3e7), dict(p_m_shared=0.3 * PARAMS.p_m_shared),
        dict(lambda_h=1e-3), TINY_PROPRIETARY_BAND],
        ids=["defaults", "alpha_3.3", "narrow_proprietary_band", "weak_shared_power",
             "dense_interferers", "tiny_proprietary_band"])
    def test_combined_mean_is_the_sum_of_the_band_means(self, changes):
        # E[C1 + C2] = E[C1] + E[C2] for the independent bands; each mean is
        # an adaptive integral of its tail, good to REL_TOL
        z_end, means = verify.capacity_means(with_updates(PARAMS, **changes))
        assert z_end < math.inf
        bands = means[ServiceMode.SHARED_ONLY] + means[ServiceMode.PROPRIETARY_ONLY]
        assert means[ServiceMode.COMBINED] == pytest.approx(bands, rel=1e-8)

    @pytest.mark.parametrize("band", [ServiceMode.SHARED_ONLY, ServiceMode.PROPRIETARY_ONLY])
    @pytest.mark.parametrize("changes", [
        {}, dict(noise_psd=0.0), dict(lambda_h=0.0), dict(noise_psd=0.0, lambda_h=0.0),
        DROWNED_SHARED_BAND, dict(b_m=1e30), TINY_PROPRIETARY_BAND],
        ids=["defaults", "noiseless", "no_interferers", "zero_coefficients",
             "drowned_shared_band", "wide_proprietary_band", "tiny_proprietary_band"])
    def test_array_band_law_matches_the_scalar_one(self, band, changes):
        # rates on both sides of every guard: e <= 0, e > 1020 and an exponent
        # of 746 (crossed inside the geometric grid wherever a coefficient is
        # not zero), in units of the band's width
        params = with_updates(PARAMS, **changes)
        width = params.b_h if band is ServiceMode.SHARED_ONLY else params.b_m
        e = np.concatenate(([-1.0, -0.0, 0.0, 5e-324, 1e-300, 1e-17], np.geomspace(1e-12, 1e3, 301),
                            [1020.0, np.nextafter(1020.0, 2e3), 2e3, math.inf]))
        law = analytic._band_law(params, band)
        scalar = analytic._band_tail(law)
        expected = np.array([scalar(rate) for rate in (e * width).tolist()])
        got = analytic._band_tail(law, array=True)(e * width)
        # numpy's power may differ from libm's by an ulp, which exp(-x) scales by x
        assert np.max(np.abs(got - expected)) <= 1e-15
        assert got[0] == got[1] == 1.0 and got[-1] == (1.0 if np.all(expected == 1.0) else 0.0)


class TestServiceCdf:
    def test_limits(self):
        # the shared-band CDF approaches one only like 1/sqrt(t), so the
        # asymptote needs a very large argument; near zero every mode is at
        # most 1e-12 from zero
        for mode in ServiceMode:
            assert service_cdf(PARAMS, mode, 1e15) == pytest.approx(1.0, abs=1e-9)
            assert service_cdf(PARAMS, mode, 1e-9) <= 1e-12

    def test_proprietary_breakpoint_value(self):
        t = PARAMS.u_m * PARAMS.n_m / PARAMS.b_m  # capacity requirement hits one band-double
        assert service_cdf(PARAMS, ServiceMode.PROPRIETARY_ONLY, t) == pytest.approx(
            PROP_CDF_AT_BREAKPOINT, rel=1e-10)

    def test_combined_dominates_shared(self):
        ts = np.geomspace(1e-4, 1e-2, 25)
        shared = service_cdf(PARAMS, ServiceMode.SHARED_ONLY, ts)
        combined = np.array([service_cdf(PARAMS, ServiceMode.COMBINED, float(t))
                             for t in ts])
        assert np.all(combined >= shared - 1e-9)

    def test_combined_cdf_never_falls_where_it_leaves_zero(self):
        # a box scenario whose combined CDF read 1.1e-16 and then 0 as t grew,
        # from the inner rule's rounding where the capacity CDF is 1 - 1e-20
        params = with_updates(PARAMS, alpha=math.exp(0.75), t_out=math.exp(-4.0),
                              lambda_h=math.exp(-7.0), b_h=math.exp(14.0),
                              b_m=math.exp(18.5), n_m=1, noise_psd=math.exp(-19.0),
                              y0=math.exp(2.0))
        ts = np.geomspace(params.t_out * 1e-4, params.t_out, 50)
        assert np.all(np.diff(service_cdf(params, ServiceMode.COMBINED, ts)) >= 0.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            service_cdf(PARAMS, ServiceMode.SHARED_ONLY, -1.0)

    def test_combined_cdf_complements_capacity_cdf(self):
        for mode in ServiceMode:
            for t in (1e-4, 1e-3, 5e-3):
                z = PARAMS.u_m * PARAMS.n_m / t
                assert service_cdf(PARAMS, mode, t) == pytest.approx(
                    1.0 - capacity_cdf(PARAMS, mode, z), abs=1e-12)

    def test_array_input_keeps_shape_and_matches_scalar_calls(self):
        ts = np.array([[0.0, 1e-4, 1e-3], [2e-3, 5e-3, 1e-2]])
        zs = np.array([[0.0, 1e7], [1e8, 1e9]])
        for mode in ServiceMode:
            cdf = service_cdf(PARAMS, mode, ts)
            assert cdf.shape == ts.shape
            assert cdf.tolist() == [[service_cdf(PARAMS, mode, float(t)) for t in row]
                                    for row in ts]
            cap = capacity_cdf(PARAMS, mode, zs)
            assert cap.shape == zs.shape
            assert cap.tolist() == [[capacity_cdf(PARAMS, mode, float(z)) for z in row]
                                    for row in zs]
            for cdf_of, x in ((service_cdf, 1e-3), (capacity_cdf, 1e8)):
                scalar = cdf_of(PARAMS, mode, x)
                assert type(scalar) is float
                zero_d = cdf_of(PARAMS, mode, np.array(x))
                assert np.shape(zero_d) == () and zero_d == scalar


def _adaptive_inner_integral(params, z):
    """P(C1 + C2 <= z) from the scalar adaptive integral over the proprietary
    level that the tanh-sinh rule replaced."""
    coeff = analytic._band_law(params, ServiceMode.PROPRIETARY_ONLY)[2]
    shared_tail = analytic._band_tail(analytic._band_law(params, ServiceMode.SHARED_ONLY))
    scale = params.b_m / math.log(2.0)
    level = min(analytic._LEVEL_MAX, coeff * math.expm1(z / scale))
    return integrate(lambda x: (1.0 - shared_tail(z - scale * math.log1p(x / coeff)))
                     * math.exp(-x), 0.0, level)


# box scenarios (numpy seed 2027) where the shared CDF steps sharply inside
# the level range (z / B_h of 74, 438 and 1151): the rule needs steps down to
# 1/128, 1/256 and 1/128; steps 1/8 and 1/16 alone are 1e-5 to 3e-4 off, so
# only the finer steps meet the tolerance
SHARP_STEP_SCENARIOS = [
    (dict(alpha=2.4779, t_out=1.5906e-3, lambda_h=2.0893e-6, b_h=5.8039e6, b_m=1.4114e8,
          n_m=144, noise_psd=1.2543e-10, y0=2.3545), 4.2939e8),
    (dict(alpha=5.2650, t_out=1.7777e-3, lambda_h=5.8164e-6, b_h=3.9049e6, b_m=8.1665e8,
          n_m=124, noise_psd=3.9736e-12, y0=2.2943), 1.7108e9),
    (dict(alpha=4.6232, t_out=3.2421e-2, lambda_h=5.1029e-4, b_h=1.0132e6, b_m=7.8009e8,
          n_m=2, noise_psd=2.874e-14, y0=4.0701), 1.1659e9),
]


class TestCombinedInnerRule:
    @pytest.mark.parametrize("fraction", [1.0, 0.25, 0.0625])
    def test_catalog_scenario_matches_the_adaptive_integral(self, fraction):
        params = with_updates(PARAMS, **CATALOG_LINK_BUDGET)
        z = params.u_m * params.n_m / (fraction * params.t_out)
        assert capacity_cdf(params, ServiceMode.COMBINED, z) == pytest.approx(
            _adaptive_inner_integral(params, z), rel=10 * REL_TOL, abs=10 * ABS_TOL)

    @pytest.mark.parametrize("changes, z", SHARP_STEP_SCENARIOS,
                             ids=["z74bh", "z438bh", "z1151bh"])
    def test_sharp_shared_step_matches_the_adaptive_integral(self, changes, z):
        params = with_updates(PARAMS, **changes)
        assert capacity_cdf(params, ServiceMode.COMBINED, z) == pytest.approx(
            _adaptive_inner_integral(params, z), rel=10 * REL_TOL, abs=10 * ABS_TOL)


def _moments(params, mode):
    return truncated_service_moments(moment_key(params, mode), mode)


class TestTruncatedMoments:
    def test_instant_service_limit(self):
        fast = with_updates(PARAMS, p_m=1e30)
        tm = _moments(fast, ServiceMode.PROPRIETARY_ONLY)
        assert tm.m1 <= 1e-6 * PARAMS.t_out
        assert tm.m2 <= 1e-6 * PARAMS.t_out ** 2
        assert tm.fail_prob <= 1e-9

    @pytest.mark.parametrize("mode", [ServiceMode.PROPRIETARY_ONLY, ServiceMode.COMBINED])
    def test_noiseless_proprietary_band_serves_instantly(self, mode):
        # no noise: the proprietary capacity is infinite, so is the combined one
        tm = _moments(with_updates(PARAMS, noise_psd=0.0), mode)
        assert tm.fail_prob == 0.0
        for k, m in enumerate((tm.m1, tm.m2, tm.m3), start=1):
            assert 0.0 <= m <= 1e-12 * PARAMS.t_out ** k

    def test_never_completing_service_limit(self):
        stalled = with_updates(PARAMS, p_m=1e-30)
        tm = _moments(stalled, ServiceMode.PROPRIETARY_ONLY)
        assert tm.m1 == pytest.approx(PARAMS.t_out, rel=1e-9)
        assert tm.m2 == pytest.approx(PARAMS.t_out ** 2, rel=1e-9)
        assert tm.m3 == pytest.approx(PARAMS.t_out ** 3, rel=1e-9)
        assert tm.fail_prob == pytest.approx(1.0, abs=1e-12)

    def test_moment_invariants(self):
        for mode in ServiceMode:
            tm = _moments(PARAMS, mode)
            assert 0.0 <= tm.m1 <= PARAMS.t_out
            assert tm.m2 <= PARAMS.t_out * tm.m1
            assert tm.m3 <= PARAMS.t_out * tm.m2
            assert 0.0 <= tm.fail_prob <= 1.0

    def test_first_moment_against_sample_mean(self):
        tm = _moments(PARAMS, ServiceMode.PROPRIETARY_ONLY)
        delays = geometry.sample_service_delays(
            PARAMS, (ServiceMode.PROPRIETARY_ONLY,), 1_000_000,
            np.random.default_rng(43))[ServiceMode.PROPRIETARY_ONLY]
        sampled = float(np.minimum(delays, PARAMS.t_out).mean())
        assert sampled == pytest.approx(tm.m1, rel=0.005)

    def test_saturated_combined_service_misses_every_deadline(self):
        # 1e300 devices: no level of either band carries the load by t_out,
        # so every packet misses its deadline
        saturated = with_updates(PARAMS, n_m=10 ** 300)
        tm = _moments(saturated, ServiceMode.COMBINED)
        t = PARAMS.t_out
        assert tm == TruncatedMoments(t, t ** 2, t ** 3, 1.0)
        with pytest.raises(UnstableQueueError, match="load 1 >= 1"):
            delay_report(saturated, ServiceMode.COMBINED)

    def test_tiny_proprietary_band_leaves_combined_equal_to_shared(self):
        params = with_updates(PARAMS, **TINY_PROPRIETARY_BAND)
        combined = delay_report(params, ServiceMode.COMBINED)
        shared = delay_report(params, ServiceMode.SHARED_ONLY)
        assert combined.mean_service == pytest.approx(shared.mean_service, rel=1e-6)
        assert combined.fail_prob == pytest.approx(shared.fail_prob, rel=1e-6)
        assert combined.fail_prob != 0.0

    def test_drowned_shared_band_leaves_combined_equal_to_proprietary(self):
        # 2**e - 1 rounded the SINR threshold to 0 here, and inf * 0 gave nan
        params = with_updates(PARAMS, **DROWNED_SHARED_BAND)
        for mode in (ServiceMode.PROPRIETARY_ONLY, ServiceMode.COMBINED):
            assert delay_report(params, mode).mean_service == pytest.approx(
                0.002652529064876971, rel=1e-12)

    @pytest.mark.parametrize("b_m", [1e16, 1e30])
    def test_wideband_proprietary_limit(self, b_m):
        # B log2(1 + X / coeff) tends to X / (k ln2), with coeff = k B, so a
        # packet misses with probability 1 - exp(-k ln2 u_m n_m / t_out)
        params = with_updates(PARAMS, b_m=b_m)
        k = analytic._band_law(params, ServiceMode.PROPRIETARY_ONLY)[2] / b_m
        limit = -math.expm1(-k * math.log(2.0) * params.u_m * params.n_m / params.t_out)
        tm = _moments(params, ServiceMode.PROPRIETARY_ONLY)
        assert tm.fail_prob == pytest.approx(limit, rel=1e-6)

    @pytest.mark.parametrize("changes", [{}, TINY_PROPRIETARY_BAND],
                             ids=["defaults", "tiny_proprietary_band"])
    def test_combined_moments_dominated_by_each_band(self, changes):
        # C1 + C2 exceeds each band's capacity on every draw; the two sides are
        # separate quadratures, each good to REL_TOL
        params = with_updates(PARAMS, **changes)
        combined = _moments(params, ServiceMode.COMBINED)
        for band in (ServiceMode.SHARED_ONLY, ServiceMode.PROPRIETARY_ONLY):
            single = _moments(params, band)
            for name in ("m1", "m2", "m3", "fail_prob"):
                assert getattr(combined, name) <= getattr(single, name) * (1.0 + REL_TOL)


class TestMomentKey:
    """delay_report caches each mode's moments on moment_key(params, mode). A
    field the mode's law reads but the key drops would return another
    scenario's moments without any error; a field the key keeps but the law
    ignores would split the cache. The Monte Carlo oracle reads the scenario
    itself, so it says which fields the law reads."""

    @staticmethod
    def _perturbed(name):
        value = getattr(PARAMS, name)
        if value is None:  # epsilon; the moments take p_m_shared as given
            return 0.012
        return value + 1 if isinstance(value, int) else value * 1.5

    @staticmethod
    def _law(params, mode):
        """The mode's key, its uncached moments, and the oracle's view: the
        deadline and a seeded draw of the mode's service delays."""
        key = moment_key(params, mode)
        delays = geometry.sample_service_delays(params, (mode,), 1000,
                                                np.random.default_rng(7))[mode]
        return key, truncated_service_moments.__wrapped__(key, mode), (params.t_out, delays)

    @pytest.mark.parametrize("mode", list(ServiceMode), ids=lambda mode: mode.value)
    def test_key_moves_exactly_when_the_moments_and_the_oracle_do(self, mode):
        base_key, base_moments, (base_t_out, base_delays) = self._law(PARAMS, mode)
        for name in (f.name for f in fields(ScenarioParams)):
            key, moments, (t_out, delays) = self._law(
                replace(PARAMS, **{name: self._perturbed(name)}), mode)
            moved = key != base_key
            assert (moments != base_moments) == moved, name
            if name != "mc_radius":  # the oracle's disk; the closed forms cover the plane
                assert (t_out != base_t_out
                        or not np.array_equal(delays, base_delays)) == moved, name


def _as_lists(samples):
    return {mode: values.tolist() for mode, values in samples.items()}


# every public entry point that takes a mode, called with one mode
MODE_ENTRY_POINTS = {
    "moment_key": lambda mode: moment_key(PARAMS, mode),
    "delay_report": lambda mode: delay_report(PARAMS, mode),
    "capacity_cdf": lambda mode: capacity_cdf(PARAMS, mode, 1e8),
    "service_cdf": lambda mode: service_cdf(PARAMS, mode, 1e-3),
    "sample_capacities": lambda mode: _as_lists(geometry.sample_capacities(
        PARAMS, (mode,), 100, np.random.default_rng(1))),
    "sample_service_delays": lambda mode: _as_lists(geometry.sample_service_delays(
        PARAMS, (mode,), 100, np.random.default_rng(1))),
    "run_mg1": lambda mode: simulate.run_mg1(PARAMS, (mode,), 200, np.random.default_rng(1)),
    "run_mg1_detailed": lambda mode: simulate.run_mg1_detailed(PARAMS, mode, 200,
                                                                np.random.default_rng(1)),
    "SweepSpec": lambda mode: cli.SweepSpec("lambda_md", 20.0, 50.0, 2, modes=(mode,)),
}


@pytest.mark.parametrize("mode", list(ServiceMode), ids=lambda mode: mode.value)
@pytest.mark.parametrize("entry", MODE_ENTRY_POINTS)
def test_entry_points_take_a_mode_or_its_name_and_nothing_else(entry, mode):
    """A mode's name computes exactly that mode, with results keyed by
    ServiceMode; an unknown name is a ValueError, never another mode."""
    call = MODE_ENTRY_POINTS[entry]
    by_name = call(mode.value)
    assert by_name == call(mode)
    if isinstance(by_name, dict):
        assert list(by_name) == [mode]
    with pytest.raises(ValueError, match="'bogus'"):
        call("bogus")


class TestWaiting:
    def test_empty_queue(self):
        assert mg1_waiting(TruncatedMoments(0.01, 2e-4, 6e-6, 0.0), 0.0) == (0.0, 0.0)

    def test_deterministic_service_matches_md1(self):
        wt = mg1_waiting(TruncatedMoments(0.01, 1e-4, 1e-6, 0.0), 50.0)
        assert wt.mean == pytest.approx(5e-3, abs=1e-12)

    def test_exponential_service_matches_mm1(self):
        wt = mg1_waiting(TruncatedMoments(0.01, 2e-4, 6e-6, 0.0), 50.0)
        assert wt.mean == pytest.approx(0.01, abs=1e-12)
        # M/M/1 waiting: zero with prob 1-rho, else exponential(mu - lambda)
        assert wt.variance == pytest.approx(3e-4, abs=1e-12)

    def test_unstable_queue_is_named(self):
        with pytest.raises(UnstableQueueError, match="load"):
            mg1_waiting(TruncatedMoments(0.01, 2e-4, 6e-6, 0.0), 120.0)


class TestDelayReport:
    def test_no_arrivals_leaves_bare_service(self):
        idle = with_updates(PARAMS, lambda_md=0.0)
        tm = _moments(idle, ServiceMode.PROPRIETARY_ONLY)
        report = delay_report(idle, ServiceMode.PROPRIETARY_ONLY)
        assert report.mean_delay == tm.m1
        assert report.jitter == pytest.approx(tm.m2 - tm.m1 ** 2, rel=1e-12)
        assert report.mean_waiting == 0.0 and report.load == 0.0

    def test_combined_beats_proprietary(self):
        combined = delay_report(PARAMS, ServiceMode.COMBINED)
        proprietary = delay_report(PARAMS, ServiceMode.PROPRIETARY_ONLY)
        assert combined.mean_delay <= proprietary.mean_delay
        assert combined.jitter <= proprietary.jitter

    def test_consistency(self):
        report = delay_report(PARAMS, ServiceMode.SHARED_ONLY)
        assert report.mean_delay == pytest.approx(
            report.mean_service + report.mean_waiting, rel=1e-12)
        assert 0.0 < report.load < 1.0
        assert report.jitter >= 0.0

    def test_epsilon_governs_shared_power(self):
        # a loose tolerance clamps at p_max and must match the uncapped report
        loose = apply_power_budget(with_updates(PARAMS, epsilon=0.999))
        assert delay_report(loose, ServiceMode.SHARED_ONLY) == \
            delay_report(PARAMS, ServiceMode.SHARED_ONLY)
        # a tight (feasible) tolerance lowers the power and slows service
        floor = analytic.outage_no_sharing(PARAMS)
        tight = apply_power_budget(with_updates(
            PARAMS, epsilon=floor + 0.7 * (OUTAGE_SHARING_AT_DEFAULTS - floor)))
        assert delay_report(tight, ServiceMode.SHARED_ONLY).mean_service \
            > delay_report(PARAMS, ServiceMode.SHARED_ONLY).mean_service

    def test_unstable_arrivals_rejected(self):
        flooded = with_updates(PARAMS, lambda_md=1e6)
        with pytest.raises(UnstableQueueError):
            delay_report(flooded, ServiceMode.PROPRIETARY_ONLY)

    def test_delay_and_jitter_grow_with_arrivals(self):
        reports = [delay_report(with_updates(PARAMS, lambda_md=lam),
                                ServiceMode.PROPRIETARY_ONLY)
                   for lam in np.linspace(20.0, 200.0, 10)]
        delays = [r.mean_delay for r in reports]
        jitters = [r.jitter for r in reports]
        assert all(b > a for a, b in zip(delays, delays[1:]))
        assert all(b > a for a, b in zip(jitters, jitters[1:]))

    def test_epsilon_sweep_shape(self):
        # decreasing until the p_max clamp binds, exactly stable afterwards
        floor = analytic.outage_no_sharing(PARAMS)
        values = []
        for eps in np.linspace(floor * 1.05, 0.03, 12):
            scenario = with_updates(PARAMS, epsilon=float(eps))
            values.append((max_mbs_power(scenario) >= PARAMS.p_max,
                           delay_report(apply_power_budget(scenario),
                                        ServiceMode.SHARED_ONLY).mean_delay))
        unclamped = [v for c, v in values if not c]
        clamped = [v for c, v in values if c]
        assert len(unclamped) >= 2 and len(clamped) >= 2
        assert all(b < a for a, b in zip(unclamped, unclamped[1:]))
        assert max(clamped) - min(clamped) <= 1e-6 * clamped[0]


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


# the scenario box of the robustness fuzz: every link-budget knob over decades
_FUZZ_SCENARIOS = st.builds(
    lambda **changes: with_updates(PARAMS, **changes),
    alpha=_log_uniform(2.05, 6.0), t_out=_log_uniform(1e-3, 0.1),
    lambda_h=_log_uniform(1e-6, 1e-3), b_h=_log_uniform(1e6, 1e8),
    b_m=_log_uniform(1e6, 1e9), n_m=_log_uniform(1.0, 1000.0).map(round),
    noise_psd=_log_uniform(1e-21, 1e-8), y0=_log_uniform(1.0, 100.0))


def _assert_band_invariants(params, rates, combined):
    """The combined capacity CDF at the rates, against the band laws. C1 + C2
    is at least either band's capacity, so its CDF is at most either band's;
    and C1 + C2 <= z whenever C1 <= a z and C2 <= (1 - a) z, so by
    independence its CDF is at least the product of those CDFs, at every
    split a."""
    shared = lambda z: capacity_cdf(params, ServiceMode.SHARED_ONLY, z)
    proprietary = lambda z: capacity_cdf(params, ServiceMode.PROPRIETARY_ONLY, z)
    assert np.all(combined <= np.minimum(shared(rates), proprietary(rates))
                  * (1.0 + REL_TOL) + ABS_TOL)
    for a in (0.25, 0.5, 0.75):
        bound = shared(a * rates) * proprietary((1.0 - a) * rates)
        assert np.all(combined >= bound - (REL_TOL * bound + ABS_TOL))


def _assert_finite_or_typed_failure(params, mode):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ts = np.geomspace(params.t_out * 1e-4, params.t_out, 50)
        cdf = service_cdf(params, mode, ts)
        assert np.all((cdf >= 0.0) & (cdf <= 1.0))
        assert np.all(np.diff(cdf) >= 0.0)
        if mode is ServiceMode.COMBINED:
            _assert_band_invariants(params, params.u_m * params.n_m / ts, 1.0 - cdf)
        try:
            report = delay_report(params, mode)
        except (UnstableQueueError, QuadratureError):
            return
    assert all(math.isfinite(value) for value in vars(report).values())
    assert 0.0 <= report.mean_service <= params.t_out
    assert 0.0 <= report.mean_waiting and report.jitter >= 0.0
    assert report.mean_delay == report.mean_service + report.mean_waiting
    assert 0.0 <= report.load < 1.0 and 0.0 <= report.fail_prob <= 1.0


@settings(max_examples=200, deadline=None)
@given(_FUZZ_SCENARIOS, st.sampled_from([ServiceMode.SHARED_ONLY,
                                         ServiceMode.PROPRIETARY_ONLY]))
def test_single_band_closed_forms_are_finite_or_typed_failures(params, mode):
    _assert_finite_or_typed_failure(params, mode)


@settings(max_examples=200, deadline=None)
@given(_FUZZ_SCENARIOS)
def test_combined_closed_forms_are_finite_or_typed_failures(params):
    _assert_finite_or_typed_failure(params, ServiceMode.COMBINED)
