import math

import numpy as np
from scipy import integrate, stats

from specshare.geometry import (
    sample_capacities,
    sample_interference_batch,
    sample_service_delays,
)
from specshare.model import ScenarioParams, ServiceMode, validate, with_updates

PARAMS = validate(ScenarioParams())


def test_interference_batch_zero_density_is_zero():
    field = sample_interference_batch(1.0, 0.0, 1000.0, 4.0, 100, np.random.default_rng(0))
    assert field.shape == (100,) and np.all(field == 0.0)


def test_interference_batch_mean_point_count():
    # with alpha = 0 every point contributes its unit-mean fading gain, so the
    # field is compound Poisson: mean lambda pi R^2, variance twice that
    n = 4000
    field = sample_interference_batch(1.0, 1e-4, 1000.0, 0.0, n, np.random.default_rng(1))
    expected = 1e-4 * math.pi * 1000.0 ** 2
    assert abs(field.mean() - expected) <= 3 * math.sqrt(2 * expected / n)


def test_interference_batch_superposition():
    # two independent fields superpose to one field of the summed density
    rng = np.random.default_rng(3)
    split = sample_interference_batch(1.0, 4e-5, 500.0, 4.0, 5000, rng) \
        + sample_interference_batch(1.0, 6e-5, 500.0, 4.0, 5000, rng)
    merged = sample_interference_batch(1.0, 1e-4, 500.0, 4.0, 5000, rng)
    assert stats.ks_2samp(split, merged).pvalue > 0.01


def test_interference_batch_laplace_functional():
    # PGFL of a PPP on a disk with unit-mean exponential fading:
    # E[exp(-s I)] = exp(-2 pi lambda int_0^R r sP r^-a / (1 + sP r^-a) dr);
    # s is chosen so that the transform sits near 0.5
    power, density, radius, alpha, s = 1.0, 1e-4, 300.0, 4.0, 2e6
    field = sample_interference_batch(power, density, radius, alpha, 50_000,
                                      np.random.default_rng(12))
    samples = np.exp(-s * field)
    integral, _ = integrate.quad(lambda r: r / (1.0 + r ** alpha / (s * power)),
                                 0.0, radius)
    expected = math.exp(-2.0 * math.pi * density * integral)
    assert 0.4 < expected < 0.6
    std_error = samples.std(ddof=1) / math.sqrt(samples.size)
    assert abs(samples.mean() - expected) <= 3 * std_error


def test_combined_never_slower_than_shared_on_common_field():
    # one call draws each band once, so combined adds the proprietary band to
    # the very shared-band field the shared mode sees
    n = 20_000
    delays = sample_service_delays(PARAMS, (ServiceMode.SHARED_ONLY, ServiceMode.COMBINED),
                                   n, np.random.default_rng(77))
    assert np.all(delays[ServiceMode.COMBINED] <= delays[ServiceMode.SHARED_ONLY])


def test_combined_capacity_is_the_sum_of_its_bands():
    caps = sample_capacities(PARAMS, tuple(ServiceMode), 1000, np.random.default_rng(11))
    assert np.array_equal(caps[ServiceMode.COMBINED],
                          caps[ServiceMode.SHARED_ONLY] + caps[ServiceMode.PROPRIETARY_ONLY])


def test_service_delays_positive():
    delays = sample_service_delays(PARAMS, (ServiceMode.PROPRIETARY_ONLY,), 10_000,
                                   np.random.default_rng(10))[ServiceMode.PROPRIETARY_ONLY]
    assert np.all(delays > 0.0)


def test_capacity_draw_order_is_seed_stable():
    a = sample_capacities(PARAMS, (ServiceMode.COMBINED,), 1000,
                          np.random.default_rng(13))[ServiceMode.COMBINED]
    b = sample_capacities(PARAMS, (ServiceMode.COMBINED,), 1000,
                          np.random.default_rng(13))[ServiceMode.COMBINED]
    assert np.array_equal(a, b)


def test_zero_density_leaves_noise_limited_network():
    quiet = with_updates(PARAMS, lambda_h=0.0)
    delays = sample_service_delays(quiet, (ServiceMode.SHARED_ONLY,), 1000,
                                   np.random.default_rng(14))[ServiceMode.SHARED_ONLY]
    assert np.all(np.isfinite(delays))
