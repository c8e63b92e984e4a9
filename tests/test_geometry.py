import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, stats

from specshare import geometry
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


def _materialising_reference(power, density, radius, alpha, n, rng):
    # the sampler as it was before it worked in pieces: every point of a chunk
    # at once, summed per field in point order by bincount
    mean_count = density * math.pi * radius * radius
    per_chunk = max(1, int(geometry._CHUNK_POINTS / max(mean_count, 1.0)))
    out = np.empty(n)
    for start in range(0, n, per_chunk):
        m = min(per_chunk, n - start)
        counts = rng.poisson(mean_count, size=m)
        total = int(counts.sum())
        radii = radius * np.sqrt(rng.random(total))
        gains = rng.exponential(size=total)
        with np.errstate(divide="ignore"):
            contrib = power * radii ** (-alpha) * gains
        owners = np.repeat(np.arange(m), counts)
        out[start:start + m] = np.bincount(owners, weights=contrib, minlength=m)
    return out


_DEFAULT_FIELD = (PARAMS.p_h, PARAMS.lambda_h, PARAMS.mc_radius, PARAMS.alpha)


@pytest.mark.parametrize("field, n, piece_points, half_output", [
    (_DEFAULT_FIELD, 20_000, None, False),
    ((1.0, 0.0, 1000.0, 4.0), 100, None, False),
    ((1.0, 0.3 / (math.pi * 1000.0 ** 2), 1000.0, 4.0), 20_000, None, False),  # ~0.3 a field
    (_DEFAULT_FIELD, 200, 7, False),  # every field straddles many pieces
    (_DEFAULT_FIELD, 200, None, True),
], ids=["default", "zero-density", "sparse", "denser-than-a-piece", "buffered-32-bit-half"])
def test_interference_batch_matches_materialising_reference(monkeypatch, field, n,
                                                            piece_points, half_output):
    # the same draws in the same order: each contribution is bit-identical,
    # and only the per-field sums differ, pairwise against sequential
    if piece_points is not None:
        monkeypatch.setattr(geometry, "_PIECE_POINTS", piece_points)
    rng, reference_rng = np.random.default_rng(21), np.random.default_rng(21)
    if half_output:  # a float32 draw leaves half of a 64-bit output buffered
        for generator in (rng, reference_rng):
            generator.random(dtype=np.float32)
    np.testing.assert_allclose(sample_interference_batch(*field, n, rng),
                               _materialising_reference(*field, n, reference_rng),
                               rtol=1e-12, atol=0)
    if not half_output:  # the sampler's advance() drops a buffered half
        assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(rng.random(8), reference_rng.random(8))


@pytest.mark.parametrize("density, n", [
    (PARAMS.lambda_h, 20_000),
    (3e5 / (math.pi * PARAMS.mc_radius ** 2), 20),  # ~3e5 points a field
], ids=["default", "dense"])
def test_interference_batch_memory_is_bounded(density, n):
    tracemalloc.start()
    try:
        sample_interference_batch(PARAMS.p_h, density, PARAMS.mc_radius, PARAMS.alpha, n,
                                  np.random.default_rng(22))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_field_budget_is_checked_before_any_draw():
    # 1e12 BSs/m^2 put about 3e18 points in each field of a 1000 m disk
    rng = np.random.default_rng(23)
    state = rng.bit_generator.state
    with pytest.raises(geometry.FieldBudgetError, match=r"\(3\.14e\+19 points\)"):
        sample_interference_batch(1.0, 1e12, 1000.0, 4.0, 10, rng)
    assert rng.bit_generator.state == state
    assert issubclass(geometry.FieldBudgetError, ValueError)


def test_given_fields_serve_the_leading_shared_band_packets():
    # a field of infinite power jams exactly the packets that read it, in order
    shared = ServiceMode.SHARED_ONLY
    fields = np.concatenate((np.full(300, np.inf), np.zeros(700)))
    caps = sample_capacities(PARAMS, (shared,), 1000, np.random.default_rng(24),
                             fields)[shared]
    assert np.all(caps[:300] == 0.0) and np.all(caps[300:] > 0.0)
    fewer = sample_capacities(PARAMS, (shared,), 100, np.random.default_rng(24),
                              fields)[shared]
    assert np.all(fewer == 0.0)
    # fewer fields than packets: no packet draws a field of its own
    with pytest.raises(ValueError, match="1000 interferer fields given for 1001 packets"):
        sample_capacities(PARAMS, (shared,), 1001, np.random.default_rng(24), fields)


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
