import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from specshare import analytic, geometry
from specshare.model import ScenarioParams, ServiceMode, validate
from specshare.quadrature import (
    REL_TOL,
    QuadratureError,
    cdf_moment_integrals,
    convolve_cdf_pdf,
    integrate,
)

PARAMS = validate(ScenarioParams())


def test_integrate_polynomial():
    assert integrate(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_integrate_sine():
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-10)


def test_integrate_empty_interval():
    assert integrate(math.sin, 1.0, 1.0) == 0.0


def test_integrate_rejects_reversed_bounds():
    with pytest.raises(ValueError):
        integrate(math.sin, 1.0, 0.0)


def test_integrate_reports_non_convergence():
    with pytest.raises(QuadratureError):
        integrate(lambda x: 1.0 / x, 0.0, 1.0)  # divergent at the origin


def test_service_cdf_integral_matches_dense_riemann_sum():
    # independent oracle: 1e7-point midpoint Riemann sum of the proprietary
    # service-delay CDF over the deadline window
    t_out = PARAMS.t_out
    n = 10_000_000
    midpoints = (np.arange(n) + 0.5) * (t_out / n)
    riemann = float(np.sum(analytic.service_cdf(
        PARAMS, ServiceMode.PROPRIETARY_ONLY, midpoints))) * (t_out / n)
    adaptive = integrate(
        lambda t: float(analytic.service_cdf(PARAMS, ServiceMode.PROPRIETARY_ONLY, t)),
        0.0, t_out)
    assert adaptive == pytest.approx(riemann, rel=1e-8)


def test_cdf_moment_integrals_constant_one():
    t_out = 0.01
    i1, i2, i3 = cdf_moment_integrals(lambda t: 1.0, t_out)
    assert i1 == pytest.approx(t_out, rel=1e-12)
    assert i2 == pytest.approx(t_out ** 2 / 2, rel=1e-12)
    assert i3 == pytest.approx(t_out ** 3 / 3, rel=1e-12)


def test_cdf_moment_integrals_constant_zero():
    assert cdf_moment_integrals(lambda t: 0.0, 0.01) == (0.0, 0.0, 0.0)


def test_cdf_moment_integrals_linear_cdf():
    i1, i2, i3 = cdf_moment_integrals(lambda t: t, 1.0)
    assert (i1, i2, i3) == pytest.approx((0.5, 1.0 / 3.0, 0.25), rel=1e-10)


def test_cdf_moment_integrals_ordering():
    # I2 <= t_out * I1 and I3 <= t_out * I2 for any CDF-like integrand
    F = lambda t: float(analytic.service_cdf(PARAMS, ServiceMode.PROPRIETARY_ONLY, t))
    t_out = PARAMS.t_out
    i1, i2, i3 = cdf_moment_integrals(F, t_out)
    assert i2 <= t_out * i1 * (1 + 1e-12)
    assert i3 <= t_out * i2 * (1 + 1e-12)


def test_cdf_moment_integrals_evaluates_each_node_once():
    # the three rules share most nodes; each distinct t costs one combined-mode
    # convolution, and sharing must not change a bit of the three integrals
    F = analytic._service_cdf(analytic.moment_key(PARAMS, ServiceMode.COMBINED))
    nodes = []

    def counted(t):
        nodes.append(t)
        return F(t)

    t_out = PARAMS.t_out
    shared = cdf_moment_integrals(counted, t_out)
    assert len(nodes) == len(set(nodes))
    assert shared == (integrate(F, 0.0, t_out),
                      integrate(lambda t: t * F(t), 0.0, t_out),
                      integrate(lambda t: t * t * F(t), 0.0, t_out))


@settings(max_examples=20, deadline=None)
@given(st.floats(-3, 3), st.floats(-3, 3))
def test_integrate_linearity(a, b):
    f = lambda x: x * x
    g = lambda x: math.cos(3.0 * x)
    combined = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0)
    separate = a * integrate(f, 0.0, 2.0) + b * integrate(g, 0.0, 2.0)
    scale = max(abs(combined), abs(separate), 1.0)
    assert abs(combined - separate) <= 10 * REL_TOL * scale


def test_convolve_zero_argument():
    # a zero level: C2 already exceeds z at level 0
    assert convolve_cdf_pdf(lambda t: 1.0, lambda x: x, 0.0, 0.0) == 0.0


def test_convolve_with_saturated_cdf_returns_pdf_mass():
    # F1 == 1 turns the convolution into the plain Exp(1) mass below the level
    value = convolve_cdf_pdf(lambda t: 1.0, lambda x: x, 20.0, 20.0)
    assert value == pytest.approx(-math.expm1(-20.0), rel=1e-12)


@pytest.mark.parametrize("z", [0.01, 0.3, 1.0, 4.0, 12.0])
def test_convolve_matches_hypoexponential_cdf(z):
    # closed form: C1 ~ Exp(a) and C2 = X / b ~ Exp(b), so C1 + C2 is
    # hypoexponential; C2 reaches z at level b z
    a, b = 2.0, 3.0
    F1 = lambda t: np.where(t > 0.0, -np.expm1(-a * t), 0.0)
    value = convolve_cdf_pdf(F1, lambda x: x / b, z, min(50.0, b * z))
    exact = 1.0 - (b * math.exp(-a * z) - a * math.exp(-b * z)) / (b - a)
    assert value == pytest.approx(exact, rel=10 * REL_TOL)


def test_convolve_reports_non_convergence():
    # a jump inside the level range: the step stops at 1/512 without agreement
    F1 = lambda t: np.where(t > 0.123456789, 1.0, 0.0)
    with pytest.raises(QuadratureError, match="did not converge"):
        convolve_cdf_pdf(F1, lambda x: x, 1.0, 1.0)


def test_convolve_turns_nan_into_a_typed_failure():
    with pytest.raises(QuadratureError):
        convolve_cdf_pdf(lambda t: np.full_like(t, math.nan), lambda x: x, 1.0, 1.0)


def test_convolve_monotone_and_bounded():
    zs = np.linspace(1e6, 1e9, 60)
    values = analytic.capacity_cdf(PARAMS, ServiceMode.COMBINED, zs).tolist()
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a - 1e-10 for a, b in zip(values, values[1:]))


def test_convolve_matches_capacity_sum_samples():
    # Monte Carlo oracle: empirical CDF of sampled shared + proprietary
    # capacity sums against the convolution integral
    rng = np.random.default_rng(2024)
    capacities = geometry.sample_capacities(PARAMS, (ServiceMode.COMBINED,), 100_000,
                                            rng)[ServiceMode.COMBINED]
    ordered = np.sort(capacities)
    zs = np.quantile(capacities, np.linspace(0.001, 0.999, 400))
    empirical = np.searchsorted(ordered, zs, side="right") / ordered.size
    worst = np.max(np.abs(analytic.capacity_cdf(PARAMS, ServiceMode.COMBINED, zs) - empirical))
    assert worst <= 0.01
