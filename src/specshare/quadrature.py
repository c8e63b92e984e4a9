"""Numerical integration primitives.

Wraps adaptive Gauss-Kronrod quadrature (QUADPACK via scipy) behind a small
contract used by every closed-form delay expression: plain integrals and
CDF-moment integrals over the deadline window. The capacity-distribution
convolution over an exponential level uses a nested tanh-sinh rule over numpy
arrays instead (Takahasi & Mori, Publ. RIMS 9(3), 1974).
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np
from scipy import integrate as _scipy_integrate

# adaptive quadrature tolerances and subdivision limit, shared by every integral
REL_TOL = 1e-8
ABS_TOL = 1e-12
MAX_SUBDIVISIONS = 2000

# the tanh-sinh rule: the trapezoid rule in t, x(t) = (1 + tanh(pi/2 sinh t)) / 2
# on [0, 1], over |t| <= _TS_T_MAX (the weights beyond are below 1e-16); level 0
# has step 1/8, and each further level halves it, down to 1/512
_TS_T_MAX = 3.25
_TS_STEP = 0.125
_TS_LEVELS = 7


class QuadratureError(RuntimeError):
    """Quadrature failed to converge within the allowed subdivisions or steps."""


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """Adaptive estimate of the integral of f over [a, b].

    Raises QuadratureError instead of silently returning a low-quality
    estimate when the adaptive subdivision gives up.
    """
    if a == b:
        return 0.0
    if a > b:
        raise ValueError(f"integration bounds out of order: {a} > {b}")
    result = _scipy_integrate.quad(
        f, a, b,
        epsabs=ABS_TOL, epsrel=REL_TOL, limit=MAX_SUBDIVISIONS, full_output=True,
    )
    if len(result) > 3:
        raise QuadratureError(" ".join(str(result[3]).split()))  # one-line message
    return float(result[0])


def cdf_moment_integrals(F: Callable[[float], float],
                         t_out: float) -> tuple[float, float, float]:
    """Integrals of F, t*F, and t^2*F over [0, t_out].

    These are exactly the terms subtracted from t_out^k in the truncated
    service-delay moments. The three rules visit mostly the same nodes, so F
    is evaluated once per distinct node; F must be deterministic.
    """
    if t_out <= 0:
        raise ValueError(f"t_out must be positive, got {t_out}")
    F = functools.cache(F)  # lives for this call only
    i1 = integrate(F, 0.0, t_out)
    i2 = integrate(lambda t: t * F(t), 0.0, t_out)
    i3 = integrate(lambda t: t * t * F(t), 0.0, t_out)
    return i1, i2, i3


def _tanh_sinh_level(step: float, new_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Nodes on [0, 1] at the multiples of step, or at its odd multiples, the
    nodes new at that step; their weights are step * dx/dt."""
    k = np.arange(-round(_TS_T_MAX / step), round(_TS_T_MAX / step) + 1)
    t = (k[k % 2 == 1] if new_only else k) * step
    u = 0.5 * math.pi * np.sinh(t)
    return 1.0 / (1.0 + np.exp(-2.0 * u)), step * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2


def _tanh_sinh_rule() -> list[tuple[np.ndarray, np.ndarray]]:
    """The nodes of each pass and their weights. The first pass takes steps 1/8
    and 1/16 together, with one column of weights per step; each later pass
    halves the step."""
    nodes0, weights0 = _tanh_sinh_level(_TS_STEP, new_only=False)
    nodes1, weights1 = _tanh_sinh_level(_TS_STEP / 2, new_only=True)
    first = (np.concatenate((nodes0, nodes1)),
             np.column_stack((np.concatenate((weights0, np.zeros_like(weights1))),
                              np.concatenate((0.5 * weights0, weights1)))))
    return [first] + [_tanh_sinh_level(_TS_STEP / 2 ** level, new_only=True)
                      for level in range(2, _TS_LEVELS)]


_TS_PASSES = _tanh_sinh_rule()


def convolve_cdf_pdf(F1: Callable[[np.ndarray], np.ndarray],
                     rate_of_level: Callable[[np.ndarray], np.ndarray],
                     z: float, level_max: float) -> float:
    """CDF at z of C1 + C2 for independent nonnegative C1 and C2, where C1 has
    CDF F1 and C2 = rate_of_level(X) is increasing in an Exp(1) level X.

    Evaluates the integral over x in [0, level_max] of F1(z - rate_of_level(x))
    * e^(-x): the convolution of F1 with C2's law, written over C2's level.
    The caller passes as level_max the level at which C2 reaches z, capped
    where the e^(-x) mass beyond it is negligible. F1 and rate_of_level map
    numpy arrays elementwise.

    The tanh-sinh rule takes steps 1/8 and 1/16 in one pass; while the last two
    steps disagree by more than REL_TOL (ABS_TOL near 0), the step halves
    again. Raises QuadratureError past step 1/512. Each estimate is the rule's
    ratio of the integral to that of e^(-x) alone, times the exact Exp(1) mass
    below level_max: where F1 is 1 the rule gives that mass to the bit, so the
    rule's rounding does not show in a CDF that is 1 to double precision.
    """
    if level_max <= 0.0:
        return 0.0
    mass = -math.expm1(-level_max)  # of the Exp(1) level below level_max

    def sums(nodes, weights):  # of the integrand and of e^(-x) alone
        x = level_max * nodes
        density = np.exp(-x)
        return np.stack((density * F1(z - rate_of_level(x)), density)) @ weights

    first, *finer = _TS_PASSES
    totals = sums(*first)  # columns: steps 1/8 and 1/16
    previous, value = (mass * totals[0] / totals[1]).tolist()
    totals, step, finer = totals[:, 1], _TS_STEP / 2, iter(finer)
    while not abs(value - previous) <= max(REL_TOL * abs(value), ABS_TOL):  # nan refines
        level = next(finer, None)
        if level is None:
            raise QuadratureError(
                f"tanh-sinh rule did not converge at z = {z!r}: steps {2 * step:g} and "
                f"{step:g} differ by {abs(value - previous):.3g}")
        step /= 2
        totals = 0.5 * totals + sums(*level)
        previous, value = value, mass * float(totals[0] / totals[1])
    return min(1.0, max(0.0, value))
