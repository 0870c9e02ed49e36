import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy import special

from betaone.ginibre import hermite_recurrence
from betaone.quadrature import (
    ORDER,
    QuadratureError,
    gauss_legendre_rule,
    integrate_line,
    legendre_recurrence,
    panel_rule,
    reference_rule,
    truncation_radius,
)
from betaone.specfun import weighted_powers

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_rule_integrates_constants_exactly():
    x, w = gauss_legendre_rule(8, -1.5, 2.25)
    assert np.isclose(w @ np.ones_like(x), 3.75, rtol=0, atol=1e-12)
    # integrate_line broadcasts a scalar integrand over its nodes
    assert np.isclose(integrate_line(lambda x: 1.0), 2.0 * truncation_radius(0), rtol=1e-15, atol=0)


def test_rule_invariants():
    x, w = gauss_legendre_rule(12, 0.0, 1.0)
    assert x.size == 12
    assert np.all(w > 0.0)


def test_composite_rule_concatenates_panels():
    # arrays of panel ends give the panels' rules in order, each bit for
    # bit the rule built on that panel alone
    x, w = gauss_legendre_rule(6, [-2.0, 0.5], [0.5, 3.0])
    assert x.size == 12
    assert np.all(np.diff(x) > 0.0) and -2.0 < x[0] and x[-1] < 3.0
    assert np.isclose(w @ x, 0.5 * (9.0 - 4.0), rtol=0, atol=1e-12)
    for k, (a, b) in enumerate([(-2.0, 0.5), (0.5, 3.0)]):
        nodes, weights = gauss_legendre_rule(6, a, b)
        assert np.array_equal(x[6 * k : 6 * k + 6], nodes)
        assert np.array_equal(w[6 * k : 6 * k + 6], weights)


def test_truncation_radius_bounds_weighted_tail():
    for degree in [0, 4, 12, 30]:
        T = truncation_radius(degree)
        assert T ** degree * math.exp(-0.5 * T * T) < 1e-14


def test_gaussian_integral():
    value = integrate_line(lambda x: np.exp(-0.5 * x * x))
    assert np.isclose(value, SQRT_2PI, rtol=0, atol=1e-12)


def test_gaussian_second_moment():
    value = integrate_line(lambda x: x * x * np.exp(-0.5 * x * x), degree=2)
    assert np.isclose(value, SQRT_2PI, rtol=0, atol=1e-12)


def test_sign_kink_with_breakpoint_matches_erf_form():
    a = 0.3
    value = integrate_line(
        lambda x: np.sign(x - a) * np.exp(-0.5 * x * x), breakpoints=[a]
    )
    expected = -SQRT_2PI * special.erf(a / math.sqrt(2.0))
    assert np.isclose(value, expected, rtol=0, atol=1e-12)


def test_breakpoint_keeps_smooth_convergence_rate():
    # with the kink isolated at a panel edge the coarsest refinement
    # level already resolves the integral to near machine precision
    a = -0.7
    expected = SQRT_2PI * special.erf(a / math.sqrt(2.0))
    x, w = gauss_legendre_rule(32, [-truncation_radius(0), a], [a, truncation_radius(0)])
    value = w @ (np.sign(a - x) * np.exp(-0.5 * x * x))
    assert np.isclose(value, expected, rtol=0, atol=1e-13)


def test_linearity_on_random_weighted_polynomials():
    rng = np.random.default_rng(20240817)
    for _ in range(10):
        c1 = rng.normal(size=4)
        c2 = rng.normal(size=3)
        alpha, beta = rng.normal(size=2)
        f = lambda x: np.polyval(c1, x) * np.exp(-0.5 * x * x)
        g = lambda x: np.polyval(c2, x) * np.exp(-0.5 * x * x)
        combined = integrate_line(lambda x: alpha * f(x) + beta * g(x), degree=4)
        separate = alpha * integrate_line(f, degree=4) + beta * integrate_line(g, degree=4)
        assert np.isclose(combined, separate, rtol=1e-12, atol=1e-12)


def test_stacked_integrand_reads_each_component_as_alone():
    # the nodes on the last axis: refinement goes on until the slowest
    # component agrees, and every component reads exactly its own sum on
    # that partition, which is where the slowest one stops on its own
    a = 0.3
    components = (
        lambda x: np.exp(-0.5 * x * x),
        lambda x: np.sign(x - a) * x**3 * np.exp(-0.5 * x * x),
        lambda x: np.cos(9.0 * x) * np.exp(-0.5 * x * x),
    )
    sizes = []

    def stacked(x):
        sizes.append(x.size)
        return np.array([f(x) for f in components])

    values = integrate_line(stacked, breakpoints=[a], degree=3)
    assert values.shape == (3,) and len(sizes) > 2
    T = truncation_radius(3)
    x, w = panel_rule((-T, a, T), sizes[-1] // (2 * ORDER))
    for f, value in zip(components, values):
        assert value == (f(x) * w).sum()
    assert values[2] == integrate_line(components[2], breakpoints=[a], degree=3)
    assert np.isclose(values[0], SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(values[2], SQRT_2PI * math.exp(-40.5), rtol=1e-9, atol=1e-15)


def test_undeclared_kink_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate_line(
            lambda x: np.sign(x - 0.3) * np.exp(-0.5 * x * x), tol=1e-13
        )
    err = info.value
    expected = -SQRT_2PI * special.erf(0.3 / math.sqrt(2.0))
    assert abs(err.estimate - expected) < 0.05
    assert err.error > 1e-13


def test_panel_rule_splits_every_segment_evenly():
    x, w = panel_rule((-2.0, 0.5, 3.0), 4)
    assert x.size == 8 * ORDER
    assert np.all(np.diff(x) > 0.0)
    assert np.isclose(w.sum(), 5.0, rtol=1e-15, atol=0)


def polished_rule(nodes, step):
    """50-digit nodes and weights from double nodes by two Newton steps;
    step(x) gives the rule's P_n(x) / P_n'(x) and its weight at x."""
    with mpmath.workdps(50):
        rule = []
        for x in map(mpmath.mpf, nodes):
            for _ in range(2):
                x -= step(x)[0]
            rule.append((x, step(x)[1]))
        return rule


def legendre_step(n):
    # P_{k+1} = ((2k + 1) x P_k - k P_{k-1}) / (k + 1); w = 2 / ((1 - x^2) P_n'^2)
    def step(x):
        p, q, dp, dq = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for k in range(n):
            p, q, dp, dq = q, ((2 * k + 1) * x * q - k * p) / (k + 1), dq, ((2 * k + 1) * (q + x * dq) - k * dp) / (k + 1)
        return q / dq, 2 / ((1 - x * x) * dq * dq)

    return step


def hermite_step(n):
    # H_{k+1} = 2x H_k - 2k H_{k-1}; w e^{x^2} = 2^{n+1} n! sqrt(pi) e^{x^2} / H_n'^2
    def step(x):
        p, q, dp, dq = mpmath.mpf(0), mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0)
        for k in range(n):
            p, q, dp, dq = q, 2 * x * q - 2 * k * p, dq, 2 * q + 2 * x * dq - 2 * k * dp
        return q / dq, 2 ** (n + 1) * mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) * mpmath.exp(x * x) / (dq * dq)

    return step


def rule_errors(rule, x, w):
    # worst node error and worst relative weight error against the polished rule
    node = max(abs(float(X - a)) for (X, _), a in zip(rule, x))
    weight = max(abs(float(mpmath.mpf(b) / W - 1)) for (_, W), b in zip(rule, w))
    return node, weight


def test_legendre_rule_against_high_precision_oracle():
    # nodes within an ulp of 1, and weights no worse than numpy's leggauss,
    # which the recurrence rule replaced
    for n in (24, 32):
        x, w = reference_rule(legendre_recurrence, n)
        rule = polished_rule(x, legendre_step(n))
        node, weight = rule_errors(rule, x, w)
        numpy_node, numpy_weight = rule_errors(rule, *leggauss(n))
        assert node <= np.finfo(float).eps, n
        assert weight <= numpy_weight, (n, weight, numpy_weight)
        assert weight <= 3e-14, n


def hermite_defect(x, scaled):
    # worst |G - 1| of the Gram of the normalized Hermite rows under the rule
    rows = weighted_powers(len(x), x, np.exp(-0.5 * x * x), 0.5)
    return np.abs((rows * scaled[:, None]).T @ rows / math.sqrt(math.pi) - np.eye(len(x))).max()


def test_hermite_rule_against_high_precision_oracle():
    # the weights times e^{x^2}, as ginibre.plane_gram takes them, against
    # numpy's hermgauss, which the recurrence rule replaced: at a few nodes
    # either may win by a unit in the last place, so the worst readings over
    # sizes up to 128 are compared, relative weights and the orthonormality
    # defect of the Hermite rows
    errors, numpy_errors = [], []
    for n in (8, 16, 32, 64, 96, 128):
        x, scaled = reference_rule(hermite_recurrence, n)
        numpy_x, numpy_w = hermgauss(n)
        numpy_scaled = [mpmath.mpf(b) * mpmath.exp(mpmath.mpf(a) ** 2) for a, b in zip(numpy_x, numpy_w)]
        rule = polished_rule(x, hermite_step(n))
        node, weight = rule_errors(rule, x, scaled)
        assert node <= np.finfo(float).eps * x.max(), n
        errors.append((weight, hermite_defect(x, scaled)))
        numpy_errors.append((rule_errors(rule, numpy_x, numpy_scaled)[1], hermite_defect(numpy_x, numpy_w * np.exp(numpy_x**2))))
    worst, numpy_worst = np.max(errors, axis=0), np.max(numpy_errors, axis=0)
    assert np.all(worst <= numpy_worst), (worst, numpy_worst)
    assert worst[0] <= 3e-14 and worst[1] <= 5e-15
