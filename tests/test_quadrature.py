import math

import numpy as np
import pytest
from scipy import special

from betaone.quadrature import (
    ORDER,
    PLANE_PANEL_CAP,
    QuadratureError,
    composite_rule,
    gauss_legendre_rule,
    halfplane_rule,
    integrate_line,
    panel_rule,
    refine,
    truncation_radius,
)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_rule_integrates_constants_exactly():
    rule = gauss_legendre_rule(8, -1.5, 2.25)
    assert np.isclose(rule.integrate(lambda x: np.ones_like(x)), 3.75, rtol=0, atol=1e-12)
    assert np.isclose(rule.integrate(lambda x: 1.0), 3.75, rtol=0, atol=1e-12)


def test_rule_invariants():
    rule = gauss_legendre_rule(12, 0.0, 1.0)
    assert rule.nodes.size == 12
    assert np.all(rule.weights > 0.0)
    with pytest.raises(ValueError):
        gauss_legendre_rule(1, 0.0, 1.0)


def test_composite_rule_concatenates_panels():
    rule = composite_rule([-2.0, 0.5, 3.0], 6)
    assert rule.nodes.size == 12
    assert rule.domain == (-2.0, 3.0)
    assert np.isclose(rule.integrate(lambda x: x), 0.5 * (9.0 - 4.0), rtol=0, atol=1e-12)


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
    rule = composite_rule([-truncation_radius(0), a, truncation_radius(0)], 32)
    value = rule.integrate(lambda x: np.sign(a - x) * np.exp(-0.5 * x * x))
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


def test_undeclared_kink_raises_with_estimate():
    with pytest.raises(QuadratureError) as info:
        integrate_line(
            lambda x: np.sign(x - 0.3) * np.exp(-0.5 * x * x), tol=1e-13
        )
    err = info.value
    expected = -SQRT_2PI * special.erf(0.3 / math.sqrt(2.0))
    assert abs(err.estimate - expected) < 0.05
    assert err.error > 1e-13


def halfplane_integral(f, tol=1e-12):
    return refine(
        lambda panels: halfplane_rule(panels, truncation_radius(0)).integrate(f),
        tol,
        "half-plane integral",
        cap=PLANE_PANEL_CAP,
    )


def test_halfplane_gaussian():
    refined = halfplane_integral(lambda w: np.exp(-(w * np.conj(w)).real))
    assert np.isclose(refined.value, 0.5 * math.pi, rtol=0, atol=1e-14)
    assert refined.difference <= 1e-12


def test_halfplane_zero_integrand():
    assert halfplane_integral(lambda w: np.zeros(w.shape)).value == 0.0


def test_halfplane_handles_scalar_returns():
    assert halfplane_integral(lambda w: 0.0).value == 0.0


def test_panel_rule_splits_every_segment_evenly():
    rule = panel_rule((-2.0, 0.5, 3.0), 4)
    assert rule.nodes.size == 8 * ORDER
    assert np.all(np.diff(rule.nodes) > 0.0)
    assert np.isclose(rule.weights.sum(), 5.0, rtol=1e-15, atol=0)
    plane = halfplane_rule(2, 3.0)
    assert plane.nodes.size == (4 * ORDER) * (2 * ORDER)
    assert np.all(plane.nodes.imag > 0.0)
    assert np.isclose(plane.weights.sum(), 18.0, rtol=1e-14, atol=0)


def test_refinement_reports_panels_and_last_difference():
    estimates = {1: 1.0, 2: 0.5, 4: 0.5 + 1e-13}
    refined = refine(estimates.__getitem__, 1e-12, "toy")
    assert refined.panels == 4
    assert refined.value == 0.5 + 1e-13
    assert np.isclose(refined.difference, 1e-13, rtol=1e-3)
