import math

import numpy as np
import pytest
from scipy import special

from betaone.kernels import beta1_odd_kernel, hat_transform
from betaone.quadrature import gauss_legendre_rule
from betaone.skewortho import (
    WeightSpec,
    build_family_beta1,
    coefficient_matrix,
    gaussian_weight,
    generating_pfaffian_even,
    generating_pfaffian_odd,
    half_range_rows,
    half_range_transform,
    phi_transform,
    poly_eval,
    skew_inner,
    weight_full_moment,
    weight_tail_moment,
)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# hand-derived pairings of low monomials under the Gaussian weight:
# reduce the sign integral to tail moments and integrate by parts
MONOMIAL_PAIRINGS = {
    (0, 1): SQRT_PI,
    (0, 3): 2.5 * SQRT_PI,
    (1, 2): -0.5 * SQRT_PI,
    (2, 3): 1.75 * SQRT_PI,
}


def monomial(k):
    c = np.zeros(k + 1)
    c[k] = 1.0
    return c


def family_gram(family):
    n = family.N
    gram = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            if a != b:
                gram[a, b] = skew_inner(
                    family.coeffs[a], family.coeffs[b], family.weight
                )
    return gram


def test_skew_inner_monomial_closed_forms():
    w = gaussian_weight()
    for (a, b), expected in MONOMIAL_PAIRINGS.items():
        got = skew_inner(monomial(a), monomial(b), w)
        assert np.isclose(got, expected, rtol=1e-11, atol=0), (a, b)


def test_skew_inner_antisymmetry():
    w = gaussian_weight()
    rng = np.random.default_rng(19)
    for _ in range(5):
        f = rng.normal(size=rng.integers(1, 5))
        g = rng.normal(size=rng.integers(1, 5))
        assert np.isclose(
            skew_inner(f, g, w), -skew_inner(g, f, w), rtol=1e-10, atol=1e-12
        )


def test_gaussian_family_exact_coefficients():
    fam = build_family_beta1(gaussian_weight(), 4)
    assert np.allclose(fam.coeffs[0], [1.0], atol=1e-12)
    assert np.allclose(fam.coeffs[1], [0.0, 1.0], atol=1e-12)
    assert np.allclose(fam.coeffs[2], [-0.5, 0.0, 1.0], atol=1e-10)
    assert np.allclose(fam.coeffs[3], [0.0, -2.5, 0.0, 1.0], atol=1e-10)
    assert np.isclose(fam.norms[0], SQRT_PI, rtol=1e-11, atol=0)
    assert np.isclose(fam.norms[1], 0.5 * SQRT_PI, rtol=1e-10, atol=0)


def test_family_skew_orthogonality_battery():
    fam = build_family_beta1(gaussian_weight(), 6)
    gram = family_gram(fam)
    r_min = min(fam.norms)
    for a in range(6):
        for b in range(6):
            expected = 0.0
            if a % 2 == 0 and b == a + 1:
                expected = fam.norms[a // 2]
            elif b % 2 == 0 and a == b + 1:
                expected = -fam.norms[b // 2]
            assert abs(gram[a, b] - expected) <= 1e-8 * r_min, (a, b)


def test_phi_transform_closed_forms():
    fam = build_family_beta1(gaussian_weight(), 4)
    x = np.linspace(-3.0, 3.0, 13)
    assert np.allclose(
        phi_transform(fam, 0, x),
        0.5 * SQRT_2PI * special.erf(x / math.sqrt(2.0)),
        rtol=0,
        atol=1e-12,
    )
    assert np.allclose(phi_transform(fam, 1, x), -np.exp(-0.5 * x * x), rtol=0, atol=1e-12)
    # saturation far to the right: half the full weighted integrals
    assert np.isclose(phi_transform(fam, 0, 9.0), 0.5 * SQRT_2PI, rtol=1e-12, atol=0)
    assert np.isclose(phi_transform(fam, 2, 9.0), 0.25 * SQRT_2PI, rtol=1e-10, atol=0)


def test_phi_transform_against_quadrature_oracle():
    fam = build_family_beta1(gaussian_weight(), 4)
    x0 = 0.7
    for k in [2, 3]:
        left = gauss_legendre_rule(200, -12.0, x0)
        right = gauss_legendre_rule(200, x0, 12.0)
        f = lambda y: poly_eval(fam.coeffs[k], y) * np.exp(-0.5 * y * y)
        oracle = 0.5 * (left.integrate(f) - right.integrate(f))
        assert np.isclose(phi_transform(fam, k, x0), oracle, rtol=0, atol=1e-12), k


def test_generic_weight_fallback_matches_gaussian_closed_forms():
    plain = WeightSpec(V=lambda x: 0.5 * np.asarray(x) ** 2, label="plain")
    for k in [0, 1, 3]:
        assert np.isclose(
            weight_full_moment(plain, k),
            gaussian_weight().full_moment(k),
            rtol=1e-10,
            atol=1e-12,
        )
        for x in [-1.3, 0.0, 2.4]:
            assert np.isclose(
                weight_tail_moment(plain, k, x),
                gaussian_weight().tail_moment(k, x),
                rtol=1e-9,
                atol=1e-12,
            )
    got = half_range_transform([1.0], plain, np.array([0.4]))
    want = half_range_transform([1.0], gaussian_weight(), np.array([0.4]))
    assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def half_moments(family):
    return half_range_rows(coefficient_matrix(family.coeffs), family.weight, np.inf)


def test_hatted_family_exact_small_case():
    fam = build_family_beta1(gaussian_weight(), 3)
    half = half_moments(fam)
    hat = coefficient_matrix(fam.coeffs) @ hat_transform(half)
    assert np.allclose(hat[:, 0], [2.0, 0.0, -2.0], atol=1e-9)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], atol=1e-9)
    assert np.allclose(hat[:, 2], fam.coeffs[2], atol=0)
    assert np.isclose(fam.norms[0], SQRT_PI, rtol=1e-11, atol=0)
    assert np.isclose(half[0], 0.5 * SQRT_2PI, rtol=1e-12, atol=0)
    assert np.isclose(half[1], 0.0, rtol=0, atol=1e-12)
    assert np.isclose(half[2], 0.25 * SQRT_2PI, rtol=1e-10, atol=0)


def test_hatted_family_kills_weighted_integrals():
    rows = beta1_odd_kernel(5).family.rows
    rule = gauss_legendre_rule(240, -12.0, 12.0)
    for n in range(4):
        value = rule.integrate(lambda x: rows(x)[:, 1, n])
        assert abs(value) < 1e-10, n


def test_hatted_requires_odd_size():
    with pytest.raises(ValueError):
        beta1_odd_kernel(4)


def test_generating_pfaffian_even_equals_norm_product():
    fam = build_family_beta1(gaussian_weight(), 4)
    got = generating_pfaffian_even(fam)
    assert np.isclose(got, fam.norms[0] * fam.norms[1], rtol=1e-9, atol=0)
    assert np.isclose(got, 0.5 * math.pi, rtol=1e-9, atol=0)


def test_generating_pfaffian_odd_equals_hatted_norm_product():
    fam = build_family_beta1(gaussian_weight(), 3)
    got = generating_pfaffian_odd(fam)
    assert np.isclose(got, fam.norms[0] * half_moments(fam)[2], rtol=1e-9, atol=0)
    assert np.isclose(got, SQRT_PI * 0.25 * SQRT_2PI, rtol=1e-9, atol=0)


def test_generating_pfaffian_parity_validation():
    fam = build_family_beta1(gaussian_weight(), 4)
    with pytest.raises(ValueError):
        generating_pfaffian_even(fam, 3)
    with pytest.raises(ValueError):
        generating_pfaffian_odd(fam, 4)
    with pytest.raises(ValueError):
        generating_pfaffian_even(fam, 6)
