import math

import numpy as np
import pytest
from scipy import special

from betaone.kernels import goe_kernel, hat_transform
from betaone.pfaffian import pfaffian
from betaone.quadrature import QuadratureError, gauss_legendre_rule, truncation_radius
from betaone.skewortho import (
    expected_gram,
    gaussian_line_rows,
    goe_coefficients,
    goe_gram,
    goe_norm,
    line_gram,
    skew_deviation,
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


def monomial_gram(C, panels=4):
    # line Gram of the columns of C, on monomials
    rows = gaussian_line_rows(C, hermite=False)
    return line_gram(rows, panels, truncation_radius(2 * C.shape[0]))


def hermite_to_monomials(n):
    # columns: He_0..He_{n-1} (He_k = H_k / 2^k) on the monomials
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    for k in range(n - 1):
        M[1:, k + 1] = M[:-1, k]
        if k >= 1:
            M[:, k + 1] -= 0.5 * k * M[:, k - 1]
    return M


def half_moments(C):
    return gaussian_line_rows(C)(np.inf)[0]


def test_skew_inner_monomial_closed_forms():
    gram = monomial_gram(np.eye(4))
    for (a, b), expected in MONOMIAL_PAIRINGS.items():
        assert np.isclose(gram[a, b], expected, rtol=1e-14, atol=0), (a, b)


def test_skew_inner_antisymmetry():
    rng = np.random.default_rng(19)
    C = rng.normal(size=(5, 6))
    gram = monomial_gram(C)
    scale = np.abs(gram).max()
    assert np.abs(gram + gram.T).max() <= 1e-14 * scale


def test_gaussian_family_exact_coefficients():
    monomials = hermite_to_monomials(4) @ goe_coefficients(4)
    assert np.array_equal(monomials[:, 0], [1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(monomials[:, 1], [0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(monomials[:, 2], [-0.5, 0.0, 1.0, 0.0])
    assert np.array_equal(monomials[:, 3], [0.0, -2.5, 0.0, 1.0])
    assert np.isclose(goe_norm(0), SQRT_PI, rtol=1e-15, atol=0)
    assert np.isclose(goe_norm(1), 0.5 * SQRT_PI, rtol=1e-15, atol=0)
    # the Gram of the monomial expansion is the family's Gram
    family = monomial_gram(monomials)
    assert skew_deviation(family, goe_norm) <= 1e-14


def test_family_skew_orthogonality_battery():
    refined = goe_gram(6, 1e-12)
    gram = refined.value
    r_min = min(goe_norm(m) for m in range(3))
    assert np.abs(gram - expected_gram(goe_norm, 6)).max() <= 1e-13 * r_min
    assert refined.difference <= 1e-12


def test_phi_transform_closed_forms():
    rows = gaussian_line_rows(goe_coefficients(4))
    x = np.linspace(-3.0, 3.0, 13)
    eps = rows(x)[:, 0]
    assert np.allclose(
        eps[:, 0], 0.5 * SQRT_2PI * special.erf(x / math.sqrt(2.0)), rtol=0, atol=1e-14
    )
    assert np.allclose(eps[:, 1], -np.exp(-0.5 * x * x), rtol=0, atol=1e-15)
    # saturation far to the right: half the full weighted integrals
    far = rows(9.0)[0]
    assert np.isclose(far[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(far[2], 0.25 * SQRT_2PI, rtol=1e-15, atol=0)


def test_phi_transform_against_quadrature_oracle():
    rows = gaussian_line_rows(goe_coefficients(4))
    x0 = 0.7
    for k in [2, 3]:
        left = gauss_legendre_rule(200, -12.0, x0)
        right = gauss_legendre_rule(200, x0, 12.0)
        f = lambda y: rows(y)[:, 1, k]
        oracle = 0.5 * (left.integrate(f) - right.integrate(f))
        assert np.isclose(rows(x0)[0, k], oracle, rtol=0, atol=1e-14), k


def test_hatted_family_exact_small_case():
    C = goe_coefficients(3)
    half = half_moments(C)
    hat = hermite_to_monomials(3) @ C @ hat_transform(half)
    assert np.allclose(hat[:, 0], [2.0, 0.0, -2.0], rtol=0, atol=1e-15)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], rtol=0, atol=0)
    assert np.allclose(hat[:, 2], [-0.5, 0.0, 1.0], rtol=0, atol=0)
    assert np.isclose(half[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert half[1] == 0.0
    assert np.isclose(half[2], 0.25 * SQRT_2PI, rtol=1e-15, atol=0)


def test_hatted_family_kills_weighted_integrals():
    rows = goe_kernel(5).family.rows
    rule = gauss_legendre_rule(240, -12.0, 12.0)
    for n in range(4):
        value = rule.integrate(lambda x: rows(x)[:, 1, n])
        assert abs(value) < 1e-10, n


def test_hatted_requires_odd_size():
    # an even size keeps the plain rows: no hatting, no border column
    basis = goe_kernel(4).family
    x = np.array([-0.7, 0.4])
    assert np.array_equal(basis.rows(x), gaussian_line_rows(goe_coefficients(4))(x))


def test_generating_pfaffian_even_equals_norm_product():
    got = pfaffian(goe_gram(4, 1e-12).value)
    assert np.isclose(got, goe_norm(0) * goe_norm(1), rtol=1e-14, atol=0)
    assert np.isclose(got, 0.5 * math.pi, rtol=1e-14, atol=0)


def test_generating_pfaffian_odd_equals_hatted_norm_product():
    # the Gram bordered by the half moments: the pair norm below the
    # top times the top polynomial's half moment
    gram = np.pad(goe_gram(3, 1e-12).value, ((0, 1), (0, 1)))
    border = half_moments(goe_coefficients(3))
    gram[:3, 3] = border
    gram[3, :3] = -border
    got = pfaffian(gram)
    assert np.isclose(got, goe_norm(0) * border[2], rtol=1e-14, atol=0)
    assert np.isclose(got, SQRT_PI * 0.25 * SQRT_2PI, rtol=1e-14, atol=0)


def test_coarse_rule_fails_loudly():
    # two panels per half-line cannot resolve the N = 64 family: the
    # deviation reads about 15 against a 1e-12 gate, not a quiet pass
    rows = gaussian_line_rows(goe_coefficients(64))
    coarse = skew_deviation(line_gram(rows, 2, truncation_radius(128)), goe_norm)
    assert 10.0 < coarse < 20.0
    refined = goe_gram(64, 1e-12)
    assert skew_deviation(refined.value, goe_norm) <= 1e-12
    assert refined.panels > 2


def test_refinement_past_reach_raises():
    with pytest.raises(QuadratureError) as info:
        goe_gram(8, 1e-18)
    assert 0.0 < info.value.error < 1e-13
