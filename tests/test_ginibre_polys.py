import math

import numpy as np
import pytest
from scipy import special

from betaone.ginibre import (
    ginoe_coefficients,
    ginoe_gram,
    ginoe_norm,
    ginoe_rows,
    partition_function_check,
    plane_rows,
    sector_grams,
    sinclair_prefactor,
)
from betaone.ginoe_kernels import ginoe_kernel
from betaone.kernels import hat_transform
from betaone.quadrature import gauss_legendre_rule
from betaone.skewortho import gaussian_line_rows

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# hand-derived pieces of the lowest pairing: the real-real double
# integral gives 2 sqrt(pi), the complex-pair integral reduces to
# int_0^inf y e^{y^2} erfc(sqrt2 y) dy = (sqrt2 - 1)/2
REAL_PIECE_12 = 2.0 * SQRT_PI
COMPLEX_PIECE_12 = 2.0 * SQRT_PI * (math.sqrt(2.0) - 1.0)


def test_polynomial_coefficients():
    C = ginoe_coefficients(6)
    assert np.array_equal(C[:, 0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(C[:, 1], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    assert np.array_equal(C[:, 2], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert np.array_equal(C[:, 3], [0.0, -2.0, 0.0, 1.0, 0.0, 0.0])
    assert np.array_equal(C[:, 5], [0.0, 0.0, 0.0, -4.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        ginoe_coefficients(0)


def test_norms_closed_form():
    assert np.isclose(ginoe_norm(0), 2.0 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(ginoe_norm(1), 4.0 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(ginoe_norm(3), 2.0 * SQRT_2PI * 720.0, rtol=1e-15, atol=0)


def test_family_container():
    C = ginoe_coefficients(5)
    assert C.shape == (5, 5)
    # p_3(w) times the pair weight, which is e^{-2} at the real point 2
    assert np.isclose(plane_rows(C, np.array([2.0 + 0.0j]))[0, 3], (8.0 - 4.0) * math.exp(-2.0), rtol=1e-15, atol=0)


def test_lowest_pairing_pieces_match_hand_values():
    real, plane = sector_grams(2, 4)
    assert np.isclose(real[0, 1], REAL_PIECE_12, rtol=1e-14, atol=0)
    assert np.isclose(plane[0, 1], COMPLEX_PIECE_12, rtol=1e-14, atol=0)
    assert np.isclose(ginoe_gram(2, 1e-12).value[0, 1], 2.0 * SQRT_2PI, rtol=1e-14, atol=0)


def test_complex_piece_against_monte_carlo_oracle():
    rng = np.random.default_rng(20240818)
    n = 10 ** 6
    x = rng.normal(scale=math.sqrt(0.5), size=n)
    y = np.abs(rng.normal(scale=math.sqrt(0.5), size=n))
    w = x + 1j * y
    # importance sampling against the Gaussian factor of the integrand
    p0 = np.ones_like(w)
    p1 = w
    h = -2.0 * math.pi * special.erfcx(math.sqrt(2.0) * y) * np.imag(p0 * np.conj(p1))
    estimate = h.mean()
    stderr = h.std(ddof=1) / math.sqrt(n)
    _, plane = sector_grams(2, 4)
    assert abs(plane[0, 1] - estimate) <= 3.0 * stderr


def test_pairing_antisymmetry_and_diagonal():
    gram = ginoe_gram(6, 1e-12).value
    s = np.sqrt([ginoe_norm(j // 2) for j in range(6)])
    scale = np.outer(s, s)
    assert np.abs(np.diag(gram) / np.diag(scale)).max() <= 1e-15
    assert np.abs((gram + gram.T) / scale).max() <= 1e-14


def test_skew_orthogonality_small_battery():
    gram = ginoe_gram(4, 1e-12).value
    r0 = ginoe_norm(0)
    assert abs(gram[0, 2]) <= 1e-14 * r0
    assert abs(gram[1, 3]) <= 1e-14 * r0
    assert np.isclose(gram[2, 3], ginoe_norm(1), rtol=1e-14, atol=0)


def half_moments(N):
    return gaussian_line_rows(ginoe_coefficients(N), hermite=False)(np.inf)[0]


def test_half_moments():
    nus = half_moments(3)
    assert np.isclose(nus[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert nus[1] == 0.0
    assert np.isclose(nus[2], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)


def test_hatted_family_small_case():
    # the plane partner at +infinity is minus the half moment; hatting
    # leaves it on the top polynomial and the constant column only
    basis = ginoe_kernel(3).family
    at_infinity = basis.rows(np.inf)[basis.partner_slot]
    assert np.allclose(at_infinity, [0.0, 0.0, -0.5 * SQRT_2PI, 1.0], rtol=1e-15, atol=1e-15)
    hat = ginoe_coefficients(3) @ hat_transform(-half_moments(3))
    assert np.allclose(hat[:, 0], [1.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(hat[:, 2], [0.0, 0.0, 1.0], atol=0)
    # pair (0, 1) by 2 / r_0; the top with the constant column by -1/2 over its partner
    assert np.isclose(basis.upper[0, 1], 2.0 / (2.0 * SQRT_2PI), rtol=1e-15, atol=0)
    assert np.isclose(basis.upper[2, 3], 0.5 / (0.5 * SQRT_2PI), rtol=1e-15, atol=0)


def test_hatted_family_kills_weighted_integrals():
    rows = ginoe_kernel(5).family.rows
    rule = gauss_legendre_rule(240, -12.0, 12.0)
    for i in range(4):
        value = rule.integrate(lambda x: rows(x)[:, 0, i])
        assert abs(value) < 1e-10, i


def test_hatted_requires_odd_size():
    # an even size keeps the plain rows: no hatting, no border column
    basis = ginoe_kernel(4).family
    x = np.array([-0.7, 0.4])
    assert np.array_equal(basis.rows(x), ginoe_rows(ginoe_coefficients(4))(x))


def test_sinclair_prefactor_small_values():
    assert np.isclose(sinclair_prefactor(2), 2.0 ** -1.5 / SQRT_PI, rtol=1e-15, atol=0)
    assert np.isclose(
        sinclair_prefactor(3), 2.0 ** -3.0 / (SQRT_PI * 0.5 * SQRT_PI), rtol=1e-14, atol=0
    )


def test_partition_function_normalization_small_sizes():
    assert np.isclose(partition_function_check(2), 1.0, rtol=1e-14, atol=0)
    assert np.isclose(partition_function_check(3), 1.0, rtol=1e-14, atol=0)


def test_partition_function_normalization_past_factorial_range():
    # the pair norms span 2 sqrt(2pi) (2k)!; unscaled, the Gram read as
    # singular from N = 18 on.  Worst gap over N = 1..64 is 1e-14 (N = 64).
    for N in (17, 18, 19, 32, 63, 64):
        assert abs(partition_function_check(N) - 1.0) <= 1e-12
