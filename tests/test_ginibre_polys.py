import math

import numpy as np
import pytest
from scipy import special

from betaone.ginibre import (
    complex_sector_pairing,
    ginoe_family,
    ginoe_norm,
    ginoe_poly_coeffs,
    ginoe_skew_inner,
    partition_function_check,
    real_sector_pairing,
    sinclair_prefactor,
)
from betaone.ginoe_kernels import ginoe_odd_kernel
from betaone.kernels import hat_transform
from betaone.quadrature import gauss_legendre_rule
from betaone.skewortho import coefficient_matrix, gaussian_weight, half_range_rows

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# hand-derived pieces of the lowest pairing: the real-real double
# integral gives 2 sqrt(pi), the complex-pair integral reduces to
# int_0^inf y e^{y^2} erfc(sqrt2 y) dy = (sqrt2 - 1)/2
REAL_PIECE_12 = 2.0 * SQRT_PI
COMPLEX_PIECE_12 = 2.0 * SQRT_PI * (math.sqrt(2.0) - 1.0)


def test_polynomial_coefficients():
    assert np.array_equal(ginoe_poly_coeffs(0), [1.0])
    assert np.array_equal(ginoe_poly_coeffs(1), [0.0, 1.0])
    assert np.array_equal(ginoe_poly_coeffs(2), [0.0, 0.0, 1.0])
    assert np.array_equal(ginoe_poly_coeffs(3), [0.0, -2.0, 0.0, 1.0])
    assert np.array_equal(ginoe_poly_coeffs(5), [0.0, 0.0, 0.0, -4.0, 0.0, 1.0])


def test_norms_closed_form():
    assert np.isclose(ginoe_norm(0), 2.0 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(ginoe_norm(1), 4.0 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(ginoe_norm(3), 2.0 * SQRT_2PI * 720.0, rtol=1e-15, atol=0)


def test_family_container():
    fam = ginoe_family(5)
    assert fam.N == 5
    assert fam.kind == "ginoe"
    assert len(fam.norms) == 2
    assert np.isclose(fam.poly(3, 2.0), 8.0 - 4.0, rtol=1e-15, atol=0)


def test_lowest_pairing_pieces_match_hand_values():
    assert np.isclose(real_sector_pairing(1, 2), REAL_PIECE_12, rtol=1e-9, atol=0)
    assert np.isclose(complex_sector_pairing(1, 2), COMPLEX_PIECE_12, rtol=1e-8, atol=0)
    assert np.isclose(ginoe_skew_inner(1, 2), 2.0 * SQRT_2PI, rtol=1e-9, atol=0)


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
    assert abs(complex_sector_pairing(1, 2) - estimate) <= 3.0 * stderr


def test_pairing_antisymmetry_and_diagonal():
    assert ginoe_skew_inner(3, 3) == 0.0
    assert np.isclose(
        ginoe_skew_inner(2, 1), -ginoe_skew_inner(1, 2), rtol=1e-12, atol=0
    )


def test_skew_orthogonality_small_battery():
    r0 = ginoe_norm(0)
    assert abs(ginoe_skew_inner(1, 3)) <= 1e-7 * r0
    assert abs(ginoe_skew_inner(2, 4)) <= 1e-7 * r0
    assert np.isclose(ginoe_skew_inner(3, 4), ginoe_norm(1), rtol=1e-8, atol=0)


def half_moments(N):
    C = coefficient_matrix(ginoe_family(N).coeffs)
    return half_range_rows(C, gaussian_weight(), np.inf)


def test_half_moments():
    nus = half_moments(3)
    assert np.isclose(nus[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert nus[1] == 0.0
    assert np.isclose(nus[2], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)


def test_hatted_family_small_case():
    # the plane partner at +infinity is minus the half moment; hatting
    # leaves it on the top polynomial and the constant column only
    basis = ginoe_odd_kernel(3).family
    at_infinity = basis.rows(np.inf)[basis.partner_slot]
    assert np.allclose(at_infinity, [0.0, 0.0, -0.5 * SQRT_2PI, 1.0], rtol=1e-15, atol=1e-15)
    hat = coefficient_matrix(ginoe_family(3).coeffs) @ hat_transform(-half_moments(3))
    assert np.allclose(hat[:, 0], [1.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(hat[:, 2], [0.0, 0.0, 1.0], atol=0)
    # pair (0, 1) by 2 / r_0; the top with the constant column by -1/2 over its partner
    assert np.isclose(basis.upper[0, 1], 2.0 / (2.0 * SQRT_2PI), rtol=1e-15, atol=0)
    assert np.isclose(basis.upper[2, 3], 0.5 / (0.5 * SQRT_2PI), rtol=1e-15, atol=0)


def test_hatted_family_kills_weighted_integrals():
    rows = ginoe_odd_kernel(5).family.rows
    rule = gauss_legendre_rule(240, -12.0, 12.0)
    for i in range(4):
        value = rule.integrate(lambda x: rows(x)[:, 0, i])
        assert abs(value) < 1e-10, i


def test_hatted_requires_odd_size():
    with pytest.raises(ValueError):
        ginoe_odd_kernel(4)


def test_sinclair_prefactor_small_values():
    assert np.isclose(sinclair_prefactor(2), 2.0 ** -1.5 / SQRT_PI, rtol=1e-15, atol=0)
    assert np.isclose(
        sinclair_prefactor(3), 2.0 ** -3.0 / (SQRT_PI * 0.5 * SQRT_PI), rtol=1e-14, atol=0
    )


def test_partition_function_normalization_small_sizes():
    assert np.isclose(partition_function_check(2), 1.0, rtol=1e-7, atol=0)
    assert np.isclose(partition_function_check(3), 1.0, rtol=1e-7, atol=0)
