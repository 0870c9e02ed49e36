import math

import mpmath
import numpy as np
import pytest
from scipy import special

from betaone.ginoe_kernels import ginoe_kernel
from betaone.kernels import (
    PointConfiguration,
    density_integral,
    dyson_recurrence_check,
    goe_kernel,
    rho,
)
from betaone.pfaffian import as_antisymmetric

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)


def two_point_density_closed_form(x):
    # hand-derived one-point density for the smallest even size:
    # (e^{-x^2/2}/sqrt(pi)) (x Phi_0(x) - Phi_1(x)) with the two lowest
    # half-range transforms in closed form
    phi0 = 0.5 * SQRT_2PI * special.erf(x / math.sqrt(2.0))
    phi1 = -np.exp(-0.5 * x * x)
    return np.exp(-0.5 * x * x) / SQRT_PI * (x * phi0 - phi1)


def test_two_point_scalar_kernel_closed_form():
    bundle = goe_kernel(2)
    x = np.linspace(-3.0, 3.0, 25)
    assert np.allclose(bundle.scalar_kernel(x, x), two_point_density_closed_form(x), rtol=1e-10, atol=1e-13)


def test_density_is_one_point_correlation():
    bundle = goe_kernel(4)
    for x in [-1.7, 0.0, 0.8]:
        assert np.isclose(rho(bundle, [x]), bundle.scalar_kernel(x, x), rtol=1e-12, atol=0)


def test_density_integrates_to_size_even():
    for N in [2, 4]:
        assert np.isclose(density_integral(goe_kernel(N)), N, rtol=1e-8, atol=0), N


def test_density_integrates_to_size_odd():
    for N in [1, 3, 5]:
        assert np.isclose(density_integral(goe_kernel(N)), N, rtol=1e-8, atol=0), N


def test_smallest_odd_size_is_standard_normal():
    bundle = goe_kernel(1)
    x = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(bundle.scalar_kernel(x, x), np.exp(-0.5 * x * x) / SQRT_2PI, rtol=1e-12, atol=0)
    # the scalar kernel is independent of its first argument here
    assert np.isclose(
        bundle.scalar_kernel(-2.0, 0.4), bundle.scalar_kernel(1.5, 0.4), rtol=0, atol=1e-15
    )


def test_odd_derivative_kernel_closed_form():
    # hand-derived for size 3: prefactor 2/sqrt(pi), antisymmetric
    # factor (y - x)(1 + xy) under the joint Gaussian weight
    bundle = goe_kernel(3)
    rng = np.random.default_rng(3)
    for _ in range(8):
        x, y = rng.normal(size=2) * 1.5
        expected = (
            2.0
            / SQRT_PI
            * np.exp(-0.5 * (x * x + y * y))
            * (y - x)
            * (1.0 + x * y)
        )
        assert np.isclose(bundle.derivative_kernel(x, y), expected, rtol=1e-9, atol=1e-13)


def test_kernel_antisymmetries():
    for bundle in [goe_kernel(4), goe_kernel(3)]:
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y = rng.normal(size=2)
            assert np.isclose(
                bundle.derivative_kernel(x, y),
                -bundle.derivative_kernel(y, x),
                rtol=1e-11,
                atol=1e-14,
            )
            assert np.isclose(
                bundle.integral_kernel(x, y),
                -bundle.integral_kernel(y, x),
                rtol=1e-11,
                atol=1e-14,
            )
        assert bundle.derivative_kernel(0.3, 0.3) == 0.0
        assert bundle.integral_kernel(0.3, 0.3) == 0.0


def test_assembled_matrix_is_antisymmetric():
    for bundle in [goe_kernel(4), goe_kernel(5)]:
        config = PointConfiguration(reals=(-1.1, 0.2, 0.9))
        as_antisymmetric(bundle.assemble(config))


def cells_from_kernels(bundle, points, layout):
    # reference loop: every 2x2 cell written out from the three kernels
    S, D, I = bundle.scalar_kernel, bundle.derivative_kernel, bundle.integral_kernel
    A = np.zeros((2 * len(points), 2 * len(points)), dtype=complex)
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            if layout == "line":
                cell = [[-I(a, b), S(a, b)], [-S(b, a), D(a, b)]]
            else:
                cell = [[D(a, b), S(a, b)], [-S(b, a), I(a, b)]]
            A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = cell
    return A


def test_assembled_matrix_matches_kernel_cells():
    line = PointConfiguration(reals=(-1.1, 0.2, 0.9))
    mixed = PointConfiguration(reals=(-0.6, 1.1), complexes=(0.4 + 0.8j, -0.3 + 1.5j))
    cases = (
        (goe_kernel(4), line, "line"),
        (goe_kernel(5), line, "line"),
        (ginoe_kernel(4), mixed, "plane"),
        (ginoe_kernel(5), mixed, "plane"),
    )
    for bundle, config, layout in cases:
        points = list(config.reals) + list(config.complexes)
        reference = cells_from_kernels(bundle, points, layout)
        assert np.allclose(bundle.assemble(config), reference, rtol=0, atol=1e-14)


def test_vectorized_kernels_match_pointwise_calls():
    xs = np.linspace(-3.0, 3.0, 13)
    for bundle in (goe_kernel(4), goe_kernel(5), ginoe_kernel(5)):
        for kernel in (bundle.scalar_kernel, bundle.derivative_kernel, bundle.integral_kernel):
            grid = kernel(xs[:, None], xs[None, :])
            loop = np.array([[kernel(x, y) for y in xs] for x in xs])
            assert np.allclose(grid, loop, rtol=0, atol=1e-14)


def test_pair_correlation_exchange_symmetry():
    for bundle in [goe_kernel(4), goe_kernel(3)]:
        a = rho(bundle, [0.7, -0.4])
        b = rho(bundle, [-0.4, 0.7])
        assert np.isclose(a, b, rtol=1e-10, atol=1e-14)


def test_pair_correlation_nonnegative_and_vanishing_at_coincidence():
    bundle = goe_kernel(4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=2) * 1.5
        assert rho(bundle, [x, y]) > -1e-12
    assert abs(rho(bundle, [0.4, 0.4])) < 1e-12


def test_dyson_recurrence_small_cases():
    report = dyson_recurrence_check(goe_kernel(4), 1, [0.3])
    assert report["relative_deviation"] < 1e-6
    report = dyson_recurrence_check(goe_kernel(3), 1, [-0.8])
    assert report["relative_deviation"] < 1e-6
    report = dyson_recurrence_check(goe_kernel(4), 2, [-0.5, 1.1])
    assert report["relative_deviation"] < 1e-6
    # at n = N the n + 1 point correlation is 0: both sides vanish exactly
    for bundle, points in ((goe_kernel(1), [0.37]), (goe_kernel(2), [-1.1, 0.4])):
        report = dyson_recurrence_check(bundle, bundle.N, points)
        assert report["integrated"] == report["expected"] == 0.0
        assert report["relative_deviation"] == 0.0


def test_point_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration(reals=(0.0,), complexes=(1.0 - 2.0j,))
    bundle = goe_kernel(2)
    with pytest.raises(ValueError):
        rho(bundle, PointConfiguration(reals=(0.0,), complexes=(1.0 + 2.0j,)))
    with pytest.raises(ValueError):
        rho(bundle, PointConfiguration())


def test_parity_validation():
    # the parity comes from N; odd sizes carry the border column
    for make in (goe_kernel, ginoe_kernel):
        for N in (3, 4):
            bundle = make(N)
            assert bundle.parity == ("odd" if N % 2 else "even")
            assert bundle.family.rows(0.3).shape == (2, N + N % 2)
        with pytest.raises(ValueError):
            make(0)
    with pytest.raises(ValueError):
        goe_kernel(4).scalar_kernel(0.1 + 0.2j, 0.3)


def test_rho_vanishes_beyond_n_eigenvalues():
    # more eigenvalues than N, a complex point counting twice: exactly 0
    assert rho(goe_kernel(3), [-0.4, 0.1, 0.6, 1.2]) == 0.0
    assert rho(goe_kernel(2), [-0.4, 0.1, 0.6]) == 0.0
    bundle = ginoe_kernel(4)
    over = PointConfiguration(reals=(0.2,), complexes=(0.3 + 0.5j, -0.6 + 0.9j))
    assert rho(bundle, over) == 0.0
    assert rho(ginoe_kernel(3), PointConfiguration(reals=(0.2, 0.7), complexes=(0.1 + 0.4j,))) == 0.0
    full = PointConfiguration(reals=(0.2, -0.5), complexes=(0.3 + 0.5j,))
    assert abs(rho(bundle, full)) > 0.0


def mp_goe_density(N, x):
    """50-digit GOE density from the Hermite functions psi_k, orthonormal for e^{-x^2}.

    rho = sum_{k<N} psi_k^2 + sqrt(N/2) psi_{N-1} eps psi_N, plus
    psi_{N-1} / int psi_{N-1} for odd N (Adler, Forrester, Nagao and van
    Moerbeke), with eps f = 1/2 int sgn(x - t) f(t) dt taken from
    eps(psi_k') = psi_k and psi_k' = sqrt(k/2) psi_{k-1} - sqrt((k+1)/2) psi_{k+1}.
    """
    x = mpmath.mpf(x)
    psi = [
        mpmath.hermite(k, x) * mpmath.exp(-x * x / 2)
        / mpmath.sqrt(2 ** k * mpmath.factorial(k) * mpmath.sqrt(mpmath.pi))
        for k in range(N + 1)
    ]
    half = mpmath.pi ** mpmath.mpf(-0.25) * mpmath.sqrt(mpmath.pi / 2)
    eps = [half * mpmath.erf(x / mpmath.sqrt(2)), -mpmath.sqrt(2) * psi[0]]
    total = [2 * half, 0]
    for k in range(1, N):
        a, b = mpmath.sqrt(mpmath.mpf(k) / (k + 1)), mpmath.sqrt(mpmath.mpf(2) / (k + 1))
        eps.append(a * eps[k - 1] - b * psi[k])
        total.append(a * total[k - 1])
    value = mpmath.fsum(p * p for p in psi[:N]) + mpmath.sqrt(mpmath.mpf(N) / 2) * psi[N - 1] * eps[N]
    if N % 2:
        value += psi[N - 1] / total[N - 1]
    return value


def test_density_against_high_precision_oracle():
    # bulk and tail points out to 1.3 times the spectrum edge sqrt(2N)
    worst = 0.0
    with mpmath.workdps(50):
        for N in (12, 31, 32, 48, 63, 64):
            edge = math.sqrt(2.0 * N)
            xs = edge * np.array([-1.3, -1.1, -0.9, -0.5, -0.05, 0.02, 0.3, 0.7, 1.0, 1.3])
            bundle = goe_kernel(N)
            for x, got in zip(xs, bundle.scalar_kernel(xs, xs)):
                want = mp_goe_density(N, float(x))
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-12
