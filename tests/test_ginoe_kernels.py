"""Oracle-first tests for the two-component Ginibre kernels.

Independent oracles used here:

* size-2 scalar block on the real line, derived by hand from the
  pair sum with p_0 = 1, p_1 = x, r_0 = 2 sqrt(2 pi):
      S(x, y) = exp(-(x^2+y^2)/2)/sqrt(2 pi)
                + (x/2) exp(-x^2/2) erf(y/sqrt2)
* expected counts of real eigenvalues from the weighted partition
  Pfaffian: give each real eigenvalue a fugacity zeta, so the real
  sector pairing carries zeta^2 and the odd-size border carries zeta,
  then d/dzeta at zeta = 1 counts reals and the second derivative
  counts ordered real pairs.  These use only the sector Grams,
  never the kernels under test.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest

from betaone import ginoe_kernels
from betaone.ginibre import (
    height_recurrence,
    hermite_recurrence,
    plane_gram,
    sinclair_prefactor,
)
from betaone.ginoe_kernels import (
    ginoe_kernel,
    ginoe_rho,
    ginoe_summed_S,
    pair_weight,
)
from betaone.kernels import PointConfiguration, goe_kernel, rho
from betaone.pfaffian import as_antisymmetric, pfaffian
from betaone.quadrature import gauss_legendre_rule, integrate_line, reference_rule
from betaone.skewortho import family_coefficients, line_pairing
from betaone.specfun import erfcx, gaussian_tail_moments
from test_kernels import two_point_real_density

SQRT_2PI = math.sqrt(2.0 * math.pi)


def scalar_closed_form_size_two(x, y):
    return np.exp(-0.5 * (x * x + y * y)) / SQRT_2PI + 0.5 * x * np.exp(
        -0.5 * x * x
    ) * math.erf(y / math.sqrt(2.0))


def fugacity_partition(N):
    """Partition sum as a function of the fugacity attached to each real.

    The sector Grams are those of the normalized family; the monic
    family's are them times r_j r_k, r_j = sqrt(2 sqrt(2pi) (2m)!) with
    m = j // 2, and its odd-size border the full integrals of the
    normalized family times r_j / sqrt2, so the monic Pfaffian is the
    normalized one times prod r_j (over sqrt2 at odd N).
    """
    C = family_coefficients(N)
    alpha, beta = line_pairing(C, hermite=False), plane_gram(C)
    roots = [math.sqrt(2.0 * SQRT_2PI * math.factorial(2 * (j // 2))) for j in range(N)]
    pref = sinclair_prefactor(N) * math.prod(roots)
    if N % 2 == 0:
        return lambda z: pref * pfaffian(z * z * alpha + beta)
    # full weighted line integrals of the polynomials
    border = gaussian_tail_moments(N, -np.inf)[1] @ C

    def value(z):
        M = np.zeros((N + 1, N + 1))
        M[:N, :N] = z * z * alpha + beta
        M[:N, N] = z * border
        M[N, :N] = -z * border
        return pref / math.sqrt(2.0) * pfaffian(M)

    return value


def expected_real_count(N, h=1e-4):
    Z = fugacity_partition(N)
    return (Z(1.0 + h) - Z(1.0 - h)) / (2.0 * h)


def expected_real_pair_count(N, h=1e-4):
    Z = fugacity_partition(N)
    return (Z(1.0 + h) - 2.0 * Z(1.0) + Z(1.0 - h)) / (h * h)


def test_pair_weight_agrees_with_naive_form():
    zs = np.array([0.4 + 0.3j, -1.2 + 0.9j, 2.0 + 1.5j, 0.0 + 2.0j])
    naive = np.sqrt([math.erfc(math.sqrt(2.0) * y) for y in zs.imag]) * np.exp(-0.5 * zs * zs)
    assert np.allclose(pair_weight(zs), naive, rtol=1e-13)
    reals = np.array([-2.0, 0.0, 1.3])
    assert np.allclose(pair_weight(reals), np.exp(-0.5 * reals**2), rtol=0, atol=0)


def test_pair_weight_stable_far_from_axis():
    # naive erfc * exp form overflows here; the folded form must not
    far = pair_weight(np.array([0.0 + 30.0j]))
    assert np.isfinite(far).all()
    assert far[0].real > 0.0
    assert abs(far[0].imag) < 1e-300


def test_even_size_two_scalar_closed_form():
    bundle = ginoe_kernel(2)
    for x in (-1.5, -0.3, 0.8, 2.0):
        for y in (-1.1, 0.2, 1.7):
            assert np.isclose(
                bundle.scalar_kernel(x, y),
                scalar_closed_form_size_two(x, y),
                rtol=0,
                atol=1e-13,
            )


def test_even_real_density_integrates_to_expected_count():
    for N in (2, 4):
        bundle = ginoe_kernel(N)
        total = integrate_line(
            lambda x: bundle.scalar_kernel(x, x), tol=1e-11, degree=2 * N
        )
        assert np.isclose(total, expected_real_count(N), rtol=1e-6)
    assert np.isclose(expected_real_count(2), math.sqrt(2.0), rtol=1e-7)


def test_odd_real_density_integrates_to_expected_count():
    for N in (1, 3, 5):
        bundle = ginoe_kernel(N)
        total = integrate_line(
            lambda x: bundle.scalar_kernel(x, x), tol=1e-11, degree=2 * N
        )
        assert np.isclose(total, expected_real_count(N), rtol=1e-6)
    assert np.isclose(expected_real_count(1), 1.0, rtol=1e-7)


def test_two_point_real_normalization_size_two():
    # integral of the two-real-point density equals the expected number
    # of ordered real pairs, sqrt(2) at size 2; fixes the ordering of
    # the integrated block's sign term
    bundle = ginoe_kernel(2)
    total = 0.0
    for x, wx in zip(*gauss_legendre_rule(140, -9.0, 9.0)):
        nodes, weights = gauss_legendre_rule(140, x, 9.0)
        total += wx * (weights @ two_point_real_density(bundle, x, nodes))
    assert np.isclose(2.0 * total, math.sqrt(2.0), rtol=0, atol=5e-6)
    assert np.isclose(expected_real_pair_count(2), math.sqrt(2.0), rtol=1e-6)


def test_complex_density_integrates_to_expected_pair_count():
    # the density at x + iy is e^{-x^2} omega(y) times a polynomial of degree
    # below 2N in x and in y, so the tensor of the N-node Gauss rules of the
    # two weights takes it exactly: weights times e^{x^2} and over omega(y)
    for N in (2, 3):
        bundle = ginoe_kernel(N)
        x, wx = reference_rule(hermite_recurrence, N)
        y, wy = reference_rule(height_recurrence, N)
        omega = erfcx(math.sqrt(2.0) * y) * np.exp(-y * y)
        w = (x[:, None] + 1j * y).reshape(-1)
        total = np.outer(wx, wy / omega).reshape(-1) @ bundle.scalar_kernel(w, w).real
        expected = 0.5 * (N - expected_real_count(N))
        assert np.isclose(total, expected, rtol=1e-6)


def test_complex_density_is_real_and_nonnegative():
    bundle = ginoe_kernel(4)
    for w in (0.3 + 0.4j, -1.5 + 1.1j, 2.0 + 0.2j, 0.0 + 2.5j):
        value = bundle.scalar_kernel(w, w)
        assert abs(value.imag) < 1e-14
        assert value.real >= 0.0


def test_odd_size_one_kernel():
    bundle = ginoe_kernel(1)
    xs = np.linspace(-3.0, 3.0, 13)
    for x in xs:
        assert np.isclose(
            bundle.scalar_kernel(x, 0.7), np.exp(-0.5 * x * x) / SQRT_2PI, rtol=1e-14
        )
        assert bundle.entry(0, 0, x, 0.7) == 0.0
    # a single eigenvalue admits no two-point correlation
    for x, y in ((0.3, 1.1), (-2.0, 0.5)):
        assert abs(two_point_real_density(bundle, x, y)) < 1e-16


def test_summed_forms_match_pair_sums():
    reals = np.array([-1.2, 0.4, 2.1])
    comps = np.array([0.5 + 0.7j, -1.1 + 1.9j])
    for N in (4, 5, 2, 3):
        bundle = ginoe_kernel(N)
        for mu, eta in ((reals, reals), (reals, comps), (comps, reals), (comps, comps)):
            closed = ginoe_summed_S(N, mu[:, None], eta)
            assert closed.shape == (mu.size, eta.size)
            assert np.allclose(closed, bundle.scalar_kernel(mu[:, None], eta), rtol=0, atol=1e-10)
        assert np.isclose(ginoe_summed_S(N, 0.4, -1.2), bundle.scalar_kernel(0.4, -1.2), rtol=0, atol=1e-10)
    # a huge real second argument: the Gaussian sends the smooth term to 0
    # and the edge term to its full half moment, without overflow
    huge = {
        (4, 1e200): 0.006452983002373430,
        (4, -1e200): -0.006452983002373430,
        (5, 1e200): 0.001029747101743415,
        (5, -1e200): 0.001029747101743415,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (N, eta), finite_rr in huge.items():
            bundle = ginoe_kernel(N)
            assert abs(ginoe_summed_S(N, 0.3, eta) - finite_rr) <= 1e-15
            for mu in (0.3, 0.3 + 0.4j):
                assert abs(ginoe_summed_S(N, mu, eta) - bundle.scalar_kernel(mu, eta)) <= 1e-15


def mp_pair_weight(z):
    z = mpmath.mpc(z)
    return mpmath.sqrt(mpmath.erfc(mpmath.sqrt(2) * abs(z.imag))) * mpmath.exp(-z * z / 2)


def mp_summed_S(N, mu, eta):
    # the incomplete-gamma form at 50 digits, sharing no code with the library
    mu = mpmath.mpc(mu)
    complex_eta = isinstance(eta, complex)
    z = mpmath.conj(mpmath.mpc(eta)) if complex_eta else mpmath.mpf(eta)
    smooth = (
        mp_pair_weight(mu) * mp_pair_weight(z) * mpmath.exp(mu * z)
        * mpmath.gammainc(N - 1, mu * z) / mpmath.factorial(N - 2)
    )
    if complex_eta:
        return 1j * (z - mu) * smooth / mpmath.sqrt(2 * mpmath.pi)
    # integral of u^(N-2) e^(-u^2/2) over [0, eta]
    s = mpmath.mpf(N - 1) / 2
    partial = 2 ** (s - 1) * mpmath.gammainc(s, 0, z * z / 2)
    if z < 0 and N % 2 == 0:
        partial = -partial
    edge = mu ** (N - 1) * mp_pair_weight(mu) * partial / mpmath.factorial(N - 2)
    return (smooth + edge) / mpmath.sqrt(2 * mpmath.pi)


@pytest.mark.parametrize("N", [2, 3, 16, 17, 32, 64])
def test_summed_forms_against_high_precision_oracle(N):
    # bulk points and tails out to 1.4 sqrt(N), above and near the axis
    reals = np.array([-1.4, -0.9, -0.3, 0.2, 0.8, 1.4]) * math.sqrt(N)
    comps = reals + np.array([0.6j, 1.5j, 0.1j, 0.6j, 2.2j, 0.4j])
    worst = 0.0
    with mpmath.workdps(50):
        for mu, eta in ((reals, reals), (reals, comps), (comps, reals), (comps, comps)):
            closed = ginoe_summed_S(N, mu[:, None], eta)
            for i, a in enumerate(mu):
                for j, b in enumerate(eta):
                    worst = max(worst, float(abs(closed[i, j] - mp_summed_S(N, a, b))))
    assert worst * SQRT_2PI <= 1e-14, worst * SQRT_2PI


def test_kernels_hold_past_the_command_line_cap():
    # no factorial is formed: at these sizes the pair norms (2N)! and the
    # summed form's (N-2)! passed the largest double
    for N in (176, 200):
        bundle = ginoe_kernel(N)
        # the real density at 0 is 1/sqrt(2 pi) at every N >= 2
        assert abs(bundle.scalar_kernel(0.0, 0.0) * SQRT_2PI - 1.0) <= 1e-15, N
        reals = np.linspace(-1.3, 1.3, 9) * math.sqrt(N)
        points = (reals, reals + 0.5j)
        for mu in points:
            for eta in points:
                gap = np.abs(bundle.scalar_kernel(mu[:, None], eta) - ginoe_summed_S(N, mu[:, None], eta))
                assert gap.max() * SQRT_2PI <= 1e-14, N
    assert np.isfinite(goe_kernel(200).scalar_kernel(0.0, 0.0))


def test_summed_form_reads_T0_from_the_eta_pass(monkeypatch):
    # one pass over the real eta with 0 appended: every shape of eta gives
    # what per-element calls give, bit for bit, and the appended point
    # the moments of a lone 0 on the generic path
    passes = []

    def recorded(*args, **kwargs):
        passes.append(gaussian_tail_moments(*args, **kwargs))
        return passes[-1]

    monkeypatch.setattr(ginoe_kernels, "gaussian_tail_moments", recorded)
    N = 7
    mu, eta = np.array([-1.3, 0.2, 2.4]), np.array([-2.2, -0.4, 0.0, 0.9, 3.1])
    single = np.array([[ginoe_summed_S(N, m, e) for e in eta] for m in mu])
    shapes = (
        (mu[:, None], eta, single),  # broadcast
        (mu[1], eta, single[1]),  # 1-D
        (mu[:, None], eta[3], single[:, 3:4]),  # 0-d numpy float
        (mu[2], np.array(eta[0]), single[2, 0]),  # 0-d array
    )
    for m, e, want in shapes:
        got = ginoe_summed_S(N, m, e)
        assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == np.asarray(want).tobytes()
    zero = gaussian_tail_moments(N - 1, 0.0)
    assert len(passes) == mu.size * eta.size + 4
    for rows, moments in passes:
        assert rows[-1].tobytes() == zero[0].tobytes() and moments[-1].tobytes() == zero[1].tobytes()


def test_summed_form_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ginoe_summed_S(1, 0.0, 0.0)


def test_assembled_matrix_antisymmetric_mixed_points():
    config = PointConfiguration(reals=(-0.6, 1.1), complexes=(0.4 + 0.8j,))
    for bundle in (ginoe_kernel(4), ginoe_kernel(5)):
        A = bundle.assemble(config)
        as_antisymmetric(A)
        assert A.shape == (6, 6)


def test_correlations_invariant_under_point_reordering():
    bundle = ginoe_kernel(4)
    a = ginoe_rho(bundle, PointConfiguration(reals=(-0.6, 1.1), complexes=(0.4 + 0.8j,)))
    b = ginoe_rho(bundle, PointConfiguration(reals=(1.1, -0.6), complexes=(0.4 + 0.8j,)))
    assert np.isclose(a[0], b[0], rtol=1e-11)


def test_mixed_correlation_real_with_small_residue():
    bundle = ginoe_kernel(5)
    value, residue = ginoe_rho(
        bundle, PointConfiguration(reals=(0.5,), complexes=(0.2 + 0.9j, -1.0 + 0.6j))
    )
    assert residue < 1e-12
    assert value >= 0.0


def test_rho_agrees_with_generic_entry_point():
    bundle = ginoe_kernel(4)
    config = PointConfiguration(reals=(0.3, -1.2))
    direct = rho(bundle, config)
    wrapped, residue = ginoe_rho(bundle, config)
    assert residue == 0.0
    assert np.isclose(direct, wrapped, rtol=1e-14)
