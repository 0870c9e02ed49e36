import collections
import contextlib
import functools
import io
import math

import mpmath
import numpy as np
import pytest
from scipy import special

from betaone import cli, ginibre, kernels, specfun
from betaone.cli import GATES
from betaone.kernels import (
    KernelBundle,
    PointConfiguration,
    density_integral,
    dyson_recurrence_check,
    family_bundle,
    interrelations_check,
    kernel_bundle,
    rho,
)
from betaone.pfaffian import as_antisymmetric, standard_pairing
from betaone.reduction import conditioned_bundle, far_points
from betaone.skewortho import family_coefficients

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
ENSEMBLES = ("goe", "ginoe")


def two_point_density_closed_form(x):
    # hand-derived one-point density for the smallest even size:
    # (e^{-x^2/2}/sqrt(pi)) (x Phi_0(x) - Phi_1(x)) with the two lowest
    # half-range transforms in closed form
    phi0 = 0.5 * SQRT_2PI * special.erf(x / math.sqrt(2.0))
    phi1 = -np.exp(-0.5 * x * x)
    return np.exp(-0.5 * x * x) / SQRT_PI * (x * phi0 - phi1)


def test_two_point_scalar_kernel_closed_form():
    bundle = kernel_bundle("goe", 2)
    x = np.linspace(-3.0, 3.0, 25)
    assert np.allclose(bundle.scalar_kernel(x, x), two_point_density_closed_form(x), rtol=1e-10, atol=1e-13)


def test_density_is_one_point_correlation():
    bundle = kernel_bundle("goe", 4)
    for x in [-1.7, 0.0, 0.8]:
        one_point = rho(bundle, PointConfiguration(reals=(x,)))
        assert np.isclose(one_point, bundle.scalar_kernel(x, x), rtol=1e-12, atol=0)


def test_density_integrates_to_size_even():
    for N in [2, 4]:
        assert np.isclose(density_integral(kernel_bundle("goe", N)), N, rtol=1e-15, atol=0), N


def test_density_integrates_to_size_odd():
    for N in [1, 3, 5]:
        assert np.isclose(density_integral(kernel_bundle("goe", N)), N, rtol=1e-15, atol=0), N
        # the even kernel conditioned at +inf is the odd one, its border column included
        assert np.isclose(density_integral(conditioned_bundle(kernel_bundle("goe", N + 1), np.inf)), N, rtol=1e-15, atol=0), N


def test_smallest_odd_size_is_standard_normal():
    bundle = kernel_bundle("goe", 1)
    x = np.linspace(-3.0, 3.0, 7)
    assert np.allclose(bundle.scalar_kernel(x, x), np.exp(-0.5 * x * x) / SQRT_2PI, rtol=1e-12, atol=0)
    # the scalar kernel is independent of its second argument here
    assert np.isclose(
        bundle.scalar_kernel(0.4, -2.0), bundle.scalar_kernel(0.4, 1.5), rtol=0, atol=1e-15
    )


def test_odd_derivative_kernel_closed_form():
    # hand-derived for size 3: prefactor 2/sqrt(pi), antisymmetric
    # factor (y - x)(1 + xy) under the joint Gaussian weight
    bundle = kernel_bundle("goe", 3)
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
        assert np.isclose(bundle.entry(0, 0, x, y), expected, rtol=1e-9, atol=1e-13)


def test_kernel_antisymmetries():
    for bundle in [kernel_bundle("goe", 4), kernel_bundle("goe", 3)]:
        rng = np.random.default_rng(5)
        for _ in range(5):
            x, y = rng.normal(size=2)
            assert np.isclose(
                bundle.entry(0, 0, x, y),
                -bundle.entry(0, 0, y, x),
                rtol=1e-11,
                atol=1e-14,
            )
            assert np.isclose(
                bundle.entry(1, 1, x, y),
                -bundle.entry(1, 1, y, x),
                rtol=1e-11,
                atol=1e-14,
            )
        assert bundle.entry(0, 0, 0.3, 0.3) == 0.0
        assert bundle.entry(1, 1, 0.3, 0.3) == 0.0


def test_assembled_matrix_is_antisymmetric():
    for bundle in [kernel_bundle("goe", 4), kernel_bundle("goe", 5)]:
        config = PointConfiguration(reals=(-1.1, 0.2, 0.9))
        as_antisymmetric(bundle.assemble(config))


def kernel_blocks(bundle):
    # the scalar, derivative and integral blocks: cell entries (0, 1), (0, 0) and (1, 1)
    return bundle.scalar_kernel, functools.partial(bundle.entry, 0, 0), functools.partial(bundle.entry, 1, 1)


def cells_from_kernels(bundle, points):
    # reference loop: every 2x2 cell written out from the three kernels
    S, D, I = kernel_blocks(bundle)
    A = np.zeros((2 * len(points), 2 * len(points)), dtype=complex)
    for i, a in enumerate(points):
        for j, b in enumerate(points):
            A[2 * i : 2 * i + 2, 2 * j : 2 * j + 2] = [[D(a, b), S(a, b)], [-S(b, a), I(a, b)]]
    return A


def test_assembled_matrix_matches_kernel_cells():
    line = PointConfiguration(reals=(-1.1, 0.2, 0.9))
    mixed = PointConfiguration(reals=(-0.6, 1.1), complexes=(0.4 + 0.8j, -0.3 + 1.5j))
    cases = (
        (kernel_bundle("goe", 4), line),
        (kernel_bundle("goe", 5), line),
        (kernel_bundle("ginoe", 4), mixed),
        (kernel_bundle("ginoe", 5), mixed),
    )
    for bundle, config in cases:
        points = list(config.reals) + list(config.complexes)
        reference = cells_from_kernels(bundle, points)
        assert np.allclose(bundle.assemble(config), reference, rtol=0, atol=1e-14)


def two_point_real_density(bundle, x, y):
    # the Pfaffian of two real points' cells [[D, S], [-S^T, I]], written out
    s = bundle.scalar_kernel
    return (
        s(x, x) * s(y, y)
        - s(x, y) * s(y, x)
        - bundle.entry(0, 0, x, y) * bundle.entry(1, 1, x, y)
    )


def test_one_two_point_formula_for_both_ensembles():
    # one cell for both ensembles: the same written-out 2x2 Pfaffian is rho
    rng = np.random.default_rng(35)
    for ensemble in ENSEMBLES:
        for N in range(2, 9):
            bundle = kernel_bundle(ensemble, N)
            for x, y in rng.uniform(-0.9, 0.9, (4, 2)) * math.sqrt(N):
                want = rho(bundle, PointConfiguration(reals=(x, y)))
                assert abs(two_point_real_density(bundle, x, y) - want) <= 1e-13 * abs(want), (ensemble, N)


def test_vectorized_kernels_match_pointwise_calls():
    xs = np.linspace(-3.0, 3.0, 13)
    for bundle in (kernel_bundle("goe", 4), kernel_bundle("goe", 5), kernel_bundle("ginoe", 5)):
        for kernel in kernel_blocks(bundle):
            grid = kernel(xs[:, None], xs[None, :])
            loop = np.array([[kernel(x, y) for y in xs] for x in xs])
            assert np.allclose(grid, loop, rtol=0, atol=1e-14)


def test_pair_correlation_exchange_symmetry():
    for bundle in [kernel_bundle("goe", 4), kernel_bundle("goe", 3)]:
        a = rho(bundle, PointConfiguration(reals=(0.7, -0.4)))
        b = rho(bundle, PointConfiguration(reals=(-0.4, 0.7)))
        assert np.isclose(a, b, rtol=1e-10, atol=1e-14)


def test_pair_correlation_nonnegative_and_vanishing_at_coincidence():
    bundle = kernel_bundle("goe", 4)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x, y = rng.normal(size=2) * 1.5
        assert rho(bundle, PointConfiguration(reals=(x, y))) > -1e-12
    assert abs(rho(bundle, PointConfiguration(reals=(0.4, 0.4)))) < 1e-12


def test_dyson_recurrence_small_cases():
    empty, single, pair = dyson_recurrence_check(kernel_bundle("goe", 4), [(), (0.3,), (-0.5, 1.1)])
    # the empty probe is the density's normalization: rho_0 = 1, N expected
    assert empty["n"] == 0 and empty["expected"] == 4.0
    assert abs(empty["integrated"] - 4.0) <= 1e-13
    assert single["relative_deviation"] < 1e-6
    assert pair["n"] == 2 and pair["relative_deviation"] < 1e-6
    report, = dyson_recurrence_check(kernel_bundle("goe", 3), [(-0.8,)])
    assert report["relative_deviation"] < 1e-6
    # at n = N the n + 1 point correlation is 0: both sides vanish exactly
    for N, points in ((1, (0.37,)), (2, (-1.1, 0.4))):
        report, = dyson_recurrence_check(kernel_bundle("goe", N), [points])
        assert report["n"] == N and report["points"] == points
        assert report["integrated"] == report["expected"] == 0.0
        assert report["relative_deviation"] == 0.0


def test_point_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration(reals=(0.0,), complexes=(1.0 - 2.0j,))
    bundle = kernel_bundle("goe", 2)
    with pytest.raises(ValueError):
        rho(bundle, PointConfiguration(reals=(0.0,), complexes=(1.0 + 2.0j,)))
    with pytest.raises(ValueError):
        rho(bundle, PointConfiguration())


def test_parity_validation():
    # the parity comes from N; odd sizes carry the border column
    for ensemble in ENSEMBLES:
        for N in (3, 4):
            bundle = kernel_bundle(ensemble, N)
            assert bundle.parity == ("odd" if N % 2 else "even")
            assert bundle.rows(0.3).shape == (2, N + N % 2)
        with pytest.raises(ValueError):
            kernel_bundle(ensemble, 0)
    with pytest.raises(ValueError):
        kernel_bundle("goe", 4).scalar_kernel(0.1 + 0.2j, 0.3)
    with pytest.raises(ValueError, match="unknown ensemble 'gue'"):
        kernel_bundle("gue", 4)
    # the bundle checks its own name: a misspelt one builds no GinOE bundle under it
    with pytest.raises(ValueError, match="unknown ensemble 'GOE'"):
        family_bundle("GOE", family_coefficients(4), 4)
    with pytest.raises(ValueError, match="unknown ensemble 'gue'"):
        KernelBundle("gue", 4, family_coefficients(4), np.maximum(standard_pairing(4), 0.0))


def test_skew_suite_reads_the_bundles_own_family():
    # one coefficient of the bundle's C bent by a relative 1e-8: verify's skew
    # suite must see it, at both parities and at both ends of the size range
    for ensemble in ENSEMBLES:
        for N in (4, 5, 64):
            C = family_coefficients(N)
            C[0, 0] *= 1.0 + 1e-8
            (check,) = cli._suite_skew(family_bundle(ensemble, C, N))
            assert check["check"] == "gram-deviation"
            assert not check["passed"] and check["deviation"] > 1e-9, (ensemble, N, check)
    # the Gram is C's alone: the border and the conditioning only re-pair the family
    for ensemble in ENSEMBLES:
        odd = kernel_bundle(ensemble, 5)
        unbordered = KernelBundle(ensemble, 5, odd.C, np.maximum(standard_pairing(5), 0.0))
        assert np.array_equal(odd.gram(), unbordered.gram()), ensemble
        even = kernel_bundle(ensemble, 6)
        for far in (8.0, np.inf):
            assert np.array_equal(conditioned_bundle(even, far).gram(), even.gram()), (ensemble, far)


def line_rows(C, hermite):
    """Rows (W, P) of the columns of C at real points, on h_n (hermite) or on m_n: an
    unbordered bundle's."""
    return KernelBundle("goe" if hermite else "ginoe", len(C), C, np.zeros((C.shape[1],) * 2)).rows


def counting(fn, evaluated, point=0):
    """fn, appending a copy of its argument number `point` to evaluated on every call."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        evaluated.append(np.array(args[point]))
        return fn(*args, **kwargs)

    return counted


@pytest.mark.parametrize("ensemble", ["goe", "ginoe"])
def test_each_verify_suite_takes_a_point_arrays_rows_once(monkeypatch, ensemble):
    # the row passes of every family a verify run builds, keyed by the exact
    # points: none twice within a suite, but for the plane's kernels grid,
    # which the block interrelations and the closed-form agreement each take.
    # A family is one family_bundle's coefficients C, which the bundles
    # bordered or conditioned from it share
    sizes = {"goe": (4, 5), "ginoe": (8, 9)}[ensemble]
    build, take_rows, families = kernels.family_bundle, KernelBundle.rows, {}

    def counted_family(ensemble, C, N):
        families[id(C)] = []
        return build(ensemble, C, N)

    def counted_rows(bundle, z):
        families[id(bundle.C)].append(np.array(z))
        return take_rows(bundle, z)

    monkeypatch.setattr(kernels, "family_bundle", counted_family)
    monkeypatch.setattr(KernelBundle, "rows", counted_rows)
    for N in sizes:
        shared = set()
        if ensemble == "ginoe":
            shared = {(p.dtype.str, p.tobytes()) for p in verify_grid(ensemble, N)}
        for suite in cli.SUITES:
            families.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["verify", "--suite", suite, "--ensemble", ensemble, "--size", str(N)]) == 0
            assert families, (N, suite)
            for evaluated in families.values():
                passes = collections.Counter((p.dtype.str, p.tobytes()) for p in evaluated)
                repeated = {key: count for key, count in passes.items() if count > 1}
                expected = dict.fromkeys(shared, 2) if suite == "kernels" else {}
                assert repeated == expected, (N, suite, len(evaluated))
    # a column of points gets its points' rows bit for bit (a stacked matmul
    # would round differently), so rows taken once serve it too
    for N in (*sizes, 64):
        rows = kernel_bundle(ensemble, N).rows
        for points in verify_grid(ensemble, N):
            assert np.array_equal(rows(points[:, None]), rows(points)[:, None]), (N, points.dtype)


def hat_transform(h):
    """T with rows @ T the hatted rows of an odd-size family, h the partners at +infinity.

    Every column below the top loses h_j / h_top times the top column, so
    its partner at +infinity vanishes: the hatted polynomials integrate
    to zero against the weight.
    """
    T = np.eye(len(h))
    T[-1, :-1] = -h[:-1] / h[-1]
    return T


def hatted_pairing(h):
    """T M^ T^T on the plain rows plus the constant column: M^ the standard
    pairing of the hatted rows, the top bordered with the column by -1/2
    over its partner at +infinity, and T the hat with the column kept."""
    N = len(h)
    M = standard_pairing(N + 1)
    M[N - 1, N], M[N, N - 1] = -0.5 / h[-1], 0.5 / h[-1]
    T = np.eye(N + 1)
    T[:N, :N] = hat_transform(h)
    return T @ M @ T.T


@pytest.mark.parametrize("ensemble", ["goe", "ginoe"])
def test_odd_pairing_is_the_hat_moved_into_the_pairing(ensemble):
    # hatting the rows by T and pairing them by M^ is pairing the plain
    # rows by T M^ T^T: the bordered pairing, to roundoff
    for N in range(1, 66, 2):
        bundle = kernel_bundle(ensemble, N)
        h = bundle.rows(np.inf)[1][:-1]
        assert np.abs(bundle.pairing - hatted_pairing(h)).max() <= 1e-15, N


def test_real_points_pass_the_recurrence_once(monkeypatch):
    # the rows W and the tail moments behind the partner eps W come from one
    # weighted_powers pass per real point array, wherever the rows are read;
    # the constants at +-inf (the full moments, the odd family's partners
    # at +inf) take none, and the closed form reads T(0) from eta's pass
    passes = []
    counted = counting(specfun.weighted_powers, passes, point=1)
    for module in (specfun, ginibre):
        monkeypatch.setattr(module, "weighted_powers", counted)
    x = np.linspace(-2.0, 2.0, 7)
    for ensemble in ENSEMBLES:
        passes.clear()
        bundle = family_bundle(ensemble, family_coefficients(5), 5)
        bundle.rows(np.inf)
        assert not passes
        bundle.rows(x)
        assert len(passes) == 1 and np.array_equal(passes[0], x)
    passes.clear()
    mu, eta = np.array([[0.3], [-1.1]]), np.array([0.7, -1.6])
    ginibre.ginoe_summed_S(6, mu, eta)
    assert len(passes) == 2
    for point in (mu, np.append(eta, 0.0)):
        assert sum(p.shape == point.shape and np.array_equal(p, point) for p in passes) == 1


def test_rho_vanishes_beyond_n_eigenvalues():
    # more eigenvalues than N, a complex point counting twice: exactly 0
    assert rho(kernel_bundle("goe", 3), PointConfiguration(reals=(-0.4, 0.1, 0.6, 1.2))) == 0.0
    assert rho(kernel_bundle("goe", 2), PointConfiguration(reals=(-0.4, 0.1, 0.6))) == 0.0
    bundle = kernel_bundle("ginoe", 4)
    over = PointConfiguration(reals=(0.2,), complexes=(0.3 + 0.5j, -0.6 + 0.9j))
    assert rho(bundle, over) == 0.0
    assert rho(kernel_bundle("ginoe", 3), PointConfiguration(reals=(0.2, 0.7), complexes=(0.1 + 0.4j,))) == 0.0
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
            bundle = kernel_bundle("goe", N)
            for x, got in zip(xs, bundle.scalar_kernel(xs, xs)):
                want = mp_goe_density(N, float(x))
                worst = max(worst, float(abs(got - want) / want))
    assert worst <= 1e-12


LINE_RELATIONS = {"partner-antiderivative", "integral-real-real"}
PLANE_RELATIONS = LINE_RELATIONS | {
    "derivative-real-complex",
    "derivative-complex-complex",
    "integral-complex-real",
    "integral-complex-complex",
    "integral-mixed-antisymmetry",
}


def verify_grid(ensemble, N):
    # the verify suite's reals over +-1.3 sqrt(N) and, in the plane, the same at +0.5i
    reals = np.linspace(-1.3, 1.3, 9) * math.sqrt(N)
    return (reals, reals + 0.5j) if ensemble == "ginoe" else (reals,)


def interrelations_on_unsorted_points(N, reals, complexes):
    # the check sorts the reals
    line = interrelations_check(kernel_bundle("goe", N), reals)
    plane = interrelations_check(kernel_bundle("ginoe", N), reals, complexes)
    assert set(line) == LINE_RELATIONS
    assert set(plane) == PLANE_RELATIONS
    for key, deviation in (*line.items(), *plane.items()):
        assert deviation <= GATES["block-interrelations"], (N, key, deviation)


def test_interrelations_even():
    interrelations_on_unsorted_points(4, (0.7, -1.3, 2.2, 0.1), (0.4 + 0.6j, -0.9 + 1.4j))


def test_interrelations_odd():
    interrelations_on_unsorted_points(5, (1.4, -0.8, -2.5, 0.2), (0.3 + 0.5j, -1.2 + 1.0j))


def test_interrelations_hold_at_every_size():
    # worst reading 1.0e-14 (GOE N = 52, partner-antiderivative); GinOE 3.0e-15
    for ensemble in ENSEMBLES:
        for N in range(1, 65):
            report = interrelations_check(kernel_bundle(ensemble, N), *verify_grid(ensemble, N))
            assert max(report.values()) <= GATES["block-interrelations"], (ensemble, N, report)


def shifted_partners(bundle, shift):
    # the bundle with every partner row moved by shift times its W row
    class Shifted(KernelBundle):
        def rows(self, z):
            value = super().rows(z)
            value[..., 1, :] += shift * value[..., 0, :]
            return value

    return Shifted(bundle.ensemble, bundle.N, bundle.C, bundle.upper)


def test_interrelations_fail_on_shifted_partner_rows():
    # a partner row off by 1e-11 W is no antiderivative: it reads 1.2e-12 or more
    for ensemble in ENSEMBLES:
        for N in (1, 4, 5, 64):
            report = interrelations_check(shifted_partners(kernel_bundle(ensemble, N), 1e-11), *verify_grid(ensemble, N))
            assert report["partner-antiderivative"] > 5 * GATES["block-interrelations"], (ensemble, N)


def test_weighted_rows_are_the_w_half_of_the_rows():
    # bit for bit, where the weight underflows (+-40) and at +-inf too, on
    # even, bordered odd and conditioned families.  A border column is W 0,
    # in weighted and direction too, with partner 1 at a real point and 0 at
    # a complex one; bordering keeps the family's coefficients
    x = np.array([-np.inf, -40.0, -1.3, 0.0, 0.7, 40.0, np.inf])
    z = np.array([-1.3 + 0.5j, 0.7 + 2.0j])
    for ensemble in ENSEMBLES:
        even = kernel_bundle(ensemble, 4)
        odd = kernel_bundle(ensemble, 5)
        assert np.array_equal(odd.C, family_coefficients(5))
        for bundle in (even, odd, conditioned_bundle(even, 8.0), conditioned_bundle(even, np.inf)):
            rows, case = bundle.rows, (ensemble, bundle.N, bundle.upper.shape)
            assert np.array_equal(bundle.weighted(x), rows(x)[:, 0]), case
            assert np.array_equal(bundle.weighted(x[:, None]), rows(x[:, None])[..., 0, :]), case
            for point in x:
                assert np.array_equal(bundle.weighted(point), rows(point)[0]), (case, point)
            border = slice(bundle.C.shape[1], None)
            assert bundle.upper.shape[0] - bundle.C.shape[1] == (bundle is not even), case
            if bundle.N == 3:
                assert bundle.C is even.C, case
            assert not bundle.weighted(x)[:, border].any(), case
            for point in (0.7, 8.0, np.inf):
                assert not bundle.direction(np.float64(point))[border].any(), (case, point)
            assert (rows(x)[:, 1, border] == 1.0).all(), case
            if ensemble == "ginoe":
                assert not rows(z)[..., border].any(), case


def test_interrelations_take_the_normal_cdf_at_the_reals_only(monkeypatch):
    # W alone at the 512 quadrature nodes: the partner rows, and with them
    # the normal CDF, only at the reals, once
    cdf, elements = specfun.normal_cdf, []

    def counted(x):
        elements.append(np.size(x))
        return cdf(x)

    monkeypatch.setattr(specfun, "normal_cdf", counted)
    for ensemble in ENSEMBLES:
        for N in (4, 5):
            grid = verify_grid(ensemble, N)
            elements.clear()
            interrelations_check(kernel_bundle(ensemble, N), *grid)
            assert 0 < sum(elements) <= len(grid[0]), (ensemble, N, elements)


def test_bordering_carries_the_size():
    # bordered sets the size it is given: the odd families report theirs, the
    # even kernel conditioned at a far point or at +inf one less, and the
    # limit counts the reals of the odd family
    for ensemble in ENSEMBLES:
        for N in (1, 5, 63):
            bundle = kernel_bundle(ensemble, N)
            assert (bundle.N, bundle.parity, bundle.ensemble) == (N, "odd", ensemble)
        for N in (2, 6, 64):
            even = kernel_bundle(ensemble, N)
            for x_far in (*far_points(N), np.inf):
                bundle = conditioned_bundle(even, x_far)
                assert (bundle.N, bundle.parity, bundle.ensemble) == (N - 1, "odd", ensemble), x_far
            limit, odd = density_integral(bundle), density_integral(kernel_bundle(ensemble, N - 1))
            assert abs(limit - odd) <= 1e-13 * odd, (ensemble, N, limit, odd)

