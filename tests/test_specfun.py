import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from scipy import special

from betaone.specfun import erfcx, gaussian_tail_moments, normal_cdf, weighted_powers

SQRT_2PI = math.sqrt(2.0 * math.pi)


def test_erfcx_matches_unscaled_form():
    # scipy as an independent cross-check
    x = np.linspace(0.0, 5.0, 41)
    assert np.allclose(erfcx(x), np.exp(x * x) * special.erfc(x), rtol=1e-13, atol=0)


def max_relative_error(values, oracle, xs):
    worst = 0.0
    for value, x in zip(values, xs):
        exact = oracle(mpmath.mpf(float(x)))
        worst = max(worst, float(abs((mpmath.mpf(float(value)) - exact) / exact)))
    return worst


def test_erfcx_against_high_precision_oracle():
    # a dense grid, random points, and the doubles next to the switch to
    # the asymptotic series at x = 26
    switch = [np.nextafter(26.0, -np.inf), 26.0, np.nextafter(26.0, np.inf), 25.999, 26.001]
    rng = np.random.default_rng(2026)
    xs = np.concatenate([np.linspace(-5.0, 60.0, 1301), rng.uniform(-5.0, 60.0, 700), switch])
    with mpmath.workdps(50):
        worst = max_relative_error(erfcx(xs), lambda t: mpmath.exp(t * t) * mpmath.erfc(t), xs)
    assert worst <= 2e-15, worst


def test_normal_cdf_against_high_precision_oracle():
    rng = np.random.default_rng(2027)
    xs = np.concatenate([np.linspace(-37.0, 8.0, 901), rng.uniform(-37.0, 8.0, 600)])
    with mpmath.workdps(50):
        worst = max_relative_error(normal_cdf(xs), mpmath.ncdf, xs)
    assert worst <= 2e-15, worst


def test_edge_values_and_shapes():
    assert erfcx(0.0) == 1.0 and normal_cdf(0.0) == 0.5
    assert erfcx(np.inf) == 0.0 and erfcx(-np.inf) == np.inf
    assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
    assert math.isnan(erfcx(np.nan)) and math.isnan(normal_cdf(np.nan))
    # 2 exp(x^2) passes the largest double between -26.62 and -26.63
    assert math.isfinite(erfcx(-26.62)) and erfcx(-26.63) == np.inf
    for f in (erfcx, normal_cdf):
        for scalar in (0.3, np.float64(0.3), np.asarray(0.3), 2):
            assert isinstance(f(scalar), float)
        grid = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
        values = f(grid)
        assert values.shape == (3, 4)
        assert np.array_equal(values.ravel(), [f(x) for x in grid.ravel()])
        assert f(np.zeros((0, 2))).shape == (0, 2)
    # rows and moments of every length, on 0-d, array and empty input; a
    # shorter call is the head of a longer one, bit for bit, and its rows
    # are the Gaussian-weighted weighted_powers rows
    for x in (0.3, np.linspace(-3.0, 3.0, 12).reshape(3, 4), np.zeros((0, 2))):
        x = np.asarray(x, dtype=float)
        for hermite in (False, True):
            full = gaussian_tail_moments(8, x, hermite)
            weighted = weighted_powers(8, x, np.exp(-0.5 * x * x), 0.5 if hermite else 0.0)
            assert np.array_equal(full[0], weighted)
            for n in (0, 1, 2, 5):
                rows, moments = gaussian_tail_moments(n, x, hermite)
                assert rows.shape == moments.shape == x.shape + (n,)
                assert np.array_equal(rows, full[0][..., :n]) and np.array_equal(moments, full[1][..., :n])
    edges = np.array([-np.inf, np.nan, np.inf, -1e308, 1e308, 0.0])
    assert np.array_equal(normal_cdf(edges), [0.0, np.nan, 1.0, 0.0, 1.0, 0.5], equal_nan=True)
    assert np.array_equal(normal_cdf(edges), [normal_cdf(x) for x in edges], equal_nan=True)


def test_erfcx_and_normal_cdf_match_scipy():
    # scipy as an independent cross-check of both functions, on ranges
    # where its own rounding of x^2 or x/sqrt(2) stays below the bound
    x = np.linspace(-5.0, 40.0, 451)
    assert np.allclose(erfcx(x), special.erfcx(x), rtol=1e-14, atol=0)
    x = np.linspace(-37.0, 8.0, 451)
    assert np.allclose(normal_cdf(x), special.ndtr(x), rtol=1e-12, atol=0)


def test_normal_cdf_basics():
    assert np.isclose(normal_cdf(0.0), 0.5, rtol=0, atol=1e-15)
    assert np.isclose(normal_cdf(1.0) + normal_cdf(-1.0), 1.0, rtol=0, atol=1e-15)


def tail_moment(k, x):
    # the integral of t^k e^(-t^2/2) over [x, inf), alone: sqrt(k!) times
    # the moment of the normalized monomial t^k / sqrt(k!)
    return gaussian_tail_moments(k + 1, x)[1][..., k] * math.sqrt(math.factorial(k))


def test_gaussian_tail_moment_base_cases():
    x = np.linspace(-4.0, 4.0, 17)
    assert np.allclose(
        tail_moment(0, x),
        math.sqrt(2.0 * math.pi) * normal_cdf(-x),
        rtol=1e-14,
        atol=0,
    )
    assert np.allclose(tail_moment(1, x), np.exp(-0.5 * x * x), rtol=1e-14, atol=0)


def test_gaussian_tail_moment_against_quadrature_oracle():
    t, w = np.polynomial.legendre.leggauss(400)
    for k in [2, 3, 5, 8]:
        for x in [-2.1, 0.0, 0.9, 3.0]:
            a, b = x, x + 40.0
            tt = 0.5 * (a + b) + 0.5 * (b - a) * t
            ww = 0.5 * (b - a) * w
            oracle = np.sum(ww * tt ** k * np.exp(-0.5 * tt * tt))
            assert np.isclose(tail_moment(k, x), oracle, rtol=1e-11, atol=1e-13), (k, x)


def mp_gaussian_tail(k, x):
    # 50-digit oracle: the tail is 2^((k-1)/2) Gamma((k+1)/2, x^2/2) for
    # x >= 0; below 0 it is the full moment minus the mirrored tail
    s = mpmath.mpf(k + 1) / 2
    mirrored = 2 ** (mpmath.mpf(k - 1) / 2) * mpmath.gammainc(s, mpmath.mpf(x) ** 2 / 2)
    if x >= 0:
        return mirrored
    full = 2 ** (mpmath.mpf(k + 1) / 2) * mpmath.gamma(s) if k % 2 == 0 else 0
    return full - (-1) ** k * mirrored


def he_coefficients(n):
    # exact ascending monomial coefficients of He_0..He_{n-1}, from
    # He_{k+1} = x He_k - (k/2) He_{k-1}
    rows = [[Fraction(1)], [Fraction(0), Fraction(1)]]
    for k in range(1, n):
        row = [Fraction(0)] + rows[k]
        for i, c in enumerate(rows[k - 1]):
            row[i] -= Fraction(k, 2) * c
        rows.append(row)
    return rows[:n]


def test_gaussian_tail_moments_against_high_precision_oracle():
    xs = (-9.0, -6.0, -3.3, -1.2, 0.0, 0.7, 2.5, 5.0, 9.0)
    hermite = he_coefficients(64)
    tables = {}
    worst = 0.0
    with mpmath.workdps(50):
        for basis in ("monomial", "hermite"):
            table = tables[basis] = gaussian_tail_moments(
                64, np.array(xs), hermite=basis == "hermite"
            )[1]
            for i, x in enumerate(xs):
                tails = [mp_gaussian_tail(k, x) for k in range(64)]
                for k in range(64):
                    want = tails[k] / mpmath.sqrt(mpmath.factorial(k))
                    if basis == "hermite":
                        # He_k over sqrt(k! / 2^k): H_k / sqrt(2^k k!)
                        want = mpmath.fsum(
                            mpmath.mpf(c.numerator) / c.denominator * tails[j]
                            for j, c in enumerate(hermite[k])
                        ) / mpmath.sqrt(mpmath.factorial(k) / mpmath.mpf(2) ** k)
                    worst = max(worst, float(abs(table[i, k] - want) / abs(want)))
            rows, moments = gaussian_tail_moments(64, np.inf, hermite=basis == "hermite")
            assert not rows.any() and not moments.any()
    assert worst <= 1e-13
    assert tail_moment(5, 0.7) == tables["monomial"][5, 5] * math.sqrt(math.factorial(5))


def test_gaussian_full_moments():
    assert np.isclose(tail_moment(0, -np.inf), math.sqrt(2.0 * math.pi), rtol=1e-15, atol=0)
    assert tail_moment(3, -np.inf) == 0.0
    assert np.isclose(tail_moment(4, -np.inf), 3.0 * math.sqrt(2.0 * math.pi), rtol=1e-15, atol=0)
    assert np.isclose(tail_moment(6, -np.inf), 15.0 * math.sqrt(2.0 * math.pi), rtol=1e-15, atol=0)
    # on the Hermite rows: H_k e^(-x^2/2) integrates to sqrt(2 pi) k! / (k/2)!
    # at even k, so h_2 to sqrt(pi) and h_4 to sqrt(3 pi / 4); the rows vanish
    rows, moments = gaussian_tail_moments(6, -np.inf, hermite=True)
    assert not rows.any() and not moments[1::2].any()
    assert np.allclose(moments[::2], [SQRT_2PI, math.sqrt(math.pi), math.sqrt(0.75 * math.pi)], rtol=1e-15, atol=0)


def test_lone_infinities_match_the_array_path():
    # a 0-d +-inf takes no pass, its moments the undriven recurrence; the
    # array path on a one-element [+-inf] is the reference, bit for bit
    for hermite in (False, True):
        for n in range(131):
            for x in (-np.inf, np.inf):
                reference = gaussian_tail_moments(n, np.array([x]), hermite)
                for got, want in zip(gaussian_tail_moments(n, x, hermite), reference):
                    assert got.shape == (n,) and got.dtype == want.dtype
                    assert got.tobytes() == want[0].tobytes(), (n, x, hermite)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_weighted_powers_stops_at_its_last_row():
    # both stored rows are finite; a step past row n - 1 would overflow
    rows = weighted_powers(2, np.array([1e200]), 1.0)
    assert rows.tolist() == [[1.0, 1e200]]


def test_weighted_powers_rows_are_a_prefix_of_longer_runs():
    # row k does not depend on how many rows are asked for, bit for bit
    x = np.array([-30.0, -2.5, -0.0, 0.3, 1.7, 8.0, np.inf])
    z = np.array([0.3 + 0.6j, -1.2 + 0.05j, 4.0 + 2.0j])
    for c in (0.0, 0.5):
        for points, weight in ((x, np.exp(-0.5 * x * x)), (z, np.exp(-z.imag**2)), (x, 1.0)):
            for n in range(1, 40):
                short, longer = weighted_powers(n, points, weight, c), weighted_powers(n + 1, points, weight, c)
                assert short.tobytes() == longer[..., :n].copy().tobytes(), (c, n)
