import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy import special

import betaone
from betaone import ginibre
from betaone.ginibre import (
    HEIGHT_RADIUS,
    height_recurrence,
    hermite_recurrence,
    partition_function_check,
    plane_gram,
    plane_rows,
    sinclair_prefactor,
)
from betaone.kernels import kernel_bundle
from betaone.quadrature import gauss_legendre_rule, panel_rule, reference_rule, truncation_radius
from betaone.skewortho import family_coefficients, line_pairing, skew_deviation
from betaone.specfun import erfcx, weighted_powers

from test_kernels import hat_transform, line_rows

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# hand-derived pieces of the lowest pairing: the real-real double
# integral gives 2 sqrt(pi), the complex-pair integral reduces to
# int_0^inf y e^{y^2} erfc(sqrt2 y) dy = (sqrt2 - 1)/2
REAL_PIECE_12 = 2.0 * SQRT_PI
COMPLEX_PIECE_12 = 2.0 * SQRT_PI * (math.sqrt(2.0) - 1.0)
# rounding of coefficients of order one rescaled by irrational pair norms
ULPS = 4.0 * np.finfo(float).eps


def ginoe_norm(k):
    # pair norm of the monic p_{2k} = x^{2k}, p_{2k+1} = x^{2k+1} - 2k x^{2k-1}
    # under the full pairing, twice the line plus the plane integral
    return 2.0 * SQRT_2PI * math.factorial(2 * k)


def pair_roots(N):
    # the library's family is normalized for half the full pairing, so its
    # Grams times outer(pair_roots, pair_roots) are the monic family's
    return np.sqrt([ginoe_norm(j // 2) for j in range(N)])


def monic(C):
    # columns of C on the normalized monomials x^k / sqrt(k!), rescaled to
    # the monic family on the plain monomials
    N = C.shape[0]
    return C / np.sqrt([math.factorial(k) for k in range(N)])[:, None] * (pair_roots(N) / math.sqrt(2.0))


def test_polynomial_coefficients():
    C = monic(family_coefficients(6))
    assert np.allclose(C[:, 0], [1.0, 0.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(C[:, 1], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(C[:, 2], [0.0, 0.0, 1.0, 0.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(C[:, 3], [0.0, -2.0, 0.0, 1.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(C[:, 5], [0.0, 0.0, 0.0, -4.0, 0.0, 1.0], rtol=0, atol=ULPS)
    with pytest.raises(ValueError):
        family_coefficients(0)


def test_norms_closed_form():
    # the leading coefficient c of p_{2k} on x^{2k} is 1 / sqrt(half its pair
    # norm): the full pairing of the normalized pair is 2, of the monic 2 / c^2
    C = family_coefficients(7)
    for k, norm in ((0, 2.0 * SQRT_2PI), (1, 4.0 * SQRT_2PI), (3, 2.0 * SQRT_2PI * 720.0)):
        lead = C[2 * k, 2 * k] / math.sqrt(math.factorial(2 * k))
        assert np.isclose(2.0 / lead**2, norm, rtol=1e-15, atol=0), k
        assert np.isclose(ginoe_norm(k), norm, rtol=1e-15, atol=0), k


def test_family_container():
    C = family_coefficients(5)
    assert C.shape == (5, 5)
    # the monic p_3(w) times the pair weight, which is e^{-2} at the real point 2
    value = plane_rows(C, np.array([2.0 + 0.0j]))[0, 3] * pair_roots(5)[3] / math.sqrt(2.0)
    assert np.isclose(value, (8.0 - 4.0) * math.exp(-2.0), rtol=1e-15, atol=0)


def test_lowest_pairing_pieces_match_hand_values():
    # the monic pieces: twice the line and the whole plane integral
    C = family_coefficients(2)
    real, plane = line_pairing(C, hermite=False) * ginoe_norm(0), plane_gram(C) * ginoe_norm(0)
    assert np.isclose(real[0, 1], REAL_PIECE_12, rtol=1e-14, atol=0)
    assert np.isclose(plane[0, 1], COMPLEX_PIECE_12, rtol=1e-14, atol=0)
    assert np.isclose(kernel_bundle("ginoe", 2).gram()[0, 1] * ginoe_norm(0), 2.0 * SQRT_2PI, rtol=1e-14, atol=0)


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
    plane = plane_gram(family_coefficients(2))
    assert abs(plane[0, 1] * ginoe_norm(0) - estimate) <= 3.0 * stderr


def test_pairing_antisymmetry_and_diagonal():
    # the normalized Gram's entries are the monic family's relative to
    # sqrt(r_j r_k), r_j the pair norm holding j
    gram = kernel_bundle("ginoe", 6).gram()
    assert np.abs(np.diag(gram)).max() <= 1e-15
    assert np.abs(gram + gram.T).max() <= 1e-14


def test_skew_orthogonality_small_battery():
    s = pair_roots(4)
    gram = kernel_bundle("ginoe", 4).gram() * np.outer(s, s)
    r0 = ginoe_norm(0)
    assert abs(gram[0, 2]) <= 1e-14 * r0
    assert abs(gram[1, 3]) <= 1e-14 * r0
    assert np.isclose(gram[2, 3], ginoe_norm(1), rtol=1e-14, atol=0)


def plane_pairing(C, x, wx, y, wy):
    # -2 Im sum wx wy W_j conj W_k over the nodes x + iy, one height at a
    # time; W are the plane_rows, with pair_weight written out as
    # sqrt(erfcx(sqrt2 y)) e^{-(x^2 + y^2)/2 - ixy}, and Im(W^T diag(w) conj W)
    # is A - A^T with A = Im(W)^T diag(w) Re(W)
    n = C.shape[0]
    A = 0.0
    for height, weight in zip(y, wy):
        root = math.sqrt(erfcx(math.sqrt(2.0) * height))
        W = weighted_powers(n, x + 1j * height, root * np.exp(-0.5 * (x**2 + height**2) - 1j * x * height)) @ C
        A = A + (W.imag.T * (wx * weight)) @ W.real
    return -2.0 * (A - A.T)


def test_plane_gram_is_exact():
    # the integrand is e^{-x^2} omega(y) times a polynomial of degree below
    # 2N in x and in y, so N Gauss nodes in each give what N + 6 give and
    # what the 16-panel tensor Gauss-Legendre rule gives, to rounding; the
    # Gauss weights here carry e^{x^2} and 1 / omega(y), as the rows carry
    # the whole pair weight
    for N in (2, 5, 16, 33):
        C = family_coefficients(N)
        G = plane_gram(C)
        x, wx = reference_rule(hermite_recurrence, N + 6)
        y, wy = reference_rule(height_recurrence, N + 6)
        more = plane_pairing(C, x, wx, y, wy / (erfcx(math.sqrt(2.0) * y) * np.exp(-y * y)))
        assert np.abs(G - more).max() <= 3e-15, N
        radius = truncation_radius(2 * N) / math.sqrt(2.0)
        tensor = plane_pairing(C, *panel_rule((-radius, 0.0, radius), 16), *panel_rule((0.0, radius), 16))
        assert np.abs(G - tensor).max() <= 1e-14, N


def height_moments(count):
    """The 50-digit moments M_k of omega(y) y^k on [0, HEIGHT_RADIUS], k < count.

    M_0 is mpmath.quad's; the rest follow from omega' = 2y omega -
    2 sqrt(2/pi) e^{-y^2} integrated against y^k: 2 M_{k+1} = [y^k omega] -
    k M_{k-1} + 2 sqrt(2/pi) int y^k e^{-y^2}, the last half a lower
    incomplete gamma function.  mpmath.quad checks one of them.
    """
    R = mpmath.mpf(HEIGHT_RADIUS)

    def omega(y):
        return mpmath.exp(y * y) * mpmath.erfc(mpmath.sqrt(2) * y)

    edge, c = omega(R), mpmath.sqrt(2 / mpmath.pi)
    M = [mpmath.quad(omega, [0, 2, 4, 8, R]), (edge - 1) / 2 + c * mpmath.sqrt(mpmath.pi) / 2 * mpmath.erf(R)]
    for k in range(1, count - 1):
        M.append((R**k * edge - k * M[k - 1]) / 2 + c * mpmath.gammainc((k + 1) / mpmath.mpf(2), 0, R * R) / 2)
    quad = mpmath.quad(lambda y: omega(y) * y**17, [0, 2, 4, 6, 8, R])
    assert abs(quad / M[17] - 1) < mpmath.mpf(10) ** -40
    return M


def test_height_rule_moments_against_high_precision_oracle():
    # the n-node rule of omega, from stieltjes on one fixed discretisation,
    # integrates y^k exactly for k <= 2n - 1: at n = N + 1 every degree up to
    # 2N + 1, N <= 128, taken here in 50 digits from the rule's own doubles
    with mpmath.workdps(50):
        M = height_moments(2 * 129)
        for n in (1, 2, 3, 5, 8, 17, 33, 65, 97, 129):
            y, w = reference_rule(height_recurrence, n)
            y, w = [mpmath.mpf(v) for v in y], [mpmath.mpf(v) for v in w]
            worst = max(abs(mpmath.fsum(b * a**k for a, b in zip(y, w)) / M[k] - 1) for k in range(2 * n))
            assert worst <= 5e-15, (n, float(worst))


def test_height_discretisation_grows_with_the_rule(monkeypatch):
    # one discretisation per rule, its panels never fewer for a larger rule,
    # at most 64 (a count that serves every n <= 128) and fewer up to n = 32;
    # the oracle test above holds the rules built on it
    class Recorded(Exception):
        pass

    panels = []

    def recorded(edges, count):
        panels.append((tuple(edges), count))
        raise Recorded

    monkeypatch.setattr(ginibre, "panel_rule", recorded)
    for n in range(1, 129):
        with pytest.raises(Recorded):
            height_recurrence(n)
    assert [edges for edges, _ in panels] == [(0.0, HEIGHT_RADIUS)] * 128
    counts = [count for _, count in panels]
    assert counts == sorted(counts) and max(counts) <= 64 and max(counts[:32]) < 64, counts


GRAM_HASHES = """
import hashlib, sys
from betaone.ginibre import plane_gram
from betaone.skewortho import family_coefficients, line_pairing
C = family_coefficients(int(sys.argv[1]))
for gram in (line_pairing(C, hermite=True), line_pairing(C, hermite=False), plane_gram(C)):
    print(hashlib.sha256(gram.tobytes()).hexdigest())
"""


def test_gram_is_independent_of_the_blas_thread_count_past_the_size_cap():
    # one process per OpenBLAS thread count: at N = 129 a BLAS product C^T X C
    # goes multithreaded and reads differently at two threads in the GinOE
    # line sector and the plane Gram; the fixed-order einsum products do not
    src = os.path.dirname(os.path.dirname(betaone.__file__))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", GRAM_HASHES, "129"], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_grams_hold_at_every_size():
    for N in range(1, 65):
        for ensemble in ("ginoe", "goe"):
            assert skew_deviation(kernel_bundle(ensemble, N).gram()) <= 1e-14, (N, ensemble)


def half_moments(N):
    return -line_rows(family_coefficients(N), hermite=False)(np.inf)[1]


def test_half_moments():
    # of the monic family
    nus = half_moments(3) * pair_roots(3) / math.sqrt(2.0)
    assert np.isclose(nus[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert nus[1] == 0.0
    assert np.isclose(nus[2], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)


def test_hatted_family_small_case():
    # the plane partner at +infinity is minus the half moment; hatting
    # leaves it on the top polynomial and the constant column only
    # on the monic family, whose columns are the library's times pair_roots / sqrt2
    monic_scale = np.append(pair_roots(3) / math.sqrt(2.0), 1.0)
    bundle = kernel_bundle("ginoe", 3)
    T = hat_transform(-half_moments(3) * monic_scale[:3])
    at_infinity = bundle.rows(np.inf)[1] * monic_scale
    assert np.allclose(at_infinity[:3] @ T, [0.0, 0.0, -0.5 * SQRT_2PI], rtol=1e-15, atol=1e-15)
    assert at_infinity[3] == 1.0
    hat = monic(family_coefficients(3)) @ T
    assert np.allclose(hat[:, 0], [1.0, 0.0, -1.0], atol=1e-14)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], atol=1e-14)
    assert np.allclose(hat[:, 2], [0.0, 0.0, 1.0], atol=ULPS)
    # pair (0, 1) by the standard pairing, 2 / r_0 on the monic family; the
    # top with the constant column by -1/2 over its partner
    assert bundle.upper[0, 1] == 1.0
    assert np.isclose(bundle.upper[0, 1] / monic_scale[0] ** 2, 2.0 / (2.0 * SQRT_2PI), rtol=1e-15, atol=0)
    assert np.isclose(bundle.upper[2, 3] / monic_scale[2], 0.5 / (0.5 * SQRT_2PI), rtol=1e-15, atol=0)


def test_hatted_family_kills_weighted_integrals():
    # in pairing form: M times the partners at +infinity vanishes below the top
    bundle = kernel_bundle("ginoe", 5)
    at_infinity = bundle.rows(np.inf)[1]
    assert np.abs((bundle.pairing @ at_infinity)[:-2]).max() <= 1e-15
    T = hat_transform(at_infinity[:-1])
    x, w = gauss_legendre_rule(240, -12.0, 12.0)
    for i in range(4):
        value = w @ (bundle.rows(x)[:, 0, :-1] @ T[:, i])
        assert abs(value) < 1e-10, i


def test_hatted_requires_odd_size():
    # an even size keeps the plain rows: no hatting, no border column
    bundle = kernel_bundle("ginoe", 4)
    x = np.array([-0.7, 0.4])
    assert np.array_equal(bundle.rows(x), line_rows(family_coefficients(4), hermite=False)(x))


def test_sinclair_prefactor_small_values():
    assert np.isclose(sinclair_prefactor(2), 2.0 ** -1.5 / SQRT_PI, rtol=1e-15, atol=0)
    assert np.isclose(
        sinclair_prefactor(3), 2.0 ** -3.0 / (SQRT_PI * 0.5 * SQRT_PI), rtol=1e-14, atol=0
    )


def test_partition_function_normalization_small_sizes():
    assert np.isclose(partition_function_check(kernel_bundle("ginoe", 2)), 1.0, rtol=1e-14, atol=0)
    assert np.isclose(partition_function_check(kernel_bundle("ginoe", 3)), 1.0, rtol=1e-14, atol=0)


def test_partition_function_normalization_past_factorial_range():
    # the pair norms span 2 sqrt(2pi) (2k)!; unscaled, the Gram read as
    # singular from N = 18 on.  Worst gap over N = 1..64 is 1e-14 (N = 64).
    for N in (17, 18, 19, 32, 63, 64):
        assert abs(partition_function_check(kernel_bundle("ginoe", N)) - 1.0) <= 1e-12
