import math

import numpy as np
from scipy import special

from betaone.kernels import family_bundle, kernel_bundle
from betaone.pfaffian import pfaffian, standard_pairing
from betaone.quadrature import gauss_legendre_rule
from betaone.reduction import probe_configuration
from betaone.skewortho import (
    family_coefficients,
    line_pairing,
    skew_deviation,
)

from test_kernels import hat_transform, line_rows

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
# rounding of coefficients of order one rescaled by irrational pair norms
ULPS = 4.0 * np.finfo(float).eps

# hand-derived pairings of low monomials under the Gaussian weight:
# reduce the sign integral to tail moments and integrate by parts
MONOMIAL_PAIRINGS = {
    (0, 1): SQRT_PI,
    (0, 3): 2.5 * SQRT_PI,
    (1, 2): -0.5 * SQRT_PI,
    (2, 3): 1.75 * SQRT_PI,
}


def monomial_gram(C):
    # line Gram of the columns of C, on monomials: x^k is sqrt(k!) times
    # the library's normalized monomial x^k / sqrt(k!)
    roots = np.sqrt([math.factorial(k) for k in range(C.shape[0])])
    return line_pairing(roots[:, None] * C, hermite=False)


def hermite_to_monomials(n):
    # columns: He_0..He_{n-1} (He_k = H_k / 2^k) on the monomials
    M = np.zeros((n, n))
    M[0, 0] = 1.0
    for k in range(n - 1):
        M[1:, k + 1] = M[:-1, k]
        if k >= 1:
            M[:, k + 1] -= 0.5 * k * M[:, k - 1]
    return M


def normalized_hermite_to_monomials(n):
    # columns: the library's basis H_k / sqrt(2^k k!) = He_k / sqrt(k! / 2^k)
    return hermite_to_monomials(n) / np.sqrt([math.factorial(k) / 2.0**k for k in range(n)])


def goe_norm(m):
    # pair norm of the monic family He_{2m}, He_{2m+1} - m He_{2m-1}
    return SQRT_PI * math.factorial(2 * m) / 4**m


def monic_roots(N):
    # the monic family member j is the library's column j on h_n times
    # monic_roots(N)[j]: the roots of the pair norms, with the pair scaling
    # (2^{1/4}, 2^{-1/4}) from the library's (2 pi)^{-1/4} to pi^{-1/4}
    return np.sqrt([goe_norm(j // 2) for j in range(N)]) * 2.0 ** np.where(np.arange(N) % 2, -0.25, 0.25)


def half_moments(C):
    return -line_rows(C, hermite=True)(np.inf)[1]


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
    # the normalized columns times the roots of the pair norms
    # sqrt(pi) (2m)! / 4^m are the monic family, up to rounding
    normalized = normalized_hermite_to_monomials(4) @ family_coefficients(4)
    monomials = normalized * monic_roots(4)
    assert np.allclose(monomials[:, 0], [1.0, 0.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(monomials[:, 1], [0.0, 1.0, 0.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(monomials[:, 2], [-0.5, 0.0, 1.0, 0.0], rtol=0, atol=ULPS)
    assert np.allclose(monomials[:, 3], [0.0, -2.5, 0.0, 1.0], rtol=0, atol=ULPS)
    assert np.isclose(goe_norm(0), SQRT_PI, rtol=1e-15, atol=0)
    assert np.isclose(goe_norm(1), 0.5 * SQRT_PI, rtol=1e-15, atol=0)
    # the Gram of the monomial expansion is the family's Gram, the standard pairing
    family = monomial_gram(normalized)
    assert skew_deviation(family) <= 1e-14


def test_family_skew_orthogonality_battery():
    roots = monic_roots(6)
    gram = kernel_bundle("goe", 6).gram() * np.outer(roots, roots)
    r_min = min(goe_norm(m) for m in range(3))
    assert np.abs(gram - standard_pairing(6) * np.outer(roots, roots)).max() <= 1e-13 * r_min


def test_phi_transform_closed_forms():
    # on the monic family R_0 = 1, R_1 = x, R_2 = x^2 - 1/2
    rows = line_rows(family_coefficients(4) * monic_roots(4), hermite=True)
    x = np.linspace(-3.0, 3.0, 13)
    eps = -rows(x)[:, 1]
    assert np.allclose(
        eps[:, 0], 0.5 * SQRT_2PI * special.erf(x / math.sqrt(2.0)), rtol=0, atol=1e-14
    )
    assert np.allclose(eps[:, 1], -np.exp(-0.5 * x * x), rtol=0, atol=1e-15)
    # saturation far to the right: half the full weighted integrals
    far = -rows(9.0)[1]
    assert np.isclose(far[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert np.isclose(far[2], 0.25 * SQRT_2PI, rtol=1e-15, atol=0)


def test_phi_transform_against_quadrature_oracle():
    rows = line_rows(family_coefficients(4), hermite=True)
    x0 = 0.7
    for k in [2, 3]:
        (left, wl), (right, wr) = gauss_legendre_rule(200, -12.0, x0), gauss_legendre_rule(200, x0, 12.0)
        oracle = 0.5 * (wl @ rows(left)[:, 0, k] - wr @ rows(right)[:, 0, k])
        assert np.isclose(-rows(x0)[1, k], oracle, rtol=0, atol=1e-14), k


def test_hatted_family_exact_small_case():
    # on the monic family; hatting does not depend on the top column's scale
    C = family_coefficients(3) * monic_roots(3)
    half = half_moments(C)
    hat = normalized_hermite_to_monomials(3) @ C @ hat_transform(half)
    assert np.allclose(hat[:, 0], [2.0, 0.0, -2.0], rtol=0, atol=1e-15)
    assert np.allclose(hat[:, 1], [0.0, 1.0, 0.0], rtol=0, atol=0)
    assert np.allclose(hat[:, 2], [-0.5, 0.0, 1.0], rtol=0, atol=0)
    assert np.isclose(half[0], 0.5 * SQRT_2PI, rtol=1e-15, atol=0)
    assert half[1] == 0.0
    assert np.isclose(half[2], 0.25 * SQRT_2PI, rtol=1e-15, atol=0)


def test_hatted_family_kills_weighted_integrals():
    # the hat lives in the pairing: M times the partners at +infinity
    # (minus the half moments) vanishes below the top polynomial, as the
    # weighted integrals of the hatted polynomials do
    bundle = kernel_bundle("goe", 5)
    at_infinity = bundle.rows(np.inf)[1]
    assert np.abs((bundle.pairing @ at_infinity)[:-2]).max() <= 1e-15
    T = hat_transform(at_infinity[:-1])
    x, w = gauss_legendre_rule(240, -12.0, 12.0)
    for n in range(4):
        value = w @ (bundle.rows(x)[:, 0, :-1] @ T[:, n])
        assert abs(value) < 1e-10, n


def test_hatted_requires_odd_size():
    # an even size keeps the plain rows: no hatting, no border column;
    # GinOE's real rows are the same builder's, on the monomial basis
    x = np.array([-0.7, 0.4])
    for bundle, hermite in ((kernel_bundle("goe", 4), True), (kernel_bundle("ginoe", 4), False)):
        assert np.array_equal(bundle.rows(x), line_rows(family_coefficients(4), hermite=hermite)(x))


def test_generating_pfaffian_even_equals_norm_product():
    # the monic family's Gram: the library's times the roots of the pair norms
    roots = monic_roots(4)
    got = pfaffian(kernel_bundle("goe", 4).gram() * np.outer(roots, roots))
    assert np.isclose(got, goe_norm(0) * goe_norm(1), rtol=1e-14, atol=0)
    assert np.isclose(got, 0.5 * math.pi, rtol=1e-14, atol=0)


def test_generating_pfaffian_odd_equals_hatted_norm_product():
    # the Gram bordered by the half moments: the pair norm below the
    # top times the top polynomial's half moment
    roots = monic_roots(3)
    gram = np.pad(kernel_bundle("goe", 3).gram() * np.outer(roots, roots), ((0, 1), (0, 1)))
    border = half_moments(family_coefficients(3) * roots)
    gram[:3, 3] = border
    gram[3, :3] = -border
    got = pfaffian(gram)
    assert np.isclose(got, goe_norm(0) * border[2], rtol=1e-14, atol=0)
    assert np.isclose(got, SQRT_PI * 0.25 * SQRT_2PI, rtol=1e-14, atol=0)


def test_perturbed_family_fails_loudly():
    # the exact Gram still checks the family: one off-diagonal coefficient
    # moved by a relative 1e-10 reads far above the 1e-13 gate, at both ends
    # of the size range, in both ensembles
    def perturbed(size):
        C = family_coefficients(size)
        C[1, 3] *= 1.0 + 1e-10
        return C

    for N in (4, 64):
        for ensemble in ("goe", "ginoe"):
            family = family_bundle(ensemble, family_coefficients(N), N).gram()
            bent = family_bundle(ensemble, perturbed(N), N).gram()
            assert skew_deviation(family) <= 1e-14, (N, ensemble)
            assert skew_deviation(bent) > 1e-13, (N, ensemble)


def rescaled_moves(ensemble, N, scale):
    # the largest move of an assembled entry on the probe configuration,
    # over the largest entry, and of the Gram, when the columns of the
    # family are scaled by `scale`
    def bundle_and_gram(C):
        bundle = family_bundle(ensemble, C, N)
        return bundle, bundle.gram()

    C = family_coefficients(N)
    (bundle, gram), (scaled, scaled_gram) = bundle_and_gram(C), bundle_and_gram(C * scale)
    probe = probe_configuration(ensemble, N + N % 2)
    A, B = bundle.assemble(probe), scaled.assemble(probe)
    return float(np.abs(B - A).max() / np.abs(A).max()), float(np.abs(scaled_gram - gram).max())


def test_pair_rescaling_moves_no_entry_and_no_gram():
    # a column pair (2j, 2j+1) scaled by (d, 1/d), and an odd family's
    # unpaired top column by any d: what lets one matrix serve both
    # ensembles, on h_n and on m_n
    rng = np.random.default_rng(47)
    for ensemble in ("goe", "ginoe"):
        for N in (4, 5, 64):
            d = rng.uniform(0.5, 2.0, N // 2)
            scale = np.ones(N)
            scale[0 : 2 * (N // 2) : 2], scale[1 : 2 * (N // 2) : 2] = d, 1.0 / d
            if N % 2:
                scale[-1] = -3.7
            entries, gram = rescaled_moves(ensemble, N, scale)
            assert entries <= 1e-14 and gram <= 1e-14, (ensemble, N, entries, gram)
            # a pair whose scales do not multiply to 1 moves both
            scale[1] = 1.25 / d[0]
            entries, gram = rescaled_moves(ensemble, N, scale)
            assert entries > 1e-14 and gram > 1e-14, (ensemble, N, entries, gram)
