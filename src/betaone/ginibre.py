"""Explicit skew-orthogonal structure of the real Ginibre ensemble.

Eigenvalues of a real Gaussian matrix split into reals and complex
conjugate pairs, so the antisymmetric pairing has two pieces: a
real-real double integral with a sign kernel and a complex-pair piece
over the upper half plane carrying an erfc factor.  The monic family

    p_{2j}(x)   = x^{2j}
    p_{2j+1}(x) = x^{2j+1} - 2j x^{2j-1}

is skew-orthogonal for that pairing with pair norms 2 sqrt(2pi) (2k)!.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import integrate_halfplane, integrate_line
from .skewortho import (
    SkewOrthogonalFamily,
    coefficient_matrix,
    gaussian_weight,
    half_range_rows,
    half_range_transform,
    poly_eval,
)
from .specfun import erfcx

SQRT_2PI = math.sqrt(2.0 * math.pi)


def ginoe_poly_coeffs(k):
    """Ascending coefficients of the degree-k family polynomial."""
    c = np.zeros(k + 1)
    c[k] = 1.0
    if k % 2 == 1 and k >= 3:
        c[k - 2] = -(k - 1.0)
    return c


def ginoe_norm(k):
    """Pair norm of (p_{2k}, p_{2k+1})."""
    return 2.0 * SQRT_2PI * math.factorial(2 * k)


def ginoe_family(N):
    """The explicit family of size N with its closed-form norms."""
    if N < 1:
        raise ValueError("family size must be positive")
    return SkewOrthogonalFamily(
        N=N,
        coeffs=tuple(ginoe_poly_coeffs(k) for k in range(N)),
        norms=tuple(ginoe_norm(k) for k in range(N // 2)),
        weight=gaussian_weight(),
        kind="ginoe",
    )


def real_sector_pairing(j, k, tol=1e-10):
    """Real-real piece of the pairing for 1-based indices j, k.

    Double integral of e^{-(x^2+y^2)/2} p_{j-1}(x) p_{k-1}(y) sgn(y-x);
    the inner sign integral is the closed-form half-range transform.
    """
    cj = ginoe_poly_coeffs(j - 1)
    ck = ginoe_poly_coeffs(k - 1)
    weight = gaussian_weight()

    def integrand(y):
        return (
            2.0
            * poly_eval(ck, y)
            * np.exp(-0.5 * y * y)
            * half_range_transform(cj, weight, y)
        )

    return integrate_line(integrand, tol=tol, degree=j + k)


def complex_sector_pairing(j, k, tol=1e-10):
    """Complex-pair piece of the pairing for 1-based indices j, k.

    Upper-half-plane integral of 2i e^{y^2 - x^2} erfc(sqrt2 y) times
    the antisymmetrized product p_{j-1}(w) p_{k-1}(conj w); the erfc
    growth is absorbed into its scaled form for stability.
    """
    cj = ginoe_poly_coeffs(j - 1)
    ck = ginoe_poly_coeffs(k - 1)

    def integrand(x, y):
        w = x + 1j * y
        cross = poly_eval(cj, w) * np.conjugate(poly_eval(ck, w))
        return -4.0 * np.exp(-x * x - y * y) * erfcx(math.sqrt(2.0) * y) * np.imag(cross)

    return integrate_halfplane(integrand, tol=tol, degree=j + k)


def ginoe_skew_inner(j, k, tol=1e-10):
    """Full antisymmetric pairing G_{j,k} (1-based indices)."""
    if j == k:
        return 0.0
    if j > k:
        return -ginoe_skew_inner(k, j, tol=tol)
    return real_sector_pairing(j, k, tol=tol) + complex_sector_pairing(j, k, tol=tol)


def sinclair_prefactor(N):
    """Normalization constant that makes the partition Pfaffian equal 1."""
    denom = 1.0
    for l in range(1, N + 1):
        denom *= math.gamma(0.5 * l)
    return 2.0 ** (-0.25 * N * (N + 1)) / denom


def partition_function_check(N, tol=1e-9):
    """Prefactor times the pairing Pfaffian; equals 1 for every N.

    The N x N pairing matrix, bordered for odd N by the full weighted
    integrals of the polynomials (twice the half moments the odd-size
    kernels hat with).
    """
    from .pfaffian import pfaffian

    G = np.zeros((N + N % 2, N + N % 2))
    for j in range(1, N + 1):
        for k in range(j + 1, N + 1):
            G[j - 1, k - 1] = ginoe_skew_inner(j, k, tol=tol)
            G[k - 1, j - 1] = -G[j - 1, k - 1]
    if N % 2:
        C = coefficient_matrix(ginoe_family(N).coeffs)
        border = 2.0 * half_range_rows(C, gaussian_weight(), np.inf)
        G[:N, N] = border
        G[N, :N] = -border
    return sinclair_prefactor(N) * pfaffian(G)
