"""Explicit skew-orthogonal structure of the real Ginibre ensemble.

Eigenvalues of a real Gaussian matrix split into reals and complex
conjugate pairs, so the antisymmetric pairing has two sectors: the line
pairing of skewortho, and half an upper-half-plane integral whose
weight erfc(sqrt2 y) e^{y^2 - x^2} is |pair_weight|^2.  On the
normalized monomials m_k = x^k / sqrt(k!) of specfun the family

    (2 pi)^{1/4} p_{2j}   = m_{2j},
    (2 pi)^{1/4} p_{2j+1} = sqrt(2j+1) m_{2j+1} - sqrt(2j) m_{2j-1}

(the monic x^{2j} and x^{2j+1} - 2j x^{2j-1} over the root of their
pair norm sqrt(2pi) (2j)!) is skew-orthonormal for that pairing: its
Gram matrix is the standard pairing J.  The Gram is one quadrature sum
per sector over the rows the kernels use (ginoe_rows): the line
product, and -2 Im(W^T diag(w) conj W) over the upper half-plane.  At a
fixed height the plane integrand is e^{-x^2} times a polynomial in x,
so a Gauss-Hermite rule takes x exactly and only the height y is
refined.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .pfaffian import pfaffian
from .quadrature import PLANE_PANEL_CAP, panel_rule, reference_rule, truncation_radius
from .skewortho import gaussian_line_rows, line_gram, refined_gram
from .specfun import erfcx, weighted_powers

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)


def ginoe_coefficients(N):
    """The family p_0..p_{N-1} as columns on the normalized monomials x^k / sqrt(k!)."""
    if N < 1:
        raise ValueError("family size must be positive")
    C = np.eye(N)
    for j in range(N // 2):
        C[2 * j + 1, 2 * j + 1] = math.sqrt(2 * j + 1)
        if j:
            C[2 * j - 1, 2 * j + 1] = -math.sqrt(2 * j)
    return C / SQRT_2PI**0.5


def pair_weight(z):
    """sqrt(erfc(sqrt2 |Im z|)) exp(-z^2/2), evaluated without overflow.

    The erfc root is folded into its scaled form so the real part of
    the exponent is -(Re z)^2/2 - (Im z)^2/2 for every z; real input
    reduces to the plain Gaussian factor.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * z * z)
    return _folded_weight(z, np.sqrt(erfcx(SQRT2 * np.abs(z.imag))))


def _folded_weight(z, root):
    # pair_weight from root = sqrt(erfcx(sqrt2 |Im z|)), as root exp(-|z|^2/2 - i Re z Im z):
    # z*z is never formed, and where |z|^2 overflows the weight is exactly 0
    with np.errstate(over="ignore"):
        return root * np.exp(-0.5 * (z.real**2 + z.imag**2) - 1j * z.real * z.imag)


def plane_rows(C, z):
    """Column polynomials of C at complex z times pair_weight(z), shape z.shape + (columns,)."""
    return weighted_powers(C.shape[0], z, pair_weight(z)) @ C


def ginoe_rows(C):
    """Rows (W, partner) of the columns of C at real or complex points.

    W is the polynomial times pair_weight; the partner is i conj(W) at a
    complex point, and at a real one the line rows of skewortho (minus
    the half-range transform), whose direction it shares.
    """
    line = gaussian_line_rows(C, hermite=False)

    def rows(z):
        z = np.asarray(z)
        if not np.iscomplexobj(z):
            return line(z)
        W = plane_rows(C, z)
        return np.stack([W, 1j * np.conjugate(W)], axis=-2)

    rows.direction = line.direction
    return rows


def plane_gram(C, panels, radius):
    """Complex-sector pairing -2 sum w Im(W^T conj W) over the upper half-plane.

    At a fixed height, Im(W_j conj W_k) is e^{-x^2} times a polynomial
    of degree at most 2n - 2 in x, n = C.shape[0], so the n-node
    Gauss-Hermite rule, built once per n, is exact in x; its weights
    carry e^{x^2} because both rows already hold e^{-x^2/2}.  The
    heights are `panels` panels of [0, radius], taken half a panel (16
    heights, 16 n^2 row entries) at a time, with the erfc root of
    pair_weight once per height.
    Im(W^T diag(w) conj W) is A - A^T with A = Im(W)^T diag(w) Re(W);
    W = P C on the normalized weighted monomials P, and C is real, so
    it maps Re P and Im P apart.
    """
    n = C.shape[0]
    x, wx = reference_rule(hermgauss, n)
    wx = wx * np.exp(x * x)
    y = panel_rule((0.0, radius), panels)
    root = np.sqrt(erfcx(SQRT2 * y.nodes))
    A = np.zeros((n, n))
    for height, wy, r in zip(*(a.reshape(2 * panels, -1) for a in (y.nodes, y.weights, root))):
        z = x[:, None] + 1j * height
        P = weighted_powers(n, z, _folded_weight(z, r)).reshape(-1, n)
        A += ((P.imag @ C) * np.outer(wx, wy).reshape(-1, 1)).T @ (P.real @ C)
    return -2.0 * (A - A.T)


def sector_grams(N, panels):
    """Real- and complex-sector pairings of the family of size N.

    Both on `panels` panels per half-line.  The plane weight e^{-|w|^2}
    is the line weight e^{-x^2/2} at sqrt2 |w|, so the plane radius is
    the line one over sqrt2.
    """
    C = ginoe_coefficients(N)
    radius = truncation_radius(2 * N)
    real = line_gram(gaussian_line_rows(C, hermite=False), panels, radius)
    return real, plane_gram(C, panels, radius / SQRT2)


def ginoe_gram(N, tol):
    """Refined Gram of the family of size N, both sectors summed."""
    return refined_gram(lambda panels: sum(sector_grams(N, panels)), tol, cap=PLANE_PANEL_CAP)


def sinclair_prefactor(N):
    """Normalization constant that makes the partition Pfaffian equal 1."""
    denom = 1.0
    for l in range(1, N + 1):
        denom *= math.gamma(0.5 * l)
    return 2.0 ** (-0.25 * N * (N + 1)) / denom


def partition_function_check(N):
    """Prefactor times the Pfaffian of the Gram; equals 1 for every N.

    The partition function pairs the monic family by twice the line plus
    the plane integral, with pair norms r_k = 2 sqrt(2pi) (2k)!; odd N
    borders it by the full weighted integrals.  That matrix is
    S [[G, h], [-h^T, 0]] S, G the normalized family's Gram, h its half
    moments and S = diag(sqrt(r_{j//2}), ..., sqrt2).  det(S) and the
    prefactor each leave floating range as N grows: their product is
    taken in logarithms, through math.lgamma.
    """
    G = ginoe_gram(N, 1e-12).value
    if N % 2:
        half = -ginoe_rows(ginoe_coefficients(N))(np.inf)[1]
        G = np.block([[G, half[:, None]], [-half, 0.0]])
    log_det = 0.5 * sum(math.log(2.0 * SQRT_2PI) + math.lgamma(2 * (j // 2) + 1) for j in range(N))
    log_prefactor = -0.25 * N * (N + 1) * math.log(2.0) - sum(math.lgamma(0.5 * l) for l in range(1, N + 1))
    return math.exp(log_det + 0.5 * (N % 2) * math.log(2.0) + log_prefactor) * pfaffian(G)
