"""Explicit skew-orthogonal structure of the real Ginibre ensemble.

Eigenvalues of a real Gaussian matrix split into reals and complex
conjugate pairs, so the antisymmetric pairing has two sectors: twice
the line pairing of skewortho, and an upper-half-plane integral whose
weight erfc(sqrt2 y) e^{y^2 - x^2} is |pair_weight|^2.  The monic family

    p_{2j}(x)   = x^{2j}
    p_{2j+1}(x) = x^{2j+1} - 2j x^{2j-1}

is skew-orthogonal for that pairing with pair norms 2 sqrt(2pi) (2k)!.
Its Gram matrix is one quadrature sum per sector over the rows the
kernels use (ginoe_rows): the line product and -4 Im(W^T diag(w) conj W)
on a half-plane tensor rule, taken in blocks of at most BLOCK_ENTRIES
point-column entries.
"""

from __future__ import annotations

import math

import numpy as np

from .pfaffian import pfaffian
from .quadrature import PLANE_PANEL_CAP, halfplane_rule, truncation_radius
from .skewortho import gaussian_line_rows, line_gram, refined_gram
from .specfun import erfcx, weighted_powers

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)
BLOCK_ENTRIES = 2 ** 16


def ginoe_coefficients(N):
    """The family p_0..p_{N-1} as columns on the monomials 1, x, ..., x^{N-1}."""
    if N < 1:
        raise ValueError("family size must be positive")
    C = np.eye(N)
    for j in range(1, N // 2):
        C[2 * j - 1, 2 * j + 1] = -2.0 * j
    return C


def ginoe_norm(k):
    """Pair norm of (p_{2k}, p_{2k+1})."""
    return 2.0 * SQRT_2PI * math.factorial(2 * k)


def pair_weight(z):
    """sqrt(erfc(sqrt2 |Im z|)) exp(-z^2/2), evaluated without overflow.

    The erfc root is folded into its scaled form so the real part of
    the exponent is -(Re z)^2/2 - (Im z)^2/2 for every z; real input
    reduces to the plain Gaussian factor.
    """
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return np.exp(-0.5 * z * z)
    y = z.imag
    return np.sqrt(erfcx(SQRT2 * np.abs(y))) * np.exp(-0.5 * z * z - y * y)


def plane_rows(C, z):
    """Column polynomials of C at complex z times pair_weight(z), shape z.shape + (columns,)."""
    return weighted_powers(C.shape[0], z, pair_weight(z)) @ C


def ginoe_rows(C):
    """Rows (W, partner) of the columns of C at real or complex points.

    W is the polynomial times pair_weight; the partner is minus the
    half-range transform at a real point and i conj(W) at a complex one.
    """
    line = gaussian_line_rows(C, hermite=False)

    def rows(z):
        z = np.asarray(z)
        if np.iscomplexobj(z):
            W = plane_rows(C, z)
            return np.stack([W, 1j * np.conjugate(W)], axis=-2)
        partner, W = np.moveaxis(line(z), -2, 0)
        return np.stack([W, -partner], axis=-2)

    return rows


def plane_gram(C, panels, radius):
    """Complex-sector pairing -4 sum w Im(W^T conj W) on the half-plane rule.

    Im(W^T diag(w) conj W) is A - A^T with A = Im(W)^T diag(w) Re(W);
    W is evaluated in blocks of at most BLOCK_ENTRIES entries.
    """
    rule = halfplane_rule(panels, radius)
    n = C.shape[0]
    block = max(1, BLOCK_ENTRIES // n)
    A = np.zeros((n, n))
    for start in range(0, rule.nodes.size, block):
        z = rule.nodes[start : start + block]
        W = plane_rows(C, z)
        A += (W.imag * rule.weights[start : start + block, None]).T @ W.real
    return -4.0 * (A - A.T)


def sector_grams(N, panels):
    """Real- and complex-sector pairings of the family of size N.

    Both on `panels` panels per half-line.  The plane weight e^{-|w|^2}
    is the line weight e^{-x^2/2} at sqrt2 |w|, so the plane radius is
    the line one over sqrt2.
    """
    C = ginoe_coefficients(N)
    radius = truncation_radius(2 * N)
    real = 2.0 * line_gram(gaussian_line_rows(C, hermite=False), panels, radius)
    return real, plane_gram(C, panels, radius / SQRT2)


def ginoe_gram(N, tol):
    """Refined Gram of the family of size N, both sectors summed."""
    return refined_gram(
        lambda panels: sum(sector_grams(N, panels)), ginoe_norm, N, tol, cap=PLANE_PANEL_CAP
    )


def sinclair_prefactor(N):
    """Normalization constant that makes the partition Pfaffian equal 1."""
    denom = 1.0
    for l in range(1, N + 1):
        denom *= math.gamma(0.5 * l)
    return 2.0 ** (-0.25 * N * (N + 1)) / denom


def partition_function_check(N, tol=1e-12):
    """Prefactor times the Pfaffian of the Gram; equals 1 for every N.

    Odd N borders the Gram by the full weighted integrals of the
    polynomials (twice the half moments the odd-size kernels hat with).
    Row and column j are scaled by 1/sqrt(r_j), r_j the norm of the
    pair holding j, and the border by 1, so the Pfaffian's pivots stay
    of order one at every N.  The prefactor and the norm product each
    leave floating range as N grows; they are taken together as one
    factor per l = 1..N, sqrt(r_{(l-1)//2}) 2^{-l/2} / Gamma(l/2), of
    order one.
    """
    G = ginoe_gram(N, tol).value
    roots = np.sqrt([ginoe_norm(j // 2) for j in range(N)])
    halves = 0.5 * np.arange(1, N + 1)
    factors = roots * 2.0 ** -halves / np.array([math.gamma(h) for h in halves])
    scale = 1.0 / roots
    if N % 2:
        C = ginoe_coefficients(N)
        border = 2.0 * gaussian_line_rows(C, hermite=False)(np.inf)[0]
        G = np.pad(G, ((0, 1), (0, 1)))
        G[:N, N] = border
        G[N, :N] = -border
        scale = np.append(scale, 1.0)
    return float(np.prod(factors)) * pfaffian(scale[:, None] * G * scale)
