"""Skew-orthonormal polynomial families and their Gram matrices.

The antisymmetric pairing on the real line is

    <f|g> = 1/2 iint f(x) e^{-x^2/2} g(y) e^{-y^2/2} sgn(y - x) dx dy.

Polynomials R_0, R_1, ... are skew-orthonormal for it when
<R_{2m}|R_{2n+1}> = delta_{mn} and every even-even and odd-odd pairing
vanishes: their Gram matrix is the standard pairing J, with 1 at
(2m, 2m+1).  One family is skew-orthonormal in both ensembles, on the
basis b_n = h_n | m_n of specfun: for this pairing on the normalized
Hermite functions h_n = H_n / sqrt(2^n n!) (GOE), and for GinOE's two
sectors (ginibre) on the normalized monomials m_n = x^n / sqrt(n!):

    (2 pi)^{1/4} R_{2m}   = b_{2m},
    (2 pi)^{1/4} R_{2m+1} = sqrt(2m+1) b_{2m+1} - sqrt(2m) b_{2m-1},

the tau = 1 and tau = 0 members of Forrester and Nagao's partially
symmetric family (J. Phys. A 41, 2008, 375003).  Scaling a column pair
(2m, 2m+1) by (d, 1/d) moves no kernel entry and no Gram: on h_n the
pairs (2^{1/4}, 2^{-1/4}) give the usual pi^{-1/4} (h_{2m};
sqrt(m + 1/2) h_{2m+1} - sqrt(m) h_{2m-1}).

With W_k = R_k e^{-x^2/2} and eps_k(x) = 1/2 int sgn(x - y) W_k(y) dy
its half-range transform, <R_j|R_k> = int eps_j W_k dx: the Gram matrix
of a whole family is -int P^T W over the rows (W, P) the kernels are
built from, whose partner is P = -eps W in both ensembles.  P is the
rows' tail moments less half their full integrals, so line_pairing
takes it exactly, from the integrals of the Gaussian rows against their
tail moments (specfun.gaussian_row_integrals).

Polynomial coefficients are ascending, one family member per column of
a coefficient matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .pfaffian import standard_pairing
from .specfun import gaussian_row_integrals, gaussian_rows, gaussian_tail_moments, weighted_powers


def family_coefficients(N):
    """The family R_0..R_{N-1} as columns on b_0..b_{N-1}, h_n for GOE and m_n for GinOE."""
    if N < 1:
        raise ValueError("family size must be positive")
    C = np.eye(N)
    for m in range(N // 2):
        C[2 * m + 1, 2 * m + 1] = math.sqrt(2 * m + 1)
        if m:
            C[2 * m - 1, 2 * m + 1] = -math.sqrt(2 * m)
    return C / math.sqrt(2.0 * math.pi) ** 0.5


def gaussian_line_rows(C, hermite):
    """Line rows (W, P) of the columns of C, on h_n or on x^n / sqrt(n!).

    W is the polynomial times e^(-x^2/2) and its partner P = -eps W is
    minus the half-range transform, both from one
    specfun.gaussian_tail_moments pass per point array; at x = +inf the
    partner is minus half the full weighted integral.  The full moments
    and the rows at a lone +-inf take no pass.  GOE takes these rows on
    h_n, GinOE on x^n / sqrt(n!) at its real points.

    rows.direction(x) is the direction of W at one real x, where the
    weight may underflow (past x = 37): the polynomials alone, over
    their largest entry, and at +inf the top-degree unit vector; where
    the polynomials overflow it raises ArithmeticError.
    rows.weighted(x) is W alone at real x, bit for bit rows(x)[..., 0, :],
    with no tail moments and so no normal CDF.  rows.line is (C, hermite),
    from which kernels.cumulative_count integrates the density exactly.
    """
    n = C.shape[0]
    half = 0.5 * (gaussian_tail_moments(n, -np.inf, hermite)[1] @ C)

    def rows(x):
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise ValueError("this ensemble lives on the real line only")
        # on the points flattened: a stacked matmul would round differently
        W, tails = gaussian_tail_moments(n, x.ravel() if x.ndim else x, hermite)
        return np.stack([W @ C, tails @ C - half], axis=-2).reshape(x.shape + (2, C.shape[1]))

    def weighted(x):
        return gaussian_rows(n, x, hermite) @ C

    def direction(x):
        if np.isposinf(x):
            return np.eye(n)[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            q = weighted_powers(n, x, 1.0, 0.5 if hermite else 0.0) @ C
        if not np.isfinite(q).all():
            raise ArithmeticError(f"size {n} polynomials overflow at far point {float(x)!r}")
        return q / np.abs(q).max()

    rows.direction, rows.weighted, rows.line = direction, weighted, (C, hermite)
    return rows


def line_pairing(C, hermite):
    """The line pairing <R_j|R_k> of the columns of C, on h_n or on x^n / sqrt(n!), exactly.

    The line rows are W = b C and P = T C - half, half = T(-inf) C / 2, so
    -int P^T W is -C^T I^T C + half (x) T(-inf) C, I = specfun.gaussian_row_integrals at +inf.
    """
    n = C.shape[0]
    full = gaussian_tail_moments(n, -np.inf, hermite)[1] @ C
    I = np.stack(tuple(gaussian_row_integrals(n, np.inf, hermite)[1]), axis=-1)
    return 0.5 * np.outer(full, full) - C.T @ I.T @ C


def skew_deviation(G):
    """Worst |G - J| entry, J the standard pairing."""
    return float(np.abs(G - standard_pairing(G.shape[0])).max())


def goe_gram(N):
    """Gram of the family of size N on the Hermite basis."""
    return line_pairing(family_coefficients(N), hermite=True)
