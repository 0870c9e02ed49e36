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
from .specfun import gaussian_row_integrals, gaussian_tail_moments


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


def line_pairing(C, hermite):
    """The line pairing <R_j|R_k> of the columns of C, on h_n or on x^n / sqrt(n!), exactly.

    The line rows are W = b C and P = T C - half, half = T(-inf) C / 2, so
    -int P^T W is -C^T I^T C + half (x) T(-inf) C, I = specfun.gaussian_row_integrals at +inf.
    C^T I^T C is two einsum products, each summed in a fixed order without BLAS, so it
    reads the same at any thread count.
    """
    n = C.shape[0]
    full = gaussian_tail_moments(n, -np.inf, hermite)[1] @ C
    I = np.stack(tuple(gaussian_row_integrals(n, np.inf, hermite)[1]), axis=-1)
    IC = np.einsum("kj,kl->jl", I, C, optimize=False)
    return 0.5 * np.outer(full, full) - np.einsum("ji,jl->il", C, IC, optimize=False)


def skew_deviation(G):
    """Worst |G - J| entry, J the standard pairing."""
    return float(np.abs(G - standard_pairing(G.shape[0])).max())
