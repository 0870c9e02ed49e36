"""Skew-orthogonal polynomial families and their Gram matrices.

The antisymmetric pairing on the real line is

    <f|g> = 1/2 iint f(x) e^{-x^2/2} g(y) e^{-y^2/2} sgn(y - x) dx dy.

Monic polynomials R_0, R_1, ... are skew-orthogonal for it when
<R_{2m}|R_{2n+1}> = r_n delta_{mn} and every even-even and odd-odd
pairing vanishes.  The Gaussian family is in closed form on the monic
Hermite polynomials He_n = H_n / 2^n:

    R_{2m} = He_{2m},  R_{2m+1} = He_{2m+1} - m He_{2m-1},
    r_m = sqrt(pi) (2m)! / 4^m.

With W_k = R_k e^{-x^2/2} and eps_k(x) = 1/2 int sgn(x - y) W_k(y) dy
its half-range transform, <R_j|R_k> = int eps_j W_k dx: the Gram matrix
of a whole family is one quadrature sum eps^T diag(w) W over the rows
the kernels are built from.  refined_gram doubles the panel count until
two successive Grams agree, measured like skew_deviation: entry by
entry relative to sqrt(r_j r_k), r_j the norm of the pair holding j.

Polynomial coefficients are ascending, one family member per column of
a coefficient matrix.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import LINE_PANEL_CAP, panel_rule, refine, truncation_radius
from .specfun import gaussian_basis, gaussian_tail_moments


def goe_coefficients(N):
    """The closed-form Gaussian family R_0..R_{N-1} as columns on He_0..He_{N-1}."""
    if N < 1:
        raise ValueError("family size must be positive")
    C = np.eye(N)
    for m in range(1, N // 2):
        C[2 * m - 1, 2 * m + 1] = -m
    return C


def goe_norm(m):
    """Pair norm r_m = <R_{2m}|R_{2m+1}> of the Gaussian family."""
    return math.sqrt(math.pi) * (math.factorial(2 * m) / 4 ** m)


def gaussian_line_rows(C, hermite=True):
    """Line rows (partner, W) of the columns of C, on He_n or on monomials.

    W is the polynomial times e^(-x^2/2), its partner the half-range
    transform eps, both from the recurrences of specfun; at x = +inf the
    partner is half the full weighted integral.
    """
    n = C.shape[0]
    half = 0.5 * (gaussian_tail_moments(n, -np.inf, hermite) @ C)

    def rows(x):
        x = np.asarray(x)
        if np.iscomplexobj(x):
            raise ValueError("this ensemble lives on the real line only")
        partner = half - gaussian_tail_moments(n, x, hermite) @ C
        return np.stack([partner, gaussian_basis(n, x, hermite) @ C], axis=-2)

    return rows


def line_gram(rows, panels, radius):
    """eps^T diag(w) W on `panels` panels per half-line of [-radius, radius].

    rows are line rows (partner eps, W); entry (j, k) is <R_j|R_k>.
    """
    rule = panel_rule((-radius, 0.0, radius), panels)
    eps, W = np.moveaxis(rows(rule.nodes), -2, 0)
    return (eps * rule.weights[:, None]).T @ W


def expected_gram(norm, N):
    """The pairing of a skew-orthogonal family of size N with pair norms norm(m)."""
    G = np.zeros((N, N))
    for m in range(N // 2):
        G[2 * m, 2 * m + 1] = norm(m)
        G[2 * m + 1, 2 * m] = -norm(m)
    return G


def _pair_scale(norm, N):
    s = np.sqrt([norm(j // 2) for j in range(N)])
    return np.outer(s, s)


def skew_deviation(G, norm):
    """Worst |G - expected| entry relative to sqrt(r_j r_k)."""
    N = G.shape[0]
    return float((np.abs(G - expected_gram(norm, N)) / _pair_scale(norm, N)).max())


def refined_gram(gram_at, norm, N, tol, cap=LINE_PANEL_CAP):
    """Refinement of gram_at(panels) until successive Grams agree within tol.

    The gap between Grams is measured entry by entry relative to
    sqrt(r_j r_k), as skew_deviation measures the final one.
    """
    scale = _pair_scale(norm, N)
    return refine(
        gram_at, tol, "skew Gram", cap=cap, gap=lambda G, H: (np.abs(G - H) / scale).max()
    )


def goe_gram(N, tol):
    """Refined Gram of the closed-form Gaussian family of size N."""
    rows = gaussian_line_rows(goe_coefficients(N))
    radius = truncation_radius(2 * N)
    return refined_gram(lambda panels: line_gram(rows, panels, radius), goe_norm, N, tol)
