"""Explicit skew-orthogonal structure of the real Ginibre ensemble.

Eigenvalues of a real Gaussian matrix split into reals and complex
conjugate pairs, so the antisymmetric pairing has two sectors: the line
pairing of skewortho, and half an upper-half-plane integral whose
weight erfc(sqrt2 y) e^{y^2 - x^2} is |pair_weight|^2.  The family
skewortho.family_coefficients on the normalized monomials m_k = x^k / sqrt(k!)
(the monic x^{2j} and x^{2j+1} - 2j x^{2j-1} over the root of their
pair norm sqrt(2pi) (2j)!) is skew-orthonormal for that pairing: its
Gram matrix is the standard pairing J.  KernelBundle.gram sums one exact
term per sector over the rows the kernels use: the line pairing of
skewortho.line_pairing, and plane_gram, -2 Im(W^T diag(w) conj W) over the
upper half-plane.  The plane integrand is e^{-x^2} omega(y), omega(y) =
e^{y^2} erfc(sqrt2 y), times a polynomial in x and y, so one tensor rule
of Gauss rules for the two weights takes it exactly.  A kernel bundle
takes plane_rows at its complex points, and ginoe_summed_S is the scalar
kernel in closed form.
"""

from __future__ import annotations

import math

import numpy as np

from .pfaffian import pfaffian
from .quadrature import ORDER, panel_rule, reference_rule, stieltjes
from .specfun import erfcx, gaussian_tail_moments, weighted_powers

SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT2 = math.sqrt(2.0)
HEIGHT_RADIUS = math.sqrt(1075.0 * math.log(2.0))  # omega(y) <= e^{-y^2} underflows past it


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
    # z*z is never formed, and where |z|^2 overflows the weight is exactly 0
    root = np.sqrt(erfcx(SQRT2 * np.abs(z.imag)))
    with np.errstate(over="ignore"):
        return root * np.exp(-0.5 * (z.real**2 + z.imag**2) - 1j * z.real * z.imag)


def plane_rows(C, z):
    """Column polynomials of C at complex z times pair_weight(z), shape z.shape + (columns,)."""
    return weighted_powers(C.shape[0], z, pair_weight(z)) @ C


def ginoe_summed_S(N, mu, eta):
    """Closed form of the scalar kernel: the Poisson head and the Gaussian tail moments.

    The parity-free form of Forrester and Nagao (2007) and Sommers and
    Wieczorek (2008), valid for every size N >= 2.  Broadcasts over mu
    and eta like KernelBundle.scalar_kernel.  Only the dtype of eta picks
    the form (a float is a real point, a complex a complex one): a real
    mu is the complex form at zero imaginary part.  With z = eta at a
    real eta and conj(eta) at a complex one, Gamma(N-1, mu z)/(N-2)! is
    e^{-mu z} times the Poisson head sum_{k<N-1} (mu z)^k/k!, and e^{-mu z}
    folds into the weights: the head is the row product
    sum_{k<N-1} W_k(mu) W_k(z) of the normalized weighted monomials
    W_k = x^k pair_weight / sqrt(k!) (specfun.weighted_powers), and

        real eta:     (head + W_{N-1}(mu) sqrt(N-1) (T(0) - T(eta))) / sqrt(2 pi)
        complex eta:  i (z - mu) head / sqrt(2 pi)

    T(x) is the tail moment of t^(N-2) e^{-t^2/2} / sqrt((N-2)!) over
    [x, inf), so T(0) - T(eta) is the integral over [0, eta] at either
    sign.  Every term is exactly 0 where its weight underflows.  The
    accuracy is absolute: within 1e-14 of the kernel scale 1/sqrt(2 pi),
    with no relative accuracy promised for entries far below it.
    """
    if N < 2:
        raise ValueError("closed forms need N >= 2")
    mu, eta = np.asarray(mu), np.asarray(eta)
    mu_rows = weighted_powers(N, mu, pair_weight(mu))
    if np.iscomplexobj(eta):
        z = np.conjugate(eta)
        head = (mu_rows[..., :-1] * weighted_powers(N - 1, z, pair_weight(z))).sum(-1)
        return 1j / SQRT_2PI * (z - mu) * head
    # T(0) from the same pass as eta: 0 appended, the rest shaped back
    eta_rows, tails = gaussian_tail_moments(N - 1, np.append(eta, 0.0))
    head = (mu_rows[..., :-1] * eta_rows[:-1].reshape(eta.shape + (N - 1,))).sum(-1)
    partial = tails[-1, -1] - tails[:-1, -1].reshape(eta.shape)
    edge = mu_rows[..., -1] * np.sqrt(N - 1) * partial
    return (head + edge) / SQRT_2PI


def hermite_recurrence(n):
    """gauss_rule's (a, b, weight) for e^{-x^2}, rows times e^{-x^2/2}: weights times e^{x^2}."""
    return np.zeros(n), np.append(math.sqrt(math.pi), 0.5 * np.arange(1.0, n)), lambda x: np.exp(-0.5 * x * x)


def height_recurrence(n):
    """gauss_rule's (a, b) for omega on [0, HEIGHT_RADIUS], by stieltjes on max(8, ceil(n/2))
    ORDER-node panels: twice or more the fewest whose rule meets 50-digit moments, n <= 129."""
    y, w = panel_rule((0.0, HEIGHT_RADIUS), max(8, (n + 1) // 2))
    return stieltjes(y, w * erfcx(SQRT2 * y) * np.exp(-y**2), n)


def plane_gram(C):
    """Complex-sector pairing -2 sum w Im(W^T conj W) over the upper half-plane.

    Im(W_j conj W_k) is e^{-x^2} omega(y) times a polynomial of degree below
    2n in x and in y, n = C.shape[0]: the n-node Gauss rules' tensor is exact.
    The rows keep e^{-x^2/2} (the Hermite weights undo it) and drop omega and
    pair_weight's phase, which cancels; ORDER / 2 heights at a time.  W = P C,
    C real: with A = Im(P)^T diag(w) Re(P) and B = C^T A C the sum is B - B^T.
    A and B are einsum products, each summed in a fixed order without BLAS, so
    they read the same at any thread count.
    """
    n = C.shape[0]
    x, wx = reference_rule(hermite_recurrence, n)
    y, wy = reference_rule(height_recurrence, n)
    A = np.zeros((n, n))
    for block in range(0, n, ORDER // 2):
        z = x[:, None] + 1j * y[block : block + ORDER // 2]
        P = weighted_powers(n, z, np.exp(-0.5 * x * x)[:, None]).reshape(-1, n)
        w = np.outer(wx, wy[block : block + ORDER // 2]).reshape(-1, 1)
        A += np.einsum("pj,pk->jk", P.imag * w, P.real.copy(), optimize=False)
    B = np.einsum("ji,jl->il", C, np.einsum("jk,kl->jl", A, C, optimize=False), optimize=False)
    return -2.0 * (B - B.T)


def sinclair_prefactor(N):
    """Normalization constant that makes the partition Pfaffian equal 1."""
    denom = 1.0
    for l in range(1, N + 1):
        denom *= math.gamma(0.5 * l)
    return 2.0 ** (-0.25 * N * (N + 1)) / denom


def partition_function_check(bundle):
    """Prefactor times the Pfaffian of a GinOE bundle's Gram; equals 1 for every N.

    The partition function pairs the monic family by twice the line plus
    the plane integral, with pair norms r_k = 2 sqrt(2pi) (2k)!; odd N
    borders it by the full weighted integrals.  That matrix is
    S [[G, h], [-h^T, 0]] S, G the normalized family's Gram (bundle.gram),
    h its half moments (bundle.half) and S = diag(sqrt(r_{j//2}), ...,
    sqrt2).  det(S) and the prefactor each leave floating range as N
    grows: their product is taken in logarithms, through math.lgamma.
    """
    N, G = bundle.N, bundle.gram()
    if N % 2:
        G = np.block([[G, bundle.half[:, None]], [-bundle.half, 0.0]])
    log_det = 0.5 * sum(math.log(2.0 * SQRT_2PI) + math.lgamma(2 * (j // 2) + 1) for j in range(N))
    log_prefactor = -0.25 * N * (N + 1) * math.log(2.0) - sum(math.lgamma(0.5 * l) for l in range(1, N + 1))
    return math.exp(log_det + 0.5 * (N % 2) * math.log(2.0) + log_prefactor) * pfaffian(G)
