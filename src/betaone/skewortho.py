"""Skew inner products and skew-orthogonal polynomial families.

The antisymmetric pairing on the real line is

    <f|g> = 1/2 iint f(x) e^{-V(x)} g(y) e^{-V(y)} sgn(y - x) dx dy.

Monic polynomials R_0, R_1, ... built against it satisfy the pair
structure <R_{2m}|R_{2n+1}> = r_n delta_{mn} with all even-even and
odd-odd pairings zero.  The Gaussian weight has the family in closed
form on the monic Hermite polynomials He_n = H_n / 2^n:

    R_{2m} = He_{2m},  R_{2m+1} = He_{2m+1} - m He_{2m-1},
    r_m = sqrt(pi) (2m)! / 4^m.

The skew Gram-Schmidt below builds a family for any weight by
quadrature; it is the reference the closed form is tested against.
Odd family sizes are hatted on the kernel rows (kernels.hat_transform).

Polynomial coefficient vectors are in ascending degree order throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .quadrature import gauss_legendre_rule, integrate_line, truncation_radius
from .specfun import gaussian_full_moment, gaussian_tail_moment, gaussian_tail_moments

BREAKDOWN_TOL = 1e-12


@dataclass(frozen=True)
class WeightSpec:
    """One-body weight e^{-V} on the real line.

    tail_moment(k, x) must return the integral of t^k e^{-V(t)} over
    [x, inf) and full_moment(k) the same over the whole line; when the
    hooks are None both fall back to quadrature.
    """

    V: callable
    label: str
    tail_moment: callable = None
    full_moment: callable = None


def gaussian_weight():
    """The built-in V(x) = x^2/2 weight with closed-form moments."""
    return WeightSpec(
        V=lambda x: 0.5 * np.asarray(x) ** 2,
        label="gaussian",
        tail_moment=gaussian_tail_moment,
        full_moment=gaussian_full_moment,
    )


def weight_full_moment(weight, k):
    if weight.full_moment is not None:
        return weight.full_moment(k)
    return integrate_line(lambda t: t ** k * np.exp(-weight.V(t)), degree=k)


def weight_tail_moment(weight, k, x):
    if weight.tail_moment is not None:
        return weight.tail_moment(k, x)
    T = truncation_radius(k)
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty(xs.shape)
    flat = out.reshape(-1)
    for i, a in enumerate(xs.reshape(-1)):
        if a >= T:
            flat[i] = 0.0
        else:
            rule = gauss_legendre_rule(96, max(a, -T), T)
            flat[i] = rule.integrate(lambda t: t ** k * np.exp(-weight.V(t)))
    return out if np.ndim(x) else float(out.reshape(-1)[0])


def poly_eval(coeffs, x):
    """Evaluate an ascending-order coefficient vector at x (real or complex)."""
    return npp.polyval(np.asarray(x), np.asarray(coeffs))


def half_range_transform(coeffs, weight, x):
    """1/2 integral of sgn(x - y) p(y) e^{-V(y)} dy for the given p.

    Equals half the weighted mass below x minus half the mass above;
    vectorized in x.
    """
    return half_range_rows(np.asarray(coeffs, dtype=float)[:, None], weight, x)[..., 0][()]


def coefficient_matrix(coeffs):
    """Ascending coefficient vectors as the zero-padded columns of one matrix."""
    C = np.zeros((max(len(c) for c in coeffs), len(coeffs)))
    for k, c in enumerate(coeffs):
        C[: len(c), k] = c
    return C


def poly_rows(C, z):
    """Every column polynomial of C at z, shape z.shape + (columns,)."""
    return np.moveaxis(npp.polyval(np.asarray(z), C), 0, -1)


def half_range_rows(C, weight, x):
    """half_range_transform of every column of C at x, shape x.shape + (columns,).

    The Gaussian weight takes all tail and full moments from one
    recurrence.
    """
    x = np.asarray(x, dtype=float)
    n = C.shape[0]
    if weight.tail_moment is gaussian_tail_moment:
        tails = gaussian_tail_moments(n, x)
        full = gaussian_tail_moments(n, -np.inf)
    else:
        tails = np.stack(
            [np.asarray(weight_tail_moment(weight, k, x)) for k in range(n)],
            axis=-1,
        )
        full = np.array([weight_full_moment(weight, k) for k in range(n)])
    return 0.5 * (full @ C) - tails @ C


def skew_inner(f_coeffs, g_coeffs, weight, tol=1e-12):
    """Antisymmetric pairing <f|g> of two polynomial coefficient vectors."""
    f_coeffs = np.asarray(f_coeffs, dtype=float)
    g_coeffs = np.asarray(g_coeffs, dtype=float)
    degree = len(f_coeffs) + len(g_coeffs)

    def integrand(x):
        return poly_eval(f_coeffs, x) * np.exp(-weight.V(x)) * half_range_transform(
            g_coeffs, weight, x
        )

    return -integrate_line(integrand, tol=tol, degree=degree)


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


@dataclass(frozen=True)
class SkewOrthogonalFamily:
    """Monic polynomials R_0..R_{N-1} with their pair norms.

    norms[m] = <R_{2m}|R_{2m+1}> for every complete pair; kind is
    "general-beta1" for quadrature-built families and "ginoe" for the
    explicit real-Ginibre family.
    """

    N: int
    coeffs: tuple
    norms: tuple
    weight: WeightSpec
    kind: str = "general-beta1"

    def poly(self, k, x):
        return poly_eval(self.coeffs[k], x)


def phi_transform(family, k, x):
    """1/2 integral of sgn(x - y) R_k(y) e^{-V(y)} dy, vectorized in x."""
    return half_range_transform(family.coeffs[k], family.weight, x)


def build_family_beta1(weight, N):
    """Skew Gram-Schmidt on monomials, modified-update variant.

    The free additive constant in each odd-degree polynomial is fixed to
    zero (no component along its even pair partner).  Construction
    aborts if a pair norm falls below BREAKDOWN_TOL.
    """
    if N < 1:
        raise ValueError("family size must be positive")
    coeffs = []
    norms = []
    for n in range(N):
        c = np.zeros(n + 1)
        c[n] = 1.0
        for m in range(n // 2):
            along_even = -skew_inner(coeffs[2 * m + 1], c, weight) / norms[m]
            along_odd = skew_inner(coeffs[2 * m], c, weight) / norms[m]
            c[: 2 * m + 1] -= along_even * coeffs[2 * m]
            c[: 2 * m + 2] -= along_odd * coeffs[2 * m + 1]
        if n % 2 == 1:
            r = skew_inner(coeffs[n - 1], c, weight)
            if abs(r) < BREAKDOWN_TOL:
                raise ArithmeticError(f"pair norm r_{n // 2} collapsed: {r:.3e}")
            norms.append(r)
        coeffs.append(c)
    return SkewOrthogonalFamily(
        N=N, coeffs=tuple(coeffs), norms=tuple(norms), weight=weight
    )


def generating_pfaffian_even(family, N=None):
    """Pfaffian of the monomial pairing matrix of even order N.

    Equals the product of the first N/2 pair norms when the family is
    skew-orthogonal, since the change to the monomial basis is
    triangular with unit diagonal.
    """
    from .pfaffian import pfaffian

    N = family.N if N is None else N
    if N % 2 != 0:
        raise ValueError("even-order check needs even N")
    if N > family.N:
        raise ValueError("family too small")
    gram = _monomial_gram(family.weight, N)
    return pfaffian(gram)


def generating_pfaffian_odd(family, N=None):
    """Bordered Pfaffian of odd order N.

    The pairing matrix of the first N monomials is bordered by half
    their weighted integrals; the result equals the product of the pair
    norms below the top degree times the top polynomial's half moment.
    """
    from .pfaffian import pfaffian

    N = family.N if N is None else N
    if N % 2 != 1:
        raise ValueError("odd-order check needs odd N")
    if N > family.N:
        raise ValueError("family too small")
    gram = _monomial_gram(family.weight, N)
    bordered = np.zeros((N + 1, N + 1))
    bordered[:N, :N] = gram
    border = np.array(
        [0.5 * weight_full_moment(family.weight, j) for j in range(N)]
    )
    bordered[:N, N] = border
    bordered[N, :N] = -border
    return pfaffian(bordered)


def _monomial_gram(weight, N):
    gram = np.zeros((N, N))
    for j in range(N):
        mono_j = np.zeros(j + 1)
        mono_j[j] = 1.0
        for k in range(j + 1, N):
            mono_k = np.zeros(k + 1)
            mono_k[k] = 1.0
            value = skew_inner(mono_j, mono_k, weight)
            gram[j, k] = value
            gram[k, j] = -value
    return gram
