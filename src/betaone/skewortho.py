"""Skew inner products and skew-orthogonal polynomial families.

The antisymmetric pairing on the real line is

    <f|g> = 1/2 iint f(x) e^{-V(x)} g(y) e^{-V(y)} sgn(y - x) dx dy.

Monic polynomials R_0, R_1, ... built against it satisfy the pair
structure <R_{2m}|R_{2n+1}> = r_n delta_{mn} with all even-even and
odd-odd pairings zero.  Odd family sizes need hatted companions: every
polynomial below the top degree is shifted by a multiple of the top one
so that its weighted integral over the line vanishes, and the last pair
norm is replaced by that integral.

Polynomial coefficient vectors are in ascending degree order throughout.
"""

from __future__ import annotations

import json
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

    The Gaussian weight takes all tail moments from one recurrence.
    """
    x = np.asarray(x, dtype=float)
    if weight.tail_moment is gaussian_tail_moment:
        tails = gaussian_tail_moments(C.shape[0], x)
    else:
        tails = np.stack(
            [np.asarray(weight_tail_moment(weight, k, x)) for k in range(C.shape[0])],
            axis=-1,
        )
    full = np.array([weight_full_moment(weight, k) for k in range(C.shape[0])])
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


@dataclass(frozen=True)
class HattedFamily:
    """Odd-size companions of a base family of odd size N.

    Every hat_coeffs[n] with n < N-1 integrates to zero against the
    weight; hat_coeffs[N-1] is the base top polynomial unchanged.  The
    last hat norm equals half the weighted integral of that top
    polynomial.  half_moments[i] is half the weighted integral of the
    base R_i.
    """

    base: SkewOrthogonalFamily
    hat_coeffs: tuple
    hat_norms: tuple
    half_moments: tuple

    @property
    def N(self):
        return self.base.N

    @property
    def weight(self):
        return self.base.weight

    def weighted_poly(self, k, x):
        x = np.asarray(x)
        return poly_eval(self.hat_coeffs[k], x) * np.exp(-self.weight.V(x))


def hatted_beta1(family):
    """Build the odd-size hatted companions of a family of odd size."""
    N = family.N
    if N % 2 == 0:
        raise ValueError("hatted construction needs an odd family size")
    half = [
        0.5 * sum(
            c * weight_full_moment(family.weight, i)
            for i, c in enumerate(family.coeffs[n])
        )
        for n in range(N)
    ]
    top = half[N - 1]
    if abs(top) < BREAKDOWN_TOL:
        raise ArithmeticError("top polynomial has vanishing weighted integral")
    hat_coeffs = []
    for n in range(N - 1):
        c = np.zeros(N)
        c[: n + 1] = family.coeffs[n]
        c -= (half[n] / top) * np.asarray(family.coeffs[N - 1])
        hat_coeffs.append(c)
    hat_coeffs.append(np.asarray(family.coeffs[N - 1], dtype=float))
    hat_norms = list(family.norms[: (N - 1) // 2]) + [top]
    return HattedFamily(
        base=family,
        hat_coeffs=tuple(hat_coeffs),
        hat_norms=tuple(hat_norms),
        half_moments=tuple(half),
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
    their weighted integrals; the result equals the product of the
    hatted pair norms.
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


def family_to_json(family):
    """Serialize a family (only weights known by label can round-trip)."""
    payload = {
        "N": family.N,
        "kind": family.kind,
        "weight": family.weight.label,
        "coeffs": [list(map(float, c)) for c in family.coeffs],
        "norms": [float(r) for r in family.norms],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def family_from_json(text):
    payload = json.loads(text)
    if payload["weight"] != "gaussian":
        raise ValueError(f"unknown weight label {payload['weight']!r}")
    return SkewOrthogonalFamily(
        N=payload["N"],
        coeffs=tuple(np.asarray(c, dtype=float) for c in payload["coeffs"]),
        norms=tuple(payload["norms"]),
        weight=gaussian_weight(),
        kind=payload["kind"],
    )
