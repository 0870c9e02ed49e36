"""Correlation kernels for the real Ginibre ensemble at both parities.

Points live on two components, the real line and the open upper half
plane.  The convention here is by dtype: a float argument is a real
eigenvalue, a complex argument is a complex one (even if its imaginary
part is tiny).  Every point contributes the rows (W, P) of the kernel
engine in kernels: W the family polynomials times the pair weight, P
their partners, minus the half-range transform at a real point and i
times W at the conjugate of a complex point.  The 2x2 cell layout is

    [[ d(s,t),  s(s,t) ],
     [ -s(t,s), i(s,t) ]]

whose Pfaffian over a point configuration gives the correlations with
n1 real and n2 complex arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .ginibre import SQRT2, SQRT_2PI, ginoe_coefficients, ginoe_norm, ginoe_rows, pair_weight
from .kernels import KernelBundle, family_basis, rho
from .quadrature import gauss_legendre_rule
from .specfun import erfcx, lower_gamma, upper_gamma

FD_STEP = 1e-5


def _plane_bundle(N):
    weights = [2.0 / ginoe_norm(k) for k in range(N // 2)]
    basis = family_basis(ginoe_rows(ginoe_coefficients(N)), weights, "plane", odd=N % 2 == 1)
    return KernelBundle.from_basis("ginoe", N, basis)


def ginoe_even_kernel(N):
    """Kernel bundle for an even number of Ginibre eigenvalues."""
    if N % 2 != 0:
        raise ValueError("even-size kernel needs even N")
    return _plane_bundle(N)


def ginoe_odd_kernel(N):
    """Kernel bundle for an odd number of Ginibre eigenvalues.

    The pairs run over the hatted polynomials; the top one pairs with
    the constant partner column, which reaches the scalar block at a
    real second argument and the integrated block unless both arguments
    are complex.
    """
    if N % 2 != 1:
        raise ValueError("odd-size kernel needs odd N")
    return _plane_bundle(N)


def _signed_gaussian_partial(N, y):
    # integral of u^(N-2) e^{-u^2/2} over [0, y], odd-continued in y
    y = float(y)
    value = 2.0 ** (0.5 * (N - 3)) * lower_gamma(0.5 * (N - 1), 0.5 * y * y)
    if y < 0.0 and N % 2 == 0:
        value = -value
    return value


def _regularized_tail(N, arg):
    return upper_gamma(N - 1, arg) / math.factorial(N - 2)


def ginoe_summed_S(N, block, mu, eta):
    """Closed form of the scalar kernel through incomplete gamma tails.

    Valid for every size N >= 2 regardless of parity; block names the
    component pair of (mu, eta) among rr, rc, cr, cc.  A real first
    argument is the complex form at zero imaginary part, so only the
    second argument picks the form.
    """
    if N < 2:
        raise ValueError("closed forms need N >= 2")
    if block not in ("rr", "rc", "cr", "cc"):
        raise ValueError(f"unknown block {block!r}")
    mu = float(mu) if block[0] == "r" else complex(mu)
    v = np.imag(mu)
    if block[1] == "r":
        y = float(eta)
        stable = np.exp(-0.5 * (mu - y) ** 2 - v * v) * np.sqrt(erfcx(SQRT2 * abs(v)))
        smooth = stable * _regularized_tail(N, mu * y)
        # mu^(N-1) is formed only where the weight is not 0, |mu| < 39: no overflow
        weight = pair_weight(np.asarray(mu))
        edge = mu ** (N - 1) * weight * _signed_gaussian_partial(N, y) if weight else 0.0
        return (smooth + edge / math.factorial(N - 2)) / SQRT_2PI
    z = np.conjugate(complex(eta))
    stable = np.exp(-0.5 * (mu - z) ** 2 - v * v - z.imag ** 2) * np.sqrt(
        erfcx(SQRT2 * abs(v)) * erfcx(SQRT2 * abs(z.imag))
    )
    return 1j / SQRT_2PI * stable * (z - mu) * _regularized_tail(N, mu * z)


def interrelations_check(bundle, reals, complexes):
    """Derivative, integral, and conjugation relations among the blocks.

    Checked on all pairs of the given points at once, with central
    differences (step FD_STEP) and a 64-node Gauss-Legendre rule;
    returns the worst absolute deviation per relation.
    """
    s, d, i_ = bundle.scalar_kernel, bundle.derivative_kernel, bundle.integral_kernel
    x = np.asarray(reals, dtype=float)[:, None]
    w = np.asarray(complexes, dtype=complex)[:, None]
    y, z, h = x.T, w.T, FD_STEP
    # integral of s(., y) along [x, y]
    rule = gauss_legendre_rule(64, -1.0, 1.0)
    nodes, weights = rule.nodes, rule.weights
    half = 0.5 * (y - x)[..., None]
    path = (s(0.5 * (x + y)[..., None] + half * nodes, y[..., None]) * weights * half).sum(-1)
    relations = {
        "derivative-real-real": d(x, y) + (s(x, y + h) - s(x, y - h)) / (2.0 * h),
        "integral-real-real": np.where(x != y, i_(x, y) - path - 0.5 * np.sign(x - y), 0.0),
        "derivative-real-complex": d(x, z) + 1j * s(x, np.conjugate(z)),
        "derivative-complex-real": d(w, y) + (s(w, y + h) - s(w, y - h)) / (2.0 * h),
        "derivative-complex-complex": d(w, z) + 1j * s(w, np.conjugate(z)),
        "integral-complex-real": i_(w, y) - 1j * s(np.conjugate(w), y),
        "integral-complex-complex": i_(w, z) - 1j * s(np.conjugate(w), z),
        "integral-mixed-antisymmetry": i_(x, z) + i_(w, y).T,
    }
    return {key: float(np.abs(value).max(initial=0.0)) for key, value in relations.items()}


def ginoe_rho(bundle, config):
    """Correlation of n1 real and n2 complex points as a real number.

    The assembled Pfaffian is real up to roundoff; the imaginary
    residue is returned alongside for audit.
    """
    value = rho(bundle, config)
    if isinstance(value, complex):
        return value.real, abs(value.imag)
    return float(value), 0.0
