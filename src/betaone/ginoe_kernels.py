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

import numpy as np

from .ginibre import SQRT_2PI, ginoe_coefficients, ginoe_norm, ginoe_rows, pair_weight
from .kernels import KernelBundle, family_basis, rho
from .quadrature import gauss_legendre_rule
from .specfun import gaussian_tail_moments, weighted_powers

FD_STEP = 1e-5


def ginoe_kernel(N):
    """Kernel bundle of N real Ginibre eigenvalues, parity derived from N.

    At odd N the pairs run over the hatted polynomials; the top one
    pairs with the constant partner column, which reaches the scalar
    block at a real second argument and the integrated block unless
    both arguments are complex.
    """
    weights = [2.0 / ginoe_norm(k) for k in range(N // 2)]
    basis = family_basis(ginoe_rows(ginoe_coefficients(N)), weights, "plane", odd=N % 2 == 1)
    return KernelBundle.from_basis("ginoe", N, basis)


def ginoe_summed_S(N, mu, eta):
    """Closed form of the scalar kernel: the Poisson head and the Gaussian tail moments.

    The parity-free form of Forrester and Nagao (2007) and Sommers and
    Wieczorek (2008), valid for every size N >= 2.  Broadcasts over mu
    and eta like KernelBundle.scalar_kernel.  Only the dtype of eta picks
    the form (a float is a real point, a complex a complex one): a real
    mu is the complex form at zero imaginary part.  With z = eta at a
    real eta and conj(eta) at a complex one, Gamma(N-1, mu z)/(N-2)! is
    e^{-mu z} times the Poisson head sum_{k<N-1} (mu z)^k/k!, and e^{-mu z}
    folds into the weights as pair_weight(mu) pair_weight(z) = W:

        real eta:     (W head + mu^(N-1) pair_weight(mu) (T(0) - T(eta)) / (N-2)!) / sqrt(2 pi)
        complex eta:  i (z - mu) W head / sqrt(2 pi)

    T(x) is the tail moment of t^(N-2) e^{-t^2/2} over [x, inf), so
    T(0) - T(eta) is the integral over [0, eta] at either sign.  Every
    term is exactly 0 where its weight underflows.  The accuracy is
    absolute: within 1e-14 of the kernel scale 1/sqrt(2 pi) for N up to
    64, with no relative accuracy promised for entries far below it.
    """
    if N < 2:
        raise ValueError("closed forms need N >= 2")
    mu, eta = np.asarray(mu), np.asarray(eta)
    complex_eta = np.iscomplexobj(eta)
    z = np.conjugate(eta) if complex_eta else eta.astype(float)
    mu_weight = pair_weight(mu)
    with np.errstate(over="ignore", invalid="ignore"):
        w = mu * z
    factorials = np.cumprod(np.arange(N - 1, dtype=float).clip(1.0))  # 0!, 1!, ..., (N-2)!
    head = (weighted_powers(N - 1, w, mu_weight * pair_weight(z)) / factorials).sum(-1)
    if complex_eta:
        return 1j / SQRT_2PI * (z - mu) * head
    partial = gaussian_tail_moments(N - 1, 0.0)[-1] - gaussian_tail_moments(N - 1, z)[..., -1]
    edge = weighted_powers(N, mu, mu_weight)[..., -1] * partial / factorials[-1]
    return (head + edge) / SQRT_2PI


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
