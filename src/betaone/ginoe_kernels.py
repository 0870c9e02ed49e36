"""Correlation kernels for the real Ginibre ensemble at both parities.

Points live on two components, the real line and the open upper half
plane.  The convention here is by dtype: a float argument is a real
eigenvalue, a complex argument is a complex one (even if its imaginary
part is tiny).  Every point contributes the rows (W, P) of the kernel
engine in kernels: W the family polynomials times the pair weight, P
their partners, minus the half-range transform eps W at a real point and
i conj(W) at a complex one (kernels.interrelations_check tests both).
The engine's one cell, [[D, S], [-S^T, I]], the same as GOE's, gives
through its Pfaffian over a point configuration the correlations with
n1 real and n2 complex arguments.
"""

from __future__ import annotations

import numpy as np

from .ginibre import SQRT_2PI, ginoe_rows, pair_weight
from .kernels import family_bundle, rho
from .skewortho import family_coefficients
from .specfun import gaussian_tail_moments, weighted_powers


def ginoe_kernel(N):
    """Kernel bundle of N real Ginibre eigenvalues, parity derived from N.

    At odd N the family is bordered (kernels.family_bundle): the constant
    partner column reaches the scalar block at a real second argument
    and the integrated block unless both arguments are complex.
    """
    return family_bundle("ginoe", ginoe_rows(family_coefficients(N)), N)


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


def ginoe_rho(bundle, config):
    """Correlation of n1 real and n2 complex points as a real number.

    The assembled Pfaffian is real up to roundoff; the imaginary
    residue is returned alongside for audit.
    """
    value = rho(bundle, config)
    if isinstance(value, complex):
        return value.real, abs(value.imag)
    return float(value), 0.0
