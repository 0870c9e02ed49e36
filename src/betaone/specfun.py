"""Special functions used throughout the kernel evaluators.

The complementary error function comes from scipy.  The incomplete gamma
functions are implemented here: the closed-form kernels evaluate them at
complex and negative arguments, which scipy.special does not cover.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as _sp

_MAX_ITER = 600
_EPS = 1e-16
_TINY = 1e-300


def erfc(x):
    """Complementary error function for real argument (vectorized)."""
    return _sp.erfc(x)


def erfcx(x):
    """Scaled complementary error function exp(x^2)*erfc(x) (vectorized)."""
    return _sp.erfcx(x)


def normal_cdf(x):
    """Standard normal cumulative distribution function."""
    return 0.5 * _sp.erfc(-x / math.sqrt(2.0))


def _check_order(s):
    two_s = 2.0 * s
    if s <= 0 or abs(two_s - round(two_s)) > 1e-12:
        raise ValueError(f"order must be a positive integer or half-integer, got {s}")


def _is_integer(s):
    return abs(s - round(s)) <= 1e-12


def _pow_exp(s, x):
    # x^s * exp(-x), principal branch for complex x
    if isinstance(x, complex):
        return cmath.exp(s * cmath.log(x) - x)
    return math.exp(s * math.log(x) - x)


def _lower_series(s, x):
    # gamma(s, x) = x^s e^{-x} * sum_{n>=0} x^n / (s (s+1) ... (s+n))
    denom = s
    term = 1.0 / s
    total = term
    for _ in range(_MAX_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * _pow_exp(s, x)
    raise ArithmeticError("incomplete gamma series did not converge")


def _upper_fraction(s, x):
    # modified Lentz continued fraction, well conditioned for |x| >= s + 1
    b = x + 1.0 - s
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - s)
        b = b + 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h = h * delta
        if abs(delta - 1.0) < _EPS:
            return h * _pow_exp(s, x)
    raise ArithmeticError("incomplete gamma continued fraction did not converge")


def _upper_integer(n, x):
    # Gamma(n, x) = (n-1)! e^{-x} sum_{k<n} x^k / k!, exact for every complex x
    total = 1.0
    term = 1.0
    for k in range(1, n):
        term = term * x / k
        total = total + term
    if isinstance(x, complex):
        return math.factorial(n - 1) * cmath.exp(-x) * total
    return math.factorial(n - 1) * math.exp(-x) * total


def upper_gamma(s, x):
    """Upper incomplete gamma integral of t^(s-1) e^(-t) over [x, inf).

    The order s must be a positive integer or half-integer.  Integer
    orders accept any real or complex argument; half-integer orders
    require a nonnegative real part (branch cut on the negative axis).
    """
    _check_order(s)
    if isinstance(x, complex) and x.imag == 0.0:
        x = x.real
    if _is_integer(s):
        return _upper_integer(round(s), x)
    if (x.real if isinstance(x, complex) else x) < 0.0:
        raise ValueError("half-integer order needs an argument with Re >= 0")
    if x == 0:
        return math.gamma(s)
    if abs(x) < s + 1.0:
        return math.gamma(s) - _lower_series(s, x)
    return _upper_fraction(s, x)


def lower_gamma(s, x):
    """Lower incomplete gamma integral of t^(s-1) e^(-t) over [0, x]."""
    _check_order(s)
    if isinstance(x, complex) and x.imag == 0.0:
        x = x.real
    if x == 0:
        return 0.0
    if not _is_integer(s) and (x.real if isinstance(x, complex) else x) < 0.0:
        raise ValueError("half-integer order needs an argument with Re >= 0")
    if abs(x) < s + 1.0:
        return _lower_series(s, x)
    return math.gamma(s) - upper_gamma(s, x)


def weighted_powers(n, z, weight, c=0.0):
    """Rows P_k(z) times weight for k = 0..n-1, shape z.shape + (n,).

    P_0 = 1 and P_{k+1} = z P_k - c k P_{k-1}: the monomials for c = 0,
    the monic Hermite polynomials He_k = H_k / 2^k for c = 1/2.  Real or
    complex z; exactly 0 where the weight vanishes, +-inf included.
    """
    z = np.asarray(z)
    weight = np.broadcast_to(weight, z.shape)
    out = np.empty(z.shape + (n,), dtype=np.result_type(z, weight))
    previous, current = 0.0, weight
    with np.errstate(invalid="ignore"):
        for k in range(n):
            out[..., k] = current
            previous, current = current, z * current - c * k * previous
    out[weight == 0.0] = 0.0
    return out


def gaussian_basis(n, x, hermite=False):
    """Weighted basis values P_k(x) e^(-x^2/2) for k = 0..n-1.

    P_k is the monomial x^k, or with hermite the monic Hermite polynomial
    He_k = H_k / 2^k (see weighted_powers); P_k' = k P_{k-1}.  Vectorized
    in x, shape x.shape + (n,); exactly 0 where the Gaussian underflows,
    +-inf included.
    """
    x = np.asarray(x, dtype=float)
    return weighted_powers(n, x, np.exp(-0.5 * x * x), 0.5 if hermite else 0.0)


def gaussian_tail_moments(n, x, hermite=False):
    """Integrals of P_k(t) e^(-t^2/2) over [x, inf) for k = 0..n-1.

    P_k as in gaussian_basis.  Integrating (P_k e^(-t^2/2))' =
    ((1 - c) k P_{k-1} - P_{k+1}) e^(-t^2/2) over [x, inf) gives the upward
    recurrence T_{k+1} = (1 - c) k T_{k-1} + P_k(x) e^(-x^2/2) from the
    erfc and Gaussian base cases.  It is stable for every sign of x; every
    moment is exactly 0 at x = +inf, and x = -inf gives the full moments.
    Vectorized in x; the result has shape x.shape + (n,).
    """
    x = np.asarray(x, dtype=float)
    heads = gaussian_basis(max(n - 1, 1), x, hermite)
    step = 0.5 if hermite else 1.0
    out = np.empty(x.shape + (max(n, 2),))
    out[..., 0] = math.sqrt(2.0 * math.pi) * normal_cdf(-x)
    out[..., 1] = heads[..., 0]
    for k in range(2, n):
        out[..., k] = heads[..., k - 1] + step * (k - 1) * out[..., k - 2]
    return out[..., :n]


def gaussian_tail_moment(k, x):
    """Integral of t^k e^(-t^2/2) over [x, inf) for integer k >= 0."""
    return gaussian_tail_moments(k + 1, x)[..., k][()]


def gaussian_full_moment(k):
    """Integral of t^k e^(-t^2/2) over the whole line for integer k >= 0."""
    return float(gaussian_tail_moment(k, -np.inf))
