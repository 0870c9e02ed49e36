"""Special functions used throughout the kernel evaluators.

The complementary error function comes from the standard library
(math.erfc); erfcx and normal_cdf are built on it here, exact to a few
units in the last place, and applied element by element to arrays.
weighted_powers gives weighted monomial and Hermite rows by one
three-term recurrence, gaussian_tail_moments their Gaussian tail
moments by another.  The GinOE closed form is built from these two:
the Poisson head and the Gaussian tail moments.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_SQRT2 = math.sqrt(2.0)
# sqrt(2) - _SQRT2, the rounding error of the double nearest sqrt(2)
_SQRT2_LO = -9.667293313452913e-17
_TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)
_SQRT_PI = math.sqrt(math.pi)
# beyond this erfcx is its asymptotic series; below -_ERFCX_OVERFLOW,
# where 2 exp(x^2) passes the largest double, it is inf
_ERFCX_ASYMPTOTIC = 26.0
_ERFCX_OVERFLOW = math.sqrt(math.log(0.5 * sys.float_info.max))
# (-1)^k (2k-1)!! for k = 8, 7, ..., 0: the series in 1/(2x^2), Horner order
_ERFCX_SERIES = (2027025.0, -135135.0, 10395.0, -945.0, 105.0, -15.0, 3.0, -1.0, 1.0)
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant


def _elementwise(f, x):
    """f of each element of x: a float for 0-d input, else an array of x's shape."""
    if isinstance(x, float):  # numpy float64 scalars included
        return f(float(x))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return f(float(x))
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _erfcx(x):
    if x > _ERFCX_ASYMPTOTIC:
        # sum_k (-1)^k (2k-1)!! / (2x^2)^k / (x sqrt(pi)); 0 at +inf
        s = 0.5 / (x * x)
        total = 0.0
        for c in _ERFCX_SERIES:
            total = total * s + c
        return total / x / _SQRT_PI
    if x < -_ERFCX_OVERFLOW:
        return math.inf
    if x != x:
        return x
    # x^2 = hi^2 + (x - hi)(x + hi) with hi^2 exact: hi has at most 18 bits
    hi = round(x * 8192.0) / 8192.0
    return math.exp(hi * hi) * math.exp((x - hi) * (x + hi)) * math.erfc(x)


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_SQRT2_HI, _SQRT2_TAIL = _split(_SQRT2)


def _normal_cdf(x):
    # erfc amplifies a relative error of its argument t = -x/sqrt 2 by
    # 2t^2, about 1400 at x = -37: above t = 1 take erfc(u) - r erfc'(u)
    # with u = fl(t) and its residual r = t - u
    u = -x / _SQRT2
    if not u > 1.0:  # nan too
        return 0.5 * math.erfc(u)
    p = u * _SQRT2
    u_hi, u_tail = _split(u)
    # p + error = u * _SQRT2 exactly (Dekker's product)
    error = ((u_hi * _SQRT2_HI - p) + u_hi * _SQRT2_TAIL + u_tail * _SQRT2_HI) + u_tail * _SQRT2_TAIL
    if not math.isfinite(error):  # u infinite, or the split overflowed near the double range
        return 0.5 * math.erfc(u)
    r = ((-x - p) - error - u * _SQRT2_LO) / _SQRT2
    return 0.5 * (math.erfc(u) - _TWO_OVER_SQRT_PI * math.exp(-u * u) * r)


def erfcx(x):
    """Scaled complementary error function exp(x^2) erfc(x) for real x.

    exp(x^2) math.erfc(x) up to 26, with x^2 carried in two exact parts;
    its asymptotic series in 1/(2x^2), to order 8, beyond.  A 0-d input
    gives a float, an array one of the same shape; inf below about -26.63,
    where the value passes the largest double.
    """
    return _elementwise(_erfcx, x)


def normal_cdf(x):
    """Standard normal cumulative distribution function, 0.5 erfc(-x/sqrt 2).

    The rounding of -x/sqrt 2 is corrected to first order, which keeps
    the result exact to a few units in the last place far into the lower
    tail.  A 0-d input gives a float, an array one of the same shape.
    """
    return _elementwise(_normal_cdf, x)


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
    with np.errstate(over="ignore"):
        weight = np.exp(-0.5 * x * x)
    return weighted_powers(n, x, weight, 0.5 if hermite else 0.0)


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

