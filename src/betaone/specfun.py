"""Special functions used throughout the kernel evaluators.

The complementary error function comes from the standard library
(math.erfc); erfcx is built on it here and normal_cdf on both, exact to
a few units in the last place, and applied element by element to arrays.
weighted_powers gives the normalized monomial and Hermite rows, of order
one at every degree, by one three-term recurrence.  gaussian_tail_moments
gives a real point set's Gaussian-weighted rows and their tail moments
from one such pass: the moments' recurrence is driven by the rows.  At
x = +-inf the rows vanish and the recurrence alone gives the moments,
with no pass.  The line rows W, their partners -eps W and the GinOE
closed form (the Poisson head and the Gaussian tail moments) are all
built from these two.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_SQRT2 = math.sqrt(2.0)
_SQRT_PI = math.sqrt(math.pi)
# beyond this erfcx is its asymptotic series; below -_ERFCX_OVERFLOW,
# where 2 exp(x^2) passes the largest double, it is inf
_ERFCX_ASYMPTOTIC = 26.0
_ERFCX_OVERFLOW = math.sqrt(math.log(0.5 * sys.float_info.max))
# (-1)^k (2k-1)!! for k = 8, 7, ..., 0: the series in 1/(2x^2), Horner order
_ERFCX_SERIES = (2027025.0, -135135.0, 10395.0, -945.0, 105.0, -15.0, 3.0, -1.0, 1.0)


def _elementwise(f, x):
    """f of each element of x: a float for 0-d input, else an array of x's shape."""
    if isinstance(x, float):  # numpy float64 scalars included
        return f(float(x))
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        return f(float(x))
    return np.fromiter(map(f, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _exp_square(c, x):
    # exp(c x^2) with x^2 = hi^2 + (x - hi)(x + hi) and c hi^2 exact, for c a
    # power of 2: hi has at most 19 bits below |x| = 64
    hi = round(x * 8192.0) / 8192.0
    return math.exp(c * hi * hi) * math.exp(c * (x - hi) * (x + hi))


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
    return _exp_square(1.0, x) * math.erfc(x)


def _normal_cdf(x):
    # erfc amplifies a relative error of its argument u = -x/sqrt 2 by 2u^2,
    # about 1400 at x = -37, erfcx does not: above u = 1 only it sees u
    u = -x / _SQRT2
    if not u > 1.0:  # nan too
        return 0.5 * math.erfc(u)
    if math.exp(-u * u) == 0.0:  # the value underflows, from u = 27.3 on
        return 0.0
    return 0.5 * _exp_square(-0.5, x) * _erfcx(u)


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

    Below x = -sqrt 2 it is exp(-x^2/2) erfcx(-x/sqrt 2) / 2 with x^2 carried
    exactly, which stays exact to a few units in the last place far into
    the lower tail, and 0 where it underflows.  A 0-d input gives a float,
    an array one of the same shape.
    """
    return _elementwise(_normal_cdf, x)


def weighted_powers(n, z, weight, c=0.0):
    """Rows P_k(z) / a_k times weight for k = 0..n-1, shape z.shape + (n,).

    P_0 = 1 and P_{k+1} = z P_k - c k P_{k-1}: the monomials for c = 0,
    the monic Hermite polynomials He_k = H_k / 2^k for c = 1/2.  With
    a_{k+1} = a_k sqrt((k+1)(1 - c)) the rows are z^k / sqrt(k!) and
    H_k / sqrt(2^k k!), no factorial formed.  Real or complex z; exactly
    0 where the weight vanishes, +-inf included.
    """
    z = np.asarray(z)
    weight = np.broadcast_to(weight, z.shape)
    out = np.empty(z.shape + (n,), dtype=np.result_type(z, weight))
    previous, current = 0.0, weight
    with np.errstate(invalid="ignore"):
        for k in range(n):
            out[..., k] = current
            if k == n - 1:
                break  # row n would be computed only to be dropped
            step = z * current
            if c:
                step = step - c * math.sqrt(k / (1.0 - c)) * previous
            previous, current = current, step / math.sqrt((k + 1) * (1.0 - c))
    out[weight == 0.0] = 0.0
    return out


def gaussian_tail_moments(n, x, hermite=False):
    """Weighted rows p_k(x) e^(-x^2/2) and their tail moments, k = 0..n-1.

    p_k = P_k / a_k as in weighted_powers, c = 1/2 with hermite (H_k /
    sqrt(2^k k!)) and 0 without (x^k / sqrt(k!)); the moments are the
    integrals of p_k(t) e^(-t^2/2) over [x, inf).  Integrating
    (P_k e^(-t^2/2))' over [x, inf) and dividing by a_{k+1} gives the
    upward recurrence
    T_{k+1} = sqrt(k / (k+1)) T_{k-1} + p_k(x) e^(-x^2/2) / sqrt((k+1)(1 - c))
    from the erfc and Gaussian base cases, driven by the rows
    themselves: one weighted_powers pass gives both.  It is stable for
    every sign of x.  Vectorized in x; returns (rows, moments), each of
    shape x.shape + (n,).  A 0-d x = +-inf takes no pass: its rows are
    0 and the recurrence runs undriven, giving 0 at +inf and the full
    moments at -inf, bit for bit what an array [+-inf] gives.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 and np.isinf(x):
        moments = np.zeros(n)
        if x < 0 and n:
            moments[0] = math.sqrt(2.0 * math.pi)
            for k in range(2, n, 2):
                moments[k] = math.sqrt((k - 1) / k) * moments[k - 2]
        return np.zeros(n), moments
    c = 0.5 if hermite else 0.0
    with np.errstate(over="ignore"):
        weight = np.exp(-0.5 * x * x)
    rows = weighted_powers(n, x, weight, c)
    heads = rows[..., :-1] / np.sqrt((1.0 - c) * np.arange(1, n))
    moments = np.empty(x.shape + (n,))
    if n:
        moments[..., 0] = math.sqrt(2.0 * math.pi) * normal_cdf(-x)
    moments[..., 1:2] = heads[..., :1]  # T_1 = e^(-x^2/2) / sqrt(1 - c), where n > 1
    for k in range(2, n):
        moments[..., k] = heads[..., k - 1] + math.sqrt((k - 1) / k) * moments[..., k - 2]
    return rows, moments
