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
built from these two.  gaussian_row_integrals integrates the rows
against their tail moments up to a point, by recurrences driven by the
rows' products: the line Grams and the expected real counts are exact.
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


def gaussian_rows(n, x, hermite=False):
    """Weighted rows p_k(x) e^(-x^2/2), k = 0..n-1, as gaussian_tail_moments gives them."""
    x = np.asarray(x, dtype=float)
    with np.errstate(over="ignore"):
        weight = np.exp(-0.5 * x * x)
    return weighted_powers(n, x, weight, 0.5 if hermite else 0.0)


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
    rows = gaussian_rows(n, x, hermite)
    heads = rows[..., :-1] / np.sqrt((1.0 - c) * np.arange(1, n))
    moments = np.empty(x.shape + (n,))
    if n:
        moments[..., 0] = math.sqrt(2.0 * math.pi) * normal_cdf(-x)
    moments[..., 1:2] = heads[..., :1]  # T_1 = e^(-x^2/2) / sqrt(1 - c), where n > 1
    for k in range(2, n):
        moments[..., k] = heads[..., k - 1] + math.sqrt((k - 1) / k) * moments[..., k - 2]
    return rows, moments


def gaussian_row_integrals(n, t, hermite=False):
    """Tail moments T(t) and the integrals I_jk(t) of b_j T_k over (-inf, t], b and T as
    gaussian_tail_moments gives them; vectorized in t, +-inf included.

    T's recurrence integrated against b_j gives I_{j,k+1} = sqrt(k/(k+1))
    I_{j,k-1} + E_jk / sqrt((k+1)(1 - c)), E_jk(t) the integral of b_j b_k,
    and by parts I_j0 = T_j(-inf) T_0(-inf) - T_j(t) T_0(t) - I_0j, the row
    I_0k first.  Hermite rows: E_jk = (b_j' b_k - b_j b_k') / (2(k - j)) off
    the diagonal, b_k' = a_k b_{k-1} - a_{k+1} b_{k+1}, a_k = sqrt(k/2), and
    E_{j+1,j+1} = E_jj + (a_{j+2} E_{j,j+2} - a_j E_{j-1,j+1}) / a_{j+1} from
    E_00 = sqrt(pi) erfc(-t) / 2.  Monomial rows: E_jk = e_{j+k} sqrt(C(j+k, j)),
    e_m = sqrt((m-1)/m) e_{m-2} / 2 - b_0 b_{m-1} / (2 sqrt m) from e_0 = E_00.
    Returns T(t), shape t.shape + (n,), and a generator of the columns
    I[..., :, k] of that shape, contiguous, for the caller to contract as
    they come: no (n, n) array per point is formed.
    """
    t = np.asarray(t, dtype=float)
    c = 0.5 if hermite else 0.0
    rows, moments = gaussian_tail_moments(n + 2 if hermite else max(n, 2 * n - 2), t, hermite)
    moments, full = moments[..., :n], gaussian_tail_moments(n, -np.inf, hermite)[1]
    origin = 0.5 * _SQRT_PI * np.asarray(_elementwise(math.erfc, -t))  # E_00, no argument rounded
    if hermite:
        a = np.sqrt(0.5 * np.arange(n + 2))
        slope = -a[1:] * rows[..., 1:]  # b_k', k <= n
        slope[..., 1:] += a[1 : n + 1] * rows[..., :n]
        skip = np.zeros(t.shape + (n,))  # E_{j-1,j+1}, 0 at j = 0
        skip[..., 1:] = 0.25 * (slope[..., :-2] * rows[..., 2:-1] - rows[..., : n - 1] * slope[..., 2:])
        steps = (a[2 : n + 1] * skip[..., 1:] - a[: n - 1] * skip[..., :-1]) / a[1:n]
        diagonal = np.cumsum(np.concatenate([origin[..., None], steps], axis=-1), axis=-1)
        gap = np.where(np.eye(n, dtype=bool), np.inf, 2.0 * (np.arange(n) - np.arange(n)[:, None]))
        b = rows[..., :n]

        def products(k):  # E[..., :, k]
            column = (slope[..., :n] * b[..., k : k + 1] - b * slope[..., k : k + 1]) / gap[:, k]
            column[..., k] = diagonal[..., k]
            return column

    else:
        e = np.zeros(t.shape + (2 * n,))  # e_{m-1} at m, 0 at m = 0
        e[..., 1] = origin
        for m in range(2, 2 * n):
            e[..., m] = (math.sqrt(m - 2) * e[..., m - 2] - rows[..., 0] * rows[..., m - 2]) / (2.0 * math.sqrt(m - 1))
        roots = np.sqrt([[float(math.comb(j + k, j)) for k in range(n)] for j in range(n)])

        def products(k):
            return e[..., k + 1 : k + n + 1] * roots[:, k]

    def step(k, before, drive):  # I_{., k} from I_{., k-2} and E_{., k-1}
        return drive / math.sqrt(k * (1.0 - c)) + (math.sqrt((k - 1) / k) * before if k > 1 else 0.0)

    def columns():
        E = products(0)
        row = np.empty(t.shape + (n,))  # I_0k
        row[..., 0] = 0.5 * (full[0] ** 2 - moments[..., 0] ** 2)
        for k in range(1, n):
            row[..., k] = step(k, row[..., k - 2], E[..., k - 1])
        before, last = None, full * full[0] - moments * moments[..., :1] - row
        yield last
        for k in range(1, n):
            before, last = last, step(k, before, products(k - 1))
            yield last

    return moments, columns()
