"""Gauss rules from their three-term recurrences, and composite
Gauss-Legendre quadrature for Gaussian-weighted integrals on the line.

Every Gauss rule is a pair (nodes, weights) from its weight's recurrence
(gauss_rule): Legendre's in closed form, others by stieltjes.  Line
integrands (the Gaussian rows' own are exact, specfun.gaussian_row_integrals)
decay at least as fast as exp(-x^2/2); they are truncated to a radius where
the weighted tail is far below the requested tolerance, segments are split
at any sign-function kinks, and the number of equal panels per segment,
each carrying the same ORDER-node rule, doubles until two successive
estimates agree.

Integrands must be numpy-vectorized (scalar broadcasting is tolerated), or
stacked, nodes on the last axis, and refined until every component agrees.
"""

from __future__ import annotations

import functools
import math

import numpy as np

ORDER = 32
LINE_PANEL_CAP = 64  # integrate_line raises QuadratureError past this many panels per segment


class QuadratureError(ArithmeticError):
    """Refinement stalled above tolerance.

    Carries the best estimate and its error estimate so a caller can
    still inspect the partial result.
    """

    def __init__(self, message, estimate, error):
        super().__init__(f"{message} (error {error:.3e})")
        self.estimate = estimate
        self.error = error


def _christoffel(a, root, x, first):
    # p_0 = first, root_{k+1} p_{k+1} = (x - a_k) p_k - root_k p_{k-1}: sum p_k^2, p_{n-1}, p_n
    previous, current, total = 0.0, first, np.zeros_like(x)
    for k in range(len(a)):
        total = total + current * current
        previous, current = current, ((x - a[k]) * current - root[k] * previous) / root[k + 1]
    return total, previous, current


def gauss_rule(a, b, weight=None):
    """The len(a)-node Gauss rule of a weight with mass b_0 whose monic orthogonal
    polynomials obey P_{k+1} = (x - a_k) P_k - b_k P_{k-1}.

    Nodes: the Jacobi matrix's eigenvalues (Golub and Welsch, Math. Comp. 23,
    1969), one Newton step on p_n (slope: Christoffel-Darboux), symmetrised if
    a = 0.  Weights: 1 / sum_k p_k(x)^2, orthonormal p_k, relatively accurate
    however small; over weight(x)^2 if the rows carry a factor weight(x).
    """
    a, root = np.asarray(a, dtype=float), np.append(np.sqrt(b), 1.0)
    x = np.linalg.eigvalsh(np.diag(a) + np.diag(root[1:-1], 1), UPLO="U")
    total, below, top = _christoffel(a, root, x, 1.0 / root[0])
    x = x - top * below / total
    if not a.any():
        x = 0.5 * (x - x[::-1])
    return x, 1.0 / _christoffel(a, root, x, (1.0 if weight is None else weight(x)) / root[0])[0]


def stieltjes(x, w, n):
    """gauss_rule's (a, b), k < n, for masses w at x: discretised Stieltjes (Gautschi,
    Orthogonal Polynomials, 2004, section 2.2) on orthonormal polynomials."""
    a, b = [], [w.sum()]
    previous, current = 0.0, np.full_like(x, b[0] ** -0.5)
    while len(a) < n:
        a.append(w @ (x * current * current))
        step = (x - a[-1]) * current - math.sqrt(b[-1]) * previous
        b.append(w @ (step * step))
        previous, current = current, step / math.sqrt(b[-1])
    return np.array(a), np.array(b[:n])


def legendre_recurrence(n):
    """gauss_rule's (a, b) for the weight 1 on [-1, 1]: 0 and k^2 / (4k^2 - 1), b_0 = 2."""
    k2 = np.arange(1.0, n) ** 2
    return np.zeros(n), np.append(2.0, k2 / (4.0 * k2 - 1.0))


@functools.cache
def reference_rule(recurrence, n):
    """Nodes and weights of gauss_rule(*recurrence(n)), built once per recurrence and n, read-only."""
    x, w = gauss_rule(*recurrence(n))
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(n, a, b):
    """Nodes and weights of the n-node Gauss-Legendre rule mapped to [a, b];
    for arrays of panel ends a and b, the rules of the panels [a_i, b_i] in order."""
    x, w = reference_rule(legendre_recurrence, n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * x).reshape(-1), (half * w).reshape(-1)


def panel_rule(edges, panels):
    """ORDER-node panels, `panels` equal ones on every segment between edges."""
    fine = [np.linspace(a, b, panels + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
    ends = np.append(np.concatenate(fine), edges[-1])
    return gauss_legendre_rule(ORDER, ends[:-1], ends[1:])


def truncation_radius(degree):
    """Radius beyond which x^degree exp(-x^2/2) stays below 1e-14."""
    return max(10.0, math.sqrt(2.0 * (degree + 10) * math.log(10.0)) + 2.0)


def integrate_line(f, tol=1e-12, breakpoints=(), degree=0):
    """Integrate f over the real line assuming Gaussian-type decay.

    degree bounds the polynomial growth of the integrand against the
    exp(-x^2/2) weight and fixes the truncation radius; breakpoints list
    the kink locations of any sign-function factors.  The finer of the
    first two successive estimates that agree within tol relative to
    max(1, |value|), in every component of a stacked integrand, is
    returned; past LINE_PANEL_CAP panels per segment it raises
    QuadratureError with the last.  One agreement suffices: doubling
    moves every node, and at ORDER nodes per panel the error of a
    resolved integrand falls by orders of magnitude per doubling.
    """
    T = truncation_radius(degree)
    edges = [-T, *sorted(p for p in breakpoints if -T < p < T), T]
    previous, difference, panels = None, math.inf, 1
    while panels <= LINE_PANEL_CAP:
        x, w = panel_rule(edges, panels)
        value = (np.asarray(f(x)) * w).sum(-1)
        if previous is not None:
            difference = float(np.max(abs(value - previous) / np.maximum(1.0, abs(value))))
            if difference <= tol:
                return value
        previous = value
        panels *= 2
    raise QuadratureError(f"line integral did not reach tolerance {tol}", previous, difference)
