"""Composite Gauss-Legendre quadrature for Gaussian-weighted integrals.

Every integral in the library runs over the real line (or the heights
of the upper half plane) against a weight that decays at least as fast
as exp(-x^2/2).
Integrands are truncated to a radius where the weighted tail is far below
the requested tolerance, segments are split at any sign-function kinks,
and refinement doubles the number of equal panels per segment, each
carrying the same ORDER-node rule, until two successive estimates agree.

Integrands must be numpy-vectorized (scalar broadcasting is tolerated).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

ORDER = 32
# refinement stops with QuadratureError beyond these panel counts per
# segment: 2048 nodes on a line segment, 512 heights in the half plane
LINE_PANEL_CAP = 64
PLANE_PANEL_CAP = 16


class QuadratureError(ArithmeticError):
    """Refinement stalled above tolerance.

    Carries the best estimate and its error estimate so a caller can
    still inspect the partial result.
    """

    def __init__(self, message, estimate, error):
        super().__init__(f"{message} (error {error:.3e})")
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.size < 2:
            raise ValueError("a rule needs at least two nodes")
        if np.any(self.weights <= 0.0):
            raise ValueError("weights must be positive")

    def integrate(self, f):
        values = np.asarray(f(self.nodes))
        values = np.broadcast_to(values, self.nodes.shape)
        return (values * self.weights).sum()


@functools.cache
def reference_rule(gauss, n):
    """Nodes and weights of numpy's n-node rule gauss (leggauss on
    [-1, 1], hermgauss against e^{-x^2}), built once per node count and
    read-only."""
    x, w = gauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_rule(n, a, b):
    """Gauss-Legendre rule with n nodes mapped to [a, b]; for arrays of
    panel ends a and b, the rules of the panels [a_i, b_i] in order."""
    x, w = reference_rule(leggauss, n)
    a, b = np.asarray(a, dtype=float)[..., None], np.asarray(b, dtype=float)[..., None]
    half = 0.5 * (b - a)
    return QuadratureRule((0.5 * (a + b) + half * x).reshape(-1), (half * w).reshape(-1))


def panel_rule(edges, panels):
    """ORDER-node panels, `panels` equal ones on every segment between edges."""
    fine = [np.linspace(a, b, panels + 1)[:-1] for a, b in zip(edges[:-1], edges[1:])]
    ends = np.append(np.concatenate(fine), edges[-1])
    return gauss_legendre_rule(ORDER, ends[:-1], ends[1:])


def truncation_radius(degree):
    """Radius beyond which x^degree exp(-x^2/2) stays below 1e-14."""
    return max(10.0, math.sqrt(2.0 * (degree + 10) * math.log(10.0)) + 2.0)


@dataclass(frozen=True)
class Refinement:
    """Final estimate, its panel count per segment, and its gap to the previous one."""

    value: object
    panels: int
    difference: float


def _relative_gap(value, previous):
    return abs(value - previous) / max(1.0, abs(value))


def refine(evaluate, tol, context, cap=LINE_PANEL_CAP, gap=_relative_gap):
    """Estimates on 1, 2, 4, ... panels per segment until two successive ones agree.

    evaluate(panels) returns a number or an array; gap(value, previous)
    measures their difference (by default relative to max(1, |value|)).
    Agreement within tol ends the refinement; past cap panels it raises
    QuadratureError with the last estimate.  One agreement suffices:
    doubling the panels moves every node, so no cancellation repeats
    across levels, and at ORDER nodes per panel the error of a resolved
    integrand falls by orders of magnitude per doubling, so the gap
    bounds the coarser estimate's error and the finer one is returned.
    """
    previous = None
    difference = math.inf
    panels = 1
    while panels <= cap:
        value = evaluate(panels)
        if previous is not None:
            difference = float(gap(value, previous))
            if difference <= tol:
                return Refinement(value, panels, difference)
        previous = value
        panels *= 2
    raise QuadratureError(f"{context} did not reach tolerance {tol}", previous, difference)


def integrate_line(f, tol=1e-12, breakpoints=(), degree=0):
    """Integrate f over the real line assuming Gaussian-type decay.

    degree bounds the polynomial growth of the integrand against the
    exp(-x^2/2) weight and fixes the truncation radius; breakpoints list
    the kink locations of any sign-function factors.
    """
    T = truncation_radius(degree)
    inner = sorted(p for p in breakpoints if -T < p < T)
    edges = [-T, *inner, T]
    return refine(
        lambda panels: panel_rule(edges, panels).integrate(f), tol, "line integral"
    ).value
