"""Composite Gauss-Legendre quadrature for Gaussian-weighted integrals.

Every integral in the library runs over the real line (or the upper half
plane) against a weight that decays at least as fast as exp(-x^2/2).
Integrands are truncated to a radius where the weighted tail is far below
the requested tolerance, panels are split at any sign-function kinks, and
the node count per panel doubles until two successive estimates agree.

Integrands must be numpy-vectorized (scalar broadcasting is tolerated).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class QuadratureError(ArithmeticError):
    """Refinement stalled above tolerance.

    Carries the best estimate and its error estimate so a caller can
    still inspect the partial result.
    """

    def __init__(self, message, estimate, error):
        super().__init__(f"{message} (estimate {estimate}, error {error:.3e})")
        self.estimate = estimate
        self.error = error


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights for a fixed integration domain."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple

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
def _legendre_reference(n):
    # nodes and weights on [-1, 1], built once per node count
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_rule(n, a, b):
    """Gauss-Legendre rule with n nodes mapped to the interval [a, b]."""
    x, w = _legendre_reference(n)
    half = 0.5 * (b - a)
    return QuadratureRule(0.5 * (a + b) + half * x, half * w, (a, b))


def composite_rule(edges, nodes_per_panel):
    """Concatenate Gauss-Legendre panels over consecutive edge pairs."""
    rules = [
        gauss_legendre_rule(nodes_per_panel, a, b)
        for a, b in zip(edges[:-1], edges[1:])
    ]
    return QuadratureRule(
        np.concatenate([r.nodes for r in rules]),
        np.concatenate([r.weights for r in rules]),
        (edges[0], edges[-1]),
    )


def truncation_radius(degree):
    """Radius beyond which x^degree exp(-x^2/2) stays below 1e-14."""
    return max(10.0, math.sqrt(2.0 * (degree + 10) * math.log(10.0)) + 2.0)


def _refine(evaluate, tol, start, cap, context):
    # two consecutive agreements required: a single match can be a
    # symmetry accident (sign-function integrands cancel pairwise on
    # coarse symmetric node sets)
    previous = None
    agreements = 0
    n = start
    last_error = math.inf
    while n <= cap:
        value = evaluate(n)
        if previous is not None:
            last_error = abs(value - previous)
            if last_error <= tol * max(1.0, abs(value)):
                agreements += 1
                if agreements >= 2:
                    return value
            else:
                agreements = 0
        previous = value
        n *= 2
    raise QuadratureError(f"{context} did not reach tolerance {tol}", previous, last_error)


def integrate_line(f, tol=1e-12, breakpoints=(), degree=0, radius=None):
    """Integrate f over the real line assuming Gaussian-type decay.

    degree bounds the polynomial growth of the integrand against the
    exp(-x^2/2) weight and fixes the truncation radius; breakpoints list
    the kink locations of any sign-function factors.
    """
    T = truncation_radius(degree) if radius is None else radius
    inner = sorted(p for p in breakpoints if -T < p < T)
    edges = [-T, *inner, T]
    return _refine(
        lambda n: composite_rule(edges, n).integrate(f),
        tol,
        start=16,
        cap=2048,
        context="line integral",
    )


def integrate_halfplane(f, tol=1e-10, degree=0, radius=None):
    """Integrate f(x, y) over the upper half plane y > 0.

    The integrand must decay like a Gaussian in both coordinates within
    the truncation radius; f is called on meshgrid arrays.
    """
    T = truncation_radius(degree) if radius is None else radius

    def evaluate(n):
        rx = gauss_legendre_rule(n, -T, T)
        ry = gauss_legendre_rule(n, 0.0, T)
        X, Y = np.meshgrid(rx.nodes, ry.nodes, indexing="ij")
        values = np.asarray(f(X, Y))
        values = np.broadcast_to(values, X.shape)
        return rx.weights @ values @ ry.weights

    return _refine(evaluate, tol, start=32, cap=512, context="half-plane integral")
