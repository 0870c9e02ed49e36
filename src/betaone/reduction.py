"""Kernel reduction from even to odd ensemble size.

Pinning one eigenvalue of an even-size ensemble at a real point x_far
and conditioning on it removes that point's cell from the correlation
matrix through a Schur complement: with the far cell E last in the
extended matrix [[B, C], [-C^T, E]], the other points see

    B + C E^-1 C^T,    and Pf[extended] = Pf E * Pf[B + C E^-1 C^T],

at every finite x_far.  On the engine's basis the complement is a
bundle of its own (conditioned_bundle): the even rows plus the constant
partner column, paired by the even M bordered through a rank-two term
built from the far point's rows.  At x_far = +infinity the same
construction is the exact limit, the kernel of the ensemble one size
smaller; at finite distance each entry differs from it by
c1/far + c2/far**2 + ...

verify_odd_limit gates the reduction on one probe configuration derived
from the size: the exact limit against the directly built odd kernel,
the finite-far deviations shrinking along FAR_POINTS, and the Schur
complement at those same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ginoe_kernels import ginoe_kernel
from .kernels import KernelBundle, PointConfiguration, goe_kernel
from .pfaffian import pfaffian

CORNER_FLOOR = 1e-300
# past the spectrum's edge up to N = 64 (about 11.3), where the deviations
# shrink like 1/far, and short of far = 37, where the corner falls below
# CORNER_FLOOR
FAR_POINTS = (16.0, 24.0, 32.0)


def _corner(value, x_far):
    if abs(value) < CORNER_FLOOR:
        raise ArithmeticError(
            f"conditioning weight underflowed at far point {x_far!r}"
        )
    return value


def conditioned_bundle(bundle, x_far):
    """Kernel of the other N-1 points with one pinned at x_far (+inf allowed).

    With Phi, W the far point's partner and weighted rows and M the even
    pairing, the bordered pairing is

        [[M, 0], [0, 0]] + (u v^T - v u^T) / (Phi M W^T),
        u = [M W^T; 0],  v = [M Phi^T; -1/2],

    the -1/2 being the sign term between the far point and every real
    point below it, so the update is exact for probes below x_far.  At
    +inf only the direction of the vanishing W enters, the top-degree
    unit vector.
    """
    if bundle.parity != "even":
        raise ValueError("reduction starts from an even-size bundle")
    basis = bundle.family
    far = basis.rows(np.float64(x_far))
    weighted, partner = far
    if np.isposinf(x_far):
        weighted = np.eye(len(weighted))[-1]
    M = basis.pairing
    corner = _corner(basis.form(partner, weighted), x_far)
    u = np.append(M @ weighted, 0.0)
    v = np.append(M @ partner, -0.5)
    bordered = np.pad(M, ((0, 1), (0, 1))) + (np.outer(u, v) - np.outer(v, u)) / corner
    reduced = basis.bordered(np.triu(bordered, 1))
    return KernelBundle.from_basis(bundle.ensemble, bundle.N - 1, reduced)


def _cell_last(A, cell, n_cells):
    order = [c for c in range(n_cells) if c != cell] + [cell]
    idx = np.concatenate([(2 * c, 2 * c + 1) for c in order])
    return A[np.ix_(idx, idx)]


def _far_cell_last(bundle, config, x_far):
    """The matrix of config plus x_far, x_far's cell moved last, and its corner.

    Moving a cell is an even permutation of rows and columns, so it
    leaves the Pfaffian alone.
    """
    extended = PointConfiguration(
        reals=config.reals + (float(x_far),), complexes=config.complexes
    )
    A = _cell_last(bundle.assemble(extended), len(config.reals), len(extended))
    return A, _corner(A[-2, -1], x_far)


def schur_complement_gap(bundle, config, x_far, updated=None):
    """Gap between the conditioned matrix and the Schur complement it stands for.

    The conditioned bundle's matrix on config against B + C E^-1 C^T, E
    the far cell of the extended matrix, entry by entry, relative to
    the complement's largest entry; updated is that matrix when the
    caller has assembled it already.  Exact at any finite far point,
    full configurations included, until the corner falls below
    CORNER_FLOOR.
    """
    if len(config) == 0:
        raise ValueError("need at least one point")
    A, corner = _far_cell_last(bundle, config, x_far)
    B, C = A[:-2, :-2], A[:-2, -2:]
    schur = B + (np.outer(C[:, 1], C[:, 0]) - np.outer(C[:, 0], C[:, 1])) / corner
    if updated is None:
        updated = conditioned_bundle(bundle, x_far).assemble(config)
    return float(np.abs(updated - schur).max() / np.abs(schur).max())


def probe_configuration(ensemble, N):
    """Seven bulk reals over +-0.9 sqrt(N), for GinOE also at height 0.5."""
    grid = np.linspace(-0.9, 0.9, 7) * math.sqrt(N)
    complexes = grid + 0.5j if ensemble == "ginoe" else ()
    return PointConfiguration(reals=grid, complexes=complexes)


@dataclass(frozen=True)
class ReductionReport:
    """Deviations of the reduced kernel from the odd target, relative to
    the target matrix's largest entry: exact at the limit, far at each
    of FAR_POINTS; schur_gap is the worst Schur complement gap there.
    """

    exact: float
    far: tuple
    schur_gap: float

    @property
    def ratio(self):
        """Worst ratio of successive far deviations: below 1 while they shrink."""
        return max(b / a for a, b in zip(self.far, self.far[1:]))


def verify_odd_limit(even_bundle, odd_bundle):
    """The reduction of even_bundle against the directly built odd_bundle.

    The conditioned matrix at +inf and at each of FAR_POINTS is assembled
    once on the whole probe grid; the deviations and the Schur gaps share
    it.
    """
    if odd_bundle.N != even_bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    config = probe_configuration(even_bundle.ensemble, even_bundle.N)
    target = odd_bundle.assemble(config)
    scale = np.abs(target).max()

    def deviation(reduced):
        return float(np.abs(reduced - target).max() / scale)

    exact = deviation(conditioned_bundle(even_bundle, np.inf).assemble(config))
    far, gaps = [], []
    for x_far in FAR_POINTS:
        reduced = conditioned_bundle(even_bundle, x_far).assemble(config)
        far.append(deviation(reduced))
        gaps.append(schur_complement_gap(even_bundle, config, x_far, reduced))
    return ReductionReport(exact=exact, far=tuple(far), schur_gap=max(gaps))


def verify_odd_limit_beta1(N):
    """Gaussian-weight reduction N -> N-1 (N even)."""
    return verify_odd_limit(goe_kernel(N), goe_kernel(N - 1))


def verify_odd_limit_ginoe(N):
    """Plane-ensemble reduction N -> N-1 (N even)."""
    return verify_odd_limit(ginoe_kernel(N), ginoe_kernel(N - 1))


def factorisation_check(bundle, reduced_bundle, config, x_far):
    """Conditioned correlation over (one-point weight times reduced target).

    The ratio tends to 1 as the conditioning point recedes; its gap at
    finite distance measures how far the reduction is from its limit.
    The one-point weight is the far cell's corner.  An empty probe set
    is the one-point case, where the extended matrix is that cell alone
    and the ratio is 1 identically.
    """
    if reduced_bundle.N != bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    if len(config) > 3:
        raise ValueError("factorisation check takes at most three probe points")
    A, weight = _far_cell_last(bundle, config, x_far)
    joint = np.real(pfaffian(A))
    if not len(config):
        return joint / weight
    target = np.real(pfaffian(reduced_bundle.assemble(config)))
    return joint / (weight * target)
