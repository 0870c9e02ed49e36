"""Kernel reduction from even to odd ensemble size.

Pinning one eigenvalue of an even-size ensemble at a real point x_far
and conditioning on it removes that point's cell from the correlation
matrix through a Schur complement: with the far cell E first in the
extended matrix [[E, -C^T], [C, B]], the other points see

    B + C E^-1 C^T,    and Pf[extended] = Pf E * Pf[B + C E^-1 C^T],

at every finite x_far.  On the engine's basis the complement is a
bundle of its own (conditioned_bundle): the even rows plus the constant
partner column, paired by the even M bordered through a rank-two term
built from the far point's rows, by the rule that builds the odd-size
families (KernelBundle.bordered, to size N - 1).  The term is
homogeneous of degree 0 in the far W row, so that row enters by its
direction, which does not underflow.  At x_far = +infinity the same
construction is the exact limit, the kernel of the ensemble one size
smaller; at finite distance each entry differs from it by
c1/far + c2/far**2 + ...

verify_odd_limit gates the reduction on one probe configuration derived
from the size: the exact limit against the directly built odd kernel,
the finite-far deviations shrinking along far_points(N), and the Schur
complement at those same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ginoe_kernels import ginoe_kernel
from .kernels import PointConfiguration


def far_points(N):
    """Three far points for size N: the first power of two strictly past
    the spectrum's edge sqrt(2N), then doubled twice."""
    first = math.ldexp(1.0, math.frexp(math.sqrt(2 * N))[1])
    return (first, 2 * first, 4 * first)


def _conditioned(bundle, x_far):
    # the even bundle bordered at x_far to N - 1, and the far point's rows, W along its direction
    point = np.float64(x_far)
    far = np.stack([bundle.rows.direction(point), bundle.rows(point)[1]])
    try:
        return bundle.bordered(bundle.pairing @ far[0], far[1], bundle.N - 1), far
    except ArithmeticError as error:
        raise ArithmeticError(f"no conditioning weight at far point {x_far!r}") from error


def conditioned_bundle(bundle, x_far):
    """Kernel of the other N-1 points with one pinned at x_far (+inf allowed).

    The even rows bordered (KernelBundle.bordered) through u = M W^T and
    the far point's partner row Phi, W the direction of its weighted row
    (skewortho.gaussian_line_rows) and M the even pairing: the border's
    -1/2 is the sign term between the far point and every real point
    below it, so the update is exact for probes below x_far.  At +inf W
    is the top-degree unit vector.
    """
    if bundle.parity != "even":
        raise ValueError("reduction starts from an even-size bundle")
    return _conditioned(bundle, x_far)[0]


def schur_complement_gap(extended, updated):
    """Gap between a conditioned matrix and the Schur complement it stands for.

    extended is the matrix [[E, -C^T], [C, B]] of the far point (first
    among the reals, its W row along the direction) and the other
    points on the even basis, updated the conditioned matrix of those
    other points; updated against B + C E^-1 C^T, entry by entry,
    relative to the complement's largest entry.  Exact at any finite
    far point, full configurations included.
    """
    if len(extended) <= 2:
        raise ValueError("need at least one point")
    B, C = extended[2:, 2:], extended[2:, :2]
    schur = B + (np.outer(C[:, 1], C[:, 0]) - np.outer(C[:, 0], C[:, 1])) / extended[0, 1]
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
    of far_points; schur_gap is the worst Schur complement gap there.
    """

    exact: float
    far_points: tuple
    far: tuple
    schur_gap: float

    @property
    def ratio(self):
        """Worst ratio of successive far deviations: below 1 while they shrink."""
        return max(b / a for a, b in zip(self.far, self.far[1:]))

    @property
    def c1(self):
        """far times deviation at the largest far point, where it tends to c1."""
        return self.far_points[-1] * self.far[-1]


def verify_odd_limit(even_bundle, odd_bundle):
    """The reduction of even_bundle against the directly built odd_bundle.

    The probe rows are taken once, from the conditioned bundle at +inf:
    the even rows plus the constant partner column, the same for every
    far point.  Each far point's bordered bundle assembles its matrix on
    them, and the extended matrix of its Schur gap takes them without
    the column, after the far point's rows.
    """
    if odd_bundle.N != even_bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    config = probe_configuration(even_bundle.ensemble, even_bundle.N)
    target = odd_bundle.assemble(config)
    scale = np.abs(target).max()
    limit = conditioned_bundle(even_bundle, np.inf)
    reals, rows = np.asarray(config.reals), limit.config_rows(config)

    def deviation(reduced):
        return float(np.abs(reduced - target).max() / scale)

    exact = deviation(limit.matrix(rows, reals))
    points = far_points(even_bundle.N)
    far, gaps = [], []
    for x_far in points:
        conditioned, far_rows = _conditioned(even_bundle, x_far)
        reduced = conditioned.matrix(rows, reals)
        far.append(deviation(reduced))
        extended = even_bundle.matrix(np.concatenate([far_rows[None], rows[..., :-1]]), np.append(x_far, reals))
        gaps.append(schur_complement_gap(extended, reduced))
    return ReductionReport(exact=exact, far_points=points, far=tuple(far), schur_gap=max(gaps))


def verify_odd_limit_ginoe(N):
    """Plane-ensemble reduction N -> N-1 (N even)."""
    return verify_odd_limit(ginoe_kernel(N), ginoe_kernel(N - 1))
