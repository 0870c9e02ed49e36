"""Kernel reduction from even to odd ensemble size.

Pinning one eigenvalue of an even-size ensemble at a real point x_far
and conditioning on it removes that point's cell from the correlation
Pfaffian through a Schur complement, so that

    Pf[extended] = corner * Pf[updated]

at every finite x_far.  On the engine's basis the update is a bundle of
its own (conditioned_bundle): the even rows plus the constant partner
column, paired by the even M bordered through a rank-two term built
from the far point's rows.  At x_far = +infinity the same construction
is the exact limit, the kernel of the ensemble one size smaller; at
finite distance each entry differs from it by c1/far + c2/far**2 + ...

verify_odd_limit gates the reduction on one probe configuration derived
from the size: the exact limit against the directly built odd kernel,
the finite-far deviations shrinking along FAR_POINTS, and the Pfaffian
identity at those same points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ginoe_kernels import ginoe_kernel
from .kernels import KernelBundle, PointConfiguration, goe_kernel, rho
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
    partner, weighted = far[basis.partner_slot], far[1 - basis.partner_slot]
    if np.isposinf(x_far):
        weighted = np.eye(len(weighted))[-1]
    M = basis.pairing
    corner = _corner(basis.form(partner, weighted), x_far)
    u = np.append(M @ weighted, 0.0)
    v = np.append(M @ partner, -0.5)
    bordered = np.pad(M, ((0, 1), (0, 1))) + (np.outer(u, v) - np.outer(v, u)) / corner
    reduced = basis.bordered(np.triu(bordered, 1))
    return KernelBundle.from_basis(bundle.ensemble, bundle.N - 1, reduced)


def _points(config):
    return list(config.reals) + list(config.complexes)


def _extended_config(config, x_far):
    return PointConfiguration(
        reals=tuple(config.reals) + (float(x_far),), complexes=config.complexes
    )


def _cell_last(A, cell, n_cells):
    order = [c for c in range(n_cells) if c != cell] + [cell]
    idx = np.concatenate([(2 * c, 2 * c + 1) for c in order])
    return A[np.ix_(idx, idx)]


def pfaffian_reduction_identity(bundle, config, x_far, conditioned=None):
    """Relative gap in Pf[extended] = corner * Pf[updated].

    The updated matrix is the one the conditioned bundle assembles, so the
    identity checks the bordered pairing against the extended matrix it
    stands for; conditioned is conditioned_bundle(bundle, x_far) when the
    caller has built it already.  Moving the far point's cell to the last
    position is an even permutation of rows and columns, so it leaves the
    Pfaffian alone.  The identity is exact at any finite far point and holds to
    roundoff until the corner falls below CORNER_FLOOR.  Raises
    ValueError when the configuration plus the far point holds more
    eigenvalues than N (a complex point counting twice): both sides
    vanish there and their gap is roundoff over roundoff.
    """
    if config.eigenvalues + 1 > bundle.N:
        raise ValueError("configuration plus the far point exceeds the bundle's N eigenvalues")
    extended = _extended_config(config, x_far)
    A = _cell_last(bundle.assemble(extended), len(config.reals), len(extended))
    corner = _corner(A[-2, -1], x_far)
    if conditioned is None:
        conditioned = conditioned_bundle(bundle, x_far)
    updated = conditioned.assemble(config)
    lhs = pfaffian(A)
    return abs(lhs - corner * pfaffian(updated)) / max(abs(lhs), CORNER_FLOOR)


def _probe_configuration(bundle):
    """Seven bulk reals over +-0.9 sqrt(N), in the plane also at height 0.5."""
    grid = np.linspace(-0.9, 0.9, 7) * math.sqrt(bundle.N)
    complexes = grid + 0.5j if bundle.family.layout == "plane" else ()
    return PointConfiguration(reals=grid, complexes=complexes)


@dataclass(frozen=True)
class ReductionReport:
    """Deviations of the reduced kernel from the odd target, relative to
    the target matrix's largest entry: exact at the limit, far at each
    of FAR_POINTS; identity_gap is the worst Pfaffian identity gap there.
    """

    exact: float
    far: tuple
    identity_gap: float

    @property
    def ratio(self):
        """Worst ratio of successive far deviations: below 1 while they shrink."""
        return max(b / a for a, b in zip(self.far, self.far[1:]))


def verify_odd_limit(even_bundle, odd_bundle):
    """The reduction of even_bundle against the directly built odd_bundle.

    The conditioned bundle at +inf and at each of FAR_POINTS is built
    once; the deviations and the identity share it.  The identity runs on
    the real probes only, at most N - 1 of them, so the extended
    configuration holds at most N eigenvalues.  Complex probes stand for
    a conjugate pair each and would fill it: with all fourteen at N = 10
    the correlation vanishes identically and the gap measures roundoff.
    """
    if odd_bundle.N != even_bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    config = _probe_configuration(even_bundle)
    target = odd_bundle.assemble(config)
    scale = np.abs(target).max()

    conditioned = {
        x_far: conditioned_bundle(even_bundle, x_far) for x_far in (np.inf, *FAR_POINTS)
    }

    def deviation(x_far):
        reduced = conditioned[x_far].assemble(config)
        return float(np.abs(reduced - target).max() / scale)

    identity_config = PointConfiguration(reals=config.reals[: odd_bundle.N])
    return ReductionReport(
        exact=deviation(np.inf),
        far=tuple(deviation(x_far) for x_far in FAR_POINTS),
        identity_gap=float(max(
            pfaffian_reduction_identity(even_bundle, identity_config, x_far, conditioned[x_far])
            for x_far in FAR_POINTS
        )),
    )


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
    An empty probe set is the one-point case, where numerator and
    denominator are the same Pfaffian and the ratio is 1 identically.
    """
    if reduced_bundle.N != bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    if len(_points(config)) > 3:
        raise ValueError("factorisation check takes at most three probe points")
    extended = _extended_config(config, x_far)
    joint = np.real(pfaffian(bundle.assemble(extended)))
    weight = _corner(rho(bundle, (x_far,)), x_far)
    if not _points(config):
        return joint / weight
    target = np.real(pfaffian(reduced_bundle.assemble(config)))
    return joint / (weight * target)
