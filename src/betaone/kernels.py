"""One Pfaffian kernel engine for every ensemble and both parities.

An n-point correlation is the Pfaffian of a 2n x 2n antisymmetric
matrix A = B M B^T + sign term.  Every point contributes two rows to
B: its weighted family polynomials W and their partners (half-range
transforms on the line); M is the antisymmetric pairing of the family
and the sign term 1/2 sgn(x_i - x_j) couples the partner rows of real
points.  Even sizes pair the polynomials (2k, 2k+1) by the inverse pair
norms.  Odd sizes hat the rows once (every polynomial below the top
loses the multiple of the top one that carries its weighted integral)
and border M with a constant partner column (1 on the partner row of a
real point, 0 elsewhere) tied to the top polynomial: what the sign term
of a point sent to +infinity leaves behind (see reduction).

The kernel blocks are cell entries of A: the line ensembles here use
the cell [[-I, S], [-S^T, D]] on rows (partner, W), the plane ensemble
(ginoe_kernels) [[D, S], [-S^T, I]] on rows (W, partner).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pfaffian import pfaffian
from .quadrature import integrate_line
from .skewortho import gaussian_line_rows, goe_coefficients, goe_norm

# layout -> (slot of the partner row in the cell, sign of the integrated
# block on the partner-partner entry)
LAYOUTS = {"line": (0, -1.0), "plane": (1, 1.0)}


@dataclass(frozen=True)
class PointConfiguration:
    """Evaluation points: reals plus upper-half-plane representatives."""

    reals: tuple = ()
    complexes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "reals", tuple(float(x) for x in self.reals))
        object.__setattr__(self, "complexes", tuple(complex(z) for z in self.complexes))
        if any(z.imag <= 0.0 for z in self.complexes):
            raise ValueError("complex points must lie strictly above the real axis")

    def __len__(self):
        return len(self.reals) + len(self.complexes)


def pairing_upper(pair_weights, border=None):
    """Upper triangle U of the antisymmetric pairing M = U - U^T.

    pair_weights[k] pairs columns 2k and 2k+1; for odd sizes border
    pairs the top polynomial with the constant column appended last.
    """
    m = 2 * len(pair_weights) + (0 if border is None else 2)
    U = np.zeros((m, m))
    for k, value in enumerate(pair_weights):
        U[2 * k, 2 * k + 1] = value
    if border is not None:
        U[m - 2, m - 1] = border
    return U


class PairingBasis:
    """Basis rows of a kernel family and their antisymmetric pairing.

    rows(z) maps points of one kind (float: real, complex: complex) to
    an array z.shape + (2, m): the two rows of every point in cell
    order.  upper is the upper triangle U of M = U - U^T.
    """

    def __init__(self, rows, upper, layout):
        self.rows = rows
        self.upper = np.asarray(upper)
        self.layout = layout
        self.partner_slot, self.integral_sign = LAYOUTS[layout]

    @property
    def pairing(self):
        return self.upper - self.upper.T

    def form(self, u, v):
        """u M v^T over the last axis, exactly antisymmetric in (u, v)."""
        return ((u @ self.upper) * v).sum(-1) - ((v @ self.upper) * u).sum(-1)

    def entry(self, a, b, mu, eta):
        """Cell entry (a, b) between the points mu and eta, broadcast."""
        first = self.rows(mu)
        second = first if eta is mu else self.rows(eta)
        value = self.form(first[..., a, :], second[..., b, :])
        real_pair = not (np.iscomplexobj(mu) or np.iscomplexobj(eta))
        if a == b == self.partner_slot and real_pair:
            value = value + 0.5 * np.sign(np.asarray(mu) - np.asarray(eta))
        return value

    def matrix(self, rows, reals):
        """Assembled matrices from rows (..., n, 2, m) of n points.

        The first reals.shape[-1] points are real with the values in
        reals; the rest are complex.
        """
        B = rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))
        G = B @ self.upper @ np.swapaxes(B, -1, -2)
        A = G - np.swapaxes(G, -1, -2)
        p, n = self.partner_slot, 2 * reals.shape[-1]
        A[..., p:n:2, p:n:2] += 0.5 * np.sign(reals[..., :, None] - reals[..., None, :])
        return A

    def bordered(self, upper):
        """These rows plus a constant partner column, paired by upper.

        The column is 1 on the partner row of a real point, else 0.
        """

        def rows(z):
            base = self.rows(z)
            extra = np.zeros(base.shape[:-1] + (1,), dtype=base.dtype)
            if not np.iscomplexobj(z):
                extra[..., self.partner_slot, 0] = 1.0
            return np.concatenate([base, extra], axis=-1)

        return PairingBasis(rows, upper, self.layout)


def hat_transform(h):
    """T with rows @ T the hatted rows of an odd-size family.

    h holds the partners of the rows at +infinity (the half moments,
    signed by the layout's partner rule).  Every column below the top
    loses h_j / h_top times the top column, so its partner at +infinity
    vanishes: the hatted polynomials integrate to zero against the weight.
    """
    T = np.eye(len(h))
    T[-1, :-1] = -h[:-1] / h[-1]
    return T


def family_basis(rows, pair_weights, layout, odd=False):
    """Pairing basis of a family; odd sizes get the hatted, bordered form.

    The border pairs the constant partner column with the top polynomial
    (unchanged by the hatting) through -1/2 over its partner at +infinity.
    """
    basis = PairingBasis(rows, pairing_upper(pair_weights), layout)
    if not odd:
        return basis
    h = rows(np.inf)[basis.partner_slot]
    T = hat_transform(h)
    hatted = PairingBasis(lambda z: rows(z) @ T, basis.upper, layout)
    return hatted.bordered(pairing_upper(pair_weights, -0.5 / h[-1]))


@dataclass(frozen=True)
class KernelBundle:
    """Evaluable kernel triple with its point-matrix assembler.

    scalar_kernel(x, x) is the one-point density; derivative_kernel and
    integral_kernel complete the 2x2 cell structure whose Pfaffian over
    a point configuration gives the correlations.  family is the
    PairingBasis all four are evaluated from.
    """

    ensemble: str
    N: int
    parity: str
    family: object
    scalar_kernel: callable
    derivative_kernel: callable
    integral_kernel: callable
    assemble: callable

    @classmethod
    def from_basis(cls, ensemble, N, basis):
        """Bundle of N eigenvalues whose blocks are cell entries of the basis's matrix."""
        p, w = basis.partner_slot, 1 - basis.partner_slot

        def scalar_kernel(mu, eta):
            return basis.entry(0, 1, mu, eta)

        def derivative_kernel(mu, eta):
            return basis.entry(w, w, mu, eta)

        def integral_kernel(mu, eta):
            return basis.integral_sign * basis.entry(p, p, mu, eta)

        def assemble(config):
            reals = np.asarray(config.reals, dtype=float)
            rows = [basis.rows(reals)]
            if config.complexes:
                rows.append(basis.rows(np.asarray(config.complexes, dtype=complex)))
            return basis.matrix(np.concatenate(rows), reals)

        kernels = (scalar_kernel, derivative_kernel, integral_kernel, assemble)
        return cls(ensemble, N, "odd" if N % 2 else "even", basis, *kernels)


def _as_config(points):
    if isinstance(points, PointConfiguration):
        return points
    return PointConfiguration(reals=tuple(np.atleast_1d(points)))


def rho(bundle, points):
    """n-point correlation at a point configuration.

    Exactly 0.0 when the configuration holds more eigenvalues than N, a
    complex point standing for a conjugate pair.
    """
    config = _as_config(points)
    if len(config) == 0:
        raise ValueError("need at least one point")
    A = bundle.assemble(config)
    if len(config.reals) + 2 * len(config.complexes) > bundle.N:
        return 0.0
    return pfaffian(A)


def goe_kernel(N):
    """GOE kernel bundle of N eigenvalues, parity derived from N.

    Built from the closed-form family on the weighted He_n rows; odd N
    is hatted and bordered.
    """
    weights = [1.0 / goe_norm(m) for m in range(N // 2)]
    basis = family_basis(gaussian_line_rows(goe_coefficients(N)), weights, "line", odd=N % 2 == 1)
    return KernelBundle.from_basis("goe", N, basis)


def density_integral(bundle, tol=1e-9):
    """Integral of the one-point correlation; equals N."""
    return integrate_line(
        lambda x: bundle.scalar_kernel(x, x), tol=tol, degree=2 * bundle.N
    )


def dyson_recurrence_check(bundle, n, points, tol=1e-8):
    """Integrating out one argument drops an n+1 point correlation to
    (N - n) times the n point one; returns both sides and the deviation.
    """
    points = tuple(float(p) for p in points)
    if len(points) != n:
        raise ValueError("need exactly n probe points")
    base = rho(bundle, points)
    basis = bundle.family

    def integrand(ys):
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        if n >= bundle.N:  # n + 1 eigenvalues are more than N: exactly 0, as in rho
            return np.zeros(ys.shape)
        reals = np.concatenate([np.broadcast_to(points, ys.shape + (n,)), ys[:, None]], axis=1)
        return pfaffian(basis.matrix(basis.rows(reals), reals))

    integrated = integrate_line(
        integrand, tol=tol, breakpoints=points, degree=2 * bundle.N
    )
    expected = (bundle.N - n) * base
    scale = max(abs(expected), 1e-12)
    return {
        "n": n,
        "points": points,
        "integrated": integrated,
        "expected": expected,
        "relative_deviation": abs(integrated - expected) / scale,
    }
