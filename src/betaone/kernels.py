"""One Pfaffian kernel engine for every ensemble and both parities.

An n-point correlation is the Pfaffian of a 2n x 2n antisymmetric
matrix A = B M B^T + sign term.  Every point contributes two rows to
B: its weighted family polynomials W and their partners P; M is the
antisymmetric pairing of the family and the sign term 1/2 sgn(x_i - x_j)
couples the partner rows of real points.  Both families are
skew-orthonormal, so even sizes pair the polynomials by the standard
pairing, 1 at (2k, 2k+1).  At odd sizes the top polynomial is left
unpaired; KernelBundle.bordered adds a constant partner column (1 on
the partner row of a real point, 0 elsewhere) and pairs it with the
top polynomial through a rank-two border of M: what the sign term of a
point sent to +infinity leaves behind.  The same rule, bordered through
a far point's rows to one size less, is the even-to-odd reduction (see
reduction).  One object, KernelBundle, carries the rows, the pairing
and the size; its kernels and assembled matrices are its methods.

The kernel blocks are the entries of one cell, [[D, S], [-S^T, I]] on
the rows (W, P), for every ensemble (Forrester and Nagao 2007): W sits
at the first argument of S, its partner at the second.  At a real point
P = -eps W, eps W an antiderivative of its W row; interrelations_check
tests that identity on weighted(x), the W rows alone, which line rows
carry beside direction(x), the direction of W at a far point.

Rows are evaluated at every call, on the points flattened, and kept by
no bundle: a caller that needs one point array's rows twice takes them
once and forms its entries from them, as verify's suites do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pfaffian import pfaffian, standard_pairing
from .quadrature import integrate_line, panel_rule
from .skewortho import family_coefficients, gaussian_line_rows
from .specfun import gaussian_row_integrals, gaussian_tail_moments


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

    @property
    def eigenvalues(self):
        """Eigenvalues the points stand for, a complex point for its conjugate pair."""
        return len(self.reals) + 2 * len(self.complexes)


class KernelBundle:
    """Kernel of N eigenvalues of an ensemble: basis rows and their antisymmetric pairing.

    rows(z) maps points of one kind (float: real, complex: complex) to
    an array z.shape + (2, m), the rows (W, P) of every point, and
    rows.weighted(x) real x to W alone; the pairing is M = upper - upper^T.
    The blocks of the cell [[D, S], [-S^T, I]] are the entries (0, 0),
    (0, 1) and (1, 1); scalar_kernel(x, x) is the one-point density, and
    the Pfaffian of the assembled matrix of a point configuration its
    correlation.
    """

    def __init__(self, ensemble, N, rows, upper):
        self.ensemble, self.N, self.rows = ensemble, N, rows
        self.upper = np.asarray(upper)

    @property
    def parity(self):
        return "odd" if self.N % 2 else "even"

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
        if a == b == 1 and real_pair:
            value = value + 0.5 * np.sign(np.asarray(mu) - np.asarray(eta))
        return value

    def scalar_kernel(self, mu, eta):
        """The scalar block S, entry (0, 1)."""
        return self.entry(0, 1, mu, eta)

    def config_rows(self, config):
        """Rows (n, 2, m) of the n points of a PointConfiguration, its reals first."""
        rows = [self.rows(np.asarray(config.reals, dtype=float))]
        if config.complexes:
            rows.append(self.rows(np.asarray(config.complexes, dtype=complex)))
        return np.concatenate(rows)

    def matrix(self, rows, reals):
        """Assembled matrices from rows (..., n, 2, m) of n points.

        The first reals.shape[-1] points are real with the values in
        reals; the rest are complex.
        """
        B = rows.reshape(rows.shape[:-3] + (-1, rows.shape[-1]))
        G = B @ self.upper @ np.swapaxes(B, -1, -2)
        A = G - np.swapaxes(G, -1, -2)
        n = 2 * reals.shape[-1]
        A[..., 1:n:2, 1:n:2] += 0.5 * np.sign(reals[..., :, None] - reals[..., None, :])
        return A

    def assemble(self, config):
        """The antisymmetric matrix of a PointConfiguration, one cell per point."""
        return self.matrix(self.config_rows(config), np.asarray(config.reals, dtype=float))

    def bordered(self, u, partner, N):
        """Bundle of N eigenvalues: these rows plus a constant partner column,
        paired through a rank-two border.

        The column is 1 on the partner row of a real point, else 0.  With
        M this bundle's pairing, the bordered pairing is

            [[M, 0], [0, 0]] + (u v^T - v u^T) / (partner . u),
            u = [u; 0],  v = [M partner^T; -1/2],

        the -1/2 being the sign term between every real point and one at
        +infinity (or at a far point above it) whose partner row is
        partner.  A zero or nan partner . u raises ArithmeticError.
        """
        corner = partner @ u
        if not abs(corner) > 0.0:
            raise ArithmeticError(f"no border weight: partner . u = {corner!r}")
        M = self.pairing
        m = len(u)
        pairing = np.zeros((m + 1, m + 1))
        pairing[:m, :m] = M
        v = np.append(M @ partner, -0.5)
        u = np.append(u, 0.0)
        pairing += (np.outer(u, v) - np.outer(v, u)) / corner

        def rows(z):
            base = self.rows(z)
            extra = np.zeros(base.shape[:-1] + (1,), dtype=base.dtype)
            if not np.iscomplexobj(z):
                extra[..., 1, 0] = 1.0
            return np.concatenate([base, extra], axis=-1)

        def weighted(x):
            W = self.rows.weighted(x)
            return np.concatenate([W, np.zeros(W.shape[:-1] + (1,))], axis=-1)

        rows.weighted, rows.line = weighted, self.rows.line
        return KernelBundle(self.ensemble, N, rows, np.triu(pairing, 1))


def family_bundle(ensemble, rows, N):
    """Kernel bundle of a family of size N; odd N gets the bordered form.

    The standard pairing leaves the top polynomial of an odd family
    unpaired; bordered(e_top, rows(+inf)[1], N) pairs it with the constant
    partner column by -1/2 over its partner at +infinity.  That is the
    hatted family (each polynomial below the top less the multiple of
    the top one that carries its weighted integral) with the hat T moved
    from the rows into the pairing, T M^ T^T.  Every bundle derived from
    the family, bordered or conditioned, calls the family's rows itself;
    none keeps them.
    """
    bundle = KernelBundle(ensemble, N, rows, np.maximum(standard_pairing(N), 0.0))
    if N % 2 == 0:
        return bundle
    return bundle.bordered(np.eye(N)[-1], rows(np.inf)[1], N)


def rho(bundle, config):
    """n-point correlation at a PointConfiguration.

    Exactly 0.0 when the configuration holds more eigenvalues than N, a
    complex point standing for a conjugate pair.
    """
    if len(config) == 0:
        raise ValueError("need at least one point")
    A = bundle.assemble(config)
    if config.eigenvalues > bundle.N:
        return 0.0
    return pfaffian(A)


def goe_kernel(N):
    """GOE kernel bundle of N eigenvalues, parity derived from N.

    Built from the closed-form family on the normalized weighted Hermite
    rows; odd N is bordered (family_bundle).
    """
    return family_bundle("goe", gaussian_line_rows(family_coefficients(N), hermite=True), N)


def cumulative_count(bundle, t):
    """Expected number of reals below t, exactly; vectorized in t, +-inf included.

    A real point's rows are W = b C' and P = T C' + d: b and T the Gaussian rows of the
    coefficients C (rows.line) and their tail moments, C' = C and d = -T(-inf) C / 2, with
    a 0 and a 1 per border column.  So W M P^T integrates to sum_jk A_jk I_jk(t) +
    v . (T(-inf) - T(t)), A = C' M C'^T, v = C' M d^T, I = specfun.gaussian_row_integrals.
    """
    C, hermite = bundle.rows.line
    n, m = C.shape[0], bundle.upper.shape[0]
    full = gaussian_tail_moments(n, -np.inf, hermite)[1]
    B = np.pad(C, ((0, 0), (0, m - n))) @ bundle.pairing  # C' M
    moments, columns = gaussian_row_integrals(n, t, hermite)
    total = (full - moments) @ (B[:, n:].sum(axis=1) - 0.5 * B[:, :n] @ (full @ C))
    for column, a in zip(columns, C @ B[:, :n].T):  # I[..., :, k] and A[:, k]
        total += column @ a
    return total


def density_integral(bundle):
    """Integral of the real one-point density: N on the line, in the plane
    the mean real count of Edelman, Kostlan and Shub (1994); cumulative_count at +inf."""
    return float(cumulative_count(bundle, np.inf))


def interrelations_check(bundle, reals, complexes=()):
    """Derivative, integral and conjugation relations among the blocks.

    partner-antiderivative: between neighbouring reals (two or more,
    distinct, in any order) each partner row moves by minus the
    integral of its W row, taken by two Gauss-Legendre panels per gap
    (panel_rule).  integral-real-real: i(x, y) = sgn(x - y) / 2 -
    form(P(x), int_x^y W) at every pair of reals, from the same gap
    integrals.  Complex points z (the plane only) add the conjugation
    relations on all pairs.  The rows are taken once each at the reals,
    at z and at conj z, and every block is a cell entry of those rows,
    as KernelBundle.entry forms it.  Returns the worst absolute
    deviation per relation.
    """
    y = np.sort(np.asarray(reals, dtype=float))
    nodes, weights = panel_rule(y, 2)
    weighted = bundle.rows.weighted(nodes) * weights[:, None]
    gaps = weighted.reshape(len(y) - 1, -1, weighted.shape[-1]).sum(1)
    Y = bundle.rows(y)
    P = Y[:, 1]

    def cell(a, first, b, second):  # entry (a, b) from each point of first to each of second
        return bundle.form(first[:, None, a], second[:, b])

    # the integral of the W rows from the first real to each real
    cumulative = np.concatenate([np.zeros_like(gaps[:1]), np.cumsum(gaps, axis=0)])
    span = bundle.form(P[:, None], cumulative - cumulative[:, None])
    sign = 0.5 * np.sign(y[:, None] - y)
    integral = cell(1, Y, 1, Y) + sign  # i(x, y)
    relations = {
        "partner-antiderivative": np.diff(P, axis=0) + gaps,
        "integral-real-real": integral + span - sign,
    }
    if len(complexes):
        z = np.asarray(complexes, dtype=complex)
        Z, Zbar = bundle.rows(z), bundle.rows(np.conjugate(z))
        relations.update({
            "derivative-real-complex": cell(0, Y, 0, Z) + 1j * cell(0, Y, 1, Zbar),
            "derivative-complex-complex": cell(0, Z, 0, Z) + 1j * cell(0, Z, 1, Zbar),
            "integral-complex-real": cell(1, Z, 1, Y) - 1j * cell(0, Zbar, 1, Y),
            "integral-complex-complex": cell(1, Z, 1, Z) - 1j * cell(0, Zbar, 1, Z),
            "integral-mixed-antisymmetry": cell(1, Y, 1, Z) + cell(1, Z, 1, Y).T,
        })
    return {key: float(np.abs(value).max(initial=0.0)) for key, value in relations.items()}


def dyson_recurrence_check(bundle, probes):
    """Integrating out one argument drops an n+1 point correlation to (N - n) times the
    n point one, at each probe of n points, the empty one (rho_0 = 1) included; returns
    both sides and the deviation per probe.  One integrate_line pass, split at every
    probe point, takes them all: each level's node rows serve every probe, and the
    probes of one size, their rows evaluated once, share one stacked Pfaffian.
    """
    probes = [tuple(float(p) for p in points) for points in probes]
    N = bundle.N
    expected, groups = np.zeros(len(probes)), []
    for n in {len(points) for points in probes if len(points) < N}:  # at n >= N both sides are 0, as in rho
        ks = [k for k, points in enumerate(probes) if len(points) == n]
        points = np.array([probes[k] for k in ks])
        rows = bundle.rows(points)
        expected[ks] = (N - n) * pfaffian(bundle.matrix(rows, points))
        groups.append((n, ks, points, rows))

    def integrand(ys):
        nodes, values = bundle.rows(ys), np.zeros((len(probes),) + ys.shape)
        for n, ks, points, rows in groups:
            reals = np.empty((len(ks), len(ys), n + 1))
            reals[..., :n], reals[..., n] = points[:, None], ys
            stacked = np.empty(reals.shape + nodes.shape[1:])
            stacked[:, :, :n], stacked[:, :, n] = rows[:, None], nodes
            values[ks] = pfaffian(bundle.matrix(stacked, reals))
        return values

    breakpoints = {p for points in probes for p in points}
    integrated = integrate_line(integrand, tol=1e-9, breakpoints=breakpoints, degree=2 * N + 2)
    deviations = np.abs(integrated - expected) / np.maximum(np.abs(expected), 1e-12)
    keys = ("n", "points", "integrated", "expected", "relative_deviation")
    return [dict(zip(keys, report)) for report in zip(map(len, probes), probes, integrated, expected, deviations)]
