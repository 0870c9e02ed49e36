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
reduction): a new pairing of the same family.  One object, KernelBundle,
carries the family's coefficients, the pairing and the size; its rows,
kernels, assembled matrices and the family's Gram (gram, the one place the
line and plane sectors are summed) are its methods, and
kernel_bundle(ensemble, N) is the one constructor for both ensembles.

The kernel blocks are the entries of one cell, [[D, S], [-S^T, I]] on
the rows (W, P), for every ensemble (Forrester and Nagao 2007): W sits
at the first argument of S, its partner at the second.  At a real point
P = -eps W, eps W an antiderivative of its W row; interrelations_check
tests that identity on KernelBundle.weighted(x), the W rows alone, and
the reduction takes KernelBundle.direction(x), the direction of W at a
far point.

Rows are evaluated at every call, on the points flattened, and kept by
no bundle: a caller that needs one point array's rows twice takes them
once and forms its entries from them, as verify's suites do.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ginibre import plane_gram, plane_rows
from .pfaffian import pfaffian, standard_pairing
from .quadrature import integrate_line, panel_rule
from .skewortho import family_coefficients, line_pairing
from .specfun import gaussian_row_integrals, gaussian_rows, gaussian_tail_moments, weighted_powers


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
    """Kernel of N eigenvalues of an ensemble: a family and its antisymmetric pairing.

    C holds the family as columns on the ensemble's basis (skewortho): h_n for
    GOE, where hermite is true, and m_n for GinOE.  Columns of the pairing
    M = upper - upper^T past C's are border columns: W 0, partner 1 at a real
    point and 0 at a complex one.  rows(z) maps points of one kind (float:
    real, complex: complex) to an array z.shape + (2, m), the rows (W, P) of
    every point.  The blocks of the cell [[D, S], [-S^T, I]] are the entries
    (0, 0), (0, 1) and (1, 1); scalar_kernel(x, x) is the one-point density,
    and the Pfaffian of the assembled matrix of a point configuration its
    correlation.
    """

    def __init__(self, ensemble, N, C, upper):
        if ensemble not in ("goe", "ginoe"):
            raise ValueError(f"unknown ensemble {ensemble!r}")
        self.ensemble, self.N, self.C, self.upper = ensemble, N, C, np.asarray(upper)
        self.hermite = ensemble == "goe"
        # P = T C - half at a real point, T its tail moments: the constant once per bundle
        self.half = 0.5 * (gaussian_tail_moments(len(C), -np.inf, self.hermite)[1] @ C)

    def _padded(self, rows):
        # rows (..., columns of C) with the border columns appended, all 0
        border = self.upper.shape[0] - self.C.shape[1]
        if not border:
            return rows
        return np.concatenate([rows, np.zeros(rows.shape[:-1] + (border,), dtype=rows.dtype)], axis=-1)

    def rows(self, z):
        """Rows (W, P) at points of one kind, on the points flattened.

        At real points W is the polynomials times e^(-x^2/2) and P = -eps W, minus
        its half-range transform, both from one specfun.gaussian_tail_moments pass;
        at x = +inf P is minus half the full weighted integral, and a lone +-inf
        takes no pass.  At complex points (GinOE only) W is the polynomials times
        ginibre.pair_weight and P = i conj(W).
        """
        z = np.asarray(z)
        flat = z.ravel() if z.ndim else z  # a stacked matmul would round differently
        if not np.iscomplexobj(z):
            W, tails = gaussian_tail_moments(len(self.C), flat, self.hermite)
            rows = self._padded(np.stack([W @ self.C, tails @ self.C - self.half], axis=-2))
            rows[..., 1, self.C.shape[1] :] = 1.0
        elif self.hermite:
            raise ValueError("this ensemble lives on the real line only")
        else:
            W = plane_rows(self.C, flat)
            rows = self._padded(np.stack([W, 1j * np.conjugate(W)], axis=-2))
        return rows.reshape(z.shape + (2, self.upper.shape[0]))

    def weighted(self, x):
        """W alone at real x, bit for bit rows(x)[..., 0, :], with no tail moments (no normal CDF)."""
        return self._padded(gaussian_rows(len(self.C), x, self.hermite) @ self.C)

    def direction(self, x):
        """The direction of W at one real x, where the weight may underflow (past x = 37):
        the polynomials alone over their largest entry, at +inf the top-degree unit
        vector.  Where the polynomials overflow it raises ArithmeticError."""
        n = len(self.C)
        if np.isposinf(x):
            return self._padded(np.eye(n)[-1])
        with np.errstate(over="ignore", invalid="ignore"):
            q = weighted_powers(n, x, 1.0, 0.5 if self.hermite else 0.0) @ self.C
        if not np.isfinite(q).all():
            raise ArithmeticError(f"size {n} polynomials overflow at far point {float(x)!r}")
        return self._padded(q / np.abs(q).max())

    def gram(self):
        """The family's Gram <R_j|R_k>, from C alone: skewortho.line_pairing, plus
        ginibre.plane_gram for GinOE.  For a skew-orthonormal family it is J."""
        G = line_pairing(self.C, self.hermite)
        return G if self.hermite else G + plane_gram(self.C)

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
        """Bundle of N eigenvalues: this family plus a constant partner column,
        paired through a rank-two border; only the pairing changes.

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
        return KernelBundle(self.ensemble, N, self.C, np.triu(pairing, 1))


def family_bundle(ensemble, C, N):
    """Kernel bundle of the family C of size N; odd N gets the bordered form.

    The standard pairing leaves the top polynomial of an odd family
    unpaired; bordered(e_top, -half, N) pairs it with the constant partner
    column by -1/2 over its partner row at +infinity, which is minus the
    half moments (reduction.first_order reads it so too).  That is the
    hatted family (each polynomial below the top less the multiple of
    the top one that carries its weighted integral) with the hat T moved
    from the rows into the pairing, T M^ T^T.
    """
    bundle = KernelBundle(ensemble, N, C, np.maximum(standard_pairing(N), 0.0))
    if N % 2 == 0:
        return bundle
    return bundle.bordered(np.eye(N)[-1], -bundle.half, N)


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


def kernel_bundle(ensemble, N):
    """Kernel bundle of N eigenvalues of "goe" or "ginoe", parity derived from N.

    One family (skewortho.family_coefficients) on the ensemble's basis,
    the Hermite functions for GOE and the monomials for GinOE; odd N is
    bordered.
    """
    return family_bundle(ensemble, family_coefficients(N), N)


def cumulative_count(bundle, t):
    """Expected number of reals below t, exactly; vectorized in t, +-inf included.

    A real point's rows are W = b C' and P = T C' + d: b and T the Gaussian rows of the
    coefficients C (bundle.C) and their tail moments, C' = C and d = -T(-inf) C / 2, with
    a 0 and a 1 per border column.  So W M P^T integrates to sum_jk A_jk I_jk(t) +
    v . (T(-inf) - T(t)), A = C' M C'^T, v = C' M d^T, I = specfun.gaussian_row_integrals.
    """
    C, hermite = bundle.C, bundle.hermite
    n, m = C.shape[0], bundle.upper.shape[0]
    full = gaussian_tail_moments(n, -np.inf, hermite)[1]
    B = np.pad(C, ((0, 0), (0, m - n))) @ bundle.pairing  # C' M
    moments, columns = gaussian_row_integrals(n, t, hermite)
    total = (full - moments) @ (B[:, n:].sum(axis=1) - B[:, :n] @ bundle.half)
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
    weighted = bundle.weighted(nodes) * weights[:, None]
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
