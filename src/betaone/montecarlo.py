"""Monte Carlo sampling of GOE and real Ginibre spectra.

The ground truth for the analytic kernels: no kernel formula is used
here.  Both ensembles are scored by the total of real eigenvalues below
each bin edge.

Real Ginibre matrices are solved by LAPACK dgeev, which returns real
eigenvalues with imaginary part exactly 0 and complex ones with their
exact conjugates: the reals need no threshold.  GOE spectra are
counted, not solved.  The eigenvalues of (G + G^T)/2 have the law of
those of a tridiagonal matrix with N(0, 1) diagonal and squared
off-diagonal chi^2_{N-k}/2 (Dumitriu and Edelman, J. Math. Phys. 43,
2002); the count below x is the number of negative pivots of T - x, a
Sturm sequence: samples x (bins + 1) x N pivot steps in all.

Ginibre entries come from one default_rng(seed) stream, GOE diagonals
and squared off-diagonals from two streams spawned from
SeedSequence(seed), all row-major: a batch of count n is the first n
rows of any larger one at the same seed, whatever BLOCK_ENTRIES is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .kernels import density_integral
from .quadrature import gauss_legendre_rule

GENERATOR = "PCG64"
BLOCK_ENTRIES = 1 << 16  # matrix entries per LAPACK call, edge x sample cells per Sturm pass
DEFAULT_SPAN = (-4.0, 4.0)
BIN_QUAD_ORDER = 24
Z_FLAG = 4.0
COUNT_SLACK = 1e-6  # absolute slack when the count variance vanishes (GOE)
MIN_COMPARISON_SAMPLES = 10_000


def ginibre_spectra(N, count, seed):
    """Real Ginibre batch: the (count, N) complex spectra, solved a block at a time."""
    if N < 1:
        raise ValueError("N must be positive")
    draw = default_rng(seed).standard_normal
    spectra = np.empty((count, N), dtype=complex)
    step = max(1, BLOCK_ENTRIES // (N * N))
    block = np.empty((min(step, count), N, N))
    for lo in range(0, count, step):
        chunk = draw(out=block[: count - lo])
        spectra[lo : lo + len(chunk)] = np.linalg.eigvals(chunk)
    return spectra


def goe_tridiagonal(N, count, seed):
    """GOE batch as tridiagonal models: (count, N) diagonals a of standard
    normals and (count, N - 1) squared off-diagonals b2_k = chi^2_{N-k}/2,
    Gamma((N - k)/2) variates.  Only b2 enters the pivots: no square root."""
    if N < 1:
        raise ValueError("N must be positive")
    diag, off = (default_rng(s) for s in SeedSequence(seed).spawn(2))
    return diag.standard_normal((count, N)), off.standard_gamma(0.5 * np.arange(N - 1, 0, -1), (count, N - 1))


def sturm_totals(a, b2, edges):
    """Eigenvalues below each edge, summed over a batch of tridiagonal matrices:
    the negative pivots q_1 = a_1 - x, q_i = a_i - x - b2_{i-1}/q_{i-1}.  Pivots are
    kept at least pivmin in size, as in LAPACK's bisection, keeping their sign; an
    exact zero becomes +pivmin, which only raises eigenvalues: one at x is not below x."""
    a, b2 = a.T.copy(), b2.T.copy()  # (N, count): each index a contiguous row of samples
    N, count = a.shape
    x = np.asarray(edges, dtype=float)[:, None]
    pivmin = np.finfo(float).tiny * b2.max(initial=1.0)
    below = np.zeros(len(x), dtype=np.int64)
    step = max(1, BLOCK_ENTRIES // len(x))
    for lo in range(0, count, step):
        diag, off = a[:, lo : lo + step], b2[:, lo : lo + step]
        q = diag[0] - x  # (edges, samples) pivots
        ratio, mask, counts = np.empty_like(q), np.empty(q.shape, bool), np.zeros(q.shape, np.int32)
        for i in range(N):
            if i:
                np.divide(off[i - 1], q, out=ratio)
                np.subtract(diag[i], x, out=q)
                q -= ratio
            np.less(np.abs(q, out=ratio), pivmin, out=mask)
            if mask.any():
                q[mask] = np.copysign(pivmin, q[mask])
            counts += np.less(q, 0.0, out=mask)
        below += counts.sum(axis=1)
    return below


def real_counts(spectra):
    """Number of real eigenvalues in each row of a batch of spectra."""
    return np.count_nonzero(np.imag(spectra) == 0, axis=1)


def expected_bin_masses(bundle, edges):
    """Integral of the one-point density over each bin."""
    rule = gauss_legendre_rule(BIN_QUAD_ORDER, edges[:-1], edges[1:])
    terms = rule.weights * np.real(bundle.scalar_kernel(rule.nodes, rule.nodes))
    return terms.reshape(len(edges) - 1, BIN_QUAD_ORDER).sum(axis=1)


@dataclass(frozen=True)
class ComparisonReport:
    """Sampled real-eigenvalue statistics scored against a kernel; overflow
    counts the reals below the first edge or at or above the last."""

    ensemble: str
    size: int
    samples: int
    edges: tuple
    observed: tuple
    expected: tuple
    z_scores: tuple
    flagged: tuple
    mean_real_count: float
    expected_real_count: float
    count_stderr: float
    overflow: int

    @property
    def count_deviation(self):
        return abs(self.mean_real_count - self.expected_real_count)

    @property
    def count_within(self):
        slack = max(3.0 * self.count_stderr, COUNT_SLACK * self.size)
        return self.count_deviation <= slack

    @property
    def passed(self):
        return not self.flagged and self.count_within


def empirical_vs_analytic(sample, bundle, bins=40, span=DEFAULT_SPAN):
    """Score a sample against the kernel's real-eigenvalue density.

    A batch of spectra is read through its sorted reals, a `goe_tridiagonal`
    pair through Sturm counts, as totals of reals below each edge.  Each
    left-closed bin is scored under a Poisson width floored at one count (loose:
    repulsion makes the true variance smaller), and the mean real count per
    matrix against the full-line integral within three standard errors, plus a
    small absolute slack for GOE, where it is N with no variance.
    """
    tridiagonal = isinstance(sample, tuple)
    rows = sample[0] if tridiagonal else np.asarray(sample)
    samples, N = rows.shape
    if samples < MIN_COMPARISON_SAMPLES:
        raise ValueError(f"need at least {MIN_COMPARISON_SAMPLES} samples")
    edges = np.linspace(*span, bins + 1) if isinstance(bins, int) else np.asarray(bins, dtype=float)
    if tridiagonal:
        below, mean, stderr, total = sturm_totals(*sample, edges), float(N), 0.0, N * samples
    else:
        below = np.searchsorted(np.sort(rows.real[np.imag(rows) == 0]), edges)
        per_sample = real_counts(rows)
        mean, total = float(per_sample.mean()), int(per_sample.sum())
        stderr = float(per_sample.std(ddof=1) / math.sqrt(samples))
    counts = np.diff(below)
    expected = samples * expected_bin_masses(bundle, edges)
    z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
    return ComparisonReport(
        ensemble=bundle.ensemble,
        size=bundle.N,
        samples=samples,
        edges=tuple(float(e) for e in edges),
        observed=tuple(int(c) for c in counts),
        expected=tuple(float(e) for e in expected),
        z_scores=tuple(float(v) for v in z),
        flagged=tuple(int(i) for i in np.flatnonzero(np.abs(z) > Z_FLAG)),
        mean_real_count=mean,
        expected_real_count=float(density_integral(bundle)),
        count_stderr=stderr,
        overflow=int(below[0] + total - below[-1]),
    )


def pair_mass_estimate(spectra, interval, box):
    """Mean and standard error of (#reals in interval)x(#pairs in box).

    The expectation of this product over samples is the integral of the
    mixed two-point density over interval x box, which makes it a
    bias-free Monte Carlo check of the kernels at one real and one
    complex argument.
    """
    a, b = interval
    (re_lo, re_hi), (im_lo, im_hi) = box
    if not (a < b and re_lo < re_hi and 0.0 <= im_lo < im_hi):
        raise ValueError("interval and box must be nonempty; box must sit above the axis")
    spectra = np.asarray(spectra)
    x, y = spectra.real, np.imag(spectra)
    reals = np.count_nonzero((y == 0) & (a <= x) & (x <= b), axis=1)
    pairs = np.count_nonzero(
        (y > 0) & (re_lo <= x) & (x <= re_hi) & (im_lo <= y) & (y <= im_hi), axis=1
    )
    products = (reals * pairs).astype(float)
    stderr = float(products.std(ddof=1) / math.sqrt(len(products)))
    return float(products.mean()), stderr
