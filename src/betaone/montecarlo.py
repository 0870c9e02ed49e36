"""Monte Carlo sampling of GOE and real Ginibre spectra.

This is the ground truth the analytic kernels are judged against:
matrices drawn entry by entry, eigenvalues from LAPACK in one stacked
call per block of matrices.  Nothing here touches the kernel formulas,
so agreement between the two sides checks the whole analytic chain at
once.

A batch of spectra is a (count, N) array, one row per matrix.  Real
Ginibre rows come from `numpy.linalg.eigvals` (LAPACK dgeev), which
returns each real eigenvalue with an imaginary part of exactly 0 and
each complex eigenvalue together with its exact conjugate, so the
reals are the entries with imag == 0 and the pair representatives the
entries with imag > 0; no threshold is involved.  GOE rows come from
`numpy.linalg.eigvalsh` and are real and ascending.

A batch draws its standard normals from one numpy default_rng(seed)
stream, matrix after matrix in row-major order, and solves them a
block at a time.  So the batch of count n is the first n rows of any
larger batch at the same seed, and no batch depends on the block size.
The stream cannot start at an arbitrary matrix index, so a batch is
not split across workers by index range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import density_integral
from .quadrature import gauss_legendre_rule

GENERATOR = "PCG64"
BLOCK_ENTRIES = 1 << 16  # matrix entries drawn and solved per LAPACK call
DEFAULT_SPAN = (-4.0, 4.0)
BIN_QUAD_ORDER = 24
Z_FLAG = 4.0
COUNT_SLACK = 1e-6  # absolute slack when the count variance vanishes (GOE)
MIN_COMPARISON_SAMPLES = 10_000


def _spectra(N, count, seed, solve, dtype):
    """Eigenvalues of `count` matrices, one row per matrix.

    Matrix i holds standard normals i N^2 .. (i + 1) N^2 - 1 of the
    default_rng(seed) stream.  The matrices are drawn into one reused
    block and solved a block at a time, so memory stays proportional
    to count * N, and the block size does not change the samples.
    """
    if N < 1:
        raise ValueError("N must be positive")
    draw = np.random.default_rng(seed).standard_normal
    spectra = np.empty((count, N), dtype=dtype)
    step = max(1, BLOCK_ENTRIES // (N * N))
    block = np.empty((min(step, count), N, N))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        draw(out=block[: hi - lo])
        spectra[lo:hi] = solve(block[: hi - lo])
    return spectra


def goe_spectra(N, count, seed):
    """GOE batch: (G + G^T)/2 with G of independent standard normals.

    Diagonal entries have variance 1 and off-diagonal entries variance
    1/2, so the eigenvalue density carries the plain exp(-x^2/2) weight.
    Returns the (count, N) array of ascending spectra.
    """

    def solve(G):
        return np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2)))

    return _spectra(N, count, seed, solve, float)


def ginibre_spectra(N, count, seed):
    """Real Ginibre batch: all N^2 entries independent standard normals.

    Returns the (count, N) complex array of spectra.
    """
    return _spectra(N, count, seed, np.linalg.eigvals, complex)


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
    """Sampled real-eigenvalue statistics scored against a kernel.

    overflow counts the real eigenvalues outside the binned span.
    """

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


def empirical_vs_analytic(spectra, bundle, bins=40, span=DEFAULT_SPAN):
    """Score a batch of spectra against the kernel's real-eigenvalue density.

    Each bin total is compared with the integrated density under a
    Poisson width floored at one count; eigenvalue repulsion makes the
    true per-bin variance smaller than Poisson, so the score errs on
    the loose side.  The mean real count per matrix is compared with
    the full-line integral within three Monte Carlo standard errors
    (plus a small absolute slack for the case of zero variance, where
    every eigenvalue is real).
    """
    if len(spectra) < MIN_COMPARISON_SAMPLES:
        raise ValueError(f"need at least {MIN_COMPARISON_SAMPLES} samples")
    if isinstance(bins, int):
        edges = np.linspace(span[0], span[1], bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)
    spectra = np.asarray(spectra)
    reals = spectra.real[np.imag(spectra) == 0]
    counts, _ = np.histogram(reals, edges)  # left-closed bins, the last closed
    expected = len(spectra) * expected_bin_masses(bundle, edges)
    z = (counts - expected) / np.sqrt(np.maximum(expected, 1.0))
    per_sample = real_counts(spectra).astype(float)
    stderr = float(per_sample.std(ddof=1) / math.sqrt(len(spectra)))
    return ComparisonReport(
        ensemble=bundle.ensemble,
        size=bundle.N,
        samples=len(spectra),
        edges=tuple(float(e) for e in edges),
        observed=tuple(int(c) for c in counts),
        expected=tuple(float(e) for e in expected),
        z_scores=tuple(float(v) for v in z),
        flagged=tuple(int(i) for i in np.flatnonzero(np.abs(z) > Z_FLAG)),
        mean_real_count=float(per_sample.mean()),
        expected_real_count=float(density_integral(bundle)),
        count_stderr=stderr,
        overflow=int(reals.size - counts.sum()),
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
