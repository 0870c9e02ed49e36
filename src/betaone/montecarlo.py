"""Monte Carlo sampling of GOE and real Ginibre spectra.

The ground truth for the analytic kernels: no kernel formula is used
here.  A batch is drawn, solved and tallied a block at a time, and only
the sums of the tallies are kept: the reals below each bin edge and the
histogram of real counts per sample.  Memory is bounded by BLOCK_ENTRIES
whatever the sample count; time is linear in it.

Real Ginibre matrices are drawn Householder-reduced to Hessenberg form
(Edelman, J. Multivariate Anal. 60, 1997): N(0, 1) upper triangles over
independent subdiagonals chi_{N-1}, ..., chi_1.  Up to N = 3 the characteristic
polynomial solves them, a pair read as two reals by the sign of its discriminant;
from N = 4 dgeev, with nothing to reduce, returns reals with imaginary part 0
and pairs as exact conjugates.  GOE spectra are counted, not solved.  The
eigenvalues of (G + G^T)/2 have the law of those of a tridiagonal matrix with
N(0, 1) diagonal and squared off-diagonal chi^2_{N-k}/2 (Dumitriu and Edelman,
J. Math. Phys. 43, 2002); the count below x is the number of negative pivots
of T - x, a Sturm sequence, taken at coarse edges and bisected between them.

Ginibre upper triangles and subdiagonals, like GOE diagonals and
squared off-diagonals, come from two streams spawned from
SeedSequence(seed), all row-major: a batch of count n is the first n
rows of any larger one at the same seed, whatever BLOCK_ENTRIES is.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .kernels import cumulative_count, density_integral

GENERATOR = "PCG64"
BLOCK_ENTRIES = 1 << 16  # matrix entries per LAPACK call, cells per GOE counting block
BISECT_COST = 1.5  # cost of a bisection cell (rank x sample) over a grid cell (edge x sample)
DEFAULT_SPAN = (-4.0, 4.0)
Z_FLAG = 4.0
MIN_COMPARISON_SAMPLES = 10_000


def hessenberg_eigvals(H):
    """Eigenvalues of a stack of Hessenberg matrices, (m, N, N) -> (m, N): stacked dgeev from N = 4, else closed forms.
    A pair mid +- sqrt(disc) is two reals where disc >= 0, else exact conjugates: disc = ((a - d)/2)^2 + bc at N = 2
    (dlanv2's, no cancellation); at N = 3 the pair left by the cubic's real root, Cardano's or trigonometric."""
    m, N, _ = H.shape
    if N > 3:
        return np.linalg.eigvals(H)
    if N == 1:
        return H[:, 0].astype(complex)
    out, h = np.zeros((m, N), complex), H.reshape(m, N * N).T
    if N == 2:
        mid, disc = 0.5 * (h[0] + h[3]), (0.5 * (h[0] - h[3])) ** 2 + h[1] * h[2]
    else:  # x^3 - p x^2 + q x - r; x = s + t, s = p/3, gives t^3 + P t + Q, discriminant D
        minor = h[4] * h[8] - h[5] * h[7]
        p, q = h[0] + h[4] + h[8], h[0] * (h[4] + h[8]) - h[1] * h[3] + minor
        r, s = h[0] * minor + h[3] * (h[2] * h[7] - h[1] * h[8]), p / 3.0
        P, Q = q - 3.0 * s * s, ((s - p) * s + q) * s - r
        del minor, p, q, r  # freed early: a block's temporaries set the sampler's peak memory
        D = (0.5 * Q) ** 2 + (P / 3.0) ** 3
        with np.errstate(all="ignore"):  # each branch is kept only where it is finite
            u, R = np.cbrt(-0.5 * Q - np.copysign(np.sqrt(D), Q)), np.sqrt(-P / 3.0)
            t = np.where(D < 0, 2.0 * R * np.cos(np.arccos(np.clip(-0.5 * Q / R**3, -1.0, 1.0)) / 3.0),
                         u - np.where(u == 0, 0.0, P / (3.0 * u)))
        out.real[:, 2], mid, disc = s + t, s - 0.5 * t, -(P + 0.75 * t * t)  # the pair: sum -t, product t^2 + P
    root, real = np.sqrt(np.abs(disc)), disc >= 0
    out.real[:, 0], out.real[:, 1] = mid + root * real, mid - root * real
    out.imag[:, 0], out.imag[:, 1] = np.where(real, 0.0, root), np.where(real, 0.0, -root)
    return out


def ginibre_blocks(N, count, seed):
    """Real Ginibre batch as Hessenberg models, solved by `hessenberg_eigvals` a
    block at a time: (block, N) spectra.  Upper triangles are standard normals,
    subdiagonals chi_{N-k} = sqrt(2 Gamma((N - k)/2)), in a zeroed buffer kept for the run."""
    if N < 1:
        raise ValueError("N must be positive")
    upper, sub = (default_rng(s) for s in SeedSequence(seed).spawn(2))
    step = max(1, min(count, BLOCK_ENTRIES // (N * N)))
    block = np.zeros((step, N * N))
    upper_at = np.ravel_multi_index(np.triu_indices(N), (N, N))
    shapes = 0.5 * np.arange(N - 1, 0, -1)
    for lo in range(0, count, step):
        m = min(step, count - lo)
        block[:m, upper_at] = upper.standard_normal((m, len(upper_at)))
        block[:m, N :: N + 1] = np.sqrt(2.0 * sub.standard_gamma(shapes, (m, N - 1)))  # entries (k + 1, k)
        yield hessenberg_eigvals(block[:m].reshape(m, N, N))


def ginibre_spectra(N, count, seed):
    """The whole (count, N) batch of `ginibre_blocks`."""
    return np.concatenate([np.empty((0, N), complex), *ginibre_blocks(N, count, seed)])


def spectra_tally(spectra, edges):
    """A block of spectra as the reals below each edge and the histogram of
    real counts per sample."""
    real = np.imag(spectra) == 0
    below = np.searchsorted(np.sort(spectra.real[real]), edges)
    return below, np.bincount(np.count_nonzero(real, axis=1), minlength=spectra.shape[1] + 1)


def ginibre_tallies(N, count, seed, edges):
    """`ginibre_blocks` tallied block by block."""
    return (spectra_tally(spectra, edges) for spectra in ginibre_blocks(N, count, seed))


def goe_tallies(N, count, seed, edges):
    """GOE batch as tridiagonal models, tallied a block at a time: (m, N)
    diagonals of standard normals and (m, N - 1) squared off-diagonals
    b2_k = chi^2_{N-k}/2, Gamma((N - k)/2) variates, transposed so that each
    index is a contiguous row of samples.  Every sample has N reals.  Edges must not
    decrease; sturm_totals counts at every 2^k-th, k minimising edges counted + BISECT_COST N k."""
    if N < 1:
        raise ValueError("N must be positive")
    diag, off = (default_rng(s) for s in SeedSequence(seed).spawn(2))
    x = np.asarray(edges, dtype=float)
    counted = [-(-(len(x) - 1) >> k) + 1 for k in range(len(x).bit_length())]  # edges counted at width 2^k
    k = min(range(len(counted)), key=lambda k: counted[k] + BISECT_COST * N * k)
    # BLOCK_ENTRIES cells a block: its coarse edges and, bisecting, two per rank (first edge, edge tried)
    step = max(1, min(count, BLOCK_ENTRIES // (counted[k] + (2 * N if k else 0))))
    work = tuple(np.empty(max(counted[k], N if k else 1) * step, dtype) for dtype in (float, float, bool, np.int32))
    shapes = 0.5 * np.arange(N - 1, 0, -1)
    for lo in range(0, count, step):
        m = min(step, count - lo)
        a, b2 = diag.standard_normal((m, N)).T.copy(), off.standard_gamma(shapes, (m, N - 1)).T.copy()
        yield sturm_totals(a, b2, x, 1 << k, work), m * np.bincount([N], minlength=N + 1)


def sturm_totals(a, b2, x, width, work):
    """Eigenvalues below each of the non-decreasing edges x, summed over a block of tridiagonal
    matrices, (N, m) diagonals a and (N - 1, m) squared off-diagonals b2: the negative pivots
    q_1 = a_1 - x, q_i = a_i - x - b2_{i-1}/q_{i-1} (no square root), kept at least pivmin =
    tiny x max(1, max_k b2_k) per matrix (LAPACK's dstebz) in size with their sign; a zero becomes
    +pivmin, which only raises eigenvalues: one at x is not below x.  The count is monotone in x
    in floating point too (Demmel, Dhillon and Ren, ETNA 3, 1995): it is taken at every width-th
    edge and the last, then every rank r of every matrix at once bisects its coarse cell down to
    hi, its first edge counting r.  work holds flat arrays of (coarse edges, or N if more) x m."""
    N, m = a.shape
    pivmin = np.finfo(float).tiny * b2.max(axis=0, initial=1.0)
    pivmax = pivmin.max()  # a scalar bound tried first

    def counts_at(points):  # (K, 1) or (K, m) points: (K, m) counts
        q, ratio, mask, counts = (w[: len(points) * m].reshape(-1, m) for w in work)
        counts.fill(0)
        np.subtract(a[0], points, out=q)
        for i in range(N):
            if i:
                np.divide(b2[i - 1], q, out=ratio)
                np.subtract(a[i], points, out=q)
                q -= ratio
            if np.abs(q, out=ratio).min() < pivmax:
                np.less(ratio, pivmin, out=mask)
                q[mask] = np.copysign(pivmin, q)[mask]
            counts += np.less(q, 0.0, out=mask)
        return counts
    coarse = np.r_[0 : len(x) - 1 : width, len(x) - 1]
    counts = counts_at(x[coarse, None])
    if width == 1:  # every edge counted, no rank to place
        return counts.sum(axis=1)
    # each rank's coarse cell, from each matrix's histogram of counts, keyed count x m + matrix
    counts[...] = counts * m + np.arange(m, dtype=counts.dtype)
    hi = np.r_[coarse, len(x)][np.bincount(counts.ravel(), minlength=(N + 1) * m).reshape(N + 1, m)[:N].cumsum(0)]
    for step in 1 << np.arange((width - 1).bit_length())[::-1]:
        below = np.maximum(hi - step, 0)
        np.copyto(hi, below, where=counts_at(x[below]) > np.arange(N)[:, None])
    return np.cumsum(np.bincount(hi.ravel(), minlength=len(x) + 1))[: len(x)]


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
        return self.count_deviation <= 3.0 * self.count_stderr

    @property
    def passed(self):
        return not self.flagged and self.count_within


def empirical_vs_analytic(stream, bundle, bins=40):
    """Score a block stream against the kernel's real-eigenvalue density.

    `stream(edges)` yields the tallies of `ginibre_tallies` or `goe_tallies`.
    Each left-closed bin (its expected count exact, a difference of
    kernels.cumulative_count, taken in the lower tail by the density's
    symmetry) is scored under a Poisson width floored at one count
    (loose: repulsion makes the true variance smaller), and the mean real
    count per matrix within three standard errors, from the exact sums of
    k and k^2 over the histogram, against N for GOE and the full-line
    integral for GinOE.  Where every sample has the same real count (GOE,
    GinOE at N = 1) the standard error is 0 and the count must match exactly.
    """
    edges = np.linspace(*DEFAULT_SPAN, bins + 1) if isinstance(bins, int) else np.asarray(bins, dtype=float)
    if np.any(np.diff(edges) < 0):
        raise ValueError("bin edges must not decrease")
    below, histogram = 0, 0
    for block_below, block_histogram in stream(edges):
        below, histogram = below + block_below, histogram + block_histogram
    samples = int(np.sum(histogram))
    if samples < MIN_COMPARISON_SAMPLES:
        raise ValueError(f"need at least {MIN_COMPARISON_SAMPLES} samples")
    total, squares = (int(histogram @ np.arange(len(histogram)) ** p) for p in (1, 2))
    counts = np.diff(below)
    # rho(x) = rho(-x): every bin's mass from the counts below -|edge|, none
    # of them near the full count, so upper-tail bins keep relative accuracy
    full = float(bundle.N if bundle.ensemble == "goe" else density_integral(bundle))
    F = cumulative_count(bundle, -np.abs(edges))
    a, b = F[:-1], F[1:]
    expected = samples * np.where(edges[1:] <= 0, b - a, np.where(edges[:-1] > 0, a - b, full - a - b))
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
        mean_real_count=total / samples,
        expected_real_count=full,
        count_stderr=math.sqrt((samples * squares - total * total) / (samples * samples * (samples - 1))),
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
