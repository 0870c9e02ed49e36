"""Monte Carlo sampling of GOE and real Ginibre spectra.

This is the ground truth the analytic kernels are judged against:
matrices drawn entry by entry, eigenvalues from LAPACK (numpy's
eigvals), spectra split into reals and conjugate pairs.  Nothing here touches
the kernel formulas, so agreement between the two sides checks the
whole analytic chain at once.

Sampling is seeded per matrix index, which makes the stream
reproducible, restartable, and splittable across workers by seed
range.  Rejected draws (LAPACK non-convergence or an unclassifiable
spectrum) are retried under an incremented sub-seed and counted in
the batch diagnostics.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .quadrature import gauss_legendre_rule, integrate_line, truncation_radius

REALNESS_FACTOR = 1e-7  # of the Frobenius norm; QR noise sits near 1e-12
ORPHAN_BAND = 2.0  # |Im| multiples of the threshold eligible for parity repair
MAX_ATTEMPTS = 8
GENERATOR = "PCG64"
DEFAULT_SPAN = (-4.0, 4.0)
BIN_QUAD_ORDER = 24
Z_FLAG = 4.0
COUNT_SLACK = 1e-6  # absolute slack when the count variance vanishes (GOE)
MIN_COMPARISON_SAMPLES = 10_000


def classify_real(eigs, threshold):
    """Split a conjugation-closed spectrum into reals and pair representatives.

    Values with |Im| at most threshold are declared real and their
    imaginary parts discarded.  The rest are greedily matched to their
    conjugates, nearest first.  A lone near-axis value whose partner
    was rounded onto the axis is pulled back to the reals (smallest
    |Im| first); any other unmatched value means the input was not
    closed under conjugation and the sample is rejected.
    """
    if threshold < 0.0:
        raise ValueError("threshold must be nonnegative")
    values = [complex(z) for z in eigs]
    reals = [z.real for z in values if abs(z.imag) <= threshold]
    strays = sorted(
        (z for z in values if abs(z.imag) > threshold), key=lambda z: abs(z.imag)
    )
    upper = [z for z in strays if z.imag > 0.0]
    lower = [z for z in strays if z.imag < 0.0]
    while len(upper) != len(lower):
        side = upper if len(upper) > len(lower) else lower
        orphan = side[0]
        if abs(orphan.imag) > ORPHAN_BAND * threshold:
            raise ValueError(
                f"unmatched complex eigenvalue {orphan:.6g}; "
                "spectrum is not conjugation-closed"
            )
        side.pop(0)
        reals.append(orphan.real)
    pairs = []
    for u in upper:
        want = u.conjugate()
        j = min(range(len(lower)), key=lambda i: abs(lower[i] - want))
        mate = lower.pop(j)
        if abs(mate - want) > 2.0 * threshold:
            raise ValueError(
                f"conjugate of {u:.6g} missing; nearest candidate off by "
                f"{abs(mate - want):.3e}"
            )
        pairs.append(u)
    return tuple(sorted(reals)), tuple(sorted(pairs, key=lambda z: (z.real, z.imag)))


@dataclass(frozen=True)
class SpectrumSample:
    """Classified spectrum of one sampled matrix."""

    N: int
    reals: tuple
    complex_upper: tuple

    def __post_init__(self):
        if len(self.reals) + 2 * len(self.complex_upper) != self.N:
            raise ValueError("real and pair counts do not add up to the size")
        if any(z.imag <= 0.0 for z in self.complex_upper):
            raise ValueError("pair representatives must lie above the real axis")


def _classified(A, factor=REALNESS_FACTOR):
    A = np.asarray(A, dtype=float)
    threshold = factor * float(np.linalg.norm(A))
    reals, upper = classify_real(np.linalg.eigvals(A), threshold)
    return SpectrumSample(A.shape[0], reals, upper)


def _entropy(seed, extra):
    parts = seed if isinstance(seed, tuple) else (seed,)
    return (*parts, extra)


def sample_goe(N, seed, factor=REALNESS_FACTOR):
    """One GOE draw: (G + G^T)/2 with G of independent standard normals.

    Diagonal entries have variance 1 and off-diagonal entries variance
    1/2, so the eigenvalue density carries the plain exp(-x^2/2) weight.
    The spectrum of a symmetric matrix is real, and the classification
    threshold sits far above solver noise, so no pairs can survive.
    """
    if N < 1:
        raise ValueError("N must be positive")
    G = np.random.default_rng(seed).standard_normal((N, N))
    sample = _classified(0.5 * (G + G.T), factor)
    if sample.complex_upper:
        raise ArithmeticError("symmetric sample produced a complex pair")
    return sample


def _ginibre_attempts(N, seed, factor=REALNESS_FACTOR):
    for attempt in range(MAX_ATTEMPTS):
        rng = np.random.default_rng(_entropy(seed, attempt))
        try:
            return _classified(rng.standard_normal((N, N)), factor), attempt
        except (np.linalg.LinAlgError, ValueError):
            continue
    raise ArithmeticError(f"no classifiable sample after {MAX_ATTEMPTS} attempts")


def sample_real_ginibre(N, seed, factor=REALNESS_FACTOR):
    """One real Ginibre draw: all N^2 entries independent standard normals.

    Eigenvalues come from LAPACK and are classified into
    reals and conjugate pairs; a rejected spectrum is redrawn under an
    incremented sub-seed.
    """
    if N < 1:
        raise ValueError("N must be positive")
    return _ginibre_attempts(N, seed, factor)[0]


def goe_spectra(N, count, seed, factor=REALNESS_FACTOR):
    """Batch of GOE samples plus reproducibility diagnostics."""
    samples = [sample_goe(N, _entropy(seed, i), factor) for i in range(count)]
    meta = {
        "ensemble": "goe",
        "size": N,
        "samples": count,
        "seed": seed,
        "generator": GENERATOR,
        "threshold_factor": factor,
        "resamples": 0,
    }
    return samples, meta


def ginibre_spectra(N, count, seed, factor=REALNESS_FACTOR):
    """Batch of real Ginibre samples plus reproducibility diagnostics."""
    samples = []
    resamples = 0
    for i in range(count):
        sample, attempts = _ginibre_attempts(N, _entropy(seed, i), factor)
        samples.append(sample)
        resamples += attempts
    meta = {
        "ensemble": "ginoe",
        "size": N,
        "samples": count,
        "seed": seed,
        "generator": GENERATOR,
        "threshold_factor": factor,
        "resamples": resamples,
    }
    return samples, meta


@dataclass(frozen=True)
class EmpiricalDensity:
    """Real-eigenvalue histogram normalized to a per-matrix expectation.

    The integral of the normalized density over the binned range equals
    the mean number of in-range real eigenvalues per matrix; strays
    beyond the edges are kept in the overflow count so the total is
    still exact.
    """

    edges: tuple
    counts: tuple
    overflow: int
    samples: int
    mode: str = "per-matrix"

    def __post_init__(self):
        if len(self.edges) != len(self.counts) + 1:
            raise ValueError("need one more edge than bins")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ValueError("edges must increase strictly")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.overflow < 0 or any(c < 0 for c in self.counts):
            raise ValueError("counts must be nonnegative")

    def density(self):
        widths = np.diff(self.edges)
        return np.asarray(self.counts, dtype=float) / (self.samples * widths)

    def mean_real_count(self):
        return (sum(self.counts) + self.overflow) / self.samples


def empirical_density(samples, edges):
    """Bin the real eigenvalues of a batch of spectrum samples."""
    edges = np.asarray(edges, dtype=float)
    reals = np.array([x for s in samples for x in s.reals])
    counts, _ = np.histogram(reals, edges)
    overflow = int(reals.size - counts.sum())
    return EmpiricalDensity(
        tuple(float(e) for e in edges),
        tuple(int(c) for c in counts),
        overflow,
        len(samples),
    )


def _density_on_nodes(bundle, nodes):
    nodes = np.asarray(nodes, dtype=float)
    return np.real(bundle.scalar_kernel(nodes, nodes))


def expected_bin_masses(bundle, edges):
    """Integral of the one-point density over each bin."""
    masses = []
    for a, b in zip(edges[:-1], edges[1:]):
        rule = gauss_legendre_rule(BIN_QUAD_ORDER, float(a), float(b))
        masses.append(float(rule.weights @ _density_on_nodes(bundle, rule.nodes)))
    return np.array(masses)


def expected_real_count(bundle, tol=1e-9):
    """Full-line integral of the one-point density of real eigenvalues."""
    radius = truncation_radius(2 * bundle.N + 2)
    return integrate_line(
        lambda xs: _density_on_nodes(bundle, np.atleast_1d(xs)),
        tol=tol,
        breakpoints=(0.0,),
        radius=radius,
    )


@dataclass(frozen=True)
class ComparisonReport:
    """Sampled real-eigenvalue statistics scored against a kernel."""

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
    meta: dict = field(default_factory=dict)

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

    def as_dict(self):
        return {
            "ensemble": self.ensemble,
            "size": self.size,
            "samples": self.samples,
            "edges": list(self.edges),
            "observed": list(self.observed),
            "expected": list(self.expected),
            "z_scores": list(self.z_scores),
            "flagged": list(self.flagged),
            "mean_real_count": self.mean_real_count,
            "expected_real_count": self.expected_real_count,
            "count_stderr": self.count_stderr,
            "count_within": self.count_within,
            "overflow": self.overflow,
            "passed": self.passed,
            "meta": dict(self.meta),
        }

    def as_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent)

    def as_csv(self):
        """Per-bin table: bin_lo, bin_hi, observed, expected, z."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["bin_lo", "bin_hi", "observed", "expected", "z"])
        for i, (a, b) in enumerate(zip(self.edges[:-1], self.edges[1:])):
            writer.writerow(
                [
                    f"{a:.17g}",
                    f"{b:.17g}",
                    self.observed[i],
                    f"{self.expected[i]:.17g}",
                    f"{self.z_scores[i]:.17g}",
                ]
            )
        return buf.getvalue()


def empirical_vs_analytic(samples, bundle, bins=40, span=DEFAULT_SPAN, meta=None):
    """Score a sample batch against the kernel's real-eigenvalue density.

    Each bin total is compared with the integrated density under a
    Poisson width floored at one count; eigenvalue repulsion makes the
    true per-bin variance smaller than Poisson, so the score errs on
    the loose side.  The mean real count per matrix is compared with
    the full-line integral within three Monte Carlo standard errors
    (plus a small absolute slack for the case of zero variance, where
    every eigenvalue is real).
    """
    if len(samples) < MIN_COMPARISON_SAMPLES:
        raise ValueError(f"need at least {MIN_COMPARISON_SAMPLES} samples")
    if isinstance(bins, int):
        edges = np.linspace(span[0], span[1], bins + 1)
    else:
        edges = np.asarray(bins, dtype=float)
    hist = empirical_density(samples, edges)
    expected = len(samples) * expected_bin_masses(bundle, edges)
    observed = np.asarray(hist.counts, dtype=float)
    z = (observed - expected) / np.sqrt(np.maximum(expected, 1.0))
    per_sample = np.array([len(s.reals) for s in samples], dtype=float)
    stderr = float(per_sample.std(ddof=1) / math.sqrt(len(samples)))
    return ComparisonReport(
        ensemble=bundle.ensemble,
        size=bundle.N,
        samples=len(samples),
        edges=hist.edges,
        observed=hist.counts,
        expected=tuple(float(e) for e in expected),
        z_scores=tuple(float(v) for v in z),
        flagged=tuple(int(i) for i in np.flatnonzero(np.abs(z) > Z_FLAG)),
        mean_real_count=float(per_sample.mean()),
        expected_real_count=float(expected_real_count(bundle)),
        count_stderr=stderr,
        overflow=hist.overflow,
        meta=dict(meta or {}),
    )


def pair_mass_estimate(samples, interval, box):
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
    products = np.array(
        [
            sum(1 for x in s.reals if a <= x <= b)
            * sum(
                1
                for z in s.complex_upper
                if re_lo <= z.real <= re_hi and im_lo <= z.imag <= im_hi
            )
            for s in samples
        ],
        dtype=float,
    )
    stderr = float(products.std(ddof=1) / math.sqrt(len(products)))
    return float(products.mean()), stderr
