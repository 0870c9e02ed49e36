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

Matrix i holds the standard normals of numpy's default_rng((seed, i, 0))
stream for real Ginibre and default_rng((seed, i)) for GOE, so a batch
is reproducible, restartable at any index and splittable across
workers by index range.  Building one default_rng per matrix would
cost more than drawing and solving it; instead the streams are seeded
a block at a time.  One vectorized pass of numpy's SeedSequence hash
over the block's indices gives each matrix the words PCG64 seeds
itself from, PCG64's own seeding step turns them into (state, inc),
and one reused generator draws every matrix from its state.  The
samples are the per-matrix streams bit for bit.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator

from .quadrature import composite_rule, integrate_line, truncation_radius

GENERATOR = "PCG64"
BLOCK_ENTRIES = 1 << 16  # matrix entries drawn and solved per LAPACK call
DEFAULT_SPAN = (-4.0, 4.0)
BIN_QUAD_ORDER = 24
Z_FLAG = 4.0
COUNT_SLACK = 1e-6  # absolute slack when the count variance vanishes (GOE)
MIN_COMPARISON_SAMPLES = 10_000

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx) and the
# PCG64 multiplier, reproduced so that a block of per-matrix streams is
# seeded in one vectorized pass
POOL_SIZE = 4
INIT_A = 0x43B0D7E5
MULT_A = 0x931E8875
INIT_B = 0x8B51F9DD
MULT_B = 0x58F38DED
MIX_MULT_L = 0xCA01F9DD
MIX_MULT_R = 0x4973F715
XSHIFT = 16
MASK32 = 0xFFFFFFFF
MASK128 = (1 << 128) - 1
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
INT_CHUNK = 256  # rows of seed words converted to Python ints at a time


def _int_words(value):
    """Little-endian 32-bit words of a non-negative integer, as SeedSequence reads it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def _hashmix(value, const):
    value = value ^ const
    const = const * MULT_A & MASK32
    value = value * const
    return value ^ (value >> XSHIFT), const


def _mix(x, y):
    result = x * MIX_MULT_L - y * MIX_MULT_R
    return result ^ (result >> XSHIFT)


def _generate_state(entropy):
    """SeedSequence pool mixing and generate_state(4, uint64) over columns.

    `entropy` lists the key's uint32 words, each an array holding that
    word for every key in the batch; the result has one row of four
    uint64 words per key.
    """
    const = INIT_A
    pool = []
    for k in range(POOL_SIZE):
        word = entropy[k] if k < len(entropy) else np.zeros_like(entropy[0])
        value, const = _hashmix(word, const)
        pool.append(value)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                value, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            value, const = _hashmix(word, const)
            pool[dst] = _mix(pool[dst], value)
    const = INIT_B
    out = []
    for k in range(2 * POOL_SIZE):
        value = pool[k % POOL_SIZE] ^ const
        const = const * MULT_B & MASK32
        value = value * const
        out.append((value ^ (value >> XSHIFT)).astype(np.uint64))
    return np.stack([out[2 * k] | out[2 * k + 1] << 32 for k in range(POOL_SIZE)], axis=1)


def _stream_words(seed, indices, tail):
    """SeedSequence((seed, i, *tail)).generate_state(4, np.uint64) for every i.

    One row per index, computed for the whole array of indices at once.
    An index takes one word below 2^32 and two from there on, so the
    two widths are hashed apart.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    high = indices >> 32
    words = np.empty((indices.size, POOL_SIZE), dtype=np.uint64)
    for wide in (False, True):
        rows = np.flatnonzero((high != 0) == wide)
        if rows.size:
            index_words = [indices[rows] & MASK32] + ([high[rows]] if wide else [])
            entropy = [np.full(rows.size, w, dtype=np.uint32) for w in _int_words(seed)]
            entropy += [w.astype(np.uint32) for w in index_words]
            entropy += [np.full(rows.size, w, dtype=np.uint32) for t in tail for w in _int_words(t)]
            words[rows] = _generate_state(entropy)
    return words


def _pcg64_states(words):
    """(state, inc) that PCG64 seeds itself to from each row of words.

    The row is (initstate, initseq) as two 128-bit halves; PCG64 sets
    inc = 2 initseq + 1 and takes two LCG steps from state 0, adding
    initstate between them.  Rows become Python ints a chunk at a
    time, so a large block never holds all of them at once.
    """
    for start in range(0, len(words), INT_CHUNK):
        for state_hi, state_lo, seq_hi, seq_lo in words[start : start + INT_CHUNK].tolist():
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & MASK128
            state = (((state_hi << 64 | state_lo) + inc) * PCG64_MULT + inc) & MASK128
            yield state, inc


def _spectra(N, count, seed, tail, solve, dtype):
    """Eigenvalues of `count` matrices, one row per matrix.

    Matrix i holds standard normals from default_rng((seed, i, *tail)).
    The matrices are seeded, drawn and solved a block at a time, so
    memory stays proportional to count * N: one vectorized SeedSequence
    pass gives the block's PCG64 states, and one reused generator
    draws every matrix from its own state.
    """
    if N < 1:
        raise ValueError("N must be positive")
    spectra = np.empty((count, N), dtype=dtype)
    step = max(1, BLOCK_ENTRIES // (N * N))
    block = np.empty((min(step, count), N, N))
    bitgen = PCG64(0)
    draw = Generator(bitgen).standard_normal
    pcg = {"state": 0, "inc": 0}
    bitgen_state = {"bit_generator": GENERATOR, "state": pcg, "has_uint32": 0, "uinteger": 0}
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        words = _stream_words(seed, np.arange(lo, hi), tail)
        for j, (state, inc) in enumerate(_pcg64_states(words)):
            pcg["state"], pcg["inc"] = state, inc
            bitgen.state = bitgen_state
            draw(out=block[j])
        spectra[lo:hi] = solve(block[: hi - lo])
    return spectra


def _meta(ensemble, N, count, seed):
    return {
        "ensemble": ensemble,
        "size": N,
        "samples": count,
        "seed": seed,
        "generator": GENERATOR,
    }


def goe_spectra(N, count, seed):
    """GOE batch: (G + G^T)/2 with G of independent standard normals.

    Diagonal entries have variance 1 and off-diagonal entries variance
    1/2, so the eigenvalue density carries the plain exp(-x^2/2) weight.
    Returns the (count, N) array of ascending spectra and the
    reproducibility metadata.
    """

    def solve(G):
        return np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2)))

    spectra = _spectra(N, count, seed, (), solve, float)
    return spectra, _meta("goe", N, count, seed)


def ginibre_spectra(N, count, seed):
    """Real Ginibre batch: all N^2 entries independent standard normals.

    Returns the (count, N) complex array of spectra and the
    reproducibility metadata.
    """
    # the trailing 0 was the attempt index of a retired redraw loop;
    # keeping it preserves the sample stream
    spectra = _spectra(N, count, seed, (0,), np.linalg.eigvals, complex)
    return spectra, _meta("ginoe", N, count, seed)


def real_counts(spectra):
    """Number of real eigenvalues in each row of a batch of spectra."""
    return np.count_nonzero(np.imag(spectra) == 0, axis=1)


def _density_on_nodes(bundle, nodes):
    nodes = np.asarray(nodes, dtype=float)
    return np.real(bundle.scalar_kernel(nodes, nodes))


def expected_bin_masses(bundle, edges):
    """Integral of the one-point density over each bin."""
    rule = composite_rule(edges, BIN_QUAD_ORDER)
    terms = rule.weights * _density_on_nodes(bundle, rule.nodes)
    return terms.reshape(len(edges) - 1, BIN_QUAD_ORDER).sum(axis=1)


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
        expected_real_count=float(expected_real_count(bundle)),
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
