"""Tests for the sampling side: samplers, spectrum structure, comparisons.

The distributional oracles are quadratures of the joint eigenvalue
densities, written out here independently of the kernel machinery:
the two-eigenvalue symmetric ensemble in ordered coordinates, and the
two sector masses of the size-2 plane ensemble whose sum must
reproduce the exact normalization before the sector fraction is
trusted.  The GOE counts are checked against LAPACK on the same
tridiagonal matrices, and against dense GOE matrices drawn here; the
Ginibre spectra against LAPACK on the same Hessenberg matrices, and
their all-real fractions against Edelman's closed form.  The samplers
are read as the command reads them: block streams of tallies.
"""

import contextlib
import dataclasses
import io
import math
import tracemalloc
import warnings
from functools import partial

import mpmath
import numpy as np
import pytest
from scipy import special

from betaone import cli, montecarlo
from betaone.ginibre import sinclair_prefactor
from betaone.kernels import cumulative_count, density_integral, kernel_bundle
from betaone.montecarlo import (
    MIN_COMPARISON_SAMPLES,
    empirical_vs_analytic,
    ginibre_blocks,
    ginibre_spectra,
    ginibre_tallies,
    goe_tallies,
    hessenberg_eigvals,
    pair_mass_estimate,
    spectra_tally,
    sturm_totals,
)
from betaone.quadrature import gauss_legendre_rule

from test_ginoe_kernels import mp_summed_S
from test_kernels import mp_goe_density


def goe_edges(N, bins=40):
    # bins over the semicircle's support and a little past it
    return np.linspace(-1.3, 1.3, bins + 1) * math.sqrt(2.0 * N)


def tridiagonal_matrices(a, b2):
    count, N = a.shape
    T = np.zeros((count, N, N))
    i, j = np.arange(N), np.arange(N - 1)
    T[:, i, i] = a
    T[:, j, j + 1] = T[:, j + 1, j] = np.sqrt(b2)
    return T


def totals_below(eigenvalues, edges):
    return np.array([np.count_nonzero(eigenvalues < e) for e in edges])


def hessenberg_draw(N, count, seed):
    # the Ginibre streams as documented: upper triangles of standard normals
    # and subdiagonals sqrt(2 Gamma((N - k)/2)) from two streams spawned
    # from SeedSequence(seed), row-major, into zero lower parts
    upper, sub = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    H = np.zeros((count, N, N))
    i, j = np.triu_indices(N)
    H[:, i, j] = upper.standard_normal((count, len(i)))
    k = np.arange(N - 1)
    H[:, k + 1, k] = np.sqrt(2.0 * sub.standard_gamma(0.5 * np.arange(N - 1, 0, -1), (count, N - 1)))
    return H


def goe_draw(N, count, seed):
    # the GOE streams as documented: standard normals and Gamma((N - k)/2)
    # variates from two streams spawned from SeedSequence(seed), row-major
    diag, off = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    return diag.standard_normal((count, N)), off.standard_gamma(0.5 * np.arange(N - 1, 0, -1), (count, N - 1))


def sturm_below(a, b2, edges, width=1):
    # sturm_totals on a (count, N) draw taken as one block, counted at every
    # width-th edge: width 1 is the grid, a count at every edge
    x = np.asarray(edges, dtype=float)
    work = tuple(np.empty(max(len(x), a.shape[1]) * len(a), dtype) for dtype in (float, float, bool, np.int32))
    return sturm_totals(a.T.copy(), b2.T.copy(), x, width, work)


def summed(tallies):
    # a block stream's reals below each edge and its real-count histogram
    return tuple(sum(part) for part in zip(*tallies))


def real_counts(spectra):
    return np.count_nonzero(np.imag(spectra) == 0, axis=1)


def assert_matches_dgeev(spectra, reference):
    # the characteristic-polynomial solver against dgeev on the same
    # matrices: the same real count per row, sorted spectra within 1e-12,
    # every pair representative with its exact conjugate in its row
    assert np.array_equal(real_counts(spectra), real_counts(reference))
    assert np.abs(np.sort_complex(spectra) - np.sort_complex(reference)).max() <= 1e-12
    assert np.array_equal(np.sort_complex(spectra), np.sort_complex(spectra.conj()))


def test_spectra_follow_per_matrix_streams(monkeypatch):
    # the Ginibre batch is the eigenvalues of the Hessenberg models of
    # hessenberg_draw (bit for bit from N = 4, where dgeev solves them; to
    # 1e-12 with the same real counts below, see assert_matches_dgeev), the
    # GOE draw two streams spawned from SeedSequence(seed), standard normals
    # and Gamma((N - k)/2) variates, each row-major.  Both are the same at
    # any block size (N=8 and N=64 span blocks of 1024 and 16 matrices by
    # default; 41 edges a Sturm pass of 1771 samples at N=8, of 1598 at
    # N=64), down to a block of one matrix, and a smaller batch is the
    # prefix of a larger one; the seed 2^32 + 11 takes two words in numpy's
    # seed hash.  The GOE tallies are the Sturm counts of that draw taken
    # whole, at every edge
    totals = {}
    for block_entries in (montecarlo.BLOCK_ENTRIES, 1000, 1):
        monkeypatch.setattr(montecarlo, "BLOCK_ENTRIES", block_entries)
        for N, count, seed in ((2, 50, 5), (3, 50, 7), (8, 1030, 2**32 + 11), (64, 40, 11)):
            H = hessenberg_draw(N, count, seed)
            a, b2 = goe_draw(N, count, seed)
            edges = goe_edges(N)
            for n in (count, count - 3):
                spectra = np.linalg.eigvals(H[:n])
                if N > 3:
                    assert np.array_equal(ginibre_spectra(N, n, seed), spectra)
                else:
                    assert_matches_dgeev(ginibre_spectra(N, n, seed), spectra)
                below, histogram = summed(ginibre_tallies(N, n, seed, edges))
                assert np.array_equal(below, totals_below(spectra.real[np.imag(spectra) == 0], edges))
                assert np.array_equal(histogram, np.bincount(real_counts(spectra), minlength=N + 1))
                below, histogram = summed(goe_tallies(N, n, seed, edges))
                assert np.array_equal(below, sturm_below(a[:n], b2[:n], edges))
                assert histogram.tolist() == [0] * N + [n]
                assert np.array_equal(below, totals.setdefault((N, n), below))
    assert len(totals) == 8


def test_blocks_are_bounded_by_block_entries():
    # every block holds at most BLOCK_ENTRIES matrix entries (one matrix at
    # least), and together the blocks hold the batch
    for N, count in ((2, 16_390), (8, 2050), (260, 2)):
        blocks = list(ginibre_blocks(N, count, 5))
        assert max(len(b) for b in blocks) == max(1, min(count, montecarlo.BLOCK_ENTRIES // (N * N)))
        assert sum(len(b) for b in blocks) == count


def test_negative_seed_is_rejected():
    for sampler in (ginibre_tallies, goe_tallies):
        with pytest.raises(ValueError, match="non-negative"):
            next(sampler(3, 5, -1, goe_edges(3)))


def test_sturm_totals_equal_eigvalsh_counts():
    # at every bin count the tallies' coarse edges and bisection place each
    # eigenvalue where LAPACK does
    for N, count in ((1, 300), (2, 300), (3, 300), (4, 300), (8, 200), (64, 40)):
        a, b2 = goe_draw(N, count, seed=N)
        eigenvalues = np.sort(np.linalg.eigvalsh(tridiagonal_matrices(a, b2)), axis=None)
        for bins in (2, 40, 2000) + ((20_000,) if N <= 8 else ()):
            edges = goe_edges(N, bins)
            below, _ = summed(goe_tallies(N, count, N, edges))
            assert np.array_equal(below, np.searchsorted(eigenvalues, edges)), (N, bins)


def test_bisection_totals_equal_the_grid():
    # edges on computed eigenvalues and on diagonal entries (a zero first
    # pivot), repeated and unevenly spaced: bisection from any coarse width
    # finds the same totals as a count at every edge
    rng = np.random.default_rng(43)
    for N, count in ((1, 50), (2, 50), (3, 50), (5, 40), (16, 30), (33, 20)):
        a, b2 = goe_draw(N, count, seed=100 + N)
        eigenvalues = np.linalg.eigvalsh(tridiagonal_matrices(a, b2))
        scale = math.sqrt(2.0 * N)
        edges = np.sort(np.concatenate([
            goe_edges(N, 40), eigenvalues[:5].ravel(), a[:5, 0], a[:3, 0],
            scale * rng.uniform(-1.5, 1.5, 60), scale * rng.uniform(0.1, 0.11, 20), [-np.inf, np.inf],
        ]))
        grid = sturm_below(a, b2, edges)
        assert grid[0] == 0 and grid[-1] == N * count
        for width in (2, 3, 4, 16, 64, 1 << 10):
            assert np.array_equal(sturm_below(a, b2, edges, width), grid), (N, width)
        assert np.array_equal(summed(goe_tallies(N, count, 100 + N, edges))[0], grid), N


def test_zero_pivots_count_like_eigvalsh():
    # an edge exactly at a_1 makes the first pivot zero; with b2 = 0 the
    # next step would divide zero by zero; the third matrix is 0.5 I.  The
    # fourth has a zero first pivot at 0.5 over b2_1 = 1e-10: its eigenvalue
    # 0.5 - 1e-10 is below 0.5 only if its pivot floor is its own, not that
    # of the fifth matrix's b2 = 1e300 (eigenvalues 0 and +-1e150)
    a = np.array([[0.5, 1.0, -0.3], [0.5, 1.0, -0.3], [0.5, 0.5, 0.5], [0.5, 1.0, 3.0], [0.0, 0.0, 0.0]])
    b2 = np.array([[0.0, 0.7], [0.4, 0.7], [0.0, 0.0], [1e-10, 0.0], [1e300, 0.0]])
    edges = np.array([-2.0, -0.3, 0.5, 0.5, 1.0, 2.0])
    eigenvalues = np.linalg.eigvalsh(tridiagonal_matrices(a, b2))
    for width in (1, 2, 4):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            below = sturm_below(a, b2, edges, width)
        assert below.tolist() == totals_below(eigenvalues, edges).tolist() == [1, 3, 6, 6, 10, 13], width


def two_sample_chi2(first, second):
    # Pearson's two-sample statistic for binned counts with unequal totals
    # (Press et al., Numerical Recipes, section 14.3) on the cells that
    # hold a count, and its degrees of freedom
    keep = (first + second) > 0
    r, s = first[keep].astype(float), second[keep].astype(float)
    k = math.sqrt(s.sum() / r.sum())
    return float(np.sum((k * r - s / k) ** 2 / (r + s))), int(keep.sum()) - 1


def test_sturm_totals_match_dense_goe_in_distribution():
    # dense (G + G^T)/2 drawn here, binned in 40 bins, against the Sturm
    # totals of the tridiagonal draw, each size at alpha = 1e-3
    alpha = 1e-3
    for N, count, seed in ((4, 20_000, 2601), (16, 5_000, 2602)):
        G = np.random.default_rng(seed).standard_normal((count, N, N))
        dense, _ = np.histogram(np.linalg.eigvalsh(0.5 * (G + np.swapaxes(G, -1, -2))), goe_edges(N))
        counted = np.diff(summed(goe_tallies(N, count, seed, goe_edges(N)))[0])
        statistic, dof = two_sample_chi2(dense, counted)
        assert statistic <= 2.0 * special.gammainccinv(0.5 * dof, 0.5 * alpha), (N, statistic, dof)


def test_reals_are_read_from_structure():
    # a conjugate pair 1e-12 off the axis, from dgeev and from the closed
    # form's discriminant: a realness threshold of 1e-7 times the norm
    # would have counted two reals
    a, eps = 0.7, 1e-12
    matrix = np.array([[a, eps], [-eps, a]])
    for eigs in (np.linalg.eigvals(matrix), hessenberg_eigvals(matrix[None])[0]):
        below, histogram = spectra_tally(eigs[None], [1.0])
        assert below.tolist() == [0] and histogram.tolist() == [1, 0, 0]
        assert eigs[0] == eigs[1].conjugate() and eigs[0].imag != 0.0
    for N in (2, 3, 8):
        spectra = ginibre_spectra(N, 2000, seed=N)
        # real counts of the parity of N alone
        assert not summed(ginibre_tallies(N, 2000, N, []))[1][N - 1 :: -2].any()
        # every pair representative has its exact conjugate in its row
        assert np.array_equal(
            np.sort_complex(spectra), np.sort_complex(spectra.conj())
        )


def test_small_solver_at_triple_roots_and_without_warnings():
    # triple roots, where Cardano's cube root is 0: three reals
    triple = hessenberg_eigvals(np.array([[[1.0, 0, 0], [1, 1, 0], [0, 1, 1]], np.zeros((3, 3))]))
    assert np.array_equal(triple, [[1, 1, 1], [0, 0, 0]]) and not np.signbit(triple.imag).any()
    # sizes 1 to 3 against dgeev, real counts of the parity of N, and no
    # warning from the branch of the cubic that is not taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for N in (1, 2, 3):
            H = hessenberg_draw(N, 20_000, seed=40 + N)
            spectra = hessenberg_eigvals(H)
            assert_matches_dgeev(spectra, np.linalg.eigvals(H))
            assert np.all(real_counts(spectra) % 2 == N % 2)


def test_dgeev_solves_each_block_from_size_four(monkeypatch):
    # one stacked eigvals call per block from N = 4 on, none below
    calls, eigvals = [], np.linalg.eigvals

    def counted(a):
        calls.append(a.shape)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    for N in (1, 2, 3, 4, 8):
        calls.clear()
        blocks = [len(b) for b in ginibre_blocks(N, 20_000, 3)]
        assert [shape[0] for shape in calls] == (blocks if N > 3 else [])


def test_sample_goe_size_one_is_single_real():
    draws = np.random.default_rng(np.random.SeedSequence(7).spawn(2)[0]).standard_normal(3)
    # each 1 x 1 matrix is its own eigenvalue: counted strictly below
    edges = np.sort(np.concatenate([draws, [-5.0, 5.0]]))
    below, histogram = summed(goe_tallies(1, 3, 7, edges))
    assert below.tolist() == [0, 0, 1, 2, 3] and histogram.tolist() == [0, 3]


def test_sample_ginibre_size_one_and_determinism():
    assert np.all(real_counts(ginibre_spectra(1, 5, 3)) == 1)
    first = ginibre_spectra(4, 50, 123)
    assert np.array_equal(first, ginibre_spectra(4, 50, 123))
    assert not np.array_equal(first, ginibre_spectra(4, 50, 124))


def test_batch_diagnostics_and_parity():
    samples = ginibre_spectra(4, 200, seed=9)
    assert samples.shape == (200, 4) and samples.dtype == complex
    assert all(real_counts(samples) % 2 == 0)
    again = ginibre_spectra(4, 200, seed=9)
    assert np.array_equal(samples, again)


def ordered_pair_moment(power):
    # integral of x_max^power |x1-x2| exp(-(x1^2+x2^2)/2) over x1 > x2
    total = 0.0
    for x, wx in zip(*gauss_legendre_rule(80, -8.0, 8.0)):
        nodes, weights = gauss_legendre_rule(80, -8.0, x)
        vals = (x - nodes) * np.exp(-(x * x + nodes**2) / 2.0)
        total += wx * x**power * float(weights @ vals)
    return total


def test_goe_two_by_two_largest_eigenvalue_mean():
    # the larger eigenvalue of each 2 x 2 tridiagonal model, in closed form
    a, b2 = goe_draw(2, 100_000, seed=17)
    largest = 0.5 * (a[:, 0] + a[:, 1]) + np.sqrt(0.25 * (a[:, 0] - a[:, 1]) ** 2 + b2[:, 0])
    oracle = ordered_pair_moment(1) / ordered_pair_moment(0)
    stderr = largest.std(ddof=1) / math.sqrt(largest.size)
    assert abs(largest.mean() - oracle) <= 3.0 * stderr
    # the ordered-sector quadrature itself: known closed form sqrt(pi)/2
    assert np.isclose(oracle, math.sqrt(math.pi) / 2.0, rtol=1e-10, atol=0)


def plane_sector_masses():
    # both sector weights of the size-2 plane ensemble, by quadrature:
    # two reals with the sign-ordered coupling, or one conjugate pair
    x, wx = gauss_legendre_rule(200, -9.0, 9.0)
    vals = x * np.exp(-x**2 / 2.0) * (
        np.array([math.erf(t / math.sqrt(2.0)) for t in x])
    )
    two_real = math.sqrt(2.0 * math.pi) * float(wx @ vals)
    y, wy = gauss_legendre_rule(200, 0.0, 9.0)
    tail = 4.0 * math.sqrt(math.pi) * float(
        wy
        @ (y * np.exp(y**2)
           * np.array([math.erfc(math.sqrt(2.0) * h) for h in y]))
    )
    return two_real, tail


def test_ginibre_two_by_two_real_fraction():
    two_real, pair = plane_sector_masses()
    # the sector masses must reproduce the exact unit normalization, and
    # the two-real one is the all-real probability 2^{-N(N-1)/4} of real
    # Ginibre matrices (Edelman, J. Multivariate Anal. 60, 1997) at N = 2
    assert np.isclose(sinclair_prefactor(2) * (two_real + pair), 1.0,
                      rtol=1e-10, atol=0)
    assert np.isclose(sinclair_prefactor(2) * two_real, 2.0**-0.5, rtol=1e-10, atol=0)
    # sampled: one subdiagonal chi at N = 2, two and three at N = 3 and 4
    for N in (2, 3, 4):
        _, histogram = summed(ginibre_tallies(N, 100_000, 29, []))
        assert histogram.sum() == 100_000 and not histogram[N - 1 :: -2].any()
        hits = histogram[N] / 100_000
        stderr = math.sqrt(hits * (1.0 - hits) / (100_000 - 1))
        assert abs(hits - 2.0 ** (-N * (N - 1) / 4)) <= 3.0 * stderr, (N, hits)


def test_empirical_density_bookkeeping():
    rows = np.array([[-0.5, 0.5], [0.4, 5.0], [1j, -1j]])
    index = np.arange(MIN_COMPARISON_SAMPLES) % 3
    copies = np.bincount(index)

    def stream(edges):
        # two blocks
        return (spectra_tally(rows[part], edges) for part in np.array_split(index, 2))

    report = empirical_vs_analytic(stream, kernel_bundle("goe", 2), bins=np.linspace(-1.0, 1.0, 5))
    # edges at -1, -0.5, 0, 0.5, 1; bins are closed on the left
    assert report.observed == (0, copies[0], copies[1], copies[0])
    assert report.overflow == copies[1]
    # the count statistics from the histogram's sums are numpy's to rounding
    per_sample = real_counts(rows[index])
    assert report.mean_real_count == per_sample.mean()
    stderr = per_sample.std(ddof=1) / math.sqrt(len(index))
    assert report.count_stderr == pytest.approx(stderr, rel=1e-15)


def test_comparison_requires_enough_samples():
    with pytest.raises(ValueError):
        empirical_vs_analytic(partial(goe_tallies, 2, 100, 1), kernel_bundle("goe", 2), bins=10)


def test_comparison_rejects_decreasing_edges():
    for sampler, bundle in ((goe_tallies, kernel_bundle("goe", 2)), (ginibre_tallies, kernel_bundle("ginoe", 2))):
        with pytest.raises(ValueError, match="must not decrease"):
            empirical_vs_analytic(partial(sampler, 2, 10_000, 1), bundle, bins=np.array([-1.0, 1.0, 0.0]))


def test_comparison_report_round_trip():
    report = empirical_vs_analytic(partial(goe_tallies, 2, 10_000, 19), kernel_bundle("goe", 2), bins=20)
    assert report.flagged == ()
    assert report.mean_real_count == 2.0 and report.count_stderr == 0.0
    assert report.count_within and report.passed
    assert report.samples == 10_000
    assert len(report.z_scores) == 20
    assert sum(report.observed) + report.overflow == 2 * 10_000


def test_zero_variance_count_must_match_exactly():
    # every GOE sample has N reals: with no standard error the count is
    # within only at a deviation of exactly 0, so 1e-12 off fails
    report = empirical_vs_analytic(partial(goe_tallies, 2, 10_000, 19), kernel_bundle("goe", 2), bins=20)
    assert report.count_stderr == 0.0 and report.count_deviation == 0.0 and report.count_within
    off = dataclasses.replace(report, expected_real_count=report.expected_real_count + 1e-12)
    assert off.count_deviation > 0.0
    assert not off.count_within and not off.passed


def traced_peak(argv):
    tracemalloc.reset_peak()
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(argv)
    return tracemalloc.get_traced_memory()[1]


def test_mc_compare_memory_is_flat_in_samples():
    # the command keeps only the tallies of each block, so its traced peak
    # does not grow with --samples; a run holding the batch grows by
    # megabytes from 10^4 to 4 x 10^4 samples.  The first run builds what
    # the later ones reuse
    for ensemble, size in (("goe", 4), ("ginoe", 8)):
        argv = ["mc-compare", "--ensemble", ensemble, "--size", str(size), "--seed", "3", "--samples"]
        tracemalloc.start()
        try:
            _, small, large = (traced_peak(argv + [n]) for n in ("10000", "10000", "40000"))
        finally:
            tracemalloc.stop()
        assert abs(large - small) <= 64 * 1024, (ensemble, small, large)


def eks_real_count(N):
    # Edelman, Kostlan and Shub: mean number of real eigenvalues of an
    # N x N real Ginibre matrix, 1/2 + sqrt2 2F1(1, -1/2; N; 1/2)/B(N, 1/2)
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2
        return float(half + mpmath.sqrt(2) * mpmath.hyp2f1(1, -half, N, half) / mpmath.beta(N, half))


def test_expected_real_count_matches_known_values():
    # the report's expected_real_count is the density integral for GinOE:
    # the mean real count in the plane; on the line it reads N
    # size 3 plane ensemble: 1 + 1/sqrt(2) real eigenvalues on average
    assert np.isclose(eks_real_count(3), 1.0 + 1.0 / math.sqrt(2.0), rtol=1e-15, atol=0)
    for N in range(1, 65):
        assert np.isclose(density_integral(kernel_bundle("ginoe", N)), eks_real_count(N),
                          rtol=2e-15, atol=0), N
    bundle = kernel_bundle("goe", 4)
    assert np.isclose(density_integral(bundle), 4.0, rtol=1e-15, atol=0)


# the t grid of the cumulative counts, both tails and +-inf; beyond +-12
# every density at N <= 8 is below 1e-23
COUNT_CUTS = (-12.0, -5.0, -1.5, 0.3, 2.0, 5.0, 12.0)


def mp_density(ensemble, N):
    """The 50-digit closed-form real density: the GOE Hermite-function form, the
    GinOE incomplete-gamma form (N >= 2) and the standard normal at GinOE N = 1."""
    if ensemble == "goe":
        return lambda x: mp_goe_density(N, x)
    if N == 1:
        return mpmath.npdf
    return lambda x: mp_summed_S(N, x, float(x)).real


@pytest.mark.parametrize("ensemble", ["goe", "ginoe"])
@pytest.mark.parametrize("N", range(1, 9))
def test_cumulative_count_against_high_precision_oracle(ensemble, N):
    # 50-digit Gauss-Legendre quadratures between the cuts, summed; up to 93
    # nodes a piece, whose own error estimate stays below 1e-30
    with mpmath.workdps(50):
        density = mp_density(ensemble, N)
        pieces, errors = zip(*(mpmath.quad(density, [a, b], method="gauss-legendre", error=True, maxdegree=5)
                               for a, b in zip(COUNT_CUTS, COUNT_CUTS[1:])))
        assert max(errors) <= 1e-30
        want = [0.0] + [float(mpmath.fsum(pieces[:k])) for k in range(1, len(pieces) + 1)]
    t = np.array([-np.inf, *COUNT_CUTS[1:-1], np.inf])
    got = cumulative_count(cli.kernel_bundle(ensemble, N), t)
    assert got[0] == 0.0
    assert np.abs(got - want).max() <= 1e-14 * N, (got, want)


@pytest.mark.parametrize("ensemble", ["goe", "ginoe"])
def test_bin_masses_are_differences_of_the_count(ensemble):
    # against 24 Gauss-Legendre nodes a bin of the kernel density, on 40
    # bins over +-1.3 sqrt(2N) and on mc-compare's default span in 2000
    for N in (*range(1, 9), 33, 64):
        bundle = cli.kernel_bundle(ensemble, N)
        edge = 1.3 * math.sqrt(2.0 * N)
        for edges in (np.linspace(-edge, edge, 41), np.linspace(-4.0, 4.0, 2001)):
            nodes, weights = gauss_legendre_rule(24, edges[:-1], edges[1:])
            terms = weights * np.real(bundle.scalar_kernel(nodes, nodes))
            quadrature = terms.reshape(len(edges) - 1, 24).sum(axis=1)
            masses = np.diff(cumulative_count(bundle, edges))
            assert np.abs(masses - quadrature).max() <= 2e-14 * N, (N, len(edges))


def test_upper_tail_bins_keep_relative_accuracy():
    # each bin's mass comes from counts below -|edge|: in the upper tail
    # within 1e-14 of a 30-digit quadrature (a difference of counts near N
    # read 7.9e-12 at [5.7, 6.0]), and a mirror image on mirrored edges
    def stream(N, edges):
        # every sample with N reals, none of them binned
        yield np.zeros(len(edges), dtype=np.int64), np.bincount([N], minlength=N + 1) * MIN_COMPARISON_SAMPLES

    edges = np.array([5.1, 5.4, 5.7, 6.0])
    report = empirical_vs_analytic(partial(stream, 8), kernel_bundle("goe", 8), bins=edges)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.quad(lambda x: mp_goe_density(8, x), [a, b])) for a, b in zip(edges, edges[1:])])
    got = np.array(report.expected) / MIN_COMPARISON_SAMPLES
    assert np.all(np.abs(got - want) <= 1e-14 * want), (got - want) / want
    x = np.linspace(0.3, 4.0, 9)
    for bundle in (kernel_bundle("goe", 8), kernel_bundle("ginoe", 3), kernel_bundle("ginoe", 8)):
        report = empirical_vs_analytic(partial(stream, bundle.N), bundle, bins=np.r_[-x[::-1], x])
        assert report.expected == report.expected[::-1], bundle.N


def test_pair_mass_estimate_mechanics():
    samples = np.array(
        [
            [0.1, 0.2, 0.5 + 0.5j, 0.5 - 0.5j],
            [-3.0, 0.15, 2.0 + 2.0j, 2.0 - 2.0j],
            [0.4 + 0.4j, 0.4 - 0.4j, 3.0 + 1.0j, 3.0 - 1.0j],
        ]
    )
    box = ((0.0, 1.0), (0.0, 1.0))
    # per-sample products: 2 reals x 1 pair, 1 real x 0 pairs, 0 x 1
    mean, stderr = pair_mass_estimate(samples, (0.0, 0.3), box)
    assert mean == pytest.approx(2.0 / 3.0)
    assert stderr == pytest.approx(np.std([2.0, 0.0, 0.0], ddof=1) / math.sqrt(3.0))
    with pytest.raises(ValueError):
        pair_mass_estimate(samples, (1.0, 0.0), box)
    with pytest.raises(ValueError):
        pair_mass_estimate(samples, (0.0, 1.0), ((0.0, 1.0), (-1.0, 1.0)))
