"""Tests for the sampling side: samplers, spectrum structure, comparisons.

The distributional oracles are quadratures of the joint eigenvalue
densities, written out here independently of the kernel machinery:
the two-eigenvalue symmetric ensemble in ordered coordinates, and the
two sector masses of the size-2 plane ensemble whose sum must
reproduce the exact normalization before the sector fraction is
trusted.
"""

import math

import mpmath
import numpy as np
import pytest

from betaone import montecarlo
from betaone.ginibre import sinclair_prefactor
from betaone.ginoe_kernels import ginoe_kernel
from betaone.kernels import density_integral, goe_kernel
from betaone.montecarlo import (
    MIN_COMPARISON_SAMPLES,
    empirical_vs_analytic,
    ginibre_spectra,
    goe_spectra,
    pair_mass_estimate,
    real_counts,
)
from betaone.quadrature import gauss_legendre_rule


def test_spectra_follow_per_matrix_streams(monkeypatch):
    # the batch is default_rng(seed)'s standard normals, matrix after
    # matrix: the same at any block size (N=8 and N=64 span blocks of
    # 1024 and 16 matrices by default), and a smaller batch is the
    # prefix of a larger one; the seed 2^32 + 11 takes two words in
    # numpy's seed hash
    for block_entries in (montecarlo.BLOCK_ENTRIES, 1000):
        monkeypatch.setattr(montecarlo, "BLOCK_ENTRIES", block_entries)
        for N, count, seed in ((3, 50, 7), (8, 1030, 2**32 + 11), (64, 40, 11)):
            G = np.random.default_rng(seed).standard_normal((count, N, N))
            sym = 0.5 * (G + np.swapaxes(G, -1, -2))
            for n in (count, count - 3):
                assert np.array_equal(ginibre_spectra(N, n, seed), np.linalg.eigvals(G[:n]))
                assert np.array_equal(goe_spectra(N, n, seed), np.linalg.eigvalsh(sym[:n]))


def test_negative_seed_is_rejected():
    for sampler in (ginibre_spectra, goe_spectra):
        with pytest.raises(ValueError, match="non-negative"):
            sampler(3, 5, -1)


def test_reals_are_read_from_structure():
    # a conjugate pair 1e-12 off the axis: a realness threshold of 1e-7
    # times the norm would have counted two reals
    a, eps = 0.7, 1e-12
    eigs = np.linalg.eigvals(np.array([[a, eps], [-eps, a]]))
    assert real_counts(eigs[None]).tolist() == [0]
    assert eigs[0] == eigs[1].conjugate() and eigs[0].imag != 0.0
    for N in (2, 3, 8):
        spectra = ginibre_spectra(N, 2000, seed=N)
        assert np.all((N - real_counts(spectra)) % 2 == 0)
        # every pair representative has its exact conjugate in its row
        assert np.array_equal(
            np.sort_complex(spectra), np.sort_complex(spectra.conj())
        )


def test_sample_goe_size_one_is_single_real():
    spectra = goe_spectra(1, 3, 7)
    draws = np.random.default_rng(7).standard_normal(3)
    assert spectra.tolist() == [[x] for x in draws]


def test_sample_goe_preserves_trace():
    spectra = goe_spectra(5, 20, 0)
    for row, G in zip(spectra, np.random.default_rng(0).standard_normal((20, 5, 5))):
        assert abs(row.sum() - np.trace(0.5 * (G + G.T))) <= 1e-10


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
    outer = gauss_legendre_rule(80, -8.0, 8.0)
    total = 0.0
    for x, wx in zip(outer.nodes, outer.weights):
        inner = gauss_legendre_rule(80, -8.0, x)
        vals = (x - inner.nodes) * np.exp(-(x * x + inner.nodes**2) / 2.0)
        total += wx * x**power * float(inner.weights @ vals)
    return total


def test_goe_two_by_two_largest_eigenvalue_mean():
    samples = goe_spectra(2, 100_000, seed=17)
    largest = samples[:, -1]
    oracle = ordered_pair_moment(1) / ordered_pair_moment(0)
    stderr = largest.std(ddof=1) / math.sqrt(largest.size)
    assert abs(largest.mean() - oracle) <= 3.0 * stderr
    # the ordered-sector quadrature itself: known closed form sqrt(pi)/2
    assert np.isclose(oracle, math.sqrt(math.pi) / 2.0, rtol=1e-10, atol=0)


def plane_sector_masses():
    # both sector weights of the size-2 plane ensemble, by quadrature:
    # two reals with the sign-ordered coupling, or one conjugate pair
    line = gauss_legendre_rule(200, -9.0, 9.0)
    vals = line.nodes * np.exp(-line.nodes**2 / 2.0) * (
        np.array([math.erf(t / math.sqrt(2.0)) for t in line.nodes])
    )
    two_real = math.sqrt(2.0 * math.pi) * float(line.weights @ vals)
    half = gauss_legendre_rule(200, 0.0, 9.0)
    tail = 4.0 * math.sqrt(math.pi) * float(
        half.weights
        @ (half.nodes * np.exp(half.nodes**2)
           * np.array([math.erfc(math.sqrt(2.0) * y) for y in half.nodes]))
    )
    return two_real, tail


def test_ginibre_two_by_two_real_fraction():
    two_real, pair = plane_sector_masses()
    # the sector masses must reproduce the exact unit normalization
    assert np.isclose(sinclair_prefactor(2) * (two_real + pair), 1.0,
                      rtol=1e-10, atol=0)
    p_real = sinclair_prefactor(2) * two_real
    samples = ginibre_spectra(2, 100_000, seed=29)
    hits = (real_counts(samples) == 2).astype(float)
    stderr = hits.std(ddof=1) / math.sqrt(hits.size)
    assert abs(hits.mean() - p_real) <= 3.0 * stderr


def test_empirical_density_bookkeeping():
    rows = np.array([[-0.5, 0.5], [0.4, 5.0], [1j, -1j]])
    index = np.arange(MIN_COMPARISON_SAMPLES) % 3
    copies = np.bincount(index)
    report = empirical_vs_analytic(rows[index], goe_kernel(2), bins=np.linspace(-1.0, 1.0, 5))
    # edges at -1, -0.5, 0, 0.5, 1; bins are closed on the left
    assert report.observed == (0, copies[0], copies[1], copies[0])
    assert report.overflow == copies[1]


def test_comparison_requires_enough_samples():
    samples = goe_spectra(2, 100, seed=1)
    with pytest.raises(ValueError):
        empirical_vs_analytic(samples, goe_kernel(2), bins=10)


def test_comparison_report_round_trip():
    samples = goe_spectra(2, 10_000, seed=19)
    report = empirical_vs_analytic(samples, goe_kernel(2), bins=20)
    assert report.flagged == ()
    assert report.mean_real_count == 2.0
    assert report.count_within and report.passed
    assert report.samples == 10_000
    assert len(report.z_scores) == 20
    assert sum(report.observed) + report.overflow == 2 * 10_000


def eks_real_count(N):
    # Edelman, Kostlan and Shub: mean number of real eigenvalues of an
    # N x N real Ginibre matrix, 1/2 + sqrt2 2F1(1, -1/2; N; 1/2)/B(N, 1/2)
    with mpmath.workdps(50):
        half = mpmath.mpf(1) / 2
        return float(half + mpmath.sqrt(2) * mpmath.hyp2f1(1, -half, N, half) / mpmath.beta(N, half))


def test_expected_real_count_matches_known_values():
    # the report's expected_real_count is the density integral: the mean
    # real count in the plane, N on the line
    # size 3 plane ensemble: 1 + 1/sqrt(2) real eigenvalues on average
    assert np.isclose(eks_real_count(3), 1.0 + 1.0 / math.sqrt(2.0), rtol=1e-15, atol=0)
    for N in range(1, 65):
        assert np.isclose(density_integral(ginoe_kernel(N)), eks_real_count(N),
                          rtol=1e-14, atol=0), N
    bundle = goe_kernel(4)
    assert np.isclose(density_integral(bundle), 4.0, rtol=1e-8, atol=0)


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
