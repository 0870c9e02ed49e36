"""Tests for the sampling side: samplers, spectrum structure, comparisons.

The distributional oracles are quadratures of the joint eigenvalue
densities, written out here independently of the kernel machinery:
the two-eigenvalue symmetric ensemble in ordered coordinates, and the
two sector masses of the size-2 plane ensemble whose sum must
reproduce the exact normalization before the sector fraction is
trusted.
"""

import math

import numpy as np
import pytest

from betaone.ginibre import sinclair_prefactor
from betaone.ginoe_kernels import ginoe_kernel
from betaone.kernels import goe_kernel
from betaone.montecarlo import (
    BLOCK_ENTRIES,
    MIN_COMPARISON_SAMPLES,
    _pcg64_states,
    _stream_words,
    empirical_vs_analytic,
    expected_real_count,
    ginibre_spectra,
    goe_spectra,
    pair_mass_estimate,
    real_counts,
)
from betaone.quadrature import gauss_legendre_rule


def test_spectra_follow_per_matrix_streams():
    # N=8 and N=64 span solve blocks (1024 and 16 matrices); a seed of
    # 2^32 or more takes two words in the stream key
    for N, count, seed in ((3, 50, 7), (8, 1030, 2**32 + 11), (64, 40, 11)):
        spectra, _ = ginibre_spectra(N, count, seed)
        draws = np.stack(
            [np.random.default_rng((seed, i, 0)).standard_normal((N, N)) for i in range(count)]
        )
        assert np.array_equal(spectra, np.linalg.eigvals(draws))
        spectra, _ = goe_spectra(N, count, seed)
        draws = np.stack(
            [np.random.default_rng((seed, i)).standard_normal((N, N)) for i in range(count)]
        )
        sym = 0.5 * (draws + np.swapaxes(draws, -1, -2))
        assert np.array_equal(spectra, np.linalg.eigvalsh(sym))


def test_block_seeding_matches_seed_sequence():
    step = BLOCK_ENTRIES // 16  # matrices per block at N = 4
    indices = [0, 1, step - 1, step, 2**31, 2**32 + 3]
    for seed in (0, 1, 2**32 - 1, 2**32, 2**64 + 5):
        for tail in ((0,), ()):
            words = _stream_words(seed, indices, tail)
            states = list(_pcg64_states(words))
            for i, row, (state, inc) in zip(indices, words, states):
                key = np.random.SeedSequence((seed, i, *tail))
                assert np.array_equal(row, key.generate_state(4, np.uint64))
                expected = np.random.PCG64(key).state["state"]
                assert expected == {"state": state, "inc": inc}


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
        spectra, _ = ginibre_spectra(N, 2000, seed=N)
        assert np.all((N - real_counts(spectra)) % 2 == 0)
        # every pair representative has its exact conjugate in its row
        assert np.array_equal(
            np.sort_complex(spectra), np.sort_complex(spectra.conj())
        )


def test_sample_goe_size_one_is_single_real():
    spectra, _ = goe_spectra(1, 3, 7)
    draws = [np.random.default_rng((7, i)).standard_normal() for i in range(3)]
    assert spectra.tolist() == [[x] for x in draws]


def test_sample_goe_preserves_trace():
    spectra, _ = goe_spectra(5, 20, 0)
    for i in range(20):
        G = np.random.default_rng((0, i)).standard_normal((5, 5))
        assert abs(spectra[i].sum() - np.trace(0.5 * (G + G.T))) <= 1e-10


def test_sample_ginibre_size_one_and_determinism():
    assert np.all(real_counts(ginibre_spectra(1, 5, 3)[0]) == 1)
    first, _ = ginibre_spectra(4, 50, 123)
    assert np.array_equal(first, ginibre_spectra(4, 50, 123)[0])
    assert not np.array_equal(first, ginibre_spectra(4, 50, 124)[0])


def test_batch_diagnostics_and_parity():
    samples, meta = ginibre_spectra(4, 200, seed=9)
    assert meta["samples"] == 200 and meta["generator"] == "PCG64"
    assert all(real_counts(samples) % 2 == 0)
    again, _ = ginibre_spectra(4, 200, seed=9)
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
    samples, _ = goe_spectra(2, 100_000, seed=17)
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
    samples, _ = ginibre_spectra(2, 100_000, seed=29)
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
    samples, _ = goe_spectra(2, 100, seed=1)
    with pytest.raises(ValueError):
        empirical_vs_analytic(samples, goe_kernel(2), bins=10)


def test_comparison_report_round_trip():
    samples, _ = goe_spectra(2, 10_000, seed=19)
    report = empirical_vs_analytic(samples, goe_kernel(2), bins=20)
    assert report.flagged == ()
    assert report.mean_real_count == 2.0
    assert report.count_within and report.passed
    assert report.samples == 10_000
    assert len(report.z_scores) == 20
    assert sum(report.observed) + report.overflow == 2 * 10_000


def test_expected_real_count_matches_known_values():
    # size 3 plane ensemble: 1 + 1/sqrt(2) real eigenvalues on average
    assert np.isclose(expected_real_count(ginoe_kernel(3)),
                      1.0 + 1.0 / math.sqrt(2.0), rtol=1e-8, atol=0)
    bundle = goe_kernel(4)
    assert np.isclose(expected_real_count(bundle), 4.0, rtol=1e-8, atol=0)


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
