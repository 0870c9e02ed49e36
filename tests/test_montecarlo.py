"""Tests for the sampling side: classification, samplers, comparisons.

The distributional oracles are quadratures of the joint eigenvalue
densities, written out here independently of the kernel machinery:
the two-eigenvalue symmetric ensemble in ordered coordinates, and the
two sector masses of the size-2 plane ensemble whose sum must
reproduce the exact normalization before the sector fraction is
trusted.
"""

import json
import math

import numpy as np
import pytest

from betaone.ginibre import sinclair_prefactor
from betaone.ginoe_kernels import ginoe_odd_kernel
from betaone.kernels import beta1_even_kernel
from betaone.montecarlo import (
    EmpiricalDensity,
    SpectrumSample,
    classify_real,
    empirical_density,
    empirical_vs_analytic,
    expected_real_count,
    ginibre_spectra,
    goe_spectra,
    pair_mass_estimate,
    sample_goe,
    sample_real_ginibre,
)
from betaone.quadrature import gauss_legendre_rule

THRESHOLD = 1e-7


def test_classify_all_real_stays_real():
    reals, upper = classify_real([1.0 + 0j, -2.0 + 0j, 0.5 + 0j], THRESHOLD)
    assert reals == (-2.0, 0.5, 1.0)
    assert upper == ()


def test_classify_wide_pair():
    reals, upper = classify_real([0.5j, -0.5j], THRESHOLD)
    assert reals == ()
    assert upper == (0.5j,)


def test_classify_near_axis_orphan_rejoins_reals():
    # the partner fell inside the threshold band, the orphan just above
    eigs = [0.3 + 1.5e-8j, 0.3 - 0.8e-8j, 1.0 + 0j]
    reals, upper = classify_real(eigs, 1e-8)
    assert upper == ()
    assert np.allclose(reals, (0.3, 0.3, 1.0))


def test_classify_rejects_nonconjugate_input():
    with pytest.raises(ValueError):
        classify_real([0.5 + 1.0j, 2.0 + 0j], THRESHOLD)
    with pytest.raises(ValueError):
        classify_real([0.5 + 1.0j, 0.5 - 2.0j], THRESHOLD)


def test_spectrum_sample_invariants():
    with pytest.raises(ValueError):
        SpectrumSample(N=3, reals=(0.0,), complex_upper=())
    with pytest.raises(ValueError):
        SpectrumSample(N=2, reals=(), complex_upper=(1.0 - 1.0j,))
    sample = SpectrumSample(N=3, reals=(0.1,), complex_upper=(1j,))
    assert len(sample.reals) % 2 == sample.N % 2


def test_sample_goe_size_one_is_single_real():
    sample = sample_goe(1, 7)
    assert sample.reals == (float(np.random.default_rng(7).standard_normal()),)
    assert sample.complex_upper == ()


def test_sample_goe_preserves_trace():
    for seed in range(20):
        G = np.random.default_rng(seed).standard_normal((5, 5))
        sample = sample_goe(5, seed)
        assert abs(sum(sample.reals) - np.trace(0.5 * (G + G.T))) <= 1e-10


def test_sample_ginibre_size_one_and_determinism():
    assert sample_real_ginibre(1, 3).complex_upper == ()
    assert sample_real_ginibre(4, 123) == sample_real_ginibre(4, 123)
    assert sample_real_ginibre(4, 123) != sample_real_ginibre(4, 124)


def test_batch_diagnostics_and_parity():
    samples, meta = ginibre_spectra(4, 200, seed=9)
    assert meta["samples"] == 200 and meta["generator"] == "PCG64"
    assert meta["resamples"] == 0
    assert all(len(s.reals) % 2 == 0 for s in samples)
    again, _ = ginibre_spectra(4, 200, seed=9)
    assert samples == again


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
    largest = np.array([s.reals[-1] for s in samples])
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
    hits = np.array([1.0 if len(s.reals) == 2 else 0.0 for s in samples])
    stderr = hits.std(ddof=1) / math.sqrt(hits.size)
    assert abs(hits.mean() - p_real) <= 3.0 * stderr


def test_classification_threshold_stability():
    rng = np.random.default_rng(31)
    fractions = []
    matrices = rng.standard_normal((20_000, 3, 3))
    spectra = [(A, np.linalg.eigvals(A)) for A in matrices]
    for factor in (1e-6, 1e-8):
        all_real = sum(
            1
            for A, eigs in spectra
            if len(classify_real(eigs, factor * np.linalg.norm(A))[0]) == 3
        )
        fractions.append(all_real / len(spectra))
    assert abs(fractions[0] - fractions[1]) < 1e-3


def test_empirical_density_bookkeeping():
    samples = [
        SpectrumSample(N=2, reals=(-0.5, 0.5), complex_upper=()),
        SpectrumSample(N=2, reals=(0.4, 5.0), complex_upper=()),
        SpectrumSample(N=2, reals=(), complex_upper=(1j,)),
    ]
    hist = empirical_density(samples, np.linspace(-1.0, 1.0, 5))
    # edges at -1, -0.5, 0, 0.5, 1; bins are closed on the left
    assert hist.counts == (0, 1, 1, 1)
    assert hist.overflow == 1
    assert hist.mean_real_count() == pytest.approx(4.0 / 3.0)
    widths = np.diff(hist.edges)
    inrange = float(hist.density() @ widths)
    assert inrange == pytest.approx(3.0 / 3.0)
    with pytest.raises(ValueError):
        EmpiricalDensity(edges=(0.0, 1.0), counts=(1, 2), overflow=0, samples=1)


def test_comparison_requires_enough_samples():
    samples, _ = goe_spectra(2, 100, seed=1)
    with pytest.raises(ValueError):
        empirical_vs_analytic(samples, beta1_even_kernel(2), bins=10)


def test_comparison_report_round_trip():
    bundle = beta1_even_kernel(2)
    samples, meta = goe_spectra(2, 10_000, seed=19)
    report = empirical_vs_analytic(samples, bundle, bins=20, meta=meta)
    assert report.flagged == ()
    assert report.mean_real_count == 2.0
    assert report.count_within and report.passed
    data = json.loads(report.as_json())
    assert data["samples"] == 10_000
    assert data["meta"]["seed"] == 19
    assert len(data["z_scores"]) == 20
    lines = report.as_csv().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,observed,expected,z"
    assert len(lines) == 21
    assert sum(report.observed) + report.overflow == 2 * 10_000


def test_expected_real_count_matches_known_values():
    # size 3 plane ensemble: 1 + 1/sqrt(2) real eigenvalues on average
    assert np.isclose(expected_real_count(ginoe_odd_kernel(3)),
                      1.0 + 1.0 / math.sqrt(2.0), rtol=1e-8, atol=0)
    bundle = beta1_even_kernel(4)
    assert np.isclose(expected_real_count(bundle), 4.0, rtol=1e-8, atol=0)


def test_pair_mass_estimate_mechanics():
    samples = [
        SpectrumSample(N=4, reals=(0.1, 0.2), complex_upper=(0.5 + 0.5j,)),
        SpectrumSample(N=4, reals=(-3.0, 0.15), complex_upper=(2.0 + 2.0j,)),
        SpectrumSample(N=4, reals=(), complex_upper=(0.4 + 0.4j, 3.0 + 1.0j)),
    ]
    box = ((0.0, 1.0), (0.0, 1.0))
    # per-sample products: 2 reals x 1 pair, 1 real x 0 pairs, 0 x 1
    mean, stderr = pair_mass_estimate(samples, (0.0, 0.3), box)
    assert mean == pytest.approx(2.0 / 3.0)
    assert stderr == pytest.approx(np.std([2.0, 0.0, 0.0], ddof=1) / math.sqrt(3.0))
    with pytest.raises(ValueError):
        pair_mass_estimate(samples, (1.0, 0.0), box)
    with pytest.raises(ValueError):
        pair_mass_estimate(samples, (0.0, 1.0), ((0.0, 1.0), (-1.0, 1.0)))
