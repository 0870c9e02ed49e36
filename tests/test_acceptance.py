"""Acceptance suite: one test per release gate, run with pytest -v.

Each test pins the tolerances and the runtime budget of its gate and
prints a single PASS line on success, so the -v output reads as a
checklist.  Reference values come from independent routes: LAPACK
determinants, closed-form pair norms, quadrature of the densities, and
seeded Monte Carlo sampling.
"""

import math
import time

import numpy as np

from betaone.ginibre import (
    ginoe_gram,
    ginoe_norm,
    partition_function_check,
)
from betaone.ginoe_kernels import (
    ginoe_kernel,
    ginoe_summed_S,
    interrelations_check,
)
from betaone.kernels import (
    density_integral,
    dyson_recurrence_check,
    goe_kernel,
)
from betaone.montecarlo import (
    empirical_vs_analytic,
    ginibre_spectra,
    goe_spectra,
)
from betaone.pfaffian import (
    dual_block,
    flatten_blocks,
    pfaffian,
    pfaffian_laplace,
    qdet,
)
from betaone.reduction import (
    PointConfiguration,
    pfaffian_reduction_identity,
    factorisation_check,
    verify_odd_limit_beta1,
    verify_odd_limit_ginoe,
)
from betaone.skewortho import expected_gram, skew_deviation

SQRT_2PI = math.sqrt(2.0 * math.pi)


def report(label, detail, elapsed, budget):
    assert elapsed <= budget, f"{label} exceeded its {budget:.0f}s budget"
    print(f"{label}: PASS ({detail}, {elapsed:.1f}s)")


def relative(value, reference, floor=1e-12):
    return abs(value - reference) / max(abs(reference), floor)


def test_criterion_01_pfaffian_squared_is_determinant():
    start = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for trial in range(200):
        n = 2 * int(rng.integers(1, 11))
        A = rng.standard_normal((n, n))
        if trial % 2:
            A = A + 1j * rng.standard_normal((n, n))
        A = A - A.T
        det = np.linalg.det(A)
        worst = max(worst, relative(pfaffian(A) ** 2, det))
    assert worst <= 1e-10
    worst_laplace = 0.0
    for _ in range(50):
        n = 2 * int(rng.integers(1, 6))
        A = rng.standard_normal((n, n))
        A = A - A.T
        worst_laplace = max(
            worst_laplace, relative(pfaffian(A), pfaffian_laplace(A))
        )
    assert worst_laplace <= 1e-10
    report(
        "criterion 1 (pfaffian correctness)",
        f"squared gap {worst:.2e}, expansion gap {worst_laplace:.2e}",
        time.time() - start,
        10.0,
    )


def test_criterion_02_quaternion_determinant_squared():
    start = time.time()
    rng = np.random.default_rng(1002)
    worst = 0.0
    for trial in range(100):
        n_blocks = int(rng.integers(1, 7))
        dtype = complex if trial % 2 else float
        blocks = np.zeros((n_blocks, n_blocks, 2, 2), dtype=dtype)
        for i in range(n_blocks):
            blocks[i, i] = rng.normal() * np.eye(2)
            for j in range(i + 1, n_blocks):
                b = rng.normal(size=(2, 2))
                if dtype is complex:
                    b = b + 1j * rng.normal(size=(2, 2))
                blocks[i, j] = b
                blocks[j, i] = dual_block(b)
        det = np.linalg.det(flatten_blocks(blocks))
        worst = max(worst, relative(qdet(blocks) ** 2, det))
    assert worst <= 1e-10
    report(
        "criterion 2 (quaternion determinant identity)",
        f"worst relative gap {worst:.2e}",
        time.time() - start,
        5.0,
    )


def test_criterion_03_ginoe_skew_orthogonality():
    start = time.time()
    N = 8
    r0 = ginoe_norm(0)
    refined = ginoe_gram(N, 1e-12)
    gram = refined.value
    zeros = expected_gram(ginoe_norm, N) == 0.0
    worst_zero = np.abs(gram[zeros]).max()
    worst_norm = max(
        relative(gram[2 * j, 2 * j + 1], 2.0 * SQRT_2PI * math.gamma(2 * j + 1))
        for j in range(N // 2)
    )
    deviation = skew_deviation(gram, ginoe_norm)
    assert worst_zero <= 1e-12 * r0
    assert worst_norm <= 1e-13
    assert deviation <= 1e-12
    report(
        "criterion 3 (ginoe skew-orthogonality)",
        f"zero pairings {worst_zero:.2e}, norm gap {worst_norm:.2e},"
        f" Gram deviation {deviation:.2e} on {refined.panels} panels",
        time.time() - start,
        60.0,
    )


def test_criterion_04_partition_function_normalization():
    start = time.time()
    worst = max(abs(partition_function_check(N) - 1.0) for N in (2, 3, 4))
    assert worst <= 1e-13
    report(
        "criterion 4 (prefactor times Gram pfaffian)",
        f"worst gap from 1 is {worst:.2e}",
        time.time() - start,
        60.0,
    )


def test_criterion_05_density_normalization():
    start = time.time()
    worst = 0.0
    for N in (2, 3, 4, 5):
        worst = max(worst, relative(density_integral(goe_kernel(N)), N))
    assert worst <= 1e-5
    report(
        "criterion 5 (density integrates to N)",
        f"worst relative gap {worst:.2e}",
        time.time() - start,
        30.0,
    )


def test_criterion_06_integrate_out_recurrence():
    start = time.time()
    probes = (-1.5, -0.6, 0.0, 0.8, 1.7)
    worst = 0.0
    for N in (3, 4, 5, 6):
        bundle = goe_kernel(N)
        for x in probes:
            check = dyson_recurrence_check(bundle, 1, (x,))
            worst = max(worst, check["relative_deviation"])
    assert worst <= 1e-5
    report(
        "criterion 6 (pair density integrates down)",
        f"worst relative gap {worst:.2e}",
        time.time() - start,
        60.0,
    )


def test_criterion_07_even_to_odd_reduction():
    start = time.time()
    reports = [
        (label, N, verify(N))
        for label, verify in (("beta1", verify_odd_limit_beta1), ("ginoe", verify_odd_limit_ginoe))
        for N in range(4, 65, 2)
    ]
    for label, N, rep in reports:
        assert rep.exact <= 1e-12, (label, N)
        assert rep.ratio < 1.0, (label, N)
        assert rep.identity_gap <= 1e-8, (label, N)
    # the pre-limit identity also holds for two-point configurations
    worst_identity = 0.0
    config = PointConfiguration(reals=(0.5, -0.2))
    for bundle in (goe_kernel(4), goe_kernel(6), ginoe_kernel(4)):
        worst_identity = max(
            worst_identity, pfaffian_reduction_identity(bundle, config, 6.0)
        )
    assert worst_identity <= 1e-8
    report(
        "criterion 7 (even to odd reduction)",
        f"N=4..64: worst exact limit {max(rep.exact for *_, rep in reports):.1e},"
        f" far ratio {max(rep.ratio for *_, rep in reports):.2f},"
        f" identity gap {max(worst_identity, *(rep.identity_gap for *_, rep in reports)):.1e}",
        time.time() - start,
        120.0,
    )


def test_criterion_08_summed_kernels_match_finite_sums():
    start = time.time()
    shifts = np.linspace(-1.9, 1.9, 20)
    worst = 0.0
    for N in (4, 5):
        bundle = ginoe_kernel(N)
        for t in shifts:
            probes = {
                "rr": (t, 0.3 - 0.4 * t),
                "rc": (t, 0.2 * t + 0.6j),
                "cr": (0.2 * t + 0.6j, t),
                "cc": (0.5 * t + 0.5j, -0.4 * t + 0.9j),
            }
            for mu, eta in probes.values():
                finite = bundle.scalar_kernel(mu, eta)
                closed = ginoe_summed_S(N, mu, eta)
                worst = max(worst, abs(finite - closed) / max(abs(closed), 1e-10))
    assert worst <= 1e-8
    report(
        "criterion 8 (closed forms for both parities)",
        f"worst relative gap {worst:.2e} over 20-point grids",
        time.time() - start,
        30.0,
    )


def test_criterion_09_block_interrelations():
    start = time.time()
    rng = np.random.default_rng(1009)
    worst = 0.0
    for N in (4, 5):
        bundle = ginoe_kernel(N)
        reals = tuple(rng.uniform(-2.0, 2.0, size=5))
        complexes = tuple(
            complex(u, v)
            for u, v in zip(
                rng.uniform(-1.5, 1.5, size=5), rng.uniform(0.2, 1.4, size=5)
            )
        )
        relations = interrelations_check(bundle, reals, complexes)
        worst = max(worst, max(relations.values()))
    assert worst <= 1e-5
    report(
        "criterion 9 (derivative and integral relations)",
        f"worst deviation {worst:.2e} at 10 random points per size",
        time.time() - start,
        30.0,
    )


def test_criterion_10_monte_carlo_ground_truth():
    start = time.time()
    runs = (
        (ginibre_spectra, 3, ginoe_kernel(3), 2101),
        (ginibre_spectra, 4, ginoe_kernel(4), 2102),
        (goe_spectra, 3, goe_kernel(3), 2103),
    )
    details = []
    for sampler, N, bundle, seed in runs:
        samples, meta = sampler(N, 100_000, seed)
        comparison = empirical_vs_analytic(samples, bundle, bins=40)
        assert comparison.flagged == (), (meta["ensemble"], N)
        assert comparison.count_within, (meta["ensemble"], N)
        details.append(
            "%s N=%d worst |z|=%.2f"
            % (meta["ensemble"], N, max(abs(z) for z in comparison.z_scores))
        )
    report(
        "criterion 10 (sampled spectra match kernels)",
        "; ".join(details),
        time.time() - start,
        600.0,
    )


def test_criterion_11_factorisation_ratio():
    start = time.time()
    config = PointConfiguration(reals=(0.07,))
    gaps = {
        "beta1": abs(
            factorisation_check(goe_kernel(4), goe_kernel(3), config, 10.0) - 1.0
        ),
        "ginoe": abs(
            factorisation_check(ginoe_kernel(4), ginoe_kernel(3), config, 10.0) - 1.0
        ),
    }
    assert all(gap <= 1e-2 for gap in gaps.values()), gaps
    report(
        "criterion 11 (conditioned correlation factorises)",
        ", ".join(f"{k} ratio gap {v:.2e}" for k, v in gaps.items()),
        time.time() - start,
        60.0,
    )
