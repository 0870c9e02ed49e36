"""Acceptance suite: one test per release gate, run with pytest -v.

Each test pins the tolerances and the runtime budget of its gate and
prints a single PASS line on success, so the -v output reads as a
checklist.  Reference values come from independent routes: LAPACK
determinants, closed-form pair norms, quadrature of the densities, and
seeded Monte Carlo sampling.
"""

import math
import time
from functools import partial

import numpy as np

from betaone.cli import GATES
from betaone.ginibre import (
    ginoe_gram,
    ginoe_summed_S,
    partition_function_check,
)
from betaone.kernels import (
    density_integral,
    dyson_recurrence_check,
    interrelations_check,
    kernel_bundle,
)
from betaone.montecarlo import (
    empirical_vs_analytic,
    ginibre_tallies,
    goe_tallies,
)
from betaone.pfaffian import (
    pfaffian,
    pfaffian_laplace,
    standard_pairing,
)
from betaone.reduction import (
    PointConfiguration,
    conditioned_bundle,
    probe_configuration,
    verify_odd_limit,
)
from betaone.skewortho import skew_deviation

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
    # the kernel matrix A is antisymmetric bit for bit, so A Z is self-dual
    # (Z = J^-1) and its quaternion determinant is Pf(A): the identity
    # (quaternion determinant)^2 = det is Pf^2 = det on the matrices the
    # library assembles, checked on every window of k consecutive probe
    # points as verify checks it
    start = time.time()
    worst = 0.0
    for ensemble in ("goe", "ginoe"):
        for N in (2, 8, 32, 64):
            bundle = kernel_bundle(ensemble, N)
            probe = probe_configuration(bundle.ensemble, N + N % 2)
            A = bundle.assemble(probe)
            assert np.array_equal(A, -A.T), (bundle.ensemble, N)
            k = max(1, min(6, N // (4 if probe.complexes else 2)))
            cells = np.arange(len(probe) - k + 1)[:, None] + np.arange(k)
            rows = (2 * cells[:, :, None] + np.arange(2)).reshape(len(cells), 2 * k)
            S = A[rows[:, :, None], rows[:, None, :]]
            det = np.linalg.det(S)
            worst = max(worst, np.max(np.abs(pfaffian(S) ** 2 - det) / np.abs(det)))
    assert worst <= 1e-12
    report(
        "criterion 2 (quaternion determinant identity)",
        f"worst relative gap {worst:.2e}",
        time.time() - start,
        5.0,
    )


def test_criterion_03_ginoe_skew_orthogonality():
    start = time.time()
    N = 8
    # the monic family's Gram is the normalized one's times sqrt(r_j r_k),
    # r_j the pair norm 2 sqrt(2pi) (2m)! of the pair m = j // 2 holding j
    norms = [2.0 * SQRT_2PI * math.factorial(2 * (j // 2)) for j in range(N)]
    r0 = norms[0]
    gram = ginoe_gram(N) * np.sqrt(np.outer(norms, norms))
    zeros = standard_pairing(N) == 0.0
    worst_zero = np.abs(gram[zeros]).max()
    worst_norm = max(
        relative(gram[2 * j, 2 * j + 1], 2.0 * SQRT_2PI * math.gamma(2 * j + 1))
        for j in range(N // 2)
    )
    deviation = skew_deviation(ginoe_gram(N))
    assert worst_zero <= 1e-12 * r0
    assert worst_norm <= 1e-13
    assert deviation <= 1e-12
    report(
        "criterion 3 (ginoe skew-orthogonality)",
        f"zero pairings {worst_zero:.2e}, norm gap {worst_norm:.2e},"
        f" Gram deviation {deviation:.2e}",
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
        worst = max(worst, relative(density_integral(kernel_bundle("goe", N)), N))
    assert worst <= 1e-14
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
        for check in dyson_recurrence_check(kernel_bundle("goe", N), [(x,) for x in probes]):
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
        (label, N, verify_odd_limit(kernel_bundle(ensemble, N), kernel_bundle(ensemble, N - 1)))
        for label, ensemble in (("beta1", "goe"), ("ginoe", "ginoe"))
        for N in range(4, 65, 2)
    ]
    for label, N, rep in reports:
        assert rep.exact <= 1e-12, (label, N)
        assert rep.ratio < 1.0, (label, N)
        assert rep.schur_gap <= 1e-13, (label, N)
    # the pre-limit Pfaffian identity Pf[extended] = corner * Pf[conditioned]
    # for two-point configurations, the far point's cell at rows 4 and 5
    worst_identity = 0.0
    config = PointConfiguration(reals=(0.5, -0.2))
    for bundle in (kernel_bundle("goe", 4), kernel_bundle("goe", 6), kernel_bundle("ginoe", 4)):
        extended = bundle.assemble(PointConfiguration(reals=config.reals + (6.0,)))
        lhs = pfaffian(extended)
        rhs = extended[4, 5] * pfaffian(conditioned_bundle(bundle, 6.0).assemble(config))
        worst_identity = max(worst_identity, abs(lhs - rhs) / abs(lhs))
    assert worst_identity <= 1e-8
    report(
        "criterion 7 (even to odd reduction)",
        f"N=4..64: worst exact limit {max(rep.exact for *_, rep in reports):.1e},"
        f" far ratio {max(rep.ratio for *_, rep in reports):.2f},"
        f" Schur gap {max(rep.schur_gap for *_, rep in reports):.1e},"
        f" two-point Pfaffian identity gap {worst_identity:.1e}",
        time.time() - start,
        120.0,
    )


def test_criterion_08_summed_kernels_match_finite_sums():
    start = time.time()
    shifts = np.linspace(-1.9, 1.9, 20)
    worst = 0.0
    for N in (4, 5):
        bundle = kernel_bundle("ginoe", N)
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
        # random reals in any order: the check sorts them
        reals = tuple(rng.uniform(-2.0, 2.0, size=5))
        complexes = tuple(
            complex(u, v)
            for u, v in zip(
                rng.uniform(-1.5, 1.5, size=5), rng.uniform(0.2, 1.4, size=5)
            )
        )
        for relations in (
            interrelations_check(kernel_bundle("goe", N), reals),
            interrelations_check(kernel_bundle("ginoe", N), reals, complexes),
        ):
            worst = max(worst, max(relations.values()))
    assert worst <= GATES["block-interrelations"]
    report(
        "criterion 9 (derivative and integral relations)",
        f"worst deviation {worst:.2e} at 10 random points per size, GOE and GinOE",
        time.time() - start,
        30.0,
    )


def test_criterion_10_monte_carlo_ground_truth():
    start = time.time()
    runs = (
        (ginibre_tallies, 3, kernel_bundle("ginoe", 3), 2101),
        (ginibre_tallies, 4, kernel_bundle("ginoe", 4), 2102),
        (goe_tallies, 3, kernel_bundle("goe", 3), 2103),
    )
    details = []
    for sampler, N, bundle, seed in runs:
        # the block stream mc-compare reads
        comparison = empirical_vs_analytic(partial(sampler, N, 100_000, seed), bundle, bins=40)
        assert comparison.flagged == (), (bundle.ensemble, N)
        assert comparison.count_within, (bundle.ensemble, N)
        details.append(
            "%s N=%d worst |z|=%.2f"
            % (bundle.ensemble, N, max(abs(z) for z in comparison.z_scores))
        )
    report(
        "criterion 10 (sampled spectra match kernels)",
        "; ".join(details),
        time.time() - start,
        600.0,
    )


def test_criterion_11_factorisation_ratio():
    # Pf[extended] = corner * Pf[conditioned] (criterion 7), so the
    # conditioned correlation over the odd target is the joint one over
    # (one-point weight times target)
    start = time.time()
    config = PointConfiguration(reals=(0.07,))
    gaps = {}
    for label, ensemble in (("beta1", "goe"), ("ginoe", "ginoe")):
        conditioned = pfaffian(conditioned_bundle(kernel_bundle(ensemble, 4), 10.0).assemble(config))
        gaps[label] = abs(conditioned / pfaffian(kernel_bundle(ensemble, 3).assemble(config)) - 1.0)
    assert all(gap <= 1e-2 for gap in gaps.values()), gaps
    report(
        "criterion 11 (conditioned correlation factorises)",
        ", ".join(f"{k} ratio gap {v:.2e}" for k, v in gaps.items()),
        time.time() - start,
        60.0,
    )
