"""Tests for the even-to-odd kernel reduction.

The strongest oracle here is the exact limit: conditioned_bundle at
x_far = +inf against the independently built odd-size kernels, entry
by entry and on assembled matrices of random bulk configurations, for
every even size up to 64.  The finite-distance deviations from the same
targets must shrink along the far points on the fixed probe grid of
verify_odd_limit, and the exact Pfaffian factorisation identity is
checked at finite distances.
"""

import math

import numpy as np
import pytest

from betaone.ginoe_kernels import ginoe_even_kernel, ginoe_odd_kernel
from betaone.kernels import PointConfiguration, beta1_even_kernel, beta1_odd_kernel
from betaone.pfaffian import pfaffian
from betaone.reduction import (
    asymptotic_forms,
    conditioned_bundle,
    factorisation_check,
    integral_far_limit,
    pfaffian_reduction_identity,
    scalar_far_limit,
    verify_odd_limit_beta1,
    verify_odd_limit_ginoe,
)
from betaone.reduction import _cell_last

BLOCKS = ("scalar", "derivative", "integral")
EVEN_SIZES = range(4, 65, 2)

even_bundle, odd_bundle = beta1_even_kernel, beta1_odd_kernel


def block_values(bundle, mu, eta):
    return {
        "scalar": bundle.scalar_kernel(mu, eta),
        "derivative": bundle.derivative_kernel(mu, eta),
        "integral": bundle.integral_kernel(mu, eta),
    }


def test_reduce_star_rejects_odd_bundle():
    with pytest.raises(ValueError):
        conditioned_bundle(odd_bundle(3), 8.0)


def test_reduce_star_coincident_points_antisymmetric():
    bundle = conditioned_bundle(even_bundle(4), 8.0)
    for x in (-0.6, 0.0, 0.9):
        entry = block_values(bundle, x, x)
        assert abs(entry["derivative"]) <= 1e-10
        assert abs(entry["integral"]) <= 1e-10
    # swapped arguments flip the sign of the off-diagonal blocks
    fwd = block_values(bundle, 0.5, -0.2)
    rev = block_values(bundle, -0.2, 0.5)
    assert abs(fwd["derivative"] + rev["derivative"]) <= 1e-10
    assert abs(fwd["integral"] + rev["integral"]) <= 1e-10


def test_starred_entries_near_target_at_moderate_distance():
    starred = block_values(conditioned_bundle(even_bundle(4), 6.0), 0.5, -0.2)
    target = block_values(odd_bundle(3), 0.5, -0.2)
    for name in BLOCKS:
        assert np.isfinite(starred[name])
        assert abs(starred[name] - target[name]) <= 0.10 * abs(target[name])


def test_reduction_identity_both_ensembles():
    # exact at any finite far point; checked where floats behave
    configs = (
        PointConfiguration(reals=(0.5,)),
        PointConfiguration(reals=(0.5, -0.2)),
    )
    bundles = [even_bundle(4), even_bundle(6), ginoe_even_kernel(4), ginoe_even_kernel(6)]
    for bundle in bundles:
        for config in configs:
            for far in (4.0, 6.0):
                assert pfaffian_reduction_identity(bundle, config, far) <= 1e-8


def test_conditioned_bundle_is_schur_complement():
    # the bordered rank-two pairing against the Schur complement of the
    # far point's cell in the extended matrix, entry by entry
    cases = (
        (even_bundle(6), PointConfiguration(reals=(0.5, -0.2, 1.3))),
        (ginoe_even_kernel(6), PointConfiguration(reals=(0.5, -0.2), complexes=(0.3 + 0.7j,))),
    )
    for bundle, config in cases:
        for far in (4.0, 6.0, 8.0):
            extended = PointConfiguration(
                reals=config.reals + (far,), complexes=config.complexes
            )
            A = _cell_last(bundle.assemble(extended), len(config.reals), len(extended))
            m = A.shape[0] - 2
            einv = np.array([[0.0, -1.0], [1.0, 0.0]]) / A[m, m + 1]
            schur = A[:m, :m] + A[:m, m:] @ einv @ A[:m, m:].T
            updated = conditioned_bundle(bundle, far).assemble(config)
            assert np.allclose(updated, schur, rtol=0, atol=1e-13 * np.abs(schur).max())


def test_identity_fails_loudly_when_corner_underflows():
    with pytest.raises(ArithmeticError):
        conditioned_bundle(even_bundle(4), 60.0)


def test_closed_form_limit_matches_direct_odd_line_ensemble():
    for N in (4, 6, 8, 10):
        limit, odd = conditioned_bundle(even_bundle(N), np.inf), odd_bundle(N - 1)
        for mu, eta in ((0.5, -0.2), (1.1, 0.3), (0.07, 0.07), (-1.4, 0.9)):
            lim = block_values(limit, mu, eta)
            tgt = block_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_closed_form_limit_matches_direct_odd_plane_ensemble():
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for N in (4, 6, 8, 10):
        limit, odd = conditioned_bundle(ginoe_even_kernel(N), np.inf), ginoe_odd_kernel(N - 1)
        for mu, eta in ((0.3, -0.4), (0.3, 0.3), (z1, z2), (0.3, z1), (z1, 0.3)):
            lim = block_values(limit, mu, eta)
            tgt = block_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_plane_ensemble_complex_sector_limit_is_tight():
    # no extra odd-size terms live on the upper half-plane pairs, so the
    # limiting update there lands on the direct odd kernel to roundoff
    limit, odd = conditioned_bundle(ginoe_even_kernel(4), np.inf), ginoe_odd_kernel(3)
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for mu, eta in ((z1, z1), (z1, z2), (z2, z1)):
        lim = block_values(limit, mu, eta)
        tgt = block_values(odd, mu, eta)
        for name in BLOCKS:
            assert abs(lim[name] - tgt[name]) <= 1e-6 * max(abs(tgt[name]), 1e-30)


def test_finite_distance_update_approaches_closed_form_limit():
    even = even_bundle(4)

    def scalar(x_far):
        return conditioned_bundle(even, x_far).scalar_kernel(0.5, -0.2)

    gap_near = abs(scalar(8.0) - scalar(np.inf))
    gap_far = abs(scalar(16.0) - scalar(np.inf))
    assert gap_far < gap_near


def test_cell_move_keeps_pfaffian():
    bundle = even_bundle(4)
    config = PointConfiguration(reals=(0.3, -0.7, 1.1))
    A = bundle.assemble(config)
    base = pfaffian(A)
    for cell in range(3):
        moved = pfaffian(_cell_last(A, cell, 3))
        assert np.isclose(moved, base, rtol=1e-12, atol=1e-300)


def check_reduction_reports(verify):
    for N in EVEN_SIZES:
        report = verify(N)
        assert report.exact <= 1e-12, N
        assert report.ratio < 1.0, N
        assert report.identity_gap <= 1e-8, N


def test_line_reduction_reports_converge_monotonically():
    check_reduction_reports(verify_odd_limit_beta1)


def test_plane_reduction_report_converges_monotonically():
    check_reduction_reports(verify_odd_limit_ginoe)


def test_exact_limit_holds_on_random_bulk_configurations():
    # the exact limit is a property of the kernels, not of the probes;
    # finite-far monotonicity is not: one entry can cross zero on the way
    rng = np.random.default_rng(20080)
    for N in EVEN_SIZES:
        edge = 0.9 * math.sqrt(N)
        for even, odd in ((even_bundle(N), odd_bundle(N - 1)),
                          (ginoe_even_kernel(N), ginoe_odd_kernel(N - 1))):
            limit = conditioned_bundle(even, np.inf)
            plane = even.family.layout == "plane"
            for _ in range(5):
                for n in (3, 7):
                    reals = rng.uniform(-edge, edge, n)
                    complexes = (rng.uniform(-edge, edge, n) + 1j * rng.uniform(0.1, 1.0, n)
                                 if plane else ())
                    config = PointConfiguration(reals=reals, complexes=complexes)
                    target = odd.assemble(config)
                    gap = np.abs(limit.assemble(config) - target).max()
                    assert gap <= 1e-12 * np.abs(target).max(), (even.ensemble, N, n)


def test_far_limits_are_saturation_values():
    even = even_bundle(4)
    for x in (-0.8, 0.1, 1.3):
        assert np.isclose(even.scalar_kernel(20.0, x), scalar_far_limit(even, x),
                          rtol=0, atol=1e-12)
        assert np.isclose(even.integral_kernel(x, 20.0), integral_far_limit(even, x),
                          rtol=0, atol=1e-12)
    geven = ginoe_even_kernel(4)
    for x in (-0.8, 0.1, 0.2 + 0.3j):
        assert np.isclose(geven.scalar_kernel(x, 20.0), scalar_far_limit(geven, x),
                          rtol=0, atol=1e-12)
        assert np.isclose(geven.integral_kernel(x, 20.0), integral_far_limit(geven, x),
                          rtol=0, atol=1e-12)


def test_far_limit_helpers_reject_odd_bundles():
    with pytest.raises(ValueError):
        scalar_far_limit(odd_bundle(3), 0.1)
    with pytest.raises(ValueError):
        integral_far_limit(odd_bundle(3), 0.1)


def test_asymptotic_forms_ratios_settle():
    even = even_bundle(4)
    gaps = [abs(asymptotic_forms(even, 0.5, xm)["derivative_probe_far"].ratio - 1.0)
            for xm in (4.0, 6.0, 8.0, 10.0)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    corner = asymptotic_forms(even, 0.5, 10.0)["scalar_far_far"]
    assert corner.exact * corner.leading > 0
    assert abs(corner.ratio - 1.0) < 0.05
    i_near = asymptotic_forms(even, 0.5, 10.0)["integral_probe_far"].exact
    i_far = asymptotic_forms(even, 0.5, 14.0)["integral_probe_far"].exact
    assert abs(i_near - i_far) <= 1e-6


def test_asymptotic_forms_guard_rails():
    with pytest.raises(ValueError):
        asymptotic_forms(ginoe_even_kernel(4), 0.5, 10.0)
    with pytest.raises(ValueError):
        asymptotic_forms(even_bundle(4), 0.5, 3.0)


def test_factorisation_single_point_is_exact():
    empty = PointConfiguration(reals=())
    assert factorisation_check(even_bundle(4), odd_bundle(3), empty, 8.0) == 1.0


def test_factorisation_two_point_both_ensembles():
    config = PointConfiguration(reals=(0.07,))
    for even, odd in ((even_bundle(4), odd_bundle(3)),
                      (ginoe_even_kernel(4), ginoe_odd_kernel(3))):
        gaps = [abs(factorisation_check(even, odd, config, far) - 1.0)
                for far in (6.0, 8.0, 10.0)]
        assert gaps[-1] <= 1e-2
        assert all(b <= a for a, b in zip(gaps, gaps[1:]))


def test_factorisation_rejects_too_many_probes():
    config = PointConfiguration(reals=(0.1, 0.2, 0.3, 0.4))
    with pytest.raises(ValueError):
        factorisation_check(even_bundle(6), odd_bundle(5), config, 8.0)


def test_conditioning_odd_size_recovers_even_target():
    # the reduction chain closes: conditioning the odd-size ensemble on a
    # far eigenvalue walks back down to the even size below it
    config = PointConfiguration(reals=(0.5,))
    for joint, reduced, tol in ((odd_bundle(5), even_bundle(4), 4e-3),
                                (ginoe_odd_kernel(3), ginoe_even_kernel(2), 2e-2)):
        gaps = [abs(factorisation_check(joint, reduced, config, far) - 1.0)
                for far in (6.0, 8.0, 10.0, 12.0)]
        assert max(gaps) <= tol
