"""Tests for the even-to-odd kernel reduction.

The strongest oracle here is the closed-form limit: every far-point
factor in the Schur update either decays like the weight or saturates
at a half-moment, so the limiting blocks can be written down exactly
and compared against the independently built odd-size kernels.  The
finite-distance behaviour is checked against those same targets on a
schedule of conditioning points, and the exact Pfaffian factorisation
identity is verified at a moderate distance where the extended matrix
keeps its small entries above roundoff.
"""

import json

import numpy as np
import pytest

from betaone.ginoe_kernels import ginoe_even_kernel, ginoe_odd_kernel
from betaone.kernels import PointConfiguration, beta1_even_kernel, beta1_odd_kernel
from betaone.pfaffian import pfaffian
from betaone.reduction import (
    BETA1_PROBES,
    DEFAULT_SCHEDULE,
    GINOE_PROBES,
    asymptotic_forms,
    block_deviations,
    conditioned_bundle,
    factorisation_check,
    integral_far_limit,
    pfaffian_reduction_identity,
    reduce_star,
    reduce_star_limit,
    scalar_far_limit,
    starred_blocks,
    target_blocks,
    verify_odd_limit_beta1,
    verify_odd_limit_ginoe,
)
from betaone.reduction import _cell_last

BLOCKS = ("scalar", "derivative", "integral")

even_bundle, odd_bundle = beta1_even_kernel, beta1_odd_kernel


def odd_values(bundle, mu, eta):
    return {
        "scalar": bundle.scalar_kernel(mu, eta),
        "derivative": bundle.derivative_kernel(mu, eta),
        "integral": bundle.integral_kernel(mu, eta),
    }


def test_reduce_star_rejects_odd_bundle():
    with pytest.raises(ValueError):
        reduce_star(odd_bundle(3), 0.1, 0.2, 8.0)


def test_reduce_star_coincident_points_antisymmetric():
    bundle = even_bundle(4)
    for x in (-0.6, 0.0, 0.9):
        entry = reduce_star(bundle, x, x, 8.0)
        assert abs(entry["derivative"]) <= 1e-10
        assert abs(entry["integral"]) <= 1e-10
    # swapped arguments flip the sign of the off-diagonal blocks
    fwd = reduce_star(bundle, 0.5, -0.2, 8.0)
    rev = reduce_star(bundle, -0.2, 0.5, 8.0)
    assert abs(fwd["derivative"] + rev["derivative"]) <= 1e-10
    assert abs(fwd["integral"] + rev["integral"]) <= 1e-10


def test_starred_entries_near_target_at_moderate_distance():
    starred = reduce_star(even_bundle(4), 0.5, -0.2, 6.0)
    target = odd_values(odd_bundle(3), 0.5, -0.2)
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
        reduce_star(even_bundle(4), 0.1, 0.2, 60.0)


def test_closed_form_limit_matches_direct_odd_line_ensemble():
    for N in (4, 6, 8, 10):
        even, odd = even_bundle(N), odd_bundle(N - 1)
        for mu, eta in ((0.5, -0.2), (1.1, 0.3), (0.07, 0.07), (-1.4, 0.9)):
            lim = reduce_star_limit(even, mu, eta)
            tgt = odd_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_closed_form_limit_matches_direct_odd_plane_ensemble():
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for N in (4, 6, 8, 10):
        even, odd = ginoe_even_kernel(N), ginoe_odd_kernel(N - 1)
        for mu, eta in ((0.3, -0.4), (0.3, 0.3), (z1, z2), (0.3, z1), (z1, 0.3)):
            lim = reduce_star_limit(even, mu, eta)
            tgt = odd_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_plane_ensemble_complex_sector_limit_is_tight():
    # no extra odd-size terms live on the upper half-plane pairs, so the
    # limiting update there lands on the direct odd kernel to roundoff
    even, odd = ginoe_even_kernel(4), ginoe_odd_kernel(3)
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for mu, eta in ((z1, z1), (z1, z2), (z2, z1)):
        lim = reduce_star_limit(even, mu, eta)
        tgt = odd_values(odd, mu, eta)
        for name in BLOCKS:
            assert abs(lim[name] - tgt[name]) <= 1e-6 * max(abs(tgt[name]), 1e-30)


def test_finite_distance_update_approaches_closed_form_limit():
    even = even_bundle(4)
    lim = reduce_star_limit(even, 0.5, -0.2)
    gap_near = abs(reduce_star(even, 0.5, -0.2, 8.0)["scalar"] - lim["scalar"])
    gap_far = abs(reduce_star(even, 0.5, -0.2, 16.0)["scalar"] - lim["scalar"])
    assert gap_far < gap_near


def test_cell_move_keeps_pfaffian():
    bundle = even_bundle(4)
    config = PointConfiguration(reals=(0.3, -0.7, 1.1))
    A = bundle.assemble(config)
    base = pfaffian(A)
    for cell in range(3):
        moved = pfaffian(_cell_last(A, cell, 3))
        assert np.isclose(moved, base, rtol=1e-12, atol=1e-300)


def test_block_tables_and_worst_deviations():
    even, odd = even_bundle(4), odd_bundle(3)
    config = PointConfiguration(reals=(0.5, -0.2))
    devs = block_deviations(starred_blocks(even, config, 8.0), target_blocks(odd, config))
    assert devs["tracked"] == devs["scalar"]
    for name in BLOCKS:
        assert 0.0 < devs[name] < 0.1


def test_line_reduction_reports_converge_monotonically():
    for N in (4, 6):
        report = verify_odd_limit_beta1(N)
        assert report.schedule == DEFAULT_SCHEDULE
        assert report.monotone
        assert report.final_deviation <= 1e-3
        assert report.identity_gap <= 1e-8
        tracked = [row["tracked"] for row in report.per_far]
        assert tracked[0] > tracked[-1]


def test_plane_reduction_report_converges_monotonically():
    report = verify_odd_limit_ginoe(4)
    assert report.monotone
    assert report.final_deviation <= 1e-3
    assert report.identity_gap <= 1e-8


def test_report_json_and_csv_round_trip():
    report = verify_odd_limit_beta1(4)
    data = json.loads(report.as_json())
    assert data["size"] == 4 and data["target_size"] == 3
    assert data["probes_real"] == [pytest.approx(BETA1_PROBES[4].reals[0])]
    assert len(data["per_far"]) == len(DEFAULT_SCHEDULE)
    last = data["per_far"][-1]
    assert last["tracked"] == pytest.approx(report.final_deviation)
    # single probe point: no off-diagonal entries to compare
    assert last["worst"]["derivative"] is None
    lines = report.as_csv().strip().splitlines()
    assert lines[0] == "far,block,row,col,deviation"
    assert len(lines) == 1 + len(DEFAULT_SCHEDULE)
    far, block, i, j, dev = lines[-1].split(",")
    assert block == "scalar" and float(dev) == pytest.approx(report.final_deviation)


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
                for far in DEFAULT_SCHEDULE]
        assert max(gaps) <= tol


def test_default_probe_tables():
    assert set(BETA1_PROBES) == {4, 6}
    assert GINOE_PROBES.reals == (0.3, -0.4)
    assert GINOE_PROBES.complexes == ()
