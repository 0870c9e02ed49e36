"""Tests for the even-to-odd kernel reduction.

The strongest oracle here is the exact limit: conditioned_bundle at
x_far = +inf against the independently built odd-size kernels, entry
by entry and on assembled matrices of random bulk configurations, for
every even size up to 64.  The finite-distance deviations from the same
targets must shrink along the far points on the fixed probe grid of
verify_odd_limit, and the conditioned matrix must be the Schur
complement of the far point's cell at finite distances, full and
over-full configurations included, and past the underflow of the far
point's weight.
"""

import math
import warnings

import numpy as np
import pytest

from betaone.cli import GATES, SUITES
from betaone.kernels import KernelBundle, PointConfiguration, kernel_bundle
from betaone.reduction import (
    conditioned_bundle,
    far_points,
    first_order,
    probe_configuration,
    schur_complement_gap,
    verify_odd_limit,
)
from betaone.skewortho import family_coefficients
from betaone.specfun import weighted_powers

BLOCKS = ("scalar", "derivative", "integral")
EVEN_SIZES = range(4, 65, 2)


def block_values(bundle, mu, eta):
    return {
        "scalar": bundle.scalar_kernel(mu, eta),
        "derivative": bundle.entry(0, 0, mu, eta),
        "integral": bundle.entry(1, 1, mu, eta),
    }


def schur_gap(bundle, config, x_far):
    # schur_complement_gap of the conditioned matrix on config, the far point
    # first in the extended matrix with its W row along its direction
    point = np.float64(x_far)
    far = np.stack([bundle.direction(point), bundle.rows(point)[1]])
    extended = bundle.matrix(np.concatenate([far[None], bundle.config_rows(config)]), np.array((x_far, *config.reals)))
    return schur_complement_gap(extended, conditioned_bundle(bundle, x_far).assemble(config))


def test_reduce_star_rejects_odd_bundle():
    with pytest.raises(ValueError):
        conditioned_bundle(kernel_bundle("goe", 3), 8.0)


def test_reduce_star_coincident_points_antisymmetric():
    bundle = conditioned_bundle(kernel_bundle("goe", 4), 8.0)
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
    starred = block_values(conditioned_bundle(kernel_bundle("goe", 4), 6.0), 0.5, -0.2)
    target = block_values(kernel_bundle("goe", 3), 0.5, -0.2)
    for name in BLOCKS:
        assert np.isfinite(starred[name])
        assert abs(starred[name] - target[name]) <= 0.10 * abs(target[name])


def test_reduction_identity_both_ensembles():
    # exact at any finite far point; checked where floats behave
    configs = (
        PointConfiguration(reals=(0.5,)),
        PointConfiguration(reals=(0.5, -0.2)),
    )
    bundles = [kernel_bundle("goe", 4), kernel_bundle("goe", 6), kernel_bundle("ginoe", 4), kernel_bundle("ginoe", 6)]
    for bundle in bundles:
        for config in configs:
            for far in (4.0, 6.0):
                assert schur_gap(bundle, config, far) <= GATES["schur-complement-gap"]
    with pytest.raises(ValueError):
        schur_gap(kernel_bundle("goe", 4), PointConfiguration(reals=()), 6.0)


def test_schur_gap_holds_on_over_full_configurations():
    # 7 reals and 2 complex probes plus the far point hold 12 > 10
    # eigenvalues; the Pfaffian identity's gap there read 6.3, roundoff
    # over roundoff, while the matrix identity still holds entry by entry
    grid = np.linspace(-0.9, 0.9, 7) * math.sqrt(10.0)
    crowded = PointConfiguration(reals=grid, complexes=(0.1 + 0.5j, 0.6 + 0.5j))
    assert schur_gap(kernel_bundle("ginoe", 10), crowded, 16.0) <= 1e-13
    line = PointConfiguration(reals=(-0.5, 0.1, 0.7, 1.2))
    assert schur_gap(kernel_bundle("goe", 4), line, 8.0) <= 1e-13
    # exactly N eigenvalues with the far point
    full = PointConfiguration(reals=grid, complexes=(0.1 + 0.5j,))
    assert schur_gap(kernel_bundle("ginoe", 10), full, 16.0) <= 1e-13


def test_schur_gap_holds_on_full_configurations():
    # the probe reals and the same reals at +0.5i: the Pfaffian identity
    # read 1.1e-9 at N = 22, 1.6e-10 at N = 24 and 7.8e-13 at N = 32
    for N in (22, 24, 32):
        grid = np.linspace(-0.9, 0.9, 7) * math.sqrt(N)
        full = PointConfiguration(reals=grid, complexes=grid + 0.5j)
        for far in far_points(N):
            assert schur_gap(kernel_bundle("ginoe", N), full, far) <= 1e-13, (N, far)


def test_conditioned_bundle_is_schur_complement():
    # the bordered rank-two pairing against the Schur complement of the
    # far point's cell in the extended matrix, entry by entry
    cases = (
        (kernel_bundle("goe", 6), PointConfiguration(reals=(0.5, -0.2, 1.3))),
        (kernel_bundle("ginoe", 6), PointConfiguration(reals=(0.5, -0.2), complexes=(0.3 + 0.7j,))),
    )
    for bundle, config in cases:
        for far in (4.0, 6.0, 8.0):
            # the far point first: its cell is the leading 2 x 2 block
            extended = PointConfiguration(
                reals=(far,) + config.reals, complexes=config.complexes
            )
            A = bundle.assemble(extended)
            einv = np.array([[0.0, -1.0], [1.0, 0.0]]) / A[0, 1]
            schur = A[2:, 2:] + A[2:, :2] @ einv @ A[2:, :2].T
            updated = conditioned_bundle(bundle, far).assemble(config)
            assert np.allclose(updated, schur, rtol=0, atol=1e-13 * np.abs(schur).max())


def test_reduction_holds_past_the_weight_underflow():
    # the far W row's weight e^(-far^2/2) underflows from far = 37 on; its
    # direction does not, so the update holds at any far point
    for ensemble in ("goe", "ginoe"):
        for N in (4, 64):
            even = kernel_bundle(ensemble, N)
            config = probe_configuration(even.ensemble, N)
            limit = conditioned_bundle(even, np.inf).assemble(config)
            deviations = []
            for far in (60.0, 1000.0):
                reduced = conditioned_bundle(even, far).assemble(config)
                assert np.isfinite(reduced).all(), (ensemble, N, far)
                deviations.append(np.abs(reduced - limit).max())
            assert deviations[1] < deviations[0], (ensemble, N, deviations)
            gap = schur_gap(even, config, 60.0)
            assert gap <= GATES["schur-complement-gap"], (ensemble, N, gap)


def test_zero_corner_fails_loudly(monkeypatch):
    even = kernel_bundle("goe", 4)
    for corner in (0.0, np.nan):
        monkeypatch.setattr(even, "direction", lambda x: np.full(4, corner))
        with pytest.raises(ArithmeticError, match="far point 8.0"):
            conditioned_bundle(even, 8.0)


def test_far_direction_overflow_fails_loudly():
    # the plain polynomials of the direction overflow where the top one
    # passes the largest double: at N = 200 from far = 214 on (GOE) and
    # from 302 on (GinOE); at 300 only GinOE's last recurrence step, whose
    # value goes unused, overflows, and the reduction holds there
    cases = (("goe", 256.0), ("ginoe", 400.0))
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action)
            for ensemble, far in cases:
                even = kernel_bundle(ensemble, 200)
                with pytest.raises(ArithmeticError, match=f"size 200 .* far point {far!r}"):
                    even.direction(np.float64(far))
                with pytest.raises(ArithmeticError, match=f"far point {far!r}"):
                    conditioned_bundle(even, far)
            even = kernel_bundle("ginoe", 200)
            reduced = conditioned_bundle(even, 300.0).assemble(probe_configuration("ginoe", 200))
            assert np.isfinite(reduced).all()


def test_far_direction_is_the_scaled_polynomials():
    # at the derived far points, bit for bit the polynomials over their largest entry
    for ensemble, c in (("goe", 0.5), ("ginoe", 0.0)):
        for N in (2, 4, 64, 128, 200):
            direction = kernel_bundle(ensemble, N).direction
            for far in far_points(N):
                q = weighted_powers(N, np.float64(far), 1.0, c) @ family_coefficients(N)
                assert np.array_equal(direction(np.float64(far)), q / np.abs(q).max()), (N, far)


def test_far_points_lie_past_the_edge_and_double():
    for N in range(2, 201, 2):
        points = far_points(N)
        edge = math.sqrt(2 * N)
        probes = probe_configuration("ginoe", N).reals
        assert edge < points[0] and max(probes) < points[0], N
        assert points[0] / 2 <= edge, N  # the first power of two past it
        assert points[1] == 2 * points[0] and points[2] == 2 * points[1], N
        assert math.log2(points[0]).is_integer(), N
    assert far_points(2) == (4.0, 8.0, 16.0)
    assert far_points(64) == (16.0, 32.0, 64.0)
    assert far_points(128) == far_points(200) == (32.0, 64.0, 128.0)


def test_closed_form_limit_matches_direct_odd_line_ensemble():
    for N in (4, 6, 8, 10):
        limit, odd = conditioned_bundle(kernel_bundle("goe", N), np.inf), kernel_bundle("goe", N - 1)
        for mu, eta in ((0.5, -0.2), (1.1, 0.3), (0.07, 0.07), (-1.4, 0.9)):
            lim = block_values(limit, mu, eta)
            tgt = block_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_closed_form_limit_matches_direct_odd_plane_ensemble():
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for N in (4, 6, 8, 10):
        limit, odd = conditioned_bundle(kernel_bundle("ginoe", N), np.inf), kernel_bundle("ginoe", N - 1)
        for mu, eta in ((0.3, -0.4), (0.3, 0.3), (z1, z2), (0.3, z1), (z1, 0.3)):
            lim = block_values(limit, mu, eta)
            tgt = block_values(odd, mu, eta)
            for name in BLOCKS:
                assert np.isclose(lim[name], tgt[name], rtol=1e-12, atol=1e-14)


def test_plane_ensemble_complex_sector_limit_is_tight():
    # no extra odd-size terms live on the upper half-plane pairs, so the
    # limiting update there lands on the direct odd kernel to roundoff
    limit, odd = conditioned_bundle(kernel_bundle("ginoe", 4), np.inf), kernel_bundle("ginoe", 3)
    z1, z2 = 0.2 + 0.3j, -0.5 + 0.8j
    for mu, eta in ((z1, z1), (z1, z2), (z2, z1)):
        lim = block_values(limit, mu, eta)
        tgt = block_values(odd, mu, eta)
        for name in BLOCKS:
            assert abs(lim[name] - tgt[name]) <= 1e-6 * max(abs(tgt[name]), 1e-30)


def test_finite_distance_update_approaches_closed_form_limit():
    even = kernel_bundle("goe", 4)

    def scalar(x_far):
        return conditioned_bundle(even, x_far).scalar_kernel(0.5, -0.2)

    gap_near = abs(scalar(8.0) - scalar(np.inf))
    gap_far = abs(scalar(16.0) - scalar(np.inf))
    assert gap_far < gap_near


def test_first_order_term_leaves_a_second_order_remainder():
    # A(f) = A(inf) + delta/f + O(1/f^2) on the probe rows, delta = B first_order B^T:
    # the remainder falls by 4 or more per doubling of f (4.0-5.8 at these sizes),
    # where the deviation without delta falls by about 2 (a 1/f law)
    for ensemble in ("goe", "ginoe"):
        for N in (4, 64):
            even = kernel_bundle(ensemble, N)
            config = probe_configuration(ensemble, N)
            scale = np.abs(kernel_bundle(ensemble, N - 1).assemble(config)).max()
            limit = conditioned_bundle(even, np.inf)
            rows, reals = limit.config_rows(config), np.asarray(config.reals)
            B = rows.reshape(-1, rows.shape[-1])
            delta, exact = B @ first_order(even) @ B.T, limit.matrix(rows, reals)
            deviations = [conditioned_bundle(even, f).matrix(rows, reals) - exact for f in far_points(N)]

            def ratios(term):
                rem = [np.abs(d - term / f).max() / scale for d, f in zip(deviations, far_points(N))]
                return [a / b for a, b in zip(rem, rem[1:])]

            assert min(ratios(delta)) >= 3.0, (ensemble, N, ratios(delta))
            assert min(ratios(0.0)) < 2.5, (ensemble, N, ratios(0.0))
            report = verify_odd_limit(even, kernel_bundle(ensemble, N - 1))
            assert report.c1 == np.abs(delta).max() / scale, (ensemble, N)


def test_flipped_border_sign_fails_the_checks_built_without_it(monkeypatch):
    # exact-limit compares two uses of one rule, the odd family bordered
    # through e_top and the conditioned one through M W^T, so a wrong border
    # can pass it; the checks that do not go through bordered must not.
    # The mutant flips the border's -1/2 to +1/2: v's last entry grows by
    # one, and the constant column's pairings by u / (partner . u)
    bordered = KernelBundle.bordered

    def flipped(self, u, partner, N):
        bundle = bordered(self, u, partner, N)
        upper = bundle.upper.copy()
        upper[:-1, -1] += u / (partner @ u)
        return KernelBundle(bundle.ensemble, N, bundle.C, upper)

    monkeypatch.setattr(KernelBundle, "bordered", flipped)

    def deviation(suite, ensemble, N, check):
        records = SUITES[suite](kernel_bundle(ensemble, N))
        return next(r["deviation"] for r in records if r["check"] == check)

    # the Schur complement comes from the extended matrix of the even rows
    assert deviation("reduction", "goe", 6, "schur-complement-gap") > 0.5
    assert deviation("reduction", "ginoe", 6, "schur-complement-gap") > 0.5
    # the odd kernels against the closed form and, from one integrate-out
    # pass, against the density's integral and the pair density's
    assert deviation("kernels", "goe", 5, "density-normalization") > 0.1
    assert deviation("kernels", "goe", 5, "integrate-out-recurrence") > 0.1
    assert deviation("kernels", "ginoe", 5, "closed-form-agreement") > 0.5


def check_reduction_reports(ensemble):
    for N in EVEN_SIZES:
        report = verify_odd_limit(kernel_bundle(ensemble, N), kernel_bundle(ensemble, N - 1))
        assert report.exact <= 1e-12, N
        assert report.ratio < 1.0, N
        assert report.schur_gap <= GATES["schur-complement-gap"], N


def test_line_reduction_reports_converge_monotonically():
    check_reduction_reports("goe")


def test_plane_reduction_report_converges_monotonically():
    check_reduction_reports("ginoe")


def test_reduction_gates_hold_past_the_command_line_cap():
    # on unit pair norms no factorial limits the sizes the reduction
    # reaches; with separate pair norms up to (2N)! it failed from GinOE
    # N = 112 (far-convergence 3.9) and at GOE N = 160
    for ensemble, N in (("ginoe", 112), ("ginoe", 128), ("goe", 160), ("goe", 200)):
        report = verify_odd_limit(kernel_bundle(ensemble, N), kernel_bundle(ensemble, N - 1))
        assert report.exact <= GATES["exact-limit"], (ensemble, N)
        assert report.ratio < GATES["far-convergence"], (ensemble, N)
        assert report.schur_gap <= GATES["schur-complement-gap"], (ensemble, N)


def test_exact_limit_holds_on_random_bulk_configurations():
    # the exact limit is a property of the kernels, not of the probes;
    # finite-far monotonicity is not: one entry can cross zero on the way
    rng = np.random.default_rng(20080)
    for N in EVEN_SIZES:
        edge = 0.9 * math.sqrt(N)
        for even, odd in ((kernel_bundle("goe", N), kernel_bundle("goe", N - 1)),
                          (kernel_bundle("ginoe", N), kernel_bundle("ginoe", N - 1))):
            limit = conditioned_bundle(even, np.inf)
            plane = even.ensemble == "ginoe"
            for _ in range(5):
                for n in (3, 7):
                    reals = rng.uniform(-edge, edge, n)
                    complexes = (rng.uniform(-edge, edge, n) + 1j * rng.uniform(0.1, 1.0, n)
                                 if plane else ())
                    config = PointConfiguration(reals=reals, complexes=complexes)
                    target = odd.assemble(config)
                    gap = np.abs(limit.assemble(config) - target).max()
                    assert gap <= 1e-12 * np.abs(target).max(), (even.ensemble, N, n)
