"""Command line harness: density grids, correlations, self checks, and
Monte Carlo comparisons.

Exit codes: 0 success (and all checks passed where checks ran), 1 a
verification or comparison failed, 2 invalid configuration, 3 numerical
failure or an allocation too large for memory.  Output is deterministic
for a fixed configuration: fixed float formatting, no timestamps, seeded
randomness only.  CSV reports start with `# key=value` comment lines
echoing the configuration and the library version, then a column
header, then data rows.
"""

import argparse
import cmath
import json
import locale  # noqa: F401  argparse's gettext imports it while building the parser
import math
import sys
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from . import __version__
from .ginibre import SQRT_2PI, ginoe_gram, ginoe_norm
from .ginoe_kernels import ginoe_kernel, ginoe_rho, ginoe_summed_S, interrelations_check
from .kernels import PointConfiguration, density_integral, dyson_recurrence_check, goe_kernel, rho
from .montecarlo import (
    MIN_COMPARISON_SAMPLES,
    empirical_vs_analytic,
    ginibre_spectra,
    goe_spectra,
)
from .pfaffian import dual_block, flatten_blocks, pfaffian, pfaffian_laplace, qdet
from .reduction import verify_odd_limit_beta1, verify_odd_limit_ginoe
from .skewortho import goe_gram, goe_norm, skew_deviation

SUITES = ("pfaffian", "skew", "kernels", "reduction", "all")
PATHS = ("finite-sum", "summed-up", "both")
DEFAULT_TOLERANCES = {
    "pfaffian": 1e-10,
    "skew": 1e-12,
    "kernels": 1e-5,
    "reduction": 1e-12,
}
# relative to the GinOE kernel scale 1/sqrt(2 pi)
CLOSED_FORM_TOL = 1e-13
IDENTITY_TOL = 1e-8
MAX_CORRELATE_POINTS = 5
MAX_SIZE = 64


class ConfigError(ValueError):
    """Invalid run configuration; mapped to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    ensemble: str
    size: int
    seed: int
    out: str
    format: str
    grid: tuple = None
    path: str = "finite-sum"
    points: tuple = ()
    suite: str = "all"
    tolerances: dict = None
    samples: int = 0
    bins: int = 40

    @property
    def parity(self):
        return "even" if self.size % 2 == 0 else "odd"

    def echo(self):
        """Configuration keys in a fixed order, for report headers."""
        rows = [
            ("command", self.command),
            ("version", __version__),
            ("ensemble", self.ensemble),
            ("size", self.size),
            ("parity", self.parity),
            ("seed", self.seed),
            ("format", self.format),
        ]
        if self.command == "density":
            lo, hi, count = self.grid
            rows.append(("grid", "%s:%s:%d" % (_fmt(lo), _fmt(hi), count)))
            rows.append(("path", self.path))
        elif self.command == "correlate":
            rows.append(("points", ",".join(_fmt_point(z) for z in self.points)))
        elif self.command == "verify":
            rows.append(("suite", self.suite))
            for name in sorted(self.tolerances):
                rows.append(("tol_" + name, _fmt(self.tolerances[name])))
        elif self.command == "mc-compare":
            rows.append(("samples", self.samples))
            rows.append(("bins", self.bins))
        return rows


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return "%.17g%+.17gj" % (value.real, value.imag)
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    return str(value)


def _fmt_point(z):
    return _fmt(z.real) if z.imag == 0.0 else _fmt(z)


def _jsonable(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.integer, np.floating, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _csv_text(config, columns, rows, extra=()):
    lines = ["# %s=%s" % (k, _fmt(v)) for k, v in (*config.echo(), *extra)]
    lines.append(",".join(columns))
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _json_text(config, payload, extra=()):
    doc = {"config": {k: _jsonable(v) for k, v in config.echo()}}
    for k, v in (*extra, *payload.items()):
        doc[k] = _jsonable(v)
    return json.dumps(doc, indent=2) + "\n"


def _parse_grid(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("grid must look like min:max:count")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError("grid must look like min:max:count") from None
    if count < 2:
        raise ConfigError("grid needs at least two points")
    if not math.isfinite(hi - lo):
        raise ConfigError("grid endpoints and their span must be finite")
    if not lo < hi:
        raise ConfigError("grid minimum must lie below its maximum")
    return lo, hi, count


def _parse_points(text):
    points = []
    for token in text.split(","):
        token = token.strip()
        try:
            point = complex(token)
        except ValueError:
            raise ConfigError("cannot parse point %r" % token) from None
        if not cmath.isfinite(point):
            raise ConfigError("point %r is not finite" % token)
        points.append(point)
    if not points:
        raise ConfigError("need at least one point")
    return tuple(points)


def kernel_bundle(ensemble, size):
    """Kernel bundle for the ensemble at the given size, parity derived."""
    return {"goe": goe_kernel, "ginoe": ginoe_kernel}[ensemble](size)


def make_config(args):
    if args.size < 1:
        raise ConfigError("size must be a positive integer")
    if args.size > MAX_SIZE:
        raise ConfigError("size must be at most %d" % MAX_SIZE)
    if args.seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    command = args.command
    fields = dict(
        command=command,
        ensemble=args.ensemble,
        size=args.size,
        seed=args.seed,
        out=args.out,
        format=args.format or ("json" if command == "verify" else "csv"),
    )
    if command == "density":
        fields["grid"] = _parse_grid(args.grid)
        fields["path"] = args.path
        if args.path != "finite-sum":
            if args.ensemble != "ginoe":
                raise ConfigError("the closed-form path applies to ginoe only")
            if args.size < 2:
                raise ConfigError("the closed-form path needs size >= 2")
    elif command == "correlate":
        points = _parse_points(args.points)
        if len(points) > MAX_CORRELATE_POINTS:
            raise ConfigError(
                "at most %d points are supported" % MAX_CORRELATE_POINTS
            )
        if len(set(points)) != len(points):
            raise ConfigError("points must be distinct")
        if any(z.imag < 0 for z in points):
            raise ConfigError("complex points must lie above the real axis")
        if any(z.imag > 0 for z in points) and args.ensemble != "ginoe":
            raise ConfigError("complex points need the ginoe ensemble")
        fields["points"] = points
    elif command == "verify":
        tolerances = {
            name: getattr(args, "tol_" + name) for name in DEFAULT_TOLERANCES
        }
        if not all(0 < tol < math.inf for tol in tolerances.values()):
            raise ConfigError("tolerances must be finite and positive")
        fields["suite"] = args.suite
        fields["tolerances"] = tolerances
    elif command == "mc-compare":
        if args.samples < MIN_COMPARISON_SAMPLES:
            raise ConfigError(
                "need at least %d samples" % MIN_COMPARISON_SAMPLES
            )
        if args.bins < 2:
            raise ConfigError("need at least two bins")
        fields["samples"] = args.samples
        fields["bins"] = args.bins
    return RunConfig(**fields)


def cmd_density(config):
    """One-point density on a uniform grid."""
    lo, hi, count = config.grid
    xs = np.linspace(lo, hi, count)
    bundle = kernel_bundle(config.ensemble, config.size)
    extra = [("kernel", "%s-%s" % (config.ensemble, config.parity))]
    finite = closed = None
    if config.path != "summed-up":
        finite = [float(v) for v in np.real(bundle.scalar_kernel(xs, xs))]
    if config.path != "finite-sum":
        closed = [float(v) for v in ginoe_summed_S(config.size, xs, xs)]
    if config.path == "both":
        gap = max(abs(f - c) for f, c in zip(finite, closed))
        if gap * SQRT_2PI > CLOSED_FORM_TOL:
            raise ArithmeticError(
                "finite-sum and closed-form densities disagree by %.3e" % gap
            )
        extra.append(("path_gap", gap))
        columns = ("x", "density_finite_sum", "density_closed_form")
        series = (finite, closed)
    else:
        columns = ("x", "density")
        series = (finite if config.path == "finite-sum" else closed,)
    if config.format == "json":
        payload = {"x": list(xs)}
        payload.update(zip(columns[1:], series))
        return _json_text(config, payload, extra), 0
    rows = list(zip(xs, *series))
    return _csv_text(config, columns, rows, extra), 0


def cmd_correlate(config):
    """Correlation at explicit points, plus the assembled matrix dump."""
    reals = tuple(z.real for z in config.points if z.imag == 0.0)
    complexes = tuple(z for z in config.points if z.imag != 0.0)
    pc = PointConfiguration(reals=reals, complexes=complexes)
    bundle = kernel_bundle(config.ensemble, config.size)
    if config.ensemble == "ginoe":
        value, residue = ginoe_rho(bundle, pc)
    else:
        value, residue = float(rho(bundle, pc)), 0.0
    matrix = np.asarray(bundle.assemble(pc))
    extra = [("imag_residue", residue)]
    if config.format == "json":
        payload = {"rho": value, "matrix": matrix}
        return _json_text(config, payload, extra), 0
    rows = [("rho", "", "", value)]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            entry = matrix[i, j]
            rows.append(("matrix", i, j, complex(entry) if np.iscomplexobj(matrix) else float(entry)))
    return _csv_text(config, ("record", "row", "col", "value"), rows, extra), 0


def _check(suite, name, deviation, tolerance, **diagnostics):
    deviation = float(deviation)
    tolerance = float(tolerance)
    return {
        "suite": suite,
        "check": name,
        "deviation": deviation,
        "tolerance": tolerance,
        "passed": deviation <= tolerance,
        **diagnostics,
    }


def _random_self_dual(rng, n_blocks):
    blocks = np.zeros((n_blocks, n_blocks, 2, 2))
    for i in range(n_blocks):
        blocks[i, i] = rng.normal() * np.eye(2)
        for j in range(i + 1, n_blocks):
            b = rng.normal(size=(2, 2))
            blocks[i, j] = b
            blocks[j, i] = dual_block(b)
    return blocks


def _worst_gap(values, reference):
    return np.max(np.abs(values - reference) / np.maximum(1.0, np.abs(reference)))


def _suite_pfaffian(config):
    # every Pfaffian and determinant is taken on one stack per matrix size
    tol = config.tolerances["pfaffian"]
    rng = default_rng(config.seed)
    real, complex_, cofactor = {}, {}, {}
    for _ in range(30):
        n = 2 * int(rng.integers(1, 7))
        A = rng.standard_normal((n, n))
        real.setdefault(n, []).append(A - A.T)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        complex_.setdefault(n, []).append(B - B.T)
    for _ in range(10):
        n = 2 * int(rng.integers(1, 5))
        A = rng.standard_normal((n, n))
        cofactor.setdefault(n, []).append(A - A.T)
    worst_real, worst_complex = (
        max(_worst_gap(pfaffian(S) ** 2, np.linalg.det(S)) for S in map(np.stack, groups.values()))
        for groups in (real, complex_)
    )
    worst_cofactor = max(
        _worst_gap(pfaffian(S), pfaffian_laplace(S)) for S in map(np.stack, cofactor.values())
    )
    blocks = [_random_self_dual(rng, int(rng.integers(1, 5))) for _ in range(10)]
    worst_qdet = max(_worst_gap(qdet(B) ** 2, np.linalg.det(flatten_blocks(B))) for B in blocks)
    return [
        _check("pfaffian", "squared-vs-determinant-real", worst_real, tol),
        _check("pfaffian", "squared-vs-determinant-complex", worst_complex, tol),
        _check("pfaffian", "elimination-vs-cofactor", worst_cofactor, tol),
        _check("pfaffian", "quaternion-determinant-squared", worst_qdet, tol),
    ]


def _suite_skew(config):
    # the family's Gram, refined to the tolerance it is gated at
    tol = config.tolerances["skew"]
    gram, norm = (goe_gram, goe_norm) if config.ensemble == "goe" else (ginoe_gram, ginoe_norm)
    refined = gram(config.size, tol)
    return [
        _check(
            "skew",
            "gram-deviation",
            skew_deviation(refined.value, norm),
            tol,
            panels=refined.panels,
            refinement_difference=refined.difference,
        )
    ]


def _suite_kernels(config):
    tol = config.tolerances["kernels"]
    bundle = kernel_bundle(config.ensemble, config.size)
    if config.ensemble == "goe":
        gap = abs(density_integral(bundle) - bundle.N) / bundle.N
        worst = 0.0
        for x in (-1.1, 0.37):
            report = dyson_recurrence_check(bundle, 1, (x,))
            worst = max(worst, report["relative_deviation"])
        return [
            _check("kernels", "density-normalization", gap, tol),
            _check("kernels", "integrate-out-recurrence", worst, tol),
        ]
    relations = interrelations_check(bundle, (0.3, -0.8), (0.4 + 0.6j,))
    checks = [
        _check("kernels", "block-interrelations", max(relations.values()), tol)
    ]
    if bundle.N >= 2:
        # all pairs of a real grid across the spectrum and the same grid at +0.5i
        reals = np.linspace(-1.3, 1.3, 9) * math.sqrt(bundle.N)
        points = (reals, reals + 0.5j)
        worst = max(
            np.abs(bundle.scalar_kernel(mu[:, None], eta) - ginoe_summed_S(bundle.N, mu[:, None], eta)).max()
            for mu in points
            for eta in points
        )
        checks.append(
            _check("kernels", "closed-form-agreement", worst * SQRT_2PI, CLOSED_FORM_TOL)
        )
    return checks


def _suite_reduction(config):
    # an odd size is the target of the reduction from the even size above it
    even = config.size + config.size % 2
    verify = verify_odd_limit_beta1 if config.ensemble == "goe" else verify_odd_limit_ginoe
    report = verify(even)
    return [
        _check("reduction", "exact-limit", report.exact, config.tolerances["reduction"]),
        _check("reduction", "far-convergence", report.ratio, 1.0),
        _check("reduction", "pfaffian-identity-gap", report.identity_gap, IDENTITY_TOL),
    ]


SUITE_RUNNERS = {
    "pfaffian": _suite_pfaffian,
    "skew": _suite_skew,
    "kernels": _suite_kernels,
    "reduction": _suite_reduction,
}


def cmd_verify(config):
    """Self-check suites built from the library's own cross relations."""
    names = SUITES[:-1] if config.suite == "all" else (config.suite,)
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](config))
    failed = [c for c in checks if not c["passed"]]
    extra = [("passed", not failed), ("checks", len(checks))]
    if config.format == "csv":
        columns = ("suite", "check", "deviation", "tolerance", "passed")
        rows = [tuple(c[k] for k in columns) for c in checks]
        text = _csv_text(config, columns, rows, extra)
    else:
        text = _json_text(config, {"passed": not failed, "checks": checks})
    for c in failed:
        print(
            "verify failed: %s/%s deviation=%s tolerance=%s"
            % (c["suite"], c["check"], _fmt(c["deviation"]), _fmt(c["tolerance"])),
            file=sys.stderr,
        )
    return text, 1 if failed else 0


def cmd_mc_compare(config):
    """Sampled spectra against the analytic real-axis density."""
    sampler = ginibre_spectra if config.ensemble == "ginoe" else goe_spectra
    spectra, meta = sampler(config.size, config.samples, config.seed)
    bundle = kernel_bundle(config.ensemble, config.size)
    report = empirical_vs_analytic(spectra, bundle, bins=config.bins)
    # every draw is used as drawn, so resamples is always 0; the key stays
    # because bench/run.py parses it
    extra = [
        ("generator", meta["generator"]),
        ("resamples", 0),
        ("flagged_bins", len(report.flagged)),
        ("mean_real_count", report.mean_real_count),
        ("expected_real_count", report.expected_real_count),
        ("count_stderr", report.count_stderr),
        ("overflow", report.overflow),
        ("passed", report.passed),
    ]
    columns = ("bin_lo", "bin_hi", "observed", "expected", "z")
    series = (report.edges[:-1], report.edges[1:], report.observed, report.expected, report.z_scores)
    if config.format == "json":
        text = _json_text(config, dict(zip(columns, series)), extra)
    else:
        text = _csv_text(config, columns, zip(*series), extra)
    if not report.passed:
        print(
            "mc-compare failed: flagged_bins=%d count_deviation=%s stderr=%s"
            % (
                len(report.flagged),
                _fmt(report.count_deviation),
                _fmt(report.count_stderr),
            ),
            file=sys.stderr,
        )
    return text, 0 if report.passed else 1


COMMANDS = {
    "density": cmd_density,
    "correlate": cmd_correlate,
    "verify": cmd_verify,
    "mc-compare": cmd_mc_compare,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="betaone",
        description="Eigenvalue correlations for orthogonal-symmetry ensembles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument(
            "--ensemble",
            choices=("goe", "ginoe"),
            default="goe",
            help="ensemble family (default: goe)",
        )
        p.add_argument("--size", type=int, default=4, help="matrix size N (default: 4)")
        p.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="report format (default: csv, or json for verify)",
        )

    p = sub.add_parser("density", help="one-point density on a uniform grid")
    common(p)
    p.add_argument(
        "--grid",
        required=True,
        help="grid as min:max:count (use --grid=-4:4:81 for negative minima)",
    )
    p.add_argument(
        "--path",
        choices=PATHS,
        default="finite-sum",
        help="kernel evaluation path; closed forms are ginoe only",
    )

    p = sub.add_parser("correlate", help="correlation at explicit points")
    common(p)
    p.add_argument(
        "--points",
        required=True,
        help="comma separated points, complex entries like 0.3+0.5j"
        " (use --points=-0.5,0.5 when the first is negative)",
    )

    p = sub.add_parser("verify", help="internal consistency suites")
    common(p)
    p.add_argument(
        "--suite", choices=SUITES, default="all", help="suite name (default: all)"
    )
    for name, default in DEFAULT_TOLERANCES.items():
        p.add_argument(
            "--tol-" + name,
            type=float,
            default=default,
            dest="tol_" + name,
            help="%s suite tolerance (default: %g)" % (name, default),
        )

    p = sub.add_parser("mc-compare", help="sampled spectra against the density")
    common(p)
    p.add_argument("--samples", type=int, required=True, help="sample count, >= 10000")
    p.add_argument("--bins", type=int, default=40, help="histogram bins (default: 40)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        config = make_config(args)
        text, code = COMMANDS[config.command](config)
    except ConfigError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a grid or sample count too large to allocate
        print("out of memory: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if config.out:
        with open(config.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
