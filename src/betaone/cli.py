"""Command line harness: density grids, correlations, self checks, and
Monte Carlo comparisons.

Exit codes: 0 success (and all checks passed where checks ran), 1 a
verification or comparison failed, 2 invalid configuration or an
`--out` path that cannot be written, 3 numerical
failure or an allocation too large for memory.  Output is deterministic
for a fixed configuration: fixed float formatting, no timestamps, seeded
randomness only.  CSV reports start with
`# key=value` comment lines echoing the configuration and the library
version, then a column header, then data rows.
"""

import cmath
import json
import math
import sys
from functools import partial
from types import SimpleNamespace

import numpy as np

from . import __version__
from .ginibre import SQRT_2PI, ginoe_summed_S
from .kernels import PointConfiguration, dyson_recurrence_check, interrelations_check, kernel_bundle
from .montecarlo import GENERATOR, MIN_COMPARISON_SAMPLES, empirical_vs_analytic, ginibre_tallies, goe_tallies
from .pfaffian import pfaffian, pfaffian_laplace
from .reduction import probe_configuration, verify_odd_limit
from .skewortho import skew_deviation

PATHS = ("finite-sum", "summed-up", "both")
# The bound on each verify check's deviation, with the worst reading over
# N = 1..64 in both ensembles.
GATES = {
    # relative to the determinant and to the matching sum
    "squared-vs-determinant": 1e-12,  # 8.5e-15 (GinOE N = 13)
    "elimination-vs-cofactor": 1e-12,  # 5.6e-15 (GinOE N = 13)
    "gram-deviation": 1e-13,  # 2.7e-15 (GinOE N = 55)
    "density-normalization": 1e-13,  # 4.3e-16 (GOE N = 33)
    "integrate-out-recurrence": 1e-13,  # 5.7e-16 (GOE N = 31)
    "block-interrelations": 1e-13,  # 1.0e-14 (GOE N = 52), partner rows against their W rows
    # relative to the GinOE kernel scale 1/sqrt(2 pi); density --path both too
    "closed-form-agreement": 1e-13,  # 1.3e-15 (N = 63)
    # relative to the target matrix's largest entry
    "exact-limit": 1e-13,  # 2.6e-16 (GOE N = 59, 60)
    # the worst ratio of successive far deviations: below 1 while they shrink
    "far-convergence": 1.0,  # 0.50 (N = 1, 2, where the deviation is c1/far)
    # relative to the Schur complement's largest entry
    "schur-complement-gap": 1e-13,  # 1.3e-15 (GinOE N = 59)
}
MAX_CORRELATE_POINTS = 5
MAX_SIZE = 64


class ConfigError(ValueError):
    """Invalid run configuration; mapped to exit code 2."""


def _fmt(value):
    # one header or echo value; _table_lines writes table cells the same way
    if isinstance(value, (float, np.floating)):
        return "%.17g" % value
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, complex):
        return "%.17g%+.17gj" % (value.real, value.imag)
    return str(value)


def _fmt_point(z):
    return _fmt(z.real) if z.imag == 0.0 else _fmt(z)


# the echo of the options whose parsed value is not the value to print
_ECHO = {
    "grid": lambda grid: "%s:%s:%d" % (_fmt(grid[0]), _fmt(grid[1]), grid[2]),
    "points": lambda points: ",".join(map(_fmt_point, points)),
}


def echo(config):
    """Configuration keys in a fixed order, for report headers: the common
    keys, the seed where the command takes one, the format, then the
    command's other options in table order.  `--out` is not echoed."""
    rows = [
        ("command", config.command),
        ("version", __version__),
        ("ensemble", config.ensemble),
        ("size", config.size),
        ("parity", "odd" if config.size % 2 else "even"),
    ]
    if "seed" in vars(config):
        rows.append(("seed", config.seed))
    rows.append(("format", config.format))
    for key in (flag[2:] for flag, _ in OPTIONS[config.command] if flag != SEED[0]):
        value = getattr(config, key)
        rows.append((key, _ECHO[key](value) if key in _ECHO else value))
    return rows


def _json_default(value):
    # what json cannot write itself: numpy arrays, integers and booleans, and
    # complex numbers as [real, imag]; numpy floats are floats to json
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value.item()


def _table_lines(series):
    # the data rows of a column table, each column of one kind: one `%` row
    # template from the kinds, as _fmt writes them, applied to the columns as
    # lists; a complex column is its real and its imaginary part
    formats, columns = [], []
    for values in map(np.asarray, series):
        kind = values.dtype.kind
        if kind == "c":
            formats.append("%.17g%+.17gj")
            columns += values.real.tolist(), values.imag.tolist()
            continue
        if kind == "b":
            values = np.where(values, "true", "false")
        formats.append("%.17g" if kind == "f" else "%d" if kind in "iu" else "%s")
        columns.append(values.tolist())
    return map(",".join(formats).__mod__, zip(*columns))


def _csv_text(config, columns, tables, extra=()):
    # the header, then the rows of each table in turn: all share the columns
    lines = ["# %s=%s" % (k, _fmt(v)) for k, v in (*echo(config), *extra)]
    lines.append(",".join(columns))
    for series in tables:
        lines.extend(_table_lines(series))
    return "\n".join(lines) + "\n"


def _json_text(config, payload, extra=()):
    doc = {"config": dict(echo(config)), **dict(extra), **payload}
    return json.dumps(doc, indent=2, default=_json_default) + "\n"


def _table_text(config, columns, series, extra):
    # a column table: JSON maps each column to its series, CSV writes its rows
    if config.format == "json":
        return _json_text(config, dict(zip(columns, series)), extra)
    return _csv_text(config, columns, (series,), extra)


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


def make_config(args):
    """Check the parsed command line and turn it, in place, into the run
    configuration: grid and points parsed, the format defaulted."""
    if args.size < 1:
        raise ConfigError("size must be a positive integer")
    if args.size > MAX_SIZE:
        raise ConfigError("size must be at most %d" % MAX_SIZE)
    # mc-compare draws random numbers; verify takes and echoes a seed that
    # no suite reads
    if getattr(args, "seed", 0) < 0:
        raise ConfigError("seed must be a non-negative integer")
    args.format = args.format or ("json" if args.command == "verify" else "csv")
    if args.command == "density":
        args.grid = _parse_grid(args.grid)
        if args.path != "finite-sum":
            if args.ensemble != "ginoe":
                raise ConfigError("the closed-form path applies to ginoe only")
            if args.size < 2:
                raise ConfigError("the closed-form path needs size >= 2")
    elif args.command == "correlate":
        args.points = points = _parse_points(args.points)
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
    elif args.command == "mc-compare":
        if args.samples < MIN_COMPARISON_SAMPLES:
            raise ConfigError(
                "need at least %d samples" % MIN_COMPARISON_SAMPLES
            )
        if args.bins < 2:
            raise ConfigError("need at least two bins")
    return args


def cmd_density(config):
    """One-point density on a uniform grid."""
    lo, hi, count = config.grid
    xs = np.linspace(lo, hi, count)
    bundle = kernel_bundle(config.ensemble, config.size)
    extra = [("kernel", "%s-%s" % (config.ensemble, bundle.parity))]
    finite = closed = None
    if config.path != "summed-up":
        finite = np.real(bundle.scalar_kernel(xs, xs))
    if config.path != "finite-sum":
        closed = ginoe_summed_S(config.size, xs, xs)
    if config.path == "both":
        gap = float(np.max(np.abs(finite - closed)))
        if gap * SQRT_2PI > GATES["closed-form-agreement"]:
            raise ArithmeticError(
                "finite-sum and closed-form densities disagree by %.3e" % gap
            )
        extra.append(("path_gap", gap))
        columns = ("x", "density_finite_sum", "density_closed_form")
        series = (xs, finite, closed)
    else:
        columns = ("x", "density")
        series = (xs, finite if config.path == "finite-sum" else closed)
    return _table_text(config, columns, series, extra), 0


def cmd_correlate(config):
    """Correlation at explicit points, plus the assembled matrix dump."""
    reals = tuple(z.real for z in config.points if z.imag == 0.0)
    complexes = tuple(z for z in config.points if z.imag != 0.0)
    pc = PointConfiguration(reals=reals, complexes=complexes)
    bundle = kernel_bundle(config.ensemble, config.size)
    matrix = bundle.assemble(pc)
    # as in rho: 0 when the points stand for more eigenvalues than N
    value = complex(pfaffian(matrix)) if pc.eigenvalues <= bundle.N else 0j
    extra = [("imag_residue", abs(value.imag))]
    if config.format == "json":
        payload = {"rho": value.real, "matrix": matrix}
        return _json_text(config, payload, extra), 0
    # the value row, then the matrix entries row by row
    rows, cols = np.indices(matrix.shape).reshape(2, -1)
    tables = ((["rho"], [""], [""], [value.real]), (["matrix"] * matrix.size, rows, cols, matrix.ravel()))
    return _csv_text(config, ("record", "row", "col", "value"), tables, extra), 0


def _check(suite, name, deviation, **diagnostics):
    deviation = float(deviation)
    return {
        "suite": suite,
        "check": name,
        "deviation": deviation,
        "tolerance": GATES[name],
        "passed": deviation <= GATES[name],
        **diagnostics,
    }


def _suite_pfaffian(bundle):
    # every window of k consecutive points of the reduction's probe grid (its
    # reals, then its complexes), as principal submatrices of one matrix; a
    # window holds at most N/2 eigenvalues, a complex point two, well short of
    # a full configuration, where the Pfaffian loses accuracy to conditioning
    probe = probe_configuration(bundle.ensemble, bundle.N + bundle.N % 2)
    if bundle.N == 1:
        probe = PointConfiguration(reals=probe.reals)
    k = max(1, min(6, bundle.N // (4 if probe.complexes else 2)))
    cells = np.arange(len(probe) - k + 1)[:, None] + np.arange(k)
    rows = (2 * cells[:, :, None] + np.arange(2)).reshape(len(cells), 2 * k)
    S = bundle.assemble(probe)[rows[:, :, None], rows[:, None, :]]
    value, det, reference = pfaffian(S), np.linalg.det(S), pfaffian_laplace(S)
    return [
        _check("pfaffian", "squared-vs-determinant", np.max(np.abs(value**2 - det) / np.abs(det))),
        _check("pfaffian", "elimination-vs-cofactor", np.max(np.abs(value - reference) / np.abs(reference))),
    ]


def _suite_skew(bundle):
    # the Gram of the bundle's own family, exact
    return [_check("skew", "gram-deviation", skew_deviation(bundle.gram()))]


def _suite_kernels(bundle):
    # all pairs of a real grid across the spectrum and, in the plane, its copy at +0.5i
    reals = np.linspace(-1.3, 1.3, 9) * math.sqrt(bundle.N)
    points = (reals, reals + 0.5j) if bundle.ensemble == "ginoe" else (reals,)
    relations = interrelations_check(bundle, *points)
    checks = [_check("kernels", "block-interrelations", max(relations.values()))]
    if bundle.ensemble == "goe":
        # by quadrature, independent of the exact kernels.density_integral: the
        # empty probe integrates the density to N, the others the pair density
        density, *pairs = dyson_recurrence_check(bundle, ((), (-1.1,), (0.37,)))
        checks.append(_check("kernels", "density-normalization", density["relative_deviation"]))
        checks.append(_check("kernels", "integrate-out-recurrence", max(r["relative_deviation"] for r in pairs)))
    elif bundle.N >= 2:
        # the scalar block S = form(W, P) on rows taken once per point set
        rows = [bundle.rows(p) for p in points]
        worst = max(
            np.abs(bundle.form(R[:, None, 0], Q[:, 1]) - ginoe_summed_S(bundle.N, mu[:, None], eta)).max()
            for mu, R in zip(points, rows)
            for eta, Q in zip(points, rows)
        )
        checks.append(_check("kernels", "closed-form-agreement", worst * SQRT_2PI))
    return checks


def _suite_reduction(bundle):
    # an odd size is the target of the reduction from the even size above it
    if bundle.parity == "even":
        report = verify_odd_limit(bundle, kernel_bundle(bundle.ensemble, bundle.N - 1))
    else:
        report = verify_odd_limit(kernel_bundle(bundle.ensemble, bundle.N + 1), bundle)
    return [
        _check("reduction", "exact-limit", report.exact),
        _check("reduction", "far-convergence", report.ratio, far_points=report.far_points, c1=report.c1),
        _check("reduction", "schur-complement-gap", report.schur_gap),
    ]


SUITES = {
    "pfaffian": _suite_pfaffian,
    "skew": _suite_skew,
    "kernels": _suite_kernels,
    "reduction": _suite_reduction,
}


def cmd_verify(config):
    """Self-check suites built from the library's own cross relations."""
    names = SUITES if config.suite == "all" else (config.suite,)
    # one bundle for every suite, so that they share its rows
    bundle = kernel_bundle(config.ensemble, config.size)
    checks = []
    for name in names:
        checks.extend(SUITES[name](bundle))
    failed = [c for c in checks if not c["passed"]]
    extra = [("passed", not failed), ("checks", len(checks))]
    if config.format == "csv":
        columns = ("suite", "check", "deviation", "tolerance", "passed")
        series = [[c[k] for c in checks] for k in columns]
        text = _csv_text(config, columns, (series,), extra)
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
    sampler = ginibre_tallies if config.ensemble == "ginoe" else goe_tallies
    stream = partial(sampler, config.size, config.samples, config.seed)
    report = empirical_vs_analytic(stream, kernel_bundle(config.ensemble, config.size), bins=config.bins)
    # every draw is used as drawn, so resamples is always 0; the key stays
    # because bench/run.py parses it
    extra = [
        ("generator", GENERATOR),
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
    text = _table_text(config, columns, series, extra)
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


# each command's options: a command line is parsed against these alone
COMMON = (
    ("--ensemble", dict(choices=("goe", "ginoe"), default="goe", help="ensemble family (default: goe)")),
    ("--size", dict(type=int, default=4, help="matrix size N, 1 to %d (default: 4)" % MAX_SIZE)),
    ("--out", dict(help="output path (default: stdout)")),
    ("--format", dict(choices=("csv", "json"), help="report format (default: csv, or json for verify)")),
)
SEED = ("--seed", dict(type=int, default=0, help="random seed (default: 0)"))
OPTIONS = {
    "density": (
        ("--grid", dict(required=True, help="grid as min:max:count")),
        ("--path", dict(choices=PATHS, default="finite-sum", help="evaluation path; closed forms are ginoe only")),
    ),
    "correlate": (
        ("--points", dict(required=True, help="up to %d comma separated points like 0.3+0.5j" % MAX_CORRELATE_POINTS)),
    ),
    "verify": (
        SEED,
        ("--suite", dict(choices=(*SUITES, "all"), default="all", help="suite name (default: all)")),
    ),
    "mc-compare": (
        SEED,
        ("--samples", dict(type=int, required=True, help="sample count, >= %d" % MIN_COMPARISON_SAMPLES)),
        ("--bins", dict(type=int, default=40, help="histogram bins (default: 40)")),
    ),
}


def _usage_error(usage, message):
    # argparse's layout: the usage line, then "PROG: error: MESSAGE"
    print("usage: %s\n%s: error: %s" % (usage, usage.split(" [", 1)[0], message), file=sys.stderr)
    raise SystemExit(2)


def _help(usage, text, rows):
    print("usage: %s\n\n%s" % (usage, text), *("  %-24s %s" % row for row in rows), sep="\n")
    raise SystemExit(0)


def parse_command_line(command, argv):
    """The namespace of one command's options, read from its table: each is
    `--name value` or `--name=value`, names in full, the last repeat winning."""
    table = dict((*COMMON, *OPTIONS[command]))
    shown = {flag: flag + " " + ("{%s}" % ",".join(spec["choices"]) if "choices" in spec else flag[2:].upper())
             for flag, spec in table.items()}
    usage = "betaone %s [-h] %s" % (command, " ".join(
        shown[flag] if spec.get("required") else "[%s]" % shown[flag] for flag, spec in table.items()))
    values, tokens = {flag: spec.get("default") for flag, spec in table.items()}, iter(argv)
    for token in tokens:
        if token in ("-h", "--help"):
            _help(usage, COMMANDS[command].__doc__ + "\n\noptions:", [("-h, --help", "show this help message and exit")]
                  + [(shown[flag], spec["help"]) for flag, spec in table.items()])
        flag, equals, value = token.partition("=")
        if flag not in table:
            _usage_error(usage, "unrecognized arguments: %s" % token)
        spec, value = table[flag], value if equals else next(tokens, None)
        if value is None:
            _usage_error(usage, "argument %s: expected one argument" % flag)
        try:
            value = spec.get("type", str)(value)
        except ValueError:
            _usage_error(usage, "argument %s: invalid %s value: %r" % (flag, spec["type"].__name__, value))
        if value not in spec.get("choices", (value,)):
            _usage_error(usage, "argument %s: invalid choice: %r (choose from %s)"
                         % (flag, value, ", ".join(map(repr, spec["choices"]))))
        values[flag] = value
    missing = [flag for flag, spec in table.items() if spec.get("required") and values[flag] is None]
    if missing:
        _usage_error(usage, "the following arguments are required: %s" % ", ".join(missing))
    return SimpleNamespace(command=command, **{flag[2:]: value for flag, value in values.items()})


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] not in COMMANDS:
        # help on the commands, or the usage error of a line whose first word names none
        usage = "betaone [-h] COMMAND"
        if argv and argv[0] in ("-h", "--help"):
            _help(usage, "Eigenvalue correlations for orthogonal-symmetry ensembles. Run `betaone COMMAND --help`"
                  " for a command's options.\n\ncommands:", [(name, run.__doc__) for name, run in COMMANDS.items()])
        _usage_error(usage, "the following arguments are required: COMMAND" if not argv else
                     "the command must come first" if COMMANDS.keys() & set(argv) else
                     "argument COMMAND: invalid choice: %r (choose from %s)"
                     % (argv[0], ", ".join(map(repr, COMMANDS))))
    args = parse_command_line(argv[0], argv[1:])
    try:
        config = make_config(args)
        text, code = COMMANDS[config.command](config)
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        # LinAlgError subclasses ValueError, so it is caught first
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 3
    except MemoryError as exc:
        # a grid too large to allocate, or a machine short of memory
        print("out of memory: %s" % exc, file=sys.stderr)
        return 3
    except ValueError as exc:
        # ConfigError among them
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if config.out:
        try:
            with open(config.out, "w") as handle:
                handle.write(text)
        except OSError as exc:
            reason = exc.strerror or exc
            print("error: cannot write %s: %s" % (config.out, reason), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
