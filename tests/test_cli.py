import contextlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import betaone
from betaone import cli
from betaone.cli import COMMANDS, kernel_bundle, main
from betaone.ginoe_kernels import ginoe_rho
from betaone.kernels import PointConfiguration
from betaone.montecarlo import ginibre_spectra, pair_mass_estimate
from betaone.quadrature import gauss_legendre_rule
from betaone.reduction import far_points


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def split_csv(text):
    header = [line for line in text.splitlines() if line.startswith("# ")]
    body = [line for line in text.splitlines() if not line.startswith("# ")]
    return dict(line[2:].split("=", 1) for line in header), body


def test_density_grid_rows_and_mass():
    code, text, _ = run_cli(
        ["density", "--ensemble", "goe", "--size", "4", "--grid=-4:4:81"]
    )
    assert code == 0
    header, body = split_csv(text)
    assert header["ensemble"] == "goe"
    assert header["kernel"] == "goe-even"
    assert "version" in header
    assert "seed" not in header
    assert body[0] == "x,density"
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    assert rows.shape == (81, 2)
    mass = np.trapezoid(rows[:, 1], rows[:, 0])
    assert abs(mass - 4.0) < 1e-2
    # the window [-4, 4] sits at the spectrum edge and leaves out real
    # tail mass, so compare the trapezoid against quadrature of the
    # same integrand over the same window
    bundle = kernel_bundle("goe", 4)
    nodes, weights = gauss_legendre_rule(200, -4.0, 4.0)
    window = weights @ np.array([float(np.real(bundle.scalar_kernel(x, x))) for x in nodes])
    assert abs(mass - window) < 1e-3


def test_density_reruns_are_byte_identical():
    argv = ["density", "--ensemble", "ginoe", "--size", "4", "--grid=-3:3:11"]
    _, first, _ = run_cli(argv)
    _, second, _ = run_cli(argv)
    assert first == second


def test_density_ginoe_odd_positive():
    # also the GOE sizes the quadrature-built family could not reach
    for ensemble, size in (("ginoe", "3"), ("goe", "12"), ("goe", "64")):
        code, text, _ = run_cli(
            ["density", "--ensemble", ensemble, "--size", size, "--grid=-4:4:17"]
        )
        assert code == 0, size
        _, body = split_csv(text)
        values = [float(line.split(",")[1]) for line in body[1:]]
        assert all(v > 0.0 for v in values)


def test_density_paths_agree_pointwise():
    code, text, _ = run_cli(
        [
            "density",
            "--ensemble",
            "ginoe",
            "--size",
            "4",
            "--grid=-3:3:13",
            "--path",
            "both",
        ]
    )
    assert code == 0
    header, body = split_csv(text)
    assert float(header["path_gap"]) <= 1e-8
    assert body[0] == "x,density_finite_sum,density_closed_form"
    for line in body[1:]:
        _, finite, closed = (float(v) for v in line.split(","))
        assert abs(finite - closed) <= 1e-8


def test_density_summed_up_prints_the_closed_form_column():
    grid = ["density", "--ensemble", "ginoe", "--grid=-3:3:13"]
    for size in ("2", "5"):
        code, summed, _ = run_cli(grid + ["--size", size, "--path", "summed-up"])
        assert code == 0
        header, body = split_csv(summed)
        assert header["path"] == "summed-up" and "path_gap" not in header
        assert body[0] == "x,density"
        _, both = split_csv(run_cli(grid + ["--size", size, "--path", "both"])[1])
        # x and density_closed_form of --path both, byte for byte
        assert body[1:] == [",".join(line.split(",")[::2]) for line in both[1:]]
    code, text, err = run_cli(["density", "--size", "4", "--grid=-1:1:5", "--path", "summed-up"])
    assert code == 2 and text == "" and "ginoe" in err
    code, text, err = run_cli(grid + ["--size", "1", "--path", "summed-up"])
    assert code == 2 and text == "" and "size >= 2" in err


def test_density_validation_exits():
    code, _, err = run_cli(["density", "--grid=-1:1:0"])
    assert code == 2 and "grid" in err
    code, _, err = run_cli(["density", "--grid=2:-2:10"])
    assert code == 2
    code, _, err = run_cli(["density", "--grid=-1:1:5", "--path", "both"])
    assert code == 2 and "ginoe" in err
    code, _, err = run_cli(["density", "--grid", "nonsense"])
    assert code == 2
    code, _, err = run_cli(["density", "--size", "65", "--grid=-1:1:5"])
    assert code == 2 and "64" in err


@pytest.mark.parametrize("grid", ["-1e308:1e308:3", "-inf:0:5", "0:inf:5", "nan:1:5", "-1:nan:5"])
def test_density_rejects_non_finite_grid(grid):
    code, text, err = run_cli(["density", "--grid=" + grid])
    assert code == 2 and text == ""
    assert "finite" in err


def test_negative_seed_exits_2_for_every_subcommand():
    for argv in (
        ["verify", "--suite", "pfaffian"],
        ["mc-compare", "--samples", "10000"],
    ):
        code, text, err = run_cli(argv + ["--seed", "-1"])
        assert code == 2 and text == ""
        assert "seed must be a non-negative integer" in err


def test_correlate_single_point_matches_density():
    code, text, _ = run_cli(
        ["correlate", "--ensemble", "goe", "--size", "4", "--points", "1.0"]
    )
    assert code == 0
    _, body = split_csv(text)
    value = float(body[1].split(",")[3])
    code, text, _ = run_cli(
        ["density", "--ensemble", "goe", "--size", "4", "--grid", "1:2:2"]
    )
    _, dbody = split_csv(text)
    assert np.isclose(value, float(dbody[1].split(",")[1]), rtol=1e-12)


def test_correlate_symmetric_pair_dump_is_antisymmetric():
    code, text, _ = run_cli(
        ["correlate", "--ensemble", "goe", "--size", "4", "--points=-0.7,0.7"]
    )
    assert code == 0
    _, body = split_csv(text)
    rho_value = float(body[1].split(",")[3])
    assert rho_value > 0.0
    matrix = np.zeros((4, 4))
    for line in body[2:]:
        _, i, j, value = line.split(",")
        matrix[int(i), int(j)] = float(value)
    assert np.allclose(matrix + matrix.T, 0.0, atol=1e-15)


def test_correlate_assembles_the_point_matrix_once(monkeypatch):
    calls = []

    def counted_bundle(ensemble, size):
        bundle = kernel_bundle(ensemble, size)
        assemble = bundle.assemble

        def counted(config):
            calls.append(config)
            return assemble(config)

        bundle.assemble = counted
        return bundle

    monkeypatch.setattr(cli, "kernel_bundle", counted_bundle)
    # the last stands for four eigenvalues at N = 3: rho reads 0, the dump stays
    for ensemble, size, points in (
        ("goe", "4", "-0.5,0.2,1.1"),
        ("ginoe", "4", "0.5,0.3+0.5j"),
        ("ginoe", "3", "0.1,0.2,0.3+0.5j"),
    ):
        calls.clear()
        code, text, _ = run_cli(["correlate", "--ensemble", ensemble, "--size", size, "--points=" + points])
        assert code == 0 and len(calls) == 1
        header, body = split_csv(text)
        assert len(body) == 2 + (2 * len(calls[0])) ** 2
    assert float(body[1].split(",")[3]) == 0.0 and float(header["imag_residue"]) == 0.0


def test_correlate_reads_tail_points_in_any_order():
    # a tail point listed first gives the same small correlation as listed
    # last, not an exact 0; an exactly singular matrix still prints 0, not -0
    values = []
    for points in ("10.5,0,0.5", "0,0.5,10.5"):
        code, text, _ = run_cli(["correlate", "--ensemble", "goe", "--size", "8", "--points=" + points])
        assert code == 0
        assert "rho,,,0" not in text.splitlines()
        values.append(float(split_csv(text)[1][1].split(",")[3]))
    assert values[0] > 0 and abs(values[0] - values[1]) <= 1e-13 * values[1]
    code, text, _ = run_cli(["correlate", "--ensemble", "goe", "--size", "4", "--points=0,1e5"])
    assert code == 0 and split_csv(text)[1][1] == "rho,,,0"


def test_correlate_validation_exits():
    code, _, err = run_cli(["correlate", "--points", "0.5,0.5"])
    assert code == 2 and "distinct" in err
    code, _, err = run_cli(["correlate", "--points", "0.5,0.3+0.5j"])
    assert code == 2 and "ginoe" in err
    code, _, err = run_cli(["correlate", "--points", "1,2,3,4,5,6"])
    assert code == 2
    code, _, err = run_cli(
        ["correlate", "--ensemble", "ginoe", "--points", "0.3-0.5j"]
    )
    assert code == 2 and "axis" in err
    code, _, err = run_cli(["correlate", "--points", "spam"])
    assert code == 2
    code, _, err = run_cli(["correlate", "--ensemble", "ginoe", "--size", "65", "--points", "0.5"])
    assert code == 2 and "64" in err


@pytest.mark.parametrize("points", ["inf,0.2", "nan", "nan,nan", "0.1+infj", "0.2,-inf", "0.3+nanj"])
def test_correlate_rejects_non_finite_points(points):
    code, text, err = run_cli(["correlate", "--ensemble", "ginoe", "--size", "4", "--points=" + points])
    assert code == 2 and text == ""
    assert "not finite" in err


@pytest.mark.parametrize("points", ["0.1+1e200j", "1e200+1e200j", "-0.3,0.1+1e200j"])
def test_correlate_far_off_axis_point_reads_zero(points):
    # |z|^2 overflows there, so the pair weight and the correlation are exactly 0
    argv = ["correlate", "--ensemble", "ginoe", "--size", "4", "--points=" + points]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run_cli(argv)
    assert code == 0 and err == ""
    header, body = split_csv(text)
    assert float(body[1].split(",")[3]) == 0.0
    assert float(header["imag_residue"]) == 0.0


@pytest.mark.parametrize("size", [4, 5])
def test_density_far_grid_reads_zero_on_both_paths(size):
    # x^2 overflows at the ends of the grid: both paths give the weight's 0
    argv = ["density", "--ensemble", "ginoe", "--size", str(size), "--grid=-1e200:1e200:3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text, err = run_cli(argv + ["--path", "both"])
    assert code == 0 and err == ""
    _, body = split_csv(text)
    rows = [[float(v) for v in line.split(",")] for line in body[1:]]
    assert rows[0][1:] == rows[2][1:] == [0.0, 0.0]
    assert rows[1][1] == pytest.approx(rows[1][2], abs=1e-15)


def test_correlate_mixed_matches_monte_carlo_pair_mass():
    # one real and one complex point; the analytic pair correlation,
    # integrated over a window around the points, must match the
    # sampled count-product mass within Monte Carlo error
    code, text, _ = run_cli(
        [
            "correlate",
            "--ensemble",
            "ginoe",
            "--size",
            "4",
            "--points",
            "0.5,0.3+0.5j",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(text)
    value = doc["rho"]
    assert np.isfinite(value) and value > 0.0
    bundle = kernel_bundle("ginoe", 4)
    bundle_value, _ = ginoe_rho(
        bundle, PointConfiguration(reals=(0.5,), complexes=(0.3 + 0.5j,))
    )
    assert np.isclose(value, bundle_value, rtol=1e-13)

    interval = (0.3, 0.7)
    box = ((0.1, 0.5), (0.3, 0.7))
    x_rule = gauss_legendre_rule(10, *interval)
    u_rule = gauss_legendre_rule(10, *box[0])
    v_rule = gauss_legendre_rule(10, *box[1])
    mass = 0.0
    for x, wx in zip(*x_rule):
        for u, wu in zip(*u_rule):
            for v, wv in zip(*v_rule):
                point = PointConfiguration(reals=(x,), complexes=(u + 1j * v,))
                mass += wx * wu * wv * ginoe_rho(bundle, point)[0]

    samples = ginibre_spectra(4, 1_000_000, seed=5)
    estimate, stderr = pair_mass_estimate(samples, interval, box)
    assert abs(estimate - mass) <= 3.0 * stderr


def test_verify_reduction_suite_passes():
    for ensemble in ("goe", "ginoe"):
        for size in range(4, 65, 2):
            code, text, _ = run_cli(
                ["verify", "--suite", "reduction", "--ensemble", ensemble, "--size", str(size)]
            )
            assert code == 0, (ensemble, size)
            doc = json.loads(text)
            assert doc["passed"] is True
            by_name = {c["check"]: c for c in doc["checks"]}
            assert by_name["exact-limit"]["deviation"] <= 1e-12
            assert by_name["far-convergence"]["deviation"] < 1.0
            assert by_name["schur-complement-gap"]["deviation"] <= 1e-13


def test_verify_reduction_reports_far_diagnostics_deterministically():
    # far-convergence carries its far points and far x deviation at the
    # largest; at N = 2 the deviation is exactly c1/far, c1 = 0.5853
    for ensemble in ("goe", "ginoe"):
        for size, c1 in ((1, 0.5853), (2, 0.5853), (9, None), (64, None)):
            argv = ["verify", "--suite", "reduction", "--ensemble", ensemble, "--size", str(size)]
            code, text, _ = run_cli(argv)
            assert code == 0 and run_cli(argv)[1] == text, (ensemble, size)
            check = {c["check"]: c for c in json.loads(text)["checks"]}["far-convergence"]
            assert check["far_points"] == list(far_points(size + size % 2)), (ensemble, size)
            assert np.isfinite(check["c1"]) and check["c1"] > 0.0, (ensemble, size)
            if c1 is not None:
                assert abs(check["c1"] - c1) <= 1e-4, (ensemble, size)
    code, text, _ = run_cli(argv + ["--format", "csv"])
    _, body = split_csv(text)
    assert body[0] == "suite,check,deviation,tolerance,passed"
    assert all(len(row.split(",")) == 5 for row in body[1:])


def test_gate_table_matches_gates_and_emitted_checks():
    # README's gate table, cli.GATES and the checks verify emits name the
    # same ten checks with the same gates, so a renamed check leaves no
    # stale key or row behind
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("| suite | check | gate | worst reading |\n| --- | --- | --- | --- |\n")[1]
    rows = [line.split(" | ") for line in section.split("\n\n")[0].splitlines()]
    table = {(row[0].lstrip("| "), row[1].split(" (")[0]): float(row[2]) for row in rows}
    emitted = {}
    for ensemble in ("goe", "ginoe"):
        code, text, _ = run_cli(["verify", "--suite", "all", "--ensemble", ensemble, "--size", "4"])
        assert code == 0, ensemble
        emitted.update({(c["suite"], c["check"]): c["tolerance"] for c in json.loads(text)["checks"]})
    assert len(rows) == len(table) == 10
    assert table == emitted
    assert {check: gate for (_, check), gate in table.items()} == cli.GATES


def test_verify_runs_at_odd_and_smallest_sizes():
    # odd sizes are the target of the reduction from the size above
    for ensemble in ("goe", "ginoe"):
        for size in (1, 2, 3, 5):
            code, text, _ = run_cli(
                ["verify", "--suite", "all", "--ensemble", ensemble, "--size", str(size)]
            )
            assert code == 0, (ensemble, size)
            assert json.loads(text)["passed"] is True
        for size in (63, 64):
            code, _, _ = run_cli(
                ["verify", "--suite", "reduction", "--ensemble", ensemble, "--size", str(size)]
            )
            assert code == 0, (ensemble, size)


def test_verify_skew_and_all_pass_across_sizes():
    for ensemble in ("goe", "ginoe"):
        for size in (1, 2, 3, 12, 14, 33, 63, 64):
            for suite in ("skew", "all"):
                argv = ["verify", "--suite", suite, "--ensemble", ensemble, "--size", str(size)]
                code, text, err = run_cli(argv)
                assert code == 0, (ensemble, size, suite, err)
                assert json.loads(text)["passed"] is True


def test_verify_skew_reports_gram_deviation_deterministically():
    argv = ["verify", "--suite", "skew", "--ensemble", "ginoe", "--size", "10"]
    code, text, _ = run_cli(argv)
    assert code == 0
    assert run_cli(argv)[1] == text
    (check,) = json.loads(text)["checks"]
    assert check["check"] == "gram-deviation"
    assert check["tolerance"] == 1e-13
    assert check["deviation"] <= 1e-14
    # the exact Gram reports no refinement
    assert set(check) == {"suite", "check", "deviation", "tolerance", "passed"}
    # the CSV report keeps its five columns
    code, text, _ = run_cli(argv + ["--format", "csv"])
    _, body = split_csv(text)
    assert body[0] == "suite,check,deviation,tolerance,passed"
    assert len(body[1].split(",")) == 5


def test_verify_all_passes():
    code, text, _ = run_cli(["verify", "--suite", "all"])
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    suites = {c["suite"] for c in doc["checks"]}
    assert suites == {"pfaffian", "skew", "kernels", "reduction"}
    assert all(c["passed"] for c in doc["checks"])


def test_verify_kernels_goe_size_one_integrates_out_exactly():
    # one eigenvalue leaves no two-point correlation to integrate
    code, text, _ = run_cli(["verify", "--suite", "kernels", "--ensemble", "goe", "--size", "1"])
    assert code == 0
    checks = {c["check"]: c for c in json.loads(text)["checks"]}
    assert checks["integrate-out-recurrence"]["deviation"] == 0.0


def test_verify_closed_form_agreement_is_relative_to_the_kernel_scale():
    for size in (2, 17, 64):
        code, text, _ = run_cli(["verify", "--suite", "kernels", "--ensemble", "ginoe", "--size", str(size)])
        assert code == 0
        checks = {c["check"]: c for c in json.loads(text)["checks"]}
        assert checks["closed-form-agreement"]["tolerance"] == 1e-13
        assert checks["closed-form-agreement"]["deviation"] <= 1e-14


def test_verify_failure_names_the_quantity(monkeypatch):
    # an unreachable gate forces a clean failure path
    monkeypatch.setitem(cli.GATES, "squared-vs-determinant", 1e-18)
    code, text, err = run_cli(["verify", "--suite", "pfaffian"])
    assert code == 1
    assert "squared-vs-determinant" in err
    doc = json.loads(text)
    assert doc["passed"] is False


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense"])
    assert info.value.code == 2


def test_verify_gates_cannot_be_overridden():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "skew", "--tol-skew", "1e-12"])
    assert info.value.code == 2


def test_verify_pfaffian_reads_the_runs_own_matrices():
    # the checks run on the configured kernel's matrices, so their readings
    # move with the size and the ensemble
    readings = set()
    for ensemble in ("goe", "ginoe"):
        for size in (8, 9, 16):
            code, text, _ = run_cli(["verify", "--suite", "pfaffian", "--ensemble", ensemble, "--size", str(size)])
            assert code == 0, (ensemble, size)
            checks = json.loads(text)["checks"]
            assert [c["check"] for c in checks] == ["squared-vs-determinant", "elimination-vs-cofactor"]
            readings.add(tuple(c["deviation"] for c in checks))
    assert len(readings) == 6


def test_verify_output_does_not_depend_on_the_seed():
    for ensemble, size in (("goe", "4"), ("ginoe", "7")):
        argv = ["verify", "--suite", "all", "--ensemble", ensemble, "--size", size, "--format", "csv"]
        first, second = (run_cli(argv + ["--seed", seed]) for seed in ("0", "7"))
        assert first[0] == second[0] == 0
        changed = [(a, b) for a, b in zip(first[1].splitlines(), second[1].splitlines()) if a != b]
        assert changed == [("# seed=0", "# seed=7")]


def test_bench_command_lines_parse():
    # bench/run.py passes --seed to every verify and mc-compare job
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", bench / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(bench))
    jobs = [argv for workload in run.WORKLOADS for _, argv in run.workload_jobs(workload, 5)]
    assert sum("--seed" in argv for argv in jobs) == 7
    for command, *argv in jobs:
        args = cli.parse_command_line(command, argv)
        assert args.seed == 5 if "--seed" in argv else "seed" not in vars(args)


def exit_cli(argv):
    """Exit code, stdout and stderr of a command line that ends in SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with pytest.raises(SystemExit) as info:
            main(argv)
    return info.value.code, out.getvalue(), err.getvalue()


VALID = {
    "density": ["density", "--grid=-1:1:5"],
    "correlate": ["correlate", "--points", "0.5"],
    "verify": ["verify", "--suite", "skew"],
    "mc-compare": ["mc-compare", "--samples", "10000"],
}
TAKES = {
    "density": {"--grid", "--path"},
    "correlate": {"--points"},
    "verify": {"--suite", "--seed"},
    "mc-compare": {"--seed", "--samples", "--bins"},
}
VALUES = {
    "--grid": "-1:1:5",
    "--path": "both",
    "--points": "0.5",
    "--suite": "skew",
    "--seed": "1",
    "--samples": "10000",
    "--bins": "5",
}


def test_only_seeded_commands_take_a_seed():
    # every command against every command-specific option it does not take
    rejected = 0
    for command, argv in VALID.items():
        for flag in VALUES.keys() - TAKES[command]:
            code, text, err = exit_cli(argv + ["%s=%s" % (flag, VALUES[flag])])
            assert (code, text) == (2, ""), (command, flag)
            assert "unrecognized arguments: %s=" % flag in err
            rejected += 1
    assert rejected == 4 * 7 - 8


def test_top_level_lists_the_commands_or_exits_2():
    for argv in ([], ["nonsense"], ["--size", "4", "density"], ["--", "verify"]):
        code, text, err = exit_cli(argv)
        assert (code, text) == (2, ""), argv
        assert err.startswith("usage: betaone ")
    code, text, _ = exit_cli(["--help"])
    assert code == 0
    assert all(command in text for command in COMMANDS)


def usage_errors():
    # (argv, the message after "betaone COMMAND: error: ") for every command
    required = {"density": "--grid", "correlate": "--points", "mc-compare": "--samples"}
    for command, valid in VALID.items():
        yield [*valid, "--nonsense", "1"], "unrecognized arguments: --nonsense"
        yield [*valid, "--ens", "goe"], "unrecognized arguments: --ens"
        yield [*valid, "--size"], "argument --size: expected one argument"
        yield [*valid, "--size", "4.0"], "argument --size: invalid int value: '4.0'"
        yield [*valid, "--format=xml"], "argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"
        for flag in sorted(TAKES[command] & {"--seed", "--samples", "--bins"}):
            yield [*valid, flag, "1e5"], "argument %s: invalid int value: '1e5'" % flag
        if command in required:
            yield [command, "--size", "3"], "the following arguments are required: " + required[command]


@pytest.mark.parametrize("argv, message", [pytest.param(*case, id=" ".join(case[0])) for case in usage_errors()])
def test_usage_errors_exit_2_with_the_commands_usage(argv, message):
    code, text, err = exit_cli(argv)
    assert (code, text) == (2, "")
    assert err.startswith("usage: betaone %s [-h] " % argv[0])
    assert err.splitlines()[1] == "betaone %s: error: %s" % (argv[0], message)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_help_lists_exactly_the_table_options(command):
    table = {flag for flag, _ in (*cli.COMMON, *cli.OPTIONS[command])}
    text = help_text(command)
    assert set(re.findall(r"--[a-z][a-z-]*", text)) == table | {"--help"}
    assert text.startswith("usage: betaone %s [-h] " % command)
    # one help line per table option
    assert sum(line.startswith("  --") for line in text.splitlines()) == len(table)


def test_last_repeat_of_an_option_wins():
    argv = ["density", "--size", "3", "--grid=-1:1:5"]
    assert run_cli(argv + ["--size", "2"]) == run_cli(["density", "--size", "2", "--grid=-1:1:5"])


@pytest.mark.parametrize(
    "argv, flag, value",
    [(["density", "--size", "5"], "--grid", "-4:4:81"), (["correlate", "--size", "5"], "--points", "-0.5,0.2")],
)
def test_negative_values_parse_after_a_space(argv, flag, value):
    spaced = run_cli(argv + [flag, value])
    assert spaced[0] == 0
    assert spaced == run_cli(argv + ["%s=%s" % (flag, value)])


class _LookupRecorder(dict):
    def __init__(self, table, looked_up):
        super().__init__(table)
        self.looked_up = looked_up

    def __getitem__(self, key):
        self.looked_up.append(key)
        return super().__getitem__(key)


def test_a_command_line_builds_only_its_commands_options(monkeypatch):
    looked_up = []
    monkeypatch.setattr(cli, "OPTIONS", _LookupRecorder(cli.OPTIONS, looked_up))
    code, _, _ = run_cli(["density", "--ensemble", "goe", "--size", "2", "--grid=-1:1:3"])
    assert code == 0
    # only density's table is read, never another command's options
    assert set(looked_up) == {"density"}, looked_up
    args = cli.parse_command_line("density", ["--grid=-1:1:3"])
    table = {flag[2:] for flag, _ in (*cli.COMMON, *cli.OPTIONS["density"])}
    assert vars(args).keys() == table | {"command"}


def test_fmt_writes_each_value_type_as_before():
    cases = [
        (True, "true"),
        (np.bool_(False), "false"),
        (7, "7"),
        (np.int64(-3), "-3"),
        (0.1, "0.10000000000000001"),
        (np.float64(-2.5), "-2.5"),
        (complex(1.0, -0.5), "1-0.5j"),
        ("goe", "goe"),
    ]
    assert [cli._fmt(value) for value, _ in cases] == [text for _, text in cases]


def fmt_rows(series):
    # the reference for the table writer: each cell through _fmt, joined
    return [",".join(map(cli._fmt, row)) for row in zip(*series)]


def test_table_writer_matches_the_per_cell_format():
    # every value kind the reports carry, a column of each, Python and numpy
    floats = [0.1, -0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 2.0**60, -1.0 / 3.0]
    complexes = [complex(0.0, -2.0), complex(3.0, 0.0), complex(-0.0, -0.0), complex(math.nan, 1.0),
                 complex(math.inf, -math.inf), 1j, complex(-1.5, 0.1), complex(0.1, -0.0), 0j]
    n = len(floats)
    series = (
        floats,
        np.array(floats),
        [np.float64(v) for v in floats],
        list(range(-4, n - 4)),
        np.arange(n, dtype=np.int64) - 5,
        [np.int64(k) for k in range(n)],
        [k % 2 == 1 for k in range(n)],
        np.arange(n) % 3 == 0,
        [np.bool_(k < 3) for k in range(n)],
        ["goe", "", "matrix", "rho", "ginoe-odd", "x", "a b", "-", "true"],
        complexes,
        np.array(complexes),
        [np.complex128(v) for v in complexes],
    )
    assert list(cli._table_lines(series)) == fmt_rows(series)
    assert list(cli._table_lines(([], []))) == []


@pytest.mark.parametrize("argv", [
    ["density", "--ensemble", "goe", "--size", "5", "--grid=-4:4:9"],
    ["density", "--ensemble", "ginoe", "--size", "6", "--grid=-3:3:7", "--path", "both"],
    ["density", "--ensemble", "ginoe", "--size", "7", "--grid=-3:3:7", "--path", "summed-up"],
    ["correlate", "--ensemble", "goe", "--size", "4", "--points=-0.5,0.2,1.1"],
    ["correlate", "--ensemble", "ginoe", "--size", "5", "--points=-0.4,0.3+0.6j"],
    ["correlate", "--ensemble", "ginoe", "--size", "1", "--points=0.3+0.6j"],
    ["verify", "--suite", "all", "--ensemble", "ginoe", "--size", "4", "--format", "csv"],
    ["mc-compare", "--ensemble", "goe", "--size", "2", "--samples", "10000", "--bins", "8"],
], ids=lambda argv: "-".join(argv[:5:2]))
def test_every_csv_table_reads_as_the_per_cell_format(monkeypatch, argv):
    tables, writer = [], cli._table_lines

    def recording(series):
        tables.append(series)
        return writer(series)

    monkeypatch.setattr(cli, "_table_lines", recording)
    code, text, _ = run_cli(argv)
    assert code == 0 and tables
    _, body = split_csv(text)
    assert body[1:] == [line for series in tables for line in fmt_rows(series)]


@pytest.mark.parametrize("ensemble", ["goe", "ginoe"])
def test_kernel_bundle_is_labelled_with_its_ensemble(ensemble):
    for size in (3, 4):
        bundle = kernel_bundle(ensemble, size)
        assert (bundle.ensemble, bundle.N) == (ensemble, size)


def test_mc_compare_goe_passes():
    code, text, _ = run_cli(
        [
            "mc-compare",
            "--ensemble",
            "goe",
            "--size",
            "3",
            "--samples",
            "10000",
            "--seed",
            "19",
        ]
    )
    assert code == 0
    header, body = split_csv(text)
    assert header["passed"] == "true"
    assert header["flagged_bins"] == "0"
    assert header["resamples"] == "0"
    assert float(header["mean_real_count"]) == 3.0
    assert body[0] == "bin_lo,bin_hi,observed,expected,z"
    assert len(body) == 41


@pytest.mark.parametrize("size", [1, 4, 64])
def test_mc_compare_goe_expects_every_eigenvalue_real(size):
    # every GOE eigenvalue is real: the expected real count is N exactly,
    # not a quadrature of the density
    _, text, _ = run_cli(["mc-compare", "--ensemble", "goe", "--size", str(size), "--samples", "10000"])
    header, _ = split_csv(text)
    assert float(header["expected_real_count"]) == float(header["mean_real_count"]) == size


def test_mc_compare_json_embeds_config():
    code, text, _ = run_cli(
        [
            "mc-compare",
            "--ensemble",
            "ginoe",
            "--size",
            "3",
            "--samples",
            "10000",
            "--seed",
            "11",
            "--format",
            "json",
        ]
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["passed"] is True
    assert doc["config"]["command"] == "mc-compare"
    assert doc["config"]["version"]
    assert doc["config"]["seed"] == 11
    assert doc["generator"] == "PCG64"


def test_mc_compare_report_layout():
    argv = ["mc-compare", "--ensemble", "goe", "--size", "2", "--samples", "10000",
            "--seed", "19", "--bins", "20"]
    code, text, _ = run_cli(argv + ["--format", "json"])
    assert code == 0
    doc = json.loads(text)
    assert doc["config"]["samples"] == 10_000
    assert len(doc["z"]) == len(doc["bin_lo"]) == 20
    assert doc["bin_lo"][1:] == doc["bin_hi"][:-1]
    assert sum(doc["observed"]) + doc["overflow"] == 2 * 10_000
    code, text, _ = run_cli(argv)
    assert code == 0
    header, body = split_csv(text)
    assert header["overflow"] == str(doc["overflow"])
    assert body[0] == "bin_lo,bin_hi,observed,expected,z"
    assert len(body) == 21


REPORTS = {
    "density": ["density", "--size", "3", "--grid=-1:1:3"],
    "correlate": ["correlate", "--size", "3", "--points=-0.2,0.4"],
    "verify": ["verify", "--suite", "skew", "--size", "3"],
    "mc-compare": ["mc-compare", "--size", "2", "--samples", "10000"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(REPORTS))
def test_reports_end_in_one_line_feed(command, fmt):
    code, text, _ = run_cli(REPORTS[command] + ["--format", fmt])
    assert code == 0
    assert "\r" not in text
    assert text.endswith("\n") and not text.endswith("\n\n")


# per command: a command line, its own options' echo, and its extra report
# rows (top-level keys after "config" in JSON)
HEADERS = {
    "density": (
        ["density", "--ensemble", "ginoe", "--size", "5", "--grid=-4.0:4:81", "--path", "both"],
        {"grid": "-4:4:81", "path": "both"},
        ["kernel", "path_gap"],
    ),
    "correlate": (
        ["correlate", "--ensemble", "ginoe", "--size", "4", "--points=-0.5,0.1,0.3+0.6j"],
        {"points": "-0.5,0.10000000000000001,0.29999999999999999+0.59999999999999998j"},
        ["imag_residue"],
    ),
    "verify": (
        ["verify", "--ensemble", "goe", "--size", "3", "--seed", "5", "--suite", "skew"],
        {"suite": "skew"},
        ["passed", "checks"],
    ),
    "mc-compare": (
        ["mc-compare", "--ensemble", "goe", "--size", "2", "--samples", "10000", "--seed", "3"],
        {"samples": "10000", "bins": "40"},
        ["generator", "resamples", "flagged_bins", "mean_real_count", "expected_real_count",
         "count_stderr", "overflow", "passed"],
    ),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_report_headers_keep_their_keys_and_order(command):
    # the common keys, the seed where the command takes one, the format,
    # the command's own options (grid and points normalized), its extra rows
    argv, own, extra = HEADERS[command]
    size = int(argv[argv.index("--size") + 1])
    config = {
        "command": command,
        "version": betaone.__version__,
        "ensemble": argv[argv.index("--ensemble") + 1],
        "size": str(size),
        "parity": "odd" if size % 2 else "even",
    }
    if "--seed" in argv:
        config["seed"] = argv[argv.index("--seed") + 1]
    for fmt in ("csv", "json"):
        code, text, _ = run_cli(argv + ["--format", fmt])
        assert code == 0
        expected = {**config, "format": fmt, **own}
        if fmt == "csv":
            header, _ = split_csv(text)
            assert list(header) == [*expected, *extra]
        else:
            doc = json.loads(text)
            header = {k: str(v) for k, v in doc["config"].items()}
            assert list(header) == list(expected)
            assert list(doc)[: len(extra) + 1] == ["config", *extra]
        assert {k: header[k] for k in expected} == expected


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_every_option_but_out_is_echoed(command):
    # options read from the help text, so one added to a command's parser
    # without a header row fails here
    listed = set(re.findall(r"--[a-z][a-z-]*", help_text(command))) - {"--help", "--out"}
    for fmt in ("csv", "json"):
        _, text, _ = run_cli(HEADERS[command][0] + ["--format", fmt])
        keys = split_csv(text)[0] if fmt == "csv" else json.loads(text)["config"]
        assert listed and listed <= {"--" + key for key in keys}, listed - {"--" + key for key in keys}


def allocation_fails(*args, **kwargs):
    raise MemoryError("Unable to allocate 72.8 TiB for an array")


def stub_grid(monkeypatch):
    monkeypatch.setattr(np, "linspace", allocation_fails)


def stub_block_buffers(monkeypatch):
    # mc-compare's memory is its sampler's block buffers, whatever --samples
    # is: np.empty fails from the moment the sampler is called, which is
    # after the kernel is built
    sampler = cli.goe_tallies

    def failing_sampler(*args):
        monkeypatch.setattr(np, "empty", allocation_fails)
        return sampler(*args)

    monkeypatch.setattr(cli, "goe_tallies", failing_sampler)


@pytest.mark.parametrize(
    "argv, stub",
    [
        (["density", "--grid=-4:4:10000000000000"], stub_grid),
        (["mc-compare", "--samples", "10000"], stub_block_buffers),
    ],
    ids=["density", "mc-compare"],
)
def test_allocation_failure_exits_3(monkeypatch, argv, stub):
    stub(monkeypatch)
    code, text, err = run_cli(argv)
    assert code == 3 and text == ""
    assert "out of memory" in err and "Unable to allocate" in err


def test_mc_compare_lapack_failure_exits_3(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    code, text, err = run_cli(
        ["mc-compare", "--ensemble", "ginoe", "--size", "4", "--samples", "10000"]
    )
    assert code == 3 and text == ""
    assert "numerical failure" in err and "did not converge" in err
    # up to N = 3 the spectra come from the characteristic polynomial, not LAPACK
    code, text, _ = run_cli(
        ["mc-compare", "--ensemble", "ginoe", "--size", "3", "--samples", "20000", "--seed", "0"]
    )
    assert code == 0 and text


def test_mc_compare_rejects_small_sample_counts():
    code, _, err = run_cli(
        ["mc-compare", "--ensemble", "goe", "--size", "3", "--samples", "10"]
    )
    assert code == 2 and "10000" in err


def test_out_flag_writes_the_same_bytes(tmp_path):
    target = tmp_path / "density.csv"
    argv = ["density", "--ensemble", "goe", "--size", "2", "--grid=-2:2:9"]
    _, text, _ = run_cli(argv)
    code, piped, _ = run_cli(argv + ["--out", str(target)])
    assert code == 0 and piped == ""
    assert target.read_text() == text


def test_unwritable_out_exits_2(tmp_path):
    argv = ["density", "--ensemble", "goe", "--size", "2", "--grid=-1:1:3"]
    for target in (tmp_path, tmp_path / "missing" / "x.csv"):
        code, text, err = run_cli(argv + ["--out", str(target)])
        assert code == 2 and text == ""
        assert err.startswith("error: cannot write %s" % target)


def help_text(command):
    code, text, _ = exit_cli([command, "--help"])
    assert code == 0
    return text


def test_readme_command_line_options_exist():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as handle:
        readme = handle.read()
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"--[a-z][a-z-]*", section))
    accepted = set(re.findall(r"--[a-z][a-z-]*", "".join(map(help_text, COMMANDS))))
    assert named and named <= accepted, named - accepted


def test_module_entry_point_runs():
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "betaone.cli",
            "density",
            "--ensemble",
            "goe",
            "--size",
            "2",
            "--grid=-1:1:3",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("# command=density")


STARTUP_SCRIPT = """
import contextlib, io, json, sys
import betaone.cli
fresh = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = betaone.cli.main(argv)
    fresh[" ".join(argv)] = [code, sorted(set(sys.modules) - before)]
fresh["parser"] = sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)
print(json.dumps(fresh))
"""


def test_startup_loads_no_numpy_polynomial():
    # every Gauss rule is built from its recurrence (quadrature.gauss_rule),
    # so start-up leaves numpy's polynomial package, and the memory its
    # import takes, unloaded
    src = os.path.dirname(os.path.dirname(betaone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = "import sys, betaone.cli; print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


def test_commands_import_nothing_after_startup():
    # every module a command needs is imported with betaone.cli, which
    # does not import scipy; a call that imported one would move start-up
    # cost into the command's own time.  The command line is parsed against
    # the option table, so no argument parser (argparse, and the gettext
    # and locale it imports) is loaded at all
    commands = [
        ["density", "--ensemble", "goe", "--size", "5", "--grid=-3:3:7"],
        ["density", "--ensemble", "ginoe", "--size", "6", "--grid=-3:3:7", "--path", "both"],
        ["correlate", "--ensemble", "ginoe", "--size", "5", "--points=-0.4,0.3+0.6j"],
        ["verify", "--suite", "all", "--ensemble", "goe", "--size", "3"],
        ["verify", "--suite", "all", "--ensemble", "ginoe", "--size", "3"],
        ["mc-compare", "--ensemble", "ginoe", "--size", "3", "--samples", "10000"],
    ]
    src = os.path.dirname(os.path.dirname(betaone.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_SCRIPT, json.dumps(commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    fresh = json.loads(proc.stdout)
    assert fresh.pop("scipy") == []
    assert fresh.pop("parser") == []
    assert fresh == {" ".join(argv): [0, []] for argv in commands}
