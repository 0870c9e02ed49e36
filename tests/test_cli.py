import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import betaone
from betaone import montecarlo
from betaone.cli import kernel_bundle, main
from betaone.ginoe_kernels import ginoe_rho
from betaone.kernels import PointConfiguration
from betaone.montecarlo import ginibre_spectra, pair_mass_estimate
from betaone.quadrature import gauss_legendre_rule


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
    assert body[0] == "x,density"
    rows = np.array([[float(v) for v in line.split(",")] for line in body[1:]])
    assert rows.shape == (81, 2)
    mass = np.trapezoid(rows[:, 1], rows[:, 0])
    assert abs(mass - 4.0) < 1e-2
    # the window [-4, 4] sits at the spectrum edge and leaves out real
    # tail mass, so compare the trapezoid against quadrature of the
    # same integrand over the same window
    bundle = kernel_bundle("goe", 4)
    rule = gauss_legendre_rule(200, -4.0, 4.0)
    window = rule.integrate(
        lambda xs: np.array(
            [float(np.real(bundle.scalar_kernel(x, x))) for x in np.atleast_1d(xs)]
        )
    )
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
        ["density", "--grid=-1:1:5"],
        ["correlate", "--points", "0.5"],
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
    for x, wx in zip(x_rule.nodes, x_rule.weights):
        for u, wu in zip(u_rule.nodes, u_rule.weights):
            for v, wv in zip(v_rule.nodes, v_rule.weights):
                point = PointConfiguration(reals=(x,), complexes=(u + 1j * v,))
                mass += wx * wu * wv * ginoe_rho(bundle, point)[0]

    samples, _ = ginibre_spectra(4, 1_000_000, seed=5)
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
            assert by_name["pfaffian-identity-gap"]["deviation"] <= 1e-8


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


def test_verify_skew_reports_refinement_deterministically():
    argv = ["verify", "--suite", "skew", "--ensemble", "ginoe", "--size", "10"]
    code, text, _ = run_cli(argv)
    assert code == 0
    assert run_cli(argv)[1] == text
    (check,) = json.loads(text)["checks"]
    assert check["check"] == "gram-deviation"
    assert check["tolerance"] == 1e-12
    assert check["deviation"] <= 1e-12
    assert check["panels"] >= 2
    assert 0.0 <= check["refinement_difference"] <= 1e-12
    # the CSV report keeps its five columns
    code, text, _ = run_cli(argv + ["--format", "csv"])
    _, body = split_csv(text)
    assert body[0] == "suite,check,deviation,tolerance,passed"
    assert len(body[1].split(",")) == 5


def test_verify_skew_past_reach_exits_3():
    code, _, err = run_cli(["verify", "--suite", "skew", "--size", "6", "--tol-skew", "1e-18"])
    assert code == 3
    assert "skew Gram did not reach tolerance" in err


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


def test_verify_failure_names_the_quantity():
    # an unreachable tolerance forces a clean failure path
    code, text, err = run_cli(
        ["verify", "--suite", "pfaffian", "--tol-pfaffian", "1e-18"]
    )
    assert code == 1
    assert "squared-vs-determinant" in err
    doc = json.loads(text)
    assert doc["passed"] is False


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["verify", "--suite", "nonsense"])
    assert info.value.code == 2


def test_verify_rejects_nonpositive_tolerance():
    code, _, err = run_cli(["verify", "--suite", "pfaffian", "--tol-pfaffian", "0"])
    assert code == 2 and "positive" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_verify_rejects_non_finite_tolerance(value):
    code, text, err = run_cli(["verify", "--suite", "kernels", "--tol-kernels=" + value])
    assert code == 2 and text == ""
    assert "finite and positive" in err


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


@pytest.mark.parametrize(
    "argv, target",
    [
        (["density", "--grid=-4:4:10000000000000"], (np, "linspace")),
        (["mc-compare", "--samples", "100000000000000"], (montecarlo, "_spectra")),
    ],
    ids=["density", "mc-compare"],
)
def test_allocation_failure_exits_3(monkeypatch, argv, target):
    # the allocation is stubbed out: the real one would ask for terabytes
    def failing(*args, **kwargs):
        raise MemoryError("Unable to allocate 72.8 TiB for an array")

    monkeypatch.setattr(*target, failing)
    code, text, err = run_cli(argv)
    assert code == 3 and text == ""
    assert "out of memory" in err and "Unable to allocate" in err


def test_mc_compare_lapack_failure_exits_3(monkeypatch):
    def failing(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", failing)
    code, text, err = run_cli(
        ["mc-compare", "--ensemble", "ginoe", "--size", "3", "--samples", "10000"]
    )
    assert code == 3 and text == ""
    assert "numerical failure" in err and "did not converge" in err


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
print(json.dumps(fresh))
"""


def test_commands_import_nothing_after_startup():
    # every module a command needs is imported with betaone.cli, which
    # does not import scipy; a call that imported one would move start-up
    # cost into the command's own time
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
    assert fresh == {" ".join(argv): [0, []] for argv in commands}
