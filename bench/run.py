"""Benchmark betaone through its command line, the way users run it.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of `betaone` command lines (WORKLOADS).
Every job runs `betaone.cli.main(argv)` in a fresh interpreter
(bench/job.py), launched one at a time from this process: a closed loop
with one client, BLAS pinned to one thread.  The seed goes to every
`verify` and `mc-compare` job as `--seed`.  Every job's output is
checked: density and correlation values against bench/reference.json,
`verify` and `mc-compare` reports for `passed`, and every output against
the first output of the same job in this invocation (the CLI promises
byte-identical output for identical configurations).

--trace 0 runs the job list a fixed number of times (PASSES_PER_30S,
scaled by S / 30, at least twice) and reports the end-to-end metrics of
BENCHMARK.json: the `cli.main` times summed over the list (each job's
median pass), the median start-up time and the peak resident set.
--trace 1 runs the list once untraced and once traced from outside the
library (bench/spans.py), then the per-layer unit costs (bench/units.py)
and the known-defect probes, and reports the per-layer metrics.  The
last line of stdout is the JSON result.

Times are read at a reference speed.  The vCPUs of a shared host change
speed by up to a factor of two, for seconds to minutes at a time, and
every kind of work slows with them.  While a command runs, bench/job.py
times a fixed amount of work (speed_sample) every 100 ms; each stretch
of the command is scaled by SPEED_REF_S / (the sample's time at the end
of that stretch), and the samples themselves are left out.  The times
then read as seconds on a host on which a sample takes SPEED_REF_S.
Set-up time is not scaled: spawning and importing do not speed up and
slow down with the samples, and scaling made it less steady.  The raw
seconds of every pass are printed on stderr.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import MODULES, layer_totals

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_out"
JOB_TIMEOUT_S = 120
MIN_PASSES = 2  # every job runs twice at least, for the byte-identical check
# Passes over each job list in a run of --seconds 30; on a 2-vCPU Xeon at
# the seed commit they take 30 to 50 s, job start-up included.  The count
# scales with --seconds but not with speed, so both sides of a comparison
# run the same passes.
PASSES_PER_30S = {"kernel_grid": 3, "verify_suites": 2, "mc_sampling": 2}
# Median time of bench/job.py's speed_sample() on that Xeon; times are
# reported as seconds at that speed.
SPEED_REF_S = 0.003
REFERENCE_RTOL = 1e-9
SEEDED = ("verify", "mc-compare")

# name -> jobs; a job is (name, argv).  See BENCHMARK.json for the reasons.
WORKLOADS = {
    "kernel_grid": [
        ("density-goe-4", ("density", "--ensemble", "goe", "--size", "4", "--grid=-4:4:81")),
        ("density-goe-7", ("density", "--ensemble", "goe", "--size", "7", "--grid=-4:4:81")),
        ("density-goe-10", ("density", "--ensemble", "goe", "--size", "10", "--grid=-5:5:101")),
        ("density-ginoe-9", ("density", "--ensemble", "ginoe", "--size", "9", "--grid=-4:4:81")),
        ("density-ginoe-16-both", ("density", "--ensemble", "ginoe", "--size", "16",
                                   "--grid=-5:5:101", "--path", "both")),
        ("density-ginoe-32-both", ("density", "--ensemble", "ginoe", "--size", "32",
                                   "--grid=-7:7:141", "--path", "both")),
        ("correlate-goe-8", ("correlate", "--ensemble", "goe", "--size", "8",
                             "--points=-0.5,0.2,1.1")),
        ("correlate-ginoe-16", ("correlate", "--ensemble", "ginoe", "--size", "16",
                                "--points=-0.9,0.1,0.8,0.3+0.6j,-0.4+1.2j")),
    ],
    "verify_suites": [
        ("verify-goe-4", ("verify", "--suite", "all", "--ensemble", "goe", "--size", "4")),
        ("verify-goe-6", ("verify", "--suite", "all", "--ensemble", "goe", "--size", "6")),
        ("verify-ginoe-8", ("verify", "--suite", "all", "--ensemble", "ginoe", "--size", "8")),
        ("verify-ginoe-10", ("verify", "--suite", "all", "--ensemble", "ginoe", "--size", "10")),
    ],
    "mc_sampling": [
        ("mc-ginoe-3", ("mc-compare", "--ensemble", "ginoe", "--size", "3", "--samples", "20000")),
        ("mc-ginoe-8", ("mc-compare", "--ensemble", "ginoe", "--size", "8", "--samples", "10000")),
        ("mc-goe-4", ("mc-compare", "--ensemble", "goe", "--size", "4", "--samples", "10000")),
    ],
}

# Known defects at the seed commit: each exits non-zero (3, 1, 3).  They run
# once per traced invocation, untimed and outside the failure count.
KNOWN_DEFECTS = (
    ("density", "--ensemble", "goe", "--size", "12", "--grid=-4:4:81"),
    ("verify", "--suite", "reduction", "--ensemble", "goe", "--size", "8"),
    ("verify", "--suite", "skew", "--ensemble", "ginoe", "--size", "14"),
)


def workload_jobs(workload, seed):
    jobs = []
    for name, argv in WORKLOADS[workload]:
        if argv[0] in SEEDED:
            argv = argv + ("--seed", str(seed))
        jobs.append((name, argv))
    return jobs


def ensemble(argv):
    return argv[argv.index("--ensemble") + 1]


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv, spans="-"):
    """Run one CLI job in a fresh interpreter; return its record.

    setup_s is the time from just before the spawn until the child has
    imported betaone.cli; both ends read the system-wide monotonic clock.
    A job that crashes or times out gets a record with code None, read
    as if it ran at the reference speed.
    """
    command = [sys.executable, str(BENCH / "job.py"), spans, "--", *argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=JOB_TIMEOUT_S,
        )
        record = json.loads(proc.stdout.splitlines()[-1])
    except (subprocess.TimeoutExpired, json.JSONDecodeError, IndexError):
        elapsed = time.monotonic() - spawned
        return {"code": None, "stdout": "", "call_s": elapsed, "setup_s": elapsed, "maxrss_kb": 0,
                "speed_during": [], "speed_after": [SPEED_REF_S]}
    record["setup_s"] = record["imported"] - spawned
    return record


def call_seconds(record):
    """The `cli.main` call in seconds at the reference speed.

    The stretch of the call up to each speed sample ran at that sample's
    speed, the stretch after the last one at the speed measured right
    after the call; the samples' own time is left out.
    """
    total = edge = 0.0
    for at, seconds in record["speed_during"]:
        total += (at - edge) * SPEED_REF_S / seconds
        edge = at + seconds
    tail = record["call_s"] - edge
    return total + tail * SPEED_REF_S / statistics.median(record["speed_after"])


def header(text, key):
    prefix = "# %s=" % key
    for line in text.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):]
    return None


def series(kind, text):
    """Numeric columns of a density CSV, or the value of a correlation."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    if kind == "correlate":
        return {"rho": [float(r[3]) for r in rows if r[0] == "rho"]}
    columns = rows[0]
    return {c: [float(r[i]) for r in rows[1:]] for i, c in enumerate(columns)}


def reference_gap(got, expected):
    """Why the output misses the reference, or None when it matches."""
    if expected is None:
        return "no reference values"
    for column, want in expected.items():
        have = got.get(column)
        if have is None or len(have) != len(want):
            return "column %s missing or of another length" % column
        scale = max(abs(v) for v in want)
        gap = max(abs(a - b) for a, b in zip(have, want))
        if gap > REFERENCE_RTOL * scale:
            return "column %s off by %.3e (series maximum %.3e)" % (column, gap, scale)
    return None


class Checker:
    """Checks job outputs; remembers each job's first stdout."""

    def __init__(self, reference):
        self.reference = reference
        self.first = {}
        self.failures = []

    def count_failed(self, jobs, passes):
        """Number of job runs, over all passes, whose output is wrong."""
        failed = 0
        for records in passes:
            for (name, argv), record in zip(jobs, records):
                reason = self._reason(name, argv, record)
                if reason is not None:
                    self.failures.append("%s: %s" % (name, reason))
                    failed += 1
        return failed

    def _reason(self, name, argv, record):
        if record["code"] != 0:
            return "exit code %s: %s" % (record["code"], record.get("stderr", "").strip()[-300:])
        out = record["stdout"]
        if self.first.setdefault(name, out) != out:
            return "stdout differs from an earlier run of the same job"
        kind = argv[0]
        try:
            if kind in ("density", "correlate"):
                return reference_gap(series(kind, out), self.reference.get(name))
            if kind == "verify":
                passed = json.loads(out)["passed"] is True
            else:
                passed = header(out, "passed") == "true"
        except (ValueError, KeyError, IndexError) as exc:
            return "unreadable output (%s)" % exc
        return None if passed else "report not passed"


def run_pass(jobs, trace_dir=None):
    records = []
    for index, (name, argv) in enumerate(jobs):
        spans = str(trace_dir / ("%02d-%s.npz" % (index, name))) if trace_dir else "-"
        records.append(launch(argv, spans))
    return records


def summed(jobs, seconds):
    """wall_s, goe_s and ginoe_s: job seconds summed over the list."""
    times = {"wall_s": 0.0, "goe_s": 0.0, "ginoe_s": 0.0}
    for (_, argv), s in zip(jobs, seconds):
        times["wall_s"] += s
        times[ensemble(argv) + "_s"] += s
    return times


def samples_per_s(jobs, records):
    samples = seconds = 0.0
    for (_, argv), record in zip(jobs, records):
        if argv[0] == "mc-compare":
            samples += int(argv[argv.index("--samples") + 1])
            seconds += call_seconds(record)
    return samples / seconds if seconds else 0.0


def end_to_end(jobs, passes):
    """Each job's median pass, summed; median set-up; peak RSS."""
    metrics = summed(jobs, [
        statistics.median(call_seconds(records[i]) for records in passes)
        for i in range(len(jobs))
    ])
    every = [r for records in passes for r in records]
    metrics["setup_s"] = statistics.median(r["setup_s"] for r in every)
    metrics["peak_rss_mb"] = max(r["maxrss_kb"] for r in every) / 1024.0
    return metrics


def diagnostics(jobs, records):
    """Deterministic numerical-edge values parsed from the CLI reports."""
    path_gap, margin, resamples, samples = 0.0, 0.0, 0, 0
    for (_, argv), record in zip(jobs, records):
        out = record["stdout"]
        if record["code"] != 0:
            continue
        if argv[0] == "density" and header(out, "path_gap") is not None:
            path_gap = max(path_gap, float(header(out, "path_gap")))
        elif argv[0] == "verify":
            for c in json.loads(out)["checks"]:
                if c["tolerance"] > 0:
                    margin = max(margin, c["deviation"] / c["tolerance"])
        elif argv[0] == "mc-compare":
            resamples += int(header(out, "resamples"))
            samples += int(header(out, "samples"))
    return {
        "ginoe_kernels.path_gap": path_gap,
        "cli.verify_margin": margin,
        "montecarlo.resample_ratio": resamples / samples if samples else 0.0,
    }


def layer_metrics(span_files):
    """Per-module calls and self time, plus the layer counters."""
    calls, self_s, counts, absent = {}, {}, {}, set()
    for path in span_files:
        totals, file_counts, file_absent = layer_totals(path)
        absent.update(file_absent)
        for name, (n, s) in totals.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + s
        for key, value in file_counts.items():
            counts[key] = counts.get(key, 0.0) + value

    def called(*names):
        return sum(calls.get(n, 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for module in MODULES:
        names = [n for n in calls if n.split(".", 1)[0] == module]
        metrics[module + ".calls"] = called(*names)
        metrics[module + ".self_s"] = sum(self_s[n] for n in names)
    rules = called("quadrature.gauss_legendre_rule")
    integrals = called("quadrature.integrate_line", "quadrature.integrate_halfplane")
    metrics["quadrature.rules_built"] = rules
    metrics["quadrature.integrals"] = integrals
    metrics["quadrature.rules_per_integral"] = ratio(rules, integrals)
    metrics["skewortho.families_built"] = called("skewortho.build_family_beta1")
    for module in ("kernels", "ginoe_kernels"):
        kernel_calls = called(*("%s.bundle.%s" % (module, a) for a in
                                ("scalar_kernel", "derivative_kernel", "integral_kernel")))
        metrics[module + ".kernel_calls"] = kernel_calls
        metrics[module + ".points_per_call"] = ratio(counts.get(module + ".kernel_points", 0), kernel_calls)
    metrics["pfaffian.mean_order"] = ratio(counts.get("pfaffian.order_sum", 0), called("pfaffian.pfaffian"))
    metrics["eigensolve.matrices"] = called("eigensolve.eig_nonsymmetric")
    return metrics, sorted(absent)


def unit_rows(seed):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "units.py"), str(seed)], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=JOB_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def traced_run(jobs, workload, seed, checker):
    """Per-layer metrics: untraced pass, traced pass, unit rows, probes."""
    plain = run_pass(jobs)
    trace_dir = TRACE_DIR / workload
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    traced = run_pass(jobs, trace_dir)
    failed = checker.count_failed(jobs, (plain, traced))
    metrics, absent = layer_metrics(sorted(trace_dir.glob("*.npz")))
    metrics.update(diagnostics(jobs, plain))
    units = unit_rows(seed)
    absent += [name for name, value in units.items() if value is None]
    metrics.update({name: value or 0.0 for name, value in units.items()})
    metrics["cli.known_defects_open"] = sum(launch(argv)["code"] != 0 for argv in KNOWN_DEFECTS)
    metrics["fail_ratio"] = failed / (2 * len(jobs))
    metrics["mc_samples_per_s"] = samples_per_s(jobs, plain)
    metrics["trace.overhead_ratio"] = (
        sum(call_seconds(r) for r in traced) / sum(call_seconds(r) for r in plain)
    )
    # the untraced pass in plain wall-clock seconds, beside the wall_s reading
    metrics["bench.raw_wall_s"] = sum(r["call_s"] for r in plain)
    metrics["bench.absent_probes"] = len(absent)
    for name in absent:
        print("absent: %s" % name, file=sys.stderr)
    return metrics, 2 * len(jobs), failed


def timed_run(jobs, passes_wanted, checker):
    """End-to-end metrics over `passes_wanted` passes of the job list."""
    passes = []
    while len(passes) < passes_wanted:
        passes.append(run_pass(jobs))
        print("pass %d (raw s / reference s): %s" % (len(passes), " ".join(
            "%s=%.4f/%.4f" % (name, r["call_s"], call_seconds(r))
            for (name, _), r in zip(jobs, passes[-1]))), file=sys.stderr)
    failed = checker.count_failed(jobs, passes)
    return end_to_end(jobs, passes), len(passes) * len(jobs), failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "betaone" / "cli.py").is_file():
        sys.exit("error: no betaone sources under %s" % SRC)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    checker = Checker(json.loads((BENCH / "reference.json").read_text()))
    jobs = workload_jobs(args.workload, args.seed)
    # warm the file cache and write bytecode before anything is timed
    subprocess.run([sys.executable, "-c", "import betaone.cli"], cwd=ROOT, env=child_env(),
                   check=True, timeout=JOB_TIMEOUT_S)
    if args.trace:
        values, attempted, failed = traced_run(jobs, args.workload, args.seed, checker)
        wanted = spec["per_layer"]
    else:
        passes = max(MIN_PASSES, round(PASSES_PER_30S[args.workload] * args.seconds / 30))
        values, attempted, failed = timed_run(jobs, passes, checker)
        wanted = spec["end_to_end"]
    for failure in checker.failures:
        print("check failed: %s" % failure, file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
