"""Run one betaone command line in this fresh interpreter and report on it.

Usage: python3 bench/job.py SPANS_FILE -- ARGV...

The command runs through `betaone.cli.main(ARGV)`, the entry point users
call.  SPANS_FILE is `-` for an untraced run; otherwise the library is
traced from outside (see spans.py) and the spans are written there when
the command returns.  The last line of stdout is one JSON record: the
monotonic clock reading when `import betaone.cli` finished, the duration
of the `cli.main` call, the speed samples taken during and right after it
(see SpeedMonitor), the exit code, the captured command output and
the peak resident set size of this process.
"""

import contextlib
import io
import json
import math
import resource
import signal
import sys
import time

import numpy as np

SAMPLE_PERIOD_S = 0.1
AFTER_SAMPLES = 3
_ZERO_D = np.asarray(0.7)


def speed_sample():
    """Seconds a fixed amount of work takes now: the host's speed.

    The work is an interpreter loop and a loop of NumPy calls on a 0-d
    array, the two kinds betaone's commands spend most time in; the host's
    speed changes do not slow them alike.
    """
    start = time.perf_counter()
    total = 0.0
    for i in range(5000):
        total += math.exp(-1e-4 * i) * (i % 7)
    x = _ZERO_D
    for _ in range(300):
        total += float(x**3 * np.exp(-0.5 * x * x))
    return time.perf_counter() - start


class SpeedMonitor:
    """Samples the host's speed every `period_s` while a command runs.

    The vCPUs of a shared host change speed by up to a factor of two, for
    seconds to minutes at a time.  A SIGALRM handler times speed_sample()
    between two bytecodes of the command; `samples` holds (offset from the
    start, seconds) pairs, so that bench/run.py can convert each stretch of
    the command to seconds at a reference speed and leave the sampling
    out.  A period of 0 takes no samples.
    """

    def __init__(self, period_s):
        self.period_s = period_s
        self.samples = []
        self.start = None

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter() - self.start, speed_sample()))

    def __enter__(self):
        self.start = time.perf_counter()
        if self.period_s:
            self.previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.elapsed = time.perf_counter() - self.start
        if self.period_s:
            signal.signal(signal.SIGALRM, self.previous)
            # a signal raised before the timer stopped may be handled late
            self.samples = [(at, s) for at, s in self.samples if at + s <= self.elapsed]
        return False


def main(argv):
    spans_file, separator, cli_argv = argv[0], argv[1], argv[2:]
    if separator != "--":
        raise SystemExit("usage: job.py SPANS_FILE -- ARGV...")
    import betaone.cli

    imported = time.monotonic()
    tracer = None
    if spans_file != "-":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    out, err = io.StringIO(), io.StringIO()
    # spans would charge the sampling to whatever layer it interrupts
    with SpeedMonitor(SAMPLE_PERIOD_S if tracer is None else 0) as monitor:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = betaone.cli.main(cli_argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
    after = [speed_sample() for _ in range(AFTER_SAMPLES)]
    if tracer is not None:
        tracer.write(spans_file)
    record = {
        "imported": imported,
        "call_s": monitor.elapsed,
        "speed_during": monitor.samples,
        "speed_after": after,
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
