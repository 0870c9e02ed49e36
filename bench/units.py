"""Per-layer unit costs, timed in this process after a warm-up.

Usage: python3 bench/units.py SEED

Prints one JSON object mapping each row name to its median cost in the
unit its name states, or to null when a function the row needs no longer
exists.  Functions are looked up by dotted name at run time, so a
refactor that removes a module turns its rows into absent ones instead
of an error.
"""

import functools
import importlib
import json
import statistics
import sys
import time

import numpy as np

REPEATS = 5
BATCH_S = 0.02


class Absent(LookupError):
    """A function a row needs is not in the library any more."""


def need(dotted):
    module, _, name = dotted.rpartition(".")
    try:
        return getattr(importlib.import_module("betaone." + module), name)
    except ModuleNotFoundError as exc:
        if exc.name != "betaone." + module:
            raise
    except AttributeError:
        pass
    raise Absent(dotted)


def per_call(fn, *args, repeats=REPEATS):
    """Median seconds per call over `repeats` batches of about BATCH_S.

    The first call is the warm-up; its duration sizes the batches.
    """
    start = time.perf_counter()
    fn(*args)
    inner = max(1, round(BATCH_S / (time.perf_counter() - start)))
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            fn(*args)
        samples.append((time.perf_counter() - start) / inner)
    return statistics.median(samples)


@functools.cache
def bundle(ensemble, size):
    return need("cli.kernel_bundle")(ensemble, size)


def pointwise_density(kernels, xs):
    return [float(np.real(kernels.scalar_kernel(x, x))) for x in xs]


def eigvals_each(solve, matrices):
    for m in matrices:
        solve(m)


def main(argv):
    importlib.import_module("betaone")
    rng = np.random.default_rng(int(argv[0]))
    xs = np.linspace(-4.0, 4.0, 81)
    rows = {}

    def row(name, measure):
        try:
            rows[name] = measure()
        except Absent:
            rows[name] = None

    for n in (4, 8, 16, 32):
        a = rng.standard_normal((n, n))
        row("pfaffian.us.n%d" % n, lambda: 1e6 * per_call(need("pfaffian.pfaffian"), a - a.T))
    row("quadrature.rule_us.n64", lambda: 1e6 * per_call(need("quadrature.gauss_legendre_rule"), 64, -1.0, 1.0))
    for n in (4, 8, 10):
        row("skewortho.family_s.N%d" % n, lambda: per_call(
            need("skewortho.build_family_beta1"), need("skewortho.gaussian_weight")(), n, repeats=3))
    row("kernels.density81_ms.pointwise", lambda: 1e3 * per_call(pointwise_density, bundle("goe", 10), xs))
    row("kernels.density81_ms.vector", lambda: 1e3 * per_call(bundle("goe", 10).scalar_kernel, xs, xs))
    row("ginoe_kernels.density81_ms.pointwise", lambda: 1e3 * per_call(pointwise_density, bundle("ginoe", 16), xs))
    row("kernels.rho3_ms", lambda: 1e3 * per_call(
        need("kernels.rho"), bundle("goe", 10),
        need("kernels.PointConfiguration")(reals=(-0.5, 0.2, 1.1))))
    row("ginoe_kernels.rho3_ms", lambda: 1e3 * per_call(
        need("ginoe_kernels.ginoe_rho"), bundle("ginoe", 16),
        need("kernels.PointConfiguration")(reals=(-0.9, 0.1), complexes=(0.3 + 0.6j,))))
    for n in (3, 4, 8):
        matrices = list(rng.standard_normal((50, n, n)))
        row("eigensolve.us_per_matrix.N%d" % n, lambda: 1e6 * per_call(
            eigvals_each, need("eigensolve.eig_nonsymmetric"), matrices) / len(matrices))
    mc_seed = int(rng.integers(2**31))
    row("montecarlo.us_per_sample.ginoe4", lambda: 1e6 * per_call(need("montecarlo.ginibre_spectra"), 4, 400, mc_seed) / 400)
    row("montecarlo.us_per_sample.goe4", lambda: 1e6 * per_call(need("montecarlo.goe_spectra"), 4, 400, mc_seed) / 400)
    row("reduction.verify_ms.ginoe8", lambda: 1e3 * per_call(need("reduction.verify_odd_limit_ginoe"), 8, repeats=3))
    print(json.dumps(rows))


if __name__ == "__main__":
    main(sys.argv[1:])
