"""Even-size kernels collapse to odd-size kernels as one point recedes.

Runs the reduction for the Gaussian ensemble (sizes 4 -> 3, 6 -> 5,
8 -> 7 and 20 -> 19) and the real Ginibre ensemble (4 -> 3) on the
probe grid derived from each size, printing the deviation from the
directly built odd kernel at each far point (derived from the size,
far_points), at the exact limit, and the worst gap between the
conditioned matrix and the Schur complement of the far point's cell;
then the updated scalar block at one pair of points on the way to its
limit, far points past the underflow of the far point's weight
included.
"""

import numpy as np

from betaone.cli import kernel_bundle
from betaone.reduction import conditioned_bundle, far_points, verify_odd_limit


def show(label, report):
    print(label)
    print("  far point:  " + "  ".join(f"{far:8.1f}" for far in report.far_points) + "       inf")
    devs = report.far + (report.exact,)
    print("  deviation:  " + "  ".join(f"{d:8.1e}" for d in devs))
    print(f"  worst ratio {report.ratio:.3f}, far x deviation {report.c1:.3f},"
          f" Schur complement gap {report.schur_gap:.1e}")


def main():
    runs = [("goe", "gaussian weight", N) for N in (4, 6, 8, 20)] + [("ginoe", "real ginibre", 4)]
    for e, label, N in runs:
        report = verify_odd_limit(kernel_bundle(e, N), kernel_bundle(e, N - 1))
        show(f"{label}, {N} -> {N - 1}", report)
    print()
    bundle = kernel_bundle("goe", 4)
    target = kernel_bundle("goe", 3)
    mu, eta = 0.5, -0.2
    print(f"updated scalar block at ({mu}, {eta}):")
    for x_far in far_points(4) + (60.0, 1000.0, np.inf):
        value = conditioned_bundle(bundle, x_far).scalar_kernel(mu, eta)
        print(f"  far={x_far:<7g} {value:.10f}")
    print(f"  direct odd  {target.scalar_kernel(mu, eta):.10f}")


if __name__ == "__main__":
    main()
