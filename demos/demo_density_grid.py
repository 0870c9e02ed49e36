"""Density profiles for both ensembles at even and odd sizes.

Prints the one-point density on a short grid, its exact total mass (N
for GOE, the mean real count for real Ginibre), and (for the real
Ginibre ensemble) the agreement between the finite-sum kernel and its
closed form.
"""

import numpy as np

from betaone.cli import kernel_bundle
from betaone.ginoe_kernels import ginoe_summed_S
from betaone.kernels import density_integral


def profile(ensemble, size, xs):
    bundle = kernel_bundle(ensemble, size)
    values = [float(v) for v in np.real(bundle.scalar_kernel(xs, xs))]
    mass = density_integral(bundle)
    return values, mass


def main():
    xs = np.linspace(-3.0, 3.0, 7)
    print("one-point density, x =", np.array2string(xs, precision=1))
    for ensemble in ("goe", "ginoe"):
        for size in (3, 4):
            values, mass = profile(ensemble, size, xs)
            row = " ".join(f"{v:8.5f}" for v in values)
            print(f"  {ensemble:5s} N={size}  [{row}]  integral={mass:.6f}")
    print()
    print("the goe integral recovers N; the ginoe integral is the mean")
    print("number of real eigenvalues, which is smaller than N")
    print()
    bundle = kernel_bundle("ginoe", 5)
    worst = np.abs(bundle.scalar_kernel(xs, xs) - ginoe_summed_S(5, xs, xs)).max()
    print(f"ginoe N=5 finite-sum vs closed-form density: worst gap {worst:.2e}")


if __name__ == "__main__":
    main()
