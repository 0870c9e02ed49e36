"""Sampled real-eigenvalue statistics against the analytic kernel.

Draws real Ginibre matrices at N = 3 block by block, takes their
eigenvalues from LAPACK, tallies the real eigenvalues of each block as
mc-compare does, and compares each bin against the integrated one-point
density; prints per-bin z-scores and the mean real-eigenvalue count.
"""

from functools import partial

from betaone.cli import kernel_bundle
from betaone.montecarlo import GENERATOR, empirical_vs_analytic, ginibre_tallies

SAMPLES = 20_000


def main():
    bundle = kernel_bundle("ginoe", 3)
    comparison = empirical_vs_analytic(partial(ginibre_tallies, 3, SAMPLES, 42), bundle, bins=16)
    print(f"real ginibre N=3, {SAMPLES} samples, seed 42, {GENERATOR}")
    print("   bin            observed  expected      z")
    for k in range(len(comparison.observed)):
        lo, hi = comparison.edges[k], comparison.edges[k + 1]
        print(
            f"  [{lo:5.2f},{hi:5.2f})  {comparison.observed[k]:8d}"
            f"  {comparison.expected[k]:9.1f}  {comparison.z_scores[k]:6.2f}"
        )
    print(f"  flagged bins: {len(comparison.flagged)}")
    print(
        f"  mean real count {comparison.mean_real_count:.4f}"
        f" vs integrated density {comparison.expected_real_count:.4f}"
        f" (stderr {comparison.count_stderr:.4f})"
    )
    print(f"  overall: {'PASS' if comparison.passed else 'FAIL'}")


if __name__ == "__main__":
    main()
