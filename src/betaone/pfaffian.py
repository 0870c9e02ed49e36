"""Pfaffians.

The Pfaffian of an even-dimensional antisymmetric matrix is computed two
ways: the first-row expansion as a correctly rounded signed sum over
perfect matchings (reference, factorial cost) and a skew-symmetric
Parlett-Reid elimination that pivots on the whole trailing block
(production path, cubic cost; a zero block gives exactly 0.0).  Both
take a stack (..., 2n, 2n), treat each matrix on its own, and return
the batch shape (...); a 2-D input is a stack of one and gives a Python
float or complex.
"""

from __future__ import annotations

import functools
import math

import numpy as np

LAPLACE_DIM_CAP = 12
ASYMMETRY_TOL = 1e-12


def as_antisymmetric(matrix):
    """Validate and return a clean antisymmetric copy of a stack of square matrices.

    Roundoff asymmetry up to ASYMMETRY_TOL (relative to the largest
    entry of the same matrix, at least 1) is symmetrized away; anything
    larger is rejected.  The dimension must be even.
    """
    A = np.array(matrix)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.shape[-1] % 2:
        raise ValueError(f"expected square matrices of even dimension, got shape {A.shape}")
    scale = np.maximum(1.0, np.abs(A).max(axis=(-2, -1), initial=0.0))
    asymmetry = np.abs(A + np.swapaxes(A, -1, -2)).max(axis=(-2, -1), initial=0.0)
    if np.any(asymmetry > ASYMMETRY_TOL * scale):
        raise ValueError(f"matrix is not antisymmetric (defect {asymmetry.max():.3e})")
    return 0.5 * (A - np.swapaxes(A, -1, -2))


def standard_pairing(size):
    """The standard pairing J of dimension size: 1 at (2m, 2m+1) and -1 at
    (2m+1, 2m); an odd size leaves the last row and column zero.  At even
    size J = -Z is the inverse of Z, the standard symplectic block-diagonal
    matrix of copies of [[0, -1], [1, 0]]."""
    U = np.zeros((size, size))
    U[range(0, size - 1, 2), range(1, size, 2)] = 1.0
    return U - U.T


@functools.cache
def _expansion(n):
    # the first-row expansion unrolled into (terms, n/2, 2) index pairs and
    # signs: (0, j) at sign (-1)^(j+1), then the minor without 0 and j
    if n == 0:
        return np.zeros((1, 0, 2), dtype=np.intp), np.ones(1)
    minor_pairs, minor_signs = _expansion(n - 2)
    pairs, signs = [], []
    for j in range(1, n):
        head = np.broadcast_to([0, j], (len(minor_signs), 1, 2))
        pairs.append(np.concatenate([head, np.delete(np.arange(1, n), j - 1)[minor_pairs]], 1))
        signs.append((-1.0) ** (j + 1) * minor_signs)
    return np.concatenate(pairs), np.concatenate(signs)


def pfaffian_laplace(matrix):
    """Pfaffian by expansion along the first row, a cross-check for small
    matrices: one gather and product over the matchings, then each
    matrix's signed sum correctly rounded (math.fsum, real and imaginary
    parts apart), so that its bits depend on the terms alone and not on
    the summation order numpy or BLAS picks for the memory at hand."""
    A = as_antisymmetric(matrix)
    if A.shape[-1] > LAPLACE_DIM_CAP:
        raise ValueError(f"expansion is infeasible beyond dim {LAPLACE_DIM_CAP}")
    pairs, signs = _expansion(A.shape[-1])
    terms = (A[..., pairs[..., 0], pairs[..., 1]].prod(axis=-1) * signs).reshape(-1, len(signs))
    value = np.zeros(len(terms), dtype=A.dtype)
    value.real = [math.fsum(t) for t in terms.real.tolist()]
    if np.iscomplexobj(A):
        value.imag = [math.fsum(t) for t in terms.imag.tolist()]
    value = value.reshape(A.shape[:-2])
    return value if A.ndim > 2 else value.item()


def pfaffian(matrix):
    """Pfaffian by skew-symmetric elimination with complete pivoting.

    Parlett-Reid with Bunch's pivot rule (Math. Comp. 38, 1982): each step
    moves the largest |entry| of the trailing block to (k, k+1) by
    transpositions, one sign flip each, and eliminates two rows and
    columns.  A stack takes the n/2 - 1 steps together, each matrix on its
    own pivots.  A zero pivot means a zero trailing block: the value is 0.0.
    """
    A = as_antisymmetric(matrix)
    n = A.shape[-1]
    stack = A.reshape((math.prod(A.shape[:-2]), n, n))
    value = np.ones(len(stack), dtype=A.dtype)
    for k in range(0, n - 2, 2):
        # the first largest entry in row order: flat index 1 is (k, k+1), in
        # place, and 0 the zero diagonal, reached only by a zero block
        trailing = stack[:, k:, k:]
        flat = np.abs(trailing).reshape(len(stack), (n - k) ** 2).argmax(axis=1)
        s = np.flatnonzero(flat > 1)
        if s.size:
            i, j = divmod(flat[s], n - k)
            # k+i goes to k (to k+1 when i = 1) and k+j to the other, in the trailing block (no
            # later step reads before k): two disjoint transpositions, the first trivial when i < 2
            moves = np.array(((i == 1, i != 1), (i, j)))
            trailing[s, moves] = trailing[s, moves[::-1]]
            trailing[s, :, moves] = trailing[s, :, moves[::-1]]
            value[s[i < 2]] *= -1
        pivot = stack[:, k, k + 1]
        value *= pivot
        # a zero pivot leaves a zero block: divide its zero row by 1
        tau = stack[:, k, k + 2 :] / (pivot + (pivot == 0))[:, None]
        outer = tau[:, :, None] * stack[:, None, k + 2 :, k + 1]
        stack[:, k + 2 :, k + 2 :] += outer - np.swapaxes(outer, 1, 2)
    value *= stack[:, n - 2, n - 1] if n else 1.0
    value = value.reshape(A.shape[:-2]) + 0.0  # a flipped zero reads 0.0, not -0.0
    return value if A.ndim > 2 else value.item()
