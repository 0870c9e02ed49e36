import io
import itertools
import os
import subprocess
import sys
import warnings

import mpmath
import numpy as np
import pytest

import betaone
from betaone import pfaffian as pfaffian_module
from betaone.kernels import PointConfiguration, kernel_bundle
from betaone.pfaffian import (
    as_antisymmetric,
    pfaffian,
    pfaffian_laplace,
    standard_pairing,
)
from betaone.reduction import probe_configuration


def pfaffian_pairing_sum(A):
    # oracle straight from the combinatorial definition: sum over perfect
    # matchings of {0..n-1} with the permutation sign, distinct terms only
    n = A.shape[0]
    if n == 0:
        return 1.0
    total = 0.0
    for perm in itertools.permutations(range(n)):
        ok = all(perm[2 * i] < perm[2 * i + 1] for i in range(n // 2))
        ok = ok and all(perm[2 * i] < perm[2 * i + 2] for i in range(n // 2 - 1))
        if not ok:
            continue
        sign = _perm_sign(perm)
        term = sign
        for i in range(n // 2):
            term = term * A[perm[2 * i], perm[2 * i + 1]]
        total += term
    return total


def _perm_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def random_antisymmetric(rng, n, complex_entries=False, batch=()):
    M = rng.normal(size=batch + (n, n))
    if complex_entries:
        M = M + 1j * rng.normal(size=batch + (n, n))
    return M - np.swapaxes(M, -1, -2)


def test_two_by_two():
    A = np.array([[0.0, 3.7], [-3.7, 0.0]])
    assert pfaffian_laplace(A) == 3.7
    assert np.isclose(pfaffian(A), 3.7, rtol=1e-15, atol=0)


def test_four_by_four_closed_form():
    rng = np.random.default_rng(7)
    A = random_antisymmetric(rng, 4)
    expected = A[0, 1] * A[2, 3] - A[0, 2] * A[1, 3] + A[0, 3] * A[1, 2]
    assert np.isclose(pfaffian_laplace(A), expected, rtol=1e-13, atol=0)
    assert np.isclose(pfaffian(A), expected, rtol=1e-12, atol=0)


def test_laplace_matches_pairing_sum_oracle():
    rng = np.random.default_rng(11)
    for n in [2, 4, 6]:
        A = random_antisymmetric(rng, n)
        assert np.isclose(pfaffian_laplace(A), pfaffian_pairing_sum(A), rtol=1e-12, atol=0)


def test_laplace_dimension_cap():
    with pytest.raises(ValueError):
        pfaffian_laplace(np.zeros((14, 14)))


def test_elimination_matches_laplace_small_dims():
    rng = np.random.default_rng(23)
    for n in [2, 4, 6, 8, 10]:
        for complex_entries in [False, True]:
            A = random_antisymmetric(rng, n, complex_entries)
            lap = pfaffian_laplace(A)
            elim = pfaffian(A)
            assert np.isclose(elim, lap, rtol=1e-10, atol=1e-12), (n, complex_entries)


def test_pfaffian_squared_is_determinant():
    rng = np.random.default_rng(31)
    for n in [2, 4, 8, 12, 16, 20]:
        for complex_entries in [False, True]:
            A = random_antisymmetric(rng, n, complex_entries)
            pf = pfaffian(A)
            det = np.linalg.det(A)
            assert np.isclose(pf * pf, det, rtol=1e-10, atol=0), (n, complex_entries)


def test_block_diagonal_product_form():
    rng = np.random.default_rng(5)
    cs = rng.normal(size=5)
    A = np.zeros((10, 10))
    for i, c in enumerate(cs):
        A[2 * i, 2 * i + 1] = c
        A[2 * i + 1, 2 * i] = -c
    assert np.isclose(pfaffian(A), np.prod(cs), rtol=1e-13, atol=0)


def test_permutation_congruence_flips_sign():
    rng = np.random.default_rng(43)
    for n in [4, 6, 8, 10]:
        A = random_antisymmetric(rng, n)
        perm = rng.permutation(n)
        P = np.eye(n)[perm]
        sign = _perm_sign(tuple(perm))
        # against the expansion, not the elimination itself: a sign lost on a
        # row swap would cancel between the two sides
        assert np.isclose(
            pfaffian(P @ A @ P.T), sign * pfaffian_laplace(A), rtol=1e-10, atol=1e-12
        )


def test_zero_row_column_pair_gives_exact_zero():
    rng = np.random.default_rng(3)
    A = random_antisymmetric(rng, 6)
    A[:, 2] = 0.0
    A[2, :] = 0.0
    assert pfaffian(A) == 0.0
    # -A negates every pivot, so one of A and -A reaches its zero pivot
    # with a negative product
    assert not np.signbit([pfaffian(A), pfaffian(-A)]).any()


def test_largest_entry_moves_into_place_from_every_position():
    # (0, 1) is zero and the largest entry sits at each other place above the
    # diagonal in turn: every member needs a pivot move, from row 0, row 1 or
    # neither, and one left in place would read an exact 0
    rng = np.random.default_rng(73)
    places = [(i, j) for i, j in itertools.combinations(range(6), 2) if (i, j) != (0, 1)]
    stack = random_antisymmetric(rng, 6, batch=(len(places),)) / 100
    stack[:, 0, 1] = stack[:, 1, 0] = 0.0
    for A, (i, j) in zip(stack, places):
        A[i, j], A[j, i] = 1.0, -1.0
    reference = pfaffian_laplace(stack)
    assert np.all(np.abs(pfaffian(stack) - reference) <= 1e-12 * np.abs(reference))


def test_empty_matrix_pfaffian_is_one():
    assert pfaffian(np.zeros((0, 0))) == 1.0


def test_rejects_odd_dimension_and_asymmetry():
    with pytest.raises(ValueError):
        pfaffian(np.zeros((3, 3)))
    bad = np.array([[0.0, 1.0], [-0.5, 0.0]])
    with pytest.raises(ValueError):
        as_antisymmetric(bad)


def test_symmetrizes_roundoff():
    A = np.array([[0.0, 1.0], [-1.0 - 1e-14, 0.0]])
    clean = as_antisymmetric(A)
    assert clean[0, 1] == -clean[1, 0]


def test_z_matrix_structure():
    # J = -Z, Z the block diagonal of [[0, -1], [1, 0]]
    J1 = standard_pairing(2)
    assert np.array_equal(J1, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    J2 = standard_pairing(4)
    assert J2.shape == (4, 4)
    assert np.array_equal(J2[:2, :2], J1)
    assert np.array_equal(J2[2:, 2:], J1)
    assert np.all(J2[:2, 2:] == 0.0) and np.all(J2[2:, :2] == 0.0)
    for n in [1, 2, 5]:
        J = standard_pairing(2 * n)
        assert np.array_equal(J @ J, -np.eye(2 * n))
        as_antisymmetric(J)
    # an odd size borders the pairs with a zero row and column
    J5 = standard_pairing(5)
    assert np.array_equal(J5[:4, :4], standard_pairing(4))
    assert np.all(J5[4] == 0.0) and np.all(J5[:, 4] == 0.0)
    assert standard_pairing(1).shape == (1, 1) and not standard_pairing(1).any()


@pytest.mark.parametrize("n", range(2, 34, 2))
def test_stack_matches_matrix_by_matrix(n):
    # each matrix pivots on its own: real stacks give the per-matrix values
    # bit for bit, complex ones to roundoff of the complex products
    rng = np.random.default_rng(100 + n)
    for complex_entries in [False, True]:
        stack = random_antisymmetric(rng, n, complex_entries, (1000,))
        values = pfaffian(stack)
        assert values.shape == (1000,)
        single = np.array([pfaffian(A) for A in stack[::25]])
        if complex_entries:
            assert np.all(np.abs(values[::25] - single) <= 1e-15 * np.abs(single))
        else:
            assert np.array_equal(values[::25], single)


def test_stack_keeps_batch_shape():
    rng = np.random.default_rng(53)
    stack = random_antisymmetric(rng, 6, batch=(2, 3))
    for function in (pfaffian, pfaffian_laplace):
        values = function(stack)
        assert values.shape == (2, 3)
        assert values[1, 2] == function(stack[1, 2])
        assert np.array_equal(function(np.zeros((4, 0, 0))), np.ones(4))
        assert function(np.zeros((0, 4, 4))).shape == (0,)


def test_two_dimensional_input_gives_python_scalars():
    rng = np.random.default_rng(59)
    for function in (pfaffian, pfaffian_laplace):
        assert type(function(random_antisymmetric(rng, 4))) is float
        assert type(function(random_antisymmetric(rng, 4, complex_entries=True))) is complex
        assert type(function(np.zeros((0, 0)))) is float


def test_singular_members_read_zero_and_leave_neighbours_alone():
    rng = np.random.default_rng(61)
    stack = random_antisymmetric(rng, 8, batch=(5,))
    stack[1, :, 3] = stack[1, 3, :] = 0.0  # structurally singular
    stack[3] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = pfaffian(stack)
        negated = pfaffian(-stack)
    assert values[1] == 0.0 and values[3] == 0.0
    assert not np.signbit([values[[1, 3]], negated[[1, 3]]]).any()
    for i in (0, 2, 4):
        assert values[i] == pfaffian(stack[i]) != 0.0


def test_stack_validates_each_matrix_on_its_own_scale():
    rng = np.random.default_rng(67)
    stack = random_antisymmetric(rng, 6, batch=(4,))
    stack[0] *= 1e6
    # 1e-9 asymmetry passes against the first matrix's scale, not the third's
    stack[2, 0, 1] += 1e-9
    with pytest.raises(ValueError):
        pfaffian(stack)
    with pytest.raises(ValueError):
        pfaffian_laplace(stack)
    stack[2, 0, 1] -= 1e-9
    stack[0, 0, 1] += 1e-9
    assert pfaffian(stack).shape == (4,)


def test_stacked_laplace_matches_pairing_sum_and_elimination():
    rng = np.random.default_rng(71)
    for n in [2, 4, 6, 8]:
        stack = random_antisymmetric(rng, n, batch=(3,))
        expected = [pfaffian_pairing_sum(A) for A in stack]
        assert np.allclose(pfaffian_laplace(stack), expected, rtol=1e-12, atol=0)
    for n in [10, 12]:
        for complex_entries in [False, True]:
            stack = random_antisymmetric(rng, n, complex_entries, (4,))
            assert np.allclose(pfaffian_laplace(stack), pfaffian(stack), rtol=1e-10, atol=1e-12)


def kernel_windows(ensemble, N):
    # verify's windows, every k consecutive probe points, of the library's own matrix
    bundle = kernel_bundle(ensemble, N)
    probe = probe_configuration(bundle.ensemble, N)
    k = min(6, N // (4 if probe.complexes else 2))
    cells = np.arange(len(probe) - k + 1)[:, None] + np.arange(k)
    rows = (2 * cells[:, :, None] + np.arange(2)).reshape(len(cells), 2 * k)
    return bundle.assemble(probe)[rows[:, :, None], rows[:, None, :]], k


def kernel_id(value):
    # a case's id is its ensemble's name with _kernel appended
    return f"{value}_kernel" if isinstance(value, str) else None


@pytest.mark.parametrize("ensemble, N", [("goe", 64), ("ginoe", 32), ("ginoe", 64)], ids=kernel_id)
def test_row_swaps_on_the_kernels_own_windows(ensemble, N):
    # verify's windows ordered as all first rows of the cells, then all second
    # rows: the largest |entry| of every window then lies off (0, 1), so the
    # first step moves it by transpositions, and the sign kept over them is
    # checked against the matching sum and against det(P) Pf(S)
    S, k = kernel_windows(ensemble, N)
    order = np.r_[0 : 2 * k : 2, 1 : 2 * k : 2]
    R = S[:, order[:, None], order]
    assert np.all(np.abs(R[:, 0, 1]) < np.abs(R).max(axis=(1, 2)))
    value = pfaffian(R)
    reference = pfaffian_laplace(R)
    assert np.all(np.abs(value - reference) <= 1e-12 * np.abs(reference))
    sign = np.linalg.det(np.eye(2 * k)[order])
    assert np.all(np.abs(value - sign * pfaffian(S)) <= 1e-12 * np.abs(value))



def at_offset(array, offset):
    """A copy of array whose data starts offset doubles past a 64-byte boundary."""
    buffer = np.empty(array.nbytes + 128, dtype=np.uint8)
    start = -buffer.ctypes.data % 64 + 8 * offset
    copy = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    copy[...] = array
    return copy


LAPLACE_SCRIPT = """
import io, sys
import numpy as np
from betaone.pfaffian import pfaffian_laplace
print(pfaffian_laplace(np.load(io.BytesIO(sys.stdin.buffer.read()))).tobytes().hex())
"""


def test_cofactor_reference_ignores_memory_and_threads(monkeypatch):
    # the GinOE N = 64 windows (9 of 12 x 12) give one result, bit for bit:
    # with the windows and the cached expansion signs copied to each of the
    # 8 double offsets within 64 bytes, and in fresh processes at one and two
    # OpenBLAS threads (a BLAS matrix-vector sum splits by the thread count)
    S, k = kernel_windows("ginoe", 64)
    pairs, signs = pfaffian_module._expansion(2 * k)
    results = set()
    for offset in range(8):
        monkeypatch.setattr(pfaffian_module, "_expansion", lambda n: (pairs, at_offset(signs, offset)))
        results.add(pfaffian_laplace(at_offset(S, offset)).tobytes().hex())
    windows = io.BytesIO()
    np.save(windows, S)
    src = os.path.dirname(os.path.dirname(betaone.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-c", LAPLACE_SCRIPT], input=windows.getvalue(), capture_output=True, env=env, check=True
        )
        results.add(proc.stdout.decode().strip())
    assert len(results) == 1


@pytest.mark.parametrize(
    "ensemble, N, reals, complexes",
    [
        ("goe", 8, (10.5, 0.0, 0.5), ()),
        ("goe", 8, (12.0, 0.0, 0.5), ()),
        ("ginoe", 8, (10.5, 0.0, 0.5), (0.3 + 0.6j,)),
        ("ginoe", 4, (0.0, 1e-12), ()),
    ],
    ids=kernel_id,
)
def test_tail_and_near_coincident_points_match_the_determinant(ensemble, N, reals, complexes):
    # a tail point makes correct correlations tiny (1.7e-18 at GOE N = 8, with
    # 10.5 in the tail), and two near-coincident points make the matrix nearly
    # singular; in every order of the points the elimination must agree with
    # the 50-digit square root of the determinant of the same matrix
    bundle = kernel_bundle(ensemble, N)
    for order in itertools.permutations(reals):
        matrix = bundle.assemble(PointConfiguration(reals=order, complexes=complexes))
        value = pfaffian(matrix)
        with mpmath.workdps(50):
            root = mpmath.sqrt(mpmath.det(mpmath.matrix(matrix.tolist())))
            gap = min(abs(value - root), abs(value + root)) / abs(root)
        assert gap <= 1e-13, (order, value)
