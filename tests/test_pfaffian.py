import itertools
import warnings

import numpy as np
import pytest

from betaone.pfaffian import (
    as_antisymmetric,
    check_self_dual,
    dual_block,
    flatten_blocks,
    pfaffian,
    pfaffian_laplace,
    qdet,
    standard_pairing,
)


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


def random_self_dual(rng, n_blocks, complex_entries=False):
    blocks = np.zeros((n_blocks, n_blocks, 2, 2), dtype=complex if complex_entries else float)
    for i in range(n_blocks):
        blocks[i, i] = rng.normal() * np.eye(2)
        for j in range(i + 1, n_blocks):
            b = rng.normal(size=(2, 2))
            if complex_entries:
                b = b + 1j * rng.normal(size=(2, 2))
            blocks[i, j] = b
            blocks[j, i] = dual_block(b)
    return blocks


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
        assert np.isclose(
            pfaffian(P @ A @ P.T), sign * pfaffian(A), rtol=1e-10, atol=1e-12
        )


def test_zero_row_column_pair_gives_exact_zero():
    rng = np.random.default_rng(3)
    A = random_antisymmetric(rng, 6)
    A[:, 2] = 0.0
    A[2, :] = 0.0
    assert pfaffian(A) == 0.0


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


def test_qdet_identity_block():
    blocks = np.zeros((1, 1, 2, 2))
    blocks[0, 0] = np.eye(2)
    assert np.isclose(qdet(blocks), 1.0, rtol=1e-15, atol=0)


def test_qdet_diagonal_scalar_blocks():
    rng = np.random.default_rng(17)
    cs = rng.normal(size=4)
    blocks = np.zeros((4, 4, 2, 2))
    for i, c in enumerate(cs):
        blocks[i, i] = c * np.eye(2)
    assert np.isclose(qdet(blocks), np.prod(cs), rtol=1e-12, atol=0)


def test_qdet_squared_is_flattened_determinant():
    rng = np.random.default_rng(29)
    for n_blocks in [2, 3, 4, 6]:
        for complex_entries in [False, True]:
            M = random_self_dual(rng, n_blocks, complex_entries)
            q = qdet(M)
            det = np.linalg.det(flatten_blocks(M))
            assert np.isclose(q * q, det, rtol=1e-10, atol=1e-12), (n_blocks, complex_entries)


def test_qdet_invariant_under_even_block_swaps():
    rng = np.random.default_rng(37)
    M = random_self_dual(rng, 4)
    # swap quaternion indices 0<->2 and 1<->3: even permutation of rows/cols
    order = [2, 3, 0, 1]
    swapped = M[np.ix_(order, order)]
    assert np.isclose(qdet(swapped), qdet(M), rtol=1e-11, atol=0)


def test_qdet_rejects_non_self_dual():
    rng = np.random.default_rng(41)
    M = random_self_dual(rng, 3)
    M[0, 1, 0, 0] += 0.1
    with pytest.raises(ValueError):
        qdet(M)


def test_stacked_qdet_matches_matrix_by_matrix():
    # each member checked and eliminated on its own: real stacks give the
    # per-matrix values bit for bit, and keep their batch shape
    rng = np.random.default_rng(43)
    for n_blocks in (1, 3, 4):
        stack = np.array([random_self_dual(rng, n_blocks) for _ in range(6)])
        values = qdet(stack)
        assert values.shape == (6,)
        assert np.array_equal(values, [qdet(M) for M in stack])
        assert np.array_equal(qdet(stack.reshape((2, 3) + stack.shape[1:])), values.reshape(2, 3))


def test_qdet_stack_rejects_one_non_self_dual_member():
    rng = np.random.default_rng(47)
    stack = np.array([random_self_dual(rng, 3) for _ in range(5)])
    qdet(stack)
    # each member is measured against its own largest entry: a large
    # neighbour does not hide a small defect
    stack[0] *= 1e6
    stack[3, 2, 0, 1, 1] += 1e-6
    with pytest.raises(ValueError, match=r"blocks \(0,2\)/\(2,0\)"):
        qdet(stack)
    with pytest.raises(ValueError, match=r"blocks \(0,2\)/\(2,0\)"):
        check_self_dual(stack[3])


def test_check_self_dual_reports_shape_errors():
    with pytest.raises(ValueError):
        check_self_dual(np.zeros((2, 3, 2, 2)))
    with pytest.raises(ValueError):
        check_self_dual(np.zeros((2, 2, 3, 2)))


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
    assert values[1] == 0.0 and values[3] == 0.0
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
