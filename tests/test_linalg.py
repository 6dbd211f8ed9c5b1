import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke import linalg
from dicke.linalg import jacobi_eigh, symmetric_eigenvalues


def random_symmetric(rng, n):
    m = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.uniform(-1.0, 1.0)
    return m


def test_identity():
    assert symmetric_eigenvalues([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]) == [
        1.0,
        1.0,
        1.0,
    ]


def test_off_diagonal_pair():
    for c in (0.37, 1.0):
        values = symmetric_eigenvalues([[0.0, c], [c, 0.0]])
        assert values[0] == pytest.approx(-c, abs=1e-14)
        assert values[1] == pytest.approx(c, abs=1e-14)


def test_hollow_third_matrix():
    # circulant with zero diagonal: doubly degenerate -1/3 and a 2/3
    t = 1.0 / 3.0
    values = symmetric_eigenvalues([[0, t, t], [t, 0, t], [t, t, 0]])
    assert values[0] == pytest.approx(-t, abs=1e-12)
    assert values[1] == pytest.approx(-t, abs=1e-12)
    assert values[2] == pytest.approx(2 * t, abs=1e-12)


def test_matches_numpy_on_random_matrices():
    rng = random.Random(20240817)
    for n in (2, 3, 5, 9):
        for _ in range(50):
            m = random_symmetric(rng, n)
            ours = symmetric_eigenvalues(m)
            reference = np.linalg.eigvalsh(np.array(m))
            assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-12


def test_eigenvalues_sum_to_trace():
    rng = random.Random(7)
    for _ in range(25):
        m = random_symmetric(rng, 9)
        trace = sum(m[i][i] for i in range(9))
        assert sum(symmetric_eigenvalues(m)) == pytest.approx(trace, abs=1e-10)


def test_asymmetric_input_rejected():
    message = r"\|a\[0\]\[1\] - a\[1\]\[0\]\| = 5\.000e-01"
    with pytest.raises(ValueError, match=message):
        symmetric_eigenvalues([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_input_rejected(bad):
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[0.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError):
        symmetric_eigenvalues([[bad, 0.0], [0.0, 1.0]])


def test_unconverged_iteration_raises(monkeypatch):
    monkeypatch.setattr(linalg, "MAX_SWEEPS", 1)
    m = random_symmetric(random.Random(3), 9)
    with pytest.raises(ArithmeticError):
        symmetric_eigenvalues(m)
    # one rotation diagonalizes a 2x2, so one sweep is enough there
    assert symmetric_eigenvalues([[0.0, 0.5], [0.5, 0.0]]) == pytest.approx(
        [-0.5, 0.5], abs=1e-15
    )


def test_an_off_diagonal_norm_at_the_threshold_is_not_converged():
    """Convergence needs a norm strictly below 1e-13 * max(1, largest)."""
    e = 7.071067811865475e-14  # sqrt(2 e^2) rounds to 1e-13 exactly
    m = [[0.0, e], [e, 0.0]]
    assert linalg.off_diagonal_norm(m) == linalg.OFF_DIAGONAL_TOLERANCE
    assert symmetric_eigenvalues(m) == pytest.approx([-e, e], rel=1e-12, abs=0.0)


def test_equal_diagonal_entries_rotate_by_plus_45_degrees():
    """theta = 0 takes t = +1, sign(0) = +1; t = -1 would move the last bits."""
    m = [[1.0, 0.5, 0.3], [0.5, 1.0, 0.2], [0.3, 0.2, 1.0]]
    assert jacobi_eigh(m) == [
        0.48716052632529977, 0.8289308414484848, 1.6839086322262151
    ]


def test_symmetry_tolerance_is_inclusive_and_the_split_reads_the_upper_triangle():
    # |0 - 1e-12| is exactly the tolerance, so the matrix is admitted; its
    # upper triangle is zero, so it is two 1x1 components
    assert symmetric_eigenvalues([[1.0, 0.0], [1e-12, 1.0]]) == [1.0, 1.0]
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigenvalues([[1.0, 0.0], [math.nextafter(1e-12, 1.0), 1.0]])


def test_triangles_that_differ_within_the_tolerance_solve_the_upper_one():
    for diagonal in (1.0, 2.0):
        near = [[1.0, 1e-12], [0.0, diagonal]]
        mirrored = [[1.0, 1e-12], [1e-12, diagonal]]
        assert symmetric_eigenvalues(near) == symmetric_eigenvalues(mirrored)
    assert symmetric_eigenvalues([[1.0, 1e-12], [0.0, 1.0]]) == pytest.approx(
        [1.0 - 1e-12, 1.0 + 1e-12], rel=0.0, abs=1e-15
    )


def test_each_component_is_solved_alone(monkeypatch):
    sizes = []

    def recording(a):
        sizes.append(len(a))
        return jacobi_eigh(a)

    monkeypatch.setattr(linalg, "jacobi_eigh", recording)
    h = 0.5
    blocks = [[[0, 1.0], [1.0, 0]], [[2.0]], [[0, h, h], [h, 0, h], [h, h, 0]]]
    values = symmetric_eigenvalues(_permuted(_direct_sum(blocks), [3, 0, 4, 2, 5, 1]))
    assert sorted(sizes) == [2, 3]
    assert values == pytest.approx([-1.0, -0.5, -0.5, 1.0, 1.0, 2.0], abs=1e-14)


def test_large_entries_converge_to_relative_precision():
    # the stopping threshold scales with the largest entry, so these
    # converge instead of raising after MAX_SWEEPS
    rng = random.Random(11)
    for scale in (1e3, 1e20, 1e100):
        m = [[x * scale for x in row] for row in random_symmetric(rng, 9)]
        ours = symmetric_eigenvalues(m)
        reference = np.linalg.eigvalsh(np.array(m))
        assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-12 * scale


def _direct_sum(blocks):
    n = sum(len(b) for b in blocks)
    m = [[0.0] * n for _ in range(n)]
    start = 0
    for block in blocks:
        for i, row in enumerate(block):
            for j, x in enumerate(row):
                m[start + i][start + j] = x
        start += len(block)
    return m


def _permuted(m, order):
    return [[m[i][j] for j in order] for i in order]


def _symmetric_block(size):
    return st.lists(
        st.floats(-1.0, 1.0), min_size=size * (size + 1) // 2,
        max_size=size * (size + 1) // 2,
    ).map(lambda xs: _fill_symmetric(size, xs))


def _fill_symmetric(size, xs):
    m = [[0.0] * size for _ in range(size)]
    it = iter(xs)
    for i in range(size):
        for j in range(i, size):
            m[i][j] = m[j][i] = next(it)
    return m


#: 2-7 random symmetric blocks of at most 25 rows in all (the side of a
#: spin-2 pair reduction), and a permutation
BLOCKS_AND_ORDER = (
    st.lists(st.integers(1, 5), min_size=2, max_size=7)
    .filter(lambda sizes: sum(sizes) <= 25)
    .flatmap(
        lambda sizes: st.tuples(
            st.tuples(*(_symmetric_block(size) for size in sizes)),
            st.permutations(range(sum(sizes))),
        )
    )
)


@settings(deadline=None)
@given(BLOCKS_AND_ORDER)
def test_component_split_matches_the_unsplit_solve(blocks_and_order):
    blocks, order = blocks_and_order
    m = _permuted(_direct_sum(blocks), order)
    ours = symmetric_eigenvalues(m)
    reference = np.linalg.eigvalsh(np.array(m))
    assert max(abs(a - b) for a, b in zip(ours, reference)) < 1e-12
    assert max(abs(a - b) for a, b in zip(ours, jacobi_eigh(m))) < 1e-13


@settings(deadline=None)
@given(BLOCKS_AND_ORDER, st.data())
def test_nan_between_blocks_is_rejected(blocks_and_order, data):
    blocks, order = blocks_and_order
    m = _direct_sum(blocks)
    # an entry coupling the first block to a later one, where all else is 0
    i = data.draw(st.integers(0, len(blocks[0]) - 1))
    j = data.draw(st.integers(len(blocks[0]), len(m) - 1))
    m[i][j] = m[j][i] = float("nan")
    with pytest.raises(ValueError):
        symmetric_eigenvalues(_permuted(m, order))
