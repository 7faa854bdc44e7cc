"""ivec, sparse matrix and unfolding checks."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperobs.hypergraph import UniformHypergraph, adjacency_unfolding
from hyperobs.tensor import SparseMatrix, ivec


def test_ivec_examples():
    assert ivec((1, 1), (3, 3)) == 1
    # first component fastest
    assert ivec((2, 3), (3, 4)) == 8
    assert ivec((3, 1, 1), (3, 3, 3)) == 3
    assert ivec((1, 1, 2), (3, 3, 3)) == 10
    assert ivec((3,), (7,)) == 3


def test_ivec_errors():
    with pytest.raises(ValueError):
        ivec((1, 2), (3,))
    with pytest.raises(ValueError):
        ivec((), ())
    with pytest.raises(IndexError):
        ivec((0, 1), (3, 3))
    with pytest.raises(IndexError):
        ivec((1, 4), (3, 3))


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
def test_ivec_round_trip(dims):
    # ivec is a bijection from the index box onto 1..total, and stepping the
    # first component moves by one position
    total = 1
    for d in dims:
        total *= d
    boxes = list(product(*(range(1, d + 1) for d in dims)))
    positions = [ivec(j, dims) for j in boxes]
    assert sorted(positions) == list(range(1, total + 1))
    for j in boxes:
        if j[0] < dims[0]:
            assert ivec((j[0] + 1,) + j[1:], dims) == ivec(j, dims) + 1


def test_sparse_matrix_basics():
    ident = SparseMatrix(3, 3, {(i, i): 1 for i in range(1, 4)})
    assert ident.nnz == 3
    assert ident.matvec([4, 5, 6]) == [4, 5, 6]
    assert ident.to_dense()[1] == [0, 1, 0]
    m = SparseMatrix(2, 2, {(1, 1): 1, (2, 2): 0})
    # zero entries are dropped
    assert m.nnz == 1
    with pytest.raises(IndexError):
        SparseMatrix(2, 2, {(3, 1): 1})
    with pytest.raises(ValueError):
        SparseMatrix(-1, 2)
    with pytest.raises(ValueError):
        SparseMatrix(2, 2).matvec([1, 2, 3])


def test_unfold_single_edge():
    g = UniformHypergraph(3, 3, [(1, 2, 3)])
    A = adjacency_unfolding(g)
    assert A.rows == 3 and A.cols == 9
    # row 1 holds 1/2 at the flattened positions of (2,3) and (3,2)
    row1 = {c: v for (r, c), v in A.entries.items() if r == 1}
    assert row1 == {
        ivec((2, 3), (3, 3)): Fraction(1, 2),
        ivec((3, 2), (3, 3)): Fraction(1, 2),
    }
    assert ivec((2, 3), (3, 3)) == 8
    assert ivec((3, 2), (3, 3)) == 6
