"""The adjacency tensor's unfolding, read from the column table."""

from hyperobs.dynamics import DynamicsSpec
from hyperobs.hypergraph import UniformHypergraph


def test_unfold_single_edge():
    dyn = DynamicsSpec(UniformHypergraph(3, 3, [(1, 2, 3)]))
    cols = dyn.unfolding_columns
    assert len(cols) == 3
    # row 1 holds (2,3) and (3,2), first factor most significant:
    # (2-1)*3 + (3-1) = 5 and (3-1)*3 + (2-1) = 7
    assert cols[0].tolist() == [5, 7]
    assert cols[1].tolist() == [2, 6]
    assert cols[2].tolist() == [1, 3]
