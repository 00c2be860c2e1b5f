import pytest

from baseswap.matroid import graphic_matroid
from baseswap.union import InfeasiblePartitionError, matroid_union_partition

from conftest import K4_EDGES


def test_k4_splits_into_two_spanning_trees():
    m = graphic_matroid(K4_EDGES)
    s1, s2 = matroid_union_partition(m, m, m.ground)
    assert s1 | s2 == m.ground and not s1 & s2
    assert m.is_basis(s1) and m.is_basis(s2)


def test_triangle_splits_into_independents():
    m = graphic_matroid({0: (1, 2), 1: (2, 3), 2: (1, 3)})
    s1, s2 = matroid_union_partition(m, m, m.ground)
    assert m.is_independent(s1) and m.is_independent(s2)
    assert sorted(map(len, (s1, s2))) == [1, 2]


def test_infeasible_returns_violating_set():
    # three parallel edges cannot split into two forests
    m = graphic_matroid({0: (1, 2), 1: (1, 2), 2: (1, 2)})
    with pytest.raises(InfeasiblePartitionError) as err:
        matroid_union_partition(m, m, m.ground)
    witness = err.value.witness
    assert m.rank(witness) * 2 < len(witness)


def test_partition_against_counting_bound():
    # doubled 4-cycle: 8 edges, rank 3: splits 4+4? no, needs r1+r2 >= |X|
    edges = {}
    for i, (u, v) in enumerate([(1, 2), (2, 3), (3, 4), (4, 1)]):
        edges[2 * i] = (u, v)
        edges[2 * i + 1] = (u, v)
    m = graphic_matroid(edges)
    with pytest.raises(InfeasiblePartitionError):
        matroid_union_partition(m, m, m.ground)


def test_mixed_matroids_partition():
    # split E - T into a basis of M and a basis of M/T on a qualifying
    # 7-edge graph (K4 plus an edge parallel to c)
    edges = dict(K4_EDGES)
    edges[6] = edges[2]  # parallel to c = 34
    m = graphic_matroid(edges)
    t = frozenset({0, 1, 3})  # triangle a, b, d
    contraction = m.minor(contract=t)
    s1, s2 = matroid_union_partition(m, contraction, m.ground - t)
    assert m.is_basis(s1)
    assert contraction.is_basis(s2)
