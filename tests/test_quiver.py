import pytest

from nlab.quiver import (Quiver, QuiverError, adjacency, double, one_loop,
                         two_loops)


def test_double_counts_and_involution():
    for q in (one_loop(), two_loops(),
              Quiver(["v1", "v2"], [("a", "v1", "v2")])):
        dq = double(q)
        assert len(dq.edge_order) == 2 * len(q.edges)
        for e in dq.edge_order:
            assert dq.reverse(dq.reverse(e)) == e
            assert dq.head[dq.reverse(e)] == dq.tail[e]
            assert dq.tail[dq.reverse(e)] == dq.head[e]


def test_double_a2():
    dq = double(Quiver(["v1", "v2"], [("a", "v1", "v2")]))
    assert dq.tail["a"] == "v1" and dq.head["a"] == "v2"
    assert dq.tail["a*"] == "v2" and dq.head["a*"] == "v1"


def test_reverse_unknown_edge():
    dq = double(one_loop())
    with pytest.raises(QuiverError):
        dq.reverse("zz")


def test_adjacency_multiplicity_reduction():
    q = Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])
    g = adjacency(q)
    assert g.adjacent("v", "v")
    assert g.pairs == frozenset({("v", "v")})
    q2 = Quiver(["v1", "v2"], [("a", "v1", "v2"), ("b", "v1", "v2")])
    g2 = adjacency(q2)
    assert g2.adjacent("v1", "v2") and not g2.adjacent("v1", "v1")


def test_adjacency_stable_under_edge_multiplication():
    q = Quiver(["v1", "v2"], [("a", "v1", "v2"), ("c", "v1", "v1")])
    for n in (1, 2, 3):
        assert adjacency(q.multiply(n)).pairs == adjacency(q).pairs


def test_multiply_naming():
    q = one_loop().multiply(2)
    assert sorted(e for e, _, _ in q.edges) == ["e#1", "e#2"]


def test_json_round_trip():
    q = Quiver(["v1", "v2"], [("a", "v1", "v2"), ("c", "v1", "v1")])
    q2 = Quiver.from_json(q.to_json())
    assert q2.vertices == q.vertices and q2.edges == q.edges


def test_validation():
    with pytest.raises(QuiverError):
        Quiver(["v", "v"], [])
    with pytest.raises(QuiverError):
        Quiver(["v"], [("e", "v", "w")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [("e*", "v", "v")])
    with pytest.raises(QuiverError):
        Quiver(["v"], [("e", "v", "v"), ("e", "v", "v")])


def test_integer_ids_are_strings():
    q = Quiver.from_json('{"vertices": [1], "edges": [{"id": "e", "tail": 1, "head": 1}]}')
    assert q.vertices == ("1",) and q.edges == (("e", "1", "1"),)
    assert adjacency(q).adjacent("1", "1")
