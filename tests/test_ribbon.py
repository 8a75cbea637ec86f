import json
import math
import random
from fractions import Fraction

import pytest

from nlab.quiver import AdjacencyGraph, Quiver, adjacency
from nlab.ribbon.census import (iso_classes, labeled_classes, partitions,
                                polygon_class, unlabeled_as_classes)
from nlab.ribbon.complexes import RibbonComplex, top_degree
from nlab.ribbon.graph import RibbonGraph, RibbonError, polygon
from nlab.ribbon.orientation import is_orientable


def loop_graph():
    return adjacency(Quiver(["v"], [("e", "v", "v")]))


def test_faces_genus_examples():
    # one vertex, one loop: 2 faces, genus 0
    g = RibbonGraph([1, 0], [1, 0])
    assert g.num_faces == 2 and g.genus() == 0
    # one vertex, two interleaved loops: 1 face, genus 1
    g = RibbonGraph([2, 3, 0, 1], [1, 2, 3, 0])
    assert g.num_faces == 1 and g.genus() == 1
    # theta: 3 faces, genus 0
    g = RibbonGraph([2, 4, 0, 5, 1, 3], [1, 3, 5, 0, 2, 4])
    assert g.num_vertices == 2 and g.num_faces == 3 and g.genus() == 0


def test_canonical_iso_invariance_and_idempotence():
    g = RibbonGraph([2, 4, 0, 5, 1, 3], [1, 3, 5, 0, 2, 4])
    code, _ = g.canonical()
    rng = random.Random(3)
    for _ in range(10):
        perm = list(range(6))
        rng.shuffle(perm)
        code2, _ = g.relabel(perm).canonical()
        assert code2 == code
    cg = RibbonGraph.from_code(code)
    code3, _ = cg.canonical()
    assert code3 == code


def test_automorphism_free_action():
    # |Aut| equals the number of minimizing roots; spot check the 2-loop torus
    g = RibbonGraph([2, 3, 0, 1], [1, 2, 3, 0])
    code, perms = g.canonical()
    assert len(perms) == 4  # cyclic rotations of the 4 darts


def test_orientability_examples():
    assert polygon_class(3).is_orientable()
    assert not polygon_class(5).is_orientable()
    # asymmetric graphs are orientable
    for lg in unlabeled_as_classes(4, 3, genus=0, faces=3):
        if len(lg.auts) == 1:
            assert lg.is_orientable()
    # the planar two-vertex four-edge graph is nonorientable
    iota = [1, 0, 3, 2, 5, 4, 7, 6]
    gamma = [2, 7, 4, 1, 6, 3, 0, 5]
    g = RibbonGraph(iota, gamma)
    assert g.genus() == 0 and g.num_faces == 4
    code, perms = g.canonical()
    cg = RibbonGraph.from_code(code)
    inv0 = [0] * 8
    for d, img in enumerate(perms[0]):
        inv0[img] = d
    auts = [tuple(p[inv0[d]] for d in range(8)) for p in perms]
    assert not is_orientable(cg, auts)


def test_enumeration_examples():
    # (0,3) valence >= 3 at 3 edges: theta and dumbbell
    classes = iso_classes(3, 3, genus=0, faces=3)
    assert len(classes) == 2
    vals = sorted(g.valences() for g in classes)
    assert vals == [(3, 3), (3, 3)]
    loops = sorted(sum(1 for e in range(g.num_edges) if g.is_loop(e))
                   for g in classes)
    assert loops == [0, 2]  # theta has none, the dumbbell two loops + bridge
    # (1,1) at 2 edges: the one-vertex two-loop graph appears in enum
    classes = iso_classes(2, 3, genus=1, faces=1)
    assert len(classes) == 1 and classes[0].num_vertices == 1
    # top cells of (1,1) are trivalent with 3 = 6g-6+3m edges
    assert top_degree(1, 1, 3) == 3
    tops = iso_classes(3, 3, genus=1, faces=1)
    assert tops and all(g.valences() == (3, 3) for g in tops)


def test_labeled_enumeration_constraints():
    # no loop in G: self-adjacent faces are forbidden
    G = adjacency(Quiver(["p", "q"], [("a", "p", "q")]))
    # the 1-gon has two faces sharing an edge; labels must differ
    lg = labeled_classes(1, 2, G, ("p", "q"))
    assert len(lg) == 1
    assert not labeled_classes(1, 2, G, ("p", "p"))
    # over the loop graph every labeling works
    Gv = loop_graph()
    assert labeled_classes(1, 2, Gv, ("v", "v"))
    # loopless one-vertex G: any edge makes a pair of w-labeled faces
    # adjacent, so the labeled list is empty in every degree
    from nlab.quiver import AdjacencyGraph
    G1 = AdjacencyGraph(["w"], [])
    for k in (1, 2, 3):
        assert not labeled_classes(k, 2, G1, ("w",) * 2, genus=0)
        assert not labeled_classes(k, 3, G1, ("w",) * 3, genus=0)


def test_contraction_examples():
    # contracting the dumbbell bridge gives the one-vertex two-loop graph
    dumb = None
    for g in iso_classes(3, 3, genus=0, faces=3):
        if any(g.is_loop(e) for e in range(g.num_edges)):
            dumb = g
    bridge = next(e for e in range(dumb.num_edges) if not dumb.is_loop(e))
    contracted, _ = dumb.contract(bridge)
    assert contracted.num_vertices == 1 and contracted.num_edges == 2
    assert contracted.num_faces == dumb.num_faces
    assert contracted.genus() == dumb.genus()
    # theta contraction likewise
    theta = next(g for g in iso_classes(3, 3, genus=0, faces=3)
                 if not any(g.is_loop(e) for e in range(g.num_edges)))
    for e in range(3):
        c, _ = theta.contract(e)
        assert c.num_vertices == 1 and c.num_faces == 3 and c.genus() == 0
    with pytest.raises(RibbonError):
        dumb.contract(next(e for e in range(3) if dumb.is_loop(e)))


def test_d_squared_and_euler():
    G = loop_graph()
    for (g, m, mv, me) in [(0, 3, 3, None), (0, 4, 3, None), (1, 1, 3, None),
                           (1, 2, 3, None), (0, 3, 2, 5), (1, 1, 2, 4)]:
        cx = RibbonComplex(g, m, mv, G=G, X=("v",) * m, max_edges=me)
        assert cx.check_d_squared()
        table = cx.betti()
        euler_dims = sum((-1) ** k * d for k, (d, b) in table.items())
        euler_betti = sum((-1) ** k * b for k, (d, b) in table.items())
        assert euler_dims == euler_betti == cx.euler_characteristic()


def test_polygon_subcomplex_pattern():
    # sp-type: equal labels; orientable exactly at k = 3 mod 4
    for k in range(1, 13):
        lg = polygon_class(k, ("v", "v"))
        assert lg.is_orientable() == (k % 4 == 3), k


def test_polygon_homology_mod4():
    # build the valence-2 polygon complex up to 12 edges by hand
    dims = {}
    for k in range(1, 13):
        lg = polygon_class(k, ("v", "v"))
        dims[k] = 1 if lg.is_orientable() else 0
    # d vanishes: targets of contraction are (k-1)-gons, nonorientable
    # whenever the k-gon is orientable (k = 3 mod 4 means k-1 = 2 mod 4)
    for k in range(1, 12):
        b = dims[k]  # no differential: betti = dim
        assert (b != 0) == (k % 4 == 3)


def test_ribbon_json_round_trip():
    g = polygon(3)
    text = g.to_json(face_labels=["v", "v"])
    g2, labels = RibbonGraph.from_json(text)
    assert labels == ["v", "v"]
    assert g2.canonical()[0] == g.canonical()[0]


def test_partitions():
    assert set(partitions(6, 3)) == {(6,), (3, 3)}
    assert (2, 2, 2) in partitions(6, 2)


def test_complex_caching(tmp_path):
    G = loop_graph()
    cx1 = RibbonComplex(0, 3, 3, G=G, X=("v",) * 3, cache_dir=str(tmp_path))
    cx2 = RibbonComplex(0, 3, 3, G=G, X=("v",) * 3, cache_dir=str(tmp_path))
    assert cx1.dims() == cx2.dims()
    assert cx1.matrices == cx2.matrices
    assert list(tmp_path.glob("complex-*.json"))


def test_disconnected_graph_reported():
    g = RibbonGraph([1, 0, 3, 2], [1, 0, 3, 2], check=False)
    with pytest.raises(RibbonError):
        g.genus()


def test_size_guard():
    G = loop_graph()
    with pytest.raises(RibbonError):
        RibbonComplex(0, 4, 3, G=G, X=("v",) * 4, size_guard=2)


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def test_complex_cache_validated_on_load(tmp_path):
    # a truncated file, one without bases, one with a matrix one row short
    # and one with an entry changed so that d^2 != 0 are misses: the
    # complex is rebuilt and the file rewritten
    G = loop_graph()
    cold = RibbonComplex(1, 2, 3, G=G, X=("v", "v"))
    RibbonComplex(1, 2, 3, G=G, X=("v", "v"), cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("complex-*.json")
    text = path.read_text()
    short = json.loads(text)
    short["matrices"]["5"] = short["matrices"]["5"][1:]
    broken = json.loads(text)
    d4, d5 = broken["matrices"]["4"], broken["matrices"]["5"]
    assert not any(any(row) for row in matmul(d4, d5))
    t = next(t for t, row in enumerate(d5) if any(row))
    d4[0][t] += 1
    assert any(any(row) for row in matmul(d4, d5))
    for bad in (text[:len(text) // 2], json.dumps({"version": 1}), json.dumps(short),
                json.dumps(broken)):
        path.write_text(bad)
        cx = RibbonComplex(1, 2, 3, G=G, X=("v", "v"), cache_dir=str(tmp_path))
        assert cx.matrices == cold.matrices
        assert {k: [lg.code for lg in b] for k, b in cx.basis.items()} == \
            {k: [lg.code for lg in b] for k, b in cold.basis.items()}
        assert path.read_text() == text


def test_complex_cache_face_labels_validated_on_load(tmp_path, monkeypatch):
    # stored face labels must be the family's multiset (all None when
    # unlabeled) and agree with the code's per-dart label keys; anything
    # else is a miss that rebuilds, while an intact file is a hit
    G = AdjacencyGraph(["p", "q"], [("p", "q"), ("p", "p"), ("q", "q")])

    def rotated(labels):
        return labels[1:] + labels[:1]

    for family, corruptions in [
        (dict(G=G, X=("p", "p", "q")), [lambda labels: ["zz"] * len(labels), rotated,
                                         lambda labels: labels[:-1]]),
        (dict(), [lambda labels: ["v"] * len(labels), lambda labels: labels + [None]]),
    ]:
        cache = tmp_path / str(len(family))
        cold = RibbonComplex(0, 3, 3, **family)
        RibbonComplex(0, 3, 3, cache_dir=str(cache), **family)
        (path,) = cache.glob("complex-*.json")
        text = path.read_text()
        for corrupt in corruptions:
            bad = json.loads(text)
            for items in bad["basis"].values():
                for item in items:
                    item["face_labels"] = corrupt(item["face_labels"])
            path.write_text(json.dumps(bad))
            cx = RibbonComplex(0, 3, 3, cache_dir=str(cache), **family)
            assert {k: [(lg.code, lg.face_labels) for lg in b] for k, b in cx.basis.items()} == \
                {k: [(lg.code, lg.face_labels) for lg in b] for k, b in cold.basis.items()}
            assert path.read_text() == text
        with monkeypatch.context() as m:
            m.setattr(RibbonComplex, "_build", lambda self: pytest.fail("cache miss"))
            assert RibbonComplex(0, 3, 3, cache_dir=str(cache), **family).matrices == \
                cold.matrices


def test_complex_cache_keyed_by_package_version(tmp_path, monkeypatch):
    # a complex cached by another nlab version is a miss: it is rebuilt into
    # a file of its own, and each version then hits its own file
    from nlab.ribbon import complexes
    cold = RibbonComplex(0, 4, 3)
    RibbonComplex(0, 4, 3, cache_dir=str(tmp_path))
    (old,) = tmp_path.glob("complex-*.json")
    builds = []
    build = RibbonComplex._build
    monkeypatch.setattr(RibbonComplex, "_build", lambda self: builds.append(1) or build(self))
    with monkeypatch.context() as m:
        m.setattr(complexes, "__version__", "0.0.0-other")
        assert RibbonComplex(0, 4, 3, cache_dir=str(tmp_path)).matrices == cold.matrices
        assert builds == [1]
        new = set(tmp_path.glob("complex-*.json")) - {old}
        assert len(new) == 1 and new.pop().read_text() == old.read_text()
        RibbonComplex(0, 4, 3, cache_dir=str(tmp_path))
        assert builds == [1]
    assert RibbonComplex(0, 4, 3, cache_dir=str(tmp_path)).matrices == cold.matrices
    assert builds == [1]


def euler_characteristic_moduli(g, m):
    """chi(M_{g,m}) from chi(M_{0,3}) = 1, chi(M_{g,1}) = -B_{2g}/(2g) and
    chi(M_{g,m+1}) = (2 - 2g - m) chi(M_{g,m}) (Harer-Zagier)."""
    bernoulli = {2: Fraction(1, 6), 4: Fraction(-1, 30)}
    chi, n = (Fraction(1), 3) if g == 0 else (-bernoulli[2 * g] / (2 * g), 1)
    for j in range(n, m):
        chi *= 2 - 2 * g - j
    return chi


def test_harer_zagier_euler_characteristic():
    # sum over all classes, orientable or not, of (-1)^V / |Aut| equals
    # chi(M_{g,m}) / m!: an independent check of enumeration and auts
    for g, m in [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1)]:
        total = Fraction(0)
        for k in range(2 * g - 1 + m, 6 * g - 6 + 3 * m + 1):
            for lg in unlabeled_as_classes(k, 3, genus=g, faces=m):
                total += Fraction((-1) ** lg.graph.num_vertices, len(lg.auts))
        assert total == euler_characteristic_moduli(g, m) / math.factorial(m), (g, m)
