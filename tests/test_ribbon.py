import collections
import hashlib
import itertools
import json
import math
import os
import random
from fractions import Fraction

import pytest

from nlab.quiver import AdjacencyGraph, Quiver, adjacency
from nlab.linalg import perm_sign
from nlab.ribbon.census import (automorphisms, canonical_labeled, dart_keys, iso_classes,
                                iso_levels, label_key, labeled_classes, labeled_search,
                                unlabeled_as_classes)
from nlab.ribbon.complexes import (RibbonComplex, bottom_degree, degree_range, family_levels,
                                   top_degree)
from nlab.ribbon.graph import RibbonGraph, RibbonError, tensor_contractions
from nlab.ribbon.orientation import ef_sign, is_orientable

from ribbon_helpers import euler_characteristic, partitions, polygon, polygon_class, relabel

DATA = os.path.join(os.path.dirname(__file__), "..", "examples-data")


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
        code2, _ = relabel(g, perm).canonical()
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
    lg = labeled_classes(1, 2, G, ("p", "q"), genus=0)
    assert len(lg) == 1
    assert not labeled_classes(1, 2, G, ("p", "p"), genus=0)
    # over the loop graph every labeling works
    Gv = loop_graph()
    assert labeled_classes(1, 2, Gv, ("v", "v"), genus=0)
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
        assert euler_dims == euler_betti == euler_characteristic(cx)


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


def pq_graph():
    return adjacency(Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")]))


def _reference_contract(g, edge_index):
    """Contract a non-loop edge by dicts: (graph, {surviving old dart: new dart})."""
    a, b = g.edges[edge_index]
    gam = list(g.gamma)
    merged = g.cycle_from(a)[1:] + g.cycle_from(b)[1:]  # both start at the dead dart
    for i, d in enumerate(merged):
        gam[d] = merged[(i + 1) % len(merged)]
    dead = {a, b}
    dart_map = {}
    for d in range(g.n):
        if d not in dead:
            dart_map[d] = len(dart_map)
    g2 = [0] * len(dart_map)
    i2 = [0] * len(dart_map)
    for d, new in dart_map.items():
        g2[new] = dart_map[gam[d]]
        i2[new] = dart_map[g.iota[d]]
    return RibbonGraph(i2, g2, check=False), dart_map


def _reference_boundary(cx, k):
    """d_k by the recipe that rebuilds the target: contract, relabel the
    contracted faces, canonical_labeled, and the sign (-1)^i times the face
    bijection times ef_sign of the canonical relabeling."""
    key = label_key(cx.G.vertices if cx.G is not None else ())
    mat = [[0] * len(cx.basis[k]) for _ in cx.basis.get(k - 1, ())]
    for col, lg in enumerate(cx.basis[k]):
        g = lg.graph
        for i in range(g.num_edges):
            if g.is_loop(i):
                continue
            contracted, dart_map = _reference_contract(g, i)
            face_img = [contracted.face_of(dart_map[next(d for d in cyc if d in dart_map)])
                        for cyc in g.faces]
            labels = [None] * contracted.num_faces
            for old_f, new_f in enumerate(face_img):
                labels[new_f] = lg.face_labels[old_f]
            target = canonical_labeled(contracted, labels, key)
            pos = cx.index[k - 1].get(target.code)
            if pos is None:
                assert not target.is_orientable()
                continue
            _, perms = labeled_search(contracted.canonical(), dart_keys(contracted, labels, key))
            mat[pos][col] += ((-1) ** i * perm_sign(face_img)
                              * ef_sign(contracted, perms[0], target.graph))
    return mat


def test_boundary_transport_matches_rebuilt_targets():
    # the boundary carries face keys through the contraction and reads the
    # target from the basis; it must equal the rebuild-every-target recipe
    G = pq_graph()
    families = [((1, 3, 3), {}), ((0, 5, 3), dict(max_edges=6)), ((2, 1, 3), {}),
                ((0, 4, 3), dict(G=G, X=("p", "p", "q", "q"))),
                ((1, 2, 3), dict(G=G, X=("p", "q")))]
    rng = random.Random(17)
    for args, kw in families:
        cx = RibbonComplex(*args, **kw)
        for k, mat in cx.matrices.items():
            assert mat == _reference_boundary(cx, k), (args, k)
            for _ in range(3):
                vec = [rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in cx.basis[k]]
                dense = [sum(x * v for x, v in zip(row, vec)) for row in mat]
                assert cx.apply(k, vec) == dense, (args, k)


def test_cold_build_canonical_search_count_pinned(monkeypatch):
    # each unordered vertex split, base class, unlabeled graph and boundary
    # contraction of an unlabeled graph runs one canonical search: a
    # duplicate split or a second search per contraction moves these counts.
    # The labelings of a graph share its searches, so (0,4,{p,p,q,q}) reads
    # fewer than its 199 labeled classes and contractions
    from nlab import kernels
    calls = []
    search = kernels.canonical_data
    monkeypatch.setattr(kernels, "canonical_data",
                        lambda *args: calls.append(1) or search(*args))
    # every labeled class shares its unlabeled graph object, so a labeled
    # build makes no more graphs from codes than the unlabeled build does
    built = []
    from_code = RibbonGraph.from_code
    monkeypatch.setattr(RibbonGraph, "from_code",
                        staticmethod(lambda code: built.append(1) or from_code(code)))
    calls.clear()
    RibbonComplex(0, 4, 3)
    unlabeled, unlabeled_built = len(calls), len(built)
    for args, kw, want in [((1, 3, 3), {}, 8687), ((2, 1, 3), {}, 1970),
                           ((0, 4, 3), dict(G=pq_graph(), X=("p", "p", "q", "q")), 139)]:
        calls.clear()
        built.clear()
        RibbonComplex(*args, **kw)
        assert len(calls) == want, (args, kw)
        if "G" in kw:
            assert len(built) <= unlabeled_built, (len(built), unlabeled_built)
    # distinct labels: the labeled build searches what the unlabeled build
    # does, plus the contractions of the unlabeled graphs that only a
    # labeling makes orientable, whatever the labels
    kmin, kmax = degree_range(0, 4, 3)
    extra = sum(sum(not g.is_loop(i) for i in range(g.num_edges))
                for k, graphs in iso_levels(kmin + 1, kmax, 3, 0, 4) for g in graphs
                if not is_orientable(g, automorphisms(g.canonical()[1])))
    G = adjacency(Quiver.load(os.path.join(DATA, "complete4.json")))
    calls.clear()
    built.clear()
    RibbonComplex(0, 4, 3, G=G, X=("a", "b", "c", "d"))
    assert len(calls) <= unlabeled + extra, (len(calls), unlabeled, extra)
    assert len(built) <= unlabeled_built, (len(built), unlabeled_built)


def test_labeled_class_counts_by_burnside():
    # the labeled classes over an unlabeled graph are the orbits of its
    # automorphisms on its admissible labelings: (1/|Aut|) sum_s fix(s),
    # with the labelings and the fixed ones counted by brute force
    complete4 = adjacency(Quiver.load(os.path.join(DATA, "complete4.json")))
    for g, m, G, X in [(0, 4, complete4, "abcd"), (0, 4, pq_graph(), "ppqq"),
                       (1, 3, pq_graph(), "ppq")]:
        total = 0
        for k, graphs in iso_levels(*degree_range(g, m, 3), 3, g, m):
            classes = labeled_classes(k, 3, G, X, genus=g, graphs=graphs)
            over = collections.Counter(lg.code[:2] for lg in classes)
            assert set(over) <= {(gr.gamma, gr.iota) for gr in graphs}
            # each class is its iso_levels graph with the least labeling of
            # its orbit, whose stabilizer starts at the identity
            for lg in classes:
                assert any(lg.graph is gr for gr in graphs)
                assert lg.code[2] == dart_keys(lg.graph, lg.face_labels, label_key(G.vertices))
                assert lg.auts[0] == tuple(range(lg.graph.n))
            total += sum(over.values())
            for graph in graphs:
                faces = graph.faces
                labelings = [lab for lab in set(itertools.permutations(X))
                             if all(G.adjacent(lab[graph.face_of(a)], lab[graph.face_of(b)])
                                    for a, b in graph.edges)]
                auts = automorphisms(graph.canonical()[1])
                fixed = sum(all(lab[graph.face_of(s[cyc[0]])] == lab[f]
                                for f, cyc in enumerate(faces))
                            for s in auts for lab in labelings)
                assert fixed == len(auts) * over[graph.gamma, graph.iota], (g, m, X, graph)
        assert total > 10, (g, m, X)


def test_one_pass_levels_equal_per_degree_classes():
    for g, m, v, top in [(0, 5, 3, 7), (1, 3, 3, 6), (2, 1, 3, 6), (0, 3, 2, 5)]:
        kmin = bottom_degree(g, m)
        levels = list(iso_levels(kmin, top, v, g, m))
        assert [k for k, _ in levels] == list(range(kmin, top + 1))
        for k, graphs in levels:
            want = iso_classes(k, v, g, m)
            assert [(c.gamma, c.iota) for c in graphs] == \
                [(c.gamma, c.iota) for c in want], (g, m, v, k)
        assert levels[-1][1], (g, m, v)
        for k, classes in family_levels(kmin, top, g, m, v):
            want = unlabeled_as_classes(k, v, genus=g, faces=m)
            assert [(lg.code, lg.auts) for lg in classes] == [(lg.code, lg.auts) for lg in want]
    # a labeled family: each degree labeled on its own, auts in the same order
    G, X = pq_graph(), ("p", "p", "q")
    seen = 0
    for k, classes in family_levels(bottom_degree(1, 3), 6, 1, 3, 3, G, X):
        want = labeled_classes(k, 3, G, X, genus=1)
        assert [(lg.code, lg.face_labels, lg.auts) for lg in classes] == \
            [(lg.code, lg.face_labels, lg.auts) for lg in want], k
        seen += len(classes)
    assert seen > 50


# sha256 of the version-2 cache files (sparse boundaries) of these families;
# their "basis" objects are byte-identical to those of the version-1 files
# written before the one-pass generation, the pruned canonical search and
# the one-shot JSON encoding: class order, automorphism order and the
# encoder's bytes must not move
CACHE_SHA256 = {
    (1, 2, 7, None): "e2042d13e3ff2103e3ef769b95658e286f659c58dd5cec6feff669abdc632ef5",
    (1, 2, None, ("p", "q")): "70dcb3c2a0a737475e946f2d7dd556c4c6b99c498ac362ac700e2389f4e8cd1c",
}


@pytest.mark.parametrize("family", sorted(CACHE_SHA256, key=str))
def test_complex_cache_bytes_pinned(family, tmp_path):
    g, m, max_edges, X = family
    RibbonComplex(g, m, 3, G=pq_graph() if X else None, X=X, max_edges=max_edges,
                  cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("complex-*.json")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CACHE_SHA256[family]


def test_disconnected_graph_reported():
    g = RibbonGraph([1, 0, 3, 2], [1, 0, 3, 2], check=False)
    with pytest.raises(RibbonError):
        g.genus()


def test_size_guard(monkeypatch):
    G = loop_graph()
    monkeypatch.setattr(RibbonComplex, "SIZE_GUARD", 2)
    with pytest.raises(RibbonError, match="SIZE_GUARD"):
        RibbonComplex(0, 4, 3, G=G, X=("v",) * 4)


def matmul(a, b):
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def dense_rows(stored, ncols):
    return [[dict(row).get(j, 0) for j in range(ncols)] for row in stored]


def test_complex_cache_validated_on_load(tmp_path):
    # a truncated file, one without bases, one with a boundary one row
    # short or one row long, one with an entry changed so that d^2 != 0,
    # ones with an entry whose column is out of range (negative ones
    # included) or not an int or whose coefficient is zero or not an int, and
    # one with a column listed twice are misses: the complex is rebuilt and
    # the file rewritten
    G = loop_graph()
    cold = RibbonComplex(1, 2, 3, G=G, X=("v", "v"))
    RibbonComplex(1, 2, 3, G=G, X=("v", "v"), cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("complex-*.json")
    text = path.read_text()
    stored = json.loads(text)
    assert stored["version"] == 2
    dim = {int(k): len(b) for k, b in stored["basis"].items()}
    short = json.loads(text)
    short["boundary"]["5"] = short["boundary"]["5"][1:]
    broken = json.loads(text)
    d4, d5 = broken["boundary"]["4"], broken["boundary"]["5"]
    assert not any(any(row) for row in matmul(dense_rows(d4, dim[4]), dense_rows(d5, dim[5])))
    t = next(t for t, row in enumerate(d5) if row)
    row = dict(d4[0])
    row[t] = row.get(t, 0) + 1
    d4[0] = [[j, c] for j, c in row.items() if c]
    assert any(any(row) for row in matmul(dense_rows(d4, dim[4]), dense_rows(d5, dim[5])))

    def with_row(k, pick, change):
        bad = json.loads(text)
        rows = bad["boundary"][str(k)]
        t = next(t for t, row in enumerate(rows) if pick(t, row))
        rows[t] = change(rows[t])
        return json.dumps(bad)

    # d^2 = 0 cannot see these: a negative column of d_4 reads the same row
    # of d_5 from the end, and d_5 d_6 never reads row t of d_6 when column
    # t of d_5 is zero
    unread = set(range(dim[5])) - {j for row in stored["boundary"]["5"] for j, _ in row}

    def unread_row(t, row):
        return t in unread and row

    entries = [
        with_row(4, lambda t, row: row, lambda row: [[row[0][0] - dim[4], row[0][1]]] + row[1:]),
        with_row(6, unread_row, lambda row: row + [[dim[6], 1]]),
        with_row(6, unread_row, lambda row: [[float(row[0][0]), row[0][1]]] + row[1:]),
        with_row(6, lambda t, row: unread_row(t, row) and len(row) < dim[6],
                 lambda row: row + [[min(set(range(dim[6])) - {j for j, _ in row}), 0]]),
        with_row(6, unread_row, lambda row: [[j, float(c)] for j, c in row]),
        with_row(6, unread_row, lambda row: [[row[0][0], True]] + row[1:]),
        with_row(6, unread_row, lambda row: row + row[:1]),
    ]
    extra = json.loads(text)
    extra["boundary"]["6"].append([])
    entries.append(json.dumps(extra))
    for bad in (text[:len(text) // 2], json.dumps({"version": 2}), json.dumps(short),
                json.dumps(broken), *entries):
        path.write_text(bad)
        cx = RibbonComplex(1, 2, 3, G=G, X=("v", "v"), cache_dir=str(tmp_path))
        assert cx.matrices == cold.matrices
        assert {k: [lg.code for lg in b] for k, b in cx.basis.items()} == \
            {k: [lg.code for lg in b] for k, b in cold.basis.items()}
        assert path.read_text() == text


def test_built_complex_checks_d_squared(tmp_path, monkeypatch):
    # a build whose boundaries break d^2 = 0 raises, and nothing is cached
    boundary = RibbonComplex._boundary

    def broken(self, k):
        rows = boundary(self, k)
        if k == self.kmin + 2:
            prev = self.boundary[k - 1]
            t, j = next((t, j) for t, row in enumerate(rows) for j in row
                        if any(t in r for r in prev))
            rows[t][j] *= 2
        return rows

    monkeypatch.setattr(RibbonComplex, "_boundary", broken)
    for family in (dict(), dict(G=loop_graph(), X=("v",) * 4)):
        with pytest.raises(RibbonError, match=r"d\^2 != 0 at degree 5"):
            RibbonComplex(0, 4, 3, cache_dir=str(tmp_path), **family)
    assert not list(tmp_path.iterdir())


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


def moduli_betti(g, m):
    """The nonzero Betti numbers, by edge degree, of the (g, m) family whose
    m faces carry distinct labels over the complete graph with every loop:
    the ribbon complex of M_{g,m}, edge degree E carrying H^{6g-6+3m-E}."""
    labels = "abcdefgh"[:m]
    G = AdjacencyGraph(labels, itertools.combinations_with_replacement(labels, 2))
    table = RibbonComplex(g, m, 3, G=G, X=tuple(labels)).betti()
    return {k: b for k, (_, b) in table.items() if b}


def test_distinct_labels_give_moduli_space_cohomology():
    # the Poincare polynomial of M_{0,n} is prod_{k=2}^{n-2} (1 + kt)
    # (Arnold; Keel)
    for n in (3, 4):
        poly = [1]
        for k in range(2, n - 1):
            poly = [a + k * b for a, b in zip(poly + [0], [0] + poly)]
        top = top_degree(0, n, 3)
        assert moduli_betti(0, n) == {top - i: c for i, c in enumerate(poly)}, n
    assert moduli_betti(0, 4) == {5: 2, 6: 1}
    # measured: H^0 of M_{1,1} and M_{1,2}, and H^0, H^3 of M_{1,3}
    assert moduli_betti(1, 1) == {3: 1}
    assert moduli_betti(1, 2) == {6: 1}
    assert moduli_betti(1, 3) == {6: 1, 9: 1}


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


ENTRIES = (1, 2, -1, -3, Fraction(1, 2), Fraction(-2, 3))


def _random_tensor(rng, dims, density):
    return {idx: rng.choice(ENTRIES) for idx in itertools.product(*map(range, dims))
            if rng.random() < density}


def _random_contraction(rng):
    """(blocks, edge_tensors, dims): 1-3 blocks of 1-3 darts with dims 1-3,
    darts named by arbitrary ints, and a random partial matching of the darts
    into edges given in random dart order, with sparse, dense or empty
    pairings."""
    names = rng.sample(range(100), 9)
    blocks, dims = [], {}
    for _ in range(rng.randint(1, 3)):
        darts = [names.pop() for _ in range(rng.randint(1, 3))]
        for d in darts:
            dims[d] = rng.randint(1, 3)
        blocks.append((darts, _random_tensor(rng, [dims[d] for d in darts],
                                              rng.choice((0.4, 1.0)))))
    free = [d for darts, _ in blocks for d in darts]
    rng.shuffle(free)
    edges = []
    while len(free) >= 2 and rng.random() < 0.9:
        a, b = free.pop(), free.pop()
        density = rng.choice((0.0, 0.4, 1.0, 1.0))
        edges.append(((a, b), _random_tensor(rng, (dims[a], dims[b]), density)))
    return blocks, edges, dims


def _brute_contractions(blocks, edges, dims):
    """The multiset of (assignment, product) over every assignment of indices
    to darts whose product is nonzero."""
    darts = sorted(dims)
    out = collections.Counter()
    for vals in itertools.product(*(range(dims[d]) for d in darts)):
        x = dict(zip(darts, vals))
        v = 1
        for ds, tensor in blocks:
            v *= tensor.get(tuple(x[d] for d in ds), 0)
        for (a, b), pairing in edges:
            v *= pairing.get((x[a], x[b]), 0)
        if v:
            out[tuple(sorted(x.items())), v] += 1
    return out


def test_tensor_contractions_match_brute_force():
    """tensor_contractions against every assignment, as multisets of
    (assignment, product), with and without an index kept across calls;
    the seeded cases are checked to cover loop edges, bonds in both dart
    orders, several partners per index, empty pairings, blocks with several
    bonds and later blocks with none."""
    rng = random.Random(31)
    kept = {}
    seen = collections.Counter()
    for _ in range(300):
        blocks, edges, dims = _random_contraction(rng)
        want = _brute_contractions(blocks, edges, dims)
        for index in (None, kept, kept):
            got = collections.Counter(
                (tuple(sorted(assign.items())), v)
                for assign, v in tensor_contractions(blocks, edges, index))
            assert got == want, (blocks, edges)
        depth = {d: t for t, (darts, _) in enumerate(blocks) for d in darts}
        bonds = collections.Counter(max(depth[a], depth[b]) for (a, b), _ in edges
                                    if depth[a] != depth[b])
        seen["loop"] += any(depth[a] == depth[b] for (a, b), _ in edges)
        seen["bond to the first dart"] += any(depth[a] > depth[b] for (a, b), _ in edges)
        seen["bond to the second dart"] += any(depth[a] < depth[b] for (a, b), _ in edges)
        seen["several partners"] += any(
            len({x for x, _ in p}) < len(p) for (a, b), p in edges if depth[a] != depth[b])
        seen["empty pairing"] += any(not p for _, p in edges)
        seen["several bonds"] += any(n > 1 for n in bonds.values())
        seen["later block without bonds"] += any(not bonds[t] for t in range(1, len(blocks)))
        seen["nonzero"] += bool(want)
    assert min(seen.values()) >= 10 and len(seen) == 8, seen
