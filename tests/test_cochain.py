import random

from fractions import Fraction
from itertools import product

from nlab.necklace import NecklaceAlgebra
from nlab.quiver import Quiver, adjacency, double
from nlab.ribbon.cochain import GraphCochain, ce_boundary, evaluate_on_chain
from nlab.ribbon.complexes import RibbonComplex


def loop_quiver():
    return Quiver(["v"], [("e", "v", "v")])


def algebra(N):
    return NecklaceAlgebra(double(loop_quiver().multiply(N)))


def structured_tuples(g, alg, rng, count=8):
    """Necklace tuples built edge-by-edge so the contraction is nonzero."""
    base = alg.dq.base_edges
    out = []
    for _ in range(count):
        letter = {}
        for (a, b) in g.edges:
            e = rng.choice(base)
            if rng.random() < 0.5:
                letter[a], letter[b] = e, e + "*"
            else:
                letter[a], letter[b] = e + "*", e
        W = []
        for cyc in g.vertices:
            darts = []
            d = cyc[0]
            for _ in range(len(cyc)):
                darts.append(d)
                d = g.gamma[d]
            W.append(alg.necklace([letter[x] for x in darts]))
        out.append(W)
    return out


def run_cochain_map(cx, N, seed=5, count=8):
    alg = algebra(N)
    rng = random.Random(seed)
    coch = {(k, i): GraphCochain(cx.basis[k][i], alg)
            for k in cx.basis for i in range(len(cx.basis[k]))}
    checked = 0
    for k in sorted(cx.matrices):
        mat = cx.matrices[k]
        if not mat or not mat[0]:
            continue
        for lgu in cx.basis[k]:
            for W in structured_tuples(lgu.graph, alg, rng, count):
                phis = [coch[(k, j)].evaluate_wedge(W)
                        for j in range(len(cx.basis[k]))]
                dW = ce_boundary(alg, W)
                for ti in range(len(cx.basis[k - 1])):
                    lhs = evaluate_on_chain(coch[(k - 1, ti)], dW)
                    rhs = sum(mat[ti][j] * phis[j] for j in range(len(phis)))
                    assert lhs == rhs
                    checked += 1
    return checked


def test_cochain_map_loop_quiver():
    G = adjacency(loop_quiver())
    cx = RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=4)
    for N in (2, 3):
        assert run_cochain_map(cx, N, count=5) > 0


def labeled_tuples(lg, alg, rng, count=8):
    """Letters chosen to run between the dart's face labels."""
    g = lg.graph
    by_ends = {}
    for e in alg.dq.edge_order:
        by_ends.setdefault((alg.dq.tail[e], alg.dq.head[e]), []).append(e)
    out = []
    for _ in range(count):
        letter = {}
        ok = True
        for (a, b) in g.edges:
            ends = (lg.face_labels[g.face_of(a)], lg.face_labels[g.face_of(b)])
            pool = by_ends.get(ends)
            if not pool:
                ok = False
                break
            e = rng.choice(pool)
            letter[a], letter[b] = e, alg.dq.reverse(e)
        if not ok:
            continue
        W = []
        for cyc in g.vertices:
            darts = []
            d = cyc[0]
            for _ in range(len(cyc)):
                darts.append(d)
                d = g.gamma[d]
            W.append(alg.necklace([letter[x] for x in darts]))
        out.append(W)
    return out


def test_cochain_map_two_vertex_graph():
    q = Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")])
    G = adjacency(q)
    alg = NecklaceAlgebra(double(q.multiply(2)))
    rng = random.Random(9)
    cx = RibbonComplex(0, 3, 2, G=G, X=("p", "p", "q"), max_edges=3)
    coch = {(k, i): GraphCochain(cx.basis[k][i], alg)
            for k in cx.basis for i in range(len(cx.basis[k]))}
    checked = 0
    for k in sorted(cx.matrices):
        mat = cx.matrices[k]
        if not mat or not mat[0]:
            continue
        for lgu in cx.basis[k]:
            for W in labeled_tuples(lgu, alg, rng, 12):
                phis = [coch[(k, j)].evaluate_wedge(W)
                        for j in range(len(cx.basis[k]))]
                dW = ce_boundary(alg, W)
                for ti in range(len(cx.basis[k - 1])):
                    lhs = evaluate_on_chain(coch[(k - 1, ti)], dW)
                    rhs = sum(mat[ti][j] * phis[j] for j in range(len(phis)))
                    assert lhs == rhs
                    checked += 1
    assert checked


def quadratic_necklaces(alg, cap=8):
    from nlab.sweeps import necklaces_of_length
    return necklaces_of_length(alg, 2)[:cap]


def test_invariance_under_quadratic_action():
    G = adjacency(loop_quiver())
    for N in (1, 2, 3):
        alg = algebra(N)
        rng = random.Random(13)
        cx = RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=3)
        for k in cx.basis:
            for lg in cx.basis[k]:
                coch = GraphCochain(lg, alg)
                for W in structured_tuples(lg.graph, alg, rng, 3):
                    for qd in quadratic_necklaces(alg, 4):
                        total = Fraction(0)
                        for i in range(len(W)):
                            acted = alg.bracket(qd, W[i])
                            for ms, c in acted.terms.items():
                                W2 = list(W)
                                W2[i] = ms[0]
                                total += c.coeff(0) * coch.evaluate_wedge(W2)
                        assert total == 0


def test_vanishes_on_non_reverse_letters():
    alg = algebra(2)
    from ribbon_helpers import polygon_class
    lg = polygon_class(3, ("v", "v"))
    coch = GraphCochain(lg, alg)
    # all letters equal: omega vanishes on every edge slot pair
    n = alg.necklace(["e#1", "e#1"])
    assert coch.evaluate_wedge([n, n, n]) == 0


def test_length_valence_mismatch_gives_zero():
    alg = algebra(1)
    G = adjacency(loop_quiver())
    cx = RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=3)
    lg = cx.basis[2][0]
    coch = GraphCochain(lg, alg)
    bad = alg.necklace(["e", "e*"])
    assert coch.evaluate_wedge([bad]) == 0


def test_invariance_under_edge_orientation_choice():
    alg = algebra(2)
    G = adjacency(loop_quiver())
    rng = random.Random(21)
    cx = RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=4)
    from itertools import combinations
    for k in cx.basis:
        for lg in cx.basis[k]:
            coch = GraphCochain(lg, alg)
            for W in structured_tuples(lg.graph, alg, rng, 3):
                base = coch.evaluate_wedge(W)
                ne = lg.graph.num_edges
                for flips in ([0], list(range(ne)), [0, ne - 1]):
                    assert coch.evaluate_wedge(W, edge_flips=flips) == base


def _reference_evaluate(coch, necklaces, edge_flips=()):
    """evaluate_tuple by brute force: every rotation of every necklace at its
    vertex (a periodic necklace once per rotation), each placement's letters
    checked against the face labels, omega multiplied over all edges."""
    g, alg, labels = coch.lg.graph, coch.alg, coch.lg.face_labels
    dq = alg.dq
    if len(necklaces) != g.num_vertices or \
            any(len(c) != len(n.word) for c, n in zip(g.vertices, necklaces)):
        return Fraction(0)
    total = Fraction(0)
    for rots in product(*(range(len(n.word)) for n in necklaces)):
        letter = {}
        for cyc, n, r in zip(g.vertices, necklaces, rots):
            letter.update(zip(cyc, n.word[r:] + n.word[:r]))
        if any(lab is not None for lab in labels) and any(
                (dq.tail[e], dq.head[e]) != (labels[g.face_of(d)], labels[g.face_of(g.iota[d])])
                for d, e in letter.items()):
            continue
        val = 1
        for i, (a, b) in enumerate(g.edges):
            if i in edge_flips:
                a, b = b, a
            val *= alg.symplectic_form(letter[a], letter[b])
        total += val
    sign = coch.bridge.vertex_edge_value(list(range(g.num_vertices)), frozenset(edge_flips))
    return total * sign * coch.scale


def periodic_tuples(g, alg, rng, count=6):
    """One necklace per vertex, each a shorter closed word repeated to the
    vertex's valence where the valence allows it, e.g. (e#1 e#1* e#1 e#1*)."""
    dq = alg.dq
    out = []
    while len(out) < count:
        W = []
        for cyc in g.vertices:
            d = len(cyc)
            period = rng.choice([p for p in range(1, d) if d % p == 0] or [d])
            if period == 2:
                # (x x*) repeated: omega pairs the repeats along loops
                x = rng.choice(dq.edge_order)
                W.append(alg.necklace([x, dq.reverse(x)] * (d // 2)))
                continue
            # a random closed walk of that length, or none
            for _ in range(50):
                word = [rng.choice(dq.edge_order)]
                while len(word) < period:
                    word.append(rng.choice([e for e in dq.edge_order
                                            if dq.tail[e] == dq.head[word[-1]]]))
                if dq.head[word[-1]] == dq.tail[word[0]]:
                    W.append(alg.necklace(word * (d // period)))
                    break
        if len(W) == g.num_vertices:
            out.append(W)
    return out


def test_evaluate_tuple_matches_every_rotation_reference():
    """The shared tensor contraction equals the product over every rotation
    placement, on periodic necklaces, labeled two-vertex classes and under
    random edge flips."""
    rng = random.Random(17)
    G = adjacency(loop_quiver())
    alg = algebra(2)
    q2 = Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")])
    alg2 = NecklaceAlgebra(double(q2.multiply(2)))
    cases = [(alg, RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=4), "loop"),
             (alg, RibbonComplex(1, 1, 3, G=G, X=("v",)), "loop"),
             (alg, RibbonComplex(0, 4, 3, G=G, X=("v",) * 4, max_edges=4), "loop"),
             (alg2, RibbonComplex(0, 3, 2, G=adjacency(q2), X=("p", "p", "q"),
                                  max_edges=3), "labeled"),
             (alg2, RibbonComplex(1, 2, 3, G=adjacency(q2), X=("p", "q"),
                                  max_edges=4), "labeled")]
    seen = {"loop": 0, "labeled": 0, "periodic": 0}
    for a, cx, kind in cases:
        for basis in cx.basis.values():
            for lg in basis:
                coch = GraphCochain(lg, a)
                tuples = [("periodic", W) for W in periodic_tuples(lg.graph, a, rng)]
                make = structured_tuples if kind == "loop" else labeled_tuples
                tuples += [(kind, W) for W in make(lg.graph if kind == "loop" else lg,
                                                   a, rng, 4)]
                for tag, W in tuples:
                    ne = lg.graph.num_edges
                    flips = [e for e in range(ne) if rng.random() < 0.5]
                    value = coch.evaluate_tuple(W, edge_flips=flips)
                    assert value == _reference_evaluate(coch, W, flips), (lg.code, W, flips)
                    seen[tag] += bool(value)
    # every kind of tuple reaches nonzero values
    assert all(n >= 3 for n in seen.values()), seen
