"""Acceptance criteria, one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Everything is exact rational arithmetic; tolerances are equality.
"""

import os
import random

import pytest

from fractions import Fraction

from nlab.ainf import WeightEngine, build_cycle, load_data
from nlab.grammar import format_element, parse_element
from nlab.moyal import MoyalHopf
from nlab.necklace import NecklaceAlgebra
from nlab.quiver import Quiver, adjacency, double, one_loop, two_loops, two_vertex
from nlab.ribbon.census import canonical_labeled, iso_classes, label_key
from nlab.ribbon.complexes import RibbonComplex, top_degree
from nlab.ribbon.graph import RibbonGraph
from nlab.ribbon.orientation import is_orientable
from nlab import sweeps

DATA = os.path.join(os.path.dirname(__file__), "..", "examples-data")
QUIVERS = [("one-loop", one_loop()), ("two-loop", two_loops()),
           ("two-vertex", two_vertex())]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(os.environ.get("NLAB_CACHE") or
               tmp_path_factory.mktemp("nlab-cache"))


def report(line):
    print("\n" + line)


def test_ac1_hopf_axiom_suite():
    total = 0
    for i, (name, q) in enumerate(QUIVERS):
        alg = NecklaceAlgebra(double(q))
        checks = sweeps.hopf_checks(alg, max_len=4,
                                    random_cases=67 if i < 2 else 66,
                                    random_len=6, seed=i)
        for c in checks:
            assert c.ok, "%s on %s: %s" % (c.name, name, c.failure)
            total += c.cases
    report("[AC1] Hopf axiom suite (assoc, coassoc, counit, bialgebra, "
           "antipode, S^2): PASS, %d cases over 3 quivers + 200 random" % total)


def test_ac2_classical_limits():
    total = 0
    for i, (name, q) in enumerate(QUIVERS):
        alg = NecklaceAlgebra(double(q))
        checks = sweeps.limit_checks(alg, max_len=4,
                                     random_cases=67 if i < 2 else 66,
                                     random_len=6, seed=10 + i)
        for c in checks:
            assert c.ok, "%s on %s: %s" % (c.name, name, c.failure)
            total += c.cases
    report("[AC2] Classical limits (h^0 sym, h^1 = bracket/2, "
           "h^1 of Delta - Delta^op = delta): PASS, %d cases" % total)


def test_ac3_diagram_2d():
    total = 0
    # per-check case counts, summed over dims 1 and 2
    expected = {"one_loop": [466, 466, 114, 114], "two_loops": [4354, 4354, 930, 930]}
    for name, q in (("one_loop", one_loop()), ("two_loops", two_loops())):
        alg = NecklaceAlgebra(double(q))
        dims_list = [{v: l for v in alg.dq.vertices} for l in (1, 2)]
        checks = sweeps.diagram_checks(alg, dims_list, max_len=4)
        for c in checks:
            assert c.ok, "%s: %s" % (c.name, c.failure)
            total += c.cases
        assert [c.cases for c in checks] == expected[name]
    # the worked value through both oracles
    alg = NecklaceAlgebra(double(one_loop()))
    H = MoyalHopf(alg)
    P = parse_element(alg, "(e e*)")
    S = H.star(P, P)
    assert format_element(S) == "(e e*)&(e e*) - 1/4 h^2 I(v)&I(v)"
    from nlab.repspace import RepSpace
    for l in (1, 2):
        rs = RepSpace(alg, {"v": l})
        assert rs.trace_rep(S) == rs.moyal_star_classical(rs.trace_rep(P),
                                                          rs.trace_rep(P))
        assert rs.phi_w_realized(S) == rs.phi_w_realized(P) * rs.phi_w_realized(P)
    report("[AC3] Diagram (2d): trace/Moyal and Weyl/height oracles agree "
           "at l in {1,2}: PASS, %d cases + worked value" % total)


def test_ac4_lie_bialgebra_axioms():
    from itertools import combinations_with_replacement
    cases = 0
    for name, q in QUIVERS:
        alg = NecklaceAlgebra(double(q))
        necks = []
        for l in range(1, 5):
            necks.extend(sweeps.necklaces_of_length(alg, l))
        singles = [(n, alg.single([n])) for n in necks]

        def br(P, R):
            return alg.bracket_sym(P, R)

        # antisymmetry + Jacobi, exhaustive with combined length <= 6
        for (n1, x), (n2, y) in combinations_with_replacement(singles, 2):
            if len(n1) + len(n2) > 6:
                continue
            assert (br(x, y) + br(y, x)).is_zero()
            cases += 1
        for (n1, x), (n2, y), (n3, z) in combinations_with_replacement(singles, 3):
            if len(n1) + len(n2) + len(n3) > 6:
                continue
            jac = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
            assert jac.is_zero(), (name, n1, n2, n3)
            cases += 1
        # co-Jacobi: cyclic sum of (delta x 1) delta vanishes, length <= 6
        for l in range(1, 7):
            for f in sweeps.necklaces_of_length(alg, l):
                d = alg.cobracket(f)
                triple = {}
                for (a, b), c in d.terms.items():
                    for (u, w), cu in alg.cobracket(a[0]).terms.items():
                        key = (u, w, b)
                        triple[key] = triple.get(key, None) or None
                        cur = triple.get(key)
                        triple[key] = cu * c if cur is None else cur + cu * c
                total = {}
                for (u, w, b), c in triple.items():
                    for key in ((u, w, b), (w, b, u), (b, u, w)):
                        cur = total.get(key)
                        total[key] = c if cur is None else cur + c
                assert all(v.is_zero() for v in total.values()), (name, f)
                cases += 1
        # cocycle condition, combined length <= 6
        for (n1, x), (n2, y) in combinations_with_replacement(singles, 2):
            if len(n1) + len(n2) > 6:
                continue
            lhs = alg.bracket(n1, n2).linear(lambda ms: alg.cobracket(ms[0]).terms.items(),
                                             out=alg.tensor(2))
            rhs = _ad_tensor(alg, n1, alg.cobracket(n2)) - \
                _ad_tensor(alg, n2, alg.cobracket(n1))
            assert lhs == rhs, (name, n1, n2)
            cases += 1
    report("[AC4] Lie bialgebra axioms (antisymmetry, Jacobi, co-Jacobi, "
           "cocycle), combined length <= 6: PASS, %d cases" % cases)


def _ad_tensor(alg, f, T):
    F = alg.single([f])

    def ad(key):
        a, b = key
        for msa, ca in alg.bracket_sym(F, alg.single(a)).terms.items():
            yield (msa, b), ca
        for msb, cb in alg.bracket_sym(F, alg.single(b)).terms.items():
            yield (a, msb), cb

    return T.linear(ad)


def betti_table(kmin, dims, bettis):
    """A betti() table from its dimension and Betti lists, degree kmin first."""
    return {kmin + i: (d, b) for i, (d, b) in enumerate(zip(dims, bettis))}


def test_ac5_ribbon_complexes(cache_dir):
    Gv = adjacency(one_loop())
    Gpq = adjacency(Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")]))
    # (genus, faces, min valence, G, labels, max edges) -> betti() table
    families = [
        # valence >= 3 families, complete or truncated at 7 edges
        ((0, 3, 3, Gv, "vvv", 7), betti_table(2, [1, 2], [0, 1])),
        ((0, 4, 3, Gv, "vvvv", 7), betti_table(3, [1, 3, 7, 6], [0, 0, 0, 1])),
        ((1, 1, 3, Gv, "v", 7), betti_table(2, [0, 1], [0, 1])),
        ((1, 2, 3, Gv, "vv", 7), betti_table(3, [1, 5, 8, 5], [0, 0, 0, 1])),
        ((0, 5, 3, Gv, "vvvvv", 7), betti_table(4, [3, 21, 58, 85], [0, 0, 0, 45])),
        ((2, 1, 3, Gv, "v", 7), betti_table(4, [3, 20, 39, 43], [0, 0, 0, 21])),
        # valence >= 2 families (truncated) and the polygon family
        ((0, 3, 2, Gv, "vvv", 5), betti_table(2, [1, 3, 2, 4], [0, 1, 0, 3])),
        ((1, 1, 2, Gv, "v", 4), betti_table(2, [0, 1, 0], [0, 1, 0])),
        ((0, 2, 2, Gv, "vv", 12),
         betti_table(1, [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0],
                     [0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0])),
        # labeled complexes over a two-vertex graph
        ((0, 3, 3, Gpq, "ppq", None), betti_table(2, [2, 2], [0, 0])),
        ((0, 4, 3, Gpq, "ppqq", None), betti_table(3, [2, 9, 14, 7], [0, 0, 0, 0])),
    ]
    for (g, m, mv, G, labels, max_edges), betti in families:
        cx = RibbonComplex(g, m, mv, G=G, X=tuple(labels), max_edges=max_edges,
                           cache_dir=cache_dir)
        assert cx.check_d_squared()
        assert cx.betti() == betti, (g, m, mv, labels, max_edges)
    # the planar two-vertex four-edge ribbon graph is nonorientable
    iota = [1, 0, 3, 2, 5, 4, 7, 6]
    gamma = [2, 7, 4, 1, 6, 3, 0, 5]
    g = RibbonGraph(iota, gamma)
    assert g.num_vertices == 2 and g.num_edges == 4 and g.genus() == 0
    lg = canonical_labeled(g, (None,) * g.num_faces, label_key(()))
    cg, auts = lg.graph, lg.auts
    assert not is_orientable(cg, auts)
    # top labeled cells have 6g - 6 + 3m edges when trivalent graphs exist
    for (g_, m_) in [(0, 3), (1, 1), (0, 4), (1, 2)]:
        top = top_degree(g_, m_, 3)
        assert top == 6 * g_ - 6 + 3 * m_
        tops = iso_classes(top, 3, genus=g_, faces=m_)
        assert tops and all(gg.valences() == (3,) * gg.num_vertices
                            for gg in tops)
    report("[AC5] Ribbon complexes: d^2 = 0 and pinned Betti tables on %d "
           "complexes (<= 7 edges; polygons to 12), 2v4e planar graph "
           "nonorientable, top cells at 6g-6+3m: PASS" % len(families))


def test_ac5_full_stable_complexes(cache_dir):
    # complete valence >= 3 complexes up to the top degree 6g - 6 + 3m:
    # homology sits in the top degree and, for (2,1), two degrees below
    Gv = adjacency(one_loop())
    families = [
        ((0, 5), betti_table(4, [3, 21, 58, 85, 70, 26], [0, 0, 0, 0, 0, 1])),
        ((2, 1), betti_table(4, [3, 20, 39, 43, 28, 9], [0, 0, 0, 1, 0, 1])),
        ((1, 3), betti_table(4, [11, 68, 178, 236, 160, 46], [0, 0, 0, 0, 0, 1])),
    ]
    for (g, m), betti in families:
        cx = RibbonComplex(g, m, 3, G=Gv, X=("v",) * m, cache_dir=cache_dir)
        assert cx.kmax == 6 * g - 6 + 3 * m
        assert cx.check_d_squared()
        assert cx.betti() == betti, (g, m)
    report("[AC5] Full (0,5), (2,1), (1,3) complexes: d^2 = 0, Betti tables "
           "pinned: PASS")


def test_ac6_polygon_homology_and_euler(cache_dir):
    Gv = adjacency(one_loop())
    cx = RibbonComplex(0, 2, 2, G=Gv, X=("v", "v"), max_edges=12,
                       cache_dir=cache_dir)
    assert cx.check_d_squared()
    table = cx.betti()
    # betti exact for degrees < 12 (the truncation degree)
    for k, (dim, b) in table.items():
        if k >= 12:
            continue
        assert (b != 0) == (k % 4 == 3), (k, b)
    euler_checked = 0
    for params in [(0, 3, 3, None), (1, 1, 3, None), (0, 4, 3, None),
                   (1, 2, 3, None), (0, 3, 2, 5), (0, 2, 2, 12)]:
        g, m, mv, me = params
        c = RibbonComplex(g, m, mv, G=Gv, X=("v",) * m, max_edges=me,
                          cache_dir=cache_dir)
        t = c.betti()
        assert sum((-1) ** k * d for k, (d, b) in t.items()) == \
            sum((-1) ** k * b for k, (d, b) in t.items()) == \
            c.euler_characteristic()
        euler_checked += 1
    report("[AC6] Polygon subcomplex homology nonzero exactly at k = 3 mod 4 "
           "(degrees < 12): PASS; Euler identity on %d complexes: PASS"
           % euler_checked)


def _frobenius_even():
    with open(os.path.join(DATA, "frobenius.json")) as f:
        return f.read()


def test_ac7_ainf_cycles(cache_dir):
    x2 = load_data(_frobenius_even())
    with open(os.path.join(DATA, "two_object.json")) as f:
        two = load_data(f.read())
    with open(os.path.join(DATA, "unit.json")) as f:
        unit = load_data(f.read())
    zero_checked = 0
    for data, label_sets in [
        (x2, {(0, 3): [("v",) * 3], (1, 1): [("v",)],
              (0, 4): [("v",) * 4], (1, 2): [("v",) * 2]}),
        (unit, {(0, 3): [("v",) * 3], (1, 1): [("v",)],
                (0, 4): [("v",) * 4], (1, 2): [("v",) * 2]}),
        (two, {(0, 3): [("p", "p", "q"), ("p", "q", "q")],
               (0, 4): [("p", "p", "p", "q"), ("p", "p", "q", "q"),
                        ("p", "q", "q", "q")],
               (1, 2): [("p", "q")]}),
    ]:
        for (g, m), xs in label_sets.items():
            for X in xs:
                cx, chains, boundaries = build_cycle(data, g, m, X,
                                                     cache_dir=cache_dir)
                for k, vec in boundaries.items():
                    assert not any(vec), (g, m, X, k)
                    zero_checked += 1
    # nonzero content: the unit data has a nontrivial chain in top degree
    _, chains, _ = build_cycle(unit, 0, 3, ("v",) * 3, cache_dir=cache_dir)
    assert any(chains[3])

    # weight invariance under 50 seeded rechecks per graph
    eng = WeightEngine(load_data(_frobenius_even()))
    engk = WeightEngine(unit)
    rng = random.Random(0)
    graphs = []
    for (g, m) in [(0, 3), (1, 1), (0, 4)]:
        cx = RibbonComplex(g, m, 3, G=unit.G, X=("v",) * m,
                           cache_dir=cache_dir)
        for k in cx.basis:
            graphs.extend(cx.basis[k])
    rechecked = 0
    for lg in graphs:
        g = lg.graph
        for engine in (engk, eng):
            base = engine.weight(lg)
            for _ in range(50):
                vo = list(range(g.num_vertices))
                rng.shuffle(vo)
                cil = [rng.choice(cyc) for cyc in g.vertices]
                eo = list(range(g.num_edges))
                rng.shuffle(eo)
                flips = [e for e in range(g.num_edges) if rng.random() < 0.5]
                assert engine.weight(lg, vertex_order=vo, ciliations=cil,
                                     edge_order=eo, edge_flips=flips) == base
                rechecked += 1
    report("[AC7] A-infinity cycles: boundary exactly zero on %d chain "
           "degrees (k[x]/x^2 Frobenius, unit algebra, two-object category); "
           "weight invariance: %d rechecks: PASS" % (zero_checked, rechecked))


def test_ac8_cochain_map(cache_dir):
    from nlab.ribbon.cochain import GraphCochain, ce_boundary, evaluate_on_chain
    q = one_loop()
    G = adjacency(q)
    identities = 0
    invariances = 0
    for N in (1, 2, 3):
        alg = NecklaceAlgebra(double(q.multiply(N)))
        rng = random.Random(100 + N)
        base = alg.dq.base_edges
        cx = RibbonComplex(0, 3, 2, G=G, X=("v",) * 3, max_edges=3,
                           cache_dir=cache_dir)
        coch = {(k, i): GraphCochain(cx.basis[k][i], alg)
                for k in cx.basis for i in range(len(cx.basis[k]))}

        def tuples_for(g, count):
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

        for k in sorted(cx.matrices):
            mat = cx.matrices[k]
            if not mat or not mat[0]:
                continue
            for lgu in cx.basis[k]:
                for W in tuples_for(lgu.graph, 5):
                    phis = [coch[(k, j)].evaluate_wedge(W)
                            for j in range(len(cx.basis[k]))]
                    dW = ce_boundary(alg, W)
                    for ti in range(len(cx.basis[k - 1])):
                        lhs = evaluate_on_chain(coch[(k - 1, ti)], dW)
                        rhs = sum(mat[ti][j] * phis[j] for j in range(len(phis)))
                        assert lhs == rhs
                        identities += 1
        # invariance under the action of quadratic necklaces
        quads = sweeps.necklaces_of_length(alg, 2)[:4]
        for k in cx.basis:
            for lg in cx.basis[k]:
                c = coch[(k, cx.basis[k].index(lg))]
                for W in tuples_for(lg.graph, 2):
                    for qd in quads:
                        total = Fraction(0)
                        for i in range(len(W)):
                            acted = alg.bracket(qd, W[i])
                            for ms, cc in acted.terms.items():
                                W2 = list(W)
                                W2[i] = ms[0]
                                total += cc.coeff(0) * c.evaluate_wedge(W2)
                        assert total == 0
                        invariances += 1
    report("[AC8] Cochain map: commutes with differentials (%d identities) "
           "and is invariant under quadratic necklaces (%d checks), "
           "<= 3 edges, N <= 3: PASS" % (identities, invariances))
