import random

from nlab.linalg import perm_sign
from nlab.ribbon.census import iso_classes, iso_levels, unlabeled_as_classes
from nlab.ribbon.graph import RibbonGraph
from nlab.ribbon.orientation import OrientationBridge, ef_sign

from ribbon_helpers import relabel


def sample_graphs():
    out = []
    for (g, m, k) in [(0, 3, 3), (0, 3, 4), (1, 1, 2), (1, 1, 3), (0, 4, 4),
                      (1, 2, 4), (2, 1, 4), (2, 1, 5), (3, 1, 6)]:
        out.extend(iso_classes(k, 2, genus=g, faces=m)[:4])
    return out


def aut_sign_vertex_edge(graph: RibbonGraph, perm) -> int:
    """Sign of an automorphism on det(R^V) x (edge orientation lines)."""
    vert_img = [graph.vertex_of(perm[cyc[0]]) for cyc in graph.vertices]
    s = perm_sign(vert_img)
    for (a, b) in graph.edges:
        ia, ib = graph.edges[graph.edge_of(perm[a])]
        if perm[a] == ib:  # reference dart lands on the non-reference dart
            s = -s
    return s


def test_aut_signs_agree_across_representations():
    for lg_cls in (unlabeled_as_classes(3, 2, genus=0, faces=3) +
                   unlabeled_as_classes(4, 2, genus=1, faces=1)):
        for a in lg_cls.auts:
            g = lg_cls.graph
            assert ef_sign(g, a, g) == aut_sign_vertex_edge(g, a)


def test_bridge_equivariance_under_relabeling():
    rng = random.Random(7)
    for g0 in sample_graphs():
        br0 = OrientationBridge(g0)
        for _ in range(6):
            perm = list(range(g0.n))
            rng.shuffle(perm)
            g1 = relabel(g0, perm)
            br1 = OrientationBridge(g1)
            vimg = [g1.vertex_of(perm[cyc[0]]) for cyc in g0.vertices]
            flips = []
            for (a, b) in g0.edges:
                ea = g1.edge_of(perm[a])
                if perm[a] != g1.edges[ea][0]:
                    flips.append(ea)
            eimg = [g1.edge_of(perm[a]) for (a, b) in g0.edges]
            fimg = [g1.face_of(perm[cyc[0]]) for cyc in g0.faces]
            assert br1.vertex_edge_value(vimg, flips) == \
                br0.tau * perm_sign(eimg) * perm_sign(fimg)


def test_o2_sign_rules():
    # vertex swap flips iff both valences even; ciliation rotation flips iff
    # the valence is even; these are the stated transformation rules
    theta = next(g for g in iso_classes(3, 3, genus=0, faces=3)
                 if g.valences() == (3, 3) and not any(
                     g.is_loop(e) for e in range(3)))
    br = OrientationBridge(theta)
    cil = [cyc[0] for cyc in theta.vertices]
    base = br.ciliation_value([0, 1], dict(enumerate(cil)))
    # both vertices trivalent (odd): swapping does not change the class
    assert br.ciliation_value([1, 0], dict(enumerate(cil))) == base
    # rotating a ciliation at an odd-valence vertex keeps the class
    cil2 = list(cil)
    cil2[0] = theta.gamma[cil2[0]]
    assert br.ciliation_value([0, 1], dict(enumerate(cil2))) == base

    # a graph with two even-valence vertices: the (2,4) class
    g24 = next(g for g in iso_classes(3, 2, genus=0, faces=3)
               if g.valences() == (2, 4))
    br24 = OrientationBridge(g24)
    cil = [cyc[0] for cyc in g24.vertices]
    v = br24.ciliation_value([0, 1], dict(enumerate(cil)))
    assert br24.ciliation_value([1, 0], dict(enumerate(cil))) == -v
    cil2 = list(cil)
    cil2[0] = g24.gamma[cil2[0]]
    assert br24.ciliation_value([0, 1], dict(enumerate(cil2))) == -v


def test_vertex_edge_value_rules():
    for g in sample_graphs()[:6]:
        br = OrientationBridge(g)
        order = list(range(g.num_vertices))
        base = br.vertex_edge_value(order, ())
        assert base in (1, -1)
        assert br.vertex_edge_value(order, (0,)) == -base
        if g.num_vertices >= 2:
            swapped = [1, 0] + order[2:]
            assert br.vertex_edge_value(swapped, ()) == -base


def test_tau_well_defined_on_canonical_forms():
    for g in sample_graphs():
        code, _ = g.canonical()
        cg = RibbonGraph.from_code(code)
        assert OrientationBridge(cg).tau in (1, -1)


# tau of every class of (valence bound, genus, faces, max edges), in
# iso_levels order, as "+"/"-".  The strings come from a second computation
# of the same sign (H_1 basis by rank search, intersection form by
# contracting the spanning tree edge by edge), so a change of the trees
# or of the dart walk that alters tau fails here.
TAU_PINS = {
    # Valence >= 1, so the vertex tree spans many vertices.  These strings
    # come from dense determinants of the cellular boundary matrices, an
    # independent computation of the torsion signs that the trees now read.
    (1, 0, 3, 4): (
        "+--++-++----+++--++++--++-+++"
    ),
    (1, 1, 1, 4): (
        "+---+++++++++++"
    ),
    (1, 1, 2, 4): (
        "-----------+-+-+-+-+++++-++"
    ),
    (2, 0, 3, 5): (
        "+++-+-++++-+++---"
    ),
    (2, 1, 1, 4): (
        "+--+++"
    ),
    (2, 1, 2, 5): (
        "---+-+-+-+++++-++----------+-------+------+-----+---+++----+--+"
    ),
    (3, 0, 5, 6): (
        "++++++++-----------++++----------++++---+++-+++----+++++-+++--++"
        "+-+++++-+++++++++--+-++-+"
    ),
    (3, 1, 3, 6): (
        "++++++-++-+++++++++-+--+-++++-+-------+--++---+---+-++-++-++++-+"
        "+----+--+--+-+++--+--+-++++-+---+-++-+-+--+++-+--+++---+-+++-+++"
        "+-++++-+-++++++++++---++++-++-++++-+++-+----+++-+++++++++-++++++"
        "++++----------++------------+++-+++-++-+-+++-+++++++-++++--+-+-+"
        "-+------++-+++++--+-+++++"
    ),
    (3, 2, 1, 6): (
        "++++------+-+---+------+-+++++++++++-++++-+-++++-+++-++++++-----"
        "---++-"
    ),
    (3, 2, 2, 6): (
        "-------+--+------+-+++-+++--+------+--+--+--+--+--++++++-+++++++"
        "--+---+---++++++++++++-+++-++++--------+-++-+----+-++++++-++--++"
        "+--+++-+---+--+----+--+++++++-++-+++-+++++-++++++++++-++---+---+"
        "++++--+---+---+++--+--------++++-+--++--+-+-+-++-+++-++++-------"
        "+----+-------++-++-+--------++-+-+-+++---+---+-+-+-++++-+---+-+-"
        "+-++-++++++-+--+-+----+--++++-+++++++-+-++++-++++++--+++-+--+++-"
        "+-+++-++-+-++-+++--+-+-+-+-+--+++----+-----++++--+-+-+---+------"
        "---+---++---+-++----+--+--+-++-+----++---++-------+--+-+-+--++++"
        "-+++-+++++-++++-++--+++++-+-++-+--++-+++++-+-++--------++---++--"
        "+-+-+--+-++++-+-+---+-+"
    ),
    (3, 3, 1, 7): (
        "+++-+++++++-+---+---+-++++++-+--+----------------+++++++-++++-++"
        "+--+++++-+---++-----------+-+-++-+----+--+++++++--+-+-+---------"
        "+++---+-------++-+++-+++------------+---+-------------+--+---+--"
        "-----+----------+-+-+++-+++-----++-+++-+++---++-++++++++----+--+"
        "+--++-+-+-+--+---+----+++++++-++++-+++++++--+--+-++++++++--+-+-+"
        "---+++-+-+------+-+++-+++--------+---+-----+-----+------++-+++-+"
        "++------++-+------++-++--+---------+---+--------+--+---+-----+--"
        "------+--+++-+++-----++-++-+++-++-+++++++--+-++--+-+-++--+---+--"
        "--++++++-++++-++++++--+--+-+++++++--+-+-+--+++-+-++++++-+++--+++"
        "+-+++-+++++-++++-++-+++-+++++--+++-+-++++++++-++--+-++++++++-+++"
        "-+++++-++--+----+---------+----++----+-+--+---------+-+-++-+--++"
        "-+-++-------+-----++-+-+++++-+--------------++-+++++++------+---"
        "-+-+----+---++-+---+---+-+-++---+++----+++-+-+++-+-++++--++++--+"
        "---+++-++---++-+-+-+-+-+-+++-++++-++++++----+-++---++++---+++-++"
        "-+++---++-++----+----++-+---+---+----+-++----+++++-+++++++++++--"
        "-+--+-----+-++---+---+-++-+----+-+-++++++-+++++++++-++++-+++++++"
        "-++++-+++-++++-+++++++++++--++++-+++++++-+++-+++++++-++++-+-+-+-"
        "++++++++++++----------+---+----+---+--++-+-+-+++++++++++----+---"
        "-+--+++-+---------+-++++-+++-+--------+--+-++---+---------+-----"
        "---+--+++-+------++---++-+-+--+--++-+---+-+++---+-++-+++-+++-++-"
        "++-++-+++-++++-+-++--+++++++++++-+-+--++++++++-+-++++-+++++-++--"
        "-----+-++++---++-+-----+-+-+++----++-+--++++---+++-++++++++-+-+-"
        "---++++-+-+++++++-++++++++-++-+-+--++++-++++-++-+---+++++++++++-"
        "+-+++++++--+-+--++--++++--++-++-+-+++++++++-++++---+++-+--+---++"
        "+++------++---+++-+++++-+-+--+++++-++----+---------+-+--++-+--++"
        "+--+-+--++-++++-------+++++---+-+--+++++-+-++++++++++---+-+-++++"
        "-+++++++--++++-+++--+--+-+--++--+-+--+-+-+--+--+++++++++++-+++++"
        "-++++-+++++--+--+--+-++++-++-+-+--+++---+++++++++---+++++-++++++"
        "+---++++++--+++++-+++++-++-++++++++++-+-----++-++++-++++++---+++"
        "-+++--++-++++--++++++++--+++---++-+-+-++-+++++--+++--+++-------+"
        "-+--++++-+++++---+--+++-+--+-++-++++--+-+++++--+--+-"
    ),
}


def test_tau_pinned_over_families():
    for (v, g, m, kmax), pin in TAU_PINS.items():
        got = "".join("+" if OrientationBridge(x).tau == 1 else "-"
                      for _, graphs, _ in iso_levels(1, kmax, v, g, m) for x in graphs)
        assert got == pin, (v, g, m, kmax)


# tau of a seeded relabeling of every class of four TAU_PINS families, in
# iso_levels order, with one random.Random(5) drawing each class's dart
# permutation in turn.  The strings were computed by the tree and cotree
# signs of this OrientationBridge.  Canonical forms reach the vertex tree
# with its darts in one fixed pattern, so a torsion sign that drops the
# vertex tree's dart sign still passes TAU_PINS; it fails here.
TAU_RELABELED_PINS = {
    (1, 0, 3, 4): (
        "--+-------+-------+--+++--+-+"
    ),
    (1, 1, 2, 4): (
        "----+---++++-+--++---+-+---"
    ),
    (2, 1, 2, 5): (
        "+++--++++--++-+-+++--++---++--+-+++-+-+-++-+-+----+--+++--++-++"
    ),
    (3, 0, 5, 6): (
        "+------++----+-----+-+++---+++-+-+-+---++-+-+-+-++--+++++--+-+--"
        "---++++-++---++-+-+-+++--"
    ),
}


def test_tau_pinned_on_relabelings():
    rng = random.Random(5)
    for (v, g, m, kmax), pin in TAU_RELABELED_PINS.items():
        got = []
        for _, graphs, _ in iso_levels(1, kmax, v, g, m):
            for x in graphs:
                perm = list(range(x.n))
                rng.shuffle(perm)
                got.append("+" if OrientationBridge(relabel(x, perm)).tau == 1 else "-")
        assert "".join(got) == pin, (v, g, m, kmax)
