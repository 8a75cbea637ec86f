"""Orientation bookkeeping for ribbon graphs.

Three equivalent descriptions of an orientation are used:

  EF -- an orientation of R^E + R^F (edge order and face order); the
        differential and orientability live here,
  VE -- an ordering of the vertices plus an orientation of every edge,
  CIL - a ciliation of every vertex plus an ordering of the vertices
        (only swaps of two even-valence vertices and ciliation rotations
        at even-valence vertices change the class).

Every graph gets a reference EF orientation: edges and faces in index
order.  The bridge between EF and the other two descriptions is the
torsion sign of the based cellular chain complex of the closed surface

    0 -> Q^F -> Q^E -> Q^V -> 0

with its canonical homology bases: the fundamental class (sum of all
faces), the class of a vertex, and any symplectically positive basis of
H_1 (the intersection form is computed by contracting a spanning tree and
reading dart interleaving at the resulting single vertex; symplectic
positivity is the sign of the Pfaffian of the Gram matrix).
"""

from __future__ import annotations

from fractions import Fraction

from ..linalg import det_sign, perm_sign, pfaffian, rank, relative_perm_sign
from .graph import RibbonGraph, RibbonError


def ef_sign(graph: RibbonGraph, perm, target: RibbonGraph) -> int:
    """Sign of a dart bijection graph -> target on det(R^E) x det(R^F).

    Edges and faces of both graphs are taken in index order; with
    target = graph, perm is an automorphism acting on the EF orientation.
    """
    edge_img = [target.edge_of(perm[a]) for (a, b) in graph.edges]
    face_img = [target.face_of(perm[cyc[0]]) for cyc in graph.faces]
    return perm_sign(edge_img) * perm_sign(face_img)


def aut_sign_vertex_edge(graph: RibbonGraph, perm) -> int:
    """Sign of an automorphism on det(R^V) x (edge orientation lines)."""
    vert_img = [graph.vertex_of(perm[cyc[0]]) for cyc in graph.vertices]
    s = perm_sign(vert_img)
    for (a, b) in graph.edges:
        ia, ib = graph.edges[graph.edge_of(perm[a])]
        if perm[a] == ib:  # reference dart lands on the non-reference dart
            s = -s
    return s


def is_orientable(graph: RibbonGraph, auts) -> bool:
    return all(ef_sign(graph, p, graph) == 1 for p in auts)


class OrientationBridge:
    """Converts VE and ciliation orientation data to a sign on the EF reference."""

    def __init__(self, graph: RibbonGraph):
        self.graph = graph
        self.tau = self._torsion_sign()

    # -- public conversions ---------------------------------------------------

    def vertex_edge_value(self, vertex_order, flipped_edges=()) -> int:
        """EF sign of (vertex order, edge orientations).

        vertex_order: permutation of vertex indices; flipped_edges: edge
        indices whose orientation is reversed relative to the reference
        (min dart first).
        """
        s = self.tau * perm_sign(list(vertex_order))
        if len(flipped_edges) % 2:
            s = -s
        return s

    def ciliation_value(self, vertex_order, ciliations) -> int:
        """EF sign of (vertex order, ciliations).

        ciliations[v] is the starting dart of vertex v's cyclic order.  The
        vertex order enters through det(R^V) with even-valence vertices
        wedged first; the ciliations build a basis of det(R^H).
        """
        g = self.graph
        val = [len(cyc) for cyc in g.vertices]
        evens = [v for v in vertex_order if val[v] % 2 == 0]
        odds = [v for v in vertex_order if val[v] % 2]
        w = evens + odds
        s = self.tau * perm_sign(list(w))
        ref_seq = []
        for (a, b) in g.edges:
            ref_seq.extend((a, b))
        target = []
        for v in w:
            d = ciliations[v]
            for _ in range(val[v]):
                target.append(d)
                d = g.gamma[d]
        s *= relative_perm_sign(ref_seq, target)
        return s

    # -- torsion of the based cellular complex -----------------------------------

    def _boundary_matrices(self):
        g = self.graph
        ne, nf, nv = g.num_edges, g.num_faces, g.num_vertices
        d2 = [[0] * nf for _ in range(ne)]
        for j, cyc in enumerate(g.faces):
            for d in cyc:
                e = g.edge_of(d)
                d2[e][j] += 1 if d == g.edges[e][0] else -1
        d1 = [[0] * ne for _ in range(nv)]
        for e, (a, b) in enumerate(g.edges):
            d1[g.vertex_of(b)][e] += 1
            d1[g.vertex_of(a)][e] -= 1
        for j in range(nf):  # dd = 0 sanity
            for i in range(nv):
                if sum(d1[i][e] * d2[e][j] for e in range(ne)):
                    raise RibbonError("cellular boundary is broken")
        return d1, d2

    def _spanning_tree(self):
        g = self.graph
        parent = {0: None}  # vertex -> (edge index, +1 if tree edge points to parent)
        order = [0]
        tree = []
        i = 0
        while i < len(order):
            v = order[i]
            i += 1
            for e, (a, b) in enumerate(g.edges):
                va, vb = g.vertex_of(a), g.vertex_of(b)
                if va == v and vb not in parent:
                    parent[vb] = (e, -1)  # chain d1(e) = vb - va, step vb -> va is -e
                    order.append(vb)
                    tree.append(e)
                elif vb == v and va not in parent:
                    parent[va] = (e, 1)
                    order.append(va)
                    tree.append(e)
        if len(parent) != g.num_vertices:
            raise RibbonError("disconnected graph")
        return parent, tree

    def _tree_cycles(self, parent):
        """z_e for each non-tree edge e: unit_e + tree path head -> tail."""
        g = self.graph
        ne = g.num_edges
        tree_edges = {pe[0] for pe in parent.values() if pe}

        def walk_up(v):
            vec = [Fraction(0)] * ne
            while parent[v] is not None:
                e, s = parent[v]
                vec[e] += s
                a, b = g.edges[e]
                v = g.vertex_of(a) if s == -1 else g.vertex_of(b)
            return vec

        cycles = {}
        for e, (a, b) in enumerate(g.edges):
            if e in tree_edges:
                continue
            vec = [Fraction(0)] * ne
            vec[e] = Fraction(1)
            up_h = walk_up(g.vertex_of(b))
            up_t = walk_up(g.vertex_of(a))
            for k in range(ne):
                vec[k] += up_h[k] - up_t[k]
            cycles[e] = vec
        return cycles

    def _torsion_sign(self) -> int:
        g = self.graph
        ne, nf, nv = g.num_edges, g.num_faces, g.num_vertices
        d1, d2 = self._boundary_matrices()

        # s2: faces basis -> (fundamental class, all faces but the last)
        cols2 = [[1] * nf] + [[1 if r == j else 0 for r in range(nf)]
                              for j in range(nf - 1)]
        s2 = det_sign([list(row) for row in zip(*cols2)])

        parent, tree = self._spanning_tree()
        cycles = self._tree_cycles(parent)
        b1 = [[d2[r][j] for r in range(ne)] for j in range(nf - 1)]
        genus2 = 2 - (nv - ne + nf)
        twog = genus2
        sel = []
        cur = list(b1)
        base_rank = rank(cur)
        if base_rank != nf - 1:
            raise RibbonError("face boundaries are dependent")
        for e in sorted(cycles):
            if len(sel) == twog:
                break
            trial = cur + [cycles[e]]
            if rank(trial) > len(cur):
                cur = trial
                sel.append(e)
        if len(sel) != twog:
            raise RibbonError("could not complete an H_1 basis")

        cols1 = b1 + [cycles[e] for e in sel]
        for t in tree:
            cols1.append([1 if r == t else 0 for r in range(ne)])
        s1 = det_sign([list(row) for row in zip(*cols1)])

        cols0 = [[d1[r][t] for r in range(nv)] for t in tree]
        cols0.append([1 if r == 0 else 0 for r in range(nv)])
        s0 = det_sign([list(row) for row in zip(*cols0)])
        if not (s0 and s1 and s2):
            raise RibbonError("torsion bases are singular")

        pf_sign = 1
        if twog:
            gram = self._intersection_gram(sel, tree)
            pf = pfaffian(gram)
            if pf == 0:
                raise RibbonError("degenerate intersection form")
            pf_sign = 1 if pf > 0 else -1
        return s2 * s1 * s0 * pf_sign

    def _intersection_gram(self, sel, tree):
        """Intersection numbers of the selected tree cycles.

        Contract every tree edge; the cycles become loops at the single
        remaining vertex, where crossing is dart interleaving.
        """
        g = self.graph
        cur = g
        dart_of = {d: d for d in range(g.n)}
        remaining = sorted(tree)
        while remaining:
            t = remaining[0]
            a, b = g.edges[t]
            e_cur = cur.edge_of(dart_of[a])
            cur, dmap = cur.contract(e_cur)
            dart_of = {d0: dmap[d1] for d0, d1 in dart_of.items() if d1 in dmap}
            remaining = remaining[1:]
        if cur.num_vertices != 1:
            raise RibbonError("tree contraction left several vertices")
        cycle = cur.vertices[0]
        pos = {d: i for i, d in enumerate(cycle)}
        nn = len(cycle)

        def in_arc(x, s, t):
            return x != s and x != t and (x - s) % nn < (t - s) % nn

        gram = [[0] * len(sel) for _ in sel]
        for i, e in enumerate(sel):
            a1 = pos[dart_of[g.edges[e][0]]]
            a2 = pos[dart_of[g.edges[e][1]]]
            for j, f in enumerate(sel):
                if i == j:
                    continue
                b1 = pos[dart_of[g.edges[f][0]]]
                b2 = pos[dart_of[g.edges[f][1]]]
                v = 0
                if in_arc(b1, a1, a2) and not in_arc(b2, a1, a2):
                    v = 1
                elif in_arc(b2, a1, a2) and not in_arc(b1, a1, a2):
                    v = -1
                gram[i][j] = v
        for i in range(len(sel)):
            for j in range(len(sel)):
                if gram[i][j] != -gram[j][i]:
                    raise RibbonError("intersection form is not antisymmetric")
        return gram
