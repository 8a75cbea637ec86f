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
faces), the class of a vertex, and a symplectically positive basis of H_1.

The bases come from a tree-cotree decomposition (Eppstein, SODA 2003): a
spanning tree T of the graph and a spanning tree C of the dual graph made
of edges outside T.  The 2g edges in neither tree close tree cycles
z_e = u_e + (path in T) that form a basis of H_1, and the edges of T lift
a basis of the boundaries in Q^V.  Since z_e - u_e lies in the span of T,
the torsion determinant takes the unit vector u_e in place of z_e.

Both determinants are triangular in the order in which breadth-first
search reaches the cells, so their signs are read off the two trees.  A
tree edge's boundary is +1 at the vertex of its larger dart, with its
diagonal entry at the vertex it reaches; a face's boundary is +1 at each
edge whose smaller dart it holds, and with the cotree rooted at the face
the basis leaves out, its diagonal entry is at the edge that reaches it.

The intersection form of the z_e is read at the one vertex left by
contracting T: walking around the tree gives that vertex's cyclic order
without building the contracted graph, two loops cross when their darts
interleave, and symplectic positivity is the sign of the Pfaffian.

The sign does not depend on these choices: another H_1 basis, related by
a matrix A, multiplies both the torsion determinant and the Pfaffian by
det A, and another tree lifts the same boundaries into both Q^E and Q^V.
"""

from __future__ import annotations

from ..linalg import perm_sign, pfaffian, relative_perm_sign
from .graph import RibbonGraph, RibbonError


def ef_sign(graph: RibbonGraph, perm, target: RibbonGraph) -> int:
    """Sign of a dart bijection graph -> target on det(R^E) x det(R^F).

    Edges and faces of both graphs are taken in index order; with
    target = graph, perm is an automorphism acting on the EF orientation.
    """
    edge_img = [target.edge_of(perm[a]) for (a, b) in graph.edges]
    face_img = [target.face_of(perm[cyc[0]]) for cyc in graph.faces]
    return perm_sign(edge_img) * perm_sign(face_img)


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
            target.extend(g.cycle_from(ciliations[v]))
        s *= relative_perm_sign(ref_seq, target)
        return s

    # -- torsion of the based cellular complex -----------------------------------

    def _spanning_tree(self, cells, cell_of, root, avoid=frozenset()):
        """Breadth-first spanning tree of cells (vertices, or faces for the
        dual graph) joined across the edges not in avoid: (tree edges, cells
        in the order reached, sign), sign -1 per edge entering its new cell
        by its smaller dart."""
        g = self.graph
        seen = {root}
        order = [root]
        tree = []
        sign = 1
        for c in order:  # order grows while it is read: breadth first
            for d in cells[c]:
                e = g.edge_of(d)
                far = cell_of(g.iota[d])
                if far not in seen and e not in avoid:
                    seen.add(far)
                    order.append(far)
                    tree.append(e)
                    if g.iota[d] < d:
                        sign = -sign
        if len(seen) != len(cells):
            raise RibbonError("disconnected graph")
        return tree, order, sign

    def _torsion_sign(self) -> int:
        g = self.graph
        ne, nf, nv = g.num_edges, g.num_faces, g.num_vertices
        tree, vorder, vsign = self._spanning_tree(g.vertices, g.vertex_of, 0)
        cotree, forder, fsign = self._spanning_tree(g.faces, g.face_of, nf - 1,
                                                    set(tree))
        loops = sorted(set(range(ne)) - set(tree) - set(cotree))
        if len(loops) != 2 - (nv - ne + nf):
            raise RibbonError("tree and cotree do not leave 2g edges")

        # Each basis goes in as the rows of a matrix: det is transpose-invariant.
        # s2: faces basis -> (fundamental class, all faces but the last)
        s2 = (-1) ** (nf - 1)
        # s1: (face boundaries, H_1 lifts z_e, tree edges); z_e - u_e is a
        # sum of tree edges, so u_e stands in for z_e; the unit rows leave
        # the cotree minor
        s1 = (perm_sign(cotree + loops + tree) * perm_sign(forder[1:])
              * (-1) ** len(cotree) * fsign)
        # s0: (boundaries of the tree edges, vertex 0), vertex 0 moved first
        s0 = (-1) ** (nv - 1) * perm_sign(vorder) * vsign

        pf_sign = 1
        if loops:
            pf = pfaffian(self._intersection_gram(loops, tree))
            if pf == 0:
                raise RibbonError("degenerate intersection form")
            pf_sign = 1 if pf > 0 else -1
        return s2 * s1 * s0 * pf_sign

    def _intersection_gram(self, loops, tree):
        """Intersection numbers of the cycles z_e, e in loops.

        Contracting the tree leaves one vertex at which every z_e is a loop
        and crossing is dart interleaving.  Its cyclic order is a walk
        around the tree: after dart d comes gamma[d], and a dart on a tree
        edge is stepped over to gamma of its partner.
        """
        g = self.graph
        tree_darts = {d for t in tree for d in g.edges[t]}
        pos = {}
        d = g.edges[loops[0]][0]
        while d not in pos:
            pos[d] = len(pos)
            d = g.gamma[d]
            while d in tree_darts:
                d = g.gamma[g.iota[d]]
        nn = len(pos)

        def in_arc(x, s, t):
            x, s, t = pos[x], pos[s], pos[t]
            return x != s and x != t and (x - s) % nn < (t - s) % nn

        gram = []
        for e in loops:
            a1, a2 = g.edges[e]
            gram.append([in_arc(b1, a1, a2) - in_arc(b2, a1, a2)
                         for (b1, b2) in (g.edges[f] for f in loops)])
        return gram
