"""Ribbon graph classes as cochains on the necklace Lie algebra.

An oriented (labeled) class with vertex valences (d_1, ..., d_p) defines a
multilinear functional on p-tuples of necklaces over the N-fold quiver:
place one necklace per vertex (length = valence, summing over rotations
and over all assignments with the wedge sign), and contract every edge
with the symplectic form on edge letters,

    omega(e, f) = 1 if e in Q, f = e*;  -1 if f in Q, e = f*;  0 otherwise.

Face labels, when present, must be vertices of the quiver; they constrain
each dart's letter to run from the label of the dart's face to the label of
the opposite dart's face.  The sum over rotations is
graph.tensor_contractions with one block per vertex (the fitting rotations
of its necklace, counted with multiplicity) and omega on every edge.  The
sign is normalized through the (vertex order, edge orientation)
description of the orientation, so the functional depends only on the
oriented class with its reference EF orientation.  Sums over rotations
are not averaged.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from ..linalg import perm_sign
from ..necklace import NecklaceAlgebra
from .census import LabeledRibbonGraph
from .graph import RibbonError, tensor_contractions
from .orientation import OrientationBridge


class GraphCochain:
    """Evaluator for one oriented (labeled) class over a necklace algebra."""

    def __init__(self, lg: LabeledRibbonGraph, alg: NecklaceAlgebra):
        self.lg = lg
        self.alg = alg
        self.bridge = OrientationBridge(lg.graph)
        g = lg.graph
        dq = alg.dq
        labels = lg.face_labels
        # (tail, head) each dart's letter must have, or None when unlabeled
        self._ends = None
        if any(lab is not None for lab in labels):
            for lab in labels:
                if lab not in dq.vertices:
                    raise RibbonError("face label %r is not a vertex of the quiver" % (lab,))
            self._ends = [(labels[g.face_of(d)], labels[g.face_of(g.iota[d])])
                          for d in range(g.n)]
        self._omega = {(e, dq.reverse(e)): alg.symplectic_form(e, dq.reverse(e))
                       for e in dq.edge_order}
        # (-1)^V aligns the contraction differential with the Lie one; the
        # 1/|Aut| is the orbit-stabilizer factor of the invariants basis.
        self.scale = Fraction((-1) ** g.num_vertices, len(lg.auts))

    def evaluate_tuple(self, necklaces, edge_flips=()) -> Fraction:
        """Evaluate on an ordered tuple (necklace i at vertex i), no wedge sum.

        edge_flips rechooses edge orientations; the result is independent of
        it (the orientation normalization compensates the sign of omega).
        """
        g = self.lg.graph
        if len(necklaces) != g.num_vertices:
            return Fraction(0)
        dq, ends = self.alg.dq, self._ends
        blocks = []
        for cyc, n in zip(g.vertices, necklaces):
            word = n.word
            if len(cyc) != len(word):
                return Fraction(0)
            rotations = {}
            for r in range(len(word)):
                rot = word[r:] + word[:r]
                if ends is None or all((dq.tail[e], dq.head[e]) == ends[d]
                                       for d, e in zip(cyc, rot)):
                    rotations[rot] = rotations.get(rot, 0) + 1
            blocks.append((cyc, rotations))
        flips = frozenset(edge_flips)
        edges = [((b, a) if i in flips else (a, b), self._omega)
                 for i, (a, b) in enumerate(g.edges)]
        total = sum(v for _, v in tensor_contractions(blocks, edges))
        sign = self.bridge.vertex_edge_value(list(range(g.num_vertices)), flips)
        return total * sign * self.scale

    def evaluate_wedge(self, necklaces, edge_flips=()) -> Fraction:
        """Evaluate on a wedge: sum over assignments with the permutation sign."""
        g = self.lg.graph
        if len(necklaces) != g.num_vertices:
            return Fraction(0)
        total = Fraction(0)
        for perm in permutations(range(len(necklaces))):
            sgn = perm_sign(perm)
            tup = [necklaces[perm[v]] for v in range(len(necklaces))]
            total += sgn * self.evaluate_tuple(tup, edge_flips)
        return total


def ce_boundary(alg: NecklaceAlgebra, necklaces):
    """Chevalley-Eilenberg chain differential of a wedge of necklaces.

    d(f_1 ^ ... ^ f_n) = sum_{i<j} (-1)^{i+j+1} {f_i, f_j} ^ ... (hats on i, j);
    returns a list of (coefficient, tuple of necklaces).
    """
    out = []
    n = len(necklaces)
    for i in range(n):
        for j in range(i + 1, n):
            br = alg.bracket(necklaces[i], necklaces[j])
            rest = [necklaces[t] for t in range(n) if t != i and t != j]
            sgn = (-1) ** (i + j + 1)
            for ms, c in br.terms.items():
                coeff = c.coeff(0) * sgn
                if coeff:
                    out.append((coeff, tuple([ms[0]] + rest)))
    return out


def evaluate_on_chain(cochain: GraphCochain, chain) -> Fraction:
    """Pair a cochain with a linear combination of wedges."""
    total = Fraction(0)
    for coeff, tup in chain:
        total += coeff * cochain.evaluate_wedge(list(tup))
    return total
