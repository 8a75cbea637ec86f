"""Ribbon graph classes as cochains on the necklace Lie algebra.

An oriented (labeled) class with vertex valences (d_1, ..., d_p) defines a
multilinear functional on p-tuples of necklaces over the N-fold quiver:
place one necklace per vertex (length = valence, summing over rotations
and over all assignments with the wedge sign), and contract every edge
with the symplectic form on edge letters,

    omega(e, f) = 1 if e in Q, f = e*;  -1 if f in Q, e = f*;  0 otherwise.

Face labels, when present, constrain each dart's letter to run from the
label of the dart's face to the label of the opposite dart's face.  The
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
from .orientation import OrientationBridge


class GraphCochain:
    """Evaluator for one oriented (labeled) class over a necklace algebra."""

    def __init__(self, lg: LabeledRibbonGraph, alg: NecklaceAlgebra):
        self.lg = lg
        self.alg = alg
        self.bridge = OrientationBridge(lg.graph)
        g = lg.graph
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
        for cyc, n in zip(g.vertices, necklaces):
            if len(cyc) != len(n.word):
                return Fraction(0)
        total = Fraction(0)
        flips = frozenset(edge_flips)
        for placement in self._placements(necklaces):
            total += self._contract(placement, flips)
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

    def _placements(self, necklaces):
        """Letter-per-dart maps: each necklace in every rotation at its vertex."""
        g = self.lg.graph
        options = []
        for cyc, n in zip(g.vertices, necklaces):
            darts = []
            d = cyc[0]
            for _ in range(len(cyc)):
                darts.append(d)
                d = g.gamma[d]
            word = n.word
            rots = []
            for r in range(len(word)):
                rot = word[r:] + word[:r]
                rots.append(dict(zip(darts, rot)))
            options.append(rots)
        out = [{}]
        for rots in options:
            nxt = []
            for acc in out:
                for rot in rots:
                    d = dict(acc)
                    d.update(rot)
                    nxt.append(d)
            out = nxt
        return out

    def _contract(self, letter, flips=frozenset()) -> Fraction:
        g = self.lg.graph
        dq = self.alg.dq
        labels = self.lg.face_labels
        if any(lab is not None for lab in labels):
            for d, e in letter.items():
                if dq.tail[e] != labels[g.face_of(d)] or \
                   dq.head[e] != labels[g.face_of(g.iota[d])]:
                    return Fraction(0)
        val = Fraction(1)
        for i, (a, b) in enumerate(g.edges):
            if i in flips:
                a, b = b, a
            s = self.alg.symplectic_form(letter[a], letter[b])
            if not s:
                return Fraction(0)
            val *= s
        return val


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
