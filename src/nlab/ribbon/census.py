"""Enumeration of ribbon graph isomorphism classes, unlabeled and labeled.

Unlabeled classes with a valence bound, genus and face count are
generated by vertex splitting from the one-vertex maps, deduplicated by
canonical form.  One pairing scan finds the one-vertex maps and one
splitting pass per degree builds the next degree, so iso_levels hands a
whole family (every degree up to the top) out of one run; iso_classes is
its one-degree case.  Face labelings by vertices of an adjacency graph G are
layered on top: every edge must separate faces whose labels are adjacent
in G and the label multiset is fixed.  A labeled class is the canonical
graph object iso_levels made with the least labeling of an Aut-orbit;
its code is read off the graph's one unlabeled canonical search
(labeled_search).  An unlabeled class is the one-object case: every face
carries the label None, which keys to 0.
"""

from __future__ import annotations

from itertools import permutations

from .. import kernels
from ..quiver import AdjacencyGraph
from .graph import RibbonGraph
from .orientation import is_orientable


def iso_classes(num_edges, min_valence, genus, faces):
    """All connected iso classes with the given edge count, valence bound,
    genus and face count, as canonical graphs in code order.

    A connected map with two or more vertices has a non-loop edge, and
    contracting it keeps the genus and the faces and merges valences
    a, b >= v into a + b - 2 >= v (for v = 1, unless the map is a single
    edge).  So every class at degree k + 1 is a vertex split of a class at
    degree k.  Generation starts from the one-vertex maps at degree
    2g - 1 + m, found by a single pairing scan; for genus 0 with one face
    (the plane trees) it starts from the single edge.
    """
    return next(iso_levels(num_edges, num_edges, min_valence, genus, faces))[1]


def iso_levels(min_edges, max_edges, min_valence, genus, faces):
    """Yield (k, iso_classes(k, min_valence, genus, faces)) for k =
    min_edges, ..., max_edges, in that order, from one run of the generation.

    One pairing scan finds the base degree and one vertex-splitting pass
    builds each degree above it from the one below, so a whole family
    costs what its top degree alone costs.  Degrees below the base are
    empty.
    """
    v = max(min_valence, 1)
    base = 2 * genus - 1 + faces
    valences = [2 * base] if base else [1, 1]
    at = max(base, 1)  # the degree of `graphs`
    graphs = []
    if min(valences) >= v and at <= max_edges:
        # a base below the valence bound has no splits either
        graphs = _sorted_graphs(kernels.scan_pairings(valences, genus, faces))
    for k in range(min_edges, max_edges + 1):
        if k < at:
            yield k, []
            continue
        for _ in range(at, k):
            graphs = _sorted_graphs(_splits(graphs, v))
        at = k
        yield k, graphs


def _sorted_graphs(codes):
    return [RibbonGraph.from_code(c) for c in sorted(codes)]


def _splits(graphs, min_valence):
    """Canonical codes of every vertex split of the given graphs.

    A split cuts a contiguous arc out of a vertex's cyclic order and joins
    it to the rest of that vertex by a new edge (darts n, n + 1), keeping
    both new valences >= min_valence.  Contracting the new edge undoes it.

    Split (i, j) puts the arc cyc[i .. i+j-1] on dart n + 1 and the rest on
    dart n; split ((i + j) mod a, a - j) makes the same two arcs with n and
    n + 1 swapped.  Swapping n <-> n + 1 commutes with iota, which pairs
    them, so the two maps are isomorphic and only j <= a/2 is split: every
    i when 2j < a, and i < j when 2j = a (there i and i + j are mirrors).
    """
    out = set()
    for g in graphs:
        n = g.n
        iota = list(g.iota) + [n + 1, n]
        for cyc in g.vertices:
            a = len(cyc)
            for j in range(min_valence - 1, a // 2 + 1):
                for i in range(a if 2 * j < a else j):
                    gamma = list(g.gamma) + [n, n + 1]
                    _close(gamma, n, [cyc[(i + j + t) % a] for t in range(a - j)])
                    _close(gamma, n + 1, [cyc[(i + t) % a] for t in range(j)])
                    out.add(kernels.canonical_data(iota, gamma)[0])
    return out


def _close(gamma, head, darts):
    """Make (head, *darts) one cycle of gamma."""
    cyc = [head] + darts
    for d, nxt in zip(cyc, cyc[1:] + cyc[:1]):
        gamma[d] = nxt


class LabeledRibbonGraph:
    """A ribbon graph with face labels, stored in label-aware canonical form."""

    __slots__ = ("graph", "face_labels", "code", "auts")

    def __init__(self, graph: RibbonGraph, face_labels, code, auts):
        self.graph = graph
        self.face_labels = tuple(face_labels)
        self.code = code
        self.auts = auts

    def is_orientable(self):
        return is_orientable(self.graph, self.auts)

    def __repr__(self):
        return "Labeled(%r, labels=%s)" % (self.graph, list(self.face_labels))


def automorphisms(perms):
    """The automorphisms of a canonical graph, one per old->new dart map
    reaching its code: p o p0^-1 for p in perms."""
    inv0 = sorted(range(len(perms[0])), key=perms[0].__getitem__)
    return [tuple(p[d] for d in inv0) for p in perms]


def label_key(labels):
    """The fixed injection label -> int used inside canonical codes.

    None (the one object of an unlabeled family) maps to 0, the other
    labels to 1, 2, ... in sorted order.
    """
    key = {v: i + 1 for i, v in enumerate(sorted(set(labels) - {None}))}
    key[None] = 0
    return key


def dart_keys(graph: RibbonGraph, face_labels, key):
    """Per-dart integers: the key of the label of each dart's face."""
    keys = [0] * graph.n
    for cyc, lab in zip(graph.faces, face_labels):
        for d in cyc:
            keys[d] = key[lab]
    return tuple(keys)


def labeled_search(searched, keys):
    """The label-aware (code, perms) of a map, read off its unlabeled search.

    keys[d] is the int key of dart d's face, and relabeling p moves it to
    p[d].  Codes order by (gamma', iota') first and the relabelings do not
    depend on the keys, so the least labeled code is the unlabeled one
    followed by the least moved keys, reached by the perms that give them,
    in root order.
    """
    code, perms = searched
    if keys.count(keys[0]) == len(keys):
        return code + (tuple(keys),), perms
    labs = []
    for p in perms:
        lab = [0] * len(p)
        for d, x in zip(p, keys):
            lab[d] = x
        labs.append(tuple(lab))
    best = min(labs)
    return code + (best,), [p for p, lab in zip(perms, labs) if lab == best]


def canonical_labeled(graph: RibbonGraph, face_labels, key) -> LabeledRibbonGraph:
    """Rebuild a labeled graph in its canonical form; key is a label_key."""
    code, perms = labeled_search(graph.canonical(), dart_keys(graph, face_labels, key))
    cg = RibbonGraph.from_code(code)
    label_of = {v: k for k, v in key.items()}
    lab = [label_of[code[2][cyc[0]]] for cyc in cg.faces]
    return LabeledRibbonGraph(cg, lab, code, automorphisms(perms))


def label_assignments(graph: RibbonGraph, G: AdjacencyGraph, X):
    """The distinct face labelings with multiset X that respect G-adjacency,
    in sorted order."""
    if len(X) != graph.num_faces:
        return
    side_pairs = {(graph.face_of(a), graph.face_of(b)) for a, b in graph.edges}
    for lab in sorted(set(permutations(X))):
        if all(G.adjacent(lab[fa], lab[fb]) for fa, fb in side_pairs):
            yield lab


def _classes(graph: RibbonGraph, labelings, key):
    """The labeled classes of a canonical graph: each given labeling that is
    least in its Aut(graph)-orbit, i.e. whose labeled_search keys are its own.

    On a canonical graph the search's first perm is the identity, so its
    perms are the automorphisms, and those kept for a least labeling (the
    identity first) are the labeled class's automorphisms.
    """
    searched = graph.canonical()
    for lab in labelings:
        keys = dart_keys(graph, lab, key)
        code, perms = labeled_search(searched, keys)
        if code[2] == keys:
            yield LabeledRibbonGraph(graph, lab, code, perms)


def labeled_classes(num_edges, min_valence, G: AdjacencyGraph, X, genus, graphs=None):
    """Labeled iso classes of one genus: X an unordered label tuple, one
    label per face.  They come in code order: the graphs do, and so do
    each graph's labelings, whose keys grow with their face labels.

    `graphs`, when given, are the unlabeled classes of degree num_edges and
    the given genus (one level of iso_levels); otherwise iso_classes finds
    them.
    """
    key = label_key(G.vertices)
    if graphs is None:
        graphs = iso_classes(num_edges, min_valence, genus, len(X))
    return [lg for graph in graphs for lg in _classes(graph, label_assignments(graph, G, X), key)]


def unlabeled_as_classes(num_edges, min_valence, genus, faces, graphs=None):
    """Unlabeled classes: the one-object case, every face labeled None.

    `graphs`, when given, are iso_classes(num_edges, min_valence, genus,
    faces) already generated (one level of iso_levels).
    """
    key = label_key(())
    if graphs is None:
        graphs = iso_classes(num_edges, min_valence, genus, faces)
    return [lg for graph in graphs for lg in _classes(graph, [(None,) * faces], key)]
