"""Enumeration of ribbon graph isomorphism classes, unlabeled and labeled.

Unlabeled classes with a valence bound, genus and face count are
generated by vertex splitting from the one-vertex maps, deduplicated by
canonical form.  One pairing scan finds the one-vertex maps and one
splitting pass per degree builds the next degree, so iso_levels hands a
whole family (every degree up to the top) out of one run; iso_classes is
its one-degree case.  No search repeats what a known symmetry decides:
the scan searches the least rotation of each one-vertex map, and a
parent's splits are searched one per orbit of its automorphisms
(_splits).  The first search that reaches a code gives the class its
automorphisms, and every searched split keeps a record (parent, perm)
from which complexes reads the class's edge contractions (iso_levels).
Face labelings by vertices of an adjacency graph G are layered on top:
every edge must separate faces whose labels are adjacent in G and the
label multiset is fixed.  A labeled class is
the canonical graph object iso_levels made with the least labeling of an
Aut-orbit; its code is read off the graph's automorphisms
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


def bottom_degree(genus, faces):
    """2g - 1 + m: the edge count of the one-vertex maps of a (g, m) family."""
    return 2 * genus - 1 + faces


def iso_levels(min_edges, max_edges, min_valence, genus, faces):
    """Yield (k, iso_classes(k, min_valence, genus, faces), splits) for k =
    min_edges, ..., max_edges, in that order, from one run of the generation.

    One pairing scan finds the base degree and one vertex-splitting pass
    builds each degree above it from the one below, so a whole family
    costs what its top degree alone costs.  Degrees below the base are
    empty.  Every graph carries its automorphisms in root order as `auts`:
    a base graph's come from the scan's search that reached it, a split
    graph's from the search of the first split that made it.  splits are
    the degree's _splits records, {} at the base degree and below it; they
    hold the graphs of the degree below, so they are cleared when the next
    degree is asked for.
    """
    v = max(min_valence, 1)
    base = bottom_degree(genus, faces)
    valences = [2 * base] if base else [1, 1]
    at = max(base, 1)  # the degree of `graphs`
    graphs = []
    splits = {}
    if min(valences) >= v and at <= max_edges:
        # a base below the valence bound has no splits either
        graphs = [_graph(code, automorphisms(perms))
                  for code, perms in kernels.scan_pairings(valences, genus, faces).items()]
    for k in range(min_edges, max_edges + 1):
        if k < at:
            yield k, [], {}
            continue
        for _ in range(at, k):
            splits = _splits(graphs, v)
            graphs = [_graph(code, splits[code][0]) for code in sorted(splits)]
        at = k
        yield k, graphs, splits
        splits.clear()


def _graph(code, auts):
    """code's graph, carrying its automorphisms auts."""
    g = RibbonGraph.from_code(code)
    g.auts = auts
    return g


def root(perm):
    """The dart a relabeling sends to 0: a search lists its perms in root order."""
    return perm.index(0)


def _splits(graphs, min_valence):
    """Every vertex split of the given graphs, by canonical code:
    {code: (auts, parents, perms)}.  auts are the automorphisms of code's
    graph, read off the perms of the first search that reached code.
    parents and perms keep one record per searched split reaching code:
    its parent graph, and its search's first perm, a byte per dart, packed
    end to end into the bytearray perms.

    A split cuts a contiguous arc out of a vertex's cyclic order and joins
    it to the rest of that vertex by a new edge (darts n, n + 1), keeping
    both new valences >= min_valence.  Contracting the new edge undoes it.

    Split (i, j) puts the arc cyc[i .. i+j-1] on dart n + 1 and the rest on
    dart n; split ((i + j) mod a, a - j) makes the same two arcs with n and
    n + 1 swapped.  Swapping n <-> n + 1 commutes with iota, which pairs
    them, so the two maps are isomorphic and only j <= a/2 is split: every
    i when 2j < a, and i < j when 2j = a (there i and i + j are mirrors).

    Name a split (cyc[i], j) by its arc's first dart.  An automorphism s
    of the parent, extended by fixing n and n + 1, maps split (d, j) onto
    split (s[d], j) and fixes the new edge.  So one split is searched per
    orbit of the parent's automorphisms: a split is skipped once an
    earlier one was carried onto it (onto either arc start when 2j = a).
    The records still reach every non-loop edge i of a child: when a
    skipped split s(d, j) is isomorphic to the child with its new edge on
    i, so is the searched split (d, j), through s, and every such
    isomorphism is aut o p for the record's perm p and an automorphism
    aut of the child (complexes._contraction_table).
    """
    out = {}
    for g in graphs:
        n = g.n
        iota = list(g.iota) + [n + 1, n]
        seen = set()  # (first arc dart, j) of the splits searched and their images
        for cyc in g.vertices:
            a = len(cyc)
            for j in range(min_valence - 1, a // 2 + 1):
                for i in range(a if 2 * j < a else j):
                    if (cyc[i], j) in seen:
                        continue
                    starts = (cyc[i], cyc[(i + j) % a]) if 2 * j == a else (cyc[i],)
                    seen.update((s[d], j) for s in g.auts for d in starts)
                    gamma = list(g.gamma) + [n, n + 1]
                    _close(gamma, n, [cyc[(i + j + t) % a] for t in range(a - j)])
                    _close(gamma, n + 1, [cyc[(i + t) % a] for t in range(j)])
                    code, perms = kernels.canonical_data(iota, gamma)
                    hit = out.get(code)
                    if hit is None:
                        hit = out[code] = (automorphisms(perms), [], bytearray())
                    hit[1].append(g)
                    hit[2].extend(perms[0])
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
    reaching its code: p o p0^-1 for p in perms, in root order (the order
    a search of the canonical graph itself lists them)."""
    inv0 = sorted(range(len(perms[0])), key=perms[0].__getitem__)
    return sorted((tuple(p[d] for d in inv0) for p in perms), key=root)


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
    """The labeled classes of a canonical graph from iso_levels: each given
    labeling that is least in its Aut(graph)-orbit, i.e. whose labeled_search
    keys are its own.

    The graph's code is its own, and its automorphisms are the perms a
    search of it finds, the identity first; those kept for a least labeling
    are the labeled class's automorphisms.
    """
    searched = (graph.gamma, graph.iota), graph.auts
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
