"""Ribbon graphs as permutation pairs on darts.

A ribbon graph is (iota, gamma) on darts 0..n-1: iota a fixed-point-free
involution whose orbits are the edges, gamma a permutation whose orbits
are the vertices (cyclic counterclockwise order of darts).  Faces are the
orbits of gamma o iota; the genus comes from the Euler formula.  Lists of
vertices, edges and faces are sorted by their minimal dart, each orbit
written starting from its minimal dart; the reference orientation of edge
i is the dart pair (min dart, its iota partner).

tensor_contractions is the one routine that contracts a tensor per vertex
along every edge by a pairing, as a join over the vertices: A-infinity
weights and axiom checks (module ainf) and graph cochains (module
ribbon.cochain) all run it.
"""

from __future__ import annotations

import json

from .. import kernels
from ..quiver import json_field


class RibbonError(ValueError):
    pass


def _is_dart_id(d):
    return isinstance(d, (int, str)) and not isinstance(d, bool)


def _orbits(perm):
    n = len(perm)
    seen = [False] * n
    out = []
    for d in range(n):
        if seen[d]:
            continue
        cyc = []
        cur = d
        while not seen[cur]:
            seen[cur] = True
            cyc.append(cur)
            cur = perm[cur]
        out.append(tuple(cyc))
    return out


class RibbonGraph:
    __slots__ = ("iota", "gamma", "n", "_vertices", "_edges", "_faces",
                 "_face_of", "_vertex_of", "_edge_of")

    def __init__(self, iota, gamma, check=True):
        self.iota = tuple(iota)
        self.gamma = tuple(gamma)
        self.n = len(self.iota)
        if check:
            n = self.n
            if sorted(self.gamma) != list(range(n)) or sorted(self.iota) != list(range(n)):
                raise RibbonError("iota and gamma must be permutations of 0..n-1")
            for d in range(n):
                if self.iota[d] == d or self.iota[self.iota[d]] != d:
                    raise RibbonError("iota must be a fixed-point-free involution")
        self._vertices = None
        self._edges = None
        self._faces = None
        self._face_of = None
        self._vertex_of = None
        self._edge_of = None

    # -- derived structure -------------------------------------------------

    @property
    def vertices(self):
        if self._vertices is None:
            self._vertices = _orbits(self.gamma)
            self._vertex_of = [0] * self.n
            for i, cyc in enumerate(self._vertices):
                for d in cyc:
                    self._vertex_of[d] = i
        return self._vertices

    @property
    def edges(self):
        if self._edges is None:
            self._edges = [(d, self.iota[d]) for d in range(self.n) if d < self.iota[d]]
            self._edge_of = [0] * self.n
            for i, (a, b) in enumerate(self._edges):
                self._edge_of[a] = i
                self._edge_of[b] = i
        return self._edges

    @property
    def faces(self):
        if self._faces is None:
            fperm = [self.gamma[self.iota[d]] for d in range(self.n)]
            self._faces = _orbits(fperm)
            self._face_of = [0] * self.n
            for i, cyc in enumerate(self._faces):
                for d in cyc:
                    self._face_of[d] = i
        return self._faces

    def vertex_of(self, d):
        self.vertices
        return self._vertex_of[d]

    def edge_of(self, d):
        self.edges
        return self._edge_of[d]

    def face_of(self, d):
        self.faces
        return self._face_of[d]

    @property
    def num_edges(self):
        return self.n // 2

    @property
    def num_faces(self):
        return len(self.faces)

    @property
    def num_vertices(self):
        return len(self.vertices)

    def genus(self):
        if not kernels.is_connected(self.iota, self.gamma):
            raise RibbonError("disconnected ribbon graph")
        chi = self.num_vertices - self.num_edges + self.num_faces
        if chi % 2:
            raise RibbonError("odd Euler characteristic; corrupt map")
        g = (2 - chi) // 2
        if g < 0:
            raise RibbonError("negative genus; corrupt map")
        return g

    def valences(self):
        return tuple(sorted(len(v) for v in self.vertices))

    def is_loop(self, edge_index):
        a, b = self.edges[edge_index]
        return self.vertex_of(a) == self.vertex_of(b)

    # -- canonical form ------------------------------------------------------

    def canonical(self):
        """(code, perms) of the minimal relabeling: code is (gamma', iota')."""
        return kernels.canonical_data(self.iota, self.gamma)

    @staticmethod
    def from_code(code):
        """The graph of a code; a labeled code's third part is ignored."""
        g2, i2 = code[:2]
        return RibbonGraph(i2, g2, check=False)

    # -- contraction -----------------------------------------------------------

    def contract(self, edge_index):
        """Contract a non-loop edge (a, b), a < b.

        Returns (graph, new): the merged vertex is a's cycle after a, then
        b's cycle after b, and new[d] = d - (d > a) - (d > b) renumbers each
        surviving dart d in order (new[a] = new[b] = -1).
        """
        a, b = self.edges[edge_index]
        if self.is_loop(edge_index):
            raise RibbonError("cannot contract a loop")
        n = self.n
        new = [*range(a), -1, *range(a, b - 1), -1, *range(b - 1, n - 2)]
        gam = list(self.gamma)
        merged = self.cycle_from(a)[1:] + self.cycle_from(b)[1:]
        for d, nxt in zip(merged, merged[1:] + merged[:1]):
            gam[d] = nxt
        iota = self.iota
        live = [*range(a), *range(a + 1, b), *range(b + 1, n)]
        return RibbonGraph([new[iota[d]] for d in live], [new[gam[d]] for d in live],
                           check=False), new

    def cycle_from(self, d):
        """The darts of d's vertex in cyclic order, starting at d."""
        cyc = [d]
        cur = self.gamma[d]
        while cur != d:
            cyc.append(cur)
            cur = self.gamma[cur]
        return cyc

    # -- serialization ------------------------------------------------------------

    def to_json(self, face_labels=None) -> str:
        data = {
            "half_edges": list(range(self.n)),
            "iota": [list(e) for e in self.edges],
            "gamma": [list(v) for v in self.vertices],
        }
        if face_labels is not None:
            data["labels"] = {"face%d" % i: lab for i, lab in enumerate(face_labels)}
        return json.dumps(data)

    @staticmethod
    def from_json(text):
        """Returns (graph, face_labels or None); faces are indexed by min dart order."""
        data = json.loads(text)

        def field(key, kind):
            return json_field(data, key, kind, "ribbon graph", error=RibbonError)

        darts = list(field("half_edges", list))
        if not darts:
            raise RibbonError("ribbon graph: 'half_edges' is empty")
        for d in darts:
            if not _is_dart_id(d):
                raise RibbonError("ribbon graph: half-edge %r is not an integer or string"
                                  % (d,))
        index = {d: i for i, d in enumerate(darts)}

        def dart(d, kind, entry):
            if not _is_dart_id(d) or d not in index:
                raise RibbonError("ribbon graph: %s entry %r names %r, which is not in "
                                  "'half_edges'" % (kind, entry, d))
            return index[d]

        n = len(darts)
        iota = [-1] * n
        for pair in field("iota", list):
            if not isinstance(pair, list) or len(pair) != 2:
                raise RibbonError("ribbon graph: iota entry %r is not a pair of half-edges"
                                  % (pair,))
            a, b = (dart(d, "iota", pair) for d in pair)
            iota[a] = b
            iota[b] = a
        gamma = [-1] * n
        for cyc in field("gamma", list):
            if not isinstance(cyc, list):
                raise RibbonError("ribbon graph: gamma entry %r is not a list of half-edges"
                                  % (cyc,))
            ds = [dart(d, "gamma", cyc) for d in cyc]
            for x, y in zip(ds, ds[1:] + ds[:1]):
                gamma[x] = y
        if -1 in iota or -1 in gamma:
            raise RibbonError("iota/gamma do not cover all half-edges")
        g = RibbonGraph(iota, gamma)
        labels = None
        if "labels" in data:
            labels = [None] * g.num_faces
            for key, lab in field("labels", dict).items():
                face = key[4:]
                if not key.startswith("face") or not face.isdecimal() \
                        or int(face) >= g.num_faces:
                    raise RibbonError("bad face key %r (the graph has %d faces)"
                                      % (key, g.num_faces))
                if not isinstance(lab, str):
                    raise RibbonError("face label %r of %r is not a string" % (lab, key))
                labels[int(face)] = lab
            if None in labels:
                raise RibbonError("missing face label")
        return g, labels

    def __repr__(self):
        return "RibbonGraph(V=%d, E=%d, F=%d, g=%d)" % (
            self.num_vertices, self.num_edges, self.num_faces, self.genus())


def tensor_contractions(blocks, edge_tensors, index=None):
    """(assignment, product) for every assignment of indices to darts whose
    product of block and edge entries is nonzero.

    blocks is a list of (darts, {index tuple: entry}), one tensor per vertex,
    contracted in list order; edge_tensors is a list of ((a, b), {(index at
    a, index at b): entry}), one pairing per edge.  Every dict holds nonzero
    entries only.

    The contraction is a join.  An edge between a dart e of an earlier block
    and a dart d of blocks[t] bonds d: once e holds index x, d can only take
    an index y that the pairing joins to x (an entry at (x, y), or at (y, x)
    when d is the edge's first dart).  Each tensor's entries are grouped,
    through the pairings of its block's bonds, by those x, each entry
    carrying its pairing factors; depth t reads the one group that the
    indices of its earlier darts name.  A loop edge, with both darts in
    blocks[t], is looked up once the entry is chosen, and a block without
    bonds reads all of its entries.  index, when given, is a dict that keeps
    the groupings for later calls; the tensors and pairings it has seen must
    not change while it is in use.  The yielded assignment is reused: read
    it before resuming.
    """
    if index is None:
        index = {}
    depth = {d: t for t, (darts, _) in enumerate(blocks) for d in darts}
    # per block: its grouping's key (the tensor's id, then the slot, pairing
    # id and side of each bond) and its bonds (earlier dart, pairing)
    keys = [[id(tensor)] for _, tensor in blocks]
    bonds = [[] for _ in blocks]
    loops = {}
    for (a, b), pairing in edge_tensors:
        ta, tb = depth[a], depth[b]
        if ta < tb:
            keys[tb] += blocks[tb][0].index(b), id(pairing), 0
            bonds[tb].append((a, pairing))
        elif ta > tb:
            keys[ta] += blocks[ta][0].index(a), id(pairing), 1
            bonds[ta].append((b, pairing))
        else:
            loops.setdefault(ta, []).append((a, b, pairing))
    plan = []
    for t, (darts, tensor) in enumerate(blocks):
        if bonds[t]:
            key = tuple(keys[t])
            group = (index.get(key) or _join(index, key, tensor, bonds[t]))[0]
        else:
            group = tensor.items()
        plan.append((darts, group, bonds[t], loops.get(t, ())))
    assign = {}
    last = len(plan) - 1

    def extend(t, v):
        darts, group, bonded, edges = plan[t]
        for e, _ in bonded:
            group = group.get(assign[e])
            if group is None:
                return
        for idx, entry in group:
            assign.update(zip(darts, idx))
            for a, b, pairing in edges:
                if (assign[a], assign[b]) not in pairing:
                    break
            else:
                w = v * entry
                for a, b, pairing in edges:
                    w *= pairing[assign[a], assign[b]]
                if t == last:
                    yield assign, w
                else:
                    yield from extend(t + 1, w)

    return extend(0, 1) if plan else iter([(assign, 1)])


def _join(index, key, tensor, bonds):
    """tensor's items (idx, entry) grouped for the bonds that key (slot r,
    pairing id, side) and bonds (earlier dart, pairing) list: a trie with one
    level per bond, each item filed under every index x that the bond's
    pairing joins to idx[r], with entry times those pairing entries.  Stored
    in index under key with the tensor and pairings, so that the ids in key
    stay theirs."""
    pairings = [pairing for _, pairing in bonds]
    levels = [(r, _partners(index, pairing, side))
              for r, pairing, side in zip(key[1::3], pairings, key[3::3])]
    trie = {}
    for idx, entry in tensor.items():
        nodes = [(trie, entry)]
        for i, (r, by_y) in enumerate(levels, 1):
            nodes = [(node.setdefault(x, [] if i == len(levels) else {}), w * c)
                     for node, w in nodes for x, c in by_y.get(idx[r], ())]
        for leaf, w in nodes:
            leaf.append((idx, w))
    hit = index[key] = (trie, tensor, pairings)
    return hit


def _partners(index, pairing, side):
    """{y: [(x, entry)]} over the pairing's entries at (x, y) (side 0) or
    at (y, x) (side 1); stored in index with the pairing."""
    key = id(pairing), side
    hit = index.get(key)
    if hit is None:
        by_y = {}
        for xy, c in pairing.items():
            by_y.setdefault(xy[1 - side], []).append((xy[side], c))
        hit = index[key] = (by_y, pairing)
    return hit[0]
