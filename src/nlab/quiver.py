"""Quivers, double quivers and the underlying adjacency graph.

Edge and vertex ids are strings.  The reversed edge of `e` is spelled `e*`;
reversed edges are derived, never stored in files.  A fixed total order on
the edges of the double quiver (base edges lexicographically, each
immediately followed by its reversal) is used by all canonical forms
downstream.
"""

from __future__ import annotations

import json


class QuiverError(ValueError):
    pass


def json_field(obj, key, kind, where, error=QuiverError):
    """obj[key] from parsed JSON, checked to be a `kind`; raises `error` naming
    `where` and the key when obj is not an object, lacks the key or has the
    wrong type there."""
    if not isinstance(obj, dict):
        raise error("%s is not a JSON object" % where)
    if key not in obj:
        raise error("%s has no %r" % (where, key))
    value = obj[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise error("%s: %r has the wrong type %s" % (where, key, type(value).__name__))
    return value


class Quiver:
    """A finite quiver: ordered vertex ids and edge records (id, tail, head)."""

    def __init__(self, vertices, edges):
        self.vertices = tuple(str(v) for v in vertices)
        self.edges = tuple((str(e), str(t), str(h)) for (e, t, h) in edges)
        vs = set(self.vertices)
        if len(vs) != len(self.vertices):
            raise QuiverError("duplicate vertex ids")
        seen = set()
        for e, t, h in self.edges:
            if e in seen:
                raise QuiverError("duplicate edge id %r" % e)
            if e.endswith("*"):
                raise QuiverError("edge id %r: trailing '*' is reserved for reversals" % e)
            seen.add(e)
            if t not in vs or h not in vs:
                raise QuiverError("edge %r has endpoint outside the vertex set" % e)

    @staticmethod
    def from_json(text: str) -> "Quiver":
        data = json.loads(text)
        vertices = json_field(data, "vertices", list, "quiver")
        edges = []
        for n, e in enumerate(json_field(data, "edges", list, "quiver")):
            where = "quiver edge %d" % n
            edges.append(tuple(json_field(e, key, (str, int), where)
                               for key in ("id", "tail", "head")))
        for v in vertices:
            if not isinstance(v, (str, int)):
                raise QuiverError("quiver vertex %r is not a string or integer" % (v,))
        return Quiver(vertices, edges)

    @staticmethod
    def load(path) -> "Quiver":
        with open(path) as f:
            return Quiver.from_json(f.read())

    def to_json(self) -> str:
        return json.dumps({
            "vertices": list(self.vertices),
            "edges": [{"id": e, "tail": t, "head": h} for (e, t, h) in self.edges],
        })

    def multiply(self, n: int) -> "Quiver":
        """The quiver nQ: n parallel copies e#1 .. e#n of every edge."""
        if n < 1:
            raise QuiverError("n must be >= 1")
        if n == 1:
            return self
        edges = []
        for e, t, h in self.edges:
            for k in range(1, n + 1):
                edges.append(("%s#%d" % (e, k), t, h))
        return Quiver(self.vertices, edges)


def reverse_id(e: str) -> str:
    return e[:-1] if e.endswith("*") else e + "*"


class DoubleQuiver:
    """The double of a quiver: one reversed edge e* per base edge e.

    Provides the fixed edge order and the head/tail/reversal maps used by
    the path and necklace machinery.
    """

    def __init__(self, base: Quiver):
        self.base = base
        self.vertices = base.vertices
        tail = {}
        head = {}
        for e, t, h in base.edges:
            tail[e], head[e] = t, h
            tail[e + "*"], head[e + "*"] = h, t
        self.tail = tail
        self.head = head
        order = []
        for e in sorted(e for (e, _, _) in base.edges):
            order.append(e)
            order.append(e + "*")
        self.edge_order = tuple(order)
        self.order_index = {e: i for i, e in enumerate(order)}
        self.base_edges = tuple(sorted(e for (e, _, _) in base.edges))

    def is_edge(self, e: str) -> bool:
        return e in self.order_index

    def is_base(self, e: str) -> bool:
        return not e.endswith("*")

    def reverse(self, e: str) -> str:
        if e not in self.order_index:
            raise QuiverError("unknown edge %r" % e)
        return reverse_id(e)

    def check_vertex(self, v: str):
        if v not in self.vertices:
            raise QuiverError("unknown vertex %r" % v)


def double(q: Quiver) -> DoubleQuiver:
    return DoubleQuiver(q)


class AdjacencyGraph:
    """Undirected graph G obtained from a quiver by forgetting multiplicity.

    Loops are allowed but carry multiplicity at most one.
    """

    def __init__(self, vertices, pairs):
        self.vertices = tuple(vertices)
        self.pairs = frozenset(tuple(sorted(p)) for p in pairs)
        vs = set(self.vertices)
        for a, b in self.pairs:
            if a not in vs or b not in vs:
                raise QuiverError("adjacency endpoint outside the vertex set")

    def adjacent(self, v, w) -> bool:
        return tuple(sorted((v, w))) in self.pairs

    def key(self):
        """Hashable identity used in cache keys."""
        return (self.vertices, tuple(sorted(self.pairs)))


def adjacency(q: Quiver) -> AdjacencyGraph:
    pairs = set()
    for _, t, h in q.edges:
        pairs.add(tuple(sorted((t, h))))
    return AdjacencyGraph(q.vertices, pairs)


# Small stock quivers used by verification suites and tests.

def one_loop() -> Quiver:
    return Quiver(["v"], [("e", "v", "v")])


def two_loops() -> Quiver:
    return Quiver(["v"], [("a", "v", "v"), ("b", "v", "v")])


def two_vertex() -> Quiver:
    # an arrow between the vertices plus a loop; small but not degenerate
    return Quiver(["v1", "v2"], [("a", "v1", "v2"), ("c", "v1", "v1")])
