"""Chain complexes of oriented (labeled) ribbon graph classes.

Degree = edge count.  The basis in each degree consists of the orientable
iso classes, each stored with its reference EF orientation (edges and
faces in index order).  The differential contracts non-loop edges:

    d(Gamma, or) = sum_e (Gamma/e, or_e),

where or_e is obtained by contracting the dual vector of e against the
edge wedge, i.e. a sign (-1)^{position of e}; transporting to the
canonical representative of the target contributes the sign of the
induced edge and face permutations.  Contraction preserves faces, genus
and connectivity, and can only raise valences, so the enumeration is
closed under it; this is asserted during construction.  A contraction
is never searched: contracting the new edge of a vertex split gives its
parent back, so each graph's non-loop contractions are read off the
splits that made it (their records come with census.iso_levels), and
every labeling of the graph reads its targets off that one table
(census.labeled_search).  Each class's orientability is tested once.
"""

from __future__ import annotations

import hashlib
import json
import os

from .. import __version__
from ..linalg import perm_sign, rank
from .census import (LabeledRibbonGraph, bottom_degree, dart_keys, iso_levels, label_key,
                     labeled_classes, labeled_search, root, unlabeled_as_classes)
from .graph import RibbonGraph, RibbonError
from .orientation import is_orientable

CACHE_VERSION = 2


def top_degree(g, m, min_valence):
    if min_valence >= 3:
        return 6 * g - 6 + 3 * m
    return None


def degree_range(genus, faces, min_valence, max_edges=None, G=None, X=None):
    """(kmin, kmax) of a (g, m [, G, X]) family: bottom degree to top degree,
    capped at max_edges.

    Raises RibbonError unless the family exists, min_valence is at least 1
    and max_edges, when given, is at least the bottom degree.  X, when given, is the face label multiset:
    one vertex of G per face.
    """
    if genus < 0:
        raise RibbonError("genus must be >= 0")
    if faces < 1:
        raise RibbonError("need at least one face")
    if min_valence < 1:
        raise RibbonError("min_valence = %r is below 1" % (min_valence,))
    if min_valence >= 3 and 2 - 2 * genus - faces >= 0:
        raise RibbonError("unstable (g, m): no valence>=3 complex")
    if (G is None) != (X is None):
        raise RibbonError("labeled complexes need both G and X")
    if X is not None:
        if len(X) != faces:
            raise RibbonError("label multiset size must equal the face count")
        for x in X:
            if x not in G.vertices:
                raise RibbonError("label %r is not a vertex of the adjacency graph" % (x,))
    bottom = bottom_degree(genus, faces)
    if max_edges is not None and max_edges < bottom:
        raise RibbonError("max_edges = %r is below the bottom degree %d of (g, m) = (%d, %d)"
                          % (max_edges, bottom, genus, faces))
    top = top_degree(genus, faces, min_valence)
    if top is None:
        if max_edges is None:
            raise RibbonError("valence-%d families need max_edges" % min_valence)
        top = max_edges
    elif max_edges is not None:
        top = min(top, max_edges)
    return bottom, top


def family_levels(kmin, kmax, genus, faces, min_valence, G=None, X=None):
    """Yield (k, classes, splits) for k = kmin..kmax: every connected class
    of degree k in a family, orientable or not, and degree k's records.

    The unlabeled classes of all degrees and their records come from one
    run of census.iso_levels (one pairing scan, one vertex-splitting pass
    per degree); each degree is then labeled on its own.
    """
    for k, graphs, splits in iso_levels(kmin, kmax, min_valence, genus, faces):
        if G is not None:
            classes = labeled_classes(k, min_valence, G, X, genus=genus, graphs=graphs)
        else:
            classes = unlabeled_as_classes(k, min_valence, genus=genus, faces=faces,
                                           graphs=graphs)
        yield k, classes, splits


def _contraction_table(g: RibbonGraph, parents, perms):
    """(i, a, b, new, search) per non-loop edge i = (a, b) of a canonical
    graph made by vertex splits: the dart renumbering new[d] = d - (d > a)
    - (d > b) of the contraction g/i and its unlabeled canonical search,
    read off the splits that made g, with no search of its own.

    parents and perms are g's census._splits records: split r made g from
    parents[r], and p = perms[r * g.n:(r + 1) * g.n] is its search's first
    perm.  With n = g.n - 2, contracting the split's new edge (n, n + 1)
    gives the parent back, dart for dart, and every isomorphism of the
    split onto g is aut o p for an automorphism aut of g.  So when aut o p
    carries the new edge onto edge i, tau[new[aut[p[d]]]] = d maps g/i
    onto the parent: g/i has the parent's code, and its perms are x o tau
    over the parent's automorphisms x, in root order.  Every non-loop edge
    is reached, since g/i is a graph of the degree below and one of its
    splits puts the new edge on i.
    """
    n = g.n - 2
    want = sum(not g.is_loop(i) for i in range(g.num_edges))
    table = {}
    for r, parent in enumerate(parents):
        p = perms[r * g.n:(r + 1) * g.n]
        for aut in g.auts:
            i = g.edge_of(aut[p[n]])
            if i in table:
                continue
            a, b = g.edges[i]
            new = [*range(a), -1, *range(a, b - 1), -1, *range(b - 1, n)]
            tau = [0] * n
            for d in range(n):
                tau[new[aut[p[d]]]] = d
            search = sorted((tuple([x[t] for t in tau]) for x in parent.auts), key=root)
            table[i] = (i, a, b, new, ((parent.gamma, parent.iota), search))
        if len(table) == want:
            return [table[i] for i in sorted(table)]
    raise RibbonError("a contraction left the enumerated degrees")


class RibbonComplex:
    """Bases and sparse boundaries for one (g, m [, G, X]) family."""

    SIZE_GUARD = 50000  # total basis elements; raise it explicitly if needed

    def __init__(self, genus, faces, min_valence, G=None, X=None,
                 max_edges=None, cache_dir=None):
        self.kmin, self.kmax = degree_range(genus, faces, min_valence, max_edges, G, X)
        self.genus = genus
        self.faces = faces
        self.min_valence = min_valence
        self.G = G
        self.X = tuple(sorted(X)) if X is not None else None
        self.basis = {}       # degree -> list of LabeledRibbonGraph (orientable)
        self.index = {}       # degree -> {code: position}
        self.boundary = {}    # degree k -> d_k, one {column: coeff} per basis[k-1] element
        if not self._load(cache_dir):
            self._build()
            self.check_d_squared()
            self._store(cache_dir)

    # -- construction -----------------------------------------------------------

    def _build(self):
        """Enumerate degree by degree, building d_k from degree k's split
        records while census.iso_levels still holds them."""
        total = 0
        orientable = {}  # code -> is_orientable, per class: tested once
        for k, classes, splits in family_levels(self.kmin, self.kmax, self.genus, self.faces,
                                                self.min_valence, self.G, self.X):
            below, orientable = orientable, {lg.code: is_orientable(lg.graph, lg.auts)
                                             for lg in classes}
            basis = [lg for lg in classes if orientable[lg.code]]
            total += len(basis)
            if total > self.SIZE_GUARD:
                raise RibbonError("%d basis elements exceed RibbonComplex.SIZE_GUARD = %d"
                                  % (total, self.SIZE_GUARD))
            self.basis[k] = basis
            self.index[k] = {lg.code: i for i, lg in enumerate(basis)}
            if k > self.kmin:
                self.boundary[k] = self._boundary(k, splits, below)

    def dims(self):
        return {k: len(self.basis.get(k, ())) for k in range(self.kmin, self.kmax + 1)}

    @property
    def matrices(self):
        """degree k -> d_k as dense rows, built from the sparse boundary."""
        return {k: [[row.get(j, 0) for j in range(len(self.basis[k]))] for row in rows]
                for k, rows in self.boundary.items()}

    def _boundary(self, k, splits, below):
        """d_k as sparse rows.  The basis is in code order, so the labelings
        of one graph are adjacent, share its graph object and share one
        table of its contractions, read off its records in splits (degree
        k's census._splits).  below maps every class code of degree k - 1
        to its orientability."""
        rows = [{} for _ in self.basis[k - 1]]
        if not splits:
            return rows  # the base degree: no edge contracts into the complex
        graph = None
        for col, lg in enumerate(self.basis[k]):
            if lg.graph is not graph:
                graph = lg.graph
                table = _contraction_table(graph, *splits[graph.gamma, graph.iota][1:])
            for target, coeff in self._contractions(lg, table, k, below):
                row = rows[target]
                row[col] = row.get(col, 0) + coeff
                if not row[col]:
                    del row[col]
        return rows

    def _label_key(self):
        """The label_key of the family's codes: G's vertices, or None alone."""
        return label_key(self.G.vertices if self.G is not None else ())

    def _contractions(self, lg: LabeledRibbonGraph, table, k, below):
        """(row, sign) per non-loop edge of lg whose contraction is in the basis.

        `table` is lg.graph's _contraction_table.  Contraction keeps every
        face, so each surviving dart keeps its face's label key, and the
        labeled target is read off the contraction's unlabeled search.  The
        sign is (-1)^i times the sign of the edge and face bijection from lg
        minus edge i onto the stored target, read through new[d] and perms[0].
        A target that is no class of degree k - 1 (no code in below, as in
        _boundary) raises RibbonError.
        """
        g = lg.graph
        keys = lg.code[2]  # lg.graph is canonical: its per-dart keys
        for i, a, b, new, searched in table:
            code, perms = labeled_search(searched, keys[:a] + keys[a + 1:b] + keys[b + 1:])
            pos = self.index[k - 1].get(code)
            if pos is None:
                if code not in below:
                    raise RibbonError("boundary left the enumerated basis")
                continue
            target = self.basis[k - 1][pos].graph
            p0 = perms[0]
            edge_img = [target.edge_of(p0[new[x]]) for x, _ in g.edges if x != a]
            face_img = []
            for cyc in g.faces:
                for d in cyc:
                    if d != a and d != b:
                        break
                face_img.append(target.face_of(p0[new[d]]))
            yield pos, (-1) ** i * perm_sign(edge_img) * perm_sign(face_img)

    # -- exact homology ------------------------------------------------------------

    def betti(self):
        """degree -> (dim, betti), the ranks exact over Q by sparse elimination.

        With kmax below the family's top degree (always for min_valence < 3)
        there is no d_{kmax+1}: the kmax entry is dim ker d_kmax, only an
        upper bound for the Betti number of the full complex.

        Raises RibbonError if a rank exceeds its matrix's smaller side or a
        Betti number comes out negative: either means the arithmetic is wrong.
        """
        out = {}
        ranks = {}
        for k in range(self.kmin, self.kmax + 1):
            rows = self.boundary.get(k)
            ranks[k] = rank(rows) if rows else 0
            if rows and ranks[k] > min(len(rows), len(self.basis[k])):
                raise RibbonError("rank %d exceeds the %d x %d boundary at degree %d"
                                  % (ranks[k], len(rows), len(self.basis[k]), k))
        for k in range(self.kmin, self.kmax + 1):
            dim = len(self.basis.get(k, ()))
            b = dim - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if b < 0:
                raise RibbonError("negative Betti number %d at degree %d" % (b, k))
            out[k] = (dim, b)
        return out

    def apply(self, k, vec):
        """d_k of a coefficient list over basis[k], as a list over basis[k-1]."""
        return [sum(c * vec[j] for j, c in row.items()) for row in self.boundary.get(k, ())]

    def check_d_squared(self):
        """Raise RibbonError unless every d_{k-1} d_k is zero: each of its rows
        sums the rows of d_k that a row of d_{k-1} names."""
        for k in range(self.kmin + 2, self.kmax + 1):
            for row in self.boundary[k - 1]:
                product = {}
                for t, c in row.items():
                    for j, x in self.boundary[k][t].items():
                        product[j] = product.get(j, 0) + c * x
                if any(product.values()):
                    raise RibbonError("d^2 != 0 at degree %d" % k)
        return True

    # -- cache ---------------------------------------------------------------------

    def _cache_key(self):
        ident = {
            "v": CACHE_VERSION,
            "nlab": __version__,
            "genus": self.genus,
            "faces": self.faces,
            "min_valence": self.min_valence,
            "kmax": self.kmax,
            "G": None if self.G is None else self.G.key(),
            "X": self.X,
        }
        blob = json.dumps(ident, sort_keys=True, default=list)
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def _cache_path(self, cache_dir):
        return os.path.join(cache_dir, "complex-%s.json" % self._cache_key())

    def _load(self, cache_dir):
        """Read bases and boundaries from the cache.

        A missing file, another version, a file that does not parse, one
        whose face labels are not this family's, one whose boundary entries
        do not fit its basis sizes (see _stored_boundary) or one whose
        boundaries fail d^2 = 0 is a miss.
        """
        if not cache_dir:
            return False
        path = self._cache_path(cache_dir)
        if not os.path.exists(path):
            return False
        try:
            with open(path) as f:
                data = json.load(f)
            if data.get("version") != CACHE_VERSION:
                return False
            key = self._label_key()
            labels = self.X if self.X is not None else (None,) * self.faces
            basis = {}
            for k_str, items in data["basis"].items():
                basis[int(k_str)] = []
                for item in items:
                    code = (tuple(item["gamma"]), tuple(item["iota"]), tuple(item["lab"]))
                    cg = RibbonGraph.from_code(code)
                    face_labels = item["face_labels"]
                    if (sorted(face_labels, key=str) != list(labels)
                            or code[2] != dart_keys(cg, face_labels, key)):
                        return False
                    auts = [tuple(p) for p in item["auts"]]
                    basis[int(k_str)].append(
                        LabeledRibbonGraph(cg, face_labels, code, auts))
            boundary = self._stored_boundary(basis, data["boundary"])
            if boundary is None:
                return False
            self.boundary = boundary
            self.check_d_squared()  # raises RibbonError, a ValueError
        except (ValueError, LookupError, TypeError, AttributeError):
            self.boundary = {}
            return False
        self.basis = basis
        self.index = {k: {lg.code: i for i, lg in enumerate(b)} for k, b in basis.items()}
        return True

    def _stored_boundary(self, basis, stored):
        """The sparse rows of stored {"k": [[[column, coeff], ...] per row]}, or
        None unless each d_k has one row per basis[k-1] element and every entry
        a distinct column 0 <= j < dim C_k and a nonzero int coefficient."""
        if set(basis) != set(range(self.kmin, self.kmax + 1)) or \
                set(map(int, stored)) != set(range(self.kmin + 1, self.kmax + 1)):
            return None
        boundary = {}
        for k, rows in stored.items():
            k = int(k)
            ncols = len(basis[k])
            if len(rows) != len(basis[k - 1]):
                return None
            boundary[k] = []
            for row in rows:
                entries = dict(row)
                if len(entries) != len(row) or not all(
                        type(j) is int and 0 <= j < ncols and type(c) is int and c
                        for j, c in row):
                    return None
                boundary[k].append(entries)
        return boundary

    def _store(self, cache_dir):
        if not cache_dir:
            return
        os.makedirs(cache_dir, exist_ok=True)
        basis = {}
        for k, items in self.basis.items():
            basis[k] = [{
                "gamma": list(lg.code[0]),
                "iota": list(lg.code[1]),
                "lab": list(lg.code[2]),
                "auts": [list(p) for p in lg.auts],
                "face_labels": list(lg.face_labels),
            } for lg in items]
        data = {
            "version": CACHE_VERSION,
            "basis": basis,
            "boundary": {str(k): [list(row.items()) for row in rows]
                         for k, rows in self.boundary.items()},
        }
        tmp = self._cache_path(cache_dir) + ".tmp"
        with open(tmp, "w") as f:
            f.write(json.dumps(data))  # the C encoder; json.dump streams in Python
        os.replace(tmp, self._cache_path(cache_dir))
