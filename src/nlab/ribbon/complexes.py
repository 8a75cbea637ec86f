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
closed under it; this is asserted during construction.
"""

from __future__ import annotations

import hashlib
import json
import os

from .. import __version__
from ..linalg import perm_sign, rank
from .census import (LabeledRibbonGraph, canonical_class, dart_keys, label_key,
                     labeled_classes, unlabeled_as_classes)
from .graph import RibbonGraph, RibbonError
from .orientation import ef_sign, is_orientable

CACHE_VERSION = 1


def top_degree(g, m, min_valence):
    if min_valence >= 3:
        return 6 * g - 6 + 3 * m
    return None


def bottom_degree(g, m):
    return 2 * g - 1 + m


def degree_range(genus, faces, min_valence, max_edges=None, G=None, X=None):
    """(kmin, kmax) of a (g, m [, G, X]) family: bottom degree to top degree,
    capped at max_edges.

    Raises RibbonError unless the family exists.  X, when given, is the face
    label multiset: one vertex of G per face.
    """
    if genus < 0:
        raise RibbonError("genus must be >= 0")
    if faces < 1:
        raise RibbonError("need at least one face")
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
    top = top_degree(genus, faces, min_valence)
    if top is None:
        if max_edges is None:
            raise RibbonError("valence-2 families need max_edges")
        top = max_edges
    elif max_edges is not None:
        top = min(top, max_edges)
    return bottom_degree(genus, faces), top


def family_classes(k, genus, faces, min_valence, G=None, X=None):
    """Every connected class of degree k in a family, orientable or not."""
    if G is not None:
        return labeled_classes(k, min_valence, G, X, genus=genus)
    return unlabeled_as_classes(k, min_valence, genus=genus, faces=faces)


class RibbonComplex:
    """Bases and boundary matrices for one (g, m [, G, X]) family."""

    SIZE_GUARD = 50000  # total basis elements; raise it explicitly if needed

    def __init__(self, genus, faces, min_valence, G=None, X=None,
                 max_edges=None, cache_dir=None, size_guard=None):
        self.kmin, self.kmax = degree_range(genus, faces, min_valence, max_edges, G, X)
        self.genus = genus
        self.faces = faces
        self.min_valence = min_valence
        self.G = G
        self.X = tuple(sorted(X)) if X is not None else None
        self.basis = {}       # degree -> list of LabeledRibbonGraph (orientable)
        self.index = {}       # degree -> {code: position}
        self.matrices = {}    # degree k -> boundary C_k -> C_{k-1} (row-major)
        self._size_guard = size_guard or self.SIZE_GUARD
        if not self._load(cache_dir):
            self._build()
            self._store(cache_dir)

    # -- construction -----------------------------------------------------------

    def _build(self):
        total = 0
        for k in range(self.kmin, self.kmax + 1):
            basis = [lg for lg in family_classes(k, self.genus, self.faces,
                                                 self.min_valence, self.G, self.X)
                     if lg.is_orientable()]
            total += len(basis)
            if total > self._size_guard:
                raise RibbonError("size guard exceeded (%d basis elements); "
                                  "pass size_guard to raise it" % total)
            self.basis[k] = basis
            self.index[k] = {lg.code: i for i, lg in enumerate(basis)}
        for k in range(self.kmin + 1, self.kmax + 1):
            self.matrices[k] = self._boundary(k)

    def dims(self):
        return {k: len(self.basis.get(k, ())) for k in range(self.kmin, self.kmax + 1)}

    def _boundary(self, k):
        rows = len(self.basis.get(k - 1, ()))
        cols = len(self.basis.get(k, ()))
        mat = [[0] * cols for _ in range(rows)]
        if not cols:
            return mat
        key = self._label_key()
        for col, lg in enumerate(self.basis[k]):
            for target, coeff in self._contractions(lg, k, key):
                mat[target][col] += coeff
        return mat

    def _label_key(self):
        """The label_key of the family's codes: G's vertices, or None alone."""
        return label_key(self.G.vertices if self.G is not None else ())

    def _contractions(self, lg: LabeledRibbonGraph, k, key):
        g = lg.graph
        for i in range(g.num_edges):
            if g.is_loop(i):
                continue
            contracted, dart_map = g.contract(i)
            # faces correspond through surviving darts; collect transport sign
            face_img = []
            for cyc in g.faces:
                d = next(d for d in cyc if d in dart_map)
                face_img.append(contracted.face_of(dart_map[d]))
            labels = [None] * contracted.num_faces
            for old_f, new_f in enumerate(face_img):
                labels[new_f] = lg.face_labels[old_f]
            code, cg, p0, auts = canonical_class(contracted,
                                                 dart_keys(contracted, labels, key))
            pos = self.index[k - 1].get(code)
            if pos is None:
                if is_orientable(cg, auts):
                    raise RibbonError("boundary left the enumerated basis")
                continue
            # the canonical relabeling acts on edges and faces too
            yield pos, (-1) ** i * perm_sign(face_img) * ef_sign(contracted, p0, cg)

    # -- exact homology ------------------------------------------------------------

    def betti(self):
        """degree -> (dim, betti) with fraction-free exact ranks.

        Raises RibbonError if a rank exceeds its matrix's smaller side or a
        Betti number comes out negative: either means the arithmetic is wrong.
        """
        out = {}
        ranks = {}
        for k in range(self.kmin, self.kmax + 1):
            mat = self.matrices.get(k)
            ranks[k] = rank(mat) if mat else 0
            if mat and ranks[k] > min(len(mat), len(mat[0])):
                raise RibbonError("rank %d exceeds the %d x %d boundary at degree %d"
                                  % (ranks[k], len(mat), len(mat[0]), k))
        for k in range(self.kmin, self.kmax + 1):
            dim = len(self.basis.get(k, ()))
            b = dim - ranks.get(k, 0) - ranks.get(k + 1, 0)
            if b < 0:
                raise RibbonError("negative Betti number %d at degree %d" % (b, k))
            out[k] = (dim, b)
        return out

    def euler_characteristic(self):
        return sum((-1) ** k * len(b) for k, b in self.basis.items())

    def check_d_squared(self):
        for k in range(self.kmin + 2, self.kmax + 1):
            a = self.matrices[k - 1]
            b = self.matrices[k]
            if not a or not b:
                continue
            rows, mid, cols = len(a), len(b), len(b[0]) if b else 0
            for i in range(rows):
                for j in range(cols):
                    s = 0
                    for t in range(mid):
                        if a[i][t] and b[t][j]:
                            s += a[i][t] * b[t][j]
                    if s:
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
        """Read bases and matrices from the cache.

        A missing file, another version, a file that does not parse, one
        whose face labels are not this family's, one whose matrix shapes
        disagree with its basis sizes or one whose matrices fail d^2 = 0 is
        a miss.
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
                            or code[2] != tuple(dart_keys(cg, face_labels, key))):
                        return False
                    auts = [tuple(p) for p in item["auts"]]
                    basis[int(k_str)].append(
                        LabeledRibbonGraph(cg, face_labels, code, auts))
            matrices = {int(k): v for k, v in data["matrices"].items()}
            if not self._shapes_agree(basis, matrices):
                return False
            self.matrices = matrices
            self.check_d_squared()  # raises RibbonError, a ValueError
        except (ValueError, LookupError, TypeError, AttributeError):
            self.matrices = {}
            return False
        self.basis = basis
        self.index = {k: {lg.code: i for i, lg in enumerate(b)} for k, b in basis.items()}
        return True

    def _shapes_agree(self, basis, matrices):
        if set(basis) != set(range(self.kmin, self.kmax + 1)) or \
                set(matrices) != set(range(self.kmin + 1, self.kmax + 1)):
            return False
        return all(len(mat) == len(basis[k - 1]) and
                   all(len(row) == len(basis[k]) for row in mat)
                   for k, mat in matrices.items())

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
            "matrices": {str(k): v for k, v in self.matrices.items()},
        }
        tmp = self._cache_path(cache_dir) + ".tmp"
        with open(tmp, "w") as f:
            json.dump(data, f)
        os.replace(tmp, self._cache_path(cache_dir))
