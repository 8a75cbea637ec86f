"""Cyclic A-infinity data over an adjacency graph, weights, and cycles.

The data assigns to each adjacent ordered pair (i, j) a Z/2-graded space
V_ij given by a list of basis parities, a nondegenerate pairing
V_ij x V_ji -> k, and product tensors

    mt_n : V_{i_1 i_2} (x) ... (x) V_{i_{n+1} i_1} -> k

keyed by the index cycle (i_1, ..., i_{n+1}) of at least 3 objects.  The
axioms checked are

    sum_{k,l} (-1)^{l(d_1+...+d_k) + (k+1)(l+1)}
        m_{n-l+1}(1^k (x) m_l (x) 1^{n-l-k}) = 0,

    mt_n(v_2 (x) ... (x) v_{n+1} (x) v_1)
        = (-1)^{n + d_1 (d_2+...+d_{n+1})} mt_n(v_1 (x) ... (x) v_{n+1}).

Both are checked on the stored tensors only.  Each term of the quadratic
identity is one pair of stored tensors, the inner one's closing slot
contracted by C into a slot of the outer one through
ribbon.graph.tensor_contractions; the rotation identity is compared at the
entries a tensor or its rotation stores.

The weight of an oriented labeled ribbon graph contracts one tensor per
vertex (the pairing at bivalent vertices, mt_{valence-1} otherwise)
against one inverse-pairing tensor C per edge, with explicit braiding
signs.  The contraction is ribbon.graph.tensor_contractions, a join: it
walks the vertices in turn, and at each vertex reads only the entries
whose indices the C tensors join to the indices already set at the other
ends of its edges, so only nonzero terms are ever completed.  Those
groupings of the vertex tensors by C are built once per WeightEngine
(once per check_ainf call for the axiom checks) and kept for every later
graph.  Pairings, C tensors and product tensors are read once, at load,
into dicts {index tuple: nonzero entry}, where an entry is an int when it
is integral and a Fraction otherwise, so integral data multiply as ints
and each weight makes one Fraction at the end.  The sign is normalized
against the graph's reference orientation through the
ciliation/vertex-order description (module ribbon.orientation).  Weight
normalization requires the standard parity pattern (even pairings, mt_n of
parity n mod 2); the axiom checks are fully general.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .linalg import invert, relative_perm_sign
from .quiver import AdjacencyGraph, json_field
from .ribbon.census import LabeledRibbonGraph
from .ribbon.graph import tensor_contractions
from .ribbon.orientation import OrientationBridge


class AInfError(ValueError):
    pass


class CyclicAInfData:
    """Hom spaces, pairings and cyclic product tensors over a graph G."""

    def __init__(self, objects, adjacency_pairs, parities, pairings, products):
        for k, o in enumerate(objects):
            if not isinstance(o, str):
                raise AInfError("object %r is not a string" % (o,))
            if o in objects[:k]:
                raise AInfError("object %r is repeated" % (o,))
        for pair in adjacency_pairs:
            if not all(isinstance(o, str) for o in pair):
                raise AInfError("adjacency entry %r has an endpoint that is not a string"
                                % (list(pair),))
        self.objects = tuple(objects)
        self.G = AdjacencyGraph(objects, adjacency_pairs)
        self.parities = {}
        for (i, j), ps in parities.items():
            if not self.G.adjacent(i, j):
                raise AInfError("hom space %s,%s between non-adjacent objects" % (i, j))
            for p in ps:
                if type(p) is not int or p not in (0, 1):
                    raise AInfError("space %s,%s: parity %r is not 0 or 1" % (i, j, p))
            self.parities[(i, j)] = tuple(ps)
        for (i, j) in list(self.parities):
            if (j, i) not in self.parities:
                raise AInfError("missing dual space %s,%s" % (j, i))
            if len(self.parities[(i, j)]) != len(self.parities[(j, i)]):
                raise AInfError("dual spaces %s,%s have different dims" % (i, j))
        self.pairings = {}
        for (i, j), mat in pairings.items():
            if (i, j) not in self.parities:
                raise AInfError("pairing %s,%s is for an undeclared space" % (i, j))
            self.pairings[(i, j)] = _sparse(mat, (self.dim(i, j), self.dim(j, i)),
                                            "pairing %s,%s" % (i, j))
        self._c_tensors = {}
        self._complete_pairings()
        self.tensors = {}
        for cycle, tensor in products:
            self._install(tuple(cycle), tensor)

    # -- construction helpers --------------------------------------------------

    def dim(self, i, j):
        return len(self.parities.get((i, j), ()))

    def parity(self, i, j, a):
        return self.parities[(i, j)][a]

    def pairing_parity(self, i, j):
        """Parity of the pairing V_ij x V_ji; must be homogeneous."""
        ps = {(self.parity(i, j, a) + self.parity(j, i, b)) % 2
              for a, b in self.pairings[(i, j)]}
        if len(ps) > 1:
            raise AInfError("inhomogeneous pairing %s,%s" % (i, j))
        return ps.pop() if ps else 0

    def _complete_pairings(self):
        """Derive each missing flip, check each given one, and store the C
        tensor of every pairing."""
        # graded symmetry <y, x> = (-1)^{|x||y|} <x, y> supplies the flip
        for (i, j), mat in list(self.pairings.items()):
            flip = {(b, a): -v if self.parity(i, j, a) and self.parity(j, i, b) else v
                    for (a, b), v in mat.items()}
            if self.pairings.setdefault((j, i), flip) != flip:
                where = ("pairing %s,%s" % (i, j) if i == j
                         else "pairings %s,%s and %s,%s" % (i, j, j, i))
                raise AInfError("%s break graded symmetry <y, x> = (-1)^{|x||y|} <x, y>"
                                % where)
        for (i, j) in self.parities:
            if (i, j) not in self.pairings:
                raise AInfError("missing pairing for %s,%s" % (i, j))
            mat, n = self.pairings[(i, j)], self.dim(i, j)
            try:
                ginv = invert([[mat.get((a, b), 0) for b in range(n)] for a in range(n)])
            except ValueError:
                raise AInfError("degenerate pairing %s,%s" % (i, j))
            self._c_tensors[(i, j)] = {(a, b): _exact(ginv[b][a]) for a in range(n)
                                       for b in range(n) if ginv[b][a]}

    def _slot_spaces(self, cycle):
        n1 = len(cycle)
        return [(cycle[r], cycle[(r + 1) % n1]) for r in range(n1)]

    def _rotation_sign(self, cycle, idx):
        """(-1)^{n + d_1 (d_2+...+d_{n+1})}: the rotated tensor at the rotated
        index is this sign times mt_n(cycle) at idx."""
        d = [self.parity(i, j, a) for (i, j), a in zip(self._slot_spaces(cycle), idx)]
        return -1 if (len(cycle) - 1 + d[0] * sum(d[1:])) % 2 else 1

    def _install(self, cycle, tensor):
        """Store a product tensor and all its rotations (cyclicity identity)."""
        if not all(isinstance(o, str) for o in cycle):
            raise AInfError("product cycle %r has an entry that is not a string" % (list(cycle),))
        if len(cycle) < 3:
            raise AInfError("product cycle %r has fewer than 3 objects" % (list(cycle),))
        slots = self._slot_spaces(cycle)
        for (i, j) in slots:
            if (i, j) not in self.parities:
                raise AInfError("tensor %s uses missing space %s,%s" % (cycle, i, j))
        cur = _sparse(tensor, [self.dim(i, j) for (i, j) in slots],
                      "tensor for cycle %s" % (cycle,))
        self._store_checked(cycle, cur)
        for _ in range(len(cycle) - 1):
            nxt = {idx[1:] + idx[:1]: self._rotation_sign(cycle, idx) * v
                   for idx, v in cur.items()}
            cycle = cycle[1:] + cycle[:1]
            self._store_checked(cycle, nxt)
            cur = nxt

    def _store_checked(self, cycle, flat):
        old = self.tensors.get(cycle)
        if old is not None and old != flat:
            raise AInfError("tensor for cycle %s conflicts with a rotation" % (cycle,))
        self.tensors[cycle] = flat

    def c_tensor(self, i, j):
        """Inverse-pairing element C in V_ij (x) V_ji: sum (G^{-1})_{ba} e_a (x) f_b."""
        return self._c_tensors[(i, j)]


def _exact(x):
    """The exact value of x (an int, a Fraction or a decimal string) as an
    int when it is integral, else as a Fraction."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _sparse(nested, dims, where):
    """{index tuple: entry} of the nonzero entries of a nested list that
    must be shaped exactly dims, with numbers at its leaves.

    Each entry is stored by _exact.  A finite float is read through its
    shortest decimal repr, so 0.1 is 1/10 and not the nearest binary double.
    """
    out = {}

    def read(v, idx):
        k = len(idx)
        if k == len(dims):
            if not (isinstance(v, (int, Fraction)) and not isinstance(v, bool)
                    or isinstance(v, float) and math.isfinite(v)):
                raise AInfError("%s: entry %s is %r, not a number" % (where, list(idx), v))
            if v:
                out[idx] = _exact(repr(v) if isinstance(v, float) else v)
        elif isinstance(v, (list, tuple)) and len(v) == dims[k]:
            for a, x in enumerate(v):
                read(x, idx + (a,))
        else:
            raise AInfError("%s is not shaped %s" % (where, "x".join(map(str, dims))))

    read(nested, ())
    return out


def _space_key(key):
    parts = key.split(",")
    if len(parts) != 2:
        raise AInfError("space key %r is not of the form 'i,j'" % key)
    return tuple(parts)


def _field(obj, key, kind, where="ainf data"):
    return json_field(obj, key, kind, where, AInfError)


def load_data(text) -> CyclicAInfData:
    data = json.loads(text)
    objects = _field(data, "objects", list)
    adjacency = []
    for p in _field(data, "adjacency", list):
        if not isinstance(p, list) or len(p) != 2:
            raise AInfError("adjacency entry %r is not a pair" % (p,))
        adjacency.append(tuple(p))
    parities = {}
    for key, entry in _field(data, "spaces", dict).items():
        parities[_space_key(key)] = _field(entry, "parities", list, "space %s" % key)
    pairings = {}
    for key, mat in _field(data, "pairings", dict).items():
        pairings[_space_key(key)] = mat
    products = []
    for n, p in enumerate(_field(data, "products", list) if "products" in data else ()):
        where = "product %d" % n
        products.append((tuple(_field(p, "cycle", list, where)),
                         _field(p, "tensor", list, where)))
    return CyclicAInfData(objects, adjacency, parities, pairings, products)


# -- axiom checks ------------------------------------------------------------------


def check_ainf(data: CyclicAInfData, n_max: int):
    """Verify the quadratic axioms for all n <= n_max.

    Each term m_p(1^k (x) m_l (x) 1^{p-1-k}) is the stored inner tensor
    (cycle cin, l + 1 slots) contracted by C from its closing slot into
    slot k of the stored outer tensor (cycle cout, p + 1 slots), keyed by
    the n = p + l - 1 inputs and the outer closing index z.  The dense
    identity at (seq, idx) is sum_z C[a, z] R(idx, z) for every output a;
    C is invertible, so it fails exactly where some R(idx, z) is nonzero.
    Returns the violations (n, seq, idx), sorted by n, the object
    positions of seq and idx; empty means pass.
    """
    if n_max < 2:
        raise AInfError("n_max = %r is below 2, the first product" % (n_max,))
    acc = {}
    index = {}   # tensor_contractions' groupings, shared by every term
    for cin, inner in data.tensors.items():
        ell = len(cin) - 1
        for cout, outer in data.tensors.items():
            p = len(cout) - 1
            n = p + ell - 1
            if n > n_max:
                continue
            blocks = [(range(p + 1), outer), (range(p + 1, p + ell + 2), inner)]
            for k in range(p):
                if (cout[k], cout[k + 1]) != (cin[0], cin[-1]):
                    continue
                seq = cout[:k + 1] + cin[1:-1] + cout[k + 1:]
                edge = ((k, p + ell + 1), data.c_tensor(cin[0], cin[-1]))
                for assign, v in tensor_contractions(blocks, [edge], index):
                    a = [assign[d] for d in range(p + ell + 1)]
                    idx = tuple(a[:k] + a[p + 1:] + a[k + 1:p])
                    d_pref = sum(data.parity(cout[r], cout[r + 1], a[r]) for r in range(k))
                    sign = (-1) ** (ell * d_pref + (k + 1) * (ell + 1))
                    key = (n, seq, idx, a[p])
                    acc[key] = acc.get(key, 0) + sign * v
    pos = {o: r for r, o in enumerate(data.objects)}
    return sorted({key[:3] for key, v in acc.items() if v},
                  key=lambda b: (b[0], [pos[o] for o in b[1]], b[2]))


def cyclicity_check(data: CyclicAInfData):
    """Verify the rotation identity on every stored tensor, at each index
    tuple where the tensor or its rotation has an entry.

    This re-verifies what loading enforces: `CyclicAInfData._install` stores
    every rotation and rejects any conflict, and the full-circle sign is +1,
    so on loaded data the list is empty unless `tensors` was edited since."""
    bad = []
    for cycle, flat in data.tensors.items():
        rot = data.tensors[cycle[1:] + cycle[:1]]
        for idx in sorted(set(flat) | {r[-1:] + r[:-1] for r in rot}):
            rhs = data._rotation_sign(cycle, idx) * flat.get(idx, 0)
            if rot.get(idx[1:] + idx[:1], 0) != rhs:
                bad.append((cycle, idx))
    return bad


# -- weights ------------------------------------------------------------------------


class WeightEngine:
    """Graded contraction of vertex tensors against edge tensors."""

    def __init__(self, data: CyclicAInfData):
        self.data = data
        self._index = {}   # tensor_contractions' groupings of data's tensors
        for (i, j) in data.parities:
            if data.pairing_parity(i, j) % 2:
                raise AInfError("weights need even pairings (standard parity pattern)")

    def _vertex_tensor(self, lg, ciliation_start):
        """(darts, slot spaces, tensor dict) for one vertex, darts from the cilium."""
        g = lg.graph
        darts = g.cycle_from(ciliation_start)
        labels = [lg.face_labels[g.face_of(d)] for d in darts]
        slots = [(labels[r], lg.face_labels[g.face_of(g.iota[darts[r]])])
                 for r in range(len(darts))]
        for r in range(len(darts)):
            if slots[r][1] != slots[(r + 1) % len(darts)][0]:
                raise AInfError("face labels are not cyclically consistent")
        if len(darts) == 2:
            tensor = self.data.pairings[slots[0]]
        else:
            tensor = self.data.tensors.get(tuple(s[0] for s in slots), {})
        return darts, slots, tensor

    def weight(self, lg: LabeledRibbonGraph, vertex_order=None, ciliations=None,
               edge_order=None, edge_flips=()):
        """W(Gamma, reference orientation) as an exact Fraction.

        tensor_contractions over the vertices in vertex_order: each vertex
        sets its darts from one entry of its tensor, read from the group
        that the C tensors join to the indices already set at the other
        ends of its edges, so a zero C entry is never visited.  The
        groupings live in this engine and serve every later weight.  The
        terms are summed in the entries' own types (ints for integral data)
        and made a Fraction once, at the end.
        The optional arguments rechoose the contraction presentation; the
        result must not depend on them (this is a tested invariant).
        """
        data = self.data
        g = lg.graph
        nv = g.num_vertices
        if vertex_order is None:
            vertex_order = list(range(nv))
        if ciliations is None:
            ciliations = [cyc[0] for cyc in g.vertices]
        if edge_order is None:
            edge_order = list(range(g.num_edges))
        flips = set(edge_flips)

        blocks = []
        slot_space = {}
        for v in vertex_order:
            darts, slots, tensor = self._vertex_tensor(lg, ciliations[v])
            if not tensor:
                return Fraction(0)
            blocks.append((darts, tensor))
            for d, sp in zip(darts, slots):
                slot_space[d] = sp
        m_slots = [d for darts, _ in blocks for d in darts]

        c_slots = []
        c_blocks = []
        for e in edge_order:
            a, b = g.edges[e]
            if e in flips:
                a, b = b, a
            i, j = slot_space[a]
            if (j, i) != slot_space[b]:
                raise AInfError("edge slots are not dual")
            c_blocks.append(((a, b), data.c_tensor(i, j)))
            c_slots.extend((a, b))

        total = 0
        for assign, v in tensor_contractions(blocks, c_blocks, self._index):
            par = {d: data.parity(*slot_space[d], assign[d]) for d in assign}
            # braid the C factors (in c_slots order) into the M slot order
            sign = relative_perm_sign([d for d in m_slots if par[d]],
                                      [d for d in c_slots if par[d]])
            # internal evaluation sign of the tensor product of functionals
            pref = 0
            for darts, tensor in blocks:
                bp = sum(par[d] for d in darts)
                tp = bp % 2
                if tp and pref % 2:
                    sign = -sign
                pref += bp
            total += sign * v
        return Fraction(total * OrientationBridge(g).ciliation_value(vertex_order, ciliations))


def build_cycle(data: CyclicAInfData, genus, faces, X, min_valence=3,
                max_edges=None, cache_dir=None):
    """The Kontsevich chain sum_Gamma W(Gamma, or)/|Aut Gamma| (Gamma, or).

    Returns (complex, chains, boundaries): chains maps each degree to the
    coefficient vector over the orientable basis, boundaries to the image
    vector one degree down (all exactly zero when the data satisfies the
    cyclic axioms; this is the desk-scale content of the cycle theorem).
    """
    from .ribbon.complexes import RibbonComplex

    eng = WeightEngine(data)
    cx = RibbonComplex(genus, faces, min_valence, G=data.G, X=tuple(X),
                       max_edges=max_edges, cache_dir=cache_dir)
    chains = {k: [eng.weight(lg) / len(lg.auts) for lg in cx.basis[k]]
              for k in sorted(cx.basis)}
    boundaries = {k: cx.apply(k, chains[k]) for k in sorted(cx.boundary)}
    return cx, chains, boundaries
