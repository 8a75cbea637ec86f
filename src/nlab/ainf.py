"""Cyclic A-infinity data over an adjacency graph, weights, and cycles.

The data assigns to each adjacent ordered pair (i, j) a Z/2-graded space
V_ij given by a list of basis parities, a nondegenerate pairing
V_ij x V_ji -> k, and product tensors

    mt_n : V_{i_1 i_2} (x) ... (x) V_{i_{n+1} i_1} -> k

keyed by the index cycle (i_1, ..., i_{n+1}).  The axioms checked are

    sum_{k,l} (-1)^{l(d_1+...+d_k) + (k+1)(l+1)}
        m_{n-l+1}(1^k (x) m_l (x) 1^{n-l-k}) = 0,

    mt_n(v_2 (x) ... (x) v_{n+1} (x) v_1)
        = (-1)^{n + d_1 (d_2+...+d_{n+1})} mt_n(v_1 (x) ... (x) v_{n+1}).

The weight of an oriented labeled ribbon graph contracts one tensor per
vertex (the pairing at bivalent vertices, mt_{valence-1} otherwise)
against one inverse-pairing tensor C per edge, with explicit braiding
signs; the sign is normalized against the graph's reference orientation
through the ciliation/vertex-order description (module
ribbon.orientation).  Weight normalization requires the standard parity
pattern (even pairings, mt_n of parity n mod 2); the axiom checks are
fully general.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product

from .linalg import invert
from .quiver import AdjacencyGraph, json_field
from .ribbon.census import LabeledRibbonGraph
from .ribbon.orientation import OrientationBridge


class AInfError(ValueError):
    pass


class CyclicAInfData:
    """Hom spaces, pairings and cyclic product tensors over a graph G."""

    def __init__(self, objects, adjacency_pairs, parities, pairings, products):
        self.objects = tuple(objects)
        self.G = AdjacencyGraph(objects, adjacency_pairs)
        self.parities = {}
        for (i, j), ps in parities.items():
            if not self.G.adjacent(i, j):
                raise AInfError("hom space %s,%s between non-adjacent objects" % (i, j))
            self.parities[(i, j)] = tuple(int(p) % 2 for p in ps)
        for (i, j) in list(self.parities):
            if (j, i) not in self.parities:
                raise AInfError("missing dual space %s,%s" % (j, i))
            if len(self.parities[(i, j)]) != len(self.parities[(j, i)]):
                raise AInfError("dual spaces %s,%s have different dims" % (i, j))
        self.pairings = {}
        for (i, j), mat in pairings.items():
            self.pairings[(i, j)] = [[Fraction(x) for x in row] for row in mat]
        self._complete_pairings()
        self.tensors = {}
        for cycle, tensor in products:
            self._install(tuple(cycle), tensor)
        self._inverse_cache = {}

    # -- construction helpers --------------------------------------------------

    def dim(self, i, j):
        return len(self.parities.get((i, j), ()))

    def parity(self, i, j, a):
        return self.parities[(i, j)][a]

    def pairing_parity(self, i, j):
        """Parity of the pairing V_ij x V_ji; must be homogeneous."""
        ps = set()
        mat = self.pairings[(i, j)]
        for a, row in enumerate(mat):
            for b, v in enumerate(row):
                if v:
                    ps.add((self.parity(i, j, a) + self.parity(j, i, b)) % 2)
        if len(ps) > 1:
            raise AInfError("inhomogeneous pairing %s,%s" % (i, j))
        return ps.pop() if ps else 0

    def _complete_pairings(self):
        # graded symmetry <y, x> = (-1)^{|x||y|} <x, y> supplies the flip
        for (i, j) in list(self.pairings):
            if (j, i) in self.pairings:
                continue
            mat = self.pairings[(i, j)]
            flip = [[Fraction(0)] * self.dim(i, j) for _ in range(self.dim(j, i))]
            for a in range(self.dim(i, j)):
                for b in range(self.dim(j, i)):
                    s = (-1) ** (self.parity(i, j, a) * self.parity(j, i, b))
                    flip[b][a] = s * mat[a][b]
            self.pairings[(j, i)] = flip
        for (i, j) in self.parities:
            if (i, j) not in self.pairings:
                raise AInfError("missing pairing for %s,%s" % (i, j))
            mat = self.pairings[(i, j)]
            try:
                invert(mat)
            except ValueError:
                raise AInfError("degenerate pairing %s,%s" % (i, j))

    def _slot_spaces(self, cycle):
        n1 = len(cycle)
        return [(cycle[r], cycle[(r + 1) % n1]) for r in range(n1)]

    def _install(self, cycle, tensor):
        """Store a product tensor and all its rotations (cyclicity identity)."""
        slots = self._slot_spaces(cycle)
        for (i, j) in slots:
            if (i, j) not in self.parities:
                raise AInfError("tensor %s uses missing space %s,%s" % (cycle, i, j))
        dims = [self.dim(i, j) for (i, j) in slots]
        flat = {}
        for idx in product(*(range(d) for d in dims)):
            v = tensor
            for a in idx:
                v = v[a]
            v = Fraction(v)
            if v:
                flat[idx] = v
        self._store_checked(cycle, flat)
        n = len(cycle) - 1
        cur_cycle, cur = cycle, flat
        for _ in range(n):
            nxt_cycle = cur_cycle[1:] + cur_cycle[:1]
            nxt = {}
            for idx, v in cur.items():
                d1 = self.parity(cur_cycle[0], cur_cycle[1 % len(cur_cycle)], idx[0])
                rest = sum(self.parity(*self._slot_spaces(cur_cycle)[r], idx[r])
                           for r in range(1, len(idx)))
                sign = (-1) ** (n + d1 * rest)
                nxt[idx[1:] + idx[:1]] = sign * v
            self._store_checked(nxt_cycle, nxt)
            cur_cycle, cur = nxt_cycle, nxt

    def _store_checked(self, cycle, flat):
        old = self.tensors.get(cycle)
        if old is not None and old != flat:
            raise AInfError("tensor for cycle %s conflicts with a rotation" % (cycle,))
        self.tensors[cycle] = flat

    def c_tensor(self, i, j):
        """Inverse-pairing element C in V_ij (x) V_ji: sum (G^{-1})_{ba} e_a (x) f_b."""
        hit = self._inverse_cache.get((i, j))
        if hit is None:
            ginv = invert(self.pairings[(i, j)])
            hit = {}
            for a in range(self.dim(i, j)):
                for b in range(self.dim(j, i)):
                    v = ginv[b][a]
                    if v:
                        hit[(a, b)] = v
            self._inverse_cache[(i, j)] = hit
        return hit

    # -- products reconstructed from the cyclic tensors -----------------------------

    def m_apply(self, seq, idx):
        """m_n on basis elements: seq = (i_1..i_{n+1}) object path, idx basis picks.

        Returns a dict {output basis index: coefficient} in V_{i_1, i_{n+1}}.
        """
        i1, iL = seq[0], seq[-1]
        if (i1, iL) not in self.parities:
            return {}
        # the stored tensor for (i_1..i_{n+1}) has a closing slot V_{i_{n+1} i_1}
        mt = self.tensors.get(tuple(seq))
        if mt is None:
            return {}
        idx = tuple(idx)
        out = {}
        for (a, b), g in self.c_tensor(i1, iL).items():
            v = mt.get(idx + (b,))
            if v:
                out[a] = out.get(a, Fraction(0)) + v * g
        return {a: v for a, v in out.items() if v}


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
        if not isinstance(mat, list) or not all(isinstance(row, list) for row in mat):
            raise AInfError("pairing %s is not a matrix" % key)
        pairings[_space_key(key)] = mat
    products = []
    for n, p in enumerate(_field(data, "products", list) if "products" in data else ()):
        where = "product %d" % n
        products.append((tuple(_field(p, "cycle", list, where)),
                         _field(p, "tensor", list, where)))
    return CyclicAInfData(objects, adjacency, parities, pairings, products)


# -- axiom checks ------------------------------------------------------------------


def _object_paths(data, length):
    """All (i_1..i_length) with consecutive spaces present."""
    paths = [[o] for o in data.objects]
    for _ in range(length - 1):
        nxt = []
        for p in paths:
            for o in data.objects:
                if (p[-1], o) in data.parities:
                    nxt.append(p + [o])
        paths = nxt
    return [tuple(p) for p in paths]


def check_ainf(data: CyclicAInfData, n_max: int):
    """Verify the quadratic axioms for all n <= n_max on every basis tuple.

    Returns a list of violations (n, seq, idx); empty means pass.
    """
    bad = []
    for n in range(2, n_max + 1):
        for seq in _object_paths(data, n + 1):
            dims = [data.dim(seq[r], seq[r + 1]) for r in range(n)]
            if any(d == 0 for d in dims):
                continue
            for idx in product(*(range(d) for d in dims)):
                acc = {}
                for ell in range(2, n + 1):
                    for k in range(0, n - ell + 1):
                        inner_seq = seq[k:k + ell + 1]
                        inner = data.m_apply(inner_seq, idx[k:k + ell])
                        if not inner:
                            continue
                        d_pref = sum(data.parity(seq[r], seq[r + 1], idx[r])
                                     for r in range(k))
                        sign = (-1) ** (ell * d_pref + (k + 1) * (ell + 1))
                        outer_seq = seq[:k + 1] + (seq[k + ell],) + seq[k + ell + 1:]
                        for b, cb in inner.items():
                            outer_idx = idx[:k] + (b,) + idx[k + ell:]
                            for a, ca in data.m_apply(outer_seq, outer_idx).items():
                                key = a
                                acc[key] = acc.get(key, Fraction(0)) + sign * cb * ca
                if any(v for v in acc.values()):
                    bad.append((n, seq, idx))
    return bad


def cyclicity_check(data: CyclicAInfData):
    """Verify the rotation identity on every stored tensor and basis tuple."""
    bad = []
    for cycle, flat in data.tensors.items():
        slots = data._slot_spaces(cycle)
        n = len(cycle) - 1
        dims = [data.dim(i, j) for (i, j) in slots]
        rot_cycle = cycle[1:] + cycle[:1]
        rot = data.tensors.get(rot_cycle, {})
        for idx in product(*(range(d) for d in dims)):
            lhs = rot.get(idx[1:] + idx[:1], Fraction(0))
            d1 = data.parity(*slots[0], idx[0])
            rest = sum(data.parity(*slots[r], idx[r]) for r in range(1, len(idx)))
            rhs = (-1) ** (n + d1 * rest) * flat.get(idx, Fraction(0))
            if lhs != rhs:
                bad.append((cycle, idx))
    return bad


# -- weights ------------------------------------------------------------------------


class WeightEngine:
    """Graded contraction of vertex tensors against edge tensors."""

    def __init__(self, data: CyclicAInfData):
        self.data = data
        for (i, j) in data.parities:
            if data.pairing_parity(i, j) % 2:
                raise AInfError("weights need even pairings (standard parity pattern)")
        self._bridges = {}

    def _bridge(self, lg: LabeledRibbonGraph) -> OrientationBridge:
        br = self._bridges.get(lg.code)
        if br is None:
            br = OrientationBridge(lg.graph)
            self._bridges[lg.code] = br
        return br

    def _vertex_tensor(self, lg, cyc, ciliation_start):
        """(slot spaces, tensor dict) for one vertex, darts from the cilium."""
        g = lg.graph
        darts = []
        d = ciliation_start
        for _ in range(len(cyc)):
            darts.append(d)
            d = g.gamma[d]
        labels = [lg.face_labels[g.face_of(d)] for d in darts]
        slots = [(labels[r], lg.face_labels[g.face_of(g.iota[darts[r]])])
                 for r in range(len(darts))]
        for r in range(len(darts)):
            if slots[r][1] != slots[(r + 1) % len(darts)][0]:
                raise AInfError("face labels are not cyclically consistent")
        if len(darts) == 2:
            i, j = slots[0]
            mat = self.data.pairings[(i, j)]
            tensor = {}
            for a, row in enumerate(mat):
                for b, v in enumerate(row):
                    if v:
                        tensor[(a, b)] = v
        else:
            cycle = tuple(s[0] for s in slots)
            tensor = self.data.tensors.get(cycle, {})
        return darts, slots, tensor

    def weight(self, lg: LabeledRibbonGraph, vertex_order=None, ciliations=None,
               edge_order=None, edge_flips=()):
        """W(Gamma, reference orientation) as an exact Fraction.

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
            darts, slots, tensor = self._vertex_tensor(lg, g.vertices[v], ciliations[v])
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

        pos_in_m = {d: k for k, d in enumerate(m_slots)}
        target = [pos_in_m[d] for d in c_slots]

        total = Fraction(0)
        for assign, coeff in self._assignments(c_blocks):
            par = {d: data.parity(*slot_space[d], assign[d]) for d in assign}
            v = coeff
            for darts, tensor in blocks:
                tv = tensor.get(tuple(assign[d] for d in darts))
                if not tv:
                    v = Fraction(0)
                    break
                v *= tv
            if not v:
                continue
            sign = 1
            # braid the C factors (in c_slots order) into the M slot order
            ps = [par[d] for d in c_slots]
            for uu in range(len(target)):
                for vv in range(uu + 1, len(target)):
                    if target[uu] > target[vv] and ps[uu] and ps[vv]:
                        sign = -sign
            # internal evaluation sign of the tensor product of functionals
            pref = 0
            for darts, tensor in blocks:
                bp = sum(par[d] for d in darts)
                tp = bp % 2
                if tp and pref % 2:
                    sign = -sign
                pref += bp
            total += sign * v
        br = self._bridge(lg)
        return total * br.ciliation_value(vertex_order, dict(enumerate(ciliations))
                                   if not isinstance(ciliations, dict) else ciliations)

    def _assignments(self, c_blocks):
        """All basis assignments with their C coefficients."""
        choices = [list(ct.items()) for _, ct in c_blocks]
        for combo in product(*choices):
            assign = {}
            coeff = Fraction(1)
            for ((a, b), _), ((ia, ib), cv) in zip(c_blocks, combo):
                assign[a] = ia
                assign[b] = ib
                coeff *= cv
            yield assign, coeff


_worker_engine = None


def _start_worker(data):
    global _worker_engine
    _worker_engine = WeightEngine(data)


def _weight_task(lg):
    return _worker_engine.weight(lg) / len(lg.auts)


def build_cycle(data: CyclicAInfData, genus, faces, X, min_valence=3,
                max_edges=None, cache_dir=None, jobs=1):
    """The Kontsevich chain sum_Gamma W(Gamma, or)/|Aut Gamma| (Gamma, or).

    Returns (complex, chains, boundaries): chains maps each degree to the
    coefficient vector over the orientable basis, boundaries to the image
    vector one degree down (all exactly zero when the data satisfies the
    cyclic axioms; this is the desk-scale content of the cycle theorem).
    Weight computations for distinct graphs are independent; jobs > 1
    spreads them over a process pool whose workers each receive the data
    once, with a deterministic ordered merge.
    """
    from .ribbon.complexes import RibbonComplex

    # data the engine rejects must fail here: a pool restarts a worker whose
    # initializer raises, forever
    eng = WeightEngine(data)
    cx = RibbonComplex(genus, faces, min_valence, G=data.G, X=tuple(X),
                       max_edges=max_edges, cache_dir=cache_dir)
    classes = [lg for k in sorted(cx.basis) for lg in cx.basis[k]]
    if jobs > 1:
        import multiprocessing
        with multiprocessing.Pool(jobs, _start_worker, (data,)) as pool:
            weights = pool.map(_weight_task, classes)
    else:
        weights = [eng.weight(lg) / len(lg.auts) for lg in classes]
    it = iter(weights)
    chains = {k: [next(it) for _ in cx.basis[k]] for k in sorted(cx.basis)}
    boundaries = {}
    for k in sorted(cx.matrices):
        mat, vec = cx.matrices[k], chains.get(k, [])
        if not mat or not vec:
            boundaries[k] = [Fraction(0)] * len(cx.basis.get(k - 1, ()))
            continue
        boundaries[k] = [sum(mat[i][j] * vec[j] for j in range(len(vec)))
                         for i in range(len(mat))]
    return cx, chains, boundaries
