"""The quantized Hopf structure on Sym L[h].

Both the star product and the coproduct are driven by one cut-and-glue
engine over one tuple of necklaces.  An abstract edge is a position (i, j)
in that tuple: necklace index i, letter index j.  A cut specification pairs
abstract edges with reverse-labeled partners; gluing deletes the cut edges
and reads off the orbits of the next-edge map

    f(z) = succ(z)          if z is not cut,
    f(z) = succ(pair(z))    if z is cut,

where succ is the cyclic successor inside a necklace word.  Every f-cycle
containing an uncut edge yields one necklace; an f-cycle consisting
entirely of cut edges yields one vertex idempotent at the common tail
vertex of its members.  The star product glues the tuple msP + msR, the
indices of R's necklaces shifted by len(msP); the coproduct glues one
multiset along pairs inside it.

    P *_h R   = sum over (I_X, I_Y, phi) of (h/2)^{#I_X} s(I_X, I_Y, phi)
                times the glued multiset, with s = (-1)^{#(I_Y cut at base edges)}.
    Delta_h P = sum over self-pairings (I, phi) of (h/2)^{#I/2} times the sum
                over component assignments c with the comparison sign of the
                start/target components of each cut base edge.

Each coefficient is stored per (h/2)^k (see `QPoly`), so every structure
constant is the int +-1 before terms are summed.

The antipode is diagonal: (-1)^m on a multiset of m necklaces.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from .necklace import NecklaceAlgebra, SymElement, TensorElement
from .quiver import QuiverError
from .rational import QPoly, accumulate


def _occurrences(ms, offset=0):
    """Each label's abstract edges (i + offset, j) in ms, in reading order."""
    out = {}
    for i, n in enumerate(ms, offset):
        for j, e in enumerate(n.word):
            out.setdefault(e, []).append((i, j))
    return out


def _fiber_pairings(xs, ys):
    """All ways to pick equal-size subsets of xs, ys with a bijection."""
    out = [()]
    for k in range(1, min(len(xs), len(ys)) + 1):
        for sub_x in combinations(xs, k):
            for sub_y in combinations(ys, k):
                for perm in permutations(sub_y):
                    out.append(tuple(zip(sub_x, perm)))
    return out


def _cuts(fibers):
    """Every cut specification: one partial bijection per (xs, ys) fiber."""
    per_fiber = [_fiber_pairings(xs, ys) for xs, ys in fibers if xs and ys]
    for combo in product(*per_fiber):
        yield [pq for group in combo for pq in group]


class MoyalHopf:
    """Star product, coproduct, counit and antipode on Sym L[h]."""

    def __init__(self, alg: NecklaceAlgebra):
        self.alg = alg
        self._star_cache = {}
        self._coproduct_cache = {}

    # -- gluing ---------------------------------------------------------

    def cut_and_glue(self, ms, cut_pairs):
        """Cut-and-glue a tuple of necklaces along paired abstract edges.

        cut_pairs: list of ((i, j), (i', j')) with reverse labels, each
        position in at most one pair.  Returns (pieces, orbit_of) where
        pieces is a list of Necklace and orbit_of maps every position to its
        piece index.  The idempotents of ms are appended after the glued
        pieces.
        """
        alg = self.alg
        dq = alg.dq
        pair = {}
        for a, b in cut_pairs:
            if a in pair or b in pair or a == b:
                raise QuiverError("overlapping cut indices")
            if dq.reverse(ms[a[0]].word[a[1]]) != ms[b[0]].word[b[1]]:
                raise QuiverError("cut pair is not reverse-labeled")
            pair[a] = b
            pair[b] = a

        orbit_of = {}
        pieces = []
        for i, n in enumerate(ms):
            for j in range(len(n.word)):
                start = cur = (i, j)
                if start in orbit_of:
                    continue
                idx = len(pieces)
                word = []
                while True:
                    orbit_of[cur] = idx
                    if cur in pair:
                        ci, cj = pair[cur]
                    else:
                        ci, cj = cur
                        word.append(ms[ci].word[cj])
                    cur = (ci, (cj + 1) % len(ms[ci].word))
                    if cur == start:
                        break
                if word:
                    pieces.append(alg._canonical(tuple(word)))
                else:
                    pieces.append(alg.idempotent(dq.tail[n.word[j]]))
        pieces.extend(n for n in ms if n.is_idempotent())
        return pieces, orbit_of

    # -- star product -----------------------------------------------------

    def star_ms(self, msP, msR):
        """Star product of two necklace multisets: dict {multiset: QPoly}."""
        key = (msP, msR)
        hit = self._star_cache.get(key)
        if hit is None:
            hit = self._star_cache[key] = accumulate(self._star_terms(msP, msR))
        return hit

    def _star_terms(self, msP, msR):
        """One (glued multiset, +-(h/2)^k) pair per cut specification."""
        alg = self.alg
        dq = alg.dq
        ms = msP + msR
        xs = _occurrences(msP)
        ys = _occurrences(msR, len(msP))
        for pairs in _cuts((xs.get(e), ys.get(dq.reverse(e))) for e in dq.edge_order):
            sign = (-1) ** sum(not dq.is_base(ms[i].word[j]) for (i, j), _y in pairs)
            pieces, _ = self.cut_and_glue(ms, pairs)
            yield alg.multiset(pieces), QPoly.halves({len(pairs): sign})

    def star(self, P: SymElement, R: SymElement) -> SymElement:
        if P.alg is not self.alg or R.alg is not self.alg:
            raise QuiverError("mismatched quivers")
        return P.bilinear(R, lambda msP, msR: self.star_ms(msP, msR).items())

    # -- coproduct ----------------------------------------------------------

    def coproduct_ms(self, ms, slots=2):
        """Delta_h of one multiset: dict {(ms_1,..,ms_slots): QPoly}."""
        key = (ms, slots)
        hit = self._coproduct_cache.get(key)
        if hit is None:
            hit = self._coproduct_cache[key] = accumulate(self._coproduct_terms(ms, slots))
        return hit

    def _coproduct_terms(self, ms, slots):
        """One (slots-tuple of multisets, +-(h/2)^k) pair per self-pairing
        and component assignment with a nonzero sign."""
        alg = self.alg
        dq = alg.dq
        occ = _occurrences(ms)
        for pairs in _cuts((occ.get(e), occ.get(dq.reverse(e))) for e in dq.base_edges):
            k = len(pairs)
            pieces, orbit_of = self.cut_and_glue(ms, pairs)
            m = len(pieces)
            starts = [orbit_of[x] for x, _y in pairs]
            targets = [orbit_of[i, (j + 1) % len(ms[i].word)] for (i, j), _y in pairs]
            for c in product(range(slots), repeat=m):
                sign = 1
                for a, b in zip(starts, targets):
                    if c[a] == c[b]:
                        sign = 0
                        break
                    if c[a] > c[b]:
                        sign = -sign
                if not sign:
                    continue
                placed = [[] for _ in range(slots)]
                for idx, piece in enumerate(pieces):
                    placed[c[idx]].append(piece)
                yield tuple(alg.multiset(p) for p in placed), QPoly.halves({k: sign})

    def coproduct(self, P: SymElement, slots=2) -> TensorElement:
        return P.linear(lambda ms: self.coproduct_ms(ms, slots).items(),
                        out=self.alg.tensor(slots))

    def counit(self, P: SymElement) -> QPoly:
        """The algebra map killing every necklace; coefficient of the unit."""
        return P.terms.get((), QPoly.zero())

    def antipode(self, P: SymElement) -> SymElement:
        return self.alg.element({ms: -c if len(ms) % 2 else c for ms, c in P.terms.items()})

    # -- composites used by the axiom suites --------------------------------

    def coproduct_slot(self, T: TensorElement, which: int) -> TensorElement:
        """Apply Delta_h to one slot of a 2-tensor, yielding a 3-tensor."""
        def split(key):
            a, b = key
            for (u, w), ck in self.coproduct_ms(key[which]).items():
                yield ((u, w, b) if which == 0 else (a, u, w)), ck

        return T.linear(split, out=self.alg.tensor(3))

    def coassoc_probe(self, P: SymElement):
        """Return ((Delta x 1)Delta, (1 x Delta)Delta, single-pass 3-component)."""
        d = self.coproduct(P)
        lhs = self.coproduct_slot(d, 0)
        rhs = self.coproduct_slot(d, 1)
        single = self.coproduct(P, slots=3)
        return lhs, rhs, single

    def star_tensor(self, T1: TensorElement, T2: TensorElement) -> TensorElement:
        """Componentwise star product on 2-tensors."""
        def glue(key1, key2):
            left = self.star_ms(key1[0], key2[0])
            right = self.star_ms(key1[1], key2[1])
            for msl, cl in left.items():
                for msr, cr in right.items():
                    yield (msl, msr), cl * cr

        return T1.bilinear(T2, glue)

    def mul_tensor(self, T: TensorElement) -> SymElement:
        """Multiply the two slots of a 2-tensor with the star product."""
        return T.linear(lambda key: self.star_ms(*key).items(), out=self.alg.element())

    def antipode_slot(self, T: TensorElement, which: int) -> TensorElement:
        return self.alg.tensor(2, {key: -c if len(key[which]) % 2 else c
                                   for key, c in T.terms.items()})
