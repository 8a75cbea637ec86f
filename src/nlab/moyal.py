"""The quantized Hopf structure on Sym L[h].

Both the star product and the coproduct are driven by one cut-and-glue
engine over one tuple of necklaces, laid out flat: its abstract edges are
numbered x = 0, 1, .. in reading order (necklace by necklace, letter by
letter), letters[x] is the label of x and succ[x] its cyclic successor
inside its necklace word.  A cut specification pairs abstract edges with
reverse-labeled partners; mate is its involution, an uncut edge being its
own mate.  Gluing deletes the cut edges and reads off the orbits of the
next-edge map

    f(z) = succ[mate[z]],

kept in one flat orbit list.  Every f-cycle containing an uncut edge yields
one necklace; an f-cycle consisting entirely of cut edges yields one vertex
idempotent at the common tail vertex of its members.  The star product
glues the tuple msP + msR, R's edges numbered after P's; the coproduct glues
one multiset along pairs inside it.

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


def _layout(ms):
    """The flat layout of a necklace tuple: letters[x] for the abstract edges
    x = 0, 1, .. in reading order, and succ[x], x's cyclic successor inside
    its necklace."""
    letters = []
    succ = []
    for n in ms:
        first = len(letters)
        letters += n.word
        if n.word:
            succ += range(first + 1, len(letters))
            succ.append(first)
    return letters, succ


def _occurrences(letters, lo, hi):
    """Each label's abstract edges x in lo..hi-1, in reading order."""
    out = {}
    for x in range(lo, hi):
        out.setdefault(letters[x], []).append(x)
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

    def _glue(self, ms, letters, succ, pairs):
        """Cut-and-glue ms, laid out flat as (letters, succ), along the pairs
        (x, y) of abstract edges.

        mate is the involution of the cut (an uncut edge is its own mate), so
        the next-edge map is f(z) = succ[mate[z]].  Returns (pieces, orbit):
        orbit[x] is the index in pieces of the piece through x, and the
        idempotents of ms follow the glued pieces.
        """
        alg = self.alg
        mate = list(range(len(letters)))
        for x, y in pairs:
            mate[x] = y
            mate[y] = x
        orbit = [-1] * len(letters)
        pieces = []
        for start in range(len(letters)):
            if orbit[start] >= 0:
                continue
            idx = len(pieces)
            word = []
            z = start
            while True:
                orbit[z] = idx
                m = mate[z]
                if m == z:
                    word.append(letters[z])
                z = succ[m]
                if z == start:
                    break
            if word:
                pieces.append(alg._canonical(tuple(word)))
            else:
                pieces.append(alg.idempotent(alg.dq.tail[letters[start]]))
        pieces.extend(n for n in ms if n.is_idempotent())
        return pieces, orbit

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
        letters, succ = _layout(ms)
        split = sum(len(n.word) for n in msP)
        xs = _occurrences(letters, 0, split)
        ys = _occurrences(letters, split, len(letters))
        for pairs in _cuts((xs.get(e), ys.get(dq.reverse(e))) for e in dq.edge_order):
            sign = (-1) ** sum(not dq.is_base(letters[x]) for x, _y in pairs)
            pieces, _ = self._glue(ms, letters, succ, pairs)
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
        letters, succ = _layout(ms)
        occ = _occurrences(letters, 0, len(letters))
        for pairs in _cuts((occ.get(e), occ.get(dq.reverse(e))) for e in dq.base_edges):
            pieces, orbit = self._glue(ms, letters, succ, pairs)
            # (start, target) pieces of each cut base edge; a cut inside one
            # piece makes every assignment's sign 0
            cuts = [(orbit[x], orbit[succ[x]]) for x, _y in pairs]
            if any(a == b for a, b in cuts):
                continue
            k = len(pairs)
            signed = {1: QPoly.halves({k: 1}), -1: QPoly.halves({k: -1})}
            # pieces in multiset order, so each slot's list comes out sorted
            order = sorted(range(len(pieces)), key=lambda i: pieces[i].key())
            for c in product(range(slots), repeat=len(pieces)):
                sign = 1
                for a, b in cuts:
                    if c[a] == c[b]:
                        sign = 0
                        break
                    if c[a] > c[b]:
                        sign = -sign
                if not sign:
                    continue
                placed = [[] for _ in range(slots)]
                for i in order:
                    placed[c[i]].append(pieces[i])
                yield tuple(map(tuple, placed)), signed[sign]

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
