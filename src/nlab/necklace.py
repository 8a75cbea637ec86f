"""Necklaces of a double quiver, and the necklace Lie bialgebra.

A path is an edge word: a tuple of composable edges of the double quiver,
the empty word standing for the idempotent 1_v at a vertex the context
fixes.  A necklace is a closed word up to rotation, stored as its minimal
rotation under the fixed edge order; vertex idempotents are genuine
degree-0 necklaces.  Each `NecklaceAlgebra` interns its necklaces: it holds
one `Necklace` object per canonical necklace, found by any rotation seen so
far, so necklaces compare and hash by identity.  Elements of Sym L are finite
Q[h]-combinations of multisets of necklaces, sorted by `Necklace.key`.

The bracket is

    {f, g} = pr( sum_{e in Q} df/de dg/de* - df/de* dg/de )

with the cyclic derivative d(a_1...a_n)/de = sum_{a_r = e}
a_{r+1}...a_n a_1...a_{r-1}, and the cobracket

    delta(f) = (pr (x) pr)( sum_{e in Q} D_e(df/de*) - D_{e*}(df/de) )

with D_e the double derivation cutting at occurrences of e.  Both
derivatives return word slices of f; each slice that `bracket` and
`cobracket` project to L = P/[P, P] is closed, so pr is `_canonical` on a
nonempty word and the idempotent at its known vertex on an empty one.
"""

from __future__ import annotations

from operator import attrgetter

from .quiver import DoubleQuiver, QuiverError
from .rational import LinComb, QPoly


_KEY = attrgetter("_key")


class Necklace:
    """A cyclic edge word in minimal rotation, or a vertex idempotent.

    Necklaces are interned: a `NecklaceAlgebra` builds exactly one object per
    canonical necklace, so `==` and `hash` are the built-in identity ones and
    every multiset key hashes and compares in C.  Necklaces of two algebras
    are distinct even over equal quivers.  They are immutable: copying returns
    the object itself, and they are not pickled.
    """

    __slots__ = ("word", "vertex", "_key")

    def __init__(self, word, vertex, key):
        self.word = word
        self.vertex = vertex
        self._key = key

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def is_idempotent(self):
        return not self.word

    def __len__(self):
        return len(self.word)

    def key(self):
        return self._key

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        if self.word:
            return "(%s)" % " ".join(self.word)
        return "I(%s)" % self.vertex


class NecklaceAlgebra:
    """Factory and operations for necklaces and Sym L elements over one quiver."""

    def __init__(self, dq: DoubleQuiver):
        self.dq = dq
        # the interned necklaces: every rotation seen so far -> its one object
        self._necklaces = {}
        self._idempotents = {}

    # -- construction -------------------------------------------------

    def idempotent(self, v) -> Necklace:
        n = self._idempotents.get(v)
        if n is None:
            self.dq.check_vertex(v)
            n = self._idempotents[v] = Necklace((), v, (0, (), v))
        return n

    def necklace(self, word) -> Necklace:
        """Canonical necklace of a closed word (minimal rotation)."""
        if not word:
            raise QuiverError("necklace of an empty word needs idempotent()")
        dq = self.dq
        w = tuple(word)
        for i, e in enumerate(w):
            if not dq.is_edge(e):
                raise QuiverError("unknown edge %r" % (e,))
            if i and dq.head[w[i - 1]] != dq.tail[e]:
                raise QuiverError("non-composable word %r" % (w,))
        if dq.head[w[-1]] != dq.tail[w[0]]:
            raise QuiverError("word %r is not closed" % (word,))
        return self._canonical(w)

    def _canonical(self, word) -> Necklace:
        """The interned necklace of a closed word given as a tuple."""
        n = self._necklaces.get(word)
        if n is not None:
            return n
        idx = self.dq.order_index
        best = None
        for r in range(len(word)):
            rot = word[r:] + word[:r]
            k = tuple(idx[e] for e in rot)
            if best is None or k < best[0]:
                best = (k, rot)
        rot = best[1]
        n = self._necklaces.get(rot)
        if n is None:
            n = self._necklaces[rot] = Necklace(
                rot, self.dq.tail[rot[0]], (len(rot), best[0], ""))
        self._necklaces[word] = n
        return n

    def multiset(self, necklaces) -> tuple:
        return tuple(sorted(necklaces, key=_KEY))

    def element(self, terms=None) -> "SymElement":
        return SymElement(self, terms)

    def single(self, necklaces, coeff=None) -> "SymElement":
        ms = self.multiset(necklaces)
        return SymElement(self, {ms: coeff if coeff is not None else QPoly.one()})

    def unit(self) -> "SymElement":
        return self.single([])

    def tensor(self, arity, terms=None) -> "TensorElement":
        return TensorElement(self, arity, terms)

    # -- derivatives ---------------------------------------------------

    def cyclic_derivative(self, f: Necklace, e: str):
        """d f / d e as a list of words, one per occurrence of e: each runs
        from head(e) to tail(e), the empty word standing for 1_{head(e)}."""
        if not self.dq.is_edge(e):
            raise QuiverError("unknown edge %r" % e)
        w = f.word
        return [w[r + 1:] + w[:r] for r in range(len(w)) if w[r] == e]

    def double_derivation(self, word, e: str):
        """D_e(word) as a list of (left, right) words, one per occurrence of
        e; an empty left word stands for 1_{tail(e)}, an empty right one for
        1_{head(e)}."""
        if not self.dq.is_edge(e):
            raise QuiverError("unknown edge %r" % e)
        return [(word[:r], word[r + 1:]) for r in range(len(word)) if word[r] == e]

    # -- Lie bialgebra --------------------------------------------------

    def bracket(self, f: Necklace, g: Necklace) -> "SymElement":
        """Necklace bracket {f, g}, an h-degree-0 element supported on single necklaces."""
        acc = {}
        for e in self.dq.base_edges:
            es = e + "*"
            for (u, v, s) in ((e, es, 1), (es, e, -1)):
                for wf in self.cyclic_derivative(f, u):
                    for wg in self.cyclic_derivative(g, v):
                        w = wf + wg
                        key = (self._canonical(w) if w else self.idempotent(self.dq.head[u]),)
                        acc[key] = acc.get(key, 0) + s
        return SymElement(self, acc)

    def cobracket(self, f: Necklace) -> "TensorElement":
        """delta(f) in L (x) L, before antisymmetrization.

        The L wedge L class is represented as x(x)y - y(x)x; this map returns
        the plain tensor whose antisymmetry is a property, not a convention.
        """
        acc = {}
        dq = self.dq
        for e in dq.base_edges:
            es = e + "*"
            for (u, v, s) in ((e, es, 1), (es, e, -1)):
                # D_u applied to df/dv per Eq. (delta) ordering: D_e(df/de*) - D_{e*}(df/de)
                for w in self.cyclic_derivative(f, v):
                    for (a, b) in self.double_derivation(w, u):
                        key = ((self._canonical(a) if a else self.idempotent(dq.tail[u]),),
                               (self._canonical(b) if b else self.idempotent(dq.head[u]),))
                        acc[key] = acc.get(key, 0) + s
        return TensorElement(self, 2, acc)

    def symplectic_form(self, e: str, f: str) -> int:
        if not self.dq.is_edge(e) or not self.dq.is_edge(f):
            raise QuiverError("unknown edge")
        if self.dq.is_base(e) and f == e + "*":
            return 1
        if self.dq.is_base(f) and e == f + "*":
            return -1
        return 0

    # -- Leibniz extensions to Sym L -------------------------------------

    def bracket_sym(self, P: "SymElement", R: "SymElement") -> "SymElement":
        """{P, R} extended to Sym L by the Leibniz rule in both arguments."""
        if P.alg is not self or R.alg is not self:
            raise QuiverError("mismatched quivers")
        return P.bilinear(R, self._bracket_ms)

    def _bracket_ms(self, msP, msR):
        """The Leibniz terms of {msP, msR}: bracket one necklace of each,
        keep the rest."""
        for i, ni in enumerate(msP):
            rest_i = msP[:i] + msP[i + 1:]
            for j, nj in enumerate(msR):
                rest_j = msR[:j] + msR[j + 1:]
                for msB, cB in self.bracket(ni, nj).terms.items():
                    yield self.multiset(msB + rest_i + rest_j), cB

    def cobracket_sym(self, P: "SymElement") -> "TensorElement":
        """delta extended to Sym L: cut one necklace, distribute the rest.

        delta_Sym(N_1 & ... & N_m) = sum_i sum_{A + B = rest}
        (delta(N_i)_1 & A) (x) (delta(N_i)_2 & B).
        """
        return P.linear(self._cobracket_ms, out=self.tensor(2))

    def _cobracket_ms(self, ms):
        """The terms of delta_Sym(ms): cut one necklace, split the rest
        between the two factors."""
        for i, ni in enumerate(ms):
            d = self.cobracket(ni)
            if not d.terms:
                continue
            for a_part, b_part in _subsets(ms[:i] + ms[i + 1:]):
                for (msa, msb), cd in d.terms.items():
                    yield (self.multiset(msa + a_part), self.multiset(msb + b_part)), cd


def _subsets(ms):
    """All ways to split a multiset tuple into an ordered pair of tuples."""
    n = len(ms)
    for mask in range(1 << n):
        a = tuple(ms[i] for i in range(n) if mask >> i & 1)
        b = tuple(ms[i] for i in range(n) if not mask >> i & 1)
        yield (a, b)


class SymElement(LinComb):
    """A Q[h]-linear combination of multisets of necklaces (element of Sym L[h])."""

    __slots__ = ("alg",)

    def __init__(self, alg: NecklaceAlgebra, terms=None):
        self.alg = alg
        super().__init__(terms)

    def _empty(self):
        return SymElement(self.alg)

    def sym_product(self, other: "SymElement") -> "SymElement":
        """The plain symmetric product (h^0 part of the star product)."""
        return self.monoid_product(other, lambda ms1, ms2: self.alg.multiset(ms1 + ms2))

    def __repr__(self):
        from .grammar import format_element
        return format_element(self)


class TensorElement(LinComb):
    """Q[h]-combinations of pairs (or triples) of necklace multisets."""

    __slots__ = ("alg", "arity")

    def __init__(self, alg: NecklaceAlgebra, arity: int, terms=None):
        self.alg = alg
        self.arity = arity
        super().__init__(terms)

    def _empty(self):
        return TensorElement(self.alg, self.arity)

    def flip(self) -> "TensorElement":
        """Swap the two tensor factors (arity 2 only)."""
        assert self.arity == 2
        return TensorElement(self.alg, 2, {(b, a): c for (a, b), c in self.terms.items()})

    def slot(self, i) -> "SymElement":
        """Apply the counit to every factor except slot i."""
        return SymElement(self.alg, {
            key[i]: c for key, c in self.terms.items()
            if all(len(key[j]) == 0 for j in range(self.arity) if j != i)})

    def __eq__(self, other):
        return super().__eq__(other) and self.arity == other.arity

    def __repr__(self):
        from .grammar import format_tensor
        return format_tensor(self)
