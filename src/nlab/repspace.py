"""Representation-space oracles for the quantized necklace algebra.

Coordinates on Rep_l(double quiver) are (M_e)_{ij} with the row index
running over the head vertex and the column over the tail, 1-based.  For a
base edge e the reversed coordinate (M_{e*})_{ij} is quantized as

    Y_{e,ij}  :=  -h d/d(M_e)_{ji}

and D_Q is the algebra they generate, kept in normal order (all coordinate
factors left of all Y factors).  Three independent computations live here:

  * trace_rep        -- the trace of a necklace word as a commutative polynomial,
  * moyal_star_classical -- the flat Moyal product m . e^{(h/2) pi} on those
                        polynomials, with pi pairing (M_e)_{ij} with (M_{e*})_{ji},
  * weyl_symmetrize / rho / phi_w_realized -- normal-ordered operators, the
    representation of height words (factors composed with height 1 leftmost),
    and the average over all height assignments.

The only letter is ("M", e, i, j), for any edge e of the double quiver: a
reversed edge's letter is both the Weyl symbol (M_{e*})_{ij} and the operator
Y_{e,ij}, printed Y[e][i][j].  `partner` pairs the letters.  A monomial is a
sorted tuple of (letter, exponent) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .necklace import Necklace, NecklaceAlgebra, SymElement
from .quiver import QuiverError, reverse_id
from .rational import ONE, LinComb, QPoly


# -- monomial helpers -------------------------------------------------------

def partner(v):
    """(the letter paired with v, its sign).  The bivector pairs (M_e)_{ij}
    with (M_{e*})_{ji}, with sign +1 from a base edge's letter and -1 from a
    reversed edge's; Y_{e,ij} = ("M", e*, i, j) acts as -h d/d(its partner)."""
    _, e, i, j = v
    return ("M", reverse_id(e), j, i), (-1 if e.endswith("*") else 1)


def mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def mono_degree(m):
    return sum(e for _, e in m)


def mono_diff(m, var, order=1):
    """(coefficient, reduced monomial) of d^order/d var^order, or None."""
    d = dict(m)
    e = d.get(var, 0)
    if e < order:
        return None
    coeff = 1
    for t in range(order):
        coeff *= (e - t)
    if e == order:
        del d[var]
    else:
        d[var] = e - order
    return coeff, tuple(sorted(d.items()))


def _render(terms, factors):
    """`(coefficient) monomial + ...` in key order; factors(key) lists its (var, exponent)s."""
    if not terms:
        return "0"
    bits = []
    for m in sorted(terms):
        mono = "*".join("%s[%s][%d][%d]%s" % (v[0], v[1], v[2], v[3],
                                              "" if e == 1 else "^%d" % e)
                        for v, e in factors(m)) or "1"
        bits.append("(%s) %s" % (terms[m].str(), mono))
    return " + ".join(bits)


class RepPolynomial(LinComb):
    """Exact commutative polynomial in matrix coordinates, Q[h] coefficients."""

    __slots__ = ()

    @staticmethod
    def const(c):
        return RepPolynomial({(): c})

    @staticmethod
    def var(v):
        return RepPolynomial({((v, 1),): QPoly.one()})

    def __mul__(self, other):
        out = RepPolynomial()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                out._add(mono_mul(m1, m2), c1 * c2)
        return out._clean()

    def diff(self, var):
        out = RepPolynomial()
        for m, c in self.terms.items():
            r = mono_diff(m, var)
            if r:
                out._add(r[1], c.scale(r[0]))
        return out._clean()

    def __repr__(self):
        return _render(self.terms, lambda m: m)


class DiffOperator(LinComb):
    """Normal-ordered element of D_Q: coordinate monomial times Y monomial."""

    __slots__ = ()

    @staticmethod
    def const(c):
        return DiffOperator({((), ()): c})

    @staticmethod
    def generator(v):
        """The coordinate of a base edge's letter, Y of a reversed edge's."""
        if v[0] != "M":
            raise ValueError("operator letters are ('M', edge, i, j), not %r" % (v,))
        if partner(v)[1] > 0:
            return DiffOperator({(((v, 1),), ()): QPoly.one()})
        return DiffOperator({((), ((v, 1),)): QPoly.one()})

    def __mul__(self, other):
        """Algebra product: self written to the left, other applied first."""
        out = DiffOperator()
        for (c1, y1), k1 in self.terms.items():
            for (c2, y2), k2 in other.terms.items():
                base = k1 * k2
                for cm, ym, coeff, hpow in _reorder(y1, c2):
                    key = (mono_mul(c1, cm), mono_mul(ym, y2))
                    if coeff != 1 or hpow:
                        out._add(key, base * QPoly({hpow: coeff}))
                    else:
                        out._add(key, base)
        return out._clean()

    def __repr__(self):
        # Y letters print as Y[e][i][j] and sort in that form (as letters,
        # e#1* sorts before e*)
        shown = {(cm, tuple(sorted((("Y", reverse_id(v[1]), v[2], v[3]), e)
                                   for v, e in ym))): c
                 for (cm, ym), c in self.terms.items()}
        return _render(shown, lambda m: m[0] + m[1])


def _reorder(ymono, cmono):
    """Move a Y monomial left past a coordinate monomial.

    Y_{e,ij} acts as -h d/d(M_e)_{ji}, its letter's partner; the
    multi-variable Leibniz rule gives

        Y^a . m = sum_b  prod C(a_v, b_v) (-h)^{|b|} (d^b m) Y^{a-b}.

    Yields (coordinate monomial, Y monomial, integer coefficient, h power).
    """
    if not ymono or not cmono:
        yield (cmono, ymono, 1, 0)
        return
    cdict = dict(cmono)
    alpha = [(partner(v)[0], a) for v, a in ymono]
    ranges = [range(min(a, cdict.get(tv, 0)) + 1) for tv, a in alpha]
    for beta in product(*ranges):
        coeff = 1
        m = cmono
        for (tv, a), b in zip(alpha, beta):
            if b:  # tv is a distinct coordinate for each Y letter, so b <= its exponent
                r = mono_diff(m, tv, b)
                coeff *= comb(a, b) * r[0]
                m = r[1]
        total = sum(beta)
        rest = tuple((v, a - b) for (v, a), b in zip(ymono, beta) if a - b)
        yield (m, rest, -coeff if total % 2 else coeff, total)


# -- the oracles -------------------------------------------------------------

class RepSpace:
    """Oracles over one quiver at one dimension vector l: I -> Z_{>=0}."""

    def __init__(self, alg: NecklaceAlgebra, dims):
        self.alg = alg
        self.dq = alg.dq
        self.dims = dict(dims)
        for v in self.dq.vertices:
            if v not in self.dims:
                raise QuiverError("dimension vector misses vertex %r" % v)
            if self.dims[v] < 0:
                raise QuiverError("negative dimension %d at vertex %r" % (self.dims[v], v))
        self._phi_memo = {}    # sorted letters -> their ordering average
        self._trace_memo = {}  # necklace -> trace_necklace value

    # trace representation --------------------------------------------------

    def trace_necklace(self, n: Necklace) -> RepPolynomial:
        """Trace of a necklace's word, memoized; the result is shared, never
        accumulate into it."""
        hit = self._trace_memo.get(n)
        if hit is None:
            hit = self._trace_memo[n] = self._trace_word(n)
        return hit

    def _expand(self, word):
        """The letters of a closed word, one list per index tuple: word[r]
        gives ("M", word[r], idx[r+1], idx[r]).  Each distinct letter is one
        shared tuple; the empty word gives one empty list."""
        m = len(word)
        shared = {}
        for idx in product(*[range(1, self.dims[self.dq.tail[e]] + 1) for e in word]):
            letters = []
            for r, e in enumerate(word):
                v = ("M", e, idx[(r + 1) % m], idx[r])
                letters.append(shared.setdefault(v, v))
            yield letters

    def _trace_word(self, n: Necklace) -> RepPolynomial:
        if n.is_idempotent():
            return RepPolynomial.const(self.dims[n.vertex])
        out = RepPolynomial()
        shared = {}  # one object per distinct (letter, exponent)
        for letters in self._expand(n.word):
            mono = {}
            for v in letters:
                mono[v] = mono.get(v, 0) + 1
            out._add(tuple(sorted(shared.setdefault(p, p) for p in mono.items())), ONE)
        return out._clean()

    def trace_rep(self, P: SymElement) -> RepPolynomial:
        out = RepPolynomial()
        for ms, c in P.terms.items():
            poly = None
            for n in ms:
                t = self.trace_necklace(n)
                poly = t if poly is None else poly * t
            out._add_all(poly if poly is not None else RepPolynomial.const(1), c)
        return out._clean()

    # classical Moyal product ------------------------------------------------

    @staticmethod
    def _pi(pair_terms):
        """Apply the bivector to an element of k[Rep] (x) k[Rep]."""
        out = {}
        for (m1, m2), c in pair_terms.items():
            d2 = dict(m2)
            for u, a in m1:
                w, s = partner(u)
                b = d2.get(w)
                if b is None:
                    continue
                key = (mono_diff(m1, u)[1], mono_diff(m2, w)[1])
                add = c.scale(s * a * b)
                cur = out.get(key)
                out[key] = add if cur is None else cur + add
        return {k: v for k, v in out.items() if not v.is_zero()}

    def moyal_star_classical(self, f: RepPolynomial, g: RepPolynomial) -> RepPolynomial:
        cur = {(m1, m2): c1 * c2 for m1, c1 in f.terms.items() for m2, c2 in g.terms.items()}
        out = RepPolynomial()
        d = 0
        while cur:
            scalar = QPoly({d: Fraction(1, 2 ** d * factorial(d))})
            for (m1, m2), c in cur.items():
                out._add(mono_mul(m1, m2), c * scalar)
            cur = self._pi(cur)
            d += 1
        return out._clean()

    # Weyl symmetrization ------------------------------------------------------

    def _average(self, letters):
        """Average of the compositions of a sorted letter list over all orderings.

        Recursion on the letter multiset: orderings ending with letter t
        contribute Av(rest) * t with weight mult(t)/n.
        """
        key = tuple(letters)
        hit = self._phi_memo.get(key)
        if hit is not None:
            return hit
        if not letters:
            res = DiffOperator.const(1)
        else:
            n = len(letters)
            res = DiffOperator()
            for t in dict.fromkeys(letters):
                rest = list(letters)
                rest.remove(t)
                res._add_all(self._average(rest) * DiffOperator.generator(t),
                             QPoly.const(Fraction(letters.count(t), n)))
            res._clean()
        self._phi_memo[key] = res
        return res

    def weyl_symmetrize(self, f: RepPolynomial) -> DiffOperator:
        out = DiffOperator()
        for m, c in f.terms.items():
            out._add_all(self._average([v for v, e in m for _ in range(e)]), c)
        return out._clean()

    def weyl_unsymmetrize(self, D: DiffOperator) -> RepPolynomial:
        """Inverse of weyl_symmetrize; degree-descending elimination."""
        f = RepPolynomial()
        rem = D
        guard = 0
        while not rem.is_zero():
            guard += 1
            if guard > 10000:
                raise RuntimeError("weyl_unsymmetrize failed to terminate")
            deg = max(mono_degree(cm) + mono_degree(ym) for (cm, ym) in rem.terms)
            top = RepPolynomial()
            for (cm, ym), c in rem.terms.items():
                if mono_degree(cm) + mono_degree(ym) == deg:
                    top._add(mono_mul(cm, ym), c)
            top._clean()
            f._add_all(top)
            rem = rem - self.weyl_symmetrize(top)
        return f._clean()

    # height words ---------------------------------------------------------------

    def rho(self, ms, heights) -> DiffOperator:
        """Representation of a height word.

        ms: a necklace multiset; heights: bijection {(i, j): 1..N} over its
        abstract edges.  Factors compose in increasing height order, height 1
        leftmost (the convention pinned by the Hopf-homomorphism calibration).
        """
        positions = [(i, j) for i, n in enumerate(ms) for j in range(len(n.word))]
        if sorted(heights.values()) != list(range(1, len(positions) + 1)):
            raise QuiverError("heights must be a bijection onto 1..N")
        scalar, expansions = self._height_letters(ms)
        out = DiffOperator()
        for letters in expansions:
            term = DiffOperator.const(1)
            for _, v in sorted(letters, key=lambda t: heights[t[0]]):
                term = term * DiffOperator.generator(v)
            out._add_all(term)
        return out.scale(scalar)

    def _height_letters(self, ms):
        """The product of ms's idempotent dimensions, and one list of
        ((necklace, position), letter) pairs per joint index tuple of its words."""
        scalar = 1
        per = []
        for i, n in enumerate(ms):
            if n.is_idempotent():
                scalar *= self.dims[n.vertex]
            per.append([[((i, r), v) for r, v in enumerate(letters)]
                        for letters in self._expand(n.word)])
        return scalar, ([x for part in combo for x in part] for combo in product(*per))

    def phi_w_realized(self, P) -> DiffOperator:
        """(1/N!) sum over height assignments of rho, per multiset term.

        Computed by expanding index tuples and averaging each concrete letter
        multiset over orderings (exactly the N! sum, grouped and memoized).
        """
        if isinstance(P, SymElement):
            out = DiffOperator()
            for ms, c in P.terms.items():
                out._add_all(self._phi_ms(ms), c)
            return out._clean()
        return self._phi_ms(P)

    def _phi_ms(self, ms) -> DiffOperator:
        scalar, expansions = self._height_letters(ms)
        out = DiffOperator()
        for letters in expansions:
            out._add_all(self._average(sorted(v for _, v in letters)))
        return out.scale(scalar)
