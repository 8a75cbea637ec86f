"""Representation-space oracles for the quantized necklace algebra.

Coordinates on Rep_l(double quiver) are (M_e)_{ij} with the row index
running over the head vertex and the column over the tail, 1-based.  For a
base edge e the reversed coordinate is quantized as

    Y_{e,ij}  :=  -h d/d(M_e)_{ji}

and D_Q is the algebra they generate, kept in normal order (all coordinate
factors left of all Y factors).  Three independent computations live here:

  * trace_rep        -- the trace of a necklace word as a commutative polynomial,
  * moyal_star_classical -- the flat Moyal product m . e^{(h/2) pi} on those
                        polynomials, with pi pairing (M_e)_{ij} with (M_{e*})_{ji},
  * weyl_symmetrize / rho / phi_w_realized -- normal-ordered operators, the
    representation of height words (factors composed with height 1 leftmost),
    and the average over all height assignments.

Monomial letters are var keys ("M", e, i, j) or ("Y", e, i, j); a monomial
is a sorted tuple of (var, exponent) pairs.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, factorial

from .necklace import Necklace, NecklaceAlgebra, SymElement
from .quiver import QuiverError
from .rational import ONE, LinComb, QPoly


# -- monomial helpers -------------------------------------------------------

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
        if v[0] == "M":
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
        return _render(self.terms, lambda m: m[0] + m[1])


def _reorder(ymono, cmono):
    """Move a Y monomial left past a coordinate monomial.

    Y_{e,ij} acts as -h d/d(M_e)_{ji}; the multi-variable Leibniz rule gives

        Y^a . m = sum_b  prod C(a_v, b_v) (-h)^{|b|} (d^b m) Y^{a-b}.

    Yields (coordinate monomial, Y monomial, integer coefficient, h power).
    """
    if not ymono or not cmono:
        yield (cmono, ymono, 1, 0)
        return
    cdict = dict(cmono)
    alpha = list(ymono)
    ranges = []
    for (v, a) in alpha:
        tv = ("M", v[1], v[3], v[2])
        cap = min(a, cdict.get(tv, 0))
        ranges.append(range(cap + 1))
    for beta in product(*ranges):
        coeff = 1
        m = cmono
        ok = True
        total = 0
        for (v, a), b in zip(alpha, beta):
            if not b:
                continue
            total += b
            coeff *= comb(a, b)
            tv = ("M", v[1], v[3], v[2])
            r = mono_diff(m, tv, b)
            if r is None:
                ok = False
                break
            coeff *= r[0]
            m = r[1]
        if not ok:
            continue
        rest = tuple((v, a - b) for (v, a), b in zip(alpha, beta) if a - b)
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

    def _trace_word(self, n: Necklace) -> RepPolynomial:
        if n.is_idempotent():
            return RepPolynomial.const(self.dims[n.vertex])
        word = n.word
        m = len(word)
        ranges = [range(1, self.dims[self.dq.tail[e]] + 1) for e in word]
        out = RepPolynomial()
        shared = {}  # one object per distinct coordinate and (coordinate, exponent)
        for idx in product(*ranges):
            mono = {}
            for r, e in enumerate(word):
                v = ("M", e, idx[(r + 1) % m], idx[r])
                v = shared.setdefault(v, v)
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

    def canonical_pairs(self):
        """(x, y) coordinate pairs carrying the bivector: x = (M_e)_{ij},
        y = (M_{e*})_{ji} for base edges e."""
        pairs = []
        for e in self.dq.base_edges:
            lh = self.dims[self.dq.head[e]]
            lt = self.dims[self.dq.tail[e]]
            for i in range(1, lh + 1):
                for j in range(1, lt + 1):
                    pairs.append((("M", e, i, j), ("M", e + "*", j, i)))
        return pairs

    def _pi(self, pair_terms, pairs):
        """Apply the bivector to an element of k[Rep] (x) k[Rep]."""
        out = {}
        for (m1, m2), c in pair_terms.items():
            for x, y in pairs:
                for (u, v, s) in ((x, y, 1), (y, x, -1)):
                    r1 = mono_diff(m1, u)
                    if not r1:
                        continue
                    r2 = mono_diff(m2, v)
                    if not r2:
                        continue
                    key = (r1[1], r2[1])
                    add = c.scale(s * r1[0] * r2[0])
                    cur = out.get(key)
                    out[key] = add if cur is None else cur + add
        return {k: v for k, v in out.items() if not v.is_zero()}

    def moyal_star_classical(self, f: RepPolynomial, g: RepPolynomial) -> RepPolynomial:
        pairs = self.canonical_pairs()
        cur = {}
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                key = (m1, m2)
                c = c1 * c2
                old = cur.get(key)
                cur[key] = c if old is None else old + c
        out = RepPolynomial()
        d = 0
        while cur:
            scalar = QPoly({d: Fraction(1, 2 ** d * factorial(d))})
            for (m1, m2), c in cur.items():
                out._add(mono_mul(m1, m2), c * scalar)
            cur = self._pi(cur, pairs)
            d += 1
        return out._clean()

    def poisson_classical(self, f: RepPolynomial, g: RepPolynomial) -> RepPolynomial:
        out = RepPolynomial()
        for x, y in self.canonical_pairs():
            out._add_all(f.diff(x) * g.diff(y))
            out._add_all(f.diff(y) * g.diff(x), QPoly.const(-1))
        return out._clean()

    # Weyl symmetrization ------------------------------------------------------

    @staticmethod
    def _to_generator(v):
        # coordinate of a reversed edge becomes the Y generator: ("M", e*, i, j) -> Y_{e,ij}
        if v[0] == "M" and v[1].endswith("*"):
            return ("Y", v[1][:-1], v[2], v[3])
        return v

    def _average(self, letters):
        """Average of the letters' compositions over all orderings.

        Recursion on the letter multiset: orderings ending with letter t
        contribute Av(rest) * t with weight mult(t)/n.
        """
        key = tuple(sorted(letters))
        hit = self._phi_memo.get(key)
        if hit is not None:
            return hit
        if not letters:
            res = DiffOperator.const(1)
        else:
            n = len(letters)
            res = DiffOperator()
            seen = set()
            for i, t in enumerate(letters):
                if t in seen:
                    continue
                seen.add(t)
                mult = letters.count(t)
                rest = list(letters)
                rest.remove(t)
                res._add_all(self._average(rest) * DiffOperator.generator(t),
                             QPoly.const(Fraction(mult, n)))
            res._clean()
        self._phi_memo[key] = res
        return res

    def weyl_symmetrize(self, f: RepPolynomial) -> DiffOperator:
        out = DiffOperator()
        for m, c in f.terms.items():
            letters = []
            for v, e in m:
                letters.extend([self._to_generator(v)] * e)
            out._add_all(self._average(letters), c)
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
                    mono = cm
                    for v, e in ym:
                        mono = mono_mul(mono, ((("M", v[1] + "*", v[2], v[3]), e),))
                    top._add(mono, c)
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
        scalar = 1
        for n in ms:
            if n.is_idempotent():
                scalar *= self.dims[n.vertex]
        out = DiffOperator()
        for letters_by_pos in self._index_expansions(ms):
            ordered = sorted(letters_by_pos, key=lambda t: heights[t[0]])
            term = DiffOperator.const(1)
            for _, gen in ordered:
                term = term * DiffOperator.generator(gen)
            out._add_all(term)
        return out.scale(scalar)

    def _index_expansions(self, ms):
        """Yield, per joint index tuple, the list of ((i,j), generator) letters."""
        necklaces = [n for n in ms if not n.is_idempotent()]
        per = []
        for n in necklaces:
            word = n.word
            m = len(word)
            ranges = [range(1, self.dims[self.dq.tail[e]] + 1) for e in word]
            opts = []
            for idx in product(*ranges):
                letters = []
                for r, e in enumerate(word):
                    row, col = idx[(r + 1) % m], idx[r]
                    if self.dq.is_base(e):
                        gen = ("M", e, row, col)
                    else:
                        gen = ("Y", e[:-1], row, col)
                    letters.append((r, gen))
                opts.append(letters)
            per.append(opts)
        pos_of = {}
        k = 0
        for i, n in enumerate(ms):
            if not n.is_idempotent():
                pos_of[k] = i
                k += 1
        for combo in product(*per) if per else [()]:
            letters = []
            for which, lst in enumerate(combo):
                i = pos_of[which]
                for r, gen in lst:
                    letters.append(((i, r), gen))
            yield letters

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
        scalar = 1
        for n in ms:
            if n.is_idempotent():
                scalar *= self.dims[n.vertex]
        out = DiffOperator()
        for letters_by_pos in self._index_expansions(ms):
            out._add_all(self._average([gen for _, gen in letters_by_pos]))
        return out.scale(scalar)
