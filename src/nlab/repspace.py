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

The Weyl image of a monomial, the average of its letters' compositions over
all orderings, is computed in closed form per conjugate pair (see
`RepSpace._weyl_monomial`), with an int coefficient per (h/2)^k; `rho`
composes the letters one by one and stays the independent definition.

The only letter is ("M", e, i, j), for any edge e of the double quiver: a
reversed edge's letter is both the Weyl symbol (M_{e*})_{ij} and the operator
Y_{e,ij}, printed Y[e][i][j].  `partner` pairs the letters.  A monomial is a
sorted tuple of (letter, exponent) pairs.
"""

from __future__ import annotations

from collections import Counter
from itertools import product
from math import comb, factorial, inf

from .necklace import Necklace, NecklaceAlgebra, SymElement
from .quiver import QuiverError, reverse_id
from .rational import ONE, LinComb, QPoly, ratio


# -- monomial helpers -------------------------------------------------------

def partner(v):
    """(the letter paired with v, its sign).  The bivector pairs (M_e)_{ij}
    with (M_{e*})_{ji}, with sign +1 from a base edge's letter and -1 from a
    reversed edge's; Y_{e,ij} = ("M", e*, i, j) acts as -h d/d(its partner)."""
    _, e, i, j = v
    if e[-1] == "*":
        return ("M", e[:-1], j, i), -1
    return ("M", e + "*", j, i), 1


def mono_mul(m1, m2):
    """The product of two sorted monomials, by one merge; an empty operand
    returns the other itself."""
    if not m1 or not m2:
        return m1 or m2
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        p1, p2 = m1[i], m2[j]
        if p1[0] < p2[0]:
            out.append(p1)
            i += 1
        elif p2[0] < p1[0]:
            out.append(p2)
            j += 1
        else:
            out.append((p1[0], p1[1] + p2[1]))
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def mono_degree(m):
    return sum(e for _, e in m)


def mono_diff(m, var, order=1):
    """(coefficient, reduced monomial) of d^order/d var^order, or None.
    Dropping or lowering one pair of a monomial keeps it sorted."""
    for i, (v, e) in enumerate(m):
        if v == var:
            if e < order:
                return None
            coeff = 1
            for t in range(order):
                coeff *= (e - t)
            rest = ((v, e - order),) if e > order else ()
            return coeff, m[:i] + rest + m[i + 1:]
    return None


def _runs(letters):
    """The monomial of a sorted letter tuple: each letter with the length of
    its run."""
    out = []
    if letters:
        prev, n = letters[0], 0
        for v in letters:
            if v == prev:
                n += 1
            else:
                out.append((prev, n))
                prev, n = v, 1
        out.append((prev, n))
    return tuple(out)


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
        return self.monoid_product(other, mono_mul)

    def diff(self, var):
        # lowering var's exponent by one is injective on the monomials containing var
        return RepPolynomial({r[1]: c.scale(r[0]) for m, c in self.terms.items()
                              if (r := mono_diff(m, var))})

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
        return self.bilinear(other, _compose)

    def __repr__(self):
        # Y letters print as Y[e][i][j] and sort in that form (as letters,
        # e#1* sorts before e*)
        shown = {(cm, tuple(sorted((("Y", reverse_id(v[1]), v[2], v[3]), e)
                                   for v, e in ym))): c
                 for (cm, ym), c in self.terms.items()}
        return _render(shown, lambda m: m[0] + m[1])


def _compose(left, right):
    """The normal-ordered terms of the product of two operator keys: the
    left key's Y monomial moves right past the right key's coordinates.
    A coefficient of h^k is stored as 2^k times it, per (h/2)^k."""
    c1, y1 = left
    c2, y2 = right
    if not y1 or not c2:
        return (((mono_mul(c1, c2), mono_mul(y1, y2)), ONE),)
    return [((mono_mul(c1, cm), mono_mul(ym, y2)),
             QPoly.halves({hpow: coeff << hpow}) if coeff != 1 or hpow else ONE)
            for cm, ym, coeff, hpow in _reorder(y1, c2)]


def _reorder(ymono, cmono):
    """Move a Y monomial left past a coordinate monomial.

    Y_{e,ij} acts as -h d/d(M_e)_{ji}, its letter's partner; the
    multi-variable Leibniz rule gives

        Y^a . m = sum_b  prod C(a_v, b_v) (-h)^{|b|} (d^b m) Y^{a-b}.

    Yields (coordinate monomial, Y monomial, integer coefficient, h power).
    """
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


def _word_operator(word):
    """The terms of the composition of a word's generators, first letter leftmost."""
    term = DiffOperator.const(1)
    for v in word:
        term = term * DiffOperator.generator(v)
    return term.terms.items()


# -- the oracles -------------------------------------------------------------

class RepSpace:
    """Oracles over one quiver at one dimension vector l: I -> Z_{>=0}."""

    def __init__(self, alg: NecklaceAlgebra, dims):
        self.alg = alg
        self.dq = alg.dq
        self.dims = dict(dims)
        for v in self.dims:
            self.dq.check_vertex(v)
        for v in self.dq.vertices:
            if v not in self.dims:
                raise QuiverError("dimension vector misses vertex %r" % v)
            if self.dims[v] < 0:
                raise QuiverError("negative dimension %d at vertex %r" % (self.dims[v], v))
        # Memos of shared results, each dropped with this RepSpace; callers
        # read them and never accumulate into them.
        self._trace_memo = {}  # necklace multiset -> the product of its traces
        self._weyl_memo = {}   # monomial asked for -> its Weyl image's terms, as items

    # trace representation --------------------------------------------------

    def trace_necklace(self, n: Necklace) -> RepPolynomial:
        """Trace of a necklace's word, memoized as the multiset (n,); the
        result is shared, never accumulate into it."""
        key = (n,)
        hit = self._trace_memo.get(key)
        if hit is None:
            hit = self._trace_memo[key] = self._trace_word(n)
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
        shared = {}  # one object per distinct (letter, exponent)
        return RepPolynomial(Counter(
            tuple(sorted(shared.setdefault(p, p) for p in Counter(letters).items()))
            for letters in self._expand(n.word)))

    def trace_rep(self, P: SymElement) -> RepPolynomial:
        return P.linear(self._trace_ms, out=RepPolynomial())

    def _trace_ms(self, ms):
        """The terms of the product of the traces of ms's necklaces, memoized
        (interned necklaces make ms hash by identity); shared, never
        accumulate into them."""
        hit = self._trace_memo.get(ms)
        if hit is None:
            hit = RepPolynomial.const(1) if not ms else self.trace_necklace(ms[0])
            for n in ms[1:]:
                hit = hit * self.trace_necklace(n)
            self._trace_memo[ms] = hit
        return hit.terms.items()

    # classical Moyal product ------------------------------------------------

    @staticmethod
    def _pi(pair_terms):
        """Apply the bivector to {(m1, m2): integer} in k[Rep] (x) k[Rep];
        the result may hold zeros."""
        out = {}
        for (m1, m2), c in pair_terms.items():
            if not c:
                continue
            d2 = dict(m2)
            for u, a in m1:
                w, s = partner(u)
                b = d2.get(w)
                if b is None:
                    continue
                key = (mono_diff(m1, u)[1], mono_diff(m2, w)[1])
                out[key] = out.get(key, 0) + c * s * a * b
        return out

    def moyal_star_classical(self, f: RepPolynomial, g: RepPolynomial) -> RepPolynomial:
        return f.bilinear(g, self._moyal_monomials)

    def _moyal_monomials(self, m1, m2):
        """The terms of m . e^{(h/2) pi} on one pair of monomials:
        sum_d (h/2)^d / d! times the products of pi^d(m1 (x) m2).  The
        degree drops by 2 with each d, so the terms of different d differ."""
        out = [(mono_mul(m1, m2), ONE)]
        cur = self._pi({(m1, m2): 1})
        d = 1
        while cur:
            by_mono = {}
            for (a, b), n in cur.items():
                m = mono_mul(a, b)
                by_mono[m] = by_mono.get(m, 0) + n
            # (h/2)^d / d! is stored as 1/d! per (h/2)^d
            weight = factorial(d)
            out.extend((m, QPoly.halves({d: ratio(n, weight)})) for m, n in by_mono.items() if n)
            cur = self._pi(cur)
            d += 1
        return out

    # Weyl symmetrization ------------------------------------------------------

    def weyl_symmetrize(self, f: RepPolynomial) -> DiffOperator:
        return f.linear(self._weyl_monomial, out=DiffOperator())

    def _weyl_monomial(self, m):
        """The terms of m's Weyl image, the average of the compositions of its
        letters over all orderings, as a tuple of (key, QPoly) items;
        memoized and shared like `_trace_ms`.

        Letters of different conjugate pairs commute, so the average is the
        product over the pairs x = (M_e)_{ij}, Y = Y_{e,ji} of

            W(x^a Y^b) = sum_k (-1)^k k! C(a, k) C(b, k) (h/2)^k x^(a-k) Y^(b-k),

        and a letter whose partner is not in m passes through unchanged.
        """
        hit = self._weyl_memo.get(m)
        if hit is None:
            pos = {v: r for r, (v, _) in enumerate(m)}
            signs, pairs = [], []
            for r, (v, a) in enumerate(m):
                w, s = partner(v)
                signs.append(s)
                if s > 0 and w in pos:
                    pairs.append((r, pos[w], a, m[pos[w]][1]))
            terms = {}
            for ks in product(*[range(min(a, b) + 1) for _, _, a, b in pairs]):
                exps = [e for _, e in m]
                coeff = 1
                for (r, t, a, b), k in zip(pairs, ks):
                    if k:
                        coeff *= (-1) ** k * factorial(k) * comb(a, k) * comb(b, k)
                        exps[r] -= k
                        exps[t] -= k
                cm = tuple((v, e) for (v, _), e, s in zip(m, exps, signs) if e and s > 0)
                ym = tuple((v, e) for (v, _), e, s in zip(m, exps, signs) if e and s < 0)
                hpow = sum(ks)
                terms[(cm, ym)] = QPoly.halves({hpow: coeff}) if hpow else ONE
            hit = self._weyl_memo[m] = tuple(DiffOperator(terms).terms.items())
        return hit

    def weyl_unsymmetrize(self, D: DiffOperator) -> RepPolynomial:
        """Inverse of weyl_symmetrize; degree-descending elimination.  The
        Weyl image of a monomial is its normal-ordered self plus terms of
        lower degree, so each step cancels the top degree exactly."""
        f = RepPolynomial()
        rem = D
        prev = inf
        while not rem.is_zero():
            deg = max(mono_degree(cm) + mono_degree(ym) for (cm, ym) in rem.terms)
            if deg >= prev:
                raise RuntimeError("weyl_unsymmetrize: top degree %d did not drop" % deg)
            prev = deg
            # coordinate and Y letters are disjoint, so merging (cm, ym) is injective
            top = RepPolynomial({mono_mul(cm, ym): c for (cm, ym), c in rem.terms.items()
                                 if mono_degree(cm) + mono_degree(ym) == deg})
            f = f + top
            rem = rem - self.weyl_symmetrize(top)
        return f

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
        words = Counter(tuple(v for _, v in sorted(letters, key=lambda t: heights[t[0]]))
                        for letters in expansions)
        return LinComb(words).linear(_word_operator, out=DiffOperator()).scale(scalar)

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

    def phi_w_realized(self, P: SymElement) -> DiffOperator:
        """(1/N!) sum over height assignments of rho, per multiset term.

        Computed by expanding index tuples and averaging each concrete letter
        multiset over orderings (exactly the N! sum, grouped and memoized).
        """
        return P.linear(lambda ms: self._phi_ms(ms).terms.items(), out=DiffOperator())

    def _phi_ms(self, ms) -> DiffOperator:
        scalar, expansions = self._height_letters(ms)
        sorted_letters = Counter(tuple(sorted(v for _, v in letters)) for letters in expansions)
        return LinComb(sorted_letters).linear(
            lambda key: self._weyl_monomial(_runs(key)),
            out=DiffOperator()).scale(scalar)
