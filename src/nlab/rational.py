"""Exact scalars and the linear combinations built on them.

All algebraic identities in this package are coefficient-wise in h, so h is
never specialized to a number; every scalar is a QPoly, a polynomial in the
formal parameter h over the rationals.  A QPoly stores the coefficient of
(h/2)^k, not of h^k: in the Moyal quantization every cut adds a factor h/2,
so the star product and the coproduct have structure constants +-(h/2)^k
and compute with ints.  Its coefficients are exact: an `int` exactly when
the value is integral, a `Fraction` otherwise; the two compare, hash and
print alike.  Every element type (Sym L[h], its tensor powers, trace
polynomials, operators) is a LinComb: a finite sum of keys with QPoly
coefficients.  Every such sum, and every structure-constant table of the
Moyal layer, is computed by the one loop `accumulate`, which adds the
coefficients of equal keys and drops the keys that cancel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

_UNIT = {0: 1}  # coefficient dict of the unit polynomial


def ratio(n: int, d: int):
    """n / d for ints n and d != 0: an int when d divides n, else a Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _per_h(v, k):
    """The coefficient of h^k whose coefficient of (h/2)^k is v."""
    if not k:
        return v
    if type(v) is int:
        return ratio(v, 1 << k)
    return v / (1 << k)


class QPoly:
    """Polynomial in h with exact coefficients, stored sparsely.

    `c` maps an exponent k to the coefficient of (h/2)^k.  The constructor,
    `coeff`, `str` and everything that reads or prints a coefficient work
    per h^k; the change of basis is a ring isomorphism, so sums, products
    and scales act on `c` unchanged.  A stored value is an `int` when it is
    integral, whichever type it was given as, so the structure constants
    of the Moyal Hopf layer stay ints; a `Fraction` operand can leave an
    integral `Fraction`, which compares, hashes and prints like the `int`.

    Instances are immutable and may be shared between results: a product with
    the unit polynomial returns the other operand itself, not a copy.  Never
    mutate `c` after construction.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        # coeffs: dict {exponent: coefficient of h^exponent, int or
        # Fraction-like}; zeros are dropped.
        c = {}
        if coeffs:
            for k, v in coeffs.items():
                k = int(k)
                if type(v) is int:
                    v <<= k
                else:
                    if type(v) is not Fraction:
                        v = Fraction(v)
                    if k:
                        v *= 1 << k
                    if v.denominator == 1:
                        v = v.numerator
                if v:
                    c[k] = v
        self.c = c

    @staticmethod
    def halves(c) -> "QPoly":
        """The sum of c[k] (h/2)^k.  c is kept as given: its values must be
        nonzero, and ints where they are integral."""
        out = QPoly()
        out.c = c
        return out

    @staticmethod
    def zero():
        return QPoly()

    @staticmethod
    def one():
        return QPoly({0: 1})

    @staticmethod
    def const(v) -> "QPoly":
        return QPoly({0: v})

    @staticmethod
    def h_power(k, coeff=1) -> "QPoly":
        return QPoly({k: coeff})

    def is_zero(self):
        return not self.c

    def coeff(self, k):
        """Coefficient of h^k, an int or a Fraction."""
        return _per_h(self.c.get(k, 0), k)

    def degree(self):
        return max(self.c) if self.c else -1

    def __add__(self, other):
        c = dict(self.c)
        for k, v in other.c.items():
            w = c.get(k, 0) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        out = QPoly()
        out.c = c
        return out

    def __neg__(self):
        out = QPoly()
        out.c = {k: -v for k, v in self.c.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QPoly):
            if self.c == _UNIT:
                return other
            if other.c == _UNIT:
                return self
            c = {}
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    k = k1 + k2
                    w = c.get(k, 0) + v1 * v2
                    if w:
                        c[k] = w
                    else:
                        c.pop(k, None)
            out = QPoly()
            out.c = c
            return out
        return self.scale(other)

    def scale(self, v) -> "QPoly":
        if type(v) is not int and type(v) is not Fraction:
            v = Fraction(v)
        if not v:
            return QPoly()
        out = QPoly()
        out.c = {k: w * v for k, w in self.c.items()}
        return out

    def __eq__(self, other):
        if isinstance(other, QPoly):
            return self.c == other.c
        if isinstance(other, (int, Fraction)):
            return self == QPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def __bool__(self):
        return bool(self.c)

    def __repr__(self):
        return "QPoly(%s)" % self.str()

    def str(self) -> str:
        """Render like `3/2 h^2` or `1 - 1/4 h^2`, per h^k; `0` when zero."""
        if not self.c:
            return "0"
        out = []
        for i, k in enumerate(sorted(self.c)):
            v = self.coeff(k)
            body = monomial_str(abs(v), k)
            if i == 0:
                out.append(body if v > 0 else "-" + body)
            else:
                out.append("%s %s" % ("-" if v < 0 else "+", body))
        return " ".join(out)


def monomial_str(mag, k: int) -> str:
    if k == 0:
        return str(mag)
    hpart = "h" if k == 1 else "h^%d" % k
    if mag == 1:
        return hpart
    return "%s %s" % (mag, hpart)


ZERO = QPoly.zero()
ONE = QPoly.one()


def accumulate(items) -> dict:
    """Sum (key, QPoly) pairs into a fresh {key: QPoly} of nonzero sums.

    A key whose sum cancels is dropped, and enters again, last, if a later
    term brings it back; a zero first term adds no key.  No QPoly is
    mutated: a key met once keeps its QPoly object itself, so the result may
    share coefficients with the inputs, and with memos.
    """
    acc = {}
    for key, c in items:
        cur = acc.get(key)
        if cur is not None:
            c = cur + c
        if c.c:
            acc[key] = c
        elif cur is not None:
            del acc[key]
    return acc


class LinComb:
    """A finite Q[h]-linear combination: `terms` maps keys to nonzero QPolys.

    Subclasses fix what a key is and override `_empty` when their elements
    carry context.  `terms` is a plain public dict.

    Invariant: an element never changes once it is built.  Every sum is
    computed by `accumulate` into a fresh dict of a fresh element, so results
    may be shared freely, by memos too.  Maps extended linearly or
    bilinearly go through `linear`, `bilinear` and `monoid_product`, which
    keep this rule for their callers.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if not isinstance(c, QPoly):
                    c = QPoly.const(c)
                if c.c:
                    self.terms[key] = c

    def _empty(self):
        """A zero element of the same kind."""
        return type(self)()

    def _summed(self, items):
        """A fresh element of self's kind whose terms are accumulate(items)."""
        out = self._empty()
        out.terms = accumulate(items)
        return out

    def linear(self, f, out=None):
        """The linear extension of f: sum over terms c k of c f(k).

        f maps a key to (key, QPoly) pairs, such as a cached table's
        `.items()`.  The result is a fresh element of out's kind (self's
        when out is None); out itself is left unchanged.
        """
        return (self if out is None else out)._summed(
            (key, ck * c) for k, c in self.terms.items() for key, ck in f(k))

    def bilinear(self, other, f, out=None):
        """The bilinear extension of f: sum over term pairs c1 k1, c2 k2 of
        c1 c2 f(k1, k2), with f and out as in `linear`."""
        def items():
            for k1, c1 in self.terms.items():
                for k2, c2 in other.terms.items():
                    c = c1 * c2
                    for key, ck in f(k1, k2):
                        yield key, ck * c

        return (self if out is None else out)._summed(items())

    def monoid_product(self, other, keymul):
        """The bilinear extension of a product of keys: sum over term pairs
        of c1 c2 keymul(k1, k2), a fresh element of self's kind."""
        return self._summed((keymul(k1, k2), c1 * c2) for k1, c1 in self.terms.items()
                            for k2, c2 in other.terms.items())

    def __add__(self, other):
        return self._summed(chain(self.terms.items(), other.terms.items()))

    def __sub__(self, other):
        return self._summed(chain(self.terms.items(),
                                  ((k, -c) for k, c in other.terms.items())))

    def scale(self, v):
        return self._summed((k, c.scale(v)) for k, c in self.terms.items())

    def h_coefficient(self, k):
        """The element multiplying h^k, with constant coefficients."""
        out = self._empty()
        for key, c in self.terms.items():
            v = c.coeff(k)
            if v:
                out.terms[key] = QPoly.const(v)
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return type(self) is type(other) and self.terms == other.terms
