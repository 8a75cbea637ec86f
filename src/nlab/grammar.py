"""Text grammar for Sym L[h] elements.

    element   := term (('+'|'-') term)*
    term      := [rational] [h-power] [factors]
    factors   := factor ('&' factor)*
    factor    := '(' edge+ ')' | 'I(' vertex ')' | '1'
    h-power   := 'h' ['^' int]

Examples: `(e e*)`, `3/2 h^2 (e e*) & I(v) + (a b)`, `1 - 1/4 h^2 I(v)&I(v)`.
Reversed edges are spelled with a trailing `*`.  Output is deterministic:
terms sorted by (h-degree, multiset order).
"""

from __future__ import annotations

import re
from fractions import Fraction

from .quiver import QuiverError


_TOKEN = re.compile(r"\s*(\(|\)|&|\+|-|\^|[0-9]+(?:/[0-9]+)?|[A-Za-z_][A-Za-z0-9_#]*\*?)")


def _tokenize(text):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise QuiverError("cannot tokenize %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, alg, tokens):
        self.alg = alg
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise QuiverError("expected %r, got %r" % (t, got))

    def parse(self):
        out = self.alg.element()
        sign = 1
        if self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
        out = out + self.term(sign)
        while self.peek() in ("+", "-"):
            sign = -1 if self.next() == "-" else 1
            out = out + self.term(sign)
        if self.peek() is not None:
            raise QuiverError("trailing input at %r" % self.peek())
        return out

    def term(self, sign):
        coeff = Fraction(sign)
        t = self.peek()
        if t is not None and re.fullmatch(r"[0-9]+(?:/[0-9]+)?", t):
            if re.fullmatch(r"[0-9]+/0+", t):
                raise QuiverError("zero denominator in %r" % t)
            coeff *= Fraction(self.next())
        hdeg = 0
        if self.peek() == "h":
            self.next()
            hdeg = 1
            if self.peek() == "^":
                self.next()
                t = self.next()
                if t is None or not t.isdigit():
                    raise QuiverError("exponent after h^ must be a non-negative integer, got %r" % t)
                hdeg = int(t)
        necklaces = []
        if self.peek() in ("(", "I", "1"):
            necklaces = self.factors()
        ms = self.alg.multiset(necklaces)
        from .rational import QPoly
        return self.alg.element({ms: QPoly({hdeg: coeff})})

    def factors(self):
        out = self.factor()
        while self.peek() == "&":
            self.next()
            out += self.factor()
        return out

    def factor(self):
        t = self.next()
        if t == "1":
            return []
        if t == "I":
            self.expect("(")
            v = self.next()
            self.expect(")")
            return [self.alg.idempotent(v)]
        if t == "(":
            word = []
            while self.peek() != ")":
                e = self.next()
                if e is None:
                    raise QuiverError("unterminated necklace")
                word.append(e)
            self.expect(")")
            if not word:
                raise QuiverError("empty necklace; use I(v) or 1")
            return [self.alg.necklace(word)]
        raise QuiverError("unexpected token %r" % t)


def parse_element(alg, text):
    return _Parser(alg, _tokenize(text)).parse()


def _ms_str(ms):
    if not ms:
        return "1"
    return "&".join(repr(n) for n in ms)


def _sorted_scalar_terms(terms):
    """Expand {multiset: QPoly} into [(hdeg, multiset, coefficient of h^hdeg)] sorted."""
    flat = []
    for ms, c in terms.items():
        for k in sorted(c.c):
            flat.append((k, tuple(n.key() for n in ms), ms, c.coeff(k)))
    flat.sort(key=lambda t: (t[0], t[1]))
    return [(k, ms, v) for (k, _key, ms, v) in flat]


def _render(flat, body):
    if not flat:
        return "0"
    parts = []
    for idx, (k, key, v) in enumerate(flat):
        mag = abs(v)
        chunk = []
        if mag != 1 or (k == 0 and body(key) == "1"):
            chunk.append(str(mag))
        if k == 1:
            chunk.append("h")
        elif k:
            chunk.append("h^%d" % k)
        b = body(key)
        if b != "1" or not chunk:
            chunk.append(b)
        s = " ".join(chunk)
        if idx == 0:
            parts.append(s if v > 0 else "-" + s)
        else:
            parts.append(("+ " if v > 0 else "- ") + s)
    return " ".join(parts)


def format_element(el) -> str:
    return _render(_sorted_scalar_terms(el.terms), _ms_str)


def format_tensor(t) -> str:
    flat = []
    for key, c in t.terms.items():
        for k in sorted(c.c):
            flat.append((k, tuple(tuple(n.key() for n in ms) for ms in key), key, c.coeff(k)))
    flat.sort(key=lambda it: (it[0], it[1]))
    flat = [(k, key, v) for (k, _sk, key, v) in flat]
    return _render(flat, lambda key: " (x) ".join(_ms_str(ms) for ms in key))
