"""Property tests: QPoly and LinComb arithmetic against references over plain dicts."""

import ast
import os

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

import nlab  # noqa: E402
from nlab.necklace import NecklaceAlgebra  # noqa: E402
from nlab.quiver import double, one_loop  # noqa: E402
from nlab.rational import ONE, ZERO, LinComb, QPoly  # noqa: E402
from nlab.repspace import RepPolynomial, mono_mul  # noqa: E402

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.one_of(
    st.just(QPoly.one()), st.just(ONE), st.just(QPoly.zero()), st.just(ZERO),
    coeff.map(QPoly.const),
    st.dictionaries(st.integers(0, 4), coeff, max_size=4).map(QPoly),
)


def ref(p):
    """p's coefficients of h^k, read through `coeff` whatever basis p stores."""
    return {k: Fraction(p.coeff(k)) for k in p.c}


def ref_mul(a, b):
    out = {}
    for k1, v1 in a.items():
        for k2, v2 in b.items():
            out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + v1 * v2
    return {k: v for k, v in out.items() if v}


def ref_add(a, b):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, Fraction(0)) + v
    return {k: v for k, v in out.items() if v}


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_mul_add_match_reference(p, q):
    assert ref(p * q) == ref_mul(ref(p), ref(q))
    assert ref(q * p) == ref_mul(ref(q), ref(p))
    assert ref(p + q) == ref_add(ref(p), ref(q))
    assert ref(p - q) == ref_add(ref(p), {k: -v for k, v in ref(q).items()})


@settings(max_examples=200, deadline=None)
@given(polys, coeff)
def test_scale_matches_reference(p, v):
    assert ref(p.scale(v)) == {k: w * v for k, w in ref(p).items() if w * v}
    assert (p * v).c == p.scale(v).c


@settings(max_examples=200, deadline=None)
@given(polys, polys)
def test_unit_product_leaves_operand_unchanged(y, z):
    before = dict(y.c)
    for x in (ONE * y, y * ONE, QPoly.one() * y):
        assert x == y
        assert x + z == y + z and x - z == y - z and -x == -y
        assert x * z == y * z and z * x == z * y and x.scale(3) == y.scale(3)
    assert y.c == before
    assert ONE.c == {0: 1}


ALG = NecklaceAlgebra(double(one_loop()))
LOOP = ALG.necklace(["e", "e*"])
REP_KEYS = [(), ((("M", "e", 1, 1), 1),), ((("M", "e", 1, 1), 2), (("M", "e*", 1, 1), 1))]
SYM_KEYS = [(), (LOOP,), (LOOP, LOOP), (ALG.idempotent("v"),)]


def lincombs(make, keys):
    """(element, reference dict with the zero coefficients dropped)."""
    return st.dictionaries(st.sampled_from(keys), polys).map(
        lambda d: (make(d), {k: ref(c) for k, c in d.items() if c}))


rep_elements = lincombs(RepPolynomial, REP_KEYS)
sym_elements = lincombs(ALG.element, SYM_KEYS)


def lin_ref(x):
    return {k: ref(c) for k, c in x.terms.items()}


def mul_qpoly(x, q):
    """x with every coefficient multiplied by q, an element of x's kind."""
    out = x._empty()
    out.terms = {k: p for k, c in x.terms.items() if (p := c * q)}
    return out


def lin_add(a, b, s=1):
    out = dict(a)
    for k, c in b.items():
        out[k] = ref_add(out.get(k, {}), {e: s * v for e, v in c.items()})
    return {k: c for k, c in out.items() if c}


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(rep_elements, rep_elements), st.tuples(sym_elements, sym_elements)),
       polys, coeff, st.integers(0, 4))
def test_lincomb_matches_reference(pair, q, v, k):
    (x, rx), (y, ry) = pair
    assert lin_ref(x) == rx
    results = {
        "add": (x + y, lin_add(rx, ry)),
        "sub": (x - y, lin_add(rx, ry, -1)),
        "scale": (x.scale(v), {m: {e: w * v for e, w in c.items()}
                               for m, c in rx.items() if v}),
        "mul_qpoly": (mul_qpoly(x, q), {m: ref_mul(c, ref(q)) for m, c in rx.items()
                                       if ref_mul(c, ref(q))}),
        "h_coefficient": (x.h_coefficient(k), {m: {0: c[k]} for m, c in rx.items()
                                               if c.get(k)}),
    }
    for name, (out, expected) in results.items():
        assert type(out) is type(x) and getattr(out, "alg", None) is getattr(x, "alg", None)
        assert all(not c.is_zero() for c in out.terms.values()), name
        assert lin_ref(out) == expected, name
    assert (x - x).is_zero() and x - x == x.scale(0)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(SYM_KEYS), polys))
def test_lincomb_kinds_differ(terms):
    # equal terms in two different element kinds never compare equal
    a, b, c = LinComb(terms), RepPolynomial(terms), ALG.element(terms)
    assert a.terms == b.terms == c.terms
    assert a != b and b != c and a != c
    assert ALG.tensor(2, {}) != ALG.tensor(3, {})


int_coeffs = st.dictionaries(st.integers(0, 4), st.integers(-6, 6), max_size=4)


def as_fractions(d):
    return {k: Fraction(v) for k, v in d.items()}


@settings(max_examples=200, deadline=None)
@given(int_coeffs, int_coeffs, st.integers(-3, 3))
def test_int_and_fraction_coefficients_agree(a, b, v):
    # an integral value is stored as an int whichever type it was given as;
    # it compares, hashes, prints and multiplies exactly like the same values
    # given as Fractions
    pi, pf = QPoly(a), QPoly(as_fractions(a))
    qi, qf = QPoly(b), QPoly(as_fractions(b))
    assert all(type(c) is int for c in pi.c.values())
    assert all(type(c) is int for c in pf.c.values())
    assert pi == pf and hash(pi) == hash(pf) and pi.str() == pf.str()
    assert all(pi.coeff(k) == pf.coeff(k) for k in range(6))
    for x, y in ((pi * qi, pf * qf), (pi * qf, pf * qi), (qi * pi, qf * pf),
                 (pi + qi, pf + qf), (pi - qi, pf - qf),
                 (pi.scale(v), pf.scale(Fraction(v)))):
        assert x == y and hash(x) == hash(y) and x.str() == y.str()
        assert ref(x) == ref(y)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.integers(0, 6), coeff, max_size=4))
def test_h_coefficients_round_trip(d):
    # given per h^k, stored per (h/2)^k as an int exactly when integral, and
    # read back per h^k
    p = QPoly(d)
    assert all(p.coeff(k) == d.get(k, 0) for k in range(8))
    assert set(p.c) == {k for k, v in d.items() if v}
    for k, v in p.c.items():
        assert v == d[k] * 2 ** k
        assert (type(v) is int) == (Fraction(v).denominator == 1)
    # the same values given as ints where integral
    q = QPoly({k: v.numerator if v.denominator == 1 else v for k, v in d.items()})
    assert p == q and hash(p) == hash(q) and p.str() == q.str() and p.c == q.c


# -- linear extensions ---------------------------------------------------------

KEYS = st.integers(0, 3)
# each key's image: (key, QPoly) pairs that may collide, with some negated
# copies so that terms cancel to zero
images = st.tuples(st.lists(st.tuples(KEYS, polys), max_size=4), st.integers(0, 4)).map(
    lambda t: t[0] + [(k, -p) for k, p in t[0][:t[1]]])
basic = st.dictionaries(KEYS, polys).map(LinComb)


def snapshot(x):
    return {k: dict(c.c) for k, c in x.terms.items()}


def extend(pairs_with_coeffs):
    """Plain-dict reference: sum of c * ck at key over ((key, ck), c)."""
    out = {}
    for (key, ck), c in pairs_with_coeffs:
        out[key] = ref_add(out.get(key, {}), ref_mul(ref(ck), ref(c)))
    return {k: v for k, v in out.items() if v}


@settings(max_examples=200, deadline=None)
@given(basic, st.dictionaries(KEYS, images))
def test_linear_matches_reference(x, table):
    before = snapshot(x)
    # a memoized image: one element per key, shared across calls
    memo = {}
    for k, pairs in table.items():
        memo[k] = LinComb()
        for key, p in pairs:
            memo[k] = memo[k] + LinComb({key: p})
    memo_before = {k: snapshot(v) for k, v in memo.items()}
    f = lambda k: memo[k].terms.items() if k in memo else ()  # noqa: E731
    got = x.linear(f)
    expected = extend(((key, ck), c) for k, c in x.terms.items()
                      for key, ck in (memo[k].terms.items() if k in memo else ()))
    assert type(got) is LinComb and lin_ref(got) == expected
    assert all(not c.is_zero() for c in got.terms.values())
    # straight from a table with colliding and cancelling pairs
    raw = x.linear(lambda k: table.get(k, ()))
    assert lin_ref(raw) == extend(((key, ck), c) for k, c in x.terms.items()
                                  for key, ck in table.get(k, ()))
    assert lin_ref(raw) == lin_ref(got)
    assert snapshot(x) == before
    assert {k: snapshot(v) for k, v in memo.items()} == memo_before
    # the result is fresh: emptying it leaves the operand and the memo as they were
    got.terms.clear()
    assert snapshot(x) == before
    assert {k: snapshot(v) for k, v in memo.items()} == memo_before


@settings(max_examples=200, deadline=None)
@given(basic, st.dictionaries(KEYS, images), st.dictionaries(st.sampled_from(SYM_KEYS), polys))
def test_linear_into_another_kind(x, table, held):
    # keys of the table become pairs of multisets in a 2-tensor
    out = ALG.tensor(2, {(SYM_KEYS[0], k): c for k, c in held.items()})
    out_before = snapshot(out)
    tkey = lambda key: (SYM_KEYS[key % len(SYM_KEYS)], SYM_KEYS[0])  # noqa: E731
    got = x.linear(lambda k: [(tkey(key), ck) for key, ck in table.get(k, ())], out=out)
    assert type(got) is type(out) and got.alg is ALG and got.arity == 2
    assert got is not out and snapshot(out) == out_before
    assert lin_ref(got) == extend(((tkey(key), ck), c) for k, c in x.terms.items()
                                  for key, ck in table.get(k, ()))


@settings(max_examples=200, deadline=None)
@given(basic, basic, st.dictionaries(st.tuples(KEYS, KEYS), images))
def test_bilinear_matches_reference(x, y, table):
    bx, by = snapshot(x), snapshot(y)
    table_before = {k: [(key, dict(p.c)) for key, p in v] for k, v in table.items()}
    got = x.bilinear(y, lambda k1, k2: table.get((k1, k2), ()))
    expected = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            for key, ck in table.get((k1, k2), ()):
                term = ref_mul(ref_mul(ref(c1), ref(c2)), ref(ck))
                expected[key] = ref_add(expected.get(key, {}), term)
    assert type(got) is LinComb
    assert lin_ref(got) == {k: v for k, v in expected.items() if v}
    assert snapshot(x) == bx and snapshot(y) == by
    assert {k: [(key, dict(p.c)) for key, p in v] for k, v in table.items()} == table_before
    out = RepPolynomial({(): ONE})
    into = x.bilinear(y, lambda k1, k2: table.get((k1, k2), ()), out=out)
    assert type(into) is RepPolynomial and into.terms == got.terms
    assert out.terms == {(): ONE}


@settings(max_examples=200, deadline=None)
@given(basic, basic, st.sampled_from([lambda a, b: a + b, lambda a, b: (a * b) % 2,
                                      lambda a, b: 0]))
def test_monoid_product_matches_reference(x, y, keymul):
    bx, by = snapshot(x), snapshot(y)
    got = x.monoid_product(y, keymul)
    expected = {}
    for k1, c1 in x.terms.items():
        for k2, c2 in y.terms.items():
            key = keymul(k1, k2)
            expected[key] = ref_add(expected.get(key, {}), ref_mul(ref(c1), ref(c2)))
    assert type(got) is LinComb
    assert lin_ref(got) == {k: v for k, v in expected.items() if v}
    assert snapshot(x) == bx and snapshot(y) == by
    # a product with the unit element shares the coefficients, never changes them
    unit = LinComb({0: ONE})
    assert unit.monoid_product(x, lambda a, b: b) == x and snapshot(x) == bx


LETTERS = [("M", e, i, j) for e in ("a", "a*", "b", "b*") for i in (1, 2) for j in (1, 2)]
monomials = st.dictionaries(st.sampled_from(LETTERS), st.integers(1, 4), max_size=6).map(
    lambda d: tuple(sorted(d.items())))


@settings(max_examples=300, deadline=None)
@given(monomials, monomials)
def test_mono_mul_matches_dict_reference(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    got = mono_mul(m1, m2)
    assert got == tuple(sorted(d.items()))
    assert all(p[0] < q[0] for p, q in zip(got, got[1:]))
    assert mono_mul((), m2) is m2 and mono_mul(m1, ()) is m1


def _is_get(value):
    """Whether value is a one-argument `.get(key)` call."""
    return (isinstance(value, ast.Call) and isinstance(value.func, ast.Attribute)
            and value.func.attr == "get" and len(value.args) == 1 and not value.keywords)


def _hand_sums(source):
    """(line, name) for each operand of `+` or `+=` whose latest binding
    before it in its function, in source order, is a one-argument
    `.get(key)`: a hand-written sum over a key dict.  `.get(key, 0)` int
    sums, and a name bound again before the sum, are not flagged."""
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        gets = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 and _is_get(node.value):
                gets.add(id(node.targets[0]))
            elif isinstance(node, ast.NamedExpr) and _is_get(node.value):
                gets.add(id(node.target))
        bindings = {}  # name -> [(position, bound by a .get(key))]
        uses = []
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bindings.setdefault(node.id, []).append(
                    ((node.lineno, node.col_offset), id(node) in gets))
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                uses += [node.left, node.right]
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
                uses += [node.target, node.value]
        for o in uses:
            if isinstance(o, ast.Name):
                before = [b for b in bindings.get(o.id, ()) if b[0] < (o.lineno, o.col_offset)]
                if before and max(before)[1]:
                    found.add((o.lineno, o.id))
    return sorted(found)


PLANTED_SUM = """
def _add(self, key, c):
    cur = self.terms.get(key)
    if cur is None:
        self.terms[key] = c
    else:
        self.terms[key] = cur + c
"""


def test_only_rational_accumulates_in_place():
    # every other module sums Q[h] coefficients through accumulate, directly
    # or by linear, bilinear or monoid_product, so no element a memo holds
    # can be accumulated into
    root = os.path.dirname(nlab.__file__)
    found = []
    for folder, _dirs, files in os.walk(root):
        for name in files:
            path = os.path.join(folder, name)
            if not name.endswith(".py") or path == os.path.join(root, "rational.py"):
                continue
            with open(path) as f:
                found += [(os.path.relpath(path, root), hit) for hit in _hand_sums(f.read())]
    assert found == []
    # the check sees accumulate's own loop, and a hand-written sum planted
    # into another module, but not an int count
    with open(os.path.join(root, "rational.py")) as f:
        assert [name for _, name in _hand_sums(f.read())] == ["cur"]
    with open(os.path.join(root, "repspace.py")) as f:
        source = f.read()
    assert [name for _, name in _hand_sums(source + PLANTED_SUM)] == ["cur"]
    assert _hand_sums("def f(acc, key):\n    acc[key] = acc.get(key, 0) + 1\n") == []
    assert _hand_sums("def f(memo, key):\n    n = memo.get(key)\n    n = 0\n    n += 1\n") == []
