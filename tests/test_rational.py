"""Property tests: QPoly arithmetic against a reference over plain dicts."""

import pytest

pytest.importorskip("hypothesis")

from fractions import Fraction  # noqa: E402

from hypothesis import given, settings, strategies as st  # noqa: E402

from nlab.rational import ONE, ZERO, QPoly  # noqa: E402

coeff = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.one_of(
    st.just(QPoly.one()), st.just(ONE), st.just(QPoly.zero()), st.just(ZERO),
    coeff.map(QPoly.const),
    st.dictionaries(st.integers(0, 4), coeff, max_size=4).map(QPoly),
)


def ref(p):
    return {k: Fraction(v) for k, v in p.c.items()}


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
    assert (p * q).c == ref_mul(ref(p), ref(q))
    assert (q * p).c == ref_mul(ref(q), ref(p))
    assert (p + q).c == ref_add(ref(p), ref(q))
    assert (p - q).c == ref_add(ref(p), {k: -v for k, v in ref(q).items()})


@settings(max_examples=200, deadline=None)
@given(polys, coeff)
def test_scale_matches_reference(p, v):
    assert p.scale(v).c == {k: w * v for k, w in ref(p).items() if w * v}
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
