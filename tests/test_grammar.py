import pytest

from nlab.grammar import format_element, format_tensor, parse_element
from nlab.moyal import MoyalHopf
from nlab.necklace import NecklaceAlgebra
from nlab.quiver import QuiverError, double, one_loop, two_loops, two_vertex


def test_parse_and_format_round_trip():
    alg = NecklaceAlgebra(double(two_loops()))
    for text in ("(a a*)", "3/2 h^2 (a a*) & I(v) + (a b)",
                 "1 - 1/4 h^2 I(v)&I(v)", "(a b a b)", "h (a a*)"):
        el = parse_element(alg, text)
        assert parse_element(alg, format_element(el)) == el


def test_format_of_parse_is_unchanged():
    # coefficients are printed per h^k, as they are written
    for q, texts in ((one_loop(), ("-1/4 h^2 I(v)&I(v)", "(e e*)&(e e*) - 1/4 h^2 I(v)&I(v)",
                                   "1/3 + 5/8 h (e e*) - 7 h^2 (e)&(e*)",
                                   "-3/2 h (e) + 1/16 h^4 I(v)", "2 h^3 (e e* e e*)")),
                     (two_vertex(), ("-1/4 h^2 I(v1)&I(v2) + 3/8 h^3 (c)&(a a*)",))):
        alg = NecklaceAlgebra(double(q))
        for text in texts:
            assert format_element(parse_element(alg, text)) == text


def test_format_is_sorted_and_deterministic():
    alg = NecklaceAlgebra(double(one_loop()))
    el = parse_element(alg, "h^2 (e e*) + (e e*) & (e e*) + 2 h (e e*)")
    s = format_element(el)
    assert s == "(e e*)&(e e*) + 2 h (e e*) + h^2 (e e*)"


def test_unit_and_zero():
    alg = NecklaceAlgebra(double(one_loop()))
    assert format_element(alg.unit()) == "1"
    assert format_element(alg.element()) == "0"
    assert format_element(parse_element(alg, "1")) == "1"


def test_parse_rejects_garbage():
    alg = NecklaceAlgebra(double(one_loop()))
    for bad in ("(e", "()", "e e*", "(e zz)", "I()"):
        with pytest.raises(QuiverError):
            parse_element(alg, bad)


def test_tensor_format():
    alg = NecklaceAlgebra(double(one_loop()))
    H = MoyalHopf(alg)
    t = H.coproduct(parse_element(alg, "(e e*)"))
    assert format_tensor(t) == "1 (x) (e e*) + (e e*) (x) 1"


def test_rotation_spelling_normalized():
    alg = NecklaceAlgebra(double(one_loop()))
    assert format_element(parse_element(alg, "(e* e)")) == "(e e*)"
