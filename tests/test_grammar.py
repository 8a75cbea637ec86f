import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from nlab.grammar import format_element, format_tensor, parse_element  # noqa: E402
from nlab.moyal import MoyalHopf  # noqa: E402
from nlab.necklace import NecklaceAlgebra  # noqa: E402
from nlab.quiver import QuiverError, double, one_loop, two_loops, two_vertex  # noqa: E402


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


# every kind of token the grammar reads, with bad numbers and names among them
TOKENS = ["(", ")", "&", "+", "-", "^", "h", "I", "1", "0", "3/2", "1/0",
          "e", "e*", "v", "zz"]


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(TOKENS), max_size=4))
def test_parse_errors_are_quiver_errors(tokens):
    # a string over the grammar's tokens parses, or fails with a QuiverError
    alg = NecklaceAlgebra(double(one_loop()))
    try:
        parse_element(alg, " ".join(tokens))
    except QuiverError:
        pass


def test_parse_rejects_garbage():
    alg = NecklaceAlgebra(double(one_loop()))
    for bad in ("(e", "()", "e e*", "(e zz)", "I()", "1/0", "h^", "h ^ (", "h^1/2"):
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
