from fractions import Fraction
from itertools import product

import pytest

from nlab.grammar import format_element, format_tensor, parse_element
from nlab.moyal import MoyalHopf, _cuts, _layout
from nlab.necklace import NecklaceAlgebra
from nlab.quiver import Quiver, QuiverError, double, one_loop, two_loops, two_vertex
from nlab.sweeps import multisets_up_to
from nlab.rational import QPoly, accumulate


def setup(q=None):
    alg = NecklaceAlgebra(double(q or one_loop()))
    return alg, MoyalHopf(alg)


def test_star_unit():
    alg, H = setup()
    P = parse_element(alg, "(e e*) & (e e*)")
    assert H.star(P, alg.unit()) == P
    assert H.star(alg.unit(), P) == P


def test_star_worked_example():
    alg, H = setup()
    P = parse_element(alg, "(e e*)")
    S = H.star(P, P)
    assert format_element(S) == "(e e*)&(e e*) - 1/4 h^2 I(v)&I(v)"
    assert S.h_coefficient(1).is_zero()


def test_structure_constants_are_ints():
    # every cut adds a factor h/2, so the star product and the coproduct are
    # defined over Z[h/2]: each coefficient per (h/2)^k is an int
    for q in (one_loop(), two_loops(), two_vertex()):
        alg, H = setup(q)
        mss = multisets_up_to(alg, 4) + [(alg.idempotent(v),) for v in alg.dq.vertices]
        size = {ms: sum(len(n.word) for n in ms) for ms in mss}
        tables = [H.star_ms(a, b) for a in mss for b in mss if size[a] + size[b] <= 4]
        tables += [H.coproduct_ms(ms, slots) for ms in mss for slots in (2, 3)]
        coeffs = [c for table in tables for c in table.values()]
        assert any(c.degree() > 0 for c in coeffs)
        for c in coeffs:
            assert isinstance(c, QPoly) and c, c
            assert all(type(v) is int for v in c.c.values()), c
            assert all(c.coeff(k) == Fraction(v, 2 ** k) for k, v in c.c.items())


# -- a reference engine: cut-and-glue over (i, j) positions and dicts ------

def _ref_occurrences(ms, offset=0):
    out = {}
    for i, n in enumerate(ms, offset):
        for j, e in enumerate(n.word):
            out.setdefault(e, []).append((i, j))
    return out


def _ref_glue(alg, ms, cut_pairs):
    """Pieces and the position -> piece map, following the orbits of
    f(z) = succ(pair(z)) through dicts keyed by position."""
    pair = {}
    for a, b in cut_pairs:
        pair[a] = b
        pair[b] = a
    orbit_of = {}
    pieces = []
    for i, n in enumerate(ms):
        for j in range(len(n.word)):
            start = cur = (i, j)
            if start in orbit_of:
                continue
            idx = len(pieces)
            word = []
            while True:
                orbit_of[cur] = idx
                if cur in pair:
                    ci, cj = pair[cur]
                else:
                    ci, cj = cur
                    word.append(ms[ci].word[cj])
                cur = (ci, (cj + 1) % len(ms[ci].word))
                if cur == start:
                    break
            if word:
                pieces.append(alg._canonical(tuple(word)))
            else:
                pieces.append(alg.idempotent(alg.dq.tail[n.word[j]]))
    pieces.extend(n for n in ms if n.is_idempotent())
    return pieces, orbit_of


def _ref_star_ms(alg, msP, msR):
    dq = alg.dq
    ms = msP + msR
    xs = _ref_occurrences(msP)
    ys = _ref_occurrences(msR, len(msP))

    def terms():
        for pairs in _cuts((xs.get(e), ys.get(dq.reverse(e))) for e in dq.edge_order):
            sign = (-1) ** sum(not dq.is_base(ms[i].word[j]) for (i, j), _y in pairs)
            pieces, _ = _ref_glue(alg, ms, pairs)
            yield alg.multiset(pieces), QPoly.halves({len(pairs): sign})

    return accumulate(terms())


def _ref_coproduct_ms(alg, ms, slots):
    dq = alg.dq
    occ = _ref_occurrences(ms)

    def terms():
        for pairs in _cuts((occ.get(e), occ.get(dq.reverse(e))) for e in dq.base_edges):
            pieces, orbit_of = _ref_glue(alg, ms, pairs)
            starts = [orbit_of[x] for x, _y in pairs]
            targets = [orbit_of[i, (j + 1) % len(ms[i].word)] for (i, j), _y in pairs]
            for c in product(range(slots), repeat=len(pieces)):
                sign = 1
                for a, b in zip(starts, targets):
                    if c[a] == c[b]:
                        sign = 0
                        break
                    if c[a] > c[b]:
                        sign = -sign
                if sign:
                    placed = [[] for _ in range(slots)]
                    for idx, piece in enumerate(pieces):
                        placed[c[idx]].append(piece)
                    yield (tuple(alg.multiset(p) for p in placed),
                           QPoly.halves({len(pairs): sign}))

    return accumulate(terms())


def _same_table(got, want):
    # equal as dicts, and built in the same key order
    return got == want and list(got) == list(want)


@pytest.mark.parametrize("q", [one_loop(), two_loops(), two_vertex()],
                         ids=["one-loop", "two-loop", "two-vertex"])
def test_flat_engine_matches_reference(q):
    alg, H = setup(q)
    mss = multisets_up_to(alg, 4) + [(alg.idempotent(v),) for v in alg.dq.vertices]
    size = {ms: sum(len(n.word) for n in ms) for ms in mss}
    for a in mss:
        for b in mss:
            if size[a] + size[b] <= 4:
                assert _same_table(H.star_ms(a, b), _ref_star_ms(alg, a, b)), (a, b)
    for ms in mss:
        for slots in (2, 3):
            assert _same_table(H.coproduct_ms(ms, slots),
                               _ref_coproduct_ms(alg, ms, slots)), (ms, slots)


def _glue_at(H, ms, cut_pairs):
    """H._glue along pairs of positions (i, j), letter j of necklace i, with
    the orbits keyed by position, as `_ref_glue` returns them."""
    flat_of = {}
    for i, n in enumerate(ms):
        for j in range(len(n.word)):
            flat_of[i, j] = len(flat_of)
    pieces, orbit = H._glue(ms, *_layout(ms), [(flat_of[a], flat_of[b]) for a, b in cut_pairs])
    return pieces, {pos: orbit[x] for pos, x in flat_of.items()}


def test_cut_and_glue_matches_reference_orbits():
    alg, H = setup(two_loops())
    for ms in multisets_up_to(alg, 4):
        occ = _ref_occurrences(ms)
        for pairs in _cuts((occ.get(e), occ.get(alg.dq.reverse(e)))
                           for e in alg.dq.base_edges):
            assert _glue_at(H, ms, pairs) == _ref_glue(alg, ms, pairs), (ms, pairs)


def test_cut_and_glue_cases():
    alg, H = setup()
    ms = alg.multiset([alg.necklace(["e", "e*"])])
    # empty spec: plain symmetric product
    pieces, _ = _glue_at(H, ms + ms, [])
    assert alg.multiset(pieces) == alg.multiset(
        [alg.necklace(["e", "e*"])] * 2)
    # single cut: one necklace (e e*)
    pieces, orbit_of = _glue_at(H, ms + ms, [((0, 0), (1, 1))])
    assert alg.multiset(pieces) == ms
    assert orbit_of == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 0}
    # both pairs cut: two idempotents
    pieces, orbit_of = _glue_at(H, ms + ms, [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    assert alg.multiset(pieces) == alg.multiset([alg.idempotent("v")] * 2)
    assert orbit_of == {(0, 0): 0, (1, 0): 0, (0, 1): 1, (1, 1): 1}


def test_glue_two_vertex_idempotents():
    q = Quiver(["v1", "v2"], [("a", "v1", "v2")])
    alg = NecklaceAlgebra(double(q))
    H = MoyalHopf(alg)
    ms = alg.multiset([alg.necklace(["a", "a*"])])
    pieces, _ = _glue_at(H, ms + ms, [((0, 0), (1, 1)), ((0, 1), (1, 0))])
    assert alg.multiset(pieces) == alg.multiset(
        [alg.idempotent("v1"), alg.idempotent("v2")])


def test_coproduct_examples():
    alg, H = setup()
    assert format_tensor(H.coproduct(alg.unit())) == "1 (x) 1"
    iv = parse_element(alg, "I(v)")
    assert format_tensor(H.coproduct(iv)) == "1 (x) I(v) + I(v) (x) 1"
    P = parse_element(alg, "(e e*)")
    assert format_tensor(H.coproduct(P)) == "1 (x) (e e*) + (e e*) (x) 1"


def test_counit():
    alg, H = setup()
    assert H.counit(alg.unit()) == QPoly.one()
    assert H.counit(parse_element(alg, "(e e*)")) == QPoly.zero()
    assert H.counit(parse_element(alg, "I(v)")) == QPoly.zero()
    d = H.coproduct(parse_element(alg, "(e e*) & I(v)"))
    P = parse_element(alg, "(e e*) & I(v)")
    assert d.slot(0) == P and d.slot(1) == P


def test_antipode():
    alg, H = setup()
    P1 = parse_element(alg, "(e e*)")
    assert H.antipode(P1) == P1.scale(-1)
    P2 = parse_element(alg, "(e e*) & (e e*)")
    assert H.antipode(P2) == P2
    assert H.antipode(alg.unit()) == alg.unit()
    assert H.antipode(H.antipode(P1 + P2)) == P1 + P2


def test_coassoc_probe_examples():
    alg, H = setup()
    for text in ("I(v)", "(e e*)", "(e e*) & (e e*)", "(e e e* e*)"):
        l, r, single = H.coassoc_probe(parse_element(alg, text))
        assert l == r == single, text


def test_h1_is_half_bracket():
    alg, H = setup(two_loops())
    P = parse_element(alg, "(a b)")
    R = parse_element(alg, "(a* b*)")
    st = H.star(P, R)
    br = alg.bracket_sym(P, R)
    assert st.h_coefficient(1) == br.scale(Fraction(1, 2))
    assert st.h_coefficient(0) == P.sym_product(R)


def test_cobracket_compatibility_worked():
    alg, H = setup(two_loops())
    P = parse_element(alg, "(a a* b b*)")
    d = H.coproduct(P)
    assert (d - d.flip()).h_coefficient(1) == alg.cobracket_sym(P)


def test_mismatched_quivers():
    alg1, H = setup()
    alg2 = NecklaceAlgebra(double(two_loops()))
    P2 = parse_element(alg2, "(a a*)")
    with pytest.raises(QuiverError):
        H.star(parse_element(alg1, "(e e*)"), P2)


def test_star_cache_reused():
    alg, H = setup()
    P = parse_element(alg, "(e e*)")
    H.star(P, P)
    n = len(H._star_cache)
    H.star(P, P)
    assert len(H._star_cache) == n


def test_idempotent_factors_through_hopf_structure():
    alg, H = setup()
    iv = parse_element(alg, "I(v)")
    P = parse_element(alg, "(e e*)")
    # idempotents carry no edges: star with them is the symmetric product
    assert H.star(iv, iv) == parse_element(alg, "I(v)&I(v)")
    assert H.star(iv, P) == parse_element(alg, "(e e*) & I(v)")
    # antipode counts idempotents in the multiset parity
    assert H.antipode(parse_element(alg, "(e e*) & I(v)")) == \
        parse_element(alg, "(e e*) & I(v)")
    # counit and antipode axioms on mixed multisets
    for text in ("I(v)", "(e e*) & I(v)", "I(v)&I(v)"):
        Q = parse_element(alg, text)
        d = H.coproduct(Q)
        assert d.slot(0) == Q and d.slot(1) == Q
        unit_part = alg.element({(): H.counit(Q)})
        assert H.mul_tensor(H.antipode_slot(d, 0)) == unit_part
        assert H.mul_tensor(H.antipode_slot(d, 1)) == unit_part
        l, r, single = H.coassoc_probe(Q)
        assert l == r == single


def test_heavy_single_cases():
    # one larger instance of each axiom, combined length up to 10
    alg, H = setup(two_loops())
    P = parse_element(alg, "(a b a* b*)")
    R = parse_element(alg, "(a a* b b*)")
    S = parse_element(alg, "(a b)")
    assert H.star(H.star(P, R), S) == H.star(P, H.star(R, S))
    assert H.coproduct(H.star(P, R)) == \
        H.star_tensor(H.coproduct(P), H.coproduct(R))
    Q = parse_element(alg, "(a b a* b*) & (a b)")
    d = H.coproduct(Q)
    unit = alg.element({(): H.counit(Q)})
    assert H.mul_tensor(H.antipode_slot(d, 0)) == unit
    assert H.mul_tensor(H.antipode_slot(d, 1)) == unit
    l, r, single = H.coassoc_probe(Q)
    assert l == r == single

