import random
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import comb, factorial

import pytest

from nlab import sweeps
from nlab.grammar import parse_element
from nlab.moyal import MoyalHopf
from nlab.necklace import NecklaceAlgebra
from nlab.quiver import Quiver, double, one_loop, two_loops
from nlab.rational import LinComb, QPoly
from nlab.repspace import (DiffOperator, RepPolynomial, RepSpace, _reorder, _runs,
                           _word_operator, partner)


def setup(q=None, dims=1):
    alg = NecklaceAlgebra(double(q or one_loop()))
    if isinstance(dims, int):
        dims = {v: dims for v in alg.dq.vertices}
    return alg, RepSpace(alg, dims)


def test_trace_idempotent_and_loop():
    alg, rs = setup(dims=3)
    assert rs.trace_rep(parse_element(alg, "I(v)")) == RepPolynomial.const(3)
    alg1, rs1 = setup(dims=1)
    t = rs1.trace_rep(parse_element(alg1, "(e)"))
    assert t == RepPolynomial.var(("M", "e", 1, 1))


def test_trace_length_two():
    alg, rs = setup(dims=2)
    t = rs.trace_necklace(alg.necklace(["e", "e*"]))
    var = RepPolynomial.var
    expected = RepPolynomial()
    for i in (1, 2):
        for j in (1, 2):
            expected = expected + var(("M", "e", i, j)) * var(("M", "e*", j, i))
    assert t == expected


def test_trace_rotation_invariant_and_multiplicative():
    alg, rs = setup(two_loops(), dims=2)
    n1 = rs.trace_necklace(alg.necklace(["a", "b", "a*"]))
    n2 = rs.trace_necklace(alg.necklace(["b", "a*", "a"]))
    assert n1 == n2
    P = parse_element(alg, "(a a*) & (b b*)")
    prod = rs.trace_necklace(alg.necklace(["a", "a*"])) * \
        rs.trace_necklace(alg.necklace(["b", "b*"]))
    assert rs.trace_rep(P) == prod


def test_moyal_classical_canonical_pair():
    alg, rs = setup(dims=1)
    x = RepPolynomial.var(("M", "e", 1, 1))
    y = RepPolynomial.var(("M", "e*", 1, 1))
    assert rs.moyal_star_classical(x, y) == \
        x * y + RepPolynomial.const(QPoly({1: Fraction(1, 2)}))
    assert rs.moyal_star_classical(x, x) == x * x
    assert rs.moyal_star_classical(x * y, x * y) == \
        x * x * y * y + RepPolynomial.const(QPoly({2: Fraction(-1, 4)}))


def _poisson_reference(rs, f, g):
    """{f, g} = sum over x = (M_e)_{ij}, y = (M_{e*})_{ji}, e a base edge, of
    df/dx dg/dy - df/dy dg/dx; written out here, apart from `partner`."""
    out = RepPolynomial()
    for e in rs.dq.base_edges:
        for i in range(1, rs.dims[rs.dq.head[e]] + 1):
            for j in range(1, rs.dims[rs.dq.tail[e]] + 1):
                x, y = ("M", e, i, j), ("M", e + "*", j, i)
                out = out + f.diff(x) * g.diff(y) - f.diff(y) * g.diff(x)
    return out


def test_classical_limit_of_moyal():
    alg, rs = setup(dims=2)
    f = rs.trace_necklace(alg.necklace(["e", "e*"]))
    g = rs.trace_necklace(alg.necklace(["e", "e", "e*"]))
    st = rs.moyal_star_classical(f, g)
    h0 = RepPolynomial({m: QPoly.const(c.coeff(0)) for m, c in st.terms.items()})
    assert h0 == f * g
    h1 = RepPolynomial({m: QPoly.const(c.coeff(1)) for m, c in st.terms.items()})
    assert h1 == _poisson_reference(rs, f, g).scale(Fraction(1, 2))


def test_weyl_symmetrize_examples():
    alg, rs = setup(dims=1)
    x = RepPolynomial.var(("M", "e", 1, 1))
    y = RepPolynomial.var(("M", "e*", 1, 1))
    assert rs.weyl_symmetrize(x) == DiffOperator.generator(("M", "e", 1, 1))
    fw = rs.weyl_symmetrize(x * y)
    xy = DiffOperator.generator(("M", "e", 1, 1)) * \
        DiffOperator.generator(("M", "e*", 1, 1))
    assert fw == xy + DiffOperator.const(QPoly({1: Fraction(-1, 2)}))
    # multiplicativity on f = g = xy with the known value
    lhs = rs.weyl_symmetrize(rs.moyal_star_classical(x * y, x * y))
    assert lhs == fw * fw
    x2y2 = rs.weyl_symmetrize(x * y) * rs.weyl_symmetrize(x * y)
    expect = (DiffOperator.generator(("M", "e", 1, 1)) *
              DiffOperator.generator(("M", "e", 1, 1)) *
              DiffOperator.generator(("M", "e*", 1, 1)) *
              DiffOperator.generator(("M", "e*", 1, 1)))
    expect = expect + xy * DiffOperator.const(QPoly({1: Fraction(-2)})) \
        + DiffOperator.const(QPoly({2: Fraction(1, 4)}))
    assert x2y2 == expect


def test_weyl_multiplicative_all_monomial_pairs():
    alg, rs = setup(dims=1)
    x = ("M", "e", 1, 1)
    y = ("M", "e*", 1, 1)
    monos = []
    for dx in range(3):
        for dy in range(3):
            if 0 < dx + dy <= 2:
                m = RepPolynomial.const(1)
                for _ in range(dx):
                    m = m * RepPolynomial.var(x)
                for _ in range(dy):
                    m = m * RepPolynomial.var(y)
                monos.append(m)
    for f in monos:
        for g in monos:
            lhs = rs.weyl_symmetrize(rs.moyal_star_classical(f, g))
            rhs = rs.weyl_symmetrize(f) * rs.weyl_symmetrize(g)
            assert lhs == rhs


def test_weyl_round_trip_degree6():
    alg, rs = setup(dims=1)
    x = RepPolynomial.var(("M", "e", 1, 1))
    y = RepPolynomial.var(("M", "e*", 1, 1))
    f = x * x * x * y * y * y + x * y.scale(3) + RepPolynomial.const(7)
    assert rs.weyl_unsymmetrize(rs.weyl_symmetrize(f)) == f


def test_rho_calibration():
    alg, rs = setup(dims=1)
    ms = alg.multiset([alg.necklace(["e", "e*"])])
    xy = DiffOperator.generator(("M", "e", 1, 1)) * \
        DiffOperator.generator(("M", "e*", 1, 1))
    assert rs.rho(ms, {(0, 0): 1, (0, 1): 2}) == xy
    assert rs.rho(ms, {(0, 0): 2, (0, 1): 1}) == \
        xy + DiffOperator.const(QPoly({1: Fraction(-1)}))
    single = alg.multiset([alg.necklace(["e"])])
    assert rs.rho(single, {(0, 0): 1}) == DiffOperator.generator(("M", "e", 1, 1))


def test_phi_w_examples():
    alg, rs = setup(dims=2)
    assert rs.phi_w_realized(parse_element(alg, "I(v)")) == DiffOperator.const(2)
    alg1, rs1 = setup(dims=1)
    P = parse_element(alg1, "(e e*)")
    xy = DiffOperator.generator(("M", "e", 1, 1)) * \
        DiffOperator.generator(("M", "e*", 1, 1))
    assert rs1.phi_w_realized(P) == xy + DiffOperator.const(QPoly({1: Fraction(-1, 2)}))


def test_phi_w_equals_height_average():
    from itertools import permutations
    alg, rs = setup(dims=1)
    P = parse_element(alg, "(e e*) & (e)")
    (ms,) = P.terms
    positions = [(i, j) for i, n in enumerate(ms) for j in range(len(n.word))]
    total = DiffOperator()
    count = 0
    for perm in permutations(range(1, len(positions) + 1)):
        total = total + rs.rho(ms, dict(zip(positions, perm)))
        count += 1
    avg = total.scale(Fraction(1, count))
    assert avg == rs.phi_w_realized(P)


def test_diagram_closure_and_homomorphism():
    for q in (one_loop(), two_loops()):
        alg = NecklaceAlgebra(double(q))
        H = MoyalHopf(alg)
        from nlab.sweeps import necklaces_of_length
        necks = necklaces_of_length(alg, 2)
        for l in (1, 2):
            rs = RepSpace(alg, {v: l for v in alg.dq.vertices})
            for n in necks[:4]:
                P = alg.single([n])
                assert rs.phi_w_realized(P) == rs.weyl_symmetrize(rs.trace_rep(P))
                st = H.star(P, P)
                assert rs.trace_rep(st) == rs.moyal_star_classical(
                    rs.trace_rep(P), rs.trace_rep(P))
                assert rs.phi_w_realized(st) == \
                    rs.phi_w_realized(P) * rs.phi_w_realized(P)


def test_two_vertex_dimension_vector():
    q = Quiver(["v1", "v2"], [("a", "v1", "v2")])
    alg = NecklaceAlgebra(double(q))
    rs = RepSpace(alg, {"v1": 1, "v2": 2})
    t = rs.trace_necklace(alg.necklace(["a", "a*"]))
    # (M_a): 2x1 matrix; trace of M_{a*} M_a has two index terms
    assert len(t.terms) == 2
    H = MoyalHopf(alg)
    P = alg.single([alg.necklace(["a", "a*"])])
    st = H.star(P, P)
    assert rs.trace_rep(st) == rs.moyal_star_classical(rs.trace_rep(P),
                                                       rs.trace_rep(P))


def _reorder_reference(ymono, cmono):
    """Y^a . m by the Leibniz rule with Fraction arithmetic, as
    {(coordinate monomial, Y monomial, h power): coefficient}; the Y letter
    ("M", e*, i, j) differentiates ("M", e, j, i)."""
    cexp = dict(cmono)
    out = {}
    for beta in product(*[range(a + 1) for _, a in ymono]):
        coeff, left = Fraction(1), dict(cexp)
        for (v, a), b in zip(ymono, beta):
            x = ("M", v[1][:-1], v[3], v[2])
            e = left.get(x, 0)
            if b > e:
                break
            coeff *= Fraction(comb(a, b)) * Fraction(factorial(e), factorial(e - b))
            left[x] = e - b
        else:
            total = sum(beta)
            cm = tuple(sorted((x, e) for x, e in left.items() if e))
            ym = tuple((v, a - b) for (v, a), b in zip(ymono, beta) if a - b)
            out[(cm, ym, total)] = coeff * Fraction(-1) ** total
    return out


def test_reorder_integer_coefficients_match_fraction_reference():
    rng = random.Random(7)
    coords = [(e, i, j) for e in ("a", "b") for i in (1, 2) for j in (1, 2)]
    for _ in range(300):
        ys = rng.sample(coords, rng.randint(0, 3))
        cs = rng.sample(coords, rng.randint(0, 3))
        ymono = tuple(sorted((("M", e + "*", i, j), rng.randint(1, 3)) for e, i, j in ys))
        cmono = tuple(sorted((("M", e, j, i), rng.randint(1, 3)) for e, i, j in cs))
        got = {}
        for cm, ym, coeff, hpow in _reorder(ymono, cmono):
            assert type(coeff) is int
            got[(cm, ym, hpow)] = coeff
        assert got == _reorder_reference(ymono, cmono), (ymono, cmono)


def test_trace_memo_is_never_mutated():
    alg, rs = setup(q=two_loops(), dims=2)
    P = parse_element(alg, "(a a*)&(a a*) + 2 (a a* b b*) + h (b) + (a)&(b)&I(v) - 1/3 (b b*)")
    first = rs.trace_rep(P)
    R = parse_element(alg, "(a a*) + (b b*)")
    tr = rs.trace_rep(R)
    rs.weyl_symmetrize(first)

    def contents():
        # copies down to each coefficient's dict, so an in-place change shows
        def copy(items):
            return {k: dict(c.c) for k, c in items}
        return ({ms: copy(t.terms.items()) for ms, t in rs._trace_memo.items()},
                {m: copy(items) for m, items in rs._weyl_memo.items()})

    snapshot = contents()
    assert len(snapshot[0]) == 8  # six necklaces and two multisets of more
    assert set(first.terms) <= set(snapshot[1])
    rs.moyal_star_classical(first, tr)
    rs.moyal_star_classical(tr, first)
    rs.weyl_unsymmetrize(rs.weyl_symmetrize(first))
    rs.weyl_unsymmetrize(rs.weyl_symmetrize(tr))
    second = rs.trace_rep(P)
    assert second == first and second is not first
    assert second == RepSpace(alg, {"v": 2}).trace_rep(P)
    now = contents()
    assert [{k: now[i][k] for k in memo} for i, memo in enumerate(snapshot)] == list(snapshot)
    # the oracles hand out views of the memo entries, which stay the same objects
    n = alg.necklace(["a", "a*"])
    assert rs.trace_necklace(n) is rs._trace_memo[(n,)]
    ms = alg.multiset([n, n, alg.necklace(["b"])])
    rs._trace_ms(ms)
    hit = rs._trace_memo[ms]
    rs._trace_ms(ms)
    assert rs._trace_memo[ms] is hit
    m = next(iter(first.terms))
    hit = rs._weyl_memo[m]
    rs._weyl_monomial(m)
    assert rs._weyl_memo[m] is hit


def test_weyl_memo_coefficients_are_ints():
    # per (h/2)^k the Weyl image of a monomial has integral coefficients
    # ((-1)^k k! C(a, k) C(b, k) per conjugate pair), stored as ints, not as
    # integral Fractions; the memo holds exactly the monomials asked for
    alg, rs = setup(q=two_loops(), dims=2)
    P = parse_element(alg, "(a a*)&(a a*) + 2 (a a* b b*) + (a b a* b*) + h (b) + (a)&I(v)")
    rs.phi_w_realized(P)
    values = [v for items in rs._weyl_memo.values() for _, c in items for v in c.c.values()]
    assert set(rs._weyl_memo) == set(rs.trace_rep(P).terms)
    assert any(v not in (1, -1) for v in values)
    assert all(type(v) is int for v in values)


def _ordering_average(m):
    """The Weyl image of m by its definition: the composition of every
    distinct ordering of its letters, summed and divided by their number."""
    orderings = set(permutations([v for v, e in m for _ in range(e)]))
    total = LinComb({w: 1 for w in orderings}).linear(_word_operator, out=DiffOperator())
    return total.scale(Fraction(1, len(orderings)))


def test_weyl_closed_form_matches_the_ordering_average():
    letters = sorted(("M", e, i, j) for e in ("e", "e*") for i in (1, 2) for j in (1, 2))
    monos = [_runs(key) for deg in range(5)
             for key in combinations_with_replacement(letters, deg)]
    x, y, z, w = ("M", "e", 1, 2), ("M", "e*", 2, 1), ("M", "e", 2, 2), ("M", "e*", 2, 2)
    # a lone coordinate, a lone Y, one pair, and two different pairs
    assert {((x, 1),), ((y, 1),), ((x, 2), (y, 2)), ((x, 1), (z, 1), (y, 1), (w, 1))} \
        <= set(monos)
    assert len(monos) == 495
    alg, rs = setup(dims=2)
    for m in monos:
        f = RepPolynomial({m: 1})
        assert rs.weyl_symmetrize(f) == _ordering_average(m), m


def test_phi_w_fills_the_weyl_memo_for_its_trace(monkeypatch):
    # the joint expansions phi_W averages are the monomials of the trace
    # product, so the Weyl image of the trace is read from the memo alone
    alg, rs = setup(q=two_loops(), dims=2)
    P = parse_element(alg, "(a a*)&(b b*) + 2 (a a* b b*) + (a b a* b*) + h (b) + (a)&I(v)")
    phi = rs.phi_w_realized(P)
    entries = len(rs._weyl_memo)
    calls = []
    generator = DiffOperator.generator
    monkeypatch.setattr(DiffOperator, "generator",
                        staticmethod(lambda v: calls.append(v) or generator(v)))
    assert rs.weyl_symmetrize(rs.trace_rep(P)) == phi
    assert len(rs._weyl_memo) == entries and calls == []


def test_weyl_unsymmetrize_raises_when_the_top_degree_stays(monkeypatch):
    alg, rs = setup(dims=2)
    D = rs.weyl_symmetrize(rs.trace_rep(parse_element(alg, "(e e* e e*) + (e e*)")))
    calls = []
    monkeypatch.setattr(RepSpace, "weyl_symmetrize",
                        lambda self, f: calls.append(f) or DiffOperator())
    with pytest.raises(RuntimeError, match="top degree 4 did not drop"):
        rs.weyl_unsymmetrize(D)
    assert len(calls) == 1


def _one_loop_diagram(max_len):
    alg = NecklaceAlgebra(double(one_loop()))
    return sweeps.diagram_checks(alg, [{"v": 1}, {"v": 2}], max_len=max_len)


def test_diagram_checks_compute_single_images_once(monkeypatch):
    # per dims: one trace and one Weyl image per single, read by every pair
    # and the singles loop; each pair traces its star and symmetrizes its
    # classical product; the round trip symmetrizes once more per single
    calls = {"trace_rep": 0, "weyl_symmetrize": 0}
    for name in calls:
        def counted(self, x, _orig=getattr(RepSpace, name), _name=name):
            calls[_name] += 1
            return _orig(self, x)
        monkeypatch.setattr(RepSpace, name, counted)
    c_tr, c_weyl, c_phi, c_rt = _one_loop_diagram(max_len=4)
    assert all(c.ok for c in (c_tr, c_weyl, c_phi, c_rt))
    singles, pairs = c_phi.cases, c_tr.cases
    assert (singles, pairs) == (114, 466)
    assert calls == {"trace_rep": singles + pairs, "weyl_symmetrize": 2 * singles + pairs}


def test_diagram_checks_catch_a_wrong_star(monkeypatch):
    # R star P in place of P star R: its trace is not the classical product
    # of the cached single traces in the order P, R
    star = MoyalHopf.star
    monkeypatch.setattr(MoyalHopf, "star", lambda self, P, R: star(self, R, P))
    c_tr, c_weyl, c_phi, c_rt = _one_loop_diagram(max_len=3)
    assert " FAIL " in c_tr.report_line()
    assert c_tr.failure.startswith("nlab trace ")
    assert " vs nlab moyal-classical " in c_tr.failure
    assert c_weyl.ok and c_phi.ok and c_rt.ok


def test_diagram_checks_catch_a_wrong_weyl_map(monkeypatch):
    # normal ordering in place of the symmetric average agrees on single
    # letters and differs on products
    monkeypatch.setattr(RepSpace, "_weyl_monomial",
                        lambda self, m: _word_operator([v for v, e in m for _ in range(e)]))
    c_tr, c_weyl, c_phi, c_rt = _one_loop_diagram(max_len=3)
    assert " FAIL " in c_weyl.report_line()
    assert c_weyl.failure.startswith("nlab weyl ")
    assert c_tr.ok


def test_partner_is_a_signed_involution():
    alg, rs = setup(q=two_loops(), dims=2)
    t = rs.trace_rep(parse_element(alg, "(a a* b b*) + (a b a* b*) + (a b* a*) + (b)"))
    letters = {v for m in t.terms for v, _ in m}
    assert {v[1] for v in letters} == {"a", "a*", "b", "b*"}
    for v in letters:
        w, s = partner(v)
        assert partner(w) == (v, -s)
        assert s == (1 if v[1] in ("a", "b") else -1)
        assert w == ("M", v[1] + "*" if s > 0 else v[1][:-1], v[3], v[2])


def _random_trace_polys(alg, rs, rng, count, max_len):
    from nlab.sweeps import necklaces_of_length
    necks = [n for k in range(1, max_len + 1) for n in necklaces_of_length(alg, k)]
    out = []
    for _ in range(count):
        P = alg.single(rng.sample(necks, rng.randint(1, 2)), QPoly.const(rng.randint(1, 3)))
        out.append(rs.trace_rep(P + alg.single([rng.choice(necks)])))
    return out


def test_moyal_classical_associative_and_antisymmetric_in_odd_h():
    alg = NecklaceAlgebra(double(two_loops()))
    rng = random.Random(11)
    odd_terms = 0
    for dims, max_len in ((1, 3), (2, 2)):
        rs = RepSpace(alg, {"v": dims})
        star = rs.moyal_star_classical
        polys = _random_trace_polys(alg, rs, rng, 4, max_len)
        for f, g, k in zip(polys, polys[1:] + polys[:1], polys[2:] + polys[:2]):
            assert star(star(f, g), k) == star(f, star(g, k)), dims
            fg, gf = star(f, g), star(g, f)
            assert fg.h_coefficient(1) == _poisson_reference(rs, f, g).scale(Fraction(1, 2))
            for d in range(max(c.degree() for c in fg.terms.values()) + 1):
                assert fg.h_coefficient(d) == gf.h_coefficient(d).scale((-1) ** d), (dims, d)
                if d % 2:
                    odd_terms += len(fg.h_coefficient(d).terms)
    # odd powers of h occur, so a symmetric bivector would fail the swap
    assert odd_terms > 0


def test_generator_rejects_old_y_spelling():
    with pytest.raises(ValueError):
        DiffOperator.generator(("Y", "e", 1, 1))
    assert DiffOperator.generator(("M", "e*", 1, 1)).terms == {((), ((("M", "e*", 1, 1), 1),)): 1}
    assert DiffOperator.generator(("M", "e", 1, 1)).terms == {(((("M", "e", 1, 1), 1),), ()): 1}
