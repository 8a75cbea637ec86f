import random
from fractions import Fraction
from itertools import product
from math import comb, factorial

from nlab.grammar import parse_element
from nlab.moyal import MoyalHopf
from nlab.necklace import NecklaceAlgebra
from nlab.quiver import Quiver, double, one_loop, two_loops
from nlab.rational import QPoly
from nlab.repspace import DiffOperator, RepPolynomial, RepSpace, _reorder


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


def test_classical_limit_of_moyal():
    alg, rs = setup(dims=2)
    f = rs.trace_necklace(alg.necklace(["e", "e*"]))
    g = rs.trace_necklace(alg.necklace(["e", "e", "e*"]))
    st = rs.moyal_star_classical(f, g)
    h0 = RepPolynomial({m: QPoly.const(c.coeff(0)) for m, c in st.terms.items()})
    assert h0 == f * g
    h1 = RepPolynomial({m: QPoly.const(c.coeff(1)) for m, c in st.terms.items()})
    assert h1 == rs.poisson_classical(f, g).scale(Fraction(1, 2))


def test_weyl_symmetrize_examples():
    alg, rs = setup(dims=1)
    x = RepPolynomial.var(("M", "e", 1, 1))
    y = RepPolynomial.var(("M", "e*", 1, 1))
    assert rs.weyl_symmetrize(x) == DiffOperator.generator(("M", "e", 1, 1))
    fw = rs.weyl_symmetrize(x * y)
    xy = DiffOperator.generator(("M", "e", 1, 1)) * \
        DiffOperator.generator(("Y", "e", 1, 1))
    assert fw == xy + DiffOperator.const(QPoly({1: Fraction(-1, 2)}))
    # multiplicativity on f = g = xy with the known value
    lhs = rs.weyl_symmetrize(rs.moyal_star_classical(x * y, x * y))
    assert lhs == fw * fw
    x2y2 = rs.weyl_symmetrize(x * y) * rs.weyl_symmetrize(x * y)
    expect = (DiffOperator.generator(("M", "e", 1, 1)) *
              DiffOperator.generator(("M", "e", 1, 1)) *
              DiffOperator.generator(("Y", "e", 1, 1)) *
              DiffOperator.generator(("Y", "e", 1, 1)))
    expect = expect + xy.scale(1).mul_qpoly(QPoly({1: Fraction(-2)})) \
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
        DiffOperator.generator(("Y", "e", 1, 1))
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
        DiffOperator.generator(("Y", "e", 1, 1))
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
    {(coordinate monomial, Y monomial, h power): coefficient}."""
    cexp = dict(cmono)
    out = {}
    for beta in product(*[range(a + 1) for _, a in ymono]):
        coeff, left = Fraction(1), dict(cexp)
        for (v, a), b in zip(ymono, beta):
            x = ("M", v[1], v[3], v[2])
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
        ymono = tuple(sorted((("Y",) + v, rng.randint(1, 3)) for v in ys))
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
    snapshot = {n: dict(t.terms) for n, t in rs._trace_memo.items()}
    assert len(snapshot) == 6
    R = parse_element(alg, "(a a*) + (b b*)")
    rs.moyal_star_classical(first, rs.trace_rep(R))
    rs.weyl_unsymmetrize(rs.weyl_symmetrize(first))
    second = rs.trace_rep(P)
    assert second == first and second is not first
    assert second == RepSpace(alg, {"v": 2}).trace_rep(P)
    assert {n: t.terms for n, t in rs._trace_memo.items()} == snapshot
    n = alg.necklace(["a", "a*"])
    assert rs.trace_necklace(n) is rs.trace_necklace(n)
