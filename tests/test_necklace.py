import copy
from fractions import Fraction

import pytest

from nlab.grammar import parse_element
from nlab.moyal import MoyalHopf, _layout
from nlab.necklace import Necklace, NecklaceAlgebra
from nlab.quiver import Quiver, QuiverError, double, one_loop, two_loops
from nlab.rational import QPoly


def alg_for(q):
    return NecklaceAlgebra(double(q))


def hamiltonian_action(alg, f, word, tail):
    """The derivation e -> -df/de*, e* -> df/de applied to the path (word,
    tail): an edge word starting at vertex tail, or 1_tail when empty.

    Each replacement keeps the path's endpoints, so every result starts at
    tail too.  Returns a dict {(word, tail): Fraction}.
    """
    out = {}
    for r, a in enumerate(word):
        rev = alg.dq.reverse(a)
        s = -1 if alg.dq.is_base(a) else 1
        for q in alg.cyclic_derivative(f, rev):
            # an empty q is an idempotent replacement: the letter is dropped
            new = (word[:r] + q + word[r + 1:], tail)
            out[new] = out.get(new, Fraction(0)) + s
    return {k: v for k, v in out.items() if v}


def test_canonical_rotations():
    alg = alg_for(one_loop())
    assert alg.necklace(["e*", "e"]).word == ("e", "e*")
    alg2 = alg_for(two_loops())
    assert alg2.necklace(["b", "a", "a"]).word == ("a", "a", "b")
    assert alg2.necklace(["a", "b", "a", "b"]).word == ("a", "b", "a", "b")
    # idempotent and rotation invariance
    n = alg2.necklace(["a", "b", "b"])
    for r in range(3):
        w = n.word[r:] + n.word[:r]
        assert alg2.necklace(w) == n


def test_interned_rotations():
    alg = alg_for(two_loops())
    n = alg.necklace(["a", "b", "a*", "b"])
    for r in range(4):
        assert alg.necklace(n.word[r:] + n.word[:r]) is n
    # a rotation seen first is found again, and canonicalizes to the same object
    m = alg.necklace(["b", "b", "a"])
    assert alg.necklace(("b", "b", "a")) is m is alg.necklace(["a", "b", "b"])
    assert alg.idempotent("v") is alg.idempotent("v")
    with pytest.raises(QuiverError):
        alg.idempotent("w")


def test_interned_results():
    alg = alg_for(two_loops())
    f = alg.necklace(["a", "b"])
    g = alg.necklace(["a*", "b*"])
    assert alg.necklace(["b", "a"]) is f
    for (n,), _ in alg.bracket(f, g).terms.items():
        assert alg.necklace(n.word) is n
    ab = alg.necklace(["a", "a*", "b", "b*"])
    for (msa, msb), _ in alg.cobracket(ab).terms.items():
        for n in msa + msb:
            want = alg.idempotent(n.vertex) if n.is_idempotent() else alg.necklace(n.word)
            assert n is want
    # cutting a of (a b b) against a* of (b a*) glues the rest into (b b b);
    # the abstract edges of ms are numbered 0, 1, 2 in (a b b), then 3, 4
    H = MoyalHopf(alg)
    ms = (alg.necklace(["a", "b", "b"]), alg.necklace(["b", "a*"]))
    pieces, _ = H._glue(ms, *_layout(ms), [(0, 3 + ms[1].word.index("a*"))])
    assert len(pieces) == 1 and pieces[0] is alg.necklace(["b", "b", "b"])
    aa = alg.necklace(["a", "a*"])
    pieces, _ = H._glue((aa,), *_layout((aa,)), [(0, 1)])
    assert pieces[0] is pieces[1] is alg.idempotent("v")
    (ms,) = parse_element(alg, "(b a) & I(v) & (b* a*)").terms
    assert ms == alg.multiset([f, alg.idempotent("v"), g])
    assert all(x is y for x, y in zip(ms, alg.multiset([g, f, alg.idempotent("v")])))


def test_identity_equality_and_copies():
    assert "__eq__" not in vars(Necklace) and "__hash__" not in vars(Necklace)
    alg = alg_for(two_loops())
    necks = [alg.necklace(w) for w in (["b", "b"], ["a", "b"], ["a"], ["b"], ["a*"])]
    necks.append(alg.idempotent("v"))
    ms = alg.multiset(necks)
    assert list(ms) == sorted(necks, key=Necklace.key)
    assert [repr(n) for n in ms] == ["I(v)", "(a)", "(a*)", "(b)", "(a b)", "(b b)"]
    P = parse_element(alg, "(a a*) & (b) - 1/2 h (a b)")
    Q = copy.deepcopy(P)
    assert Q == P and Q is not P
    assert all(x is y for x, y in zip(sorted(Q.terms), sorted(P.terms)))
    n = alg.necklace(["a", "b"])
    assert copy.copy(n) is n and copy.deepcopy(n) is n


def test_two_algebras_are_distinct():
    alg1, alg2 = alg_for(two_loops()), alg_for(two_loops())
    n1, n2 = alg1.necklace(["a", "b"]), alg2.necklace(["a", "b"])
    assert n1 is not n2 and n1 != n2 and n1.key() == n2.key()
    assert alg1.idempotent("v") != alg2.idempotent("v")
    H = MoyalHopf(alg1)
    with pytest.raises(QuiverError, match="mismatched quivers"):
        H.star(alg1.single([n1]), alg2.single([n2]))
    with pytest.raises(QuiverError, match="mismatched quivers"):
        alg1.bracket_sym(alg1.single([n1]), alg2.single([n2]))


def test_canonical_requires_closed():
    alg = alg_for(Quiver(["v1", "v2"], [("a", "v1", "v2")]))
    with pytest.raises(QuiverError, match="is not closed"):
        alg.necklace(["a"])
    with pytest.raises(QuiverError, match="non-composable"):
        alg.necklace(["a", "a"])
    with pytest.raises(QuiverError, match="unknown edge 'zz'"):
        alg.necklace(["a", "zz"])
    with pytest.raises(QuiverError, match="idempotent"):
        alg.necklace([])


def test_cyclic_derivative():
    alg = alg_for(one_loop())
    assert alg.cyclic_derivative(alg.necklace(["e", "e*"]), "e") == [("e*",)]
    assert alg.cyclic_derivative(alg.necklace(["e", "e*"]), "e*") == [("e",)]
    # d(e)/de is the idempotent 1_v, the empty word
    assert alg.cyclic_derivative(alg.necklace(["e"]), "e") == [()]
    alg2 = alg_for(two_loops())
    # d(aa)/da = 2a: two occurrences each contributing the complement
    assert alg2.cyclic_derivative(alg2.necklace(["a", "a"]), "a") == [("a",), ("a",)]
    assert alg2.cyclic_derivative(alg2.necklace(["a", "b", "a*"]), "a") == [("b", "a*")]
    assert alg2.cyclic_derivative(alg2.necklace(["a", "a*"]), "b") == []
    with pytest.raises(QuiverError):
        alg2.cyclic_derivative(alg2.necklace(["a"]), "zz")


def test_double_derivation():
    alg = alg_for(two_loops())
    assert alg.double_derivation(("a",), "a") == [((), ())]
    assert alg.double_derivation(("a", "b"), "a") == [((), ("b",))]
    assert alg.double_derivation(("b", "a", "b", "a"), "a") == [
        (("b",), ("b", "a")), (("b", "a", "b"), ())]
    assert alg.double_derivation(("b", "b"), "a") == []


def test_bracket_examples():
    alg = alg_for(two_loops())
    f = alg.necklace(["a", "b"])
    g = alg.necklace(["a*", "b*"])
    br = alg.bracket(f, g)
    expected = parse_element(alg, "(a a*) + (b b*)")
    assert alg.element(br.terms) == expected
    # antisymmetry on equal arguments
    n = alg.necklace(["a", "a*"])
    assert alg.bracket(n, n).is_zero()
    # disjoint supports
    assert alg.bracket(alg.necklace(["a", "a"]), alg.necklace(["b", "b"])).is_zero()


def test_cobracket_examples():
    alg = alg_for(two_loops())
    assert alg.cobracket(alg.idempotent("v")).is_zero()
    assert alg.cobracket(alg.necklace(["a", "a*"])).is_zero()
    d = alg.cobracket(alg.necklace(["a", "a*", "b", "b*"]))
    aa = (alg.necklace(["a", "a*"]),)
    bb = (alg.necklace(["b", "b*"]),)
    iv = (alg.idempotent("v"),)
    assert d.terms == {
        (bb, iv): QPoly.one(), (aa, iv): QPoly.one(),
        (iv, bb): QPoly.const(-1), (iv, aa): QPoly.const(-1),
    }


def test_hamiltonian_action():
    alg = alg_for(one_loop())
    f = alg.necklace(["e", "e*"])
    assert hamiltonian_action(alg, f, ("e",), "v") == {(("e",), "v"): -1}
    assert hamiltonian_action(alg, f, (), "v") == {}
    alg2 = alg_for(two_loops())
    assert hamiltonian_action(alg2, alg2.necklace(["a", "a"]), ("b",), "v") == {}


def test_action_compatible_with_bracket():
    # pr(action(f, p)) = {f, pr p} on closed paths, small sweep
    alg = alg_for(two_loops())
    from nlab.sweeps import necklaces_of_length
    necks = necklaces_of_length(alg, 2) + necklaces_of_length(alg, 3)
    for f in necks:
        for g in necks:
            acted = hamiltonian_action(alg, f, g.word, g.vertex)
            got = {}
            for (w, tail), c in acted.items():
                n = alg.necklace(w) if w else alg.idempotent(tail)
                got[n] = got.get(n, 0) + c
            got = {k: QPoly.const(v) for k, v in got.items() if v}
            want = {ms[0]: c for ms, c in alg.bracket(f, g).terms.items()}
            assert got == want


def test_symplectic_form():
    alg = alg_for(two_loops())
    assert alg.symplectic_form("a", "a*") == 1
    assert alg.symplectic_form("a*", "a") == -1
    assert alg.symplectic_form("a", "b") == 0
    assert alg.symplectic_form("a", "a") == 0


def sweep_necklaces(alg, total):
    from nlab.sweeps import necklaces_of_length
    out = []
    for l in range(1, total + 1):
        out.extend(necklaces_of_length(alg, l))
    return out


def test_jacobi_and_cojacobi_small():
    # exhaustive over triples with total length <= 5 on the two-loop quiver
    alg = alg_for(two_loops())
    necks = sweep_necklaces(alg, 3)
    singles = [alg.single([n]) for n in necks]

    def br(P, R):
        return alg.bracket_sym(P, R)

    for i, x in enumerate(singles):
        for y in singles[i:]:
            assert br(x, y) + br(y, x) == alg.element()
    import itertools
    for x, y, z in itertools.combinations(singles, 3):
        total = br(br(x, y), z) + br(br(y, z), x) + br(br(z, x), y)
        assert total.is_zero()


def test_cocycle_condition_small():
    # delta([f,g]) = ad_f delta(g) - ad_g delta(f) in tensor form
    alg = alg_for(two_loops())
    necks = sweep_necklaces(alg, 3)

    def ad_tensor(f, T):
        def ad(key):
            a, b = key
            A, B = alg.element({a: QPoly.one()}), alg.element({b: QPoly.one()})
            for msa, ca in alg.bracket_sym(alg.single([f]), A).terms.items():
                yield (msa, b), ca
            for msb, cb in alg.bracket_sym(alg.single([f]), B).terms.items():
                yield (a, msb), cb

        return T.linear(ad)

    for f in necks:
        for g in necks:
            if len(f) + len(g) > 5:
                continue
            br = alg.bracket(f, g)
            lhs = br.linear(lambda ms: alg.cobracket(ms[0]).terms.items(), out=alg.tensor(2))
            rhs = ad_tensor(f, alg.cobracket(g)) - ad_tensor(g, alg.cobracket(f))
            assert lhs == rhs, (f, g)


def test_cojacobi_small():
    # (delta (x) 1) delta with cyclic sum antisymmetrized vanishes
    alg = alg_for(two_loops())
    necks = sweep_necklaces(alg, 4)
    for f in necks:
        d = alg.cobracket(f)
        triple = {}
        for (a, b), c in d.terms.items():
            da = alg.cobracket(a[0]) if len(a) == 1 else None
            if da is None:
                continue
            for (u, w), cu in da.terms.items():
                key = (u, w, b)
                triple[key] = triple.get(key, QPoly.zero()) + cu * c
        # cyclic sum of (1 + tau + tau^2) applied to (delta x 1) delta = 0
        total = {}
        for (u, w, b), c in triple.items():
            for key in ((u, w, b), (w, b, u), (b, u, w)):
                total[key] = total.get(key, QPoly.zero()) + c
        assert all(v.is_zero() for v in total.values()), f


def test_bracket_leibniz():
    alg = alg_for(two_loops())
    P = parse_element(alg, "(a a*) & (b b*)")
    R = parse_element(alg, "(a b)")
    lhs = alg.bracket_sym(P, R)
    f1 = parse_element(alg, "(a a*)")
    f2 = parse_element(alg, "(b b*)")
    rhs = alg.bracket_sym(f1, R).sym_product(f2) + \
        f1.sym_product(alg.bracket_sym(f2, R))
    assert lhs == rhs
