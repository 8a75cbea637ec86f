"""The sweep enumeration against a brute-force reference spelled out here,
and the suites against planted faults."""

import inspect
from itertools import combinations_with_replacement, product

import pytest

from nlab import sweeps
from nlab.grammar import format_element
from nlab.moyal import MoyalHopf
from nlab.necklace import Necklace, NecklaceAlgebra
from nlab.quiver import Quiver, double, one_loop, two_loops, two_vertex
from nlab.rational import QPoly, accumulate
from nlab.sweeps import multisets_up_to

QUIVERS = {
    "one-loop": one_loop(),
    "two-loop": two_loops(),
    "two-vertex": two_vertex(),
    "three-edge-two-vertex": Quiver(["p", "q"], [("a", "p", "q"), ("b", "q", "p"),
                                                 ("c", "p", "p")]),
}


def _necklaces_up_to(alg, total):
    """Every necklace of 1..total letters, from every closed word."""
    dq = alg.dq
    out = set()
    for n in range(1, total + 1):
        for word in product(dq.edge_order, repeat=n):
            if all(dq.head[a] == dq.tail[b] for a, b in zip(word, word[1:] + word[:1])):
                out.add(alg.necklace(word))
    return out


def _reference(alg, total):
    """Every sorted tuple of necklaces with total length <= total."""
    pool = sorted(_necklaces_up_to(alg, total), key=Necklace.key)
    out = set()
    for k in range(total + 1):
        for parts in combinations_with_replacement(pool, k):
            if sum(len(n) for n in parts) <= total:
                out.add(tuple(sorted(parts, key=Necklace.key)))
    return out


@pytest.mark.parametrize("name", sorted(QUIVERS))
def test_multisets_up_to_matches_brute_force(name):
    alg = NecklaceAlgebra(double(QUIVERS[name]))
    for total in range(5):
        got = multisets_up_to(alg, total)
        assert len(got) == len(set(got)), (name, total)
        assert set(got) == _reference(alg, total), (name, total)
        assert all(list(ms) == sorted(ms, key=Necklace.key) for ms in got), (name, total)


def _drawn(monkeypatch, suite, **kw):
    """The random elements a suite draws, formatted, in drawing order."""
    out = []
    draw = sweeps.random_element

    def recording(*args):
        P = draw(*args)
        out.append(format_element(P))
        return P

    monkeypatch.setattr(sweeps, "random_element", recording)
    suite(NecklaceAlgebra(double(two_loops())), max_len=0, seed=0, **kw)
    return out


def test_seeded_draws_are_pinned(monkeypatch):
    # the seeded random cases of both suites on the two-loop quiver: three
    # triples and pairs of the Hopf suite, then four pairs of the classical
    # limit at random_len 12, which draws from lengths 1..6
    assert _drawn(monkeypatch, sweeps.hopf_checks, random_cases=3) == [
        "(a* b*)", "(a* b*)", "(b b)", "(a*)", "(b)&(b)",
        "(b)&(b)", "(a)&(b*)", "(a)&(a)", "(a*)&(a b*)", "(a*)&(b*)",
        "(b b*)", "(a a*)", "(a a*)", "(a a* b*)", "(a* b b*)"]
    assert _drawn(monkeypatch, sweeps.limit_checks, random_cases=4, random_len=12) == [
        "(a* b a* b)", "(b*)&(a b b* b* a*)", "(b b*)", "(b)&(a a*)&(a* b b*)",
        "(b)&(b)&(a a)&(b b*)", "(a a a a b*)", "(a b*)&(a a a a)", "(a a a* a* a* a*)"]


# -- planted faults: the suites reuse stars and coproducts within one call,
# -- and every check must still compare two independently computed sides

def _plant(monkeypatch, method, bad_args, extra_key):
    """Add h/2 times extra_key to the one table MoyalHopf.method(*bad_args),
    whether or not a call spells out the defaults."""
    orig = getattr(MoyalHopf, method)
    sig = inspect.signature(orig)

    def planted(self, *args):
        table = orig(self, *args)
        bound = sig.bind(self, *args)
        bound.apply_defaults()
        if bound.args[1:] == bad_args:
            table = accumulate([*table.items(), (extra_key, QPoly.halves({1: 1}))])
        return table

    monkeypatch.setattr(MoyalHopf, method, planted)


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_planted_star_fault_fails_commutator_and_associativity(monkeypatch):
    alg = NecklaceAlgebra(double(one_loop()))
    e, es = alg.necklace(["e"]), alg.necklace(["e*"])
    assert _failed(sweeps.limit_checks(alg, max_len=3)) == set()
    assert _failed(sweeps.hopf_checks(alg, max_len=3)) == set()
    # one ordering only: star_ms((e*), (e)) is wrong, star_ms((e), (e*)) is not
    _plant(monkeypatch, "star_ms", ((es,), (e,)), ())
    assert "commutator/h at h=0" in _failed(sweeps.limit_checks(alg, max_len=3))
    assert "associativity" in _failed(sweeps.hopf_checks(alg, max_len=3))


def test_planted_coproduct_fault_fails_coassociativity_and_bialgebra(monkeypatch):
    alg = NecklaceAlgebra(double(one_loop()))
    e, es = alg.necklace(["e"]), alg.necklace(["e*"])
    _plant(monkeypatch, "coproduct_ms", ((e, es), 2), ((), ()))
    failed = _failed(sweeps.hopf_checks(alg, max_len=3))
    assert {"coassociativity", "bialgebra compatibility"} <= failed, failed
