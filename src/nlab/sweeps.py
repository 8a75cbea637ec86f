"""Shared enumeration and property checks for the verification suites.

Exhaustive sweeps are bounded by the combined word length of all arguments
(idempotent factors carry no letters; the degenerate cases around them are
covered by dedicated unit tests).  Randomized sweeps draw from the seeded
generator `python-random-mt19937`; every failure is reported with the
offending expressions so the single case can be re-run from the CLI.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

from .grammar import format_element
from .moyal import MoyalHopf
from .necklace import NecklaceAlgebra
from .rational import QPoly

RNG_NAME = "python-random-mt19937"


def necklaces_of_length(alg: NecklaceAlgebra, length):
    """Distinct canonical necklaces with exactly `length` letters."""
    if length == 0:
        return [alg.idempotent(v) for v in alg.dq.vertices]
    out = {}
    for word in product(alg.dq.edge_order, repeat=length):
        ok = True
        for a, b in zip(word, word[1:] + word[:1]):
            if alg.dq.head[a] != alg.dq.tail[b]:
                ok = False
                break
        if not ok:
            continue
        n = alg.necklace(word)
        out[n.key()] = n
    return [out[k] for k in sorted(out)]


def multisets_up_to(alg: NecklaceAlgebra, total):
    """Necklace multisets (parts of length >= 1) with total length <= total."""
    by_len = {l: necklaces_of_length(alg, l) for l in range(1, total + 1)}
    out = [()]
    seen = {()}

    def rec(ms, rest, min_key):
        for l in range(1, rest + 1):
            for n in by_len[l]:
                if min_key is not None and n.key() < min_key:
                    continue
                ms2 = alg.multiset(ms + (n,))
                if ms2 not in seen:
                    seen.add(ms2)
                    out.append(ms2)
                rec(ms + (n,), rest - l, n.key())

    rec((), total, None)
    return out


def random_element(alg: NecklaceAlgebra, rng: random.Random, total):
    """A single random multiset term with total length <= total (length >= 1)."""
    parts = []
    rest = total
    while rest > 0:
        l = rng.randint(1, rest)
        options = necklaces_of_length(alg, l)
        if not options:
            break
        parts.append(rng.choice(options))
        rest -= l
        if rng.random() < 0.3:
            break
    if not parts:
        options = necklaces_of_length(alg, 1) or [alg.idempotent(alg.dq.vertices[0])]
        parts = [rng.choice(options)]
    return alg.single(parts)


class Check:
    """One named property; failures carry a minimal counterexample string."""

    def __init__(self, name):
        self.name = name
        self.cases = 0
        self.failure = None

    def record(self, ok, describe):
        self.cases += 1
        if not ok and self.failure is None:
            self.failure = describe()

    @property
    def ok(self):
        return self.failure is None

    def report_line(self):
        status = "pass" if self.ok else "FAIL"
        line = "%-28s %s  (%d cases)" % (self.name, status, self.cases)
        if self.failure:
            line += "\n    counterexample: %s" % self.failure
        return line


def hopf_checks(alg: NecklaceAlgebra, max_len=4, random_cases=0, random_len=6,
                seed=0, quiver_path="quiver.json"):
    """The Hopf axiom suite; returns a list of Check objects."""
    H = MoyalHopf(alg)
    singles = [] if max_len <= 0 else \
        [alg.single(ms) for ms in multisets_up_to(alg, max_len)]
    c_assoc = Check("associativity")
    c_coassoc = Check("coassociativity")
    c_counit = Check("counit axiom")
    c_bialg = Check("bialgebra compatibility")
    c_anti = Check("antipode axiom")
    c_s2 = Check("S^2 = Id and S eigenvalues")

    def rerun(op, *exprs):
        flags = " ".join('%s "%s"' % (f, format_element(e)) for f, e in
                         zip(("-l", "-r", "-s"), exprs))
        return "nlab algebra %s -q %s %s" % (op, quiver_path, flags)

    pairs = _bounded_tuples(singles, 2, max_len)
    triples = _bounded_tuples(singles, 3, max_len)

    rng = random.Random(seed)
    for _ in range(random_cases):
        triples.append((random_element(alg, rng, random_len // 3 or 1),
                        random_element(alg, rng, random_len // 3 or 1),
                        random_element(alg, rng, random_len // 3 or 1)))
        pairs.append((random_element(alg, rng, random_len // 2 or 1),
                      random_element(alg, rng, random_len // 2 or 1)))

    for (P, R, S) in triples:
        lhs = H.star(H.star(P, R), S)
        rhs = H.star(P, H.star(R, S))
        c_assoc.record(lhs == rhs, lambda P=P, R=R, S=S: rerun("star", P, R, S))

    for P in singles:
        l, r, single = H.coassoc_probe(P)
        c_coassoc.record(l == r == single, lambda P=P: rerun("coprod", P))
        d = H.coproduct(P)
        c_counit.record(d.slot(0) == P and d.slot(1) == P,
                        lambda P=P: rerun("coprod", P))
        sp = H.mul_tensor(H.antipode_slot(d, 0))
        sp2 = H.mul_tensor(H.antipode_slot(d, 1))
        unit_part = alg.element({(): H.counit(P)})
        c_anti.record(sp == unit_part and sp2 == unit_part,
                      lambda P=P: rerun("antipode", P))
        ss = H.antipode(H.antipode(P))
        eig = all(H.antipode(alg.single(ms)) ==
                  alg.single(ms, QPoly.const((-1) ** len(ms)))
                  for ms in P.terms)
        c_s2.record(ss == P and eig, lambda P=P: rerun("antipode", P))

    for (P, R) in pairs:
        lhs = H.coproduct(H.star(P, R))
        rhs = H.star_tensor(H.coproduct(P), H.coproduct(R))
        c_bialg.record(lhs == rhs, lambda P=P, R=R: rerun("star", P, R))

    return [c_assoc, c_coassoc, c_counit, c_bialg, c_anti, c_s2]


def limit_checks(alg: NecklaceAlgebra, max_len=4, random_cases=0, random_len=6,
                 seed=0, quiver_path="quiver.json"):
    """Classical-limit suite: h^0, h^1 of star and coproduct."""
    H = MoyalHopf(alg)
    singles = [] if max_len <= 0 else \
        [alg.single(ms) for ms in multisets_up_to(alg, max_len)]
    pairs = _bounded_tuples(singles, 2, max_len)
    rng = random.Random(seed)
    for _ in range(random_cases):
        pairs.append((random_element(alg, rng, random_len // 2 or 1),
                      random_element(alg, rng, random_len // 2 or 1)))
    c_h0 = Check("h^0 of star = sym product")
    c_h1 = Check("h^1 of star = bracket/2")
    c_comm = Check("commutator/h at h=0")
    c_cobr = Check("h^1 of Delta - Delta^op = delta")

    def rerun(op, *exprs):
        flags = " ".join('%s "%s"' % (f, format_element(e)) for f, e in zip(("-l", "-r"), exprs))
        return "nlab algebra %s -q %s %s" % (op, quiver_path, flags)

    for (P, R) in pairs:
        st = H.star(P, R)
        c_h0.record(st.h_coefficient(0) == P.sym_product(R),
                    lambda P=P, R=R: rerun("star", P, R))
        br = alg.bracket_sym(P, R)
        c_h1.record(st.h_coefficient(1) == br.scale(Fraction(1, 2)),
                    lambda P=P, R=R: rerun("star", P, R))
        comm = H.star(P, R) - H.star(R, P)
        c_comm.record(comm.h_coefficient(0).is_zero()
                      and comm.h_coefficient(1) == br,
                      lambda P=P, R=R: rerun("star", P, R))
    for P in singles:
        d = H.coproduct(P)
        anti = d - d.flip()
        c_cobr.record(anti.h_coefficient(1) == alg.cobracket_sym(P),
                      lambda P=P: rerun("coprod", P))
    return [c_h0, c_h1, c_comm, c_cobr]


def diagram_checks(alg: NecklaceAlgebra, dims_list, max_len=4,
                   quiver_path="quiver.json"):
    """Representation suite: trace/Moyal oracle and Weyl/height closure."""
    from .repspace import RepSpace
    H = MoyalHopf(alg)
    singles = [alg.single(ms) for ms in multisets_up_to(alg, max_len)]
    pairs = _bounded_tuples(singles, 2, max_len)
    c_tr = Check("trace intertwines star")
    c_weyl = Check("Weyl symmetrize multiplicative")
    c_phi = Check("phi_W = weyl o trace")
    c_rt = Check("weyl round trip")
    out = [c_tr, c_weyl, c_phi, c_rt]
    for dims in dims_list:
        rs = RepSpace(alg, dims)
        # Each image is computed once per pair or single and shared by the
        # checks that need it; nothing is kept across pairs.
        for (P, R) in pairs:
            tp, tr = rs.trace_rep(P), rs.trace_rep(R)
            classical = rs.moyal_star_classical(tp, tr)
            c_tr.record(rs.trace_rep(H.star(P, R)) == classical,
                        lambda P=P, R=R: 'nlab trace -q %s -l "%s" (star with "%s")'
                        % (quiver_path, format_element(P), format_element(R)))
            prod = rs.weyl_symmetrize(tp) * rs.weyl_symmetrize(tr)
            c_weyl.record(rs.weyl_symmetrize(classical) == prod,
                          lambda P=P: 'nlab weyl -q %s -l "%s"' % (quiver_path,
                                                                   format_element(P)))
        for P in singles:
            tr = rs.trace_rep(P)
            sym = rs.weyl_symmetrize(tr)
            c_phi.record(rs.phi_w_realized(P) == sym,
                         lambda P=P: 'nlab weyl -q %s -l "%s"' % (quiver_path, format_element(P)))
            c_rt.record(rs.weyl_unsymmetrize(sym) == tr,
                        lambda P=P: 'nlab weyl -q %s -l "%s"' % (quiver_path, format_element(P)))
    return out


def _total_len(P):
    return max((sum(len(n) for n in ms) for ms in P.terms), default=0)


def _bounded_tuples(singles, arity, max_len):
    """All arity-tuples of elements whose combined word length is bounded."""
    by_len = {}
    for P in singles:
        by_len.setdefault(_total_len(P), []).append(P)
    out = []

    def rec(acc, rest):
        if len(acc) == arity:
            out.append(tuple(acc))
            return
        for l, group in by_len.items():
            if l > rest:
                continue
            for P in group:
                acc.append(P)
                rec(acc, rest - l)
                acc.pop()

    rec([], max_len)
    return out
