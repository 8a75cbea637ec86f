"""The workloads: inputs, set-up, one timed pass, and output checks.

Each workload drives the public entry points that the `nlab` command
calls, through module attributes looked up at call time so that a traced
run sees its wrappers.  A pass is a list of operations (one check suite,
one complex or one cycle); an operation fails on an exception or when its
output disagrees with an oracle from `oracles`, which shares no code with
nlab.  Oracles run outside the timed region.
"""

from __future__ import annotations

import os
import random
import shutil
import tempfile
import traceback
from collections import namedtuple
from fractions import Fraction

import oracles

Op = namedtuple("Op", "name ok detail")

# quivers as (vertices, edges (id, tail, head)); the inputs of the sweeps
QUIVERS = {
    "one-loop": (["v"], [("e", "v", "v")]),
    "two-loop": (["v"], [("a", "v", "v"), ("b", "v", "v")]),
    "two-vertex": (["v1", "v2"], [("a", "v1", "v2"), ("c", "v1", "v1")]),
}


def _failure(exc):
    return "%s: %s\n%s" % (type(exc).__name__, exc, traceback.format_exc(limit=-3))


def _algebra(name):
    from nlab.necklace import NecklaceAlgebra
    from nlab.quiver import Quiver, double
    vertices, edges = QUIVERS[name]
    return NecklaceAlgebra(double(Quiver(vertices, edges)))


def _examples(root, name):
    with open(os.path.join(root, "examples-data", name)) as f:
        return f.read()


class Workload:
    """Interface shared by the workloads; run.py holds the measuring loop."""

    name = ""
    why = ""

    def setup(self, seed, work, root):
        """Inputs, objects and warm-up; timed as set-up."""
        raise NotImplementedError

    def prepare(self, state):
        """Oracle values needed by check(); untimed."""

    def run_pass(self, state):
        """One timed pass; returns the outputs of every operation."""
        raise NotImplementedError

    def check(self, state, outputs):
        """One Op per operation of the pass."""
        raise NotImplementedError

    def counts(self, outputs):
        """Deterministic behaviour counts of one pass."""
        return {}

    def discard(self, state, outputs):
        """Remove what a pass left on disk."""

    def close(self, state):
        """Remove what set-up left on disk."""


# -- algebra sweeps ---------------------------------------------------------------


def _sweep_op(alg, suite, **kw):
    from nlab import sweeps
    fn = {"hopf": sweeps.hopf_checks, "limits": sweeps.limit_checks,
          "diagram": sweeps.diagram_checks}[suite]
    try:
        return fn(alg, **kw), None
    except Exception as exc:  # an operation boundary: record and go on
        return None, _failure(exc)


def _check_suite(name, checks, err, expected, spot):
    if err is not None:
        return Op(name, False, err)
    bad = [c for c in checks if not c.ok]
    if bad:
        return Op(name, False, "; ".join("%s: %s" % (c.name, c.failure) for c in bad))
    cases = [c.cases for c in checks]
    if cases != expected:
        return Op(name, False, "cases %s, oracle expects %s" % (cases, expected))
    if spot:
        return Op(name, False, spot)
    return Op(name, True, "")


def _suite_counts(outputs):
    out = {}
    for name, checks, err in outputs:
        for c in checks or ():
            out["%s.%s.cases" % (name, c.name)] = c.cases
    return out


class HopfSweep(Workload):
    name = "hopf-sweep"
    why = ("Hopf and classical-limit suites, exhaustive to length 4 plus seeded "
           "length-6 elements: star_ms/coproduct_ms reuse and QPoly scalars")
    USES = ("two-loop", "two-vertex")
    MAX_LEN = 4
    RANDOM_CASES = 40
    RANDOM_LEN = 6

    def setup(self, seed, work, root):
        from nlab import sweeps
        rng = random.Random(seed)
        ops = []
        algs = {}
        for q in self.USES:
            algs[q] = alg = _algebra(q)
            for suite in ("hopf", "limits"):
                ops.append((q, suite, rng.randrange(2 ** 31)))
            # warm-up: the same suites, one length shorter
            sweeps.hopf_checks(alg, max_len=self.MAX_LEN - 1)
            sweeps.limit_checks(alg, max_len=self.MAX_LEN - 1)
        return {"algs": algs, "ops": ops, "seed": seed}

    def prepare(self, state):
        from nlab.moyal import MoyalHopf
        from nlab.rational import QPoly
        state["sizes"] = {q: oracles.sweep_sizes(QUIVERS[q][1], self.MAX_LEN)
                          for q in self.USES}
        spot = {}
        for q in self.USES:
            alg = state["algs"][q]
            H = MoyalHopf(alg)
            words = [w for n in (1, 2) for w in oracles.necklace_words(QUIVERS[q][1], n)]
            problems = []
            quantum = False
            for w1 in words:
                for w2 in words:
                    n1, n2 = alg.necklace(w1), alg.necklace(w2)
                    S = H.star(alg.single([n1]), alg.single([n2]))
                    if S.h_coefficient(0) != alg.single([n1, n2]):
                        problems.append("h^0 of %s * %s is not their product" % (w1, w2))
                    quantum = quantum or any(c.degree() > 0 for c in S.terms.values())
            if not quantum:
                problems.append("star product has no h terms on necklaces of length <= 2")
            spot[q] = "; ".join(problems[:3])
        # the worked value (e e*) * (e e*) = (e e*)&(e e*) - 1/4 h^2 I(v)&I(v)
        alg = _algebra("one-loop")
        n, idem = alg.necklace(("e", "e*")), alg.idempotent("v")
        want = alg.single([n, n]) + alg.single([idem, idem], QPoly.h_power(2, Fraction(-1, 4)))
        if MoyalHopf(alg).star(alg.single([n]), alg.single([n])) != want:
            for q in spot:
                spot[q] = (spot[q] + "; " if spot[q] else "") + "worked star value differs"
        state["spot"] = spot

    def run_pass(self, state):
        out = []
        kw = {"max_len": self.MAX_LEN, "random_cases": self.RANDOM_CASES,
              "random_len": self.RANDOM_LEN}
        for q, suite, s in state["ops"]:
            checks, err = _sweep_op(state["algs"][q], suite, seed=s, **kw)
            out.append(("%s/%s" % (q, suite), checks, err))
        return out

    def check(self, state, outputs):
        ops = []
        r = self.RANDOM_CASES
        for name, checks, err in outputs:
            q, suite = name.split("/")
            singles, pairs, triples = state["sizes"][q]
            if suite == "hopf":
                expected = [triples + r, singles, singles, pairs + r, singles, singles]
            else:
                expected = [pairs + r, pairs + r, pairs + r, singles]
            ops.append(_check_suite(name, checks, err, expected, state["spot"][q]))
        return ops

    def counts(self, outputs):
        return _suite_counts(outputs)


class TraceOracle(Workload):
    name = "trace-oracle"
    why = ("diagram suite at dims 1 and 2: trace_rep, Weyl maps and the classical "
           "Moyal product dominate; star_ms runs once per pair")
    USES = ("one-loop", "two-loop")
    DIMS = (1, 2)
    MAX_LEN = 4

    def setup(self, seed, work, root):
        from nlab import sweeps
        algs = {}
        for q in self.USES:
            algs[q] = alg = _algebra(q)
            sweeps.diagram_checks(alg, self._dims_list(alg), max_len=self.MAX_LEN - 1)
        return {"algs": algs, "seed": seed}

    def _dims_list(self, alg):
        return [{v: d for v in alg.dq.vertices} for d in self.DIMS]

    def prepare(self, state):
        from nlab.repspace import RepSpace
        state["sizes"] = {q: oracles.sweep_sizes(QUIVERS[q][1], self.MAX_LEN)
                          for q in self.USES}
        rng = random.Random(state["seed"])
        spot = {}
        for q in self.USES:
            vertices, edges = QUIVERS[q]
            alg = state["algs"][q]
            problems = []
            for dims in self._dims_list(alg):
                rs = RepSpace(alg, dims)
                mats = oracles.random_matrices(edges, dims, rng)
                for v in vertices:
                    got = oracles.evaluate_trace_polynomial(
                        rs.trace_rep(alg.single([alg.idempotent(v)])), mats)
                    if got != dims[v]:
                        problems.append("trace of I(%s) at %s is %s" % (v, dims, got))
                for length in range(1, self.MAX_LEN + 1):
                    for w in oracles.necklace_words(edges, length):
                        got = oracles.evaluate_trace_polynomial(
                            rs.trace_rep(alg.single([alg.necklace(w)])), mats)
                        want = oracles.trace_of_word(w, mats)
                        if got != want:
                            problems.append("trace of %s at %s: %s, matrix product %s"
                                            % (" ".join(w), dims, got, want))
            spot[q] = "; ".join(problems[:3])
        state["spot"] = spot

    def run_pass(self, state):
        out = []
        for q in self.USES:
            alg = state["algs"][q]
            checks, err = _sweep_op(alg, "diagram", dims_list=self._dims_list(alg),
                                    max_len=self.MAX_LEN)
            out.append(("%s/diagram" % q, checks, err))
        return out

    def check(self, state, outputs):
        ops = []
        k = len(self.DIMS)
        for name, checks, err in outputs:
            q = name.split("/")[0]
            singles, pairs, _ = state["sizes"][q]
            expected = [k * pairs, k * pairs, k * singles, k * singles]
            ops.append(_check_suite(name, checks, err, expected, state["spot"][q]))
        return ops

    def counts(self, outputs):
        return _suite_counts(outputs)


# -- ribbon graph homology ---------------------------------------------------------------


def _pq_graph():
    from nlab.quiver import Quiver, adjacency
    return adjacency(Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")]))


class RibbonHomology(Workload):
    name = "ribbon-homology"
    why = ("cold complex builds with their cache writes: the pairing scan, "
           "canonical forms, boundary assembly and exact rank")
    # (name, genus, faces, max_edges, labels over the p-q graph or None)
    WARMUP = ("(0,4)", 0, 4, None, None)
    FAMILIES = [
        WARMUP,
        ("(1,2)<=7", 1, 2, 7, None),
        ("(0,5)<=5", 0, 5, 5, None),
        ("(2,1)<=5", 2, 1, 5, None),
        ("(1,3)<=5", 1, 3, 5, None),
        ("(0,6)<=5", 0, 6, 5, None),
        ("(1,2,{p,q})", 1, 2, None, ("p", "q")),
    ]

    def setup(self, seed, work, root):
        state = {"work": work, "G": _pq_graph(), "verdicts": {}}
        # warm-up: one cold build of the smallest full family
        d = tempfile.mkdtemp(dir=work)
        try:
            self._complex(state, self.WARMUP, d)
        finally:
            shutil.rmtree(d)
        return state

    def _complex(self, state, fam, cache_dir):
        from nlab.ribbon import complexes
        _, g, m, max_edges, labels = fam
        G = state["G"] if labels else None
        cx = complexes.RibbonComplex(g, m, 3, G=G, X=labels, max_edges=max_edges,
                                     cache_dir=cache_dir)
        cx.check_d_squared()
        return cx, cx.betti()

    def run_pass(self, state):
        out = []
        for fam in self.FAMILIES:
            d = tempfile.mkdtemp(dir=state["work"])
            try:
                cx, table = self._complex(state, fam, d)
                out.append((fam[0], cx, table, None, d))
            except Exception as exc:  # an operation boundary: record and go on
                out.append((fam[0], None, None, _failure(exc), d))
        return out

    def check(self, state, outputs):
        ops = []
        for name, cx, table, err, _ in outputs:
            if err is not None:
                ops.append(Op(name, False, err))
                continue
            seen = state["verdicts"].get(name)
            if seen is None or seen[0] != (cx.matrices, table):
                seen = ((cx.matrices, table), self._verdict(cx, table))
                state["verdicts"][name] = seen
            ops.append(Op(name, *seen[1]))
        return ops

    @staticmethod
    def _verdict(cx, table):
        from nlab.linalg import rank
        problems = []
        mats = cx.matrices
        true_rank = {}
        for k, mat in sorted(mats.items()):
            rows, cols = len(mat), len(mat[0]) if mat else 0
            true_rank[k] = oracles.rank_exact(mat)
            got = rank(mat) if mat else 0
            if got != true_rank[k]:
                problems.append("degree %d: rank %d, oracle %d" % (k, got, true_rank[k]))
            if got > min(rows, cols):
                problems.append("degree %d: rank %d > min(%d, %d)" % (k, got, rows, cols))
            prev = mats.get(k - 1)
            if prev and mat and not oracles.product_is_zero(prev, mat):
                problems.append("d^2 != 0 at degree %d" % k)
        for k, (dim, betti) in sorted(table.items()):
            want = dim - true_rank.get(k, 0) - true_rank.get(k + 1, 0)
            if betti < 0:
                problems.append("degree %d: betti %d < 0" % (k, betti))
            if betti != want:
                problems.append("degree %d: betti %d, oracle %d" % (k, betti, want))
        return (not problems, "; ".join(problems))

    def counts(self, outputs):
        out = {}
        for name, cx, table, _, _ in outputs:
            for k, (dim, betti) in sorted((table or {}).items()):
                out["%s.dim[%d]" % (name, k)] = dim
                out["%s.betti[%d]" % (name, k)] = betti
        return out

    def discard(self, state, outputs):
        for item in outputs:
            shutil.rmtree(item[-1], ignore_errors=True)


class RankDefects(RibbonHomology):
    """The complexes on which `linalg.rank` is wrong at the seed commit.

    Same operations and oracle as ribbon-homology.  Kept apart so that the
    timed workloads stay ones on which every operation succeeds, while
    `--workload all` still runs these and names each failing complex.
    """

    name = "rank-defects"
    why = ("(0,5)<=6, (2,1)<=6 and (0,4,{p,p,q,q}): the complexes that "
           "the linalg.rank defect fails")
    FAMILIES = [
        ("(0,5)<=6", 0, 5, 6, None),
        ("(2,1)<=6", 2, 1, 6, None),
        ("(0,4,{p,p,q,q})", 0, 4, None, ("p", "p", "q", "q")),
    ]


# -- A-infinity cycles ---------------------------------------------------------------------


class AinfCycle(Workload):
    name = "ainf-cycle"
    why = ("Kontsevich cycles over generated Z/n data from a warm complex cache: "
           "WeightEngine.weight and check_ainf, enumeration only in set-up")
    N = 4
    N_MAX = 5
    CYCLES = [("Z/4 (0,4)", 0, 4), ("Z/4 (1,2)", 1, 2)]
    MU_LABELS = ("p", "p", "q", "q")

    def setup(self, seed, work, root):
        from nlab import ainf
        from nlab.ribbon.complexes import RibbonComplex
        zn_blob = oracles.cyclic_group_algebra(self.N)
        mu_blob = _examples(root, "matrix_units.json")
        zn, mu = ainf.load_data(zn_blob), ainf.load_data(mu_blob)
        cache = tempfile.mkdtemp(dir=work)
        # warm the complex cache that every timed pass reads
        for _, g, m in self.CYCLES:
            RibbonComplex(g, m, 3, G=zn.G, X=("v",) * m, cache_dir=cache)
        RibbonComplex(0, 4, 3, G=mu.G, X=self.MU_LABELS, cache_dir=cache)
        ainf.check_ainf(zn, 3)
        return {"zn": zn_blob, "mu": mu_blob, "cache": cache, "root": root}

    def prepare(self, state):
        from nlab import ainf
        unit = ainf.load_data(_examples(state["root"], "unit.json"))
        state["unit"] = {}
        for name, g, m in self.CYCLES:
            cx, chains, _ = ainf.build_cycle(unit, g, m, ("v",) * m,
                                             cache_dir=state["cache"])
            state["unit"][name] = (cx, chains, self._magnitude_problems(cx, chains))

    @staticmethod
    def _magnitude_problems(cx, chains):
        problems = []
        for k, basis in sorted(cx.basis.items()):
            for i, lg in enumerate(basis):
                want = oracles.unit_weight_magnitude(lg.graph.valences(), len(lg.auts))
                if abs(chains[k][i]) != want:
                    problems.append("degree %d graph %d: |coefficient| %s, oracle %s"
                                    % (k, i, abs(chains[k][i]), want))
        return problems

    @staticmethod
    def _boundary_problems(cx, chains, boundaries):
        problems = []
        for k, vec in sorted(boundaries.items()):
            if any(vec):
                problems.append("degree %d: boundary is not zero" % k)
        for k, mat in sorted(cx.matrices.items()):
            if mat and chains.get(k) and any(oracles.mat_vec(mat, chains[k])):
                problems.append("degree %d: oracle boundary is not zero" % k)
        return problems

    def run_pass(self, state):
        from nlab import ainf
        out = []
        try:
            zn = ainf.load_data(state["zn"])
            mu = ainf.load_data(state["mu"])
        except Exception as exc:  # an operation boundary: record and go on
            err = _failure(exc)
            return [(name, None, err) for name, _, _ in self.CYCLES] + \
                [("matrix units (0,4,{p,p,q,q})", None, err), ("check_ainf", None, err)]
        for name, g, m in self.CYCLES:
            out.append((name,) + self._call(ainf.build_cycle, zn, g, m, ("v",) * m,
                                            cache_dir=state["cache"]))
        out.append(("matrix units (0,4,{p,p,q,q})",) + self._call(
            ainf.build_cycle, mu, 0, 4, self.MU_LABELS, cache_dir=state["cache"]))
        out.append(("check_ainf",) + self._call(
            lambda: (ainf.check_ainf(zn, self.N_MAX), ainf.cyclicity_check(zn))))
        return out

    @staticmethod
    def _call(fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs), None
        except Exception as exc:  # an operation boundary: record and go on
            return None, _failure(exc)

    def check(self, state, outputs):
        ops = []
        scale = {name: oracles.cyclic_scaling(g, m, self.N) for name, g, m in self.CYCLES}
        for name, result, err in outputs:
            if err is not None:
                ops.append(Op(name, False, err))
                continue
            if name == "check_ainf":
                bad, cyc = result
                problems = (["%d A-infinity violations" % len(bad)] if bad else []) + \
                    (["%d cyclicity violations" % len(cyc)] if cyc else [])
            else:
                cx, chains, boundaries = result
                problems = self._boundary_problems(cx, chains, boundaries)
                if name in scale:
                    ucx, uchains, unit_problems = state["unit"][name]
                    problems += ["unit data " + p for p in unit_problems]
                    same_basis = all([lg.code for lg in cx.basis[k]] ==
                                     [lg.code for lg in ucx.basis.get(k, ())]
                                     for k in cx.basis)
                    if not same_basis:
                        problems.append("basis differs from the unit-data basis")
                    elif any(chains[k][i] != scale[name] * uchains[k][i]
                             for k in chains for i in range(len(chains[k]))):
                        problems.append("coefficients are not %d x the unit-data ones"
                                        % scale[name])
                else:
                    problems += self._magnitude_problems(cx, chains)
            ops.append(Op(name, not problems, "; ".join(problems[:3])))
        return ops

    def counts(self, outputs):
        out = {}
        for name, result, _ in outputs:
            if result is None:
                continue
            if name == "check_ainf":
                out["check_ainf.violations"] = len(result[0]) + len(result[1])
                continue
            cx, chains, _ = result
            for k, vec in sorted(chains.items()):
                out["%s.dim[%d]" % (name, k)] = len(vec)
                out["%s.nonzero[%d]" % (name, k)] = sum(1 for c in vec if c)
        return out

    def close(self, state):
        shutil.rmtree(state["cache"], ignore_errors=True)


WORKLOADS = {w.name: w for w in (HopfSweep, TraceOracle, RibbonHomology, AinfCycle,
                                  RankDefects)}
