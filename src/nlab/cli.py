"""Command-line entry point.

Subcommands:
    algebra star|coprod|antipode|bracket|cobracket
    verify  hopf|limits|diagram
    trace, moyal-classical, weyl, rho
    ribbon  enum|boundary|homology|cochain
    ainf    check|cycle

Each operation has its own parser holding exactly the flags its code reads,
so a flag the operation would ignore is a usage error.  Exit codes: 0
success, 1 verification failure, 2 usage error.  Output is deterministic for
a fixed `--seed`; `--cache-dir` defaults to the NLAB_CACHE environment
variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .grammar import format_element, format_tensor, parse_element
from .moyal import MoyalHopf
from .necklace import NecklaceAlgebra
from .quiver import Quiver, QuiverError, adjacency, double
from .ribbon.graph import RibbonGraph, RibbonError


def _operations(sub, name, **kw):
    return sub.add_parser(name, **kw).add_subparsers(dest="op", required=True)


def _operation(sub, name, run):
    p = sub.add_parser(name)
    p.set_defaults(run=run)
    return p


def _add_format(p):
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_cache_dir(p):
    p.add_argument("--cache-dir", default=os.environ.get("NLAB_CACHE"))


def _add_family(p):
    p.add_argument("--genus", type=int)
    p.add_argument("--faces", type=int)
    p.add_argument("--min-valence", type=int, default=3)
    p.add_argument("--max-edges", type=int)
    p.add_argument("--labels", help="comma-separated face label multiset")


def build_parser():
    ap = argparse.ArgumentParser(prog="nlab")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ops = _operations(sub, "algebra", help="necklace algebra and Hopf operations")
    for name in ("star", "coprod", "antipode", "bracket", "cobracket"):
        p = _operation(ops, name, cmd_algebra)
        p.add_argument("-q", "--quiver", required=True)
        p.add_argument("-l", "--lhs", required=True)
        if name in ("star", "bracket"):
            p.add_argument("-r", "--rhs")

    ops = _operations(sub, "verify", help="run a verification suite")
    for name in ("hopf", "limits", "diagram"):
        p = _operation(ops, name, cmd_verify)
        p.add_argument("-q", "--quiver", required=True)
        p.add_argument("--max-len", type=int, default=4)
        if name == "diagram":
            p.add_argument("--dims", default="1,2")
        else:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--random-cases", type=int, default=0)
            p.add_argument("--random-len", type=int, default=6)
        _add_format(p)

    for name in ("trace", "moyal-classical", "weyl", "rho"):
        p = _operation(sub, name, cmd_rep)
        p.add_argument("-q", "--quiver", required=True)
        p.add_argument("-l", "--lhs", required=True)
        if name == "moyal-classical":
            p.add_argument("-r", "--rhs", required=True)
        p.add_argument("--dims", default="1")
        if name == "rho":
            p.add_argument("--heights", help="comma-separated heights per letter "
                                             "in reading order (default identity)")

    ops = _operations(sub, "ribbon")
    for name in ("enum", "boundary", "homology"):
        p = _operation(ops, name, cmd_ribbon)
        _add_family(p)
        p.add_argument("--graph", help="adjacency graph as a quiver JSON file")
        if name != "enum":
            _add_cache_dir(p)
        if name != "boundary":
            _add_format(p)
    p = _operation(ops, "cochain", cmd_ribbon_cochain)
    p.add_argument("--ribbon", help="ribbon graph JSON file")
    p.add_argument("-q", "--quiver", help="base quiver")
    p.add_argument("--mult", type=int, default=1, help="edge multiplicity N")
    p.add_argument("--necklaces", help="semicolon-separated necklace expressions")

    ops = _operations(sub, "ainf")
    p = _operation(ops, "check", cmd_ainf)
    p.add_argument("--data", required=True)
    p.add_argument("--n-max", type=int, default=4)
    _add_format(p)
    p = _operation(ops, "cycle", cmd_ainf)
    p.add_argument("--data", required=True)
    _add_family(p)
    _add_cache_dir(p)
    _add_format(p)
    return ap


def _parse_dims(alg, text):
    """At least one dimension vector: '1,2' or '1;2' gives all vertices 1, then
    2; 'v=1,w=2' is one per-vertex vector, and ';' separates several."""
    chunks = (text if "=" in text else text.replace(",", ";")).split(";")
    out = []
    try:
        for chunk in filter(None, (c.strip() for c in chunks)):
            if "=" in chunk:
                out.append({k.strip(): int(v) for k, v in
                            (part.split("=") for part in chunk.split(","))})
            else:
                out.append(dict.fromkeys(alg.dq.vertices, int(chunk)))
    except ValueError:
        raise QuiverError("cannot read --dims %r" % text) from None
    if not out:
        raise QuiverError("--dims names no dimension vector")
    return out


def cmd_algebra(args):
    alg = NecklaceAlgebra(double(Quiver.load(args.quiver)))
    H = MoyalHopf(alg)
    P = parse_element(alg, args.lhs)
    if args.op in ("star", "bracket") and not args.rhs:
        raise QuiverError("%s needs -r/--rhs" % args.op)
    if args.op == "star":
        R = parse_element(alg, args.rhs)
        print(format_element(H.star(P, R)))
    elif args.op == "bracket":
        R = parse_element(alg, args.rhs)
        print(format_element(alg.bracket_sym(P, R)))
    elif args.op == "coprod":
        print(format_tensor(H.coproduct(P)))
    elif args.op == "cobracket":
        print(format_tensor(alg.cobracket_sym(P)))
    elif args.op == "antipode":
        print(format_element(H.antipode(P)))
    return 0


def cmd_verify(args):
    from . import sweeps
    alg = NecklaceAlgebra(double(Quiver.load(args.quiver)))
    report = {}
    if args.op == "diagram":
        checks = sweeps.diagram_checks(alg, _parse_dims(alg, args.dims),
                                       max_len=args.max_len, quiver_path=args.quiver)
    else:
        report["rng"] = "%s(seed=%d)" % (sweeps.RNG_NAME, args.seed)
        suite = sweeps.hopf_checks if args.op == "hopf" else sweeps.limit_checks
        checks = suite(alg, max_len=args.max_len, random_cases=args.random_cases,
                       random_len=args.random_len, seed=args.seed,
                       quiver_path=args.quiver)
    if args.format == "json":
        report["checks"] = [{"name": c.name, "ok": c.ok, "cases": c.cases,
                             "counterexample": c.failure} for c in checks]
        print(json.dumps(report, indent=2))
    else:
        if "rng" in report:
            print("rng: %s" % report["rng"])
        for c in checks:
            print(c.report_line())
        if all(c.cases == 0 for c in checks):
            print("note: 0 cases (vacuous pass)")
    return 0 if all(c.ok for c in checks) else 1


def cmd_rep(args):
    from .repspace import RepSpace
    alg = NecklaceAlgebra(double(Quiver.load(args.quiver)))
    dims, *rest = _parse_dims(alg, args.dims)
    if rest:
        raise QuiverError("%s takes one --dims vector" % args.cmd)
    rs = RepSpace(alg, dims)
    P = parse_element(alg, args.lhs)
    if args.cmd == "trace":
        print(repr(rs.trace_rep(P)))
    elif args.cmd == "moyal-classical":
        R = parse_element(alg, args.rhs)
        print(repr(rs.moyal_star_classical(rs.trace_rep(P), rs.trace_rep(R))))
    elif args.cmd == "weyl":
        print(repr(rs.weyl_symmetrize(rs.trace_rep(P))))
    elif args.cmd == "rho":
        terms = list(P.terms)
        if len(terms) != 1:
            raise QuiverError("rho needs a single multiset term")
        ms = terms[0]
        positions = [(i, j) for i, n in enumerate(ms) for j in range(len(n.word))]
        if args.heights:
            try:
                hs = [int(x) for x in args.heights.split(",")]
            except ValueError:
                raise QuiverError("cannot read --heights %r" % args.heights) from None
        else:
            hs = list(range(1, len(positions) + 1))
        if len(hs) != len(positions):
            raise QuiverError("need %d heights" % len(positions))
        print(repr(rs.rho(ms, dict(zip(positions, hs)))))
    return 0


def _ribbon_family(args):
    """(G, X) of the family named on the command line; both None if unlabeled."""
    if args.genus is None or args.faces is None:
        raise QuiverError("need --genus and --faces")
    if not (args.graph or args.labels):
        return None, None
    if not (args.graph and args.labels):
        raise QuiverError("labeled families need both --graph and --labels")
    return (adjacency(Quiver.load(args.graph)),
            tuple(x.strip() for x in args.labels.split(",")))


def cmd_ribbon(args):
    if args.op == "enum":
        # every connected iso class, including nonorientable ones
        from .ribbon.complexes import degree_range, family_levels
        G, X = _ribbon_family(args)
        kmin, kmax = degree_range(args.genus, args.faces, args.min_valence,
                                  args.max_edges, G, X)
        out = []
        for k, classes, _ in family_levels(kmin, kmax, args.genus, args.faces,
                                           args.min_valence, G, X):
            for lg in classes:
                g = lg.graph
                out.append({
                    "edges": k, "vertices": g.num_vertices, "faces": g.num_faces,
                    "genus": g.genus(), "valences": list(g.valences()),
                    "aut_order": len(lg.auts), "orientable": lg.is_orientable(),
                    "gamma": [list(c) for c in g.vertices],
                    "iota": [list(e) for e in g.edges],
                    "labels": list(lg.face_labels),
                })
        if args.format == "json":
            print(json.dumps(out, indent=2))
        else:
            for item in out:
                print("edges=%d vertices=%d valences=%s |Aut|=%d orientable=%s labels=%s" % (
                    item["edges"], item["vertices"], item["valences"],
                    item["aut_order"], item["orientable"], item["labels"]))
        return 0
    from .ribbon.complexes import RibbonComplex, top_degree
    G, X = _ribbon_family(args)
    cx = RibbonComplex(args.genus, args.faces, args.min_valence, G=G, X=X,
                       max_edges=args.max_edges, cache_dir=args.cache_dir)
    if args.op == "boundary":
        matrices = cx.matrices
        for k in sorted(matrices):
            print("# d: degree %d -> %d  (%d x %d)" % (
                k, k - 1, len(cx.basis.get(k - 1, ())), len(cx.basis.get(k, ()))))
            for row in matrices[k]:
                print("\t".join(str(v) for v in row))
    elif args.op == "homology":
        table = cx.betti()
        if args.format == "json":
            print(json.dumps({str(k): {"dim": d, "betti": b}
                              for k, (d, b) in sorted(table.items())}, indent=2))
        else:
            print("degree\tdim\tbetti")
            for k, (d, b) in sorted(table.items()):
                print("%d\t%d\t%d" % (k, d, b))
        top = top_degree(args.genus, args.faces, args.min_valence)
        if top is None or cx.kmax < top:
            print("note: --max-edges caps the complex at degree %d: its betti is dim ker d_%d, "
                  "only an upper bound" % (cx.kmax, cx.kmax), file=sys.stderr)
    return 0


def cmd_ribbon_cochain(args):
    from .ribbon.census import canonical_labeled, label_key
    from .ribbon.cochain import GraphCochain
    if not (args.ribbon and args.quiver and args.necklaces):
        raise QuiverError("cochain needs --ribbon, -q and --necklaces")
    with open(args.ribbon) as f:
        graph, labels = RibbonGraph.from_json(f.read())
    q = Quiver.load(args.quiver).multiply(args.mult)
    alg = NecklaceAlgebra(double(q))
    labels = labels or (None,) * graph.num_faces
    coch = GraphCochain(canonical_labeled(graph, labels, label_key(labels)), alg)
    necks = []
    for chunk in args.necklaces.split(";"):
        el = parse_element(alg, chunk.strip())
        terms = list(el.terms)
        if len(terms) != 1 or len(terms[0]) != 1:
            raise QuiverError("each cochain argument must be a single necklace")
        necks.append(terms[0][0])
    print(coch.evaluate_wedge(necks))
    return 0


def cmd_ainf(args):
    from .ainf import build_cycle, check_ainf, cyclicity_check, load_data
    with open(args.data) as f:
        data = load_data(f.read())
    if args.op == "check":
        bad = check_ainf(data, args.n_max)
        cyc = cyclicity_check(data)
        if args.format == "json":
            print(json.dumps({
                "ainf_violations": [[n, list(seq), list(idx)] for n, seq, idx in bad],
                "cyclicity_violations": [[list(c), list(i)] for c, i in cyc],
            }, indent=2))
        else:
            print("A-infinity identities: %s (n <= %d)" %
                  ("pass" if not bad else "FAIL %d cases" % len(bad), args.n_max))
            print("cyclic symmetry:       %s" %
                  ("pass" if not cyc else "FAIL %d cases" % len(cyc)))
        return 0 if not (bad or cyc) else 1
    if args.genus is None or args.faces is None or not args.labels:
        raise QuiverError("cycle needs --genus, --faces, --labels")
    X = tuple(x.strip() for x in args.labels.split(","))
    cx, chains, boundaries = build_cycle(data, args.genus, args.faces, X,
                                         min_valence=args.min_valence,
                                         max_edges=args.max_edges,
                                         cache_dir=args.cache_dir)
    ok = all(not any(v) for v in boundaries.values())
    if args.format == "json":
        print(json.dumps({
            "dims": {str(k): len(b) for k, b in cx.basis.items()},
            "chains": {str(k): [str(c) for c in v] for k, v in chains.items()},
            "boundary_zero": ok,
        }, indent=2))
    else:
        for k in sorted(chains):
            print("degree %d: %s" % (k, " ".join(str(c) for c in chains[k]) or "(empty)"))
        print("boundary of every chain is zero: %s" % ok)
    return 0 if ok else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (QuiverError, RibbonError, OSError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
