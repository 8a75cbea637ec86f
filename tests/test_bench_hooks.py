"""The benchmark tracer must find every entry point it wraps.

A renamed or removed entry point otherwise fails only inside a traced
benchmark run.
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(ROOT)
    from nlabbench.tracing import Tracer, install
    from nlab.moyal import MoyalHopf

    original = MoyalHopf.star_ms
    tracer = Tracer()
    try:
        install(tracer)
        assert MoyalHopf.star_ms is not original
        assert MoyalHopf.star_ms.__wrapped__ is original
    finally:
        tracer.uninstall()
    assert MoyalHopf.star_ms is original


def test_traced_builds_reach_the_wrapped_entry_points(monkeypatch, tmp_path):
    # a cold build must run one base pairing scan per family, count its
    # classes through the wrapped census functions and test each class's
    # orientability once, with no RibbonGraph.canonical search, and betti()
    # must rank each nonempty boundary through the wrapped linalg.rank, or
    # the linalg.rank.* layers read zero
    monkeypatch.syspath_prepend(ROOT)
    from nlabbench.tracing import Tracer, install
    from nlab.quiver import Quiver, adjacency
    from nlab.ribbon import complexes

    pq = adjacency(Quiver(["p", "q"], [("a", "p", "q"), ("c", "p", "p")]))
    tracer = Tracer()
    try:
        install(tracer)
        for n, (g, m, max_edges, G, X) in enumerate([(1, 2, 5, None, None),
                                                     (1, 2, None, pq, ("p", "q"))]):
            tracer.reset()
            cx = complexes.RibbonComplex(g, m, 3, G=G, X=X, max_edges=max_edges,
                                         cache_dir=str(tmp_path / str(n)))
            assert tracer.stats["kernels.scan_pairings"].calls == 1, (g, m, X)
            assert tracer.counters["census.classes"] > 0, (g, m, X)
            assert tracer.stats["orientation.is_orientable"].calls == \
                tracer.counters["census.classes"], (g, m, X)
            assert "graph.canonical" not in tracer.stats, (g, m, X)
            assert tracer.counters["complexes.cache_miss"] == 1
            tracer.reset()
            cx.betti()
            nonempty = sum(1 for rows in cx.boundary.values() if rows)
            assert nonempty > 1 and tracer.stats["linalg.rank"].calls == nonempty, (g, m, X)
            assert tracer.counters["linalg.rank.entries"] > 0, (g, m, X)
    finally:
        tracer.uninstall()
