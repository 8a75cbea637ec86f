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
