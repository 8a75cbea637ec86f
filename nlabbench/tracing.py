"""Tracing harness: per-layer self time and work counts from the outside.

Wrappers are installed on the public entry points of each nlab layer (and
on every module that imported such a function by name), so the package
itself carries no instrumentation.  Coarse calls record a span (id, name,
start, end, parent span id); hot calls only aggregate calls, self time
and, where the layer caches by key, the number of distinct keys per
owning instance.  Scalar arithmetic is counted, never timed: timing a
microsecond call would distort it.  Self time is a call's duration minus
the durations of the wrapped calls made inside it.
"""

from __future__ import annotations

import time
import weakref

# (metric name, unit) reported by a traced run, in BENCHMARK.json order
PER_LAYER = [
    ("sweeps.cases", "count"),
    ("sweeps.enumerate.self_s", "s"),
    ("moyal.star.self_s", "s"),
    ("moyal.star_ms.calls", "count"),
    ("moyal.star_ms.distinct", "count"),
    ("moyal.star_ms.self_s", "s"),
    ("moyal.coproduct_ms.calls", "count"),
    ("moyal.coproduct_ms.distinct", "count"),
    ("moyal.coproduct_ms.self_s", "s"),
    ("moyal.star_tensor.self_s", "s"),
    ("necklace.bracket_sym.calls", "count"),
    ("necklace.bracket_sym.self_s", "s"),
    ("necklace.cobracket_sym.calls", "count"),
    ("necklace.cobracket_sym.self_s", "s"),
    ("rational.qpoly_mul.calls", "count"),
    ("rational.qpoly_add.calls", "count"),
    ("repspace.trace_rep.calls", "count"),
    ("repspace.trace_rep.distinct", "count"),
    ("repspace.trace_rep.self_s", "s"),
    ("repspace.trace_necklace.calls", "count"),
    ("repspace.trace_necklace.distinct", "count"),
    ("repspace.trace_necklace.self_s", "s"),
    ("repspace.moyal_star_classical.calls", "count"),
    ("repspace.moyal_star_classical.self_s", "s"),
    ("repspace.weyl_symmetrize.calls", "count"),
    ("repspace.weyl_symmetrize.self_s", "s"),
    ("repspace.weyl_unsymmetrize.self_s", "s"),
    ("repspace.phi_w_realized.self_s", "s"),
    ("kernels.scan_pairings.calls", "count"),
    ("kernels.scan_pairings.self_s", "s"),
    ("kernels.pairings_scanned", "count"),
    ("kernels.scan_yield", "ratio"),
    ("census.iso_classes.self_s", "s"),
    ("census.labeled_classes.self_s", "s"),
    ("census.unlabeled_classes.self_s", "s"),
    ("census.classes", "count"),
    ("graph.canonical.calls", "count"),
    ("graph.canonical.self_s", "s"),
    ("orientation.is_orientable.calls", "count"),
    ("orientation.is_orientable.self_s", "s"),
    ("complexes.build.self_s", "s"),
    ("complexes.basis_total", "count"),
    ("complexes.check_d_squared.self_s", "s"),
    ("complexes.betti.self_s", "s"),
    ("complexes.cache_hit", "count"),
    ("complexes.cache_miss", "count"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.rank.entries", "count"),
    ("ainf.weight.calls", "count"),
    ("ainf.weight.self_s", "s"),
    ("ainf.weight.nonzero", "ratio"),
    ("ainf.build_cycle.self_s", "s"),
    ("ainf.check_ainf.self_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
]


def perfect_pairings(n):
    """(n-1)!!: the number of perfect pairings of n darts (0 for odd n)."""
    if n % 2:
        return 0
    out = 1
    for k in range(n - 1, 0, -2):
        out *= k
    return out


class Stat:
    __slots__ = ("calls", "self_s", "distinct")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.distinct = 0


class Tracer:
    """Spans and aggregates for one process; written out by the caller."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id)
        self.stats = {}          # name -> Stat
        self.counters = {}       # name -> int
        self._frames = []        # [start, child seconds] per open wrapped call
        self._span_ids = []      # open coarse span ids
        self._seen = {}          # name -> {owner instance: set of keys}
        self._installed = []     # (owner, attr, original)
        self._origin = time.perf_counter()

    # -- aggregation ---------------------------------------------------------

    def stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def add(self, name, k=1):
        self.counters[name] = self.counters.get(name, 0) + k

    def reset(self):
        """Start a fresh per-pass aggregate; spans are kept for the run."""
        self.stats.clear()
        self.counters.clear()
        self._seen.clear()

    def snapshot(self):
        """Per-pass aggregates as plain data."""
        out = dict(self.counters)
        for name, st in self.stats.items():
            out[name + ".calls"] = st.calls
            out[name + ".self_s"] = st.self_s
            out[name + ".distinct"] = st.distinct
        return out

    # -- wrappers --------------------------------------------------------------

    def wrap(self, name, fn, coarse=False, key=None, after=None):
        """Timed wrapper: self time, calls, distinct keys, optional span."""
        tracer = self
        stat_name = name
        frames = self._frames
        span_ids = self._span_ids
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if key is not None:
                tracer._note_key(stat_name, args, kwargs, key)
            sid = None
            if coarse:
                sid = len(tracer.spans)
                tracer.spans.append(None)
                span_ids.append(sid)
            frame = [clock(), 0.0]
            frames.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                frames.pop()
                dur = end - frame[0]
                st = tracer.stat(stat_name)
                st.calls += 1
                st.self_s += dur - frame[1]
                if frames:
                    frames[-1][1] += dur
                if coarse:
                    span_ids.pop()
                    parent = span_ids[-1] if span_ids else None
                    tracer.spans[sid] = (sid, stat_name, frame[0] - tracer._origin,
                                         end - tracer._origin, parent)
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counting(self, name, fn):
        """Call counter only, for scalar arithmetic."""
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[name] = counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_key(self, name, args, kwargs, key):
        owner, k = key(args, kwargs)
        per_owner = self._seen.get(name)
        if per_owner is None:
            per_owner = self._seen[name] = weakref.WeakKeyDictionary()
        keys = per_owner.get(owner)
        if keys is None:
            keys = per_owner[owner] = set()
        if k not in keys:
            keys.add(k)
            self.stat(name).distinct += 1

    # -- installation ------------------------------------------------------------

    def patch(self, owners, attr, make):
        """Replace owner.attr with make(original) on every owner given.

        All owners must hold the same original object (a function imported
        by name into several modules); one wrapper serves all of them.
        """
        original = owners[0].__dict__[attr]
        wrapper = make(original)
        for owner in owners:
            if owner.__dict__[attr] is not original:
                raise RuntimeError("%s.%s is not the shared original"
                                   % (getattr(owner, "__name__", owner), attr))
            self._installed.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


# -- the nlab layers ----------------------------------------------------------------


def _instance_key(fn):
    return lambda args, kwargs: (args[0], fn(args, kwargs))


def _after_cases(tracer, args, kwargs, checks):
    tracer.add("sweeps.cases", sum(c.cases for c in checks))


def _after_scan(tracer, args, kwargs, found):
    tracer.add("kernels.pairings_scanned", perfect_pairings(sum(args[0])))
    tracer.add("kernels.classes_found", len(found))


def _after_classes(tracer, args, kwargs, classes):
    # labeled_classes(k, v, G, X, genus=..) or unlabeled_as_classes(k, v, genus=.., faces=..)
    family = "g=%s,m=%s" % (kwargs.get("genus"), kwargs.get("faces"))
    if len(args) > 3:
        family = "g=%s,X=%s" % (kwargs.get("genus"), ".".join(map(str, args[3])))
    tracer.add("census.classes", len(classes))
    tracer.add("census.classes[%s,k=%d]" % (family, args[0]), len(classes))


def _after_complex(tracer, args, kwargs, _none):
    cx = args[0]
    tracer.add("complexes.basis_total", sum(len(b) for b in cx.basis.values()))


def _after_rank(tracer, args, kwargs, _rank):
    rows = args[0]
    tracer.add("linalg.rank.entries", len(rows) * (len(rows[0]) if rows else 0))


def _after_weight(tracer, args, kwargs, w):
    if w:
        tracer.add("ainf.weight.nonzero_count")


def install(tracer):
    """Wrap every measured nlab entry point; undo with tracer.uninstall()."""
    from nlab import ainf, kernels, linalg, moyal, necklace, rational, repspace, sweeps
    from nlab.ribbon import census, complexes, graph, orientation

    def timed(name, coarse=False, key=None, after=None):
        return lambda fn: tracer.wrap(name, fn, coarse=coarse, key=key, after=after)

    # sweeps
    for fn in ("hopf_checks", "limit_checks", "diagram_checks"):
        tracer.patch([sweeps], fn, timed("sweeps." + fn, coarse=True, after=_after_cases))
    tracer.patch([sweeps], "multisets_up_to", timed("sweeps.enumerate"))
    tracer.patch([sweeps], "necklaces_of_length", timed("sweeps.enumerate"))
    # moyal
    H = moyal.MoyalHopf
    tracer.patch([H], "star", timed("moyal.star"))
    tracer.patch([H], "star_ms", timed(
        "moyal.star_ms", key=_instance_key(lambda a, k: (a[1], a[2]))))
    tracer.patch([H], "coproduct_ms", timed(
        "moyal.coproduct_ms",
        key=_instance_key(lambda a, k: (a[1], a[2] if len(a) > 2 else k.get("slots", 2)))))
    tracer.patch([H], "star_tensor", timed("moyal.star_tensor"))
    # necklace
    A = necklace.NecklaceAlgebra
    tracer.patch([A], "bracket_sym", timed("necklace.bracket_sym"))
    tracer.patch([A], "cobracket_sym", timed("necklace.cobracket_sym"))
    # rational: counted only
    Q = rational.QPoly
    tracer.patch([Q], "__mul__", lambda fn: tracer.counting("rational.qpoly_mul.calls", fn))
    tracer.patch([Q], "__add__", lambda fn: tracer.counting("rational.qpoly_add.calls", fn))
    # repspace
    R = repspace.RepSpace
    tracer.patch([R], "trace_rep", timed(
        "repspace.trace_rep", key=_instance_key(lambda a, k: frozenset(a[1].terms.items()))))
    tracer.patch([R], "trace_necklace", timed(
        "repspace.trace_necklace", key=_instance_key(lambda a, k: a[1])))
    for fn in ("moyal_star_classical", "weyl_symmetrize", "weyl_unsymmetrize",
               "phi_w_realized"):
        tracer.patch([R], fn, timed("repspace." + fn))
    # ribbon enumeration
    tracer.patch([kernels], "scan_pairings", timed("kernels.scan_pairings", after=_after_scan))
    tracer.patch([census], "iso_classes", timed("census.iso_classes"))
    tracer.patch([census, complexes], "labeled_classes",
                 timed("census.labeled_classes", after=_after_classes))
    tracer.patch([census, complexes], "unlabeled_as_classes",
                 timed("census.unlabeled_classes", after=_after_classes))
    tracer.patch([graph.RibbonGraph], "canonical", timed("graph.canonical"))
    tracer.patch([orientation, census, complexes], "is_orientable",
                 timed("orientation.is_orientable"))
    # complexes and exact rank
    C = complexes.RibbonComplex
    tracer.patch([C], "__init__", timed("complexes.build", coarse=True, after=_after_complex))
    tracer.patch([C], "_load", lambda fn: _load_probe(tracer, fn))
    tracer.patch([C], "check_d_squared", timed("complexes.check_d_squared", coarse=True))
    tracer.patch([C], "betti", timed("complexes.betti", coarse=True))
    tracer.patch([linalg, complexes], "rank", timed("linalg.rank", after=_after_rank))
    # A-infinity
    tracer.patch([ainf.WeightEngine], "weight", timed("ainf.weight", after=_after_weight))
    tracer.patch([ainf], "build_cycle", timed("ainf.build_cycle", coarse=True))
    tracer.patch([ainf], "check_ainf", timed("ainf.check_ainf", coarse=True))


def _load_probe(tracer, fn):
    """Cache hit or miss from the load step, without timing it separately."""

    def wrapper(*args, **kwargs):
        loaded = fn(*args, **kwargs)
        tracer.add("complexes.cache_hit" if loaded else "complexes.cache_miss")
        return loaded

    wrapper.__wrapped__ = fn
    return wrapper


def layer_metrics(snap):
    """Map one pass's snapshot onto the PER_LAYER names (0 when idle)."""
    out = {}
    for name, _unit in PER_LAYER:
        if name == "kernels.scan_yield":
            scanned = snap.get("kernels.pairings_scanned", 0)
            out[name] = snap.get("kernels.classes_found", 0) / scanned if scanned else 0.0
        elif name == "ainf.weight.nonzero":
            calls = snap.get("ainf.weight.calls", 0)
            out[name] = snap.get("ainf.weight.nonzero_count", 0) / calls if calls else 0.0
        elif name.startswith("trace."):
            continue
        else:
            out[name] = snap.get(name, 0.0 if name.endswith("_s") else 0)
    return out
