#!/usr/bin/env python3
"""The nlab benchmark: four exact-computation workloads, one closed loop.

Run from the root of a checkout (nlab is imported from ./src; nothing is
built or installed):

    python3 nlabbench/run.py --workload ribbon-homology --seed 1 --seconds 20
    python3 nlabbench/run.py --workload all --seed 1        # every workload
    python3 nlabbench/run.py --workload all --trace 1       # per-layer run
    python3 nlabbench/run.py --compare OLD NEW              # result files/dirs

One caller in one process runs one pass at a time (jobs=1).  `--workload
all` starts each workload in its own fresh process, one after another.
A run times three set-ups and reports their median (plus the import
time), checks the oracles, then repeats passes to fill about `--seconds`
of pass time and reports medians.  The times of a `--trace 0` run are
scaled to a nominal host speed (see HostSpeed).  With `--trace 1` untraced and traced
passes alternate, and the run reports per-layer metrics and the tracing
overhead (median traced minus untraced pass time).  The last stdout line
is one JSON object; the full record (samples, counts, failures, spans,
provenance) is written to nlabbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import tracing  # this directory is sys.path[0] when run as a script
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPS = 3
# Host-speed reference: see HostSpeed.  REF_NOMINAL_S is the loop's typical
# time on the 2-vCPU host the bounds were set on, which keeps the scaled
# figures close to raw seconds there.
REF_NOMINAL_S = 0.0040
REF_LOOP = 40_000
REF_PERIOD_S = 0.2

END_TO_END = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


def import_nlab(clock):
    """Import nlab from ./src of this checkout; returns the import time."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "nlab", "__init__.py")):
        raise SystemExit("error: no nlab sources under %s" % src)
    sys.path.insert(0, src)
    t0 = clock()[0]
    import nlab  # noqa: F401
    import nlab.ainf  # noqa: F401
    import nlab.kernels  # noqa: F401
    import nlab.repspace  # noqa: F401
    import nlab.ribbon.complexes  # noqa: F401
    import nlab.sweeps  # noqa: F401
    elapsed = clock()[0] - t0
    if not os.path.abspath(nlab.__file__).startswith(os.path.join(src, "")):
        raise SystemExit("error: imported nlab from %s, not %s" % (nlab.__file__, src))
    return elapsed


def provenance(seed):
    import nlab.kernels
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "nlab")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, fn)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "kernel_backend": nlab.kernels.BACKEND,
        "seed": seed,
    }


def git_sha():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


class HostSpeed:
    """Samples the speed of the shared host while a run measures.

    The host's speed drifts by +-15% within minutes, so that raw times of
    one commit spread more between runs than the bounds allow.  Every
    REF_PERIOD_S a SIGALRM handler times a fixed pure-Python loop; its
    time drifts with the host's speed.  Each pass time is scaled by
    REF_NOMINAL_S / (median loop time while the pass ran), and the set-up
    time by that of the whole run.  The samples interleave with the work
    at a fine grain, because the speed also changes from second to second.  `clock()` gives wall and CPU time
    without the handler's own time (about 2%), so the loop is never part
    of a timed region.  Raw times and the samples stay in the result
    file.  Unstarted, it is a plain clock.
    """

    def __init__(self):
        self.samples = []
        self.wall = self.cpu = 0.0

    def _tick(self, signum, frame):
        w0, c0 = time.perf_counter(), time.process_time()
        s = 0
        for i in range(REF_LOOP):
            s += i * i
        w1 = time.perf_counter()
        self.samples.append(w1 - w0)
        self.wall += w1 - w0
        self.cpu += time.process_time() - c0

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


# -- one workload in this process --------------------------------------------------------


def one_pass(wl, state, host, tracer=None):
    gc.collect()
    run = wl.run_pass
    if tracer is not None:
        tracer.reset()
        tracing.install(tracer)
        run = tracer.wrap("bench.pass", wl.run_pass, coarse=True)
    lo = len(host.samples)
    w0, c0 = host.clock()
    try:
        outputs = run(state)
    finally:
        w1, c1 = host.clock()
        ref = host.samples[lo:]
        if tracer is not None:
            tracer.uninstall()
    item = {"wall_s": w1 - w0, "cpu_s": c1 - c0, "ref_s": ref,
            "ops": wl.check(state, outputs), "counts": wl.counts(outputs)}
    if tracer is not None:
        item["layers"] = tracer.snapshot()
    wl.discard(state, outputs)
    return item


def timed_passes(wl, state, budget, host, tracer=None):
    """Passes filling about `budget` seconds of pass time (at least one).

    Another pass starts while the mean pass would end less than half a pass
    past the budget.  With a tracer the passes alternate untraced and
    traced, so that drift in the machine's speed falls on both sides of the
    overhead estimate.
    """
    plain, traced = [], []
    spent = 0.0
    while (not plain or len(traced) < (tracer is not None)
           or spent + spent / (len(plain) + len(traced)) / 2 < budget):
        traced_turn = tracer is not None and len(traced) < len(plain)
        item = one_pass(wl, state, host, tracer if traced_turn else None)
        (traced if traced_turn else plain).append(item)
        spent += item["wall_s"]
    return plain, traced


def run_one(args):
    # traced passes carry wrapper overhead anyway; only --trace 0 is scaled
    host = HostSpeed()
    if not args.trace:
        host.start()
    try:
        measured = measure(args, host)
    finally:
        host.stop()
    return summarize(measured, host.samples)


def measure(args, host):
    import_s = import_nlab(host.clock)
    wl = workloads.WORKLOADS[args.workload]()
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    state = None
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            if state is not None:
                wl.close(state)
            gc.collect()
            t0 = host.clock()[0]
            state = wl.setup(args.seed, work, ROOT)
            setup_times.append(host.clock()[0] - t0)
        wl.prepare(state)
        tracer = tracing.Tracer()
        plain, traced = timed_passes(wl, state, args.seconds, host,
                                     tracer=tracer if args.trace else None)
        wl.close(state)
        state = None
    finally:
        if state is not None:
            wl.close(state)
        shutil.rmtree(work, ignore_errors=True)
    return args, wl, import_s, setup_times, plain, traced, tracer.spans


def summarize(measured, ref):
    args, wl, import_s, setup_times, plain, traced, spans = measured
    passes = plain + traced
    ops = [op for p in passes for op in p["ops"]]
    failed = [op for op in ops if not op.ok]
    counts = passes[0]["counts"]
    unstable = sorted({k for p in passes for k, v in p["counts"].items() if counts.get(k) != v})
    wall = [p["wall_s"] for p in plain]
    rec = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "samples": {"import_s": import_s, "setup_s": setup_times, "wall_s": wall,
                    "cpu_s": [p["cpu_s"] for p in plain],
                    "traced_wall_s": [p["wall_s"] for p in traced], "ref_s": ref,
                    "pass_ref_s": [statistics.median(p["ref_s"]) if p["ref_s"] else None
                                   for p in plain]},
        "attempted": len(ops),
        "failed": len(failed),
        "failures": sorted({(op.name, op.detail) for op in failed}),
        "counts": counts,
        "unstable_counts": unstable,
    }
    if args.trace:
        layers = [p["layers"] for p in traced]
        per_pass = [tracing.layer_metrics(s) for s in layers]
        metrics = {}
        for name, unit in tracing.PER_LAYER:
            if name == "trace.overhead_s":
                value = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
            elif name == "trace.unattributed_s":
                value = statistics.median(s.get("bench.pass.self_s", 0.0) for s in layers)
            elif unit == "s":
                value = statistics.median(m[name] for m in per_pass)
            else:
                value = per_pass[0][name]
                if any(m[name] != value for m in per_pass):
                    rec["unstable_counts"].append(name)
                if unit == "count":
                    rec["counts"]["layer." + name] = value
            metrics[name] = {"value": value, "unit": unit}
        rec["counts"].update(("layer." + k, v) for k, v in layers[0].items()
                             if k.startswith("census.classes["))
        rec["layer_detail"] = layers[0]
        rec["spans"] = spans
    else:
        # a pass is scaled by the loop samples taken while it ran; set-up,
        # too short for a steady median of its own, by those of the whole run
        scale = REF_NOMINAL_S / statistics.median(ref)
        rec["ref_scale"] = scale
        scales = [REF_NOMINAL_S / r if r else scale for r in rec["samples"]["pass_ref_s"]]
        metrics = {
            "wall_s": {"value": statistics.median(k * p["wall_s"] for k, p in zip(scales, plain)),
                       "unit": "s"},
            "cpu_s": {"value": statistics.median(k * p["cpu_s"] for k, p in zip(scales, plain)),
                      "unit": "s"},
            "setup_s": {"value": scale * (import_s + statistics.median(setup_times)),
                        "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
    rec["metrics"] = metrics
    return rec


def report(rec):
    """Human-readable lines, then the one-line JSON result."""
    prov = rec["provenance"]
    print("workload %s  seed %d  trace %d  backend %s  python %s  nproc %s  git %s  src %s"
          % (rec["workload"], rec["seed"], rec["trace"], prov["kernel_backend"],
             prov["python"], prov["nproc"], prov["git_sha"] or "-", prov["source_sha256"]))
    s = rec["samples"]
    print("  set-up: import %.4f s + median of %s s"
          % (s["import_s"], ", ".join("%.4f" % t for t in s["setup_s"])))
    if "ref_scale" in rec:
        print("  host-speed loop: median of %d is %.5f s; raw set-up times below scaled by %.4f"
              % (len(s["ref_s"]), statistics.median(s["ref_s"]), rec["ref_scale"]))
        print("  loop medians during the passes: %s s"
              % ", ".join("%.5f" % r for r in s["pass_ref_s"] if r))
    print("  passes: %s s%s" % (", ".join("%.4f" % t for t in s["wall_s"]),
                                "; traced %s s" % ", ".join("%.4f" % t for t in s["traced_wall_s"])
                                if rec["trace"] else ""))
    for name, m in rec["metrics"].items():
        print("  %-40s %14.6f %s" % (name, m["value"], m["unit"]))
    frac = rec["failed"] / rec["attempted"]
    print("  %-40s %14.6f (%d of %d operations)" % ("failed_frac", frac, rec["failed"],
                                                    rec["attempted"]))
    for name, detail in rec["failures"]:
        print("    FAILED %s: %s" % (name, detail.splitlines()[0] if detail else ""))
    if rec["unstable_counts"]:
        print("  counts differ between passes: %s" % ", ".join(rec["unstable_counts"]))
    print("  %d behaviour counts in %s" % (len(rec["counts"]), rec["path"]))
    print(json.dumps({"correct": rec["failed"] == 0 and not rec["unstable_counts"],
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": rec["metrics"]}))


def save(rec):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json" % (rec["workload"], rec["seed"],
                                                         rec["trace"]))
    rec["path"] = os.path.relpath(path, ROOT)
    with open(path, "w") as f:
        json.dump(rec, f, indent=1, sort_keys=True, default=list)


# -- every workload, each in its own process ------------------------------------------------


def run_all(args):
    results = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode or not lines:
            sys.stderr.write(proc.stderr)
            raise SystemExit("error: workload %s exited with %d" % (name, proc.returncode))
        results.append((name, json.loads(lines[-1])))
    print()
    names = [n for n, _ in END_TO_END] if not args.trace else ["trace.overhead_s"]
    print("%-18s" % "workload" + "".join("%18s" % n for n in names) + "%14s" % "failed_frac")
    for name, res in results:
        cells = "".join("%14.4f %-3s" % (res["metrics"][n]["value"], res["metrics"][n]["unit"])
                        for n in names)
        print("%-18s%s%14.4f" % (name, cells, res["failed"] / res["attempted"]))
    ok = all(res["correct"] for _, res in results)
    print(json.dumps({"correct": ok,
                      "attempted": sum(r["attempted"] for _, r in results),
                      "failed": sum(r["failed"] for _, r in results),
                      "metrics": {"%s.%s" % (n, k): v for n, r in results
                                  for k, v in r["metrics"].items()}}))


# -- comparing two sets of result files -------------------------------------------------------


def load_results(path):
    files = [path] if os.path.isfile(path) else sorted(
        os.path.join(path, f) for f in os.listdir(path)
        if f.endswith(".json") and "-seed" in f)
    out = {}
    for fn in files:
        with open(fn) as f:
            rec = json.load(f)
        out.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return out


def compare(old_path, new_path):
    """Per-metric medians and deltas; a changed count is a behaviour change."""
    old, new = load_results(old_path), load_results(new_path)
    code = 0
    for key in sorted(set(old) & set(new)):
        a, b = old[key], new[key]
        tags = {(r["provenance"]["kernel_backend"], r["provenance"]["python"].rsplit(".", 1)[0])
                for r in a + b}
        if len(tags) > 1:
            raise SystemExit("error: %s mixes kernel backends or Python versions: %s"
                             % (key[0], sorted(tags)))
        print("== %s (trace %d): %d old runs, %d new runs" % (key[0], key[1], len(a), len(b)))
        idle = 0
        for name in a[0]["metrics"]:
            va = statistics.median(r["metrics"][name]["value"] for r in a)
            vb = statistics.median(r["metrics"][name]["value"] for r in b if name in r["metrics"])
            if not va and not vb:
                idle += 1
                continue
            delta = "%+.1f%%" % ((vb - va) / abs(va) * 100) if va else "new"
            print("  %-40s %14.6f -> %14.6f %-5s (%s)"
                  % (name, va, vb, a[0]["metrics"][name]["unit"], delta))
        if idle:
            print("  (%d metrics are 0 on both sides: layers this workload does not use)" % idle)
        for side, recs in (("old", a), ("new", b)):
            keys = {k for r in recs for k in r["counts"]}
            varying = sorted(k for k in keys if len({r["counts"].get(k) for r in recs}) > 1)
            if varying:
                print("  UNSTABLE COUNTS in %s runs: %s" % (side, ", ".join(varying)))
                code = 1
        ca, cb = a[0]["counts"], b[0]["counts"]
        changed = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
        for k in changed:
            print("  BEHAVIOUR CHANGE %s: %s -> %s" % (k, ca.get(k), cb.get(k)))
        if changed:
            code = 1
        fa = sum(r["failed"] for r in a), sum(r["attempted"] for r in a)
        fb = sum(r["failed"] for r in b), sum(r["attempted"] for r in b)
        print("  failed operations: %d/%d -> %d/%d" % (fa + fb))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = ap.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload == "all":
        run_all(args)
        return 0
    if args.workload not in workloads.WORKLOADS:
        ap.error("--workload must be one of: all, %s" % ", ".join(workloads.WORKLOADS))
    rec = run_one(args)
    save(rec)
    report(rec)
    return 0


if __name__ == "__main__":
    sys.exit(main())
