import argparse
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

import pytest

from nlab import sweeps
from nlab.cli import build_parser, main

DATA = os.path.join(os.path.dirname(__file__), "..", "examples-data")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def q(name):
    return os.path.join(DATA, name)


def test_star_worked_example(capsys):
    code, out, _ = run_cli(["algebra", "star", "-q", q("loop.json"),
                            "-l", "(e e*)", "-r", "(e e*)"], capsys)
    assert code == 0
    assert out.strip() == "(e e*)&(e e*) - 1/4 h^2 I(v)&I(v)"


def test_verify_hopf_exit_zero(capsys):
    code, out, _ = run_cli(["verify", "hopf", "-q", q("loop.json"),
                            "--max-len", "4"], capsys)
    assert code == 0
    assert "pass" in out


def test_verify_hopf_vacuous(capsys):
    code, out, _ = run_cli(["verify", "hopf", "-q", q("loop.json"),
                            "--max-len", "0"], capsys)
    assert code == 0
    assert "0 cases" in out


def test_verify_limits_and_diagram(capsys):
    code, out, _ = run_cli(["verify", "limits", "-q", q("loop.json"),
                            "--max-len", "3"], capsys)
    assert code == 0
    code, out, _ = run_cli(["verify", "diagram", "-q", q("loop.json"),
                            "--max-len", "2", "--dims", "1,2"], capsys)
    assert code == 0


def test_ribbon_enum_lists_nonorientable_two_loop(capsys):
    code, out, _ = run_cli(["ribbon", "enum", "--genus", "1", "--faces", "1",
                            "--min-valence", "3", "--format", "json"], capsys)
    assert code == 0
    items = json.loads(out)
    assert any(item["vertices"] == 1 and item["edges"] == 2
               and not item["orientable"] for item in items)
    assert any(item["edges"] == 3 and item["orientable"] for item in items)


def test_ribbon_homology_tsv(capsys):
    code, out, _ = run_cli(["ribbon", "homology", "--genus", "0",
                            "--faces", "3", "--min-valence", "3"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "degree\tdim\tbetti"
    assert lines[1].split("\t") == ["2", "1", "0"]
    assert lines[2].split("\t") == ["3", "2", "1"]


def test_ribbon_homology_deterministic(capsys):
    args = ["ribbon", "homology", "--genus", "1", "--faces", "1",
            "--min-valence", "3"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


def test_ribbon_boundary_output(capsys):
    code, out, _ = run_cli(["ribbon", "boundary", "--genus", "0",
                            "--faces", "3", "--min-valence", "3"], capsys)
    assert code == 0
    assert "# d: degree 3 -> 2  (1 x 2)" in out


def test_ainf_check_and_cycle(capsys):
    code, out, _ = run_cli(["ainf", "check", "--data", q("frobenius.json"),
                            "--n-max", "4"], capsys)
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(["ainf", "cycle", "--data", q("unit.json"),
                            "--genus", "0", "--faces", "3",
                            "--labels", "v,v,v"], capsys)
    assert code == 0
    assert "boundary of every chain is zero: True" in out


def test_trace_weyl_rho(capsys):
    code, out, _ = run_cli(["trace", "-q", q("loop.json"), "-l", "I(v)",
                            "--dims", "3"], capsys)
    assert code == 0 and out.strip() == "(3) 1"
    code, out, _ = run_cli(["moyal-classical", "-q", q("loop.json"),
                            "-l", "(e e*)", "-r", "(e e*)", "--dims", "1"], capsys)
    assert code == 0 and "h^2" in out
    code, out, _ = run_cli(["weyl", "-q", q("loop.json"), "-l", "(e e*)",
                            "--dims", "1"], capsys)
    assert code == 0 and "Y[e][1][1]" in out
    code, out, _ = run_cli(["rho", "-q", q("loop.json"), "-l", "(e e*)",
                            "--dims", "1", "--heights", "2,1"], capsys)
    assert code == 0 and "-h" in out


# README examples that print through the element and operator reprs, with
# their full stdout
README_OUTPUTS = [
    (["algebra", "star", "-q", q("loop.json"), "-l", "(e e*)", "-r", "(e e*)"],
     "(e e*)&(e e*) - 1/4 h^2 I(v)&I(v)\n"),
    (["algebra", "coprod", "-q", q("loop.json"), "-l", "(e e*)"],
     "1 (x) (e e*) + (e e*) (x) 1\n"),
    (["algebra", "bracket", "-q", q("twoloops.json"), "-l", "(a b)", "-r", "(a* b*)"],
     "(a a*) + (b b*)\n"),
    (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "2"],
     "(1) M[e][1][1]*M[e*][1][1] + (1) M[e][1][2]*M[e*][2][1] + "
     "(1) M[e][2][1]*M[e*][1][2] + (1) M[e][2][2]*M[e*][2][2]\n"),
    (["moyal-classical", "-q", q("loop.json"), "-l", "(e e*)", "-r", "(e e*)",
      "--dims", "1"],
     "(-1/4 h^2) 1 + (1) M[e][1][1]^2*M[e*][1][1]^2\n"),
    (["weyl", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1"],
     "(-1/2 h) 1 + (1) M[e][1][1]*Y[e][1][1]\n"),
    (["rho", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1", "--heights", "2,1"],
     "(-h) 1 + (1) M[e][1][1]*Y[e][1][1]\n"),
]


def test_readme_element_outputs(capsys):
    for args, expected in README_OUTPUTS:
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (0, expected, ""), args


TWOVERTEX = ["--graph", q("twovertex.json")]

# unlabeled and labeled ribbon families, the README cochain example and a
# two-object A-infinity cycle, with their full stdout
RIBBON_OUTPUTS = [
    (["ribbon", "enum", "--genus", "1", "--faces", "1", "--format", "json"],
     json.dumps([
         {"edges": 2, "vertices": 1, "faces": 1, "genus": 1, "valences": [4],
          "aut_order": 4, "orientable": False, "gamma": [[0, 1, 2, 3]],
          "iota": [[0, 2], [1, 3]], "labels": [None]},
         {"edges": 3, "vertices": 2, "faces": 1, "genus": 1, "valences": [3, 3],
          "aut_order": 6, "orientable": True, "gamma": [[0, 1, 3], [2, 4, 5]],
          "iota": [[0, 2], [1, 4], [3, 5]], "labels": [None]},
     ], indent=2) + "\n"),
    (["ribbon", "enum", "--genus", "0", "--faces", "3", *TWOVERTEX,
      "--labels", "v1,v1,v2", "--max-edges", "4"],
     "edges=2 vertices=1 valences=[4] |Aut|=1 orientable=True labels=['v1', 'v1', 'v2']\n"
     "edges=2 vertices=1 valences=[4] |Aut|=2 orientable=True labels=['v2', 'v1', 'v1']\n"
     "edges=3 vertices=2 valences=[3, 3] |Aut|=1 orientable=True labels=['v1', 'v1', 'v2']\n"
     "edges=3 vertices=2 valences=[3, 3] |Aut|=2 orientable=True labels=['v1', 'v1', 'v2']\n"),
    (["ribbon", "boundary", "--genus", "1", "--faces", "2", *TWOVERTEX,
      "--labels", "v1,v2"],
     "# d: degree 4 -> 3  (2 x 5)\n-1\t2\t-1\t0\t2\n0\t0\t0\t1\t0\n"
     "# d: degree 5 -> 4  (5 x 7)\n-2\t1\t0\t0\t0\t0\t0\n-1\t0\t0\t2\t0\t0\t0\n"
     "0\t-1\t0\t0\t0\t0\t0\n0\t0\t0\t0\t0\t0\t0\n0\t0\t0\t-2\t0\t0\t0\n"
     "# d: degree 6 -> 5  (7 x 4)\n0\t0\t0\t0\n0\t0\t0\t0\n-1\t2\t0\t0\n0\t0\t0\t0\n"
     "0\t0\t-2\t0\n0\t2\t0\t3\n0\t0\t4\t3\n"),
    (["ribbon", "cochain", "--ribbon", q("p3.json"), "-q", q("loop.json"),
      "--mult", "2", "--necklaces", "(e#1 e#2*);(e#2 e#1*);(e#1 e#1*)"],
     "1\n"),
    (["ainf", "cycle", "--data", q("matrix_units.json"), "--genus", "0",
      "--faces", "4", "--labels", "p,p,q,q"],
     "degree 3: 0 0 0 0\n"
     "degree 4: " + " ".join(["0"] * 22) + "\n"
     "degree 5: " + " ".join(["0"] * 38) + "\n"
     "degree 6: -1 -1/2 -1 -1/2 1 1/2 1 1/2 -1 -1 1 1 1 1 1 1 -1 -1/4 -1/4 1/2\n"
     "boundary of every chain is zero: True\n"),
]


def test_ribbon_outputs_pinned(capsys):
    for args, expected in RIBBON_OUTPUTS:
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (0, expected, ""), args


# Operator and Moyal outputs on two loops at dims 2 and on a quiver whose
# edges e and e#1 order differently from their reversals e* and e#1*, with
# their full stdout: they pin the display order of Y factors and terms
OPERATOR_OUTPUTS = [
    ("twoloops", ["weyl", "-l", "(a* a b*)", "--dims", "2"],
     "(-h) Y[b][1][1] + (-h) Y[b][2][2] + "
     "(1) M[a][1][1]*Y[a][1][1]*Y[b][1][1] + "
     "(1) M[a][1][1]*Y[a][1][2]*Y[b][2][1] + "
     "(1) M[a][1][2]*Y[a][2][1]*Y[b][1][1] + "
     "(1) M[a][1][2]*Y[a][2][2]*Y[b][2][1] + "
     "(1) M[a][2][1]*Y[a][1][1]*Y[b][1][2] + "
     "(1) M[a][2][1]*Y[a][1][2]*Y[b][2][2] + "
     "(1) M[a][2][2]*Y[a][2][1]*Y[b][1][2] + "
     "(1) M[a][2][2]*Y[a][2][2]*Y[b][2][2]\n"),
    ("twoloops", ["rho", "-l", "(a a* b b*)", "--dims", "2", "--heights", "3,1,4,2"],
     "(8 h^2) 1 + (-2 h) M[a][1][1]*Y[a][1][1] + "
     "(1) M[a][1][1]*M[b][1][1]*Y[a][1][1]*Y[b][1][1] + "
     "(1) M[a][1][1]*M[b][1][2]*Y[a][2][1]*Y[b][1][1] + "
     "(1) M[a][1][1]*M[b][2][1]*Y[a][1][1]*Y[b][1][2] + "
     "(1) M[a][1][1]*M[b][2][2]*Y[a][2][1]*Y[b][1][2] + "
     "(-2 h) M[a][1][2]*Y[a][2][1] + "
     "(1) M[a][1][2]*M[b][1][1]*Y[a][1][1]*Y[b][2][1] + "
     "(1) M[a][1][2]*M[b][1][2]*Y[a][2][1]*Y[b][2][1] + "
     "(1) M[a][1][2]*M[b][2][1]*Y[a][1][1]*Y[b][2][2] + "
     "(1) M[a][1][2]*M[b][2][2]*Y[a][2][1]*Y[b][2][2] + "
     "(-2 h) M[a][2][1]*Y[a][1][2] + "
     "(1) M[a][2][1]*M[b][1][1]*Y[a][1][2]*Y[b][1][1] + "
     "(1) M[a][2][1]*M[b][1][2]*Y[a][2][2]*Y[b][1][1] + "
     "(1) M[a][2][1]*M[b][2][1]*Y[a][1][2]*Y[b][1][2] + "
     "(1) M[a][2][1]*M[b][2][2]*Y[a][2][2]*Y[b][1][2] + "
     "(-2 h) M[a][2][2]*Y[a][2][2] + "
     "(1) M[a][2][2]*M[b][1][1]*Y[a][1][2]*Y[b][2][1] + "
     "(1) M[a][2][2]*M[b][1][2]*Y[a][2][2]*Y[b][2][1] + "
     "(1) M[a][2][2]*M[b][2][1]*Y[a][1][2]*Y[b][2][2] + "
     "(1) M[a][2][2]*M[b][2][2]*Y[a][2][2]*Y[b][2][2] + "
     "(-2 h) M[b][1][1]*Y[b][1][1] + (-2 h) M[b][1][2]*Y[b][2][1] + "
     "(-2 h) M[b][2][1]*Y[b][1][2] + (-2 h) M[b][2][2]*Y[b][2][2]\n"),
    ("twoloops", ["moyal-classical", "-l", "(a b)", "-r", "(a* b*)", "--dims", "2"],
     "(h^2) 1 + (1/2 h) M[a][1][1]*M[a*][1][1] + "
     "(1) M[a][1][1]*M[a*][1][1]*M[b][1][1]*M[b*][1][1] + "
     "(1) M[a][1][1]*M[a*][1][2]*M[b][1][1]*M[b*][2][1] + "
     "(1) M[a][1][1]*M[a*][2][1]*M[b][1][1]*M[b*][1][2] + "
     "(1) M[a][1][1]*M[a*][2][2]*M[b][1][1]*M[b*][2][2] + "
     "(1) M[a][1][2]*M[a*][1][1]*M[b][2][1]*M[b*][1][1] + "
     "(1) M[a][1][2]*M[a*][1][2]*M[b][2][1]*M[b*][2][1] + "
     "(1/2 h) M[a][1][2]*M[a*][2][1] + "
     "(1) M[a][1][2]*M[a*][2][1]*M[b][2][1]*M[b*][1][2] + "
     "(1) M[a][1][2]*M[a*][2][2]*M[b][2][1]*M[b*][2][2] + "
     "(1) M[a][2][1]*M[a*][1][1]*M[b][1][2]*M[b*][1][1] + "
     "(1/2 h) M[a][2][1]*M[a*][1][2] + "
     "(1) M[a][2][1]*M[a*][1][2]*M[b][1][2]*M[b*][2][1] + "
     "(1) M[a][2][1]*M[a*][2][1]*M[b][1][2]*M[b*][1][2] + "
     "(1) M[a][2][1]*M[a*][2][2]*M[b][1][2]*M[b*][2][2] + "
     "(1) M[a][2][2]*M[a*][1][1]*M[b][2][2]*M[b*][1][1] + "
     "(1) M[a][2][2]*M[a*][1][2]*M[b][2][2]*M[b*][2][1] + "
     "(1) M[a][2][2]*M[a*][2][1]*M[b][2][2]*M[b*][1][2] + "
     "(1/2 h) M[a][2][2]*M[a*][2][2] + "
     "(1) M[a][2][2]*M[a*][2][2]*M[b][2][2]*M[b*][2][2] + "
     "(1/2 h) M[b][1][1]*M[b*][1][1] + (1/2 h) M[b][1][2]*M[b*][2][1] + "
     "(1/2 h) M[b][2][1]*M[b*][1][2] + (1/2 h) M[b][2][2]*M[b*][2][2]\n"),
    ("hashed", ["weyl", "-l", "(e*) + (e#1*) + (e e*)&(e#1 e#1*)", "--dims", "1"],
     "(1/4 h^2) 1 + (1) Y[e][1][1] + (1) Y[e#1][1][1] + "
     "(-1/2 h) M[e][1][1]*Y[e][1][1] + "
     "(1) M[e][1][1]*M[e#1][1][1]*Y[e][1][1]*Y[e#1][1][1] + "
     "(-1/2 h) M[e#1][1][1]*Y[e#1][1][1]\n"),
    ("hashed", ["weyl", "-l", "(e* e#1*)", "--dims", "2"],
     "(1) Y[e][1][1]*Y[e#1][1][1] + (1) Y[e][1][2]*Y[e#1][2][1] + "
     "(1) Y[e][2][1]*Y[e#1][1][2] + (1) Y[e][2][2]*Y[e#1][2][2]\n"),
    ("hashed", ["rho", "-l", "(e* e#1* e#1 e)", "--dims", "1", "--heights", "4,1,3,2"],
     "(1) M[e][1][1]*M[e#1][1][1]*Y[e][1][1]*Y[e#1][1][1] + "
     "(-h) M[e#1][1][1]*Y[e#1][1][1]\n"),
    ("hashed", ["moyal-classical", "-l", "(e e#1*)", "-r", "(e#1 e*)", "--dims", "1"],
     "(-1/4 h^2) 1 + "
     "(1) M[e][1][1]*M[e#1][1][1]*M[e#1*][1][1]*M[e*][1][1] + "
     "(-1/2 h) M[e][1][1]*M[e*][1][1] + "
     "(1/2 h) M[e#1][1][1]*M[e#1*][1][1]\n"),
]


def test_operator_outputs_pinned(tmp_path, capsys):
    hashed = tmp_path / "hashed.json"
    hashed.write_text(json.dumps({"vertices": ["v"], "edges": [
        {"id": "e", "tail": "v", "head": "v"}, {"id": "e#1", "tail": "v", "head": "v"}]}))
    paths = {"twoloops": q("twoloops.json"), "hashed": str(hashed)}
    for quiver, args, expected in OPERATOR_OUTPUTS:
        code, out, err = run_cli([args[0], "-q", paths[quiver]] + args[1:], capsys)
        assert (code, out, err) == (0, expected, ""), (quiver, args)


# Star products and coproducts that cut at two vertices, leave all-cut
# orbits and carry spare idempotents, with their full stdout
HOPF_OUTPUTS = [
    (["algebra", "star", "-q", q("twovertex.json"), "-l", "(a a*) & I(v1)",
      "-r", "(a* a) & (c c*)"],
     "I(v1)&(a a*)&(a a*)&(c c*) - 1/4 h^2 I(v1)&I(v1)&I(v2)&(c c*)\n"),
    (["algebra", "coprod", "-q", q("twovertex.json"), "-l", "(a a* c c*) & I(v2)"],
     "1 (x) I(v2)&(a a* c c*) + I(v2) (x) (a a* c c*) + I(v2)&(a a* c c*) (x) 1 + "
     "(a a* c c*) (x) I(v2) - 1/2 h I(v1) (x) I(v2)&(a a*) - "
     "1/2 h I(v1)&I(v2) (x) (a a*) - 1/2 h I(v2) (x) I(v2)&(c c*) - "
     "1/2 h I(v2)&I(v2) (x) (c c*) + 1/2 h I(v2)&(a a*) (x) I(v1) + "
     "1/2 h I(v2)&(c c*) (x) I(v2) + 1/2 h (a a*) (x) I(v1)&I(v2) + "
     "1/2 h (c c*) (x) I(v2)&I(v2) + 1/4 h^2 I(v1) (x) I(v1)&I(v2)&I(v2) + "
     "1/2 h^2 I(v1)&I(v2) (x) I(v1)&I(v2) + 1/4 h^2 I(v1)&I(v2)&I(v2) (x) I(v1)\n"),
    (["algebra", "coprod", "-q", q("twoloops.json"), "-l", "(a a* b b*) & (a b)"],
     "1 (x) (a b)&(a a* b b*) + (a b) (x) (a a* b b*) + (a b)&(a a* b b*) (x) 1 + "
     "(a a* b b*) (x) (a b) - 1/2 h I(v) (x) (a a*)&(a b) - "
     "1/2 h I(v) (x) (a b)&(b b*) - 1/2 h I(v)&(a b) (x) (a a*) - "
     "1/2 h I(v)&(a b) (x) (b b*) + 1/2 h (a a*) (x) I(v)&(a b) + "
     "1/2 h (a a*)&(a b) (x) I(v) + 1/2 h (a b)&(b b*) (x) I(v) + "
     "1/2 h (b b*) (x) I(v)&(a b) + 1/4 h^2 I(v) (x) I(v)&I(v)&(a b) + "
     "1/4 h^2 I(v)&I(v) (x) I(v)&(a b) + 1/4 h^2 I(v)&I(v)&(a b) (x) I(v) + "
     "1/4 h^2 I(v)&(a b) (x) I(v)&I(v) - 1/4 h^2 (a) (x) (b) - 1/4 h^2 (b) (x) (a)\n"),
]


def test_hopf_outputs_pinned(capsys):
    for args, expected in HOPF_OUTPUTS:
        code, out, err = run_cli(args, capsys)
        assert (code, out, err) == (0, expected, ""), args


def test_counterexamples_are_runnable(tmp_path, monkeypatch, capsys):
    # every check fails on every case, and every case's lines are kept
    quiver = tmp_path / "a dir" / "loop.json"
    quiver.parent.mkdir()
    shutil.copy(q("loop.json"), quiver)
    lines = set()
    record = sweeps.Check.record

    def fail(self, ok, describe):
        lines.add(describe())
        record(self, False, describe)

    monkeypatch.setattr(sweeps.Check, "record", fail)
    for suite in ("hopf", "limits", "diagram"):
        code, out, _ = run_cli(["verify", suite, "-q", str(quiver), "--max-len", "2",
                                "--format", "json"], capsys)
        assert code == 1
        assert all(c["counterexample"] in lines for c in json.loads(out)["checks"])
    for line in sorted(lines):
        for command in line.split(" vs "):
            argv = shlex.split(command)
            assert argv[0] == "nlab", line
            code, _, err = run_cli(argv[1:], capsys)
            assert (code, err) == (0, ""), command


def test_usage_errors_exit_two(capsys):
    code, _, err = run_cli(["algebra", "star", "-q", q("loop.json"),
                            "-l", "(e"], capsys)
    assert code == 2 and "error" in err
    code, _, err = run_cli(["algebra", "star", "-q", q("loop.json"),
                            "-l", "(e e*)"], capsys)
    assert code == 2
    code, _, err = run_cli(["ribbon", "homology", "--genus", "0",
                            "--faces", "2", "--min-valence", "3"], capsys)
    assert code == 2  # unstable (g, m)
    # families that cannot exist, and a negative dimension
    for args, key in [
        (["ribbon", "homology", "--genus", "-1", "--faces", "5"], "genus"),
        (["ribbon", "enum", "--genus", "-1", "--faces", "3"], "genus"),
        (["ainf", "cycle", "--data", q("unit.json"), "--genus", "0", "--faces", "3",
          "--labels", "v,v,w"], "'w'"),
        (["ribbon", "homology", "--genus", "0", "--faces", "3", *TWOVERTEX,
          "--labels", "v1,v1,zz"], "'zz'"),
        (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "-1"], "negative"),
        (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "v=1,zz=2"], "'zz'"),
        (["verify", "diagram", "-q", q("loop.json"), "--dims", "v=1,zz=3"], "'zz'"),
        # one dimension vector for each representation command, at least one
        # for the diagram suite
        (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--dims", ""], "--dims"),
        (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1;2"], "--dims"),
        (["weyl", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1,2"], "--dims"),
        (["rho", "-q", q("loop.json"), "-l", "(e e*)", "--dims", ""], "--dims"),
        (["moyal-classical", "-q", q("loop.json"), "-l", "(e e*)", "-r", "(e e*)",
          "--dims", "1;2"], "--dims"),
        (["verify", "diagram", "-q", q("loop.json"), "--dims", ""], "--dims"),
        (["verify", "diagram", "-q", q("loop.json"), "--dims", "v=1,w"], "--dims"),
        # counts below their least meaningful value
        (["ainf", "check", "--data", q("unit.json"), "--n-max", "-5"], "n_max = -5"),
        (["ainf", "cycle", "--data", q("unit.json"), "--genus", "0", "--faces", "3",
          "--labels", "v,v,v", "--max-edges", "-1"], "max_edges = -1"),
        (["ribbon", "enum", "--genus", "0", "--faces", "3", "--max-edges", "1"],
         "max_edges = 1"),
        (["ribbon", "boundary", "--genus", "1", "--faces", "1", "--max-edges", "0"],
         "max_edges = 0"),
        (["ribbon", "homology", "--genus", "0", "--faces", "4", "--max-edges", "2"],
         "max_edges = 2"),
        (["verify", "hopf", "-q", q("loop.json"), "--max-len", "-1"], "max_len = -1"),
        (["verify", "limits", "-q", q("loop.json"), "--max-len", "-1"], "max_len = -1"),
        (["verify", "diagram", "-q", q("loop.json"), "--max-len", "-1"], "max_len = -1"),
        (["verify", "hopf", "-q", q("loop.json"), "--random-cases", "-2"],
         "random_cases = -2"),
        (["verify", "limits", "-q", q("loop.json"), "--random-cases", "-2"],
         "random_cases = -2"),
        (["verify", "hopf", "-q", q("loop.json"), "--random-len", "-4",
          "--random-cases", "2"], "random_len = -4"),
        (["verify", "limits", "-q", q("loop.json"), "--random-len", "0"], "random_len = 0"),
        (["ribbon", "homology", "--genus", "0", "--faces", "3", "--min-valence", "0",
          "--max-edges", "3"], "min_valence = 0"),
        (["ribbon", "homology", "--genus", "0", "--faces", "3", "--min-valence", "-1",
          "--max-edges", "3"], "min_valence = -1"),
        (["ribbon", "enum", "--genus", "0", "--faces", "3", "--min-valence", "0",
          "--max-edges", "3"], "min_valence = 0"),
        (["ribbon", "boundary", "--genus", "0", "--faces", "3", "--min-valence", "0",
          "--max-edges", "3"], "min_valence = 0"),
        (["ainf", "cycle", "--data", q("unit.json"), "--genus", "0", "--faces", "3",
          "--labels", "v,v,v", "--min-valence", "0", "--max-edges", "3"], "min_valence = 0"),
        # uncapped families below valence 3, named by their own valence
        (["ribbon", "homology", "--genus", "0", "--faces", "3", "--min-valence", "1"],
         "valence-1 families need max_edges"),
        # heights that are not integers
        (["rho", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1", "--heights", "a,b"],
         "cannot read --heights 'a,b'"),
        (["rho", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1", "--heights", "1,,2"],
         "cannot read --heights '1,,2'"),
        # malformed scalars in an element
        (["algebra", "star", "-q", q("loop.json"), "-l", "(e e*)", "-r", "1/0"],
         "zero denominator"),
        (["algebra", "star", "-q", q("loop.json"), "-l", "(e e*)", "-r", "h^"],
         "exponent after h^"),
        (["algebra", "star", "-q", q("loop.json"), "-l", "(e e*)", "-r", "h ^ ("],
         "exponent after h^"),
    ]:
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1
    # no operation reads --jobs: it is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hopf", "-q", q("loop.json"), "--jobs", "4"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err


def test_cobracket_output_pinned(capsys):
    code, out, err = run_cli(["algebra", "cobracket", "-q", q("twoloops.json"),
                              "-l", "(a b a* b*)"], capsys)
    assert (code, err) == (0, "")
    assert out == "(a) (x) (a*) - (a*) (x) (a) - (b) (x) (b*) + (b*) (x) (b)\n"


# arguments a command needs but argparse cannot demand, since other
# operations of the same parser do without them
INCOMPLETE = [
    (["rho", "-q", q("loop.json"), "-l", "(e e*) + (e)", "--dims", "1"],
     "single multiset term"),
    (["rho", "-q", q("loop.json"), "-l", "(e e*)", "--dims", "1", "--heights", "1"],
     "need 2 heights"),
    (["ribbon", "homology", "--faces", "3"], "need --genus and --faces"),
    (["ribbon", "homology", "--genus", "0", "--faces", "3", *TWOVERTEX],
     "both --graph and --labels"),
    (["ribbon", "cochain", "-q", q("loop.json"), "--necklaces", "(e e*)"],
     "cochain needs --ribbon"),
    (["ribbon", "cochain", "--ribbon", q("p3.json"), "-q", q("loop.json"),
      "--necklaces", "(e e*)&(e e*);(e e*);(e e*)"], "single necklace"),
    (["ainf", "cycle", "--data", q("unit.json"), "--genus", "0", "--faces", "3"],
     "cycle needs --genus, --faces, --labels"),
]


@pytest.mark.parametrize("args, key", INCOMPLETE)
def test_incomplete_commands_exit_two(args, key, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, ""), args
    assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1


# an operation parses only the flags its code reads: any other flag, or a
# value no code path handles, is a usage error that names the flag
UNREAD_FLAGS = [
    (["algebra", "coprod", "-q", q("loop.json"), "-l", "(e e*)", "-r", "(e e*)"], "-r"),
    (["algebra", "star", "-q", q("loop.json"), "-l", "(e e*)", "-r", "(e e*)",
      "--format", "json"], "--format"),
    (["trace", "-q", q("loop.json"), "-l", "(e e*)", "--seed", "1"], "--seed"),
    (["verify", "diagram", "-q", q("loop.json"), "--random-cases", "3"], "--random-cases"),
    (["verify", "hopf", "-q", q("loop.json"), "--dims", "1"], "--dims"),
    (["ribbon", "boundary", "--genus", "0", "--faces", "3", "--format", "json"], "--format"),
    (["ribbon", "cochain", "--ribbon", q("p3.json"), "-q", q("loop.json"),
      "--necklaces", "(e e*)", "--genus", "1"], "--genus"),
    (["ribbon", "enum", "--genus", "1", "--faces", "1", "--cache-dir", "x"], "--cache-dir"),
    (["ainf", "check", "--data", q("unit.json"), "--labels", "v"], "--labels"),
    (["ainf", "check", "--data", q("unit.json"), "--jobs", "2"], "--jobs"),
    (["ribbon", "homology", "--genus", "0", "--faces", "3", "--format", "tsv"], "--format"),
    (["ainf", "cycle", "--data", q("unit.json"), "--genus", "0", "--faces", "3",
      "--labels", "v,v,v", "--jobs", "2"], "--jobs"),
]


@pytest.mark.parametrize("args, flag", UNREAD_FLAGS)
def test_unread_flags_are_usage_errors(args, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    last = capsys.readouterr().err.splitlines()[-1]
    assert exc.value.code == 2 and re.search(r"\s%s[\s:]" % re.escape(flag), last), last


def _readme_commands():
    """The argv of every `nlab` line of the README's command-line block, with
    `\\` continuations joined and `# ...` comments dropped."""
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)
                for line in block.replace("\\\n", " ").splitlines()]
    return [argv for argv in commands if argv]


def test_readme_commands_parse():
    # every `nlab` line of the README's command-line block is accepted as is
    commands = _readme_commands()
    assert len(commands) >= 16
    parser = build_parser()
    for argv in commands:
        assert argv[0] == "nlab", argv
        parser.parse_args(argv[1:])


def test_readme_outputs_byte_identical(monkeypatch, capsys):
    # every README command prints exactly its recorded stdout; a refactor
    # must leave these bytes alone, and an intended change of output
    # updates tests/readme_outputs.json with it
    with open(os.path.join(os.path.dirname(__file__), "readme_outputs.json")) as f:
        recorded = json.load(f)
    monkeypatch.chdir(os.path.join(os.path.dirname(__file__), ".."))
    monkeypatch.delenv("NLAB_CACHE", raising=False)
    commands = _readme_commands()
    assert [shlex.join(argv) for argv in commands] == [line for line, _ in recorded]
    for argv, (line, expected) in zip(commands, recorded):
        code, out, _ = run_cli(argv[1:], capsys)
        assert (code, out) == (0, expected), line


def _operation_parsers(parser, prefix=()):
    """(operation words, parser) for every operation parser under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _operation_parsers(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


def test_readme_flag_table_matches_parsers():
    # each row of the README's operation table names, by its first spelling,
    # exactly the options that the operation's parser registers
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        readme = f.read()
    family = re.search(r"\* Family flags: (.*?)\n\*", readme, re.S).group(1)
    table = readme.split("| operation | flags |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for row in table.strip().splitlines()[1:]:
        ops, flags = row.strip("|").split("|")
        flags = flags.replace("family flags", family)
        for op in re.findall(r"`([^`]+)`", ops):
            documented[op] = {f for f in re.findall(r"`([^`]+)`", flags)
                              if f.startswith("-")}
    registered = {op: {a.option_strings[0] for a in p._actions
                       if a.option_strings and a.dest != "help"}
                  for op, p in _operation_parsers(build_parser())}
    assert documented == registered


def test_capped_homology_notes_the_upper_bound(capsys):
    # below the top degree (always for valence 2) the last row is dim ker d_k:
    # stdout keeps the table and stderr names the capped degree
    capped = ["ribbon", "homology", "--genus", "1", "--faces", "2"]
    code, out, err = run_cli(capped + ["--max-edges", "5"], capsys)
    assert (code, out) == (0, "degree\tdim\tbetti\n3\t1\t0\n4\t5\t0\n5\t8\t4\n")
    assert err == ("note: --max-edges caps the complex at degree 5: its betti is "
                   "dim ker d_5, only an upper bound\n")
    code, out, err = run_cli(["ribbon", "homology", "--genus", "0", "--faces", "2",
                              "--min-valence", "2", "--max-edges", "4", "--format",
                              "json"], capsys)
    assert code == 0 and json.loads(out)["4"] == {"dim": 0, "betti": 0}
    assert "degree 4" in err and "upper bound" in err
    for extra in ([], ["--max-edges", "6"], ["--max-edges", "9"]):
        code, out, err = run_cli(capped + extra, capsys)
        assert (code, out.splitlines()[-1], err) == (0, "6\t5\t1", ""), extra


def test_plane_tree_homology_exits_zero(capsys):
    # d_1 contracts the single edge to a valence-0 vertex, which lies in no
    # complex: it is no boundary term, so every cap prints its table
    table = "degree\tdim\tbetti\n0\t0\t0\n1\t1\t1\n2\t0\t0\n3\t1\t1\n4\t2\t2\n"
    for n in (1, 2, 3, 4):
        code, out, err = run_cli(["ribbon", "homology", "--genus", "0", "--faces", "1",
                                  "--min-valence", "1", "--max-edges", str(n)], capsys)
        assert (code, out) == (0, "".join(table.splitlines(True)[:n + 2])), n
        assert "caps the complex at degree %d" % n in err, n


def test_warm_ribbon_homology_checks_d_squared_once(tmp_path, monkeypatch, capsys):
    from nlab.ribbon.complexes import RibbonComplex
    args = ["ribbon", "homology", "--genus", "1", "--faces", "2", "--max-edges", "6",
            "--cache-dir", str(tmp_path)]
    calls = []
    check = RibbonComplex.check_d_squared
    monkeypatch.setattr(RibbonComplex, "check_d_squared",
                        lambda self: calls.append(1) or check(self))
    cold = run_cli(args, capsys)
    assert cold[0] == 0 and calls == [1]
    monkeypatch.setattr(RibbonComplex, "_build", lambda self: pytest.fail("cache miss"))
    assert run_cli(args, capsys) == cold
    assert calls == [1, 1]


def test_ribbon_cochain_cli(tmp_path, capsys):
    from ribbon_helpers import polygon
    path = tmp_path / "p3.json"
    path.write_text(polygon(3).to_json(face_labels=["v", "v"]))
    code, out, _ = run_cli(["ribbon", "cochain", "--ribbon", str(path),
                            "-q", q("loop.json"), "--mult", "1",
                            "--necklaces", "(e e*);(e e*);(e e*)"], capsys)
    assert code == 0
    # a value is printed (exact rational)
    assert out.strip().lstrip("-").replace("/", "").isdigit()


def test_ribbon_cochain_rejects_label_outside_quiver(tmp_path, capsys):
    with open(q("p3.json")) as f:
        graph = json.load(f)
    graph["labels"]["face0"] = "zz"
    path = tmp_path / "p3zz.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(["ribbon", "cochain", "--ribbon", str(path), "-q", q("loop.json"),
                              "--mult", "2", "--necklaces",
                              "(e#1 e#2*);(e#2 e#1*);(e#1 e#1*)"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "'zz'" in err and len(err.splitlines()) == 1


def _ainf_blob(dim, pairing, tensor=None, parity=0):
    blob = {"objects": ["v"], "adjacency": [["v", "v"]],
            "spaces": {"v,v": {"parities": [parity] * dim}},
            "pairings": {"v,v": pairing}, "products": []}
    if tensor is not None:
        blob["products"] = [{"cycle": ["v", "v", "v"], "tensor": tensor}]
    return blob


def _two_object_blob(pairings):
    with open(q("two_object.json")) as f:
        blob = json.load(f)
    blob["pairings"] = pairings
    return blob


def _unit_blob(key, value):
    """examples-data/unit.json with one top-level entry replaced."""
    blob = _ainf_blob(1, [[1]], [[[1]]])
    blob[key] = value
    return blob


# A-infinity data whose pairing or product tensor is not shaped by the
# dimensions of its spaces, has a leaf that is not a number, whose pairings
# break graded symmetry <y, x> = (-1)^{|x||y|} <x, y>, names an object by
# something other than a string or twice, has a parity other than the ints 0
# and 1, or a product cycle of fewer than 3 objects
MALFORMED_AINF = {
    "object-not-a-string": (_unit_blob("objects", [["v"]]), "object ['v']"),
    "object-repeated": (_unit_blob("objects", ["v", "v"]), "object 'v' is repeated"),
    "adjacency-endpoint-not-a-string": (_unit_blob("adjacency", [["v", 1]]),
                                        "adjacency entry ['v', 1]"),
    "cycle-entry-not-a-string": (
        _unit_blob("products", [{"cycle": [["v"], "v", "v"], "tensor": [[[1]]]}]),
        "product cycle [['v'], 'v', 'v']"),
    "cycle-of-one-object": (_unit_blob("products", [{"cycle": ["v"], "tensor": [1]}]),
                            "product cycle ['v'] has fewer than 3 objects"),
    "cycle-of-two-objects": (_unit_blob("products", [{"cycle": ["v", "v"], "tensor": [[1]]}]),
                             "product cycle ['v', 'v'] has fewer than 3 objects"),
    "parity-null": (_ainf_blob(1, [[1]], [[[1]]], parity=None), "parity None"),
    "parity-list": (_ainf_blob(1, [[1]], [[[1]]], parity=[0]), "parity [0]"),
    "parity-fraction": (_ainf_blob(1, [[1]], [[[1]]], parity=1.5), "parity 1.5"),
    "parity-two": (_ainf_blob(1, [[1]], [[[1]]], parity=2), "parity 2"),
    "parity-bool": (_ainf_blob(1, [[1]], [[[1]]], parity=True), "parity True"),
    "flip-not-graded-symmetric": (_two_object_blob({"p,q": [[1]], "q,p": [[2]]}),
                                  "pairings p,q and q,p"),
    "self-pairing-not-symmetric": (_ainf_blob(2, [[0, 1], [2, 0]]), "pairing v,v"),
    "odd-self-pairing-not-antisymmetric": (_ainf_blob(2, [[0, 1], [1, 0]], parity=1),
                                           "pairing v,v"),
    "pairing-too-small": (_ainf_blob(2, [[1]]), "pairing v,v"),
    "pairing-too-large": (_ainf_blob(2, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), "pairing v,v"),
    "pairing-not-a-matrix": (_ainf_blob(1, [1]), "pairing v,v"),
    "pairing-string-entry": (_ainf_blob(1, [["1"]]), "pairing v,v"),
    "tensor-too-shallow": (_ainf_blob(1, [[1]], [[1]]), "cycle ('v', 'v', 'v')"),
    "tensor-too-wide": (_ainf_blob(1, [[1]], [[[1, 2]]]), "cycle ('v', 'v', 'v')"),
    "tensor-too-deep": (_ainf_blob(1, [[1]], [[[[1]]]]), "cycle ('v', 'v', 'v')"),
    "tensor-boolean-entry": (_ainf_blob(1, [[1]], [[[True]]]), "cycle ('v', 'v', 'v')"),
    "tensor-nan-entry": (_ainf_blob(1, [[1]], [[[float("nan")]]]), "cycle ('v', 'v', 'v')"),
    "pairing-infinite-entry": (_ainf_blob(1, [[float("inf")]]), "pairing v,v"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_AINF))
def test_malformed_ainf_data_exits_two(name, tmp_path, capsys):
    blob, key = MALFORMED_AINF[name]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(blob))
    for op in (["ainf", "check", "--data", str(path)],
               ["ainf", "cycle", "--data", str(path), "--genus", "0", "--faces", "3",
                "--labels", "v,v,v"]):
        code, out, err = run_cli(op, capsys)
        assert (code, out) == (2, ""), op
        assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1, err


def test_ainf_decimal_entries_are_read_exactly(tmp_path, capsys):
    # 0.1 and 0.3 are 1/10 and 3/10, not the binary doubles nearest to them
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(_ainf_blob(1, [[0.1]], [[[0.3]]])))
    code, out, _ = run_cli(["ainf", "cycle", "--data", str(path), "--genus", "0",
                            "--faces", "3", "--labels", "v,v,v"], capsys)
    assert (code, out) == (0, "degree 2: 0\ndegree 3: 45 -15\n"
                               "boundary of every chain is zero: True\n")


def test_ainf_outputs_pinned(tmp_path, monkeypatch, capsys):
    # each recorded `ainf` command prints exactly its recorded stdout and exit
    # code; examples-data/ is copied beside z4.json, the group algebra of Z/4
    # with its trace form, so every recorded line runs as written
    with open(os.path.join(os.path.dirname(__file__), "ainf_outputs.json")) as f:
        recorded = json.load(f)
    n = 4
    z4 = _ainf_blob(n, [[int((a + b) % n == 0) for b in range(n)] for a in range(n)],
                    [[[int((a + b + c) % n == 0) for c in range(n)] for b in range(n)]
                     for a in range(n)])
    (tmp_path / "z4.json").write_text(json.dumps(z4))
    shutil.copytree(DATA, tmp_path / "examples-data")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("NLAB_CACHE", raising=False)
    assert len(recorded) == 13
    for line, code, expected in recorded:
        assert run_cli(shlex.split(line)[1:], capsys)[:2] == (code, expected), line


def test_console_script_entry():
    # the child imports the same nlab as this process, installed or not
    import nlab
    src = os.path.dirname(os.path.dirname(nlab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nlab.cli", "algebra",
                           "antipode", "-q", q("loop.json"), "-l", "(e e*)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "-(e e*)"


def test_malformed_input_exits_two(tmp_path, capsys):
    ribbon = ["ribbon", "cochain", "-q", q("loop.json"), "--necklaces", "(e e*)", "--ribbon"]
    cases = [
        (["verify", "hopf", "-q"], {"vertices": ["v"]}, "'edges'"),
        (["verify", "hopf", "-q"],
         {"vertices": ["v"], "edges": [{"id": "e", "head": "v"}]}, "'tail'"),
        (["ainf", "check", "--data"],
         {"objects": ["v"], "adjacency": [["v", "v"]],
          "spaces": {"v,v": {"parities": [0]}}}, "'pairings'"),
        (ribbon, {"half_edges": [0, 1], "gamma": [[0, 1]]}, "'iota'"),
    ]
    good = {"half_edges": [0, 1], "iota": [[0, 1]], "gamma": [[0, 1]]}
    for change, key in [({"iota": [[0, 7]]}, "iota entry [0, 7] names 7"),
                        ({"gamma": [[0, 9]]}, "gamma entry [0, 9] names 9"),
                        ({"gamma": [0]}, "gamma entry 0"),
                        ({"labels": {"face9": "v"}}, "'face9'"),
                        ({"labels": {"face0": [1], "face1": "v"}}, "face label [1]"),
                        ({"iota": [[0, 1, 1]]}, "iota entry [0, 1, 1]"),
                        ({"iota": [0]}, "iota entry 0"),
                        ({"half_edges": [[0], 1]}, "half-edge [0]")]:
        cases.append((ribbon, dict(good, **change), key))
    for n, (args, data, key) in enumerate(cases):
        path = tmp_path / ("bad%d.json" % n)
        path.write_text(json.dumps(data))
        code, out, err = run_cli(args + [str(path)], capsys)
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error: ") and key in err
