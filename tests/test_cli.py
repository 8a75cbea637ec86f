import json
import os
import subprocess
import sys

import pytest

from nlab.cli import main

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
    ]:
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (2, ""), args
        assert err.startswith("error: ") and key in err and len(err.splitlines()) == 1
    # --jobs belongs to `ainf` alone: elsewhere it is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["verify", "hopf", "-q", q("loop.json"), "--jobs", "4"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err


def test_ribbon_cochain_cli(tmp_path, capsys):
    from nlab.ribbon.graph import polygon
    path = tmp_path / "p3.json"
    path.write_text(polygon(3).to_json(face_labels=["v", "v"]))
    code, out, _ = run_cli(["ribbon", "cochain", "--ribbon", str(path),
                            "-q", q("loop.json"), "--mult", "1",
                            "--necklaces", "(e e*);(e e*);(e e*)"], capsys)
    assert code == 0
    # a value is printed (exact rational)
    assert out.strip().lstrip("-").replace("/", "").isdigit()


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
