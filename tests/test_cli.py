import json
import subprocess
import sys

from groupoidlab import bundled
from groupoidlab import finspace as fs
from groupoidlab import graphfell
from groupoidlab import serialize as sz
from groupoidlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_graph_fell_bundled(capsys):
    code, report = run_cli(capsys, "graph-fell", "bundled:two-thread-ladder")
    assert code == 0
    assert report["result"]["verdict"]["verdict"] == "NOT_FELL"
    paths = report["result"]["verdict"]["witness_paths"]
    assert len(paths) == 2 and paths[0] != paths[1]
    # the validation the verdict read from the unrolled graph
    assert report["result"]["validation"]["acyclic"]
    assert "validation" not in report["result"]["verdict"]


def test_graph_fell_unroll_bound_out_of_range(capsys):
    for bound in (-1, graphfell.MAX_UNROLL_BOUND + 1):
        code, report = run_cli(
            capsys, "graph-fell", "bundled:two-thread-ladder", "--unroll-bound", str(bound)
        )
        assert code == 1 and report["schema"] == "report/1" and report["exit_code"] == 1
        assert report["result"]["error"].startswith("GraphError")


def test_cocycle_verify_bundled(capsys):
    code, report = run_cli(capsys, "cocycle-verify", "bundled:trivial-cocycle")
    assert code == 0
    assert report["result"]["report"]["valid"]


def test_cech_cert_bundled(capsys):
    code, report = run_cli(capsys, "cech-cert", "bundled:tetrahedron-z3")
    assert code == 0
    cob = report["result"]["coboundary"]
    assert not cob["is_coboundary"]
    assert cob["certificate"]


def test_space_check(capsys, tmp_path):
    doc = sz.space_to_json(fs.sierpinski())
    code, report = run_cli(capsys, "space-check", write(tmp_path, "s.json", doc))
    assert code == 0
    props = report["result"]["properties"]
    assert not props["hausdorff"] and not props["locally_hausdorff"]
    assert report["result"]["locally_locally_compact"] is True
    assert report["result"]["compactness_equivalence_holds"] is True
    assert report["result"]["open_subsets_checked"] == 2  # {a} and {a, b}
    assert report["result"]["closed_hausdorff_core"]["core"] == []

    # an open of a disjoint union is one open per piece: 3 ** 3 of them, one empty
    doc = sz.space_to_json(fs.disjoint_union([fs.sierpinski()] * 3))
    code, report = run_cli(capsys, "space-check", write(tmp_path, "u.json", doc))
    assert code == 0
    assert report["result"]["open_subsets_checked"] == 26
    assert report["result"]["locally_locally_compact"] is True
    assert report["result"]["compactness_equivalence_holds"] is True


def test_map_classify(capsys, tmp_path):
    y = fs.FinSpace(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
    psi = fs.SpaceMap(y, fs.sierpinski(), {"0": "b", "1": "a", "2": "a"})
    code, report = run_cli(capsys, "map-classify", write(tmp_path, "m.json", sz.map_to_json(psi)))
    assert code == 0
    props = report["result"]["properties"]
    assert props["quotient"] and not props["local_homeomorphism"]


def test_build_relation_and_fell_check(capsys, tmp_path):
    y = fs.discrete(("1", "2", "3"))
    x = fs.discrete(("a", "b"))
    psi = fs.SpaceMap(y, x, {"1": "a", "2": "a", "3": "b"})
    path = write(tmp_path, "psi.json", sz.map_to_json(psi))
    code, report = run_cli(capsys, "build-relation", path)
    assert code == 0
    assert report["result"]["morphisms"] == 5
    assert report["result"]["orbit_sizes"] == [2, 1]

    gpath = write(tmp_path, "g.json", report["result"]["groupoid"])
    code, report = run_cli(capsys, "fell-check", gpath)
    assert code == 0
    assert report["result"]["fell"]["is_fell_model"]


def test_fell_check_discrete_morphisms_flag(capsys, tmp_path):
    y = fs.FinSpace(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
    psi = fs.SpaceMap(y, fs.sierpinski(), {"0": "b", "1": "a", "2": "a"})
    doc = {"schema": "relation_groupoid/1", "psi": sz.map_to_json(psi)}
    path = write(tmp_path, "rel.json", doc)
    code, report = run_cli(capsys, "fell-check", "--discrete-morphisms", path)
    assert code == 0
    assert not report["result"]["fell"]["is_fell_model"]
    assert report["result"]["fell"]["witness"] == ["(0,0)"]


def test_algebra_verify_random(capsys, monkeypatch):
    monkeypatch.setenv("GROUPOIDLAB_SEED", "7")
    code, report = run_cli(capsys, "algebra-verify", "--random", "3")
    assert code == 0
    assert report["result"]["instances"] == 3
    assert report["result"]["seed"] == 7


def test_model_doubled(capsys):
    code, report = run_cli(capsys, "model-doubled", "--levels", "2", "--sheets", "2")
    assert code == 0
    assert report["result"]["block_shape"] == [2, 1, 1]


def test_model_cover(capsys):
    code, report = run_cli(capsys, "model-cover", "bundled:tetrahedron-z3")
    assert code == 0
    assert report["result"]["twist_nontrivial_certified"]


def test_equivariant_check(capsys):
    code, report = run_cli(capsys, "equivariant-check", "bundled:trivial-cocycle")
    assert code == 0
    assert report["result"]["ok"]


def test_exit_code_1_on_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report = run_cli(capsys, "space-check", str(bad))
    assert code == 1
    assert not report["ok"]

    missing = write(tmp_path, "m.json", {"schema": "finspace/1", "points": ["x"], "min_open": {}})
    code, report = run_cli(capsys, "space-check", missing)
    assert code == 1
    assert "error" in report["result"]


def test_exit_code_2_on_injected_fault(capsys):
    code, report = run_cli(capsys, "suite", "--inject-cocycle-fault")
    assert code == 2
    assert sorted(report["result"]["failed"]) == [
        "convolution-associativity",
        "extension-associativity",
    ]


def test_suite_all_pass(capsys):
    code, report = run_cli(capsys, "suite")
    assert code == 0
    names = {e["name"] for e in report["result"]["entries"]}
    assert {
        "orbit-map-identification",
        "etale-iff-local-homeomorphism",
        "discrete-local-homeo-fell",
        "rxs-openness-surrogate",
        "graph-two-thread-ladder",
        "matrix-block-model",
        "induced-rep-unitary-equivalence",
        "cover-twist-model",
        "boundary-character",
        "character-kernel-isomorphism",
        "equivariant-slice-equivalence",
        "closed-hausdorff-core",
        "convolution-associativity",
        "extension-associativity",
    } <= names
    assert all(e["ok"] for e in report["result"]["entries"])


def test_reports_deterministic(capsys, monkeypatch):
    monkeypatch.setenv("GROUPOIDLAB_SEED", "0")

    def strip_clock(report):
        report.pop("elapsed_seconds")
        return json.dumps(report, sort_keys=True)

    runs = []
    for _ in range(2):
        code, report = run_cli(capsys, "graph-fell", "bundled:two-thread-ladder")
        assert code == 0
        runs.append(strip_clock(report))
    assert runs[0] == runs[1]

    runs = []
    for _ in range(2):
        code, report = run_cli(capsys, "algebra-verify", "--random", "2")
        assert code == 0
        runs.append(strip_clock(report))
    assert runs[0] == runs[1]


def test_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["--output", str(out), "cocycle-verify", "bundled:trivial-cocycle"])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert capsys.readouterr().out == ""


def test_console_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", "graph-fell", "bundled:two-thread-ladder"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"]["verdict"] == "NOT_FELL"
