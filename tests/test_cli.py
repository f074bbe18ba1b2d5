import dataclasses
import hashlib
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from groupoidlab import bundled
from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import graphfell
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw
from groupoidlab.cli import main
from helpers import BIG_MODULI, disjoint_union, label_space, random_dag


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


def test_graph_fell_on_a_long_chain_within_budget(capsys, tmp_path):
    # v0 <- v1 <- ... <- v5999: path counts kept as dict rows grow with the
    # square of the chain and took several times this budget
    n = 6000
    doc = {
        "schema": "digraph/1",
        "vertices": [f"v{k}" for k in range(n)],
        "edges": [{"id": f"e{k}", "range": f"v{k}", "source": f"v{k + 1}"} for k in range(n - 1)],
    }
    path = write(tmp_path, "chain.json", doc)
    started = time.perf_counter()
    code, report = run_cli(capsys, "graph-fell", path)
    elapsed = time.perf_counter() - started
    assert code == 0 and report["schema"] == "report/1"
    verdict = report["result"]["verdict"]
    assert verdict["verdict"] == "FELL" and verdict["vacuous"]
    assert len(verdict["single_threaded"]) == n
    assert elapsed < 2.0, f"graph-fell on a {n}-vertex chain took {elapsed:.2f}s"


def test_graph_fell_names_a_source_labelled_null(capsys, tmp_path):
    doc = {"schema": "digraph/1", "vertices": [None, "a"], "edges": [{"id": "e", "range": "a", "source": None}]}
    code, report = run_cli(capsys, "graph-fell", write(tmp_path, "null.json", doc))
    assert code == 0
    assert report["result"]["validation"] == {
        "acyclic": True, "cycle_witness": None, "no_sources": False, "source_witness": "None",
    }


def test_usage_errors_are_input_errors_with_a_report(capsys):
    cases = (
        (["graph-fell", "bundled:two-thread-ladder", "--unroll-bound", "x"], "graph-fell"),
        (["model-doubled", "--levels", "2", "--sheets", "x"], "model-doubled"),
        (["graph-fell", "bundled:two-thread-ladder", "--bogus"], "graph-fell"),
        (["no-such-command"], None),
        ([], None),
    )
    for argv, command in cases:
        code, report = run_cli(capsys, *argv)
        assert code == 1 and report["schema"] == "report/1" and report["exit_code"] == 1
        assert report["command"] == command and not report["ok"]
        assert report["result"]["error"].startswith("UsageError")
    with pytest.raises(SystemExit) as exc:
        main(["graph-fell", "--help"])
    assert exc.value.code == 0


def test_unreadable_input_path_is_an_input_error(capsys, tmp_path):
    code, report = run_cli(capsys, "space-check", str(tmp_path))
    assert code == 1 and report["exit_code"] == 1 and report["command"] == "space-check"
    assert report["result"]["error"].startswith("IsADirectoryError")
    code, report = run_cli(capsys, "fell-check", "bundled:nope")
    assert code == 1 and report["exit_code"] == 1 and report["command"] == "fell-check"
    assert report["result"]["error"] == (
        "KeyError: \"unknown bundled input 'nope'; choose from ('two-thread-ladder', 'trivial-cocycle', 'tetrahedron-z3')\""
    )


def ladder_document(rungs):
    """``rungs`` two-thread ladders chained inside one periodic block."""
    vertices, edges = [], []
    for i in range(rungs):
        vertices += [f"v{i}", f"t{i}", f"c{i}"]
        edges += [(f"f1_{i}", f"v{i}", f"t{i}"), (f"f2_{i}", f"v{i}", f"t{i}"), (f"g{i}", f"t{i}", f"c{i}")]
        if i + 1 < rungs:
            edges.append((f"h{i}", f"v{i}", f"v{i + 1}"))
    rows = [{"id": e, "range": r, "source": s} for e, r, s in edges]
    return {
        "schema": "periodic_graph/1",
        "block": {"schema": "digraph/1", "vertices": vertices, "edges": rows},
        "prefix": {"schema": "digraph/1", "vertices": [], "edges": []},
        "seam_prefix": [],
        "seam_block": [{"id": "chain", "range": f"v{rungs - 1}", "source": "v0"}],
    }


def test_graph_fell_report_does_not_depend_on_the_hash_seed(tmp_path):
    # the witness once followed set iteration order: (b,0,v2) under hash
    # seed 0 and (b,0,v1) under hash seed 1
    path = write(tmp_path, "ladder.json", ladder_document(4))
    src = os.path.dirname(os.path.dirname(os.path.abspath(sz.__file__)))
    reports = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "groupoidlab.cli", "graph-fell", path, "--unroll-bound", "3"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        assert report["result"]["verdict"]["verdict"] == "NOT_FELL"
        report.pop("elapsed_seconds")
        reports.append(report)
    assert reports[0] == reports[1]


# sha256 of the graph-fell report without elapsed_seconds, as printed when
# graphs were kept on label dicts: refactors keep the reports byte-identical
PINNED_REPORTS = {
    "ladder": "34cc758ae7d39da0d53074f3967e3b5afb803fc03d75064b2cdc5945d2153806",
    "dag": "37f6f03b0ead9163705218085ed68fd18dfa24ed435b3df9f66d9bd88b93c7aa",
}


def report_digest(capsys, *argv):
    code, report = run_cli(capsys, *argv)
    assert code == 0
    report.pop("elapsed_seconds")
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def test_graph_fell_reports_are_pinned(capsys, tmp_path):
    for bound in ("0", "1", "3", "30"):
        digest = report_digest(capsys, "graph-fell", "bundled:two-thread-ladder", "--unroll-bound", bound)
        assert digest == PINNED_REPORTS["ladder"], bound
    vertices, edges = random_dag(random.Random(3), 12)
    doc = {"schema": "digraph/1", "vertices": vertices,
           "edges": [{"id": e, "range": r, "source": s} for e, r, s in edges]}
    assert report_digest(capsys, "graph-fell", write(tmp_path, "dag.json", doc)) == PINNED_REPORTS["dag"]


def test_cocycle_verify_bundled(capsys):
    code, report = run_cli(capsys, "cocycle-verify", "bundled:trivial-cocycle")
    assert code == 0
    assert report["result"]["report"]["valid"]


def test_every_command_names_the_same_missing_cocycle_entry(capsys, tmp_path):
    # rows 2 and 7 are ('1','2'),('2','1') and ('2','2'),('2','2'); the
    # first in pair order is named, where the table is read
    doc = bundled.bundled_document("trivial-cocycle")
    doc["cocycle"]["table"] = [row for k, row in enumerate(doc["cocycle"]["table"]) if k not in (2, 7)]
    path = write(tmp_path, "partial.json", doc)
    for command in ("cocycle-verify", "algebra-verify", "equivariant-check"):
        code, report = run_cli(capsys, command, path)
        assert code == 1, command
        assert report["result"]["error"] == (
            "CocycleError: cocycle table missing composable pair (('1', '2'),('2', '1')) (at //cocycle/table)"
        ), command


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
    doc = sz.space_to_json(disjoint_union([fs.sierpinski()] * 3))
    code, report = run_cli(capsys, "space-check", write(tmp_path, "u.json", doc))
    assert code == 0
    assert report["result"]["open_subsets_checked"] == 26
    assert report["result"]["locally_locally_compact"] is True
    assert report["result"]["compactness_equivalence_holds"] is True


def test_map_classify(capsys, tmp_path):
    y = label_space(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
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
    y = label_space(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
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


def test_algebra_verify_reads_block_dims_from_orbits_over_a_non_discrete_base(capsys, tmp_path):
    # chain3 onto the Sierpinski space: the block dims are the orbit
    # sizes, which need no discrete base, so every command that reads
    # this twisted relation groupoid exits 0
    y = label_space(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
    relation = gp.build_relation_groupoid(fs.SpaceMap(y, fs.sierpinski(), {"0": "b", "1": "a", "2": "a"}))
    path = write(tmp_path, "tw.json", sz.twisted_groupoid_to_json(relation, tw.TwoCocycle.trivial(relation, 2)))
    code, report = run_cli(capsys, "algebra-verify", path)
    assert code == 0, report["result"]
    (battery,) = report["result"]["batteries"]
    assert battery["block_dims"] == [2, 1] and battery["block_dimension_identity"] and battery["ok"]
    for command in ("cocycle-verify", "equivariant-check"):
        assert run_cli(capsys, command, path)[0] == 0, command


def test_model_doubled(capsys):
    code, report = run_cli(capsys, "model-doubled", "--levels", "2", "--sheets", "2")
    assert code == 0
    assert report["result"]["block_shape"] == [2, 1, 1]


def test_model_cover(capsys):
    code, report = run_cli(capsys, "model-cover", "bundled:tetrahedron-z3")
    assert code == 0
    assert report["result"]["twist_nontrivial_certified"]


def test_model_cover_order_override_reads_as_the_rewritten_document(capsys, tmp_path):
    code, report = run_cli(capsys, "model-cover", "bundled:tetrahedron-z3", "--order", "6")
    assert code == 0
    assert report["result"]["order"] == 6 and report["result"]["twist_nontrivial_certified"] is True
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["n"] = 6
    code, rewritten = run_cli(capsys, "model-cover", write(tmp_path, "c.json", doc))
    assert code == 0 and rewritten["result"] == report["result"]



@pytest.mark.parametrize("row", [[2, 1, 3, 1], [1, 1, 2, 1]])
def test_model_cover_order_refuses_data_that_fails_verify_cech(capsys, tmp_path, row):
    # a conflicting orientation, or a nonzero value on a repeated index,
    # fails verify_cech with or without the override
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["lambda"].append(row)
    path = write(tmp_path, "c.json", doc)
    code, cert = run_cli(capsys, "cech-cert", path)
    assert code == 0 and cert["result"]["report"]["valid"] is False
    error = "CechError: cech data does not verify; run verify_cech for details"
    for extra in ([], ["--order", "3"], ["--order", "6"]):
        code, report = run_cli(capsys, "model-cover", path, *extra)
        assert code == 1 and report["result"]["error"] == error, extra


def test_model_cover_order_reads_rows_out_of_canonical_form_as_the_document(capsys, tmp_path, monkeypatch):
    # the only row on (1,2,3) is [2, 1, 3, 1], so lambda(1,2,3) = -1: 2 at
    # n = 3 and 5 at n = 6, not the 2 of the document read at n = 3
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["lambda"][0] = [2, 1, 3, 1]
    modelled = []
    build = ca.build_cover_model
    monkeypatch.setattr(ca, "build_cover_model", lambda data: modelled.append(data) or build(data))
    code, _ = run_cli(capsys, "model-cover", write(tmp_path, "c.json", doc), "--order", "6")
    assert code == 0 and modelled[0].n == 6 and modelled[0].value(1, 2, 3) == 5


def test_model_cover_order_is_read_as_the_document_n(capsys, tmp_path):
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["n"] = 0
    code, zero = run_cli(capsys, "model-cover", write(tmp_path, "c.json", doc))
    assert code == 1 and zero["result"]["error"] == "SchemaError: coefficient order must be positive (at /)"
    code, report = run_cli(capsys, "model-cover", "bundled:tetrahedron-z3", "--order", "0")
    assert code == 1 and report["result"] == zero["result"]
    # a document that is not an object is refused as it is without --order
    path = write(tmp_path, "list.json", [doc])
    code, plain = run_cli(capsys, "model-cover", path)
    overridden_code, overridden = run_cli(capsys, "model-cover", path, "--order", "3")
    assert code == overridden_code == 1 and overridden["result"] == plain["result"]


def shifted_cover(doc, by):
    """``doc`` with every cover index moved by ``by``."""
    doc = {**doc, "cover": {str(int(i) + by): pts for i, pts in doc["cover"].items()}}
    return {**doc, "lambda": [[i + by, j + by, k + by, v] for i, j, k, v in doc["lambda"]]}


def test_model_cover_names_the_cover_faults_of_the_doubling(capsys, tmp_path):
    doc = bundled.bundled_document("tetrahedron-z3")
    indices = "CechError: doubling expects cover indices starting at 1"
    empty = {**doc, "cover": {**doc["cover"], "1": []}}
    # the doubling is built before lambda is verified, so it names its
    # fault also on data that fails verify_cech
    unverified = shifted_cover({**doc, "lambda": [*doc["lambda"], [2, 1, 3, 1]]}, 1)
    for bad, error in (
        (shifted_cover(doc, 1), indices),
        # the reader refuses index 0 before the doubling sees it
        (shifted_cover(doc, -1), "SchemaError: cover indices must be positive integers in canonical decimal (at //cover/0)"),
        (unverified, indices),
        (empty, "CechError: cover set 1 is empty; nothing to double"),
    ):
        code, report = run_cli(capsys, "model-cover", write(tmp_path, "c.json", bad))
        assert code == 1 and report["exit_code"] == 1 and report["schema"] == "report/1"
        assert report["result"]["error"] == error


def test_model_cover_is_capped_at_32_base_points(capsys, tmp_path):
    points = [f"p{i}" for i in range(33)]
    doc = {"schema": "cech/1", "n": 3, "base_points": points, "cover": {"1": points}, "lambda": []}
    code, report = run_cli(capsys, "model-cover", write(tmp_path, "c.json", doc))
    assert code == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "SizeCapError: cover model capped at 32 base points"
    doc = {**doc, "base_points": points[:32], "cover": {"1": points[:32]}}
    code, report = run_cli(capsys, "model-cover", write(tmp_path, "c.json", doc))
    assert code == 0 and report["ok"]


def test_model_doubled_needs_two_levels(capsys):
    code, report = run_cli(capsys, "model-doubled", "--levels", "1", "--sheets", "2")
    assert code == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "ValueError: need at least 2 levels and 1 sheet"


def test_commands_that_need_a_relation_groupoid_refuse_a_fingroupoid(capsys, tmp_path):
    doc = group_document(4, random.Random(30))
    code, report = run_cli(capsys, "fell-check", write(tmp_path, "g.json", doc["groupoid"]), "--discrete-morphisms")
    assert code == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "SchemaError: --discrete-morphisms needs a relation groupoid (at /)"
    code, report = run_cli(capsys, "algebra-verify", write(tmp_path, "t.json", doc))
    assert code == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "SchemaError: algebra-verify expects a relation groupoid (at /)"


def test_algebra_verify_needs_an_input_or_random_instances(capsys):
    code, report = run_cli(capsys, "algebra-verify")
    assert code == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "SchemaError: provide an input file or --random N (at /)"


# a failed verification in each command that gates on one: the library
# function, the change to its result that fails the gate, the command
# line and the error
FAILED_VERIFICATIONS = {
    "build-relation": (gp, "orbit_map_check", lambda r: dataclasses.replace(r, bijective=False),
                       "orbit-space identification failed"),
    "graph-fell": (graphfell, "periodic_fell_verdict",
                   lambda v: dataclasses.replace(v, witness_paths=v.witness_paths[:1] * 2),
                   "witness paths are not distinct"),
    "algebra-verify": (ca, "axiom_battery", lambda c: dataclasses.replace(c, cocycle_valid=False),
                       "algebra axiom battery failed"),
    "model-doubled": (ca, "build_doubled_model", lambda r: dataclasses.replace(r, rho_bijective=False),
                      "doubled model verification failed"),
    "model-cover": (ca, "build_cover_model", lambda r: dataclasses.replace(r, kernel_iso_bijective=False),
                    "cover model verification failed"),
    "equivariant-check": (ca, "equivariant_suite", lambda r: dataclasses.replace(r, rho_bijective=False),
                          "equivariant slice equivalence failed"),
}


@pytest.mark.parametrize("command", sorted(FAILED_VERIFICATIONS))
def test_a_failed_verification_exits_2(capsys, tmp_path, monkeypatch, command):
    module, name, fail, error = FAILED_VERIFICATIONS[command]
    psi = fs.SpaceMap(fs.discrete((1, 2, 3)), fs.discrete(("a", "b")), {1: "a", 2: "a", 3: "b"})
    argv = {
        "build-relation": [write(tmp_path, "psi.json", sz.map_to_json(psi))],
        "graph-fell": ["bundled:two-thread-ladder"],
        "algebra-verify": ["bundled:trivial-cocycle"],
        "model-doubled": ["--levels", "2", "--sheets", "2"],
        "model-cover": ["bundled:tetrahedron-z3"],
        "equivariant-check": ["bundled:trivial-cocycle"],
    }[command]
    code, report = run_cli(capsys, command, *argv)
    assert code == 0 and report["ok"]
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args, **kwargs: fail(real(*args, **kwargs)))
    code, report = run_cli(capsys, command, *argv)
    assert code == 2 and report["exit_code"] == 2 and report["schema"] == "report/1"
    assert report["ok"] is False and report["result"] == {"error": error}


def test_cech_cert_names_a_nonzero_value_on_repeated_indices(capsys, tmp_path):
    _, plain = run_cli(capsys, "cech-cert", "bundled:tetrahedron-z3")
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["lambda"].append([1, 1, 2, 1])
    code, report = run_cli(capsys, "cech-cert", write(tmp_path, "c.json", doc))
    assert code == 0
    assert report["result"]["report"]["valid"] is False
    assert report["result"]["report"]["repeated_index_violations"] == [[1, 1, 2]]
    assert "coboundary" not in report["result"]
    # a zero there is accepted, and the verdict is the bundled one
    doc["lambda"][-1] = [1, 1, 2, 0]
    code, report = run_cli(capsys, "cech-cert", write(tmp_path, "c.json", doc))
    assert code == 0 and report["result"]["report"]["valid"] is True
    assert report["result"] == plain["result"] and "coboundary" in report["result"]


def test_cech_cert_rejects_a_cover_set_outside_the_base(capsys, tmp_path):
    doc = bundled.bundled_document("tetrahedron-z3")
    doc["cover"]["2"] = [*doc["cover"]["2"], "stray"]
    code, report = run_cli(capsys, "cech-cert", write(tmp_path, "c.json", doc))
    assert code == 1 and report["exit_code"] == 1
    assert report["result"]["error"].startswith("SchemaError: cover set 2 is not a subset of the base")


def test_cech_cert_rejects_a_cover_index_below_1(capsys, tmp_path):
    # the indices 1..4 of the bundled cover moved to -1..2
    doc = shifted_cover(bundled.bundled_document("tetrahedron-z3"), -2)
    code, report = run_cli(capsys, "cech-cert", write(tmp_path, "c.json", doc))
    assert code == 1 and report["exit_code"] == 1 and report["schema"] == "report/1"
    assert report["result"]["error"] == "SchemaError: cover indices must be positive integers in canonical decimal (at //cover/-1)"


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


def test_unopenable_output_reports_on_stdout(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code, report = run_cli(capsys, "--output", str(target), "cocycle-verify", "bundled:trivial-cocycle")
    assert code == 1 and report["exit_code"] == 1 and not report["ok"]
    assert report["schema"] == "report/1" and report["command"] == "cocycle-verify"
    assert report["result"]["error"].startswith("FileNotFoundError")
    assert not target.parent.exists()


def test_console_entry_point_via_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", "graph-fell", "bundled:two-thread-ladder"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["verdict"]["verdict"] == "NOT_FELL"


def test_parser_state_does_not_leak_between_calls(capsys, tmp_path):
    # the parser is built once per process; each call still starts from
    # the defaults.  On the seam graph bound 0 answers FELL, while the
    # default bound 3 leaves the verdict undecided; the relation groupoid
    # is Fell unless --discrete-morphisms is given.
    seam = {
        "schema": "periodic_graph/1",
        "block": {"schema": "digraph/1", "vertices": ["v", "w"], "edges": []},
        "prefix": {"schema": "digraph/1", "vertices": [], "edges": []},
        "seam_prefix": [],
        "seam_block": [
            {"id": "a", "range": "v", "source": "w"},
            {"id": "b", "range": "v", "source": "w"},
            {"id": "c", "range": "w", "source": "v"},
        ],
    }
    graph = write(tmp_path, "seam.json", seam)
    y = label_space(("0", "1", "2"), {"0": {"0", "1", "2"}, "1": {"1", "2"}, "2": {"2"}})
    psi = fs.SpaceMap(y, fs.sierpinski(), {"0": "b", "1": "a", "2": "a"})
    relation = write(tmp_path, "rel.json", {"schema": "relation_groupoid/1", "psi": sz.map_to_json(psi)})
    verdict = lambda report: report["result"]["verdict"]["verdict"]
    fell = lambda report: report["result"]["fell"]["is_fell_model"]

    code, report = run_cli(capsys, "graph-fell", graph, "--unroll-bound", "0")
    assert code == 0 and verdict(report) == "FELL"
    code, report = run_cli(capsys, "fell-check", "--discrete-morphisms", relation)
    assert code == 0 and not fell(report)
    code, default = run_cli(capsys, "graph-fell", graph)
    assert code == 0 and verdict(default).startswith("UNDECIDED")
    code, report = run_cli(capsys, "fell-check", relation)
    assert code == 0 and fell(report)
    code, again = run_cli(capsys, "graph-fell", graph, "--unroll-bound", "3")
    assert again["result"] == default["result"]
    assert main(["--output", str(tmp_path / "r.json"), "cocycle-verify", "bundled:trivial-cocycle"]) == 0
    assert json.loads((tmp_path / "r.json").read_text())["ok"]
    code, report = run_cli(capsys, "cocycle-verify", "bundled:trivial-cocycle")
    assert code == 0 and report["command"] == "cocycle-verify"


def group_document(n, rng):
    """Z/2 x Z/3 as a one-unit groupoid with a random coboundary mod n."""
    elems = [(x, y) for x in range(2) for y in range(3)]
    lab = lambda e: f"g{e[0]}_{e[1]}"
    mul = lambda p, q: ((p[0] + q[0]) % 2, (p[1] + q[1]) % 3)
    b = {lab(e): rng.randrange(n) if e != (0, 0) else 0 for e in elems}
    table = [[lab(p), lab(q), (b[lab(p)] + b[lab(q)] - b[lab(mul(p, q))]) % n] for p in elems for q in elems]
    labels = [lab(e) for e in elems]
    unit = lab((0, 0))
    return {"schema": "twisted_groupoid/1", "groupoid": {
        "schema": "fingroupoid/1",
        "topology": {"schema": "finspace/1", "points": labels, "min_open": {m: [m] for m in labels}},
        "units": [unit],
        "range": {m: unit for m in labels},
        "source": {m: unit for m in labels},
        "inverse": {lab(e): lab(((-e[0]) % 2, (-e[1]) % 3)) for e in elems},
        "compose": [[lab(p), lab(q), lab(mul(p, q))] for p in elems for q in elems],
    }, "cocycle": {"schema": "two_cocycle/1", "n": n, "table": table}}


def test_cocycle_verify_at_big_moduli(capsys, tmp_path):
    rng = random.Random(31)
    for n in BIG_MODULI:
        doc = group_document(n, rng)
        code, report = run_cli(capsys, "cocycle-verify", write(tmp_path, "g.json", doc))
        assert code == 0 and report["result"]["report"]["valid"]
        b = report["result"]["coboundary"]
        assert b is not None and report["result"]["order"] == n
        for x, y, v in doc["cocycle"]["table"]:
            xy = next(c for p, q, c in doc["groupoid"]["compose"] if (p, q) == (x, y))
            assert (b.get(x, 0) + b.get(y, 0) - b.get(xy, 0) - v) % n == 0


def octahedron_document(n, rng, shift):
    """Vertex-star cover of the octahedron (facets as points) carrying
    d(mu) for a random mu, plus ``shift`` on one facet."""
    triples = sorted(tuple(sorted((i, i % 4 + 1, apex))) for i in range(1, 5) for apex in (5, 6))
    pairs = sorted({p for t in triples for p in itertools.combinations(t, 2)})
    mu = {p: rng.randrange(n) for p in pairs}
    lam = {(i, j, k): (mu[(j, k)] - mu[(i, k)] + mu[(i, j)]) % n for (i, j, k) in triples}
    lam[triples[0]] = (lam[triples[0]] + shift) % n
    facets = ["f" + "".join(map(str, t)) for t in triples]
    cover = {str(v): sorted(f for f, t in zip(facets, triples) if v in t) for v in range(1, 7)}
    doc = {"schema": "cech/1", "n": n, "base_points": facets, "cover": cover,
           "lambda": [[*t, lam[t]] for t in triples]}
    return doc, lam, pairs


def test_cech_cert_at_big_moduli(capsys, tmp_path):
    rng = random.Random(32)
    for n in BIG_MODULI:
        for shift in (0, rng.randrange(1, n)):
            doc, lam, pairs = octahedron_document(n, rng, shift)
            code, report = run_cli(capsys, "cech-cert", write(tmp_path, "c.json", doc))
            assert code == 0 and report["result"]["report"]["valid"]
            decision = report["result"]["coboundary"]
            assert decision["is_coboundary"] is (shift == 0)
            if shift == 0:
                mu = {tuple(map(int, k.split(","))): v for k, v in decision["witness"].items()}
                for (i, j, k), v in lam.items():
                    assert (mu[(j, k)] - mu[(i, k)] + mu[(i, j)] - v) % n == 0
                continue
            u = {tuple(map(int, k.split(","))): c for k, c in decision["certificate"].items()}
            for p in pairs:
                total = 0
                for (i, j, k), c in u.items():
                    total += c * {(j, k): 1, (i, k): -1, (i, j): 1}.get(p, 0)
                assert total % n == 0
            assert sum(c * lam[t] for t, c in u.items()) % n != 0


def run_capped(argv, env=None):
    """``groupoidlab`` in a subprocess whose address space is capped at
    2 GiB, so that an oversized allocation fails fast instead of filling
    the machine; returns the exit code and the report."""
    limit = 2 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "groupoidlab.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(sz.__file__)), **(env or {})},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    return proc.returncode, json.loads(proc.stdout) if proc.stdout else proc.stderr


def test_pair_groupoid_unions_are_size_capped(tmp_path):
    points = [f"y{i}" for i in range(600)]
    psi = fs.SpaceMap(fs.discrete(points), fs.discrete(("*",)), {p: "*" for p in points})
    doc = {"schema": "relation_groupoid/1", "psi": sz.map_to_json(psi)}
    cap = "SizeCapError: pair-groupoid unions capped at 4096 morphisms"
    runs = [
        # a document names the path of the map that is too big
        (["fell-check", write(tmp_path, "fiber.json", doc)], None, f"{cap} (at //psi)"),
        (["algebra-verify", "--random", "1", "--max-points", "3000"], {"GROUPOIDLAB_SEED": "335"}, cap),
    ]
    for argv, env, error in runs:
        code, report = run_capped(argv, env)
        # an uncaught MemoryError also exits 1, but prints a traceback, not a report
        assert code == 1 and isinstance(report, dict), (argv, report)
        assert report["result"]["error"] == error, argv
