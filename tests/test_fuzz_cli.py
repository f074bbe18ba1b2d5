"""Hostile inputs keep the command-line contract: every run exits 0, 1 or 2
and prints a ``report/1``, whatever the bundled documents are mutated
into and whatever the flags say."""

import contextlib
import copy
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from groupoidlab import bundled
from groupoidlab import finspace as fs
from groupoidlab import graphfell as gf
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab.cli import main
from helpers import inverse_map, label_groupoid, label_space

ODD_VALUES = (None, True, False, 0, -1, 1.5, 2**63, 2**100 + 277, "", "x", [], [1, "a"], {}, {"k": [0]})
ODD_ORDERS = (0, -1, -7, 1, 2, 2**40 + 15, 2**63 - 25, 2**63, 2**100 + 277)
ODD_FLAGS = (-5, -1, 0, 1, 3, 1000, 1001, 2**40, "x", "1.5", "") + ODD_ORDERS

# each command on the bundled document it reads
TARGETS = (
    ("graph-fell", "two-thread-ladder"),
    ("cocycle-verify", "trivial-cocycle"),
    ("algebra-verify", "trivial-cocycle"),
    ("equivariant-check", "trivial-cocycle"),
    ("cech-cert", "tetrahedron-z3"),
    ("model-cover", "tetrahedron-z3"),
)
FLAGS = {"graph-fell": "--unroll-bound", "model-cover": "--order"}


def slots(node, out):
    """Every (container, key) in a JSON tree."""
    keys = list(node) if isinstance(node, dict) else range(len(node)) if isinstance(node, list) else ()
    for key in keys:
        out.append((node, key))
        slots(node[key], out)
    return out


@st.composite
def mutated(draw, name):
    doc = copy.deepcopy(bundled.bundled_document(name))
    for _ in range(draw(st.integers(1, 3))):
        places = slots(doc, [])
        action = draw(st.sampled_from(["drop", "swap", "order"]))
        if action == "order":
            orders = [(node, key) for node, key in places if key == "n"]
            for node, key in orders:
                node[key] = draw(st.sampled_from(ODD_ORDERS))
            continue
        node, key = draw(st.sampled_from(places))
        if action == "drop":
            del node[key]
        else:
            node[key] = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
    return doc


def run(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue())


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_keep_the_exit_code_contract(data):
    command, name = data.draw(st.sampled_from(TARGETS))
    doc = data.draw(mutated(name))
    argv = [command]
    if command in FLAGS and data.draw(st.booleans()):
        argv += [FLAGS[command], str(data.draw(st.sampled_from(ODD_FLAGS)))]
    elif command == "equivariant-check" and data.draw(st.booleans()):
        argv.append("--drop-conjugation")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, report = run([*argv[:1], path, *argv[1:]])
    assert code in (0, 1, 2)
    assert report["schema"] == "report/1" and report["exit_code"] == code
    assert report["command"] == command


# -- integer fields -----------------------------------------------------------------

# a float, a whole float, a huge float, a bool and numeric strings: none is a
# JSON integer, so each is an input error that names the field
BAD_INTEGERS = (1.5, 2.0, 1e300, -3e30, True, False, "3", "1e3", "0x1")


def integer_fields(name):
    """The key paths of every integer field in a bundled document."""
    doc = bundled.bundled_document(name)
    if name == "trivial-cocycle":
        return [("cocycle", "n")] + [("cocycle", "table", k, 2) for k in range(len(doc["cocycle"]["table"]))]
    return [("n",)] + [("lambda", k, c) for k in range(len(doc["lambda"])) for c in range(4)]


def run_doc(command, doc) -> tuple[int, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return run([command, path])


INTEGER_TARGETS = TARGETS[1:]  # every command that reads an integer field


def test_a_non_integer_in_an_integer_field_is_an_input_error():
    for command, name in INTEGER_TARGETS:
        for keys in integer_fields(name):
            path = "/" + "".join(f"/{key}" for key in keys)
            for bad in BAD_INTEGERS:
                doc = copy.deepcopy(bundled.bundled_document(name))
                node = doc
                for key in keys[:-1]:
                    node = node[key]
                node[keys[-1]] = bad
                code, report = run_doc(command, doc)
                assert code == 1 and report["result"]["error"].endswith(f"(at {path})"), (command, keys, bad)


def test_cover_keys_are_canonical_decimal():
    base = bundled.bundled_document("tetrahedron-z3")
    assert run_doc("cech-cert", base)[0] == 0
    for command in ("cech-cert", "model-cover"):
        # "01" beside "1" would name index 1 twice; the others rename key 2
        for key, renamed in (("01", None), ("+2", "2"), (" 2", "2"), ("2.0", "2"), ("02", "2"), ("-0", "2"), ("٢", "2"), ("x", "2")):
            doc = copy.deepcopy(base)
            doc["cover"][key] = doc["cover"].pop(renamed) if renamed else doc["cover"]["1"]
            code, report = run_doc(command, doc)
            assert code == 1, key
            assert report["result"]["error"].endswith(f"(at //cover/{key})"), key


def test_a_cover_key_too_long_for_int_is_an_input_error():
    base = bundled.bundled_document("tetrahedron-z3")
    for command in ("cech-cert", "model-cover"):
        for key in ("9" * 5000, "-1" + "0" * 4400):
            doc = copy.deepcopy(base)
            doc["cover"][key] = doc["cover"]["1"]
            code, report = run_doc(command, doc)
            assert code == 1, (command, len(key))
            assert report["result"]["error"].endswith(f"(at //cover/{key})"), (command, len(key))


# -- graph labels ---------------------------------------------------------------------

NON_SCALARS = (["w"], [], {"k": 1}, {})


def label_fields(doc, path="/"):
    """(container, key, path) of every vertex and every edge id, range and
    source in a digraph/1 or periodic_graph/1 document."""
    if doc["schema"] == "periodic_graph/1":
        return [
            *label_fields(doc["block"], path + "/block"),
            *label_fields(doc["prefix"], path + "/prefix"),
            *((e, f, f"{path}/{seam}/{k}/{f}") for seam in ("seam_prefix", "seam_block")
              for k, e in enumerate(doc[seam]) for f in ("id", "range", "source")),
        ]
    return [
        *((doc["vertices"], k, f"{path}/vertices/{k}") for k in range(len(doc["vertices"]))),
        *((e, f, f"{path}/edges/{k}/{f}") for k, e in enumerate(doc["edges"]) for f in ("id", "range", "source")),
    ]


def test_a_non_scalar_graph_label_is_an_input_error():
    ladder = bundled.bundled_document("two-thread-ladder")
    docs = (ladder, ladder["block"])
    for base in docs:
        for place in range(len(label_fields(base))):
            for bad in NON_SCALARS:
                doc = copy.deepcopy(base)
                node, key, path = label_fields(doc)[place]
                node[key] = copy.deepcopy(bad)
                code, report = run_doc("graph-fell", doc)
                assert code == 1, path
                assert report["result"]["error"].startswith("SchemaError"), path
                assert report["result"]["error"].endswith(f"(at {path})"), path


def test_an_endpoint_equal_to_a_vertex_of_another_json_type_is_dangling():
    # Python takes 1, 1.0 and true for one key, so such an endpoint once
    # attached to vertex 1
    def digraph(*edges):
        return {"schema": "digraph/1", "vertices": [0, 1, 2],
                "edges": [{"id": e, "range": r, "source": s} for e, r, s in edges]}

    def periodic(*seams):
        return {"schema": "periodic_graph/1", "block": digraph(), "prefix": digraph(),
                "seam_prefix": [{"id": e, "range": r, "source": s} for e, r, s in seams[:1]],
                "seam_block": [{"id": e, "range": r, "source": s} for e, r, s in seams[1:]]}

    assert run_doc("graph-fell", digraph(("e", 1, 2), ("f", 0, 1)))[0] == 0
    assert run_doc("graph-fell", periodic(("d", 0, 1), ("a", 1, 2)))[0] == 0
    cases = [
        (digraph(("e", True, 2), ("f", 1.0, 2)), "edge 'e'"),
        (digraph(("e", 1, 2), ("f", 0, 1.0)), "edge 'f'"),
        (digraph(("e", 1, 2), ("f", False, 1)), "edge 'f'"),
        (periodic(("d", 0, 1), ("a", True, 2), ("b", 1.0, 2)), "block seam 'a'"),
        (periodic(("d", 0, 1), ("a", 1, 2), ("b", 2, True)), "block seam 'b'"),
        (periodic(("d", 0.0, 1)), "prefix seam 'd'"),
        (periodic(("d", 0, 1.0)), "prefix seam 'd'"),
    ]
    for doc, name in cases:
        code, report = run_doc("graph-fell", doc)
        assert code == 1, doc
        assert report["result"]["error"] == f"SchemaError: {name} has dangling endpoints (at /)", doc
    with pytest.raises(gf.GraphError) as err:
        gf.DirectedGraph((1, 2), [("e", True, 2)])
    assert err.value.code == "DANGLING"


def test_vertices_equal_across_json_types_are_duplicates():
    # unrolled labels ("b", k, 1) and ("b", k, True) would collide in the
    # position lookup of the witness search
    code, report = run_doc("graph-fell", {"schema": "digraph/1", "vertices": [1, True], "edges": []})
    assert code == 1
    assert report["result"]["error"] == "SchemaError: duplicate vertices (at /)"


def space_label_fields(doc, path="/"):
    """(container, key, path) of every label in a finspace/1, spacemap/1 or
    fingroupoid/1 document: points, min_open members, assignment values,
    units, table values and compose entries."""
    if doc["schema"] == "finspace/1":
        return [
            *((doc["points"], k, f"{path}/points/{k}") for k in range(len(doc["points"]))),
            *((v, k, f"{path}/min_open/{p}/{k}") for p, v in doc["min_open"].items() for k in range(len(v))),
        ]
    if doc["schema"] == "spacemap/1":
        return [
            *space_label_fields(doc["dom"], path + "/dom"),
            *space_label_fields(doc["cod"], path + "/cod"),
            *((doc["assignment"], p, f"{path}/assignment/{p}") for p in doc["assignment"]),
        ]
    return [
        *space_label_fields(doc["topology"], path + "/topology"),
        *((doc["units"], k, f"{path}/units/{k}") for k in range(len(doc["units"]))),
        *((doc[t], m, f"{path}/{t}/{m}") for t in ("range", "source", "inverse") for m in doc[t]),
        *((row, c, f"{path}/compose/{k}/{c}") for k, row in enumerate(doc["compose"]) for c in range(3)),
    ]


def test_a_non_scalar_space_or_groupoid_label_is_an_input_error():
    space = label_space(("a", "b", "c"), {"a": {"a"}, "b": {"a", "b"}, "c": {"c"}})
    psi = fs.SpaceMap(space, fs.discrete(("x", "y")), {"a": "x", "b": "x", "c": "y"})
    rel = gp.build_relation_groupoid(fs.SpaceMap(fs.discrete((1, 2)), fs.discrete(("*",)), {1: "*", 2: "*"}))
    table = label_groupoid(rel.topology, rel.units, rel.range_map, rel.source_map, rel.compose, inverse_map(rel))
    cases = (
        ("space-check", sz.space_to_json(space)),
        ("map-classify", sz.map_to_json(psi)),
        ("fell-check", sz.groupoid_to_json(table)),
    )
    for command, base in cases:
        assert run_doc(command, base)[0] == 0, command
        for place in range(len(space_label_fields(base))):
            for bad in NON_SCALARS:
                doc = copy.deepcopy(base)
                node, key, path = space_label_fields(doc)[place]
                node[key] = copy.deepcopy(bad)
                code, report = run_doc(command, doc)
                assert code == 1, (command, path)
                assert report["result"]["error"].startswith("SchemaError"), (command, path)
                assert report["result"]["error"].endswith(f"(at {path})"), (command, path)
    # a mistyped table is named once, not once more by the constructor's handler
    for field, bad in (("units", {}), ("range", []), ("inverse", None)):
        doc = copy.deepcopy(cases[2][1])
        doc[field] = bad
        code, report = run_doc("fell-check", doc)
        assert code == 1 and report["result"]["error"].count("(at ") == 1, field
        assert report["result"]["error"].endswith(f"(at //{field})"), field


def test_a_non_scalar_cocycle_or_cech_label_is_an_input_error():
    twisted = bundled.bundled_document("trivial-cocycle")
    cech = bundled.bundled_document("tetrahedron-z3")

    def twisted_fields(doc):
        rows = doc["cocycle"]["table"]
        return [
            *space_label_fields(doc["groupoid"]["psi"], "//groupoid/psi"),
            *((row, c, f"//cocycle/table/{k}/{c}") for k, row in enumerate(rows) for c in range(2)),
        ]

    def cech_fields(doc):
        return [
            *((doc["base_points"], k, f"//base_points/{k}") for k in range(len(doc["base_points"]))),
            *((v, k, f"//cover/{i}/{k}") for i, v in doc["cover"].items() for k in range(len(v))),
        ]

    for command, base, fields in (("cocycle-verify", twisted, twisted_fields), ("cech-cert", cech, cech_fields)):
        for place in range(len(fields(base))):
            for bad in NON_SCALARS:
                doc = copy.deepcopy(base)
                node, key, path = fields(doc)[place]
                node[key] = copy.deepcopy(bad)
                code, report = run_doc(command, doc)
                assert code == 1, (command, path)
                assert report["result"]["error"].startswith("SchemaError"), (command, path)
                assert report["result"]["error"].endswith(f"(at {path})"), (command, path)


# -- keys written twice ---------------------------------------------------------------


def objects(node, path="/"):
    """(object, path) of every JSON object in a tree, outermost first."""
    out = []
    if isinstance(node, dict):
        out.append((node, path))
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        out += objects(child, f"{path}/{key}")
    return out


def dumps_repeating(node, target) -> str:
    """JSON text of ``node`` with the first key of the object ``target``
    written a second time, with its value, at the end of that object."""
    if isinstance(node, dict):
        items = [f"{json.dumps(k)}: {dumps_repeating(v, target)}" for k, v in node.items()]
        if node is target:
            items.append(items[0])
        return "{" + ", ".join(items) + "}"
    if isinstance(node, list):
        return "[" + ", ".join(dumps_repeating(v, target) for v in node) + "]"
    return json.dumps(node)


def test_a_key_written_twice_is_an_input_error():
    for command, name in TARGETS:
        base = bundled.bundled_document(name)
        for obj, path in objects(base):
            if not obj:
                continue
            with tempfile.TemporaryDirectory() as tmp:
                file = os.path.join(tmp, "doc.json")
                with open(file, "w") as fh:
                    fh.write(dumps_repeating(base, obj))
                code, report = run([command, file])
            key = next(iter(obj))
            assert code == 1, (command, path)
            error = report["result"]["error"]
            assert error.startswith("SchemaError") and f"{key!r}" in error, (command, path)
            assert error.endswith(f"(at {path}/{key})"), (command, path)


def z2_document() -> dict:
    """Z/2 = {e, g} with the trivial Z/2-valued cocycle, as a twisted_groupoid/1."""
    discrete = {"schema": "finspace/1", "points": ["e", "g"], "min_open": {"e": ["e"], "g": ["g"]}}
    return {
        "schema": "twisted_groupoid/1",
        "groupoid": {
            "schema": "fingroupoid/1", "topology": discrete, "units": ["e"],
            "range": {"e": "e", "g": "e"}, "source": {"e": "e", "g": "e"}, "inverse": {"e": "e", "g": "g"},
            "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
        },
        "cocycle": {"schema": "two_cocycle/1", "n": 2,
                    "table": [["e", "e", 0], ["e", "g", 0], ["g", "e", 0], ["g", "g", 0]]},
    }


def test_a_pair_listed_twice_is_an_input_error():
    assert run_doc("cocycle-verify", z2_document())[0] == 0
    for keys, extra in ((("groupoid", "compose"), ["g", "g", "g"]), (("cocycle", "table"), ["g", "g", 1])):
        # the extra row before and after the row it repeats; the later one is named
        for at in (3, 4):
            doc = z2_document()
            doc[keys[0]][keys[1]].insert(at, extra)
            code, report = run_doc("cocycle-verify", doc)
            assert code == 1, (keys, at)
            error = report["result"]["error"]
            assert error.startswith("SchemaError") and "listed twice" in error, (keys, at)
            assert error.endswith(f"(at //{keys[0]}/{keys[1]}/4)"), (keys, at)


# -- nesting and stray table keys -------------------------------------------------------


def run_text(command, text) -> tuple[int, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            fh.write(text)
        return run([command, path])


def test_deeply_nested_json_is_an_input_error():
    # deeper than the parser recurses: 3,000 lists in a 6 KB file, and 990 objects
    for text, depth in (("[" * 3000 + "]" * 3000, 3000), ('{"a": ' * 990 + '"[{"' + "}" * 990, 990)):
        code, report = run_text("fell-check", text)
        assert code == 1, depth
        assert report["result"]["error"] == f"SchemaError: document nested too deeply ({depth} levels) (at /)"


def test_a_stray_table_key_is_an_input_error():
    for table, key, value in (("range", "zzz", "e"), ("inverse", "x", [1]), ("source", "", "g")):
        doc = z2_document()
        doc["groupoid"][table][key] = value
        code, report = run_doc("cocycle-verify", doc)
        assert code == 1, (table, key)
        error = f"SchemaError: {table} defined on {key!r}, which is not a morphism (at //groupoid/{table}/{key})"
        assert report["result"]["error"] == error
        # every fault read before it keeps its message
        for field, fault, message in (
            ("units", ["e", "q"], "unit 'q' is not a morphism (at //groupoid)"),
            ("compose", [["e", "e", "e"]], "composition defined on ('e','g') iff sources/ranges mismatch (at //groupoid)"),
        ):
            doc["groupoid"][field] = fault
            code, report = run_doc("cocycle-verify", doc)
            assert code == 1 and report["result"]["error"] == f"SchemaError: {message}", (table, field)
            doc["groupoid"][field] = z2_document()["groupoid"][field]


def test_a_min_open_value_that_is_no_list_is_an_input_error():
    # a string or an object was once read as the set of its characters or keys
    for value, kind in (("ab", "str"), ({"b": 1}, "dict"), (5, "int"), (None, "NoneType"), (True, "bool")):
        doc = {"schema": "finspace/1", "points": ["a", "b"], "min_open": {"a": value, "b": ["b"]}}
        code, report = run_doc("space-check", doc)
        assert code == 1, value
        assert report["result"]["error"] == f"SchemaError: expected list, got {kind} (at //min_open/a)"
    # the first value that is no list, in document order, before any label check
    doc = {"schema": "finspace/1", "points": ["a", "a"], "min_open": {"a": [[1]], "b": "b", "c": 5}}
    code, report = run_doc("space-check", doc)
    assert code == 1 and report["result"]["error"] == "SchemaError: expected list, got str (at //min_open/b)"


def test_space_check_names_the_first_unknown_label_in_the_document():
    # the first unknown member, or stray key, was once named in set order,
    # which changes with the hash seed
    src = os.path.dirname(os.path.dirname(os.path.abspath(sz.__file__)))
    cases = (
        ({"a": ["a", "x", "y", "z", "w"]}, "min_open('a') mentions unknown point 'x'"),
        ({"a": ["a"], "w": [], "z": [], "y": [], "x": []}, "min_open defined for unknown point 'w'"),
    )
    with tempfile.TemporaryDirectory() as tmp:
        for k, (min_open, message) in enumerate(cases):
            path = os.path.join(tmp, f"space{k}.json")
            with open(path, "w") as fh:
                json.dump({"schema": "finspace/1", "points": ["a"], "min_open": min_open}, fh)
            for seed in ("1", "2"):
                env = {**os.environ, "PYTHONHASHSEED": seed,
                       "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
                proc = subprocess.run([sys.executable, "-m", "groupoidlab.cli", "space-check", path],
                                      capture_output=True, text=True, env=env)
                assert proc.returncode == 1, proc.stderr
                assert json.loads(proc.stdout)["result"]["error"] == f"SchemaError: {message} (at /)", seed


def test_map_classify_names_the_first_stray_assignment_key_in_the_document():
    # the first stray key was once named in set order: ww, zz, zz, yy and
    # yy under hash seeds 1 to 5
    src = os.path.dirname(os.path.dirname(os.path.abspath(sz.__file__)))
    point = {"schema": "finspace/1", "points": ["a"], "min_open": {"a": ["a"]}}
    doc = {"schema": "spacemap/1", "dom": point, "cod": point,
           "assignment": {"a": "a", "zz": "a", "yy": "a", "ww": "a", "vv": "a"}}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        for seed in ("1", "2"):
            env = {**os.environ, "PYTHONHASHSEED": seed,
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            proc = subprocess.run([sys.executable, "-m", "groupoidlab.cli", "map-classify", path],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 1, proc.stderr
            assert json.loads(proc.stdout)["result"]["error"] == (
                "SchemaError: assignment defined on unknown point 'zz' (at //assignment)"), seed
