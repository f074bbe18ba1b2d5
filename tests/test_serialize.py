import json

import pytest

from groupoidlab import bundled
from groupoidlab import finspace as fs
from groupoidlab import graphfell as gf
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw


def canon(doc):
    return json.dumps(doc, sort_keys=True)


def test_space_round_trip_idempotent():
    space = fs.FinSpace((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    doc = sz.space_to_json(space)
    once = sz.space_from_json(doc)
    assert canon(sz.space_to_json(once)) == canon(doc)


def test_map_round_trip():
    y = fs.FinSpace((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    psi = fs.SpaceMap(y, fs.sierpinski(), {0: "b", 1: "a", 2: "a"})
    doc = sz.map_to_json(psi)
    back = sz.map_from_json(doc)
    assert canon(sz.map_to_json(back)) == canon(doc)
    assert fs.classify_map(back).quotient


def test_relation_groupoid_serialized_as_psi():
    relation, sigma = bundled.trivial_cocycle_model()
    doc = sz.groupoid_to_json(relation)
    assert doc["schema"] == "relation_groupoid/1"
    back = sz.groupoid_from_json(doc)
    assert isinstance(back, gp.RelationGroupoid)
    assert len(back.morphisms) == len(relation.morphisms)


def test_plain_groupoid_round_trip():
    relation, _ = bundled.trivial_cocycle_model()
    # re-encode as a plain groupoid: full tables survive the round trip
    doc = {
        "schema": "fingroupoid/1",
        "topology": sz.space_to_json(relation.topology),
        "units": sorted(sz.canonical_label(u) for u in relation.units),
        "range": {sz.canonical_label(m): sz.canonical_label(relation.range_map[m]) for m in relation.morphisms},
        "source": {sz.canonical_label(m): sz.canonical_label(relation.source_map[m]) for m in relation.morphisms},
        "inverse": {sz.canonical_label(m): sz.canonical_label(relation.inverse[m]) for m in relation.morphisms},
        "compose": sorted(
            [sz.canonical_label(a), sz.canonical_label(b), sz.canonical_label(c)]
            for (a, b), c in relation.compose.items()
        ),
    }
    back = sz.groupoid_from_json(doc)
    assert len(back.morphisms) == 4
    assert canon(sz.groupoid_to_json(back)) == canon(doc)


def test_twisted_groupoid_round_trip():
    relation, sigma = bundled.trivial_cocycle_model()
    doc = sz.twisted_groupoid_to_json(relation, sigma)
    g2, s2 = sz.twisted_groupoid_from_json(doc)
    assert canon(sz.twisted_groupoid_to_json(g2, s2)) == canon(doc)
    assert tw.verify_two_cocycle(s2).valid


def test_cech_round_trip():
    data = bundled.tetrahedron_cech()
    doc = sz.cech_to_json(data)
    back = sz.cech_from_json(doc)
    assert canon(sz.cech_to_json(back)) == canon(doc)
    assert tw.verify_cech(back).valid
    assert not tw.cech_is_coboundary(back).is_coboundary


def test_graph_round_trips():
    ladder = gf.two_thread_ladder()
    doc = sz.periodic_to_json(ladder)
    back = sz.periodic_from_json(doc)
    assert canon(sz.periodic_to_json(back)) == canon(doc)
    assert gf.periodic_fell_verdict(back).verdict == "NOT_FELL"

    g = gf.DirectedGraph(("v", "w"), [("e1", "v", "w")])
    doc = sz.digraph_to_json(g)
    assert canon(sz.digraph_to_json(sz.digraph_from_json(doc))) == canon(doc)


def test_bundled_files_match_builders():
    assert canon(bundled.bundled_document("two-thread-ladder")) == canon(
        sz.periodic_to_json(gf.two_thread_ladder())
    )
    assert canon(bundled.bundled_document("trivial-cocycle")) == canon(
        sz.twisted_groupoid_to_json(*bundled.trivial_cocycle_model())
    )
    assert canon(bundled.bundled_document("tetrahedron-z3")) == canon(
        sz.cech_to_json(bundled.tetrahedron_cech())
    )


def test_schema_errors_carry_paths():
    with pytest.raises(sz.SchemaError) as err:
        sz.space_from_json({"schema": "nope/9"})
    assert "/schema" in str(err.value)
    with pytest.raises(sz.SchemaError) as err:
        sz.map_from_json(
            {
                "schema": "spacemap/1",
                "dom": sz.space_to_json(fs.discrete(("x",))),
                "cod": sz.space_to_json(fs.discrete(("y",))),
                "assignment": {"x": "zzz"},
            }
        )
    assert "/assignment" in str(err.value)
    with pytest.raises(sz.SchemaError):
        sz.cech_from_json({"schema": "cech/1", "n": 3, "base_points": [], "cover": {"one": []}, "lambda": []})


def test_seam_row_missing_field_carries_path():
    doc = sz.periodic_to_json(gf.two_thread_ladder())
    del doc["seam_block"][0]["id"]
    with pytest.raises(sz.SchemaError) as err:
        sz.periodic_from_json(doc)
    assert "edge missing 'id'" in str(err.value) and "/seam_block/0" in str(err.value)


def test_unknown_bundled_name():
    with pytest.raises(KeyError):
        bundled.bundled_document("nope")
