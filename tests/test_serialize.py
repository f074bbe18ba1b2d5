import collections
import contextlib
import copy
import io
import json
import random

import numpy as np
import pytest

from groupoidlab import bundled
from groupoidlab import finspace as fs
from groupoidlab import graphfell as gf
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw
from groupoidlab.cli import main
from groupoidlab.corpus import random_partition, random_space
from groupoidlab.labels import canonical_label
from helpers import ReferenceSpace, dense_pair_id, inverse_map, label_groupoid, label_space, min_open, product_group


def canon(doc):
    return json.dumps(doc, sort_keys=True)


def test_space_round_trip_idempotent():
    space = label_space((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    doc = sz.space_to_json(space)
    once = sz.space_from_json(doc)
    assert canon(sz.space_to_json(once)) == canon(doc)


def per_member_space_to_json(space):
    """``space_to_json`` as it rendered every member of every minimal open
    again: the reference for byte-identical output."""
    return {
        "schema": "finspace/1",
        "points": [canonical_label(p) for p in space.points],
        "min_open": {
            canonical_label(p): sorted(canonical_label(q) for q in min_open(space, p)) for p in space.points
        },
    }


def test_space_to_json_renders_as_per_member(monkeypatch, tmp_path):
    rng = random.Random(29)
    shapes = (lambda i: (i, "p"), lambda i: ((i, i % 2), frozenset({i, "q"})), lambda i: (str(i), (True, i)))
    psis = []
    for k in range(60):
        base = random_space(rng.randrange(10**6), 9)
        space = fs.FinSpace([shapes[k % 3](i) for i in base.points], base._mo)
        psis.append(fs.quotient_space(space, random_partition(rng, space.points))[1])
    spaces = [s for psi in psis for s in (psi.dom, psi.cod, gp.build_relation_groupoid(psi).topology)]
    for space in spaces:
        assert json.dumps(sz.space_to_json(space)) == json.dumps(per_member_space_to_json(space))

    def build_relation(path):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["build-relation", str(path)]) == 0
        report = json.loads(out.getvalue())
        report.pop("elapsed_seconds")
        return json.dumps(report)

    paths = []
    for k, psi in enumerate(psis[:12]):
        paths.append(tmp_path / f"psi{k}.json")
        paths[-1].write_text(json.dumps(sz.map_to_json(psi)))
    now = [build_relation(path) for path in paths]
    monkeypatch.setattr(sz, "space_to_json", per_member_space_to_json)
    assert now == [build_relation(path) for path in paths]


def test_map_round_trip():
    y = label_space((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
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
        "inverse": {sz.canonical_label(m): sz.canonical_label(inverse_map(relation)[m]) for m in relation.morphisms},
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


def test_a_lambda_row_of_another_shape_is_named_at_its_path():
    # without the shape check a short row of ints fails later, unpacked
    doc = sz.cech_to_json(bundled.tetrahedron_cech())
    for row in (doc["lambda"][1][:3], [*doc["lambda"][1], 0], "1230"):
        bad = copy.deepcopy(doc)
        bad["lambda"][1] = row
        with pytest.raises(sz.SchemaError, match=r"^lambda rows are \[i, j, k, value\] \(at //lambda/1\)$"):
            sz.cech_from_json(bad, "/")


def test_seam_row_missing_field_carries_path():
    doc = sz.periodic_to_json(gf.two_thread_ladder())
    del doc["seam_block"][0]["id"]
    with pytest.raises(sz.SchemaError) as err:
        sz.periodic_from_json(doc)
    assert "edge missing 'id'" in str(err.value) and "/seam_block/0" in str(err.value)
    # the first missing field is named in the order id, range, source, and
    # a row that is no object is named before any field
    for drop, named in ((("range", "source"), "range"), (("id", "source"), "id"), (("source",), "source")):
        doc = sz.periodic_to_json(gf.two_thread_ladder())
        for field in drop:
            del doc["block"]["edges"][1][field]
        with pytest.raises(sz.SchemaError, match=f"edge missing '{named}' \\(at //block/edges/1\\)"):
            sz.periodic_from_json(doc)
    for row in (["f1", "v", "t"], "f1", 3, None):
        doc = sz.periodic_to_json(gf.two_thread_ladder())
        doc["seam_block"][0] = row
        with pytest.raises(sz.SchemaError, match=f"expected dict, got {type(row).__name__} \\(at //seam_block/0\\)"):
            sz.periodic_from_json(doc)


def test_unknown_bundled_name():
    names = r"\('two-thread-ladder', 'trivial-cocycle', 'tetrahedron-z3'\)"
    with pytest.raises(KeyError, match=f"unknown bundled input 'nope'; choose from {names}"):
        bundled.bundled_document("nope")


# -- the label path of the label constructor, kept as the parsers' reference ----------


def reference_label_groupoid(topology, units, range_map, source_map, compose, inverse):
    """The label constructor ``FinGroupoid`` had before the index became its
    only constructor, verbatim but for the last line, which hands the
    numbered tables to that constructor."""
    morphs, index = topology.points, topology._index
    tables = ((range_map, "range"), (source_map, "source"), (inverse, "inverse"))
    for m in morphs:
        for table, name in tables:
            if m not in table:
                raise gp.GroupoidAxiomError(f"{name} undefined on {m!r}", m)
            if table[m] not in index:
                raise gp.GroupoidAxiomError(f"{name}({m!r}) is not a morphism", m)
    units = list(units)
    for u in units:
        if u not in index:
            raise gp.GroupoidAxiomError(f"unit {u!r} is not a morphism", u)
    for (a, b), c in compose.items():
        if a not in index or b not in index or c not in index:
            raise gp.GroupoidAxiomError(f"composition entry ({a!r},{b!r})->{c!r} off the morphism set")
    unit_mask = np.zeros(len(morphs), dtype=bool)
    unit_mask[[index[u] for u in units]] = True
    pairs = np.array([(index[a], index[b], index[c]) for (a, b), c in compose.items()], dtype=np.int64)
    structure = ([index[table[m]] for m in morphs] for table, _ in tables)
    return gp.FinGroupoid(topology, *structure, unit_mask, pairs.reshape(-1, 3).T)


def reference_groupoid_from_json(doc, path="/"):
    """``groupoid_from_json`` on ``fingroupoid/1`` as it read documents
    through the label constructor, verbatim."""
    sz._expect_schema(doc, ("fingroupoid/1",), path)
    topology = sz.space_from_json(
        sz._expect(doc.get("topology"), dict, path + "/topology"), path + "/topology"
    )
    compose_rows = sz._expect(doc.get("compose"), list, path + "/compose")
    for k, row in enumerate(compose_rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise sz.SchemaError("compose rows are [a, b, ab]", f"{path}/compose/{k}")
    units = sz._expect(doc.get("units"), list, path + "/units")
    tables = {name: sz._expect(doc.get(name), dict, f"{path}/{name}") for name in ("range", "source", "inverse")}
    try:
        compose = {(a, b): ab for a, b, ab in compose_rows}
        if len(compose) == len(compose_rows):
            return reference_label_groupoid(topology, units, tables["range"], tables["source"], compose, tables["inverse"])
    except ValueError as err:
        raise sz.SchemaError(str(err), path)
    except TypeError:
        sz._reject_non_scalar(sz._members(units, path + "/units"))
        for name, table in tables.items():
            sz._reject_non_scalar(sz._members(table, f"{path}/{name}"))
        for k, row in enumerate(compose_rows):
            sz._reject_non_scalar(sz._members(row, f"{path}/compose/{k}"))
        raise
    # some pair is listed twice: name the later row
    first: dict = {}
    k = next(k for k, (a, b, _) in enumerate(compose_rows) if first.setdefault((a, b), k) != k)
    raise sz.SchemaError("pair ({!r},{!r}) listed twice".format(*compose_rows[k][:2]), f"{path}/compose/{k}")


def reference_cocycle_from_json(doc, groupoid, path="/"):
    """``cocycle_from_json`` as it read rows one by one into a dict keyed by
    pairs of morphism numbers, with ``morphism_labels``,
    ``TwoCocycle.from_numbered`` and ``_numbered_values`` inlined, and the
    totality rule: the first composable pair, row-major by morphism
    number, that no row lists raises ``CocycleError``."""
    sz._expect_schema(doc, ("two_cocycle/1",), path)
    n = sz._expect_int(doc.get("n"), path, "n")
    labels = {}
    for m in groupoid.morphisms:
        lab = sz.canonical_label(m)
        if lab in labels:
            raise sz.SchemaError(f"morphism labels collide at {lab!r}")
        labels[lab] = m
    number = {lab: groupoid.index[m] for lab, m in labels.items()}
    entries = {}
    rows = sz._expect(doc.get("table"), list, path + "/table")
    for k, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == 3):
            raise sz.SchemaError("table rows are [a, b, value]", f"{path}/table/{k}")
        a, b, v = row
        try:
            known = a in number and b in number
        except TypeError:
            sz._reject_non_scalar(sz._members(row, f"{path}/table/{k}"))
            raise
        if not known:
            raise sz.SchemaError(f"unknown morphism in ({a!r},{b!r})", f"{path}/table/{k}")
        key = number[a], number[b]
        if key in entries:
            raise sz.SchemaError(f"pair ({a!r},{b!r}) listed twice", f"{path}/table/{k}")
        entries[key] = sz._expect_int(v, path, "table", k, 2)
    try:
        dtype = tw._value_dtype(n)
        ends = np.array(list(entries), dtype=np.int64).reshape(-1, 2)
        pid = dense_pair_id(groupoid)[ends[:, 0], ends[:, 1]]
        if (pid < 0).any():
            a, b = (groupoid.morphisms[x] for x in ends[int(np.argmax(pid < 0))])
            raise tw.CocycleError(f"table entry on non-composable pair ({a!r},{b!r})")
    except ValueError as err:
        raise sz.SchemaError(str(err), path + "/table")
    for a, b in np.argwhere(dense_pair_id(groupoid) >= 0).tolist():
        if (a, b) not in entries:
            a, b = groupoid.morphisms[a], groupoid.morphisms[b]
            raise tw.CocycleError(
                f"cocycle table missing composable pair ({a!r},{b!r})", path + "/table", code="MISSING_ENTRY"
            )
    values = np.empty(len(groupoid.pairs[0]), dtype=dtype)
    values[pid] = [value % n for value in entries.values()]
    return tw.TwoCocycle(groupoid, n, values)


def outcome(parse, *args):
    """What ``parse`` returns, or the type and text of what it raises."""
    try:
        return parse(*args)
    except Exception as err:  # every exception, compared by type and text
        return f"{type(err).__name__}: {err}"


# labels that are never morphisms: hashable ones, some equal to each other
# (1 == True), and lists and objects
ODD_LABELS = ("zz", "", 7, 1, 1.5, True, None)
NON_SCALARS = ([1], {"k": 1})
TABLES = ("range", "source", "inverse")


def relation_plain_copy(psi) -> gp.FinGroupoid:
    """R(psi) as a groupoid that ``groupoid_to_json`` writes as fingroupoid/1."""
    r = gp.build_relation_groupoid(psi)
    return gp.FinGroupoid(r.topology, r.range_idx, r.source_idx, r.inverse_idx, r.unit_mask, r.pairs)


def oracle_groupoids() -> list:
    """Groups, relation groupoids on non-discrete spaces and an extension by
    a nontrivial cocycle: principal and not, one unit and several."""
    y = label_space((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    chain = fs.SpaceMap(y, fs.sierpinski(), {0: "b", 1: "a", 2: "a"})
    pair = gp.build_relation_groupoid(fs.SpaceMap(fs.discrete((1, 2)), fs.discrete(("*",)), {1: "*", 2: "*"}))
    carry = tw.TwoCocycle.trivial(pair, 2).shift(((1, 2), (2, 1)), 1).shift(((2, 1), (1, 2)), 1)
    quotient = fs.quotient_space(label_space((0, 1, 2, 3), {0: {0}, 1: {0, 1}, 2: {2}, 3: {2, 3}}), [{0, 2}, {1, 3}])[1]
    return [product_group(2, 3), relation_plain_copy(chain), relation_plain_copy(quotient),
            tw.extension_groupoid(pair, carry)]


def same_groupoid(got, want) -> bool:
    labels = lambda g: [sz.canonical_label(m) for m in g.morphisms]
    return labels(got) == labels(want) and all(
        np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("range_idx", "source_idx", "inverse_idx", "unit_mask")
    ) and all(np.array_equal(a, b) for a, b in zip(got.pairs, want.pairs)) and np.array_equal(
        dense_pair_id(got), dense_pair_id(want)
    )


def fault_groupoid(doc, kind, rng):
    """Put one fault of ``kind`` into a fingroupoid/1 document, at random."""
    rows, units, points = doc["compose"], doc["units"], doc["topology"]["points"]
    table = doc[rng.choice(TABLES)]
    if kind == "repeated pair":
        rows.insert(rng.randint(0, len(rows)), [*rng.choice(rows)[:2], rng.choice(points)])
    elif kind == "missing table entry" and table:
        del table[rng.choice(list(table))]
    elif kind == "non-morphism value" and table:
        table[rng.choice(list(table))] = rng.choice(ODD_LABELS)
    elif kind == "non-morphism unit":
        units.insert(rng.randint(0, len(units)), rng.choice(ODD_LABELS))
    elif kind == "off-set compose entry":
        rng.choice(rows)[rng.randrange(3)] = rng.choice(ODD_LABELS)
    elif kind == "non-scalar label":
        slots = [(units, k) for k in range(len(units))] + [(t, m) for t in map(doc.get, TABLES) for m in t]
        node, key = rng.choice(slots + [(row, c) for row in rows for c in range(3)])
        node[key] = copy.deepcopy(rng.choice(NON_SCALARS))
    elif kind == "axiom failure":
        if rng.random() < 0.4:
            del rows[rng.randrange(len(rows))]
        else:
            target = rng.choice([rng.choice(rows), doc["range"], doc["inverse"]])
            key = 2 if isinstance(target, list) else rng.choice(list(target) or [None])
            target[key] = rng.choice(points)


GROUPOID_FAULTS = ("repeated pair", "missing table entry", "non-morphism value", "non-morphism unit",
                   "off-set compose entry", "non-scalar label", "axiom failure")


def test_fingroupoid_parse_matches_the_label_path():
    rng = random.Random(1207)
    seen = collections.Counter()
    for g in oracle_groupoids():
        base = sz.groupoid_to_json(g)
        for trial in range(240):
            doc = copy.deepcopy(base)
            if trial % 8 == 0:  # valid: rows, units and keys in another order
                rng.shuffle(doc["compose"])
                rng.shuffle(doc["units"])
                doc["range"] = dict(rng.sample(list(doc["range"].items()), len(doc["range"])))
            else:
                for kind in rng.choices(GROUPOID_FAULTS, k=rng.randint(2, 3)):
                    fault_groupoid(doc, kind, rng)
            want = outcome(reference_groupoid_from_json, copy.deepcopy(doc))
            got = outcome(sz.groupoid_from_json, doc)
            if isinstance(want, str):
                assert got == want, doc
                seen[want.split(" (at ")[0]] += 1
            else:
                assert same_groupoid(got, want) and same_groupoid(got, g)
                seen["valid"] += 1
    # the first fault is of every kind, and the valid documents parse alike
    for reported in ("SchemaError: pair (", "SchemaError: range undefined on ", "SchemaError: inverse(",
                     "SchemaError: unit ", "SchemaError: composition entry (", "SchemaError: expected a scalar label",
                     "SchemaError: composition defined on (", "SchemaError: range/source of a composite", "valid"):
        assert any(k.startswith(reported) for k in seen), (reported, seen)


def reference_space_from_json(doc, path="/"):
    """``space_from_json`` as it read a finspace/1 document while
    ``FinSpace`` numbered label sets itself, with two intended
    differences: a ``min_open`` value that is no list is a SchemaError at
    its path, where ``set(v)`` took it apart, and each value's members
    are read in document order, where the set's order named the first
    unknown member by hash."""
    points, mo = doc["points"], doc["min_open"]
    for p, v in mo.items():
        if not isinstance(v, list):
            raise sz.SchemaError(f"expected list, got {type(v).__name__}", f"{path}/min_open/{p}")
    try:
        for v in mo.values():
            set(v)  # every member is hashed before any check, as the label path's sets did
        return ReferenceSpace(points, mo).space
    except ValueError as err:
        raise sz.SchemaError(str(err), path)
    except TypeError:
        sz._reject_non_scalar(sz._members(points, path + "/points"))
        for p, v in mo.items():
            sz._reject_non_scalar(sz._members(v, f"{path}/min_open/{p}"))
        raise


def fault_space(doc, kind, rng):
    """Put one fault of ``kind`` into a finspace/1 document, at random."""
    points, mo = doc["points"], doc["min_open"]
    opens = [v for v in mo.values() if isinstance(v, list)]
    if kind == "duplicate point":
        points.insert(rng.randint(0, len(points)), rng.choice(points))
    elif kind == "missing entry" and mo:
        del mo[rng.choice(list(mo))]
    elif kind == "unknown member" and opens:
        rng.choice(opens).append(rng.choice(ODD_LABELS))
    elif kind == "stray key":
        mo[rng.choice(("zz", "7", ""))] = rng.sample(points, rng.randint(0, len(points)))
    elif kind == "non-scalar label":
        node = rng.choice([points, *opens])
        node.insert(rng.randint(0, len(node)), copy.deepcopy(rng.choice(NON_SCALARS)))
    elif kind == "incoherent opens" and opens:
        target = rng.choice(opens)
        if target and rng.random() < 0.5:
            del target[rng.randrange(len(target))]
        else:
            target.append(rng.choice(points))
    elif kind == "point of another type":
        points[rng.randrange(len(points))] = rng.choice(ODD_LABELS)
    elif kind == "open that is no list" and mo:
        mo[rng.choice(list(mo))] = rng.choice((5, None, "ab", {"a": 1}))


SPACE_FAULTS = ("duplicate point", "missing entry", "unknown member", "stray key", "non-scalar label",
                "incoherent opens", "point of another type", "open that is no list")


def test_finspace_parse_matches_the_label_path():
    rng = random.Random(1208)
    seen = collections.Counter()
    for trial in range(1000):
        base = random_space(rng.randrange(10**6), 6)
        names = rng.sample("abcdefgh", len(base))
        doc = {"schema": "finspace/1", "points": names, "min_open": {
            names[i]: rng.sample([names[j] for j in range(len(base)) if base.min_open_bits(i) >> j & 1],
                                 base.min_open_bits(i).bit_count())
            for i in rng.sample(range(len(base)), len(base))
        }}
        if trial % 8:
            for kind in rng.choices(SPACE_FAULTS, k=rng.randint(1, 3)):
                fault_space(doc, kind, rng)
        want = outcome(reference_space_from_json, copy.deepcopy(doc))
        got = outcome(sz.space_from_json, doc)
        if isinstance(want, str):
            assert got == want, doc
            seen[want.split(" (at ")[0]] += 1
        else:
            assert (got.points, got._mo) == (want.points, want._mo), doc
            seen["valid"] += 1
    # the first fault is of every kind, and the valid documents parse alike
    for reported in ("SchemaError: duplicate points", "SchemaError: no minimal open given", "SchemaError: min_open(",
                     "SchemaError: min_open defined for unknown point", "SchemaError: expected a scalar label",
                     "SchemaError: minimal opens incoherent", "SchemaError: point ", "SchemaError: expected list",
                     "valid"):
        assert any(k.startswith(reported) for k in seen), (reported, seen)


def test_a_mapping_is_not_taken_for_masks():
    # its keys would read as masks: U_1 = {1} and U_3 = {1, 3}, coherent but wrong
    with pytest.raises(TypeError):
        fs.FinSpace((1, 3), {1: {1, 3}, 3: {3}})


def collide_groupoid() -> gp.FinGroupoid:
    """Two units, 1 and "1", whose canonical labels are both "1"."""
    points = (1, "1", "u")
    return label_groupoid(fs.discrete(points), points, {p: p for p in points}, {p: p for p in points},
                          {(p, p): p for p in points}, {p: p for p in points})


def fault_cocycle(doc, kind, rng, groupoid):
    """Put one fault of ``kind`` into a two_cocycle/1 document, at random."""
    rows, labels = doc["table"], [sz.canonical_label(m) for m in groupoid.morphisms]
    k = rng.randrange(len(rows))
    row = rng.choice([r for r in rows if isinstance(r, list) and len(r) == 3] or [[None] * 3])
    if kind == "row shape":
        rows[k] = rng.choice([row[:2], row + [0], "x", 5, None, {"a": 1}])
    elif kind == "unknown morphism":
        row[rng.randrange(2)] = copy.deepcopy(rng.choice(ODD_LABELS + NON_SCALARS))
    elif kind == "repeated pair":
        rows.insert(rng.randint(0, len(rows)), [*row[:2], rng.randrange(5)])
    elif kind == "missing pair":
        del rows[k]
    elif kind == "non-integer value":
        row[2] = copy.deepcopy(rng.choice((1.5, 2.0, "3", True, None, [1])))
    elif kind == "non-composable pair":
        free = np.argwhere(dense_pair_id(groupoid) < 0)
        a, b = free[rng.randrange(len(free))]
        row[:2] = [labels[a], labels[b]]
    elif kind == "order below 1":
        doc["n"] = rng.choice((0, -1, -7))


COCYCLE_FAULTS = ("row shape", "unknown morphism", "repeated pair", "missing pair", "non-integer value", "order below 1")


def test_cocycle_parse_matches_the_label_path():
    rng = random.Random(1207)
    seen = collections.Counter()
    # with several units there are non-composable pairs; the last case's
    # labels collide, which is named before any row
    cases = [(g, n) for g, n in zip(oracle_groupoids(), (6, 2**62 + 1, 4, 3))] + [(collide_groupoid(), 2)]
    for g, n in cases:
        pairs = g.pairs[0].size
        base = sz.cocycle_to_json(tw.TwoCocycle.from_values(g, n, [rng.randrange(n) for _ in range(pairs)]))
        kinds = COCYCLE_FAULTS + (("non-composable pair",) if (dense_pair_id(g) < 0).any() else ())
        for trial in range(200):
            doc = copy.deepcopy(base)
            if trial % 8 == 0:  # valid, with the rows in another order
                rng.shuffle(doc["table"])
            else:
                for kind in rng.choices(kinds, k=rng.randint(2, 3)):
                    fault_cocycle(doc, kind, rng, g)
            want = outcome(reference_cocycle_from_json, copy.deepcopy(doc), g)
            got = outcome(sz.cocycle_from_json, doc, g)
            if isinstance(want, str):
                assert got == want, doc
                seen[want.split(" (at ")[0]] += 1
            else:
                assert got.n == want.n and got.values.dtype == want.values.dtype
                assert np.array_equal(got.values, want.values)
                seen["valid"] += 1
    for reported in ("SchemaError: table rows are [a, b, value]", "SchemaError: unknown morphism in ",
                     "SchemaError: pair ", "SchemaError: expected int, got ", "SchemaError: table entry on non-composable pair ",
                     "SchemaError: cocycle order must be positive", "SchemaError: morphism labels collide at ",
                     "CocycleError: cocycle table missing composable pair ",
                     "SchemaError: expected a scalar label, got list", "valid"):
        assert any(k.startswith(reported) for k in seen), (reported, seen)


# -- the bulk readers against the row walk ---------------------------------------------


def int_label_groupoid_doc():
    """A fingroupoid/1 document on the int labels 1 and 2, two units, as a
    caller may pass it without JSON: its keys are ints, not strings."""
    return {"schema": "fingroupoid/1",
            "topology": {"schema": "finspace/1", "points": [1, 2], "min_open": {1: [1], 2: [2]}},
            "units": [1, 2], "range": {1: 1, 2: 2}, "source": {1: 1, 2: 2}, "inverse": {1: 1, 2: 2},
            "compose": [[1, 1, 1], [2, 2, 2]]}


def test_bulk_readers_match_the_walk_on_shuffled_valid_documents():
    rng = random.Random(1209)
    groupoids = [*oracle_groupoids(), product_group(1, 1), product_group(3, 4), collide_groupoid(),
                 relation_plain_copy(fs.SpaceMap(fs.discrete((0, 1, 2)), fs.discrete(("*",)),
                                                 {0: "*", 1: "*", 2: "*"}))]
    moduli = (1, 2, 6, 2**61 - 1, 2**61, 2**63 - 25, 2**63 + 5, 2**100 + 277)
    checked = collections.Counter()
    for g in groupoids:
        base = sz.groupoid_to_json(g)
        for trial in range(12):
            doc = copy.deepcopy(base)
            rng.shuffle(doc["compose"])
            rng.shuffle(doc["units"])
            for name in TABLES:
                doc[name] = dict(rng.sample(list(doc[name].items()), len(doc[name])))
            got, want = outcome(sz.groupoid_from_json, doc), outcome(reference_groupoid_from_json, copy.deepcopy(doc))
            if isinstance(want, str):  # the colliding labels
                assert got == want == "SchemaError: duplicate points (at //topology)"
            else:
                assert same_groupoid(got, want) and same_groupoid(got, g)
            n, labels = rng.choice(moduli), [sz.canonical_label(m) for m in g.morphisms]
            table = [[labels[a], labels[b], rng.choice((rng.randrange(n), -rng.randrange(2**70), rng.randrange(2**70)))]
                     for a, b in zip(g.pairs[0].tolist(), g.pairs[1].tolist())]
            cocycle = {"schema": "two_cocycle/1", "n": n, "table": rng.sample(table, len(table))}
            got, want = outcome(sz.cocycle_from_json, cocycle, g), outcome(reference_cocycle_from_json, cocycle, g)
            if isinstance(want, str):  # the colliding labels
                assert got == want and want.startswith("SchemaError: morphism labels collide")
                continue
            assert got.n == want.n and got.values.dtype == want.values.dtype
            assert np.array_equal(got.values, want.values)
            # residues of an object array are Python ints, exact at any size
            assert all(type(v) is int for v in got.values.tolist())
            checked["object" if got.values.dtype == object else "int64"] += 1
    assert checked["object"] and checked["int64"], checked


def edit(doc, *steps):
    """A copy of ``doc`` with the value at each path of keys set."""
    doc = copy.deepcopy(doc)
    for keys, value in steps:
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    return doc


def test_bulk_readers_name_each_fault_as_the_walk_does():
    g = product_group(2, 3)
    gdoc = sz.groupoid_to_json(g)
    cdoc = sz.cocycle_to_json(tw.TwoCocycle.from_values(g, 6, list(range(36))))
    first = cdoc["table"][0][:2]
    cocycle_cases = [
        edit(cdoc, (("table", 3, 2), True)),
        edit(cdoc, (("table", 3, 2), 2.0)),
        edit(cdoc, (("table", 3, 2), 2**70)),
        edit(cdoc, (("table", 3, 2), -2**70 - 1), (("table", 4, 2), -5)),
        edit(cdoc, (("table", 3, 2), 2**63 + 1), (("table", 4, 2), -1)),
        edit(cdoc, (("table", 3, 2), 2**64 - 1)),
        edit(cdoc, (("n",), 1)),
        edit(cdoc, (("n",), 2**61)),
        edit(cdoc, (("n",), 2**64 + 1), (("table", 0, 2), 2**64 + 7)),
        edit(cdoc, (("n",), 0)),
        edit(cdoc, (("n",), 0), (("table", 9, 2), "1")),
        edit(cdoc, (("table", 5, 0), ["(0,1)"])),
        edit(cdoc, (("table", 5, 1), {"k": 1})),
        edit(cdoc, (("table", 5, 1), 1)),
        edit(cdoc, (("table", 5), cdoc["table"][5][:2])),
        edit(cdoc, (("table", 5), [*cdoc["table"][5], 0])),
        edit(cdoc, (("table", 5), "abc")),
        edit(cdoc, (("table", 5), None)),
        edit(cdoc, (("table", 5), (*cdoc["table"][5],))),
        edit(cdoc, (("table", 7), [*first, 1])),
        edit(cdoc, (("table", 7), [*first, True]), (("table", 8, 2), 1.5)),
        edit(cdoc, (("table", 9, 2), True), (("table", 10, 0), "zz")),
        edit(cdoc, (("table",), [])),
        edit(cdoc, (("table",), cdoc["table"][:20] + cdoc["table"][21:])),
        # labels that name no morphism on one known partner: two different ones, then the same one twice
        edit(cdoc, (("table", 3), ["zz", first[1], 1]), (("table", 4), ["yy", first[1], 2])),
        edit(cdoc, (("table", 3), ["zz", first[1], 1]), (("table", 4), ["zz", first[1], 2])),
        edit(cdoc, (("table", 3), [first[0], "zz", 1]), (("table", 4), [first[0], "zz", 1])),
        edit(cdoc, (("table", 2), [cdoc["table"][6][0], "zz", 1])),
        # a label that names no morphism before, and after, a list label
        edit(cdoc, (("table", 3, 0), "zz"), (("table", 6, 1), ["x"])),
        edit(cdoc, (("table", 3, 1), ["x"]), (("table", 6, 0), "zz")),
        edit(cdoc, (("table", 3, 0), "zz"), (("table", 3, 1), ["x"])),
        edit(cdoc, (("table", 3, 1), "zz"), (("table", 3, 0), ["x"])),
    ]
    # the int label 1 against the morphism labelled "1", on two units
    ints = sz.groupoid_from_json(int_label_groupoid_doc())
    ones = {"schema": "two_cocycle/1", "n": 4, "table": [["1", "1", 3], ["2", "2", 5]]}
    cocycle_cases += [(ones, ints), (edit(ones, (("table", 0, 0), 1)), ints),
                      (edit(ones, (("table", 1, 1), "1")), ints), (edit(ones, (("table", 1), [1, 1, 0])), ints)]
    kinds = collections.Counter()
    for case in cocycle_cases:
        doc, groupoid = case if isinstance(case, tuple) else (case, g)
        want = outcome(reference_cocycle_from_json, copy.deepcopy(doc), groupoid)
        got = outcome(sz.cocycle_from_json, doc, groupoid)
        if isinstance(want, str):
            assert got == want, doc
        else:
            assert got.values.dtype == want.values.dtype and np.array_equal(got.values, want.values), doc
        kinds[want.split(" (at ")[0] if isinstance(want, str) else "valid"] += 1
    assert len(kinds) >= 10, kinds

    groupoid_cases = [
        edit(gdoc, (("compose", 4), gdoc["compose"][4][:2])),
        edit(gdoc, (("compose", 4), [*gdoc["compose"][4], "x"])),
        edit(gdoc, (("compose", 4), "abc")),
        edit(gdoc, (("compose", 4), {"a": 1, "b": 2, "c": 3})),
        edit(gdoc, (("compose", 4, 1), ["(0,1)"])),
        edit(gdoc, (("compose", 4, 2), 1)),
        edit(gdoc, (("compose", 9), gdoc["compose"][3])),
        edit(gdoc, (("compose", 9), gdoc["compose"][3]), (("range",), {})),
        edit(gdoc, (("range",), {})),
        edit(gdoc, (("inverse", "(1,2)"), "(5,5)")),
        edit(gdoc, (("units",), ["(0,0)", "1"])),
        edit(gdoc, (("units",), [["(0,0)"]])),
        edit(gdoc, (("compose",), [])),
        edit(gdoc, (("units",), [])),
        # labels that name no morphism on one known partner: two different ones, then the same one twice
        edit(gdoc, (("compose", 3, 0), "zz"), (("compose", 4), ["yy", *gdoc["compose"][3][1:]])),
        edit(gdoc, (("compose", 3, 0), "zz"), (("compose", 4), ["zz", *gdoc["compose"][3][1:]])),
        edit(gdoc, (("compose", 3, 1), "zz"), (("compose", 8), [gdoc["compose"][3][0], "zz", "zz"])),
        # a known pair after a row whose b names no morphism, as the key a n + b with b = -1 would read it
        edit(gdoc, (("compose", 2), [gdoc["compose"][6][0], "zz", gdoc["compose"][2][2]])),
        # a label that names no morphism before a list label, in a later row, a unit or a table
        edit(gdoc, (("compose", 3, 0), "zz"), (("compose", 6, 1), ["x"])),
        edit(gdoc, (("compose", 3, 0), "zz"), (("compose", 6, 2), ["x"])),
        edit(gdoc, (("compose", 3, 2), "zz"), (("compose", 6, 2), ["x"])),
        edit(gdoc, (("compose", 3, 2), ["x"]), (("compose", 6, 0), "zz")),
        edit(gdoc, (("units",), ["zz", ["x"]])),
        edit(gdoc, (("units",), [["x"], "zz"])),
        edit(gdoc, (("units",), ["zz"]), (("inverse", "(1,2)"), ["x"])),
        edit(gdoc, (("range", "(0,1)"), "zz"), (("inverse", "(1,2)"), ["x"])),
        edit(gdoc, (("range", "(1,2)"), "zz"), (("inverse", "(0,1)"), ["x"])),
        # a missing range entry beside a source entry that names no morphism, on one morphism and on two
        edit(gdoc, (("range",), {k: v for k, v in gdoc["range"].items() if k != "(0,1)"}), (("source", "(0,1)"), "zz")),
        edit(gdoc, (("range",), {k: v for k, v in gdoc["range"].items() if k != "(1,2)"}), (("source", "(0,1)"), "zz")),
        edit(gdoc, (("range",), {k: v for k, v in gdoc["range"].items() if k != "(0,1)"}), (("source", "(1,2)"), "zz")),
    ]
    ints = int_label_groupoid_doc()
    groupoid_cases += [
        ints,
        edit(ints, (("compose", 0), [True, True, 1])),
        edit(ints, (("compose", 1), [2.0, 2, 2])),
        edit(ints, (("compose", 0), ["1", 1, 1])),
        edit(ints, (("range",), {"1": 1, "2": 2})),
        edit(ints, (("units",), [1, [2]])),
        edit(ints, (("compose",), [[1, 1, 1], [2, 2, 2], [True, 1, 1]])),
    ]
    kinds.clear()
    for doc in groupoid_cases:
        want = outcome(reference_groupoid_from_json, copy.deepcopy(doc))
        got = outcome(sz.groupoid_from_json, doc)
        if isinstance(want, str):
            assert got == want, doc
        else:
            assert same_groupoid(got, want), doc
        kinds[want.split(" (at ")[0] if isinstance(want, str) else "valid"] += 1
    assert len(kinds) >= 10, kinds
