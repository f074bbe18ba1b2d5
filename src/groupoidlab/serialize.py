"""Versioned JSON encodings for every value the command line touches.

Each document carries a ``schema`` field like ``finspace/1``.  Emission
is canonical: keys sorted, point identifiers rendered through one label
function, lists in deterministic order, so that parse-then-emit is the
identity on canonical form.  Errors carry a JSON-pointer-style path.
``parse_json`` reads every document and rejects an object that writes a
key twice, which plain ``json`` would collapse to its last value.  The
readers of ``finspace/1``, ``fingroupoid/1`` and ``two_cocycle/1`` are
the only code that numbers labels: each reads its tables and rows once
into the masks that ``FinSpace`` takes or the int arrays that
``FinGroupoid`` and ``TwoCocycle`` take.  The last two number in bulk,
and again, with sentinels, only to name the first fault.
"""

from __future__ import annotations

import itertools
import json
import re
from collections.abc import Mapping
from typing import Any

import numpy as np

from .errors import InputError, SizeCapError
from .finspace import FinSpace, InvalidSpace, SpaceMap, _iter_bits
from .labels import canonical_label
from .graphfell import DirectedGraph, PeriodicGraph
from .groupoid import FinGroupoid, RelationGroupoid, build_relation_groupoid
from .twist import CechData, CocycleError, TwoCocycle, _value_dtype


class SchemaError(InputError):
    def __init__(self, message: str, path: str = "/"):
        InputError.__init__(self, message, path)


def _expect(doc: Any, kind: type, path: str):
    if not isinstance(doc, kind):
        raise SchemaError(f"expected {kind.__name__}, got {type(doc).__name__}", path)
    return doc


def _expect_int(doc: Any, path: str, *keys) -> int:
    """A JSON integer (exactly an int: no float, numeric string or bool) at
    ``path`` and then ``keys``, which are joined only on failure."""
    if type(doc) is not int:
        raise SchemaError(f"expected int, got {type(doc).__name__}", path + "".join(f"/{k}" for k in keys))
    return doc


def _members(node: Any, path: str):
    """(path, value) of each member of a JSON list or object."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return ((f"{path}/{key}", value) for key, value in items)


def _path_to(node: Any, target: dict, path: str) -> str | None:
    """The path of the object ``target`` inside the parsed tree ``node``."""
    if node is target:
        return path
    for sub, child in _members(node, path):
        found = _path_to(child, target, sub)
        if found is not None:
            return found
    return None


def parse_json(text: str) -> Any:
    """Parse a JSON document, raising ``SchemaError`` at the first object
    (in the order the parser closes them) that writes a key twice; the
    path names the object and the key.  A document nested deeper than
    the parser recurses is a ``SchemaError`` that gives its depth."""
    repeated = []

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs) and not repeated:
            keys = [k for k, _ in pairs]
            repeated.append((obj, next(k for i, k in enumerate(keys) if k in keys[:i])))
        return obj

    try:
        doc = json.loads(text, object_pairs_hook=unique)
    except RecursionError:
        # the depth, with each string matched whole so that no bracket in it counts
        brackets = re.findall(r'"(?:[^"\\]|\\.)*"|([][{}])', text)
        depth = max(itertools.accumulate((b in "[{") - (b in "]}") for b in brackets if b), default=0)
        raise SchemaError(f"document nested too deeply ({depth} levels)")
    if repeated:
        obj, key = repeated[0]
        raise SchemaError(f"key {key!r} written twice in one object", f"{_path_to(doc, obj, '/')}/{key}")
    return doc


def _reject_non_scalar(labels) -> None:
    """Raise ``SchemaError`` at the first (path, value) of ``labels`` whose
    value is a JSON list or object.  Labels are hashed, so a space, map,
    groupoid or graph built from such a label raises ``TypeError``; only
    then are they read."""
    for path, value in labels:
        if isinstance(value, (list, dict)):
            raise SchemaError(f"expected a scalar label, got {type(value).__name__}", path)


def _shaped(rows: list, width: int) -> int:  # how many rows lead that are lists of width members
    if all(issubclass(t, list) for t in set(map(type, rows))) and set(map(len, rows)) <= {width}:
        return len(rows)
    return next(k for k, row in enumerate(rows) if not (isinstance(row, list) and len(row) == width))


def _repeats(keys: np.ndarray) -> bool:
    keys = np.sort(keys)
    return bool((keys[1:] == keys[:-1]).any())


def _later(keys: np.ndarray) -> np.ndarray:  # whether each key equals an earlier one
    return ~np.isin(np.arange(len(keys)), np.unique(keys, return_index=True)[1])


def _number(index: Mapping, labels: list) -> np.ndarray:  # -1 for a label that names none, -2 if unhashable
    return np.array([index.get(x, -1) if x.__hash__ else -2 for x in labels], dtype=np.int64)


def _expect_schema(doc: Mapping, names: tuple, path: str) -> str:
    _expect(doc, dict, path)
    tag = doc.get("schema")
    if tag not in names:
        raise SchemaError(f"expected schema in {names}, got {tag!r}", path + "/schema")
    return tag


# -- finite spaces -----------------------------------------------------------


def space_to_json(space: FinSpace) -> dict:
    """The ``finspace/1`` document of a space; each point's label is
    rendered once."""
    labels = [canonical_label(p) for p in space.points]
    return {
        "schema": "finspace/1",
        "points": labels,
        "min_open": {
            label: sorted([labels[j] for j in _iter_bits(mask)]) for label, mask in zip(labels, space._mo)
        },
    }


def _number_opens(points: list, min_open: Mapping) -> list[int]:
    """The mask of each point's minimal open in ``min_open``, point to
    members, over the positions in ``points``.  The first fault raises
    ``InvalidSpace``: duplicate points; then, point by point, a missing
    entry or its first member that is no point; then the first key that
    is no point, members and keys in the order given.  An unhashable
    label anywhere outranks them all and raises ``TypeError``.
    ``FinSpace`` checks coherence on the masks."""
    index = {p: i for i, p in enumerate(points)}
    try:
        if len(index) < len(points):
            raise InvalidSpace("duplicate points")
        masks = []
        for p in points:
            if p not in min_open:
                raise InvalidSpace(f"no minimal open given for point {p!r}")
            m = 0
            for q in min_open[p]:
                i = index.get(q)
                if i is None:
                    raise InvalidSpace(f"min_open({p!r}) mentions unknown point {q!r}")
                m |= 1 << i
            masks.append(m)
        for extra in min_open:
            if extra not in index:
                raise InvalidSpace(f"min_open defined for unknown point {extra!r}")
    except InvalidSpace:
        for members in min_open.values():
            set(members)  # raises TypeError on an unhashable member
        raise
    return masks


def space_from_json(doc: Mapping, path: str = "/") -> FinSpace:
    _expect_schema(doc, ("finspace/1",), path)
    points = _expect(doc.get("points"), list, path + "/points")
    mo = _expect(doc.get("min_open"), dict, path + "/min_open")
    for p, v in mo.items():
        if not isinstance(v, list):  # the path is formed only for a fault
            _expect(v, list, f"{path}/min_open/{p}")
    try:
        return FinSpace(points, _number_opens(points, mo))
    except ValueError as err:
        raise SchemaError(str(err), path)
    except TypeError:
        _reject_non_scalar(_members(points, path + "/points"))
        for p, v in mo.items():
            _reject_non_scalar(_members(v, f"{path}/min_open/{p}"))
        raise


def map_to_json(f: SpaceMap) -> dict:
    return {
        "schema": "spacemap/1",
        "dom": space_to_json(f.dom),
        "cod": space_to_json(f.cod),
        "assignment": {
            canonical_label(p): canonical_label(f(p)) for p in f.dom.points
        },
    }


def map_from_json(doc: Mapping, path: str = "/") -> SpaceMap:
    _expect_schema(doc, ("spacemap/1",), path)
    dom = space_from_json(_expect(doc.get("dom"), dict, path + "/dom"), path + "/dom")
    cod = space_from_json(_expect(doc.get("cod"), dict, path + "/cod"), path + "/cod")
    assignment = _expect(doc.get("assignment"), dict, path + "/assignment")
    try:
        return SpaceMap(dom, cod, assignment)
    except ValueError as err:
        raise SchemaError(str(err), path + "/assignment")
    except TypeError:
        _reject_non_scalar(_members(assignment, path + "/assignment"))
        raise


# -- groupoids ----------------------------------------------------------------


def groupoid_to_json(groupoid: FinGroupoid) -> dict:
    if isinstance(groupoid, RelationGroupoid):
        return {"schema": "relation_groupoid/1", "psi": map_to_json(groupoid.psi)}
    labels = [canonical_label(m) for m in groupoid.morphisms]
    table = lambda idx: {m: labels[t] for m, t in zip(labels, idx.tolist())}
    return {
        "schema": "fingroupoid/1",
        "topology": space_to_json(groupoid.topology),
        "units": sorted(canonical_label(u) for u in groupoid.units),
        "range": table(groupoid.range_idx),
        "source": table(groupoid.source_idx),
        "inverse": table(groupoid.inverse_idx),
        "compose": sorted(
            [labels[a], labels[b], labels[c]] for a, b, c in zip(*(p.tolist() for p in groupoid.pairs))
        ),
    }


def groupoid_from_json(doc: Mapping, path: str = "/") -> FinGroupoid:
    tag = _expect_schema(doc, ("fingroupoid/1", "relation_groupoid/1"), path)
    if tag == "relation_groupoid/1":
        psi = map_from_json(_expect(doc.get("psi"), dict, path + "/psi"), path + "/psi")
        try:
            return build_relation_groupoid(psi)
        except SizeCapError as err:
            raise SizeCapError(str(err), path + "/psi") from err
        except ValueError as err:
            raise SchemaError(str(err), path + "/psi")
    topology = space_from_json(
        _expect(doc.get("topology"), dict, path + "/topology"), path + "/topology"
    )
    rows = _expect(doc.get("compose"), list, path + "/compose")
    k = _shaped(rows, 3)
    if k < len(rows):
        raise SchemaError("compose rows are [a, b, ab]", f"{path}/compose/{k}")
    units = _expect(doc.get("units"), list, path + "/units")
    tables = {name: _expect(doc.get(name), dict, f"{path}/{name}") for name in ("range", "source", "inverse")}
    index = _number_tables(topology, units, tables, rows, path)
    try:
        groupoid = FinGroupoid(topology, *index)
    except ValueError as err:
        raise SchemaError(str(err), path)
    for name, table in tables.items():
        # every morphism has an entry, so a longer table has a stray key
        if len(table) > len(groupoid):
            key = next(k for k in table if k not in topology._index)
            raise SchemaError(f"{name} defined on {key!r}, which is not a morphism", f"{path}/{name}/{key}")
    return groupoid


def _number_tables(topology: FinSpace, units: list, tables: Mapping, rows: list, path: str) -> tuple:
    """The index of the label tables of a ``fingroupoid/1`` document, as
    ``FinGroupoid`` takes it: range, source and inverse, the unit mask
    and the compose rows (a, b, ab), numbered by ``topology``.

    Each is numbered in bulk, by ``np.fromiter`` over
    ``index.__getitem__``.  Only when a lookup fails or a pair repeats
    among the keys a n + b are they numbered again, by ``_number``, to
    read the first fault in the order of ``docs/schemas.md``."""
    index, points, n = topology._index, topology.points, len(topology)
    number = lambda labels, count: np.fromiter(map(index.__getitem__, labels), np.int64, count)
    try:
        structure = [number(map(table.__getitem__, points), n) for table in tables.values()]
        unit_numbers = number(units, len(units))
        pairs = number(itertools.chain.from_iterable(rows), 3 * len(rows)).reshape(-1, 3).T
    except (KeyError, TypeError):
        pairs = None
    if pairs is not None and not _repeats(pairs[0] * n + pairs[1]):
        unit_mask = np.zeros(n, dtype=bool)
        unit_mask[unit_numbers] = True
        return (*structure, unit_mask, pairs)
    # the tables morphism by morphism, where a missing entry is an object() that names no morphism, the units, the rows
    entries = zip(*(map(table.get, points, itertools.repeat(object())) for table in tables.values()))
    labels = [*itertools.chain(*entries, units, *rows)]
    numbers = _number(index, labels)
    ends, unknown = numbers[3 * n + len(units):].reshape(-1, 3)[:, :2].copy(), {}
    try:
        for k, i in np.argwhere(ends < 0).tolist():  # each label that names no morphism, numbered past n
            ends[k, i] = n + unknown.setdefault(rows[k][i], len(unknown))
        later = _later(ends[:, 0] * (n + len(unknown)) + ends[:, 1])
        if later.any():
            k = int(np.argmax(later))
            raise SchemaError("pair ({!r},{!r}) listed twice".format(*rows[k][:2]), f"{path}/compose/{k}")
        p = int(np.argmax(numbers < 0))
        hash(labels[p])  # the TypeError of a first label that is unhashable
        if p < 3 * n:
            (name, table), m = list(tables.items())[p % 3], points[p // 3]
            raise SchemaError(f"{name}({m!r}) is not a morphism" if m in table else f"{name} undefined on {m!r}", path)
        if p < 3 * n + len(units):
            raise SchemaError(f"unit {labels[p]!r} is not a morphism", path)
        k = (p - 3 * n - len(units)) // 3
        raise SchemaError("composition entry ({!r},{!r})->{!r} off the morphism set".format(*rows[k]), path)
    except TypeError:
        _reject_non_scalar(_members(units, path + "/units"))
        for name, table in tables.items():
            _reject_non_scalar(_members(table, f"{path}/{name}"))
        for k, row in enumerate(rows):
            _reject_non_scalar(_members(row, f"{path}/compose/{k}"))
        raise


def cocycle_to_json(sigma: TwoCocycle) -> dict:
    lab = canonical_label
    return {
        "schema": "two_cocycle/1",
        "n": sigma.n,
        "table": sorted(
            [lab(a), lab(b), int(v)] for (a, b), v in sigma.table.items()
        ),
    }


def cocycle_from_json(doc: Mapping, groupoid: FinGroupoid, path: str = "/") -> TwoCocycle:
    """The cocycle of a ``two_cocycle/1`` document on ``groupoid``.  Its
    rows are numbered in bulk, and again by ``_number`` only to name the
    first fault, in the order of ``docs/schemas.md``.  The first
    composable pair left out raises ``CocycleError`` with code
    MISSING_ENTRY.  Values are reduced mod n in int64 when they fit,
    else in Python ints."""
    _expect_schema(doc, ("two_cocycle/1",), path)
    n = _expect_int(doc.get("n"), path, "n")
    labels = [canonical_label(m) for m in groupoid.morphisms]
    number = {lab: k for k, lab in enumerate(labels)}
    if len(number) < len(labels):
        lab = next(x for k, x in enumerate(labels) if x in labels[:k])
        raise SchemaError(f"morphism labels collide at {lab!r}")
    rows = _expect(doc.get("table"), list, path + "/table")
    shaped = _shaped(rows, 3)
    a, b, values = list(zip(*rows[:shaped])) or [()] * 3
    try:
        ends = [np.fromiter(map(number.__getitem__, col), np.int64, shaped) for col in (a, b)]
        valid = shaped == len(rows) and set(map(type, values)) <= {int}
    except (KeyError, TypeError):
        valid = False
    if not valid or _repeats(ends[0] * len(labels) + ends[1]):
        ends = _number(number, a + b).reshape(2, shaped)
        later = _later(ends[0] * len(labels) + ends[1])
        bad = (ends < 0).any(axis=0) | later | np.fromiter((type(v) is not int for v in values), bool, shaped)
        k = int(np.argmax([*bad, True]))  # the first bad row, else the first of another shape
        at = f"{path}/table/{k}"
        if k == shaped:
            raise SchemaError("table rows are [a, b, value]", at)
        for end, label in zip(ends[:, k], rows[k]):
            if end == -2:
                _reject_non_scalar(_members(rows[k], at))
                hash(label)  # the TypeError of an unhashable label that is no list or object
            if end == -1:
                raise SchemaError(f"unknown morphism in ({a[k]!r},{b[k]!r})", at)
        if later[k]:
            raise SchemaError(f"pair ({a[k]!r},{b[k]!r}) listed twice", at)
        _expect_int(values[k], path, "table", k, 2)
    try:
        dtype = _value_dtype(n)
    except ValueError as err:
        raise SchemaError(str(err), path + "/table")
    pid = groupoid.pair_number(*ends)
    if (pid < 0).any():
        a, b = (groupoid.morphisms[x[int(np.argmax(pid < 0))]] for x in ends)
        raise SchemaError(f"table entry on non-composable pair ({a!r},{b!r})", path + "/table")
    if len(pid) < len(groupoid.pairs[0]):  # the rows are distinct composable pairs
        listed = np.zeros(len(groupoid.pairs[0]), dtype=bool)
        listed[pid] = True
        a, b = (groupoid.morphisms[x[int(np.argmin(listed))]] for x in groupoid.pairs[:2])
        raise CocycleError(f"cocycle table missing composable pair ({a!r},{b!r})", path + "/table", code="MISSING_ENTRY")
    out = np.empty(len(groupoid.pairs[0]), dtype=dtype)
    try:
        out[pid] = np.fromiter(values, dtype, len(values)) % n
    except OverflowError:  # a value beyond int64
        out[pid] = [v % n for v in values]
    return TwoCocycle(groupoid, n, out)


def twisted_groupoid_to_json(groupoid: FinGroupoid, sigma: TwoCocycle) -> dict:
    return {
        "schema": "twisted_groupoid/1",
        "groupoid": groupoid_to_json(groupoid),
        "cocycle": cocycle_to_json(sigma),
    }


def twisted_groupoid_from_json(doc: Mapping, path: str = "/"):
    _expect_schema(doc, ("twisted_groupoid/1",), path)
    groupoid = groupoid_from_json(
        _expect(doc.get("groupoid"), dict, path + "/groupoid"), path + "/groupoid"
    )
    sigma = cocycle_from_json(
        _expect(doc.get("cocycle"), dict, path + "/cocycle"), groupoid, path + "/cocycle"
    )
    return groupoid, sigma


# -- cech data -----------------------------------------------------------------


def cech_to_json(data: CechData) -> dict:
    return {
        "schema": "cech/1",
        "n": data.n,
        "base_points": sorted(canonical_label(p) for p in data.base_points),
        "cover": {
            str(i): sorted(canonical_label(p) for p in data.cover[i])
            for i in data.indices
        },
        "lambda": sorted([i, j, k, v] for (i, j, k), v in data.table.items()),
    }


def cech_from_json(doc: Mapping, path: str = "/") -> CechData:
    _expect_schema(doc, ("cech/1",), path)
    n = _expect_int(doc.get("n"), path, "n")
    base = _expect(doc.get("base_points"), list, path + "/base_points")
    cover_doc = _expect(doc.get("cover"), dict, path + "/cover")
    entries = _expect(doc.get("lambda"), list, path + "/lambda")
    cover = {}
    for key, pts in cover_doc.items():
        # positive, in canonical decimal, so that no two keys name the same index
        if not re.fullmatch(r"[1-9][0-9]*", key):
            raise SchemaError("cover indices must be positive integers in canonical decimal", f"{path}/cover/{key}")
        try:
            index = int(key)
        except ValueError:  # more digits than int() converts
            raise SchemaError("cover index has too many digits", f"{path}/cover/{key}")
        cover[index] = _expect(pts, list, f"{path}/cover/{key}")
    for k, row in enumerate(entries):
        if not (isinstance(row, list) and len(row) == 4):
            raise SchemaError("lambda rows are [i, j, k, value]", f"{path}/lambda/{k}")
        for c, v in enumerate(row):
            _expect_int(v, path, "lambda", k, c)
    try:
        return CechData(n, base, cover, [tuple(r) for r in entries])
    except ValueError as err:
        raise SchemaError(str(err), path)
    except TypeError:
        _reject_non_scalar(_members(base, path + "/base_points"))
        for key, pts in cover_doc.items():
            _reject_non_scalar(_members(pts, f"{path}/cover/{key}"))
        raise


# -- graphs -------------------------------------------------------------------


def digraph_to_json(graph: DirectedGraph) -> dict:
    lab = canonical_label
    return {
        "schema": "digraph/1",
        "vertices": [lab(v) for v in graph.vertices],
        "edges": [
            {"id": lab(eid), "range": lab(r), "source": lab(s)}
            for (eid, r, s) in graph.edges
        ],
    }


def _edge_rows(rows: Any, path: str) -> list[tuple]:
    """Edge rows {"id", "range", "source"}: digraph edges and seam edges."""
    edges = []
    for k, e in enumerate(_expect(rows, list, path)):
        try:
            edges.append((e["id"], e["range"], e["source"]))
        except (TypeError, KeyError):
            _expect(e, dict, f"{path}/{k}")
            missing = next(f for f in ("id", "range", "source") if f not in e)
            raise SchemaError(f"edge missing {missing!r}", f"{path}/{k}") from None
    return edges


def _edge_labels(edges: list, path: str):
    """(path, value) of each id, range and source in ``edges``."""
    return ((f"{path}/{k}/{f}", v) for k, e in enumerate(edges) for f, v in zip(("id", "range", "source"), e))


def digraph_from_json(doc: Mapping, path: str = "/") -> DirectedGraph:
    _expect_schema(doc, ("digraph/1",), path)
    vertices = _expect(doc.get("vertices"), list, path + "/vertices")
    edges = _edge_rows(doc.get("edges"), path + "/edges")
    try:
        return DirectedGraph(vertices, edges)
    except ValueError as err:
        raise SchemaError(str(err), path)
    except TypeError:
        _reject_non_scalar(_members(vertices, path + "/vertices"))
        _reject_non_scalar(_edge_labels(edges, path + "/edges"))
        raise


def periodic_to_json(pres: PeriodicGraph) -> dict:
    lab = canonical_label
    seam = lambda rows: [
        {"id": lab(eid), "range": lab(r), "source": lab(s)} for (eid, r, s) in rows
    ]
    return {
        "schema": "periodic_graph/1",
        "block": digraph_to_json(pres.block),
        "prefix": digraph_to_json(pres.prefix),
        "seam_prefix": seam(pres.seam_prefix),
        "seam_block": seam(pres.seam_block),
    }


def periodic_from_json(doc: Mapping, path: str = "/") -> PeriodicGraph:
    _expect_schema(doc, ("periodic_graph/1",), path)
    block = digraph_from_json(_expect(doc.get("block"), dict, path + "/block"), path + "/block")
    prefix = digraph_from_json(_expect(doc.get("prefix"), dict, path + "/prefix"), path + "/prefix")
    seam_prefix = _edge_rows(doc.get("seam_prefix", []), path + "/seam_prefix")
    seam_block = _edge_rows(doc.get("seam_block", []), path + "/seam_block")
    try:
        return PeriodicGraph(block, prefix=prefix, seam_prefix=seam_prefix, seam_block=seam_block)
    except ValueError as err:
        raise SchemaError(str(err), path)
    except TypeError:
        _reject_non_scalar(_edge_labels(seam_prefix, path + "/seam_prefix"))
        _reject_non_scalar(_edge_labels(seam_block, path + "/seam_block"))
        raise


def graph_input_from_json(doc: Mapping, path: str = "/"):
    tag = _expect_schema(doc, ("digraph/1", "periodic_graph/1"), path)
    if tag == "digraph/1":
        return digraph_from_json(doc, path)
    return periodic_from_json(doc, path)
