"""Independent re-checks of groupoidlab outputs.

Every checker returns a list of problems; an empty list means the output
is correct.  The checkers use plain Python integers and their own graph
walks, never the library code under test, so a wrong witness, a false
certificate or a verdict that contradicts known ground truth is caught
even when the library's own self-checks are switched off.
"""

from __future__ import annotations

import json

STRUCTURAL_TOL = 1e-12
ACCUMULATED_TOL = 1e-9

UNDECIDED = "UNDECIDED"


def gate(deviations: dict, tol: float) -> list[str]:
    """Every deviation must be a number strictly below ``tol`` (NaN fails)."""
    return [
        f"{name} = {value!r} is not below {tol:g}"
        for name, value in deviations.items()
        if not (isinstance(value, (int, float)) and value < tol)
    ]


def expect(condition: bool, message: str) -> list[str]:
    return [] if condition else [message]


# -- linear algebra over Z/n --------------------------------------------------


def check_solution(rows, rhs, x, n: int) -> list[str]:
    """A x == b (mod n) for sparse rows given as {column: coefficient}."""
    for k, (row, b) in enumerate(zip(rows, rhs)):
        if (sum(c * x[j] for j, c in row.items()) - b) % n:
            return [f"witness fails equation {k} mod {n}"]
    return []


def check_certificate(rows, rhs, u, n: int, columns: int) -> list[str]:
    """u A == 0 and u b != 0 (mod n): a certificate of unsolvability."""
    combined = [0] * columns
    for row, coeff in zip(rows, u):
        if coeff % n:
            for j, c in row.items():
                combined[j] += coeff * c
    if any(v % n for v in combined):
        return [f"certificate does not annihilate the matrix mod {n}"]
    if not sum(coeff * b for coeff, b in zip(u, rhs)) % n:
        return [f"certificate evaluates to 0 mod {n} on the right-hand side"]
    return []


# -- CLI reports ----------------------------------------------------------------


def parse_report(code: int, text: str, expected_code: int = 0):
    """Parse a report/1 document; returns (result, problems)."""
    try:
        report = json.loads(text)
    except json.JSONDecodeError as err:
        return None, [f"stdout is not JSON: {err}"]
    problems = []
    if not isinstance(report, dict) or report.get("schema") != "report/1":
        return None, ["stdout is not a report/1 document"]
    if report.get("exit_code") != code:
        problems.append(f"report exit_code {report.get('exit_code')} != returned {code}")
    if code != expected_code:
        problems.append(f"exit code {code}, expected {expected_code}: {report.get('result')}")
    return report.get("result"), problems


# -- cocycles on finite groups ------------------------------------------------


def check_group_coboundary(pairs, witness: dict, n: int) -> list[str]:
    """sigma(x, y) == b(x) + b(y) - b(xy) (mod n) on every pair.

    ``pairs`` lists (x, y, xy, sigma) by label; labels missing from the
    witness carry the value 0.
    """
    b = lambda label: int(witness.get(label, 0))
    for x, y, xy, value in pairs:
        if (value - b(x) - b(y) + b(xy)) % n:
            return [f"coboundary witness fails at ({x},{y}) mod {n}"]
    return []


# -- Cech data on vertex-star covers -------------------------------------------


def cech_system(triples, lam: dict):
    """Rows of lambda_ijk = mu_jk - mu_ik + mu_ij over the nonempty triples."""
    pairs = sorted({p for (i, j, k) in triples for p in ((i, j), (i, k), (j, k))})
    col = {p: c for c, p in enumerate(pairs)}
    rows = [
        {col[(j, k)]: 1, col[(i, k)]: -1, col[(i, j)]: 1} for (i, j, k) in triples
    ]
    rhs = [lam[t] for t in triples]
    return pairs, rows, rhs


def check_cech_witness(triples, lam: dict, witness: dict, n: int) -> list[str]:
    pairs, rows, rhs = cech_system(triples, lam)
    try:
        x = [int(witness[f"{i},{j}"]) for (i, j) in pairs]
    except KeyError as err:
        return [f"witness lacks pair {err}"]
    return check_solution(rows, rhs, x, n)


def check_cech_certificate(triples, lam: dict, certificate: dict, n: int) -> list[str]:
    pairs, rows, rhs = cech_system(triples, lam)
    known = {f"{i},{j},{k}" for (i, j, k) in triples}
    if set(certificate) - known:
        return ["certificate names a triple outside the cover"]
    u = [int(certificate.get(f"{i},{j},{k}", 0)) for (i, j, k) in triples]
    return check_certificate(rows, rhs, u, n, len(pairs))


# -- graphs ---------------------------------------------------------------------


def walk(edges: dict, start: str, path) -> tuple[str | None, list[str]]:
    """Follow an edge path from its range ``start``; returns its source.

    ``edges`` maps an edge label to (range label, source label); a path
    e1 e2 ... satisfies r(e1) = start and r(e_{i+1}) = s(e_i).
    """
    at = start
    for label in path:
        if label not in edges:
            return None, [f"path uses unknown edge {label!r}"]
        r, s = edges[label]
        if r != at:
            return None, [f"edge {label!r} does not continue the path at {at!r}"]
        at = s
    return at, []


def check_parallel_paths(edges: dict, vertex: str, paths) -> list[str]:
    """Two distinct paths with range ``vertex`` and a common source."""
    if not paths or len(paths) != 2:
        return ["a NOT_FELL verdict needs exactly two witness paths"]
    p1, p2 = (tuple(p) for p in paths)
    if p1 == p2:
        return ["witness paths are equal"]
    end1, problems = walk(edges, vertex, p1)
    if problems:
        return problems
    end2, problems = walk(edges, vertex, p2)
    if problems:
        return problems
    return expect(end1 == end2, f"witness paths end at {end1!r} and {end2!r}")


def check_cycle(edges: dict, cycle) -> list[str]:
    """The edges form a closed path, read in either direction."""
    if not cycle:
        return ["a NOT_PRINCIPAL verdict needs a cycle"]
    for path in (list(cycle), list(reversed(cycle))):
        start = edges.get(path[0], (None, None))[0]
        end, problems = walk(edges, start, path)
        if not problems and end == start:
            return []
    return ["cycle witness is not a closed path"]


def check_verdict(verdict: str, truth: str | None) -> list[str]:
    """UNDECIDED is always honest; a decided verdict must match the truth."""
    base = verdict.split("(", 1)[0]
    if truth is None or base == UNDECIDED or base == truth:
        return []
    return [f"verdict {verdict} contradicts ground truth {truth}"]


def single_threaded(vertices, edges) -> frozenset:
    """Vertices of a finite DAG with at most one path to every vertex.

    v is single-threaded exactly when the sources of its incoming edges
    are distinct, each single-threaded, and reach pairwise disjoint
    vertex sets; reach sets are bitmasks.
    """
    index = {v: i for i, v in enumerate(vertices)}
    incoming = {v: [] for v in vertices}
    for _eid, r, s in edges:
        incoming[r].append(s)
    reach, ok = {}, {}
    order = _sources_first(vertices, edges)
    for v in order:
        mask, fine = 1 << index[v], True
        for s in incoming[v]:
            if not ok[s] or mask & reach[s]:
                fine = False
            mask |= reach[s]
        reach[v], ok[v] = mask, fine
    return frozenset(v for v in vertices if ok[v])


def _sources_first(vertices, edges) -> list:
    pending = {v: 0 for v in vertices}
    feeds = {v: [] for v in vertices}
    for _eid, r, s in edges:
        pending[r] += 1
        feeds[s].append(r)
    ready = [v for v in vertices if pending[v] == 0]
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for r in feeds[v]:
            pending[r] -= 1
            if pending[r] == 0:
                ready.append(r)
    if len(order) != len(vertices):
        raise ValueError("graph has a cycle")
    return order


def unrolled_edges(doc: dict, copies: int) -> dict:
    """Edge label -> (range, source) of a periodic_graph/1 document unrolled
    to ``copies`` block copies, labelled the way reports label them."""
    label = lambda *parts: "(" + ",".join(str(p) for p in parts) + ")"
    out = {}
    for e in doc["prefix"]["edges"]:
        out[label("p", e["id"])] = (label("p", e["range"]), label("p", e["source"]))
    for k in range(copies):
        for e in doc["block"]["edges"]:
            out[label("b", k, e["id"])] = (label("b", k, e["range"]), label("b", k, e["source"]))
    for e in doc["seam_prefix"]:
        out[label("s0", e["id"])] = (label("p", e["range"]), label("b", 0, e["source"]))
    for k in range(copies - 1):
        for e in doc["seam_block"]:
            out[label("s", k, e["id"])] = (label("b", k, e["range"]), label("b", k + 1, e["source"]))
    return out


def digraph_edges(doc: dict) -> dict:
    return {e["id"]: (e["range"], e["source"]) for e in doc["edges"]}
