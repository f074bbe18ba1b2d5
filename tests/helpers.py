"""Test-only constructions: small spaces, groups and random graphs that
the library itself never builds, and groupoids and cocycles given by
label tables."""

from __future__ import annotations

import random
from typing import Sequence

import numpy as np

from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw
from groupoidlab.labels import canonical_label


def chain_space() -> fs.FinSpace:
    """Two-point space {c, o} with {o} open and {c} not: U_c = {c, o}."""
    return fs.FinSpace(("c", "o"), {"o": {"o"}, "c": {"c", "o"}})


def disjoint_union(parts: Sequence[fs.FinSpace]) -> fs.FinSpace:
    """Disjoint union with each part open and closed; points are (i, p)."""
    pts = [(i, p) for i, part in enumerate(parts) for p in part.points]
    mo = {
        (i, p): {(i, q) for q in part.min_open(p)}
        for i, part in enumerate(parts)
        for p in part.points
    }
    return fs.FinSpace(pts, mo)


def subspace(space: fs.FinSpace, subset) -> fs.FinSpace:
    """``subset`` in the order of ``space`` with the subspace topology."""
    sub = space.bits(subset)
    pts = [p for p in space.points if (sub >> space.index(p)) & 1]
    return fs.FinSpace(pts, {p: space.unbits(space.min_open_bits(space.index(p)) & sub) for p in pts})


def open_sets(space: fs.FinSpace) -> list[frozenset]:
    return [space.unbits(m) for m in space.open_set_bits()]


def random_dag(rng: random.Random, n_vertices: int, edge_prob: float = 0.35):
    """A random acyclic directed graph as (vertices, edges).

    Edges are triples (id, range_vertex, source_vertex) oriented so that
    the vertex order is a topological order for the path direction.
    """
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    eid = 0
    for i in range(n_vertices):
        for j in range(i + 1, n_vertices):
            while rng.random() < edge_prob:
                edges.append((f"e{eid}", vertices[i], vertices[j]))
                eid += 1
                if rng.random() < 0.7:
                    break
    return vertices, edges


def is_closed_bits(space: fs.FinSpace, mask: int) -> bool:
    return space.is_open_bits(~mask & (1 << len(space.points)) - 1)


def label_groupoid(topology: fs.FinSpace, units, range_map, source_map, compose, inverse) -> gp.FinGroupoid:
    """The groupoid given by label tables, numbered as the ``fingroupoid/1``
    parser numbers a document's: a table fault raises its ``SchemaError``,
    a failed axiom ``GroupoidAxiomError``."""
    tables = {"range": range_map, "source": source_map, "inverse": inverse}
    rows = [[a, b, ab] for (a, b), ab in compose.items()]
    return gp.FinGroupoid(topology, *sz._number_tables(topology, list(units), tables, rows, "/"))


def label_cocycle(groupoid: gp.FinGroupoid, n: int, table) -> tw.TwoCocycle:
    """The cocycle with ``table``'s values at its pairs of labels, read
    as a ``two_cocycle/1`` document; pairs without an entry stay
    missing."""
    rows = [[canonical_label(a), canonical_label(b), int(v)] for (a, b), v in table.items()]
    return sz.cocycle_from_json({"schema": "two_cocycle/1", "n": n, "table": rows}, groupoid)


def inverse_map(groupoid: gp.FinGroupoid) -> dict:
    """The inverse of each morphism, by label."""
    m = groupoid.morphisms
    return {a: m[b] for a, b in zip(m, groupoid.inverse_idx.tolist())}


def product_group(a: int, b: int) -> gp.FinGroupoid:
    """Z/a x Z/b as a one-unit groupoid on the labels (x, y)."""
    elems = [(x, y) for x in range(a) for y in range(b)]
    return label_groupoid(
        fs.discrete(elems), [(0, 0)], {e: (0, 0) for e in elems}, {e: (0, 0) for e in elems},
        {(e, f): ((e[0] + f[0]) % a, (e[1] + f[1]) % b) for e in elems for f in elems},
        {e: (-e[0] % a, -e[1] % b) for e in elems},
    )


def reference_reduced_norm(f: ca.AlgebraElement) -> float:
    """The reduced norm as a loop over the orbits: one induced
    representation at each orbit's first unit and one 2-norm of it."""
    best = 0.0
    for orbit in f.groupoid.orbits():
        matrix = ca.induced_rep(orbit[0], f).matrix
        best = max(best, float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0)
    return best
