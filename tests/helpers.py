"""Test-only constructions: small spaces, groups and random graphs that
the library itself never builds, spaces, groupoids and cocycles given by
label tables, the label path spaces were numbered on before the
``finspace/1`` parser did it, graphs on label dicts with the verdict
they gave before graphs were numbered, and the algebra checks as they
ran one unit at a time before every unit's matrix came from one
product, the product space, which the library never builds, the
bit walks that ``finspace``, ``groupoid`` and ``corpus`` each wrote for
themselves before ``finspace`` kept the one kernel, and the verifiers
as they ran before each fact was read once from the index: the map scan
with its first-not-open channel, the Fell test as a scan of the
identity map, the principal witness from a table by both ends, the
equivariant slice with its per-unit loop, and the cover kernel's norm
check on f - f(star) e_star; and the *-homomorphism checker and linear
map as they read a label dictionary ``{a: (t, c)}`` before maps were
index arrays, with the root-of-unity helper ``zeta``; and the coherence
loop of ``FinSpace``, the proof obligation of every ``FinSpace.coherent``
builder, and the per-call masks of ``product_masks`` before they were
kept once per ``IndexLayout``; and the moduli above int64 range that
exact arithmetic is tested at; and the dense n x n pair table that each
groupoid kept before ``IndexLayout.pair_number``, the oracle for the
numbering."""

from __future__ import annotations

import random
from typing import Mapping, Sequence

import numpy as np

from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import graphfell as gf
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw
from groupoidlab.labels import canonical_label


# moduli at which int64 products or sums would overflow
BIG_MODULI = (2**40 + 15, 2**63 - 25, 2**100 + 277)


def dense_pair_id(g) -> np.ndarray:
    """The number of each composable pair (a, b) of a ``FinGroupoid`` or
    ``IndexLayout`` in ``pairs`` at [a, b], -1 elsewhere."""
    n = len(g.range_idx)
    pair_id = np.full((n, n), -1, dtype=np.int64)
    pair_id[g.pairs[0], g.pairs[1]] = np.arange(len(g.pairs[0]))
    return pair_id


def compositions(n: int):
    """Every tuple of positive sizes summing to n."""
    if n == 0:
        yield ()
    for first in range(1, n + 1):
        for rest in compositions(n - first):
            yield (first, *rest)


def label_space(points, min_open) -> fs.FinSpace:
    """The space with minimal opens ``min_open``, point to points,
    numbered as the ``finspace/1`` parser numbers a document's: a fault
    raises ``InvalidSpace``."""
    pts = list(points)
    return fs.FinSpace(pts, sz._number_opens(pts, min_open))


class ReferenceSpace:
    """The label constructor ``FinSpace(points, min_open)`` as it was
    before labels were numbered only in ``serialize``: the duplicate
    check, then ``_masks_of``, then the coherence checks of ``FinSpace``
    on the masks, as ``space``.  ``_masks_of`` is verbatim but for the
    stray keys, which it reads in the order given rather than as a set
    difference, so that the first one is named whatever the hash seed."""

    def __init__(self, points, min_open):
        self.points = tuple(points)
        if len(set(self.points)) != len(self.points):
            raise fs.InvalidSpace("duplicate points")
        self._index = {p: i for i, p in enumerate(self.points)}
        self.space = fs.FinSpace(self.points, self._masks_of(min_open))

    def _masks_of(self, min_open) -> list[int]:
        masks = []
        for p in self.points:
            if p not in min_open:
                raise fs.InvalidSpace(f"no minimal open given for point {p!r}")
            m = 0
            for q in min_open[p]:
                i = self._index.get(q)
                if i is None:
                    raise fs.InvalidSpace(f"min_open({p!r}) mentions unknown point {q!r}")
                m |= 1 << i
            masks.append(m)
        for extra in min_open:
            if extra not in self._index:
                raise fs.InvalidSpace(f"min_open defined for unknown point {extra!r}")
        return masks


def min_open(space: fs.FinSpace, p) -> frozenset:
    """The minimal open U_p of ``space`` at the point ``p``, as labels."""
    return space.unbits(space.min_open_bits(space.index(p)))


def chain_space() -> fs.FinSpace:
    """Two-point space {c, o} with {o} open and {c} not: U_c = {c, o}."""
    return label_space(("c", "o"), {"o": {"o"}, "c": {"c", "o"}})


def disjoint_union(parts: Sequence[fs.FinSpace]) -> fs.FinSpace:
    """Disjoint union with each part open and closed; points are (i, p)."""
    pts = [(i, p) for i, part in enumerate(parts) for p in part.points]
    mo = {
        (i, p): {(i, q) for q in min_open(part, p)}
        for i, part in enumerate(parts)
        for p in part.points
    }
    return label_space(pts, mo)


def subspace(space: fs.FinSpace, subset) -> fs.FinSpace:
    """``subset`` in the order of ``space`` with the subspace topology."""
    sub = space.bits(subset)
    pts = [p for p in space.points if (sub >> space.index(p)) & 1]
    return label_space(pts, {p: space.unbits(space.min_open_bits(space.index(p)) & sub) for p in pts})


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


class LabelGraph:
    """A graph on label dicts, as graphs were kept before they were
    numbered: ``range_of`` and ``source_of`` map an edge id to its
    endpoints, and ``in_edges`` maps a vertex to the ids of the edges into
    it, in edge order."""

    def __init__(self, vertices, edges):
        self.vertices, self.edges = tuple(vertices), tuple(edges)
        self.range_of = {eid: r for (eid, r, s) in self.edges}
        self.source_of = {eid: s for (eid, r, s) in self.edges}
        self.in_edges = {v: [] for v in self.vertices}
        for (eid, r, s) in self.edges:
            self.in_edges[r].append(eid)


def label_relations(graph: gf.DirectedGraph) -> LabelGraph:
    """The label dicts of a numbered graph, read off its numbers: each
    edge runs between the vertices at its source and range positions."""
    v = graph.vertices
    return LabelGraph(v, [(e[0], v[p], v[q]) for e, p, q in zip(graph.edges, graph.range_pos, graph.source_pos)])


def reference_cycle(graph: LabelGraph):
    """The first cycle of the colour-marking walk on label dicts, from
    each vertex in turn along incoming edges in edge order."""
    color = {v: 0 for v in graph.vertices}
    for start in graph.vertices:
        if color[start]:
            continue
        stack, path_edges, on_stack = [(start, iter(graph.in_edges[start]))], [], {start}
        color[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for eid in it:
                w = graph.source_of[eid]
                if color[w] == 0:
                    color[w] = 1
                    on_stack.add(w)
                    path_edges.append(eid)
                    stack.append((w, iter(graph.in_edges[w])))
                    advanced = True
                    break
                if w in on_stack:
                    cyc, x = [eid], v
                    for back in reversed(path_edges):
                        if x == w:
                            break
                        cyc.append(back)
                        x = graph.range_of[back]
                    return tuple(reversed(cyc))
            if not advanced:
                color[v] = 2
                on_stack.discard(v)
                stack.pop()
                if path_edges:
                    path_edges.pop()
    return None


def reference_path_counts(graph: LabelGraph, cap=2):
    """Dict rows merged in Kahn's topological order."""
    indeg = {v: 0 for v in graph.vertices}
    by_source = {v: [] for v in graph.vertices}
    for (eid, r, s) in graph.edges:
        indeg[r] += 1
        by_source[s].append(r)
    frontier, order = [v for v in graph.vertices if indeg[v] == 0], []
    while frontier:
        v = frontier.pop()
        order.append(v)
        for r in by_source[v]:
            indeg[r] -= 1
            if indeg[r] == 0:
                frontier.append(r)
    assert len(order) == len(graph.vertices)
    counts = {}
    for v in order:
        row = {v: 1}
        for eid in graph.in_edges[v]:
            for w, c in counts[graph.source_of[eid]].items():
                row[w] = min(cap, row.get(w, 0) + c)
        counts[v] = row
    return counts


def reference_two_parallel_paths(graph: LabelGraph, v, counts):
    """The first source with two paths into v in the row's order, and the
    first two paths to it in depth-first order."""
    target = next((w for w, c in counts[v].items() if c >= 2), None)
    if target is None:
        return None
    found, path, stack = [], [], [iter(graph.in_edges[v])]
    while stack and len(found) < 2:
        eid = next(stack[-1], None)
        if eid is None:
            stack.pop()
            if path:
                path.pop()
            continue
        w = graph.source_of[eid]
        if w == target:
            found.append(tuple(path) + (eid,))
        elif counts[w].get(target, 0) >= 1:
            path.append(eid)
            stack.append(iter(graph.in_edges[w]))
    return target, found[0], found[1]


def reference_unroll(pres: gf.PeriodicGraph, copies: int) -> LabelGraph:
    """The unrolling on labels alone, in the edge order of ``unroll``."""
    vertices = [("p", v) for v in pres.prefix.vertices]
    vertices += [("b", k, v) for k in range(copies) for v in pres.block.vertices]
    edges = [(("p", eid), ("p", r), ("p", s)) for (eid, r, s) in pres.prefix.edges]
    for k in range(copies):
        edges += [(("b", k, eid), ("b", k, r), ("b", k, s)) for (eid, r, s) in pres.block.edges]
    edges += [(("s0", eid), ("p", r), ("b", 0, s)) for (eid, r, s) in pres.seam_prefix]
    for k in range(copies - 1):
        edges += [(("s", k, eid), ("b", k, r), ("b", k + 1, s)) for (eid, r, s) in pres.seam_block]
    return LabelGraph(vertices, edges)


def reference_periodic_fell_verdict(pres: gf.PeriodicGraph, unroll_bound: int = 3) -> gf.FellVerdict:
    """The periodic verdict on label dicts: the label chain of sets of
    single-threaded block labels per copy, and the quotient walk graph
    on the non-single-threaded block vertices."""
    copies = unroll_bound + 1
    unrolled = reference_unroll(pres, copies)
    cycle = reference_cycle(unrolled)
    source = next((v for v in unrolled.vertices if not unrolled.in_edges[v]), None)
    validation = gf.GraphValidation(source is None, cycle is None, cycle, source)
    if cycle is not None:
        return gf.FellVerdict("NOT_PRINCIPAL", cycle=cycle, note="cycle makes the path groupoid non-principal",
                              validation=validation)
    counts = reference_path_counts(unrolled)
    st = {v for v, row in counts.items() if max(row.values()) <= 1}
    labels = [frozenset(v for v in pres.block.vertices if ("b", k, v) in st) for k in range(copies)]
    if any(labels[k] != labels[k + 1] for k in range(copies - 1)):
        return gf.FellVerdict("UNDECIDED", undecided_depth=unroll_bound, validation=validation,
                              note="single-threaded labels did not stabilize within the unroll bound")
    stable = labels[0]
    walk = LabelGraph(
        [v for v in pres.block.vertices if v not in stable],
        [((tag, e), r, s) for tag, edges in (("b", pres.block.edges), ("s", pres.seam_block))
         for e, r, s in edges if r not in stable and s not in stable],
    )
    walk_cycle = reference_cycle(walk)
    if walk_cycle is None:
        return gf.FellVerdict("FELL", single_threaded=stable, validation=validation,
                              note="every infinite path eventually passes through a single-threaded vertex")
    probe = ("b", 0, walk.range_of[walk_cycle[0]])
    _, path1, path2 = reference_two_parallel_paths(unrolled, probe, counts)
    return gf.FellVerdict("NOT_FELL", witness_vertex=probe, witness_paths=(path1, path2), single_threaded=stable,
                          validation=validation, note="infinite path avoids single-threaded vertices forever")


def ladder(rungs: int, with_f2: bool = True) -> gf.PeriodicGraph:
    """``rungs`` copies of the two-thread ladder chained inside one block,
    ``f2`` left out when ``with_f2`` is false."""
    vertices, edges = [], []
    for i in range(rungs):
        vertices += [f"v{i}", f"t{i}", f"c{i}"]
        edges += [(f"f1_{i}", f"v{i}", f"t{i}"), (f"g{i}", f"t{i}", f"c{i}")]
        if with_f2:
            edges.append((f"f2_{i}", f"v{i}", f"t{i}"))
        if i + 1 < rungs:
            edges.append((f"h{i}", f"v{i}", f"v{i + 1}"))
    return gf.PeriodicGraph(gf.DirectedGraph(vertices, edges), seam_block=[("chain", f"v{rungs - 1}", "v0")])


def seam_counterexample() -> gf.PeriodicGraph:
    """Block vertices v and w and no block edges; seam edges a and b from
    w to v and c from v to w.  v has the parallel seam paths a and b to
    the next copy's w, so the truth is NOT_FELL."""
    return gf.PeriodicGraph(
        gf.DirectedGraph(("v", "w"), ()), seam_block=[("a", "v", "w"), ("b", "v", "w"), ("c", "w", "v")]
    )


def product(left: fs.FinSpace, right: fs.FinSpace) -> fs.FinSpace:
    """Product space; minimal opens are U_y x U_z, with (y, z) at index
    i|right| + j for y and z at i and j."""
    pts = [(y, z) for y in left.points for z in right.points]
    width = len(right)
    return fs.FinSpace(pts, [sum(v << i * width for i in fs._iter_bits(u)) for u in left._mo for v in right._mo])


# -- the bit walks as each module wrote its own ---------------------------------


def reference_image(targets, mask: int) -> int:
    """``finspace._image``: the image of ``mask`` under a map given by
    the target index of each bit."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << targets[low.bit_length() - 1]
        mask ^= low
    return out


def reference_final_masks(dom: fs.FinSpace, targets, size: int) -> list[int]:
    """``finspace._final_masks`` with its own fixpoint loop per row."""
    reach = [1 << k for k in range(size)]
    for i, u in enumerate(dom._mo):
        reach[targets[i]] |= reference_image(targets, u)
    masks = []
    for mask in reach:
        done = 0
        while mask != done:
            new, done = mask & ~done, mask
            for j in fs._iter_bits(new):
                mask |= reach[j]
        masks.append(mask)
    return masks


def reference_quotient_space(space: fs.FinSpace, partition) -> tuple:
    """``finspace.quotient_space`` as it checked a partition through a
    set of seen points, sorted the blocks by their least point and built
    the projection through the label-checking ``SpaceMap`` constructor,
    verbatim."""
    blocks = [frozenset(b) for b in partition]
    seen: set = set()
    for b in blocks:
        if not b:
            raise fs.InvalidSpace("empty partition block")
        for p in b:
            if p not in space:
                raise fs.InvalidSpace(f"partition mentions unknown point {p!r}")
            if p in seen:
                raise fs.InvalidSpace(f"partition blocks overlap at {p!r}")
            seen.add(p)
    if len(seen) != len(space.points):
        raise fs.InvalidSpace("partition does not cover the space")
    blocks.sort(key=lambda b: min(space.index(p) for p in b))
    block_of = {p: b for b in blocks for p in b}
    block_idx = {b: k for k, b in enumerate(blocks)}
    masks = fs._final_masks(space, [block_idx[block_of[p]] for p in space.points], len(blocks))
    quotient = fs.FinSpace(blocks, masks)
    return quotient, fs.SpaceMap(space, quotient, block_of)


def reference_topology_relations(n: int) -> tuple:
    """``corpus._topology_relations`` with its own transitivity filter."""
    if n == 0:
        return ((),)
    out = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for choice in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (choice >> k) & 1:
                rows[i] |= 1 << j
        ok = True
        for i in range(n):
            m = rows[i]
            acc = m
            for j in range(n):
                if (m >> j) & 1:
                    acc |= rows[j]
            if acc != m:
                ok = False
                break
        if ok:
            out.append(tuple(rows))
    return tuple(out)


def reference_random_space(seed: int, max_points: int) -> fs.FinSpace:
    """``corpus.random_space`` with its own closure loop."""
    rng = random.Random(seed)
    n = rng.randint(1, max_points)
    rows = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                rows[i] |= 1 << j
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if (rows[i] >> j) & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return fs.FinSpace(range(n), rows)


def reference_space_fault(points, masks):
    """The checks of ``FinSpace(points, masks)`` with the coherence walk
    written out inline: the ``InvalidSpace`` they raise, or None."""
    points = tuple(points)
    if len(set(points)) != len(points):
        return fs.InvalidSpace("duplicate points")
    if len(masks) != len(points):
        return fs.InvalidSpace("one mask is needed per point")
    mo = tuple(masks)
    for i, m in enumerate(mo):
        if not (m >> i) & 1:
            return fs.InvalidSpace(f"point {points[i]!r} missing from its own minimal open")
        if m >> len(mo):
            return fs.InvalidSpace(f"minimal open of {points[i]!r} mentions unknown points")
        rest = m
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            if mo[j] & ~m:
                return fs.InvalidSpace(
                    f"minimal opens incoherent: {points[j]!r} lies in "
                    f"U_{points[i]!r} but U_{points[j]!r} does not"
                )
            rest ^= low
    return None


def reference_coherence_loop(points: tuple, mo: tuple) -> None:
    """The coherence loop of ``FinSpace.__init__`` as it first ran,
    verbatim but for ``self.points``, which is ``points`` here: raises
    the ``InvalidSpace`` it raised, or returns."""
    for i, m in enumerate(mo):
        if not (m >> i) & 1:
            raise fs.InvalidSpace(f"point {points[i]!r} missing from its own minimal open")
        if m >> len(mo):
            raise fs.InvalidSpace(f"minimal open of {points[i]!r} mentions unknown points")
        if fs._union(mo, m) != m:
            j = next(j for j in fs._iter_bits(m) if mo[j] & ~m)
            raise fs.InvalidSpace(
                f"minimal opens incoherent: {points[j]!r} lies in "
                f"U_{points[i]!r} but U_{points[j]!r} does not"
            )


def reference_product_masks(unit_mo: Mapping[int, int], range_idx: np.ndarray, source_idx: np.ndarray) -> list[int]:
    """``groupoid.product_masks`` as it built the masks by range and by
    source with a loop on every call, verbatim."""
    rng, src = range_idx.tolist(), source_idx.tolist()
    first, second = [0] * len(rng), [0] * len(rng)
    for k, (a, b) in enumerate(zip(rng, src)):
        first[a] |= 1 << k
        second[b] |= 1 << k
    rows = {u: fs._union(first, mask) for u, mask in unit_mo.items()}
    cols = {u: fs._union(second, mask) for u, mask in unit_mo.items()}
    return [rows[a] & cols[b] for a, b in zip(rng, src)]


def reference_base_masks(relation: gp.RelationGroupoid) -> dict:
    """``RelationGroupoid.base_masks``: Y's minimal opens carried to the
    unit numbers by ``_image``."""
    y = relation.base
    units = np.flatnonzero(relation.unit_mask).tolist()
    unit_of = {y._index[p]: u for p, u in zip(relation.base_labels, units)}
    return {u: reference_image(unit_of, y._mo[y._index[p]]) for p, u in zip(relation.base_labels, units)}


def reference_orbit_base(groupoid: gp.FinGroupoid) -> fs.FinSpace:
    """The space on the units that ``orbit_space`` quotients, relabelled
    by the unit positions ``cumsum - 1``."""
    labels, masks = gp._unit_base(groupoid)
    position = (np.cumsum(groupoid.unit_mask) - 1).tolist()
    return fs.FinSpace(labels, [reference_image(position, m) for m in masks.values()])


def reference_cover_resolution(space: fs.FinSpace, masks) -> tuple:
    """The points and minimal opens of the disjoint union of the cover
    elements ``masks``, as ``hausdorff_cover_resolution`` built them."""
    pts = []
    mo = []
    for k, mask in enumerate(masks):
        position = {i: len(pts) + r for r, i in enumerate(fs._iter_bits(mask))}
        pts += [(k, space.points[i]) for i in position]
        mo += [reference_image(position, space._mo[i]) for i in position]
    return pts, mo


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
    as a ``two_cocycle/1`` document; a table that leaves out a composable
    pair raises the reader's ``CocycleError``."""
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


def zeta(n: int, k: int) -> complex:
    return ca._roots(n)[k % n]


def reference_reduced_norm(f: ca.AlgebraElement) -> float:
    """The reduced norm as a loop over the orbits: one induced
    representation at each orbit's first unit and one 2-norm of it."""
    best = 0.0
    for orbit in f.groupoid.orbits():
        matrix = ca.induced_rep(orbit[0], f).matrix
        best = max(best, float(np.linalg.norm(matrix, 2)) if matrix.size else 0.0)
    return best


def reference_random_element(rng: random.Random, groupoid: gp.FinGroupoid, sigma: tw.TwoCocycle,
                             density: float = 0.7) -> np.ndarray:
    """The values of ``random_element`` as it drew them with ``rng.uniform``."""
    values = [
        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) if rng.random() < density else 0j
        for _ in groupoid.morphisms
    ]
    return np.array(values, dtype=complex)


def reference_representation_dev(sigma: tw.TwoCocycle, rng: random.Random) -> float:
    """``axiom_battery``'s representation deviation from its per-unit loop:
    the battery's four rounds of draws, and in each four induced
    representations at every unit."""
    groupoid = sigma.groupoid
    units = [m for m in groupoid.morphisms if m in groupoid.units]
    rep = 0.0
    for _ in range(4):
        f, g, h = (ca.random_element(rng, groupoid, sigma) for _ in range(3))
        fg, fstar = ca.convolve(f, g), ca.involute(f)
        for u in units:
            mf, mg = ca.induced_rep(u, f).matrix, ca.induced_rep(u, g).matrix
            rep = max(
                rep,
                float(np.max(np.abs(ca.induced_rep(u, fg).matrix - mf @ mg))),
                float(np.max(np.abs(ca.induced_rep(u, fstar).matrix - mf.conj().T))),
            )
    return rep


def reference_unitary_equiv_dev(report: ca.DoubledModelReport, rng: random.Random) -> float:
    """``build_doubled_model``'s unitary-equivalence deviation from its
    per-level loop, on the report's relation groupoid and map, after the
    five draws of the norm check from ``rng``."""
    levels, sheets, relation = report.levels, report.sheets, report.relation
    sigma = report.decomposition.sigma
    image = {((t, i), (_, j)): ((i, j, t), 1.0) for ((t, i), (_, j)) in relation.morphisms}
    target = ca.matrix_unit_groupoid({t: range(1, sheets + 1) for t in range(levels)})
    check = reference_check_star_hom(ca.structure_constants(sigma), ca.structure_constants(target), image)
    rho = reference_linear_map(relation, target, image)
    for _ in range(5):
        ca.random_element(rng, relation, sigma)
    uni_dev = check.multiplicative_dev
    for _ in range(3):
        f = ca.random_element(rng, relation, sigma)
        rho_f = rho(f)
        for t in range(levels):
            for i in range(1, sheets + 1):
                ind = ca.induced_rep(((t, i), (t, i)), f)
                if t == levels - 1 and len(ind.basis) != 1:
                    raise AssertionError("unglued level has a fiber of size > 1")
                level = ca.induced_rep((i, i, t), rho_f)
                pos = [level.basis.index(image[a][0]) for a in ind.basis]
                dev = np.abs(ind.matrix - level.matrix[np.ix_(pos, pos)]).max()
                uni_dev = max(uni_dev, float(dev))
    return uni_dev


# -- the *-homomorphism checker on label dictionaries ------------------------------


def reference_image_arrays(source: gp.FinGroupoid, target: gp.FinGroupoid, image) -> tuple:
    """The target number and coefficient of each source morphism under
    e_a -> c e_t, ``image[a] = (t, c)``; a last slot holds the zero image."""
    t_of = np.full(len(source.morphisms) + 1, -1, dtype=np.int64)
    c_of = np.zeros(len(source.morphisms) + 1, dtype=complex)
    for a, (t, c) in image.items():
        t_of[source.index[a]], c_of[source.index[a]] = target.index[t], c
    return t_of, c_of


def reference_linear_map(source: gp.FinGroupoid, target: tw.TwoCocycle, image):
    """The linear map e_a -> c e_t, for ``image[a] = (t, c)``, from the
    functions on ``source`` to the algebra twisted by ``target``, as a
    function of elements; morphisms missing from ``image`` map to 0."""
    t_of, c_of = reference_image_arrays(source, target.groupoid, image)
    mapped = np.flatnonzero(t_of[:-1] >= 0)

    def apply(f: ca.AlgebraElement) -> ca.AlgebraElement:
        vec = np.zeros(len(target.groupoid.morphisms), dtype=complex)
        np.add.at(vec, t_of[mapped], ca._mul(f.vec[mapped], c_of[mapped]))
        return ca._element(target, vec)

    return apply


def reference_check_star_hom(source: tuple, target: tuple, image, basis=None) -> ca.StarHomCheck:
    """Check that the linear map e_a -> c e_t, for ``image[a] = (t, c)``,
    is a *-homomorphism; source morphisms missing from ``image`` map to 0.

    ``source`` and ``target`` are ``structure_constants`` triples.  By
    bilinearity every ordered pair of ``basis`` elements (default: every
    source morphism) decides multiplicativity, so the two sides' product
    tables are compared on all of them at once.  The witness is the
    first pair in basis order with the largest deviation, None when none
    deviates.  ``bijective`` says the basis images are nonzero multiples
    of distinct target basis elements, which makes the map bijective
    whenever the caller's target has the same dimension.
    """
    sg, s_phase, s_star = source
    tg, t_phase, t_star = target
    # index -1 reads the zero image
    t_of, c_of = reference_image_arrays(sg, tg, image)
    bas = np.array([sg.index[a] for a in (sg.morphisms if basis is None else basis)], dtype=np.int64)
    t, c = t_of[bas], c_of[bas]
    # e_a e_b = phase e_ab maps to phase c_ab e_t(ab); pair id -1 reads the padding, zero
    pid = dense_pair_id(sg)[np.ix_(bas, bas)]
    ab = np.append(sg.pairs[2], -1)[pid]
    lhs_key, lhs = t_of[ab], np.append(s_phase, 0)[pid] * c_of[ab]
    # (c_a e_t(a)) (c_b e_t(b)) = phase c_a c_b e_t(a)t(b)
    tid = np.pad(dense_pair_id(tg), (0, 1), constant_values=-1)[np.ix_(t, t)]
    rhs_key = np.append(tg.pairs[2], -1)[tid]
    rhs = np.append(t_phase, 0)[tid] * c[:, None] * c[None, :]
    dev = ca._deviation(lhs_key, lhs, rhs_key, rhs)
    mult_dev = float(dev.max(initial=0.0))
    witness = None
    if mult_dev > 0:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        witness = (sg.morphisms[bas[i]], sg.morphisms[bas[j]])
    inv = sg.inverse_idx[bas]
    star_dev = ca._deviation(
        t_of[inv], s_star[bas] * c_of[inv],
        np.append(tg.inverse_idx, -1)[t], c.conj() * np.append(t_star, 0)[t],
    )
    bijective = bool((t >= 0).all() and (c != 0).all()) and len(set(t.tolist())) == len(t)
    return ca.StarHomCheck(mult_dev, witness, float(star_dev.max(initial=0.0)), bijective)


# -- the verifiers as they ran before each fact was read once -------------------


def reference_scan_images(f: fs.SpaceMap) -> tuple:
    """``finspace.scan_images``: (continuous, open_map, locally_injective,
    first_not_open) from one pass over the images of the minimal opens."""
    return reference_scan_masks(f.dom._mo, f.cod._mo, f.targets)


def reference_is_open(mo: Sequence[int], mask: int) -> bool:
    """Whether ``mask`` contains the minimal open of each of its points.
    Once U_j is found inside, the points of U_j need no test of their
    own (their minimal opens lie in U_j), so they are dropped."""
    todo = mask
    while todo:
        u = mo[(todo & -todo).bit_length() - 1]
        if u & ~mask:
            return False
        todo &= ~u
    return True


def reference_scan_masks(dom_mo, cod_mo, targets) -> tuple:
    """``finspace._scan_masks`` with its first-not-open channel, each
    image tested by the down-set walk ``reference_is_open``."""
    continuous = locally_injective = True
    first_not_open = None
    bits = [1 << t for t in targets]
    for i, u in enumerate(dom_mo):
        img = fs._union(bits, u)
        if img & ~cod_mo[targets[i]]:
            continuous = False
        if img.bit_count() != u.bit_count():
            locally_injective = False
        if first_not_open is None and not reference_is_open(cod_mo, img):
            first_not_open = i
    return continuous, first_not_open is None, locally_injective, first_not_open


def reference_classify_map(f: fs.SpaceMap) -> fs.MapProperties:
    """``finspace.classify_map`` on ``reference_scan_images``."""
    continuous, open_map, locally_injective, _ = reference_scan_images(f)
    local_homeomorphism = continuous and open_map and locally_injective
    return fs.MapProperties(continuous, open_map, f.is_surjective(), fs.is_quotient_map(f), local_homeomorphism)


def reference_fell_check(groupoid: gp.FinGroupoid) -> gp.FellCheck:
    """``groupoid.fell_check`` as a scan of the identity map of the
    morphisms from the groupoid's topology to R(q)'s."""
    if not gp.groupoid_properties(groupoid).principal:
        raise gp.NonPrincipalError("fell_check requires a principal groupoid")
    rq = gp.product_masks(gp._unit_base(groupoid)[1], groupoid.layout)
    mo = groupoid.topology._mo
    continuous, open_map, _, first = reference_scan_masks(mo, rq, range(len(mo)))
    witness = None if first is None else groupoid.topology.unbits(mo[first])
    return gp.FellCheck(continuous and open_map, open_map, continuous, witness)


def reference_principal_witness(diff: tw.TwoCocycle) -> tw.OneCochain | None:
    """``twist._principal_witness`` with the n x n table of morphisms by
    range and source."""
    g = diff.groupoid
    count = len(g.morphisms)
    by_ends = np.full((count, count), -1, dtype=np.int64)
    by_ends[g.range_idx, g.source_idx] = np.arange(count)
    to_base = by_ends[g.source_idx, g.orbit_idx[g.source_idx]]
    values = diff.values[dense_pair_id(g)[np.arange(count), to_base]]
    b = tw.OneCochain(g, diff.n, dict(zip(g.morphisms, values.tolist())))
    if tw.coboundary_twist(b) == diff:
        return b
    return None


def reference_equivariant_suite(groupoid: gp.FinGroupoid, sigma: tw.TwoCocycle, *, conjugate: bool = True,
                                rng: random.Random | None = None) -> ca.EquivariantSuiteReport:
    """``calgebra.equivariant_suite`` with the representation check as a
    loop over the units sorted by ``str``, two ``induced_rep`` calls
    each."""
    if not gp.groupoid_properties(groupoid).principal:
        raise gp.NonPrincipalError("equivariant suite requires a principal groupoid")
    n = sigma.n
    rng = rng or random.Random(4)
    ext = tw.extension_groupoid(groupoid, sigma)
    triv_ext = tw.TwoCocycle.trivial(ext, 1)
    target = sigma.conjugate() if conjugate else sigma
    m_count = len(groupoid.morphisms)
    roots = np.array(ca._roots(n))

    def lift(f):
        return ca._element(triv_ext, ca._mul(roots[:, None], f.vec).reshape(-1))

    equiv_dev = 0.0

    def slice_of(full):
        nonlocal equiv_dev
        table = full.reshape(n, m_count)
        equiv_dev = max(equiv_dev, float(np.abs(table - ca._mul(roots[:, None], table[0])).max(initial=0.0)))
        return ca._element(target, table[0].copy())

    z_of, m_of = np.divmod(np.arange(len(ext.morphisms)), m_count)
    pa, pb, pc = ext.pairs
    products = np.zeros((len(groupoid.pairs[0]), n), dtype=complex)
    cells = (dense_pair_id(groupoid)[m_of[pa], m_of[pb]], z_of[pc])
    np.add.at(products, cells, roots[z_of[pa]] * roots[z_of[pb]])
    products *= 1.0 / n
    stars = np.zeros((len(groupoid.morphisms), n), dtype=complex)
    stars[m_of, z_of[ext.inverse_idx]] = roots[z_of].conj()
    for table in (products, stars):
        equiv_dev = max(equiv_dev, float(np.abs(table - roots * table[:, :1]).max(initial=0.0)))
    check = reference_check_star_hom(
        (groupoid, products[:, 0], stars[:, 0]), ca.structure_constants(target),
        {m: (m, 1.0) for m in groupoid.morphisms},
    )
    for _ in range(3):
        slice_of(lift(ca.random_element(rng, groupoid, target)).vec)
    mult_dev = check.multiplicative_dev
    for _ in range(3):
        f, g = ca.random_element(rng, groupoid, target), ca.random_element(rng, groupoid, target)
        prod = slice_of(ca.convolve(lift(f), lift(g)).vec * (1.0 / n))
        mult_dev = max(mult_dev, ca.max_deviation(prod, ca.convolve(f, g)))
    f = ca.random_element(rng, groupoid, target)
    star_dev = max(check.star_dev, ca.max_deviation(slice_of(ca.involute(lift(f)).vec), ca.involute(f)))
    rep_dev = check.multiplicative_dev
    f = ca.random_element(rng, groupoid, target)
    a = lift(f)
    for u in sorted(groupoid.units, key=str):
        ind = ca.induced_rep(u, f)
        d = len(ind.basis)
        rows = ca.induced_rep((0, u), a).matrix.reshape(n, d, n, d)[0]
        lmat = ca._mul(rows, roots[:, None]).sum(axis=1) * (1.0 / n)
        rep_dev = max(rep_dev, float(np.abs(lmat - ind.matrix).max(initial=0.0)))
    return ca.EquivariantSuiteReport(
        order=n, conjugated=conjugate, rho_bijective=check.bijective, equivariance_dev=equiv_dev,
        rho_multiplicative_dev=mult_dev, rho_star_dev=star_dev, rep_equivalence_dev=rep_dev,
        mismatch_witness=check.witness if check.multiplicative_dev > ca.STRUCTURAL_TOL else None,
    )


def reference_kernel_norm_dev(report: ca.CoverModelReport, rng: random.Random) -> float:
    """``build_cover_model``'s kernel norm deviation from its loop that
    adds -f(star) e_star to each random f, after the model's earlier
    draws from ``rng``: two axiom batteries of twelve elements and nine
    elements of the doubled relation's algebra."""
    relation, sigma, kernel = report.doubled.relation, report.sigma, report.kernel_algebra
    for g, s, count in ((report.algebra.groupoid, report.algebra.sigma, 12), (relation, sigma, 9),
                        (kernel.groupoid, kernel.sigma, 12)):
        for _ in range(count):
            ca.random_element(rng, g, s)
    star_unit = ((report.doubled.star, 0), (report.doubled.star, 0))
    phi = {
        ((s, i), (s2, j)): ((i, j, s), 1.0)
        for ((s, i), (s2, j)) in relation.morphisms
        if ((s, i), (s2, j)) != star_unit
    }
    phi_of = reference_linear_map(relation, kernel.sigma, phi)
    norm_dev = 0.0
    for _ in range(4):
        f = ca.random_element(rng, relation, sigma)
        f = f + ca.AlgebraElement.char(relation, sigma, star_unit, -f(star_unit))
        if f(star_unit):
            raise AssertionError("element left the character's kernel")
        norm_dev = max(norm_dev, abs(ca.reduced_norm(f) - ca.reduced_norm(phi_of(f))))
    return norm_dev
