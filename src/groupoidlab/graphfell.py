"""The graph-level openness criterion for path groupoids.

Conventions: an edge e points from its source s(e) to its range r(e);
a path a = e1 e2 ... ek satisfies r(e_{i+1}) = s(e_i), has range r(e1)
and source s(ek), and vE*w denotes paths with range v and source w.
Infinite paths extend through sources forever, so they exist only in
infinite graphs; finite presentations of eventually periodic infinite
graphs are handled by unrolling.

A vertex v is single-threaded when |vE*w| <= 1 for every w.  The
criterion decided here: the quotient of the infinite-path space by tail
equivalence is a local homeomorphism (and the path groupoid algebra is
of the well-behaved kind) exactly when every infinite path eventually
passes through a single-threaded vertex.  An infinite path avoiding
single-threaded vertices forever is certified by a vertex carrying two
parallel paths; cycles make the path groupoid non-principal and are
reported as such.

Each graph is numbered once, in its constructor: vertex p is
``vertices[p]``, edge e is ``edges[e]``, its range and source are at
positions ``range_pos[e]`` and ``source_pos[e]``, and ``incoming[p]``
lists the edges into vertex p in edge order.  An unrolled periodic graph
is numbered by offsets instead of lookups: with P prefix and B block
vertices, block vertex i of copy k is at position P + kB + i.  One
depth-first walk per graph, kept on the graph, yields either the first
cycle or a topological order of the positions.  Path multiplicities are
level bitsets over the positions: bit p of ``levels[k]`` is set when
vertex p is the source of at least k + 1 paths, so at the default cap 2
a vertex's row is two ints; those rows are kept on the graph as well.
The walk, the counts, the single-threaded sets, both witness searches
and the periodic label chain run on these numbers; labels are read only
to build witnesses and reports.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import InputError
from .labels import canonical_label

Vertex = Hashable


class GraphError(InputError):
    """A graph that the input does not define, or one outside a criterion's scope."""


class DirectedGraph:
    """A finite directed graph with identified edges (id, range, source),
    numbered once as the module describes.  An endpoint names a vertex
    only when it equals the vertex and has its type, so the JSON values
    ``1``, ``1.0`` and ``true`` never name one vertex."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple]):
        self.vertices = tuple(vertices)
        self.pos = {v: p for p, v in enumerate(self.vertices)}
        edges = tuple((eid, r, s) for (eid, r, s) in edges)
        if len(self.pos) != len(self.vertices):
            raise GraphError("duplicate vertices")
        self._number(edges, *_number_edges("edge", edges, self, self))

    @classmethod
    def numbered(cls, vertices: Iterable[Vertex], edges: Iterable[tuple],
                 range_pos: list, source_pos: list) -> "DirectedGraph":
        """The graph whose edges are already numbered, without the checks
        of the constructor: for unrollings and subgraphs of graphs and
        seams that were checked."""
        graph = cls.__new__(cls)
        graph.vertices = tuple(vertices)
        graph._number(tuple(edges), range_pos, source_pos)
        return graph

    def _number(self, edges: tuple, range_pos: list, source_pos: list) -> None:
        self.edges, self.range_pos, self.source_pos = edges, range_pos, source_pos
        self.incoming = [[] for _ in self.vertices]
        for e, p in enumerate(range_pos):
            self.incoming[p].append(e)

    @cached_property
    def pos(self) -> dict:
        """Vertex -> position.  The constructor keeps the one it numbered
        with; a numbered graph builds it when a label is looked up."""
        return {v: p for p, v in enumerate(self.vertices)}

    def delete_edge(self, eid) -> "DirectedGraph":
        keep = [e for e, edge in enumerate(self.edges) if edge[0] != eid]
        pick = lambda seq: [seq[e] for e in keep]
        return DirectedGraph.numbered(self.vertices, pick(self.edges), pick(self.range_pos), pick(self.source_pos))

    @cached_property
    def depth_first(self) -> tuple:
        """(cycle, order) from one depth-first walk in path direction, from
        p along incoming edges to their sources, started at each unvisited
        position in turn.  Either cycle is the first cycle closed, as edge
        numbers in path order, and order is None; or cycle is None and
        order is the post-order of the positions, in which the source of
        every edge precedes its range.  The walk keeps its own stack, so no
        recursion limit applies.
        """
        incoming, source_pos = self.incoming, self.source_pos
        state = [0] * len(self.vertices)  # 1 on the stack, 2 finished
        order = []
        for start in range(len(state)):
            if state[start]:
                continue
            state[start] = 1
            stack, path = [(start, iter(incoming[start]))], []
            while stack:
                v, it = stack[-1]
                for e in it:
                    w = source_pos[e]
                    if not state[w]:
                        state[w] = 1
                        path.append(e)
                        stack.append((w, iter(incoming[w])))
                        break
                    if state[w] == 1:
                        # path[k] leads from stack[k] to stack[k + 1]
                        k = next(k for k, (x, _) in enumerate(stack) if x == w)
                        return tuple(path[k:]) + (e,), None
                else:
                    state[v] = 2
                    order.append(v)
                    stack.pop()
                    if path:
                        path.pop()
        return None, order

    @cached_property
    def path_rows(self) -> list:
        """The levels of ``path_counts`` at the default cap 2, by position,
        computed once per graph and read by ``single_threaded_vertices``,
        ``two_parallel_paths`` and ``periodic_fell_verdict``."""
        return path_counts(self).rows

    def __repr__(self):
        return f"<DirectedGraph {len(self.vertices)} vertices, {len(self.edges)} edges>"


def _number_edges(kind: str, edges: Iterable[tuple], ranges: DirectedGraph, sources: DirectedGraph) -> tuple:
    """(range positions, source positions) of edges (id, range, source)
    whose ranges are vertices of ``ranges`` and sources of ``sources``,
    checked in edge order: an id seen before, and then an endpoint that
    equals no vertex of its own type, raise ``GraphError``."""
    rpos, rvert, spos, svert = ranges.pos, ranges.vertices, sources.pos, sources.vertices
    seen, range_pos, source_pos = set(), [], []
    for (eid, r, s) in edges:
        if eid in seen:
            raise GraphError(f"duplicate {kind} id {eid!r}")
        seen.add(eid)
        p, q = rpos.get(r), spos.get(s)
        if p is None or q is None or type(rvert[p]) is not type(r) or type(svert[q]) is not type(s):
            raise GraphError(f"{kind} {eid!r} has dangling endpoints", code="DANGLING")
        range_pos.append(p)
        source_pos.append(q)
    return range_pos, source_pos


@dataclass(frozen=True)
class GraphValidation:
    no_sources: bool
    acyclic: bool
    cycle_witness: tuple | None
    source_witness: Vertex | None

    def as_dict(self) -> dict:
        return {
            "no_sources": self.no_sources,
            "acyclic": self.acyclic,
            "cycle_witness": None if self.cycle_witness is None else [canonical_label(e) for e in self.cycle_witness],
            "source_witness": None if self.no_sources else canonical_label(self.source_witness),
        }


def validate_graph(graph: DirectedGraph) -> GraphValidation:
    """The no-sources condition (every vertex receives an edge), and
    acyclicity with the cycle closed by the graph's depth-first walk
    when one exists.

    Finite graphs are row-finite, and always have a source somewhere
    when acyclic; the flags matter for unrolled presentations.
    """
    # found by position, so that a source labelled None is still a source
    source = next((k for k, into in enumerate(graph.incoming) if not into), None)
    cycle, _ = graph.depth_first
    return GraphValidation(
        no_sources=source is None,
        acyclic=cycle is None,
        cycle_witness=None if cycle is None else tuple(graph.edges[e][0] for e in cycle),
        source_witness=None if source is None else graph.vertices[source],
    )


class PathRow(Mapping):
    """Read-only row w -> capped number of paths with range v and source
    w, for one vertex v, over level bitsets on the graph's vertex
    positions: bit p of ``levels[k]`` is set when at least k + 1 such
    paths have source ``vertices[p]``.  Levels are nested and the last
    one is nonempty, so a row has one level exactly when every count is
    1.  The row holds the sources of paths into v, in vertex order.
    ``DirectedGraph.path_rows`` caches the levels, not the rows, so a row
    can keep its graph without a reference cycle.
    """

    __slots__ = ("graph", "levels")

    def __init__(self, graph: DirectedGraph, levels: list):
        self.graph, self.levels = graph, levels

    def __getitem__(self, w) -> int:
        p = self.graph.pos[w]
        count = sum(level >> p & 1 for level in self.levels)
        if not count:
            raise KeyError(w)
        return count

    def __contains__(self, w) -> bool:
        p = self.graph.pos.get(w)
        return p is not None and bool(self.levels[0] >> p & 1)

    def __iter__(self):
        vertices = self.graph.vertices
        return (vertices[p] for p, bit in enumerate(bin(self.levels[0])[:1:-1]) if bit == "1")

    def __len__(self) -> int:
        return self.levels[0].bit_count()


class PathCounts(Mapping):
    """Read-only map v -> ``PathRow`` over one graph's level lists by
    vertex position, ``rows``; a row view is made when it is read."""

    __slots__ = ("graph", "rows")

    def __init__(self, graph: DirectedGraph, rows: list):
        self.graph, self.rows = graph, rows

    def __getitem__(self, v) -> PathRow:
        return PathRow(self.graph, self.rows[self.graph.pos[v]])

    def __iter__(self):
        return iter(self.graph.vertices)

    def __len__(self) -> int:
        return len(self.rows)


def path_counts(graph: DirectedGraph, cap: int = 2) -> PathCounts:
    """counts[v][w] = number of paths with range v and source w, capped
    at ``cap`` >= 1, as a ``PathCounts`` over the graph's vertices.

    Rows are ``PathRow`` views over level bitsets on the vertex
    positions, so ``len(counts[v])`` is the popcount of level 0.  They
    are computed in the post-order of the graph's depth-first walk via
    count(v, .) = [v] + sum over incoming edges e of count(s(e), .):
    each level x of a source's row adds one path to the vertices of x,
    carried up the levels and dropped at ``cap``.  Only the distinction
    <= 1 versus >= 2 is needed, and at the default cap 2 a row is two
    ints, ``two |= s.two | (one & s.one)``, then ``one |= s.one``.  A row
    keeps one level per unit of count, so a large cap suits only graphs
    with few paths.
    """
    _, order = graph.depth_first
    if order is None:
        raise GraphError("graph has a cycle", code="CYCLIC")
    incoming, source_pos = graph.incoming, graph.source_pos
    rows: list = [None] * len(order)
    if cap == 2:
        ones, twos = rows[:], rows[:]
        for v in order:
            one, two = 1 << v, 0
            for e in incoming[v]:
                s = source_pos[e]
                two |= twos[s] | (one & ones[s])
                one |= ones[s]
            ones[v], twos[v] = one, two
            rows[v] = [one, two] if two else [one]
    else:
        for v in order:
            levels = [1 << v]
            for e in incoming[v]:
                for x in rows[source_pos[e]]:
                    # one more path to each vertex of x: carry x up the levels
                    for k, level in enumerate(levels):
                        levels[k], x = level | x, level & x
                    if x and len(levels) < cap:
                        levels.append(x)
            rows[v] = levels
    return PathCounts(graph, rows)


def single_threaded_vertices(graph: DirectedGraph) -> frozenset:
    """Vertices v with at most one path from v to any w: rows with no
    level 1."""
    return frozenset(v for v, levels in zip(graph.vertices, graph.path_rows) if len(levels) == 1)


def two_parallel_paths(graph: DirectedGraph, v: Vertex):
    """Two distinct edge-paths with range v and a common source, if any.

    The source is the first vertex with two paths into v in depth-first
    preorder from v along incoming edges; a second walk then collects
    the first two paths to it.  Both walks run on positions and edge
    numbers and keep their own stacks, so no recursion limit applies."""
    rows, incoming, source_pos = graph.path_rows, graph.incoming, graph.source_pos
    p = graph.pos[v]
    levels = rows[p]
    if len(levels) == 1:
        return None
    target, seen, stack = None, {p}, [iter(incoming[p])]
    while target is None:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            continue
        w = source_pos[e]
        if w not in seen:
            seen.add(w)
            if levels[1] >> w & 1:
                target = w
            stack.append(iter(incoming[w]))
    found, path = [], []
    stack = [iter(incoming[p])]
    while stack and len(found) < 2:
        e = next(stack[-1], None)
        if e is None:
            stack.pop()
            if path:
                path.pop()
            continue
        w = source_pos[e]
        if w == target:
            found.append(tuple(path) + (e,))
        elif rows[w][0] >> target & 1:
            path.append(e)
            stack.append(iter(incoming[w]))
    if len(found) < 2:  # pragma: no cover - count >= 2 guarantees two paths
        return None
    ids = lambda path: tuple(graph.edges[e][0] for e in path)
    return graph.vertices[target], ids(found[0]), ids(found[1])


@dataclass(frozen=True)
class FellVerdict:
    verdict: str  # FELL | NOT_FELL | NOT_PRINCIPAL | UNDECIDED
    validation: GraphValidation  # of the graph the verdict was read from; left out of as_dict
    vacuous: bool = False
    undecided_depth: int | None = None
    witness_vertex: Vertex | None = None
    witness_paths: tuple | None = None
    cycle: tuple | None = None
    single_threaded: frozenset = frozenset()
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict
            if self.undecided_depth is None
            else f"{self.verdict}({self.undecided_depth})",
            "vacuous": self.vacuous,
            "witness_vertex": None
            if self.witness_vertex is None
            else canonical_label(self.witness_vertex),
            "witness_paths": None
            if self.witness_paths is None
            else [[canonical_label(e) for e in p] for p in self.witness_paths],
            "cycle": None if self.cycle is None else [canonical_label(e) for e in self.cycle],
            "single_threaded": sorted(map(canonical_label, self.single_threaded)),
            "note": self.note,
        }


def fell_verdict(graph: DirectedGraph) -> FellVerdict:
    """Verdict for a finite graph.

    A cyclic graph makes the path groupoid non-principal.  A finite
    acyclic graph has no infinite paths at all, so the criterion holds
    vacuously; the verdict carries a caveat flag saying so, and honest
    infinite-path analysis belongs to the periodic presentation.
    """
    validation = validate_graph(graph)
    if not validation.acyclic:
        return FellVerdict(
            "NOT_PRINCIPAL",
            cycle=validation.cycle_witness,
            note="cycle makes the path groupoid non-principal",
            validation=validation,
        )
    st = single_threaded_vertices(graph)
    return FellVerdict(
        "FELL",
        vacuous=True,
        single_threaded=st,
        note="finite acyclic graph has no infinite paths; criterion holds vacuously",
        validation=validation,
    )


class PeriodicGraph:
    """Presentation of an eventually periodic infinite graph: a finite
    prefix, a repeating block, and seam edges gluing the prefix to block
    copy 0 and block copy k+1 to copy k uniformly in k.

    Seam edges are (id, range_vertex, source_vertex): the range lives in
    the earlier layer (prefix or copy k) and the source in the later one
    (copy k or copy k+1), so infinite paths run outward through copies.
    The ids of each seam list are distinct, and each endpoint names a
    vertex as an edge endpoint does.  The constructor numbers the seam
    endpoints once, as (range positions, source positions) in
    ``seam_prefix_pos`` and ``seam_block_pos``; with the checks of the two
    graphs, that makes every unrolling a valid graph.
    """

    def __init__(
        self,
        block: DirectedGraph,
        prefix: DirectedGraph | None = None,
        seam_prefix: Sequence[tuple] = (),
        seam_block: Sequence[tuple] = (),
    ):
        self.block = block
        self.prefix = prefix if prefix is not None else DirectedGraph((), ())
        self.seam_prefix = tuple(seam_prefix)
        self.seam_block = tuple(seam_block)
        self.seam_prefix_pos = _number_edges("prefix seam", self.seam_prefix, self.prefix, block)
        self.seam_block_pos = _number_edges("block seam", self.seam_block, block, block)

    def unroll(self, copies: int) -> DirectedGraph:
        """The prefix and ``copies`` block copies glued by their seams.

        Positions are offsets, not lookups: with P prefix and B block
        vertices, prefix vertex i is at position i and block vertex i of
        copy k at P + kB + i.  Edges come in the order prefix, block copy
        0 to copies - 1, prefix seam, then the block seam from copy k + 1
        into copy k for each k.  Labels are built for witnesses and
        reports only: vertices ("p", v) and ("b", k, v), edges ("p", e),
        ("b", k, e), ("s0", e) and ("s", k, e).
        """
        prefix, block = self.prefix, self.block
        P, B = len(prefix.vertices), len(block.vertices)
        vertices = [("p", v) for v in prefix.vertices]
        vertices += [("b", k, v) for k in range(copies) for v in block.vertices]
        edges = [(("p", eid), ("p", r), ("p", s)) for (eid, r, s) in prefix.edges]
        range_pos, source_pos = prefix.range_pos[:], prefix.source_pos[:]
        for k in range(copies):
            edges += [(("b", k, eid), ("b", k, r), ("b", k, s)) for (eid, r, s) in block.edges]
            range_pos += [P + k * B + i for i in block.range_pos]
            source_pos += [P + k * B + i for i in block.source_pos]
        edges += [(("s0", eid), ("p", r), ("b", 0, s)) for (eid, r, s) in self.seam_prefix]
        range_pos += self.seam_prefix_pos[0]
        source_pos += [P + i for i in self.seam_prefix_pos[1]]
        for k in range(copies - 1):
            edges += [(("s", k, eid), ("b", k, r), ("b", k + 1, s)) for (eid, r, s) in self.seam_block]
            range_pos += [P + k * B + i for i in self.seam_block_pos[0]]
            source_pos += [P + (k + 1) * B + i for i in self.seam_block_pos[1]]
        return DirectedGraph.numbered(vertices, edges, range_pos, source_pos)


MAX_UNROLL_BOUND = 1000


def periodic_fell_verdict(presentation: PeriodicGraph, unroll_bound: int = 3) -> FellVerdict:
    """Verdict for the infinite graph of a periodic presentation.

    Unrolls unroll_bound + 1 copies, for a bound from 0 to
    MAX_UNROLL_BOUND, and computes single-threaded labels
    per copy.  If consecutive copies never agree the answer is
    UNDECIDED(unroll_bound); otherwise the labels are shift-stable (this
    is re-asserted up to the bound) and an infinite path avoiding
    single-threaded vertices exists exactly when the non-single-threaded
    quotient graph, seam edges included, has a cycle.  A NOT_FELL verdict
    carries a violating vertex and two parallel paths with that range and
    a common source.  The label chain and the quotient graph run on the
    positions of the unrolling.
    """
    if not 0 <= unroll_bound <= MAX_UNROLL_BOUND:
        raise GraphError(f"unroll bound {unroll_bound} is outside 0..{MAX_UNROLL_BOUND}")
    copies = unroll_bound + 1
    unrolled = presentation.unroll(copies)
    validation = validate_graph(unrolled)
    if not validation.acyclic:
        return FellVerdict(
            "NOT_PRINCIPAL",
            cycle=validation.cycle_witness,
            note="cycle makes the path groupoid non-principal",
            validation=validation,
        )
    block = presentation.block
    P, B = len(presentation.prefix.vertices), len(block.vertices)
    # single[k * B + i]: block vertex i of copy k is single-threaded
    single = [len(levels) == 1 for levels in unrolled.path_rows[P:]]
    # In the infinite graph the outgoing side of every copy looks the same,
    # so the true labels are uniform in the copy index, while truncation
    # can only lose paths and thus only ever adds vertices to the computed
    # single-threaded set as the horizon shrinks.  A trustworthy
    # stabilization therefore requires the whole chain of labels to be
    # constant; a monotone but non-constant chain means the unroll bound
    # was too small to see some multiplicity, and the honest answer is
    # UNDECIDED rather than a verdict read off the biased tail copies.
    if single[: len(single) - B] != single[B:]:
        return FellVerdict(
            "UNDECIDED",
            undecided_depth=unroll_bound,
            note="single-threaded labels did not stabilize within the unroll bound",
            validation=validation,
        )
    stable = frozenset(v for v, st in zip(block.vertices, single) if st)
    # quotient walk graph on the block positions: the block edges and seam
    # edges between non-single-threaded vertices, in the presentation's
    # order so that the witness does not depend on hashing; a
    # single-threaded vertex keeps no edge and cannot change the walk
    edges, range_pos, source_pos = [], [], []
    for tag, triples, ranges, sources in (
        ("b", block.edges, block.range_pos, block.source_pos),
        ("s", presentation.seam_block, *presentation.seam_block_pos),
    ):
        for (e, r, s), p, q in zip(triples, ranges, sources):
            if not (single[p] or single[q]):
                edges.append(((tag, e), r, s))
                range_pos.append(p)
                source_pos.append(q)
    cycle, _ = DirectedGraph.numbered(block.vertices, edges, range_pos, source_pos).depth_first
    if cycle is None:
        return FellVerdict(
            "FELL",
            vacuous=False,
            single_threaded=stable,
            note="every infinite path eventually passes through a single-threaded vertex",
            validation=validation,
        )
    # the probe is block vertex range_pos[cycle[0]] of copy 0, which the
    # quotient graph keeps only when it is not single-threaded: its row
    # has a level 1, so some source has two paths into it, and
    # ``two_parallel_paths`` returns two of them
    probe = unrolled.vertices[P + range_pos[cycle[0]]]
    _, path1, path2 = two_parallel_paths(unrolled, probe)
    return FellVerdict(
        "NOT_FELL",
        witness_vertex=probe,
        witness_paths=(path1, path2),
        single_threaded=stable,
        note="infinite path avoids single-threaded vertices forever",
        validation=validation,
    )


def two_thread_ladder() -> PeriodicGraph:
    """The bundled presentation whose infinite graph has a horizontal
    chain of vertices v, each receiving two parallel edges f1, f2 from a
    tail vertex t fed by a chain-head stub c.  Every v sees two parallel
    paths forever, so the verdict is NOT_FELL with witness (f1, f2).

    The tails are per-copy stubs rather than infinite chains: pairwise
    disjoint infinite tails cannot be drawn from a finite block (the
    number of live tails per copy is unbounded), and merging them into a
    shared chain would reconverge paths and change the single-threaded
    structure.  Cutting the tails leaves every path count between the
    surviving vertices unchanged; the resulting source vertices are
    reported by validation, not fatal.
    """
    block = DirectedGraph(("v", "t", "c"), [("f1", "v", "t"), ("f2", "v", "t"), ("g", "t", "c")])
    return PeriodicGraph(block, seam_block=[("chain", "v", "v")])


def single_tail() -> PeriodicGraph:
    """A pure infinite tail: one vertex per copy, one seam edge."""
    block = DirectedGraph(("c",), [])
    return PeriodicGraph(block, seam_block=[("tail", "c", "c")])


def tree_with_tails(depth: int = 2) -> PeriodicGraph:
    """A finite binary tree, edges oriented toward the root, with an
    infinite tail glued below each leaf.  All path counts are 1."""
    vertices = [f"n{level}_{i}" for level in range(depth + 1) for i in range(2**level)]
    edges = [
        (f"e{level}_{i}_{side}", f"n{level}_{i}", f"n{level + 1}_{2 * i + side}")
        for level in range(depth) for i in range(2**level) for side in (0, 1)
    ]
    leaves = vertices[2**depth - 1:]
    prefix = DirectedGraph(vertices, edges)
    block = DirectedGraph([f"tail{i}" for i in range(len(leaves))], [])
    seam_prefix = [(f"drop{i}", leaf, f"tail{i}") for i, leaf in enumerate(leaves)]
    seam_block = [(f"step{i}", f"tail{i}", f"tail{i}") for i in range(len(leaves))]
    return PeriodicGraph(block, prefix=prefix, seam_prefix=seam_prefix, seam_block=seam_block)
