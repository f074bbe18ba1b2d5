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

Each graph numbers its vertices once (``pos``), and one depth-first
walk per graph, kept on the graph, yields either the first cycle or a
topological order.  Path multiplicities are level bitsets over the
vertex positions: bit p of ``levels[k]`` is set when ``vertices[p]`` is
the source of at least k + 1 paths, so at the default cap 2 a vertex's
row is two ints; those rows are kept on the graph as well.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable, Sequence

from .errors import InternalCheckFailure
from .labels import canonical_label

Vertex = Hashable


class GraphError(ValueError):
    def __init__(self, message, code=None):
        super().__init__(message)
        self.code = code


class DirectedGraph:
    """A finite directed graph with identified edges; ``pos`` numbers the
    vertices in the order given."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple]):
        self._assemble(vertices, edges)
        if len(self.pos) != len(self.vertices):
            raise GraphError("duplicate vertices")
        seen = set()
        for (eid, r, s) in self.edges:
            if eid in seen:
                raise GraphError(f"duplicate edge id {eid!r}")
            seen.add(eid)
            if r not in self.pos or s not in self.pos:
                raise GraphError(f"edge {eid!r} has dangling endpoints", code="DANGLING")
        self._link()

    @classmethod
    def trusted(cls, vertices: Iterable[Vertex], edges: Iterable[tuple]) -> "DirectedGraph":
        """The graph without the checks of the constructor, for vertices
        and edges assembled from graphs and seams that were checked."""
        graph = cls.__new__(cls)
        graph._assemble(vertices, edges)
        graph._link()
        return graph

    def _assemble(self, vertices, edges) -> None:
        self.vertices = tuple(vertices)
        self.pos = {v: p for p, v in enumerate(self.vertices)}
        self.edges = tuple((eid, r, s) for (eid, r, s) in edges)

    def _link(self) -> None:
        self.range_of = {eid: r for (eid, r, s) in self.edges}
        self.source_of = {eid: s for (eid, r, s) in self.edges}
        self.in_edges: dict = {v: [] for v in self.vertices}
        for (eid, r, s) in self.edges:
            self.in_edges[r].append(eid)

    def delete_edge(self, eid) -> "DirectedGraph":
        return DirectedGraph.trusted(self.vertices, [e for e in self.edges if e[0] != eid])

    @cached_property
    def depth_first(self) -> tuple:
        """(cycle, order) from one depth-first walk in path direction, from
        v along incoming edges to their sources, started at each unvisited
        vertex in turn.  Either cycle is the first cycle closed, as edges
        in path order, and order is None; or cycle is None and order is
        the post-order, in which the source of every edge precedes its
        range.  The walk keeps its own stack, so no recursion limit applies.
        """
        state = dict.fromkeys(self.vertices, 0)  # 1 on the stack, 2 finished
        order = []
        for start in self.vertices:
            if state[start]:
                continue
            state[start] = 1
            stack, path = [(start, iter(self.in_edges[start]))], []
            while stack:
                v, it = stack[-1]
                for eid in it:
                    w = self.source_of[eid]
                    if not state[w]:
                        state[w] = 1
                        path.append(eid)
                        stack.append((w, iter(self.in_edges[w])))
                        break
                    if state[w] == 1:
                        # path[k] leads from stack[k] to stack[k + 1]
                        k = next(k for k, (x, _) in enumerate(stack) if x == w)
                        return tuple(path[k:]) + (eid,), None
                else:
                    state[v] = 2
                    order.append(v)
                    stack.pop()
                    if path:
                        path.pop()
        return None, order

    @cached_property
    def path_rows(self) -> dict:
        """``path_counts`` at the default cap 2, computed once per graph and
        read by ``single_threaded_vertices`` and ``two_parallel_paths``."""
        return path_counts(self)

    def __repr__(self):
        return f"<DirectedGraph {len(self.vertices)} vertices, {len(self.edges)} edges>"


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
            "source_witness": None if self.source_witness is None else canonical_label(self.source_witness),
        }


def validate_graph(graph: DirectedGraph) -> GraphValidation:
    """The no-sources condition (every vertex receives an edge), and
    acyclicity with the cycle closed by the graph's depth-first walk
    when one exists.

    Finite graphs are row-finite, and always have a source somewhere
    when acyclic; the flags matter for unrolled presentations.
    """
    source_witness = next((v for v in graph.vertices if not graph.in_edges[v]), None)
    cycle, _ = graph.depth_first
    return GraphValidation(
        no_sources=source_witness is None,
        acyclic=cycle is None,
        cycle_witness=cycle,
        source_witness=source_witness,
    )


class PathRow(Mapping):
    """Read-only row w -> capped number of paths with range v and source
    w, for one vertex v, over level bitsets on the graph's vertex
    positions: bit p of ``levels[k]`` is set when at least k + 1 such
    paths have source ``vertices[p]``.  Levels are nested and the last
    one is nonempty, so a row has one level exactly when every count is
    1.  The row holds the sources of paths into v, in vertex order.  It
    keeps the graph's numbering rather than the graph, so the rows that
    ``DirectedGraph.path_rows`` caches make no reference cycle and are
    freed with the graph.
    """

    __slots__ = ("vertices", "pos", "levels")

    def __init__(self, graph: DirectedGraph, levels: list):
        self.vertices, self.pos, self.levels = graph.vertices, graph.pos, levels

    def __getitem__(self, w) -> int:
        p = self.pos[w]
        count = sum(level >> p & 1 for level in self.levels)
        if not count:
            raise KeyError(w)
        return count

    def __contains__(self, w) -> bool:
        p = self.pos.get(w)
        return p is not None and bool(self.levels[0] >> p & 1)

    def __iter__(self):
        vertices = self.vertices
        return (vertices[p] for p, bit in enumerate(bin(self.levels[0])[:1:-1]) if bit == "1")

    def __len__(self) -> int:
        return self.levels[0].bit_count()


def path_counts(graph: DirectedGraph, cap: int = 2) -> dict:
    """counts[v][w] = number of paths with range v and source w, capped
    at ``cap`` >= 1.

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
    pos, source_of, in_edges = graph.pos, graph.source_of, graph.in_edges
    counts: dict = {}
    for v in order:
        if cap == 2:
            one, two = 1 << pos[v], 0
            for eid in in_edges[v]:
                s = counts[source_of[eid]].levels
                two |= (s[1] if len(s) > 1 else 0) | (one & s[0])
                one |= s[0]
            counts[v] = PathRow(graph, [one, two] if two else [one])
            continue
        levels = [1 << pos[v]]
        for eid in in_edges[v]:
            for x in counts[source_of[eid]].levels:
                # one more path to each vertex of x: carry x up the levels
                for k, level in enumerate(levels):
                    levels[k], x = level | x, level & x
                if x and len(levels) < cap:
                    levels.append(x)
        counts[v] = PathRow(graph, levels)
    return counts


def single_threaded_vertices(graph: DirectedGraph) -> frozenset:
    """Vertices v with at most one path from v to any w: rows with no
    level 1."""
    return frozenset(v for v, row in graph.path_rows.items() if len(row.levels) == 1)


def two_parallel_paths(graph: DirectedGraph, v: Vertex):
    """Two distinct edge-paths with range v and a common source, if any.

    The source is the first vertex with two paths into v in depth-first
    preorder from v along incoming edges; a second walk then collects
    the first two paths to it.  Both walks keep their own stacks, so no
    recursion limit applies."""
    counts = graph.path_rows
    levels = counts[v].levels
    if len(levels) == 1:
        return None
    target, seen, stack = None, {v}, [iter(graph.in_edges[v])]
    while target is None:
        eid = next(stack[-1], None)
        if eid is None:
            stack.pop()
            continue
        w = graph.source_of[eid]
        if w not in seen:
            seen.add(w)
            if levels[1] >> graph.pos[w] & 1:
                target = w
            stack.append(iter(graph.in_edges[w]))
    found, path = [], []
    stack = [iter(graph.in_edges[v])]
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
        elif target in counts[w]:
            path.append(eid)
            stack.append(iter(graph.in_edges[w]))
    if len(found) < 2:  # pragma: no cover - count >= 2 guarantees two paths
        return None
    return target, found[0], found[1]


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
    The ids of each seam list are distinct.  With the checks of the two
    graphs, that makes every unrolling a valid graph, so ``unroll``
    builds it through ``DirectedGraph.trusted``.
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
        pset, bset = set(self.prefix.vertices), set(block.vertices)
        for kind, seams, ranges in (("prefix", self.seam_prefix, pset), ("block", self.seam_block, bset)):
            seen = set()
            for (eid, r, s) in seams:
                if eid in seen:
                    raise GraphError(f"duplicate {kind} seam id {eid!r}")
                seen.add(eid)
                if r not in ranges or s not in bset:
                    raise GraphError(f"{kind} seam {eid!r} has dangling endpoints", code="DANGLING")

    def unroll(self, copies: int) -> DirectedGraph:
        vertices = [("p", v) for v in self.prefix.vertices]
        vertices += [("b", k, v) for k in range(copies) for v in self.block.vertices]
        edges = [(("p", eid), ("p", r), ("p", s)) for (eid, r, s) in self.prefix.edges]
        for k in range(copies):
            edges += [
                (("b", k, eid), ("b", k, r), ("b", k, s)) for (eid, r, s) in self.block.edges
            ]
        edges += [
            (("s0", eid), ("p", r), ("b", 0, s)) for (eid, r, s) in self.seam_prefix
        ]
        for k in range(copies - 1):
            edges += [
                (("s", k, eid), ("b", k, r), ("b", k + 1, s))
                for (eid, r, s) in self.seam_block
            ]
        return DirectedGraph.trusted(vertices, edges)


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
    a common source.
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
    st = single_threaded_vertices(unrolled)
    labels = [
        frozenset(v for v in presentation.block.vertices if ("b", k, v) in st)
        for k in range(copies)
    ]
    # In the infinite graph the outgoing side of every copy looks the same,
    # so the true labels are uniform in the copy index, while truncation
    # can only lose paths and thus only ever adds vertices to the computed
    # single-threaded set as the horizon shrinks.  A trustworthy
    # stabilization therefore requires the whole chain of labels to be
    # constant; a monotone but non-constant chain means the unroll bound
    # was too small to see some multiplicity, and the honest answer is
    # UNDECIDED rather than a verdict read off the biased tail copies.
    if any(labels[k] != labels[k + 1] for k in range(copies - 1)):
        return FellVerdict(
            "UNDECIDED",
            undecided_depth=unroll_bound,
            note="single-threaded labels did not stabilize within the unroll bound",
            validation=validation,
        )
    stable = labels[0]
    # quotient walk graph on non-single-threaded block vertices: block
    # edges and seam edges, one class per block vertex, in the
    # presentation's order so that the witness does not depend on hashing
    walk = DirectedGraph(
        [v for v in presentation.block.vertices if v not in stable],
        [
            ((tag, e), r, s)
            for tag, edges in (("b", presentation.block.edges), ("s", presentation.seam_block))
            for e, r, s in edges
            if r not in stable and s not in stable
        ],
    )
    cycle = validate_graph(walk).cycle_witness
    if cycle is None:
        return FellVerdict(
            "FELL",
            vacuous=False,
            single_threaded=stable,
            note="every infinite path eventually passes through a single-threaded vertex",
            validation=validation,
        )
    probe = ("b", 0, walk.range_of[cycle[0]])
    parallel = two_parallel_paths(unrolled, probe)
    if parallel is None:  # pragma: no cover - non-ST vertices have two paths
        raise InternalCheckFailure("non-single-threaded vertex lacks parallel paths")
    _, path1, path2 = parallel
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
    block = DirectedGraph(
        ("v", "t", "c"),
        [("f1", "v", "t"), ("f2", "v", "t"), ("g", "t", "c")],
    )
    return PeriodicGraph(block, seam_block=[("chain", "v", "v")])


def single_tail() -> PeriodicGraph:
    """A pure infinite tail: one vertex per copy, one seam edge."""
    block = DirectedGraph(("c",), [])
    return PeriodicGraph(block, seam_block=[("tail", "c", "c")])


def tree_with_tails(depth: int = 2) -> PeriodicGraph:
    """A finite binary tree, edges oriented toward the root, with an
    infinite tail glued below each leaf.  All path counts are 1."""
    vertices = []
    edges = []
    leaves = []
    for level in range(depth + 1):
        for i in range(2**level):
            vertices.append(f"n{level}_{i}")
    for level in range(depth):
        for i in range(2**level):
            for side in (0, 1):
                child = f"n{level + 1}_{2 * i + side}"
                edges.append((f"e{level}_{i}_{side}", f"n{level}_{i}", child))
    leaves = [f"n{depth}_{i}" for i in range(2**depth)]
    prefix = DirectedGraph(vertices, edges)
    block = DirectedGraph([f"tail{i}" for i in range(len(leaves))], [])
    seam_prefix = [
        (f"drop{i}", leaf, f"tail{i}") for i, leaf in enumerate(leaves)
    ]
    seam_block = [(f"step{i}", f"tail{i}", f"tail{i}") for i in range(len(leaves))]
    return PeriodicGraph(block, prefix=prefix, seam_prefix=seam_prefix, seam_block=seam_block)
