import contextlib
import io
import json
import random

import pytest

from groupoidlab import graphfell as gf
from groupoidlab import serialize
from groupoidlab.cli import main
from helpers import (
    label_relations,
    ladder,
    random_dag,
    reference_cycle,
    reference_path_counts,
    reference_periodic_fell_verdict,
    reference_two_parallel_paths,
    seam_counterexample,
)


def brute_force_path_sets(graph: gf.DirectedGraph):
    """All paths (as edge tuples) keyed by (range, source), by DFS."""
    paths, rel = {}, label_relations(graph)
    for v in graph.vertices:
        paths.setdefault((v, v), set()).add(())

    def extend(v, edges_so_far, source):
        for eid in rel.in_edges[source]:
            w = rel.source_of[eid]
            p = edges_so_far + (eid,)
            paths.setdefault((v, w), set()).add(p)
            extend(v, p, w)

    for v in graph.vertices:
        extend(v, (), v)
    return paths


# -- validation ---------------------------------------------------------------


def test_loop_detected():
    g = gf.DirectedGraph(("v",), [("loop", "v", "v")])
    val = gf.validate_graph(g)
    assert not val.acyclic
    assert val.cycle_witness == ("loop",)


def test_parallel_edges_acyclic_but_sourced():
    g = gf.DirectedGraph(("v", "w"), [("e1", "v", "w"), ("e2", "v", "w")])
    val = gf.validate_graph(g)
    assert val.acyclic
    assert not val.no_sources  # w receives nothing
    assert val.source_witness == "w"


def test_a_source_labelled_none_is_a_source():
    val = gf.validate_graph(gf.DirectedGraph((None, "a"), [("e", "a", None)]))
    assert not val.no_sources and val.source_witness is None
    assert val.as_dict()["source_witness"] == "None"


def test_cycle_witness_is_genuine():
    rng = random.Random(0)
    for _ in range(40):
        n = rng.randint(2, 6)
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for k in range(rng.randint(1, 10)):
            edges.append((f"e{k}", rng.choice(vertices), rng.choice(vertices)))
        g = gf.DirectedGraph(vertices, edges)
        val = gf.validate_graph(g)
        if val.cycle_witness is not None:
            cyc, rel = val.cycle_witness, label_relations(g)
            # consecutive edges compose and the ends close up
            for a, b in zip(cyc, cyc[1:]):
                assert rel.source_of[a] == rel.range_of[b]
            assert rel.range_of[cyc[0]] == rel.source_of[cyc[-1]]


def test_dangling_edge_rejected():
    with pytest.raises(gf.GraphError):
        gf.DirectedGraph(("v",), [("e", "v", "nowhere")])


def test_unrolled_ladder_valid():
    unrolled = gf.two_thread_ladder().unroll(3)
    val = gf.validate_graph(unrolled)
    assert val.acyclic


# -- single-threaded vertices ----------------------------------------------------


def test_parallel_edges_thread_counts():
    g = gf.DirectedGraph(("v", "w"), [("e1", "v", "w"), ("e2", "v", "w")])
    st = gf.single_threaded_vertices(g)
    assert st == frozenset({"w"})


def test_tree_fully_single_threaded():
    # edges oriented toward the root: every path is unique
    g = gf.DirectedGraph(
        ("r", "a", "b", "c", "d"),
        [("e1", "r", "a"), ("e2", "r", "b"), ("e3", "a", "c"), ("e4", "a", "d")],
    )
    assert gf.single_threaded_vertices(g) == frozenset(g.vertices)


def test_isolated_vertex_single_threaded():
    g = gf.DirectedGraph(("v",), [])
    assert gf.single_threaded_vertices(g) == frozenset({"v"})


def test_cyclic_input_rejected():
    g = gf.DirectedGraph(("v",), [("loop", "v", "v")])
    with pytest.raises(gf.GraphError) as err:
        gf.single_threaded_vertices(g)
    assert err.value.code == "CYCLIC"


def test_single_threaded_matches_brute_force():
    rng = random.Random(1)
    for _ in range(60):
        vertices, edges = random_dag(rng, rng.randint(1, 8))
        g = gf.DirectedGraph(vertices, edges)
        st = gf.single_threaded_vertices(g)
        paths = brute_force_path_sets(g)
        expected = frozenset(
            v
            for v in vertices
            if all(
                len(paths.get((v, w), ())) <= 1 for w in vertices
            )
        )
        assert st == expected


def test_edge_deletion_monotone():
    rng = random.Random(2)
    for _ in range(40):
        vertices, edges = random_dag(rng, rng.randint(2, 7))
        if not edges:
            continue
        g = gf.DirectedGraph(vertices, edges)
        st = gf.single_threaded_vertices(g)
        smaller = g.delete_edge(rng.choice(edges)[0])
        assert st <= gf.single_threaded_vertices(smaller)


def test_two_parallel_paths_witness():
    g = gf.DirectedGraph(("v", "w"), [("e1", "v", "w"), ("e2", "v", "w")])
    target, p1, p2 = gf.two_parallel_paths(g, "v")
    assert target == "w" and p1 != p2
    assert {p1, p2} == {("e1",), ("e2",)}


def test_two_parallel_paths_deeper_than_recursion_limit():
    # block chain v <- x1 <- ... <- x1500, two parallel edges from y into
    # x1500, and a seam edge v -> v: the witness paths run down the chain
    chain = [f"x{k}" for k in range(1, 1501)]
    edges = [("c1", "v", "x1")] + [(f"c{k + 1}", f"x{k}", f"x{k + 1}") for k in range(1, 1500)]
    edges += [("p", "x1500", "y"), ("q", "x1500", "y")]
    presentation = gf.PeriodicGraph(
        gf.DirectedGraph(["v", *chain, "y"], edges), seam_block=[("seam", "v", "v")]
    )
    verdict = gf.periodic_fell_verdict(presentation, unroll_bound=1)
    assert verdict.verdict == "NOT_FELL"
    p1, p2 = verdict.witness_paths
    assert p1 != p2 and len(p1) > 1500
    unrolled = label_relations(presentation.unroll(2))
    for path in (p1, p2):
        assert all(
            unrolled.range_of[nxt] == unrolled.source_of[prev] for prev, nxt in zip(path, path[1:])
        )
    ends = {(unrolled.range_of[p[0]], unrolled.source_of[p[-1]]) for p in (p1, p2)}
    assert len(ends) == 1 and ends.pop()[0] == verdict.witness_vertex


# -- finite verdicts ------------------------------------------------------------------


def test_finite_acyclic_vacuous_fell():
    g = gf.DirectedGraph(("v", "w"), [("e1", "v", "w")])
    verdict = gf.fell_verdict(g)
    assert verdict.verdict == "FELL" and verdict.vacuous


def test_cyclic_not_principal():
    g = gf.DirectedGraph(("v",), [("loop", "v", "v")])
    verdict = gf.fell_verdict(g)
    assert verdict.verdict == "NOT_PRINCIPAL"
    assert verdict.cycle == ("loop",)


# -- periodic verdicts ------------------------------------------------------------------


def test_two_thread_ladder_not_fell():
    verdict = gf.periodic_fell_verdict(gf.two_thread_ladder())
    assert verdict.verdict == "NOT_FELL"
    assert not verdict.vacuous
    v = verdict.witness_vertex
    assert v[0] == "b" and v[2] == "v"
    ids = {path[0][2] for path in verdict.witness_paths}
    assert ids == {"f1", "f2"}


def test_ladder_with_one_thread_deleted_fell():
    ladder = gf.two_thread_ladder()
    block = ladder.block.delete_edge("f2")
    fixed = gf.PeriodicGraph(block, seam_block=ladder.seam_block)
    # with a single thread every path count is at most one
    counts = gf.path_counts(fixed.unroll(4))
    assert all(c <= 1 for row in counts.values() for c in row.values())
    verdict = gf.periodic_fell_verdict(fixed)
    assert verdict.verdict == "FELL"
    assert not verdict.vacuous


def test_single_tail_fell():
    verdict = gf.periodic_fell_verdict(gf.single_tail())
    assert verdict.verdict == "FELL" and not verdict.vacuous


def test_tree_with_tails_fell():
    verdict = gf.periodic_fell_verdict(gf.tree_with_tails(2))
    assert verdict.verdict == "FELL"
    assert not verdict.vacuous


def test_periodic_cycle_not_principal():
    block = gf.DirectedGraph(("v",), [("loop", "v", "v")])
    pres = gf.PeriodicGraph(block, seam_block=[("chain", "v", "v")])
    verdict = gf.periodic_fell_verdict(pres)
    assert verdict.verdict == "NOT_PRINCIPAL"


def test_not_fell_witness_revalidates():
    verdict = gf.periodic_fell_verdict(gf.two_thread_ladder())
    unrolled = label_relations(gf.two_thread_ladder().unroll(4))
    p1, p2 = verdict.witness_paths
    assert p1 != p2
    for path in (p1, p2):
        for a, b in zip(path, path[1:]):
            assert unrolled.source_of[a] == unrolled.range_of[b]
        assert unrolled.range_of[path[0]] == verdict.witness_vertex
    assert unrolled.source_of[p1[-1]] == unrolled.source_of[p2[-1]]


def test_ladder_sources_are_only_the_tail_stubs():
    # v and t always receive edges; the chain-head stubs are the reported
    # sources (cut-off tails)
    unrolled = gf.two_thread_ladder().unroll(4)
    val = gf.validate_graph(unrolled)
    assert not val.no_sources
    in_edges = label_relations(unrolled).in_edges
    for v in unrolled.vertices:
        if v[0] == "b" and v[2] in ("v", "t") and v[1] < 3:
            assert in_edges[v]
        if v[0] == "b" and v[2] == "c":
            assert not in_edges[v]


def test_seam_validation():
    block = gf.DirectedGraph(("v",), [])
    with pytest.raises(gf.GraphError):
        gf.PeriodicGraph(block, seam_block=[("bad", "v", "zzz")])


def test_duplicate_seam_ids_are_rejected_at_construction():
    block = gf.DirectedGraph(("v", "w"), [("e", "v", "w")])
    prefix = gf.DirectedGraph(("p",), [])
    for seams in (
        dict(seam_block=[("s", "v", "w"), ("s", "w", "v")]),
        dict(prefix=prefix, seam_prefix=[("d", "p", "v"), ("d", "p", "w")]),
    ):
        with pytest.raises(gf.GraphError, match="duplicate (block|prefix) seam id"):
            gf.PeriodicGraph(block, **seams)
    # the two seam lists and the block are numbered apart in an unrolling
    ok = gf.PeriodicGraph(block, prefix=prefix, seam_prefix=[("e", "p", "v")], seam_block=[("e", "v", "w")])
    assert len(ok.unroll(3).edges) == 3 + 1 + 2


def test_duplicate_seam_id_is_an_input_error_at_every_bound(tmp_path):
    doc = serialize.periodic_to_json(gf.two_thread_ladder())
    doc["seam_block"].append(dict(doc["seam_block"][0], range="t"))
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc))
    for bound in ("0", "1", "3"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["graph-fell", str(path), "--unroll-bound", bound])
        report = json.loads(out.getvalue())
        assert code == report["exit_code"] == 1
        assert "duplicate block seam id 'chain'" in report["result"]["error"]


def test_unrolled_graphs_equal_their_checked_construction():
    rng = random.Random(12)
    presentations = [gf.two_thread_ladder(), gf.tree_with_tails(2), gf.single_tail()]
    presentations += [random_presentation(rng) for _ in range(30)]
    for pres in presentations:
        for copies in (1, 2, 5):
            fast = pres.unroll(copies)
            checked = gf.DirectedGraph(fast.vertices, fast.edges)
            for name in ("vertices", "pos", "edges", "range_pos", "source_pos", "incoming"):
                assert getattr(fast, name) == getattr(checked, name), name
            fast_rel, checked_rel = label_relations(fast), label_relations(checked)
            for name in ("range_of", "source_of", "in_edges"):
                assert getattr(fast_rel, name) == getattr(checked_rel, name), name
            eid = fast.edges[rng.randrange(len(fast.edges))][0] if fast.edges else None
            smaller = fast.delete_edge(eid)
            rebuilt = gf.DirectedGraph(fast.vertices, [e for e in fast.edges if e[0] != eid])
            assert (smaller.edges, smaller.incoming) == (rebuilt.edges, rebuilt.incoming)
            assert label_relations(smaller).in_edges == label_relations(rebuilt).in_edges


def test_undecided_when_multiplicity_exceeds_horizon():
    # two parallel seam edges: every copy of "a" has two paths into the
    # next copy, but the last unrolled copy cannot see them, so the label
    # chain never becomes constant and the verdict is honest UNDECIDED
    block = gf.DirectedGraph(("a",), [])
    pres = gf.PeriodicGraph(
        block, seam_block=[("s1", "a", "a"), ("s2", "a", "a")]
    )
    verdict = gf.periodic_fell_verdict(pres)
    assert verdict.verdict == "UNDECIDED"
    assert verdict.undecided_depth == 3


def test_undecided_distance_two_multiplicity():
    # multiplicity only visible two copies ahead: a -> {b,c} -> a; the
    # truncated tail copies look single-threaded, the interior does not,
    # so no constant label chain exists within the default bound
    block = gf.DirectedGraph(("a", "b", "c"), [])
    seams = [
        ("s1", "a", "b"),
        ("s2", "a", "c"),
        ("s3", "b", "a"),
        ("s4", "c", "a"),
    ]
    pres = gf.PeriodicGraph(block, seam_block=seams)
    verdict = gf.periodic_fell_verdict(pres)
    assert verdict.verdict == "UNDECIDED"
    # a larger horizon does not help: the labels keep drifting with the
    # bias, which is exactly why the outcome stays undecided
    assert gf.periodic_fell_verdict(pres, unroll_bound=6).verdict == "UNDECIDED"


def verdict_presentations() -> list:
    """Ladders with and without f2, the single tail, the seam
    counterexample, a looped block, trees with tails and 40 seeded
    random presentations."""
    rng = random.Random(18)
    presentations = [ladder(k, with_f2) for k in (1, 4, 10) for with_f2 in (True, False)]
    presentations += [gf.single_tail(), seam_counterexample()]
    loop = gf.DirectedGraph(("v",), [("loop", "v", "v")])
    presentations.append(gf.PeriodicGraph(loop, seam_block=[("chain", "v", "v")]))
    presentations += [gf.tree_with_tails(d) for d in range(3, 8)]
    presentations += [random_presentation(rng) for _ in range(40)]
    return presentations


def test_periodic_verdicts_match_the_label_dict_verdict():
    seen = set()
    for pres in verdict_presentations():
        for bound in (0, 1, 3, 10, 30):
            verdict, expected = gf.periodic_fell_verdict(pres, bound), reference_periodic_fell_verdict(pres, bound)
            assert verdict.as_dict() == expected.as_dict()
            assert verdict.validation.as_dict() == expected.validation.as_dict()
            seen.add(verdict.verdict)
    assert seen == {"FELL", "NOT_FELL", "NOT_PRINCIPAL", "UNDECIDED"}
    # the known wrong answer of the truncated unrolling stays as it is
    assert gf.periodic_fell_verdict(seam_counterexample(), 0).verdict == "FELL"


def test_every_row_with_a_level_1_has_two_parallel_paths():
    """The premise of ``periodic_fell_verdict``'s witness, which it no
    longer checks: on the acyclic unrollings of the presentations above
    at bounds 0 to 3, every position whose ``path_rows`` entry has a
    level 1 gets from ``two_parallel_paths`` two distinct edge-paths
    with range that vertex and a common source."""
    checked = 0
    for pres in verdict_presentations():
        for bound in range(4):
            unrolled = pres.unroll(bound + 1)
            if not gf.validate_graph(unrolled).acyclic:
                continue
            rel = label_relations(unrolled)
            for v, levels in zip(unrolled.vertices, unrolled.path_rows):
                if len(levels) < 2:
                    continue
                source, *paths = gf.two_parallel_paths(unrolled, v)
                assert paths[0] != paths[1], (v, paths)
                for path in paths:
                    assert path and rel.range_of[path[0]] == v and rel.source_of[path[-1]] == source, (v, path)
                    assert all(rel.source_of[a] == rel.range_of[b] for a, b in zip(path, path[1:])), (v, path)
                checked += 1
    assert checked == 383, checked


# -- parity with the dict construction ----------------------------------------------


def random_multigraph(rng, acyclic):
    """Up to 9 shuffled vertices and parallel edges; acyclic edges point
    from a later vertex of the unshuffled order to an earlier one."""
    n = rng.randint(1, 9)
    vertices, edges = [f"v{i}" for i in range(n)], []
    for k in range(rng.randint(0, 2 * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if acyclic:
            if i == j:
                continue
            i, j = min(i, j), max(i, j)
        edges.append((f"e{k}", vertices[i], vertices[j]))
        if rng.random() < 0.3:
            edges.append((f"e{k}'", vertices[i], vertices[j]))
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return gf.DirectedGraph(vertices, edges)


def random_presentation(rng):
    size = rng.randint(2, 4)
    vertices = [f"u{i}" for i in range(size)]
    edges = [(f"e{i}_{j}", vertices[i], vertices[j]) for i in range(size)
             for j in range(i + 1, size) if rng.random() < 0.4]
    seam = [(f"s{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(1, 3))]
    return gf.PeriodicGraph(gf.DirectedGraph(vertices, edges), seam_block=seam)


def wide_dag(rng, n_vertices, n_edges):
    """Random edges between distinct vertices, each from the later vertex
    to the earlier one, parallel edges allowed."""
    vertices = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for k in range(n_edges):
        i, j = sorted(rng.sample(range(n_vertices), 2))
        edges.append((f"e{k}", vertices[i], vertices[j]))
    return gf.DirectedGraph(vertices, edges)


def parity_graphs():
    rng = random.Random(9)
    ladder_1 = gf.two_thread_ladder()
    presentations = [
        ladder_1,
        gf.PeriodicGraph(ladder_1.block.delete_edge("f2"), seam_block=ladder_1.seam_block),
        gf.tree_with_tails(2),
        gf.single_tail(),
        seam_counterexample(),
    ] + [random_presentation(rng) for _ in range(40)]
    graphs = [p.unroll(copies) for p in presentations for copies in (1, 2, 4)]
    graphs += [random_multigraph(rng, acyclic=True) for _ in range(300)]
    graphs += [random_multigraph(rng, acyclic=False) for _ in range(150)]
    # bitsets wider than a machine word: 100 to 400 vertices and a 10-rung
    # ladder unrolled to 31 copies (930 vertices); and a chain of 1,010
    # vertices with a parallel pair at its far end, walked deeper than
    # the recursion limit
    graphs += [wide_dag(rng, n, m) for n, m in ((100, 500), (200, 1000), (300, 2000), (400, 4000))]
    graphs.append(ladder(10).unroll(31))
    chain = [f"x{k}" for k in range(1010)]
    edges = [(f"c{k}", chain[k], chain[k + 1]) for k in range(1009)] + [("p", chain[-2], chain[-1])]
    graphs.append(gf.DirectedGraph(chain, edges))
    return graphs


def reference_levels(graph, expected):
    """The level bitsets of the dict rows ``expected``, by position."""
    rows = []
    for v in graph.vertices:
        levels = [0] * max(expected[v].values())
        for w, c in expected[v].items():
            for k in range(c):
                levels[k] |= 1 << graph.pos[w]
        rows.append(levels)
    return rows


def test_walk_rows_and_witnesses_match_the_dict_construction():
    acyclic = wide = 0
    for g in parity_graphs():
        rel = label_relations(g)
        cycle = reference_cycle(rel)
        assert gf.validate_graph(g).cycle_witness == cycle
        if cycle is not None:
            with pytest.raises(gf.GraphError) as err:
                gf.path_counts(g)
            assert err.value.code == "CYCLIC"
            continue
        acyclic += 1
        if len(g.vertices) > 64:
            # a wide graph has more paths than a row of 10**9 levels can
            # hold; the small graphs tie its levels to the mapping view
            wide += 1
            for cap in (2, 3):
                expected = reference_levels(g, reference_path_counts(rel, cap))
                assert [row.levels for row in gf.path_counts(g, cap).values()] == expected
        for cap in () if len(g.vertices) > 64 else (1, 2, 3, 10**9):
            expected = reference_path_counts(rel, cap)
            counts = gf.path_counts(g, cap)
            assert {v: dict(row) for v, row in counts.items()} == expected
            for v, row in counts.items():
                assert len(row) == len(expected[v])
                assert all((w in row) == (w in expected[v]) for w in g.vertices)
        expected = reference_path_counts(rel)
        assert gf.single_threaded_vertices(g) == frozenset(
            v for v, row in expected.items() if max(row.values()) <= 1
        )
        for v in g.vertices:
            assert gf.two_parallel_paths(g, v) == reference_two_parallel_paths(rel, v, expected)
    assert acyclic > 300 and wide == 6


def test_path_row_is_a_read_only_mapping():
    g = gf.DirectedGraph(("v", "w", "x"), [("e1", "v", "w"), ("e2", "v", "w")])
    row = gf.path_counts(g)["v"]
    assert row == {"v": 1, "w": 2} and len(row) == 2
    assert "x" not in row and "nowhere" not in row
    with pytest.raises(KeyError):
        row["x"]
    with pytest.raises(TypeError):
        row["v"] = 3
