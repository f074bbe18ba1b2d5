"""Acceptance gate: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime and asserting the stated tolerance and
budget.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import itertools
import random
import time

import numpy as np
import pytest

from groupoidlab import bundled
from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import graphfell as gf
from groupoidlab import groupoid as gp
from groupoidlab import twist as tw
from groupoidlab.corpus import all_partitions, all_topologies, random_space
from helpers import label_relations, random_dag

STRUCT = 1e-12
ACCUM = 1e-9


class Criterion:
    def __init__(self, number, title, budget_seconds=None):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.started = time.perf_counter()

    def finish(self):
        elapsed = time.perf_counter() - self.started
        status = "PASS"
        if self.budget is not None and elapsed >= self.budget:
            status = "FAIL"
        print(f"{status} criterion {self.number} ({self.title}): {elapsed:.2f}s"
              + (f" / budget {self.budget:.0f}s" if self.budget else ""))
        if self.budget is not None:
            assert elapsed < self.budget, f"criterion {self.number} exceeded {self.budget}s"


def test_criterion_1_etale_iff_local_homeomorphism():
    crit = Criterion(1, "etale relation groupoid iff local homeomorphism", 10)
    cases = 0
    for n in range(1, 5):
        for space in all_topologies(n):
            for part in all_partitions(space.points):
                _, psi = fs.quotient_space(space, part)
                assert fs.classify_map(psi).quotient
                relation = gp.build_relation_groupoid(psi)
                etale = gp.groupoid_properties(relation).etale
                assert etale == fs.classify_map(psi).local_homeomorphism
                cases += 1
    assert cases >= 200  # hundreds of quotient maps, exhaustively
    crit.finish()


def test_criterion_2_discrete_local_homeos_give_fell_models():
    crit = Criterion(2, "discrete surjections: principal, etale, open r x s", 5)
    cases = 0
    for n in range(1, 9):
        space = fs.discrete(tuple(range(n)))
        for part in all_partitions(space.points):
            _, psi = fs.quotient_space(space, part)
            assert fs.is_local_homeomorphism(psi) and psi.is_surjective()
            relation = gp.build_relation_groupoid(psi)
            props = gp.groupoid_properties(relation)
            assert props.principal and props.etale
            assert gp.fell_check(relation).is_fell_model
            cases += 1
    assert cases == sum(len(all_partitions(range(n))) for n in range(1, 9))
    crit.finish()


def test_criterion_3_algebra_axiom_battery():
    crit = Criterion(3, "axioms on 200 random twisted relation algebras")
    rng = random.Random(0)
    from groupoidlab.corpus import random_discrete_surjection

    for _ in range(200):
        psi = random_discrete_surjection(rng, rng.randint(1, 12))
        relation = gp.build_relation_groupoid(psi)
        n = rng.randint(1, 8)
        values = {
            m: rng.randrange(n) for m in relation.morphisms if m not in relation.units
        }
        sigma = tw.coboundary_twist(tw.OneCochain(relation, n, values))
        f, g, h = (ca.random_element(rng, relation, sigma) for _ in range(3))

        lhs = ca.convolve(ca.convolve(f, g), h)
        rhs = ca.convolve(f, ca.convolve(g, h))
        assert ca.max_deviation(lhs, rhs) < ACCUM

        assert ca.max_deviation(ca.involute(ca.involute(f)), f) < STRUCT
        assert (
            ca.max_deviation(
                ca.involute(ca.convolve(f, g)),
                ca.convolve(ca.involute(g), ca.involute(f)),
            )
            < STRUCT
        )

        u = relation.orbits()[rng.randrange(len(relation.orbits()))][0]
        mf, mg = ca.induced_rep(u, f).matrix, ca.induced_rep(u, g).matrix
        assert np.max(np.abs(ca.induced_rep(u, ca.convolve(f, g)).matrix - mf @ mg)) < STRUCT
        assert np.max(np.abs(ca.induced_rep(u, ca.involute(f)).matrix - mf.conj().T)) < STRUCT

        norm = ca.reduced_norm(f)
        assert abs(ca.reduced_norm(ca.convolve(ca.involute(f), f)) - norm**2) < ACCUM

        decomposition = ca.block_decompose(relation, sigma)
        assert sum(d * d for d in decomposition.dims) == len(relation.morphisms)
    crit.finish()


def test_criterion_4_doubled_sheet_models():
    crit = Criterion(4, "glued-sheet models for 2<=levels,sheets<=4", 5)
    for levels in (2, 3, 4):
        for sheets in (2, 3, 4):
            report = ca.build_doubled_model(levels, sheets)
            assert report.rho_bijective
            assert report.rho_multiplicative_dev < STRUCT
            assert report.rho_involutive_dev < STRUCT
            assert report.unitary_equiv_dev < STRUCT
            assert report.norm_dev < ACCUM
            expected = tuple([sheets] * (levels - 1) + [1] * sheets)
            assert tuple(sorted(report.block_shape, reverse=True)) == tuple(
                sorted(expected, reverse=True)
            )
    crit.finish()


def test_criterion_5_cover_model_with_certified_twist():
    crit = Criterion(5, "tetrahedron cover mod 3: twist certified, kernel identified", 30)
    data = bundled.tetrahedron_cech(n=3, value=1)
    assert tw.verify_cech(data).valid

    decision = tw.cech_is_coboundary(data)
    assert not decision.is_coboundary
    assert decision.certificate is not None

    # independent oracle: enumerate all 3^12 assignments on ordered pairs;
    # the coboundary equations involve only the six sorted pairs, the
    # remaining six digits are free, and no assignment solves the system
    pairs = list(itertools.combinations((1, 2, 3, 4), 2))
    triples = list(itertools.combinations((1, 2, 3, 4), 3))
    col = {p: i for i, p in enumerate(pairs)}
    total = 3**12
    assignments = np.arange(total, dtype=np.int64)
    digits = [(assignments // (3**k)) % 3 for k in range(12)]
    solved = np.ones(total, dtype=bool)
    for (i, j, k) in triples:
        lhs = (digits[col[(j, k)]] - digits[col[(i, k)]] + digits[col[(i, j)]]) % 3
        solved &= lhs == data.value(i, j, k)
    assert not solved.any()

    report = ca.build_cover_model(data)
    assert report.algebra_check.ok
    assert report.character_dev < STRUCT
    assert report.character_is_induced_dev < STRUCT
    assert report.kernel_iso_bijective
    assert report.kernel_iso_mult_dev < STRUCT
    assert report.kernel_iso_star_dev < STRUCT
    assert report.kernel_norm_dev < ACCUM
    assert report.kernel_check.ok
    assert report.twist_nontrivial_certified
    crit.finish()


def test_criterion_6_equivariant_slice_suite():
    crit = Criterion(6, "extension slice isomorphism and fault detection", 10)
    rng = random.Random(1)
    fault_checked = False
    for points, n in (((1, 2), 2), ((1, 2), 4), ((1, 2, 3), 3), ((1, 2, 3, 4), 6)):
        y = fs.discrete(points)
        x = fs.discrete(("*",))
        relation = gp.build_relation_groupoid(
            fs.SpaceMap(y, x, {p: "*" for p in points})
        )
        values = {
            m: rng.randrange(n) for m in relation.morphisms if m not in relation.units
        }
        sigma = tw.coboundary_twist(tw.OneCochain(relation, n, values))
        report = ca.equivariant_suite(relation, sigma)
        assert report.rho_bijective
        assert report.rho_multiplicative_dev < STRUCT
        assert report.rho_star_dev < STRUCT
        assert report.rep_equivalence_dev < STRUCT
        if n > 2 and any(2 * v % n for v in sigma.table.values()):
            dropped = ca.equivariant_suite(relation, sigma, conjugate=False)
            assert not dropped.ok
            assert dropped.mismatch_witness is not None
            fault_checked = True
    assert fault_checked
    crit.finish()


def test_criterion_7_graph_criterion():
    crit = Criterion(7, "two-thread ladder, deletions, trees, path oracle", 10)
    ladder = gf.two_thread_ladder()
    verdict = gf.periodic_fell_verdict(ladder)
    assert verdict.verdict == "NOT_FELL"
    assert {p[0][2] for p in verdict.witness_paths} == {"f1", "f2"}
    assert verdict.witness_vertex[2] == "v"

    fixed = gf.PeriodicGraph(ladder.block.delete_edge("f2"), seam_block=ladder.seam_block)
    assert gf.periodic_fell_verdict(fixed).verdict == "FELL"

    for depth in (1, 2, 3):
        assert gf.periodic_fell_verdict(gf.tree_with_tails(depth)).verdict == "FELL"

    rng = random.Random(2)
    for _ in range(250):
        vertices, edges = random_dag(rng, rng.randint(1, 8))
        graph = gf.DirectedGraph(vertices, edges)
        counts = gf.path_counts(graph, cap=10**9)
        rel = label_relations(graph)
        # brute-force path enumeration oracle
        expected = set()
        for v in vertices:
            paths = {}

            def walk(current, acc):
                paths.setdefault(current, []).append(tuple(acc))
                for eid in rel.in_edges[current]:
                    acc.append(eid)
                    walk(rel.source_of[eid], acc)
                    acc.pop()

            walk(v, [])
            if all(len(set(ps)) <= 1 for ps in paths.values()):
                expected.add(v)
        assert gf.single_threaded_vertices(graph) == frozenset(expected)
        for v in vertices:
            for w, c in counts[v].items():
                brute = 0

                def count_walk(current):
                    nonlocal brute
                    if current == w:
                        brute += 1
                    for eid in rel.in_edges[current]:
                        count_walk(rel.source_of[eid])

                count_walk(v)
                assert brute == c
    crit.finish()


def test_criterion_8_closed_hausdorff_core():
    crit = Criterion(8, "closed Hausdorff core open and Hausdorff, 500 spaces", 5)
    for seed in range(500):
        space = random_space(seed, 6)
        report = fs.closed_hausdorff_core(space)
        assert report.core_is_open
        assert report.core_is_hausdorff
    crit.finish()
