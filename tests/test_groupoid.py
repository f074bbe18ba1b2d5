import collections
import contextlib
import functools
import io
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import serialize as sz
from groupoidlab import twist as tw
from groupoidlab.bundled import bundled_document
from groupoidlab.cli import main
from groupoidlab.corpus import all_partitions, all_topologies, random_partition, random_space
from groupoidlab.errors import InternalCheckFailure
from helpers import (
    compositions,
    dense_pair_id,
    inverse_map,
    label_groupoid,
    label_space,
    min_open,
    product,
    product_group,
    reference_base_masks,
    reference_coherence_loop,
    reference_fell_check,
    reference_final_masks,
    reference_orbit_base,
    reference_product_masks,
    reference_scan_images,
    subspace,
)


def discrete_3_to_2():
    y = fs.discrete((1, 2, 3))
    x = fs.discrete(("*", "**"))
    return fs.SpaceMap(y, x, {1: "*", 2: "*", 3: "**"})


def chain3_to_sierpinski():
    y = label_space((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
    x = fs.sierpinski()
    return fs.SpaceMap(y, x, {0: "b", 1: "a", 2: "a"})


# -- construction -------------------------------------------------------------


def test_relation_groupoid_pairs():
    r = gp.build_relation_groupoid(discrete_3_to_2())
    assert sorted(r.morphisms) == [(1, 1), (1, 2), (2, 1), (2, 2), (3, 3)]


def test_relation_groupoid_identity_map():
    y = fs.discrete((1, 2))
    r = gp.build_relation_groupoid(fs.identity_map(y))
    assert sorted(r.morphisms) == [(1, 1), (2, 2)]
    assert r.units == {(1, 1), (2, 2)}


def test_relation_groupoid_chain_topology():
    r = gp.build_relation_groupoid(chain3_to_sierpinski())
    assert len(r.morphisms) == 5
    # minimal open of (0,0) is the whole relation: U_0 = Y so U_0 x U_0
    # meets every pair
    assert min_open(r.topology, (0, 0)) == frozenset(r.morphisms)
    assert min_open(r.topology, (2, 2)) == frozenset({(2, 2)})
    assert min_open(r.topology, (1, 2)) == frozenset({(1, 2), (2, 2)})


def cyclic_group(k):
    """Z/k as a one-unit groupoid."""
    elems = tuple(range(k))
    return label_groupoid(
        fs.discrete(elems),
        [0],
        {a: 0 for a in elems},
        {a: 0 for a in elems},
        {(a, b): (a + b) % k for a in elems for b in elems},
        {a: -a % k for a in elems},
    )


def composable_triples(g: gp.FinGroupoid) -> list[tuple]:
    """The composable triples as labels, read off ``triple_join``."""
    pa, pb, _ = g.pairs
    m = g.morphisms
    return [
        (m[a], m[b], m[c])
        for ab, bc in g.triple_join()
        for a, b, c in zip(pa[ab].tolist(), pb[ab].tolist(), pb[bc].tolist())
    ]


def test_pairs_and_triples_match_brute_force():
    relation = gp.build_relation_groupoid(chain3_to_sierpinski())  # non-discrete base
    y = fs.discrete((1, 2))
    pair = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), {1: "*", 2: "*"}))
    sigma = tw.TwoCocycle.trivial(pair, 3).shift(((1, 2), (2, 1)), 1).shift(((2, 1), (1, 2)), 1)
    extension = tw.extension_groupoid(pair, sigma)
    for g in (relation, cyclic_group(6), extension):
        m, s, r = g.morphisms, g.source_map, g.range_map
        assert g.composable_pairs() == [(a, b) for a in m for b in m if s[a] == r[b]]
        assert composable_triples(g) == [
            (a, b, c) for a in m for b in m for c in m if s[a] == r[b] and s[b] == r[c]
        ]
        pa, pb, pc = g.pairs
        assert [m[c] for c in pc] == [g.compose[(m[a], m[b])] for a, b in zip(pa, pb)]


def test_rejects_non_surjective():
    y = fs.discrete((1,))
    x = fs.discrete(("a", "b"))
    with pytest.raises(ValueError):
        gp.build_relation_groupoid(fs.SpaceMap(y, x, {1: "a"}))


def test_axiom_verifier_catches_faults():
    y = fs.discrete((1, 2))
    r = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), {1: "*", 2: "*"}))
    bad_compose = dict(r.compose)
    bad_compose[((1, 2), (2, 1))] = (2, 2)  # should be (1,1)
    with pytest.raises(gp.GroupoidAxiomError):
        label_groupoid(r.topology, r.units, r.range_map, r.source_map, bad_compose, inverse_map(r))


# -- orbit space ---------------------------------------------------------------


def test_orbit_space_discrete_surjection():
    r = gp.build_relation_groupoid(discrete_3_to_2())
    space, q = gp.orbit_space(r)
    assert sorted(sorted(b) for b in space.points) == [[1, 2], [3]]
    assert space.is_discrete()


def test_orbit_space_unit_groupoid():
    r = gp.build_relation_groupoid(fs.identity_map(fs.discrete((1, 2))))
    space, _ = gp.orbit_space(r)
    assert len(space.points) == 2


def test_orbit_space_chain_is_sierpinski():
    r = gp.build_relation_groupoid(chain3_to_sierpinski())
    space, q = gp.orbit_space(r)
    b0 = next(b for b in space.points if 0 in b)
    b12 = next(b for b in space.points if 1 in b)
    assert min_open(space, b12) == frozenset({b12})
    assert min_open(space, b0) == frozenset({b0, b12})


def test_orbit_space_of_a_discrete_twin_asserts_on_the_unit_subspace():
    """The discrete twin of R(psi) is etale whatever Y is, and its unit
    subspace is discrete, so the orbit map that the etale assertion is
    about is open; the orbit space is still read off Y, where q need not
    be open.  The criterion 1 corpus runs the twins in
    ``test_base_masks_and_orbit_spaces_match_the_walks_they_replaced``."""
    y = fs.FinSpace((0, 1, 2), (0b011, 0b010, 0b100))
    relation = gp.build_relation_groupoid(fs.quotient_space(y, [[0, 2], [1]])[1])
    twin = relation.with_discrete_topology()
    assert gp.groupoid_properties(twin).etale and not fs.classify_map(gp.orbit_space(relation)[1]).open_map
    assert gp.orbit_space(twin) == gp.orbit_space(relation)


def test_orbit_space_asserts_on_the_unit_subspace_where_it_is_not_y():
    """R(psi) over a discrete Y, with the morphism topology of R(psi')
    over a Y' with the same points and fibers whose orbit map is not
    open: q on Y is open, but the unit subspace is Y', so a groupoid that
    claims to be etale trips the assertion."""
    y_prime = fs.FinSpace("abc", [0b111, 0b010, 0b100])
    fibers = [{"a", "c"}, {"b"}]
    other = gp.build_relation_groupoid(fs.quotient_space(y_prime, fibers)[1])
    psi = fs.quotient_space(fs.discrete("abc"), fibers)[1]
    g = gp.RelationGroupoid(psi, other.fiber_positions, other.topology)
    assert fs.classify_map(gp.orbit_space(g)[1]).open_map
    g._props_cache = gp.GroupoidProperties(g.principal, True)
    with pytest.raises(InternalCheckFailure, match="non-open orbit map"):
        gp.orbit_space(g)


# -- orbit_map_check -----------------------------------------------------------


def test_orbit_map_check_discrete():
    rep = gp.orbit_map_check(gp.build_relation_groupoid(discrete_3_to_2()))
    assert rep.all_verified
    assert rep.homeomorphism_when_quotient is True


def test_orbit_map_check_identity():
    rep = gp.orbit_map_check(gp.build_relation_groupoid(fs.identity_map(fs.discrete((0, 1)))))
    assert rep.all_verified


def test_orbit_map_check_chain():
    rep = gp.orbit_map_check(gp.build_relation_groupoid(chain3_to_sierpinski()))
    assert rep.all_verified
    assert rep.homeomorphism_when_quotient is True


def test_orbit_map_check_over_corpus():
    # every clause of the orbit-space identification holds on every
    # quotient of every 3-point space
    for s in all_topologies(3):
        for part in all_partitions(s.points):
            _, psi = fs.quotient_space(s, part)
            assert gp.orbit_map_check(gp.build_relation_groupoid(psi)).all_verified


def test_base_masks_and_orbit_spaces_match_the_walks_they_replaced():
    """On every quotient of every space of at most four points: Y's masks
    carried to the units, and the orbit space of R(psi), of its discrete
    twin, whose base is Y too, and of the plain groupoid on its index and
    topology, whose base is the unit subspace."""
    cases = 0
    for n in range(1, 5):
        for space in all_topologies(n):
            for part in all_partitions(space.points):
                relation = gp.build_relation_groupoid(fs.quotient_space(space, part)[1])
                assert relation.base_masks == reference_base_masks(relation)
                plain = gp.FinGroupoid(relation.topology, relation.range_idx, relation.source_idx,
                                       relation.inverse_idx, relation.unit_mask, relation.pairs)
                for g in (relation, relation.with_discrete_topology(), plain):
                    x, q = gp.orbit_space(g)
                    base = reference_orbit_base(g)
                    assert q.dom == base
                    assert list(x._mo) == reference_final_masks(base, q.targets, len(x))
                cases += 1
    assert cases == 5479


# -- groupoid properties ---------------------------------------------------------


def test_properties_discrete_surjection():
    r = gp.build_relation_groupoid(discrete_3_to_2())
    props = gp.groupoid_properties(r)
    assert props.principal and props.etale


def test_properties_unit_groupoid():
    r = gp.build_relation_groupoid(fs.identity_map(fs.discrete((1, 2))))
    props = gp.groupoid_properties(r)
    assert props.principal and props.etale


def test_properties_chain_not_etale():
    r = gp.build_relation_groupoid(chain3_to_sierpinski())
    props = gp.groupoid_properties(r)
    assert props.principal
    assert not props.etale


def test_etale_iff_local_homeo_small_corpus():
    # quotient maps psi on spaces of up to 3 points: R(psi) is etale
    # exactly when psi is a local homeomorphism
    for s in all_topologies(3):
        for part in all_partitions(s.points):
            _, psi = fs.quotient_space(s, part)
            etale = gp.groupoid_properties(gp.build_relation_groupoid(psi)).etale
            assert etale == fs.classify_map(psi).local_homeomorphism


# -- fell_check --------------------------------------------------------------------


def test_fell_check_discrete_surjection_true():
    r = gp.build_relation_groupoid(discrete_3_to_2())
    res = gp.fell_check(r)
    assert res.is_fell_model and res.r_times_s_open and res.as_dict()["bijective"]


def test_fell_check_unit_groupoid():
    r = gp.build_relation_groupoid(fs.identity_map(fs.discrete((1, 2))))
    assert gp.fell_check(r).is_fell_model


def test_fell_check_tampered_topology_fails_with_witness():
    # same algebraic relation groupoid, discrete topology forced on the
    # morphisms: r x s is no longer open, first witness is {(0,0)}
    r = gp.build_relation_groupoid(chain3_to_sierpinski()).with_discrete_topology()
    res = gp.fell_check(r)
    assert not res.r_times_s_open
    assert not res.is_fell_model
    assert res.witness == frozenset({(0, 0)})


def test_fell_check_untampered_relation_always_true():
    # with the genuine product-subspace topology r x s is the identity
    for s in all_topologies(3):
        for part in all_partitions(s.points):
            _, psi = fs.quotient_space(s, part)
            r = gp.build_relation_groupoid(psi)
            assert gp.fell_check(r).is_fell_model


def test_fell_requires_principal():
    # a two-element group viewed as a one-unit groupoid is not principal
    topo = fs.discrete(("e", "g"))
    compose = {("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"}
    grp = label_groupoid(
        topo,
        units=["e"],
        range_map={"e": "e", "g": "e"},
        source_map={"e": "e", "g": "e"},
        compose=compose,
        inverse={"e": "e", "g": "g"},
    )
    with pytest.raises(gp.NonPrincipalError):
        gp.fell_check(grp)


# -- the compiled relation index against reference constructions ----------------


@functools.cache
def quotient_corpus() -> tuple:
    """Every quotient map of every topology on at most 4 points (5,479),
    then quotients of seeded random spaces of up to 12 points."""
    maps = [
        fs.quotient_space(space, part)[1]
        for n in range(1, 5)
        for space in all_topologies(n)
        for part in all_partitions(space.points)
    ]
    rng = random.Random(2012)
    for _ in range(300):
        space = random_space(rng.randrange(10**6), 12)
        maps.append(fs.quotient_space(space, random_partition(rng, space.points))[1])
    return tuple(maps)


@functools.cache
def product_square(space: fs.FinSpace) -> fs.FinSpace:
    """``product(space, space)``; cached because the quotient maps of one
    space ask for the same one."""
    return product(space, space)


@functools.cache
def product_subspace(space: fs.FinSpace, pairs: tuple) -> fs.FinSpace:
    """The pairs with the topology of ``product(space, space)``; cached
    because two tests ask for the same ones."""
    return subspace(product_square(space), pairs)


def reference_relation(psi: fs.SpaceMap, topology: fs.FinSpace) -> gp.FinGroupoid:
    """R(psi) from dict tables over the morphisms of ``topology``."""
    pairs = topology.points
    starting: dict = {}
    for b in pairs:
        starting.setdefault(b[0], []).append(b)
    compose = {(a, b): (a[0], b[1]) for a in pairs for b in starting[a[1]]}
    return label_groupoid(
        topology,
        [(y, z) for y, z in pairs if y == z],
        {(y, z): (y, y) for y, z in pairs},
        {(y, z): (z, z) for y, z in pairs},
        compose,
        {(y, z): (z, y) for y, z in pairs},
    )


def unit_subspace(g: gp.FinGroupoid) -> fs.FinSpace:
    return subspace(g.topology, [m for m in g.morphisms if m in g.units])


def reference_properties(g: gp.FinGroupoid) -> gp.GroupoidProperties:
    """Principal and etale by definition: (r, s) injective, and r a local
    homeomorphism onto the unit space with its subspace topology."""
    principal = len({(g.range_map[m], g.source_map[m]) for m in g.morphisms}) == len(g.morphisms)
    r_map = fs.SpaceMap(g.topology, unit_subspace(g), {m: g.range_map[m] for m in g.morphisms})
    return gp.GroupoidProperties(principal, fs.is_local_homeomorphism(r_map))


def reference_rq(g: gp.FinGroupoid) -> fs.SpaceMap:
    """r x s onto R(q), labelled: R(q) is the product subspace of the
    orbit base on the pairs of units in one orbit.  The base is Y for a
    relation groupoid, with the unit (y, y) read as y, and the unit
    subspace otherwise; the orbits are the sets {r(m) : s(m) = u}."""
    if isinstance(g, gp.RelationGroupoid):
        base, label = g.base, {u: u[0] for u in g.units}
    else:
        base, label = unit_subspace(g), {u: u for u in g.units}
    reach: dict = {}
    for m in g.morphisms:
        reach.setdefault(g.source_map[m], []).append(label[g.range_map[m]])
    orbits = dict.fromkeys(frozenset(ys) for ys in reach.values())
    rq = product_subspace(base, tuple((y, z) for c in orbits for y in c for z in c))
    return fs.SpaceMap(g.topology, rq, {m: (label[g.range_map[m]], label[g.source_map[m]]) for m in g.morphisms})


@pytest.fixture(scope="module")
def corpus_builds() -> list:
    """Per map psi of ``quotient_corpus``: psi, R(psi), its discrete copy
    and the label-built references of both.  Built once for the four
    tests below, which only read them."""
    out = []
    for psi in quotient_corpus():
        relation = gp.build_relation_groupoid(psi)
        discrete = relation.with_discrete_topology()
        out.append((psi, relation, discrete, *(reference_relation(psi, g.topology) for g in (relation, discrete))))
    return out


def test_pair_topology_is_the_product_subspace(corpus_builds):
    for psi, relation, *_ in corpus_builds:
        got = relation.topology
        want = product_subspace(psi.dom, got.points)
        assert len(got) == len(want) == sum(len(f) ** 2 for f in relation.fibers)
        assert all(min_open(got, p) == min_open(want, p) for p in got.points)


def test_relation_index_matches_the_dict_built_groupoid(corpus_builds):
    for _, relation, discrete, *refs in corpus_builds:
        for g, ref in zip((relation, discrete), refs):
            for name in ("range_idx", "source_idx", "inverse_idx", "unit_mask"):
                assert np.array_equal(getattr(g, name), getattr(ref, name)), name
            assert np.array_equal(dense_pair_id(g), dense_pair_id(ref))
            assert all(np.array_equal(a, b) for a, b in zip(g.pairs, ref.pairs))
            assert g.units == ref.units
            assert composable_triples(g) == composable_triples(ref)
            for name in ("range_map", "source_map", "compose"):
                assert getattr(g, name) == getattr(ref, name), name
            assert inverse_map(g) == inverse_map(ref)


def test_properties_and_fell_check_match_the_definitions(corpus_builds):
    two = fs.discrete((1, 2))
    pair = gp.build_relation_groupoid(fs.SpaceMap(two, fs.discrete(("*",)), {1: "*", 2: "*"}))
    # the pair groupoid on two points whose inverse is not continuous
    flip = label_space(pair.morphisms, {m: {m} for m in pair.morphisms} | {(2, 1): {(2, 1), (1, 2)}})
    odd = label_groupoid(flip, pair.units, pair.range_map, pair.source_map, pair.compose, inverse_map(pair))
    groupoids = [odd]
    for _, relation, discrete, *_ in corpus_builds:
        groupoids += [relation, discrete]
    for g in groupoids:
        props = gp.groupoid_properties(g)
        assert props == reference_properties(g)
        rs = reference_rq(g)
        bijective = len(set(rs.targets)) == len(g.morphisms) == len(rs.cod.points)
        continuous, open_map, _, first = reference_scan_images(rs)
        res = gp.fell_check(g)
        assert (res.r_times_s_continuous, res.r_times_s_open) == (continuous, open_map)
        assert res.as_dict()["bijective"] is bijective is True
        assert res.is_fell_model == (continuous and open_map)
        assert res.witness == (None if first is None else g.topology.unbits(g.topology.min_open_bits(first)))
    assert gp.groupoid_properties(odd) == gp.GroupoidProperties(principal=True, etale=False)


def criterion_2_relations():
    """The relation groupoid of every partition of a discrete space of at
    most 8 points, as acceptance criterion 2 builds them."""
    for n in range(1, 9):
        space = fs.discrete(tuple(range(n)))
        for part in all_partitions(space.points):
            yield gp.build_relation_groupoid(fs.quotient_space(space, part)[1])


def random_pair_topologies(count: int, seed: int):
    """The pair groupoid over a random topology Y on three points, with
    ``count`` random topologies on its nine morphisms: random relations
    closed to preorders."""
    rng = random.Random(seed)
    spaces = all_topologies(3)
    for _ in range(count):
        y = rng.choice(spaces)
        pair = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), dict.fromkeys(y.points, "*")))
        rows = [sum(1 << j for j in range(9) if rng.random() < 0.15) for _ in range(9)]
        yield gp.RelationGroupoid(pair.psi, pair.fiber_positions, fs.FinSpace(pair.morphisms, fs._closure(rows)))


def test_fell_check_matches_the_identity_scan(corpus_builds):
    # the two mask comparisons against the scan of the identity map of
    # the morphisms, on criteria 1 and 2 with their discrete twins and on
    # random topologies of the 3-point pair groupoid
    groupoids = [g for _, relation, discrete, *_ in corpus_builds for g in (relation, discrete)]
    for relation in criterion_2_relations():
        groupoids += [relation, relation.with_discrete_topology()]
    groupoids += random_pair_topologies(400, 1207)
    verdicts = collections.Counter()
    for g in groupoids:
        got = gp.fell_check(g)
        assert got == reference_fell_check(g)
        verdicts[got.r_times_s_continuous, got.r_times_s_open] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}, verdicts
    group = product_group(2, 1)
    for check in (gp.fell_check, reference_fell_check):
        with pytest.raises(gp.NonPrincipalError, match="requires a principal groupoid"):
            check(group)


def test_fell_check_reads_the_same_on_a_plain_copy(corpus_builds):
    # a fingroupoid/1 copy of R(psi) tests r x s against its unit subspace,
    # R(psi) itself against Y; with the product topology the two agree.
    # The label-built reference on R(psi)'s topology is such a copy.
    for _, relation, _, plain, _ in corpus_builds:
        copy = sz.groupoid_from_json(sz.groupoid_to_json(plain))
        assert type(copy) is gp.FinGroupoid
        assert gp.fell_check(copy).as_dict() == gp.fell_check(relation).as_dict()


def test_unchecked_builders_are_coherent_on_the_corpus(corpus_builds):
    """Every space built by ``FinSpace.coherent`` passes the checked
    constructor: the topologies, quotients X and relation topologies of
    criterion 1 and of random quotients, with discrete twins; relation
    groupoids on discrete spaces of at most 6 points; the orbit-space
    bases and quotients of all of these, of ``fingroupoid/1`` copies and
    of extensions; extensions of groups and relations mod 2 and 3;
    ``random_space`` at 1,000 seeds; and discrete spaces.  The relation
    topologies are the outputs of ``product_masks`` that its docstring
    proves coherent."""
    rng = random.Random(33)
    groupoids, spaces = [], [fs.discrete(()), fs.discrete("abc")]
    spaces += [s for n in range(5) for s in all_topologies(n)]
    spaces += [random_space(seed, 8) for seed in range(1000)]
    # a discrete twin's orbit base is its relation's Y
    for psi, relation, discrete, plain, _ in corpus_builds:
        spaces += [psi.dom, psi.cod, relation.topology, discrete.topology]
        groupoids += [relation, sz.groupoid_from_json(sz.groupoid_to_json(plain))]
    small = [
        gp.build_relation_groupoid(fs.quotient_space(space, part)[1])
        for space in map(fs.discrete, map(range, range(1, 7)))
        for part in all_partitions(space.points)
    ]
    groups = [product_group(a, b) for a, b in ((2, 1), (3, 1), (2, 2), (2, 3), (4, 2))]
    for base in small[::9] + groups + [gp.build_relation_groupoid(chain3_to_sierpinski())]:
        for n in (2, 3):
            chain = tw.OneCochain(base, n, {m: rng.randrange(n) for m in base.morphisms if m not in base.units})
            for sigma in (tw.TwoCocycle.trivial(base, n), tw.coboundary_twist(chain)):
                groupoids.append(tw.extension_groupoid(base, sigma))
    groupoids += small + groups
    kinds = collections.Counter()
    for g in groupoids:
        x, q = gp.orbit_space(g)
        spaces += [g.topology, q.dom, x]
        kinds[type(g).__name__, g.principal] += 1
    assert set(kinds) == {("RelationGroupoid", True), ("FinGroupoid", True), ("FinGroupoid", False)}, kinds
    for space in spaces:
        assert fs.FinSpace(space.points, space._mo) == space
        reference_coherence_loop(space.points, space._mo)


@pytest.mark.parametrize("corrupt", [
    lambda x: x.range_idx.__setitem__(1, 3),
    lambda x: x.source_idx.__setitem__(1, 0),
    lambda x: x.inverse_idx.__setitem__(1, 1),
    lambda x: x.unit_mask.__setitem__(1, True),
    lambda x: x.pairs[2].__setitem__(5, x.pairs[2][5] ^ 1),
    lambda x: setattr(x, "pairs", tuple(np.insert(p, 3, p[3]) for p in x.pairs)),
])
def test_corrupted_relation_index_is_rejected(corrupt):
    g = gp.build_relation_groupoid(discrete_3_to_2())
    g.verify_axioms()
    # the shared index is read-only; corrupt a copy of it and attach that,
    # so the checks and ``pair_number`` read the same arrays
    x = g.layout
    layout = gp.IndexLayout(
        *(a.copy() for a in (x.range_idx, x.source_idx, x.inverse_idx, x.unit_mask)), tuple(p.copy() for p in x.pairs)
    )
    corrupt(layout)
    g._attach(g.topology, layout)
    with pytest.raises(gp.GroupoidAxiomError):
        g.verify_axioms()


def test_a_pair_listed_twice_is_rejected():
    # Z/2 = {e, t} with (t, t) listed twice
    with pytest.raises(gp.GroupoidAxiomError) as err:
        gp.FinGroupoid(fs.discrete(("e", "t")), [0, 0], [0, 0], [0, 1], [True, False],
                       ([0, 0, 1, 1, 1], [0, 1, 0, 1, 1], [0, 1, 1, 0, 0]))
    assert str(err.value) == "composable pair ('t','t') listed twice" and err.value.witness == ("t", "t")


def test_a_unit_with_another_range_is_named():
    # e and f are units, and e's range is f: the later laws reject this
    # too, but the first check names the unit
    with pytest.raises(gp.GroupoidAxiomError) as err:
        gp.FinGroupoid(fs.discrete(("e", "f")), [1, 1], [0, 1], [0, 1], [True, True], ([1], [1], [1]))
    assert str(err.value) == "unit 'e' is not its own range and source" and err.value.witness == "e"


def test_a_non_unit_idempotent_end_is_rejected():
    # e is the only unit; t is its own range, source and inverse, t t = t
    with pytest.raises(gp.GroupoidAxiomError) as err:
        gp.FinGroupoid(fs.discrete(("e", "t")), [0, 1], [0, 1], [0, 1], [True, False], ([0, 1], [0, 1], [0, 1]))
    assert str(err.value) == "range or source of 't' is not a unit" and err.value.witness == "t"


def test_relation_groupoid_rejects_a_topology_of_the_wrong_size():
    psi = discrete_3_to_2()
    with pytest.raises(ValueError, match="not the pairs of the fibers"):
        gp.RelationGroupoid(psi, [[0, 1], [2]], fs.discrete(range(4)))


def test_relation_groupoid_at_the_cap_traces_under_64_mb():
    # one 64-point fiber is the 4,096-morphism cap; the caches are cleared
    # so the index is built and verified inside the trace
    y = fs.discrete(range(64))
    psi = fs.SpaceMap(y, fs.discrete(("*",)), dict.fromkeys(y.points, "*"))
    gp.pair_groupoid_index.cache_clear()
    gp.relation_masks.cache_clear()
    tracemalloc.start()
    try:
        assert gp.fell_check(gp.build_relation_groupoid(psi)).is_fell_model
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("chunk", [1, 7])
def test_chunked_triple_join_keeps_the_order(monkeypatch, chunk):
    y = fs.discrete((1, 2, 3))
    pair = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), {p: "*" for p in (1, 2, 3)}))
    sigma = tw.TwoCocycle.trivial(pair, 3).shift(((1, 2), (2, 3)), 1)
    cases = [(pair, sigma), (gp.build_relation_groupoid(chain3_to_sierpinski()), None)]
    two = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*", "**")), {1: "*", 2: "*", 3: "**"}))
    carry = tw.TwoCocycle.trivial(two, 3).shift(((1, 2), (2, 1)), 1).shift(((2, 1), (1, 2)), 1)
    cases.append((tw.extension_groupoid(two, carry), None))
    whole = [
        ([np.concatenate(x) for x in zip(*g.triple_join())], composable_triples(g),
         None if s is None else tw.verify_two_cocycle(s))
        for g, s in cases
    ]
    monkeypatch.setattr(gp, "TRIPLE_CHUNK", chunk)
    for (g, s), (joined, triples, report) in zip(cases, whole):
        blocks = list(g.triple_join())
        assert all(len(ab) <= chunk for ab, _ in blocks)
        assert all(np.array_equal(np.concatenate(x), y) for x, y in zip(zip(*blocks), joined))
        assert composable_triples(g) == triples
        g.verify_axioms()
        if s is not None:
            assert tw.verify_two_cocycle(s) == report and not report.valid


def sweep_verify_axioms(g: gp.FinGroupoid) -> None:
    """``verify_axioms`` as it was before the generator-triple rule, with
    associativity checked on every composable triple in lexicographic
    order: the reference for its messages and witnesses."""
    morphs = g.morphisms
    every = np.arange(len(morphs))
    rng, src, inv, is_unit = g.range_idx, g.source_idx, g.inverse_idx, g.unit_mask
    bad = is_unit & ((rng != every) | (src != every))
    if bad.any():
        u = morphs[int(np.argmax(bad))]
        raise gp.GroupoidAxiomError(f"unit {u!r} is not its own range and source", u)
    bad = ~(is_unit[rng] & is_unit[src])
    if bad.any():
        m = morphs[int(np.argmax(bad))]
        raise gp.GroupoidAxiomError(f"range or source of {m!r} is not a unit", m)
    pair_id = dense_pair_id(g)
    defined, should = pair_id >= 0, src[:, None] == rng[None, :]
    if (defined != should).any():
        a, b = (int(v) for v in np.argwhere(defined != should)[0])
        raise gp.GroupoidAxiomError(
            f"composition defined on ({morphs[a]!r},{morphs[b]!r}) iff sources/ranges mismatch",
            (morphs[a], morphs[b]),
        )
    pa, pb, pc = g.pairs
    if (rng[pc] != rng[pa]).any() or (src[pc] != src[pb]).any():
        bad = int(np.argwhere((rng[pc] != rng[pa]) | (src[pc] != src[pb]))[0, 0])
        raise gp.GroupoidAxiomError(
            "range/source of a composite disagree with the factors", (morphs[int(pa[bad])], morphs[int(pb[bad])])
        )
    bad = (is_unit[pa] & (pc != pb)) | (is_unit[pb] & (pc != pa))
    if bad.any():
        k = int(np.argmax(bad))
        raise gp.GroupoidAxiomError(f"unit law fails at ({morphs[pa[k]]!r},{morphs[pb[k]]!r})")
    for ab, bc in g.triple_join():
        lhs, rhs = pc[pair_id[pc[ab], pb[bc]]], pc[pair_id[pa[ab], pc[bc]]]
        if (lhs != rhs).any():
            k = int(np.argmax(lhs != rhs))
            triple = (morphs[pa[ab[k]]], morphs[pb[ab[k]]], morphs[pb[bc[k]]])
            raise gp.GroupoidAxiomError(f"associativity fails at triple {triple!r}", triple)
    if (inv[inv] != every).any():
        m = int(np.argwhere(inv[inv] != every)[0, 0])
        raise gp.GroupoidAxiomError(f"inverse is not involutive at {morphs[m]!r}", morphs[m])
    if (src[inv] != rng).any() or (rng[inv] != src).any():
        m = int(np.argwhere((src[inv] != rng) | (rng[inv] != src))[0, 0])
        raise gp.GroupoidAxiomError(f"inverse swaps range and source incorrectly at {morphs[m]!r}", morphs[m])
    left = pc[pair_id[every, inv]]
    if (left != rng).any():
        m = int(np.argwhere(left != rng)[0, 0])
        raise gp.GroupoidAxiomError(f"m * inv(m) is not the unit at range({morphs[m]!r})", morphs[m])
    right = pc[pair_id[inv, every]]
    if (right != src).any():
        m = int(np.argwhere(right != src)[0, 0])
        raise gp.GroupoidAxiomError(f"inv(m) * m is not the unit at source({morphs[m]!r})", morphs[m])


def tampered_tables():
    """Each group Z/a x Z/b with one composite of two non-units replaced
    by each other element, as index arrays, and the extensions of two
    pair groupoids by cocycles with one entry shifted."""
    for a, b in ((2, 1), (3, 1), (2, 2), (4, 1), (5, 1), (2, 3), (6, 1), (7, 1), (2, 4), (4, 2), (3, 3)):
        g = product_group(a, b)
        pa, pb, pc = g.pairs
        for k in np.flatnonzero(~g.unit_mask[pa] & ~g.unit_mask[pb]).tolist():
            for other in range(len(g)):
                if other != pc[k]:
                    composite = pc.copy()
                    composite[k] = other
                    yield g, (pa, pb, composite)
    y = fs.discrete((1, 2, 3))
    for fibers in ({1: "*", 2: "*", 3: "*"}, {1: "*", 2: "*", 3: "**"}):
        base = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(tuple(set(fibers.values()))), fibers))
        for pair in base.composable_pairs():
            sigma = tw.TwoCocycle.trivial(base, 3).shift(pair, 1)
            ext = tw.extension_groupoid(base, tw.TwoCocycle.trivial(base, 3))
            pa, pb, pc = ext.pairs
            # the composites of sigma's extension on the trivial one's pairs
            k = dense_pair_id(base)[pa % len(base), pb % len(base)]
            z = (pa // len(base) + pb // len(base) + sigma.values[k]) % 3
            yield ext, (pa, pb, z * len(base) + pc % len(base))


def pair_groupoid(points) -> gp.RelationGroupoid:
    y = fs.discrete(tuple(points))
    return gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), dict.fromkeys(y.points, "*")))


def inverse_faults():
    """Groups, pair-groupoid unions and an extension, each with tampered
    inverse arrays: every inverse moved one place on (mostly not an
    involution), the identity, and each swap of the inverses of two
    morphisms a and b with a, a^-1, b, b^-1 distinct, an involution that
    swaps range and source correctly exactly when a and b share both
    ends.  Arrays equal to the true inverse are left out."""
    base = pair_groupoid(range(2))
    groupoids = [product_group(a, b) for a, b in ((3, 1), (2, 2), (2, 3), (4, 1))]
    groupoids += [gp.build_relation_groupoid(discrete_3_to_2()), pair_groupoid(range(3))]
    groupoids.append(tw.extension_groupoid(base, tw.TwoCocycle.trivial(base, 3)))
    for g in groupoids:
        inv, n = g.inverse_idx, len(g)
        candidates = [np.arange(n)]
        for m in range(n):
            moved = inv.copy()
            moved[m] = (inv[m] + 1) % n
            candidates.append(moved)
        for a, b in itertools.combinations(range(n), 2):
            if len({a, int(inv[a]), b, int(inv[b])}) == 4:
                swapped = inv.copy()
                swapped[[a, inv[b], b, inv[a]]] = inv[b], a, inv[a], b
                candidates.append(swapped)
        for inverse in candidates:
            if not np.array_equal(inverse, inv):
                yield g, inverse


def unverified(g: gp.FinGroupoid, inverse, monkeypatch, topology=None) -> gp.FinGroupoid:
    """g's index with ``inverse`` for its inverse array, built without
    running ``verify_axioms``, on ``topology`` (default g's)."""
    monkeypatch.setattr(gp.FinGroupoid, "verify_axioms", lambda self: None)
    h = gp.FinGroupoid(topology or g.topology, g.range_idx, g.source_idx, inverse, g.unit_mask, g.pairs)
    monkeypatch.undo()
    return h


def twisted_document(g: gp.FinGroupoid, inverse, labels) -> dict:
    """g with ``inverse`` for its inverse table as a discrete
    ``fingroupoid/1`` on ``labels``, with the zero cocycle mod 2."""
    pa, pb, pc = (p.tolist() for p in g.pairs)
    table = lambda idx: {m: labels[i] for m, i in zip(labels, idx.tolist())}
    return {"schema": "twisted_groupoid/1", "groupoid": {
        "schema": "fingroupoid/1",
        "topology": {"schema": "finspace/1", "points": labels, "min_open": {m: [m] for m in labels}},
        "units": [labels[u] for u in np.flatnonzero(g.unit_mask).tolist()],
        "range": table(g.range_idx), "source": table(g.source_idx), "inverse": table(np.asarray(inverse)),
        "compose": [[labels[a], labels[b], labels[c]] for a, b, c in zip(pa, pb, pc)],
    }, "cocycle": {"schema": "two_cocycle/1", "n": 2, "table": [[labels[a], labels[b], 0] for a, b in zip(pa, pb)]}}


def test_inverse_faults_raise_as_the_reference_sweep(monkeypatch, tmp_path):
    # the reference sweep keeps the right-inverse block that the library
    # dropped as implied; every fault is named alike, with the same witness
    kinds = {}
    for g, inverse in inverse_faults():
        with pytest.raises(gp.GroupoidAxiomError) as want:
            sweep_verify_axioms(unverified(g, inverse, monkeypatch))
        with pytest.raises(gp.GroupoidAxiomError) as got:
            gp.FinGroupoid(g.topology, g.range_idx, g.source_idx, inverse, g.unit_mask, g.pairs)
        assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)
        kinds.setdefault(str(want.value).split(" at ")[0], (g, inverse))
    assert set(kinds) == {
        "inverse is not involutive", "inverse swaps range and source incorrectly", "m * inv(m) is not the unit",
    }
    # the first fault of each kind, read from a document by cocycle-verify
    for g, inverse in kinds.values():
        labels = [f"m{i}" for i in range(len(g))]
        with pytest.raises(gp.GroupoidAxiomError) as want:
            sweep_verify_axioms(unverified(g, inverse, monkeypatch, fs.discrete(labels)))
        path = tmp_path / "g.json"
        path.write_text(json.dumps(twisted_document(g, inverse, labels)))
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["cocycle-verify", str(path)]) == 1
        assert json.loads(buf.getvalue())["result"]["error"] == f"SchemaError: {want.value} (at //groupoid)"


def test_generator_triples_decide_associativity_as_the_full_sweep(monkeypatch):
    verify = gp.FinGroupoid.verify_axioms
    outcomes = {"associativity": 0, "other": 0, "passed": 0}
    for g, pairs in tampered_tables():
        monkeypatch.setattr(gp.FinGroupoid, "verify_axioms", lambda self: None)
        h = gp.FinGroupoid(g.topology, g.range_idx, g.source_idx, g.inverse_idx, g.unit_mask, pairs)
        monkeypatch.undo()
        try:
            sweep_verify_axioms(h)
        except gp.GroupoidAxiomError as err:
            with pytest.raises(gp.GroupoidAxiomError) as got:
                verify(h)
            assert (str(got.value), got.value.witness) == (str(err), err.witness)
            outcomes["associativity" if str(err).startswith("associativity") else "other"] += 1
        else:
            verify(h)
            outcomes["passed"] += 1
    assert outcomes["associativity"] >= 1800 and outcomes["other"] > 0, outcomes


def right_inverse_corpus():
    """Relation groupoids of criterion 2 and of the chain, extensions by
    trivial, coboundary and nontrivial cocycles, groups, matrix-unit
    groupoids and the groupoids of the bundled inputs."""
    rng = random.Random(2231)
    relations = list(criterion_2_relations()) + [gp.build_relation_groupoid(chain3_to_sierpinski())]
    yield from relations
    groups = [product_group(a, b) for a, b in ((2, 1), (3, 1), (2, 2), (2, 3), (4, 2))]
    yield from groups
    for base in relations[:60:7] + groups:
        for n in (2, 3):
            yield tw.extension_groupoid(base, tw.TwoCocycle.trivial(base, n))
            chain = tw.OneCochain(base, n, {m: rng.randrange(n) for m in base.morphisms if m not in base.units})
            yield tw.extension_groupoid(base, tw.coboundary_twist(chain))
    for blocks in ({"a": (0, 1)}, {"a": (0, 1), "e": (), "b": (2,)}, {"a": (0, 1, 2), "b": (3, 4)}):
        yield ca.matrix_unit_groupoid(blocks, 3, lambda i, j, k: i + 2 * j + k).groupoid
    yield sz.twisted_groupoid_from_json(bundled_document("trivial-cocycle"))[0]
    doubled = ca.build_doubled_cover_space(sz.cech_from_json(bundled_document("tetrahedron-z3")))
    yield doubled.relation
    yield tw.extension_groupoid(doubled.relation, tw.cech_to_groupoid_cocycle(doubled))
    yield ca.build_doubled_model(3, 2).relation


def test_the_right_inverse_law_holds_on_the_corpus():
    # ``verify_axioms`` checks only m inv(m) = r(m) and derives
    # inv(m) m = s(m); here the derived law is asserted on the index
    kinds = collections.Counter()
    for g in right_inverse_corpus():
        every = np.arange(len(g))
        numbers = g.pair_number(g.inverse_idx, every)
        assert (numbers >= 0).all() and np.array_equal(g.pairs[2][numbers], g.source_idx), g
        kinds[type(g).__name__, g.principal] += 1
    assert set(kinds) == {("RelationGroupoid", True), ("FinGroupoid", True), ("FinGroupoid", False)}, kinds


@pytest.mark.parametrize("chunk", [1, 7, gp.TRIPLE_CHUNK])
def test_masked_triple_join_is_the_full_join_filtered(monkeypatch, chunk):
    rng = random.Random(chunk)
    cases = [product_group(2, 3), gp.build_relation_groupoid(chain3_to_sierpinski())]
    two = gp.build_relation_groupoid(fs.SpaceMap(fs.discrete((1, 2, 3)), fs.discrete(("*",)), dict.fromkeys((1, 2, 3), "*")))
    cases.append(tw.extension_groupoid(two, tw.TwoCocycle.trivial(two, 2)))
    monkeypatch.setattr(gp, "TRIPLE_CHUNK", chunk)
    for g in cases:
        _, pb, _ = g.pairs
        full = [np.concatenate(x) for x in zip(*g.triple_join())]
        for last in [g.generating_mask, np.zeros(len(g), dtype=bool)] + [
            np.array([rng.random() < 0.3 for _ in range(len(g))]) for _ in range(5)
        ]:
            blocks = list(g.triple_join(last))
            assert all(0 < len(ab) <= chunk for ab, _ in blocks)
            joined = [np.concatenate(x) for x in zip(*blocks)] if blocks else [np.zeros(0, dtype=np.int64)] * 2
            keep = last[pb[full[1]]]
            assert all(np.array_equal(x, y[keep]) for x, y in zip(joined, full))


# -- the one constructor -----------------------------------------------------------


def shuffled_index(g: gp.FinGroupoid, rng: random.Random) -> tuple:
    """The index arrays of ``g`` with its composable pairs in random order."""
    order = np.array(rng.sample(range(len(g.pairs[0])), len(g.pairs[0])), dtype=np.int64)
    return g.range_idx, g.source_idx, g.inverse_idx, g.unit_mask, tuple(p[order] for p in g.pairs)


def test_from_index_sorts_shuffled_pairs_row_major():
    rng = random.Random(6)
    for psi in quotient_corpus()[::97]:
        g = gp.build_relation_groupoid(psi)
        h = gp.FinGroupoid(g.topology, *shuffled_index(g, rng))
        pa, pb, _ = h.pairs
        assert np.array_equal(pa * len(h) + pb, np.sort(pa * len(h) + pb))
        assert all(np.array_equal(a, b) for a, b in zip(h.pairs, g.pairs))
        assert np.array_equal(dense_pair_id(h), dense_pair_id(g))
        assert composable_triples(h) == composable_triples(g)
        assert h.compose == g.compose and h.units == g.units


def test_from_index_rejects_a_corrupted_composite_in_shuffled_pairs():
    rng = random.Random(7)
    y = fs.discrete((1, 2, 3))
    g = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), {p: "*" for p in y.points}))
    for _ in range(20):
        rng_idx, src_idx, inv_idx, units, (pa, pb, pc) = shuffled_index(g, rng)
        pc = pc.copy()
        # (1,2)(2,3) = (1,3) is declared (1,2): same range, wrong source
        k = int(np.flatnonzero((pa == g.index[(1, 2)]) & (pb == g.index[(2, 3)]))[0])
        pc[k] = g.index[(1, 2)]
        with pytest.raises(gp.GroupoidAxiomError):
            gp.FinGroupoid(g.topology, rng_idx, src_idx, inv_idx, units, (pa, pb, pc))


def test_label_constructor_keeps_its_error_order():
    # labels are numbered only by the fingroupoid/1 parser; Z/2 = {e, g}
    doc = {
        "schema": "fingroupoid/1", "topology": sz.space_to_json(fs.discrete(("e", "g"))), "units": ["e"],
        "range": {"e": "e", "g": "e"}, "source": {"e": "e", "g": "e"}, "inverse": {"e": "e", "g": "g"},
        "compose": [["e", "e", "e"], ["e", "g", "g"], ["g", "e", "g"], ["g", "g", "e"]],
    }
    sz.groupoid_from_json(doc)
    # membership errors come before any algebraic check
    for key, bad, message in [
        ("range", {"e": "e"}, "range undefined on 'g'"),
        ("inverse", {"e": "e", "g": "x"}, "inverse('g') is not a morphism"),
        ("units", ["e", "x"], "unit 'x' is not a morphism"),
        ("compose", [["e", "e", "e"], ["g", "x", "g"]], "composition entry ('g','x')->'g' off the morphism set"),
        ("compose", [["e", "e", "e"]], "composition defined on ('e','g') iff sources/ranges mismatch"),
    ]:
        with pytest.raises(sz.SchemaError) as err:
            sz.groupoid_from_json(doc | {key: bad})
        assert str(err.value) == f"{message} (at /)"


# -- the shared pair-groupoid index ------------------------------------------------


def loop_pair_index(sizes: tuple, rng: random.Random) -> tuple:
    """The index of a union of pair groupoids from Python loops, with the
    composable pairs in random order."""
    rng_idx, src_idx, inv_idx, units, pairs = [], [], [], [], []
    offset = 0
    for k in sizes:
        number = lambda i, j: offset + i * k + j
        for i in range(k):
            for j in range(k):
                rng_idx.append(number(i, i))
                src_idx.append(number(j, j))
                inv_idx.append(number(j, i))
                units.append(i == j)
                pairs += [(number(i, j), number(j, l), number(i, l)) for l in range(k)]
        offset += k * k
    rng.shuffle(pairs)
    return rng_idx, src_idx, inv_idx, units, np.array(pairs, dtype=np.int64).reshape(-1, 3).T


def test_cached_pair_index_matches_a_fresh_install():
    rng = random.Random(13)
    tuples = [s for n in range(7) for s in compositions(n)] + [(20,), (33,), (1, 40)]
    names = ("range_idx", "source_idx", "inverse_idx", "unit_mask")
    for sizes in tuples:
        index = gp.pair_groupoid_index(sizes)
        count = sum(k * k for k in sizes)
        fresh = gp.FinGroupoid(fs.discrete(range(count)), *loop_pair_index(sizes, rng))
        got, want = ([getattr(x, name) for name in names] for x in (index, fresh))
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want)), sizes
        assert all(np.array_equal(a, b) for a, b in zip(index.pairs, fresh.pairs)), sizes
        assert index.principal is fresh.principal is True, sizes
        assert np.array_equal(index.generating_mask, fresh.generating_mask), sizes


def test_cached_pair_index_is_read_only():
    index = gp.pair_groupoid_index((2, 3))
    for a in (index.range_idx, index.source_idx, index.inverse_idx, index.unit_mask, *index.pairs,
              index.generating_mask):
        with pytest.raises(ValueError):
            a[0] = a[1]
    g = gp.build_relation_groupoid(discrete_3_to_2())
    with pytest.raises(ValueError):
        g.range_idx[0] = 1


def test_relation_groupoids_share_the_index_and_its_layout():
    y = fs.discrete(("a", "b", "c"))
    one = gp.build_relation_groupoid(discrete_3_to_2())
    two = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("u", "v")), {"a": "v", "b": "v", "c": "u"}))
    assert [len(f) for f in one.fibers] == [len(f) for f in two.fibers]
    assert one.layout is two.layout
    for name in ("range_idx", "source_idx", "inverse_idx", "unit_mask"):
        assert getattr(one, name) is getattr(two, name), name
    assert all(a is b for a, b in zip(one.pairs, two.pairs))
    for name in ("fiber_cells", "orbit_idx"):
        assert getattr(one, name) is getattr(two, name), name
    gp.fell_check(one)
    gp.fell_check(two)
    for name in ("unit_numbers", "ranges", "sources", "end_masks", "pair_rows"):
        assert getattr(one.layout, name) is getattr(two.layout, name), name
    assert one.topology is not two.topology and one.morphisms != two.morphisms
    gp.groupoid_properties(one)
    one.orbits()
    assert two._props_cache is None and two._orbits is None
    assert one.units != two.units and one.compose != two.compose


def fresh_copy(g: gp.FinGroupoid) -> gp.FinGroupoid:
    """A groupoid on copies of ``g``'s index, with a layout of its own."""
    arrays = (a.copy() for a in (g.range_idx, g.source_idx, g.inverse_idx, g.unit_mask))
    return gp.FinGroupoid(fs.discrete(range(len(g))), *arrays, tuple(p.copy() for p in g.pairs))


def test_shared_layout_matches_a_fresh_groupoid():
    # every fiber-size tuple of at most 8 points, and a matrix-unit groupoid with an empty block
    cases = []
    for sizes in (s for n in range(9) for s in compositions(n)):
        points = tuple(range(sum(sizes)))
        fibers = [points[sum(sizes[:k]):sum(sizes[:k + 1])] for k in range(len(sizes))]
        psi = fs.SpaceMap(fs.discrete(points), fs.discrete(range(len(sizes))),
                          {p: k for k, f in enumerate(fibers) for p in f})
        # the points are their own positions
        cases.append((sizes, gp.RelationGroupoid(psi, fibers)))
    cases.append(((2, 0, 1), ca.matrix_unit_groupoid({"a": (0, 1), "e": (), "b": (2,)}, 3).groupoid))
    for sizes, g in cases:
        fresh = fresh_copy(g)
        assert g.layout is gp.pair_groupoid_index(sizes) and fresh.layout is not g.layout, sizes
        assert g.principal is fresh.principal is True, sizes
        assert np.array_equal(g.orbit_idx, fresh.orbit_idx), sizes
        *cells, blocks, rest = g.fiber_cells
        *want, want_blocks, want_rest = fresh.fiber_cells
        assert all(np.array_equal(a, b) for a, b in zip(cells, want)), sizes
        assert (blocks, rest) == (want_blocks, want_rest), sizes
        every = np.arange(len(fresh))
        inverse_pairs = g.pair_number(g.inverse_idx, every)
        assert np.array_equal(inverse_pairs, dense_pair_id(fresh)[fresh.inverse_idx, every]), sizes
        assert np.array_equal(inverse_pairs, fresh.pair_number(fresh.inverse_idx, every)), sizes
        for a in (g.orbit_idx, *cells, *g.layout.pair_rows):
            with pytest.raises(ValueError):
                a[:1] = 0


def test_layout_bit_tables_match_the_per_call_values():
    """The int tuples on ``IndexLayout`` equal what each call computed
    before: the units, range and source from the arrays, and the masks by
    range and by source inside ``product_masks``, on every fiber-size
    tuple of at most 5 points and on ``fingroupoid/1`` groupoids, a
    relation's plain copy and a group."""
    rng = random.Random(24)
    plain = sz.groupoid_from_json(sz.groupoid_to_json(gp.build_relation_groupoid(chain3_to_sierpinski())))
    layouts = [gp.pair_groupoid_index(sizes) for n in range(6) for sizes in compositions(n)]
    for layout in layouts + [plain.layout, product_group(2, 2).layout]:
        tables = (layout.unit_numbers, layout.ranges, layout.sources, *layout.end_masks)
        assert all(type(t) is tuple for t in (layout.end_masks, *tables))
        assert layout.unit_numbers == tuple(np.flatnonzero(layout.unit_mask).tolist())
        assert layout.ranges == tuple(layout.range_idx.tolist())
        assert layout.sources == tuple(layout.source_idx.tolist())
        # the loop that product_masks ran on every call
        first, second = [0] * len(layout.ranges), [0] * len(layout.ranges)
        for k, (a, b) in enumerate(zip(layout.range_idx.tolist(), layout.source_idx.tolist())):
            first[a] |= 1 << k
            second[b] |= 1 << k
        assert layout.end_masks == (tuple(first), tuple(second))
        units = sum(1 << u for u in layout.unit_numbers)
        for _ in range(5):
            unit_mo = {u: 1 << u | rng.getrandbits(len(layout.ranges)) & units for u in layout.unit_numbers}
            want = reference_product_masks(unit_mo, layout.range_idx, layout.source_idx)
            assert gp.product_masks(unit_mo, layout) == want


def test_memoized_relation_masks_match_product_masks():
    # one tuple of fiber sizes under many topologies of Y: the memo must
    # tell them apart by Y's masks
    rng = random.Random(17)
    bases = []
    while len(bases) < 200:
        space = random_space(rng.randrange(10**6), 6)
        if len(space) == 6 and not space.is_discrete():
            bases.append(fs.quotient_space(space, random_partition(rng, space.points))[1])
    for psi in [psi for psi in quotient_corpus() if len(psi.dom) <= 4] + bases:
        g = gp.build_relation_groupoid(psi)
        assert list(g.topology._mo) == gp.product_masks(g.base_masks, g.layout), psi


def test_reports_do_not_depend_on_the_pair_index_cache(tmp_path):
    psi = fs.quotient_space(label_space((0, 1, 2, 3), {0: {0}, 1: {0, 1}, 2: {2}, 3: {2, 3}}), [{0, 2}, {1, 3}])[1]
    path = tmp_path / "psi.json"
    path.write_text(json.dumps(sz.map_to_json(psi)))
    relation = tmp_path / "relation.json"
    relation.write_text(json.dumps(sz.groupoid_to_json(gp.build_relation_groupoid(psi))))
    runs = [
        ["build-relation", str(path)],
        ["fell-check", str(relation)],
        ["fell-check", str(relation), "--discrete-morphisms"],
        ["algebra-verify", "bundled:trivial-cocycle"],
    ]

    def reports():
        out = []
        for argv in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, argv
            report = json.loads(buf.getvalue())
            report.pop("elapsed_seconds", None)
            out.append(report)
        blocks = ca.matrix_unit_groupoid({"a": (0, 1), "b": (2,)}, 3, lambda i, j, k: i + j + k).groupoid
        return out, blocks.compose

    warm = reports()
    caches = (gp.pair_groupoid_index, gp.relation_masks)
    for cache in caches:
        cache.cache_clear()
    assert reports() == warm
    assert all(cache.cache_info().misses > 0 for cache in caches)
