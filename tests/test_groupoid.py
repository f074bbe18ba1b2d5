import pytest

from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import twist as tw
from groupoidlab.corpus import all_partitions, all_topologies


def discrete_3_to_2():
    y = fs.discrete((1, 2, 3))
    x = fs.discrete(("*", "**"))
    return fs.SpaceMap(y, x, {1: "*", 2: "*", 3: "**"})


def chain3_to_sierpinski():
    y = fs.FinSpace((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})
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
    assert r.topology.min_open((0, 0)) == frozenset(r.morphisms)
    assert r.topology.min_open((2, 2)) == frozenset({(2, 2)})
    assert r.topology.min_open((1, 2)) == frozenset({(1, 2), (2, 2)})


def cyclic_group(k):
    """Z/k as a one-unit groupoid."""
    elems = tuple(range(k))
    return gp.FinGroupoid(
        fs.discrete(elems),
        [0],
        {a: 0 for a in elems},
        {a: 0 for a in elems},
        {(a, b): (a + b) % k for a in elems for b in elems},
        {a: -a % k for a in elems},
    )


def test_pairs_and_triples_match_brute_force():
    relation = gp.build_relation_groupoid(chain3_to_sierpinski())  # non-discrete base
    y = fs.discrete((1, 2))
    pair = gp.build_relation_groupoid(fs.SpaceMap(y, fs.discrete(("*",)), {1: "*", 2: "*"}))
    sigma = tw.TwoCocycle.trivial(pair, 3).shift(((1, 2), (2, 1)), 1).shift(((2, 1), (1, 2)), 1)
    extension = tw.extension_groupoid(pair, sigma)
    for g in (relation, cyclic_group(6), extension):
        m, s, r = g.morphisms, g.source_map, g.range_map
        assert g.composable_pairs() == [(a, b) for a in m for b in m if s[a] == r[b]]
        assert g.composable_triples() == [
            (a, b, c) for a in m for b in m for c in m if s[a] == r[b] and s[b] == r[c]
        ]
        pa, pb, pc = g.pairs
        assert [m[c] for c in pc] == [g.mul(m[a], m[b]) for a, b in zip(pa, pb)]


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
        gp.FinGroupoid(r.topology, r.units, r.range_map, r.source_map, bad_compose, r.inverse)


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
    assert space.min_open(b12) == frozenset({b12})
    assert space.min_open(b0) == frozenset({b0, b12})


# -- orbit_map_check -----------------------------------------------------------


def test_orbit_map_check_discrete():
    rep = gp.orbit_map_check(discrete_3_to_2())
    assert rep.all_verified
    assert rep.homeomorphism_when_quotient is True


def test_orbit_map_check_identity():
    rep = gp.orbit_map_check(fs.identity_map(fs.discrete((0, 1))))
    assert rep.all_verified


def test_orbit_map_check_chain():
    rep = gp.orbit_map_check(chain3_to_sierpinski())
    assert rep.all_verified
    assert rep.homeomorphism_when_quotient is True


def test_orbit_map_check_over_corpus():
    # every clause of the orbit-space identification holds on every
    # quotient of every 3-point space
    for s in all_topologies(3):
        for part in all_partitions(s.points):
            _, psi = fs.quotient_space(s, part)
            assert gp.orbit_map_check(psi).all_verified


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
    assert res.is_fell_model and res.r_times_s_open and res.bijective


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
    grp = gp.FinGroupoid(
        topo,
        units=["e"],
        range_map={"e": "e", "g": "e"},
        source_map={"e": "e", "g": "e"},
        compose=compose,
        inverse={"e": "e", "g": "g"},
    )
    with pytest.raises(gp.NonPrincipalError):
        gp.fell_check(grp)
