"""Algebraic laws under hypothesis-generated inputs."""

import random

from hypothesis import given, settings, strategies as st

from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import twist as tw
from groupoidlab.corpus import random_space


@st.composite
def twisted_relations(draw, max_points=6, max_order=8):
    """A relation groupoid of a random discrete surjection together with
    a random coboundary cocycle on it."""
    n_points = draw(st.integers(1, max_points))
    targets = draw(
        st.lists(st.integers(0, max(0, n_points - 1)), min_size=n_points, max_size=n_points)
    )
    space = fs.discrete(tuple(range(n_points)))
    blocks: dict = {}
    for p, t in enumerate(targets):
        blocks.setdefault(t, set()).add(p)
    _, psi = fs.quotient_space(space, list(blocks.values()))
    relation = gp.build_relation_groupoid(psi)
    order = draw(st.integers(1, max_order))
    values = {
        m: draw(st.integers(0, order - 1))
        for m in relation.morphisms
        if m not in relation.units
    }
    sigma = tw.coboundary_twist(tw.OneCochain(relation, order, values))
    return relation, sigma


def element(draw, relation, sigma):
    coeffs = {}
    for m in relation.morphisms:
        if draw(st.booleans()):
            coeffs[m] = complex(
                draw(st.floats(-1, 1, allow_nan=False)),
                draw(st.floats(-1, 1, allow_nan=False)),
            )
    return ca.AlgebraElement(relation, sigma, coeffs)


@st.composite
def algebra_triples(draw):
    relation, sigma = draw(twisted_relations())
    return tuple(element(draw, relation, sigma) for _ in range(3))


@settings(max_examples=40, deadline=None)
@given(algebra_triples())
def test_convolution_associative(triple):
    f, g, h = triple
    lhs = ca.convolve(ca.convolve(f, g), h)
    rhs = ca.convolve(f, ca.convolve(g, h))
    assert ca.max_deviation(lhs, rhs) < 1e-9


@settings(max_examples=40, deadline=None)
@given(algebra_triples())
def test_involution_laws(triple):
    f, g, _ = triple
    assert ca.max_deviation(ca.involute(ca.involute(f)), f) < 1e-12
    assert (
        ca.max_deviation(
            ca.involute(ca.convolve(f, g)),
            ca.convolve(ca.involute(g), ca.involute(f)),
        )
        < 1e-12
    )


@settings(max_examples=30, deadline=None)
@given(twisted_relations())
def test_coboundaries_are_cocycles_with_zero_class(pair):
    relation, sigma = pair
    assert tw.verify_two_cocycle(sigma).valid
    witness = tw.are_cohomologous(sigma, tw.TwoCocycle.trivial(relation, sigma.n))
    assert witness is not None
    assert tw.coboundary_twist(witness) == sigma


@settings(max_examples=30, deadline=None)
@given(twisted_relations())
def test_block_dimension_conservation(pair):
    relation, sigma = pair
    decomposition = ca.block_decompose(relation, sigma)
    assert sum(d * d for d in decomposition.dims) == len(relation.morphisms)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.data())
def test_quotient_maps_are_quotient_and_saturated_opens_map_open(seed_space, seed_blocks, data):
    space = random_space(seed_space, 5)
    rng = random.Random(seed_blocks)
    from groupoidlab.corpus import random_partition

    blocks = random_partition(rng, space.points)
    quotient, psi = fs.quotient_space(space, blocks)
    props = fs.classify_map(psi)
    assert props.quotient
    # a saturated open set has open image under a quotient map
    for mask in space.open_set_bits():
        image = quotient.bits(psi(p) for p in space.unbits(mask))
        if space.bits(p for p in space.points if (image >> quotient.index(psi(p))) & 1) == mask:
            assert quotient.is_open_bits(image)
    # the etale property of the relation groupoid tracks local homeomorphy
    relation = gp.build_relation_groupoid(psi)
    assert gp.groupoid_properties(relation).etale == props.local_homeomorphism
