import collections
import itertools
import random

import pytest

from groupoidlab import corpus
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab.corpus import all_partitions, all_topologies, random_space
from helpers import (
    chain_space,
    disjoint_union,
    is_closed_bits,
    label_space,
    min_open,
    open_sets,
    reference_base_masks,
    reference_cover_resolution,
    reference_classify_map,
    reference_coherence_loop,
    reference_final_masks,
    reference_is_open,
    reference_quotient_space,
    reference_random_space,
    reference_scan_masks,
    reference_space_fault,
    reference_topology_relations,
    subspace,
)


# -- brute-force oracles, written against raw definitions -----------------


def image(f: fs.SpaceMap, mask: int) -> int:
    return f.cod.bits(f(p) for p in f.dom.unbits(mask))


def preimage(f: fs.SpaceMap, mask: int) -> int:
    return f.dom.bits(p for p in f.dom.points if f(p) in f.cod.unbits(mask))


def oracle_classify(f: fs.SpaceMap):
    """Classify a map by enumerating entire open-set lattices."""
    dom_opens = [f.dom.bits(o) for o in open_sets(f.dom)]
    dom_open_set = set(dom_opens)
    cod_opens = {f.cod.bits(o) for o in open_sets(f.cod)}
    continuous = all(preimage(f, v) in dom_open_set for v in cod_opens)
    open_map = all(image(f, u) in cod_opens for u in dom_opens)
    surjective = set(f.assignment.values()) == set(f.cod.points)
    # final topology: subsets of the codomain with open preimage
    ncod = len(f.cod.points)
    final = {
        v
        for v in range(1 << ncod)
        if preimage(f, v) in dom_open_set
    }
    quotient = surjective and final == cod_opens
    local_homeo = True
    for i, p in enumerate(f.dom.points):
        found = False
        for v in dom_opens:
            if not (v >> i) & 1:
                continue
            pts = [f.dom.points[j] for j in fs._iter_bits(v)]
            if len({f(q) for q in pts}) != len(pts):
                continue
            img = image(f, v)
            if img not in cod_opens:
                continue
            sub_dom = subspace(f.dom, pts)
            sub_cod = subspace(f.cod, f.cod.unbits(img))
            fwd = fs.SpaceMap(sub_dom, sub_cod, {q: f(q) for q in pts})
            bwd = fs.SpaceMap(sub_cod, sub_dom, {f(q): q for q in pts})
            cont = lambda g: all(
                not (image(g, g.dom.min_open_bits(k)) & ~g.cod.min_open_bits(g.cod.index(g(q))))
                for k, q in enumerate(g.dom.points)
            )
            if cont(fwd) and cont(bwd):
                found = True
                break
        if not found:
            local_homeo = False
    return fs.MapProperties(continuous, open_map, surjective, quotient, local_homeo)


def chain3():
    # Y = {0,1,2} with opens (emptyset), {2}, {1,2}, Y
    return label_space((0, 1, 2), {0: {0, 1, 2}, 1: {1, 2}, 2: {2}})


def chain3_to_sierpinski():
    y = chain3()
    x = fs.sierpinski()
    return fs.SpaceMap(y, x, {0: "b", 1: "a", 2: "a"})


# -- FinSpace structure ----------------------------------------------------


def test_invalid_spaces_rejected():
    with pytest.raises(fs.InvalidSpace):
        label_space((0, 1), {0: {1}, 1: {1}})  # 0 not in own minimal open
    # indiscrete two-point space is fine
    label_space((0, 1), {0: {0, 1}, 1: {0, 1}})
    # incoherent: 1 in U_0 but U_1 not inside U_0
    with pytest.raises(fs.InvalidSpace):
        label_space((0, 1, 2), {0: {0, 1}, 1: {1, 2}, 2: {2}})


def test_mask_constructor_matches_and_shares_the_checks():
    for seed in range(40):
        s = random_space(seed, 6)
        masks = [s.min_open_bits(i) for i in range(len(s))]
        assert fs.FinSpace(s.points, masks) == label_space(s.points, {p: min_open(s, p) for p in s.points})
    bad = (
        [0b10, 0b10, 0b100],  # 0 outside U_0
        [0b11, 0b110, 0b100],  # 1 in U_0 but U_1 not inside U_0
        [0b1, 0b10, 0b1100],  # U_2 names a fourth point
        [0b1, 0b10, 0b100, 0b1000],  # one mask too many
    )
    for masks in bad:
        with pytest.raises(fs.InvalidSpace):
            fs.FinSpace((0, 1, 2), masks)


def test_is_open_bits_matches_the_open_set_lattice():
    for seed in range(40):
        s = random_space(seed, 6)
        opens = set(s.open_set_bits())
        for mask in range(1 << len(s)):
            assert s.is_open_bits(mask) == (mask in opens)


def test_open_set_lattice_closed_under_union_and_intersection():
    for seed in range(30):
        s = random_space(seed, 5)
        opens = set(s.open_set_bits())
        for a in opens:
            for b in opens:
                assert a | b in opens
                assert a & b in opens


def test_sierpinski_opens():
    s = fs.sierpinski()
    assert sorted(map(sorted, open_sets(s))) == [[], ["a"], ["a", "b"]]


# -- classify_map ------------------------------------------------------------


def test_classify_identity_discrete():
    s = fs.discrete(("x", "y", "z"))
    props = fs.classify_map(fs.identity_map(s))
    assert props == fs.MapProperties(True, True, True, True, True)


def test_classify_chain_to_sierpinski():
    psi = chain3_to_sierpinski()
    props = fs.classify_map(psi)
    assert props.continuous and props.open_map and props.quotient
    assert not props.local_homeomorphism
    assert props == oracle_classify(psi)


def test_classify_discrete_onto_sierpinski_not_quotient():
    y = fs.discrete((0, 1, 2))
    x = fs.sierpinski()
    f = fs.SpaceMap(y, x, {0: "b", 1: "a", 2: "a"})
    props = fs.classify_map(f)
    assert props.surjective and props.continuous
    assert not props.quotient  # final topology of a discrete domain is discrete
    assert props == oracle_classify(f)


def test_classify_rejects_bad_assignment():
    y = fs.discrete((0,))
    x = fs.discrete(("a",))
    with pytest.raises(fs.InvalidMap):
        fs.SpaceMap(y, x, {0: "zzz"})
    with pytest.raises(fs.InvalidMap):
        fs.SpaceMap(y, x, {})


def test_classify_matches_oracle_on_random_maps():
    import random

    rng = random.Random(7)
    for _ in range(120):
        dom = random_space(rng.randrange(10**6), rng.randint(1, 4))
        cod = random_space(rng.randrange(10**6), rng.randint(1, 4))
        f = fs.SpaceMap(dom, cod, {p: rng.choice(cod.points) for p in dom.points})
        assert fs.classify_map(f) == oracle_classify(f)


def test_classify_matches_oracle_on_every_small_map():
    # every map between topologies on 1 to 3 points, except 3 onto 3
    cases = 0
    for n, m in itertools.product((1, 2, 3), repeat=2):
        if (n, m) == (3, 3):
            continue
        for dom in all_topologies(n):
            for cod in all_topologies(m):
                for values in itertools.product(cod.points, repeat=n):
                    f = fs.SpaceMap(dom, cod, dict(zip(dom.points, values)))
                    assert fs.classify_map(f) == oracle_classify(f)
                    cases += 1
    assert cases == 2165


def test_local_homeo_implies_continuous_open_on_random_maps():
    import random

    rng = random.Random(11)
    hits = 0
    for _ in range(300):
        dom = random_space(rng.randrange(10**6), rng.randint(1, 5))
        cod = random_space(rng.randrange(10**6), rng.randint(1, 5))
        f = fs.SpaceMap(dom, cod, {p: rng.choice(cod.points) for p in dom.points})
        props = fs.classify_map(f)
        if props.local_homeomorphism:
            hits += 1
            assert props.continuous and props.open_map
        if props.quotient:
            assert props.surjective and props.continuous
    assert hits > 0


# -- space_properties --------------------------------------------------------


def test_space_properties_examples():
    sp = fs.space_properties(fs.sierpinski())
    assert (sp.hausdorff, sp.locally_hausdorff, sp.t1) == (False, False, False)

    dp = fs.space_properties(fs.discrete(range(4)))
    assert dp == fs.SpaceProperties(True, True, True, True)

    cp = fs.space_properties(chain_space())
    assert not cp.t1 and not cp.locally_hausdorff


def test_finite_hausdorff_is_discrete_as_theorem():
    for seed in range(200):
        s = random_space(seed, 5)
        p = fs.space_properties(s)
        assert p.hausdorff == p.discrete
        assert p.locally_hausdorff == p.discrete
        if p.t1:
            # finite T1 is discrete too
            assert p.discrete


# -- quotient_space -----------------------------------------------------------


def test_quotient_of_discrete_is_discrete():
    y = fs.discrete((0, 1, 2, 3))
    x, psi = fs.quotient_space(y, [{0, 1}, {2}, {3}])
    assert x.is_discrete()
    assert fs.classify_map(psi).quotient


def test_doubled_closed_point():
    y = disjoint_union([chain_space(), chain_space()])
    o0, o1 = (0, "o"), (1, "o")
    c0, c1 = (0, "c"), (1, "c")
    x, psi = fs.quotient_space(y, [{o0, o1}, {c0}, {c1}])
    opens = {tuple(sorted(map(str, o))) for o in open_sets(x)}
    blk = {p: b for b in x.points for p in b}
    o_blk, c0_blk, c1_blk = str(blk[o0]), str(blk[c0]), str(blk[c1])
    assert len(x.points) == 3
    # opens are (emptyset), {o}, {o,c0}, {o,c1}, X
    assert len(opens) == 5
    assert (o_blk,) in opens
    assert tuple(sorted((o_blk, c0_blk))) in opens
    assert tuple(sorted((o_blk, c1_blk))) in opens


def test_quotient_chain3_gives_sierpinski():
    y = chain3()
    x, psi = fs.quotient_space(y, [{0}, {1, 2}])
    # the block {1,2} is open, {0} is not: Sierpinski
    b0 = next(b for b in x.points if 0 in b)
    b12 = next(b for b in x.points if 1 in b)
    assert min_open(x, b12) == frozenset({b12})
    assert min_open(x, b0) == frozenset({b0, b12})


def test_quotient_rejects_bad_partitions():
    y = fs.discrete((0, 1, 2))
    with pytest.raises(fs.InvalidSpace, match="^partition blocks overlap at 1$"):
        fs.quotient_space(y, [{0, 1}, {1, 2}])
    with pytest.raises(fs.InvalidSpace, match="^partition does not cover the space$"):
        fs.quotient_space(y, [{0}])


def test_quotient_names_an_empty_block():
    # without this check the empty block reaches the sort by its least point
    with pytest.raises(fs.InvalidSpace, match="empty partition block"):
        fs.quotient_space(fs.discrete((0, 1, 2)), [{0, 1}, set(), {2}])


def test_quotient_names_an_unknown_point():
    # without this check the stray point reads as a cover fault
    with pytest.raises(fs.InvalidSpace, match="partition mentions unknown point 7"):
        fs.quotient_space(fs.discrete((0, 1, 2)), [{0, 1}, {2, 7}])


def test_quotient_always_quotient_map_on_corpus():
    # every quotient of a space on at most 4 points; the final topology
    # is checked here against the open-set lattice
    cases = 0
    for n in (1, 2, 3, 4):
        for s in all_topologies(n):
            for part in all_partitions(s.points):
                _, psi = fs.quotient_space(s, part)
                props = oracle_classify(psi)
                assert props.quotient and fs.classify_map(psi) == props
                cases += 1
    assert cases == 5479


def numbered_corpus():
    """Every quotient of every topology on at most 4 points (5,479), then
    every partition of a discrete space of at most 6 points (203 on 6)."""
    for n in range(1, 5):
        for space in all_topologies(n):
            for part in all_partitions(space.points):
                yield fs.quotient_space(space, part)[1]
    for n in range(1, 7):
        space = fs.discrete(tuple(range(n)))
        for part in all_partitions(space.points):
            yield fs.quotient_space(space, part)[1]


def test_numbered_quotients_pass_the_label_checks_they_skip():
    """``quotient_space`` hands psi its targets through ``SpaceMap.numbered``
    without the constructor's label checks: on the corpus the checking
    constructor accepts psi's assignment and rebuilds the same map, the
    blocks are numbered by their least point, and the relation groupoid
    built on positions carries Y's masks and psi's fibers in first-point
    order."""
    cases = 0
    for psi in numbered_corpus():
        checked = fs.SpaceMap(psi.dom, psi.cod, psi.assignment)
        assert psi == checked and psi.targets == checked.targets, psi
        least = [min(map(psi.dom.index, block)) for block in psi.cod.points]
        assert least == sorted(least) and all(p in psi(p) for p in psi.dom.points), psi
        relation = gp.build_relation_groupoid(psi)
        assert relation.base_masks == reference_base_masks(relation), psi
        fibers: dict = {}
        for p in psi.dom.points:
            fibers.setdefault(psi(p), []).append(p)
        assert relation.fibers == list(fibers.values()), psi
        assert relation.base_labels == [p for f in fibers.values() for p in f], psi
        assert relation.fiber_positions == [[psi.dom.index(p) for p in f] for f in fibers.values()], psi
        cases += 1
    assert cases == 5479 + 1 + 2 + 5 + 15 + 52 + 203


def test_quotient_reads_every_block_before_it_names_a_fault():
    # the second block's unhashable member raises before the first
    # block's unknown point is looked up
    with pytest.raises(TypeError):
        fs.quotient_space(fs.discrete((0, 1)), [[7], [0, []]])


def test_quotient_faults_and_results_match_the_seen_set_loop():
    """Random partitions of a 5-point space with members drawn from 7
    points, some blocks empty: the same quotient and projection as the
    set-and-sort construction it replaced, or the same ``InvalidSpace``
    text, in its order of precedence."""
    rng = random.Random(3205)
    space = fs.FinSpace(range(5), [0b00001, 0b00011, 0b00100, 0b01100, 0b11111])
    outcomes = collections.Counter()
    for _ in range(4000):
        partition = [[rng.randrange(7) for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))]
                     for _ in range(rng.randint(1, 5))]
        try:
            want = reference_quotient_space(space, partition)
        except fs.InvalidSpace as err:
            with pytest.raises(fs.InvalidSpace) as got:
                fs.quotient_space(space, partition)
            assert str(got.value) == str(err), partition
            outcomes[str(err).split(" at ")[0].split(" point ")[0]] += 1
            continue
        x, psi = fs.quotient_space(space, partition)
        assert x == want[0] and psi == want[1] and psi.targets == want[1].targets, partition
        outcomes["valid"] += 1
    assert set(outcomes) == {"empty partition block", "partition mentions unknown", "partition blocks overlap",
                             "partition does not cover the space", "valid"}, outcomes


# -- hausdorff_cover_resolution ----------------------------------------------


def test_resolution_discrete_singletons():
    x = fs.discrete((0, 1, 2))
    y, psi = fs.hausdorff_cover_resolution(x, [{0}, {1}, {2}])
    assert len(y.points) == 3
    props = fs.classify_map(psi)
    assert props.local_homeomorphism and props.surjective


def test_resolution_two_to_one():
    x = fs.discrete(("a", "b"))
    y, psi = fs.hausdorff_cover_resolution(x, [{"a", "b"}, {"a"}])
    assert len(y.points) == 3
    assert sorted(str(psi(p)) for p in y.points) == ["a", "a", "b"]
    props = fs.classify_map(psi)
    assert props.local_homeomorphism and props.surjective and props.quotient


def test_resolution_rejects_non_hausdorff_element():
    x = fs.sierpinski()
    with pytest.raises(fs.InvalidSpace):
        fs.hausdorff_cover_resolution(x, [{"a"}, {"a", "b"}])
    with pytest.raises(fs.InvalidSpace):
        fs.hausdorff_cover_resolution(fs.discrete((0, 1)), [{0}])


def test_resolution_names_a_cover_element_that_is_not_open():
    # {b} is closed in the Sierpinski space and Hausdorff as a subspace
    with pytest.raises(fs.InvalidSpace, match="cover element 0 is not open"):
        fs.hausdorff_cover_resolution(fs.sierpinski(), [{"b"}, {"a"}])


# -- closed_hausdorff_core -----------------------------------------------------


def test_core_sierpinski_empty():
    rep = fs.closed_hausdorff_core(fs.sierpinski())
    assert rep.core == frozenset()
    assert rep.core_is_open and rep.core_is_hausdorff


def test_core_discrete_everything():
    rep = fs.closed_hausdorff_core(fs.discrete(range(5)))
    assert rep.core == frozenset(range(5))


def test_core_chain_plus_isolated_point():
    s = disjoint_union([chain_space(), fs.discrete(("d",))])
    rep = fs.closed_hausdorff_core(s)
    assert rep.core == frozenset({(1, "d")})
    assert rep.core_is_open and rep.core_is_hausdorff


def test_core_open_and_hausdorff_on_random_spaces():
    for seed in range(300):
        s = random_space(seed, 6)
        rep = fs.closed_hausdorff_core(s)
        assert rep.core_is_open
        assert rep.core_is_hausdorff
        # cross-check against brute-force neighbourhood enumeration
        n = len(s.points)
        expected = set()
        for i, p in enumerate(s.points):
            for mask in range(1 << n):
                if s.min_open_bits(i) & ~mask:
                    continue
                if is_closed_bits(s, mask) and s._subspace_hausdorff(mask):
                    expected.add(p)
                    break
        assert rep.core == frozenset(expected)


def test_open_lattice_enumeration_cap():
    big = fs.discrete(tuple(range(17)))
    with pytest.raises(fs.InvalidSpace):
        open_sets(big)
    # predicates that avoid the lattice still work
    assert fs.space_properties(big).discrete


def test_resolution_parts_open_and_closed():
    x = fs.discrete(("a", "b", "c"))
    y, psi = fs.hausdorff_cover_resolution(x, [{"a", "b"}, {"b", "c"}])
    for k in (0, 1):
        part = [p for p in y.points if p[0] == k]
        mask = y.bits(part)
        assert y.is_open_bits(mask) and is_closed_bits(y, mask)


# -- the one bit kernel, against the walks it replaced -------------------------


def test_topologies_and_random_spaces_match_the_closure_loops_they_replaced():
    for n in range(5):
        assert corpus._topology_relations(n) == reference_topology_relations(n)
    assert [len(corpus._topology_relations(n)) for n in range(5)] == [1, 1, 4, 29, 355]
    for seed in range(1000):
        assert random_space(seed, 8) == reference_random_space(seed, 8)


def test_quotient_masks_match_the_fixpoint_loop_they_replaced():
    cases = 0
    for n in range(5):
        for space in all_topologies(n):
            for part in all_partitions(space.points):
                x, psi = fs.quotient_space(space, part)
                assert list(x._mo) == reference_final_masks(space, psi.targets, len(x))
                cases += 1
    assert cases == 5480


def test_core_counts_the_open_sets_it_enumerated():
    # ``space-check`` reports this count instead of enumerating again
    for seed in range(100):
        s = random_space(seed, 6)
        assert fs.closed_hausdorff_core(s).open_sets == len(s.open_set_bits())


def test_map_classes_match_the_scan_with_the_first_not_open_channel():
    # every quotient of every space of at most 4 points, and the same
    # assignment into a random topology on the blocks, which need be
    # neither continuous nor open
    rng = random.Random(1240)
    kinds = set()
    for n in range(5):
        for space in all_topologies(n):
            for part in all_partitions(space.points):
                x, psi = fs.quotient_space(space, part)
                other = fs.FinSpace(x.points, rng.choice(all_topologies(len(x)))._mo)
                for f in (psi, fs.SpaceMap(space, other, psi.assignment)):
                    props = fs.classify_map(f)
                    assert props == reference_classify_map(f)
                    assert fs.is_local_homeomorphism(f) == props.local_homeomorphism
                    kinds.add((props.continuous, props.open_map, props.local_homeomorphism))
    assert {(c, o) for c, o, _ in kinds} == {(True, True), (True, False), (False, True), (False, False)}
    assert {h for *_, h in kinds} == {True, False}


def _random_preorder(rng, n):
    """The minimal opens of a random preorder on n points, closed with
    ``_closure``; the density varies so that both verdicts occur."""
    density = rng.random()
    rows = [sum(1 << j for j in range(n) if j != i and rng.random() < density) for i in range(n)]
    return fs._closure(rows)


def test_openness_by_inclusion_matches_the_down_set_walk():
    """The openness lemma against the walk it replaced, on 20,000 random
    pairs of coherent families on up to 9 points: as a map (random
    targets, every image walked) and as the identity map of
    ``fell_check`` (every mask walked, the first not-open one included)."""
    rng = random.Random(2540)
    verdicts = collections.Counter()
    for _ in range(20_000):
        n = rng.randint(1, 9)
        dom, cod = _random_preorder(rng, n), _random_preorder(rng, n)
        targets = [rng.randrange(n) for _ in range(n)]
        walked = reference_scan_masks(dom, cod, targets)
        assert fs._scan_masks(dom, cod, targets, [1 << t for t in targets]) == walked[:3]
        first = next((m for m, u in enumerate(dom) if not reference_is_open(cod, u)), None)
        space = fs.FinSpace(range(n), cod)
        assert next((m for m, u in enumerate(dom) if not space.is_open_bits(u)), None) == first
        assert fs._scan_masks(dom, cod, range(n), [1 << m for m in range(n)])[1] == (first is None)
        verdicts[walked[1], first is None] += 1
    assert set(verdicts) == {(True, True), (True, False), (False, True), (False, False)}


def _fault(points, masks):
    try:
        fs.FinSpace(points, masks)
    except fs.InvalidSpace as err:
        return str(err)
    return None


def test_space_faults_match_the_inline_coherence_walk():
    """Every fault is named as the inline walk named it, point by point:
    the self-missing, out-of-range and coherence checks of each point
    before any check of the next, and the first incoherent point j."""
    cases = [
        (("a", "a"), [1, 3]),
        (("a", "b"), [1, 2, 4]),
        (("a", "b", "c"), [0b010, 0b010, 0b100]),
        (("a", "b", "c"), [0b011, 0b110, 0b100]),
        (("a", "b", "c"), [0b001, 0b010, 0b1100]),
        (("a", "b", "c"), [0b111, 0b010, 0b1100]),
        (("a", "b", "c"), [0b111, 0b110, 0b001]),
    ]
    rng = random.Random(21)
    for _ in range(3000):
        n = rng.randint(1, 5)
        masks = list(rng.choice(all_topologies(min(n, 4)))._mo) + [1 << 4] * (n - 4)
        for _ in range(rng.randint(1, 3)):
            masks[rng.randrange(n)] ^= 1 << rng.randrange(n + 2)
        cases.append(("abcde"[:n], masks))
    kinds, seen = ("duplicate", "one mask", "missing", "unknown", "incoherent"), set()
    for points, masks in cases:
        ref = reference_space_fault(points, masks)
        assert _fault(points, masks) == (None if ref is None else str(ref)), (points, masks)
        seen.update(k for k in kinds if k in str(ref))
    assert seen == set(kinds)


def test_coherence_verdicts_match_the_loop_on_every_construction():
    """Each construction raises what the per-construction loop raised,
    named by its own labels: every corpus topology of at most 4 points,
    and random masks of at most 8 points with missing self bits, foreign
    bits and incoherent pairs, each built twice under two labellings."""
    rng = random.Random(24)
    cases = [tuple(s._mo) for n in range(1, 5) for s in all_topologies(n)]
    corpus_cases = len(cases)
    for _ in range(1500):
        masks = list(random_space(rng.randrange(10**6), 8)._mo)
        n = len(masks)
        for _ in range(rng.randint(0, 2)):
            i, kind = rng.randrange(n), rng.choice(("self", "foreign", "incoherent"))
            if kind == "self":
                masks[i] &= ~(1 << i)
            elif kind == "foreign":
                masks[i] |= 1 << rng.randrange(n, n + 3)
            else:
                outside = [j for j in range(n) if masks[j] & ~(masks[i] | 1 << j)]
                if outside:
                    masks[i] |= 1 << rng.choice(outside)
        cases.append(tuple(masks))
    seen = collections.Counter()
    for k, mo in enumerate(cases):
        for points in (tuple(range(len(mo))), tuple(f"p{i}" for i in rng.sample(range(len(mo)), len(mo)))):
            try:
                reference_coherence_loop(points, mo)
                want = None
            except fs.InvalidSpace as err:
                want = str(err)
            assert k >= corpus_cases or want is None, mo
            assert _fault(points, list(mo)) == want, (points, mo)
            assert _fault(points, mo) == want, (points, mo)
            seen[next((w for w in ("missing", "unknown", "incoherent") if w in str(want)), want)] += 1
    assert set(seen) == {None, "missing", "unknown", "incoherent"}, seen
    # a float mask equal to an int mask that builds fails as the loop fails on it
    fs.FinSpace(["a", "b"], [1, 2])
    with pytest.raises(TypeError):
        fs.FinSpace(["a", "b"], [1.0, 2])


def test_cover_resolution_matches_the_walk_it_replaced():
    """Random covers of locally Hausdorff spaces by open Hausdorff sets:
    the minimal opens in random order, some joined to the one before
    while the union stays Hausdorff, then some repeated."""
    rng = random.Random(21)
    spaces = [s for n in range(1, 5) for s in all_topologies(n)] + [random_space(s, 8) for s in range(300)]
    checked = 0
    for space in spaces:
        mo = [space.min_open_bits(i) for i in range(len(space))]
        if not all(space._subspace_hausdorff(m) for m in mo):
            continue
        for _ in range(4):
            masks = []
            for m in rng.sample(mo, len(mo)):
                if masks and rng.random() < 0.4 and space._subspace_hausdorff(masks[-1] | m):
                    masks[-1] |= m
                else:
                    masks.append(m)
            masks += rng.sample(masks, rng.randrange(len(masks) + 1))
            y, _ = fs.hausdorff_cover_resolution(space, [space.unbits(m) for m in masks])
            assert (list(y.points), list(y._mo)) == reference_cover_resolution(space, masks)
            checked += 1
    assert checked > 250
