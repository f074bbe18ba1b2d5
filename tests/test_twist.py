import collections
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from groupoidlab import calgebra as ca
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import serialize
from groupoidlab import twist as tw
from groupoidlab.corpus import all_partitions, all_topologies, random_partition, random_space
from groupoidlab.errors import InternalCheckFailure
from groupoidlab.modlin import solve_mod
from helpers import (
    BIG_MODULI,
    compositions,
    dense_pair_id,
    inverse_map,
    label_cocycle,
    label_groupoid,
    label_space,
    min_open,
    product_group,
    reference_principal_witness,
)


def pair_groupoid(points):
    y = fs.discrete(tuple(points))
    x = fs.discrete(("*",))
    return gp.build_relation_groupoid(fs.SpaceMap(y, x, {p: "*" for p in points}))


def random_cochain(rng, groupoid, n):
    values = {
        m: rng.randrange(n) for m in groupoid.morphisms if m not in groupoid.units
    }
    return tw.OneCochain(groupoid, n, values)


# -- two-cocycles ---------------------------------------------------------------


def test_trivial_cocycle_valid():
    g = pair_groupoid((1, 2, 3))
    assert tw.verify_two_cocycle(tw.TwoCocycle.trivial(g, 5)).valid


def test_coboundary_always_valid():
    rng = random.Random(0)
    for _ in range(20):
        g = pair_groupoid(range(rng.randint(1, 4)))
        n = rng.randint(1, 8)
        sigma = tw.coboundary_twist(random_cochain(rng, g, n))
        assert tw.verify_two_cocycle(sigma).valid


def test_perturbed_cocycle_invalid_with_listed_triple():
    g = pair_groupoid((1, 2))
    sigma = tw.TwoCocycle.trivial(g, 4).shift(((1, 2), (2, 1)), 1)
    report = tw.verify_two_cocycle(sigma)
    assert not report.valid
    # the perturbed pair appears in some violated triple
    assert any(
        (a, b) == ((1, 2), (2, 1)) or (b, c) == ((1, 2), (2, 1))
        for (a, b, c) in report.identity_violations
    ) or report.normalization_violations


def test_coboundary_example_value():
    g = pair_groupoid((1, 2))
    b = tw.OneCochain(g, 4, {(1, 2): 1, (2, 1): 3})
    db = tw.coboundary_twist(b)
    assert db.table[((1, 2), (2, 1))] == (1 + 3 - 0) % 4 == 0
    zero = tw.coboundary_twist(tw.OneCochain(g, 4, {}))
    assert zero == tw.TwoCocycle.trivial(g, 4)


def test_cochain_rejects_an_unknown_morphism_and_a_unit_value():
    g = pair_groupoid((1, 2))
    with pytest.raises(tw.CocycleError, match=r"cochain value on unknown morphism \(1, 3\)"):
        tw.OneCochain(g, 4, {(1, 3): 1})
    with pytest.raises(tw.CocycleError, match=r"cochain does not vanish on unit \(2, 2\)"):
        tw.OneCochain(g, 4, {(2, 2): 1})
    assert tw.OneCochain(g, 4, {(2, 2): 4})((2, 2)) == 0


UNIT_VALUES = """
from groupoidlab import finspace as fs
from groupoidlab import groupoid as gp
from groupoidlab import twist as tw

points = "abcd"
g = gp.build_relation_groupoid(fs.SpaceMap(fs.discrete(points), fs.discrete("*"), dict.fromkeys(points, "*")))
try:
    tw.OneCochain(g, 4, {(p, p): 1 for p in points})
except tw.CocycleError as err:
    print(err)
"""


def test_cochain_names_the_lowest_numbered_unit_at_every_hash_seed():
    # the units are a frozenset of str labels, whose order follows the hash seed
    named = set()
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": str(pathlib.Path(tw.__file__).parent.parent)}
        proc = subprocess.run([sys.executable, "-c", UNIT_VALUES], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        named.add(proc.stdout.strip())
    assert named == {"cochain does not vanish on unit ('a', 'a')"}


def test_principal_class_with_a_unit_value_is_not_a_coboundary():
    # diff(u, u) != 0 at the unit u = (1, 1), which no db reaches
    g = pair_groupoid((1, 2))
    shifted = tw.TwoCocycle.trivial(g, 4).shift(((1, 1), (1, 1)), 1)
    assert tw._principal_witness(shifted) is None
    assert tw.are_cohomologous(shifted, tw.TwoCocycle.trivial(g, 4)) is None


def test_shift_on_a_non_composable_pair_raises():
    g = gp.build_relation_groupoid(fs.SpaceMap(fs.discrete((1, 2, 3)), fs.discrete(("*", "**")),
                                               {1: "*", 2: "*", 3: "**"}))
    with pytest.raises(tw.CocycleError, match=r"non-composable pair \(\(1, 2\),\(3, 3\)\)"):
        tw.TwoCocycle.trivial(g, 3).shift(((1, 2), (3, 3)), 1)


def test_missing_entry_error():
    # a table that leaves pairs out is refused where it is read, naming
    # the first one left out in pair order
    rng = random.Random(29)
    for g in (pair_groupoid((1, 2)), pair_groupoid((1, 2, 3)), product_group(2, 3)):
        pairs = g.composable_pairs()
        for _ in range(20):
            dropped = rng.sample(pairs, rng.randint(1, 4))
            with pytest.raises(tw.CocycleError) as err:
                label_cocycle(g, 4, {p: 0 for p in pairs if p not in dropped})
            a, b = next(p for p in pairs if p in dropped)
            assert str(err.value) == f"cocycle table missing composable pair ({a!r},{b!r}) (at //table)"
            assert err.value.code == "MISSING_ENTRY"


def test_unit_pair_is_one_normalization_violation():
    # (u, u) is both (r(u), u) and (u, s(u)), and is reported once
    elems = range(3)
    z3 = label_groupoid(
        fs.discrete(elems), [0], dict.fromkeys(elems, 0), dict.fromkeys(elems, 0),
        {(a, b): (a + b) % 3 for a in elems for b in elems}, {a: -a % 3 for a in elems},
    )
    report = tw.verify_two_cocycle(tw.TwoCocycle.trivial(z3, 3).shift((0, 0), 1))
    assert report.normalization_violations == ((0, 0),)
    g = pair_groupoid((1, 2))
    sigma = tw.TwoCocycle.trivial(g, 4).shift(((2, 2), (2, 2)), 1).shift(((1, 1), (1, 2)), 3)
    assert tw.verify_two_cocycle(sigma).normalization_violations == (((1, 1), (1, 2)), ((2, 2), (2, 2)))


def loop_verify(sigma):
    """The cocycle check as the plain loop it used to be: the reference
    for the vectorized verify_two_cocycle."""
    g, n, m = sigma.groupoid, sigma.n, sigma.groupoid.morphisms

    def value(a, b):
        return sigma.table[(a, b)]

    # (u, u) is both (r(u), u) and (u, s(u)); it is listed once
    norm = list(dict.fromkeys(p for a in m for p in ((g.range_map[a], a), (a, g.source_map[a])) if value(*p) % n))
    ident = [
        (a, b, c)
        for a in m for b in m if g.source_map[a] == g.range_map[b] for c in m if g.source_map[b] == g.range_map[c]
        if (value(a, b) + value(g.compose[(a, b)], c)
            - value(b, c) - value(a, g.compose[(b, c)])) % n
    ]
    return tw.CocycleReport(not norm and not ident, tuple(norm), tuple(ident))


def test_verify_matches_loop_reference():
    rng = random.Random(3)
    for g in (pair_groupoid((1, 2, 3)), pair_groupoid((1, 2))):
        pairs = g.composable_pairs()
        for _ in range(20):
            sigma = tw.coboundary_twist(random_cochain(rng, g, 6))
            for pair in rng.sample(pairs, rng.randint(0, 3)):
                sigma = sigma.shift(pair, rng.randint(1, 5))
            assert tw.verify_two_cocycle(sigma) == loop_verify(sigma)


# -- cohomologousness -------------------------------------------------------------


def test_equal_cocycles_zero_witness():
    g = pair_groupoid((1, 2))
    sigma = tw.coboundary_twist(tw.OneCochain(g, 4, {(1, 2): 2}))
    b = tw.are_cohomologous(sigma, sigma)
    assert b is not None
    assert all(v == 0 for v in b.values.values())


def test_any_cocycle_on_pair_groupoid_is_coboundary():
    rng = random.Random(1)
    g = pair_groupoid((1, 2, 3))
    for n in (2, 3, 4, 6):
        for _ in range(5):
            sigma = tw.coboundary_twist(random_cochain(rng, g, n))
            b = tw.are_cohomologous(sigma, tw.TwoCocycle.trivial(g, n))
            assert b is not None
            assert tw.coboundary_twist(b) == sigma


def test_witness_matches_shift():
    rng = random.Random(2)
    g = pair_groupoid((1, 2, 3))
    n = 6
    base = tw.coboundary_twist(random_cochain(rng, g, n))
    b0 = random_cochain(rng, g, n)
    shifted = label_cocycle(
        g,
        n,
        {p: base.table[p] + tw.coboundary_twist(b0).table[p] for p in g.composable_pairs()},
    )
    b = tw.are_cohomologous(shifted, base)
    assert b is not None
    db, db0 = tw.coboundary_twist(b), tw.coboundary_twist(b0)
    assert all(db.table[p] == db0.table[p] for p in g.composable_pairs())


def shuffled_table(g: gp.FinGroupoid, rng: random.Random) -> gp.FinGroupoid:
    """g read from a ``fingroupoid/1`` document that lists its morphisms,
    labelled m0, m1, ..., in a random order, so the numbering and the
    orbit bases differ from g's."""
    labels = [f"m{i}" for i in range(len(g))]
    points = rng.sample(labels, len(labels))
    table = lambda idx: dict(zip(labels, (labels[i] for i in idx.tolist())))
    return serialize.groupoid_from_json({
        "schema": "fingroupoid/1",
        "topology": {"schema": "finspace/1", "points": points,
                     "min_open": {labels[i]: [labels[j] for j in fs._iter_bits(m)] for i, m in enumerate(g.topology._mo)}},
        "units": [labels[u] for u in np.flatnonzero(g.unit_mask).tolist()],
        "range": table(g.range_idx), "source": table(g.source_idx), "inverse": table(g.inverse_idx),
        "compose": [[labels[a], labels[b], labels[c]] for a, b, c in zip(*(p.tolist() for p in g.pairs))],
    })


def witness_outcome(find, diff):
    """The values of the cochain ``find`` returns, None, or the text of
    the ``CocycleError`` it raises."""
    try:
        b = find(diff)
    except tw.CocycleError as err:
        return str(err)
    return None if b is None else b.values


def test_principal_witness_matches_the_table_by_both_ends():
    rng = random.Random(2207)
    groupoids = []
    for _ in range(60):
        space = random_space(rng.randrange(10**6), 5)
        relation = gp.build_relation_groupoid(fs.quotient_space(space, random_partition(rng, space.points))[1])
        groupoids += [relation, shuffled_table(relation, rng)]
    outcomes = set()
    for g in groupoids:
        assert g.principal
        n = rng.choice((2, 3, 4, 6))
        sigma = tw.coboundary_twist(random_cochain(rng, g, n))
        cases = [sigma, tw.TwoCocycle.trivial(g, n)]
        if len(g.pairs[0]) > len(g):
            k = rng.choice(np.flatnonzero(~g.unit_mask[g.pairs[0]] & ~g.unit_mask[g.pairs[1]]).tolist())
            cases.append(sigma.shift((g.morphisms[g.pairs[0][k]], g.morphisms[g.pairs[1][k]]), 1))
        for diff in cases:
            got = witness_outcome(tw._principal_witness, diff)
            assert got == witness_outcome(reference_principal_witness, diff)
            outcomes.add(type(got))
    assert outcomes == {dict, type(None)}, outcomes


def test_non_cohomologous_detected_on_group():
    # Z/2 as a one-unit groupoid; sigma(g,g)=1 mod 2 is the extension
    # Z/4 and is not a coboundary (b(g) free gives db(g,g) = 2b(g) = 0)
    topo = fs.discrete(("e", "g"))
    grp = label_groupoid(
        topo,
        units=["e"],
        range_map={"e": "e", "g": "e"},
        source_map={"e": "e", "g": "e"},
        compose={("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        inverse={"e": "e", "g": "g"},
    )
    sigma = label_cocycle(
        grp, 2, {("e", "e"): 0, ("e", "g"): 0, ("g", "e"): 0, ("g", "g"): 1}
    )
    assert tw.verify_two_cocycle(sigma).valid
    assert tw.are_cohomologous(sigma, tw.TwoCocycle.trivial(grp, 2)) is None


def test_mismatched_footing_rejected():
    g1 = pair_groupoid((1, 2))
    g2 = pair_groupoid((1, 2))
    with pytest.raises(tw.CocycleError):
        tw.are_cohomologous(tw.TwoCocycle.trivial(g1, 2), tw.TwoCocycle.trivial(g2, 2))
    with pytest.raises(tw.CocycleError):
        tw.are_cohomologous(tw.TwoCocycle.trivial(g1, 2), tw.TwoCocycle.trivial(g1, 3))


def full_system_solvable(sigma):
    """The verdict of every equation b(x) + b(y) - b(xy) = sigma(x, y),
    one per composable pair, in the non-unit values of b."""
    g = sigma.groupoid
    pa = g.pairs[0]
    rows = np.zeros((len(pa), len(g.morphisms)), dtype=np.int64)
    for ends, c in zip(g.pairs, (1, 1, -1)):
        np.add.at(rows, (np.arange(len(pa)), ends), c)
    free = ~g.unit_mask
    if not free.any():
        return not sigma.values.any()
    return solve_mod(rows[:, free], sigma.values, sigma.n).solvable


def s3_from_table():
    """S3 read from a fingroupoid/1 document; labels are permutations of
    012 as strings."""
    perms = ["".join(map(str, p)) for p in itertools.permutations(range(3))]
    compose = [[p, q, "".join(p[int(i)] for i in q)] for p in perms for q in perms]
    inverse = {p: "".join(str(p.index(str(i))) for i in range(3)) for p in perms}
    doc = {
        "schema": "fingroupoid/1",
        "topology": {"schema": "finspace/1", "points": perms, "min_open": {p: [p] for p in perms}},
        "units": ["012"], "range": {p: "012" for p in perms}, "source": {p: "012" for p in perms},
        "compose": compose, "inverse": inverse,
    }
    return serialize.groupoid_from_json(doc)


def odd(p):
    return sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2


def oracle_cases():
    """(groupoid, n, carry) with carry a class that need not be trivial."""
    for a, b in ((2, 3), (4, 1), (2, 2), (2, 4), (3, 3), (6, 2)):
        g = product_group(a, b)
        for n in (a, 2 * a, 6):
            yield g, n, {(x, y): (n // math.gcd(n, a)) * ((x[0] + y[0]) // a) for x, y in g.composable_pairs()}
    s3 = s3_from_table()
    for n in (2, 3, 4, 6):
        yield s3, n, {(x, y): n // 2 * (odd(x) & odd(y)) if n % 2 == 0 else 0 for x, y in s3.composable_pairs()}
    for size, n in ((1, 3), (2, 2), (3, 2), (2, 4)):
        # Z_n x (a pair groupoid): from two points on, several units with
        # isotropy Z_n, and the lowest-numbered non-unit joins two units,
        # so it generates no group
        base = pair_groupoid(range(size))
        ext = tw.extension_groupoid(base, tw.TwoCocycle.trivial(base, n))
        yield ext, n, {(x, y): (x[0] + y[0]) // n for x, y in ext.composable_pairs()}
    rng = random.Random(31)
    for _ in range(4):
        space = random_space(rng.randrange(10**6), 4)
        psi = fs.quotient_space(space, random_partition(rng, space.points))[1]
        base = gp.build_relation_groupoid(psi)
        n = rng.choice((2, 3, 4))
        ext = tw.extension_groupoid(base, tw.coboundary_twist(random_cochain(rng, base, n)))
        yield ext, n, {(x, y): (x[0] + y[0]) // n for x, y in ext.composable_pairs()}


@pytest.fixture
def forest_spy(monkeypatch):
    """The column count of each system that ``are_cohomologous`` hands
    ``solve_mod``, and each certificate it lifts onto the kept pairs."""
    seen = {"columns": [], "certificates": []}
    lift = tw._lift_certificate

    def record(*args):
        seen["certificates"].append(lift(*args))
        return seen["certificates"][-1]

    monkeypatch.setattr(tw, "solve_mod", lambda a, b, n: seen["columns"].append(a.shape[1]) or solve_mod(a, b, n))
    monkeypatch.setattr(tw, "_lift_certificate", record)
    return seen


def certificate_holds(sigma, certificate):
    """Whether weights on the numbered pairs, zero where ``certificate``
    names none, clear every non-unit column of the equations
    b(x) + b(y) - b(xy) = sigma(x, y) on all composable pairs and sum to
    a nonzero value on sigma, mod n, in Python integers."""
    g, n = sigma.groupoid, sigma.n
    weights = [certificate.get(k, 0) for k in range(len(g.pairs[0]))]
    column = [0] * len(g)
    for w, x, y, xy in zip(weights, *(ends.tolist() for ends in g.pairs)):
        column[x] += w
        column[y] += w
        column[xy] -= w
    cleared = all(c % n == 0 for c, unit in zip(column, g.unit_mask.tolist()) if not unit)
    return cleared and sum(w * v for w, v in zip(weights, sigma.values.tolist())) % n != 0


def decide_against_all_pairs(sigma, seen):
    """``are_cohomologous(sigma, 0)``, checked against the full system:
    the verdict is that of every equation, a witness untwists sigma, each
    lifted certificate holds on every pair, a valid class without a
    witness has one, and ``solve_mod`` gets at most |S| columns.  Returns
    the verdict and whether a certificate came with it."""
    g = sigma.groupoid
    seen["columns"].clear()
    seen["certificates"].clear()
    b = tw.are_cohomologous(sigma, tw.TwoCocycle.trivial(g, sigma.n))
    assert (b is not None) == full_system_solvable(sigma)
    if b is not None:
        assert tw.coboundary_twist(b) == sigma
    elif not g.principal and tw.verify_two_cocycle(sigma).valid:
        assert len(seen["certificates"]) == 1
    assert all(certificate_holds(sigma, c) for c in seen["certificates"])
    generators = np.count_nonzero(g.generating_mask & ~g.unit_mask)
    assert all(k <= generators for k in seen["columns"])
    return b is not None, bool(seen["certificates"])


def test_generator_equations_agree_with_all_pairs(forest_spy):
    rng = random.Random(1207)
    verdicts = set()
    non_loop_first = 0
    for g, n, carry in oracle_cases():
        assert not gp.groupoid_properties(g).principal
        first = int(np.argmin(g.unit_mask))
        non_loop_first += g.range_idx[first] != g.source_idx[first]
        pairs = g.composable_pairs()
        cob = tw.coboundary_twist(random_cochain(rng, g, n))
        carried = label_cocycle(g, n, {p: cob.table[p] + carry[p] for p in pairs})
        unit_pair = next(p for p in pairs if p[0] in g.units and p[1] not in g.units)
        cases = [cob, carried, cob.shift(unit_pair, 1)]  # the last is not normalized
        cases.append(label_cocycle(g, n, {p: rng.randrange(n) for p in pairs}))
        cases.append(carried.shift(rng.choice(pairs), rng.randrange(1, n)))
        for sigma in cases:
            solvable, _ = decide_against_all_pairs(sigma, forest_spy)
            verdicts.add((tw.verify_two_cocycle(sigma).valid, solvable))
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert non_loop_first >= 4
    # groups, extensions and matrix-unit groupoids at small and big moduli,
    # a coboundary and one entry shifted (off the units where the groupoid
    # is principal, since _principal_witness reads a normalized table)
    outcomes = collections.Counter()
    for g in generator_cases():
        pairs = [p for p in g.composable_pairs() if not g.principal or not {*p} & g.units]
        for n in (2, 3, 4, 6, 12) + BIG_MODULI:
            cob = tw.coboundary_twist(random_cochain(rng, g, n))
            shifted = [cob.shift(rng.choice(pairs), rng.randrange(1, n))] if pairs else []
            for sigma in [cob, *shifted]:
                outcomes[decide_against_all_pairs(sigma, forest_spy)] += 1
    assert outcomes[True, False] >= 500 and outcomes[False, True] >= 250, outcomes


def test_generator_equations_are_few():
    g = product_group(6, 6)
    assert np.count_nonzero(g.generating_mask[g.pairs[1]]) == 108 < len(g.pairs[0]) == 1296


def sweep_verify(sigma):
    """``verify_two_cocycle`` as it was before the generator-triple rule:
    the identity on every composable triple, block by block in triple
    order."""
    g, n, m = sigma.groupoid, sigma.n, sigma.groupoid.morphisms
    pa, pb, pc = g.pairs
    every = np.arange(len(m))
    pair_id = dense_pair_id(g)
    norm = np.stack([pair_id[g.range_idx, every], pair_id[every, g.source_idx]], axis=1).ravel()
    v = sigma.values
    norm = norm[v[norm] != 0]
    norm = norm[np.sort(np.unique(norm, return_index=True)[1])]  # each pair once
    ident_bad = []
    for ab, bc in g.triple_join():
        terms = (ab, pair_id[pc[ab], pb[bc]], bc, pair_id[pa[ab], pc[bc]])
        bad = (v[terms[0]] + v[terms[1]] - v[terms[2]] - v[terms[3]]) % n != 0
        ident_bad += zip(pa[ab[bad]].tolist(), pb[ab[bad]].tolist(), pb[bc[bad]].tolist())
    norm_bad = tuple((m[a], m[b]) for a, b in zip(pa[norm], pb[norm]))
    ident_bad = tuple((m[a], m[b], m[c]) for a, b, c in ident_bad)
    return tw.CocycleReport(not norm_bad and not ident_bad, norm_bad, ident_bad)


def test_generator_triples_decide_the_identity_as_the_full_sweep():
    rng = random.Random(12)
    groupoids = {id(g): (g, n) for g, n, _ in oracle_cases()}
    for g, sigma in itertools.islice(extension_cases(), 0, None, 5):
        if sigma.n > 1 and tw.verify_two_cocycle(sigma).valid:
            groupoids[id(sigma)] = (tw.extension_groupoid(g, sigma), rng.randint(2, 6))
    seen = {"valid": 0, "invalid": 0}
    for g, n in groupoids.values():
        assert not gp.groupoid_properties(g).principal
        pairs = g.composable_pairs()
        cob = tw.coboundary_twist(random_cochain(rng, g, n))
        cases = [cob, label_cocycle(g, n, {p: rng.randrange(n) for p in pairs})]
        # one entry shifted, on non-unit pairs so that normalization holds
        inner = [p for p in pairs if p[0] not in g.units and p[1] not in g.units]
        cases += [cob.shift(p, rng.randrange(1, n)) for p in rng.sample(inner, min(len(inner), 12))]
        for sigma in cases:
            report = tw.verify_two_cocycle(sigma)
            assert report == sweep_verify(sigma)
            seen["valid" if report.valid else "invalid"] += 1
    assert seen["valid"] >= 50 and seen["invalid"] >= 500, seen


def reference_generator_pairs(g):
    """The greedy generator rows as ``are_cohomologous`` chose them before
    the generating set was kept on the groupoid: each step adds the
    lowest-numbered morphism outside the closure of the units and the
    set so far, and the closure grows by passes over the pairs."""
    pa, pb, pc = g.pairs
    closed, kept = g.unit_mask.copy(), g.unit_mask.copy()
    while not closed.all():
        s = int(np.argmin(closed))
        closed[s] = kept[s] = True
        while True:
            size = closed.sum()
            closed[pc[closed[pa] & closed[pb]]] = True
            if closed.sum() == size:
                break
    return np.flatnonzero(kept[pb])


def generator_cases():
    """Groups, extensions and matrix-unit groupoids."""
    for g, _, _ in oracle_cases():
        yield g
    for g, sigma in itertools.islice(extension_cases(), 0, None, 7):
        if tw.verify_two_cocycle(sigma).valid:
            yield tw.extension_groupoid(g, sigma)
    for blocks in ({0: (1,)}, {0: (1, 2, 3)}, {0: (1, 2), 1: (1, 2, 3, 4)}, {k: range(k + 1) for k in range(4)}):
        yield ca.matrix_unit_groupoid(blocks).groupoid


def test_pair_number_matches_the_dense_table():
    """``pair_number`` on every (a, b), -1 included, against the n x n
    table the pairs fill: on groups, extensions and matrix-unit
    groupoids, on every pair-groupoid index of at most 8 points, and on
    the extension of a pair groupoid by a cocycle."""
    base = pair_groupoid((1, 2, 3))
    cases = [*generator_cases(), *(gp.pair_groupoid_index(s) for n in range(9) for s in compositions(n))]
    cases.append(tw.extension_groupoid(base, tw.coboundary_twist(tw.OneCochain(base, 3, {(1, 2): 1, (3, 1): 2}))))
    for g in cases:
        every = np.arange(len(g.range_idx))
        got = g.pair_number(every[:, None], every[None, :])
        assert np.array_equal(got, dense_pair_id(g))


def test_cached_generators_match_the_greedy_reference(forest_spy):
    rng = random.Random(417)
    kinds, outcomes = set(), set()
    for g in generator_cases():
        kinds.add((len(g.units) > 1, gp.groupoid_properties(g).principal))
        want = reference_generator_pairs(g)
        assert np.array_equal(np.flatnonzero(g.generating_mask[g.pairs[1]]), want)
        assert g.generating_mask is g.generating_mask  # computed once
        if g.principal:
            continue
        free = ~g.unit_mask
        if not free.any():
            continue
        expect = np.zeros((want.size, len(g)), dtype=np.int64)
        for ends, c in zip(g.pairs, (1, 1, -1)):
            np.add.at(expect, (np.arange(want.size), ends[want]), c)
        # a class off the coboundaries and a coboundary are decided as on
        # the kept rows, and the certificate or witness holds on them
        shifted = tw.TwoCocycle.trivial(g, 5).shift((g.morphisms[0], g.morphisms[0]), 1)
        for sigma in (shifted, tw.coboundary_twist(random_cochain(rng, g, 5))):
            forest_spy["certificates"].clear()
            b = tw.are_cohomologous(sigma, tw.TwoCocycle.trivial(g, 5))
            a, rhs = expect[:, free], sigma.values[want]
            assert (b is not None) == solve_mod(a, rhs, 5).solvable
            if b is not None:
                x = np.array([b.values[g.morphisms[m]] for m in np.flatnonzero(free).tolist()])
                assert not ((a @ x - rhs) % 5).any()
                outcomes.add("witness")
            else:
                (certificate,) = forest_spy["certificates"]
                assert set(certificate) <= set(want.tolist())
                u = np.array([certificate.get(k, 0) for k in want.tolist()])
                assert not (u @ a % 5).any() and u @ rhs % 5
                outcomes.add("certificate")
    assert kinds == {(False, False), (True, False), (False, True), (True, True)}
    assert outcomes == {"witness", "certificate"}


# Z/6 as a one-unit groupoid, for the -O subprocess scripts
Z6 = """
from groupoidlab import finspace as fs, twist as tw
from groupoidlab.errors import InternalCheckFailure
from groupoidlab.modlin import ModSolveResult
from helpers import label_groupoid

elems = range(6)
g = label_groupoid(
    fs.discrete(elems), [0], dict.fromkeys(elems, 0), dict.fromkeys(elems, 0),
    {(a, b): (a + b) % 6 for a in elems for b in elems}, {a: -a % 6 for a in elems},
)
"""

MISMATCH = Z6 + """
# a forced wrong witness: b(1) = 0, so b(k) is the constant of the tree
# path 1, 2, ..., k, checked against every pair.  Mod 4 that is no
# witness, as the kept row (5, 1) reads 6 b(1) = 2 b(1) = 2 (mod 4) for
# the coboundary of b(1) = 1.
tw.solve_mod = lambda a, b, n: ModSolveResult(n, (0,) * a.shape[1], None)
coboundary = tw.coboundary_twist(tw.OneCochain(g, 4, {1: 1}))
invalid = tw.TwoCocycle.trivial(g, 4).shift((1, 2), 1)
print(tw.are_cohomologous(invalid, tw.TwoCocycle.trivial(g, 4)))
try:
    tw.are_cohomologous(coboundary, tw.TwoCocycle.trivial(g, 4))
except InternalCheckFailure:
    print("raised")
"""


def run_under_python_O(script):
    paths = (pathlib.Path(tw.__file__).parent.parent, pathlib.Path(__file__).parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_witness_mismatch_raises_under_python_O():
    # a mismatch on a table that is not a cocycle is a verdict (None);
    # on a valid cocycle it is an internal failure, also under -O
    assert run_under_python_O(MISMATCH) == ["None", "raised"]


BAD_CERTIFICATE = Z6 + """
# mod 4 the carry class leaves one reduced row, from the kept pair
# (5, 1): 6 b(1) = 2 b(1) = 1.  Its certificate is weight 2; weight 1
# leaves the column of b(1) uncleared, and weight 4 clears it but sums to
# 0 on the cocycle
carry = tw.TwoCocycle.from_values(g, 4, [(a + b) // 6 for a in elems for b in elems])
for weight in (1, 4):
    tw.solve_mod = lambda a, b, n: ModSolveResult(n, None, (weight,) * a.shape[0])
    try:
        tw.are_cohomologous(carry, tw.TwoCocycle.trivial(g, 4))
    except InternalCheckFailure as err:
        print("raised" if "kept pairs" in str(err) else err)
"""


def test_wrong_reduced_certificate_raises_under_python_O():
    # a certificate of the reduced system is checked again on the kept
    # rows once it is lifted, also under -O
    assert run_under_python_O(BAD_CERTIFICATE) == ["raised", "raised"]


def test_forest_that_misses_a_morphism_raises():
    g = product_group(2, 3)
    # a generating mask of the units alone reaches no other morphism
    g.layout.__dict__["generating_mask"] = g.unit_mask.copy()
    sigma = tw.TwoCocycle.trivial(g, 6)
    with pytest.raises(InternalCheckFailure, match="misses a morphism"):
        tw.are_cohomologous(sigma, sigma)


# -- extension groupoid --------------------------------------------------------------


def test_extension_trivial_is_direct_product():
    g = pair_groupoid((1, 2))
    ext = tw.extension_groupoid(g, tw.TwoCocycle.trivial(g, 2))
    assert len(ext.morphisms) == 8
    assert ext.compose[((0, (1, 2)), (1, (2, 1)))] == (1, (1, 1))


def test_extension_associativity_for_valid_cocycles():
    rng = random.Random(3)
    for _ in range(10):
        g = pair_groupoid(range(rng.randint(1, 3)))
        n = rng.randint(1, 4)
        sigma = tw.coboundary_twist(random_cochain(rng, g, n))
        ext = tw.extension_groupoid(g, sigma)  # constructor verifies axioms
        assert len(ext.morphisms) == n * len(g.morphisms)


def test_extension_fails_at_injected_violation():
    g = pair_groupoid((1, 2))
    sigma = tw.TwoCocycle.trivial(g, 4).shift(((1, 2), (2, 1)), 1)
    with pytest.raises(gp.GroupoidAxiomError) as err:
        tw.extension_groupoid(g, sigma)
    assert "associativity" in str(err.value)
    assert err.value.witness is not None


def test_extension_rejects_foreign_cocycle():
    g1, g2 = pair_groupoid((1, 2)), pair_groupoid((1, 2))
    with pytest.raises(tw.CocycleError):
        tw.extension_groupoid(g1, tw.TwoCocycle.trivial(g2, 2))


def reference_extension(groupoid, sigma):
    """Z_n x G from dict tables of labels, reading sigma entry by entry."""
    n, inv = sigma.n, inverse_map(groupoid)
    morphs = [(z, m) for z in range(n) for m in groupoid.morphisms]
    mo = {(z, m): {(z, m2) for m2 in min_open(groupoid.topology, m)} for (z, m) in morphs}
    inverse = {(z, m): ((-z - sigma.table[(m, inv[m])]) % n, inv[m]) for (z, m) in morphs}
    compose = {}
    for (a, b) in groupoid.composable_pairs():
        for w in range(n):
            for z in range(n):
                compose[((w, a), (z, b))] = ((w + z + sigma.table[(a, b)]) % n, groupoid.compose[(a, b)])
    return label_groupoid(
        label_space(morphs, mo),
        [(0, u) for u in groupoid.units],
        {(z, m): (0, groupoid.range_map[m]) for (z, m) in morphs},
        {(z, m): (0, groupoid.source_map[m]) for (z, m) in morphs},
        compose,
        inverse,
    )


def cyclic_group(order):
    """Z/order as a one-unit groupoid with the discrete topology."""
    elems = tuple(range(order))
    return label_groupoid(
        fs.discrete(elems), [0], {a: 0 for a in elems}, {a: 0 for a in elems},
        {(a, b): (a + b) % order for a in elems for b in elems}, {a: -a % order for a in elems},
    )


def extension_cases():
    """Relation groupoids from a seeded sample of the quotient maps on at
    most 4 points and of seeded random spaces, with coboundaries and
    random tables of orders 1 to 5, and Z/a with its carry cocycle, whose
    class is not a coboundary."""
    rng = random.Random(1207)
    maps = [
        fs.quotient_space(space, part)[1]
        for size in range(1, 5)
        for space in all_topologies(size)
        for part in all_partitions(space.points)
    ]
    maps = rng.sample(maps, 150)
    for _ in range(20):
        space = random_space(rng.randrange(10**6), 6)
        maps.append(fs.quotient_space(space, random_partition(rng, space.points))[1])
    for psi in maps:
        g = gp.build_relation_groupoid(psi)
        n = rng.randint(1, 5)
        yield g, tw.coboundary_twist(random_cochain(rng, g, n))
        table = {p: 0 if p[0] in g.units or p[1] in g.units else rng.randrange(n) for p in g.composable_pairs()}
        yield g, label_cocycle(g, n, table)
    for a in (2, 3, 4):
        g = cyclic_group(a)
        n = a * rng.randint(1, 2)
        yield g, label_cocycle(g, n, {(x, y): (n // a) * ((x + y) // a) for x, y in g.composable_pairs()})


def test_extension_index_matches_the_dict_construction():
    built = failed = 0
    for g, sigma in extension_cases():
        try:
            want = reference_extension(g, sigma)
        except gp.GroupoidAxiomError as err:
            # a random table that is not a cocycle fails alike, at the same triple
            with pytest.raises(gp.GroupoidAxiomError) as got:
                tw.extension_groupoid(g, sigma)
            assert (str(got.value), got.value.witness) == (str(err), err.witness)
            assert not tw.verify_two_cocycle(sigma).valid
            failed += 1
            continue
        ext = tw.extension_groupoid(g, sigma)
        assert ext.morphisms == want.morphisms
        assert ext.topology._mo == want.topology._mo
        for name in ("range_idx", "source_idx", "inverse_idx", "unit_mask"):
            assert np.array_equal(getattr(ext, name), getattr(want, name)), name
        assert np.array_equal(dense_pair_id(ext), dense_pair_id(want))
        assert all(np.array_equal(a, b) for a, b in zip(ext.pairs, want.pairs))
        for name in ("units", "range_map", "source_map", "compose"):
            assert getattr(ext, name) == getattr(want, name), name
        built += 1
    assert built > 150 and failed > 50


def test_extension_of_a_shifted_cocycle_fails_at_the_same_triple():
    g = pair_groupoid((1, 2, 3))
    for pair in g.composable_pairs():
        sigma = tw.TwoCocycle.trivial(g, 4).shift(pair, 1)
        with pytest.raises(gp.GroupoidAxiomError) as want:
            reference_extension(g, sigma)
        with pytest.raises(gp.GroupoidAxiomError) as got:
            tw.extension_groupoid(g, sigma)
        assert (str(got.value), got.value.witness) == (str(want.value), want.value.witness)


def test_coboundary_is_exact_at_big_moduli():
    g = pair_groupoid((1, 2, 3))
    rng = random.Random(8)
    pa, pb, pc = g.pairs
    # 2^61 - 1 is the largest modulus whose values stay int64
    for n in (2**61 - 1, 2**62 + 1, 2**80 + 7):
        top = tw.OneCochain(g, n, {m: n - 1 for m in g.morphisms if m not in g.units})
        for b in (random_cochain(rng, g, n), top):
            db = tw.coboundary_twist(b)
            assert db.values.dtype == (np.int64 if n < 2**61 else object)
            assert db.table == {(x, y): (b(x) + b(y) - b(g.compose[(x, y)])) % n for x, y in g.composable_pairs()}
            exact = np.array([b(m) for m in g.morphisms], dtype=object)
            assert db.values.tolist() == ((exact[pa] + exact[pb] - exact[pc]) % n).tolist()
            assert tw.verify_two_cocycle(db).valid
            assert tw.are_cohomologous(db, tw.TwoCocycle.trivial(g, n)) is not None


def test_cocycle_values_past_int64_stay_exact():
    # numpy reads a list mixing a value past int64 with a small one as
    # float64; the values must still be reduced as integers
    g = pair_groupoid((1, 2))
    n = 2**63 + 25
    values = [2**63 + 1, 5, 2**63 + 7, 0, 1, -3, 2**64 - 1, n]
    assert len(values) == len(g.pairs[0])
    sigma = tw.TwoCocycle.from_values(g, n, values)
    assert sigma.values.tolist() == [v % n for v in values]
    assert all(type(v) is int for v in sigma.values.tolist())


# -- Cech data -------------------------------------------------------------------


def tetrahedron_cover(n=3, value=1):
    """Cover of the 4 facets of the tetrahedron boundary by vertex stars."""
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    entries = [(1, 2, 3, value)] + [
        (i, j, k, 0) for (i, j, k) in itertools.combinations((1, 2, 3, 4), 3) if (i, j, k) != (1, 2, 3)
    ]
    return tw.CechData(n, faces, cover, entries)


def test_verify_cech_zero_cocycle():
    data = tetrahedron_cover(value=0)
    assert tw.verify_cech(data).valid


def test_verify_cech_tetrahedron_nontrivial():
    data = tetrahedron_cover()
    # no nonempty quadruple overlap, so any alternating assignment passes
    assert data.overlap(1, 2, 3, 4) == frozenset()
    assert tw.verify_cech(data).valid


def test_verify_cech_antisymmetry_violation():
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    entries = [(1, 2, 3, 1), (2, 1, 3, 1)] + [
        (i, j, k, 0)
        for (i, j, k) in itertools.combinations((1, 2, 3, 4), 3)
        if (i, j, k) != (1, 2, 3)
    ]
    data = tw.CechData(3, faces, cover, entries)
    report = tw.verify_cech(data)
    assert not report.valid
    assert report.antisymmetry_violations


def test_missing_triple_error():
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    data = tw.CechData(3, faces, cover, [(1, 2, 3, 1)])
    report = tw.verify_cech(data)
    assert not report.valid
    assert len(report.missing_triples) == 3
    with pytest.raises(tw.CechError) as err:
        data.value(1, 2, 4)
    assert err.value.code == "MISSING_TRIPLE"


def test_cech_data_rejects_a_cover_set_outside_the_base():
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    cover[2] = cover[2] | {"stray"}
    with pytest.raises(tw.CechError, match="cover set 2 is not a subset of the base"):
        tw.CechData(3, faces, cover, [])


def test_cech_is_coboundary_refuses_data_that_does_not_verify():
    # missing triples: without the check the solver would decide a class
    # on entries that are not there
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    data = tw.CechData(3, faces, cover, [(1, 2, 3, 1)])
    assert not tw.verify_cech(data).valid
    with pytest.raises(tw.CechError, match="cech data does not verify"):
        tw.cech_is_coboundary(data)


def test_transport_refuses_data_that_does_not_verify():
    # lambda(1,2,3) = 1 alone on four cover sets through one point gives
    # d(lambda)(1,2,3,4) = -1: refused before transport, in the short text
    from groupoidlab.calgebra import build_doubled_cover_space

    entries = [(*t, int(t == (1, 2, 3))) for t in itertools.combinations((1, 2, 3, 4), 3)]
    data = tw.CechData(3, ["p"], {i: {"p"} for i in (1, 2, 3, 4)}, entries)
    assert tw.verify_cech(data).cocycle_violations == ((1, 2, 3, 4),)
    with pytest.raises(tw.CechError) as err:
        tw.cech_to_groupoid_cocycle(build_doubled_cover_space(data))
    assert str(err.value) == "cech data does not verify; run verify_cech for details"


def test_alternating_accessor_signs():
    data = tetrahedron_cover(n=3, value=1)
    assert data.value(1, 2, 3) == 1
    assert data.value(2, 1, 3) == 2  # odd permutation: -1 mod 3
    assert data.value(3, 1, 2) == 1  # even permutation
    assert data.value(1, 1, 3) == 0


def cech_coboundary(data: tw.CechData, mu) -> dict:
    """The Cech coboundary d(mu) on the nonempty triple overlaps."""
    return {
        (i, j, k): (mu.get((j, k), 0) - mu.get((i, k), 0) + mu.get((i, j), 0)) % data.n
        for (i, j, k) in data.nerve(3)
    }


def test_cech_coboundary_decision_zero():
    data = tetrahedron_cover(value=0)
    res = tw.cech_is_coboundary(data)
    assert res.is_coboundary
    assert all(v == 0 for v in res.witness.values())


def test_tetrahedron_class_not_coboundary():
    data = tetrahedron_cover(n=3, value=1)
    res = tw.cech_is_coboundary(data)
    assert not res.is_coboundary
    assert res.certificate is not None
    # the certificate is the signed sum over the four oriented triples
    total = sum(data.value(*t) * c for t, c in res.certificate.items()) % 3
    assert total != 0


def test_random_coboundaries_recovered():
    rng = random.Random(4)
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    for n in (2, 3, 4, 6):
        for _ in range(5):
            mu = {
                pair: rng.randrange(n)
                for pair in itertools.combinations((1, 2, 3, 4), 2)
            }
            shell = tw.CechData(n, faces, cover, [])
            lam = cech_coboundary(shell, mu)
            data = tw.CechData(n, faces, cover, [(i, j, k, v) for (i, j, k), v in lam.items()])
            res = tw.cech_is_coboundary(data)
            assert res.is_coboundary
            back = cech_coboundary(data, res.witness)
            assert back == lam


def test_decision_matches_brute_force_on_random_covers():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.choice([2, 3, 4])
        n_idx = rng.randint(3, 5)
        n_pts = rng.randint(3, 6)
        pts = list(range(n_pts))
        cover = {
            i: {p for p in pts if rng.random() < 0.6} for i in range(1, n_idx + 1)
        }
        shell = tw.CechData(n, pts, cover, [])
        triples = [
            t for t in itertools.combinations(shell.indices, 3) if shell.overlap(*t)
        ]
        entries = [(i, j, k, rng.randrange(n)) for (i, j, k) in triples]
        data = tw.CechData(n, pts, cover, entries)
        if not tw.verify_cech(data).valid:
            continue
        pairs = [
            p for p in itertools.combinations(shell.indices, 2) if shell.overlap(*p)
        ]
        if n ** len(pairs) > 10**6:
            continue
        # brute force over all pair assignments
        brute = False
        for mu_vals in itertools.product(range(n), repeat=len(pairs)):
            mu = dict(zip(pairs, mu_vals))
            if all(
                (mu.get((j, k), 0) - mu.get((i, k), 0) + mu.get((i, j), 0) - data.value(i, j, k)) % n == 0
                for (i, j, k) in triples
            ):
                brute = True
                break
        assert tw.cech_is_coboundary(data).is_coboundary == brute


def overlap_scan(data, size):
    """The nerve by brute force: every index tuple with a nonempty overlap."""
    return [t for t in itertools.combinations(data.indices, size) if data.overlap(*t)]


OCTAHEDRON = [tuple(sorted((i, 11 + (i - 10) % 4, apex))) for i in range(11, 15) for apex in (15, 16)]


def dense_cover(rng, n, near_coboundary=False):
    """A random cover in which many points lie in four or more sets, beside
    the vertex-star cover of an octahedron, a 2-sphere.  Its data is
    random, with triples left out at times, or else d(mu) for a random mu,
    shifted on one octahedron facet half the time."""
    pts = list(range(rng.randint(3, 8))) + OCTAHEDRON
    density = rng.choice([0.4, 0.7])
    cover = {i: {p for p in pts[:-8] if rng.random() < density} for i in range(1, rng.randint(4, 7) + 1)}
    cover.update({v: {t for t in OCTAHEDRON if v in t} for v in range(11, 17)})
    triples = overlap_scan(tw.CechData(n, pts, cover, []), 3)
    if near_coboundary:
        mu = {p: rng.randrange(n) for p in itertools.combinations(sorted(cover), 2)}
        lam = {(i, j, k): mu[(j, k)] - mu[(i, k)] + mu[(i, j)] for (i, j, k) in triples}
        if rng.random() < 0.5:  # a nontrivial class on the sphere
            lam[rng.choice(OCTAHEDRON)] += rng.randrange(1, n)
        return tw.CechData(n, pts, cover, [(*t, v) for t, v in lam.items()])
    entries = [(i, j, k, rng.randrange(n)) for (i, j, k) in triples if rng.random() < 0.95]
    return tw.CechData(n, pts, cover, entries)


def test_nerve_matches_overlap_scan_on_dense_covers():
    rng = random.Random(21)
    quads = 0
    for _ in range(60):
        data = dense_cover(rng, rng.choice([2, 3, 4, 6]))
        for size in (2, 3, 4):
            assert list(data.nerve(size)) == overlap_scan(data, size)
        quads += len(data.nerve(4))
        # the report the old scans gave, in the same order
        missing = [t for t in overlap_scan(data, 3) if t not in data.table]
        quad_bad = []
        if not missing:
            for (i, j, k, l) in overlap_scan(data, 4):
                total = data.value(j, k, l) - data.value(i, k, l) + data.value(i, j, l) - data.value(i, j, k)
                if total % data.n:
                    quad_bad.append((i, j, k, l))
        report = tw.verify_cech(data)
        assert list(report.missing_triples) == missing
        assert list(report.cocycle_violations) == quad_bad
    assert quads > 100


def test_coboundary_system_matches_overlap_scan():
    # cech_is_coboundary solves the system the old scans built, row for row
    rng = random.Random(22)
    decided = []
    for _ in range(80):
        n = rng.choice([2, 3, 4, 6])
        data = dense_cover(rng, n, near_coboundary=True)
        if not tw.verify_cech(data).valid:
            continue
        triples, pairs = overlap_scan(data, 3), overlap_scan(data, 2)
        if not triples:
            continue
        col = {p: i for i, p in enumerate(pairs)}
        rows = []
        for (i, j, k) in triples:
            row = [0] * len(pairs)
            for pair, c in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
                row[col[pair]] += c
            rows.append(row)
        ref = solve_mod(rows, [data.value(*t) for t in triples], n)
        res = tw.cech_is_coboundary(data)
        assert res.is_coboundary == ref.solvable
        if ref.solvable:
            assert res.witness == dict(zip(pairs, ref.solution))
        else:
            assert res.certificate == {t: c for t, c in zip(triples, ref.certificate) if c % n}
        decided.append(res.is_coboundary)
    assert decided.count(True) > 20 and decided.count(False) > 20


def test_tetrahedron_class_count():
    # with Z/n coefficients the tetrahedron-boundary nerve carries exactly
    # n classes, separated by the signed-sum invariant
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    n = 3
    triples = list(itertools.combinations((1, 2, 3, 4), 3))
    seen = {}
    for values in itertools.product(range(n), repeat=4):
        entries = [(i, j, k, v) for (i, j, k), v in zip(triples, values)]
        data = tw.CechData(n, faces, cover, entries)
        assert tw.verify_cech(data).valid
        invariant = (
            data.value(2, 3, 4) - data.value(1, 3, 4) + data.value(1, 2, 4) - data.value(1, 2, 3)
        ) % n
        seen.setdefault(invariant, []).append(data)
    assert sorted(seen) == [0, 1, 2]
    for invariant, members in seen.items():
        assert (invariant == 0) == all(
            tw.cech_is_coboundary(d).is_coboundary for d in members
        )


def test_transported_cocycles_cohomologous_for_shifted_lambda():
    # shifting lambda by a Cech coboundary shifts the groupoid cocycle by
    # a coboundary: the transported classes agree
    import random

    from groupoidlab.calgebra import build_doubled_cover_space

    rng = random.Random(6)
    faces = [frozenset(t) for t in itertools.combinations((1, 2, 3, 4), 3)]
    cover = {i: {f for f in faces if i in f} for i in (1, 2, 3, 4)}
    n = 3
    base = tetrahedron_cover(n=n, value=1)
    mu = {pair: rng.randrange(n) for pair in itertools.combinations((1, 2, 3, 4), 2)}
    shift = cech_coboundary(base, mu)
    shifted = tw.CechData(
        n,
        faces,
        cover,
        [(i, j, k, base.value(i, j, k) + shift[(i, j, k)]) for (i, j, k) in shift],
    )
    doubled = build_doubled_cover_space(base)
    sigma1 = tw.cech_to_groupoid_cocycle(doubled)
    doubled2 = build_doubled_cover_space(shifted)
    sigma2_far = tw.cech_to_groupoid_cocycle(doubled2)
    # the two doubled relation groupoids have identical morphism labels;
    # transport sigma2 onto the first one to compare classes
    table = {}
    for (a, b), v in sigma2_far.table.items():
        table[(a, b)] = v
    sigma2 = label_cocycle(doubled.relation, n, table)
    witness = tw.are_cohomologous(sigma1, sigma2)
    assert witness is not None
    db = tw.coboundary_twist(witness)
    for pair in doubled.relation.composable_pairs():
        assert (sigma1.table[pair] - sigma2.table[pair] - db.table[pair]) % n == 0


def test_orbit_space_of_plain_groupoid():
    # non-relation groupoids quotient their unit subspace
    from groupoidlab import finspace as fs
    from groupoidlab import groupoid as gp

    topo = fs.discrete(("e", "g"))
    grp = label_groupoid(
        topo,
        units=["e"],
        range_map={"e": "e", "g": "e"},
        source_map={"e": "e", "g": "e"},
        compose={("e", "e"): "e", ("e", "g"): "g", ("g", "e"): "g", ("g", "g"): "e"},
        inverse={"e": "e", "g": "g"},
    )
    space, q = gp.orbit_space(grp)
    assert len(space.points) == 1
