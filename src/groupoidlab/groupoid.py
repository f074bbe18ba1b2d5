"""Finite topological groupoids and the equivalence relation of a surjection.

A groupoid is stored as its morphism set together with range, source,
composition, inverse, and a finite-space topology on the morphisms; the
unit space always carries the subspace topology.  Construction re-runs
the axioms (associativity over all composable triples, unit and inverse
laws), so a bad composition table or a cocycle fault in an extension
surfaces immediately with a witness, and keeps the integer pair index
the check compiles for every later all-pairs computation.

The central construction is the relation groupoid of a surjection
psi: Y -> X, whose morphisms are the pairs (y, z) with psi(y) = psi(z)
and whose topology is the restriction of the product topology on Y x Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping

import numpy as np

from .finspace import (
    FinSpace,
    MapProperties,
    SpaceMap,
    classify_map,
    discrete,
    is_local_homeomorphism,
    quotient_space,
    scan_images,
)
from .errors import InternalCheckFailure
from .labels import canonical_label

Morphism = Hashable


class GroupoidAxiomError(ValueError):
    """Raised when the structure maps fail a groupoid axiom."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonPrincipalError(ValueError):
    code = "NON_PRINCIPAL"


class FinGroupoid:
    """A finite topological groupoid.

    Construction verifies the axioms and keeps the integer index that the
    check compiles: ``index`` numbers the morphisms in order, the arrays
    ``range_idx``, ``source_idx`` and ``inverse_idx`` hold the structure
    maps on those numbers, ``pair_id[a, b]`` numbers the composable pairs
    in row-major order (-1 elsewhere), and ``pairs`` holds the factors
    and the composite of each numbered pair.  Every all-pairs computation
    reads this one index; ``fiber_pairs`` restricts it to a source fiber.
    """

    def __init__(
        self,
        topology: FinSpace,
        units: Iterable[Morphism],
        range_map: Mapping[Morphism, Morphism],
        source_map: Mapping[Morphism, Morphism],
        compose: Mapping[tuple, Morphism],
        inverse: Mapping[Morphism, Morphism],
    ):
        self.topology = topology
        self.morphisms = topology.points
        self.units = frozenset(units)
        self.range_map = dict(range_map)
        self.source_map = dict(source_map)
        self.compose = dict(compose)
        self.inverse = dict(inverse)
        self._props_cache = None
        self._fibers: dict = {}
        self._orbits = None
        self.verify_axioms()

    # -- accessors -------------------------------------------------------

    def r(self, m: Morphism) -> Morphism:
        return self.range_map[m]

    def s(self, m: Morphism) -> Morphism:
        return self.source_map[m]

    def inv(self, m: Morphism) -> Morphism:
        return self.inverse[m]

    def mul(self, a: Morphism, b: Morphism) -> Morphism:
        return self.compose[(a, b)]

    def fiber_pairs(self, u: Morphism) -> tuple:
        """The source fiber s^{-1}(u) as morphism numbers, and the pairs
        (b, c) with s(c) = u as pair numbers with the fiber positions of
        bc and of c; compiled once per unit."""
        if u not in self._fibers:
            in_fiber = self.source_idx == self.index[u]
            pos = np.cumsum(in_fiber) - 1
            _, pb, pc = self.pairs
            k = np.flatnonzero(in_fiber[pb])
            self._fibers[u] = (np.flatnonzero(in_fiber), k, pos[pc[k]], pos[pb[k]])
        return self._fibers[u]

    def unit_space(self) -> FinSpace:
        return self.topology.subspace([m for m in self.morphisms if m in self.units])

    def orbits(self) -> tuple:
        """Orbits of the unit space: u ~ v when some morphism joins them.
        The orbit of u is {r(m) : s(m) = u}; its first unit labels it.
        The units are the morphisms that are their own range.  Computed
        once."""
        if self._orbits is None:
            n = len(self.morphisms)
            first = np.full(n, n)
            np.minimum.at(first, self.source_idx, self.range_idx)
            units = np.flatnonzero(self.range_idx == np.arange(n))
            groups: dict = {}
            for u, label in zip(units.tolist(), first[units].tolist()):
                groups.setdefault(label, []).append(self.morphisms[u])
            self._orbits = tuple(tuple(g) for g in groups.values())
        return self._orbits

    def composable_pairs(self) -> list[tuple]:
        pa, pb, _ = self.pairs
        m = self.morphisms
        return [(m[a], m[b]) for a, b in zip(pa.tolist(), pb.tolist())]

    def triple_join(self) -> tuple[np.ndarray, np.ndarray]:
        """The composable triples (a, b, c) in lexicographic index order,
        as pair numbers: the k-th triple has (a, b) = pair ab[k] and
        (b, c) = pair bc[k].  Computed on demand and not stored."""
        pa, pb, _ = self.pairs
        # pairs are sorted by first factor, so the pairs (b, c) form a run
        start = np.searchsorted(pa, np.arange(len(self.morphisms) + 1))
        counts = (start[1:] - start[:-1])[pb]
        ab = np.repeat(np.arange(len(pa)), counts)
        offset = np.arange(len(ab)) - np.repeat(np.cumsum(counts) - counts, counts)
        return ab, start[pb[ab]] + offset

    def composable_triples(self) -> list[tuple]:
        pa, pb, _ = self.pairs
        ab, bc = self.triple_join()
        m = self.morphisms
        return [
            (m[a], m[b], m[c])
            for a, b, c in zip(pa[ab].tolist(), pb[ab].tolist(), pb[bc].tolist())
        ]

    # -- validation --------------------------------------------------------

    def verify_axioms(self) -> None:
        morphs = self.morphisms
        mset = set(morphs)
        n = len(morphs)
        index = {m: i for i, m in enumerate(morphs)}
        for m in morphs:
            for table, name in ((self.range_map, "range"), (self.source_map, "source"), (self.inverse, "inverse")):
                if m not in table:
                    raise GroupoidAxiomError(f"{name} undefined on {m!r}", m)
                if table[m] not in mset:
                    raise GroupoidAxiomError(f"{name}({m!r}) is not a morphism", m)
        for u in self.units:
            if u not in mset:
                raise GroupoidAxiomError(f"unit {u!r} is not a morphism", u)
            if self.range_map[u] != u or self.source_map[u] != u:
                raise GroupoidAxiomError(f"unit {u!r} is not its own range and source", u)
        for m in morphs:
            if self.range_map[m] not in self.units or self.source_map[m] not in self.units:
                raise GroupoidAxiomError(f"range or source of {m!r} is not a unit", m)

        # integer composition table; -1 marks undefined
        comp = np.full((n, n), -1, dtype=np.int64)
        for (a, b), c in self.compose.items():
            if a not in mset or b not in mset or c not in mset:
                raise GroupoidAxiomError(f"composition entry ({a!r},{b!r})->{c!r} off the morphism set")
            comp[index[a], index[b]] = index[c]
        src = np.array([index[self.source_map[m]] for m in morphs], dtype=np.int64)
        rng = np.array([index[self.range_map[m]] for m in morphs], dtype=np.int64)
        defined = comp >= 0
        should = src[:, None] == rng[None, :]
        if (defined != should).any():
            a, b = (int(v) for v in np.argwhere(defined != should)[0])
            raise GroupoidAxiomError(
                f"composition defined on ({morphs[a]!r},{morphs[b]!r}) iff sources/ranges mismatch",
                (morphs[a], morphs[b]),
            )
        pa, pb = np.nonzero(defined)
        pc = comp[pa, pb]
        if (rng[pc] != rng[pa]).any() or (src[pc] != src[pb]).any():
            bad = int(np.argwhere((rng[pc] != rng[pa]) | (src[pc] != src[pb]))[0, 0])
            raise GroupoidAxiomError(
                "range/source of a composite disagree with the factors",
                (morphs[int(pa[bad])], morphs[int(pb[bad])]),
            )

        # unit laws: u b = b and a u = a on every composable pair
        is_unit = np.zeros(n, dtype=bool)
        is_unit[[index[u] for u in self.units]] = True
        bad = (is_unit[pa] & (pc != pb)) | (is_unit[pb] & (pc != pa))
        if bad.any():
            k = int(np.argmax(bad))
            raise GroupoidAxiomError(f"unit law fails at ({morphs[pa[k]]!r},{morphs[pb[k]]!r})")

        self.index = index
        self.range_idx, self.source_idx = rng, src
        self.pairs = (pa, pb, pc)
        self.pair_id = np.full((n, n), -1, dtype=np.int64)
        self.pair_id[pa, pb] = np.arange(len(pa))

        # associativity over all composable triples; both sides are
        # composable once ranges and sources of composites are right
        ab, bc = self.triple_join()
        lhs = pc[self.pair_id[pc[ab], pb[bc]]]
        rhs = pc[self.pair_id[pa[ab], pc[bc]]]
        if (lhs != rhs).any():
            k = int(np.argmax(lhs != rhs))
            triple = (morphs[pa[ab[k]]], morphs[pb[ab[k]]], morphs[pb[bc[k]]])
            raise GroupoidAxiomError(f"associativity fails at triple {triple!r}", triple)

        # inverse laws
        inv = np.array([index[self.inverse[m]] for m in morphs], dtype=np.int64)
        if (inv[inv] != np.arange(n)).any():
            m = int(np.argwhere(inv[inv] != np.arange(n))[0, 0])
            raise GroupoidAxiomError(f"inverse is not involutive at {morphs[m]!r}", morphs[m])
        if (src[inv] != rng).any() or (rng[inv] != src).any():
            m = int(np.argwhere((src[inv] != rng) | (rng[inv] != src))[0, 0])
            raise GroupoidAxiomError(f"inverse swaps range and source incorrectly at {morphs[m]!r}", morphs[m])
        left = comp[np.arange(n), inv]
        if (left != rng).any():
            m = int(np.argwhere(left != rng)[0, 0])
            raise GroupoidAxiomError(f"m * inv(m) is not the unit at range({morphs[m]!r})", morphs[m])
        right = comp[inv, np.arange(n)]
        if (right != src).any():
            m = int(np.argwhere(right != src)[0, 0])
            raise GroupoidAxiomError(f"inv(m) * m is not the unit at source({morphs[m]!r})", morphs[m])
        self.inverse_idx = inv

    # -- representation -----------------------------------------------------

    def __len__(self):
        return len(self.morphisms)

    def __repr__(self):
        return f"<FinGroupoid with {len(self.morphisms)} morphisms, {len(self.units)} units>"


class RelationGroupoid(FinGroupoid):
    """The groupoid of pairs identified by a surjection psi: Y -> X.

    Morphisms are pairs (y, z) with psi(y) = psi(z); r(y, z) = (y, y),
    s(y, z) = (z, z), (x, y)(y, z) = (x, z).  The base space Y and psi
    are retained so that orbit-space constructions can use the base
    topology even when a caller deliberately installs a different
    topology on the morphisms (the mismatch is what the openness test
    detects).
    """

    def __init__(self, base: FinSpace, psi: SpaceMap, topology: FinSpace):
        self.base = base
        self.psi = psi
        pairs = topology.points
        units = [(y, y) for (y, z) in pairs if y == z]
        range_map = {(y, z): (y, y) for (y, z) in pairs}
        source_map = {(y, z): (z, z) for (y, z) in pairs}
        inverse = {(y, z): (z, y) for (y, z) in pairs}
        by_first: dict = {}
        for (y, z) in pairs:
            by_first.setdefault(y, []).append((y, z))
        compose = {}
        for (x, y) in pairs:
            for b in by_first.get(y, ()):
                compose[((x, y), b)] = (x, b[1])
        super().__init__(topology, units, range_map, source_map, compose, inverse)

    def with_discrete_topology(self) -> "RelationGroupoid":
        """Same algebraic groupoid with the discrete morphism topology."""
        return RelationGroupoid(self.base, self.psi, discrete(self.morphisms))


def _pair_topology(space: FinSpace, classes: Iterable[Iterable[Morphism]]) -> FinSpace:
    """The pairs (y, z) of points in a common class with the product
    topology of ``space`` restricted to them: the minimal open at (y, z)
    is (U_y x U_z) intersected with the pairs."""
    pairs = [(y, z) for cls in classes for y in cls for z in cls]
    pair_set = set(pairs)
    min_open = {p: tuple(space.min_open(p)) for p in space.points}
    return FinSpace(pairs, {
        (y, z): {(a, b) for a in min_open[y] for b in min_open[z] if (a, b) in pair_set}
        for (y, z) in pairs
    })


def build_relation_groupoid(psi: SpaceMap) -> RelationGroupoid:
    """Build the relation groupoid of a surjection with the product-subspace
    topology.  Axioms are re-verified on the result."""
    if not psi.is_surjective():
        raise ValueError("psi must be surjective")
    fibers: dict = {}
    for y in psi.dom.points:
        fibers.setdefault(psi(y), []).append(y)
    return RelationGroupoid(psi.dom, psi, _pair_topology(psi.dom, fibers.values()))


def _orbit_base(groupoid: FinGroupoid):
    """Space to quotient for the orbit space, with unit labels.

    For a relation groupoid the retained base Y is used (its points are in
    canonical bijection u = (y, y) <-> y with the units, and for the
    untampered product-subspace topology the two agree); otherwise the
    unit space with its subspace topology.
    """
    if isinstance(groupoid, RelationGroupoid):
        return groupoid.base, {u: u[0] for u in groupoid.units}
    return groupoid.unit_space(), {u: u for u in groupoid.units}


def orbit_space(groupoid: FinGroupoid):
    """Quotient of the unit space by the orbit relation.

    Returns (X, q).  For an etale groupoid the quotient map is also open;
    this is asserted whenever the etale property holds.
    """
    base, label = _orbit_base(groupoid)
    partition = [frozenset(label[u] for u in orbit) for orbit in groupoid.orbits()]
    space, q = quotient_space(base, partition)
    if groupoid_properties(groupoid).etale and not classify_map(q).open_map:
        raise InternalCheckFailure("etale groupoid with non-open orbit map")
    return space, q


@dataclass(frozen=True)
class GroupoidProperties:
    principal: bool
    etale: bool

    def as_dict(self) -> dict:
        return {"principal": self.principal, "etale": self.etale}


def groupoid_properties(groupoid: FinGroupoid) -> GroupoidProperties:
    """Principality and the etale property.

    etale means the range map is a local homeomorphism onto the unit
    space; the check delegates to the finite-space map classifier.  The
    literal Cartan condition holds for every finite groupoid, because
    every subset of a finite space is compact; its meaningful finite
    surrogate is the r x s openness test of ``fell_check``.
    """
    if groupoid._props_cache is not None:
        return groupoid._props_cache
    pairs = {(groupoid.range_map[m], groupoid.source_map[m]) for m in groupoid.morphisms}
    principal = len(pairs) == len(groupoid.morphisms)

    unit_space = groupoid.unit_space()
    r_map = SpaceMap(
        groupoid.topology, unit_space, {m: groupoid.range_map[m] for m in groupoid.morphisms}
    )
    props = GroupoidProperties(principal, is_local_homeomorphism(r_map))
    groupoid._props_cache = props
    return props


@dataclass(frozen=True)
class FellCheck:
    is_fell_model: bool
    r_times_s_open: bool
    r_times_s_continuous: bool
    bijective: bool
    witness: frozenset | None

    def as_dict(self) -> dict:
        return {
            "is_fell_model": self.is_fell_model,
            "r_times_s_open": self.r_times_s_open,
            "r_times_s_continuous": self.r_times_s_continuous,
            "bijective": self.bijective,
            "witness": None if self.witness is None else sorted(map(canonical_label, self.witness)),
        }


def fell_check(groupoid: FinGroupoid) -> FellCheck:
    """Decide whether r x s is a topological isomorphism onto R(q).

    R(q) is the relation groupoid of the orbit quotient q, carrying the
    product topology of the unit space restricted to the relation.  For a
    principal groupoid r x s is automatically a bijection onto R(q); the
    content is whether it is continuous and open.  On failure the witness
    is a minimal open of the groupoid whose image is not open.
    """
    props = groupoid_properties(groupoid)
    if not props.principal:
        raise NonPrincipalError("fell_check requires a principal groupoid")
    base, label = _orbit_base(groupoid)
    rq_topology = _pair_topology(base, ([label[u] for u in orbit] for orbit in groupoid.orbits()))
    assignment = {
        m: (label[groupoid.range_map[m]], label[groupoid.source_map[m]])
        for m in groupoid.morphisms
    }
    bijective = len(set(assignment.values())) == len(groupoid.morphisms) and len(
        groupoid.morphisms
    ) == len(rq_topology.points)
    continuous, open_map, _, first = scan_images(SpaceMap(groupoid.topology, rq_topology, assignment))
    witness = None if first is None else groupoid.topology.unbits(groupoid.topology.min_open_bits(first))
    return FellCheck(
        is_fell_model=bijective and continuous and open_map,
        r_times_s_open=open_map,
        r_times_s_continuous=continuous,
        bijective=bijective,
        witness=witness,
    )


@dataclass(frozen=True)
class OrbitMapReport:
    bijective: bool
    compatible_with_projection: bool
    open_when_continuous: bool | None
    homeomorphism_when_quotient: bool | None
    psi_properties: MapProperties

    @property
    def all_verified(self) -> bool:
        return (
            self.bijective
            and self.compatible_with_projection
            and self.open_when_continuous is not False
            and self.homeomorphism_when_quotient is not False
        )

    def as_dict(self) -> dict:
        return {
            "bijective": self.bijective,
            "compatible_with_projection": self.compatible_with_projection,
            "open_when_continuous": self.open_when_continuous,
            "homeomorphism_when_quotient": self.homeomorphism_when_quotient,
            "psi_properties": self.psi_properties.as_dict(),
            "all_verified": self.all_verified,
        }


def orbit_map_check(psi: SpaceMap) -> OrbitMapReport:
    """Verify that x -> psi^{-1}(x) identifies the codomain with the orbit
    space of the relation groupoid of psi.

    Checks, in order: the map h is a bijection and h o psi is the orbit
    projection; if psi is continuous, h is open; if psi is a quotient
    map, h is a homeomorphism.  All clauses hold for every surjection;
    a False entry would indicate an implementation bug.
    """
    if not psi.is_surjective():
        raise ValueError("psi must be surjective")
    relation = build_relation_groupoid(psi)
    space, q = orbit_space(relation)
    fibers = {}
    for y in psi.dom.points:
        fibers.setdefault(psi(y), set()).add(y)
    h = {x: frozenset(fibers[x]) for x in psi.cod.points}
    bijective = set(h.values()) == set(space.points) and len(set(h.values())) == len(
        psi.cod.points
    )
    compatible = all(h[psi(y)] == q(y) for y in psi.dom.points)
    props = classify_map(psi)
    open_clause = None
    homeo_clause = None
    if bijective:
        h_map = SpaceMap(psi.cod, space, h)
        h_props = classify_map(h_map)
        if props.continuous:
            open_clause = h_props.open_map
        if props.quotient:
            homeo_clause = h_props.open_map and h_props.continuous and h_props.surjective
    return OrbitMapReport(bijective, compatible, open_clause, homeo_clause, props)
