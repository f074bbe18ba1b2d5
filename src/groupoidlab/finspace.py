"""Finite topological spaces encoded by minimal open neighbourhoods.

A topology on a finite set is determined by the minimal open set U_x
containing each point x (equivalently by the specialization preorder);
the open sets are exactly the unions of minimal opens.  All predicates
here are computed directly from that encoding, so facts such as
"finite Hausdorff = discrete" come out as verified results rather than
baked-in assumptions.

Every map predicate reads the three flags of one pass over the images
f(U_x) of the minimal opens (``_scan_masks``): f is continuous iff
f(U_x) lies in U_{f(x)} for every x, open iff U_{f(x)} lies in f(U_x)
for every x, and a local homeomorphism iff also injective on every U_x.
The openness rule is a lemma for coherent minimal opens (x' in U_x
implies U_{x'} in U_x).  Proof: (=>) f(U_x) is open and contains f(x).
(<=) each y = f(x') with x' in U_x has U_y in f(U_{x'}) in f(U_x), so
f(U_x) is open, and so is every image of a union of U_x.
The quotient test compares the codomain with the final topology, whose
minimal opens one routine computes for ``is_quotient_map`` and
``quotient_space`` alike.

Points are opaque hashables.  A space is built from one bitmask per
point over the point indices, and a map keeps the codomain index of each
domain point, which keeps the predicates cheap on spaces of up to a few
dozen points.  Every builder here hands over masks; the labels of a
``finspace/1`` document are numbered only in ``serialize``, whose masks
``FinSpace`` checks; builders with coherent masks call ``FinSpace.coherent``.
``quotient_space`` hands ``SpaceMap.numbered`` its targets unchecked.

This module is the one home of the bit algebra of a preorder, in three
private helpers: ``_iter_bits`` lists the set bits of a mask,
``_union`` joins a value per set bit (a map's image is ``_union`` over
``1 << target``, and a mask S is open iff ``_union(mo, S) == S``), and
``_closure`` closes one row mask per point reflexively and
transitively.  ``groupoid``, ``corpus`` and ``serialize`` walk bits only
through them.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import asdict, dataclass

from .errors import InternalCheckFailure

Point = Hashable


class InvalidSpace(ValueError):
    """Raised when minimal-open data does not describe a topology."""


class InvalidMap(ValueError):
    """Raised when a map between spaces is not well formed."""


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _union(values, mask: int) -> int:
    """The union of ``values[i]`` over the bits i of ``mask``; ``values``
    is a list, or a dict keyed by bit index."""
    out = 0
    while mask:
        low = mask & -mask
        out |= values[low.bit_length() - 1]
        mask ^= low
    return out


def _closure(rows: Sequence[int]) -> list[int]:
    """The reflexive-transitive closure of a relation given by one row
    mask per point: each row grows by the rows of the points it gained
    in the round before, until a round adds none."""
    out = []
    for i, mask in enumerate(rows):
        mask |= 1 << i
        done = 0
        while mask != done:
            mask, done = mask | _union(rows, mask & ~done), mask
        out.append(mask)
    return out


class FinSpace:
    """A finite topological space.

    ``points`` is an ordered tuple of point identifiers and ``masks``
    holds the minimal open set U_x of each point x, as a bitmask over the
    point indices.  The data must satisfy x in U_x and the coherence law

        y in U_x  implies  U_y subset of U_x,

    which is exactly what it takes for the family {U_x} to generate a
    topology with U_x minimal at x.
    """

    __slots__ = ("points", "_index", "_mo")

    def __init__(self, points: Iterable[Point], masks: Sequence[int]):
        """``masks`` holds one minimal open per point; the first fault, point by point, raises."""
        self._store(points, masks)
        mo, pts = self._mo, self.points
        for i, m in enumerate(mo):
            if not (m >> i) & 1:
                raise InvalidSpace(f"point {pts[i]!r} missing from its own minimal open")
            if m >> len(mo):
                raise InvalidSpace(f"minimal open of {pts[i]!r} mentions unknown points")
            if _union(mo, m) != m:
                j = next(j for j in _iter_bits(m) if mo[j] & ~m)
                raise InvalidSpace(f"minimal opens incoherent: {pts[j]!r} lies in U_{pts[i]!r} but U_{pts[j]!r} does not")

    @classmethod
    def coherent(cls, points: Iterable[Point], masks: Sequence[int]) -> "FinSpace":
        """``FinSpace(points, masks)`` without the coherence loop; the caller's docstring says why."""
        space = cls.__new__(cls)
        space._store(points, masks)
        return space

    def _store(self, points: Iterable[Point], masks: Sequence[int]) -> None:
        if isinstance(masks, Mapping):
            raise TypeError("masks are one bitmask per point, not a mapping")
        self.points = tuple(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise InvalidSpace("duplicate points")
        if len(masks) != len(self.points):
            raise InvalidSpace("one mask is needed per point")
        self._mo = tuple(masks)

    # -- basic structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, p: Point) -> bool:
        return p in self._index

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FinSpace)
            and self.points == other.points
            and self._mo == other._mo
        )

    def __hash__(self):
        return hash((self.points, self._mo))

    def __repr__(self):
        return f"FinSpace({list(self.points)!r}, {list(self._mo)!r})"

    def index(self, p: Point) -> int:
        return self._index[p]

    def bits(self, subset: Iterable[Point]) -> int:
        m = 0
        for p in subset:
            m |= 1 << self._index[p]
        return m

    def unbits(self, mask: int) -> frozenset:
        return frozenset(self.points[i] for i in _iter_bits(mask))

    def min_open_bits(self, i: int) -> int:
        return self._mo[i]

    # -- topology -------------------------------------------------------

    def is_open_bits(self, mask: int) -> bool:
        """Whether ``mask`` holds U_j for each j in it: whether their union is ``mask``."""
        return _union(self._mo, mask) == mask

    def closure_bits(self, mask: int) -> int:
        return sum(1 << i for i in range(len(self.points)) if self._mo[i] & mask)

    def open_set_bits(self) -> list[int]:
        """All open sets, as bitmasks, ordered by (popcount, value).

        Full lattice enumeration is exponential and capped at 16 points;
        the predicates that run on larger spaces work from minimal opens
        without enumerating the lattice.
        """
        if len(self.points) > 16:
            raise InvalidSpace("open-set enumeration capped at 16 points")
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for m in frontier:
                for g in self._mo:
                    u = m | g
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return sorted(seen, key=lambda m: (bin(m).count("1"), m))

    # subspace predicates on bitmasks, avoiding object construction in hot loops

    def _subspace_hausdorff(self, sub: int) -> bool:
        idx = list(_iter_bits(sub))
        for a, b in itertools.combinations(idx, 2):
            if self._mo[a] & self._mo[b] & sub:
                return False
        return True

    def is_discrete(self) -> bool:
        return all(self._mo[i] == 1 << i for i in range(len(self.points)))


# -- constructions ------------------------------------------------------


def discrete(points: Iterable[Point]) -> FinSpace:
    """The discrete space; U_x = {x} is coherent."""
    pts = tuple(points)
    return FinSpace.coherent(pts, [1 << i for i in range(len(pts))])


def sierpinski(open_point: Point = "a", closed_point: Point = "b") -> FinSpace:
    return FinSpace((open_point, closed_point), (0b01, 0b11))


class SpaceMap:
    """A set map between finite spaces; no continuity is assumed.

    ``targets`` lists the codomain index of each domain point."""

    __slots__ = ("dom", "cod", "assignment", "targets")

    def __init__(self, dom: FinSpace, cod: FinSpace, assignment: Mapping[Point, Point]):
        self.dom = dom
        self.cod = cod
        for p in dom.points:
            if p not in assignment:
                raise InvalidMap(f"assignment missing domain point {p!r}")
            if assignment[p] not in cod:
                raise InvalidMap(f"assignment sends {p!r} outside the codomain")
        for extra in assignment:
            if extra not in dom:
                raise InvalidMap(f"assignment defined on unknown point {extra!r}")
        self.assignment = {p: assignment[p] for p in dom.points}
        self.targets = [cod._index[assignment[p]] for p in dom.points]

    @classmethod
    def numbered(cls, dom: FinSpace, cod: FinSpace, targets: list[int]) -> "SpaceMap":
        """The map with codomain index ``targets[i]`` at point i, without label
        checks: ``quotient_space`` gives each point exactly one block of X."""
        f = cls.__new__(cls)
        f.dom, f.cod, f.targets = dom, cod, targets
        f.assignment = dict(zip(dom.points, map(cod.points.__getitem__, targets)))
        return f

    def __call__(self, p: Point) -> Point:
        return self.assignment[p]

    def __eq__(self, other):
        return (
            isinstance(other, SpaceMap)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.assignment == other.assignment
        )

    def __repr__(self):
        return f"SpaceMap({self.assignment!r})"

    def is_surjective(self) -> bool:
        return len(set(self.targets)) == len(self.cod)


def identity_map(space: FinSpace) -> SpaceMap:
    return SpaceMap(space, space, {p: p for p in space.points})


@dataclass(frozen=True)
class MapProperties:
    continuous: bool
    open_map: bool
    surjective: bool
    quotient: bool
    local_homeomorphism: bool

    def as_dict(self) -> dict:
        return asdict(self)


def _scan_masks(dom_mo: Sequence[int], cod_mo: Sequence[int], targets: Sequence[int], bits: Sequence[int]) -> tuple:
    """(continuous, open_map, locally_injective) of the map with domain and
    codomain minimal opens ``dom_mo`` and ``cod_mo``, a codomain index and
    its ``1 << target`` per domain point: whether every f(U_x) lies in
    U_{f(x)}, holds U_{f(x)} (the openness lemma), and has |U_x| points."""
    continuous = open_map = locally_injective = True
    for i, u in enumerate(dom_mo):
        img, cod = _union(bits, u), cod_mo[targets[i]]
        if img & ~cod:
            continuous = False
        if cod & ~img:
            open_map = False
        if img.bit_count() != u.bit_count():
            locally_injective = False
    return continuous, open_map, locally_injective


def _final_masks(dom: FinSpace, targets: Sequence[int], size: int) -> list[int]:
    """Minimal opens of the final topology of a map onto ``size`` points.
    The sets with open preimage form a topology; its minimal open at c is
    the least set containing c that contains f(U_y) whenever it has f(y)."""
    bits = [1 << t for t in targets]
    reach = [0] * size
    for i, u in enumerate(dom._mo):
        reach[targets[i]] |= _union(bits, u)
    return _closure(reach)


def is_quotient_map(f: SpaceMap) -> bool:
    """Surjective, and the codomain topology is the final topology."""
    return f.is_surjective() and _final_masks(f.dom, f.targets, len(f.cod)) == list(f.cod._mo)


def is_local_homeomorphism(f: SpaceMap) -> bool:
    """Continuous, open and injective on every minimal open U_x; by the
    module's openness lemma, f(U_x) = U_{f(x)} with |U_x| points for all x.

    Each U_x lies in every open V around x, so a homeomorphism of V onto
    an open set restricts to one of U_x.  Conversely a continuous open
    bijection of U_x onto the open set f(U_x) is a homeomorphism.
    """
    return all(_scan_masks(f.dom._mo, f.cod._mo, f.targets, [1 << t for t in f.targets]))


def classify_map(f: SpaceMap) -> MapProperties:
    """Decide continuity, openness, surjectivity, the quotient property and
    local homeomorphy of a map between finite spaces, all from one pass
    over the images of the minimal opens and the final topology."""
    continuous, open_map, locally_injective = _scan_masks(f.dom._mo, f.cod._mo, f.targets, [1 << t for t in f.targets])
    local_homeomorphism = continuous and open_map and locally_injective
    return MapProperties(continuous, open_map, f.is_surjective(), is_quotient_map(f), local_homeomorphism)


@dataclass(frozen=True)
class SpaceProperties:
    hausdorff: bool
    locally_hausdorff: bool
    t1: bool
    discrete: bool

    def as_dict(self) -> dict:
        return asdict(self)


def space_properties(space: FinSpace) -> SpaceProperties:
    """Separation properties, each computed from its definition.

    Two points admit disjoint open neighbourhoods iff their minimal opens
    are disjoint, and a point has a Hausdorff neighbourhood iff its
    minimal open is Hausdorff (shrinking preserves the property), so the
    definitions are evaluated on the canonical witnesses.
    """
    n = len(space.points)
    full = (1 << n) - 1
    hausdorff = space._subspace_hausdorff(full)
    locally_hausdorff = all(
        space._subspace_hausdorff(space.min_open_bits(i)) for i in range(n)
    )
    t1 = all(
        space.closure_bits(1 << i) == 1 << i for i in range(n)
    )
    return SpaceProperties(hausdorff, locally_hausdorff, t1, space.is_discrete())


def quotient_space(space: FinSpace, partition: Iterable[Iterable[Point]]):
    """Quotient of a finite space by a partition, with the final topology.

    Returns (X, psi) where X has the partition blocks (as frozensets) for
    points, by least point, and psi is the projection.  X's minimal opens
    come from the same final-topology routine that ``is_quotient_map``
    uses, so psi is a quotient map by construction; the tests check that
    against the open-set lattice.  They are ``_closure`` rows, reflexive
    and transitive, so X is coherent by construction.
    """
    blocks = [frozenset(b) for b in partition]
    index, block_of = space._index, [-1] * len(space.points)
    for k, b in enumerate(blocks):
        if not b:
            raise InvalidSpace("empty partition block")
        for p in b:
            i = index.get(p)
            if i is None:
                raise InvalidSpace(f"partition mentions unknown point {p!r}")
            if block_of[i] >= 0:
                raise InvalidSpace(f"partition blocks overlap at {p!r}")
            block_of[i] = k
    if -1 in block_of:
        raise InvalidSpace("partition does not cover the space")
    rank = {k: j for j, k in enumerate(dict.fromkeys(block_of))}
    targets = [rank[k] for k in block_of]
    quotient = FinSpace.coherent([blocks[k] for k in rank], _final_masks(space, targets, len(rank)))
    return quotient, SpaceMap.numbered(space, quotient, targets)


def hausdorff_cover_resolution(space: FinSpace, cover: Sequence[Iterable[Point]]):
    """Resolve a space covered by open Hausdorff subsets by their disjoint union.

    Returns (Y, psi) where Y is the disjoint union of the cover elements,
    each open and closed in Y, and psi is the tautological map.  psi is a
    surjective local homeomorphism; both facts are re-verified.
    """
    masks = []
    for k, part in enumerate(cover):
        mask = space.bits(part)
        if not space.is_open_bits(mask):
            raise InvalidSpace(f"cover element {k} is not open")
        if not space._subspace_hausdorff(mask):
            raise InvalidSpace(f"cover element {k} is not Hausdorff as a subspace")
        masks.append(mask)
    union = 0
    for m in masks:
        union |= m
    if union != (1 << len(space.points)) - 1:
        raise InvalidSpace("cover is not exhaustive")

    pts = []
    mo = []
    for k, mask in enumerate(masks):
        # the cover element is open, so U_p is contained in it and the
        # subspace minimal open of p is U_p itself, carried to copy k
        position = {i: 1 << (len(pts) + r) for r, i in enumerate(_iter_bits(mask))}
        pts += [(k, space.points[i]) for i in position]
        mo += [_union(position, space._mo[i]) for i in position]
    resolution = FinSpace(pts, mo)
    assignment = {(k, p): p for k, p in pts}
    psi = SpaceMap(resolution, space, assignment)
    props = classify_map(psi)
    if not (props.local_homeomorphism and props.surjective):
        raise InternalCheckFailure("resolution map is not a surjective local homeomorphism")
    return resolution, psi


@dataclass(frozen=True)
class ClosedHausdorffCore:
    core: frozenset
    core_is_open: bool
    core_is_hausdorff: bool
    witnesses: dict
    open_sets: int  # the open sets searched, the empty one included; not reported

    def as_dict(self) -> dict:
        return {
            "core": sorted(map(str, self.core)),
            "core_is_open": self.core_is_open,
            "core_is_hausdorff": self.core_is_hausdorff,
            "witnesses": {str(p): sorted(map(str, w)) for p, w in self.witnesses.items()},
        }


def closed_hausdorff_core(space: FinSpace) -> ClosedHausdorffCore:
    """Points admitting a neighbourhood that is closed and Hausdorff.

    The returned report also asserts the two structural facts about the
    core: it is open, and Hausdorff in the subspace topology.
    """
    n = len(space.points)
    full = (1 << n) - 1
    opens = space.open_set_bits()
    closed_hausdorff = [full & ~m for m in opens if space._subspace_hausdorff(full & ~m)]
    core = 0
    witnesses = {}
    for i in range(n):
        for c in closed_hausdorff:
            if not (space.min_open_bits(i) & ~c):
                core |= 1 << i
                witnesses[space.points[i]] = space.unbits(c)
                break
    return ClosedHausdorffCore(
        core=space.unbits(core),
        core_is_open=space.is_open_bits(core),
        core_is_hausdorff=space._subspace_hausdorff(core),
        witnesses=witnesses,
        open_sets=len(opens),
    )
