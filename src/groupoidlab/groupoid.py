"""Finite topological groupoids and the equivalence relation of a surjection.

A groupoid is stored as its morphism set with a finite-space topology on
the morphisms, and as an integer index, one ``IndexLayout``: arrays for
range, source and inverse, the unit mask, and the composable pairs with
their composites in row-major order, beside what derives from these
arrays alone (``principal``, ``generating_mask``, ``orbit_idx``,
``fiber_cells``, and the two length-n tables with which ``pair_number``
numbers the pairs), each built on first use.  The unit space always
carries the subspace topology.  The one constructor takes index arrays,
sorts the pairs row-major and runs ``verify_axioms``, which checks every
axiom (composability, range and source of composites, unit and inverse
laws, associativity) as array code, so a bad composition table or a
cocycle fault in an extension surfaces immediately with a witness;
``_attach`` puts an index that is already verified on a topology.
Associativity is decided without a triple for a principal groupoid, and
otherwise on the triples whose last factor is a unit or lies in the
greedy generating set of ``generating_mask``; when that reduced check
fails, the full lexicographic sweep over all composable triples runs and
reports the first failing one.  Labels are numbered only where
``serialize`` reads a ``finspace/1`` or ``fingroupoid/1`` document.
Every later all-pairs computation reads the same index, and the induced
representations read it in the cell order of ``fiber_cells``.

The central construction is the relation groupoid of a surjection
psi: Y -> X, whose morphisms are the pairs (y, z) with psi(y) = psi(z)
and whose topology is the restriction of the product topology on Y x Y.
As an algebraic groupoid it is the disjoint union of the pair groupoids
on the fibers of psi, so its index depends only on the tuple of fiber
sizes.  Per tuple of up to ``PAIR_INDEX_MORPHISMS`` morphisms, one
read-only index object is built and verified on first use
(``pair_groupoid_index``) and shared by every ``RelationGroupoid`` and
matrix-unit groupoid with those sizes.  Each groupoid attaches it to its
own topology and keeps its own orbits and property cache.
The topology of R(psi) comes from ``product_masks``, which pulls the
product topology of a space on the units back along r x s on any
groupoid's own numbering; ``relation_masks`` memoizes it on the fiber
sizes and Y's masks at the units.  ``fell_check`` calls the same
routine for R(q), the relation groupoid of the orbit quotient: r x s of
a principal groupoid is a bijection onto R(q), so R(q) is never built
as a space of its own.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .finspace import (
    FinSpace,
    MapProperties,
    SpaceMap,
    _scan_masks,
    _union,
    classify_map,
    discrete,
    quotient_space,
)
from .errors import InternalCheckFailure, SizeCapError
from .labels import canonical_label

# most composable triples in one block of ``FinGroupoid.triple_join``
TRIPLE_CHUNK = 1 << 16

# most entries of each per-shape cache: the fiber-size tuples of
# ``pair_groupoid_index`` and the (sizes, masks of Y) of
# ``relation_masks``; all 255 tuples of at most 8 points fit with room
# to spare
PAIR_INDEX_CACHE = 512

# most morphisms in a pair-groupoid union: one 64-point fiber, and twice
# the largest target of the doubled model
PAIR_INDEX_MORPHISMS = 4096


class GroupoidAxiomError(ValueError):
    """Raised when the structure maps fail a groupoid axiom."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NonPrincipalError(ValueError):
    code = "NON_PRINCIPAL"


class IndexLayout:
    """A groupoid's integer index: the arrays ``range_idx``,
    ``source_idx`` and ``inverse_idx`` of the structure maps on the
    morphism numbers, ``unit_mask`` marking the units, and ``pairs``, the
    factors and the composite of each composable pair in row-major order.
    What derives from these arrays alone is built on first use and kept:
    ``principal``, ``generating_mask``, ``orbit_idx``, ``fiber_cells`` and
    ``pair_rows``, the arrays read-only, and the int tuples of the bitmask
    code: ``unit_numbers``, ``ranges``, ``sources``, ``end_masks`` (the
    morphisms with range u and with source u at u), ``range_bits`` (1 <<
    r(m) per m) and the int ``unit_bits``.  Nothing here reads the labels
    or the topology, so every pair-groupoid union with the same block
    sizes attaches the one object that ``pair_groupoid_index`` keeps."""

    def __init__(self, range_idx, source_idx, inverse_idx, unit_mask, pairs):
        self.range_idx, self.source_idx, self.inverse_idx = range_idx, source_idx, inverse_idx
        self.unit_mask, self.pairs = unit_mask, pairs

    unit_numbers = cached_property(lambda self: tuple(np.flatnonzero(self.unit_mask).tolist()))
    ranges = cached_property(lambda self: tuple(self.range_idx.tolist()))
    sources = cached_property(lambda self: tuple(self.source_idx.tolist()))
    range_bits = cached_property(lambda self: tuple(1 << r for r in self.ranges))
    unit_bits = cached_property(lambda self: sum(1 << u for u in self.unit_numbers))

    @cached_property
    def end_masks(self) -> tuple:
        by_range, by_source = [0] * len(self.ranges), [0] * len(self.ranges)
        for k, (a, b) in enumerate(zip(self.ranges, self.sources)):
            by_range[a] |= 1 << k
            by_source[b] |= 1 << k
        return tuple(by_range), tuple(by_source)

    @cached_property
    def principal(self) -> bool:
        """Whether r x s is injective."""
        n = len(self.range_idx)
        return len(set((self.range_idx * n + self.source_idx).tolist())) == n

    @cached_property
    def generating_mask(self) -> np.ndarray:
        """The units and a generating set S, as a mask on the morphisms:
        every morphism is a composite of marked ones.

        S is greedy: each step adds the lowest-numbered morphism outside
        the set that the units and S so far generate under composition,
        and the closure is grown by passes over the numbered pairs until
        a pass adds nothing."""
        pa, pb, pc = self.pairs
        closed, kept = self.unit_mask.copy(), self.unit_mask.copy()
        while not closed.all():
            s = int(np.argmin(closed))
            closed[s] = kept[s] = True
            while True:
                size = closed.sum()
                closed[pc[closed[pa] & closed[pb]]] = True
                if closed.sum() == size:
                    break
        kept.flags.writeable = False
        return kept

    @cached_property
    def orbit_idx(self) -> np.ndarray:
        """The orbit of each unit, named by its lowest-numbered unit: the
        least r(m) over the m with s(m) = u, which is the same for every
        unit of the orbit.  Morphisms that are not units hold the
        morphism count."""
        n = len(self.range_idx)
        first = np.full(n, n)
        np.minimum.at(first, self.source_idx, self.range_idx)
        first.flags.writeable = False
        return first

    @cached_property
    def fiber_cells(self) -> tuple:
        """Every unit's induced matrix as a run of one permutation of the
        pairs, (cells, first, start, size, blocks, rest).  The pair (b, c)
        with s(c) = u is the entry of u's size[u] x size[u] matrix at the
        fiber positions of bc and c, once each, as b -> bc maps
        s^-1(r(c)) onto s^-1(u).  ``cells`` holds the pair numbers and
        ``first`` their b in cell order, each matrix row-major from
        start[u], so its first row's c are the fiber in morphism order.
        The orbit representatives (named by ``orbit_idx``) lead, by fiber
        size and then number, and the other units follow in the same
        order; so the runs of the m units of fiber size d in either group
        are one (m, d, d) stack.  ``blocks`` holds (offset, m, d) for each
        stack of representatives and ``rest`` for each stack of the
        others: a reduced norm reads ``blocks``, the model checks both."""
        n, src = len(self.range_idx), self.source_idx
        size, pos = _fiber_ranks(src)
        units = np.flatnonzero(self.unit_mask)
        rep = self.orbit_idx[units] == units
        units = units[np.lexsort((units, size[units], ~rep))]
        area = size[units] ** 2
        start = np.zeros(n, dtype=np.int64)
        start[units] = area.cumsum() - area
        pa, pb, pc = self.pairs
        u = src[pb]
        cells = np.empty(len(pa), dtype=np.int64)
        cells[start[u] + pos[pc] * size[u] + pos[pb]] = np.arange(len(pa))
        arrays = (cells, pa[cells], start, size)
        for a in arrays:
            a.flags.writeable = False
        stacks, offset, k = ([], []), 0, int(rep.sum())
        for group, out in zip((units[:k], units[k:]), stacks):
            for d, m in enumerate(np.bincount(size[group]).tolist()):
                if m:
                    out.append((offset, m, d))
                    offset += m * d * d
        return (*arrays, *map(tuple, stacks))

    @cached_property
    def pair_rows(self) -> tuple:
        """(row_start, rank): the running sum of |r^-1(s(a))| over a, the
        pair count last, and each b's place among the morphisms with range r(b)."""
        count, rank = _fiber_ranks(self.range_idx)
        row_start = np.concatenate(([0], count[self.source_idx].cumsum()))
        row_start.flags.writeable = rank.flags.writeable = False
        return row_start, rank

    def pair_number(self, a, b) -> np.ndarray:
        """The number in ``pairs`` of each (a, b) of int arrays (broadcast),
        -1 where s(a) != r(b): row a holds the b with r(b) = s(a) in
        morphism order, so it is row_start[a] + rank[b] (``pair_rows``)."""
        row_start, rank = self.pair_rows
        return np.where(self.source_idx[a] == self.range_idx[b], row_start[a] + rank[b], -1)


def _fiber_ranks(idx: np.ndarray) -> tuple:
    """(size, pos): size[u] = |idx^-1(u)|, pos[m] is m's place in idx^-1(idx[m])."""
    n = len(idx)
    size = np.bincount(idx, minlength=n)
    order = idx.argsort(kind="stable")
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n) - (size.cumsum() - size)[idx[order]]
    return size, pos


class FinGroupoid:
    """A finite topological groupoid, held as its integer index.

    ``index`` numbers the morphisms in order, the arrays ``range_idx``,
    ``source_idx`` and ``inverse_idx`` hold the structure maps on those
    numbers, ``unit_mask`` marks the units, ``pairs`` holds the factors
    and the composite of each composable pair in row-major order, and
    ``pair_number(a, b)`` numbers them (-1 elsewhere).  The arrays are
    those of ``layout``, the groupoid's ``IndexLayout``.  The constructor
    sorts and verifies an index, and ``_attach`` puts a verified one on a
    topology; a pair-groupoid union attaches the read-only ``IndexLayout``
    that ``pair_groupoid_index`` shares between every groupoid with the
    same block sizes.  ``units`` and the label tables ``range_map``,
    ``source_map`` and ``compose`` are derived from the index on first
    use, per groupoid.
    """

    def __init__(self, topology: FinSpace, range_idx, source_idx, inverse_idx, unit_mask, pairs):
        """A groupoid on the points of ``topology`` from its index arrays;
        ``pairs`` lists (a, b, ab) in any order.  The pairs are sorted
        row-major and attached to ``topology``, and the axioms verified
        on them."""
        pa, pb, pc = (np.asarray(p, dtype=np.int64).ravel() for p in pairs)
        order = np.lexsort((pb, pa))
        structure = (np.asarray(idx, dtype=np.int64) for idx in (range_idx, source_idx, inverse_idx))
        layout = IndexLayout(*structure, np.asarray(unit_mask, dtype=bool), (pa[order], pb[order], pc[order]))
        self._attach(topology, layout)
        self.verify_axioms()

    def _attach(self, topology: FinSpace, layout: IndexLayout) -> None:
        """Put ``layout`` on the points of ``topology``, as it is (no copy
        and no check), with empty per-groupoid caches; its arrays are
        bound to the groupoid's own attributes for reading."""
        self.topology, self.morphisms, self.index = topology, topology.points, topology._index
        self.layout = layout
        self.range_idx, self.source_idx, self.inverse_idx = layout.range_idx, layout.source_idx, layout.inverse_idx
        self.unit_mask, self.pairs = layout.unit_mask, layout.pairs
        self._props_cache = None
        self._orbits = None

    # -- label tables, derived from the index -------------------------------

    def _table(self, idx: np.ndarray) -> dict:
        m = self.morphisms
        return {a: m[b] for a, b in zip(m, idx.tolist())}

    @cached_property
    def units(self) -> frozenset:
        return frozenset(self.morphisms[u] for u in self.layout.unit_numbers)

    @cached_property
    def range_map(self) -> dict:
        return self._table(self.range_idx)

    @cached_property
    def source_map(self) -> dict:
        return self._table(self.source_idx)

    @cached_property
    def compose(self) -> dict:
        m = self.morphisms
        return {(m[a], m[b]): m[c] for a, b, c in zip(*(p.tolist() for p in self.pairs))}

    principal = property(lambda self: self.layout.principal)
    generating_mask = property(lambda self: self.layout.generating_mask)
    orbit_idx = property(lambda self: self.layout.orbit_idx)
    fiber_cells = property(lambda self: self.layout.fiber_cells)
    pair_number = property(lambda self: self.layout.pair_number)

    def orbits(self) -> tuple:
        """Orbits of the unit space, u ~ v when some morphism joins them,
        as tuples of units grouped by ``orbit_idx``.  Computed once."""
        if self._orbits is None:
            orbit, groups = self.orbit_idx.tolist(), {}
            for u in self.layout.unit_numbers:
                groups.setdefault(orbit[u], []).append(self.morphisms[u])
            self._orbits = tuple(tuple(g) for g in groups.values())
        return self._orbits

    def composable_pairs(self) -> list[tuple]:
        pa, pb, _ = self.pairs
        m = self.morphisms
        return [(m[a], m[b]) for a, b in zip(pa.tolist(), pb.tolist())]

    def triple_join(self, last: np.ndarray | None = None):
        """The composable triples (a, b, c) in lexicographic index order,
        as pair numbers, in consecutive blocks of at most ``TRIPLE_CHUNK``:
        each block is (ab, bc), and its k-th triple has (a, b) = pair ab[k]
        and (b, c) = pair bc[k].  With ``last``, a mask on the morphisms,
        only the triples whose c it marks.  Computed on demand and not
        stored."""
        pa, pb, _ = self.pairs
        # the pairs (b, c) with an admissible c; they are sorted by first
        # factor, so the ones through each b form a run
        tail = None if last is None else np.flatnonzero(last[pb])
        start = np.searchsorted(pa if tail is None else pa[tail], np.arange(len(self.morphisms) + 1))
        counts = (start[1:] - start[:-1])[pb]
        ends = np.cumsum(counts)
        first = ends - counts  # the number of the first triple through each pair ab
        total = int(ends[-1]) if len(ends) else 0
        for lo in range(0, total, TRIPLE_CHUNK):
            hi = min(lo + TRIPLE_CHUNK, total)
            a0, a1 = np.searchsorted(ends, (lo, hi - 1), side="right").tolist()
            ab = np.repeat(np.arange(a0, a1 + 1), counts[a0 : a1 + 1])[lo - first[a0] : hi - first[a0]]
            bc = start[pb[ab]] + np.arange(lo, hi) - first[ab]
            yield ab, bc if tail is None else tail[bc]

    def _first_nonassociative(self, last: np.ndarray | None = None) -> tuple | None:
        """The first triple of ``triple_join(last)`` with (ab)c != a(bc),
        as morphism numbers, or None.  Both sides are composable once the
        ranges and sources of composites are right."""
        pa, pb, pc = self.pairs
        for ab, bc in self.triple_join(last):
            bad = pc[self.pair_number(pc[ab], pb[bc])] != pc[self.pair_number(pa[ab], pc[bc])]
            if bad.any():
                k = int(np.argmax(bad))
                return int(pa[ab[k]]), int(pb[ab[k]]), int(pb[bc[k]])
        return None

    # -- validation --------------------------------------------------------

    def verify_axioms(self) -> None:
        """Check the groupoid axioms on the compiled index, raising
        ``GroupoidAxiomError`` with a witness at the first failure.

        Associativity needs no triple in a principal groupoid: once
        composites have the right range and source, (ab)c and a(bc) both
        run from s(c) to r(a), and r x s is injective.  Otherwise it is
        checked on the triples (a, b, c) with c marked by
        ``generating_mask``, which suffices by Light's associativity test
        (Clifford and Preston, *The Algebraic Theory of Semigroups* I,
        1.2): the set M of c with (ab)c = a(bc) for all composable a, b
        is closed under composition, since for c, d in M

            (ab)(cd) = ((ab)c)d = (a(bc))d = a((bc)d) = a(b(cd)),

        so M holds the units and S, hence everything they generate.  When
        that check fails, the full sweep over all composable triples in
        lexicographic order names the first failing triple.

        The pairs are the composable ones, each once, when all have s(a) = r(b),
        their keys a n + b strictly increase and they number sum_u |s^-1(u)| |r^-1(u)|.

        Of the inverse laws only m inv(m) = r(m) is checked: once inv is
        an involution that swaps range and source, (inv m, m) is that
        law's pair at inv m, so inv(m) m = r(inv m) = s(m).  Of the swap
        only s(inv m) = r(m) is tested: m fails r(inv m) = s(m) exactly
        when inv m fails it, so the witness is the least m or inv m over
        its failures.
        """
        morphs = self.morphisms
        n = len(morphs)
        every = np.arange(n)
        rng, src, inv, is_unit = self.range_idx, self.source_idx, self.inverse_idx, self.unit_mask
        bad = is_unit & ((rng != every) | (src != every))
        if bad.any():
            u = morphs[int(np.argmax(bad))]
            raise GroupoidAxiomError(f"unit {u!r} is not its own range and source", u)
        bad = ~(is_unit[rng] & is_unit[src])
        if bad.any():
            m = morphs[int(np.argmax(bad))]
            raise GroupoidAxiomError(f"range or source of {m!r} is not a unit", m)

        pa, pb, pc = self.pairs
        key = pa * n + pb
        if (src[pa] != rng[pb]).any() or (key[1:] <= key[:-1]).any() or len(key) != self.layout.pair_rows[0][-1]:
            # name the first pair, row-major, wrongly listed or left out, else the repeat
            defined = np.zeros((n, n), dtype=bool)
            defined[pa, pb] = True
            wrong = np.argwhere(defined != (src[:, None] == rng[None, :]))
            if len(wrong):
                a, b = (morphs[v] for v in wrong[0])
                raise GroupoidAxiomError(f"composition defined on ({a!r},{b!r}) iff sources/ranges mismatch", (a, b))
            k = 1 + int(np.argmax(key[1:] <= key[:-1]))
            a, b = morphs[pa[k]], morphs[pb[k]]
            raise GroupoidAxiomError(f"composable pair ({a!r},{b!r}) listed twice", (a, b))
        bad = (rng[pc] != rng[pa]) | (src[pc] != src[pb])
        if bad.any():
            k = int(np.argmax(bad))
            raise GroupoidAxiomError("range/source of a composite disagree with the factors", (morphs[pa[k]], morphs[pb[k]]))

        # unit laws: u b = b and a u = a on every composable pair
        bad = (is_unit[pa] & (pc != pb)) | (is_unit[pb] & (pc != pa))
        if bad.any():
            k = int(np.argmax(bad))
            raise GroupoidAxiomError(f"unit law fails at ({morphs[pa[k]]!r},{morphs[pb[k]]!r})")

        if not self.principal and self._first_nonassociative(self.generating_mask) is not None:
            triple = tuple(morphs[m] for m in self._first_nonassociative())
            raise GroupoidAxiomError(f"associativity fails at triple {triple!r}", triple)

        # inverse laws; once inv swaps range and source, (m, inv m) is
        # composable, and the right law is the left one at inv m
        if (inv[inv] != every).any():
            m = int(np.argwhere(inv[inv] != every)[0, 0])
            raise GroupoidAxiomError(f"inverse is not involutive at {morphs[m]!r}", morphs[m])
        bad = np.flatnonzero(src[inv] != rng)
        if len(bad):
            m = int(np.minimum(bad, inv[bad]).min())
            raise GroupoidAxiomError(f"inverse swaps range and source incorrectly at {morphs[m]!r}", morphs[m])
        left = pc[self.pair_number(every, inv)]
        if (left != rng).any():
            m = int(np.argwhere(left != rng)[0, 0])
            raise GroupoidAxiomError(f"m * inv(m) is not the unit at range({morphs[m]!r})", morphs[m])

    # -- representation -----------------------------------------------------

    def __len__(self):
        return len(self.morphisms)

    def __repr__(self):
        return f"<FinGroupoid with {len(self.morphisms)} morphisms, {len(self.units)} units>"


@lru_cache(maxsize=PAIR_INDEX_CACHE)
def pair_groupoid_index(sizes: tuple) -> IndexLayout:
    """The verified index of a disjoint union of pair groupoids, one
    block per entry of the tuple ``sizes``.

    Blocks are numbered one after another: in a block of size k at offset
    o, the pair (i, j) of its i-th and j-th points is o + ik + j, with
    range (i, i), source (j, j) and inverse (j, i), and (i, j)(j, l) =
    (i, l).  The pairs come out row-major.

    The index is built and verified once per size tuple, on the discrete
    space of its numbers, and returned with its arrays read-only, so every
    groupoid that attaches it shares one verified copy and what derives
    from it.  Above ``PAIR_INDEX_MORPHISMS`` morphisms it raises
    ``SizeCapError`` first.
    """
    if sum(k * k for k in sizes) > PAIR_INDEX_MORPHISMS:
        raise SizeCapError(f"pair-groupoid unions capped at {PAIR_INDEX_MORPHISMS} morphisms")
    size = np.asarray(sizes, dtype=np.int64)
    count = size * size
    k = np.repeat(size, count)
    o = np.repeat(np.cumsum(count) - count, count)
    i, j = np.divmod(np.arange(len(k)) - o, k)
    row_i, row_j = o + i * k, o + j * k  # the pairs (i, 0) and (j, 0)
    # pair (a, b) = ((i, j), (j, l)) for l < k, composite (i, l)
    pa = np.repeat(np.arange(len(k)), k)
    l = np.arange(len(pa)) - np.repeat(np.cumsum(k) - k, k)
    g = FinGroupoid(
        discrete(range(len(k))), row_i + i, row_j + j, row_j + i, i == j, (pa, row_j[pa] + l, row_i[pa] + l)
    )
    for a in (g.range_idx, g.source_idx, g.inverse_idx, g.unit_mask, *g.pairs):
        a.flags.writeable = False
    return g.layout


@lru_cache(maxsize=PAIR_INDEX_CACHE)
def relation_masks(sizes: tuple, base_masks: tuple) -> tuple:
    """``product_masks`` on ``pair_groupoid_index(sizes)`` from the masks
    of Y at its units, in unit order: the minimal opens of the product
    topology on a relation groupoid, computed once per pair of fiber
    sizes and topology of Y."""
    index = pair_groupoid_index(sizes)
    return tuple(product_masks(dict(zip(index.unit_numbers, base_masks)), index))


class RelationGroupoid(FinGroupoid):
    """The groupoid of pairs identified by a surjection psi: Y -> X.

    Morphisms are pairs (y, z) with psi(y) = psi(z); r(y, z) = (y, y),
    s(y, z) = (z, z), (x, y)(y, z) = (x, z).  Its fibers are positions of Y
    (``fiber_positions``), and the label ``fibers`` derive from them.  As an
    algebraic groupoid this is the disjoint union of the pair groupoids on
    the fibers, so everything derived from the index depends only on the
    tuple of fiber sizes and is shared read-only between the groupoids with
    that tuple: the ``IndexLayout`` of ``pair_groupoid_index``, verified
    once per tuple.  The topology, orbits and property cache are per groupoid.

    The base space Y is kept, as ``base_masks``: the minimal open of Y
    at each y carried to the unit numbers of the (y, y).  The default
    topology on the morphisms is the product topology of Y x Y restricted
    to them, whose masks ``relation_masks`` computes once per fiber sizes
    and ``base_masks``; each groupoid builds it unchecked (proof at ``product_masks``).
    Orbit-space constructions read Y even when a caller installs another
    topology on the morphisms (the mismatch is what the openness test
    detects).
    """

    def __init__(self, psi: SpaceMap, fibers: Sequence[Sequence[int]], topology: FinSpace | None = None):
        sizes = tuple(map(len, fibers))
        index, y, pts = pair_groupoid_index(sizes), psi.dom, psi.dom.points
        self.base, self.psi, self.fiber_positions = y, psi, fibers
        self.fibers = [[pts[p] for p in f] for f in fibers]
        # the units (y, y) come out fiber by fiber, as the positions do
        order, units = [p for f in fibers for p in f], index.unit_numbers
        self.base_labels = [pts[p] for p in order]
        unit_bit = {p: 1 << u for p, u in zip(order, units)}
        self.base_masks = {u: _union(unit_bit, y._mo[p]) for p, u in zip(order, units)}
        if topology is None:
            pairs = [(a, b) for f in self.fibers for a in f for b in f]
            topology = FinSpace.coherent(pairs, relation_masks(sizes, tuple(self.base_masks.values())))
        elif len(topology) != len(index.range_idx):
            raise ValueError("the topology's points are not the pairs of the fibers")
        self._attach(topology, index)

    def with_discrete_topology(self) -> "RelationGroupoid":
        """Same algebraic groupoid with the discrete morphism topology."""
        return RelationGroupoid(self.psi, self.fiber_positions, discrete(self.morphisms))


def product_masks(unit_mo: Mapping[int, int], layout: IndexLayout) -> list[int]:
    """The minimal opens of the morphisms in the topology that r x s
    pulls back from the product topology of a space on the units.

    ``unit_mo[u]`` masks, by morphism number, the units in the minimal
    open U_u of that space at the unit u.  The minimal open at m is
    rows[r(m)] & cols[s(m)], where rows[u] masks the morphisms whose range
    lies in U_u and cols[u] those whose source does: m' lies in the
    preimage of U_{r(m)} x U_{s(m)} exactly when both hold.  Coherent
    ``unit_mo`` give coherent masks: m lies in its own, and if m' lies in
    m's, then U_{r(m')} lies in U_{r(m)} and U_{s(m')} in U_{s(m)}.
    """
    by_range, by_source = layout.end_masks
    rows = {u: _union(by_range, mask) for u, mask in unit_mo.items()}
    cols = {u: _union(by_source, mask) for u, mask in unit_mo.items()}
    return [rows[a] & cols[b] for a, b in zip(layout.ranges, layout.sources)]


def build_relation_groupoid(psi: SpaceMap) -> RelationGroupoid:
    """Build the relation groupoid of a surjection with the product-subspace
    topology, on the verified index of its fiber sizes."""
    fibers: dict = {}
    for p, x in enumerate(psi.targets):
        fibers.setdefault(x, []).append(p)
    if len(fibers) != len(psi.cod):
        raise ValueError("psi must be surjective")
    return RelationGroupoid(psi, list(fibers.values()))


def _subspace_masks(groupoid: FinGroupoid) -> dict:
    """The minimal opens U_u & units of the unit subspace, keyed and
    masked by unit number."""
    mo, bits = groupoid.topology._mo, groupoid.layout.unit_bits
    return {u: mo[u] & bits for u in groupoid.layout.unit_numbers}


def _unit_base(groupoid: FinGroupoid) -> tuple:
    """The space whose quotient is the orbit space, on the units: its
    point at each unit, in unit order, and ``unit_mo`` as
    ``product_masks`` takes it.  For a relation groupoid that is Y at the
    units (y, y); otherwise the unit subspace."""
    if isinstance(groupoid, RelationGroupoid):
        return groupoid.base_labels, groupoid.base_masks
    masks = _subspace_masks(groupoid)
    return [groupoid.morphisms[u] for u in masks], masks


def _orbit_map(groupoid: FinGroupoid, labels: list, masks: Mapping[int, int]):
    """(X, q): the quotient by the orbit relation of the space on the
    units with point ``labels[k]`` and minimal open ``masks[u]`` (by
    morphism number) at its k-th unit u; that space is coherent as a
    subspace."""
    position = {u: 1 << k for k, u in enumerate(masks)}
    base = FinSpace.coherent(labels, [_union(position, m) for m in masks.values()])
    orbit = groupoid.orbit_idx.tolist()
    blocks: dict = {}
    for u, label in zip(masks, labels):
        blocks.setdefault(orbit[u], []).append(label)
    return quotient_space(base, blocks.values())


def orbit_space(groupoid: FinGroupoid):
    """Quotient of the unit space by the orbit relation.

    Returns (X, q), where q's domain is ``_unit_base``: Y or the unit
    subspace.  For an etale groupoid the orbit map of the unit subspace
    is open, since the saturation of an open set U is r(s^-1(U)); this
    is asserted.  Where the unit base is the unit subspace, as on every
    groupoid that is not a relation groupoid and on every relation
    groupoid whose morphism topology restricts to Y on the units, that
    map is q.
    """
    labels, masks = _unit_base(groupoid)
    space, q = _orbit_map(groupoid, labels, masks)
    if groupoid_properties(groupoid).etale:
        units = _subspace_masks(groupoid)
        unit_map = q if units == masks else _orbit_map(groupoid, labels, units)[1]
        if not classify_map(unit_map).open_map:
            raise InternalCheckFailure("etale groupoid with non-open orbit map")
    return space, q


@dataclass(frozen=True)
class GroupoidProperties:
    principal: bool
    etale: bool

    def as_dict(self) -> dict:
        return {"principal": self.principal, "etale": self.etale}


def groupoid_properties(groupoid: FinGroupoid) -> GroupoidProperties:
    """Principality and the etale property, read off the compiled index.

    principal means (r, s) is injective; the index computes it once.  etale
    means the range map is a local homeomorphism onto the unit space; the scan
    runs r over the groupoid's own minimal opens against the codomain masks
    U_u & units, the minimal opens of the subspace topology, so the unit space
    is never built.  The literal Cartan condition holds for every finite
    groupoid, because every subset of a finite space is compact; its
    meaningful finite surrogate is the r x s openness test of ``fell_check``.
    """
    if groupoid._props_cache is not None:
        return groupoid._props_cache
    scan = _scan_masks(groupoid.topology._mo, _subspace_masks(groupoid), groupoid.layout.ranges, groupoid.layout.range_bits)
    props = GroupoidProperties(groupoid.principal, all(scan))
    groupoid._props_cache = props
    return props


@dataclass(frozen=True)
class FellCheck:
    is_fell_model: bool
    r_times_s_open: bool
    r_times_s_continuous: bool
    witness: frozenset | None

    def as_dict(self) -> dict:
        return {
            "is_fell_model": self.is_fell_model,
            "r_times_s_open": self.r_times_s_open,
            "r_times_s_continuous": self.r_times_s_continuous,
            # r x s of a principal groupoid is a bijection onto R(q)
            "bijective": True,
            "witness": None if self.witness is None else sorted(map(canonical_label, self.witness)),
        }


def fell_check(groupoid: FinGroupoid) -> FellCheck:
    """Decide whether r x s is a topological isomorphism onto R(q).

    R(q) is the relation groupoid of the orbit quotient q, carrying the
    product topology of the unit space restricted to the relation.  For
    a principal groupoid r x s is a bijection onto R(q) by construction:
    it is injective by principality, and onto because two units lie in
    one orbit exactly when a morphism joins them.  So R(q) lives on the
    groupoid's own numbering, where ``product_masks`` gives its minimal
    opens from the base of the orbit space (Y for a relation groupoid),
    and the content is whether two topologies on one set agree: with
    minimal opens mo (the groupoid's) and rq (R(q)'s), r x s is
    continuous iff every mo[m] lies in rq[m], and open iff every rq[m]
    lies in mo[m] (the openness lemma of ``finspace``), so a homeomorphism
    iff mo == rq; if not open, the witness is the first mo[m] not open in R(q).
    """
    if not groupoid.principal:
        raise NonPrincipalError("fell_check requires a principal groupoid")
    rq = product_masks(_unit_base(groupoid)[1], groupoid.layout)
    mo = groupoid.topology._mo
    if mo == tuple(rq):
        return FellCheck(True, True, True, None)
    continuous = not any(u & ~v for u, v in zip(mo, rq))
    is_open = not any(v & ~u for u, v in zip(mo, rq))
    witness = None if is_open else groupoid.topology.unbits(next(u for u in mo if _union(rq, u) != u))
    return FellCheck(continuous and is_open, is_open, continuous, witness)


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


def orbit_map_check(relation: RelationGroupoid) -> OrbitMapReport:
    """Verify that x -> psi^{-1}(x) identifies the codomain with the orbit
    space of ``relation``, the relation groupoid of psi.

    Checks, in order: the map h is a bijection and h o psi is the orbit
    projection; if psi is continuous, h is open; if psi is a quotient
    map, h is a homeomorphism.  All clauses hold for every surjection;
    a False entry would indicate an implementation bug.
    """
    psi = relation.psi
    space, q = orbit_space(relation)
    h = {psi(fiber[0]): frozenset(fiber) for fiber in relation.fibers}
    blocks = set(h.values())
    bijective = blocks == set(space.points) and len(blocks) == len(psi.cod.points)
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
