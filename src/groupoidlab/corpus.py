"""Deterministic corpora of small spaces, maps, graphs and cochains.

Exhaustive generators drive the equivalence suites (every topology on a
few points, every partition); the random generators are seeded so that
verification runs are reproducible, and the CLI reads the seed from the
GROUPOIDLAB_SEED environment variable.
"""

from __future__ import annotations

import os
import random
from functools import lru_cache

from .finspace import FinSpace, SpaceMap, _closure, _union, discrete

SEED_ENV_VAR = "GROUPOIDLAB_SEED"

# most point tuples whose partitions ``all_partitions`` keeps
PARTITION_CACHE = 16


def env_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")


@lru_cache(maxsize=None)
def _topology_relations(n: int) -> tuple:
    """All reflexive transitive relations on range(n), as row bitmasks.

    A finite topology is the same thing as such a relation via
    U_x = {y : rel[x] has bit y}.
    """
    if n == 0:
        return ((),)
    out = []
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for choice in range(1 << len(pairs)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(pairs):
            if (choice >> k) & 1:
                rows[i] |= 1 << j
        if all(_union(rows, m) == m for m in rows):
            out.append(tuple(rows))
    return tuple(out)


def all_topologies(n: int) -> list[FinSpace]:
    """Every topology on the labelled point set 0..n-1."""
    pts = tuple(range(n))
    return [FinSpace(pts, rows) for rows in _topology_relations(n)]


def all_partitions(points) -> tuple[tuple[frozenset, ...], ...]:
    """Every partition of a finite iterable, in a deterministic order.

    Computed once per point tuple (up to ``PARTITION_CACHE`` of them) and
    shared: the result is immutable, and each distinct block is one
    frozenset however many partitions hold it.
    """
    return _partitions(tuple(points))


@lru_cache(maxsize=PARTITION_CACHE)
def _partitions(pts: tuple) -> tuple:
    # the partitions of each suffix of pts, from the empty one up: those of
    # (p, *rest) are, for each partition of rest, {p} beside it and then p
    # joined to each of its blocks in turn
    blocks: dict = {}
    out: list = [()]
    for p in reversed(pts):
        single = blocks.setdefault(frozenset((p,)), frozenset((p,)))
        grown = []
        for sub in out:
            grown.append((single, *sub))
            for k, block in enumerate(sub):
                widened = block | single
                grown.append((*sub[:k], blocks.setdefault(widened, widened), *sub[k + 1 :]))
        out = grown
    return tuple(out)


def random_space(seed: int, max_points: int) -> FinSpace:
    """A random finite space with 1..max_points points."""
    rng = random.Random(seed)
    n = rng.randint(1, max_points)
    # random preorder: close a random relation reflexively and transitively
    rows = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < 0.3:
                rows[i] |= 1 << j
    return FinSpace(range(n), _closure(rows))


def random_partition(rng: random.Random, points) -> list[set]:
    pts = list(points)
    k = rng.randint(1, len(pts))
    blocks: list[set] = [set() for _ in range(k)]
    for i, p in enumerate(pts):
        if i < k:
            blocks[i].add(p)
        else:
            blocks[rng.randrange(k)].add(p)
    return [b for b in blocks if b]


def random_discrete_surjection(rng: random.Random, n: int) -> SpaceMap:
    """Random surjection between discrete spaces, as a quotient of a partition."""
    dom = discrete(tuple(range(n)))
    blocks = random_partition(rng, dom.points)
    cod = discrete(tuple(range(len(blocks))))
    assignment = {}
    for k, b in enumerate(blocks):
        for p in b:
            assignment[p] = k
    return SpaceMap(dom, cod, assignment)
