"""Bundled input files and the builders they were generated from.

Three shipped JSON documents exercise the main pipelines end to end: a
periodic graph presentation whose infinite graph fails the openness
criterion with a two-parallel-edge witness, a trivially twisted pair
groupoid, and the tetrahedron-boundary cover with a coefficient class
certified nontrivial mod 3.  Tests pin the files to the builders.
"""

from __future__ import annotations

import itertools
from importlib import resources

from .finspace import SpaceMap, discrete
from .groupoid import build_relation_groupoid
from .serialize import parse_json
from .twist import CechData, TwoCocycle

BUNDLED_NAMES = ("two-thread-ladder", "trivial-cocycle", "tetrahedron-z3")

_FILES = {
    "two-thread-ladder": "two_thread_ladder.json",
    "trivial-cocycle": "trivial_cocycle.json",
    "tetrahedron-z3": "tetrahedron_z3.json",
}


def trivial_cocycle_model():
    """Pair groupoid on two points with the zero cocycle mod 4."""
    y = discrete(("1", "2"))
    x = discrete(("*",))
    relation = build_relation_groupoid(SpaceMap(y, x, {"1": "*", "2": "*"}))
    return relation, TwoCocycle.trivial(relation, 4)


def tetrahedron_cech(n: int = 3, value: int = 1) -> CechData:
    """Cover of the four facets of the tetrahedron boundary by vertex
    stars; all triple overlaps are single facets and there is no
    quadruple overlap, so the alternating data with a single nonzero
    entry is a cocycle whose class mod n is nontrivial for value != 0."""
    faces = [
        "".join(map(str, t)) for t in itertools.combinations((1, 2, 3, 4), 3)
    ]
    cover = {i: {f for f in faces if str(i) in f} for i in (1, 2, 3, 4)}
    entries = [(1, 2, 3, value)] + [
        (i, j, k, 0)
        for (i, j, k) in itertools.combinations((1, 2, 3, 4), 3)
        if (i, j, k) != (1, 2, 3)
    ]
    return CechData(n, faces, cover, entries)


def bundled_document(name: str) -> dict:
    if name not in _FILES:
        raise KeyError(f"unknown bundled input {name!r}; choose from {BUNDLED_NAMES}")
    text = resources.files("groupoidlab.data").joinpath(_FILES[name]).read_text()
    return parse_json(text)
