"""Twisted convolution *-algebras of finite etale groupoids.

With counting measure on discrete fibers the convolution is the exact
finite sum

    (f * g)(a) = sum over a = b c of f(b) g(c) zeta^{sigma(b, c)},

with zeta = exp(2 pi i / n), and the involution is

    f*(a) = conj( f(a^{-1}) zeta^{sigma(a, a^{-1})} ).

An element is a complex vector over the morphisms.  Each law reads one
table per cocycle, ``structure_constants``, on the groupoid's compiled
pair index: convolution is one scatter-add over the pairs, and induced
representations read one matrix entry per pair, in the cell order of the
groupoid's ``fiber_cells``, from one helper, ``_cell_values``.

Induced representations act on functions over source fibers; a unit's
matrix is a contiguous run of cells, and the units of one fiber size
are adjacent, so one product over the cells gives every unit's matrix
as (m, d, d) stacks.  The reduced norm is the largest induced operator
norm over the orbit representatives that ``orbit_idx`` names, whose runs
lead the layout, with one stacked SVD per source-fiber size.  The model
checks read every unit's matrix the same way, one product per element:
the axiom battery compares the stacks of f, g, fg and f*, and the
doubled-sheet model compares each element's cells with their partners
in the target's layout.  On top of the plain algebra the module builds the two
matrix-algebra models used throughout: the doubled-sheet model
(functions into N x N matrices, diagonal at the unglued boundary level)
and the Cech-twisted cover model with its boundary character and kernel
identification, plus the equivariant-slice equivalence for the central
extension Z_n x G.

Matrix algebras are twisted groupoid algebras too: ``matrix_unit_groupoid``
builds the groupoid on keys (i, j, label) with one full block per label.
The cover algebra of Cech data lambda is the algebra of the cover's
incidence groupoid, morphisms (i, j, s) with s in U_i cap U_j, twisted by
-lambda, so it has no product, star or representation of its own.

Each model's map is monomial, e_a -> c e_t, given as two arrays over the
source morphism numbers: t (-1 where the map gives 0) and c.
``check_star_hom`` compares the basis-product tables of source and
target, read off the groupoids' compiled pair index and the cocycle
phases, on every basis pair in one vectorized pass.  A map whose basis
images are nonzero multiples of distinct target basis elements, with
matching dimensions, is bijective; no separate round trip is run.  The
models compare norms and representations by pushing elements through the
same arrays (``linear_map``) and reading them in the target algebra.

Scalars are double precision; structural identities are asserted to
1e-12 and accumulated ones to 1e-9.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Hashable, Mapping

import numpy as np

from .errors import InternalCheckFailure, SizeCapError
from .finspace import SpaceMap, discrete, quotient_space
from .groupoid import (
    FinGroupoid,
    NonPrincipalError,
    RelationGroupoid,
    build_relation_groupoid,
    pair_groupoid_index,
)
from .twist import (
    CechData,
    CechError,
    CocycleError,
    TwoCocycle,
    are_cohomologous,
    cech_is_coboundary,
    cech_to_groupoid_cocycle,
    extension_groupoid,
    verify_two_cocycle,
)

STRUCTURAL_TOL = 1e-12
ACCUMULATED_TOL = 1e-9


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple:
    if n > 2**16:  # the table of n-th roots is built in full
        raise SizeCapError("twisted algebras capped at order 2**16")
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))


class AlgebraElement:
    """A complex function on the morphisms of a groupoid, tied to a
    cocycle (possibly trivial); ``vec`` holds its values in morphism order."""

    __slots__ = ("groupoid", "sigma", "vec")

    def __init__(self, groupoid: FinGroupoid, sigma: TwoCocycle, coeffs: Mapping[Hashable, complex]):
        if sigma.groupoid is not groupoid:
            raise CocycleError("cocycle belongs to a different groupoid")
        vec = np.zeros(len(groupoid.morphisms), dtype=complex)
        for m, v in coeffs.items():
            if m not in groupoid.index:
                raise ValueError(f"coefficient on unknown morphism {m!r}")
            vec[groupoid.index[m]] = complex(v)
        self.groupoid, self.sigma, self.vec = groupoid, sigma, vec

    @classmethod
    def char(cls, groupoid, sigma, morphism, value: complex = 1.0) -> "AlgebraElement":
        return cls(groupoid, sigma, {morphism: value})

    @property
    def coeffs(self) -> dict:
        """The nonzero values, keyed by morphism."""
        nonzero = np.flatnonzero(self.vec)
        morphisms = self.groupoid.morphisms
        return dict(zip([morphisms[i] for i in nonzero.tolist()], self.vec[nonzero].tolist()))

    def __call__(self, m) -> complex:
        return complex(self.vec[self.groupoid.index[m]])

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check_compatible(other)
        return _element(self.sigma, self.vec + other.vec)

    def _check_compatible(self, other: "AlgebraElement"):
        if self.groupoid is not other.groupoid or self.sigma != other.sigma:
            raise CocycleError("elements live in different twisted algebras")

    def __repr__(self):
        return f"AlgebraElement({self.coeffs!r})"


def _element(sigma: TwoCocycle, vec: np.ndarray) -> AlgebraElement:
    """The element with value vector ``vec`` in the algebra twisted by sigma."""
    f = object.__new__(AlgebraElement)
    f.groupoid, f.sigma, f.vec = sigma.groupoid, sigma, vec
    return f


def _mul(x, y) -> np.ndarray:
    """The entrywise complex product, formed from the float parts so that
    it rounds as Python's complex multiply does; numpy's complex multiply
    may fuse a product into the sum and land one ulp away."""
    real = x.real * y.real - x.imag * y.imag
    out = np.empty(real.shape, dtype=complex)
    out.real = real
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def structure_constants(sigma: TwoCocycle) -> tuple:
    """The point masses of the algebra twisted by ``sigma``: (groupoid,
    the phase zeta^sigma(a, b) of e_a e_b = phase e_ab on each numbered
    pair, the coefficient conj(zeta^sigma(a^-1, a)) of e_a* on each
    morphism).  Every product, star and representation reads this table;
    it is computed once per cocycle and kept on it."""
    cached = getattr(sigma, "_structure_constants", None)
    if cached is None:
        g = sigma.groupoid
        roots = np.array(_roots(sigma.n))
        phases = roots[sigma.values]
        stars = roots[sigma.values[g.pair_number(g.inverse_idx, np.arange(len(g.morphisms)))]].conj()
        cached = sigma._structure_constants = (g, phases, stars)
    return cached


def max_deviation(f: AlgebraElement, g: AlgebraElement) -> float:
    return float(np.abs(f.vec - g.vec).max(initial=0.0))


def identity_element(groupoid: FinGroupoid, sigma: TwoCocycle) -> AlgebraElement:
    return AlgebraElement(groupoid, sigma, {u: 1.0 for u in groupoid.units})


def convolve(f: AlgebraElement, g: AlgebraElement) -> AlgebraElement:
    """Twisted convolution: each numbered pair (b, c) adds
    f(b) g(c) zeta^{sigma(b, c)} to the composite bc, in pair order."""
    f._check_compatible(g)
    _, phases, _ = structure_constants(f.sigma)
    pa, pb, pc = f.groupoid.pairs
    out = np.zeros(len(f.vec), dtype=complex)
    np.add.at(out, pc, _mul(_mul(f.vec[pa], g.vec[pb]), phases))
    return _element(f.sigma, out)


def involute(f: AlgebraElement) -> AlgebraElement:
    """f*(a) = conj( f(a^{-1}) zeta^{sigma(a, a^{-1})} ).

    The conjugation spans the cocycle factor; that is the convention
    under which induced representations are *-representations and
    coboundary untwisting is a *-isomorphism.
    """
    _, _, stars = structure_constants(f.sigma)
    out = np.empty_like(f.vec)
    out[f.groupoid.inverse_idx] = _mul(f.vec.conj(), stars)
    return _element(f.sigma, out)


@dataclass(frozen=True)
class InducedRep:
    """The matrix of an induced representation at ``unit``; ``basis``, the
    source fiber's morphisms, is listed when first read."""

    unit: Hashable
    matrix: np.ndarray
    groupoid: FinGroupoid = field(repr=False)
    row: np.ndarray = field(repr=False)  # the first row's pairs, whose second factors are the basis

    @cached_property
    def basis(self) -> tuple:
        return tuple([self.groupoid.morphisms[c] for c in self.groupoid.pairs[1][self.row].tolist()])


def _cell_values(f: AlgebraElement, start: int = 0, stop: int | None = None) -> np.ndarray:
    """f(b) zeta^{sigma(b, c)} at the pair (b, c) of each of the cells
    start:stop of the groupoid's ``fiber_cells`` (default all): the
    entries of the induced matrices there, row-major, unit after unit."""
    cells, first, _, _, _, _ = f.groupoid.fiber_cells
    _, phases, _ = structure_constants(f.sigma)
    return _mul(f.vec[first[start:stop]], phases[cells[start:stop]])


def _stacks(values: np.ndarray, blocks: tuple) -> list:
    """The (m, d, d) stack of each (offset, m, d) of ``blocks`` in the
    cell values ``values``."""
    return [values[o:o + m * d * d].reshape(m, d, d) for o, m, d in blocks]


def induced_rep(u: Hashable, f: AlgebraElement) -> InducedRep:
    """The induced representation at a unit, realized by applying

        (Ind_u(f) xi)(a) = sum_{r(b) = r(a)} f(b) xi(b^{-1} a) zeta^{sigma(b, b^{-1}a)}

    to the point masses over the source fiber s^{-1}(u): each numbered
    pair (b, c) with s(c) = u puts f(b) zeta^{sigma(b, c)} at row bc,
    column c, which is u's run of the groupoid's ``fiber_cells``."""
    gp = f.groupoid
    if u not in gp.units:
        raise ValueError(f"{u!r} is not a unit")
    cells, _, start, size, _, _ = gp.fiber_cells
    o, d = start.item(gp.index[u]), size.item(gp.index[u])
    return InducedRep(u, _cell_values(f, o, o + d * d).reshape(d, d), gp, cells[o:o + d])


def operator_norm(matrices: np.ndarray) -> float:
    """The largest singular value in a (..., d, d) stack of matrices, from
    one ``svd`` call; 0.0 when the stack is empty."""
    if matrices.size == 0:
        return 0.0
    return float(np.linalg.svd(matrices, compute_uv=False).max())


def reduced_norm(f: AlgebraElement) -> float:
    """sup over units of the induced operator norm.  Units in one orbit
    give unitarily equivalent representations (covered by tests), so only
    the orbit representatives ``orbit_idx`` names are induced: their
    matrices are the leading cells of the groupoid's ``fiber_cells``,
    filled in one product, and each fiber size takes one stacked SVD."""
    _, _, _, _, blocks, _ = f.groupoid.fiber_cells
    values = _cell_values(f, 0, sum(m * d * d for _, m, d in blocks))
    return max(map(operator_norm, _stacks(values, blocks)), default=0.0)


# -- *-homomorphisms on a basis ---------------------------------------------------


def linear_map(target: TwoCocycle, t_of: np.ndarray, c_of: np.ndarray) -> Callable:
    """The linear map e_a -> c_of[a] e_t_of[a], over the source morphism
    numbers a, into the algebra twisted by ``target``, as a function of
    elements; a morphism with ``t_of`` -1 maps to 0."""
    mapped = np.flatnonzero(t_of >= 0)

    def apply(f: AlgebraElement) -> AlgebraElement:
        vec = np.zeros(len(target.groupoid.morphisms), dtype=complex)
        np.add.at(vec, t_of[mapped], _mul(f.vec[mapped], c_of[mapped]))
        return _element(target, vec)

    return apply


def _deviation(key1, val1, key2, val2) -> np.ndarray:
    """|val1 e_key1 - val2 e_key2| entrywise; key -1 stands for zero."""
    return np.where(key1 == key2, np.abs(val1 - val2), np.maximum(np.abs(val1), np.abs(val2)))


@dataclass(frozen=True)
class StarHomCheck:
    multiplicative_dev: float
    witness: tuple | None  # basis pair with the largest product deviation
    star_dev: float
    bijective: bool


def check_star_hom(source: tuple, target: tuple, t_of: np.ndarray, c_of: np.ndarray, basis=None) -> StarHomCheck:
    """Check that the linear map e_a -> c_of[a] e_t_of[a], over the
    source morphism numbers a, is a *-homomorphism; a morphism with
    ``t_of`` -1 maps to 0, and its ``c_of`` is not read.

    ``source`` and ``target`` are ``structure_constants`` triples.  By
    bilinearity every ordered pair of ``basis`` elements, an int array of
    source morphism numbers (default: all of them), decides
    multiplicativity, so the two sides' product tables are compared on
    all of them at once.  The witness is the first pair in basis order
    with the largest deviation, None when none deviates.  ``bijective`` says the basis images are nonzero multiples
    of distinct target basis elements, which makes the map bijective
    whenever the caller's target has the same dimension.
    """
    sg, s_phase, s_star = source
    tg, t_phase, t_star = target
    # a last slot holds the zero image, which index -1 reads
    c_of = np.append(np.where(t_of >= 0, c_of, 0), 0)
    t_of = np.append(t_of, -1)
    bas = np.arange(len(sg.morphisms)) if basis is None else basis
    t, c = t_of[bas], c_of[bas]
    # e_a e_b = phase e_ab maps to phase c_ab e_t(ab); pair id -1 reads the padding, zero
    pid = sg.pair_number(bas[:, None], bas[None, :])
    ab = np.append(sg.pairs[2], -1)[pid]
    lhs_key, lhs = t_of[ab], np.append(s_phase, 0)[pid] * c_of[ab]
    # (c_a e_t(a)) (c_b e_t(b)) = phase c_a c_b e_t(a)t(b); pair id -1 where either image is 0
    tid = np.where((t[:, None] < 0) | (t[None, :] < 0), -1, tg.pair_number(t[:, None], t[None, :]))
    rhs_key = np.append(tg.pairs[2], -1)[tid]
    rhs = np.append(t_phase, 0)[tid] * c[:, None] * c[None, :]
    dev = _deviation(lhs_key, lhs, rhs_key, rhs)
    mult_dev = float(dev.max(initial=0.0))
    witness = None
    if mult_dev > 0:
        i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
        witness = (sg.morphisms[bas[i]], sg.morphisms[bas[j]])
    inv = sg.inverse_idx[bas]
    star_dev = _deviation(
        t_of[inv], s_star[bas] * c_of[inv],
        np.append(tg.inverse_idx, -1)[t], c.conj() * np.append(t_star, 0)[t],
    )
    bijective = bool((t >= 0).all() and (c != 0).all()) and len(set(t.tolist())) == len(t)
    return StarHomCheck(mult_dev, witness, float(star_dev.max(initial=0.0)), bijective)


def matrix_unit_groupoid(blocks: Mapping, n: int = 1, lam: Callable | None = None) -> TwoCocycle:
    """A direct sum of matrix algebras as a twisted groupoid algebra: the
    groupoid on keys (i, j, label) for i, j in the index tuple
    ``blocks[label]``, with (i,j,l)(j,k,l) = (i,k,l) and the cocycle
    -lam(i, j, k) mod n (zero without ``lam``), so that
    e_ij e_jk = zeta^{-lam(i,j,k)} e_ik and e_ij* = e_ji.  The keys run
    label by label, row-major within a block, which is the numbering of
    ``pair_groupoid_index``, so the groupoid attaches the one verified
    index object shared by every pair-groupoid union with these block
    sizes.  Returns the cocycle, which carries the groupoid."""
    keys = [(i, j, label) for label, idx in blocks.items() for i in idx for j in idx]
    groupoid = FinGroupoid.__new__(FinGroupoid)
    groupoid._attach(discrete(keys), pair_groupoid_index(tuple(len(idx) for idx in blocks.values())))
    if lam is None:
        return TwoCocycle.trivial(groupoid, n)
    pa, pb, _ = groupoid.pairs
    return TwoCocycle.from_values(groupoid, n, [
        -lam(keys[a][0], keys[a][1], keys[b][1]) for a, b in zip(pa.tolist(), pb.tolist())
    ])


# -- block decomposition --------------------------------------------------------


@dataclass(frozen=True)
class BlockCheck:
    multiplicative_dev: float
    involutive_dev: float
    bijective: bool
    dimension_identity: bool
    norm_dev: float
    untwisted: bool


class BlockDecomposition:
    """The *-isomorphism of the twisted algebra of a relation groupoid
    with a direct sum of matrix algebras, one block per orbit.

    The cocycle is untwisted by a cohomology witness when one exists
    (for these principal groupoids one always does, but the code checks
    rather than assumes); otherwise blocks are labelled twisted.
    """

    def __init__(self, relation: RelationGroupoid, sigma: TwoCocycle):
        if not isinstance(relation, RelationGroupoid):
            raise TypeError("block decomposition needs a relation groupoid")
        if not relation.base.is_discrete():
            raise ValueError("block decomposition requires a discrete base")
        if sigma.groupoid is not relation:
            raise CocycleError("cocycle is not defined on this groupoid")
        self.relation = relation
        self.sigma = sigma
        self.orbits = tuple(tuple(u[0] for u in orbit) for orbit in relation.orbits())
        self.dims = tuple(len(o) for o in self.orbits)

    @cached_property
    def witness(self):
        return are_cohomologous(self.sigma, TwoCocycle.trivial(self.relation, self.sigma.n))

    @cached_property
    def untwisted(self) -> bool:
        return self.witness is not None

    @cached_property
    def coefficients(self) -> np.ndarray:
        """The c of e_(y,z) -> c e_(y,z,k) in morphism order, which is the
        target's: its m is (y, z, k) for the relation's m = (y, z).
        sigma = d(witness), so rescaling by zeta^{+witness} carries the
        twisted product to the matrix product; ones without a witness."""
        if not self.untwisted:
            return np.ones(len(self.relation.morphisms), dtype=complex)
        return np.array(_roots(self.sigma.n))[list(self.witness.values.values())]

    @cached_property
    def target(self) -> TwoCocycle:
        """The direct sum of matrix algebras, block k on orbit k, on the
        relation's own index."""
        return matrix_unit_groupoid(dict(enumerate(self.orbits)))

    @cached_property
    def rho(self) -> Callable[[AlgebraElement], AlgebraElement]:
        return linear_map(self.target, np.arange(len(self.relation.morphisms)), self.coefficients)

    def verify(self, rng: random.Random | None = None) -> BlockCheck:
        rng = rng or random.Random(0)
        rel, sigma = self.relation, self.sigma
        every, c = np.arange(len(rel.morphisms)), self.coefficients
        check = check_star_hom(structure_constants(sigma), structure_constants(self.target), every, c)
        dim_ok = sum(d * d for d in self.dims) == len(rel.morphisms)
        return BlockCheck(
            check.multiplicative_dev, check.star_dev, check.bijective and dim_ok, dim_ok,
            _norm_dev(rng, sigma, self.rho, 5), self.untwisted,
        )


def block_decompose(relation: RelationGroupoid, sigma: TwoCocycle) -> BlockDecomposition:
    return BlockDecomposition(relation, sigma)


def random_element(rng: random.Random, groupoid: FinGroupoid, sigma: TwoCocycle) -> AlgebraElement:
    if sigma.groupoid is not groupoid:
        raise CocycleError("cocycle belongs to a different groupoid")
    # per morphism: one draw for the support, which holds it with
    # probability 0.7, and two more for a value in it, each -1 + 2 x as
    # ``rng.uniform(-1, 1)`` forms it
    draw = rng.random
    values = [complex(-1 + 2 * draw(), -1 + 2 * draw()) if draw() < 0.7 else 0j for _ in groupoid.morphisms]
    return _element(sigma, np.array(values, dtype=complex))


def _norm_dev(rng: random.Random, sigma: TwoCocycle, rho: Callable, rounds: int, off: int | None = None) -> float:
    """The largest | ||f|| - ||rho(f)|| | over ``rounds`` random elements f
    of the algebra twisted by ``sigma``, each set to 0 at ``off`` if given."""
    dev = 0.0
    for _ in range(rounds):
        f = random_element(rng, sigma.groupoid, sigma)
        if off is not None:
            f.vec[off] = 0
        dev = max(dev, abs(reduced_norm(f) - reduced_norm(rho(f))))
    return dev


# -- doubled-sheet model (matrix functions, diagonal at the boundary) ------------


@dataclass
class DoubledModelReport:
    levels: int
    sheets: int
    relation: RelationGroupoid
    decomposition: BlockDecomposition
    block_shape: tuple
    rho_multiplicative_dev: float
    rho_involutive_dev: float
    rho_bijective: bool
    norm_dev: float
    unitary_equiv_dev: float

    @property
    def ok(self) -> bool:
        return (
            self.rho_bijective
            and self.rho_multiplicative_dev < STRUCTURAL_TOL
            and self.rho_involutive_dev < STRUCTURAL_TOL
            and self.unitary_equiv_dev < STRUCTURAL_TOL
            and self.norm_dev < ACCUMULATED_TOL
        )

    def as_dict(self) -> dict:
        out = {k: v for k, v in vars(self).items() if k not in ("relation", "decomposition")}
        return {**out, "block_shape": list(self.block_shape), "ok": self.ok}


def build_doubled_model(levels: int, sheets: int, rng: random.Random | None = None) -> DoubledModelReport:
    """Discrete model of N glued sheets over a segment: Y has ``levels``
    points per sheet, all sheets are identified except at the last level.

    Verifies that f -> (t -> matrix of level-t values) is a bijective
    *-homomorphism onto functions into N x N matrices that are diagonal
    at the unglued level, that it is isometric for the reduced norm, and
    that evaluating at a level is unitarily equivalent to the induced
    representation there via the sheet-relabelling permutation.  The
    permutation is one map from the relation groupoid's fiber cells to
    the target's, built once; each element's induced matrices at every
    unit, and rho(f)'s at every level, come from one product each, so a
    round is one comparison.
    """
    if levels < 2 or sheets < 1:
        raise ValueError("need at least 2 levels and 1 sheet")
    if levels * sheets > 64:
        raise SizeCapError("levels * sheets capped at 64")
    rng = rng or random.Random(1)
    base = discrete([(t, i) for t in range(levels) for i in range(1, sheets + 1)])
    partition = [
        frozenset((t, i) for i in range(1, sheets + 1)) for t in range(levels - 1)
    ] + [frozenset({(levels - 1, i)}) for i in range(1, sheets + 1)]
    _, psi = quotient_space(base, partition)
    relation = build_relation_groupoid(psi)
    sigma = TwoCocycle.trivial(relation, 1)
    decomposition = block_decompose(relation, sigma)
    shape = tuple(sorted(decomposition.dims, reverse=True))

    target = matrix_unit_groupoid({t: range(1, sheets + 1) for t in range(levels)})
    # e_((t,i),(t,j)) -> e_(i,j,t)
    t_of = np.array([target.groupoid.index[(i, j, t)] for ((t, i), (_, j)) in relation.morphisms])
    ones = np.ones(len(t_of), dtype=complex)
    check = check_star_hom(structure_constants(sigma), structure_constants(target), t_of, ones)
    # onto the matrix functions that are diagonal at the unglued level
    target_dim = (levels - 1) * sheets * sheets + sheets
    bijective = (
        check.bijective
        and len(t_of) == target_dim
        and all(i == j for ((t, i), (_, j)) in relation.morphisms if t == levels - 1)
    )
    rho = linear_map(target, t_of, ones)
    norm_dev = _norm_dev(rng, sigma, rho, 5)

    # evaluation at level t (inducing rho(f) at (i, i, t)) is unitarily
    # equivalent to inducing f at the unit (t, i): the unitary relabels the
    # fiber basis ((t,j),(t,i)) -> (j, i, t), one point at the unglued level:
    # each of its points is a block of the partition on its own, so the
    # source fiber of R(psi) at its unit is that unit alone.  So the entry
    # of the pair (b, c) sits at the pair (rho b, rho c), and each cell of
    # the relation's ``fiber_cells`` has one partner cell in the target's.
    # On point masses the induced matrices hold the products compared
    # above, so only dense elements add to the multiplicative deviation.
    cells, *_ = relation.fiber_cells
    t_cells, *_ = target.groupoid.fiber_cells
    where = np.empty_like(t_cells)
    where[t_cells] = np.arange(len(t_cells))
    pa, pb, _ = relation.pairs
    partner = where[target.groupoid.pair_number(t_of[pa[cells]], t_of[pb[cells]])]
    uni_dev = check.multiplicative_dev
    for _ in range(3):
        f = random_element(rng, relation, sigma)
        dev = np.abs(_cell_values(f) - _cell_values(rho(f))[partner]).max()
        uni_dev = max(uni_dev, float(dev))
    return DoubledModelReport(
        levels, sheets, relation, decomposition, shape,
        check.multiplicative_dev, check.star_dev, bijective, norm_dev, uni_dev,
    )


# -- cover model (Cech-twisted matrix functions) ----------------------------------


class CoverAlgebra:
    """Functions (f_ij) on a finite base, f_ij supported in the overlap
    U_i cap U_j, multiplied with cocycle phases:

        (f g)_il(s) = sum_{j : s in U_ijl} zeta^{-lambda(i,j,l)} f_ij(s) g_jl(s),

    with involution (f*)_ij = conj(f_ji) and one matrix representation
    pi_{i,s}[j, k] = zeta^{-lambda(i,j,k)} f_jk(s) over the incidence set
    I_s for every i in I_s.

    This is the twisted algebra of the cover's incidence groupoid, the
    ``matrix_unit_groupoid`` with one block I_s per base point s and
    cocycle -lambda; pi_{i,s} is its induced representation at the unit
    (i, i, s).  An element is an ``AlgebraElement`` on ``groupoid`` and
    ``sigma``, built from a sparse dict over the keys (i, j, s), for
    ``convolve``, ``involute``, ``induced_rep`` and ``reduced_norm``.
    """

    def __init__(self, base_points, cover: Mapping[int, frozenset], n: int, lam: Callable[[int, int, int], int]):
        self.base_points = tuple(base_points)
        self.cover = {int(i): frozenset(part) for i, part in cover.items()}
        self.indices = tuple(sorted(self.cover))
        self.incidence = {
            s: tuple(i for i in self.indices if s in self.cover[i]) for s in self.base_points
        }
        self.sigma = matrix_unit_groupoid(self.incidence, n, lam)
        self.groupoid = self.sigma.groupoid

    def verify(self, rng: random.Random | None = None) -> "CoverAlgebraCheck":
        """The axiom battery on random elements, and the exact cocycle
        identity of -lambda; the groupoid axioms ran at construction."""
        return axiom_battery(self.sigma, rng or random.Random(2))


@dataclass(frozen=True)
class CoverAlgebraCheck:
    """What ``axiom_battery`` measured.  The cover model gates on ``ok``;
    ``algebra-verify`` reports the same fields under its own names."""

    associativity_dev: float
    star_dev: float
    representation_dev: float
    cstar_dev: float
    cocycle_valid: bool

    @property
    def ok(self) -> bool:
        return (
            self.cocycle_valid
            and self.associativity_dev < STRUCTURAL_TOL
            and self.star_dev < STRUCTURAL_TOL
            and self.representation_dev < STRUCTURAL_TOL
            and self.cstar_dev < ACCUMULATED_TOL
        )


def axiom_battery(sigma: TwoCocycle, rng: random.Random) -> CoverAlgebraCheck:
    """Four rounds of three random elements f, g, h: associativity,
    f** = f and (fg)* = g* f*, multiplicativity and *-preservation of the
    induced representation at every unit, and the C* identity of the
    reduced norm; plus the exact cocycle identity of ``sigma``.  The
    induced matrices of f, g, fg and f* at every unit come from one
    product each over the groupoid's ``fiber_cells``, as (m, d, d)
    stacks, so each stack takes one batched matmul and one conjugate
    transpose."""
    groupoid = sigma.groupoid
    _, _, _, _, blocks, rest = groupoid.fiber_cells
    assoc = star = rep = cstar = 0.0
    for _ in range(4):
        f, g, h = (random_element(rng, groupoid, sigma) for _ in range(3))
        fg, fstar = convolve(f, g), involute(f)
        assoc = max(assoc, max_deviation(convolve(fg, h), convolve(f, convolve(g, h))))
        star = max(
            star,
            max_deviation(involute(fstar), f),
            max_deviation(involute(fg), convolve(involute(g), fstar)),
        )
        # every unit's matrices of f, g, fg and f*, one stack per block
        stacks = (_stacks(_cell_values(x), blocks + rest) for x in (f, g, fg, fstar))
        for mf, mg, mfg, mstar in zip(*stacks):
            rep = max(
                rep,
                float(np.max(np.abs(mfg - mf @ mg))),
                float(np.max(np.abs(mstar - mf.conj().transpose(0, 2, 1)))),
            )
        cstar = max(cstar, abs(reduced_norm(convolve(fstar, f)) - reduced_norm(f) ** 2))
    return CoverAlgebraCheck(assoc, star, rep, cstar, verify_two_cocycle(sigma).valid)


@dataclass
class DoubledCoverSpace:
    """The doubled cover space: a copy of the first cover set is added
    (index 0) along with one fresh point lying only in sets 0 and 1, and
    the resulting disjoint union is glued along everything except the
    fresh point, giving two closed points in the quotient."""

    cech: CechData
    star: Hashable
    base: tuple
    cover: dict
    psi: SpaceMap
    relation: RelationGroupoid

    def extended_value(self, i: int, j: int, k: int) -> int:
        sub = tuple(1 if t == 0 else t for t in (i, j, k))
        if len(set(sub)) < 3:
            return 0
        return self.cech.value(*sub)


def build_doubled_cover_space(data: CechData) -> DoubledCoverSpace:
    if 1 not in data.cover or 0 in data.cover:
        raise CechError("doubling expects cover indices starting at 1")
    if not data.cover[1]:
        raise CechError("cover set 1 is empty; nothing to double")
    star = "*"
    while star in data.base_points:
        star += "*"
    base = data.base_points + (star,)
    cover = {0: data.cover[1] | {star}, 1: data.cover[1] | {star}}
    for i in data.indices:
        if i != 1:
            cover[i] = data.cover[i]
    points = [(s, i) for i in sorted(cover) for s in data.base_points if s in cover[i]]
    points += [(star, 0), (star, 1)]
    pts_set = set(points)
    space = discrete(points)
    blocks = [
        frozenset((s, i) for i in sorted(cover) if (s, i) in pts_set)
        for s in data.base_points
    ]
    blocks += [frozenset({(star, 0)}), frozenset({(star, 1)})]
    _, psi = quotient_space(space, blocks)
    relation = build_relation_groupoid(psi)
    return DoubledCoverSpace(data, star, base, cover, psi, relation)


@dataclass
class CoverModelReport:
    cech: CechData
    algebra: CoverAlgebra
    algebra_check: CoverAlgebraCheck
    doubled: DoubledCoverSpace
    sigma: TwoCocycle
    kernel_algebra: CoverAlgebra
    kernel_check: CoverAlgebraCheck
    character_dev: float
    character_is_induced_dev: float
    kernel_iso_mult_dev: float
    kernel_iso_star_dev: float
    kernel_iso_bijective: bool
    kernel_norm_dev: float
    twist_nontrivial_certified: bool

    @property
    def ok(self) -> bool:
        return (
            self.algebra_check.ok
            and self.kernel_check.ok
            and self.character_dev < STRUCTURAL_TOL
            and self.character_is_induced_dev < STRUCTURAL_TOL
            and self.kernel_iso_mult_dev < STRUCTURAL_TOL
            and self.kernel_iso_star_dev < STRUCTURAL_TOL
            and self.kernel_iso_bijective
            and self.kernel_norm_dev < ACCUMULATED_TOL
        )

    def as_dict(self) -> dict:
        return {
            "order": self.cech.n,
            "algebra_axioms_ok": self.algebra_check.ok,
            "kernel_algebra_axioms_ok": self.kernel_check.ok,
            "character_dev": self.character_dev,
            "character_is_induced_dev": self.character_is_induced_dev,
            "kernel_iso_mult_dev": self.kernel_iso_mult_dev,
            "kernel_iso_star_dev": self.kernel_iso_star_dev,
            "kernel_iso_bijective": self.kernel_iso_bijective,
            "kernel_norm_dev": self.kernel_norm_dev,
            "twist_nontrivial_certified": self.twist_nontrivial_certified,
            "note": "nontriviality is certified for the combinatorial nerve class "
            "with constant Z/n coefficients at the stated order",
            "ok": self.ok,
        }


def build_cover_model(data: CechData, rng: random.Random | None = None) -> CoverModelReport:
    """Realize the cover algebra of a verified alternating cocycle, then
    run the doubled-point construction on top of it.

    The doubled cover space is built and lambda transported to it first,
    before any random draw.  The transport's ``verify_cech`` is the one
    gate on lambda, so a cover without index 1, with index 0 or with an
    empty set 1 is named by the doubling's CechError before lambda is
    verified.

    The doubled relation groupoid carries the transported cocycle; the
    unit over the fresh point in the added copy has a singleton source
    fiber, so inducing there is a character.  The character's kernel is
    identified with the cover algebra of the punctured cover (set 0 loses
    the fresh point), and the identification is verified to be a
    bijective *-isomorphism on the spanning set, matching norms.
    """
    if len(data.base_points) > 32:
        raise SizeCapError("cover model capped at 32 base points")
    doubled = build_doubled_cover_space(data)
    sigma = cech_to_groupoid_cocycle(doubled)
    rng = rng or random.Random(3)

    algebra = CoverAlgebra(data.base_points, data.cover, data.n, data.value)
    algebra_check = algebra.verify(rng)

    relation = doubled.relation
    star = doubled.star
    star_unit = ((star, 0), (star, 0))

    def character(f: AlgebraElement) -> complex:
        return f(star_unit)

    products = structure_constants(sigma)
    star_idx = relation.index[star_unit]
    ones = np.ones(len(relation.morphisms), dtype=complex)
    # the character is a *-homomorphism onto C, the 1 x 1 matrices
    char_of = np.full(len(ones), -1)
    char_of[star_idx] = 0
    char_check = check_star_hom(products, structure_constants(matrix_unit_groupoid({0: (0,)})), char_of, ones)
    char_dev = max(char_check.multiplicative_dev, char_check.star_dev)
    for _ in range(4):
        f, g = random_element(rng, relation, sigma), random_element(rng, relation, sigma)
        char_dev = max(char_dev, abs(character(convolve(f, g)) - character(f) * character(g)))
        char_dev = max(char_dev, abs(character(involute(f)) - character(f).conjugate()))
    char_ind_dev = 0.0
    samples = [AlgebraElement.char(relation, sigma, m) for m in relation.morphisms[:8]]
    for f in samples + [random_element(rng, relation, sigma)]:
        ind = induced_rep(star_unit, f)
        if len(ind.basis) != 1:
            raise InternalCheckFailure("the fresh point's source fiber is not a singleton")
        char_ind_dev = max(char_ind_dev, abs(complex(ind.matrix[0, 0]) - character(f)))

    # the punctured cover: set 0 loses the fresh point
    v_cover = {**doubled.cover, 0: data.cover[1]}
    kernel_algebra = CoverAlgebra(doubled.base, v_cover, data.n, doubled.extended_value)
    kernel_check = kernel_algebra.verify(rng)

    # (s, i) ~ (s, j) -> e_{ij,s}; the kernel is an ideal, so products of
    # kernel basis elements stay in the kernel
    kernel_index = kernel_algebra.groupoid.index
    phi = np.array([
        -1 if ((s, i), (s2, j)) == star_unit else kernel_index[(i, j, s)]
        for ((s, i), (s2, j)) in relation.morphisms
    ])
    basis = np.flatnonzero(phi >= 0)
    iso = check_star_hom(products, structure_constants(kernel_algebra.sigma), phi, ones, basis)
    # distinct targets, as many as the kernel's morphisms: onto
    iso_bijective = iso.bijective and len(basis) == len(kernel_algebra.groupoid.morphisms)
    # random elements of the kernel: their value at the fresh point is 0
    norm_dev = _norm_dev(rng, sigma, linear_map(kernel_algebra.sigma, phi, ones), 4, star_idx)

    certified = not cech_is_coboundary(data).is_coboundary
    return CoverModelReport(
        cech=data,
        algebra=algebra,
        algebra_check=algebra_check,
        doubled=doubled,
        sigma=sigma,
        kernel_algebra=kernel_algebra,
        kernel_check=kernel_check,
        character_dev=char_dev,
        character_is_induced_dev=char_ind_dev,
        kernel_iso_mult_dev=iso.multiplicative_dev,
        kernel_iso_star_dev=iso.star_dev,
        kernel_iso_bijective=iso_bijective,
        kernel_norm_dev=norm_dev,
        twist_nontrivial_certified=certified,
    )


# -- equivariant slice equivalence for the central extension ----------------------


@dataclass
class EquivariantSuiteReport:
    order: int
    conjugated: bool
    rho_bijective: bool
    equivariance_dev: float
    rho_multiplicative_dev: float
    rho_star_dev: float
    rep_equivalence_dev: float
    mismatch_witness: tuple | None

    @property
    def ok(self) -> bool:
        return (
            self.rho_bijective
            and self.equivariance_dev < STRUCTURAL_TOL
            and self.rho_multiplicative_dev < STRUCTURAL_TOL
            and self.rho_star_dev < STRUCTURAL_TOL
            and self.rep_equivalence_dev < STRUCTURAL_TOL
        )

    def as_dict(self) -> dict:
        witness = None if self.mismatch_witness is None else [str(x) for x in self.mismatch_witness]
        return {**vars(self), "mismatch_witness": witness, "ok": self.ok}


def equivariant_suite(
    groupoid: FinGroupoid,
    sigma: TwoCocycle,
    *,
    conjugate: bool = True,
    rng: random.Random | None = None,
) -> EquivariantSuiteReport:
    """Verify that slicing at z = 0 is a *-isomorphism from the
    equivariant convolution algebra of the extension Z_n x G onto the
    algebra twisted by the conjugate cocycle, and that left convolution
    on an equivariant source fiber is unitarily equivalent to the induced
    representation of the slice.

    The circle integral becomes the normalized average over Z_n; with
    equivariant functions the average collapses to a single term, which
    is what makes the slice map multiplicative.  Passing
    ``conjugate=False`` skips the conjugation of the cocycle; the report
    then exhibits a composable pair where multiplicativity fails, so the
    necessity of the conjugate is itself a tested fact.
    """
    if not groupoid.principal:
        raise NonPrincipalError("equivariant suite requires a principal groupoid")
    n = sigma.n
    if n * len(groupoid.morphisms) > 512:
        raise SizeCapError("extension capped at 512 morphisms")
    rng = rng or random.Random(4)
    ext = extension_groupoid(groupoid, sigma)
    triv_ext = TwoCocycle.trivial(ext, 1)
    target = sigma.conjugate() if conjugate else sigma

    m_count = len(groupoid.morphisms)
    roots = np.array(_roots(n))

    # the extension's morphisms (z, m) run z-major, so a function on them
    # is an n x |G| table with row z the values at (z, .)
    def lift(f: AlgebraElement) -> AlgebraElement:
        """The equivariant function with slice f: (z, m) -> zeta^z f(m)."""
        return _element(triv_ext, _mul(roots[:, None], f.vec).reshape(-1))

    equiv_dev = 0.0

    def slice_of(full: np.ndarray) -> AlgebraElement:
        nonlocal equiv_dev
        table = full.reshape(n, m_count)
        equiv_dev = max(equiv_dev, float(np.abs(table - _mul(roots[:, None], table[0])).max(initial=0.0)))
        return _element(target, table[0].copy())

    # the slices of lift(e_a) lift(e_b) / n at every z, in one pass over
    # the extension's pairs, and of lift(e_a)* over its morphisms
    z_of, m_of = np.divmod(np.arange(len(ext.morphisms)), m_count)
    pa, pb, pc = ext.pairs
    products = np.zeros((len(groupoid.pairs[0]), n), dtype=complex)
    cells = (groupoid.pair_number(m_of[pa], m_of[pb]), z_of[pc])
    np.add.at(products, cells, roots[z_of[pa]] * roots[z_of[pb]])
    products *= 1.0 / n
    stars = np.zeros((len(groupoid.morphisms), n), dtype=complex)
    stars[m_of, z_of[ext.inverse_idx]] = roots[z_of].conj()
    for table in (products, stars):
        equiv_dev = max(equiv_dev, float(np.abs(table - roots * table[:, :1]).max(initial=0.0)))
    check = check_star_hom(
        (groupoid, products[:, 0], stars[:, 0]), structure_constants(target),
        np.arange(m_count), np.ones(m_count, dtype=complex),
    )

    # dense elements exercise the rounding that point masses do not
    for _ in range(3):
        slice_of(lift(random_element(rng, groupoid, target)).vec)
    mult_dev = check.multiplicative_dev
    for _ in range(3):
        f, g = random_element(rng, groupoid, target), random_element(rng, groupoid, target)
        # counting-measure convolution scaled by the normalized Z_n average
        prod = slice_of(convolve(lift(f), lift(g)).vec * (1.0 / n))
        mult_dev = max(mult_dev, max_deviation(prod, convolve(f, g)))
    f = random_element(rng, groupoid, target)
    star_dev = max(check.star_dev, max_deviation(slice_of(involute(lift(f)).vec), involute(f)))

    # left convolution on the equivariant fiber vs induced representation.
    # Column (z, c) of the extension's induced representation at (0, u)
    # holds lift(f) * e_(z,c), so lift(f) * lift(e_c) / n read at (0, m)
    # is the zeta^z-weighted average of row (0, m) over z.  On point
    # masses these entries are the products compared above, so only a
    # dense element adds to the multiplicative deviation.  The units (0, u)
    # carry G's unit numbers, orbits and order, with n times larger source
    # fibers, so the extension's stacks of induced matrices pair with G's.
    rep_dev = check.multiplicative_dev
    f = random_element(rng, groupoid, target)
    _, _, _, _, blocks, rest = groupoid.fiber_cells
    _, _, _, _, ext_blocks, ext_rest = ext.fiber_cells
    pairs = zip(_stacks(_cell_values(f), blocks + rest), _stacks(_cell_values(lift(f)), ext_blocks + ext_rest))
    for mat, big in pairs:
        k, d, _ = mat.shape
        rows = big.reshape(k, n, d, n, d)[:, 0]
        lmat = _mul(rows, roots[:, None]).sum(axis=2) * (1.0 / n)
        rep_dev = max(rep_dev, float(np.abs(lmat - mat).max(initial=0.0)))

    return EquivariantSuiteReport(
        order=n,
        conjugated=conjugate,
        rho_bijective=check.bijective,
        equivariance_dev=equiv_dev,
        rho_multiplicative_dev=mult_dev,
        rho_star_dev=star_dev,
        rep_equivalence_dev=rep_dev,
        mismatch_witness=check.witness if check.multiplicative_dev > STRUCTURAL_TOL else None,
    )
