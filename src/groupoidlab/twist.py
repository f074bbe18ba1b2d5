"""Cocycles with values in Z/n on finite groupoids, and Cech data on covers.

The circle is replaced by the n-th roots of unity throughout: a cocycle
entry k stands for exp(2*pi*i*k/n).  That keeps every cohomological
question exact and decidable by linear algebra mod n, at the price of a
stated approximation order.

Contents: verification of the 2-cocycle identity, coboundaries of
unit-normalized 1-cochains, a decision procedure for cohomologousness,
the central extension groupoid Z_n x G with twisted multiplication, and
alternating Cech cocycles on finite covers with a coboundary decision
that returns either a witness or an unsolvability certificate.
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, InternalCheckFailure
from .finspace import FinSpace
from .groupoid import FinGroupoid
from .modlin import _residues, solve_mod


class CocycleError(InputError):
    """A cocycle or cochain that the input does not define."""


class CechError(InputError):
    """Cech data that the input does not define, or that fails a check."""


class TwoCocycle:
    """A normalized Z/n-valued 2-cocycle on the composable pairs of a
    finite groupoid, stored additively: ``values`` holds the values on
    all of the groupoid's numbered pairs, in pair order and reduced mod
    n, and ``table`` is the same by pairs of labels."""

    def __init__(self, groupoid: FinGroupoid, n: int, values: np.ndarray):
        self.groupoid, self.n, self.values = groupoid, n, values

    @classmethod
    def from_values(cls, groupoid: FinGroupoid, n: int, values) -> "TwoCocycle":
        """The cocycle with ``values`` (reduced mod n) on every numbered
        pair, in pair order."""
        return cls(groupoid, n, _residues(values, n, _value_dtype(n)))

    @classmethod
    def trivial(cls, groupoid: FinGroupoid, n: int = 1) -> "TwoCocycle":
        return cls.from_values(groupoid, n, np.zeros(len(groupoid.pairs[0]), dtype=np.int64))

    @cached_property
    def table(self) -> dict:
        pa, pb, _ = self.groupoid.pairs
        m = self.groupoid.morphisms
        return {(m[a], m[b]): v for a, b, v in zip(pa.tolist(), pb.tolist(), self.values.tolist())}

    def conjugate(self) -> "TwoCocycle":
        return TwoCocycle(self.groupoid, self.n, -self.values % self.n)

    def shift(self, pair: tuple, delta: int) -> "TwoCocycle":
        """Copy with one entry perturbed; used for fault injection."""
        g = self.groupoid
        k = int(g.pair_number(g.index[pair[0]], g.index[pair[1]]))
        if k < 0:
            raise CocycleError(f"table entry on non-composable pair ({pair[0]!r},{pair[1]!r})")
        values = self.values.copy()
        values[k] = (int(values[k]) + delta) % self.n
        return TwoCocycle(g, self.n, values)

    def same_footing(self, other: "TwoCocycle") -> bool:
        return self.groupoid is other.groupoid and self.n == other.n

    def __eq__(self, other):
        return self is other or (
            isinstance(other, TwoCocycle)
            and self.same_footing(other)
            and np.array_equal(self.values, other.values)
        )


def _value_dtype(n: int):
    """The dtype of the values of an order-n cocycle: int64 while the
    four-term sums of verify_two_cocycle fit in it.  Raises for n < 1."""
    if n < 1:
        raise CocycleError("cocycle order must be positive")
    return np.int64 if n < 2**61 else object


class OneCochain:
    """A Z/n-valued function on morphisms vanishing on units."""

    def __init__(self, groupoid: FinGroupoid, n: int, values: Mapping[Hashable, int]):
        self.groupoid = groupoid
        self.n = n
        self.values = {m: 0 for m in groupoid.morphisms}
        for m, v in values.items():
            if m not in self.values:
                raise CocycleError(f"cochain value on unknown morphism {m!r}")
            self.values[m] = v % n
        for u in itertools.compress(groupoid.morphisms, groupoid.unit_mask.tolist()):  # lowest-numbered first
            if self.values[u] % n:
                raise CocycleError(f"cochain does not vanish on unit {u!r}")

    def __call__(self, m) -> int:
        return self.values[m]


@dataclass(frozen=True)
class CocycleReport:
    valid: bool
    normalization_violations: tuple
    identity_violations: tuple

    def as_dict(self) -> dict:
        return {
            "valid": self.valid,
            "normalization_violations": [list(map(str, v)) for v in self.normalization_violations],
            "identity_violations": [list(map(str, v)) for v in self.identity_violations],
        }


def _identity_violations(sigma: TwoCocycle, last: np.ndarray | None = None) -> list:
    """The triples (a, b, c) of ``triple_join(last)`` at which the cocycle
    identity fails, as morphism numbers in triple order."""
    g, n, v = sigma.groupoid, sigma.n, sigma.values
    pa, pb, pc = g.pairs
    out = []
    # (a,b), (ab,c), (b,c), (a,bc), block by block in triple order
    for ab, bc in g.triple_join(last):
        terms = (ab, g.pair_number(pc[ab], pb[bc]), bc, g.pair_number(pa[ab], pc[bc]))
        bad = (v[terms[0]] + v[terms[1]] - v[terms[2]] - v[terms[3]]) % n != 0
        out += zip(pa[ab[bad]].tolist(), pb[ab[bad]].tolist(), pb[bc[bad]].tolist())
    return out


def verify_two_cocycle(sigma: TwoCocycle) -> CocycleReport:
    """Check normalization on unit-adjacent pairs and the cocycle identity

        D(a,b,c) = sigma(a,b) + sigma(ab,c) - sigma(b,c) - sigma(a,bc) = 0   (mod n)

    on every composable triple; violations are collected into the report.

    On a non-principal groupoid the identity is first checked on the
    triples (a, b, c) whose c the groupoid's ``generating_mask`` marks.
    That suffices, because d^2 = 0 for groupoid cochains (Renault, LNM
    793) gives, for composable a, b, c, d,

        D(b,c,d) - D(ab,c,d) + D(a,bc,d) - D(a,b,cd) + D(a,b,c) = 0,

    so the set of c with D(., ., c) = 0 is closed under composition, and
    it holds the units and S.  When that check finds a violation, the
    full sweep over all composable triples in lexicographic order runs,
    so the report lists every violating triple.  A principal groupoid
    always takes the full sweep: its generating sets are large, and
    building one costs more than the triples it saves.
    """
    g, n, m = sigma.groupoid, sigma.n, sigma.groupoid.morphisms
    pa, pb, _ = g.pairs
    every = np.arange(len(m))
    # the pairs (r(m), m) and (m, s(m)), in that order for each m, but
    # (u, u) once at a unit u, where the two are the same pair
    norm = np.stack([g.pair_number(g.range_idx, every), g.pair_number(every, g.source_idx)], axis=1)
    norm = norm.ravel()[np.stack([np.ones_like(g.unit_mask), ~g.unit_mask], axis=1).ravel()]
    norm = norm[sigma.values[norm] != 0]
    if g.principal or _identity_violations(sigma, g.generating_mask):
        ident_bad = _identity_violations(sigma)
    else:
        ident_bad = []
    norm_bad = tuple((m[a], m[b]) for a, b in zip(pa[norm], pb[norm]))
    ident_bad = tuple((m[a], m[b], m[c]) for a, b, c in ident_bad)
    return CocycleReport(not norm_bad and not ident_bad, norm_bad, ident_bad)


def coboundary_twist(b: OneCochain) -> TwoCocycle:
    """The coboundary  (db)(a, c) = b(a) + b(c) - b(ac)  of a 1-cochain,
    on every numbered pair in pair order, in exact integers: in the
    cocycle's value dtype, where the residues are below 2^61 and the sum
    lies between -2^61 and 2^62, and in Python integers above.

    Normalization is automatic because b vanishes on units.
    """
    g = b.groupoid
    pa, pb, pc = g.pairs
    # b.values lists the morphisms in order
    values = np.array(list(b.values.values()), dtype=_value_dtype(b.n))
    return TwoCocycle.from_values(g, b.n, values[pa] + values[pb] - values[pc])


def _principal_witness(diff: TwoCocycle) -> OneCochain | None:
    """Explicit untwisting cochain for a principal groupoid.

    In a principal groupoid take the base unit u0 of each orbit to be the
    unit ``orbit_idx`` names it by, and let beta(v) be the unique
    morphism v -> u0; then b(m) := d(m, beta(s(m))) solves db = d, by the
    cocycle identity applied to (m, m', beta) triples.  beta(v) is the
    morphism with range v whose source is the orbit base of its range.
    """
    g = diff.groupoid
    count = len(g.morphisms)
    sel = g.source_idx == g.orbit_idx[g.range_idx]
    into = np.full(count, -1, dtype=np.int64)
    into[g.range_idx[sel]] = np.flatnonzero(sel)
    to_base = into[g.source_idx]
    values = diff.values[g.pair_number(np.arange(count), to_base)]
    # b vanishes on units; a nonzero diff(u, beta(u)) is no coboundary, and db != diff below
    values[g.unit_mask] = 0
    b = OneCochain(g, diff.n, dict(zip(g.morphisms, values.tolist())))
    return b if coboundary_twist(b) == diff else None


def _generator_forest(g: FinGroupoid, ends: tuple, d: list, n: int) -> tuple:
    """The breadth-first forest of ``are_cohomologous``: kept row i is the
    pair (x, s) = (pa[i], pb[i]), with xs = pc[i] and diff(x, s) = d[i],
    for ends = (pa, pb, pc).  Returns (tree, forms): ``tree`` lists the
    tree rows by position, in walk order, and forms[m] = [c_1, ...,
    c_|S|, k] says that b(m) = c . b(S) + k (mod n) on every solution of
    the tree rows."""
    pa, pb, pc = ends
    gen = (g.generating_mask & ~g.unit_mask).tolist()
    queue = np.flatnonzero(g.generating_mask).tolist()
    column = {s: j for j, s in enumerate(m for m in queue if gen[m])}
    out = [[] for _ in gen]
    for i, (x, s) in enumerate(zip(pa, pb)):
        if gen[s]:
            out[x].append(i)
    forms = [None] * len(gen)
    for m in queue:  # b(u) = 0 at a unit u, and b(s) is the unknown of s
        forms[m] = [int(column.get(m) == j) for j in range(len(column) + 1)]
    tree = []
    for x in queue:
        for i in out[x]:
            y = pc[i]
            if forms[y] is None:
                # b(y) = b(x) + b(s) - diff(x, s)
                forms[y] = forms[x].copy()
                forms[y][column[pb[i]]] += 1
                forms[y][-1] = (forms[y][-1] - d[i]) % n
                tree.append(i)
                queue.append(y)
    if len(queue) < len(gen):
        raise InternalCheckFailure("the generator forest misses a morphism")
    return tree, forms


def _lift_certificate(g: FinGroupoid, kept: np.ndarray, ends: tuple, d: list, tree: list, u: dict, n: int) -> dict:
    """Lift weights ``u`` on non-tree kept rows (by position) to the kept
    pairs: each tree row, in reverse walk order, gets the weight that
    clears its new morphism's column.  The result must clear every
    non-unit column of the kept rows b(x) + b(s) - b(xs) and give diff
    (``d``) a nonzero sum, mod n, in Python integers, or
    InternalCheckFailure is raised.  Returns {pair number: weight}, the
    pair numbers read from ``kept``."""
    pa, pb, pc = ends

    def columns(weights):
        out = [0] * len(g.morphisms)
        for i, w in weights.items():
            out[pa[i]] += w
            out[pb[i]] += w
            out[pc[i]] -= w
        return out

    u, acc = dict(u), columns(u)
    for i in reversed(tree):
        w = u[i] = acc[pc[i]] % n
        acc[pa[i]] += w
        acc[pb[i]] += w
    cleared = not any(c % n for c, unit in zip(columns(u), g.unit_mask.tolist()) if not unit)
    if not cleared or not sum(w * d[i] for i, w in u.items()) % n:
        raise InternalCheckFailure("generator certificate fails to verify on the kept pairs")
    return {int(kept[i]): w % n for i, w in u.items() if w % n}


def are_cohomologous(sigma1: TwoCocycle, sigma2: TwoCocycle) -> OneCochain | None:
    """Return a 1-cochain b with sigma1 = sigma2 + db, or None.

    For principal groupoids the witness is constructed directly (second
    cohomology of an equivalence relation vanishes).  In general the
    defining equations b(x) + b(y) - b(xy) = diff(x, y), diff = sigma1 -
    sigma2, are solved over Z/n in the non-unit values of b, but only on
    the pairs (x, s) with s a unit or in the generating set S that the
    groupoid's ``generating_mask`` marks; a Z/6 x Z/6 needs 108 of its
    1,296 equations.

    That suffices.  Let e = diff - db be a normalized cocycle with
    e(x, s) = 0 for s in S and for units.  The cocycle identity at
    (x, y, s) reads e(x, y) + e(xy, s) = e(y, s) + e(x, ys), so
    e(x, ys) = e(x, y); by induction over words in S, and since S and
    the units generate every morphism, e vanishes everywhere.  So when
    diff is a cocycle, a solution of the kept equations solves them all;
    and when the kept equations have none, neither has the full system.

    The kept equations are solved in the |S| unknowns b(S).  A
    breadth-first walk over the kept pairs (x, s) with s in S, from the
    units and S, gives each newly reached y = xs one tree row,
    b(y) = b(x) + b(s) - diff(x, s), so every b(m) is affine in b(S).
    The walk reaches every morphism: each is a left-to-right word in S
    and the units, and the walk reaches each prefix of the word in turn.
    Written in b(S), each other kept row is a row of a reduced system mod
    n; the rows that vanish (the tree rows among them) are dropped, a
    repeated row is kept once, and ``solve_mod`` solves the rest (none:
    b(S) = 0).  A solution gives b on every morphism.  A certificate u of
    the reduced system, u.A = 0 and u.c != 0, goes back to the kept
    rows: u's weights on the rows they came from, then one weight per
    tree row, in reverse walk order, that clears its new morphism's
    column.  That works because the tree rows are triangular: each has
    -1 at its new morphism, which no earlier tree row holds and later
    ones hold only as x.  The columns of the reached morphisms are then
    clear, those of S because u.A = 0, and the sum on diff is u.c.  The
    lifted certificate is checked on the kept rows in Python integers.

    Every witness is still checked on every pair.  A mismatch means that
    diff is not a cocycle, and then no b exists; a mismatch on a valid
    cocycle raises InternalCheckFailure, as does a certificate that fails
    its check or a walk that misses a morphism.  Any b + h with h a
    homomorphism to Z/n is a witness too; the walk picks one.
    """
    if not sigma1.same_footing(sigma2):
        raise CocycleError("cocycles live on different groupoids or orders")
    g = sigma1.groupoid
    n = sigma1.n
    diff = TwoCocycle.from_values(g, n, sigma1.values - sigma2.values)
    if g.principal:
        witness = _principal_witness(diff)
        if witness is not None:
            return witness
    kept = np.flatnonzero(g.generating_mask[g.pairs[1]])
    ka, kb, kc = (e[kept] for e in g.pairs)
    d = diff.values[kept]
    ends, rhs = (ka.tolist(), kb.tolist(), kc.tolist()), d.tolist()
    tree, forms = _generator_forest(g, ends, rhs, n)
    # each kept row b(x) + b(s) - b(xs) = diff(x, s), written in b(S)
    f = np.array(forms, dtype=d.dtype)
    system = f[ka] + f[kb] - f[kc]
    system[:, -1] = d - system[:, -1]
    system %= n
    first = {}
    live = np.flatnonzero((system != 0).any(axis=1))
    for i, row in zip(live.tolist(), system[live].tolist()):
        first.setdefault(tuple(row), i)
    beta = [0] * (system.shape[1] - 1)
    if first:
        reduced = system[list(first.values())]
        res = solve_mod(reduced[:, :-1], reduced[:, -1], n)
        if not res.solvable:
            _lift_certificate(g, kept, ends, rhs, tree, dict(zip(first.values(), res.certificate)), n)
            return None
        beta = res.solution
    values = [sum(c * x for c, x in zip(form, (*beta, 1))) % n for form in forms]
    b = OneCochain(g, n, dict(zip(g.morphisms, values)))
    if coboundary_twist(b) != diff:
        if verify_two_cocycle(diff).valid:
            raise InternalCheckFailure("solver witness is not an untwisting cochain")
        return None
    return b


def extension_groupoid(groupoid: FinGroupoid, sigma: TwoCocycle) -> FinGroupoid:
    """The central extension Z_n x G with multiplication twisted by sigma:

        (w, a)(z, b) = (w + z + sigma(a, b), ab)
        (z, a)^{-1}  = (-z - sigma(a, a^{-1}), a^{-1})

    The morphism topology is the product of discrete Z_n with the topology
    of G: n disjoint shifted copies of G's masks, so coherent.  (z, m) is
    number z|G| + m, and the index is array code on G's, with G's pairs
    broadcast over w and z.  Associativity of the result is equivalent to
    the cocycle identity and is re-verified rather than assumed, so an
    invalid sigma fails here with the violating triple.
    """
    if sigma.groupoid is not groupoid:
        raise CocycleError("cocycle is not defined on this groupoid")
    n, size = sigma.n, len(groupoid.morphisms)
    twist_inv = sigma.values[groupoid.pair_number(np.arange(size), groupoid.inverse_idx)]
    topology = FinSpace.coherent(
        [(z, m) for z in range(n) for m in groupoid.morphisms],
        [u << z * size for z in range(n) for u in groupoid.topology._mo],
    )
    pa, pb, pc = groupoid.pairs
    w, z = np.arange(n)[:, None, None], np.arange(n)[None, :, None]
    return FinGroupoid(
        topology,
        np.tile(groupoid.range_idx, n),
        np.tile(groupoid.source_idx, n),
        ((-w[:, 0] - twist_inv) % n * size + groupoid.inverse_idx).ravel(),
        np.concatenate([groupoid.unit_mask, np.zeros((n - 1) * size, dtype=bool)]),
        np.broadcast_arrays(w * size + pa, z * size + pb, (w + z + sigma.values) % n * size + pc),
    )


# -- Cech data on finite covers ------------------------------------------------


def _sort_with_sign(triple):
    """Sort a triple of indices, returning (sorted_triple, permutation_sign);
    sign 0 if any index repeats."""
    i, j, k = triple
    product = (j - i) * (k - i) * (k - j)
    return tuple(sorted(triple)), (product > 0) - (product < 0)


class CechData:
    """An alternating Z/n-valued assignment on the triple overlaps of a
    finite cover, constant on each overlap.

    ``entries`` may list triples in any index order; they are reduced to
    sorted triples by the sign rule.  Inconsistent orientations or
    nonzero values on repeated indices are kept for verify_cech to
    report rather than silently fixed.
    """

    def __init__(self, n: int, base_points: Iterable, cover: Mapping[int, Iterable], entries):
        if n < 1:
            raise CechError("coefficient order must be positive")
        self.n = n
        self.base_points = tuple(base_points)
        base_set = set(self.base_points)
        self.cover = {}
        for idx, part in cover.items():
            part = frozenset(part)
            if not part <= base_set:
                raise CechError(f"cover set {idx} is not a subset of the base")
            self.cover[int(idx)] = part
        self.indices = tuple(sorted(self.cover))
        self._nerves: dict = {}
        raw_entries = tuple((int(i), int(j), int(k), int(v) % n) for (i, j, k, v) in entries)
        self.table = {}
        self.conflicts = []
        self.repeated_nonzero = []
        for (i, j, k, v) in raw_entries:
            key, sign = _sort_with_sign((i, j, k))
            if sign == 0:
                if v % n:
                    self.repeated_nonzero.append((i, j, k, v))
                continue
            canon = (sign * v) % n
            if key in self.table and self.table[key] != canon:
                self.conflicts.append((key, self.table[key], canon))
            else:
                self.table[key] = canon

    def overlap(self, *indices) -> frozenset:
        out = None
        for i in indices:
            part = self.cover[i]
            out = part if out is None else out & part
        return out if out is not None else frozenset(self.base_points)

    def nerve(self, size: int) -> tuple:
        """The sorted index tuples of length ``size`` whose overlap is
        nonempty, in lexicographic order; built once per size from the
        cover sets through each base point."""
        if size not in self._nerves:
            through = {p: [] for p in self.base_points}
            for i in self.indices:
                for p in self.cover[i]:
                    through[p].append(i)
            self._nerves[size] = tuple(sorted(
                {t for idx in through.values() for t in itertools.combinations(idx, size)}
            ))
        return self._nerves[size]

    def value(self, i: int, j: int, k: int) -> int:
        key, sign = _sort_with_sign((i, j, k))
        if sign == 0:
            return 0
        if key not in self.table:
            if self.overlap(*key):
                raise CechError(
                    f"lambda missing on triple {key} with nonempty overlap",
                    code="MISSING_TRIPLE",
                )
            return 0
        return (sign * self.table[key]) % self.n


@dataclass(frozen=True)
class CechReport:
    valid: bool
    antisymmetry_violations: tuple
    repeated_index_violations: tuple
    missing_triples: tuple
    cocycle_violations: tuple

    def as_dict(self) -> dict:
        return {
            "valid": self.valid,
            "antisymmetry_violations": [list(v[0]) for v in self.antisymmetry_violations],
            "repeated_index_violations": [list(v[:3]) for v in self.repeated_index_violations],
            "missing_triples": [list(t) for t in self.missing_triples],
            "cocycle_violations": [list(q) for q in self.cocycle_violations],
        }


def verify_cech(data: CechData) -> CechReport:
    """Check that the data is an alternating cocycle: antisymmetric under
    index transpositions, zero on repeated indices, with d(lambda) = 0

        lambda(j,k,l) - lambda(i,k,l) + lambda(i,j,l) - lambda(i,j,k) = 0

    on every nonempty quadruple overlap.  Triples with nonempty overlap
    but no table entry are reported as missing.
    """
    missing = [key for key in data.nerve(3) if key not in data.table]
    quad_bad = []
    if not missing and not data.conflicts:
        for (i, j, k, l) in data.nerve(4):
            total = (
                data.value(j, k, l)
                - data.value(i, k, l)
                + data.value(i, j, l)
                - data.value(i, j, k)
            )
            if total % data.n:
                quad_bad.append((i, j, k, l))
    return CechReport(
        valid=not (data.conflicts or data.repeated_nonzero or missing or quad_bad),
        antisymmetry_violations=tuple(data.conflicts),
        repeated_index_violations=tuple(data.repeated_nonzero),
        missing_triples=tuple(missing),
        cocycle_violations=tuple(quad_bad),
    )


@dataclass(frozen=True)
class CechCoboundaryResult:
    is_coboundary: bool
    witness: dict | None
    certificate: dict | None
    note: str = ""

    def as_dict(self) -> dict:
        return {
            "is_coboundary": self.is_coboundary,
            "witness": None
            if self.witness is None
            else {f"{i},{j}": v for (i, j), v in sorted(self.witness.items())},
            "certificate": None
            if self.certificate is None
            else {f"{i},{j},{k}": c for (i, j, k), c in sorted(self.certificate.items())},
            "note": self.note,
        }


def cech_is_coboundary(data: CechData) -> CechCoboundaryResult:
    """Decide whether lambda = d(mu) for constants mu_ij on the pairwise
    overlaps, solving   lambda_ijk = mu_jk - mu_ik + mu_ij   (mod n).

    Returns a witness mu, or a certificate: coefficients u_T on the
    triple equations with  sum u_T * (d mu)_T = 0  identically while
    sum u_T * lambda_T != 0 (mod n), which proves unsolvability.  The
    certificate speaks about the combinatorial nerve class with constant
    coefficients; no claim is made about finer coefficient systems.
    """
    report = verify_cech(data)
    if not report.valid:
        raise CechError("cech data does not verify; run verify_cech for details")
    triples, pairs = data.nerve(3), data.nerve(2)
    col = {p: i for i, p in enumerate(pairs)}
    rows, rhs = [], []
    for (i, j, k) in triples:
        row = [0] * len(pairs)
        for pair, c in (((j, k), 1), ((i, k), -1), ((i, j), 1)):
            row[col[pair]] += c
        rows.append(row)
        rhs.append(data.value(i, j, k))
    if not triples:
        return CechCoboundaryResult(True, {p: 0 for p in pairs}, None)
    res = solve_mod(rows, rhs, data.n)
    if res.solvable:
        witness = {p: res.solution[i] for p, i in col.items()}
        return CechCoboundaryResult(True, witness, None)
    cert = {t: int(c) for t, c in zip(triples, res.certificate) if c % data.n}
    value = sum(data.value(*t) * c for t, c in cert.items()) % data.n
    note = (
        "signed combination of triple equations eliminates all mu terms "
        f"but evaluates to {value} != 0 mod {data.n} on lambda"
    )
    return CechCoboundaryResult(False, None, cert, note)


def cech_to_groupoid_cocycle(doubled) -> TwoCocycle:
    """Transport the alternating Cech cocycle ``doubled.cech`` to the
    relation groupoid of the doubled cover space.

    ``doubled`` is the model produced by the cover-algebra constructor:
    its relation groupoid has morphisms ((s, i), (s, j)) and its
    ``extended_value`` evaluates lambda with index 0 reading as a copy of
    index 1.  The groupoid cocycle is

        sigma( ((s,i),(s,j)), ((s,j),(s,k)) ) = -lambda_ijk   (mod n),

    the additive form of conjugation.  This is the one ``verify_cech``
    gate of the cover model: data that fails it raises CechError before
    any transport.  On the rest d(lambda) = 0 makes sigma a cocycle,
    which is re-verified, and a violation raises InternalCheckFailure
    naming the first one.
    """
    data = doubled.cech
    if not verify_cech(data).valid:
        raise CechError("cech data does not verify; run verify_cech for details")
    relation = doubled.relation
    m = relation.morphisms
    pa, pb, _ = relation.pairs
    sigma = TwoCocycle.from_values(relation, data.n, [
        -doubled.extended_value(m[a][0][1], m[a][1][1], m[b][1][1]) for a, b in zip(pa.tolist(), pb.tolist())
    ])
    report = verify_two_cocycle(sigma)
    if not report.valid:
        first = (*report.normalization_violations, *report.identity_violations)[0]
        raise InternalCheckFailure(f"transported cocycle fails verification at {first}")
    return sigma
