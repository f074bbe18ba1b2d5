"""Linear algebra over Z/nZ for composite n.

Solves A x = b (mod n) in two phases of row operations, so no field
structure is assumed.

1. Unit pivots.  The rows are sparse, {column: value}.  While an active
   row holds a unit entry (gcd(v, n) = 1), a shortest such row becomes a
   pivot row, and its unit entry's column, the one in the fewest rows,
   is cleared from every other row, Gauss-Jordan style, in Python ints.
   A pivot row then holds its pivot column and columns that no row
   pivots on.
2. The rest.  The rows without a pivot, restricted to the columns
   without one, form a block with no unit entry (often empty or zero).
   ``_diagonalize`` brings it to Smith-normal-form style diagonal form
   with remainder steps only: at each position r the pivot is the
   smallest nonzero entry of the trailing block, one array step
   subtracts (entry // pivot) times the pivot row from every row with a
   nonzero in the pivot column, one column step clears the pivot row the
   same way, and what is left is smaller than the pivot, so repeating
   the two steps with a fresh pivot ends once both are clear.

The solution solves the diagonal block, then back-substitutes each
pivot column through the inverse of its unit.

The row transform U is never formed: c = U b is carried beside the
rows, and both phases write their row swaps and row steps, in the
caller's row numbers, into one log.  When a system is unsolvable, the
solver rebuilds the one row u of U it needs by replaying the log
backwards and returns the checkable certificate u' = (n/g) u, with
u'.A = 0 and u'.b != 0 (mod n).  Such a row exists for every
unsolvable system because Z/nZ is self-injective, and conversely its
existence obviously rules out solutions.  Solutions and certificates
are re-verified against the caller's full system.

Arithmetic is exact at every modulus.  Every entry is kept in [0, n), so
a product is at most (n-1)^2 and a dot product over max(m, k) terms at
most max(m, k) (n-1)^2.  The array code uses int64 when that bound is
below 2**63 and Python ints (``dtype=object``) otherwise; both run the
same code.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import InternalCheckFailure


@dataclass(frozen=True)
class ModSolveResult:
    modulus: int
    solution: tuple | None
    certificate: tuple | None

    @property
    def solvable(self) -> bool:
        return self.solution is not None


def _diagonalize(d: np.ndarray, c: np.ndarray, n: int):
    """Diagonalize ``d`` in place, applying its row operations to ``c``.

    Returns (V, log) with U A V = D (mod n), where A is the input and D
    the diagonal matrix left in ``d``, for the row transform U that the
    log records: ``(r, i)`` swaps rows r and i, and ``(r, rows, q)``
    subtracts q[t] times row r from row rows[t].  V is a product of
    swaps and unimodular column steps.
    """
    m, k = d.shape
    v = np.eye(k, dtype=d.dtype)
    log = []
    r = 0
    while r < min(m, k):
        sub = d[r:, r:]
        nonzero = sub != 0
        if not nonzero.any():
            break
        i0, j0 = np.unravel_index(np.argmin(np.where(nonzero, sub, n)), sub.shape)
        i0, j0 = int(i0) + r, int(j0) + r
        if i0 != r:
            d[[r, i0]] = d[[i0, r]]
            c[[r, i0]] = c[[i0, r]]
            log.append((r, i0))
        if j0 != r:
            d[:, [r, j0]] = d[:, [j0, r]]
            v[:, [r, j0]] = v[:, [j0, r]]
        piv = d[r, r]
        rows = r + 1 + np.flatnonzero(d[r + 1:, r])
        if rows.size:
            q = d[rows, r] // piv
            d[rows, r:] = (d[rows, r:] - q[:, None] * d[r, r:]) % n
            c[rows] = (c[rows] - q * c[r]) % n
            log.append((r, rows, q))
        cols = r + 1 + np.flatnonzero(d[r, r + 1:])
        if cols.size:
            q = d[r, cols] // piv
            d[r:, cols] = (d[r:, cols] - d[r:, r, None] * q) % n
            v[:, cols] = (v[:, cols] - v[:, r, None] * q) % n
        if not (d[r + 1:, r].any() or d[r, r + 1:].any()):
            r += 1
    return v, log


def _unit_pivots(a: np.ndarray, c: list, n: int, dtype):
    """Phase 1 on the rows of ``a``, with right-hand sides ``c`` (Python
    ints, updated in place).

    Returns (rows, pivot, log): the rows as {column: value} after the
    clearings, pivot mapping each pivot row to its column, and the log of
    ``(r, rows, q)`` steps, each clearing the pivot column of row r from
    the rows ``rows``.  A shortest active row comes from a heap of
    (length, row); an entry whose length is out of date is skipped, and
    a row without a unit entry waits until a clearing changes it.
    """
    rows = [{} for _ in range(a.shape[0])]
    holders = defaultdict(set)  # column -> rows with a nonzero there
    ri, ci = np.nonzero(a)
    for i, j, v in zip(ri.tolist(), ci.tolist(), a[ri, ci].tolist()):
        rows[i][j] = v
        holders[j].add(i)
    pivot, log = {}, []
    heap = [(len(row), i) for i, row in enumerate(rows)]
    heapq.heapify(heap)
    while heap:
        size, r = heapq.heappop(heap)
        row = rows[r]
        if r in pivot or size != len(row):
            continue
        units = [j for j, v in row.items() if gcd(v, n) == 1]
        if not units:
            continue
        j = min(units, key=lambda col: (len(holders[col]), col))
        pivot[r] = j
        others = sorted(holders[j] - {r})
        if not others:
            continue
        inv, qs = pow(row[j], -1, n), []
        for i in others:
            target = rows[i]
            q = target[j] * inv % n
            for col, v in row.items():
                w = (target.get(col, 0) - q * v) % n
                if w:
                    target[col] = w
                    holders[col].add(i)
                elif col in target:
                    del target[col]
                    holders[col].discard(i)
            c[i] = (c[i] - q * c[r]) % n
            qs.append(q)
            if i not in pivot:
                heapq.heappush(heap, (len(target), i))
        log.append((r, np.array(others), np.array(qs, dtype=dtype)))
    return rows, pivot, log


def _transform_row(i: int, m: int, log: list, n: int, dtype) -> np.ndarray:
    """Row i of the row transform U, replayed from the log backwards."""
    u = np.zeros(m, dtype=dtype)
    u[i] = 1
    for op in reversed(log):
        if len(op) == 2:
            u[list(op)] = u[[op[1], op[0]]]
        else:
            r, rows, q = op
            u[r] = (u[r] - u[rows] @ q) % n
    return u


def _exact(x) -> np.ndarray:
    """``x`` as an array of its exact values: Python ints where numpy reads floats or uint64."""
    arr = np.asarray(x)
    return arr if arr.dtype.kind in "iO" else np.array(x, dtype=object)


def _residues(x, n: int, dtype) -> np.ndarray:
    x = _exact(x)
    if x.dtype.kind != "i" or n >= 2**63:
        x = x.astype(object)
    return (x % n).astype(dtype)


def solve_mod(a, b, n: int) -> ModSolveResult:
    """Solve a x = b over Z/nZ.

    Returns a result carrying either one solution vector or a certificate
    of unsolvability u with u.a = 0 and u.b != 0 (mod n).  Both are
    re-verified against (a, b) before returning.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    a = np.atleast_2d(_exact(a))
    m, k = a.shape
    dtype = np.int64 if max(m, k) * (n - 1) ** 2 < 2**63 else object
    a = _residues(a, n, dtype)
    b = _residues(b, n, dtype).reshape(m)
    if n == 1:
        return ModSolveResult(1, tuple([0] * k), None)
    c = b.tolist()
    rows, pivot, log = _unit_pivots(a, c, n, dtype)
    # phase 2 on the rows and columns without a pivot, none of whose
    # entries is a unit; its log goes into the caller's row numbers
    rest = np.array([i for i in range(m) if i not in pivot], dtype=np.int64)
    free = np.array(sorted(set(range(k)) - set(pivot.values())), dtype=np.int64)
    at = {j: t for t, j in enumerate(free.tolist())}
    d = np.zeros((rest.size, free.size), dtype=dtype)
    for t, i in enumerate(rest.tolist()):
        for j, value in rows[i].items():
            d[t, at[j]] = value
    c_rest = np.array([c[i] for i in rest.tolist()], dtype=dtype)
    v, block_log = _diagonalize(d, c_rest, n)
    for op in block_log:
        if len(op) == 2:
            log.append((int(rest[op[0]]), int(rest[op[1]])))
        else:
            log.append((int(rest[op[0]]), rest[op[1]], op[2]))
    diag = np.zeros(rest.size, dtype=dtype)
    diag[:min(d.shape)] = d.diagonal()
    g = np.gcd(diag, n)  # = n where the row of D vanished
    bad = np.flatnonzero(c_rest % g)
    if bad.size:
        t = int(bad[0])
        cert = (_transform_row(int(rest[t]), m, log, n, dtype) * (n // int(g[t]))) % n
        if (cert @ a % n).any() or not int(cert @ b) % n:
            raise InternalCheckFailure(f"unsolvability certificate fails to verify mod {n}")
        return ModSolveResult(n, None, tuple(int(x) for x in cert))
    y = np.zeros(free.size, dtype=dtype)
    for t in np.flatnonzero(diag[:free.size]):
        gt = int(g[t])
        red = n // gt
        y[t] = (int(c_rest[t]) // gt * pow(int(diag[t]) // gt, -1, red)) % red
    x = [0] * k
    for j, value in zip(free.tolist(), ((v @ y) % n).tolist()):
        x[j] = value
    for r, j in pivot.items():
        known = sum(value * x[col] for col, value in rows[r].items() if col != j)
        x[j] = (c[r] - known) * pow(rows[r][j], -1, n) % n
    x = np.array(x, dtype=dtype)
    if (a @ x % n != b).any():
        raise InternalCheckFailure(f"solution fails to verify mod {n}")
    return ModSolveResult(n, tuple(int(t) for t in x), None)
