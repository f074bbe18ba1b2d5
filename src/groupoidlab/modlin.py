"""Linear algebra over Z/nZ for composite n.

Solves A x = b (mod n) by a Smith-normal-form style diagonalization that
uses only remainder steps, so no field structure is assumed.  At each
position r the pivot is the smallest nonzero entry of the trailing
block.  One array step subtracts (entry // pivot) times the pivot row
from every row with a nonzero in the pivot column, and one column step
clears the pivot row the same way.  What is left in the pivot row and
column is smaller than the pivot, so repeating the two steps with a
fresh pivot ends once both are clear.

The row transform U is never formed: c = U b is carried beside D, and
the row swaps and row steps go into a log.  When a system is
unsolvable, the solver rebuilds the one row u of U it needs by replaying
the log backwards and returns the checkable certificate u' = (n/g) u,
with u'.A = 0 and u'.b != 0 (mod n).  Such a row exists for every
unsolvable system because Z/nZ is self-injective, and conversely its
existence obviously rules out solutions.

Arithmetic is exact at every modulus.  Every entry is kept in [0, n), so
a product is at most (n-1)^2 and a dot product over max(m, k) terms at
most max(m, k) (n-1)^2.  The solver uses int64 when that bound is below
2**63 and Python ints (``dtype=object``) otherwise; both run the same
code.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _residues(x, n: int, dtype) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype.kind != "i" or n >= 2**63:
        x = x.astype(object)
    return (x % n).astype(dtype)


def solve_mod(a, b, n: int) -> ModSolveResult:
    """Solve a x = b over Z/nZ.

    Returns a result carrying either one solution vector or a certificate
    of unsolvability u with u.a = 0 and u.b != 0 (mod n).  Both are
    re-verified before returning.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    a = np.atleast_2d(np.asarray(a))
    m, k = a.shape
    dtype = np.int64 if max(m, k) * (n - 1) ** 2 < 2**63 else object
    a = _residues(a, n, dtype)
    b = _residues(b, n, dtype).reshape(m)
    if n == 1:
        return ModSolveResult(1, tuple([0] * k), None)
    d, c = a.copy(), b.copy()
    v, log = _diagonalize(d, c, n)
    diag = np.zeros(m, dtype=dtype)
    diag[:min(m, k)] = d.diagonal()
    g = np.gcd(diag, n)  # = n where the row of D vanished
    bad = np.flatnonzero(c % g)
    if bad.size:
        i = int(bad[0])
        cert = (_transform_row(i, m, log, n, dtype) * (n // int(g[i]))) % n
        if (cert @ a % n).any() or not int(cert @ b) % n:
            raise InternalCheckFailure(f"unsolvability certificate fails to verify mod {n}")
        return ModSolveResult(n, None, tuple(int(x) for x in cert))
    y = np.zeros(k, dtype=dtype)
    for i in np.flatnonzero(diag[:k]):
        gi = int(g[i])
        red = n // gi
        y[i] = (int(c[i]) // gi * pow(int(diag[i]) // gi, -1, red)) % red
    x = (v @ y) % n
    if (a @ x % n != b).any():
        raise InternalCheckFailure(f"solution fails to verify mod {n}")
    return ModSolveResult(n, tuple(int(t) for t in x), None)
