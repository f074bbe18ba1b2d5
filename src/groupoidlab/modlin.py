"""Linear algebra over Z/nZ for composite n.

Solves A x = b (mod n) by a Smith-normal-form style diagonalization that
only uses gcd row/column combinations, so no field structure is assumed.
When a system is unsolvable the solver produces a checkable certificate:
a row vector u with u.A = 0 and u.b != 0 (mod n).  Such a u exists for
every unsolvable system because Z/nZ is self-injective, and conversely
its existence obviously rules out solutions.
"""

from __future__ import annotations

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


def _egcd(a: int, b: int):
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _diagonalize(mat: np.ndarray, n: int):
    """Return (D, U, V) with U @ mat @ V = D (mod n), D diagonal.

    U and V are invertible over Z/n (products of swaps and unimodular
    gcd-combinations).  Entries are representatives in [0, n).
    """
    m, k = mat.shape
    d = mat.astype(np.int64) % n
    u = np.eye(m, dtype=np.int64)
    v = np.eye(k, dtype=np.int64)
    r = 0
    while r < min(m, k):
        sub = d[r:, r:]
        nz = np.argwhere(sub != 0)
        if nz.size == 0:
            break
        # smallest nonzero entry as pivot keeps gcd steps short
        vals = sub[nz[:, 0], nz[:, 1]]
        pick = nz[int(np.argmin(vals))]
        i0, j0 = int(pick[0]) + r, int(pick[1]) + r
        if i0 != r:
            d[[r, i0]] = d[[i0, r]]
            u[[r, i0]] = u[[i0, r]]
        if j0 != r:
            d[:, [r, j0]] = d[:, [j0, r]]
            v[:, [r, j0]] = v[:, [j0, r]]
        while True:
            # Clear the pivot column.  When the pivot divides an entry a
            # plain reduction suffices and leaves the pivot row alone;
            # otherwise a gcd combination strictly shrinks the pivot, so
            # the alternation with column clearing terminates.
            for i in range(r + 1, m):
                val = int(d[i, r])
                if not val % n:
                    continue
                piv = int(d[r, r])
                if val % piv == 0:
                    q = val // piv
                    d[i] = (d[i] - q * d[r]) % n
                    u[i] = (u[i] - q * u[r]) % n
                else:
                    g, s, t = _egcd(piv, val)
                    p, q = piv // g, val // g
                    row_r, row_i = d[r].copy(), d[i].copy()
                    d[r] = (s * row_r + t * row_i) % n
                    d[i] = (p * row_i - q * row_r) % n
                    ur, ui = u[r].copy(), u[i].copy()
                    u[r] = (s * ur + t * ui) % n
                    u[i] = (p * ui - q * ur) % n
            # clear the pivot row with column combinations
            for j in range(r + 1, k):
                val = int(d[r, j])
                if not val % n:
                    continue
                piv = int(d[r, r])
                if val % piv == 0:
                    q = val // piv
                    d[:, j] = (d[:, j] - q * d[:, r]) % n
                    v[:, j] = (v[:, j] - q * v[:, r]) % n
                else:
                    g, s, t = _egcd(piv, val)
                    p, q = piv // g, val // g
                    col_r, col_j = d[:, r].copy(), d[:, j].copy()
                    d[:, r] = (s * col_r + t * col_j) % n
                    d[:, j] = (p * col_j - q * col_r) % n
                    vr, vj = v[:, r].copy(), v[:, j].copy()
                    v[:, r] = (s * vr + t * vj) % n
                    v[:, j] = (p * vj - q * vr) % n
            if not (np.any(d[r + 1:, r] % n) or np.any(d[r, r + 1:] % n)):
                break
        r += 1
    return d % n, u % n, v % n


def solve_mod(a, b, n: int) -> ModSolveResult:
    """Solve a x = b over Z/nZ.

    Returns a result carrying either one solution vector or a certificate
    of unsolvability u with u.a = 0 and u.b != 0 (mod n).  Both are
    re-verified before returning.
    """
    if n < 1:
        raise ValueError("modulus must be positive")
    a = np.atleast_2d(np.asarray(a, dtype=np.int64)) % n
    m, k = a.shape
    b = np.asarray(b, dtype=np.int64).reshape(m) % n
    if n == 1:
        return ModSolveResult(1, tuple([0] * k), None)
    d, u, v = _diagonalize(a, n)
    c = (u @ b) % n
    y = np.zeros(k, dtype=np.int64)
    for i in range(m):
        di = int(d[i, i]) if i < min(m, k) else 0
        g = gcd(di, n)  # = n when the row of D vanished
        if int(c[i]) % g != 0:
            cert = (u[i] * (n // g)) % n
            if np.any((cert @ a) % n) or not int(cert @ b) % n:
                raise InternalCheckFailure(f"unsolvability certificate fails to verify mod {n}")
            return ModSolveResult(n, None, tuple(int(x) for x in cert))
        if i < k and di % n != 0:
            red = n // g
            inv = pow(di // g, -1, red)
            y[i] = ((int(c[i]) // g) * inv) % red
    x = (v @ y) % n
    if np.any((a @ x) % n != b):
        raise InternalCheckFailure(f"solution fails to verify mod {n}")
    return ModSolveResult(n, tuple(int(t) for t in x), None)
