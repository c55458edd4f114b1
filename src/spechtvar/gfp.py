"""Dense exact linear algebra over the prime field GF(p), on numpy arrays.

Matrices are integer ndarrays with entries in {0, ..., p-1}.  Products route
through float BLAS: with entries below p and inner dimension m, every
accumulated sum stays below m*(p-1)^2, so float32 is exact up to 2**24 and
float64 up to 2**53.  Elimination is a blocked right-looking LU so that the
trailing updates are BLAS matmuls as well; that is what makes exhaustive
freeness sweeps affordable.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolution, RankDeficient

_PANEL = 64


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Multiplicative inverses mod p, with table[0] = 0 as a placeholder."""
    table = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        table[a] = pow(a, p - 2, p)
    return table


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p via float BLAS."""
    inner = a.shape[-1]
    if inner * (p - 1) ** 2 < 2**24:
        prod = a.astype(np.float32) @ b.astype(np.float32)
    else:
        prod = a.astype(np.float64) @ b.astype(np.float64)
    out = prod.astype(np.int64)
    out %= p
    return out


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place forward elimination; returns the pivot column list.

    `a` must be int64 with entries already reduced mod p.  Afterwards the
    first len(pivots) rows are an (unnormalized) row echelon form and the
    rows below are zero.
    """
    m, n = a.shape
    inv = inverse_table(p)
    pivots: list[int] = []
    r = 0
    col = 0
    while col < n and r < m:
        width = min(_PANEL, n - col)
        piv_local: list[int] = []
        k = 0
        for j in range(col, col + width):
            nz = np.flatnonzero(a[r + k:, j])
            if nz.size == 0:
                continue
            i0 = r + k + int(nz[0])
            if i0 != r + k:
                a[[r + k, i0]] = a[[i0, r + k]]
            mult = (a[r + k + 1:, j] * inv[a[r + k, j]]) % p
            # eliminate below within the panel; trailing columns are deferred
            if j + 1 < col + width:
                a[r + k + 1:, j + 1: col + width] = (
                    a[r + k + 1:, j + 1: col + width]
                    - mult[:, None] * a[r + k, j + 1: col + width]
                ) % p
            a[r + k + 1:, j] = mult  # stash multipliers in the cleared slot
            piv_local.append(j)
            k += 1
        if k and col + width < n:
            piv_idx = np.array(piv_local)
            # pivot rows first: row_i -= sum_{j<i} m_ij * row_j (final values)
            mults = a[r: r + k, piv_idx]
            trail = a[r: r + k, col + width:]
            for i in range(1, k):
                trail[i] = (trail[i] - mults[i, :i] @ trail[:i]) % p
            # all rows below the pivot block in one BLAS update
            low = a[r + k:, piv_idx]
            if low.size and low.any():
                below = a[r + k:, col + width:]  # a view: updated in place
                below -= mod_matmul(low, trail, p)
                below %= p
        # clear the multiplier stash so the result is honest echelon form
        for i, j in enumerate(piv_local):
            a[r + i + 1:, j] = 0
        pivots.extend(piv_local)
        r += k
        col += width
    return pivots


def rank(a: np.ndarray, p: int) -> int:
    """Rank of `a` over GF(p)."""
    work = np.array(a, dtype=np.int64) % p
    return len(_echelon(work, p))


def _reduce(work: np.ndarray, p: int) -> list[int]:
    """Reduced row echelon form of ``work`` in place; returns the pivots.

    ``work`` must be int64 with entries already reduced mod p.
    """
    pivots = _echelon(work, p)
    inv = inverse_table(p)
    for i in reversed(range(len(pivots))):
        c = pivots[i]
        work[i, c:] = (work[i, c:] * inv[work[i, c]]) % p
        above = np.flatnonzero(work[:i, c])
        if above.size:
            work[above, c:] = (
                work[above, c:] - np.outer(work[above, c], work[i, c:])
            ) % p
    return pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns; ``a`` is left unchanged."""
    work = np.array(a, dtype=np.int64)
    work %= p
    return work, _reduce(work, p)


def solve(b: np.ndarray, c: np.ndarray, p: int) -> np.ndarray:
    """Solve B X = C over GF(p) for B with full column rank.

    Raises RankDeficient if rank(B) < B.shape[1], NoSolution if inconsistent.
    The augmented matrix [B | C] is built once and reduced in place; B and
    C are left unchanged.
    """
    b = np.asarray(b)
    c = np.asarray(c)
    m, d = b.shape
    rhs = c.reshape(m, -1)
    aug = np.empty((m, d + rhs.shape[1]), dtype=np.int64)
    aug[:, :d] = b
    aug[:, d:] = rhs
    aug %= p
    pivots = _reduce(aug, p)
    in_b = [q for q in pivots if q < d]
    if len(pivots) > len(in_b):
        raise NoSolution("inconsistent system")
    if len(in_b) < d:
        raise RankDeficient(f"coefficient rank {len(in_b)} < {d}")
    x = aug[:d, d:]
    return x.reshape((d,) + c.shape[1:])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Matrix whose columns are a basis of the right nullspace over GF(p)."""
    a = np.asarray(a)
    n = a.shape[1]
    red, pivots = rref(a, p)
    free = [j for j in range(n) if j not in set(pivots)]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for idx, j in enumerate(free):
        basis[j, idx] = 1
        for i, c in enumerate(pivots):
            basis[c, idx] = (-red[i, j]) % p
    return basis
