"""Dense linear algebra over GF(p^k) on coefficient slices and log codes.

A d-by-d matrix M over GF(p^k) is held as its k coefficient slices, an
integer array of shape (k, d, d) over GF(p) with M = sum_c t^c M_c in the
power basis of ``FieldCtx``.  Operators built from matrices over GF(p)
are born in this form: slice c of sum_i alpha_i A_i is sum_i alpha_i[c] A_i.

Products are one GF(p) matmul of the stacked slices, (k*d x d) times
(d x k*d), whose k^2 blocks M_a N_b are summed along antidiagonals into
the coefficients of t^0 .. t^(2k-2) and reduced by the modulus.

Ranks have one elimination over GF(q), ``_rank_logs``: the slices become
log codes (``FieldCtx.tables``) and a right-looking elimination on the
d-by-d matrix adds rows with the Zech logarithm.  k = 1 stays on
``gfp.rank``.  Fields above ``ffalg.TABLE_CAP`` (only GF(5^12) among the
module primes) have no tables; there the rank is taken on the GF(p)
companion blowup sum_c kron(M_c, tmats[c]), whose rank is k times the
rank over GF(p^k).
"""

from __future__ import annotations

import numpy as np

from . import gfp
from .errors import RankCheckFailed
from .ffalg import TABLE_CAP, FieldCtx


def matmul(x: np.ndarray, y: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Slices of X Y over GF(p^k) from the slices of X and Y."""
    k, m, inner = x.shape
    n = y.shape[2]
    p = ctx.p
    if k == 1:
        return gfp.mod_matmul(x[0], y[0], p)[None]
    blocks = gfp.mod_matmul(x.reshape(k * m, inner),
                            y.transpose(1, 0, 2).reshape(inner, k * n), p)
    blocks = blocks.reshape(k, m, k, n).transpose(0, 2, 1, 3)  # [a, b] = X_a Y_b
    wide = np.zeros((2 * k - 1, m, n), dtype=np.int64)
    for a in range(k):
        wide[a:a + k] += blocks[a]
    # t^e for e >= k in the power basis: column e of ``reduction``
    out = gfp.mod_matmul(ctx.reduction, (wide % p).reshape(2 * k - 1, m * n), p)
    return out.reshape(k, m, n)


def rank(slices: np.ndarray, ctx: FieldCtx, stop_at: int | None = None) -> int:
    """Rank over GF(p^k) of the matrix with these slices.

    With ``stop_at``, the elimination may return early once it reaches
    that count.
    """
    if ctx.k == 1:
        return gfp.rank(slices[0], ctx.p, stop_at=stop_at)
    if ctx.q > TABLE_CAP:
        return _blowup_rank(slices, ctx, stop_at)
    codes = np.tensordot(ctx.p ** np.arange(ctx.k), slices, axes=1)
    return _rank_logs(ctx.tables.log[codes].astype(np.int64), ctx, stop_at)


def _rank_logs(a: np.ndarray, ctx: FieldCtx, stop_at: int | None = None) -> int:
    """Rank of a matrix of log codes (-1 for zero); overwrites ``a``.

    Right-looking elimination, one pivot at a time: row i gains
    -(a_ij / a_rj) times the pivot row r, on the rows below with a nonzero
    in the pivot column and the columns where the pivot row is nonzero.
    """
    tables = ctx.tables
    order, zech = tables.order, tables.zech
    m, n = a.shape
    r = 0
    for j in range(n):
        if r == m or (stop_at is not None and r >= stop_at):
            break
        nz = np.flatnonzero(a[r:, j] >= 0)
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        rows = r + 1 + np.flatnonzero(a[r + 1:, j] >= 0)
        cols = j + 1 + np.flatnonzero(a[r, j + 1:] >= 0)
        if rows.size and cols.size:
            mult = (a[rows, j] - a[r, j] + tables.neg) % order
            add = (mult[:, None] + a[r, cols]) % order
            old = a[np.ix_(rows, cols)]
            # old + add = add * (1 + old / add); zech is -1 where that is zero
            z = zech[(old - add) % order]
            new = np.where(z < 0, -1, (add + z) % order)
            a[np.ix_(rows, cols)] = np.where(old < 0, add, new)
        r += 1
    return r


def _blowup_rank(slices: np.ndarray, ctx: FieldCtx, stop_at: int | None = None) -> int:
    """Rank over GF(p^k) from the GF(p) companion blowup of the slices.

    Replacing each entry by its multiplication matrix is a ring
    homomorphism, so the blowup rank is k times the rank over GF(p^k).
    The path for fields above the table cap, and the tests' oracle.
    """
    k, p = ctx.k, ctx.p
    big = sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % p
    r = gfp.rank(big, p, stop_at=None if stop_at is None else k * stop_at)
    if r % k:
        raise RankCheckFailed(f"blowup rank {r} is not a multiple of {k}")
    return r // k
