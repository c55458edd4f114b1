"""Dense linear algebra over GF(p^k) on coefficient slices and log codes.

A d-by-d matrix M over GF(p^k) is held as its k coefficient slices, an
integer array of shape (k, d, d) over GF(p) with M = sum_c t^c M_c in the
power basis of ``FieldCtx``.  Operators built from matrices over GF(p)
are born in this form: slice c of sum_i alpha_i A_i is sum_i alpha_i[c] A_i.

A product X Y is one float GEMM of the stacked slices, (k*m x inner) times
(inner x k*n).  Its k^2 blocks X_a Y_b are summed along antidiagonals,
still in float, into the coefficients of t^0 .. t^(2k-2); one
``tensordot`` with ``FieldCtx.reduction`` folds those into t^0 .. t^(k-1),
and only that (k, m, n) result is reduced mod p (``gfp.float_mod``) and
cast to integers.  Nothing is reduced before the end, so the float type
follows the largest unreduced sum, (2k-1)(p-1) k inner (p-1)^2: float32
below 2^24, else float64 (``gfp.exact_float``).  No kd x kd multiplication
matrix is formed.  Over GF(p) itself (k = 1) the product is one
``gfp.mod_matmul``.

Ranks have one elimination over GF(q), ``_rank_stack``, for every
field with tables, the prime fields GF(p) = GF(p^1) included: each
matrix's slices become log codes (``prepare``, from ``FieldCtx.tables``),
and a stack of B code matrices of one shape is eliminated together,
column by column, adding rows with the Zech logarithm.  Per column the
numpy passes are shared by the whole stack, so their call overhead is
paid once for B matrices; generic points give one block's matrices the
same nonzero pattern, so the stack's updates touch few columns beyond
any one matrix's.  Callers hand ``ranks`` all their matrices of one
shape at once; ``rank`` is one matrix.  Every rank is taken in full:
freeness needs only rank N (``jordan.are_free_at``), so nothing stops
early.  Fields above ``ffalg.TABLE_CAP`` (only GF(5^12) among the module
primes) have no tables; there the rank is taken one matrix at a time on
the GF(p) companion blowup
sum_c kron(M_c, tmats[c]), whose rank is k times the rank over GF(p^k).
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
    if k == 1:  # GF(p): the slice product is the product, nothing to fold
        return gfp.mod_matmul(x[0], y[0], p)[None]
    # a block entry is at most inner (p-1)^2, an antidiagonal sum of k of
    # them at most k times that, and the fold adds 2k-1 of those times
    # entries of ``reduction`` below p: as exact as a GF(p) inner product
    # that long
    ftype = gfp.exact_float((2 * k - 1) * (p - 1) * k * inner, p)
    stacked = np.ascontiguousarray(y.transpose(1, 0, 2), dtype=ftype)
    blocks = x.reshape(k * m, inner).astype(ftype) @ stacked.reshape(inner, k * n)
    blocks = blocks.reshape(k, m, k, n).transpose(0, 2, 1, 3)  # [a, b] = X_a Y_b
    wide = np.zeros((2 * k - 1, m, n), dtype=ftype)
    for a in range(k):
        wide[a:a + k] += blocks[a]
    # t^e for e >= k in the power basis: column e of ``reduction``
    out = np.tensordot(ctx.reduction.astype(ftype), wide.reshape(2 * k - 1, m * n), axes=1)
    return gfp.float_mod(out, p).astype(np.int64).reshape(k, m, n)


def prepare(slices: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """One matrix in the form ``ranks`` takes: int32 log codes (-1 for zero)
    where the field has tables, else its slices unchanged."""
    if ctx.q > TABLE_CAP:
        return slices
    codes = np.tensordot(ctx.p ** np.arange(ctx.k), slices, axes=1)
    return ctx.tables.log[codes]


def rank(slices: np.ndarray, ctx: FieldCtx) -> int:
    """Rank over GF(p^k) of the matrix with these slices; ``ranks`` of one."""
    return ranks([prepare(slices, ctx)], ctx)[0]


def ranks(mats: list[np.ndarray], ctx: FieldCtx) -> list[int]:
    """Ranks over GF(p^k) of matrices of one shape, each from ``prepare``.

    Where the field has tables the matrices are ranked by one stacked
    elimination, ``_rank_stack``; fields above the table cap go to
    ``_blowup_rank``, one matrix at a time.  Every rank is the full rank.
    """
    if ctx.q > TABLE_CAP:
        return [_blowup_rank(m, ctx) for m in mats]
    if not mats:
        return []
    return _rank_stack(np.stack(mats), ctx).tolist()


def _rank_stack(a: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Ranks of a (B, m, n) stack of log-code matrices; overwrites ``a``.

    Right-looking elimination, one column at a time for the whole stack.
    At column j every live matrix (rank below m) takes its first
    free row with a nonzero there as the pivot row r, and each of its
    free rows i below with a nonzero in column j gains -(a_ij / a_rj)
    times row r.  The updates of all matrices are one set of numpy passes
    on the (B*m, n) view, over the union of the pivot rows' nonzero
    columns; a row is left alone where its own pivot row is zero.
    """
    tables = ctx.tables
    order, zech = tables.order, tables.zech
    b, m, n = a.shape
    flat = a.reshape(b * m, n)
    base = np.arange(b) * m  # flat index of each matrix's first row
    rank = np.zeros(b, dtype=np.intp)
    row_index = np.arange(m)
    for j in range(n):
        live = np.flatnonzero(rank < m)
        if not live.size:
            break
        cand = (a[live, :, j] >= 0) & (row_index >= rank[live, None])
        has = cand.any(axis=1)
        if not has.all():
            live, cand = live[has], cand[has]
            if not live.size:
                continue
        first = cand.argmax(axis=1)
        piv = base[live] + rank[live]
        src = base[live] + first
        moved = src != piv
        if moved.any():
            swap = np.concatenate([piv[moved], src[moved]])
            flat[swap] = flat[np.concatenate([src[moved], piv[moved]])]
        # the old pivot-position row, now at ``first``, is zero in column j
        cand[np.arange(live.size), first] = False
        owner, below = np.nonzero(cand)
        if owner.size:
            pivot_rows = flat[piv, j + 1:]
            cols = j + 1 + np.flatnonzero((pivot_rows >= 0).any(axis=0))
            if cols.size:
                rows = base[live[owner]] + below
                pvals = pivot_rows[:, cols - j - 1][owner]
                mult = (flat[rows, j] - flat[piv[owner], j] + tables.neg) % order
                add = (mult[:, None] + pvals) % order
                old = flat[rows[:, None], cols]
                # old + add = add * (1 + old / add); zech is -1 where that is
                # zero, and a negative index old - add wraps to its residue
                z = zech[old - add]
                new = np.where(z < 0, -1, (add + z) % order)
                new = np.where(old < 0, add, new)
                flat[rows[:, None], cols] = np.where(pvals < 0, old, new)
        rank[live] += 1
    return rank


def _blowup_rank(slices: np.ndarray, ctx: FieldCtx) -> int:
    """Rank over GF(p^k) from the GF(p) companion blowup of the slices.

    Replacing each entry by its multiplication matrix is a ring
    homomorphism, so the blowup rank is k times the rank over GF(p^k).
    The path for fields above the table cap, and the tests' oracle.
    """
    k, p = ctx.k, ctx.p
    big = sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % p
    r = gfp.rank(big, p)
    if r % k:
        raise RankCheckFailed(f"blowup rank {r} is not a multiple of {k}")
    return r // k
