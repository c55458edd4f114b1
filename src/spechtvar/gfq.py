"""Dense linear algebra over GF(p^k) on coefficient slices and log codes.

A d-by-d matrix M over GF(p^k) is held as its k coefficient slices, an
array of shape (k, d, d) over GF(p) with M = sum_c t^c M_c in the power
basis of ``FieldCtx``.  ``jordan`` forms N and its powers in this form
from matrices over GF(p).

Ranks have one elimination over GF(q), ``_rank_stack``, for every
field with tables, the prime fields GF(p) = GF(p^1) included: each
matrix's slices become log codes (``prepare``, from ``FieldCtx.tables``),
and a stack of B code matrices of one shape is eliminated together,
column by column, adding rows with the Zech logarithm.  The row update
is branch-free: one lookup in ``LogTables.plus``, clipped, on flat
indices into the stack, with zero coded out of range so that the same
lookup handles it.  Per column the numpy passes are shared by the whole
stack, so their call overhead is paid once for B matrices; generic points
give one block's matrices the same nonzero pattern, so the stack's
updates touch few columns beyond any one matrix's.  Callers hand
``ranks`` all their matrices of one shape at once; ``rank`` is one
matrix.  Every rank is taken in full: freeness needs only rank N
(``jordan.are_free_at``), so nothing stops early.  Fields above
``ffalg.TABLE_CAP`` (only GF(5^12) among the module primes) have no
tables; there the rank is taken one matrix at a time on the GF(p)
companion blowup sum_c kron(M_c, tmats[c]), whose rank is k times the
rank over GF(p^k).
"""

from __future__ import annotations

import numpy as np

from . import gfp
from .errors import RankCheckFailed
from .ffalg import TABLE_CAP, FieldCtx


def prepare(slices: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Matrices (k, m, n), or a stack (B, k, m, n), of integers or exact
    floats below p in the form ``ranks`` takes: int32 log codes (-1 for
    zero) where the field has tables, else int64 slices.  Codes are
    sum_c p^c slices[c] by Horner's rule, exact below TABLE_CAP < 2^24."""
    if ctx.q > TABLE_CAP:
        return np.asarray(slices, dtype=np.int64)
    codes = slices[..., -1, :, :]
    for c in range(ctx.k - 2, -1, -1):
        codes = codes * ctx.p + slices[..., c, :, :]
    return ctx.tables.log[codes.astype(np.intp, copy=False)]


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


# Entries per pass of the row update: a column's update runs over blocks
# of rows of about this many entries, which bounds its temporaries (about
# 36 bytes per entry) and keeps them in cache, whatever the stack's size.
_UPDATE_ENTRIES = 1 << 16


def _rank_stack(a: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Ranks of a (B, m, n) stack of log-code matrices; overwrites ``a``.

    Right-looking elimination, one column at a time for the whole stack.
    At column j every matrix with a free row (not yet a pivot row) that is
    nonzero there takes the first such row as the pivot row r, where it
    stands, and each of its free rows i below with a nonzero in column j
    gains -(a_ij / a_rj) times row r.  No row moves; the rank is the count
    of pivot rows.  The updates of all matrices are one set of numpy passes
    on the flat stack, over the union of the pivot rows' nonzero columns,
    in blocks of rows of ``_UPDATE_ENTRIES`` entries.

    Zero is the code -order here (``add`` is below -order where the pivot
    row is zero), so that new = max(old, add) + plus[|add - old|], with
    the lookup clipped, serves every case of old + add: the gap of two
    logs is below order; a gap to a zero is at least order and reads
    ``plus[order] = 0``, so the sum is the larger code, the nonzero one,
    and a row is left alone where its pivot row is zero; and a zero sum,
    of two zeros or from ``plus``, comes out negative.  Logs are reduced
    mod order by ``_reduce`` and negatives are clamped back to -order.  So
    the per-entry update has no ``%``, no ``np.where`` and no 2-D fancy
    index; the one ``%`` is per row.
    """
    tables = ctx.tables
    order, plus = tables.order, tables.plus
    zero = np.int32(-order)
    b, m, n = a.shape
    a[a < 0] = zero
    flat = a.reshape(b * m, n)
    lin = a.reshape(-1)
    free = np.ones(b * m, dtype=bool)  # rows not yet taken as a pivot row
    for j in range(n):
        # candidates in flat order, so each matrix's first one leads its run;
        # a matrix of full rank has none
        cand = flat[:, j] >= 0
        cand &= free
        rows = np.flatnonzero(cand)
        if not rows.size:
            continue
        mat = rows // m
        lead = np.empty(rows.size, dtype=bool)
        lead[0] = True
        np.not_equal(mat[1:], mat[:-1], out=lead[1:])
        piv = rows[lead]
        free[piv] = False
        rest = ~lead
        rows = rows[rest]
        if rows.size:
            owner = (np.cumsum(lead) - 1)[rest]  # position of each row's pivot in piv
            pivot_rows = flat[piv, j + 1:]
            cols = j + 1 + np.flatnonzero((pivot_rows >= 0).any(axis=0))
            if cols.size:
                pvals = pivot_rows[:, cols - j - 1]
                # one log per row: mult = log(-a_ij / a_rj)
                mult = (flat[rows, j] - flat[piv[owner], j] + tables.neg) % order
                step = max(1, _UPDATE_ENTRIES // cols.size)
                for lo in range(0, rows.size, step):
                    add = pvals.take(owner[lo:lo + step], axis=0)
                    add += mult[lo:lo + step, None]
                    _reduce(add, order)
                    at = (rows[lo:lo + step] * n)[:, None] + cols
                    old = lin.take(at)
                    gap = add - old
                    np.abs(gap, out=gap)
                    np.maximum(add, old, out=add)
                    add += plus.take(gap, mode="clip")
                    _reduce(add, order)
                    lin[at] = np.maximum(add, zero, out=add)
        if not free.any():
            break
    return (~free).reshape(b, m).sum(axis=1)


def _reduce(x: np.ndarray, order: int) -> None:
    """x mod order in place for int32 x in [0, 2 * order); a negative x
    stays negative, as x - order.  As unsigned, x - order wraps above x
    exactly when 0 <= x < order."""
    u = x.view(np.uint32)
    np.minimum(u, (x - order).view(np.uint32), out=u)


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
