"""Dense linear algebra over GF(p^k) on coefficient slices and log codes.

A d-by-d matrix M over GF(p^k) is held as its k coefficient slices, an
array of shape (k, d, d) over GF(p) with M = sum_c t^c M_c in the power
basis of ``FieldCtx``.  ``jordan`` forms N and its powers in this form
from matrices over GF(p).

Every rank, over every field, is taken by one stacked elimination,
``_rank_stack``, on log codes (``prepare``, from ``FieldCtx.tables``).
Callers hand ``ranks`` all their matrices of one shape at once, and the
stack shares each column's numpy passes, whose row update is one clipped
lookup in ``LogTables.plus``; generic points give one block's matrices
the same nonzero pattern, so the stack's updates touch few columns beyond
any one matrix's.  ``rank`` is one matrix.  Every rank is taken in full:
freeness needs only rank N (``jordan.are_free_at``), so nothing stops early.

A field above ``ffalg.TABLE_CAP`` (GF(5^9) .. GF(5^12) among the module
primes) is ranked over its largest subfield with tables, GF(p^j), j | k
(Lidl and Niederreiter, Finite Fields, Thm 2.8): each entry of M becomes
its m-by-m multiplication matrix over GF(p^j), m = k/j, a GF(p)-linear
map of the slices (``_subfield``), and the md-by-md lift has rank m rank M.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gfp
from .errors import PreconditionViolated, RankCheckFailed
from .ffalg import TABLE_CAP, FieldCtx


def prepare(slices: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Matrices (k, r, s), or a stack (B, k, r, s), of integers or exact
    floats below p in the form ``ranks`` takes: int32 log codes (-1 for
    zero).  Above the table cap they are codes over GF(p^j) of the lift, in
    which entry (x, y) is the m-by-m block at rows x m and columns y m on.
    Codes are sum_c p^c slices[c] by Horner's rule, exact below TABLE_CAP."""
    if ctx.q > TABLE_CAP:
        ctx, lift = _subfield(ctx)
        slices = np.einsum("abic,...cxy->...ixayb", lift, slices, optimize=True) % ctx.p
        *lead, r, m, s, _ = slices.shape
        slices = slices.reshape(*lead, r * m, s * m)
    codes = slices[..., -1, :, :]
    for c in range(ctx.k - 2, -1, -1):
        codes = codes * ctx.p + slices[..., c, :, :]
    return ctx.tables.log[codes.astype(np.intp, copy=False)]


def rank(slices: np.ndarray, ctx: FieldCtx) -> int:
    """Rank over GF(p^k) of the matrix with these slices; ``ranks`` of one."""
    return ranks([prepare(slices, ctx)], ctx)[0]


def ranks(mats: list[np.ndarray], ctx: FieldCtx) -> list[int]:
    """Ranks over GF(p^k) of matrices of one shape, each from ``prepare``,
    by one stacked elimination.  Above the table cap that is over GF(p^j),
    of the lifts, whose ranks are m times the ranks over GF(p^k);
    RankCheckFailed where one is not a multiple of m."""
    if not mats:
        return []
    field = _subfield(ctx)[0] if ctx.q > TABLE_CAP else ctx
    m = ctx.k // field.k
    got = _rank_stack(np.stack(mats), field)
    if m > 1:
        if (got % m).any():
            raise RankCheckFailed(f"lifted ranks {got.tolist()} are not multiples of {m}")
        got //= m
    return got.tolist()


# Elements per step of the root search in ``_subfield``: bounds its products.
_ROOT_BLOCK = 4096


@lru_cache(maxsize=None)
def _subfield(ctx: FieldCtx) -> tuple[FieldCtx, np.ndarray]:
    """GF(p^j), j the largest divisor of k with p^j <= TABLE_CAP, and the lift
    W (m, m, j, k), m = k/j: W[a, b] @ x are the coefficients of entry (a, b)
    of multiplication by x over GF(p^j); PreconditionViolated for p above it.

    GF(p^j) is the GF(p)-nullspace of x -> x^(p^j) - x, and a root r of its
    modulus there stands for its t; W[a, b, :, c] are the coordinates of
    t^(b+c), a column of ``reduction``, on the basis t^a r^i."""
    p, k = ctx.p, ctx.k
    j = max((j for j in range(1, k + 1) if k % j == 0 and p**j <= TABLE_CAP), default=0)
    if not j:
        raise PreconditionViolated(f"GF({p}^{k}) has no subfield with log tables")
    sub, m = FieldCtx.get(p, j), k // j
    eye = np.eye(k, dtype=np.int64)
    images = np.tile(eye[0], (k, 1))  # (t^i)^(p^j), by square and multiply
    for bit in bin(p**j)[2:]:
        images = ctx.mul_rows(images, images)
        if bit == "1":
            images = ctx.mul_rows(images, eye)
    fixed = gfp.nullspace((images - eye).T, p)
    for lo in range(0, sub.q, _ROOT_BLOCK):
        elems = sub.digits(np.arange(lo, min(lo + _ROOT_BLOCK, sub.q))) @ fixed.T % p
        value = np.tile(eye[0], (len(elems), 1))  # the modulus at each, by Horner
        for c in sub.modulus[-2::-1]:
            value = ctx.mul_rows(value, elems)
            value[:, 0] = (value[:, 0] + c) % p
        roots = np.flatnonzero(~value.any(axis=1))
        if roots.size:
            break
    powers = [eye[0]]
    for _ in range(j - 1):
        powers.append(ctx.mul_rows(powers[-1], elems[roots[0]]))
    basis = ctx.mul_rows(eye[:m, None], np.stack(powers)[None])  # [a, i] = t^a r^i
    coords = gfp.solve(basis.reshape(k, k).T, ctx.reduction, p).reshape(m, j, 2 * k - 1)
    return sub, coords[:, :, np.add.outer(np.arange(m), np.arange(k))].transpose(0, 2, 1, 3)


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
