"""Dense exact linear algebra over the prime field GF(p), on numpy arrays.

Matrices are integer ndarrays with entries in {0, ..., p-1}.  Products route
through float BLAS: with entries below p and inner dimension m, every
accumulated sum stays below m*(p-1)^2, so float32 is exact up to 2**24 and
float64 up to 2**53.  `float_mod` is the one rule that reduces such float
products mod p, before any cast to integers; it works in place through one
scratch tile of `TILE_BYTES`, so it allocates no quotient the size of its
input.  Elimination (``rank``, ``rref``, ``solve``, ``nullspace``) is plain,
one column at a time; in the package it serves interpolation's
``nullspace`` and ``gfq._subfield``'s one-off nullspace and solve, since
every rank at a point, over every field, is ``gfq._rank_stack``'s.  A unit lower
triangular system needs no elimination: `solve_unit_lower` runs a blocked
forward substitution on floats, reduced by `float_mod` without leaving the
float type.  Each block of rows takes one matmul against the rows solved
above it and one against the inverse of its diagonal block, and those
inverses come from one batched product series; so the solve is all
matmuls.  It serves module construction (the standard-tabloid minor) and
exact mode's division by the previous Bareiss pivot (``symrank``).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import NoSolution, PreconditionViolated, RankDeficient

_PANEL = 64
# Working set of one tile, in bytes: float_mod's scratch quotient, and the
# product of each row tile of spechtmod's construction check.  It fits a
# per-core L2, so each tile's passes stay in cache.
TILE_BYTES = 1 << 19


@lru_cache(maxsize=None)
def inverse_table(p: int) -> np.ndarray:
    """Multiplicative inverses mod p, with table[0] = 0 as a placeholder."""
    table = np.zeros(p, dtype=np.int64)
    for a in range(1, p):
        table[a] = pow(a, p - 2, p)
    return table


def exact_float(inner: int, p: int) -> type:
    """The float type in which inner-products of length ``inner`` of
    residues mod p are exact: float32 below 2**24, else float64."""
    return np.float32 if inner * (p - 1) ** 2 < 2**24 else np.float64


def mod_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact (a @ b) % p via float BLAS."""
    ftype = exact_float(a.shape[-1], p)
    prod = a.astype(ftype) @ b.astype(ftype)
    return float_mod(prod, p).astype(np.int64)


def float_mod(y: np.ndarray, p: int) -> np.ndarray:
    """``y`` mod p in place, and returned, for integer-valued floats y with
    |y| below 2**24 (float32) or 2**53 (float64).

    y/p is an integer or lies at least 1/p from one, and its rounding error
    is below 1/p, so floor(y/p) is exact; np.remainder gives the same
    result at about 20 times the cost.  y is reduced as one flat view, a
    tile of TILE_BYTES at a time, through one scratch quotient of that
    size; an input of at most one tile is one pass.  PreconditionViolated
    unless y is contiguous, since a flat view of any other array is a copy.
    """
    if not (y.flags.c_contiguous or y.flags.f_contiguous):
        raise PreconditionViolated("float_mod reduces a contiguous array in place")
    flat = y.ravel(order="A")  # a view, in y's memory order
    step = TILE_BYTES // flat.itemsize
    scratch = np.empty(min(step, flat.size), dtype=flat.dtype)
    for lo in range(0, flat.size, step):
        part = flat[lo: lo + step]
        q = scratch[: part.size]
        np.divide(part, p, out=q)
        np.floor(q, out=q)
        q *= p
        part -= q
    return y


def solve_unit_lower(l: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Solve L X = Y over GF(p) in place, for L unit lower triangular mod p.

    ``y`` is a (d, k) float array of type ``exact_float(d, p)``.  L and Y
    hold integers of either sign below 2**24 in magnitude; ``y`` is
    overwritten by X, with entries in 0..p-1, and returned.  An L of type
    ``exact_float(d, p)`` is consumed: it is reduced mod p in place, not
    copied; an L of another type is converted and left as it is.  Forward
    substitution runs in blocks of w = min(_PANEL, d) rows: each block,
    once reduced, subtracts its product with all the rows solved above it
    in one BLAS matmul, then is multiplied by the inverse of its diagonal
    block (``_diagonal_inverses``).  No intermediate reaches d*(p-1)^2 in
    magnitude, so the float type is exact throughout.  Raises
    PreconditionViolated unless diag(L) = 1 and L has no nonzero entry
    above the diagonal, mod p, or if ``y`` has another type or height.
    """
    d = len(l)
    ftype = exact_float(d, p)
    if y.dtype != ftype or y.shape[0] != d:
        raise PreconditionViolated(f"right-hand side must be {d} rows of {ftype.__name__}")
    lf = np.asarray(l, dtype=ftype)
    w = min(_PANEL, d)
    for lo in range(0, d, w):  # reduced and checked a panel of rows at a time
        rows = float_mod(lf[lo: lo + w], p)
        if ((np.diagonal(rows[:, lo:]) != 1).any() or rows[:, lo + w:].any()
                or np.triu(rows[:, lo: lo + w], 1).any()):
            raise PreconditionViolated("matrix is not unit lower triangular mod p")
    inverses = _diagonal_inverses(lf, w, p)
    for k, lo in enumerate(range(0, d, w)):
        block = float_mod(y[lo: lo + w], p)
        if lo:
            block -= lf[lo: lo + w, :lo] @ y[:lo]
            float_mod(block, p)
        h = len(block)
        y[lo: lo + h] = float_mod(inverses[k, :h, :h] @ block, p)
    return y


def _diagonal_inverses(lf: np.ndarray, w: int, p: int) -> np.ndarray:
    """Inverses mod p of the w x w diagonal blocks of a unit lower triangular
    ``lf`` (reduced mod p), as one (blocks, w, w) stack; a short last block
    is padded with the identity.

    With N = I - L_kk strictly lower triangular, N^w = 0, so
    L_kk^-1 = I + N + ... + N^(w-1) = (I + N)(I + N^2)(I + N^4)...: one
    squaring and one product per factor, batched over all blocks.  Every
    factor is reduced mod p and has zero or one on its diagonal, so each
    product's sums stay below w*(p-1)^2, exact in lf's float type.
    """
    d = len(lf)
    starts = range(0, d, w)
    eye = np.eye(w, dtype=lf.dtype)
    nil = np.zeros((len(starts), w, w), dtype=lf.dtype)
    for k, lo in enumerate(starts):
        h = min(w, d - lo)
        np.negative(lf[lo: lo + h, lo: lo + h], out=nil[k, :h, :h])
    diagonal = np.arange(w)
    nil[:, diagonal, diagonal] = 0  # L_kk's unit diagonal cancels I's
    float_mod(nil, p)
    inv = nil + eye
    for _ in range((w - 1).bit_length() - 1):
        nil = float_mod(nil @ nil, p)
        inv = float_mod(inv @ (nil + eye), p)
    return inv


def _echelon(a: np.ndarray, p: int) -> list[int]:
    """In-place forward elimination, one column at a time, of an int64 `a`
    reduced mod p; returns the pivot columns.  Afterwards the first
    len(pivots) rows are an (unnormalized) row echelon form, the rest zero."""
    m, n = a.shape
    inv = inverse_table(p)
    pivots: list[int] = []
    for j in range(n):
        r = len(pivots)
        if r == m:
            break
        nz = np.flatnonzero(a[r:, j])
        if not nz.size:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        below = r + 1 + np.flatnonzero(a[r + 1:, j])
        mult = a[below, j] * inv[a[r, j]] % p
        a[below, j:] = (a[below, j:] - mult[:, None] * a[r, j:]) % p
        pivots.append(j)
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
    """Matrix whose columns are a basis of the right nullspace over GF(p):
    one column per free column f of the reduced form, 1 at f and minus
    column f of the reduced form at the pivot columns."""
    a = np.asarray(a)
    n = a.shape[1]
    red, pivots = rref(a, p)
    free = np.delete(np.arange(n), pivots)
    basis = np.zeros((n, free.size), dtype=np.int64)
    basis[free, np.arange(free.size)] = 1
    basis[pivots] = -red[:len(pivots), free] % p
    return basis
