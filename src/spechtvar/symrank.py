"""Exact generic ranks of matrices with polynomial entries over GF(p).

Computes rank over the rational function field GF(p)(t_1..t_n) of powers of
N = t_1 A_1 + ... + t_n A_n by fraction-free (Bareiss) elimination.  Every
intermediate entry is a homogeneous polynomial, so each matrix is stored as
a dense coefficient block of shape (rows, cols, T) indexed by the monomials
of the current degree.

Monomials of a fixed degree are identified by the integer code
sum(e_i * 512**i).  Codes add when monomials multiply and valid codes have
all base-512 digits below 512, so code order is a monomial order and code
arithmetic never aliases distinct monomials.  This caps the machinery at 7
variables and total degree < 512, far above anything a 32-dimensional
matrix can produce.

The exact division by the previous pivot solves a triangular linear system
on coefficients: with LM the pivot's leading monomial (largest code),
S[b, a] = prev[m_a + LM - m_b] is upper triangular with the pivot's leading
coefficient on the diagonal, and the quotient rows are num_sub @ S^{-1}.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gfp
from .errors import PreconditionViolated, TooLarge

_RADIX = 512
MAX_EXACT_DIM = 32
_MAX_VARS = 7


@lru_cache(maxsize=None)
def monomials(nvars: int, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (T, nvars) and codes (T,), sorted by descending code."""
    if nvars == 1:
        exps = np.array([[deg]], dtype=np.int64)
    else:
        rows = []
        for e0 in range(deg + 1):
            sub = monomials(nvars - 1, deg - e0)[0]
            rows.append(np.hstack([np.full((len(sub), 1), e0, dtype=np.int64), sub]))
        exps = np.vstack(rows)
    radix = _RADIX ** np.arange(nvars, dtype=np.int64)
    codes = exps @ radix
    order = np.argsort(-codes, kind="stable")
    return exps[order], codes[order]


def _lookup(codes_desc: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions of targets in a descending code list, -1 where absent."""
    asc = codes_desc[::-1]
    pos = np.searchsorted(asc, targets)
    safe = np.minimum(pos, len(asc) - 1)
    ok = asc[safe] == targets
    return np.where(ok, len(asc) - 1 - safe, -1)


@lru_cache(maxsize=4)
def _pair_targets(nvars: int, d1: int, d2: int) -> np.ndarray:
    """(T1, T2) indices of m_a * m_b inside monomials(nvars, d1 + d2)."""
    codes1 = monomials(nvars, d1)[1]
    codes2 = monomials(nvars, d2)[1]
    codes12 = monomials(nvars, d1 + d2)[1]
    idx = _lookup(codes12, (codes1[:, None] + codes2[None, :]).ravel())
    if (idx < 0).any():
        raise PreconditionViolated(f"monomial products of degrees {d1}, {d2} "
                                   f"missing from degree {d1 + d2}")
    return idx.reshape(len(codes1), len(codes2)).astype(np.int64)


def _mul_many(vecs: np.ndarray, poly: np.ndarray, nvars: int,
              d1: int, d2: int, p: int) -> np.ndarray:
    """Multiply each degree-d1 row of vecs by a fixed degree-d2 poly."""
    pairs = _pair_targets(nvars, d1, d2)
    t1 = vecs.shape[1]
    t12 = len(monomials(nvars, d1 + d2)[1])
    conv = np.zeros((t1, t12), dtype=np.int64)
    conv[np.arange(t1)[:, None], pairs] = poly[None, :]
    return gfp.mod_matmul(vecs, conv, p)


@lru_cache(maxsize=4)
def _scatter_plan(nvars: int, d1: int, d2: int):
    """Sorted segment plan for accumulating all (c1, c2) products."""
    pm = _pair_targets(nvars, d1, d2).ravel()
    order = np.argsort(pm, kind="stable")
    sorted_pm = pm[order]
    starts = np.flatnonzero(np.diff(sorted_pm, prepend=-1))
    return order, starts, sorted_pm[starts]


def sym_matmul(a: np.ndarray, b: np.ndarray, nvars: int,
               da: int, db: int, p: int) -> np.ndarray:
    """Product of matrices with homogeneous entries of degrees da and db."""
    m, n = a.shape[0], b.shape[1]
    prod = np.einsum("ilc,ljd->ijcd", a, b).reshape(m * n, -1)
    order, starts, targets = _scatter_plan(nvars, da, db)
    t12 = len(monomials(nvars, da + db)[1])
    out = np.zeros((m * n, t12), dtype=np.int64)
    out[:, targets] = np.add.reduceat(prod[:, order], starts, axis=1)
    return (out % p).reshape(m, n, t12)


def tri_inv_mod(s: np.ndarray, p: int) -> np.ndarray:
    """Inverse of an upper-triangular matrix mod p (unit-free diagonal)."""
    n = s.shape[0]
    if n <= 64:
        tab = gfp.inverse_table(p)
        inv = np.zeros_like(s)
        for i in range(n - 1, -1, -1):
            di = tab[int(s[i, i]) % p]
            inv[i, i] = di
            if i + 1 < n:
                inv[i, i + 1:] = (-di * (s[i, i + 1:] @ inv[i + 1:, i + 1:])) % p
        return inv
    h = n // 2
    ai = tri_inv_mod(s[:h, :h], p)
    di = tri_inv_mod(s[h:, h:], p)
    corner = (-gfp.mod_matmul(gfp.mod_matmul(ai, s[:h, h:], p), di, p)) % p
    out = np.zeros_like(s)
    out[:h, :h] = ai
    out[h:, h:] = di
    out[:h, h:] = corner
    return out


def _divide_rows(num: np.ndarray, prev: np.ndarray, nvars: int,
                 dnum: int, dprev: int, p: int) -> np.ndarray:
    """Exact division of homogeneous rows of num by prev; returns quotients."""
    dq = dnum - dprev
    codes_q = monomials(nvars, dq)[1]
    codes_num = monomials(nvars, dnum)[1]
    codes_prev = monomials(nvars, dprev)[1]
    lm_code = int(codes_prev[int(np.flatnonzero(prev)[0])])
    cols = _lookup(codes_num, codes_q + lm_code)
    if (cols < 0).any():
        raise PreconditionViolated(f"quotient monomials of degree {dq} times the "
                                   f"leading monomial missing from degree {dnum}")
    num_sub = num[:, cols]
    tgt = codes_q[None, :] + lm_code - codes_q[:, None]
    idx = _lookup(codes_prev, tgt.ravel()).reshape(len(codes_q), len(codes_q))
    s = np.where(idx >= 0, prev[np.maximum(idx, 0)], 0)
    return gfp.mod_matmul(num_sub, tri_inv_mod(s, p), p)


def generic_rank(mat: np.ndarray, nvars: int, deg: int, p: int) -> int:
    """Rank over GF(p)(t_1..t_n) of a matrix of homogeneous degree-deg entries.

    mat has shape (rows, cols, T) with T = len(monomials(nvars, deg)).
    """
    m = np.array(mat, dtype=np.int64) % p
    cur_deg, prev_deg = deg, 0
    prev: np.ndarray | None = None
    rk = 0
    while m.shape[0] and m.shape[1]:
        nz = (m != 0).any(axis=2)
        if not nz.any():
            break
        rk += 1
        if m.shape[0] == 1 or m.shape[1] == 1:
            break
        counts = (m != 0).sum(axis=2)
        counts[~nz] = 1 << 60
        i0, j0 = divmod(int(np.argmin(counts)), m.shape[1])
        if i0:
            m[[0, i0]] = m[[i0, 0]]
        if j0:
            m[:, [0, j0]] = m[:, [j0, 0]]
        piv, top, col = m[0, 0].copy(), m[0, 1:].copy(), m[1:, 0].copy()
        nrow, ncol = m.shape[0] - 1, m.shape[1] - 1
        # num = piv * m[1:, 1:] - m[1:, 0] m[0, 1:], reduced in place row by row
        num = _mul_many(m[1:, 1:].reshape(nrow * ncol, -1), piv,
                        nvars, cur_deg, cur_deg, p).reshape(nrow, ncol, -1)
        del m  # only the pivot row and column are still needed
        for i in range(nrow):
            num[i] -= _mul_many(top, col[i], nvars, cur_deg, cur_deg, p)
            num[i] %= p
        num_deg = 2 * cur_deg
        if prev is not None:
            num = _divide_rows(num.reshape(nrow * ncol, -1), prev,
                               nvars, num_deg, prev_deg, p).reshape(nrow, ncol, -1)
        prev, prev_deg, cur_deg = piv, cur_deg, num_deg - prev_deg
        m = num
    return rk


def generic_power_ranks(gens: list[np.ndarray], p: int, powers: int) -> list[int]:
    """Exact ranks of (sum_i t_i A_i)^s for s = 1..powers.

    Raises TooLarge beyond the exact-mode gate (dimension 32, 7 variables).
    """
    d = gens[0].shape[0]
    nvars = len(gens)
    if d > MAX_EXACT_DIM:
        raise TooLarge(f"dimension {d} exceeds exact-mode cap {MAX_EXACT_DIM}")
    if nvars > _MAX_VARS:
        raise TooLarge(f"{nvars} variables exceed exact-mode cap {_MAX_VARS}")
    lin = np.zeros((d, d, len(monomials(nvars, 1)[1])), dtype=np.int64)
    exps = monomials(nvars, 1)[0]
    for col, e in enumerate(exps):
        lin[:, :, col] = gens[int(np.flatnonzero(e)[0])] % p
    ranks = []
    cur = lin
    for s in range(1, powers + 1):
        if s > 1:
            cur = sym_matmul(cur, lin, nvars, s - 1, 1, p)
        ranks.append(generic_rank(cur, nvars, s, p))
    return ranks
