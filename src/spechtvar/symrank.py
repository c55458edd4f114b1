"""Exact generic ranks of matrices with polynomial entries over GF(p).

Computes rank over the rational function field GF(p)(t_1..t_n) of powers of
N = t_1 A_1 + ... + t_n A_n by fraction-free (Bareiss) elimination.  Every
intermediate entry is a homogeneous polynomial, so each matrix is stored as
a dense coefficient block of shape (rows, cols, T) indexed by the monomials
of the current degree.

Monomials of a fixed degree are identified by the integer code
sum(e_i * 512**i).  Codes add when monomials multiply and valid codes have
all base-512 digits below 512, so code order is a monomial order and code
arithmetic never aliases distinct monomials.  This caps the elimination at
7 variables and degree < 512, far above what a 32-dimensional matrix can
produce; ``exponents`` lists monomials in code order with no cap.

The exact division by the previous pivot solves a triangular linear system
on coefficients: with LM the pivot's leading monomial (largest code),
S[b, a] = prev[m_a + LM - m_b] is upper triangular with the pivot's leading
coefficient c on the diagonal, and the quotient rows Q satisfy Q S = num_sub,
where num_sub holds the numerator's coefficients at m_a + LM only.  So
c^-1 S^T Q^T = c^-1 num_sub^T is a unit lower triangular system, solved for
all quotient rows of a step at once by ``gfp.solve_unit_lower``.

So a step never forms the whole numerator num = piv*M - col (x) top of
degree 2c: ``_step_plan`` sends each product pair of degree-c monomials to
the quotient column it lands in (or drops it), cached per (variables,
degree, previous degree, LM code) within ``_PLAN_CACHE_BYTES``.  For
each block of those columns (at (5,3), p = 2, 816 of 4,495 columns) the two
products are GEMMs: the pivot's convolution restricted to the block times
all of M, and M's top row times the pivot column's entries gathered onto
the block from the column's transpose, one GEMM per quotient column in one
batched call.  The blocks are sized so that a gather stays within
``_CHUNK_BYTES``, and the numerator is held quotient columns first, which
is the layout of the division's right-hand side.  The first step has no
divisor, and its plan covers every column of degree 2c.  Entries are held
as exact floats below p, in float32 wherever the products' sums stay below
2**24.
The coefficients of N^s are built one variable at a time, N^(s-1) A_v
(``power_coefficients``, for any number of variables), and random mode
evaluates the same stacks at points (``jordan``); the rest is specific to
polynomials (monomial codes, step plans and the Bareiss loop).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import gfp
from .errors import PreconditionViolated, TooLarge

_RADIX = 512
MAX_EXACT_DIM = 32
MAX_VARS = 7
# bound on one column block's gathered convolution (w x T x rows floats),
# and on the index rows of one gather of the divisor's triangle
_CHUNK_BYTES = 2**20
_LOOKUP_BLOCK = 2**16  # code lookups per block in _sum_positions
_PLAN_CACHE_BYTES = 32 * 2**20
_PLANS: dict[tuple[int, int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_plans_nbytes = 0  # sum of the nbytes of the plans in _PLANS


@lru_cache(maxsize=None)
def exponents(nvars: int, deg: int) -> np.ndarray:
    """Exponent rows (T, nvars) of the monomials of degree deg, in
    descending lexicographic order of (e_(n-1), .., e_0)."""
    if nvars == 1:
        return np.array([[deg]], dtype=np.int64)
    return np.vstack([np.hstack([sub, np.full((len(sub), 1), e, dtype=np.int64)])
                      for e in range(deg, -1, -1) for sub in [exponents(nvars - 1, deg - e)]])


@lru_cache(maxsize=None)
def monomials(nvars: int, deg: int) -> tuple[np.ndarray, np.ndarray]:
    """Exponent rows (T, nvars) and codes (T,), sorted by descending code:
    the order of ``exponents``, as every digit of a code is below 512."""
    if nvars > MAX_VARS or deg >= _RADIX:
        raise PreconditionViolated(f"no codes for {nvars} variables of degree {deg}")
    exps = exponents(nvars, deg)
    return exps, exps @ _RADIX ** np.arange(nvars, dtype=np.int64)


def _lookup(codes_desc: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Positions of targets in a descending code list, -1 where absent."""
    asc = codes_desc[::-1]
    pos = np.searchsorted(asc, targets)
    safe = np.minimum(pos, len(asc) - 1)
    ok = asc[safe] == targets
    return np.where(ok, len(asc) - 1 - safe, -1)


def _sum_positions(codes_desc: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Positions in a descending code list of the codes x[i] + y[j].

    A (len(x), len(y)) array, -1 where absent, of int16 where the list
    is short enough (halving the cached step plans), looked up in blocks
    of rows so that the lookup's temporaries stay small.
    """
    dtype = np.int16 if len(codes_desc) < 2**15 else np.int32
    out = np.empty((len(x), len(y)), dtype=dtype)
    step = max(1, _LOOKUP_BLOCK // len(y))
    for i in range(0, len(x), step):
        out[i:i + step] = _lookup(codes_desc, x[i:i + step, None] + y[None, :])
    return out


@lru_cache(maxsize=4)
def _pair_targets(nvars: int, d1: int, d2: int) -> np.ndarray:
    """(T1, T2) indices of m_a * m_b inside exponents(nvars, d1 + d2): these
    products are every monomial of degree d1 + d2, and ``np.unique`` sorts
    their reversed rows ascending, the reverse of ``exponents``' order."""
    prods = exponents(nvars, d1)[:, None] + exponents(nvars, d2)[None]
    _, inv = np.unique(prods[..., ::-1].reshape(-1, nvars), axis=0, return_inverse=True)
    return len(exponents(nvars, d1 + d2)) - 1 - inv.reshape(prods.shape[:2])


def _step_plan(nvars: int, deg: int, prev_deg: int,
               lm_code: int) -> tuple[np.ndarray, np.ndarray]:
    """``_build_step_plan``, kept in a least-recently-used cache of at most
    ``_PLAN_CACHE_BYTES``, whose size is kept as a running total."""
    global _plans_nbytes
    key = (nvars, deg, prev_deg, lm_code)
    plan = _PLANS.pop(key, None)
    if plan is None:
        plan = _build_step_plan(*key)
        _plans_nbytes += _nbytes(plan)
    _PLANS[key] = plan
    while _plans_nbytes > _PLAN_CACHE_BYTES:
        _plans_nbytes -= _nbytes(_PLANS.pop(next(iter(_PLANS))))
    return plan


def _nbytes(plan: tuple[np.ndarray, np.ndarray]) -> int:
    return sum(a.nbytes for a in plan)


def _build_step_plan(nvars: int, deg: int, prev_deg: int,
                     lm_code: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of one Bareiss step, restricted to the quotient's columns.

    The quotient by the previous pivot (leading monomial code ``lm_code``,
    degree ``prev_deg``) has degree q = 2*deg - prev_deg, and its
    coefficient at m_j is solved from the coefficients at m_j + LM alone.
    Returns ``pairs`` (T(q), T(deg)): pairs[j, b] is the position a in
    monomials(nvars, deg) with m_a + m_b = m_j + LM; and ``divisor``
    (T(q), T(q)): divisor[b, a] is the position of m_a + LM - m_b in
    monomials(nvars, prev_deg).  Either is -1 where there is no such
    monomial, which reads the zero that ``_padded`` appends.
    """
    codes = monomials(nvars, deg)[1]
    codes_q = monomials(nvars, 2 * deg - prev_deg)[1]
    codes_prev = monomials(nvars, prev_deg)[1]
    pairs = _sum_positions(codes, codes_q + lm_code, -codes)
    divisor = _sum_positions(codes_prev, -codes_q, codes_q + lm_code)
    pairs.flags.writeable = divisor.flags.writeable = False  # shared by the cache
    return pairs, divisor


def _padded(vecs: np.ndarray) -> np.ndarray:
    """vecs with a zero appended along the last axis, the target of index -1."""
    out = np.zeros(vecs.shape[:-1] + (vecs.shape[-1] + 1,), dtype=vecs.dtype)
    out[..., :-1] = vecs
    return out


def _bareiss_step(m: np.ndarray, prev: np.ndarray | None, nvars: int,
                  deg: int, prev_deg: int, p: int) -> np.ndarray:
    """One fraction-free step with the pivot at m[0, 0].

    Returns the coefficients of (piv * m[i, j] - m[i, 0] * m[0, j]) / prev
    for i, j >= 1; at the first step prev is None and nothing is divided.
    Only the numerator's coefficients that the division reads are formed,
    in blocks of quotient columns sized by ``_CHUNK_BYTES``: per block, one
    GEMM of the pivot's convolution, restricted to the block's columns,
    with all of m[1:, 1:], and one batched GEMM of m[0, 1:] with the pivot
    column's entries gathered onto the block (a gathered index copies a
    whole row of the transposed pivot column).  The numerator is held with
    its quotient columns first, which is the layout the division solves in.
    m holds degree-deg entries as floats below p; the result, a
    (rows, cols, T) view, holds degree 2*deg - prev_deg entries the same way.
    """
    lm_code = lead = 0
    if prev is not None:
        lead = int(np.flatnonzero(prev)[0])
        lm_code = int(monomials(nvars, prev_deg)[1][lead])
    pairs, divisor = _step_plan(nvars, deg, prev_deg, lm_code)
    tq, t = pairs.shape
    # a numerator coefficient is a difference of two sums of t products
    ftype = gfp.exact_float(t, p)
    m = m.astype(ftype, copy=False)
    nrow, ncol = m.shape[0] - 1, m.shape[1] - 1
    piv = _padded(m[0, 0])
    colt = np.zeros((t + 1, nrow), dtype=ftype)  # m[1:, 0] transposed, padded
    colt[:t] = m[1:, 0].T
    top = np.ascontiguousarray(m[0, 1:])
    rest = m[1:, 1:].transpose(2, 0, 1).reshape(t, -1)
    out = np.empty((tq, nrow, ncol), dtype=ftype)
    cols_per = max(1, _CHUNK_BYTES // (t * nrow * m.itemsize))
    for j0 in range(0, tq, cols_per):
        idx = pairs[j0:j0 + cols_per]
        num = out[j0:j0 + cols_per]
        np.matmul(np.take(piv, idx), rest, out=num.reshape(len(idx), -1))
        # conv[j, b, i] = m[i, 0] at the partner of m_b for quotient column j
        conv = np.take(colt, idx, axis=0)
        num -= np.matmul(top, conv).transpose(0, 2, 1)
    gfp.float_mod(out, p)
    if prev is not None:
        # quotients Q S = num: c^-1 S^T is unit lower triangular for c = prev[LM]
        cinv = int(gfp.inverse_table(p)[int(prev[lead])])
        qtype = gfp.exact_float(tq, p)
        out = out.reshape(tq, -1).astype(qtype, copy=False)
        out *= cinv
        gfp.solve_unit_lower(_divisor_lower(prev, divisor, cinv, qtype), out, p)
    return out.reshape(tq, nrow, ncol).transpose(1, 2, 0)


def _divisor_lower(prev: np.ndarray, divisor: np.ndarray, cinv: int,
                   qtype: type) -> np.ndarray:
    """c^-1 S^T in ``qtype``, for S[b, a] = prev[divisor[b, a]]: gathered
    through divisor.T a block of rows at a time, so its index temporary
    stays within ``_CHUNK_BYTES``, and scaled in place."""
    tq = len(divisor)
    source = _padded(np.asarray(prev, dtype=qtype))
    lower = np.empty((tq, tq), dtype=qtype)
    rows_per = max(1, _CHUNK_BYTES // (tq * np.dtype(np.intp).itemsize))
    for r0 in range(0, tq, rows_per):
        # mode="wrap" reads index -1 as the pad, and writes straight into lower
        np.take(source, divisor.T[r0:r0 + rows_per], out=lower[r0:r0 + rows_per],
                mode="wrap")
    lower *= cinv
    return lower


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
        piv = m[0, 0].copy()
        m = _bareiss_step(m, prev, nvars, cur_deg, prev_deg, p)
        prev, prev_deg, cur_deg = piv, cur_deg, 2 * cur_deg - prev_deg
    return rk


def _next_power(cur: np.ndarray, lin: np.ndarray, nvars: int, deg: int,
                p: int) -> np.ndarray:
    """Coefficients of N^(deg+1) from those of N^deg and of N.

    cur[a] (T(deg), d, d) is the coefficient in N^deg of the a-th monomial
    of degree deg in ascending order (``exponents`` reversed), and lin
    (nvars, d, d) holds the A_i.  The coefficient of m_a * t_v sums
    cur[a] @ lin[v], added at its target (``_pair_targets``); at most nvars
    products, so ``gfp.exact_float(nvars * d, p)`` holds the sums exactly.
    """
    d = cur.shape[1]
    t_next = len(exponents(nvars, deg + 1))
    targets = t_next - 1 - _pair_targets(nvars, deg, 1)[::-1, ::-1]  # ascending order
    ftype = gfp.exact_float(nvars * d, p)
    out = np.zeros((t_next, d, d), dtype=ftype)
    for (a, v), j in np.ndenumerate(targets):
        out[j] += cur[a].astype(ftype, copy=False) @ lin[v].astype(ftype, copy=False)
    return gfp.float_mod(out, p)


def power_coefficients(gens: np.ndarray, p: int, count: int) -> list[np.ndarray]:
    """Coefficients over GF(p) of N, .., N^count for N = sum_i t_i A_i, from
    the (n, d, d) stack ``gens`` of the A_i in exact floats.  Entry s - 1
    is (T(s), d, d) in exact floats, one matrix per monomial of degree s in
    ascending order (``exponents`` reversed), so entry 0 is ``gens``
    itself, not a copy.  Any number of variables."""
    out = [gens]
    for s in range(1, count):
        out.append(_next_power(out[-1], gens, len(gens), s, p))
    return out


def generic_power_ranks(gens: list[np.ndarray], p: int, powers: int) -> list[int]:
    """Exact ranks of (sum_i t_i A_i)^s for s = 1..powers.

    Raises TooLarge beyond the exact-mode gate (dimension 32, 7 variables).
    """
    d = gens[0].shape[0]
    nvars = len(gens)
    if d > MAX_EXACT_DIM:
        raise TooLarge(f"dimension {d} exceeds exact-mode cap {MAX_EXACT_DIM}")
    if nvars > MAX_VARS:
        raise TooLarge(f"{nvars} variables exceed exact-mode cap {MAX_VARS}")
    stack = (np.array(gens, dtype=np.int64) % p).astype(gfp.exact_float(nvars, p))
    # generic_rank reads the monomials in descending code order
    return [generic_rank(np.moveaxis(coeffs[::-1], 0, 2), nvars, s, p)
            for s, coeffs in enumerate(power_coefficients(stack, p, powers), start=1)]
