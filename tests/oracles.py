"""Oracles shared by the tests: slower paths that the package replaced.

``slice_matmul`` is the product over GF(p^k) on coefficient slices that
formed each power of N at a point, one product per power, before N^s was
evaluated from the GF(p) coefficient stacks of ``symrank.power_coefficients``.
``point_operator`` builds N at a point by one scaled add of A_i per nonzero
coefficient, and ``point_powers`` chains the two.
"""

import numpy as np

from spechtvar import gfp
from spechtvar.jordan import _coerce_point


def slice_matmul(x, y, ctx):
    """Slices of X Y over GF(p^k) from the slices of X and Y.

    One float GEMM of the stacked slices, (k*m x inner) times
    (inner x k*n); its k^2 blocks X_a Y_b are summed along antidiagonals,
    still in float, into the coefficients of t^0 .. t^(2k-2), which one
    ``tensordot`` with ``FieldCtx.reduction`` folds into t^0 .. t^(k-1).
    Only that result is reduced mod p, so the float type follows the
    largest unreduced sum, (2k-1)(p-1) k inner (p-1)^2.  Over GF(p) the
    product is one ``gfp.mod_matmul``.
    """
    k, m, inner = x.shape
    n = y.shape[2]
    p = ctx.p
    if k == 1:
        return gfp.mod_matmul(x[0], y[0], p)[None]
    ftype = gfp.exact_float((2 * k - 1) * (p - 1) * k * inner, p)
    stacked = np.ascontiguousarray(y.transpose(1, 0, 2), dtype=ftype)
    blocks = x.reshape(k * m, inner).astype(ftype) @ stacked.reshape(inner, k * n)
    blocks = blocks.reshape(k, m, k, n).transpose(0, 2, 1, 3)  # [a, b] = X_a Y_b
    wide = np.zeros((2 * k - 1, m, n), dtype=ftype)
    for a in range(k):
        wide[a:a + k] += blocks[a]
    out = np.tensordot(ctx.reduction.astype(ftype), wide.reshape(2 * k - 1, m * n), axes=1)
    return gfp.float_mod(out, p).astype(np.int64).reshape(k, m, n)


def point_operator(mats, alpha, p):
    """N = sum alpha_i A_i at a point as (k, d, d) int64 slices, plus its field."""
    coeffs, ctx = _coerce_point(alpha, len(mats), p)
    d = mats[0].shape[0]
    out = np.zeros((ctx.k, d, d), dtype=np.int64)
    for row, m in zip(coeffs, mats):
        for c in np.flatnonzero(row):
            out[c] += row[c] * m.astype(np.int64)
    return out % p, ctx


def point_powers(mats, alpha, p, count=None):
    """Slices of N, N^2, .., N^count at a point (count defaults to p - 1), each
    power one ``slice_matmul`` by N, plus the field."""
    op, ctx = point_operator(mats, alpha, p)
    powers = [op]
    for _ in range((p - 1 if count is None else count) - 1):
        powers.append(slice_matmul(powers[-1], op, ctx))
    return powers, ctx
