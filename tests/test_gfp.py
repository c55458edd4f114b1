import tracemalloc

import numpy as np
import pytest

from spechtvar import gfp
from spechtvar.errors import NoSolution, PreconditionViolated, RankDeficient


def naive_rank(a, p):
    """Single-step textbook elimination, kept dumb on purpose."""
    a = np.array(a, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for j in range(n):
        if r == m:
            break
        rows = [i for i in range(r, m) if a[i, j] % p]
        if not rows:
            continue
        a[[r, rows[0]]] = a[[rows[0], r]]
        inv = pow(int(a[r, j]), p - 2, p)
        for i in range(r + 1, m):
            if a[i, j]:
                a[i] = (a[i] - a[i, j] * inv * a[r]) % p
        r += 1
    return r


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_matches_naive_on_random(p):
    rng = np.random.default_rng(7 * p)
    for _ in range(40):
        m = int(rng.integers(1, 90))
        n = int(rng.integers(1, 90))
        a = rng.integers(0, p, (m, n))
        assert gfp.rank(a, p) == naive_rank(a, p)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_of_products_and_transpose(p):
    rng = np.random.default_rng(p)
    for _ in range(20):
        a = rng.integers(0, p, (40, 25))
        b = rng.integers(0, p, (25, 33))
        ab = gfp.mod_matmul(a, b, p)
        assert np.array_equal(ab, (a @ b) % p)
        assert gfp.rank(ab, p) <= min(gfp.rank(a, p), gfp.rank(b, p))
        assert gfp.rank(a, p) == gfp.rank(a.T, p)


def test_rank_spans_blocked_panel_boundaries():
    # shapes straddling the 64-wide panel, with engineered deficiency
    rng = np.random.default_rng(3)
    base = rng.integers(0, 3, (150, 70))
    a = np.concatenate([base, (2 * base) % 3, rng.integers(0, 3, (150, 40))], axis=1)
    assert gfp.rank(a, 3) == naive_rank(a, 3)


def test_rref_is_reduced():
    rng = np.random.default_rng(5)
    a = rng.integers(0, 5, (30, 45))
    before = a.copy()
    red, pivots = gfp.rref(a, 5)
    assert np.array_equal(a, before)  # reduced in a copy
    for i, c in enumerate(pivots):
        col = np.zeros(30, dtype=np.int64)
        col[i] = 1
        assert np.array_equal(red[:, c], col)
    assert gfp.rank(red, 5) == len(pivots) == gfp.rank(a, 5)


def _solve_leaving_inputs(b, c, p):
    """gfp.solve, checking afterwards that b and c are unchanged."""
    b_before, c_before = b.copy(), c.copy()
    try:
        return gfp.solve(b, c, p)
    finally:
        assert np.array_equal(b, b_before) and np.array_equal(c, c_before)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solve_roundtrip(p):
    rng = np.random.default_rng(13 + p)
    for _ in range(10):
        m, d, w = 40, 12, 5
        b = rng.integers(0, p, (m, d))
        while gfp.rank(b, p) < d:
            b = rng.integers(0, p, (m, d))
        x = rng.integers(0, p, (d, w))
        c = gfp.mod_matmul(b, x, p)
        got = _solve_leaving_inputs(b, c, p)
        assert np.array_equal(got, x)
        # entries outside 0..p-1 are reduced, in the solver's own array
        got = _solve_leaving_inputs(b + p * rng.integers(-2, 3, b.shape), c + p, p)
        assert np.array_equal(got, x)


def test_solve_detects_inconsistency():
    b = np.array([[1, 0], [0, 1], [1, 1]])
    c = np.array([[0], [0], [1]])
    with pytest.raises(NoSolution):
        _solve_leaving_inputs(b, c, 3)


def test_solve_detects_rank_deficiency():
    b = np.array([[1, 2], [2, 4], [0, 0]])
    c = np.array([[1], [2], [0]])
    with pytest.raises(RankDeficient):
        _solve_leaving_inputs(b, c, 3)


def _solve_unit_lower(l, c, p):
    """gfp.solve_unit_lower on a float copy of c, checking that l is unchanged."""
    l_before = l.copy()
    y = np.array(c, dtype=gfp.exact_float(len(l), p))
    try:
        assert gfp.solve_unit_lower(l, y, p) is y  # solved in place
        return y
    finally:
        assert np.array_equal(l, l_before)


def oracle_solve_unit_lower(l, y, p):
    """Forward substitution in blocks of 64 rows, each block solved row by
    row: the solver that ``gfp.solve_unit_lower`` replaced, kept as its
    oracle.  Same contract, without the precondition checks."""
    d = len(l)
    lf = gfp.float_mod(np.array(l, dtype=gfp.exact_float(d, p)), p)
    for lo in range(0, d, 64):
        block = gfp.float_mod(y[lo: lo + 64], p)
        if lo:
            block -= lf[lo: lo + 64, :lo] @ y[:lo]
            gfp.float_mod(block, p)
        for r in range(lo + 1, lo + len(block)):
            y[r] -= lf[r, lo:r] @ y[lo:r]
            gfp.float_mod(y[r], p)
    return y


@pytest.mark.parametrize("p", [2, 3, 5, 257])
@pytest.mark.parametrize("d", [1, 63, 64, 65, 129, 300])
def test_solve_unit_lower_matches_solve(p, d):
    # heights one short of, at and one past the 64-row block boundaries;
    # bit for bit against the row-by-row oracle, and against gfp.solve;
    # p = 257 at d = 300 runs in float64
    rng = np.random.default_rng(100 * p + d)
    l = np.tril(rng.integers(0, p, (d, d)), -1) + np.eye(d, dtype=np.int64)
    for width in (1, 3 * d):
        c = rng.integers(0, p, (d, width))
        want = gfp.solve(l, c, p)
        got = _solve_unit_lower(l, c, p)
        oracle = oracle_solve_unit_lower(l, np.array(c, dtype=got.dtype), p)
        assert got.tobytes() == oracle.tobytes()
        assert np.array_equal(got, want)
        # entries outside 0..p-1, in L and in C, name the same system
        far_l = l + p * np.tril(rng.integers(-2, 3, (d, d)))
        far_c = c + p * rng.integers(-2, 3, c.shape)
        assert np.array_equal(_solve_unit_lower(far_l, far_c, p), want)
        # an L already of the solve's float type is consumed: reduced mod p
        # in place, not copied, with the oracle's result bit for bit
        for lower, rhs in ((l, c), (far_l, far_c)):
            lf = lower.astype(got.dtype)
            y = np.array(rhs, dtype=got.dtype)
            assert gfp.solve_unit_lower(lf, y, p).tobytes() == oracle.tobytes()
            assert np.array_equal(lf, lower % p)


def test_solve_unit_lower_rejects_other_matrices():
    rng = np.random.default_rng(11)
    d = 70
    l = np.tril(rng.integers(0, 3, (d, d)), -1) + np.eye(d, dtype=np.int64)
    c = rng.integers(0, 3, (d, 4))
    ok = l.copy()
    ok[3, 3], ok[0, 69] = 4, 3  # still unit lower triangular mod 3
    assert np.array_equal(_solve_unit_lower(ok, c, 3), gfp.solve(l, c, 3))
    for i, j, value in [(0, 0, 0), (5, 5, 2), (66, 66, 0),  # diagonal not 1
                        (0, 1, 1), (10, 64, 2), (68, 69, 1)]:  # above it
        bad = l.copy()
        bad[i, j] = value
        y = c.astype(gfp.exact_float(d, 3))
        with pytest.raises(PreconditionViolated):
            gfp.solve_unit_lower(bad, y, 3)
        assert np.array_equal(y, c)  # rejected before any write
    for y in (c.astype(np.int64), c.astype(np.float64), c[:-1].astype(np.float32)):
        with pytest.raises(PreconditionViolated):
            gfp.solve_unit_lower(l, y, 3)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_float_mod_is_exact(p):
    # every integer of either sign near the float32 limit, and near zero
    ends = np.r_[np.arange(-2**24 + 1, -2**24 + 5000), np.arange(-5000, 5000),
                 np.arange(2**24 - 5000, 2**24)]
    for ftype in (np.float32, np.float64):
        got = gfp.float_mod(ends.astype(ftype), p)
        assert got.dtype == ftype and np.array_equal(got, ends % p)
    big = np.arange(2**53 - 5000, 2**53, dtype=np.int64)
    assert np.array_equal(gfp.float_mod(big.astype(np.float64), p), big % p)


@pytest.mark.parametrize("ftype", [np.float32, np.float64])
@pytest.mark.parametrize("ndim", [1, 3])
def test_float_mod_in_tiles(ftype, ndim):
    # around the tile boundaries, in place, and only on contiguous arrays
    tile = gfp.TILE_BYTES // np.dtype(ftype).itemsize
    rng = np.random.default_rng(tile + ndim)
    for size in (0, 1, tile - 1, tile, tile + 1, 3 * tile + 7):
        ints = rng.integers(-2**23, 2**23, size=size)
        shape = (size,) if ndim == 1 else (1, size, 1)
        y = ints.astype(ftype).reshape(shape)
        for p in (2, 3, 5):
            z = y.copy()
            assert gfp.float_mod(z, p) is z
            assert z.dtype == ftype and np.array_equal(z, (ints % p).reshape(shape))
        if size > 1:
            view = y[::2] if ndim == 1 else y[:, ::2]
            with pytest.raises(PreconditionViolated):
                gfp.float_mod(view, 3)
            assert np.array_equal(view, ints[::2].reshape(view.shape))  # left as it was
    z = np.asfortranarray(rng.integers(-99, 99, size=(5, tile // 3, 4)).astype(ftype))
    want = z.astype(np.int64) % 7
    assert gfp.float_mod(z, 7) is z and np.array_equal(z, want)


def test_float_mod_allocates_under_two_tiles():
    y = np.arange(2**23, dtype=np.float32)  # 32 MiB
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gfp.float_mod(y, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 2 * gfp.TILE_BYTES
    assert np.array_equal(y[-5:], np.arange(2**23 - 5, 2**23) % 5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace(p):
    rng = np.random.default_rng(17 + p)
    a = rng.integers(0, p, (20, 35))
    basis = gfp.nullspace(a, p)
    assert basis.shape[1] == 35 - gfp.rank(a, p)
    assert not gfp.mod_matmul(a, basis, p).any()
    assert gfp.rank(basis, p) == basis.shape[1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace_of_a_wide_matrix(p):
    # 40 x 150 of rank at most 25: a wide nullspace, most columns free
    rng = np.random.default_rng(29 + p)
    a = gfp.mod_matmul(rng.integers(0, p, (40, 25)), rng.integers(0, p, (25, 150)), p)
    basis = gfp.nullspace(a, p)
    assert basis.shape == (150, 150 - naive_rank(a, p))
    assert not gfp.mod_matmul(a, basis, p).any()
    assert gfp.rank(basis, p) == basis.shape[1]
