import numpy as np
import pytest

from spechtvar import gfp
from spechtvar.errors import NoSolution, RankDeficient


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


@pytest.mark.parametrize("p", [2, 3, 5])
def test_nullspace(p):
    rng = np.random.default_rng(17 + p)
    a = rng.integers(0, p, (20, 35))
    basis = gfp.nullspace(a, p)
    assert basis.shape[1] == 35 - gfp.rank(a, p)
    assert not gfp.mod_matmul(a, basis, p).any()
    assert gfp.rank(basis, p) == basis.shape[1]
