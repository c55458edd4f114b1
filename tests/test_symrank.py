import numpy as np
import pytest

from spechtvar import gfp
from spechtvar.errors import TooLarge
from spechtvar.ffalg import FieldCtx
from spechtvar.jordan import _point_operator
from spechtvar.symrank import (generic_power_ranks, monomials, sym_matmul,
                               tri_inv_mod, _divide_rows, _mul_many)


def test_monomials_count_and_order():
    exps, codes = monomials(3, 4)
    assert len(exps) == 15  # C(6, 2)
    assert (exps.sum(axis=1) == 4).all()
    assert (np.diff(codes) < 0).all()  # strictly descending codes
    assert len({tuple(e) for e in exps}) == 15


def test_tri_inv_mod_small_and_blocked():
    rng = np.random.default_rng(0)
    for n in (5, 70, 150):
        for p in (2, 3, 5):
            s = np.triu(rng.integers(0, p, (n, n)))
            s[np.arange(n), np.arange(n)] = rng.integers(1, p, n)
            inv = tri_inv_mod(s, p)
            assert np.array_equal((s @ inv) % p, np.eye(n, dtype=np.int64))


def test_divide_rows_recovers_planted_quotient():
    rng = np.random.default_rng(4)
    p, nvars = 3, 3
    dq, dprev = 3, 2
    tq = len(monomials(nvars, dq)[1])
    tprev = len(monomials(nvars, dprev)[1])
    prev = rng.integers(0, p, tprev)
    prev[rng.integers(0, tprev)] = 1  # ensure nonzero
    quot = rng.integers(0, p, (6, tq))
    num = _mul_many(quot, prev, nvars, dq, dprev, p)
    got = _divide_rows(num, prev, nvars, dq + dprev, dprev, p)
    assert np.array_equal(got, quot % p)


def eval_rank_oracle(gens, p, power, trials=6, seed=0):
    """Max rank of (sum a_i A_i)^power over random GF(p^6) points.

    The point operator is the GF(p) companion blowup of N; its rank is
    6 times the rank over GF(p^6).
    """
    ctx = FieldCtx.get(p, 6)
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(trials):
        n, k = _point_operator(gens, ctx.random_point(rng, len(gens)), p)
        acc = n
        for _ in range(power - 1):
            acc = gfp.mod_matmul(acc, n, p)
        r, rem = divmod(gfp.rank(acc, p), k)
        assert rem == 0
        best = max(best, r)
    return best


def test_generic_rank_hand_cases():
    # N = diag(t1, t2): every power has full generic rank
    a1 = np.diag([1, 0])
    a2 = np.diag([0, 1])
    assert generic_power_ranks([a1, a2], 3, 2) == [2, 2]
    # strictly upper triangular generators: N^2 = 0
    e12 = np.zeros((3, 3), dtype=np.int64)
    e12[0, 1] = 1
    e13 = np.zeros((3, 3), dtype=np.int64)
    e13[0, 2] = 1
    assert generic_power_ranks([e12, e13], 2, 1) == [1]
    assert generic_power_ranks([e12, e13], 3, 2) == [1, 0]
    # single nilpotent Jordan block of size 3 at p = 3
    j3 = np.zeros((3, 3), dtype=np.int64)
    j3[0, 1] = j3[1, 2] = 1
    assert generic_power_ranks([j3], 3, 2) == [2, 1]


@pytest.mark.parametrize("p,d,nvars,seed", [
    (2, 6, 3, 1), (3, 6, 2, 2), (3, 5, 3, 3), (5, 4, 2, 4), (2, 7, 4, 5),
])
def test_generic_ranks_match_random_evaluation(p, d, nvars, seed):
    rng = np.random.default_rng(seed)
    gens = [rng.integers(0, p, (d, d)) for _ in range(nvars)]
    got = generic_power_ranks(gens, p, p - 1)
    for s in range(1, p):
        oracle = eval_rank_oracle(gens, p, s, seed=seed + 10)
        assert got[s - 1] == oracle, (s, got, oracle)


def test_generic_ranks_respect_caps():
    big = [np.eye(40, dtype=np.int64)]
    with pytest.raises(TooLarge):
        generic_power_ranks(big, 3, 2)
    many = [np.eye(4, dtype=np.int64)] * 8
    with pytest.raises(TooLarge):
        generic_power_ranks(many, 2, 1)


def test_sym_matmul_against_evaluation():
    rng = np.random.default_rng(8)
    p, nvars, d = 3, 2, 4
    gens = [rng.integers(0, p, (d, d)) for _ in range(nvars)]
    lin = np.zeros((d, d, nvars), dtype=np.int64)
    exps = monomials(nvars, 1)[0]
    for col, e in enumerate(exps):
        lin[:, :, col] = gens[int(np.flatnonzero(e)[0])]
    sq = sym_matmul(lin, lin, nvars, 1, 1, p)
    exps2 = monomials(nvars, 2)[0]
    for t1 in range(p):
        for t2 in range(p):
            point = np.array([t1, t2])
            n_at = (gens[0] * t1 + gens[1] * t2) % p
            direct = (n_at @ n_at) % p
            weights = np.array([np.prod(point**e) for e in exps2]) % p
            via_sym = (sq @ weights) % p
            assert np.array_equal(via_sym, direct)
