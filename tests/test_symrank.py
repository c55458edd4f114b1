"""Exact mode (``symrank``) against the per-row Bareiss elimination it
replaced and against ranks at random points.

``oracle_generic_rank`` is the previous elimination, kept as the oracle:
each step forms the whole numerator piv*M - col (x) top with one fresh
convolution matrix per row (``_mul_many``), then divides it by the
previous pivot by a general GF(p) solve (``_divide_rows``).  The restricted
step reads only the numerator's coefficients that the division reads, and
divides by forward substitution, so its quotients must be bit-identical.
The powers of N are checked against ``sym_matmul``, the segment-sum
polynomial product that built them before.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import point_powers
from spechtvar import gfp, gfq, symrank
from spechtvar.errors import PreconditionViolated, TooLarge
from spechtvar.ffalg import FieldCtx
from spechtvar.spechtmod import restricted_actions
from spechtvar.symrank import (_bareiss_step, _lookup, _next_power, _pair_targets,
                               exponents, generic_power_ranks, monomials)


def _mul_many(vecs, poly, nvars, d1, d2, p):
    """Multiply each degree-d1 row of vecs by a fixed degree-d2 poly."""
    pairs = _pair_targets(nvars, d1, d2)
    t1 = vecs.shape[1]
    t12 = len(monomials(nvars, d1 + d2)[1])
    conv = np.zeros((t1, t12), dtype=np.int64)
    conv[np.arange(t1)[:, None], pairs] = poly[None, :]
    return gfp.mod_matmul(vecs, conv, p)


def _divide_rows(num, prev, nvars, dnum, dprev, p):
    """Exact division of homogeneous rows of num by prev; returns quotients."""
    dq = dnum - dprev
    codes_q = monomials(nvars, dq)[1]
    codes_num = monomials(nvars, dnum)[1]
    codes_prev = monomials(nvars, dprev)[1]
    lm_code = int(codes_prev[int(np.flatnonzero(prev)[0])])
    cols = _lookup(codes_num, codes_q + lm_code)
    assert (cols >= 0).all()
    num_sub = num[:, cols]
    tgt = codes_q[None, :] + lm_code - codes_q[:, None]
    idx = _lookup(codes_prev, tgt.ravel()).reshape(len(codes_q), len(codes_q))
    s = np.where(idx >= 0, prev[np.maximum(idx, 0)], 0)
    # Q S = num_sub with S upper triangular and invertible: S^T Q^T = num_sub^T
    return gfp.solve(s.T, num_sub.T, p).T


def sym_matmul(a, b, nvars, da, db, p):
    """Product of matrices with homogeneous entries of degrees da and db:
    every (c1, c2) coefficient product, summed per target monomial by
    ``np.add.reduceat`` over a sorted segment plan."""
    m, n = a.shape[0], b.shape[1]
    prod = np.einsum("ilc,ljd->ijcd", a, b).reshape(m * n, -1)
    pm = _pair_targets(nvars, da, db).ravel()
    order = np.argsort(pm, kind="stable")
    sorted_pm = pm[order]
    starts = np.flatnonzero(np.diff(sorted_pm, prepend=-1))
    out = np.zeros((m * n, len(monomials(nvars, da + db)[1])), dtype=np.int64)
    out[:, sorted_pm[starts]] = np.add.reduceat(prod[:, order], starts, axis=1)
    return (out % p).reshape(m, n, -1)


def oracle_step(m, prev, nvars, deg, prev_deg, p):
    """One Bareiss step with the pivot at m[0, 0], the numerator built whole."""
    piv, top, col = m[0, 0], m[0, 1:], m[1:, 0]
    nrow, ncol = m.shape[0] - 1, m.shape[1] - 1
    # num = piv * m[1:, 1:] - m[1:, 0] m[0, 1:], reduced in place row by row
    num = _mul_many(m[1:, 1:].reshape(nrow * ncol, -1), piv,
                    nvars, deg, deg, p).reshape(nrow, ncol, -1)
    for i in range(nrow):
        num[i] -= _mul_many(top, col[i], nvars, deg, deg, p)
        num[i] %= p
    if prev is None:
        return num
    return _divide_rows(num.reshape(nrow * ncol, -1), prev,
                        nvars, 2 * deg, prev_deg, p).reshape(nrow, ncol, -1)


def oracle_generic_rank(mat, nvars, deg, p):
    """Rank over GF(p)(t_1..t_n), eliminating with ``oracle_step``."""
    m = np.array(mat, dtype=np.int64) % p
    cur_deg, prev_deg = deg, 0
    prev = None
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
        m = oracle_step(m, prev, nvars, cur_deg, prev_deg, p)
        prev, prev_deg, cur_deg = piv, cur_deg, 2 * cur_deg - prev_deg
    return rk


def _linear_slices(gens, p):
    """(nvars, d, d): the coefficient of each degree-1 monomial in N."""
    exps = monomials(len(gens), 1)[0]
    return np.array([gens[int(np.flatnonzero(e)[0])] for e in exps], dtype=np.int64) % p


def oracle_power_ranks(gens, p, powers):
    """``generic_power_ranks`` with ``oracle_generic_rank``."""
    nvars = len(gens)
    lin = np.moveaxis(_linear_slices(gens, p), 0, 2)
    ranks = []
    cur = lin
    for s in range(1, powers + 1):
        if s > 1:
            cur = sym_matmul(cur, lin, nvars, s - 1, 1, p)
        ranks.append(oracle_generic_rank(cur, nvars, s, p))
    return ranks


def test_monomials_count_and_order():
    exps, codes = monomials(3, 4)
    assert len(exps) == 15  # C(6, 2)
    assert (exps.sum(axis=1) == 4).all()
    assert (np.diff(codes) < 0).all()  # strictly descending codes
    assert len({tuple(e) for e in exps}) == 15


def test_exponents_have_no_cap_and_codes_have_one():
    # code order is the order of the exponent rows, which go on past the
    # 7 variables that int64 codes in radix 512 can hold
    for nvars, deg in ((1, 3), (3, 4), (7, 3)):
        assert monomials(nvars, deg)[0] is exponents(nvars, deg)
    wide = exponents(10, 3)
    assert len(wide) == math.comb(12, 3) and (wide.sum(axis=1) == 3).all()
    assert [tuple(e[::-1]) for e in wide] == sorted((tuple(e[::-1]) for e in wide),
                                                    reverse=True)
    with pytest.raises(PreconditionViolated):
        monomials(8, 1)
    with pytest.raises(PreconditionViolated):
        monomials(2, 512)


@pytest.mark.parametrize("nvars,d1,d2", [(2, 3, 1), (4, 2, 2), (7, 1, 3), (10, 2, 1),
                                         (20, 1, 1)])
def test_pair_targets_match_exponent_sums(nvars, d1, d2):
    rows = {tuple(e): j for j, e in enumerate(exponents(nvars, d1 + d2))}
    want = [[rows[tuple(a + b)] for b in exponents(nvars, d2)] for a in exponents(nvars, d1)]
    assert _pair_targets(nvars, d1, d2).tolist() == want


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


def test_step_divides_out_a_planted_pivot():
    # with a zero pivot row the numerator is piv * M; for piv = prev * u
    # the step's quotients are u * M
    rng = np.random.default_rng(6)
    p, nvars, s, prev_deg = 5, 3, 2, 4
    deg = prev_deg + s
    prev = rng.integers(0, p, len(monomials(nvars, prev_deg)[1]))
    prev[rng.integers(0, len(prev))] = 1
    u = rng.integers(1, p, len(monomials(nvars, s)[1]))
    body = rng.integers(0, p, (4, 5, len(monomials(nvars, deg)[1])))
    m = np.zeros((5, 6, body.shape[2]), dtype=np.int64)
    m[1:, 1:] = body
    m[1:, 0] = rng.integers(0, p, (4, body.shape[2]))
    m[0, 0] = _mul_many(prev[None], u, nvars, prev_deg, s, p)[0]
    got = _bareiss_step(m, prev, nvars, deg, prev_deg, p)
    want = _mul_many(body.reshape(20, -1), u, nvars, deg, s, p).reshape(4, 5, -1)
    assert got.dtype.kind == "f"
    assert np.array_equal(got, want)


@pytest.mark.parametrize("p,nvars,deg,prev_deg,shape", [
    (2, 4, 1, 0, (6, 5)), (3, 3, 2, 0, (4, 7)), (2, 4, 6, 5, (7, 7)),
    (3, 3, 6, 4, (5, 3)), (5, 2, 12, 8, (6, 6)), (2, 1, 9, 8, (3, 4)),
    (3, 2, 30, 28, (40, 3)),
])
def test_step_is_bit_identical_to_the_whole_numerator(p, nvars, deg, prev_deg, shape):
    # random entries need not be divisible: the division reads the same
    # numerator coefficients either way, so the quotients must agree
    rng = np.random.default_rng(p * 100 + deg)
    m = rng.integers(0, p, shape + (len(monomials(nvars, deg)[1]),))
    prev = None
    if prev_deg:
        prev = rng.integers(0, p, len(monomials(nvars, prev_deg)[1]))
        prev[: rng.integers(0, len(prev))] = 0
        prev[-1] = 1
    got = _bareiss_step(m.copy(), prev, nvars, deg, prev_deg, p)
    assert np.array_equal(got, oracle_step(m, prev, nvars, deg, prev_deg, p))


def eval_rank_oracle(gens, p, power, trials=6, seed=0):
    """Max rank of (sum a_i A_i)^power over random GF(p^6) points.

    The power is a chain of slice products of N, as 6 coefficient slices;
    the GF(q) kernel's rank is checked against the GF(p) companion blowup,
    whose rank is 6 times the rank over GF(p^6).
    """
    ctx = FieldCtx.get(p, 6)
    rng = np.random.default_rng(seed)
    best = 0
    for _ in range(trials):
        powers, n_ctx = point_powers(gens, ctx.random_point(rng, len(gens)), p, power)
        acc = powers[-1]
        big = sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(acc)) % p
        r, rem = divmod(gfp.rank(big, p), n_ctx.k)
        assert rem == 0
        assert gfq.rank(acc, n_ctx) == r
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


_ORACLE_TERMS = 1500  # monomials of the oracle's widest numerator


@st.composite
def low_rank_pencils(draw):
    """(gens, p, powers): d x d generators of rank <= r over GF(p), with r
    capped so that the last Bareiss degree, powers * rank N <= powers * n * r,
    keeps the oracle's numerators within _ORACLE_TERMS monomials."""
    p = draw(st.sampled_from([2, 3, 5]))
    nvars = draw(st.integers(1, 4))
    d = draw(st.integers(1, 14))
    powers = draw(st.integers(1, p - 1))
    fits = [r for r in range(4)
            if len(monomials(nvars, 2 * powers * min(d, nvars * r))[1]) <= _ORACLE_TERMS]
    r = draw(st.sampled_from(fits))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gens = [(rng.integers(0, p, (d, r)) @ rng.integers(0, p, (r, d))) % p
            for _ in range(nvars)]
    return gens, p, powers


@settings(max_examples=200, deadline=None, derandomize=True)
@given(low_rank_pencils())
def test_generic_ranks_match_the_oracle_and_bound_point_ranks(case):
    gens, p, powers = case
    got = generic_power_ranks(gens, p, powers)
    assert got == oracle_power_ranks(gens, p, powers)
    for s in range(1, powers + 1):
        assert got[s - 1] >= eval_rank_oracle(gens, p, s, trials=2)


@pytest.mark.parametrize("width", [1, 7, 220])
def test_column_blocks_do_not_change_the_step(monkeypatch, width):
    # the chunk budget sets how many quotient columns share one gathered
    # convolution of w x T x rows float32: one column per block, blocks of
    # 7 with a short last one (220 = 31 * 7 + 3), and all 220 in one block;
    # the same budget sets the row blocks of the divisor's gather
    p, nvars, deg, prev_deg = 2, 4, 8, 7
    t, nrow = len(monomials(nvars, deg)[1]), 8
    assert len(monomials(nvars, 2 * deg - prev_deg)[1]) == 220
    monkeypatch.setattr(symrank, "_CHUNK_BYTES", width * t * nrow * 4)
    rng = np.random.default_rng(width)
    m = rng.integers(0, p, (nrow + 1, 4, t))
    prev = rng.integers(0, p, len(monomials(nvars, prev_deg)[1]))
    prev[0] = 1
    got = _bareiss_step(m.copy(), prev, nvars, deg, prev_deg, p)
    assert np.array_equal(got, oracle_step(m, prev, nvars, deg, prev_deg, p))


def test_step_plans_keep_a_running_byte_total(monkeypatch):
    # the plan cache's total matches its plans, least recently used first
    # out, within the byte bound
    monkeypatch.setattr(symrank, "_PLAN_CACHE_BYTES", 2**17)
    keys = [(4, deg, deg - 1, int(monomials(4, deg - 1)[1][0])) for deg in (3, 4, 5, 6, 7)]
    keys.append(keys[1])
    for key in keys:
        plan = symrank._step_plan(*key)
        assert symrank._PLANS[key] is plan
        assert list(symrank._PLANS)[-1] == key  # the most recent is last
        total = sum(a.nbytes + b.nbytes for a, b in symrank._PLANS.values())
        assert symrank._plans_nbytes == total <= 2**17
    assert keys[0] not in symrank._PLANS  # evicted first


def test_exact_mode_memory_stays_bounded(monkeypatch):
    # a warm S^(5,3), p = 2 (d = 28, 4 variables) peaked at 18.9 MiB of
    # numpy arrays while gathers were cut by rows
    monkeypatch.delenv("SPECHTVAR_CACHE", raising=False)
    gens = list(restricted_actions((5, 3), 4, 2).A)
    assert generic_power_ranks(gens, 2, 1) == [13]
    tracemalloc.start()
    try:
        generic_power_ranks(gens, 2, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_generic_ranks_respect_caps():
    big = [np.eye(40, dtype=np.int64)]
    with pytest.raises(TooLarge):
        generic_power_ranks(big, 3, 2)
    many = [np.eye(4, dtype=np.int64)] * 8
    with pytest.raises(TooLarge):
        generic_power_ranks(many, 2, 1)


@pytest.mark.parametrize("p,nvars,s,d", [
    (2, 1, 2, 5), (2, 4, 2, 7), (3, 2, 2, 6), (3, 3, 3, 4),
    (5, 2, 4, 5), (5, 4, 4, 3), (3, 7, 3, 2),
])
def test_next_power_is_bit_identical_to_sym_matmul(p, nvars, s, d):
    rng = np.random.default_rng(p * 100 + nvars * 10 + s)
    lin = _linear_slices([rng.integers(0, p, (d, d)) for _ in range(nvars)], p)
    # N^(s-1) with random coefficients: the step need not see a true power
    cur = rng.integers(0, p, (len(monomials(nvars, s - 1)[1]), d, d))
    # _next_power reads and writes monomials in ascending code order, the
    # reverse of ``monomials`` and of sym_matmul's
    got = _next_power(cur[::-1], lin[::-1], nvars, s - 1, p)[::-1]
    want = sym_matmul(np.moveaxis(cur, 0, 2), np.moveaxis(lin, 0, 2), nvars, s - 1, 1, p)
    assert got.dtype == gfp.exact_float(nvars * d, p)
    assert np.array_equal(np.moveaxis(got, 0, 2), want)


def test_next_power_against_evaluation():
    rng = np.random.default_rng(8)
    p, nvars, d = 3, 2, 4
    gens = [rng.integers(0, p, (d, d)) for _ in range(nvars)]
    lin = np.array(gens)  # t_1, t_2: ascending code order
    sq = np.moveaxis(_next_power(lin, lin, nvars, 1, p), 0, 2)
    exps2 = monomials(nvars, 2)[0][::-1]
    for t1 in range(p):
        for t2 in range(p):
            point = np.array([t1, t2])
            n_at = (gens[0] * t1 + gens[1] * t2) % p
            direct = (n_at @ n_at) % p
            weights = np.array([np.prod(point**e) for e in exps2]) % p
            via_sym = (sq @ weights) % p
            assert np.array_equal(via_sym, direct)


@pytest.mark.parametrize("mu,n,p", [((5, 2, 2), 3, 3), ((7, 3), 2, 5), ((4, 3, 1), 4, 2)])
def test_power_coefficients_start_from_the_stack(mu, n, p):
    # entry 0 is the module's stack itself, and entry s - 1 is the
    # ascending-order reverse of the coefficients that exact mode's
    # recurrence built in int64
    ((stack, _),) = restricted_actions(mu, n, p).blocks
    coeffs = symrank.power_coefficients(stack, p, p - 1)
    assert coeffs[0] is stack and len(coeffs) == p - 1
    lin = _linear_slices(list(stack.astype(np.int64)), p)
    cur = lin
    for s in range(2, p):
        cur = np.moveaxis(sym_matmul(np.moveaxis(cur, 0, 2), np.moveaxis(lin, 0, 2),
                                     n, s - 1, 1, p), 2, 0)
        assert coeffs[s - 1].dtype.kind == "f"
        assert np.array_equal(coeffs[s - 1][::-1], cur)
