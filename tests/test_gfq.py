"""The GF(q) kernel (log/Zech elimination, slice products) against the blowup.

``gfq._blowup_rank`` is the rank path for fields above the table cap; it
is called directly here as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtvar import gfp, gfq
from spechtvar.errors import PreconditionViolated
from spechtvar.ffalg import FieldCtx
from spechtvar.jordan import (RankVector, _blocks, _point_operator, _powers,
                              is_free_at, rank_vector_at)
from spechtvar.spechtmod import perm_module_actions, restricted_actions

FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8), (3, 8), (5, 8)]


def random_slices(ctx, rows, cols, rng, density=1.0):
    """Slices of a random matrix whose entries are nonzero with the given odds."""
    out = rng.integers(0, ctx.p, (ctx.k, rows, cols))
    return out * (rng.random((rows, cols)) < density)


def blowup(ctx, slices):
    return sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % ctx.p


# -- tables --------------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(2, 2), (3, 3), (3, 8)])
def test_tables_agree_with_field_arithmetic(p, k):
    ctx = FieldCtx.get(p, k)
    t = ctx.tables
    order = ctx.q - 1
    assert t.order == order and t.exp.shape == (2 * order,)
    # exp and log are inverse bijections between 0..order-1 and the nonzero codes
    assert sorted(t.exp[:order].tolist()) == list(range(1, ctx.q))
    assert np.array_equal(t.exp[order:], t.exp[:order])
    assert t.log[0] == -1
    assert np.array_equal(t.log[t.exp[:order]], np.arange(order))
    g = ctx.element(t.g)
    assert all(g ** (order // r) != ctx.one for r in range(2, order + 1)
               if order % r == 0)  # g is primitive
    assert ctx.element(int(t.exp[t.neg])) == -ctx.one
    one = ctx.one
    for n in range(order):
        elem = ctx.element(int(t.exp[n]))
        total = elem + one
        assert t.zech[n] == (t.log[total.to_index()] if total else -1), n
        assert ctx.frob[elem.to_index()] == (elem ** p).to_index()
    assert ctx.frob[0] == 0


def test_no_tables_above_the_cap():
    with pytest.raises(PreconditionViolated):
        FieldCtx.get(5, 12).tables


# -- ranks and products ----------------------------------------------------------

@pytest.mark.parametrize("p,k", FIELDS)
def test_rank_and_stop_at_match_blowup(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(31 * p + k)
    d = 24 if k < 8 else 14
    for planted in (0, 1, 5, d // 2, d):
        for density in (1.0, 0.3):
            # X Y has rank <= planted, and generically equal to it
            x = random_slices(ctx, d, planted, rng, density)
            y = random_slices(ctx, planted, d + 3, rng, density)
            m = gfq.matmul(x, y, ctx) if planted else np.zeros((k, d, d + 3), dtype=np.int64)
            want = gfq._blowup_rank(m, ctx)
            assert want <= planted
            assert gfq.rank(m, ctx) == want
            for stop in (1, planted // 2 + 1, want, d):
                got = gfq.rank(m, ctx, stop_at=stop)
                assert got == min(stop, want), (planted, density, stop)
                assert gfq._blowup_rank(m, ctx, stop_at=stop) == got


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (5, 2), (3, 8), (5, 8)])
def test_slice_product_matches_blowup_product(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(p + 10 * k)
    x = random_slices(ctx, 7, 5, rng)
    y = random_slices(ctx, 5, 6, rng)
    assert np.array_equal(blowup(ctx, gfq.matmul(x, y, ctx)),
                          gfp.mod_matmul(blowup(ctx, x), blowup(ctx, y), p))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), d=st.integers(1, 6), planted=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1), stop=st.integers(1, 7))
def test_rank_matches_blowup_on_small_matrices(field, d, planted, seed, stop):
    ctx = FieldCtx.get(*field)
    rng = np.random.default_rng(seed)
    m = random_slices(ctx, d, d, rng, density=rng.random())
    if planted < d:  # a matrix of rank <= planted: zero all but planted rows
        m = gfq.matmul(random_slices(ctx, d, d, rng), m * (np.arange(d) < planted)[:, None],
                       ctx)
    want = gfq._blowup_rank(m, ctx)
    assert gfq.rank(m, ctx) == want
    assert gfq.rank(m, ctx, stop_at=stop) == min(stop, want)


# -- point operators ---------------------------------------------------------------

def blowup_rank_vector(acts, alpha) -> RankVector:
    """rank_vector_at with every rank taken on the companion blowup."""
    total = np.zeros(acts.p + 1, dtype=np.int64)
    for mats, mult in _blocks(acts):
        op, ctx = _point_operator(mats, alpha, acts.p)
        ranks = [op.shape[1]] + [gfq._blowup_rank(pw, ctx) for pw in _powers(op, ctx)]
        total += mult * np.array(ranks + [0])
    return RankVector(acts.p, tuple(int(x) for x in total))


@pytest.mark.parametrize("module,k,points", [
    (lambda: restricted_actions((4, 3, 2), 3, 3), 8, 1),
    (lambda: perm_module_actions((3, 3, 3), 3, 3), 2, 6),
    (lambda: restricted_actions((8, 2), 2, 5), 2, 6),
], ids=["S(4,3,2)-GF(3^8)", "M(3,3,3)-GF(9)", "S(8,2)-p5-GF(25)"])
def test_point_operators_match_blowup(module, k, points):
    acts = module()
    ctx = FieldCtx.get(acts.p, k)
    rng = np.random.default_rng(k)
    pts = [ctx.random_point(rng, acts.n) for _ in range(points)]
    pts.append((ctx.one,) + (ctx.zero,) * (acts.n - 1))  # an axis point
    for pt in pts:
        want = blowup_rank_vector(acts, pt)
        assert rank_vector_at(acts, pt) == want, pt
        assert is_free_at(acts, pt) == want.is_free, pt


def test_above_cap_point_over_prime_field():
    # GF(5^12) has no tables, so this reaches the blowup path; a point with
    # coordinates in GF(5) must give the GF(5) rank vector
    acts = restricted_actions((8, 2), 2, 5)
    ctx = FieldCtx.get(5, 12)
    for coords in ([1, 0], [1, 2], [3, 4]):
        pt = tuple(ctx.element(c) for c in coords)
        want = rank_vector_at(acts, coords)
        assert rank_vector_at(acts, pt) == want
        assert is_free_at(acts, pt) == want.is_free
