"""The GF(q) kernel (stacked log/Zech elimination, slice products) against oracles.

``gfq._blowup_rank`` is the rank path for fields above the table cap; it
is called directly here as the oracle, and at k = 1 it is ``gfp.rank`` of
the matrix itself.  ``rank_logs`` below is the one-matrix-at-a-time
log/Zech elimination that the stack kernel replaced, kept as the stack's
oracle.  The prime fields GF(p) = GF(p^1) are ranked by the same stack.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtvar import gfp, gfq, jordan
from spechtvar.errors import PreconditionViolated
from spechtvar.ffalg import FieldCtx
from spechtvar.jordan import (GenericTypeReport, JordanType, RankVector, _blocks,
                              _point_operator, _powers, are_free_at, generic_type,
                              is_free_at, rank_vector_at, rank_vectors_at)
from spechtvar.spechtmod import PermutationActions, perm_module_actions, restricted_actions
from spechtvar.variety import projective_points

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8), (3, 8),
          (5, 8)]


def random_slices(ctx, rows, cols, rng, density=1.0):
    """Slices of a random matrix whose entries are nonzero with the given odds."""
    out = rng.integers(0, ctx.p, (ctx.k, rows, cols))
    return out * (rng.random((rows, cols)) < density)


def blowup(ctx, slices):
    return sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % ctx.p


def planted_slices(ctx, rows, cols, rank, rng, density=1.0):
    """Slices of X Y, X rows x rank and Y rank x cols: rank <= ``rank``, and
    generically equal to it."""
    if not rank:
        return np.zeros((ctx.k, rows, cols), dtype=np.int64)
    x = random_slices(ctx, rows, rank, rng, density)
    return gfq.matmul(x, random_slices(ctx, rank, cols, rng, density), ctx)


def rank_logs(a, ctx, stop_at=None):
    """Rank of one matrix of log codes (-1 for zero); overwrites ``a``.

    Right-looking elimination, one pivot at a time: row i gains
    -(a_ij / a_rj) times the pivot row r, on the rows below with a nonzero
    in the pivot column and the columns where the pivot row is nonzero.
    """
    tables = ctx.tables
    order, zech = tables.order, tables.zech
    m, n = a.shape
    r = 0
    for j in range(n):
        if r == m or (stop_at is not None and r >= stop_at):
            break
        nz = np.flatnonzero(a[r:, j] >= 0)
        if nz.size == 0:
            continue
        if nz[0]:
            a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        rows = r + 1 + np.flatnonzero(a[r + 1:, j] >= 0)
        cols = j + 1 + np.flatnonzero(a[r, j + 1:] >= 0)
        if rows.size and cols.size:
            mult = (a[rows, j] - a[r, j] + tables.neg) % order
            add = (mult[:, None] + a[r, cols]) % order
            old = a[np.ix_(rows, cols)]
            z = zech[(old - add) % order]
            new = np.where(z < 0, -1, (add + z) % order)
            a[np.ix_(rows, cols)] = np.where(old < 0, add, new)
        r += 1
    return r


def capped(rank, stop):
    return rank if stop is None else min(rank, stop)


# -- tables --------------------------------------------------------------------

@pytest.mark.parametrize("p,k", [(2, 1), (5, 1), (2, 2), (3, 3), (3, 8)])
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


@pytest.mark.parametrize("p,k", FIELDS)
def test_stack_matches_per_matrix_kernel(p, k):
    # one stack mixing ranks, zero matrices and per-matrix stops, against
    # the one-matrix kernel and the blowup; square and non-square shapes
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(17 * p + k)
    for rows, cols in ((12, 12), (8, 14), (14, 8)):
        full = min(rows, cols)
        mats = [planted_slices(ctx, rows, cols, r, rng, density)
                for r, density in ((0, 1.0), (1, 1.0), (full // 2, 0.3),
                                   (full, 1.0), (3, 0.5), (0, 1.0), (full, 0.2))]
        codes = [gfq.prepare(m, ctx) for m in mats]
        assert all(c.dtype == np.int32 and c.shape == (rows, cols) for c in codes)
        want = [rank_logs(c.astype(np.int64), ctx) for c in codes]
        assert want == [gfq._blowup_rank(m, ctx) for m in mats]
        # a product of two random full-rank-size factors; over GF(2) each
        # factor is singular more often, so it may lose a little more rank
        assert want[0] == want[5] == 0 and want[3] >= full - (2 if ctx.q > 2 else 4)
        kept = [c.copy() for c in codes]
        assert gfq.ranks(codes, ctx) == want
        assert all(np.array_equal(c, c0) for c, c0 in zip(codes, kept))  # inputs kept
        # stops that some matrices reach and others do not
        stops = [None, 1, 1, want[3] - 2, want[4] + 4, 2, None]
        assert gfq.ranks(codes, ctx, stop_at=stops) == [
            capped(w, s) for w, s in zip(want, stops)]
        assert gfq.ranks(codes, ctx, stop_at=2) == [min(w, 2) for w in want]
        for c, w in zip(codes, want):  # B = 1
            assert gfq.ranks([c], ctx) == [w]
            assert gfq.ranks([c], ctx, stop_at=[1]) == [min(w, 1)]


def test_empty_stack():
    assert gfq.ranks([], FieldCtx.get(3, 2)) == []


@settings(max_examples=80, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), rows=st.integers(1, 7), cols=st.integers(1, 7),
       mats=st.lists(st.tuples(st.integers(0, 7), st.one_of(st.none(), st.integers(0, 8)),
                               st.floats(0.0, 1.0)), min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_stack_matches_per_matrix_kernel_on_small_stacks(field, rows, cols, mats, seed):
    ctx = FieldCtx.get(*field)
    rng = np.random.default_rng(seed)
    slices = [planted_slices(ctx, rows, cols, min(r, rows, cols), rng, density)
              for r, _, density in mats]
    codes = [gfq.prepare(m, ctx) for m in slices]
    stops = [s for _, s, _ in mats]
    want = [rank_logs(c.astype(np.int64), ctx, stop_at=s) for c, s in zip(codes, stops)]
    assert want == [capped(rank_logs(c.astype(np.int64), ctx), s)
                    for c, s in zip(codes, stops)]
    assert gfq.ranks(codes, ctx, stop_at=stops) == want


@pytest.mark.parametrize("p,k", [(3, 1), (2, 3), (3, 2), (5, 2), (3, 8), (5, 8)])
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


def module_matrices(acts):
    """The A_i on the whole module: a Specht module's, or g_i - 1 on tabloids."""
    if not isinstance(acts, PermutationActions):
        return acts.A
    eye = np.eye(acts.dim, dtype=np.int64)
    return [(eye[:, pi] - eye) % acts.p for pi in acts.perms]


def prime_field_rank_vector(acts, alpha) -> RankVector:
    """Rank vector at an integer point: ``gfp.rank`` of the ``mod_matmul``
    powers of N on the whole module, the GF(p) path the stack replaced."""
    p = acts.p
    op = sum(int(a) * m for a, m in zip(alpha, module_matrices(acts))) % p
    ranks, power = [acts.dim], op
    for _ in range(p - 1):
        ranks.append(gfp.rank(power, p))
        power = gfp.mod_matmul(power, op, p)
    assert not power.any()  # N^p = 0
    return RankVector(p, tuple(ranks) + (0,))


@pytest.mark.parametrize("module", [
    lambda: restricted_actions((7, 2), 3, 3),
    lambda: restricted_actions((6, 2, 2), 5, 2),
    lambda: restricted_actions((8, 2), 2, 5),
    lambda: perm_module_actions((4, 2), 3, 2),
], ids=["S(7,2)-p3", "S(6,2,2)-p2", "S(8,2)-p5", "M(4,2)-p2"])
@pytest.mark.filterwarnings("ignore:dim .* not divisible:RuntimeWarning")
def test_prime_field_points_match_gfp_rank(module):
    # every projective point of GF(p)^n as integers, then the same points
    # scaled by -1 and written with entries >= p
    acts = module()
    p = acts.p
    pts = list(projective_points(FieldCtx.get(p, 1), acts.n))
    pts += [tuple((p - 1) * c + p for c in pt) for pt in pts]
    want = [prime_field_rank_vector(acts, pt) for pt in pts]
    assert rank_vectors_at(acts, pts) == want
    assert are_free_at(acts, pts) == [rv.is_free for rv in want]


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


# -- generic types over stacks -------------------------------------------------------

def generic_type_point_by_point(acts, seed=0, samples=5):
    """Randomized ``generic_type`` with one ``rank_vector_at`` per sample."""
    rng = jordan._derive_rng(acts, seed)
    seen = []
    for k in (8, 12):
        ctx = FieldCtx.get(acts.p, k)
        for _ in range(samples):
            seen.append(rank_vector_at(acts, ctx.random_point(rng, acts.n)))
        best = tuple(max(rv.ranks[i] for rv in seen) for i in range(acts.p + 1))
        winner = next((rv for rv in seen if rv.ranks == best), None)
        if winner is not None:
            return GenericTypeReport(type=JordanType.from_rank_vector(winner),
                                     mode="randomized", samples=len(seen),
                                     field=ctx, rank_vector=winner)
    raise AssertionError("no sample attained the entrywise max")


@pytest.mark.parametrize("module,seed", [
    (lambda: restricted_actions((5, 2, 2), 3, 3), 0),
    (lambda: restricted_actions((4, 3, 1), 4, 2), 1),
    (lambda: restricted_actions((7, 3), 2, 5), 2),
    (lambda: perm_module_actions((6, 3), 3, 3), 0),
    (lambda: perm_module_actions((4, 2, 2), 4, 2), 1),
], ids=["S(5,2,2)-p3", "S(4,3,1)-p2", "S(7,3)-p5", "M(6,3)-p3", "M(4,2,2)-p2"])
def test_generic_type_matches_point_by_point(module, seed):
    acts = module()
    assert generic_type(acts, seed=seed) == generic_type_point_by_point(acts, seed)


def test_generic_type_with_a_degenerate_sample(monkeypatch):
    # the second draw is replaced by an axis point, where S^(7,2) is not
    # free (its locus is the union of the axes), so the samples disagree
    acts = restricted_actions((7, 2), 3, 3)
    real = FieldCtx.random_point

    def run(fn):
        draws = itertools.count()

        def drawn(self, rng, n):
            pt = real(self, rng, n)
            return (self.one,) + (self.zero,) * (n - 1) if next(draws) == 1 else pt
        monkeypatch.setattr(FieldCtx, "random_point", drawn)
        try:
            return fn(acts, seed=3)
        finally:
            monkeypatch.setattr(FieldCtx, "random_point", real)

    want = run(generic_type_point_by_point)
    axis = rank_vector_at(acts, (1, 0, 0))
    assert axis != want.rank_vector and not axis.is_free and want.rank_vector.is_free
    assert run(generic_type) == want
