"""The GF(q) kernel (stacked log/Zech elimination), the subfield lift above
the table cap and the evaluated powers of N against oracles.

``oracles._blowup_rank``, the rank on the GF(p) companion blowup that
fields above the table cap took before the lift, is the ranks' oracle; at
k = 1 it is ``gfp.rank`` of the matrix itself.  ``rank_logs`` below is the
one-matrix-at-a-time log/Zech elimination that the stack kernel replaced,
kept as the stack's oracle: it adds with ``%``, ``np.where`` and its own
table ``zech_table`` (log(1 + g^n), the table ``LogTables.plus``
replaced).  The prime fields GF(p) = GF(p^1) are ranked by the same stack.
``oracles.slice_matmul``, the GF(p^k) product that once formed each power
of N at a point, builds the planted matrices here, and its chain is the
oracle of the powers that ``jordan`` evaluates from GF(p) coefficient
stacks.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (_blowup_rank, as_point, blowup, element, point_operator, point_powers,
                     random_point, slice_matmul)
from spechtvar import gfp, gfq, jordan, symrank
from spechtvar.errors import PreconditionViolated, RankCheckFailed
from spechtvar.ffalg import TABLE_CAP, FieldCtx
from spechtvar.jordan import (GenericTypeReport, JordanType, RankVector, are_free_at,
                              generic_type, is_free_at, rank_vector_at, rank_vectors_at)
from spechtvar.spechtmod import PermutationActions, perm_module_actions, restricted_actions
from spechtvar.variety import projective_points

FIELDS = [(2, 1), (3, 1), (5, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3), (2, 8), (3, 8),
          (5, 8)]


def random_slices(ctx, rows, cols, rng, density=1.0):
    """Slices of a random matrix whose entries are nonzero with the given odds."""
    out = rng.integers(0, ctx.p, (ctx.k, rows, cols))
    return out * (rng.random((rows, cols)) < density)


def planted_slices(ctx, rows, cols, rank, rng, density=1.0):
    """Slices of X Y, X rows x rank and Y rank x cols: rank <= ``rank``, and
    generically equal to it."""
    if not rank:
        return np.zeros((ctx.k, rows, cols), dtype=np.int64)
    x = random_slices(ctx, rows, rank, rng, density)
    return slice_matmul(x, random_slices(ctx, rank, cols, rng, density), ctx)


def zech_table(ctx):
    """zech[n] = log(1 + g^n), -1 where that sum is zero: the codes of
    g^n = exp[n] plus 1 in the constant digit, then their logs."""
    t = ctx.tables
    codes = t.exp[:t.order].astype(np.int64)
    one_plus = codes + 1
    one_plus[codes % ctx.p == ctx.p - 1] -= ctx.p
    return t.log[one_plus]


def rank_logs(a, ctx):
    """Rank of one matrix of log codes (negative for zero); overwrites ``a``.

    Right-looking elimination, one pivot at a time: row i gains
    -(a_ij / a_rj) times the pivot row r, on the rows below with a nonzero
    in the pivot column and the columns where the pivot row is nonzero.
    Sums go through the Zech logarithm, with ``%`` and ``np.where``.
    """
    tables = ctx.tables
    order, zech = tables.order, zech_table(ctx)
    m, n = a.shape
    r = 0
    for j in range(n):
        if r == m:
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


def kernel_ranks(codes, ctx):
    """``gfq._rank_stack`` on one stack of these codes.  The eliminated
    stack holds only logs below order and the zero code -order: zeros do
    not drift, however many updates they take."""
    stack = np.stack(codes)
    got = gfq._rank_stack(stack, ctx).tolist()
    order = ctx.tables.order
    assert (((stack >= 0) & (stack < order)) | (stack == -order)).all()
    return got


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
    g = element(ctx, t.g)
    assert all(g ** (order // r) != ctx.one for r in range(2, order + 1)
               if order % r == 0)  # g is primitive
    one = element(ctx, 1)
    assert element(ctx, int(t.exp[t.neg])) == -one
    zech = zech_table(ctx)
    assert t.plus.dtype == np.int32 and t.plus.shape == (order + 1,)
    assert t.plus[order] == 0  # what a clipped lookup of a gap to zero reads
    for n in range(order):
        elem = element(ctx, int(t.exp[n]))
        total = elem + one
        assert zech[n] == (t.log[total.to_index()] if total else -1), n
        # plus[n] = log(1 + g^-n), -order where that sum is zero
        inverse = element(ctx, int(t.exp[(order - n) % order]))
        total = inverse + one
        assert t.plus[n] == (t.log[total.to_index()] if total else -order), n
        assert ctx.frob[elem.to_index()] == (elem ** p).to_index()
    assert ctx.frob[0] == 0


def test_no_tables_above_the_cap():
    with pytest.raises(PreconditionViolated):
        FieldCtx.get(5, 12).tables


@pytest.mark.parametrize("p,k", FIELDS + [(5, 12)])
def test_prepare_matches_the_tensordot_codes(p, k):
    # Horner's rule gives the codes sum_c p^c slices[c] of the tensordot
    # it replaced, from int64 or int32 slices; above the table cap they are
    # the int32 codes over GF(5^6) of the lift, whose entry (a, b) in the
    # block of entry (x, y) is W[a, b] @ slices[:, x, y]
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(13 * p + k)
    for rows, cols in ((1, 1), (7, 5), (30, 30)):
        slices = random_slices(ctx, rows, cols, rng, density=0.7)
        got = gfq.prepare(slices, ctx)
        field, lifted = ctx, slices
        if ctx.q > TABLE_CAP:
            field, lift = gfq._subfield(ctx)
            m = len(lift)
            blocks = np.tensordot(lift, slices, axes=([3], [0])) % p  # [a, b, i, x, y]
            lifted = blocks.transpose(2, 3, 0, 4, 1).reshape(field.k, rows * m, cols * m)
        codes = np.tensordot(p ** np.arange(field.k), lifted, axes=1)
        assert got.dtype == np.int32 and np.array_equal(got, field.tables.log[codes])
        assert np.array_equal(gfq.prepare(slices.astype(np.int32), ctx), got)


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
            m = slice_matmul(x, y, ctx) if planted else np.zeros((k, d, d + 3), dtype=np.int64)
            want = _blowup_rank(m, ctx)
            assert want <= planted
            assert gfq.rank(m, ctx) == want, (planted, density)


@pytest.mark.parametrize("p,k", FIELDS)
def test_stack_matches_per_matrix_kernel(p, k):
    # one stack mixing ranks and zero matrices, against the one-matrix
    # kernel and the blowup; square, non-square and 1 x 1 shapes
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(17 * p + k)
    for rows, cols in ((12, 12), (8, 14), (14, 8), (1, 1)):
        full = min(rows, cols)
        mats = [planted_slices(ctx, rows, cols, r, rng, density)
                for r, density in ((0, 1.0), (1, 1.0), (full // 2, 0.3),
                                   (full, 1.0), (3, 0.5), (0, 1.0), (full, 0.2))]
        codes = [gfq.prepare(m, ctx) for m in mats]
        assert all(c.dtype == np.int32 and c.shape == (rows, cols) for c in codes)
        want = [rank_logs(c.astype(np.int64), ctx) for c in codes]
        assert want == [_blowup_rank(m, ctx) for m in mats]
        # a product of two random full-rank-size factors; over GF(2) each
        # factor is singular more often, so it may lose a little more rank
        assert want[0] == want[5] == 0 and want[3] >= full - (2 if ctx.q > 2 else 4)
        kept = [c.copy() for c in codes]
        assert gfq.ranks(codes, ctx) == want
        assert all(np.array_equal(c, c0) for c, c0 in zip(codes, kept))  # inputs kept
        assert kernel_ranks(codes, ctx) == want
        for c, w in zip(codes, want):  # B = 1
            assert gfq.ranks([c], ctx) == [w]


def test_empty_stack():
    assert gfq.ranks([], FieldCtx.get(3, 2)) == []


@settings(max_examples=80, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), rows=st.integers(1, 7), cols=st.integers(1, 7),
       mats=st.lists(st.tuples(st.integers(0, 7), st.floats(0.0, 1.0)),
                     min_size=1, max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_stack_matches_per_matrix_kernel_on_small_stacks(field, rows, cols, mats, seed):
    ctx = FieldCtx.get(*field)
    rng = np.random.default_rng(seed)
    slices = [planted_slices(ctx, rows, cols, min(r, rows, cols), rng, density)
              for r, density in mats]
    codes = [gfq.prepare(m, ctx) for m in slices]
    want = [rank_logs(c.astype(np.int64), ctx) for c in codes]
    assert gfq.ranks(codes, ctx) == want
    assert kernel_ranks(codes, ctx) == want


# -- the branch-free kernel against the Zech oracle ---------------------------------

def embedded(ctx, *mats):
    """Slices of matrices over GF(p) seen over GF(p^k): slice 0 only."""
    out = []
    for m in mats:
        m = np.array(m, dtype=np.int64) % ctx.p
        slices = np.zeros((ctx.k,) + m.shape, dtype=np.int64)
        slices[0] = m
        out.append(slices)
    return out


def assert_kernel_matches(mats, ctx):
    """One stack of these slices ranked by the kernel, against ``rank_logs``
    per matrix and against the companion blowup."""
    codes = [gfq.prepare(m, ctx) for m in mats]
    want = [rank_logs(c.astype(np.int64), ctx) for c in codes]
    assert want == [_blowup_rank(m, ctx) for m in mats]
    assert gfq.ranks(codes, ctx) == want
    assert kernel_ranks(codes, ctx) == want
    return want


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (3, 8)])
def test_kernel_leaves_rows_alone_where_their_pivot_row_is_zero(p, k):
    # five matrices over GF(p), seen over GF(p^k), in one stack.  At
    # column 0 the pivot rows of the first two are nonzero in columns {1}
    # and {2, 3}, so both are updated over the union {1, 2, 3}, each
    # across columns where its own pivot row is zero, on entries both zero
    # and nonzero there.  The third pivots in its row 2, where it stands; the
    # fourth has no pivot in column 0 and starts at column 1; the fifth,
    # the identity, needs no update
    ctx = FieldCtx.get(p, k)
    mats = embedded(ctx,
                    [[1, 2, 0, 0], [2, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 1]],
                    [[2, 0, 1, 1], [1, 1, 0, 0], [0, 2, 2, 1], [1, 0, 0, 0]],
                    [[0, 1, 1, 0], [0, 0, 2, 1], [1, 1, 0, 2], [2, 0, 1, 1]],
                    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 1], [0, 2, 0, 1]],
                    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    want = assert_kernel_matches(mats, ctx)
    assert want == [gfp.rank(m[0], p) for m in mats]
    # and each alone, and in the reverse order
    assert [gfq.ranks([gfq.prepare(m, ctx)], ctx)[0] for m in mats] == want
    assert gfq.ranks([gfq.prepare(m, ctx) for m in mats[::-1]], ctx) == want[::-1]


def staircase_slices(ctx, rows, cols, rng):
    """Slices of a random matrix whose rows start at their first nonzero
    column, latest first: zero before it, nonzero at it.  Row 2 copies
    row 3, so the rank falls short of min(rows, cols)."""
    m = random_slices(ctx, rows, cols, rng)
    leads = np.sort(rng.integers(0, cols, rows))[::-1]
    m[:, np.arange(cols) < leads[:, None]] = 0
    m[0, np.arange(rows), leads] = rng.integers(1, ctx.p, rows)
    m[:, 2] = m[:, 3]
    return m


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernel_pivots_below_free_rows_that_are_zero_there(p, k):
    # each matrix's rows are ordered by their first nonzero column, latest
    # first, so at most columns its pivot row lies below free rows that are
    # zero there (in column 0, below row 0 at least): the kernel takes the
    # pivot where it stands.  Ranks against the blowup
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(13 * p + k)
    for rows, cols in ((10, 12), (12, 8)):
        mats = [staircase_slices(ctx, rows, cols, rng) for _ in range(6)]
        for m in mats:
            nonzero = np.flatnonzero(m[:, :, 0].any(axis=0))
            assert nonzero.size == 0 or nonzero[0] > 0
        want = assert_kernel_matches(mats, ctx)
        assert all(w < rows for w in want) and max(want) > 1


@pytest.mark.parametrize("p,k", FIELDS)
def test_kernel_on_cancelling_rows(p, k):
    # rows that are multiples of a few base rows, so that eliminating them
    # sums entries to zero: the zero sum ``plus`` marks with -order
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(7 * p + k)
    for rows, cols, r in ((6, 6, 1), (7, 5, 2), (5, 8, 3), (4, 4, 4)):
        coeff = random_slices(ctx, rows, r, rng)
        coeff[0, :, 0] = 1 + rng.integers(0, p - 1, rows)  # nonzero multiples
        m = slice_matmul(coeff, random_slices(ctx, r, cols, rng), ctx)
        want = assert_kernel_matches([m, m, np.zeros_like(m)], ctx)
        assert want[0] == want[1] <= r and want[2] == 0
    # row 1 = -row 0 and row 2 = row 0 + row 1 over the whole row
    row = random_slices(ctx, 1, 6, rng)
    row[0, 0] = 1 + rng.integers(0, p - 1, 6)
    minus = (-row) % p
    (lone,) = embedded(ctx, np.eye(6, dtype=np.int64)[3:])
    exact = np.concatenate([row, minus, np.zeros_like(row), lone], axis=1)
    assert assert_kernel_matches([exact], ctx) == [4]


@pytest.mark.parametrize("p,k", [(3, 1), (2, 3), (3, 2), (5, 2), (3, 8), (5, 8)])
def test_slice_product_matches_blowup_product(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(p + 10 * k)
    x = random_slices(ctx, 7, 5, rng)
    y = random_slices(ctx, 5, 6, rng)
    assert np.array_equal(blowup(slice_matmul(x, y, ctx), ctx),
                          gfp.mod_matmul(blowup(x, ctx), blowup(y, ctx), p))


def folded_product(x, y, ctx):
    """The slice product reduced mod p at every step: the k^2 block products
    by one ``mod_matmul``, their antidiagonal sums in int64, and the fold by
    ``reduction`` by a second ``mod_matmul``.  ``slice_matmul`` keeps all of
    this in float and reduces once, at the end."""
    k, m, inner = x.shape
    n = y.shape[2]
    blocks = gfp.mod_matmul(x.reshape(k * m, inner),
                            y.transpose(1, 0, 2).reshape(inner, k * n), ctx.p)
    blocks = blocks.reshape(k, m, k, n).transpose(0, 2, 1, 3)
    wide = np.zeros((2 * k - 1, m, n), dtype=np.int64)
    for a in range(k):
        wide[a:a + k] += blocks[a]
    out = gfp.mod_matmul(ctx.reduction, (wide % ctx.p).reshape(2 * k - 1, m * n), ctx.p)
    return out.reshape(k, m, n)


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 3), (2, 8), (3, 8),
                                 (5, 8), (3, 12), (5, 12)])
def test_slice_product_matches_the_general_fold(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(7 * p + k)
    for rows, inner, cols in [(1, 1, 1), (7, 5, 6), (35, 35, 35), (118, 120, 121)]:
        x = random_slices(ctx, rows, inner, rng)
        y = random_slices(ctx, inner, cols, rng)
        got = slice_matmul(x, y, ctx)
        assert got.shape == (k, rows, cols) and got.dtype == np.int64
        assert np.array_equal(got, folded_product(x, y, ctx))
        if k == 1:
            assert np.array_equal(got[0], gfp.mod_matmul(x[0], y[0], p))


@pytest.mark.parametrize("inner,ftype", [(949, np.float32), (950, np.float64)])
def test_slice_product_either_side_of_the_float32_limit(inner, ftype, monkeypatch):
    # over GF(5^12) the largest unreduced sum, 23 * 4 * 12 * inner * 16,
    # passes 2^24 between inner = 949 and 950; entries p - 1 and random
    # ones, on 3 x 3 results
    ctx = FieldCtx.get(5, 12)
    chosen = []
    real = gfp.exact_float

    def spy(length, p):
        chosen.append(real(length, p))
        return chosen[-1]
    monkeypatch.setattr(gfp, "exact_float", spy)
    rng = np.random.default_rng(inner)
    for x, y in [(np.full((12, 3, inner), 4), np.full((12, inner, 3), 4)),
                 (random_slices(ctx, 3, inner, rng), random_slices(ctx, inner, 3, rng))]:
        chosen.clear()
        got = slice_matmul(x, y, ctx)
        assert chosen == [ftype]
        assert np.array_equal(got, folded_product(x, y, ctx))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(field=st.sampled_from(FIELDS), d=st.integers(1, 6), planted=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_rank_matches_blowup_on_small_matrices(field, d, planted, seed):
    ctx = FieldCtx.get(*field)
    rng = np.random.default_rng(seed)
    m = random_slices(ctx, d, d, rng, density=rng.random())
    if planted < d:  # a matrix of rank <= planted: zero all but planted rows
        m = slice_matmul(random_slices(ctx, d, d, rng), m * (np.arange(d) < planted)[:, None],
                       ctx)
    want = _blowup_rank(m, ctx)
    assert gfq.rank(m, ctx) == want


# -- the subfield lift above the table cap ---------------------------------------------

# every field above the cap that the CLI reaches, GF(5^9) .. GF(5^12), and
# the library-only GF(7^8); each is ranked over GF(p^j) for this j
ABOVE_CAP = {(5, 9): 3, (5, 10): 5, (5, 11): 1, (5, 12): 6, (7, 8): 4}


def lifted_slices(codes, sub):
    """Slices over the subfield of a matrix of its log codes."""
    elems = np.where(codes < 0, 0, sub.tables.exp[np.maximum(codes, 0)])
    return np.moveaxis(sub.digits(elems), -1, 0)


@pytest.mark.parametrize("p,k", list(ABOVE_CAP))
def test_lift_ranks_match_blowup(p, k):
    # stacks mixing zero, full-rank and planted matrices, square, non-square
    # and 1 x 1, ranked over GF(p^j) on their lifts, against the blowup
    ctx = FieldCtx.get(p, k)
    sub, lift = gfq._subfield(ctx)
    m = k // ABOVE_CAP[p, k]
    assert sub is FieldCtx.get(p, ABOVE_CAP[p, k]) and lift.shape == (m, m, sub.k, k)
    rng = np.random.default_rng(19 * p + k)
    for rows, cols in ((9, 9), (6, 11), (11, 6), (1, 1)):
        full = min(rows, cols)
        mats = [planted_slices(ctx, rows, cols, r, rng, density)
                for r, density in ((0, 1.0), (full, 1.0), (full // 2, 0.4), (1, 1.0),
                                   (full, 0.3))]
        codes = [gfq.prepare(x, ctx) for x in mats]
        assert all(c.dtype == np.int32 and c.shape == (rows * m, cols * m) for c in codes)
        want = [_blowup_rank(x, ctx) for x in mats]
        assert want[:2] == [0, full]
        assert gfq.ranks(codes, ctx) == want
        assert [gfq.rank(x, ctx) for x in mats] == want
        assert gfq.ranks(codes[1:2], ctx) == [full]  # B = 1


@pytest.mark.parametrize("p,k", list(ABOVE_CAP))
def test_lift_is_a_ring_homomorphism(p, k):
    # the lift of a product is the product of the lifts over GF(p^j), and
    # the identity lifts to the identity
    ctx = FieldCtx.get(p, k)
    sub, _ = gfq._subfield(ctx)
    m = k // sub.k
    rng = np.random.default_rng(23 * p + k)

    def lifted(x):
        return lifted_slices(gfq.prepare(x, ctx), sub)
    for rows, inner, cols in ((4, 3, 5), (1, 1, 1), (2, 6, 2)):
        x = random_slices(ctx, rows, inner, rng)
        y = random_slices(ctx, inner, cols, rng, density=0.5)
        assert np.array_equal(lifted(slice_matmul(x, y, ctx)),
                              slice_matmul(lifted(x), lifted(y), sub))
    (eye,) = embedded(ctx, np.eye(3))
    assert np.array_equal(lifted(eye), embedded(sub, np.eye(3 * m))[0])


def test_lift_checks_its_ranks():
    # a lifted rank is m times a rank over GF(p^k): a 1 x 1 code matrix
    # of rank 1 over GF(5^6), not a lift, has none
    with pytest.raises(RankCheckFailed):
        gfq.ranks([np.zeros((1, 1), dtype=np.int32)], FieldCtx.get(5, 12))


def test_no_subfield_with_tables_above_the_cap():
    # p = 531457 is above the cap itself, so GF(p) has no subfield with tables
    ctx = FieldCtx.get(531457, 1)
    with pytest.raises(PreconditionViolated):
        gfq.prepare(np.ones((1, 2, 2), dtype=np.int64), ctx)
    with pytest.raises(PreconditionViolated):
        gfq.ranks([np.zeros((2, 2), dtype=np.int32)], ctx)


# -- point operators ---------------------------------------------------------------

def blowup_rank_vector(acts, alpha) -> RankVector:
    """rank_vector_at with every power a chain of slice products and every
    rank taken on the companion blowup."""
    total = np.zeros(acts.p + 1, dtype=np.int64)
    for stack, mult in acts.blocks:
        powers, ctx = point_powers(stack, alpha, acts.p)
        ranks = [stack.shape[1]] + [_blowup_rank(pw, ctx) for pw in powers]
        total += mult * np.array(ranks + [0])
    return RankVector(acts.p, tuple(int(x) for x in total))


@pytest.mark.parametrize("module,k,points", [
    (lambda: restricted_actions((4, 3, 2), 3, 3), 8, 1),
    (lambda: perm_module_actions((3, 3, 3), 3, 3), 2, 6),
    (lambda: restricted_actions((8, 2), 2, 5), 2, 6),
    (lambda: restricted_actions((23, 1), 8, 3), 8, 2),
], ids=["S(4,3,2)-GF(3^8)", "M(3,3,3)-GF(9)", "S(8,2)-p5-GF(25)", "S(23,1)-n8-GF(3^8)"])
@pytest.mark.filterwarnings("ignore:dim .* not divisible:RuntimeWarning")
def test_point_operators_match_blowup(module, k, points):
    # n = 8 is past symrank's monomial codes, so S^(23,1) chains its powers
    acts = module()
    ctx = FieldCtx.get(acts.p, k)
    rng = np.random.default_rng(k)
    pts = [random_point(ctx, rng, acts.n) for _ in range(points)]
    pts.append((ctx.one,) + (ctx.zero,) * (acts.n - 1))  # an axis point
    for pt in pts:
        want = blowup_rank_vector(acts, pt)
        assert rank_vector_at(acts, pt) == want, pt
        assert is_free_at(acts, pt) == want.is_free, pt


@pytest.mark.parametrize("module,ks", [
    (lambda: restricted_actions((5, 2, 1, 1), 3, 3), (1, 3, 8, 12)),
    (lambda: restricted_actions((4, 3, 1), 4, 2), (1, 2, 8, 12)),
    (lambda: restricted_actions((7, 3), 2, 5), (1, 2, 8, 12)),
    (lambda: perm_module_actions((4, 2), 3, 2), (1, 3)),
], ids=["S(5,2,1,1)-p3", "S(4,3,1)-p2", "S(7,3)-p5", "M(4,2)-p2-block"])
def test_point_operator_matches_the_loop(module, ks):
    # N is the degree-1 evaluation: the block's stack is its own coefficient
    # stack, used as it is, the values of the monomials x_1 .. x_n are the
    # point's rows, and one GEMM of them with the stack gives the loop's
    # operator
    acts = module()
    p = acts.p
    rng = np.random.default_rng(p)
    for stack, _ in acts.blocks:
        assert stack.dtype == gfp.exact_float(acts.n, p) and stack.flags.c_contiguous
        assert symrank.power_coefficients(stack, p, 1)[0] is stack
        mats = list(stack)
        pts = [tuple(rng.integers(-2 * p, 3 * p, acts.n)) for _ in range(3)]
        pts = [pt for pt in pts if np.any(np.array(pt) % p)]
        for k in ks:
            ctx = FieldCtx.get(p, k)
            pts += [random_point(ctx, rng, acts.n) for _ in range(3)]
            pts.append((ctx.zero,) * (acts.n - 1) + (ctx.one,))
        for pt in pts:
            want, want_ctx = point_operator(mats, pt, p)
            rows, ctx = jordan._coerce_point(pt, acts.n, p)
            assert ctx is want_ctx
            values = jordan._monomial_values(rows[None], ctx, np.eye(acts.n, dtype=np.int64))
            assert np.array_equal(values[0], rows)
            got = jordan._evaluate(stack, values, p)
            assert got.dtype == stack.dtype and np.array_equal(got[0], want), pt


@pytest.mark.parametrize("module", [
    lambda: restricted_actions((4, 3, 1), 4, 2),
    lambda: restricted_actions((5, 2, 2), 3, 3),
    lambda: restricted_actions((7, 3), 2, 5),
], ids=["S(4,3,1)-p2", "S(5,2,2)-p3", "S(7,3)-p5"])
@pytest.mark.parametrize("stack_bytes", [jordan._STACK_BYTES, 1])
def test_block_ranks_stack_all_powers_like_one_stack_per_power(module, stack_bytes,
                                                               monkeypatch):
    # all p - 1 powers of a chunk of points go to one gfq.ranks call; the
    # ranks equal one stack per power, and per matrix.  Points over GF(p),
    # GF(p^2) and GF(p^8) split the chunks by field; a 1-byte chunk holds
    # one point
    acts = module()
    p, ((stack, _),) = acts.p, acts.blocks
    rng = np.random.default_rng(p)
    pts = [tuple(rng.integers(1, p, acts.n))]
    for k in (2, 8):
        pts += [random_point(FieldCtx.get(p, k), rng, acts.n) for _ in range(3)]
    pts.append((1,) + (0,) * (acts.n - 1))
    prepared = []
    for pt in pts:
        powers, ctx = point_powers(stack, pt, p)
        prepared.append((ctx, [gfq.prepare(pw, ctx) for pw in powers]))
    per_matrix = [[rank_logs(c.astype(np.int64), ctx) for c in codes]
                  for ctx, codes in prepared]
    # one stack per power over each run of points in one field
    per_power = []
    for ctx, run in itertools.groupby(prepared, key=lambda item: item[0]):
        run = [codes for _, codes in run]
        by_power = [gfq.ranks([codes[s] for codes in run], ctx) for s in range(p - 1)]
        per_power += [list(ranks) for ranks in zip(*by_power)]
    assert per_power == per_matrix
    monkeypatch.setattr(jordan, "_STACK_BYTES", stack_bytes)
    calls = []
    real = gfq.ranks

    def spy(mats, ctx):
        calls.append(len(mats))
        return real(mats, ctx)
    monkeypatch.setattr(gfq, "ranks", spy)
    pts = [jordan._coerce_point(pt, acts.n, p) for pt in pts]
    got = jordan._block_ranks(stack, pts, p, p - 1)
    assert got.tolist() == per_matrix
    assert all(c % (p - 1) == 0 for c in calls) and sum(calls) == len(pts) * (p - 1)
    assert len(calls) == (len(pts) if stack_bytes == 1 else 4)  # fields GF(p), p^2, p^8, p
    calls.clear()
    assert jordan._block_ranks(stack, pts, p, 1)[:, 0].tolist() == [r[0] for r in per_matrix]
    assert sum(calls) == len(pts)


def evaluated_powers(stack, points, p, count, chained=False):
    """N .. N^count at each point as ``jordan._block_ranks`` forms them before
    preparing, plus the field: the coefficient stacks are built once, and
    each run of points in one field takes one GEMM per power, with N's
    values the points' rows and those of N^s the degree-s monomials'; or,
    chained, each power from the one before."""
    coeffs = symrank.power_coefficients(stack, p, count)
    n, out = len(stack), []
    coerced = [jordan._coerce_point(pt, n, p) for pt in points]
    for ctx, run in itertools.groupby(coerced, key=lambda point: point[1]):
        rows = np.array([r for r, _ in run])
        if chained:
            evaluated = jordan._chained_powers(stack, rows, ctx, count)
        else:
            values = [rows] + [jordan._monomial_values(rows, ctx, symrank.exponents(n, s)[::-1])
                               for s in range(2, count + 1)]
            evaluated = [jordan._evaluate(c, v, p) for c, v in zip(coeffs, values)]
        out += [(powers, ctx) for powers in zip(*evaluated)]
    return out


_EVALUATED = {
    2: (lambda: restricted_actions((4, 3, 1), 4, 2), lambda: perm_module_actions((4, 2), 3, 2)),
    3: (lambda: restricted_actions((5, 2, 2), 3, 3), lambda: perm_module_actions((6, 3), 3, 3)),
    5: (lambda: restricted_actions((7, 3), 2, 5), lambda: perm_module_actions((8, 2), 2, 5)),
}


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (3, 2), (2, 3), (3, 8), (5, 8),
                                 (5, 12)])
def test_evaluated_powers_match_the_slice_product_chain(p, k):
    # N^s = sum_e alpha^e C_e from the GF(p) coefficient stacks, and N^s
    # chained from N^(s-1) where that takes fewer products, equal the chain
    # N, N N, .. of GF(p^k) slice products bit for bit, for every power
    # below p, on every block of a Specht and a permutation module; integer
    # points and points of GF(p^k), some with zero coordinates, interleaved
    # in one call
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(10 * p + k)
    for module in _EVALUATED[p]:
        acts = module()
        n = acts.n
        ints = [tuple(rng.integers(-p, 2 * p, n)) for _ in range(3)]
        ints = [pt for pt in ints if np.any(np.array(pt) % p)]
        ints += [(1,) + (0,) * (n - 1), (0,) * (n - 1) + (p - 1,)]
        drawn = [random_point(ctx, rng, n) for _ in range(3)]
        fields = drawn + [(drawn[0][0] or ctx.one,) + (ctx.zero,) * (n - 1),
                          (ctx.zero,) + tuple(x or ctx.one for x in drawn[1][1:])]
        pts = ints[:2] + fields[:3] + ints[2:] + fields[3:]
        for (stack, _), chained in itertools.product(acts.blocks, (False, True)):
            got = evaluated_powers(stack, pts, p, p - 1, chained)
            assert len(got) == len(pts)
            for pt, (powers, got_ctx) in zip(pts, got):
                want, want_ctx = point_powers(stack, pt, p)
                assert got_ctx is want_ctx
                for s, (g, w) in enumerate(zip(powers, want), start=1):
                    assert g.dtype.kind == "f" and np.array_equal(g, w), (pt, s, chained)


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
    # GF(5^12) has no tables, so this is ranked over GF(5^6) on the lift;
    # a point with coordinates in GF(5) must give the GF(5) rank vector
    acts = restricted_actions((8, 2), 2, 5)
    ctx = FieldCtx.get(5, 12)
    for coords in ([1, 0], [1, 2], [3, 4]):
        pt = tuple(ctx.element(c) for c in coords)
        want = rank_vector_at(acts, coords)
        assert rank_vector_at(acts, pt) == want
        assert is_free_at(acts, pt) == want.is_free


# -- generic types over stacks -------------------------------------------------------

def generic_type_point_by_point(acts, seed=0, samples=5):
    """Randomized ``generic_type`` with one ``rank_vector_at`` per sample,
    each drawn by ``FieldCtx.random_rows`` and passed as elements."""
    rng = jordan._derive_rng(acts, seed)
    seen = []
    for k in (8, 12):
        ctx = FieldCtx.get(acts.p, k)
        for _ in range(samples):
            seen.append(rank_vector_at(acts, as_point(ctx.random_rows(rng, acts.n), ctx)))
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
    real = FieldCtx.random_rows

    def run(fn):
        draws = itertools.count()

        def drawn(self, rng, n):
            rows = real(self, rng, n)
            if next(draws) == 1:
                rows = np.zeros_like(rows)
                rows[0, 0] = 1  # the axis point (1, 0, .., 0)
            return rows
        monkeypatch.setattr(FieldCtx, "random_rows", drawn)
        try:
            return fn(acts, seed=3)
        finally:
            monkeypatch.setattr(FieldCtx, "random_rows", real)

    want = run(generic_type_point_by_point)
    axis = rank_vector_at(acts, (1, 0, 0))
    assert axis != want.rank_vector and not axis.is_free and want.rank_vector.is_free
    assert run(generic_type) == want


def test_generic_type_retries_above_the_cap(monkeypatch):
    # S^(7,2,1) at p = 5 is not free only on the two axes, which share one
    # rank vector, so no real draw leaves the max over GF(5^8) unattained:
    # the GF(5^8) samples are given two incomparable rank vectors instead,
    # and the retry over GF(5^12), ranked over GF(5^6) on the lift, takes
    # the real draws
    acts = restricted_actions((7, 2, 1), 2, 5)
    real = jordan._rank_vectors
    fake = [RankVector(5, (160, 110, 60, 40, 20, 0)), RankVector(5, (160, 120, 80, 40, 0, 0))]
    drawn = itertools.count()

    def ranked(acts, points):  # the two in turn, whether points come one or five at a time
        if points[0][1].k == 8:
            return [fake[next(drawn) % 2] for _ in points]
        return real(acts, points)
    monkeypatch.setattr(jordan, "_rank_vectors", ranked)
    want = generic_type_point_by_point(acts, seed=4)
    got = generic_type(acts, seed=4)
    assert got == want and got.field is FieldCtx.get(5, 12) and got.samples == 10
    assert got.rank_vector.ranks == (160, 128, 96, 64, 32, 0)  # free
