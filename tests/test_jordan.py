import tracemalloc
import warnings

import numpy as np
import pytest

from spechtvar import jordan, symrank
from spechtvar.errors import (ArityMismatch, PreconditionViolated, RankCheckFailed,
                              ZeroPoint)
from spechtvar.ffalg import FieldCtx
from spechtvar.jordan import (JordanType, RankVector, are_free_at,
                              complementary_check, generic_type, is_free_at,
                              jordan_at_point, rank_vector_at, rank_vectors_at,
                              stable_type)
from spechtvar.partitions import p_core_weight, partitions_of
from spechtvar.phimap import find_ab
from spechtvar.spechtmod import (PermutationActions, perm_module_actions,
                                 restricted_actions)


def test_rank_vector_validation():
    rv = RankVector(3, (4, 2, 1, 0))
    assert rv.dim == 4
    assert not rv.is_free  # type (3,1): dim not divisible by 3
    assert RankVector(3, (6, 4, 2, 0)).is_free  # type (3^2)
    assert not RankVector(3, (6, 3, 1, 0)).is_free  # type (3,2,1)
    assert RankVector(2, (0, 0, 0)).is_free
    with pytest.raises(RankCheckFailed):
        RankVector(3, (4, 2, 1))  # wrong length
    with pytest.raises(RankCheckFailed):
        RankVector(3, (4, 2, 1, 1))  # r_p != 0
    with pytest.raises(RankCheckFailed):
        RankVector(3, (4, 1, 2, 0))  # not decreasing
    with pytest.raises(RankCheckFailed):
        RankVector(3, (4, 3, 1, 0))  # drops 1 then 2: not convex


def test_jordan_type_from_rank_vector():
    t = JordanType.from_rank_vector(RankVector(3, (4, 2, 1, 0)))
    assert t.blocks == (1, 0, 1)
    assert t.dim == 4
    assert t.pretty() == "(3,1)"
    assert t.n(3) == 1 and t.n(2) == 0
    free = JordanType.from_rank_vector(RankVector(3, (6, 4, 2, 0)))
    assert free.blocks == (0, 0, 2)
    assert free.pretty() == "(3^2)"


def block_counts(p, d):
    """Every (b_1, ..., b_p) with sum s * b_s = d: the Jordan types of dimension d."""
    if p == 1:
        yield (d,)
        return
    for b in range(d // p + 1):
        for rest in block_counts(p - 1, d - b * p):
            yield rest + (b,)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_free_iff_rank_n_is_d_minus_d_over_p(p):
    # N has d - r_1 Jordan blocks, each of size at most p: the rule that
    # are_free_at decides by agrees with is_free, which reads N^(p-1)
    for d in range(13):
        for blocks in block_counts(p, d):
            ranks = tuple(sum(max(s - j, 0) * b for s, b in enumerate(blocks, start=1))
                          for j in range(p + 1))
            rv = RankVector(p, ranks)
            assert JordanType.from_rank_vector(rv).blocks == blocks
            assert rv.is_free == (d % p == 0 and ranks[1] == d - d // p), blocks
            assert ranks[1] <= d - -(-d // p), blocks


def test_stable_type_drops_projective_blocks():
    t = JordanType(p=3, blocks=(1, 2, 5))
    assert stable_type(t).blocks == (1, 2, 0)
    assert stable_type(t).pretty() == "(2^2,1)"


def test_complementary_check_examples():
    one = JordanType(p=3, blocks=(1, 0, 0))
    two = JordanType(p=3, blocks=(0, 1, 0))
    empty = JordanType(p=3, blocks=(0, 0, 0))
    assert complementary_check(one, two, 3)
    assert complementary_check(two, one, 3)
    assert not complementary_check(one, one, 3)
    assert complementary_check(empty, empty, 3)


def test_point_validation():
    acts = restricted_actions((3, 3, 3), 3, 3)
    with pytest.raises(ZeroPoint):
        jordan_at_point(acts, (0, 0, 0))
    with pytest.raises(ArityMismatch):
        jordan_at_point(acts, (1, 1))
    ctx = FieldCtx.get(3, 2)
    with pytest.raises(ZeroPoint):
        jordan_at_point(acts, (ctx.zero, ctx.zero, ctx.zero))


def test_333_point_values():
    acts = restricted_actions((3, 3, 3), 3, 3)
    assert acts.dim == 42
    free_pt = jordan_at_point(acts, (1, 1, 0))
    assert free_pt.blocks == (0, 0, 14)
    assert is_free_at(acts, (1, 1, 0))
    diag = jordan_at_point(acts, (1, 1, 1))
    assert not is_free_at(acts, (1, 1, 1))
    assert diag.blocks[2] < 14 and diag.dim == 42


def test_531_is_free_at_extension_points():
    # The full 757-point projective sweep lives with the variety scan;
    # here a handful of GF(27) points, including ones with zero coords.
    acts = restricted_actions((5, 3, 1), 3, 3)
    ctx = FieldCtx.get(3, 3)
    rng = np.random.default_rng(7)
    pts = [
        (ctx.one, ctx.zero, ctx.zero),
        (ctx.zero, ctx.one, ctx.zero),
        (ctx.one, ctx.one, ctx.one),
        ctx.random_point(rng, 3),
        ctx.random_point(rng, 3),
    ]
    assert all(is_free_at(acts, pt) for pt in pts)


@pytest.mark.parametrize("mu", [(3, 3, 3), (8, 1)], ids=["p|dim", "p!|dim"])
def test_many_point_functions_validate_every_point(mu):
    acts = restricted_actions(mu, 3, 3)
    # zero, too few coordinates, another characteristic, two fields in one point
    other = (FieldCtx.get(2, 2).one, 0, 0)
    mixed = (FieldCtx.get(3, 2).one, FieldCtx.get(3, 3).one, 0)
    for bad, err in (((0, 0, 0), ZeroPoint), ((1, 1), ArityMismatch),
                     (other, ArityMismatch), (mixed, ArityMismatch)):
        with pytest.raises(err):
            rank_vectors_at(acts, [(1, 0, 0), bad])
        with pytest.raises(err), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            are_free_at(acts, [(1, 0, 0), bad])


def test_many_points_match_one_point_at_a_time():
    # points of two fields in one call, on a module with 10 distinct blocks
    # whose locus is the union of the coordinate planes
    acts = perm_module_actions((3, 2, 1), 3, 2)
    ctx = FieldCtx.get(2, 3)
    rng = np.random.default_rng(5)
    pts = [(1, 0, 0), (1, 1, 1)] + [ctx.random_point(rng, 3) for _ in range(4)]
    pts.insert(3, (0, 1, 1))
    free = are_free_at(acts, pts)
    assert free == [is_free_at(acts, pt) for pt in pts] and any(free) and not all(free)
    assert rank_vectors_at(acts, pts) == [rank_vector_at(acts, pt) for pt in pts]
    assert rank_vectors_at(acts, []) == [] and are_free_at(acts, []) == []


@pytest.mark.parametrize("mu,p,n,k", [((7, 2), 3, 3, 2), ((8, 2), 5, 2, 2)],
                         ids=["S(7,2)-GF(9)", "S(8,2)-GF(25)"])
def test_freeness_forms_no_power(monkeypatch, mu, p, n, k):
    # are_free_at ranks N alone: it builds no coefficients of a power, and
    # evaluates only the block's own stack, the coefficients of N
    acts = restricted_actions(mu, n, p)
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(p)
    pts = [ctx.random_point(rng, n) for _ in range(3)]
    pts.append((ctx.one,) + (ctx.zero,) * (n - 1))  # an axis point
    want = [rv.is_free for rv in rank_vectors_at(acts, pts)]
    assert any(want) and not all(want)

    def no_power(*args):
        raise AssertionError("a power of N was formed")
    monkeypatch.setattr(symrank, "_next_power", no_power)
    evaluated = []
    real = jordan._evaluate

    def spy(coeffs, values, p):
        evaluated.append(coeffs)
        return real(coeffs, values, p)
    monkeypatch.setattr(jordan, "_evaluate", spy)
    assert are_free_at(acts, pts) == want
    assert evaluated and all(coeffs is acts.A for coeffs in evaluated)


def test_powers_at_a_point_stay_small():
    # N^2 at a GF(3^8) point is one evaluation GEMM of the point's monomial
    # values with the coefficient stack: no k^2 block product, whose
    # buffers put this call's peak at 22.8 MiB
    acts = restricted_actions((4, 3, 1, 1), 3, 3)
    pt = FieldCtx.get(3, 8).random_point(np.random.default_rng(0), acts.n)
    want = rank_vector_at(acts, pt)  # tables and monomial caches built outside the trace
    tracemalloc.start()
    try:
        got = rank_vector_at(acts, pt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and got.ranks == (216, 144, 72, 0)
    assert peak < 15 * 2**20


def test_powers_chain_where_that_takes_fewer_products():
    # the coefficient stacks are built where that takes no more d x d
    # products than chaining every power at every point: n T(s) for each
    # s < count against k^2 per power and point; N alone needs neither
    def points(acts, *ks):
        rng = np.random.default_rng(len(ks))
        return [jordan._coerce_point(FieldCtx.get(acts.p, k).random_point(rng, acts.n),
                                     acts.n, acts.p) for k in ks]
    acts = restricted_actions((5, 2, 2), 3, 3)
    ((stack, _),) = acts.blocks
    assert jordan._coefficients(stack, points(acts, 1), 3, 1) == [stack]
    assert jordan._coefficients(stack, points(acts, 1, 2), 3, 2) is None  # 9 > 1 + 4
    assert jordan._coefficients(stack, points(acts, 3), 3, 2)[0] is stack  # 9 <= 9
    # S^(7,3), p = 5: 2 (2 + 3 + 4) = 18 products against 3 per GF(5) point
    acts = restricted_actions((7, 3), 2, 5)
    ((stack, _),) = acts.blocks
    assert jordan._coefficients(stack, points(acts, *[1] * 5), 5, 4) is None
    got = jordan._coefficients(stack, points(acts, *[1] * 6), 5, 4)
    assert [len(c) for c in got] == [2, 3, 4, 5]
    # eight variables: 8 * 8 = 64 products against 64 per GF(3^8) point
    acts = restricted_actions((23, 1), 8, 3)
    ((wide, _),) = acts.blocks
    assert [len(c) for c in jordan._coefficients(wide, points(acts, 8), 3, 2)] == [8, 36]
    assert jordan._coefficients(wide, points(acts, 2, 2, 2), 3, 2) is None


@pytest.mark.parametrize("mu,p,n", [((5, 2, 2), 3, 3), ((7, 3), 5, 2), ((23, 1), 3, 8)])
def test_chained_powers_rank_like_the_stacks(monkeypatch, mu, p, n):
    # whichever way the powers at a point are formed, every point of one
    # call has the same rank vector
    acts = restricted_actions(mu, n, p)
    rng = np.random.default_rng(p)
    pts = [FieldCtx.get(p, k).random_point(rng, n) for k in (1, 2, 8, 8)]
    pts += [(1,) + (0,) * (n - 1)]
    want = rank_vectors_at(acts, pts)
    assert [rank_vector_at(acts, pt) for pt in pts] == want
    monkeypatch.setattr(jordan, "_coefficients", lambda *args: None)
    assert rank_vectors_at(acts, pts) == want
    monkeypatch.undo()
    monkeypatch.setattr(jordan, "_coefficients", lambda stack, points, p, count:
                        symrank.power_coefficients(stack, p, count))
    assert [rank_vector_at(acts, pt) for pt in pts] == want


def test_is_free_warns_when_dim_not_divisible():
    acts = restricted_actions((8, 1), 3, 3)
    assert acts.dim == 8
    with pytest.warns(RuntimeWarning):
        assert not is_free_at(acts, (1, 0, 0))


def test_generic_type_81():
    acts = restricted_actions((8, 1), 3, 3)
    rep = generic_type(acts, seed=0)
    assert rep.type.blocks == (0, 1, 2)
    assert rep.type.pretty() == "(3^2,2)"
    assert stable_type(rep.type).pretty() == "(2)"
    assert rep.mode == "randomized"
    assert rep.field.p == 3


def test_generic_type_42_p2():
    acts = restricted_actions((4, 2), 3, 2)
    rep = generic_type(acts)
    assert rep.type.blocks == (1, 4)
    assert stable_type(rep.type).blocks == (1, 0)


def test_generic_type_exact_matches_randomized():
    cases = [((8, 1), 3, 3), ((7, 2), 3, 3), ((4, 2), 2, 3),
             ((2, 2, 2), 2, 3), ((6, 2), 2, 4)]
    for mu, p, n in cases:
        acts = restricted_actions(mu, n, p)
        ex = generic_type(acts, mode="exact")
        rnd = generic_type(acts, mode="randomized", seed=3)
        assert ex.type == rnd.type, (mu, p)
        assert ex.rank_vector == rnd.rank_vector
        assert ex.mode == "exact" and ex.samples == 0 and ex.field is None


def test_perm_module_generic_types():
    pm = perm_module_actions((3, 3, 3), 3, 3)
    rep = generic_type(pm, seed=1)
    assert rep.type.blocks == (6, 0, 558)
    ex = generic_type(pm, mode="exact")
    assert ex.type.blocks == (6, 0, 558)
    # single-tabloid module: everything acts trivially
    one = perm_module_actions((9,), 3, 3)
    assert generic_type(one, mode="exact").type.blocks == (1, 0, 0)
    small = perm_module_actions((4, 2), 2, 3)
    assert (generic_type(small, mode="exact").type
            == generic_type(small, seed=5).type)


def test_generic_type_builds_permutation_blocks_once(monkeypatch):
    # the orbit blocks are grouped once per module, not once per sample
    calls = []
    real = PermutationActions.block_actions
    monkeypatch.setattr(PermutationActions, "block_actions",
                        lambda self: calls.append(self) or real(self))
    rep = generic_type(perm_module_actions((4, 4), 4, 2))
    assert len(calls) == 1
    assert (rep.rank_vector.ranks, rep.type.blocks) == ((70, 32, 0), (6, 32))
    assert (rep.samples, rep.field.k) == (5, 8)


def test_scaling_invariance():
    acts = restricted_actions((4, 2), 2, 3)
    ctx = FieldCtx.get(3, 4)
    rng = np.random.default_rng(11)
    for _ in range(100):
        pt = ctx.random_point(rng, 2)
        c = ctx.random_element(rng)
        while not c:
            c = ctx.random_element(rng)
        scaled = tuple(c * x for x in pt)
        assert rank_vector_at(acts, pt) == rank_vector_at(acts, scaled)


def test_coordinate_permutation_invariance():
    # permuting the generators of E_n permutes coordinates of alpha
    acts = restricted_actions((7, 2), 3, 3)
    ctx = FieldCtx.get(3, 3)
    rng = np.random.default_rng(13)
    import itertools
    for _ in range(5):
        pt = ctx.random_point(rng, 3)
        base = rank_vector_at(acts, pt)
        for sigma in itertools.permutations(range(3)):
            moved = tuple(pt[sigma[i]] for i in range(3))
            assert rank_vector_at(acts, moved) == base


def test_sampled_ranks_dominated_by_generic():
    acts = restricted_actions((3, 3, 3), 3, 3)
    gen = generic_type(acts, seed=2).rank_vector
    ctx = FieldCtx.get(3, 3)
    rng = np.random.default_rng(17)
    for _ in range(10):
        rv = rank_vector_at(acts, ctx.random_point(rng, 3))
        assert all(a >= b for a, b in zip(gen.ranks, rv.ranks))


def test_nonempty_core_is_generically_free():
    for mu in partitions_of(9):
        if p_core_weight(mu, 3).core == ():
            continue
        acts = restricted_actions(mu, 3, 3)
        rep = generic_type(acts, seed=0, samples=3)
        assert rep.type.blocks[:-1] == (0, 0), mu
        assert rep.type.blocks[-1] * 3 == acts.dim


def test_observed_stable_types_for_two_row_fixed_points():
    # Observed generic stable types for mu = (np - p, p); recorded as
    # observations, not asserted ahead of the computation.
    s33 = generic_type(restricted_actions((3, 3), 2, 3), seed=0)
    assert stable_type(s33.type).blocks == (0, 1, 0)
    s63 = generic_type(restricted_actions((6, 3), 3, 3), seed=0)
    assert stable_type(s63.type).blocks == (1, 1, 0)


def test_phi_pairs_have_complementary_stable_types():
    # mu and phi(mu) restrict to modules whose stable generic types are
    # complementary; checked on the empty-core partitions of 9 in the
    # phi domain that are not fixed points.
    pairs = []
    for mu in partitions_of(9):
        if len(mu) > 3 or p_core_weight(mu, 3).core != ():
            continue
        step = find_ab(mu, 3)
        if step is not None:
            pairs.append((mu, step.result))
    assert ((8, 1), (9,)) in pairs and ((6, 2, 1), (6, 3)) in pairs
    for mu, nu in pairs:
        t1 = generic_type(restricted_actions(mu, 3, 3), seed=0).type
        t2 = generic_type(restricted_actions(nu, 3, 3), seed=0).type
        assert complementary_check(stable_type(t1), stable_type(t2), 3), (mu, nu)


def test_generic_report_seed_determinism():
    acts = restricted_actions((5, 3, 1), 3, 3)
    a = generic_type(acts, seed=42)
    b = generic_type(acts, seed=42)
    assert a == b
    assert a.type.blocks == (0, 0, 54)


def test_generic_type_rejects_fewer_than_one_sample():
    acts = restricted_actions((4, 2), 2, 3)
    for samples in (0, -1):
        with pytest.raises(PreconditionViolated):
            generic_type(acts, samples=samples)
