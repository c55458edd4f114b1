import itertools

import numpy as np
import pytest

import oracles
from oracles import element, random_element
from spechtvar import jordan, spechtmod, symrank, variety
from spechtvar.errors import (ArityMismatch, InconsistentCounts, PreconditionViolated,
                               TooManyPoints, ZeroPoint)
from spechtvar.ffalg import TABLE_CAP, FieldCtx, MultiPoly
from spechtvar.jordan import is_free_at, rank_vector_at
from spechtvar.spechtmod import perm_module_actions, restricted_actions
from spechtvar.variety import (CATALOGUE_P3_9, classify, classify_stable,
                               enumerate_locus, estimate_dimension,
                               homogeneous_vanishing_forms, interpolate_forms,
                               normalize_point, projective_points,
                               sweep_rank_vectors, template_check)

QUARTIC = MultiPoly(p=3, nvars=3, terms={(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1})


def poly_eval(f, point):
    """f at a point with coordinates in one field, by the oracle's element
    arithmetic: the oracle of the evaluation on coefficient rows
    (``jordan._monomial_values``)."""
    if len(point) != f.nvars:
        raise ArityMismatch(f"point has {len(point)} coordinates, poly has {f.nvars}")
    ctx = point[0].ctx
    if ctx.p != f.p:
        raise ArityMismatch("characteristic mismatch")
    total = element(ctx, 0)
    for exps, c in f.terms.items():
        term = element(ctx, c)
        for x, e in zip(point, exps):
            if e:
                term = term * x**e
        total = total + term
    return total


def test_projective_points_are_normalized_and_counted():
    ctx = FieldCtx.get(3, 1)
    pts = list(projective_points(ctx, 3))
    assert len(pts) == 13 == (3**3 - 1) // 2
    for pt in pts:
        lead = next(c for c in pt if c)
        assert lead == 1
    assert len(set(pts)) == 13
    ctx2 = FieldCtx.get(3, 2)
    assert len(list(projective_points(ctx2, 3))) == 91


def test_normalize_point():
    ctx = FieldCtx.get(3, 1)
    assert normalize_point((0, 2, 1), ctx) == (0, 1, 2)
    assert normalize_point((2, 2, 0), ctx) == (1, 1, 0)
    with pytest.raises(ZeroPoint):
        normalize_point((0, 0, 0), ctx)
    # codes outside 0..q-1 name no element: a negative code would read the
    # end of the log table, and q itself lies past it
    ctx9 = FieldCtx.get(3, 2)
    for codes in [(0, -1, 2), (0, 9, 2)]:
        with pytest.raises(PreconditionViolated):
            normalize_point(codes, ctx9)


WALKED_FIELDS = [(3, 3, 3), (3, 3, 2), (5, 2, 2), (3, 2, 3), (2, 4, 3), (2, 4, 2),
                 (2, 3, 3), (2, 3, 2)]


def walked_orbits(p, n, k, torus):
    """``_point_orbits`` as a list of orbits, each a tuple of code tuples in
    point order."""
    points, orbit, reps = variety._point_orbits(p, n, k, torus=torus)
    return [tuple(map(tuple, points[orbit == i].tolist())) for i in range(len(reps))]


@pytest.mark.parametrize("p, n, k, torus, count", [
    (3, 3, 3, False, 53), (3, 3, 2, False, 15), (5, 2, 2, False, 10),
    (3, 2, 3, False, 7), (2, 4, 3, False, 21), (2, 4, 2, False, 10),
    (2, 3, 3, False, 9), (2, 3, 2, False, 6),
    # the GF(p)^* torus merges orbits for p > 2 and is trivial for p = 2
    (3, 3, 3, True, 19), (3, 3, 2, True, 8), (5, 2, 2, True, 5),
    (3, 2, 3, True, 4), (2, 4, 3, True, 21), (2, 3, 2, True, 6)],
    ids=["GF27-n3", "GF9-n3", "GF25-n2", "GF27-n2", "GF8-n4", "GF4-n4", "GF8-n3",
         "GF4-n3", "GF27-n3-torus", "GF9-n3-torus", "GF25-n2-torus",
         "GF27-n2-torus", "GF8-n4-torus", "GF4-n3-torus"])
def test_point_orbits_partition_points(p, n, k, torus, count):
    ctx = FieldCtx.get(p, k)
    order = {pt: i for i, pt in enumerate(projective_points(ctx, n))}
    points, orbit, reps = variety._point_orbits(p, n, k, torus=torus)
    assert points.dtype == np.int32 and list(map(tuple, points.tolist())) == list(order)
    assert len(reps) == count and orbit.shape == (len(points),)
    if p == 2 and torus:
        assert np.array_equal(orbit, variety._point_orbits(p, n, k)[1])
    # the representative is each orbit's least point, and orbits are
    # ordered by it
    assert np.all(np.diff(reps) > 0)
    assert [int(np.flatnonzero(orbit == i)[0]) for i in range(count)] == reps.tolist()
    units = [element(ctx, c) for c in range(2, p)] if torus else []
    owner = {}
    for idx, members in enumerate(walked_orbits(p, n, k, torus)):
        assert not owner.keys() & set(members)
        owner.update(dict.fromkeys(members, idx))
        members = set(members)
        for pt in members:
            assert tuple((element(ctx, c) ** p).to_index() for c in pt) in members
            for i in range(n):
                for j in range(i + 1, n):
                    swapped = list(pt)
                    swapped[i], swapped[j] = swapped[j], swapped[i]
                    assert normalize_point(swapped, ctx) in members, (pt, i, j)
                for c in units:
                    scaled = list(pt)
                    scaled[i] = (element(ctx, pt[i]) * c).to_index()
                    assert normalize_point(scaled, ctx) in members, (pt, i, c)
    assert owner.keys() == order.keys()
    # GF(p)-rational points with one coordinate multiset are permutations
    # of each other, so they share an orbit
    rational = {}
    for pt in order:
        if all(c < p for c in pt):
            rational.setdefault(tuple(sorted(pt)), set()).add(owner[pt])
    assert all(len(owners) == 1 for owners in rational.values())


@pytest.mark.parametrize("torus", [False, True], ids=["plain", "torus"])
@pytest.mark.parametrize("p, n, k", WALKED_FIELDS)
def test_point_orbits_match_the_breadth_first_walk(p, n, k, torus):
    # same partition, same representatives (each orbit's first point) and
    # same orbit order as the walk over sets of tuples that labels replaced
    got, ref = walked_orbits(p, n, k, torus), oracles.point_orbits(p, n, k, torus)
    assert [set(orbit) for orbit in got] == [set(orbit) for orbit in ref]
    assert [orbit[0] for orbit in got] == [orbit[0] for orbit in ref]


@pytest.mark.parametrize("p, n, k, torus, count", [
    (3, 3, 6, False, 14949), (3, 3, 6, True, 3812), (3, 2, 12, True, 11144),
    (5, 2, 8, True, 6172)], ids=["GF729-n3", "GF729-n3-torus", "GF3^12-n2-torus",
                                 "GF5^8-n2-torus"])
def test_orbit_counts_at_gate_scale(p, n, k, torus, count):
    # walks of a few hundred thousand points
    points, orbit, reps = variety._point_orbits.__wrapped__(p, n, k, torus=torus)
    assert len(points) == (p**(k * n) - 1) // (p**k - 1)
    assert len(reps) == count == orbit.max() + 1


@pytest.mark.parametrize("build, mu, n, p, k", [
    (restricted_actions, (3, 3, 3), 3, 3, 2),
    (restricted_actions, (8, 2), 2, 5, 2),
    (perm_module_actions, (5, 1), 2, 3, 2)], ids=["S333-GF9", "S82-GF25", "M51-GF9"])
def test_freeness_is_invariant_under_gfp_scaling(build, mu, n, p, k):
    # the reason enumerate_locus may walk the GF(p)^* torus: freeness at
    # alpha equals freeness at every coordinate-wise GF(p)^*-scaled alpha
    acts = build(mu, n, p)
    ctx = FieldCtx.get(p, k)
    units = [element(ctx, c) for c in range(1, p)]
    for pt in projective_points(ctx, n):
        coords = tuple(element(ctx, c) for c in pt)
        free = is_free_at(acts, coords)
        for scales in itertools.product(units, repeat=n):
            scaled = tuple(x * s for x, s in zip(coords, scales))
            assert is_free_at(acts, scaled) == free, (pt, scales)


def test_scaling_changes_rank_vectors_but_not_freeness():
    # why sweep_rank_vectors keeps the torus out of its walk: over GF(9),
    # doubling x_3 changes the rank vector of S^(3,3,3) at (1,1,1) and (1,1,2)
    acts = restricted_actions((3, 3, 3), 3, 3)
    ctx = FieldCtx.get(3, 2)
    changed = []
    for pt in projective_points(ctx, 3):
        coords = tuple(element(ctx, c) for c in pt)
        scaled = coords[:2] + (coords[2] * 2,)
        before, after = rank_vector_at(acts, coords), rank_vector_at(acts, scaled)
        assert before.is_free == after.is_free, pt
        if before != after:
            changed.append(pt)
    assert changed == [(1, 1, 1), (1, 1, 2)]


def test_locus_331_empty_everywhere_sampled():
    acts = restricted_actions((5, 3, 1), 3, 3)
    s2 = enumerate_locus(acts, 2)
    assert s2.is_empty and s2.total_projective_points == 91
    s3 = enumerate_locus(acts, 3)
    assert s3.is_empty and s3.total_projective_points == 757
    assert classify(acts, 3).kind == "zero"
    assert classify_stable(acts).est_dim == 0


def test_locus_333_matches_quartic_zero_set():
    acts = restricted_actions((3, 3, 3), 3, 3)
    for k in (1, 2):
        sample = enumerate_locus(acts, k)
        ctx = FieldCtx.get(3, k)
        for pt in projective_points(ctx, 3):
            coords = tuple(element(ctx, c) for c in pt)
            assert (not poly_eval(QUARTIC, coords)) == (pt in sample.points)
    s1 = enumerate_locus(acts, 1)
    assert len(s1.points) == 7
    assert (1, 1, 1) in s1.points


def test_trivial_module_locus_is_full():
    acts = restricted_actions((9,), 3, 3)
    s = enumerate_locus(acts, 1)
    assert s.is_full and len(s.points) == 13
    cls = classify(acts, 1)
    assert cls.kind == "full" and cls.est_dim == 3
    # dim not divisible by p: same short-circuit
    s81 = enumerate_locus(restricted_actions((8, 1), 3, 3), 2)
    assert s81.is_full


def test_classify_axes_union_72():
    acts = restricted_actions((7, 2), 3, 3)
    cls = classify_stable(acts)
    assert cls.kind == "axes-union" and cls.est_dim == 1
    s = enumerate_locus(acts, 2)
    assert s.points == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_classify_hypersurface_333():
    acts = restricted_actions((3, 3, 3), 3, 3)
    cls = classify_stable(acts)
    assert cls.kind == "hypersurface" and cls.est_dim == 2
    assert cls.form.proportional_to(QUARTIC)
    assert template_check(cls.form, 3)


def test_conjugate_pair_loci_agree():
    a = restricted_actions((7, 2), 3, 3, use_conjugate=False)
    sa = enumerate_locus(a, 1)
    variety._LOCUS_MEMO.clear()  # force an independent sweep
    b = restricted_actions((2, 2, 1, 1, 1, 1, 1), 3, 3, use_conjugate=False)
    sb = enumerate_locus(b, 1)
    assert sa.points == sb.points


def test_locus_memo_is_a_bounded_lru(monkeypatch):
    # the memo keeps the _LOCUS_MEMO_SIZE most recently used samples; a hit
    # makes its entry the most recent, and the oldest is dropped first
    monkeypatch.setattr(variety, "_LOCUS_MEMO", {})
    monkeypatch.setattr(variety, "_LOCUS_MEMO_SIZE", 2)
    acts = {mu: restricted_actions(mu, 2, 2) for mu in ((3, 1), (2, 2), (4,))}
    first = enumerate_locus(acts[(3, 1)], 1)
    enumerate_locus(acts[(2, 2)], 1)
    assert enumerate_locus(acts[(3, 1)], 1) is first  # hit: now the most recent
    enumerate_locus(acts[(4,)], 1)
    assert [key[1] for key in variety._LOCUS_MEMO] == [(3, 1), (4,)]
    assert enumerate_locus(acts[(3, 1)], 1) is first
    enumerate_locus(acts[(2, 2)], 1)
    assert [key[1] for key in variety._LOCUS_MEMO] == [(3, 1), (2, 2)]


def test_interpolation_spaces():
    acts = restricted_actions((5, 3, 1), 3, 3)
    empty = enumerate_locus(acts, 2)
    lin = interpolate_forms(empty, 1)
    assert len(lin) == 3  # every linear form vanishes on nothing
    full = enumerate_locus(restricted_actions((8, 1), 3, 3), 3)
    assert full.is_full
    assert interpolate_forms(full, 4) == []
    s3 = enumerate_locus(restricted_actions((3, 3, 3), 3, 3), 3)
    quartics = homogeneous_vanishing_forms(s3, 4)
    assert len(quartics) == 1 and quartics[0].proportional_to(QUARTIC)
    assert len(interpolate_forms(s3, 4)) == 1
    for d in (1, 2, 3):
        assert homogeneous_vanishing_forms(s3, d) == []


def test_estimate_dimension_examples():
    def est(mu, k_list):
        return estimate_dimension(restricted_actions(mu, 3, 3), k_list)
    assert est((3, 3, 3), [1, 2, 3]) == 2
    assert est((7, 2), [2, 3]) == 1
    assert est((9,), [1, 2]) == 3
    assert est((5, 3, 1), [1, 2]) == 0
    with pytest.raises(InconsistentCounts):
        est((9,), [2])


def test_point_gate():
    acts = restricted_actions((3, 3, 3), 3, 3)
    with pytest.raises(TooManyPoints):
        enumerate_locus(acts, 13)


def test_point_gate_comes_before_any_field(monkeypatch):
    # GF(3^9) is a valid field; the gate must refuse its 3-space before
    # any context or table is looked up
    monkeypatch.setattr(variety, "FieldCtx", None)
    with pytest.raises(TooManyPoints):
        variety._point_orbits(3, 3, 9)


@pytest.mark.parametrize("k", [0, -1])
def test_extension_degree_below_one_is_refused(k):
    acts = restricted_actions((3, 3, 3), 3, 3)
    with pytest.raises(PreconditionViolated):
        enumerate_locus(acts, k)
    with pytest.raises(PreconditionViolated):
        variety._point_orbits(5, 1, k)


@pytest.mark.parametrize("k", [10**5, 10**20])
def test_point_gate_forms_no_power_of_a_large_degree(monkeypatch, k):
    # p^k is not formed: the gate is decided in bounded integers, and its
    # message names the degree, not the number of points
    monkeypatch.setattr(variety, "FieldCtx", None)
    with pytest.raises(TooManyPoints) as err:
        variety._point_orbits(3, 3, k)
    assert len(str(err.value)) < 100


@pytest.mark.parametrize("p,k", [(97, 10), (41, 12)])
def test_one_point_walk_past_int64(p, k):
    # n = 1 over a field with p^k >= 2^63: the one projective point (1) is
    # its one orbit, found, looked up and swept without forming a power of q
    assert p**k >= 2**63
    for torus in (False, True):
        points, orbit, reps = variety._point_orbits(p, 1, k, torus=torus)
        assert (points.tolist(), orbit.tolist(), reps.tolist()) == ([[1]], [0], [0])
    assert variety._index(np.ones((1, 1), np.int32), p**k).tolist() == [0]
    assert list(projective_points(FieldCtx.get(p, k), 1)) == [(1,)]
    acts = restricted_actions((p,), 1, p)
    assert enumerate_locus(acts, k).points == {(1,)}
    (pt, free, rv), = sweep_rank_vectors(acts, k)
    assert (pt, free, rv.ranks[0]) == ((1,), False, 1)


def test_no_walk_above_the_table_cap(monkeypatch):
    # GF(7^7) has no tables; its 823,544 points of P^1 pass the gate, but
    # the walk is refused before any context or table is looked up
    monkeypatch.setattr(variety, "FieldCtx", None)
    with pytest.raises(TooManyPoints):
        variety._point_orbits(7, 2, 7)


def test_sweep_above_the_table_cap_is_one_point():
    # n = 1 over GF(5^12), above the table cap: the one projective point
    acts = restricted_actions((3, 2), 1, 5)
    assert acts.dim == 5
    (pt, free, rv), = sweep_rank_vectors(acts, 12)
    assert pt == (1,)
    assert free == rv.is_free == is_free_at(acts, (FieldCtx.get(5, 12).one,))
    assert enumerate_locus(acts, 12).points == (set() if free else {(1,)})


@pytest.mark.parametrize("p, n, k, torus", [
    (3, 3, 3, True), (3, 3, 2, False), (2, 4, 3, False), (5, 2, 2, True)])
def test_kept_orbit_walk_matches_a_fresh_walk(p, n, k, torus):
    kept = variety._point_orbits(p, n, k, torus=torus)
    assert variety._point_orbits(p, n, k, torus=torus) is kept
    fresh = variety._point_orbits.__wrapped__(p, n, k, torus=torus)
    assert len(kept) == len(fresh) == 3
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(kept, fresh))
    # the kept arrays are shared by every later sweep, so none is writable
    assert not any(a.flags.writeable for a in kept)


def test_sweep_rank_vectors_333():
    acts = restricted_actions((3, 3, 3), 3, 3)
    rows = list(sweep_rank_vectors(acts, 1))
    assert len(rows) == 13
    frees = [pt for pt, free, _ in rows if free]
    assert len(frees) == 6
    for pt, free, rv in rows:
        if free:
            assert rv.ranks == (42, 28, 14, 0)
        else:
            assert rv.ranks[2] < 14


AXES_2 = {(0, 1), (1, 0)}
AXES_3 = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}


@pytest.mark.parametrize("build, mu, n, p, k, locus", [
    (restricted_actions, (3, 3, 3), 3, 3, 2, None),
    (restricted_actions, (7, 2), 3, 3, 2, None),
    (restricted_actions, (5, 3, 1), 3, 3, 2, None),
    # 757 points in 53 orbits, most of them mixing S_3 and the Frobenius
    (restricted_actions, (7, 2), 3, 3, 3, AXES_3),
    # a hypersurface locus over GF(27): 19 torus orbits, most of them mixed
    (restricted_actions, (3, 3, 3), 3, 3, 3, None),
    (restricted_actions, (4, 4), 4, 2, 3, None),
    # p=5: the only prime here where N^(p-1) takes more than one product
    (restricted_actions, (8, 2), 2, 5, 2, AXES_2),
    (perm_module_actions, (3, 1), 2, 2, 2, AXES_2),
    (perm_module_actions, (5, 1), 2, 3, 2, AXES_2),
], ids=["S333-p3", "S72-p3", "S531-p3", "S72-p3-GF27", "S333-p3-GF27", "S44-p2", "S82-p5",
        "M31-p2", "M51-p3"])
def test_is_free_at_matches_rank_vectors(monkeypatch, build, mu, n, p, k, locus):
    # is_free_at decides freeness for enumerate_locus; the full rank vector
    # (RankVector.is_free of rank_vector_at) is its reference at every point
    acts = build(mu, n, p)
    monkeypatch.setattr(variety, "_LOCUS_MEMO", {})
    sample = enumerate_locus(acts, k)
    ctx = FieldCtx.get(p, k)
    points = list(projective_points(ctx, n))
    assert sample.total_projective_points == len(points)
    for pt in points:
        coords = tuple(ctx.element(c) for c in pt)
        free = rank_vector_at(acts, coords).is_free
        assert is_free_at(acts, coords) == free == (pt not in sample.points), pt
    if locus is not None:
        assert sample.points == locus


def _random_form(rng, p, n, terms, max_degree):
    exps = [tuple(int(e) for e in rng.integers(0, max_degree + 1, n)) for _ in range(terms)]
    return MultiPoly(p=p, nvars=n, terms={e: int(rng.integers(1, p)) for e in exps})


def test_poly_eval_matches_direct_expansion():
    ctx = FieldCtx.get(3, 2)
    f = MultiPoly(3, 3, {(2, 1, 0): 2, (0, 0, 3): 1, (1, 1, 1): 1})
    rng = np.random.default_rng(9)
    for _ in range(10):
        pt = [random_element(ctx, rng) for _ in range(3)]
        direct = element(ctx, 0)
        for (e1, e2, e3), c in f.terms.items():
            direct = direct + element(ctx, c) * pt[0]**e1 * pt[1]**e2 * pt[2]**e3
        assert poly_eval(f, pt) == direct
    with pytest.raises(ArityMismatch):
        poly_eval(f, pt[:2])


def _check_forms_against_poly_eval(ctx, pts, forms):
    """``jordan._monomial_values`` on the coefficient rows of these code
    points, for every monomial in 3 variables of degree <= 4, and
    ``variety._form_values`` of each form, against ``poly_eval``."""
    coords = [tuple(element(ctx, c) for c in pt) for pt in pts]
    exps = [tuple(e) for d in range(5) for e in symrank.exponents(3, d)[:, ::-1].tolist()]
    mono = jordan._monomial_values(ctx.digits(pts), ctx, np.array(exps))
    assert mono.shape == (len(pts), len(exps), ctx.k)
    for col, e in enumerate(exps):
        for row, x in enumerate(coords):
            assert tuple(mono[row, col]) == poly_eval(MultiPoly.monomial(ctx.p, e), x).coeffs
    for f in forms:
        values = variety._form_values(f, pts, ctx)
        for row, x in enumerate(coords):
            assert tuple(values[row]) == poly_eval(f, x).coeffs, (f, pts[row])


@pytest.mark.parametrize("k, affine", [(2, True), (3, False)], ids=["GF9", "GF27"])
def test_forms_on_code_tables_match_poly_eval(k, affine):
    # interpolation evaluates monomials and forms on the coefficient rows of
    # code points, multiplied as polynomials folded by the modulus;
    # poly_eval on FieldElements is the reference.  Over GF(9) every
    # affine point, zero coordinates included; over GF(27) every
    # projective point
    ctx = FieldCtx.get(3, k)
    pts = (list(itertools.product(range(ctx.q), repeat=3)) if affine
           else list(projective_points(ctx, 3)))
    rng = np.random.default_rng(k)
    forms = [QUARTIC] + [_random_form(rng, 3, 3, terms, 4) for terms in (2, 5, 8)]
    _check_forms_against_poly_eval(ctx, pts, forms)


def test_forms_match_poly_eval_over_a_field_without_tables():
    # GF(5^12) is above the table cap, and forms are evaluated there all
    # the same: the evaluation reads no log tables
    ctx = FieldCtx.get(5, 12)
    assert ctx.q > TABLE_CAP
    rng = np.random.default_rng(512)
    pts = [tuple(int(c) for c in rng.integers(0, ctx.q, 3)) for _ in range(6)]
    pts += [(0, int(rng.integers(1, ctx.q)), 1), (1, 0, 0)]
    forms = [_random_form(rng, 5, 3, terms, 4) for terms in (1, 3, 6)]
    _check_forms_against_poly_eval(ctx, pts, forms)
    assert "tables" not in vars(ctx)


def test_forms_are_evaluated_in_bounded_batches_of_points(monkeypatch):
    # jordan._monomial_values takes the points in batches whose
    # (batch, M, k, k) products stay within jordan._EVAL_BYTES: over GF(81)
    # a batch of quartics takes 546 of the 6643 projective points.  Values
    # and vanishing forms do not depend on how the points are batched:
    # over GF(27), one point a batch, or seven
    exps = symrank.exponents(3, 4)[:, ::-1]
    evaluate, batches = jordan._monomial_values, []

    def spy(rows, ctx, exps):
        batches.append(len(rows))
        return evaluate(rows, ctx, exps)
    monkeypatch.setattr(jordan, "_monomial_values", spy)
    ctx = FieldCtx.get(3, 4)
    rows = ctx.digits(list(projective_points(ctx, 3)))
    per_point = 8 * len(exps) * ctx.k**2
    assert np.array_equal(spy(rows, ctx, exps)[::97], evaluate(rows[::97], ctx, exps))
    assert batches[0] == len(rows) == sum(batches[1:]) and len(batches) > 2
    assert max(batches[1:]) * per_point <= jordan._EVAL_BYTES < (max(batches[1:]) + 1) * per_point
    monkeypatch.undo()

    ctx = FieldCtx.get(3, 3)
    pts = list(projective_points(ctx, 3))
    sample = enumerate_locus(restricted_actions((3, 3, 3), 3, 3), 3)

    def forms():
        return (variety._form_values(QUARTIC, pts, ctx).tolist(),
                variety.homogeneous_vanishing_forms(sample, 4))
    want = forms()
    assert want[1]
    for size in (1, 7):
        monkeypatch.setattr(jordan, "_EVAL_BYTES", size * 8 * len(exps) * ctx.k**2)
        assert forms() == want


def _check_sweep_against_direct_evaluation(acts, k, total):
    # sweep_rank_vectors evaluates one point per Frobenius x S_n orbit and
    # copies its rank vector to the rest; rank_vector_at at every point is
    # the reference
    ctx = FieldCtx.get(acts.p, k)
    rows = list(sweep_rank_vectors(acts, k))
    assert len(rows) == total
    assert sorted(pt for pt, _, _ in rows) == sorted(projective_points(ctx, acts.n))
    for pt, free, rv in rows:
        direct = rank_vector_at(acts, tuple(ctx.element(c) for c in pt))
        assert rv == direct and free == direct.is_free, pt


@pytest.mark.parametrize("mu, p, k, total", [((3, 3, 3), 3, 2, 91),
                                              ((4, 4), 2, 3, 585),
                                              ((7, 2), 3, 3, 757)])
def test_sweep_rank_vectors_matches_direct_evaluation(mu, p, k, total):
    acts = restricted_actions(mu, sum(mu) // p, p)
    _check_sweep_against_direct_evaluation(acts, k, total)


def test_sweep_rank_vectors_matches_direct_evaluation_with_fixed_letters():
    # M^(5,3) at n=3, p=2: two letters lie outside the p-cycles
    acts = perm_module_actions((5, 3), 3, 2)
    _check_sweep_against_direct_evaluation(acts, 2, 21)


def test_classify_builds_no_module(monkeypatch):
    # classify reads every count it needs from the module it is given
    acts = restricted_actions((3, 3, 3), 3, 3)
    built = []
    real = spechtmod.standard_basis
    monkeypatch.setattr(spechtmod, "standard_basis",
                        lambda *args: built.append(args) or real(*args))
    monkeypatch.setattr(variety, "_LOCUS_MEMO", {})
    cls = classify(acts, 2)
    assert (cls.kind, cls.est_dim) == ("other", 1)
    assert built == []


def test_template_check_shapes():
    assert template_check(QUARTIC, 3)
    assert not template_check(
        MultiPoly(p=3, nvars=3, terms={(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}), 3)
    assert not template_check(MultiPoly(p=3, nvars=3, terms={(3, 3, 3): 1}), 3)
    # n=2 with a nonzero cofactor: (x1 x2 x3)^2 * x1^2 + hatted sum
    good = MultiPoly(p=3, nvars=3, terms={(4, 2, 2): 1, (0, 4, 4): 1,
                                          (4, 0, 4): 1, (4, 4, 0): 1})
    assert template_check(good, 3)
    # remainder not divisible by (x1 x2 x3)^(p-1)
    bad = MultiPoly(p=3, nvars=3, terms={(0, 2, 2): 1, (2, 0, 2): 1,
                                         (2, 2, 0): 1, (3, 1, 0): 1})
    assert not template_check(bad, 3)
    # hatted coefficients must agree
    uneven = MultiPoly(p=3, nvars=3, terms={(0, 2, 2): 1, (2, 0, 2): 2,
                                            (2, 2, 0): 1})
    assert not template_check(uneven, 3)
    # wrong variable count
    assert not template_check(MultiPoly(p=3, nvars=2, terms={(2, 2): 1}), 3)


def test_catalogue_spot_checks():
    # the full table is exercised end to end by the acceptance run; spot
    # check the catalogue's own coherence here
    assert CATALOGUE_P3_9[(5, 3, 1)] == ("zero", 0)
    assert CATALOGUE_P3_9[(3, 3, 3)] == ("hypersurface", 2)
    kinds = [kind for kind, _ in CATALOGUE_P3_9.values()]
    assert kinds.count("full") == 11
    assert kinds.count("axes-union") == 3
    assert len(CATALOGUE_P3_9) == 16
