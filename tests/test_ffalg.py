import numpy as np
import pytest

from oracles import _blowup_rank, blowup, element, random_element, random_point, slice_matmul
from spechtvar import ffalg, gfp, gfq, jordan
from spechtvar.errors import ArityMismatch, NonTermination, PreconditionViolated
from spechtvar.ffalg import FieldCtx, MultiPoly


# -- field construction ------------------------------------------------------

def brute_has_root(coeffs, p):
    return any(sum(c * x**i for i, c in enumerate(coeffs)) % p == 0 for x in range(p))


def test_modulus_is_deterministic_and_least():
    assert FieldCtx.get(2, 1).modulus == (0, 1)
    assert FieldCtx.get(3, 2).modulus == (1, 0, 1)   # t^2 + 1, code 1
    assert FieldCtx.get(2, 3).modulus == (1, 1, 0, 1)  # t^3 + t + 1, code 3
    # nothing with a smaller code is irreducible (degree <= 3: no roots suffices)
    assert brute_has_root((0, 0, 0, 1), 2)
    assert brute_has_root((1, 0, 0, 1), 2)
    assert brute_has_root((0, 1, 0, 1), 2)
    assert not brute_has_root((1, 1, 0, 1), 2)


# codes sum(c_i * p^i) of the moduli t^k + ... + c_0 for k = 1, 2, ...:
# element codes, and so every printed point, depend on them
MODULUS_CODES = {
    2: [0, 3, 3, 3, 5, 3, 3, 27, 3, 9, 5, 9],
    3: [0, 1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11],
    5: [0, 2, 6, 2, 21, 7, 6, 2, 38, 33, 11, 9],
    7: [0, 1, 2, 8, 10, 2, 43, 10],
}


@pytest.mark.parametrize("p", sorted(MODULUS_CODES))
def test_moduli_match_golden_codes(p):
    for k, code in enumerate(MODULUS_CODES[p], start=1):
        ctx = FieldCtx.get(p, k)
        assert ctx.modulus == tuple(code // p**i % p for i in range(k)) + (1,), (p, k)
        # reduction columns are t^0 .. t^(2k-2), and tmats[c] multiplies by t^c
        assert ctx.reduction.shape == (k, 2 * k - 1)
        for c in range(k):
            assert np.array_equal(ctx.tmats[c], ctx.reduction[:, c:c + k])
            assert tuple(ctx.tmats[c][:, 0]) == ctx.element(p**c).coeffs


def test_largest_prime_with_int64_products():
    # k (p-1)^2 < 2^63 at p = 2^31 - 1, k = 2: the field is built, and
    # t^2 + 1 is irreducible as p = 3 mod 4
    ctx = FieldCtx(2**31 - 1, 2)
    assert ctx.modulus == (1, 0, 1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = random_element(ctx, rng)
        if a:
            assert a * a.inverse() == ctx.one
    assert element(ctx, [0, 1]) ** 2 == -element(ctx, 1)


def largest_sum(p, k):
    """The largest int64 sum of a field's arithmetic: k (p-1)^2 in a product
    of k x k matrices, k (p-1) + k (k-1)/2 (p-1)^2 in a product of rows."""
    return max(k * (p - 1) ** 2, k * (p - 1) + k * (k - 1) // 2 * (p - 1) ** 2)


# the largest primes the int64 guard admits at k = 1..4, and the next primes
LARGEST_PRIMES = {1: (3037000493, 3037000507), 2: (2**31 - 1, 2**31 + 11),
                  3: (1753413037, 1753413059), 4: (1239850223, 1239850277)}


def test_int64_overflow_is_refused_before_any_build(monkeypatch):
    # k (p-1)^2 >= 2^63: refused before the modulus search starts
    def search(p, k):
        raise AssertionError(f"modulus search started for GF({p}^{k})")
    monkeypatch.setattr(ffalg, "_least_irreducible", search)
    with pytest.raises(PreconditionViolated, match="2\\^63"):
        FieldCtx(2**31 - 1, 3)


@pytest.mark.parametrize("k", sorted(LARGEST_PRIMES))
def test_int64_guard_stops_at_the_largest_sum(monkeypatch, k):
    # a largest sum of 2^63 or more is refused before the modulus search
    # starts, GF(p) included; the largest prime below it gets to the search
    largest, above = LARGEST_PRIMES[k]
    assert largest_sum(largest, k) < 2**63 <= largest_sum(above, k)
    assert ffalg._is_prime(largest) and ffalg._is_prime(above)
    assert not any(ffalg._is_prime(q) for q in range(largest + 1, above))
    started = []

    def search(p, k):
        started.append(p)
        raise NonTermination(f"modulus search started for GF({p}^{k})")
    monkeypatch.setattr(ffalg, "_least_irreducible", search)
    with pytest.raises(PreconditionViolated, match="2\\^63"):
        FieldCtx(above, k)
    assert started == []
    with pytest.raises(NonTermination):
        FieldCtx(largest, k)
    assert started == [largest]


def test_primality_is_decided_exactly_below_the_bound():
    # Miller-Rabin on the first 13 primes agrees with trial division on small
    # numbers, Carmichael numbers included, and rejects psi_12, the least
    # strong pseudoprime to the first 12 prime bases; psi_13 is the bound
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))
    assert [n for n in range(20000) if ffalg._is_prime(n)] == [
        n for n in range(20000) if trial(n)]
    for composite in (561, 1105, 41041, 3215031751, 318665857834031151167461,
                      (10**9 + 7) * (10**9 + 9), (2**19 - 1) * (2**61 - 1)):
        assert not ffalg._is_prime(composite)
    for prime in (2**31 - 1, 2**61 - 1, 10**18 + 3, 2**64 - 59):
        assert ffalg._is_prime(prime)
    assert ffalg._is_prime(ffalg._MR_BOUND - 2) is False  # decided, not refused
    for p in (ffalg._MR_BOUND, 10**400):
        with pytest.raises(PreconditionViolated, match="not below"):
            ffalg._is_prime(p)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_products_and_inverses_agree_with_log_tables(p, k):
    # the tests' element arithmetic (the oracle) against the package's tables
    ctx = FieldCtx.get(p, k)
    t = ctx.tables
    elems = [element(ctx, c) for c in range(ctx.q)]
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            assert (elems[a] * elems[b]).to_index() == t.exp[t.log[a] + t.log[b]]
        assert elems[a] * elems[a].inverse() == ctx.one
        assert elems[a] * ctx.zero == ctx.zero
    with pytest.raises(ZeroDivisionError):
        elems[0].inverse()


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (3, 1)])
def test_field_axioms(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        c = random_element(ctx, rng)
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert (a + b) ** p == a**p + b**p  # Frobenius is additive
        if a:
            assert a * a.inverse() == ctx.one
            assert a ** (ctx.q - 1) == ctx.one


def test_element_enumeration_roundtrip():
    ctx = FieldCtx.get(3, 2)
    elems = [ctx.element(code) for code in range(ctx.q)]
    assert len(elems) == 9
    assert len(set(elems)) == 9
    for i, e in enumerate(elems):
        assert e.to_index() == i
        assert ctx.element(i) == e


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_digits_are_the_coefficients_of_codes(p, k):
    # every code of GF(4), GF(8), GF(9), GF(25) and GF(27): its digits are
    # its element's coefficients, which encode back to the code; an array
    # of codes gives one row of k digits per code
    ctx = FieldCtx.get(p, k)
    codes = np.arange(ctx.q)
    for c in codes.tolist():
        assert tuple(ctx.digits(c).tolist()) == ctx.element(c).coeffs
        assert ctx.element(ctx.digits(c).tolist()).to_index() == c
    points = codes[::-1].reshape(-1, 1) if ctx.q % 2 else codes.reshape(-1, 2)
    got = ctx.digits(points)
    assert got.dtype == np.int64 and got.shape == points.shape + (k,)
    assert got.tolist() == [[list(ctx.element(c).coeffs) for c in row]
                            for row in points.tolist()]


def test_element_codes_are_exact_in_large_fields():
    # element() splits a code into digits with Python ints, and digits()
    # by repeated division: in GF(59^12) p^(k-1) is above 2^63, and in
    # GF(101^10) so are some codes
    ctx = FieldCtx.get(59, 12)
    assert ctx.element(1) == ctx.one and element(ctx, 1) + 1 == ctx.element(2)
    assert ctx.element(ctx.q - 1).coeffs == (58,) * 12
    codes = [1, 59**10 + 2, 2**63 - 1]
    assert ctx.digits(codes).tolist() == [list(ctx.element(c).coeffs) for c in codes]
    ctx = FieldCtx.get(101, 10)
    for code in (2**63, 2**63 + 5, ctx.q - 1):
        assert ctx.element(code).to_index() == code


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_row_products_agree_with_element_products(p, k):
    # every pair of elements of GF(4), GF(8), GF(9), GF(25) and GF(27), as
    # one broadcast product of (q, 1, k) by (1, q, k) rows
    ctx = FieldCtx.get(p, k)
    rows = ctx.digits(np.arange(ctx.q))
    got = ctx.mul_rows(rows[:, None], rows[None, :])
    assert got.shape == (ctx.q, ctx.q, k)
    elems = [element(ctx, c) for c in range(ctx.q)]
    assert got.tolist() == [[list((a * b).coeffs) for b in elems] for a in elems]


@pytest.mark.parametrize("p,k", [(10**9 + 7, 2), (59, 12), (2**31 - 1, 2), (3037000493, 1),
                                 (2097143, 2), (2097169, 2)])
def test_row_products_are_exact_in_large_fields(p, k):
    # random pairs where p is large for k: (2**31 - 1, 2) and (3037000493, 1)
    # are the largest primes the int64 guard admits at k = 2 and k = 1;
    # 2097143 is the largest prime whose unreduced pairwise products fold
    # below 2^63 at k = 2, and 2097169, the next, needs them reduced
    assert FieldCtx.get(p, k).reduce_pairs == (p in (10**9 + 7, 2**31 - 1, 2097169))
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(p % 1000 + k)
    pairs = [(random_element(ctx, rng), random_element(ctx, rng)) for _ in range(200)]
    pairs.append((element(ctx, [p - 1] * k), element(ctx, [p - 1] * k)))
    x = np.array([a.coeffs for a, _ in pairs])
    y = np.array([b.coeffs for _, b in pairs])
    assert ctx.mul_rows(x, y).tolist() == [list((a * b).coeffs) for a, b in pairs]
    if (p, k) == (10**9 + 7, 2):
        # (-1 - t)^2 = 1 + 2t + t^2 = 2t, as t^2 = -1
        assert ctx.mul_rows(np.array([p - 1, p - 1]), np.array([p - 1, p - 1])).tolist() == [0, 2]


# (p, k, n) of the draw pins: the fields generic_type draws from, GF(p)
# and GF(p^2) as the acceptance checks draw, and a single coordinate; over
# GF(2)^3 one draw in eight is the zero point and is drawn again
DRAWS = [(2, 8, 5), (3, 8, 3), (5, 8, 2), (3, 12, 4), (2, 1, 3), (3, 2, 4), (5, 12, 2), (2, 12, 1)]


@pytest.mark.parametrize("p,k,n", DRAWS)
def test_random_rows_are_the_element_draws(p, k, n):
    # one draw of (n, k) digits is n draws of k element coefficients, with
    # the same retry on the zero point: equal rows, and the generator is
    # left in the same state
    ctx = FieldCtx.get(p, k)
    rows_rng, elems_rng = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(50):
        rows = ctx.random_rows(rows_rng, n)
        assert rows.dtype == np.int64 and rows.shape == (n, k) and rows.any()
        assert rows.tolist() == [list(x.coeffs) for x in random_point(ctx, elems_rng, n)]
    assert rows_rng.bit_generator.state == elems_rng.bit_generator.state


def test_mul_matrix_is_ring_hom():
    ctx = FieldCtx.get(5, 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        def mat(x):
            return ctx.mul_matrix(np.array(x.coeffs))
        ma, mb = mat(a), mat(b)
        assert np.array_equal(mat(a * b), (ma @ mb) % 5)
        assert np.array_equal(mat(a + b), (ma + mb) % 5)
        # column 0 recovers the coefficient vector
        assert tuple(ma[:, 0]) == a.coeffs


# -- ranks over GF(p^k): the GF(q) kernel against the companion blowup -------

def naive_rank_ff(rows) -> int:
    """Textbook elimination using only the oracle's element arithmetic."""
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    rk, col = 0, 0
    while rk < len(rows) and col < width:
        piv = next((r for r in range(rk, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        inv = rows[rk][col].inverse()
        rows[rk] = [x * inv for x in rows[rk]]
        for r in range(len(rows)):
            if r != rk and rows[r][col]:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[rk])]
        rk += 1
        col += 1
    return rk


def random_entries(ctx, rows, cols, rng):
    return [[random_element(ctx, rng) for _ in range(cols)] for _ in range(rows)]


def entries_matmul(ctx, a, b):
    return [[sum((a[i][m] * b[m][j] for m in range(len(b))), element(ctx, 0))
             for j in range(len(b[0]))] for i in range(len(a))]


def point_slices(ctx, entries) -> np.ndarray:
    """Slices (k, d, d) of a square GF(p^k) matrix M, evaluated as jordan's N.

    M = sum_c t^c M_c is the operator sum_c alpha_c M_c at the point
    alpha = (t^0, ..., t^(k-1)), with the coefficient slices M_c as the
    generator matrices (``jordan._evaluate`` of their stack).
    """
    slices = np.array([[[e.coeffs[c] for e in row] for row in entries]
                       for c in range(ctx.k)], dtype=np.float32)
    point = tuple(ctx.element([int(c == j) for j in range(ctx.k)]) for c in range(ctx.k))
    rows, op_ctx = jordan._coerce_point(point, ctx.k, ctx.p)
    assert op_ctx.k == ctx.k
    return jordan._evaluate(slices, rows[None], ctx.p)[0].astype(np.int64)


def rank_ff(ctx, entries) -> int:
    """Rank by the GF(q) kernel, checked against the blowup on the way."""
    op = point_slices(ctx, entries)
    r = _blowup_rank(op, ctx)
    assert gfq.rank(op, ctx) == r
    return r


def test_identity_rank_over_gf27():
    ctx = FieldCtx.get(3, 3)
    ident = [[ctx.one if i == j else ctx.zero for j in range(4)] for i in range(4)]
    assert rank_ff(ctx, ident) == 4


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (5, 1), (2, 3)])
def test_rank_matches_naive_elimination(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(100 * p + k)
    for _ in range(8):
        m = random_entries(ctx, 6, 6, rng)
        assert rank_ff(ctx, m) == naive_rank_ff(m)
        # planted low rank: outer product structure
        u = random_entries(ctx, 6, 2, rng)
        v = random_entries(ctx, 2, 6, rng)
        prod = entries_matmul(ctx, u, v)
        assert rank_ff(ctx, prod) == naive_rank_ff(prod)
        assert rank_ff(ctx, prod) <= 2


def test_blowup_is_multiplicative():
    # the slice product (the tests' oracle) is the product over GF(9), and
    # its blowup is the product of the blowups
    ctx = FieldCtx.get(3, 2)
    rng = np.random.default_rng(11)
    a = random_entries(ctx, 4, 4, rng)
    b = random_entries(ctx, 4, 4, rng)
    prod = slice_matmul(point_slices(ctx, a), point_slices(ctx, b), ctx)
    assert np.array_equal(prod, point_slices(ctx, entries_matmul(ctx, a, b)))
    lhs = blowup(prod, ctx)
    rhs = gfp.mod_matmul(blowup(point_slices(ctx, a), ctx),
                         blowup(point_slices(ctx, b), ctx), 3)
    assert np.array_equal(lhs, rhs)


# -- polynomials -------------------------------------------------------------

def test_multipoly_arithmetic():
    f = MultiPoly(3, 2, {(1, 0): 1, (0, 1): 2})
    g = MultiPoly(3, 2, {(1, 0): 1, (0, 1): 1})
    h = f * g
    # (x + 2y)(x + y) = x^2 + 3xy + 2y^2, and the xy coefficient dies mod 3
    assert h.terms == {(2, 0): 1, (0, 2): 2}
    assert h.degree() == 2
    assert {sum(e) for e in h.terms} == {2}  # homogeneous
    assert (f - f).degree() == -1
    assert not (f - f)
    assert (2 * f).proportional_to(f)
    assert not h.proportional_to(f * f)


def test_multipoly_arity_checks():
    f = MultiPoly(3, 2, {(1, 0): 1})
    g = MultiPoly(3, 3, {(1, 0, 0): 1})
    with pytest.raises(ArityMismatch):
        _ = f + g
    with pytest.raises(ArityMismatch):
        MultiPoly(3, 2, {(1, 0, 0): 1})
