import numpy as np
import pytest

from oracles import slice_matmul
from spechtvar import ffalg, gfp, gfq, jordan
from spechtvar.errors import ArityMismatch, PreconditionViolated
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
    # k (p-1)^2 < 2^63 at p = 2^31 - 1, k = 2: the field is built, with
    # Python-int products, and t^2 + 1 is irreducible as p = 3 mod 4
    ctx = FieldCtx(2**31 - 1, 2)
    assert ctx.modulus == (1, 0, 1)
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = ctx.random_element(rng)
        if a:
            assert a * a.inverse() == ctx.one
    assert ctx.element([0, 1]) ** 2 == -ctx.one


def test_int64_overflow_is_refused_before_any_build(monkeypatch):
    # k (p-1)^2 >= 2^63: refused before the modulus search starts
    def search(p, k):
        raise AssertionError(f"modulus search started for GF({p}^{k})")
    monkeypatch.setattr(ffalg, "_least_irreducible", search)
    with pytest.raises(PreconditionViolated, match="2\\^63"):
        FieldCtx(2**31 - 1, 3)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_products_and_inverses_agree_with_log_tables(p, k):
    ctx = FieldCtx.get(p, k)
    t = ctx.tables
    elems = [ctx.element(c) for c in range(ctx.q)]
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            assert (elems[a] * elems[b]).to_index() == t.exp[t.log[a] + t.log[b]]
        assert elems[a] * elems[a].inverse() == ctx.one
        assert elems[a] * ctx.zero == ctx.zero
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


@pytest.mark.parametrize("p,k", [(2, 4), (3, 3), (5, 2), (3, 1)])
def test_field_axioms(p, k):
    ctx = FieldCtx.get(p, k)
    rng = np.random.default_rng(7)
    for _ in range(25):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        c = ctx.random_element(rng)
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
    assert ctx.element(1) == ctx.one and ctx.element(1) + 1 == ctx.element(2)
    assert ctx.element(ctx.q - 1).coeffs == (58,) * 12
    codes = [1, 59**10 + 2, 2**63 - 1]
    assert ctx.digits(codes).tolist() == [list(ctx.element(c).coeffs) for c in codes]
    ctx = FieldCtx.get(101, 10)
    for code in (2**63, 2**63 + 5, ctx.q - 1):
        assert ctx.element(code).to_index() == code


def test_mul_matrix_is_ring_hom():
    ctx = FieldCtx.get(5, 2)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = ctx.random_element(rng)
        b = ctx.random_element(rng)
        ma, mb = ctx.mul_matrix(a), ctx.mul_matrix(b)
        assert np.array_equal(ctx.mul_matrix(a * b), (ma @ mb) % 5)
        assert np.array_equal(ctx.mul_matrix(a + b), (ma + mb) % 5)
        # column 0 recovers the coefficient vector
        assert tuple(ma[:, 0]) == a.coeffs


# -- ranks over GF(p^k): the GF(q) kernel against the companion blowup -------

def naive_rank_ff(rows) -> int:
    """Textbook elimination using only FieldElement arithmetic."""
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
    return [[ctx.random_element(rng) for _ in range(cols)] for _ in range(rows)]


def entries_matmul(ctx, a, b):
    return [[sum((a[i][m] * b[m][j] for m in range(len(b))), ctx.zero)
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


def blowup(ctx, slices) -> np.ndarray:
    """GF(p) companion blowup sum_c kron(M_c, tmats[c]) of the slices."""
    return sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % ctx.p


def rank_ff(ctx, entries) -> int:
    """Rank by the GF(q) kernel, checked against the blowup on the way."""
    op = point_slices(ctx, entries)
    r, rem = divmod(gfp.rank(blowup(ctx, op), ctx.p), ctx.k)
    assert rem == 0  # blowup rank = k * rank over GF(p^k)
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
    lhs = blowup(ctx, prod)
    rhs = gfp.mod_matmul(blowup(ctx, point_slices(ctx, a)),
                         blowup(ctx, point_slices(ctx, b)), 3)
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
