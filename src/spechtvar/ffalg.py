"""Field contexts GF(p^k), their elements, and multivariate polynomials.

GF(p^k) is GF(p)[t] / (f), f the monic irreducible of degree k whose
non-leading coefficient vector (c_0, ..., c_{k-1}) encodes to the smallest
integer sum(c_i * p^i).  A context is built from the companion matrix C of
f, multiplication by t on the power basis: ``FieldCtx.reduction`` holds the
first columns of C^e, the coefficients of t^e (e <= 2k - 2), and
``tmats[c]`` = C^c is a window of them.  f is found by Rabin's test
(M. O. Rabin, SIAM J. Comput. 9, 1980) as identities between powers of C.
Field data is held as coefficient rows, int64 arrays (..., k) of the
power-basis coefficients: ``FieldCtx.random_rows`` draws points as rows,
``digits`` splits integer codes sum(c_i * p^i) into rows, and
``FieldCtx.mul_rows`` is the one product of rows, folding t^e by the
``reduction`` columns.  A ``FieldElement`` carries one element's
coefficient vector and code; it is an input form for points and has no
arithmetic.  Codes double as a stable order for storage and enumeration.

For q = p^k <= ``TABLE_CAP`` (3^12) a context also holds log/Zech tables
over its codes (``FieldCtx.tables``, built on first use): with a fixed
primitive element g, a nonzero code is g^l and is stored as the log l,
products are sums of logs and sums use the Zech logarithm
(Lidl and Niederreiter, Finite Fields, section 10.3), read from the larger
log: g^a + g^b = g^(max(a, b) + plus[|a - b|]).  ``gfq`` eliminates on
d-by-d matrices of log codes with them, and the sweeps normalise points
and apply the Frobenius by lookup.
``FieldCtx.mul_matrix`` gives the k-by-k multiplication matrix over GF(p)
of a coefficient row; the tables, g included, are built from its powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, NonTermination, PreconditionViolated


def _companion(f: Sequence[int], p: int) -> np.ndarray:
    """Companion matrix of the monic f = (c_0, .., c_k): t^j -> t^(j+1) mod f."""
    k = len(f) - 1
    out = np.zeros((k, k), dtype=np.int64)
    out[np.arange(1, k), np.arange(k - 1)] = 1
    out[:, -1] = [-c % p for c in f[:k]]
    return out


def _mat_pow(m: np.ndarray, e: int, p: int) -> np.ndarray:
    """m^e mod p for a square int64 matrix, by square and multiply."""
    out = np.eye(len(m), dtype=np.int64)
    for bit in bin(e)[2:]:
        out = out @ out % p
        if bit == "1":
            out = out @ m % p
    return out


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Coefficients (c_0..c_k) of the deterministic degree-k modulus.

    Rabin's test on the companion matrix C: C^(p^k) = C, so every factor
    of f has degree dividing k and the ring GF(p)[C] is a product of fields
    GF(p^d), d | k; then, for each prime r | k, U = C^(p^(k/r)) - C is a
    unit there, U^(p^k - 1) = I, iff gcd(t^(p^(k/r)) - t, f) = 1.
    """
    ident = np.eye(k, dtype=np.int64)
    for code in range(p**k):
        f = [(code // p**i) % p for i in range(k)] + [1]
        frob = [_companion(f, p)]  # C^(p^j)
        for _ in range(k):
            frob.append(_mat_pow(frob[-1], p, p))
        if (np.array_equal(frob[k], frob[0])
                and all(np.array_equal(_mat_pow((frob[k // r] - frob[0]) % p, p**k - 1, p), ident)
                        for r in _prime_factors(k))):
            return tuple(f)
    raise NonTermination(f"no irreducible of degree {k} over GF({p})")


# The first 13 primes as Miller-Rabin bases decide primality exactly below
# psi_13, the least strong pseudoprime to all of them (J. Sorenson and
# J. Webster, Math. Comp. 86, 2017); larger p are refused.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test on ``_MR_BASES``, for p below ``_MR_BOUND``."""
    if p >= _MR_BOUND:
        raise PreconditionViolated(f"p is not below {_MR_BOUND}, the bound under "
                                   "which primality is decided exactly")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    # p passes base b iff b^d = 1 or b^(d 2^r) = -1 for some r < s
    return all(pow(b, d, p) == 1 or any(pow(b, d << r, p) == p - 1 for r in range(s))
               for b in _MR_BASES)


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


# Largest field with log/Zech tables: GF(3^12) takes about 10 MB of them;
# GF(5^12) would need about 4 GB and is ranked over GF(5^6) (``gfq._subfield``).
TABLE_CAP = 3**12
_TABLE_BLOCK = 4096  # powers of g per step of the table build


@dataclass(frozen=True, eq=False)
class LogTables:
    """Lookup tables over the codes of GF(q), q <= ``TABLE_CAP``.

    g is the least code of a primitive element and order = q - 1.  For a
    nonzero code c, ``exp[log[c]] == c``; ``log[0] == -1`` stands for zero.
    ``exp`` has length 2 * order, so ``exp[a + b]`` needs no reduction for
    logs a, b below order.  ``neg = log(-1)``.  ``plus`` is the Zech
    logarithm read from the larger of two logs: for 0 <= n < order,
    ``plus[n] = log(1 + g^-n)``, so g^a + g^b = g^(max(a, b) + plus[|a - b|])
    up to a multiple of order; it is -order where that sum is zero, and
    ``plus[order] = 0``, the entry a clipped lookup of any larger gap reads
    (``gfq._rank_stack``).  All three arrays are int32.
    """

    g: int
    order: int
    neg: int
    exp: np.ndarray
    log: np.ndarray
    plus: np.ndarray


class FieldCtx:
    """Arithmetic context for GF(p^k)."""

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise PreconditionViolated(f"p = {p} is not prime")
        if not 1 <= k <= 12:
            raise PreconditionViolated(f"extension degree {k} outside 1..12")
        # int64 sums: k (p-1)^2 in products of k x k matrices over GF(p);
        # k m + k (k-1)/2 m (p-1) in ``mul_rows`` for pairwise products of
        # at most m, which are reduced to m = p - 1 where m = (p-1)^2 is too big
        def fold_sum(m):
            return k * m + k * (k - 1) // 2 * m * (p - 1)
        if max(k * (p - 1) ** 2, fold_sum(p - 1)) >= 2**63:
            raise PreconditionViolated(f"GF({p}^{k}): sums of products reach 2^63, past int64")
        self.reduce_pairs = fold_sum((p - 1) ** 2) >= 2**63
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _least_irreducible(p, k)
        # column e is the first column of C^e: the coefficients of t^e
        companion = _companion(self.modulus, p)
        columns = [np.eye(k, dtype=np.int64)[:, 0]]
        for _ in range(2 * k - 2):
            columns.append(companion @ columns[-1] % p)
        self.reduction = np.stack(columns, axis=1)
        # multiplication by t^c is C^c, whose column j is that of t^(c+j)
        self.tmats = np.stack([self.reduction[:, c:c + k] for c in range(k)])
        # row i k + j is the coefficient row of t^(i+j)
        self.fold = self.reduction.T[np.add.outer(np.arange(k), np.arange(k)).ravel()]

    @classmethod
    @lru_cache(maxsize=None)  # unbounded: jordan._block_ranks groups points by context identity
    def get(cls, p: int, k: int = 1) -> "FieldCtx":
        return cls(p, k)

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k})"

    # -- element constructors ------------------------------------------------

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.k)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, (1,) + (0,) * (self.k - 1))

    def element(self, value) -> "FieldElement":
        """Build an element from an integer code or a coefficient sequence.

        Integers in [0, q) are element codes sum(c_i * p^i); anything
        outside that range is reduced mod p into the prime subfield.
        """
        if isinstance(value, FieldElement):
            if value.ctx.p != self.p or value.ctx.modulus != self.modulus:
                raise ArityMismatch("element from a different field")
            return value
        if isinstance(value, (int, np.integer)):
            value = int(value)
            if not 0 <= value < self.q:
                value %= self.p  # scalars embed via the prime subfield
                return FieldElement(self, (value,) + (0,) * (self.k - 1))
            digits = tuple((value // self.p**i) % self.p for i in range(self.k))
            return FieldElement(self, digits)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.k:
            raise ArityMismatch(f"need {self.k} coefficients, got {len(coeffs)}")
        return FieldElement(self, coeffs)

    def digits(self, codes) -> np.ndarray:
        """Coefficient rows (..., k) of codes below q: code // p^i, by repeated division."""
        steps = np.full(np.shape(codes) + (self.k,), self.p, dtype=np.int64)
        steps[..., 0] = codes
        return np.remainder(np.floor_divide.accumulate(steps, -1, out=steps), self.p, out=steps)

    def random_rows(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Coefficient rows (n, k) of a uniform nonzero point of GF(p^k)^n,
        drawn again while they are all zero."""
        while True:
            rows = rng.integers(0, self.p, (n, self.k))
            if rows.any():
                return rows

    def mul_rows(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Products of broadcastable coefficient rows (..., k), as (..., k) rows.

        Entries lie in [0, p).  The rows multiply as polynomials in t: each
        pairwise product x_i y_j is added into t^(i+j), folded by column
        i + j of ``reduction``, in one product with the (k^2, k) ``fold``.
        The pairwise products are reduced mod p first only where
        ``reduce_pairs`` says their unreduced sums could reach 2^63.
        """
        prod = x[..., :, None] * y[..., None, :]
        if self.reduce_pairs:
            prod %= self.p
        return prod.reshape(*prod.shape[:-2], self.k * self.k) @ self.fold % self.p

    # -- matrices over GF(p) and code tables -----------------------------------

    def mul_matrix(self, row: np.ndarray) -> np.ndarray:
        """k-by-k multiplication matrix over GF(p) of the element with
        coefficient row ``row`` (k,): sum_c row_c C^c."""
        return np.tensordot(row, self.tmats, 1) % self.p

    @cached_property
    def tables(self) -> LogTables:
        """Log/Zech tables of this field, built on first use."""
        if self.q > TABLE_CAP:
            raise PreconditionViolated(f"no log tables for GF({self.p}^{self.k}): "
                                       f"{self.q} elements exceed {TABLE_CAP}")
        p, k, order = self.p, self.k, self.q - 1
        # g is primitive iff no power g^(order/r), r a prime factor of
        # order, is 1: read on powers of its multiplication matrix
        ident, factors = np.eye(k, dtype=np.int64), _prime_factors(order)
        g = next(c for c in range(1, self.q) for m in [self.mul_matrix(self.digits(c))]
                 if all((_mat_pow(m, order // r, p) != ident).any() for r in factors))
        # coefficient rows of g^0 .. g^(b-1) by doubling with the
        # multiplication matrix of g^(2^j); each further block of b powers
        # is those rows times the matrix of g^s, turned into codes at once
        rows = ident[:1]
        step = self.mul_matrix(self.digits(g))
        while len(rows) < min(order, _TABLE_BLOCK):
            rows = np.concatenate([rows, rows @ step.T % p])
            step = step @ step % p
        weights = p ** np.arange(k)
        exp = np.empty(2 * order, dtype=np.int32)
        codes = exp[:order]
        shift = ident  # the matrix of g^s
        for s in range(0, order, len(rows)):
            block = rows[:order - s] @ shift.T % p
            codes[s:s + len(block)] = block @ weights
            shift = shift @ step % p
        exp[order:] = codes
        logs = np.full(self.q, -1, dtype=np.int32)
        logs[codes] = np.arange(order, dtype=np.int32)
        # plus[n] = log(1 + g^-n), built in place in int32: the codes of
        # g^-n = exp[order - n], plus 1 in the constant digit, then their logs
        plus = np.empty(order + 1, dtype=np.int32)
        body = plus[:order]
        body[0] = codes[0]
        body[1:] = codes[:0:-1]
        body += 1
        np.subtract(body, p, out=body, where=body % p == 0)
        np.take(logs, body, out=body)  # buffered: body is also the index
        body[body < 0] = -order
        plus[order] = 0
        return LogTables(g=g, order=order, neg=order // 2 if p > 2 else 0,
                         exp=exp, log=logs, plus=plus)

    @cached_property
    def frob(self) -> np.ndarray:
        """Code of c^p for each code c, g^l -> g^(p*l); built on first use."""
        t = self.tables
        out = t.exp[self.p * t.log.astype(np.int64) % t.order]
        out[0] = 0
        return out


@dataclass(frozen=True)
class FieldElement:
    """Element of GF(p^k) as a coefficient vector in the power basis.

    An input form for the coordinates of points, with no arithmetic:
    products of field data are ``FieldCtx.mul_rows`` on coefficient rows.
    """

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.element(other)
        return (isinstance(other, FieldElement)
                and self.ctx.p == other.ctx.p
                and self.ctx.modulus == other.ctx.modulus
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.coeffs))

    def to_index(self) -> int:
        return sum(c * self.ctx.p**i for i, c in enumerate(self.coeffs))

    def __repr__(self):
        return f"ff({self.to_index()})@GF({self.ctx.p}^{self.ctx.k})"


# ---------------------------------------------------------------------------
# multivariate polynomials with GF(p) coefficients


class MultiPoly:
    """Polynomial in GF(p)[x_1..x_nvars], stored as exponent-vector -> coeff."""

    def __init__(self, p: int, nvars: int, terms: dict[tuple[int, ...], int] | None = None):
        self.p = p
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        for exps, c in (terms or {}).items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars or any(e < 0 for e in exps):
                raise ArityMismatch(f"bad exponent vector {exps}")
            c %= p
            if c:
                clean[exps] = c
        self.terms = clean

    @classmethod
    def monomial(cls, p: int, exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        return cls(p, len(exps), {tuple(exps): coeff})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.p == other.p
                and self.nvars == other.nvars and self.terms == other.terms)

    def _check(self, other: "MultiPoly"):
        if self.p != other.p or self.nvars != other.nvars:
            raise ArityMismatch("polynomials from different rings")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) + c
        return MultiPoly(self.p, self.nvars, terms)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, 0) - c
        return MultiPoly(self.p, self.nvars, terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.p, self.nvars,
                             {e: c * other for e, c in self.terms.items()})
        self._check(other)
        terms: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return MultiPoly(self.p, self.nvars, terms)

    __rmul__ = __mul__

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def proportional_to(self, other: "MultiPoly") -> bool:
        """True if self = c * other for some nonzero scalar c."""
        self._check(other)
        if not self or not other:
            return not self and not other
        if set(self.terms) != set(other.terms):
            return False
        e0 = next(iter(self.terms))
        c = (self.terms[e0] * pow(other.terms[e0], self.p - 2, self.p)) % self.p
        return all((c * v) % self.p == self.terms[e] for e, v in other.terms.items())

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, c in self.sorted_terms():
            mono = "*".join(f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                            for i, e in enumerate(exps) if e)
            bits.append(f"{c}*{mono}" if mono else str(c))
        return " + ".join(bits)
