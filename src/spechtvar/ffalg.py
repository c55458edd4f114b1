"""Field contexts GF(p^k), their elements, and multivariate polynomials.

GF(p^k) is GF(p)[t] / (modulus) with the modulus chosen deterministically:
the monic irreducible of degree k whose non-leading coefficient vector
(c_0, ..., c_{k-1}) encodes to the smallest integer sum(c_i * p^i).
Elements carry their coefficient vector; the same encoding doubles as a
stable integer code for storage and enumeration order.

For q = p^k <= ``TABLE_CAP`` (3^12) a context also holds log/Zech tables
over its codes (``FieldCtx.tables``, built on first use): with a fixed
primitive element g, a nonzero code is g^l and is stored as the log l,
products are sums of logs and sums use the Zech logarithm
(Lidl and Niederreiter, Finite Fields, section 10.3), read from the larger
log: g^a + g^b = g^(max(a, b) + plus[|a - b|]).  ``gfq`` eliminates on
d-by-d matrices of log codes with them, and the sweeps normalise points
and apply the Frobenius by lookup.
``FieldCtx.mul_matrix`` gives the k-by-k multiplication matrix of an
element over GF(p); the tables are built with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import ArityMismatch, PreconditionViolated


# ---------------------------------------------------------------------------
# univariate polynomial helpers over GF(p), coefficient tuples low -> high


def _ptrim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pmul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


def _pmod(a: Sequence[int], f: Sequence[int], p: int) -> list[int]:
    a = list(a)
    inv_lead = pow(f[-1], p - 2, p)
    while len(a) >= len(f):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(f)
        if c:
            for i, y in enumerate(f):
                a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
        _ptrim(a)
        if not a:
            break
    return a


def _pgcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _psub(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    out = [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]
    return _ptrim(out)


def _pquot(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a = list(a)
    inv_lead = pow(b[-1], p - 2, p)
    q = [0] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and a:
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        q[shift] = c
        if c:
            for i, y in enumerate(b):
                a[shift + i] = (a[shift + i] - c * y) % p
        a.pop()
        _ptrim(a)
    return _ptrim(q)


def _is_irreducible(f: Sequence[int], p: int) -> bool:
    """Rabin test: x^(p^k) = x mod f, and gcd(x^(p^(k/q)) - x, f) = 1."""
    k = len(f) - 1
    if k < 1:
        return False
    # x^p mod f by square and multiply
    xp = [0, 1]
    result = [1]
    e = p
    while e:
        if e & 1:
            result = _pmod(_pmul(result, xp, p), f, p)
        e >>= 1
        if e:
            xp = _pmod(_pmul(xp, xp, p), f, p)
    xp = result  # x^p mod f
    # iterate Frobenius by composition: g(x) -> g(x^p) mod f
    def frob(g: list[int]) -> list[int]:
        out: list[int] = []
        for c in reversed(g):
            out = _pmod(_pmul(out, xp, p), f, p)
            if c:
                if not out:
                    out = [c]
                else:
                    out[0] = (out[0] + c) % p
        return out

    powers = [[0, 1]]
    for _ in range(k):
        powers.append(frob(powers[-1]))
    if _psub(powers[k], [0, 1], p):
        return False
    primes = {q for q in range(2, k + 1) if k % q == 0 and all(q % r for r in range(2, q))}
    for q in primes:
        g = _pgcd(f, _psub(powers[k // q], [0, 1], p), p)
        if len(g) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _least_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Coefficients (c_0..c_k) of the deterministic degree-k modulus."""
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        coeffs = [(code // p**i) % p for i in range(k)] + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise AssertionError("no irreducible found")  # unreachable


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


# Largest field with log/Zech tables: GF(3^12) takes about 10 MB of them.
# GF(5^12) would need about 4 GB; it keeps the companion blowup (``gfq``).
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
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = _least_irreducible(p, k)
        # t^j mod modulus for j up to 2k-2, as length-k coefficient tuples
        tpow = []
        cur = [1]
        for _ in range(2 * k - 1):
            tpow.append(tuple(cur + [0] * (k - len(cur))))
            cur = _pmod(_pmul(cur, [0, 1], p), list(self.modulus), p)
        self._tpow = tpow
        # multiplication-by-t^c matrices: columns are coeffs of t^(c+j)
        mats = np.zeros((k, k, k), dtype=np.int64)
        for c in range(k):
            for j in range(k):
                mats[c, :, j] = tpow[c + j]
        self.tmats = mats
        # column e holds the power-basis coefficients of t^e, e <= 2k - 2
        self.reduction = np.array(tpow, dtype=np.int64).T

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

    def random_element(self, rng: np.random.Generator) -> "FieldElement":
        return FieldElement(self, tuple(int(x) for x in rng.integers(0, self.p, self.k)))

    def random_point(self, rng: np.random.Generator, n: int) -> tuple["FieldElement", ...]:
        """Uniform nonzero vector in GF(p^k)^n."""
        while True:
            pt = tuple(self.random_element(rng) for _ in range(n))
            if any(pt):
                return pt

    # -- matrices over GF(p) and code tables -----------------------------------

    def mul_matrix(self, elem: "FieldElement") -> np.ndarray:
        """k-by-k multiplication matrix of elem over GF(p)."""
        out = np.zeros((self.k, self.k), dtype=np.int64)
        for c, coef in enumerate(elem.coeffs):
            if coef:
                out += coef * self.tmats[c]
        return out % self.p

    @cached_property
    def tables(self) -> LogTables:
        """Log/Zech tables of this field, built on first use."""
        if self.q > TABLE_CAP:
            raise PreconditionViolated(f"no log tables for GF({self.p}^{self.k}): "
                                       f"{self.q} elements exceed {TABLE_CAP}")
        p, k, order = self.p, self.k, self.q - 1
        g = next(c for c in range(1, self.q)
                 if all(self.element(c) ** (order // r) != self.one
                        for r in _prime_factors(order)))
        # coefficient rows of g^0 .. g^(b-1) by doubling with the
        # multiplication matrix of g^(2^j); each further block of b powers
        # is those rows times the matrix of g^s, turned into codes at once
        rows = np.zeros((1, k), dtype=np.int64)
        rows[0, 0] = 1
        step = self.element(g)
        while len(rows) < min(order, _TABLE_BLOCK):
            rows = np.concatenate([rows, rows @ self.mul_matrix(step).T % p])
            step = step * step
        weights = p ** np.arange(k)
        exp = np.empty(2 * order, dtype=np.int32)
        codes = exp[:order]
        shift = self.one  # g^s
        for s in range(0, order, len(rows)):
            block = rows[:order - s] @ self.mul_matrix(shift).T % p
            codes[s:s + len(block)] = block @ weights
            shift = shift * step
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
    """Element of GF(p^k) as a coefficient vector in the power basis."""

    ctx: FieldCtx
    coeffs: tuple[int, ...]

    def _lift(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            return other
        return self.ctx.element(other)

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

    def __add__(self, other):
        o = self._lift(other)
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        p, k = self.ctx.p, self.ctx.k
        raw = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    raw[i + j] += a * b
        out = [raw[c] % p for c in range(k)]
        for e in range(k, 2 * k - 1):
            if raw[e] % p:
                red = self.ctx._tpow[e]
                v = raw[e] % p
                for c in range(k):
                    if red[c]:
                        out[c] = (out[c] + v * red[c]) % p
        return FieldElement(self.ctx, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        p = self.ctx.p
        # extended Euclid on (modulus, self)
        r0, r1 = list(self.ctx.modulus), _ptrim(list(self.coeffs))
        s0, s1 = [], [1]
        while len(r1) > 1:
            q = _pquot(r0, r1, p)
            r0, r1 = r1, _psub(r0, _pmul(q, r1, p), p)
            s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
        c = pow(r1[0], p - 2, p)
        inv = [(c * x) % p for x in s1]
        inv = inv[: self.ctx.k] + [0] * max(0, self.ctx.k - len(inv))
        return FieldElement(self.ctx, tuple(inv))

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
