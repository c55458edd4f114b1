"""Oracles shared by the tests: slower paths that the package replaced.

``slice_matmul`` is the product over GF(p^k) on coefficient slices that
formed each power of N at a point, one product per power, before N^s was
evaluated from the GF(p) coefficient stacks of ``symrank.power_coefficients``.
``point_operator`` builds N at a point by one scaled add of A_i per nonzero
coefficient, and ``point_powers`` chains the two.

``Elem`` is a ``FieldElement`` with the element arithmetic the package
dropped when field data became coefficient rows: Python-int products
folded by ``FieldCtx.reduction``, a^-1 = a^(q-2) and powers by square and
multiply.  ``element``, ``random_element`` and ``random_point`` build and
draw such elements as ``FieldCtx`` did, from the same random stream as
``FieldCtx.random_rows``.  The package's own elements keep no arithmetic,
so a package path that still multiplies elements fails.

``_blowup_rank`` is the rank over GF(p^k) that fields above the log table
cap took before they were ranked over a subfield: the rank over GF(p) of
the companion ``blowup`` sum_c kron(M_c, C^c), divided by k.

``point_orbits`` and ``tabloid_orbits`` are the breadth-first walks that
found orbits, over sets of tuples, before ``spechtmod.orbit_labels`` read
them off index maps: the orbits of Frobenius x S_n (x the GF(p)^* torus)
on projective points, each listed from its first point in enumeration
order, and the E_n-orbits on tabloids, each sorted.
"""

import itertools

import numpy as np

from spechtvar import gfp
from spechtvar.errors import RankCheckFailed
from spechtvar.ffalg import FieldCtx, FieldElement
from spechtvar.jordan import _coerce_point


class Elem(FieldElement):
    """Element of GF(p^k) with field arithmetic, for the tests."""

    def _lift(self, other) -> "Elem":
        return element(self.ctx, other)

    def __add__(self, other):
        o = self._lift(other)
        p = self.ctx.p
        return Elem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        p = self.ctx.p
        return Elem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __mul__(self, other):
        o = self._lift(other)
        ctx = self.ctx
        p, k = ctx.p, ctx.k
        raw = [0] * (2 * k - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(o.coeffs):
                    raw[i + j] += a * b
        # t^e, e >= k, folds in by column e of ``reduction``, in Python ints
        for e, column in enumerate(ctx.reduction.T[k:].tolist(), start=k):
            raw[:k] = [x + raw[e] * r for x, r in zip(raw, column)]
        return Elem(ctx, tuple(x % p for x in raw[:k]))

    __rmul__ = __mul__

    def inverse(self) -> "Elem":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.ctx.q - 2)

    def __truediv__(self, other):
        return self * self._lift(other).inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = element(self.ctx, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result


def element(ctx, value) -> Elem:
    """``ctx.element(value)`` (a code, a coefficient sequence or an element) with arithmetic."""
    return Elem(ctx, ctx.element(value).coeffs)


def random_element(ctx, rng) -> Elem:
    return Elem(ctx, tuple(int(x) for x in rng.integers(0, ctx.p, ctx.k)))


def random_point(ctx, rng, n) -> tuple[Elem, ...]:
    """Uniform nonzero vector in GF(p^k)^n, one element draw at a time."""
    while True:
        pt = tuple(random_element(ctx, rng) for _ in range(n))
        if any(pt):
            return pt


def as_point(rows, ctx) -> tuple[Elem, ...]:
    """The elements whose coefficient rows (n, k) are ``rows``."""
    return tuple(Elem(ctx, tuple(row)) for row in np.asarray(rows).tolist())


def slice_matmul(x, y, ctx):
    """Slices of X Y over GF(p^k) from the slices of X and Y.

    One float GEMM of the stacked slices, (k*m x inner) times
    (inner x k*n); its k^2 blocks X_a Y_b are summed along antidiagonals,
    still in float, into the coefficients of t^0 .. t^(2k-2), which one
    ``tensordot`` with ``FieldCtx.reduction`` folds into t^0 .. t^(k-1).
    Only that result is reduced mod p, so the float type follows the
    largest unreduced sum, (2k-1)(p-1) k inner (p-1)^2.  Over GF(p) the
    product is one ``gfp.mod_matmul``.
    """
    k, m, inner = x.shape
    n = y.shape[2]
    p = ctx.p
    if k == 1:
        return gfp.mod_matmul(x[0], y[0], p)[None]
    ftype = gfp.exact_float((2 * k - 1) * (p - 1) * k * inner, p)
    stacked = np.ascontiguousarray(y.transpose(1, 0, 2), dtype=ftype)
    blocks = x.reshape(k * m, inner).astype(ftype) @ stacked.reshape(inner, k * n)
    blocks = blocks.reshape(k, m, k, n).transpose(0, 2, 1, 3)  # [a, b] = X_a Y_b
    wide = np.zeros((2 * k - 1, m, n), dtype=ftype)
    for a in range(k):
        wide[a:a + k] += blocks[a]
    out = np.tensordot(ctx.reduction.astype(ftype), wide.reshape(2 * k - 1, m * n), axes=1)
    return gfp.float_mod(out, p).astype(np.int64).reshape(k, m, n)


def point_operator(mats, alpha, p):
    """N = sum alpha_i A_i at a point as (k, d, d) int64 slices, plus its field."""
    coeffs, ctx = _coerce_point(alpha, len(mats), p)
    d = mats[0].shape[0]
    out = np.zeros((ctx.k, d, d), dtype=np.int64)
    for row, m in zip(coeffs, mats):
        for c in np.flatnonzero(row):
            out[c] += row[c] * m.astype(np.int64)
    return out % p, ctx


def point_powers(mats, alpha, p, count=None):
    """Slices of N, N^2, .., N^count at a point (count defaults to p - 1), each
    power one ``slice_matmul`` by N, plus the field."""
    op, ctx = point_operator(mats, alpha, p)
    powers = [op]
    for _ in range((p - 1 if count is None else count) - 1):
        powers.append(slice_matmul(powers[-1], op, ctx))
    return powers, ctx


def blowup(slices, ctx):
    """The GF(p) matrix sum_c kron(M_c, C^c) of the slices M_c."""
    return sum(np.kron(s, ctx.tmats[c]) for c, s in enumerate(slices)) % ctx.p


def _blowup_rank(slices, ctx):
    """Rank over GF(p^k) from the GF(p) companion blowup of the slices.

    Replacing each entry by its multiplication matrix is a ring
    homomorphism, so the blowup rank is k times the rank over GF(p^k).
    """
    k, p = ctx.k, ctx.p
    r = gfp.rank(blowup(slices, ctx), p)
    if r % k:
        raise RankCheckFailed(f"blowup rank {r} is not a multiple of {k}")
    return r // k


def point_orbits(p, n, k, torus=False):
    """Orbits of projective points of GF(p^k)^n, as tuples of code tuples,
    ordered by first point; the point order is lexicographic within each
    lead position, leads in increasing position."""
    ctx = FieldCtx.get(p, k)
    t = ctx.tables
    exp, log, unit = t.exp.tolist(), t.log.tolist(), t.order // (p - 1)
    frob = ctx.frob.tolist()

    def normalized(pt):
        shift = t.order - log[next(c for c in pt if c)]
        return tuple(exp[log[c] + shift] if c else 0 for c in pt)

    points = [(0,) * lead + (1,) + rest for lead in range(n)
              for rest in itertools.product(range(ctx.q), repeat=n - lead - 1)]
    seen, orbits = set(), []
    for pt in points:
        if pt in seen:
            continue
        seen.add(pt)
        orbit, todo = [pt], [pt]
        while todo:
            cur = todo.pop()
            moved = [tuple(frob[c] for c in cur)]
            moved += [normalized(cur[:i] + (cur[i + 1], cur[i]) + cur[i + 2:])
                      for i in range(n - 1)]
            if torus and p > 2 and cur[-1] and any(cur[:-1]):
                moved.append(cur[:-1] + (exp[log[cur[-1]] + unit],))
            for img in moved:
                if img not in seen:
                    seen.add(img)
                    orbit.append(img)
                    todo.append(img)
        orbits.append(tuple(orbit))
    return tuple(orbits)


def tabloid_orbits(perms, dim):
    """Orbits on range(dim) of the group generated by the index maps
    ``perms``, each sorted, ordered by least element."""
    seen = np.zeros(dim, dtype=bool)
    out = []
    for start in range(dim):
        if seen[start]:
            continue
        stack, members = [start], []
        seen[start] = True
        while stack:
            v = stack.pop()
            members.append(v)
            for pi in perms:
                w = int(pi[v])
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(np.array(sorted(members), dtype=np.int64))
    return out
