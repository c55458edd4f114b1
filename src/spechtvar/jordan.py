"""Jordan types of the nilpotent operators N = sum alpha_i A_i.

A point alpha with coordinates in GF(p^k) gives N and its powers as k
coefficient slices over GF(p), ranked over GF(p^k) by ``gfq``.  The
Jordan type is read off the rank vector (r_0, ..., r_p) by the second
difference b_s = r_{s-1} - 2 r_s + r_{s+1}.

Points are evaluated many at a time (``rank_vectors_at``,
``are_free_at``).  The A_i lie over GF(p), so N^s = sum_e alpha^e C_e
over the monomials of degree s, for GF(p) matrices C_e built once per
call (``symrank.power_coefficients``, shared with exact mode): a power
of a batch of points is one float GEMM, or N^(s-1) N where the call has
too few points to repay building the C_e (``_coefficients``).  All powers
of a chunk of points are ranked as one stack (``gfq.ranks``).  The
module is read only through its ``blocks``, pairs (stack, multiplicity)
of an (n, d, d) stack of the A_i in ``gfp.exact_float(n, p)``: orbit
blocks of a permutation module, or the single block ``acts.A``.  Rank
vectors add over blocks.  Freeness is decided in one place,
``are_free_at``, from rank N alone: N has d - rank N Jordan blocks, each
of size at most p, so a block of dimension d is free iff p | d and
rank N = d - d/p.  No power of N is formed for it.  GF(p) points are the
case k = 1 and take the same path.

Generic types come in two modes: randomized sampling over GF(p^8) with
entrywise-max certification (retried over GF(p^12)), and exact
fraction-free elimination over the rational function field for small
dimensions.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import gfp, gfq, symrank
from .errors import (ArityMismatch, CertificationFailed, PreconditionViolated,
                     RankCheckFailed, ZeroPoint)
from .ffalg import FieldCtx, FieldElement
from .partitions import format_partition


@dataclass(frozen=True)
class RankVector:
    """Ranks (r_0, ..., r_p) of N^0..N^p at some point."""

    p: int
    ranks: tuple[int, ...]

    def __post_init__(self):
        r = self.ranks
        if len(r) != self.p + 1 or r[-1] != 0:
            raise RankCheckFailed(f"rank vector {r} has wrong shape for p={self.p}")
        diffs = [r[i] - r[i + 1] for i in range(self.p)]
        if any(d < 0 for d in diffs) or any(diffs[i] < diffs[i + 1]
                                            for i in range(self.p - 1)):
            raise RankCheckFailed(f"rank vector {r} is not decreasing and convex")

    @property
    def dim(self) -> int:
        return self.ranks[0]

    @property
    def is_free(self) -> bool:
        """Free over <u_alpha>: every Jordan block has size p.

        That holds iff p divides the dimension and rank(N^(p-1)) = dim/p,
        read off the whole rank vector.  ``are_free_at`` decides the same
        from rank N alone; this is the reference the tests hold it to.
        """
        return self.dim % self.p == 0 and self.ranks[self.p - 1] == self.dim // self.p


@dataclass(frozen=True)
class JordanType:
    """Block counts (b_1, ..., b_p); b_s Jordan blocks of size s."""

    p: int
    blocks: tuple[int, ...]

    @classmethod
    def from_rank_vector(cls, rv: RankVector) -> "JordanType":
        r = rv.ranks + (0,)  # pad r_{p+1} = 0
        blocks = tuple(r[s - 1] - 2 * r[s] + r[s + 1] for s in range(1, rv.p + 1))
        if any(b < 0 for b in blocks):
            raise RankCheckFailed(f"rank vector {rv.ranks} gives negative "
                                  f"block counts {blocks}")
        return cls(p=rv.p, blocks=blocks)

    @property
    def dim(self) -> int:
        return sum(s * b for s, b in enumerate(self.blocks, start=1))

    def n(self, i: int) -> int:
        """Number of blocks of size i."""
        return self.blocks[i - 1]

    def pretty(self) -> str:
        bits = []
        for s in range(self.p, 0, -1):
            b = self.blocks[s - 1]
            if b == 1:
                bits.append(str(s))
            elif b > 1:
                bits.append(f"{s}^{b}")
        return "(" + ",".join(bits) + ")"


def stable_type(t: JordanType) -> JordanType:
    """Type with projective (size-p) blocks removed."""
    return JordanType(p=t.p, blocks=t.blocks[:-1] + (0,))


def complementary_check(t1: JordanType, t2: JordanType, p: int) -> bool:
    """n_{t1}(i) = n_{t2}(p - i) for all 1 <= i <= p-1."""
    return all(t1.n(i) == t2.n(p - i) for i in range(1, p))


# ---------------------------------------------------------------------------
# pointwise evaluation


def _coerce_point(alpha, n: int, p: int) -> tuple[np.ndarray, FieldCtx]:
    """Coefficient rows (n x k) of a point's coordinates, plus their field."""
    alpha = list(alpha)
    if len(alpha) != n:
        raise ArityMismatch(f"point has {len(alpha)} coordinates, need {n}")
    if any(isinstance(a, FieldElement) for a in alpha):
        ctx = next(a.ctx for a in alpha if isinstance(a, FieldElement))
        if ctx.p != p:
            raise ArityMismatch(f"point has characteristic {ctx.p}, module has {p}")
        coeffs = np.array([ctx.element(a).coeffs for a in alpha], dtype=np.int64)
    else:
        ctx = FieldCtx.get(p, 1)
        coeffs = np.array([[int(a) % p] for a in alpha], dtype=np.int64)
    if not coeffs.any():
        raise ZeroPoint("alpha = 0 has no Jordan type")
    return coeffs, ctx


def _monomial_values(rows: np.ndarray, ctx: FieldCtx, count: int) -> list[np.ndarray]:
    """Coefficient rows (P, T(s), k) of alpha^e, for the monomials t^e of
    degree s = 1..count in ``symrank.power_coefficients``' order, at the P
    points of ``rows`` (P, n, k).  Rows multiply as polynomials in t folded
    by ``FieldCtx.reduction``, for all points and monomials at once."""
    p, k, n = ctx.p, ctx.k, rows.shape[1]
    fold = ctx.reduction.T[np.add.outer(np.arange(k), np.arange(k)).ravel()]

    def mul(x, y):
        return (x[..., :, None] * y[..., None, :]).reshape(*x.shape[:-1], k * k) @ fold % p

    powers = [np.zeros_like(rows), rows]  # powers[e][:, v] = alpha_v^e
    powers[0][..., 0] = 1
    for _ in range(count - 1):
        powers.append(mul(powers[-1], rows))
    powers = np.stack(powers, axis=2)
    return [rows] + [functools.reduce(mul, (powers[:, v, exps[:, v]] for v in range(n)))
                     for exps in (symrank.exponents(n, s)[::-1] for s in range(2, count + 1))]


def _evaluate(coeffs: np.ndarray, values: np.ndarray, p: int) -> np.ndarray:
    """sum_j alpha^(e_j) C_j at each point, as (P, k, d, d) float slices over
    GF(p), for a (T, d, d) stack of C_j in exact floats and the (P, T, k)
    coefficient rows of the alpha^(e_j): one float GEMM, (P k x T) times
    (T x d^2), reduced by ``gfp.float_mod``.  With the block's stack and
    the points' rows this is N itself."""
    b, t, k = values.shape
    d = coeffs.shape[1]
    ftype = np.result_type(coeffs, gfp.exact_float(t, p))
    weights = values.transpose(0, 2, 1).reshape(b * k, t).astype(ftype)
    out = weights @ coeffs.reshape(t, d * d)
    return gfp.float_mod(out, p).reshape(b, k, d, d)


# Bytes of the prepared powers held at once (the stacked elimination's
# input), and of one evaluation GEMM's float output, kept far below them.
_STACK_BYTES, _EVAL_BYTES = 8 << 20, 1 << 20


def _coefficients(stack: np.ndarray, points: list, p: int, count: int) -> list[np.ndarray] | None:
    """``symrank.power_coefficients`` of a block, or None where chaining the
    powers at these points takes fewer d x d products over GF(p): k^2 per
    power and point of GF(p^k), against n T(s) for each s < count."""
    n = len(stack)
    build = n * sum(math.comb(n + s - 1, s) for s in range(1, count))
    chain = (count - 1) * sum(ctx.k ** 2 for _, ctx in points)
    return symrank.power_coefficients(stack, p, count) if build <= chain else None


def _chained_powers(stack: np.ndarray, rows: np.ndarray, ctx: FieldCtx,
                    count: int) -> list[np.ndarray]:
    """N .. N^count at a batch of points, each power from the one before:
    N^s = sum_a t^a (P_a N) over the slices P_a of N^(s-1), and t^a times
    the k GF(p) products P_a N is one ``_evaluate`` with the coefficient
    rows of t^a .. t^(a+k-1), columns of ``FieldCtx.reduction``."""
    p, k = ctx.p, ctx.k
    ops = _evaluate(stack, rows, p).astype(gfp.exact_float(stack.shape[1], p), copy=False)
    powers = [ops]
    for _ in range(count - 1):
        step = [sum(_evaluate(gfp.float_mod(prev[a] @ op, p), ctx.reduction.T[None, a:a + k], p)[0]
                    for a in range(k)) for prev, op in zip(powers[-1], ops)]
        powers.append(gfp.float_mod(np.stack(step), p))
    return powers


def _block_ranks(stack: np.ndarray, points: list, p: int, count: int) -> np.ndarray:
    """Ranks (len(points), count) of N, .., N^count over GF(p^k) at each
    point of one block, for pairs (coefficient rows, field) from
    ``_coerce_point``.  Only prepared forms are held, and all powers of a
    chunk of points, which ends once it holds ``_STACK_BYTES`` or where the
    next point lies in another field, are ranked as one stack."""
    coeffs = _coefficients(stack, points, p, count)
    ranks, held = [], []
    for ctx, run in itertools.groupby(points, key=lambda point: point[1]):
        rows = np.array([r for r, _ in run])
        batch = max(1, _EVAL_BYTES // (ctx.k * stack[0].nbytes))
        for lo in range(0, len(rows), batch):
            if coeffs is None:
                evaluated = _chained_powers(stack, rows[lo:lo + batch], ctx, count)
            else:
                values = _monomial_values(rows[lo:lo + batch], ctx, count)
                evaluated = (_evaluate(c, v, p) for c, v in zip(coeffs, values))
            for i, powers in enumerate(zip(*[gfq.prepare(x, ctx) for x in evaluated])):
                held += powers
                if lo + i + 1 == len(rows) or len(held) * held[0].nbytes >= _STACK_BYTES:
                    ranks += gfq.ranks(held, ctx)
                    held = []
    return np.array(ranks, dtype=np.int64).reshape(len(points), count)


def rank_vectors_at(acts, points) -> list[RankVector]:
    """Rank vectors of N at many points, summed over the module's blocks."""
    p = acts.p
    points = [_coerce_point(alpha, acts.n, p) for alpha in points]
    total = np.zeros((len(points), p + 1), dtype=np.int64)
    for stack, mult in acts.blocks:
        total[:, 0] += mult * stack.shape[1]
        total[:, 1:p] += mult * _block_ranks(stack, points, p, p - 1)
    return [RankVector(p, tuple(int(x) for x in row)) for row in total]


def rank_vector_at(acts, alpha) -> RankVector:
    """Rank vector of N at one point, summed over the module's blocks."""
    return rank_vectors_at(acts, [alpha])[0]


def jordan_at_point(acts, alpha) -> JordanType:
    return JordanType.from_rank_vector(rank_vector_at(acts, alpha))


def are_free_at(acts, points) -> list[bool]:
    """Whether the restriction along u_alpha is free, for many points.

    The one place freeness at a point is decided.  A module is free iff
    every block is.  A block of dimension d has d - rank N Jordan blocks,
    each of size at most p, so it is free iff p | d and rank N = d - d/p
    over GF(p^k); N is the only matrix formed and ranked.  A point stays
    in the stack only while every block so far is free.  Agrees with
    ``RankVector.is_free`` of ``rank_vector_at``, which reads N^(p-1).
    """
    p = acts.p
    if acts.dim % p:
        warnings.warn(f"dim {acts.dim} not divisible by {p}; module cannot be free",
                      RuntimeWarning, stacklevel=2)
    points = [_coerce_point(alpha, acts.n, p) for alpha in points]
    free = np.ones(len(points), dtype=bool)
    for stack, _ in acts.blocks:
        d = stack.shape[1]
        if d % p:
            return [False] * len(points)
        idx = np.flatnonzero(free)
        rank_n = _block_ranks(stack, [points[i] for i in idx], p, 1)[:, 0]
        free[idx] = rank_n == d - d // p
    return free.tolist()


def is_free_at(acts, alpha) -> bool:
    """True iff the restriction along u_alpha is free; ``are_free_at`` at one point."""
    return are_free_at(acts, [alpha])[0]


# ---------------------------------------------------------------------------
# generic type


@dataclass(frozen=True)
class GenericTypeReport:
    type: JordanType
    mode: str  # "randomized" or "exact"
    samples: int
    field: FieldCtx | None
    rank_vector: RankVector


def _derive_rng(acts, seed: int) -> np.random.Generator:
    text = f"{format_partition(acts.mu)}|p={acts.p}|n={acts.n}|seed={seed}"
    digest = hashlib.sha256(text.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def _exact_rank_vector(acts) -> RankVector:
    p = acts.p
    total = np.zeros(p + 1, dtype=np.int64)
    for stack, mult in acts.blocks:
        ranks = symrank.generic_power_ranks(stack, p, p - 1)
        total += mult * np.array([stack.shape[1]] + ranks + [0])
    return RankVector(p, tuple(int(x) for x in total))


def generic_type(acts, mode: str = "randomized", seed: int = 0,
                 samples: int = 5) -> GenericTypeReport:
    """Generic Jordan type of the restricted module.

    Randomized mode samples nonzero points of GF(p^8)^n, takes the
    entrywise max of the rank vectors, and certifies only if one sample
    attains the max everywhere (retrying over GF(p^12)).  A field's
    samples are drawn first and ranked together (``rank_vectors_at``).
    """
    p = acts.p
    if mode == "exact":
        rv = _exact_rank_vector(acts)
        return GenericTypeReport(type=JordanType.from_rank_vector(rv),
                                 mode="exact", samples=0, field=None,
                                 rank_vector=rv)
    if mode not in ("randomized", "random"):
        raise ArityMismatch(f"unknown mode {mode!r}")
    if samples < 1:
        raise PreconditionViolated(f"samples must be at least 1, got {samples}")
    rng = _derive_rng(acts, seed)
    seen: list[RankVector] = []
    for k in (8, 12):
        ctx = FieldCtx.get(p, k)
        seen += rank_vectors_at(acts, [ctx.random_point(rng, acts.n)
                                       for _ in range(samples)])
        # The entrywise max of convex vectors need not be convex, so take
        # the max on raw tuples and look for a sample that attains it.
        best = tuple(max(rv.ranks[i] for rv in seen) for i in range(p + 1))
        winner = next((rv for rv in seen if rv.ranks == best), None)
        if winner is not None:
            return GenericTypeReport(type=JordanType.from_rank_vector(winner),
                                     mode="randomized", samples=len(seen),
                                     field=ctx, rank_vector=winner)
    raise CertificationFailed(
        f"no single sample attained the entrywise max for "
        f"{format_partition(acts.mu)} after {len(seen)} samples")


def generically_free(acts, **kwargs) -> bool:
    return generic_type(acts, **kwargs).rank_vector.is_free
