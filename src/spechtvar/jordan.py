"""Jordan types of the nilpotent operators N = sum alpha_i A_i.

A point alpha with coordinates in GF(p^k) gives N as k coefficient
slices over GF(p) (the A_i lie over GF(p)); its powers and ranks over
GF(p^k) come from ``gfq``.  The Jordan type is recovered from the rank
vector (r_0, ..., r_p) by the second difference
b_s = r_{s-1} - 2 r_s + r_{s+1}.

Points are evaluated many at a time: ``rank_vectors_at`` and
``are_free_at`` form each point's operator and the powers they need one
point at a time, hold only their log codes, and rank all those powers
across the points as one stacked elimination (``gfq.ranks``), in chunks
of at most ``_STACK_BYTES``.  ``rank_vector_at`` and ``is_free_at`` are
the same at one point.  Every evaluation reads the module only through
its ``blocks``, pairs (stack, multiplicity) of an (n, d, d) stack of the
A_i in ``gfp.exact_float(n, p)``: a permutation module splits into orbit
blocks, identical ones computed once, and a Specht module is the single
block ``acts.A``.  Rank vectors add over blocks.  Freeness is decided in
one place, ``are_free_at``, from rank N alone: N has d - rank N Jordan
blocks, each of size at most p, so a block of dimension d is free iff
p | d and rank N = d - d/p.  No power of N is formed for it.  GF(p) points are the case k = 1 and take the
same path.

Generic types come in two modes: randomized sampling over GF(p^8) with
entrywise-max certification (retried over GF(p^12)), and exact
fraction-free elimination over the rational function field for small
dimensions.
"""

from __future__ import annotations

import hashlib
import itertools
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


def _point_operator(mats, alpha, p: int) -> tuple[np.ndarray, FieldCtx]:
    """N = sum alpha_i A_i as k slices over GF(p), shape (k, d, d), plus GF(p^k).

    The A_i lie over GF(p), so slice c is sum_i alpha_i[c] A_i: all k
    slices are one float product of the (k x n) coefficient columns of
    alpha with the A_i, reduced by ``gfp.float_mod``.  ``mats`` is a
    block's stack of the A_i in ``gfp.exact_float(n, p)``, used as it is,
    or any sequence of the A_i, converted to that stack.
    """
    coeffs, ctx = _coerce_point(alpha, len(mats), p)
    stack = np.asarray(mats, dtype=gfp.exact_float(len(mats), p))
    n, d, _ = stack.shape
    out = coeffs.T.astype(stack.dtype) @ stack.reshape(n, d * d)
    return gfp.float_mod(out, p).astype(np.int64).reshape(ctx.k, d, d), ctx


def _powers(op: np.ndarray, ctx: FieldCtx):
    """Slices of N, N^2, ..., N^(p-1) in turn; N^p, which is zero, is never formed."""
    power = op
    for _ in range(ctx.p - 2):
        yield power
        power = gfq.matmul(power, op, ctx)
    yield power


# Bytes of prepared powers (``gfq.prepare``) held at once; a larger set of
# points is ranked in chunks of this size, which bounds the held codes and
# the stacked elimination's temporaries whatever the number of points.
_STACK_BYTES = 8 << 20


def _held_powers(stack: np.ndarray, points: list, p: int, count: int):
    """Chunks (field, per-point prepared powers) of one block's points.

    Each point's operator and its first ``count`` powers N .. N^count are
    formed one point at a time, as slice products of the block's stack,
    and only their prepared forms are held; N^(count+1) is never formed.
    A chunk ends once it holds ``_STACK_BYTES``, or where the next point
    lies in another field.
    """
    held, size, held_ctx = [], 0, None
    for alpha in points:
        op, ctx = _point_operator(stack, alpha, p)
        if held and ctx is not held_ctx:
            yield held_ctx, held
            held, size = [], 0
        prepared = [gfq.prepare(power, ctx)
                    for power in itertools.islice(_powers(op, ctx), count)]
        held.append(prepared)
        held_ctx, size = ctx, size + sum(x.nbytes for x in prepared)
        if size >= _STACK_BYTES:
            yield held_ctx, held
            held, size = [], 0
    if held:
        yield held_ctx, held


def _block_ranks(stack: np.ndarray, points: list, p: int, count: int) -> np.ndarray:
    """Ranks of N, .., N^count over GF(p^k) at each point of one block.

    Shape (len(points), count).  All powers of a chunk of points are
    ranked as one stack (``gfq.ranks``): they share one shape, so one
    column loop serves them all.
    """
    out = np.zeros((len(points), count), dtype=np.int64)
    row = 0
    for ctx, held in _held_powers(stack, points, p, count):
        ranks = gfq.ranks([power for powers in held for power in powers], ctx)
        out[row:row + len(held)] = np.reshape(ranks, (len(held), count))
        row += len(held)
    return out


def rank_vectors_at(acts, points) -> list[RankVector]:
    """Rank vectors of N at many points, summed over the module's blocks."""
    p, points = acts.p, list(points)
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
    p, points = acts.p, list(points)
    if acts.dim % p:
        warnings.warn(f"dim {acts.dim} not divisible by {p}; module cannot be free",
                      RuntimeWarning, stacklevel=2)
    free = np.ones(len(points), dtype=bool)
    for stack, _ in acts.blocks:
        d = stack.shape[1]
        if d % p:
            for alpha in points:  # points are validated in every case
                _coerce_point(alpha, acts.n, p)
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
