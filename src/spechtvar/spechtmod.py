"""Permutation modules M^mu, Specht modules S^mu, and the restriction of
the elementary abelian subgroup E_n to both.

Tabloids are stored as row-assignment vectors (letter -> row index); the
canonical order is lexicographic on the sequence of sorted row-sets, which
matches generation order when row sets are chosen as ascending
combinations.  S^mu lives extrinsically inside M^mu as the column span of
the standard-polytabloid matrix B, and each generator action is pulled
back to a d x d matrix by solving B X = (g - 1) B once.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import zipfile
import zlib
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import gfp
from .errors import PreconditionViolated, RankCheckFailed, TooLarge
from .partitions import (Partition, conjugate, dim_specht, format_partition,
                         size, validate)

_TABLOID_CAP = 10**6
_COLGROUP_CAP = 10**7
_DIM_CAP = 2000


def tabloid_count(mu: Partition) -> int:
    m = size(mu)
    count = math.factorial(m)
    for part in mu:
        count //= math.factorial(part)
    return count


class _TabloidTable:
    """Row-assignment matrix (T, m) plus bytes-key index lookup."""

    def __init__(self, mu: Partition):
        m = size(mu)
        count = tabloid_count(mu)
        if count > _TABLOID_CAP:
            raise TooLarge(f"{count} tabloids for {format_partition(mu)}")
        self.mu = mu
        self.m = m
        self.count = count
        arr = np.zeros((count, m), dtype=np.uint8)
        cur = np.zeros(m, dtype=np.uint8)
        pos = 0

        def rec(avail: tuple[int, ...], r: int):
            nonlocal pos
            if r == len(mu):
                arr[pos] = cur
                pos += 1
                return
            for combo in itertools.combinations(avail, mu[r]):
                for x in combo:
                    cur[x - 1] = r
                chosen = set(combo)
                rec(tuple(x for x in avail if x not in chosen), r + 1)

        if len(mu) == 0:
            arr = np.zeros((1, 0), dtype=np.uint8)
        else:
            rec(tuple(range(1, m + 1)), 0)
            if pos != count:
                raise PreconditionViolated(
                    f"generated {pos} tabloids for {format_partition(mu)}, "
                    f"expected {count}")
        self.rows = arr
        self.index = {arr[i].tobytes(): i for i in range(count)}

    def apply_letters(self, img: np.ndarray) -> np.ndarray:
        """Permutation of tabloid indices induced by letter map x -> img[x-1]."""
        inv = np.empty(self.m, dtype=np.int64)
        inv[img - 1] = np.arange(self.m)
        moved = self.rows[:, inv]
        out = np.empty(self.count, dtype=np.int64)
        for i in range(self.count):
            out[i] = self.index[moved[i].tobytes()]
        return out


@lru_cache(maxsize=64)
def _tabloid_table(mu: Partition) -> _TabloidTable:
    return _TabloidTable(mu)


def generator_cycles(m: int, n: int, p: int) -> list[np.ndarray]:
    """Letter images of the p-cycles g_i = ((i-1)p+1, ..., ip) on {1..m}."""
    if n * p > m:
        raise PreconditionViolated(f"{n} disjoint {p}-cycles do not fit in {m} letters")
    gens = []
    for i in range(n):
        img = np.arange(1, m + 1, dtype=np.int64)
        lo = i * p
        img[lo: lo + p] = np.roll(img[lo: lo + p], -1)
        gens.append(img)
    return gens


def standard_tableaux(mu: Partition) -> list[tuple[tuple[int, ...], ...]]:
    """All standard tableaux as row tuples, sorted by row-reading word."""
    m = size(mu)
    if m == 0:
        return [()]
    rows: list[list[int]] = [[] for _ in mu]
    out: list[tuple[tuple[int, ...], ...]] = []

    def place(entry: int):
        if entry > m:
            out.append(tuple(tuple(r) for r in rows))
            return
        for r in range(len(mu)):
            if len(rows[r]) < mu[r] and (r == 0 or len(rows[r]) < len(rows[r - 1])):
                rows[r].append(entry)
                place(entry + 1)
                rows[r].pop()

    place(1)
    out.sort()
    return out


@dataclass(frozen=True)
class SpechtBasis:
    mu: Partition
    p: int
    tabloid_count: int
    dim: int
    B: np.ndarray  # (T, d) over GF(p), columns are standard polytabloids
    tableaux: tuple[tuple[tuple[int, ...], ...], ...]


def _column_perms(col: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """All arrangements of one column with their signs."""
    out = []
    for arrangement in itertools.permutations(col):
        order = [col.index(a) for a in arrangement]
        inversions = sum(1 for i in range(len(order)) for j in range(i + 1, len(order))
                         if order[i] > order[j])
        out.append((arrangement, -1 if inversions % 2 else 1))
    return out


def standard_basis(mu: Partition, p: int) -> SpechtBasis:
    mu = validate(mu)
    d = dim_specht(mu)
    if d > _DIM_CAP:
        raise TooLarge(f"dim {d} exceeds {_DIM_CAP}")
    table = _tabloid_table(mu)
    tabs = standard_tableaux(mu)
    if len(tabs) != d:
        raise PreconditionViolated(f"{len(tabs)} standard tableaux for "
                                   f"{format_partition(mu)}, hook formula gives {d}")
    conj = conjugate(mu)
    colgroup = math.prod(math.factorial(c) for c in conj)
    if colgroup > _COLGROUP_CAP:
        raise TooLarge(f"column group order {colgroup} exceeds {_COLGROUP_CAP}")

    b = np.zeros((table.count, d), dtype=np.int64)
    for colno, t in enumerate(tabs):
        base = np.zeros(table.m, dtype=np.uint8)
        for r, row in enumerate(t):
            for x in row:
                base[x - 1] = r
        columns = [tuple(t[r][j] for r in range(conj[j])) for j in range(len(conj))]
        perm_lists = [_column_perms(c) for c in columns]
        vec = base.copy()
        for choice in itertools.product(*perm_lists):
            sign = 1
            vec[:] = base
            for col, (arrangement, s) in zip(columns, choice):
                sign *= s
                for r, letter in enumerate(arrangement):
                    vec[letter - 1] = r
            b[table.index[vec.tobytes()], colno] += sign
    b %= p
    if gfp.rank(b, p) != d:
        raise RankCheckFailed(f"polytabloid matrix of {format_partition(mu)} "
                              f"has rank < {d} over GF({p})")
    return SpechtBasis(mu=mu, p=p, tabloid_count=table.count, dim=d,
                       B=b, tableaux=tuple(tabs))


@dataclass(frozen=True)
class RestrictedActions:
    """Matrices A_i of (g_i - 1) acting on a module over GF(p)."""

    mu: Partition
    n: int
    p: int
    A: list[np.ndarray]
    dim: int
    conjugated: bool = False

    def nilpotency_checks(self) -> bool:
        for a in self.A:
            power = a.copy()
            for _ in range(self.p - 1):
                power = gfp.mod_matmul(power, a, self.p)
            if power.any():
                return False
        return all(
            np.array_equal(gfp.mod_matmul(x, y, self.p), gfp.mod_matmul(y, x, self.p))
            for x, y in itertools.combinations(self.A, 2))


def _cache_dir() -> Path | None:
    root = os.environ.get("SPECHTVAR_CACHE")
    return Path(root) if root else None


def _cache_key(work: Partition, n: int, p: int) -> str:
    from . import __version__  # runtime import: the package root imports us
    text = f"{format_partition(work)}|n={n}|p={p}|v{__version__}"
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _load_cached(path: Path, key: str, n: int, d: int) -> list[np.ndarray] | None:
    """The n cached d x d action matrices, or None if the file is unusable.

    Members are named after the key, so a file written for another key or
    by hand is a miss.  A truncated or corrupt archive raises BadZipFile,
    EOFError or zlib.error; a non-archive raises ValueError or TypeError.
    """
    try:
        with np.load(path) as data:
            mats = [data[f"{key}_{i}"] for i in range(n)]
    except (OSError, KeyError, ValueError, TypeError, EOFError,
            zipfile.BadZipFile, zlib.error):
        return None
    if any(m.shape != (d, d) or m.dtype != np.int64 for m in mats):
        return None
    return mats


def restricted_actions(mu: Partition, n: int, p: int,
                       use_conjugate: bool = True) -> RestrictedActions:
    """A_i = matrix of (g_i - 1) on S^mu (or S^mu' when that is smaller).

    The conjugate swap is sound for Jordan data: on the generators of E_n
    the conjugate Specht module is the dual, and dual modules have the same
    rank sequence at every point.
    """
    mu = validate(mu)
    if n < 1 or size(mu) != n * p:
        raise PreconditionViolated(f"|mu| = {size(mu)} is not {n} * {p}")
    work, conjugated = mu, False
    if use_conjugate:
        other = conjugate(mu)
        if tabloid_count(other) < tabloid_count(mu):
            work, conjugated = other, True

    cache = _cache_dir()
    key = _cache_key(work, n, p)
    path = cache / f"{key}.npz" if cache else None
    if path is not None and path.exists():
        mats = _load_cached(path, key, n, dim_specht(work))
        if mats is not None:
            return RestrictedActions(mu=mu, n=n, p=p, A=mats,
                                     dim=mats[0].shape[0], conjugated=conjugated)

    basis = standard_basis(work, p)
    table = _tabloid_table(work)
    blocks = []
    for img in generator_cycles(table.m, n, p):
        pi = table.apply_letters(img)
        moved = np.empty_like(basis.B)
        moved[pi] = basis.B
        blocks.append((moved - basis.B) % p)
    solved = gfp.solve(basis.B, np.hstack(blocks), p)
    mats = [np.ascontiguousarray(solved[:, i * basis.dim: (i + 1) * basis.dim])
            for i in range(n)]
    if path is not None:
        # renamed into place whole, so no reader sees a half-written file
        tmp = path.with_name(f"{key}.{os.getpid()}.tmp.npz")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            np.savez_compressed(tmp, **{f"{key}_{i}": m for i, m in enumerate(mats)})
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
    return RestrictedActions(mu=mu, n=n, p=p, A=mats, dim=basis.dim,
                             conjugated=conjugated)


@dataclass(frozen=True)
class PermutationActions:
    """E_n acting on the tabloid basis of M^mu by index permutations."""

    mu: Partition
    n: int
    p: int
    perms: list[np.ndarray]
    dim: int

    def orbits(self) -> list[np.ndarray]:
        """E_n-orbits on tabloids, each sorted, ordered by least element."""
        seen = np.zeros(self.dim, dtype=bool)
        out = []
        for start in range(self.dim):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = []
            while stack:
                v = stack.pop()
                members.append(v)
                for pi in self.perms:
                    w = int(pi[v])
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            out.append(np.array(sorted(members), dtype=np.int64))
        return out

    @cached_property
    def distinct_blocks(self) -> tuple[tuple[list[np.ndarray], int], ...]:
        """``block_actions`` grouped by identical matrices, as (mats, count).

        Built once per module; every point evaluation walks these blocks.
        """
        groups: dict[bytes, tuple[list[np.ndarray], int]] = {}
        for _, mats in self.block_actions():
            key = b"|".join(m.tobytes() + str(m.shape[0]).encode() for m in mats)
            if key in groups:
                groups[key] = (groups[key][0], groups[key][1] + 1)
            else:
                groups[key] = (mats, 1)
        return tuple(groups.values())

    def block_actions(self):
        """Per-orbit dense (g_i - 1) blocks; Jordan data adds over blocks."""
        for orbit in self.orbits():
            local = {int(g): i for i, g in enumerate(orbit)}
            k = len(orbit)
            mats = []
            for pi in self.perms:
                a = np.zeros((k, k), dtype=np.int64)
                for i, g in enumerate(orbit):
                    a[local[int(pi[g])], i] += 1
                    a[i, i] -= 1
                mats.append(a % self.p)
            yield orbit, mats


def perm_module_actions(mu: Partition, n: int, p: int) -> PermutationActions:
    mu = validate(mu)
    if n < 1 or n * p > size(mu):
        raise PreconditionViolated(f"E_{n} at p={p} needs {n * p} letters")
    table = _tabloid_table(mu)
    perms = [table.apply_letters(img) for img in generator_cycles(table.m, n, p)]
    return PermutationActions(mu=mu, n=n, p=p, perms=perms, dim=table.count)
