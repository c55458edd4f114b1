"""Permutation modules M^mu, Specht modules S^mu, and the restriction of
the elementary abelian subgroup E_n to both.

Tabloids are stored as row-assignment vectors (letter -> row index); the
canonical order is lexicographic on the sequence of sorted row-sets, which
matches generation order when row sets are chosen as ascending
combinations.  A tabloid is found by one uint64 key per vector, searched
among the table's sorted keys (`_TabloidTable.lookup`), so whole batches
are looked up at once and a vector of no tabloid is caught, bar a
collision of 64-bit keys.

S^mu lives extrinsically inside M^mu as the column span of the
standard-polytabloid matrix B (T x d).  The standard tabloids {t} are the
table rows whose word is a lattice (ballot) word, in tableau order
(`_ballot_rows`).  B's rows at them form a d x d minor that is unit lower
triangular over the integers, so it is invertible mod every p and B has
full column rank: every other tabloid of e_t is dominated by {t} (James,
LNM 682, 8.11), and the row-reading order of the standard tableaux lists a
dominated one later.  `standard_basis` checks this minor on every build.
With P_i the tabloid permutation of g_i, each action is pulled back to the
d x d matrix Y_i = A_i + I with B Y_i = P_i B: forward substitution solves
it on the minor alone, then B Y_i = P_i B is checked on every row of B, in
row tiles whose products take about ``gfp.TILE_BYTES`` each, or at least
``_MIN_TILE_ROWS`` rows.

With ``SPECHTVAR_CACHE`` set, `restricted_actions` keeps the A_i on disk:
one raw, digest-checked record ``KEY.bin`` per module (`_load_cached`).
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

from . import gfp
from .errors import (NoSolution, PreconditionViolated, RankCheckFailed,
                     TooLarge)
from .partitions import (Partition, conjugate, dim_specht, format_partition,
                         size, validate)

_TABLOID_CAP = 10**6
_COLGROUP_CAP = 10**7
_DIM_CAP = 2000
_BATCH = 2**20  # letters handled per vectorised step; 2**17 was no faster
# Fewest rows of B per tile of the check of B Y = P B, whatever gfp.TILE_BYTES
# gives: BLAS packs all of Y for every tile's GEMM, so shorter tiles spend
# more of the check packing.  64 made the (6,3,3), p = 3 check slower than
# 158-row tiles; 128 did not.
_MIN_TILE_ROWS = 128
_DIGEST_BYTES = 32  # a sha256 digest, at the head of a cache record


def tabloid_count(mu: Partition) -> int:
    m = size(mu)
    count = math.factorial(m)
    for part in mu:
        count //= math.factorial(part)
    return count


class _TabloidTable:
    """Row-assignment matrix (T, m) and the index of any tabloid by its key.

    The key of a row-assignment vector v is v @ w in wrapping uint64
    arithmetic, for odd weights w read from the SHAKE-128 stream of a fixed
    seed, or of the next seed if two rows of the table share a key.  The table's keys are kept
    sorted with their canonical indices, so a lookup is one product, one
    search and a check that each key found is the key asked for.
    """

    def __init__(self, mu: Partition):
        m = size(mu)
        count = tabloid_count(mu)
        if count > _TABLOID_CAP:
            raise TooLarge(f"{count} tabloids for {format_partition(mu)}")
        self.mu = mu
        self.m = m
        self.count = count
        # Rows are filled in order, each tabloid splitting into one child per
        # combination of its free letters (marked len(mu)), so parents stay
        # in order and children follow combination order.
        rows = np.full((1, m), len(mu), dtype=np.uint8)
        for r, k in enumerate(mu):
            free = np.nonzero(rows == len(mu))[1].reshape(len(rows), -1)
            picks = np.array(list(itertools.combinations(range(free.shape[1]), k)),
                             dtype=np.intp)
            chosen = free[:, picks].reshape(-1, k)
            rows = np.repeat(rows, len(picks), axis=0)
            rows[np.arange(len(rows))[:, None], chosen] = r
        self.rows = rows
        for seed in itertools.count():
            digest = hashlib.shake_128(f"tabloid keys {seed}".encode()).digest(8 * m)
            weights = np.frombuffer(digest, dtype="<u8") | 1
            keys = _keys(rows, weights)
            order = np.argsort(keys)
            if not (keys[order[1:]] == keys[order[:-1]]).any():
                break
        self.weights = weights
        self._order = order  # canonical index of each key, in key order
        self._sorted = keys[order]

    def _find(self, keys: np.ndarray) -> np.ndarray:
        """Canonical index of each key; RankCheckFailed for a key of no tabloid."""
        pos = np.minimum(np.searchsorted(self._sorted, keys), self.count - 1)
        if not np.array_equal(self._sorted[pos], keys):
            raise RankCheckFailed(f"a vector is not a tabloid of {format_partition(self.mu)}")
        return self._order[pos]

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Canonical index of each row-assignment vector along the last axis."""
        return self._find(_keys(rows, self.weights))

    def apply_letters(self, img: np.ndarray) -> np.ndarray:
        """Permutation of tabloid indices induced by letter map x -> img[x-1].

        The image of v puts letter img[x] in row v[x], so its key is
        v @ w[img - 1]: the permuted table is never formed.  PreconditionViolated
        unless ``img`` is a permutation of 1..m: other maps give tabloids too.
        """
        img = np.asarray(img)
        if not np.array_equal(np.sort(img), np.arange(1, self.m + 1)):
            raise PreconditionViolated(f"letter map is not a permutation of 1..{self.m}")
        return self._find(_keys(self.rows, self.weights[img - 1]))


def _keys(rows: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """rows @ weights along the last axis modulo 2^64, rows of any integer type.

    einsum casts through its buffer, so no uint64 copy of ``rows`` is made.
    """
    return np.einsum("...j,j->...", rows, weights, dtype=np.uint64, casting="unsafe")


def orbit_labels(maps, size: int) -> np.ndarray:
    """Least index of each orbit of the group generated by ``maps``, index
    arrays permuting range(size): label = min(label, label[g]) over the maps,
    then label = label[label], until no label moves (g^-1 is a power of g)."""
    label = np.arange(size, dtype=np.int32 if size < 2**31 else np.int64)
    while True:
        before = label
        for g in maps:
            label = np.minimum(label, label[g])
        label = label[label]
        if np.array_equal(label, before):
            return label


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


def _ballot_rows(table: _TabloidTable) -> np.ndarray:
    """Indices of the standard tabloids {t}, one per standard tableau t.

    A tabloid is {t} for a standard t exactly when its row-assignment word
    is a lattice word: each prefix puts no more letters in row r than in
    row r - 1.  Then t is the tabloid's rows read in ascending order, so the
    canonical order lists these tabloids in the tableaux' row-reading order.
    """
    ballot = np.empty(table.count, dtype=bool)
    step = max(1, _BATCH // max(table.m, 1))
    for lo in range(0, table.count, step):
        words = table.rows[lo: lo + step]
        ok = np.ones(len(words), dtype=bool)
        above = np.cumsum(words == 0, axis=1, dtype=np.int32)
        for r in range(1, len(table.mu)):
            here = np.cumsum(words == r, axis=1, dtype=np.int32)
            ok &= (here <= above).all(axis=1)
            above = here
        ballot[lo: lo + step] = ok
    return np.flatnonzero(ballot)


@dataclass(frozen=True)
class SpechtBasis:
    mu: Partition
    p: int
    tabloid_count: int
    dim: int
    B: np.ndarray  # (T, d) over GF(p), of type exact_float(d, p); columns are
    # the standard polytabloids
    standard_rows: np.ndarray  # (d,) row of B holding {t}, per tableau t


def _signed_perms(c: int) -> tuple[np.ndarray, np.ndarray]:
    """All permutations of range(c) as rows, and their signs."""
    perms = np.array(list(itertools.permutations(range(c))), dtype=np.uint8)
    inversions = np.zeros(len(perms), dtype=np.int64)
    for i, j in itertools.combinations(range(c), 2):
        inversions += perms[:, i] > perms[:, j]
    return perms, 1 - 2 * (inversions % 2)


def _polytabloid_matrix(table: _TabloidTable, standard: np.ndarray,
                        p: int) -> np.ndarray:
    """B over GF(p): column t is e_t, the signed sum of {sigma t} over the
    column group of t, for the standard tableaux t whose tabloids are the
    table rows ``standard``.

    An arrangement of the column group sends each cell of the shape to a
    row; it is built once for the shape and applied to every tableau.  A
    tableau's letters, sorted by row and stably, are its row-reading word,
    so the argsort of its tabloid gives the cell of each letter.  The
    tabloids {sigma t} of one tableau are distinct, so each entry is
    written once.  Work goes in batches of at most _BATCH letters.  B is
    built in the float type the solve reads, exact_float(d, p), so no
    integer copy of it is ever held.
    """
    conj = conjugate(table.mu)
    cells = [(r, j) for j, c in enumerate(conj) for r in range(c)]
    by_row = np.array(sorted(range(len(cells)), key=cells.__getitem__), dtype=np.intp)
    reading = np.argsort(table.rows[standard], axis=1, kind="stable")
    where = np.empty(reading.shape, dtype=np.intp)  # cell of each letter
    np.put_along_axis(where, reading, by_row[None], axis=1)
    signed = {c: _signed_perms(c) for c in set(conj)}
    radix = [math.factorial(c) for c in conj]
    group = math.prod(radix)
    per = max(1, _BATCH // max(table.m, 1))
    width = min(group, per)  # arrangements per batch
    depth = max(1, per // width)  # tableaux per batch
    d = len(standard)
    b = np.zeros((table.count, d), dtype=gfp.exact_float(d, p))
    for lo in range(0, group, width):
        arrangement = np.arange(lo, min(lo + width, group))
        image = np.empty((len(arrangement), len(cells)), dtype=np.uint8)
        sign = np.ones(len(arrangement), dtype=np.int64)
        first = 0
        for c, base in zip(conj, radix):
            perms, signs = signed[c]
            digit = arrangement % base
            arrangement = arrangement // base
            image[:, first: first + c] = perms[digit]
            sign *= signs[digit]
            first += c
        sign %= p  # each entry is written once, so it is written reduced
        for t0 in range(0, d, depth):
            cols = np.arange(t0, min(t0 + depth, d))
            b[table.lookup(image[:, where[cols]]), cols] = sign[:, None]
    return b


def standard_basis(mu: Partition, p: int) -> SpechtBasis:
    """The standard polytabloids of S^mu as the columns of B over GF(p).

    The standard tableaux are read off the tabloid table as its ballot rows,
    which are ``standard_rows``; PreconditionViolated unless there are as
    many as the hook formula gives.  Raises RankCheckFailed unless B at
    those rows is unit lower triangular in tableau order: that d x d check
    stands in for the rank of B, which it implies.
    """
    mu = validate(mu)
    d = dim_specht(mu)
    if d > _DIM_CAP:
        raise TooLarge(f"dim {d} exceeds {_DIM_CAP}")
    table = _tabloid_table(mu)
    rows = _ballot_rows(table)
    if len(rows) != d:
        raise PreconditionViolated(f"{len(rows)} standard tableaux for "
                                   f"{format_partition(mu)}, hook formula gives {d}")
    colgroup = math.prod(math.factorial(c) for c in conjugate(mu))
    if colgroup > _COLGROUP_CAP:
        raise TooLarge(f"column group order {colgroup} exceeds {_COLGROUP_CAP}")

    b = _polytabloid_matrix(table, rows, p)
    minor = b[rows]
    if (np.diagonal(minor) != 1).any() or np.triu(minor, 1).any():
        raise RankCheckFailed(f"standard-tabloid minor of {format_partition(mu)} "
                              f"is not unit lower triangular over GF({p})")
    return SpechtBasis(mu=mu, p=p, tabloid_count=table.count, dim=d,
                       B=b, standard_rows=rows)


@dataclass(frozen=True)
class RestrictedActions:
    """Matrices A_i of (g_i - 1) acting on a module over GF(p)."""

    mu: Partition
    n: int
    p: int
    A: np.ndarray  # the A_i as one C-contiguous (n, d, d) stack, of the type
    # gfp.exact_float(n, p) that the point operator multiplies in
    dim: int
    conjugated: bool = False

    @property
    def blocks(self) -> tuple[tuple[np.ndarray, int], ...]:
        """The module as (stack, multiplicity) blocks: a Specht module is one."""
        return ((self.A, 1),)

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


def _cache_key(work: Partition, n: int, p: int) -> str:
    from . import __version__  # runtime import: the package root imports us
    text = f"{format_partition(work)}|n={n}|p={p}|v{__version__}"
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def _cache_dtype(p: int) -> np.dtype:
    """The smallest unsigned type that holds 0..p-1: uint8 for p <= 256."""
    return np.min_scalar_type(p - 1)


def _digest(key: str, stack: np.ndarray) -> bytes:
    """sha256 of the key, the dtype, the shape and the bytes of ``stack``."""
    h = hashlib.sha256(f"{key}|{stack.dtype.str}|{stack.shape}|".encode())
    h.update(np.ascontiguousarray(stack).data)
    return h.digest()


def _load_cached(path: Path, key: str, n: int, d: int,
                 p: int) -> np.ndarray | None:
    """The cached A_i as one stack of type exact_float(n, p), or None on a miss.

    A file is one raw record with no header, as the caller knows n, d and
    p: the 32-byte ``_digest(key, stack)``, then the (n, d, d) stack of the
    A_i in ``_cache_dtype(p)``, C order, uncompressed.  It is a miss unless
    it can be read, has exactly that length, its digest (of key, dtype and
    shape too) matches and every entry is below p.
    """
    dtype = _cache_dtype(p)
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    if len(raw) != _DIGEST_BYTES + n * d * d * dtype.itemsize:
        return None
    stack = np.frombuffer(raw, dtype=dtype, offset=_DIGEST_BYTES).reshape(n, d, d)
    if raw[:_DIGEST_BYTES] != _digest(key, stack) or stack.max() >= p:
        return None
    return stack.astype(gfp.exact_float(n, p))


def _solve_on_minor(b: np.ndarray, rows: np.ndarray, sources: np.ndarray,
                    p: int) -> np.ndarray:
    """The Y_i with B Y_i = B[source_i] over GF(p), as a (d, n, d) float
    array, where B[rows] is a unit lower triangular d x d minor and
    ``sources`` is (n, T).

    B is read as floats of type exact_float(d, p), converted here unless it
    comes in that type.  The rows B[source_i[rows]] are written into one
    array and solved in place by forward substitution on the minor, so no
    elimination runs.  B Y_i = B[source_i] is then checked on every row of
    B, in tiles of max(_MIN_TILE_ROWS, gfp.TILE_BYTES // (n d itemsize))
    rows: each tile's product is one GEMM of about TILE_BYTES, or of
    _MIN_TILE_ROWS rows where those take more, reduced and compared while
    it is in cache.  A failing row raises NoSolution, since Y is the only
    candidate.
    """
    d, n = len(rows), len(sources)
    b = np.asarray(b, dtype=gfp.exact_float(d, p))
    y = np.empty((d, n, d), dtype=b.dtype)
    for i, source in enumerate(sources):
        y[:, i] = b[source[rows]]
    gfp.solve_unit_lower(b[rows], y.reshape(d, n * d), p)
    step = max(_MIN_TILE_ROWS, gfp.TILE_BYTES // (n * d * b.itemsize))
    for lo in range(0, len(b), step):
        prod = gfp.float_mod(b[lo: lo + step] @ y.reshape(d, n * d), p)
        if not np.array_equal(prod.reshape(-1, n, d), b[sources[:, lo: lo + step].T]):
            raise NoSolution(f"B Y = P B fails in rows {lo}..{min(lo + step, len(b)) - 1}")
    return y


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

    cache = os.environ.get("SPECHTVAR_CACHE")
    key = _cache_key(work, n, p)
    path = Path(cache) / f"{key}.bin" if cache else None
    stack = _load_cached(path, key, n, dim_specht(work), p) if path else None
    if stack is not None:
        return RestrictedActions(mu=mu, n=n, p=p, A=stack,
                                 dim=stack.shape[1], conjugated=conjugated)

    basis = standard_basis(work, p)
    d = basis.dim
    table = _tabloid_table(work)
    sources = np.empty((n, table.count), dtype=np.int64)  # P_i B = B[source_i]
    for i, img in enumerate(generator_cycles(table.m, n, p)):
        sources[i, table.apply_letters(img)] = np.arange(table.count)
    y = _solve_on_minor(basis.B, basis.standard_rows, sources, p)
    del basis, sources  # B is not read again: free it before the stack is made
    diag = np.arange(d)
    y[diag, :, diag] = (y[diag, :, diag] - 1) % p  # A_i = Y_i - I
    stack = y.transpose(1, 0, 2).astype(gfp.exact_float(n, p), order="C")
    if path is not None:
        record = stack.astype(_cache_dtype(p))
        # renamed into place whole, so no reader sees a half-written file
        tmp = path.with_name(f"{key}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "wb") as f:
                f.writelines((_digest(key, record), record.data))  # no joined copy
            os.replace(tmp, path)
        except OSError:
            with contextlib.suppress(OSError):
                tmp.unlink()
    return RestrictedActions(mu=mu, n=n, p=p, A=stack, dim=d, conjugated=conjugated)


@dataclass(frozen=True)
class PermutationActions:
    """E_n acting on the tabloid basis of M^mu by index permutations."""

    mu: Partition
    n: int
    p: int
    perms: list[np.ndarray]
    dim: int

    def orbits(self) -> list[np.ndarray]:
        """E_n-orbits on tabloids, each sorted, ordered by least element:
        ``orbit_labels`` of the generators' tabloid permutations, grouped."""
        label = orbit_labels(self.perms, self.dim)
        order = np.argsort(label, kind="stable")  # grouped by label, ascending within
        return np.split(order, np.flatnonzero(np.diff(label[order])) + 1)

    @cached_property
    def blocks(self) -> tuple[tuple[np.ndarray, int], ...]:
        """``block_actions`` grouped by identical stacks, as (stack, count).

        Built once per module; every point evaluation walks these blocks.
        """
        groups: dict[bytes, tuple[np.ndarray, int]] = {}
        for _, stack in self.block_actions():
            key = stack.tobytes()
            held, count = groups.get(key, (stack, 0))
            groups[key] = (held, count + 1)
        return tuple(groups.values())

    def block_actions(self):
        """Per-orbit dense (g_i - 1) blocks, one (n, k, k) stack of type
        ``gfp.exact_float(n, p)`` per orbit; Jordan data adds over blocks."""
        perms = np.asarray(self.perms)
        for orbit in self.orbits():
            k = len(orbit)
            cols = np.arange(k)
            # the orbit is sorted, so a search finds each image's local index
            images = np.searchsorted(orbit, perms[:, orbit])
            stack = np.zeros((self.n, k, k), dtype=gfp.exact_float(self.n, self.p))
            stack[np.arange(self.n)[:, None], images, cols] = 1
            stack[:, cols, cols] -= 1
            yield orbit, gfp.float_mod(stack, self.p)


def perm_module_actions(mu: Partition, n: int, p: int) -> PermutationActions:
    mu = validate(mu)
    if n < 1 or n * p > size(mu):
        raise PreconditionViolated(f"E_{n} at p={p} needs {n * p} letters")
    table = _tabloid_table(mu)
    perms = [table.apply_letters(img) for img in generator_cycles(table.m, n, p)]
    return PermutationActions(mu=mu, n=n, p=p, perms=perms, dim=table.count)
