"""Partition combinatorics: hooks, dimensions, abacus, p-cores, containment.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the empty partition.  Beta-numbers follow the first-column
hook length convention: a partition with s parts has beads mu_i + (s - i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import PreconditionViolated, TooLarge

Partition = tuple[int, ...]


def validate(mu) -> Partition:
    mu = tuple(int(x) for x in mu)
    if any(x <= 0 for x in mu):
        raise PreconditionViolated(f"parts must be positive: {mu}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise PreconditionViolated(f"parts must be weakly decreasing: {mu}")
    return mu


def parse_partition(text: str) -> Partition:
    """Parse "(4,3,2)" or "4,3,2"; "()" is the empty partition."""
    body = text.strip().strip("()")
    if not body:
        return ()
    return validate(int(tok) for tok in body.split(","))


def format_partition(mu: Partition) -> str:
    return "(" + ",".join(str(x) for x in mu) + ")"


def size(mu: Partition) -> int:
    return sum(mu)


def conjugate(mu: Partition) -> Partition:
    if not mu:
        return ()
    return tuple(sum(1 for part in mu if part > j) for j in range(mu[0]))


def hook_lengths(mu: Partition) -> dict[tuple[int, int], int]:
    """Hook length of each node, keyed by 1-based (row, col)."""
    conj = conjugate(mu)
    out = {}
    for i, row in enumerate(mu, start=1):
        for j in range(1, row + 1):
            arm = row - j
            leg = conj[j - 1] - i
            out[(i, j)] = arm + leg + 1
    return out


def dim_specht(mu: Partition) -> int:
    hooks = hook_lengths(mu)
    prod = math.prod(hooks.values())
    num = math.factorial(size(mu))
    if num % prod:
        raise PreconditionViolated(f"hook product {prod} does not divide {size(mu)}!")
    return num // prod


def syt_count(mu: Partition) -> int:
    """Standard Young tableaux counted by direct backtracking.

    Independent of the hook formula on purpose; capped at size 16.
    """
    m = size(mu)
    if m > 16:
        raise TooLarge(f"|mu| = {m} > 16")
    if m == 0:
        return 1

    rows = len(mu)
    filled = [0] * rows  # entries placed so far in each row

    def place(entry: int) -> int:
        if entry > m:
            return 1
        total = 0
        for r in range(rows):
            if filled[r] < mu[r] and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                total += place(entry + 1)
                filled[r] -= 1
        return total

    return place(1)


def beta_numbers(mu: Partition, beads: int | None = None) -> list[int]:
    """First-column hook lengths, padded to `beads` by prepending 0,1,..."""
    s = len(mu)
    if beads is None:
        beads = s
    if beads < s:
        raise PreconditionViolated("fewer beads than parts")
    extra = beads - s
    padded = list(range(extra)) + [mu[i] + (s - 1 - i) + extra for i in range(s - 1, -1, -1)]
    return padded


def partition_from_beta(beta: list[int]) -> Partition:
    beta = sorted(beta)
    parts = [b - i for i, b in enumerate(beta)]
    return tuple(x for x in reversed(parts) if x > 0)


@dataclass(frozen=True)
class CoreData:
    core: Partition
    weight: int


def p_core_weight(mu: Partition, p: int) -> CoreData:
    """Slide abacus beads up their runners; core and number of slides."""
    beads = set(beta_numbers(mu))
    weight = 0
    moved = True
    while moved:
        moved = False
        for b in sorted(beads):
            if b >= p and (b - p) not in beads:
                beads.remove(b)
                beads.add(b - p)
                weight += 1
                moved = True
    core = partition_from_beta(sorted(beads))
    return CoreData(core=core, weight=weight)


def contained_p(m: int, n: int, p: int) -> bool:
    """Digitwise m <= n in base p; equivalently binom(n, m) != 0 mod p."""
    if m < 0 or m > n:
        return False
    while m:
        if m % p > n % p:
            return False
        m //= p
        n //= p
    return True


def branching_set(mu: Partition) -> set[Partition]:
    """Partitions obtained by removing one removable node."""
    if not mu:
        raise PreconditionViolated("empty partition has no removable node")
    out = set()
    for i, part in enumerate(mu):
        if i + 1 < len(mu) and mu[i + 1] == part:
            continue
        if part == 1:
            out.add(mu[:i])
        else:
            out.add(mu[:i] + (part - 1,) + mu[i + 1:])
    return out


def is_pxp_blocks(mu: Partition, p: int) -> bool:
    """Every part a multiple of p and every multiplicity a multiple of p."""
    if any(part % p for part in mu):
        return False
    mults: dict[int, int] = {}
    for part in mu:
        mults[part] = mults.get(part, 0) + 1
    return all(c % p == 0 for c in mults.values())


@lru_cache(maxsize=None)
def partitions_of(m: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of m, largest-part-first lexicographic order."""
    if m == 0:
        return ((),)
    cap = m if max_part is None else min(m, max_part)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions_of(m - first, first):
            out.append((first,) + rest)
    return tuple(out)
