"""Query pools of the four workloads and the seeded draw over them.

A query is one string, shaped like a command line, e.g.
``variety --mu (5,2,1,1) --p 3 --ext 3 --out json``.  The same string keys
its reference output in ``refs.json`` and is what a run's replay record
lists, so any run can be repeated on another commit.

Each workload is a fixed list of *slots*.  The queries of one slot do the
same work: S^mu and S^mu' are built from one work partition (the one with
fewer tabloids), so the two members of a conjugate pair cost the same, and
a generic-type query costs the same for every per-query ``--seed``.  One
round asks one query from every slot, in a seeded order.  The seed picks
members and order, never the amount of work, so every seed measures the
same work and runs stay comparable across seeds.

This module does not import spechtvar, so that a change to the program's
partition code cannot change which queries the benchmark asks.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("locus", "generic", "construct", "cache-read")
_GENERIC_SEEDS = (0, 1, 2)


def fmt(mu: tuple[int, ...]) -> str:
    return "(" + ",".join(str(x) for x in mu) + ")"


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.strip("()").split(",") if x)


def conjugate(mu: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for part in mu if part > j) for j in range(mu[0])) if mu else ()


def partitions(m: int, largest: int | None = None):
    """Partitions of m in decreasing lexicographic order."""
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in partitions(m - first, first):
            yield (first,) + rest


def tabloids(mu: tuple[int, ...]) -> int:
    count = math.factorial(sum(mu))
    for part in mu:
        count //= math.factorial(part)
    return count


def dim_specht(mu: tuple[int, ...]) -> int:
    """Hook length formula."""
    conj = conjugate(mu)
    hooks = 1
    for i, row in enumerate(mu):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(mu)) // hooks


def pair(text: str) -> tuple[str, ...]:
    """The conjugate pair of a partition: one member if self-conjugate."""
    mu = parse(text)
    other = conjugate(mu)
    return (fmt(mu),) if other == mu else (fmt(mu), fmt(other))


# ---------------------------------------------------------------------------
# locus: `spechtvar variety`, each (mu, p, ext, out) at most once per run


def _variety(mu: str, p: int, ext: int, out: str) -> tuple[str, ...]:
    return tuple(f"variety --mu {m} --p {p} --ext {ext} --out {out}" for m in pair(mu))


# Slot 0 anchors the round: a GF(27) sweep whose blown-up matrices are
# 567 x 567, beyond a per-core L2.  The run ends when it runs out of
# members, since a repeat would be served by the locus memo.
_LOCUS = [
    _variety("(5,2,1,1)", 3, 3, "json"),
    _variety("(3,3,3)", 3, 3, "json"),     # hypersurface: interpolation
    _variety("(7,2)", 3, 3, "json"),       # axes-union
    _variety("(7,1,1)", 3, 3, "json"),     # full locus
    _variety("(5,3,1)", 3, 2, "json"),     # zero locus over GF(9)
    _variety("(4,3,2)", 3, 2, "json"),
    _variety("(6,3)", 3, 2, "json"),
    _variety("(6,3)", 3, 2, "tsv"),
    _variety("(7,2)", 3, 2, "tsv"),
    _variety("(7,1,1)", 3, 2, "tsv"),
    _variety("(8,1)", 3, 3, "tsv"),
    _variety("(6,2)", 2, 2, "json"),
    _variety("(4,2,2)", 2, 2, "json"),
    _variety("(4,3,1)", 2, 2, "json"),
    _variety("(5,3)", 2, 2, "tsv"),
    _variety("(5,2,1)", 2, 2, "tsv"),
    _variety("(5,1,1,1)", 2, 2, "tsv"),
    _variety("(5,3)", 2, 3, "json"),
    _variety("(6,1,1)", 2, 3, "json"),
    _variety("(7,1)", 2, 3, "json"),
    _variety("(4,4)", 2, 3, "tsv"),
] + [_variety(mu, 2, 3, "tsv")
     for mu in ("(6)", "(5,1)", "(4,2)", "(4,1,1)", "(3,3)", "(3,2,1)")] + [
    _variety(mu, 2, ext, "json")
    for mu, ext in (("(6)", 2), ("(4,2)", 2), ("(3,3)", 2),
                    ("(5,1)", 3), ("(4,1,1)", 3), ("(3,2,1)", 3))]


# ---------------------------------------------------------------------------
# generic: `spechtvar jordan` with a per-query --seed, plus permutation modules


def _jordan(mu: str, p: int, mode: str = "random") -> tuple[str, ...]:
    return tuple(f"jordan --mu {m} --p {p} --mode {mode} --seed {s}"
                 for m in pair(mu) for s in _GENERIC_SEEDS)


def _perm(mu: str, p: int, mode: str = "random") -> tuple[str, ...]:
    return tuple(f"perm-jordan --mu {mu} --p {p} --mode {mode} --seed {s}"
                 for s in _GENERIC_SEEDS)


_GENERIC = [
    # p = 3 over GF(3^8): blown-up matrices 8d x 8d, up to 960 x 960
    _jordan("(5,2,2)", 3), _jordan("(6,2,1)", 3), _jordan("(4,4,1)", 3),
    _jordan("(5,1,1,1,1)", 3), _jordan("(6,1,1,1)", 3), _jordan("(6,3)", 3),
    _jordan("(5,4)", 3), _jordan("(3,3,3)", 3), _jordan("(7,1,1)", 3),
    _jordan("(7,2)", 3),
    # p = 2 (one power) and p = 5 (four powers)
    _jordan("(4,2,1,1)", 2), _jordan("(4,3,1)", 2), _jordan("(5,2,1)", 2),
    _jordan("(3,3,2)", 2), _jordan("(5,1,1,1)", 2), _jordan("(5,3)", 2),
    _jordan("(6,2)", 2), _jordan("(4,4)", 2),
    _jordan("(7,3)", 5), _jordan("(8,2)", 5), _jordan("(5,5)", 5), _jordan("(8,1,1)", 5),
    # permutation modules, decomposed into orbit blocks
    _perm("(6,3)", 3), _perm("(3,3,3)", 3), _perm("(4,4)", 2), _perm("(4,2,2)", 2),
    _perm("(7,3)", 5),
    # exact mode: Bareiss over the rational function field, dim <= 32
    _jordan("(7,2)", 3, "exact"), _jordan("(5,3)", 2, "exact"),
    _jordan("(6,2)", 2, "exact"), _perm("(6,3)", 3, "exact"),
]


# ---------------------------------------------------------------------------
# construct / cache-read: restricted_actions on partitions of 9 at p = 3 and
# of 10 at p = 2 and p = 5.  Skipped: trivial modules (dim < 20) and those
# whose tall solve matrix T x (n+1)d would pass 41 MiB of int64.

_SOLVE_CAP = 41 * 2**20
_MIN_DIM = 20


def _solve_bytes(mu: tuple[int, ...], p: int) -> int:
    """Size of the int64 matrix [B | (g_i - 1)B] that restricted_actions solves."""
    work = min(mu, conjugate(mu), key=tabloids)
    return tabloids(work) * (sum(mu) // p + 1) * dim_specht(mu) * 8


def solve_size(slot: tuple[str, ...]) -> int:
    """Cost proxy of a construct / cache-read slot."""
    words = slot[0].split()
    return _solve_bytes(parse(words[2]), int(words[4]))


def _module_slots(kind: str) -> list[tuple[str, ...]]:
    slots = []
    for size, p in ((9, 3), (10, 2), (10, 5)):
        for mu in partitions(size):
            if mu < conjugate(mu):
                continue  # the pair is listed under its larger member
            if dim_specht(mu) < _MIN_DIM or _solve_bytes(mu, p) > _SOLVE_CAP:
                continue
            slots.append(tuple(f"{kind} --mu {m} --p {p}" for m in pair(fmt(mu))))
    return slots


POOLS: dict[str, list[tuple[str, ...]]] = {
    "locus": _LOCUS,
    "generic": _GENERIC,
    "construct": _module_slots("construct"),
    "cache-read": _module_slots("cache-read"),
}

# Workloads whose queries may not repeat within a run.
_UNIQUE = {"locus"}


def _check_locus_pool() -> None:
    """JSON sweeps fill the locus memo for their (mu, p) at every degree
    classify may touch, so no (mu, p) may appear in two JSON slots."""
    seen: dict[tuple[str, str], int] = {}
    for i, slot in enumerate(_LOCUS):
        for key in slot:
            words = key.split()
            if words[-1] != "json":
                continue
            owner = seen.setdefault((words[2], words[4]), i)
            if owner != i:
                raise ValueError(f"{key} shares its locus memo with slot {owner}")


_check_locus_pool()


def tail_quantile(workload: str) -> float:
    """The tail percentile reported for a workload, fixed by its round size.

    It leaves ten queries of one round beyond it, so it is the same
    percentile whether a run completes one round or hundreds.
    """
    return 1 - 10 / len(POOLS[workload])


def all_queries(workload: str) -> list[str]:
    """Every query any seed can draw for this workload."""
    return [key for slot in POOLS[workload] for key in slot]


def rounds(workload: str, seed: int):
    """Yield the rounds of one run: lists of query keys, in run order.

    Unique workloads walk a seeded permutation of each slot, one member per
    round, and stop when the anchor slot (slot 0) is used up; slots with
    fewer members drop out of later rounds.  The others draw a member per
    slot with replacement, without end.
    """
    rng = random.Random(f"{workload}|{seed}")
    slots = POOLS[workload]
    if workload in _UNIQUE:
        orders = [rng.sample(slot, len(slot)) for slot in slots]
        for r in range(len(orders[0])):
            batch = [order[r] for order in orders if r < len(order)]
            rng.shuffle(batch)
            yield batch
        return
    while True:
        batch = [rng.choice(slot) for slot in slots]
        rng.shuffle(batch)
        yield batch
