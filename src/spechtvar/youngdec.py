"""Young-module summand sets for two-part permutation modules.

Everything here is digitwise base-p combinatorics: Y^{(r-s,s)} is a
summand of M^{(r-m,m)} iff m-s is p-contained in r-2s, and in the
two-part case multiplicities are always one, so module decompositions
reduce to containments of summand index sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NotBlockMultiple, PreconditionViolated
from .jordan import JordanType
from .partitions import contained_p, size, validate
from .spechtmod import tabloid_count


@dataclass(frozen=True)
class SummandSet:
    """Indices s with Y^{(r-s,s)} a summand of M^{(r-m,m)}."""

    r: int
    m: int
    p: int
    s_values: frozenset[int]

    def sorted(self) -> list[int]:
        return sorted(self.s_values)


def young_summands(r: int, m: int, p: int) -> SummandSet:
    if not 0 <= 2 * m <= r:
        raise PreconditionViolated(f"need 0 <= m <= r/2, got r={r}, m={m}")
    s_values = frozenset(s for s in range(m + 1)
                         if contained_p(m - s, r - 2 * s, p))
    if m not in s_values:  # 0 is p-contained in anything
        raise PreconditionViolated(f"s = {m} missing from the summands of "
                                   f"M^({r - m},{m}) at p={p}")
    return SummandSet(r=r, m=m, p=p, s_values=s_values)


def _two_part(r: int, m: int) -> int:
    """Row length m of the partition underlying the composition (r-m, m)."""
    return min(m, r - m)


def verify_cor_psquare(p: int) -> dict:
    """M^{(p^2-m,m)} ~ M^{(p^2-m+p,m-p)} + Q for p < m <= p^2/2.

    Verified as containment of Young-summand index sets; the Specht
    factors of Q are recorded for documentation only.
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated("needs an odd prime")
    r = p * p
    cases = []
    for m in range(p + 1, r // 2 + 1):
        left = young_summands(r, m - p, p)
        right = young_summands(r, m, p)
        holds = left.s_values <= right.s_values
        factors = [(r - m + p - j, m - p + j) for j in range(1, p + 1)
                   if r - m + p - j >= m - p + j]
        cases.append({
            "m": m,
            "left": left.sorted(),
            "right": right.sorted(),
            "holds": holds,
            "extra_summands": sorted(right.s_values - left.s_values),
            "filtration_factors": factors,
        })
    return {"corollary": "p-square decomposition", "p": p,
            "cases": cases, "all_hold": all(c["holds"] for c in cases)}


def verify_cor_multiple(n: int, p: int) -> dict:
    """M^{(np-2p,2p)} against M^{(np-p,p)}, split by n mod p.

    Case i (n != 1, 2 mod p): plain summand-set containment.  Case ii
    (n = 1 mod p): the trivial summand s=0 splits off the small module
    first, so containment is checked after removing it.  n = 2 mod p is
    outside the hypothesis and reported as skipped.
    """
    if p < 3 or p % 2 == 0:
        raise PreconditionViolated("needs an odd prime")
    if n < 3:
        raise PreconditionViolated("needs n >= 3")
    r = n * p
    base = {"corollary": "multiple-of-p decomposition", "n": n, "p": p}
    if n % p == 2:
        return base | {"case": "skipped", "holds": None,
                       "note": "hypothesis excludes n = 2 mod p"}
    left = young_summands(r, _two_part(r, p), p)
    right = young_summands(r, _two_part(r, 2 * p), p)
    factors = [(r - p - j, p + j) for j in range(1, p + 1) if r - p - j >= p + j]
    if n % p == 1:
        compared = left.s_values - {0}
        case = "ii"
    else:
        compared = left.s_values
        case = "i"
    return base | {
        "case": case,
        "left": left.sorted(),
        "right": right.sorted(),
        "holds": compared <= right.s_values,
        "trivial_in_left": 0 in left.s_values,
        "trivial_in_right": 0 in right.s_values,
        "filtration_factors": factors,
    }


def perm_generic_type_formula(mu, n: int, p: int) -> JordanType:
    """Generic type (p^a, 1^b) of M^mu when every part is a multiple of p.

    b counts the E_n-fixed tabloids (tabloids whose rows are unions of
    generator supports), a absorbs the rest of the dimension into free
    blocks.
    """
    mu = validate(mu)
    if size(mu) != n * p:
        raise PreconditionViolated(f"|mu| = {size(mu)} != np = {n * p}")
    if any(part % p for part in mu):
        raise NotBlockMultiple(f"parts of {mu} are not all multiples of {p}")
    b = math.factorial(n)
    for part in mu:
        b //= math.factorial(part // p)
    dim = tabloid_count(mu)
    if (dim - b) % p:
        raise NotBlockMultiple(f"dim {dim} and b {b} differ off the p-grid")
    blocks = [0] * p
    blocks[0] = b
    blocks[p - 1] += (dim - b) // p
    return JordanType(p=p, blocks=tuple(blocks))
