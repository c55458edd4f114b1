"""Desk-scale acceptance checks behind the ``verify`` subcommand.

Each check recomputes one advertised result from scratch and returns
(ok, detail).  ``run_all`` executes the fixed list in order, emitting one
PASS/FAIL line per check through the supplied logger.  Checks are cached
for the lifetime of the process: they are pure, and the table sweep is
expensive enough to be worth sharing between the CLI and the test suite.
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from functools import lru_cache

import numpy as np

from .ffalg import FieldCtx, MultiPoly
from .jordan import (JordanType, _rank_vectors, complementary_check,
                     generic_type, stable_type)
from .partitions import (Partition, branching_set, conjugate, contained_p,
                         dim_specht, format_partition, p_core_weight,
                         partitions_of, syt_count)
from .phimap import phi_chain, phi_step
from .spechtmod import perm_module_actions, restricted_actions
from .variety import (CATALOGUE_P3_9, classify_stable, enumerate_locus,
                      estimate_dimension, interpolate_forms, template_check)
from .youngdec import (perm_generic_type_formula, verify_cor_multiple,
                       verify_cor_psquare)

#: The hypersurface form of the (3,3,3) locus: x1^2 x2^2 + x2^2 x3^2 + x1^2 x3^2.
QUARTIC = MultiPoly(p=3, nvars=3,
                    terms={(2, 2, 0): 1, (0, 2, 2): 1, (2, 0, 2): 1})


# ---------------------------------------------------------------------------
# the 16-row classification table (shared with the `table9` subcommand)


def _table9_row(mu: Partition) -> dict:
    acts = restricted_actions(mu, 3, 3)
    cls = classify_stable(acts, ks=(2, 3))
    kind, dim = CATALOGUE_P3_9[mu]
    return {
        "mu": mu,
        "conjugate": conjugate(mu),
        "class": cls.kind,
        "est_dim": cls.est_dim,
        "agrees_with_paper": cls.kind == kind and cls.est_dim == dim,
    }


_TABLE9: list[dict] | None = None


def compute_table9(threads: int = 1) -> list[dict]:
    """All 16 GF(27) classifications for p=3, |mu|=9, in display order.

    Rows are computed independently per conjugate class and sorted
    afterwards, so the output does not depend on the parallelism degree.
    """
    global _TABLE9
    if _TABLE9 is None:
        reps = sorted(CATALOGUE_P3_9, reverse=True)
        if threads > 1:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                rows = list(pool.map(_table9_row, reps))
        else:
            rows = [_table9_row(mu) for mu in reps]
        _TABLE9 = sorted(rows, key=lambda r: r["mu"], reverse=True)
    return _TABLE9


# ---------------------------------------------------------------------------
# acceptance checks


@lru_cache(maxsize=None)
def table_reproduction(threads: int = 1) -> tuple[bool, str]:
    """All 16 conjugate classes classify as in the reference catalogue."""
    rows = compute_table9(threads)
    bad = [r for r in rows if not r["agrees_with_paper"]]
    if len(rows) != 16 or bad:
        names = ", ".join(format_partition(r["mu"]) for r in bad)
        return False, f"{len(rows)} rows; disagreements: {names or 'row count'}"
    kinds = Counter(r["class"] for r in rows)
    return True, (
        "16/16 GF(27) classes match the reference catalogue "
        f"({kinds['full']} full, {kinds['axes-union']} axes-union, "
        f"{kinds['zero']} zero, {kinds['hypersurface']} hypersurface)")


@lru_cache(maxsize=None)
def quartic_identification() -> tuple[bool, str]:
    """The (3,3,3) locus over GF(27) is cut out by the known quartic."""
    acts = restricted_actions((3, 3, 3), 3, 3)
    sample = enumerate_locus(acts, 3)
    forms = interpolate_forms(sample, 4)
    if len(forms) != 1:
        return False, f"degree <= 4 vanishing space has dimension {len(forms)}, not 1"
    f = forms[0]
    if f.degree() != 4 or f.degree() % (3 - 1) ** 2:
        return False, f"spanning form has degree {f.degree()}"
    if not f.proportional_to(QUARTIC):
        return False, f"spanning form {f!r} is not the expected quartic"
    if not template_check(f, 3):
        return False, "template shape test rejected the quartic"
    c = f.terms[(2, 2, 0)]
    hats = MultiPoly(p=3, nvars=3,
                     terms={(2, 2, 0): c, (0, 2, 2): c, (2, 0, 2): c})
    if f - hats:
        return False, "terms left over beyond the three hatted monomials"
    return True, ("vanishing space at degree 4 is spanned by "
                  "x1^2*x2^2 + x2^2*x3^2 + x1^2*x3^2; template holds with "
                  "n=1 and zero remainder; 4 = (p-1)^2")


@lru_cache(maxsize=None)
def dimension_estimate() -> tuple[bool, str]:
    """Point-count growth over k in {1,2,3} gives dim 2 = p-1 for (3,3,3)."""
    est = estimate_dimension(restricted_actions((3, 3, 3), 3, 3), (1, 2, 3))
    d = dim_specht((3, 3, 3))
    ok = est == 2 and d % 3 ** (3 - est) == 0
    return ok, (f"estimated dim {est} = p-1 from k in {{1,2,3}}; "
                f"3^(3-{est}) divides dim {d}")


_PERM_CASES = (((9,), 3, 3), ((6, 3), 3, 3), ((3, 3, 3), 3, 3),
               ((4, 2), 3, 2), ((2, 2, 2), 3, 2))  # (mu, n, p)


@lru_cache(maxsize=None)
def perm_generic_types() -> tuple[bool, str]:
    """Sampled generic types of M^mu match the closed-form (p^a, 1^b)."""
    bad = []
    for mu, n, p in _PERM_CASES:
        acts = perm_module_actions(mu, n, p)
        sampled = generic_type(acts, mode="randomized").type
        predicted = perm_generic_type_formula(mu, n, p)
        if sampled.blocks != predicted.blocks:
            bad.append(f"{format_partition(mu)}: {sampled.pretty()} "
                       f"!= {predicted.pretty()}")
    if bad:
        return False, "; ".join(bad)
    return True, ("5/5 permutation modules: sampled generic type equals the "
                  "closed-form type (p^a, 1^b)")


@lru_cache(maxsize=None)
def _specht_generic(mu: Partition, n: int, p: int) -> JordanType:
    return generic_type(restricted_actions(mu, n, p)).type


@lru_cache(maxsize=None)
def two_row_generic_types() -> tuple[bool, str]:
    """Generic-type bounds for S^((np-p, p)) at p=2 and p=3."""
    bad = []
    for n in (3, 4, 5):
        t = _specht_generic((2 * n - 2, 2), n, 2)
        if t.n(1) != n - 2:
            bad.append(f"(2n-2,2), n={n}: n_1 = {t.n(1)} != {n - 2}")
    observed = []
    for n in (2, 3):
        t = _specht_generic((3 * n - 3, 3), n, 3)
        st = stable_type(t)
        # the four possible stable types: (2,1^(n+1)), (2,2,1^(n-1)),
        # (1^n), (2,1^(n-2))
        allowed = {(n + 1, 1, 0), (n - 1, 2, 0), (n, 0, 0), (n - 2, 1, 0)}
        if not (n - 2 <= t.n(1) <= n + 1) or st.blocks not in allowed:
            bad.append(f"(3n-3,3), n={n}: n_1 = {t.n(1)}, stable {st.pretty()}")
        observed.append(f"n={n}: stable {st.pretty()}")
    if bad:
        return False, "; ".join(bad)
    return True, ("p=2: n_1 = n-2 for n=3,4,5; p=3: bounds and the four-case "
                  "list hold (" + "; ".join(observed) + ")")


_CHAIN_STARTS = ((4, 3, 2), (5, 2, 2), (4, 4, 1), (6, 2, 1), (5, 4))


@lru_cache(maxsize=None)
def complementary_pairs() -> tuple[bool, str]:
    """Every phi-pair among partitions of 9 has complementary stable types."""
    pairs = set()
    for mu in partitions_of(9):
        if len(mu) > 3 or p_core_weight(mu, 3).core != ():
            continue
        nxt = phi_step(mu, 3)
        if nxt != mu:
            pairs.add((mu, nxt))
    for start in _CHAIN_STARTS:
        chain = phi_chain(start, 3)
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in pairs:
                return False, (f"chain step {format_partition(a)} -> "
                               f"{format_partition(b)} missing from the sweep")
    bad = []
    for mu, nxt in sorted(pairs):
        t1 = stable_type(_specht_generic(mu, 3, 3))
        t2 = stable_type(_specht_generic(nxt, 3, 3))
        if not complementary_check(t1, t2, 3):
            bad.append(f"{format_partition(mu)} vs {format_partition(nxt)}")
    if bad:
        return False, "not complementary: " + ", ".join(bad)
    return True, (f"{len(pairs)}/{len(pairs)} phi-pairs have complementary "
                  "stable generic types, covering the chains of "
                  + ", ".join(format_partition(s) for s in _CHAIN_STARTS))


@lru_cache(maxsize=None)
def combinatorial_oracles() -> tuple[bool, str]:
    """Hook formula, branching, digitwise base-p test, corollary sweeps."""
    nine = partitions_of(9)
    if len(nine) != 30:
        return False, f"expected 30 partitions of 9, found {len(nine)}"
    for mu in nine:
        if dim_specht(mu) != syt_count(mu):
            return False, f"hook formula != tableau count at {format_partition(mu)}"
        if dim_specht(mu) != sum(dim_specht(lam) for lam in branching_set(mu)):
            return False, f"branching identity fails at {format_partition(mu)}"
    for p in (2, 3, 5):
        for total in range(201):
            for m in range(total + 1):
                if contained_p(m, total, p) != (math.comb(total, m) % p != 0):
                    return False, f"digit test != binomial at ({m},{total}) mod {p}"
    if not verify_cor_psquare(3)["all_hold"]:
        return False, "p=3 square-decomposition sweep failed"
    if not verify_cor_psquare(5)["all_hold"]:
        return False, "p=5 square-decomposition sweep failed"
    skipped = []
    for n in range(3, 13):
        rep = verify_cor_multiple(n, 3)
        if rep["case"] == "skipped":
            skipped.append(n)
        elif not rep["holds"]:
            return False, f"multiple-of-p sweep failed at n={n}"
    return True, ("30/30 hook dims match tableau counts; branching identity "
                  "holds; digitwise test matches binomials for n <= 200, "
                  "p in {2,3,5}; corollary sweeps pass "
                  f"(n={','.join(map(str, skipped))} excluded by hypothesis)")


_DENSE_ROSTER = (((8, 1), 3, 3), ((7, 2), 3, 3), ((3, 3, 3), 3, 3),
                 ((4, 2), 3, 2), ((2, 2, 2), 3, 2),
                 ((4, 1), 1, 5), ((3, 1, 1), 1, 5))
_EXACT_SPECHT = (((9,), 3, 3), ((8, 1), 3, 3), ((7, 2), 3, 3),
                 ((7, 1, 1), 3, 3), ((4, 2), 3, 2), ((2, 2, 2), 3, 2),
                 ((6, 2), 4, 2), ((4, 1), 1, 5), ((3, 1, 1), 1, 5),
                 ((9, 1), 2, 5))
_EXACT_PERM = (((9,), 3, 3), ((3, 3), 2, 3), ((4, 2), 3, 2))


def _first_change(roster, trials) -> int | None:
    """Index of the first trial (point, image) whose two rank vectors differ.

    Points and images are pairs (coefficient rows, field).  Trial i is on
    ``roster[i % len(roster)]``; each module's points and images are
    ranked in one ``_rank_vectors`` call.
    """
    changed = []
    for m, acts in enumerate(roster):
        pairs = trials[m::len(roster)]
        rvs = _rank_vectors(acts, [a for a, _ in pairs] + [b for _, b in pairs])
        changed += [m + j * len(roster)
                    for j, (a, b) in enumerate(zip(rvs, rvs[len(pairs):])) if a != b]
    return min(changed, default=None)


@lru_cache(maxsize=None)
def property_suites() -> tuple[bool, str]:
    """Randomized invariants of rank vectors and generic types."""
    rng = np.random.default_rng(20260815)
    dense = [restricted_actions(mu, n, p) for mu, n, p in _DENSE_ROSTER]
    roster = dense + [perm_module_actions((6, 3), 3, 3),
                      perm_module_actions((4, 2), 3, 2)]
    # validity: the RankVector constructor rejects non-monotone or
    # non-convex profiles, so surviving 500 evaluations is the check; the
    # points are drawn in trial order, as coefficient rows, and ranked per
    # (module, field)
    groups: dict[tuple[int, int], list] = {}
    for i in range(500):
        m = i % len(roster)
        ctx = FieldCtx.get(roster[m].p, 1 + i % 3)
        groups.setdefault((m, ctx.k), []).append((ctx.random_rows(rng, roster[m].n), ctx))
    for (m, _), points in groups.items():
        for rv in _rank_vectors(roster[m], points):
            JordanType.from_rank_vector(rv)
    scaled, permuted = [], []
    for i in range(100):
        acts = dense[i % len(dense)]
        ctx = FieldCtx.get(acts.p, 2)
        pt = ctx.random_rows(rng, acts.n)
        lam = ctx.random_rows(rng, 1)  # a nonzero scalar
        scaled.append(((pt, ctx), (ctx.mul_rows(pt, lam), ctx)))
    for i in range(100):
        acts = dense[i % len(dense)]
        ctx = FieldCtx.get(acts.p, 2)
        pt = ctx.random_rows(rng, acts.n)
        permuted.append(((pt, ctx), (pt[rng.permutation(acts.n)], ctx)))
    for what, trials in (("scaling", scaled), ("coordinate permutation", permuted)):
        i = _first_change(dense, trials)
        if i is not None:
            return False, (f"{what} changed the rank vector for "
                           f"{format_partition(dense[i % len(dense)].mu)} at trial {i}")
    for mu, n, p in _EXACT_SPECHT:
        acts = restricted_actions(mu, n, p)
        exact = generic_type(acts, mode="exact").rank_vector
        sampled = generic_type(acts, mode="randomized").rank_vector
        if exact != sampled:
            return False, f"exact != randomized for S{format_partition(mu)}, p={p}"
    for mu, n, p in _EXACT_PERM:
        acts = perm_module_actions(mu, n, p)
        exact = generic_type(acts, mode="exact").rank_vector
        sampled = generic_type(acts, mode="randomized").rank_vector
        if exact != sampled:
            return False, f"exact != randomized for M{format_partition(mu)}, p={p}"
    checked = []
    for mu in partitions_of(9):
        if p_core_weight(mu, 3).core == ():
            continue
        rep = generic_type(restricted_actions(mu, 3, 3), samples=3)
        if not rep.rank_vector.is_free:
            return False, (f"S{format_partition(mu)} has nonempty 3-core but "
                           f"is not generically free: {rep.type.pretty()}")
        checked.append(mu)
    return True, ("500 rank vectors monotone+convex; 100 scaling and 100 "
                  "coordinate-permutation trials invariant; exact mode agrees "
                  f"with sampling on {len(_EXACT_SPECHT) + len(_EXACT_PERM)} "
                  f"instances; {len(checked)} nonempty-core modules "
                  "generically free")


def run_all(threads: int = 1, log=None) -> list[tuple[int, str, bool, str]]:
    """Run every acceptance check in order; returns (index, name, ok, detail)."""
    checks = (
        (1, "table-reproduction", lambda: table_reproduction(threads=threads)),
        (2, "quartic-identification", quartic_identification),
        (3, "dimension-estimate", dimension_estimate),
        (4, "permutation-generic-types", perm_generic_types),
        (5, "two-row-generic-types", two_row_generic_types),
        (6, "complementary-pairs", complementary_pairs),
        (7, "combinatorial-oracles", combinatorial_oracles),
        (8, "property-suites", property_suites),
    )
    results = []
    for idx, name, fn in checks:
        ok, detail = fn()
        results.append((idx, name, ok, detail))
        if log is not None:
            log(f"{'PASS' if ok else 'FAIL'} {idx} {name}: {detail}")
    return results
