"""Non-free loci of restricted modules over extension fields.

Points are projective: the first nonzero coordinate is normalized to 1,
which is sound because Jordan type is invariant under scaling.  A point
is stored as a tuple of field-element codes (integers below p^k).

Every sweep takes one walk, ``_frobenius_orbits``, and evaluates each
Frobenius orbit once: the A_i lie over GF(p), so applying the field
automorphism entrywise maps N(alpha) to N(sigma alpha) and keeps ranks.

Freeness at a point is ``jordan.is_free_at``, rank vectors are
``jordan.rank_vector_at``; both accept Specht and permutation modules.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import gfp
from .errors import InconsistentCounts, RankCheckFailed, TooManyPoints
from .ffalg import FieldCtx, FieldElement, MultiPoly, poly_eval
from .jordan import is_free_at, rank_vector_at
from .partitions import Partition, format_partition
from .spechtmod import RestrictedActions

# Reference catalogue for p=3, |mu|=9: conjugate-class representative ->
# (kind, dimension).  Every partition of 9 is covered through its
# conjugate; loci of conjugate pairs coincide.
CATALOGUE_P3_9: dict[Partition, tuple[str, int]] = {
    (9,): ("full", 3),
    (8, 1): ("full", 3),
    (7, 2): ("axes-union", 1),
    (7, 1, 1): ("full", 3),
    (6, 3): ("full", 3),
    (6, 2, 1): ("full", 3),
    (6, 1, 1, 1): ("full", 3),
    (5, 4): ("full", 3),
    (5, 3, 1): ("zero", 0),
    (5, 2, 2): ("full", 3),
    (5, 2, 1, 1): ("axes-union", 1),
    (5, 1, 1, 1, 1): ("full", 3),
    (4, 4, 1): ("full", 3),
    (4, 3, 2): ("full", 3),
    (4, 3, 1, 1): ("axes-union", 1),
    (3, 3, 3): ("hypersurface", 2),
}

_POINT_GATE = 10**6


@dataclass(frozen=True)
class LocusSample:
    """Non-free projective points of one module over GF(p^k)."""

    mu: Partition
    p: int
    n: int
    k: int
    points: frozenset[tuple[int, ...]]
    total_projective_points: int

    @property
    def is_empty(self) -> bool:
        return not self.points

    @property
    def is_full(self) -> bool:
        return len(self.points) == self.total_projective_points

    def decoded(self) -> list[tuple[FieldElement, ...]]:
        ctx = FieldCtx.get(self.p, self.k)
        return [tuple(ctx.element(c) for c in pt) for pt in sorted(self.points)]


@dataclass(frozen=True)
class VarietyClass:
    kind: str  # zero | axes-union | hypersurface | full | other
    est_dim: int
    form: MultiPoly | None = None


def projective_points(ctx: FieldCtx, n: int):
    """All points with first nonzero coordinate equal to 1, as code tuples."""
    q = ctx.q
    for lead in range(n):
        free = n - lead - 1
        for rest in itertools.product(range(q), repeat=free):
            yield (0,) * lead + (1,) + rest


def normalize_point(codes, ctx: FieldCtx) -> tuple[int, ...]:
    elems = [ctx.element(c) for c in codes]
    lead = next((e for e in elems if e), None)
    if lead is None:
        raise ValueError("zero vector is not projective")
    inv = lead.inverse()
    return tuple((e * inv).to_index() for e in elems)


_LOCUS_MEMO: dict[tuple, LocusSample] = {}


def _frobenius_orbits(p: int, n: int, k: int):
    """Each Frobenius orbit of projective points once, representative first.

    The one sweep walk, and the one place ``_POINT_GATE`` is enforced.
    Orbits are coordinatewise; normalization survives (1 is fixed).
    """
    q = p**k
    total = (q**n - 1) // (q - 1)
    if total > _POINT_GATE:
        raise TooManyPoints(f"{total} projective points exceed the sweep gate")
    ctx = FieldCtx.get(p, k)
    seen = set()
    for pt in projective_points(ctx, n):
        if pt in seen:
            continue
        orbit, cur = [], pt
        while cur not in orbit:
            orbit.append(cur)
            cur = tuple((ctx.element(c) ** p).to_index() for c in cur)
        seen.update(orbit)
        yield orbit


def enumerate_locus(acts: RestrictedActions, k: int) -> LocusSample:
    """Sweep every projective point of GF(p^k)^n and keep the non-free ones."""
    p, n, d = acts.p, acts.n, acts.dim
    key = (type(acts).__name__, acts.mu, n, p, k)
    if key in _LOCUS_MEMO:
        return _LOCUS_MEMO[key]
    points, total = set(), 0
    for orbit in _frobenius_orbits(p, n, k):
        ctx = FieldCtx.get(p, k)  # cached; only reached past the gate
        total += len(orbit)
        # p must divide d for freeness anywhere; skipping also skips the warning
        if d % p == 0 and is_free_at(acts, tuple(ctx.element(c) for c in orbit[0])):
            continue
        points.update(orbit)
    sample = LocusSample(mu=acts.mu, p=p, n=n, k=k, points=frozenset(points),
                         total_projective_points=total)
    _check_permutation_closed(sample, ctx)
    if acts.mu == (p,) * p:
        _check_scaling_closed(sample, ctx)
    _LOCUS_MEMO[key] = sample
    return sample


def _check_permutation_closed(sample: LocusSample, ctx: FieldCtx) -> None:
    for pt in sample.points:
        for sigma in itertools.permutations(range(sample.n)):
            moved = normalize_point([pt[i] for i in sigma], ctx)
            if moved not in sample.points:
                raise RankCheckFailed(f"locus of {format_partition(sample.mu)} not "
                                      f"closed under permutations: {pt} -> {moved}")


def _check_scaling_closed(sample: LocusSample, ctx: FieldCtx) -> None:
    units = [c for c in range(1, sample.p)]
    for pt in sample.points:
        for scales in itertools.product(units, repeat=sample.n):
            moved = [ctx.element(c) * ctx.element(s) for c, s in zip(pt, scales)]
            moved = normalize_point([e.to_index() for e in moved], ctx)
            if moved not in sample.points:
                raise RankCheckFailed(f"locus of {format_partition(sample.mu)} not "
                                      f"closed under GF(p)^* scaling: {pt} -> {moved}")


def homogeneous_vanishing_forms(sample: LocusSample, degree: int) -> list[MultiPoly]:
    """Basis of homogeneous degree-`degree` forms vanishing on the locus.

    Vanishing is evaluated on the stored representatives, which is sound
    for homogeneous forms only (scaling multiplies the value by a unit).
    """
    n, p, k = sample.n, sample.p, sample.k
    exps = list(_exponents(n, degree))
    pts = sample.decoded()
    rows = np.zeros((k * len(pts), len(exps)), dtype=np.int64)
    for r, pt in enumerate(pts):
        for col, e in enumerate(exps):
            rows[r * k:(r + 1) * k, col] = poly_eval(MultiPoly.monomial(p, e), pt).coeffs
    basis = gfp.nullspace(rows, p)
    out = []
    for j in range(basis.shape[1]):
        terms = {e: int(basis[i, j]) for i, e in enumerate(exps) if basis[i, j]}
        out.append(MultiPoly(p=p, nvars=n, terms=terms))
    return out


def interpolate_forms(sample: LocusSample, degree: int) -> list[MultiPoly]:
    """Basis of forms of degree <= degree over GF(p) vanishing on the locus.

    The locus is a cone, so a polynomial vanishes on it iff each of its
    homogeneous components does; the space decomposes by degree.
    """
    out = []
    for d in range(1, degree + 1):
        out.extend(homogeneous_vanishing_forms(sample, d))
    return out


def _exponents(nvars: int, total: int):
    if nvars == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _exponents(nvars - 1, total - head):
            yield (head,) + tail


def _form_cuts_out(sample: LocusSample, f: MultiPoly) -> bool:
    # f has GF(p) coefficients, so its zero set is a union of Frobenius
    # orbits, as the locus is: comparing representatives is enough
    ctx = FieldCtx.get(sample.p, sample.k)
    for orbit in _frobenius_orbits(sample.p, sample.n, sample.k):
        coords = tuple(ctx.element(c) for c in orbit[0])
        vanishes = not poly_eval(f, coords)
        if vanishes != (orbit[0] in sample.points):
            return False
    return True


def _pattern_kind(sample: LocusSample) -> str | None:
    """zero, full or axes-union when the locus is that point set, else None."""
    if sample.is_empty:
        return "zero"
    if sample.is_full:
        return "full"
    n = sample.n
    if sample.points == {(0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)}:
        return "axes-union"
    return None


def classify(acts: RestrictedActions, k: int, max_degree: int | None = None
             ) -> VarietyClass:
    """Catalogue kind of the module's locus over GF(p^k).

    Hypersurface detection interpolates forms of increasing degree and
    accepts only a one-dimensional space whose zero set equals the locus
    over the sampled field.
    """
    sample = enumerate_locus(acts, k)
    kind = _pattern_kind(sample)
    if kind is not None:
        est = {"zero": 0, "full": sample.n, "axes-union": 1}[kind]
        return VarietyClass(kind=kind, est_dim=est)
    if max_degree is None:
        max_degree = (sample.p - 1) ** 2
    for deg in range(1, max_degree + 1):
        forms = homogeneous_vanishing_forms(sample, deg)
        if not forms:
            continue
        if len(forms) == 1 and _form_cuts_out(sample, forms[0]):
            return VarietyClass(kind="hypersurface", est_dim=sample.n - 1,
                                form=forms[0])
        break  # several independent forms, or zero set too big: not a hypersurface
    affine = _affine_counts(acts, [k, k + 1] if k == 1 else [k - 1, k])
    try:
        est = _dimension_from_counts(acts, affine)
    except InconsistentCounts:
        est = round(_fit_slope(acts.p, affine))
    return VarietyClass(kind="other", est_dim=est)


def _matches_pattern(cls: VarietyClass, sample: LocusSample) -> bool:
    if cls.kind == "hypersurface":
        return _form_cuts_out(sample, cls.form)
    return cls.kind == "other" or cls.kind == _pattern_kind(sample)


def classify_stable(acts: RestrictedActions, ks: tuple[int, int] = (2, 3)
                    ) -> VarietyClass:
    """Classification accepted only if consistent at two extension degrees.

    The class is read off the larger field, where interpolation has
    enough points; the smaller field then only has to reproduce the same
    point-set pattern.  (Literal reclassification at the smaller field is
    hopeless: a locus made of GF(p)-rational points satisfies junk
    relations such as x^p - x.)
    """
    lo = enumerate_locus(acts, ks[0])
    cls = classify(acts, ks[1])
    if cls.kind != "other" and not _matches_pattern(cls, lo):
        try:
            est = estimate_dimension(acts, ks)
        except InconsistentCounts:
            est = cls.est_dim
        return VarietyClass(kind="other", est_dim=est)
    return cls


def _affine_counts(acts: RestrictedActions, k_list) -> dict[int, int]:
    """Affine locus size (cone points, origin included) per degree k."""
    return {k: (acts.p**k - 1) * len(enumerate_locus(acts, k).points) + 1
            for k in k_list}


def _fit_slope(p: int, affine: dict[int, int]) -> float:
    """Least-squares slope of log_p(affine count) against k."""
    ks = sorted(affine)
    xs = [float(k) for k in ks]
    ys = [math.log(affine[k]) / math.log(p) for k in ks]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    den = sum((x - xbar) ** 2 for x in xs)
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / den


def estimate_dimension(acts: RestrictedActions, k_list) -> int:
    """Dimension from the growth of affine point counts across k_list.

    The estimate is the least-squares slope of log(count) vs log(p^k),
    rounded.  Small fields distort individual consecutive-pair slopes, so
    consistency is judged against the largest-field pair only; the result
    is also cross-checked against the p^(n-r) | dim divisibility law.
    """
    k_list = sorted(set(k_list))
    if len(k_list) < 2:
        raise InconsistentCounts("need at least two distinct extension degrees")
    return _dimension_from_counts(acts, _affine_counts(acts, k_list))


def _dimension_from_counts(acts: RestrictedActions, affine: dict[int, int]) -> int:
    """``estimate_dimension`` on counts already taken at two or more degrees."""
    p, n = acts.p, acts.n
    k_list = sorted(affine)
    if affine[k_list[-1]] == 1:
        return 0  # empty locus at the largest field
    if any(affine[k1] > affine[k2] for k1, k2 in zip(k_list, k_list[1:])):
        raise InconsistentCounts(f"counts {affine} are not monotone")
    r = round(_fit_slope(p, affine))
    k1, k2 = k_list[-2], k_list[-1]
    tail = (math.log(affine[k2]) - math.log(affine[k1])) / \
        ((k2 - k1) * math.log(p))
    if round(tail) != r:
        raise InconsistentCounts(
            f"fit slope {r} disagrees with largest-field slope {tail:.3f}")
    if n - r >= 0 and acts.dim % p**(n - r):
        raise InconsistentCounts(
            f"estimated dim {r} contradicts p^(n-r) | dim for dim={acts.dim}")
    return r


def sweep_rank_vectors(acts: RestrictedActions, k: int):
    """(point codes, free flag, rank vector) per projective point; CLI fodder.

    One rank vector per Frobenius orbit, reported for each of its points.
    """
    for orbit in _frobenius_orbits(acts.p, acts.n, k):
        ctx = FieldCtx.get(acts.p, k)  # cached; only reached past the gate
        rv = rank_vector_at(acts, tuple(ctx.element(c) for c in orbit[0]))
        for pt in orbit:
            yield pt, rv.is_free, rv


def template_check(f: MultiPoly, p: int) -> bool:
    """Shape test: f = (x_1..x_p)^(p-1) g + sum_i prod_{j != i} x_j^(n(p-1)).

    Also requires deg f to be positive and divisible by (p-1)^2.  The
    hatted monomials must appear with one common nonzero coefficient;
    everything left over must be divisible by (x_1..x_p)^(p-1).
    """
    if f.nvars != p:
        return False
    deg = f.degree()
    if deg <= 0 or deg % (p - 1) ** 2:
        return False
    candidates = set()
    for e in f.terms:
        zeros = [i for i, a in enumerate(e) if a == 0]
        if len(zeros) != 1:
            continue
        rest = {a for i, a in enumerate(e) if i != zeros[0]}
        if len(rest) == 1:
            a = rest.pop()
            if a > 0 and a % (p - 1) == 0:
                candidates.add(a // (p - 1))
    for n in sorted(candidates):
        a = n * (p - 1)
        hatted = []
        for i in range(p):
            e = tuple(0 if j == i else a for j in range(p))
            hatted.append(e)
        coeffs = {f.terms.get(e, 0) for e in hatted}
        if len(coeffs) != 1 or not coeffs.pop():
            continue
        c = f.terms[hatted[0]]
        hat_sum = MultiPoly(p=p, nvars=p,
                            terms={e: c for e in hatted})
        remainder = f - hat_sum
        if all(min(e) >= p - 1 for e in remainder.terms):
            return True
    return False
