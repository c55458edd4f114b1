"""Non-free loci of restricted modules over extension fields.

Points are projective: the first nonzero coordinate is normalized to 1,
which is sound because Jordan type is invariant under scaling.  A point
is a row of field-element codes (integers below p^k), a locus holds
tuples of them, and the points of a space are one int32 array.

Every sweep takes one walk, ``_point_orbits``, and evaluates one point
per orbit; the walk makes each generator an index map of the point array
for ``spechtmod.orbit_labels``.  ``sweep_rank_vectors`` walks the group
generated by the Frobenius and the coordinate permutations, which keeps
the rank vector, so the quotient is exact: the A_i lie over GF(p), so
applying the field automorphism entrywise maps N(alpha) to N(alpha^p);
and the permutation of S_m sending the p-cycle g_i to g_sigma(i)
normalises E_n and conjugates A_i to A_sigma(i) on any S_m-module
(Specht and permutation modules alike), so N(alpha) and N(sigma alpha)
are conjugate.

``enumerate_locus`` needs freeness only, and walks that group times the
diagonal torus that scales each coordinate by GF(p)^*.  Conjugation in
S_m sends g_i to its power g_i^c, and g_i^c - 1 = c (g_i - 1) mod J^2,
where J is the augmentation ideal of the group algebra of E_n; by
Carlson's lemma (J. Algebra 85, 1983) freeness of u_alpha depends only
on alpha modulo J^2, so it is the same at alpha and at alpha scaled
coordinate-wise by GF(p)^*.  The rank vector is not: the conjugate
operator is c A_i plus terms in J^2, not c A_i, and S^(3,3,3) over GF(9)
has points whose rank vector changes when one coordinate is doubled.

Freeness is ``jordan._free`` and rank vectors ``jordan._rank_vectors``,
the bodies of ``are_free_at`` and ``rank_vectors_at``: a sweep hands all
its orbit representatives, as coefficient rows (``FieldCtx.digits`` of
their codes), to one call, which ranks them as stacks.  Both accept
Specht and permutation modules.  Forms are evaluated on such rows by
``jordan._monomial_values``, which needs no tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gfp, symrank
from .errors import InconsistentCounts, PreconditionViolated, TooManyPoints, ZeroPoint
from .ffalg import TABLE_CAP, FieldCtx, MultiPoly
from .jordan import _free, _monomial_values, _rank_vectors
from .partitions import Partition
from .spechtmod import RestrictedActions, orbit_labels

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
_BLOCK = 2**12  # point rows per step of a generator's index map and of tuple conversion


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


@dataclass(frozen=True)
class VarietyClass:
    kind: str  # zero | axes-union | hypersurface | full | other
    est_dim: int
    form: MultiPoly | None = None


def _places(q: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The place values q^(n-1-j) of a code row in base q, and per lead position
    the base-q value less the position in ``_projective_codes``; none is a
    power of q at n = 1, where q may pass int64."""
    w = q ** np.arange(n - 1, -1, -1) if n > 1 else np.ones(1, np.int64)
    return w, 2 * w - np.cumsum(w)


def _projective_codes(p: int, n: int, k: int) -> np.ndarray:
    """The projective points of GF(p^k)^n as int32 code rows: by lead
    position, then in base q = p^k, the last coordinate fastest.  The one
    place ``_POINT_GATE`` is enforced, in integers bounded for any k."""
    if k < 1:
        raise PreconditionViolated(f"extension degree {k} is below 1")
    q = p ** min(k, 21)  # 2^21 > _POINT_GATE, so a larger k is past the gate too
    if sum(q**j for j in range(min(n, 21))) > _POINT_GATE:
        raise TooManyPoints(f"P^{n - 1} over GF({p}^{k}) has more than {_POINT_GATE} points")
    w, shift = _places(q, n)
    value = np.repeat(shift, w) + np.arange(w.sum())  # base-q value of each point
    codes = np.empty((len(value), n), dtype=np.int32)
    codes[:, 0] = value // w[0]  # the value is below 2 w[0]; q passes int64 only at n = 1
    for j in range(1, n):
        codes[:, j] = value // w[j] % q
    return codes


def _index(codes: np.ndarray, q: int) -> np.ndarray:
    """Positions in ``_projective_codes`` of normalized code rows (B, n)."""
    w, shift = _places(q, codes.shape[1])
    return codes @ w - shift[(codes != 0).argmax(1)]


def _normalized(codes: np.ndarray, t) -> np.ndarray:
    """Nonzero code rows (B, n), each scaled by log tables ``t`` to lead 1."""
    lead = codes[np.arange(len(codes)), (codes != 0).argmax(1), None]
    # log of 1/lead is in 1..order, and log[0] = -1: every index is in exp
    return np.where(codes != 0, t.exp[t.log[codes] + (t.order - t.log[lead])], 0)


def _tuples(codes: np.ndarray, keep: np.ndarray | None = None):
    """Code rows, or those where ``keep`` is true, as tuples, a block at a time."""
    for lo in range(0, len(codes), _BLOCK):
        block = codes[lo:lo + _BLOCK]
        yield from map(tuple, (block if keep is None else block[keep[lo:lo + _BLOCK]]).tolist())


def projective_points(ctx: FieldCtx, n: int):
    """All points with first nonzero coordinate 1, as code tuples, in walk order."""
    yield from _tuples(_projective_codes(ctx.p, n, ctx.k))


def normalize_point(codes, ctx: FieldCtx) -> tuple[int, ...]:
    """Scale a nonzero code vector so its first nonzero coordinate is 1."""
    if not all(0 <= c < ctx.q for c in codes):
        raise PreconditionViolated(f"codes {tuple(codes)} are not all in 0..{ctx.q - 1}")
    if not any(codes):
        raise ZeroPoint("zero vector is not projective")
    return tuple(_normalized(np.array([codes]), ctx.tables)[0].tolist())


# enumerate_locus results, least recently used first, at most _LOCUS_MEMO_SIZE
_LOCUS_MEMO: dict[tuple, LocusSample] = {}
_LOCUS_MEMO_SIZE = 128


@lru_cache(maxsize=16)
def _point_orbits(p: int, n: int, k: int, *, torus: bool = False
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(points, orbit, reps): the ``_projective_codes`` rows, the orbit of
    each under Frobenius x S_n, and each orbit's first point, increasing.

    The one sweep walk, kept read-only once per process.  The gate and the
    table cap come before any table is built: the walk needs tables, so
    n > 1 is refused above ``TABLE_CAP``.  Each generator becomes an index
    map of the points for ``orbit_labels``: the Frobenius by code lookup
    (it keeps the lead 1), each adjacent transposition normalized again.
    With ``torus`` (freeness only, see the module docstring) the group also
    scales coordinates by GF(p)^*; with S_n, scaling the last one by a
    primitive root of GF(p), exp[log x + (q - 1)/(p - 1)], generates it."""
    points = _projective_codes(p, n, k)
    moves, t = [], None
    if n > 1:
        if p**k > TABLE_CAP:
            raise TooManyPoints(f"GF({p**k}) is above the table cap; only n = 1 is swept")
        ctx = FieldCtx.get(p, k)
        t = ctx.tables
        moves = [ctx.frob.__getitem__] if k > 1 else []  # k = 1: the identity
        moves += [lambda rows, s=np.r_[:i, i + 1, i, i + 2:n]: rows.take(s, axis=1)
                  for i in range(n - 1)]
        if torus and p > 2:
            unit = np.append(0, t.exp[t.log[1:] + t.order // (p - 1)])  # code of c g^((q-1)/(p-1))
            moves.append(lambda rows: np.column_stack([rows[:, :-1], unit[rows[:, -1]]]))
    maps = np.empty((len(moves), len(points)), dtype=np.int32)  # one allocation
    for move, image in zip(moves, maps):
        for lo in range(0, len(points), _BLOCK):
            image[lo:lo + _BLOCK] = _index(_normalized(move(points[lo:lo + _BLOCK]), t), p**k)
    label = orbit_labels(maps, len(points))
    reps = np.flatnonzero(label == np.arange(len(points)))
    walk = points, np.searchsorted(reps, label).astype(np.int32), reps
    for a in walk:
        a.flags.writeable = False
    return walk


def enumerate_locus(acts: RestrictedActions, k: int) -> LocusSample:
    """Sweep every projective point of GF(p^k)^n and keep the non-free ones.

    Freeness is decided once per orbit of Frobenius x S_n x the GF(p)^*
    torus, so the locus is a union of such orbits; the representatives
    are decided together (``jordan._free``).
    """
    p, n = acts.p, acts.n
    key = (type(acts).__name__, acts.mu, n, p, k)
    sample = _LOCUS_MEMO.pop(key, None)
    if sample is None:
        points, orbit, reps = _point_orbits(p, n, k, torus=p > 2)  # trivial torus at p = 2
        ctx = FieldCtx.get(p, k)
        free = np.array(_free(acts, [(rows, ctx) for rows in ctx.digits(points[reps])]))
        sample = LocusSample(mu=acts.mu, p=p, n=n, k=k,
                             points=frozenset(_tuples(points, ~free[orbit])),
                             total_projective_points=len(points))
    _LOCUS_MEMO[key] = sample  # (re)inserted last, as the most recently used
    if len(_LOCUS_MEMO) > _LOCUS_MEMO_SIZE:
        del _LOCUS_MEMO[next(iter(_LOCUS_MEMO))]
    return sample


def _form_values(f: MultiPoly, points, ctx: FieldCtx) -> np.ndarray:
    """Power-basis coefficients of f(x) at P points of codes, shape (P, k)."""
    exps = np.array(list(f.terms), dtype=np.int64).reshape(-1, f.nvars)
    coeffs = np.array(list(f.terms.values()), dtype=np.int64)
    return _monomial_values(ctx.digits(points), ctx, exps).transpose(0, 2, 1) @ coeffs % ctx.p


def homogeneous_vanishing_forms(sample: LocusSample, degree: int) -> list[MultiPoly]:
    """Basis of homogeneous degree-`degree` forms vanishing on the locus.

    Vanishing is evaluated on the stored representatives, which is sound
    for homogeneous forms only (scaling multiplies the value by a unit).
    """
    n, p, ctx = sample.n, sample.p, FieldCtx.get(sample.p, sample.k)
    exps = symrank.exponents(n, degree)[:, ::-1]  # descending lexicographic
    pts = np.array(sorted(sample.points), dtype=np.int64).reshape(-1, n)
    # k coefficient rows per point, one column per monomial
    rows = _monomial_values(ctx.digits(pts), ctx, exps).transpose(0, 2, 1).reshape(-1, len(exps))
    basis = gfp.nullspace(rows, p)
    out = []
    for j in range(basis.shape[1]):
        terms = {tuple(e): int(basis[i, j]) for i, e in enumerate(exps.tolist()) if basis[i, j]}
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


def _form_cuts_out(sample: LocusSample, f: MultiPoly) -> bool:
    """True iff f vanishes exactly on the locus, checked at every point.

    f has GF(p) coefficients, so only the Frobenius is sure to keep its
    zero set; an interpolated form need not be permutation-symmetric, so
    every point of the walk ``enumerate_locus`` kept is evaluated.
    """
    p, n, k = sample.p, sample.n, sample.k
    points = _point_orbits(p, n, k, torus=p > 2)[0]
    vanishes = ~_form_values(f, points, FieldCtx.get(p, k)).any(axis=1)
    locus = _index(np.array(list(sample.points), dtype=np.int64).reshape(-1, n), p**k)
    return bool(vanishes[locus].all() and vanishes.sum() == len(locus))


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


def classify(acts: RestrictedActions, k: int) -> VarietyClass:
    """Catalogue kind of the module's locus over GF(p^k).

    Hypersurface detection interpolates forms of increasing degree, up to
    (p-1)^2, and accepts only a one-dimensional space whose zero set equals
    the locus over the sampled field.
    """
    sample = enumerate_locus(acts, k)
    kind = _pattern_kind(sample)
    if kind is not None:
        est = {"zero": 0, "full": sample.n, "axes-union": 1}[kind]
        return VarietyClass(kind=kind, est_dim=est)
    for deg in range(1, (sample.p - 1) ** 2 + 1):
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

    One rank vector per orbit of ``_point_orbits``, reported for each of
    its points: the Frobenius and coordinate permutations keep it.  The
    representatives are ranked together (``jordan._rank_vectors``).
    """
    points, orbit, reps = _point_orbits(acts.p, acts.n, k)
    ctx = FieldCtx.get(acts.p, k)
    rvs = _rank_vectors(acts, [(rows, ctx) for rows in ctx.digits(points[reps])])
    for pt, i in zip(_tuples(points), orbit.tolist()):
        yield pt, rvs[i].is_free, rvs[i]


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
