"""The phi map on empty-core partitions, its fixed point Phi, and the
variety predictor built from the classification of Phi(mu).

phi removes a node from row b (the last row whose part is nonzero mod p)
and appends it to the unique row a < b with mu_a - a = mu_b - 1 - b mod p.
Iterating reaches a fixed point Phi(mu) all of whose parts are divisible
by p; each step swaps two beta-numbers mod p, so the empty p-core is
preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonTermination, NonUniqueA, PreconditionViolated
from .partitions import (Partition, conjugate, dim_specht, format_partition,
                         p_core_weight, size, validate)


@dataclass(frozen=True)
class PhiStepData:
    a: int  # 1-based row receiving a node
    b: int  # 1-based row losing a node
    eta: Partition
    result: Partition


@dataclass(frozen=True)
class Prediction:
    mu: Partition
    weight: int
    hypothesis: str  # H1..H4 or "none"
    predicted_variety: str  # "full-rank-<n>", "defect-dim-<w>", "unknown"
    predicted_complexity: int | None


def _check_domain(mu: Partition, p: int) -> None:
    if len(mu) > p:
        raise PreconditionViolated(f"{format_partition(mu)} has more than {p} parts")
    if p_core_weight(mu, p).core != ():
        raise PreconditionViolated(f"{format_partition(mu)} has nonempty {p}-core")


def find_ab(mu: Partition, p: int) -> PhiStepData | None:
    """The unique (a, b) pair of the node-move step, or None at a fixed point."""
    mu = validate(mu)
    _check_domain(mu, p)
    s = len(mu)
    b = max((i for i in range(1, s + 1) if mu[i - 1] % p), default=None)
    if b is None:
        return None
    target = (mu[b - 1] - 1 - b) % p
    hits = [a for a in range(1, b) if (mu[a - 1] - a) % p == target]
    if len(hits) != 1:
        raise NonUniqueA(f"{len(hits)} candidate rows for {format_partition(mu)}, p={p}")
    a = hits[0]
    eta = mu[: b - 1] + (mu[b - 1] - 1,) + mu[b:]
    eta = tuple(x for x in eta if x > 0)
    result = eta[: a - 1] + (eta[a - 1] + 1,) + eta[a:]
    return PhiStepData(a=a, b=b, eta=eta, result=validate(result))


def phi_step(mu: Partition, p: int) -> Partition:
    step = find_ab(mu, p)
    if step is None:
        return validate(mu)
    if p_core_weight(step.result, p).core != ():
        raise PreconditionViolated(f"phi({format_partition(mu)}) = "
                                   f"{format_partition(step.result)} has a "
                                   f"nonempty {p}-core")
    return step.result


def phi_chain(mu: Partition, p: int) -> list[Partition]:
    """Successive images of phi, from mu to its fixed point inclusive."""
    chain = [validate(mu)]
    limit = max(1, size(chain[0]) * p)
    for _ in range(limit):
        nxt = phi_step(chain[-1], p)
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)
    raise NonTermination(f"phi did not stabilize within {limit} steps")


def phi_limit(mu: Partition, p: int) -> Partition:
    return phi_chain(mu, p)[-1]


def classify_hypothesis(mu: Partition, p: int, n: int) -> str:
    """Which of the four sufficient conditions Phi(mu) satisfies, if any.

    Checked in the fixed order H3, H1, H2, H4; when several hold they all
    lead to the same conclusion (full variety, complexity n).
    """
    mu = validate(mu)
    if size(mu) != n * p:
        raise PreconditionViolated(f"|mu| = {size(mu)} != {n}*{p}")
    phi = phi_limit(mu, p)
    if phi == (n * p,):
        return "H3"
    if p % 2 and n == p and len(phi) == 2:
        m = phi[1] // p
        if 1 <= m < p / 2:
            return "H1"
    if p % 2 and len(phi) == 2 and phi[1] // p in (1, 2) and n % p != 2 % p:
        return "H2"
    if p == 2 and len(phi) == 2:
        if phi[1] == 2 and phi != (2, 2):
            return "H4"
        if phi[1] == 4 and phi != (4, 4):
            return "H4"
    return "none"


def _vp(m: int, p: int) -> int:
    v = 0
    while m and m % p == 0:
        v += 1
        m //= p
    return v


def _vp_factorial(m: int, p: int) -> int:
    v = 0
    q = p
    while q <= m:
        v += m // q
        q *= p
    return v


def predict(mu: Partition, p: int) -> Prediction:
    """Variety and complexity prediction, or an honest "unknown"."""
    mu = validate(mu)
    m = size(mu)
    core = p_core_weight(mu, p)
    w = core.weight
    if w < p:
        # abelian defect of order p^w; the block-theoretic criterion asks
        # that |D| * dim / p^(v_p(m!)) be prime to p
        gcd_ok = w + _vp(dim_specht(mu), p) == _vp_factorial(m, p) if m else True
        return Prediction(
            mu=mu, weight=w, hypothesis="none",
            predicted_variety=f"defect-dim-{w}" if gcd_ok else "unknown",
            predicted_complexity=w,
        )
    if m % p == 0 and core.core == ():
        n = m // p
        # the variety is invariant under conjugation, so a witness on
        # either diagram suffices; mu itself takes precedence
        for cand in dict.fromkeys((mu, conjugate(mu))):
            if len(cand) <= p:
                hyp = classify_hypothesis(cand, p, n)
                if hyp != "none":
                    return Prediction(
                        mu=mu, weight=w, hypothesis=hyp,
                        predicted_variety=f"full-rank-{n}",
                        predicted_complexity=n,
                    )
    return Prediction(mu=mu, weight=w, hypothesis="none",
                      predicted_variety="unknown", predicted_complexity=None)
