"""Stability experiments: does a small L1 perturbation stay small in entropy?

The experimental ratio for a pair (p, p') with ||p - p'||_1 = delta is

    R = |S(p) - S(p')| / S_max(n),    S_max(n) = (lam + ln n)**sigma - lam**sigma

and an entropy functional is stable when R can be made uniformly small in n
by shrinking delta.  Two structured perturbation families probe the classic
danger zones:

  family A ("certainty side")     p  = (1, 0, ..., 0)
                                  p' = (1 - delta/2, delta/(2(n-1)), ...)
  family B ("uniform with hole")  p  = (0, 1/(n-1), ..., 1/(n-1))
                                  p' = (delta/2, (1-delta/2)/(n-1), ...)

Both have L1 distance delta within L1_TOL (family A's head 1 - delta/2
rounds).  Because each family is one head value plus n-1 identical tail
values, S(p) costs two generator calls regardless of n, so sweeps take any
integer n in the float range in constant time per row; the aggregated path
is cross-checked against explicit weight vectors in the tests.

The Renyi entropy ln(sum p_i**q)/(1-q) is included as a negative control:
for q < 1 its family-A ratio grows toward 1 with n at fixed delta.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import core
from .core import (
    DimensionMismatch,
    DomainError,
    EntropyParams,
    ProbDist,
    entropy,
    generator,
    make_dist,
    max_entropy,
)

# measured L1 must certify against the declared budget this tightly
L1_TOL = 1e-12


class Family(enum.Enum):
    CERTAINTY_A = "A"
    UNIFORM_B = "B"
    RANDOM_SEARCH = "RandomSearch"


@dataclass(frozen=True)
class PerturbPair:
    """A distribution and its perturbation, certified against an L1 budget.

    Structured families (A, B) assert ||p - p'||_1 == delta to within
    L1_TOL; RandomSearch pairs only promise ||p - p'||_1 <= delta + L1_TOL,
    and delta = 0 is legal there (the pair p' = p).
    """

    p: ProbDist
    p_prime: ProbDist
    delta: float
    family: Family

    def __post_init__(self):
        if self.p.n != self.p_prime.n:
            raise DimensionMismatch(
                f"p has {self.p.n} outcomes, p_prime has {self.p_prime.n}"
            )
        if not (0.0 <= self.delta <= 2.0):
            raise DomainError(f"delta must lie in [0, 2], got {self.delta!r}")
        l1 = self.l1_distance()
        if self.family is Family.RANDOM_SEARCH:
            if l1 > self.delta + L1_TOL:
                raise DomainError(
                    f"search pair exceeds its L1 budget: {l1!r} > {self.delta!r}"
                )
        elif abs(l1 - self.delta) > L1_TOL:
            raise DomainError(
                f"family {self.family.value} pair has L1 {l1!r}, declared {self.delta!r}"
            )

    def l1_distance(self) -> float:
        return float(np.abs(self.p.weights - self.p_prime.weights).sum())


@dataclass(frozen=True)
class StabilityRecord:
    """One measured row of a stability experiment."""

    family: str
    n: int
    delta: float
    sigma: float
    lam: float
    s_p: float
    s_p_prime: float
    ratio: float


# each structured family's smallest n
_FAMILY_MIN_N = {Family.CERTAINTY_A: 2, Family.UNIFORM_B: 3}


def _family_weights(family: Family, n: int, delta: float):
    """Families A and B as ((head, tail), (head', tail')): w[0] plus n-1 tails."""
    min_n = _FAMILY_MIN_N.get(family)
    if min_n is None:
        raise DomainError(f"no aggregated form for family {family!r}")
    if not isinstance(n, numbers.Integral) or n < min_n:
        raise DomainError(f"family {family.value} needs integer n >= {min_n}, got {n!r}")
    if family is Family.CERTAINTY_A:
        return (1.0, 0.0), (1.0 - delta / 2.0, delta / (2.0 * (n - 1)))
    return (0.0, 1.0 / (n - 1)), (delta / 2.0, (1.0 - delta / 2.0) / (n - 1))


def _head_tail(n: int, head: float, tail: float) -> ProbDist:
    """The validated distribution (head, tail, ..., tail) over n outcomes."""
    w = np.full(n, tail)
    w[0] = head
    return make_dist(w)


def _family_pair(family: Family, n: int, delta: float) -> PerturbPair:
    """The explicit pair of a structured family, certified by PerturbPair."""
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"family {family.value} needs delta in (0, 1], got {delta!r}")
    # the aggregated path takes any n in the float range; a numpy vector cannot
    core._check_fits(f"family {family.value} vector", n=n)
    sides = (_head_tail(n, *side) for side in _family_weights(family, n, delta))
    return PerturbPair(*sides, delta, family)


def family_a_pair(n: int, delta: float) -> PerturbPair:
    """Perturbed certainty: all mass on one outcome vs. a delta/2 leak."""
    return _family_pair(Family.CERTAINTY_A, n, delta)


def family_b_pair(n: int, delta: float) -> PerturbPair:
    """Uniform with a hole vs. the hole partly filled from the tail."""
    return _family_pair(Family.UNIFORM_B, n, delta)


def _record(
    family: str,
    n: int,
    delta: float,
    params: EntropyParams,
    s_p: float,
    s_pp: float,
    norm: float,
) -> StabilityRecord:
    """The one place a StabilityRecord is built: ratio = |s_p - s_pp| / norm."""
    return StabilityRecord(
        family=family,
        n=n,
        delta=delta,
        sigma=params.sigma,
        lam=params.lam,
        s_p=s_p,
        s_p_prime=s_pp,
        ratio=abs(s_p - s_pp) / norm,
    )


def stability_ratio(pair: PerturbPair, params: EntropyParams) -> StabilityRecord:
    """Evaluate both entropies explicitly and normalize by S_max."""
    n = pair.p.n
    return _record(
        pair.family.value,
        n,
        pair.delta,
        params,
        entropy(pair.p, params),
        entropy(pair.p_prime, params),
        max_entropy(n, params),
    )


def _check_renyi_order(q: float) -> None:
    if not (q > 0.0) or q == 1.0 or not math.isfinite(q):
        raise DomainError(f"Renyi order must be finite, positive and != 1, got {q!r}")


def _renyi(power_sum: float, q: float) -> float:
    """ln(power_sum) / (1 - q); the + 0.0 turns a -0.0 into +0.0."""
    if not power_sum > 0.0:
        raise DomainError(f"Renyi power sum of order {q!r} underflows to {power_sum!r}")
    return math.log(power_sum) / (1.0 - q) + 0.0


def renyi_entropy(p: ProbDist, q: float) -> float:
    """Renyi entropy ln(sum_i p_i**q) / (1 - q), q > 0, q != 1; zeros skipped."""
    _check_renyi_order(q)
    w = p.weights
    return _renyi(float(np.sum(w[w > 0.0] ** q)), q)


def _family_sums(family: Family, n: int, delta: float, term) -> tuple[float, float]:
    """(sum_i term(p_i), sum_i term(p'_i)) in O(1): term(head) + (n-1) * term(tail)."""
    return tuple(term(h) + (n - 1) * term(t) for h, t in _family_weights(family, n, delta))


def _family_entropies(
    family: Family, n: int, delta: float, params: EntropyParams
) -> tuple[float, float]:
    """(S(p), S(p')) for a structured family; delta = 0 gives S(p') == S(p)."""
    return _family_sums(family, n, delta, lambda x: generator(x, params))


def _family_renyi(family: Family, n: int, delta: float, q: float) -> tuple[float, float]:
    """(R(p), R(p')) for a structured family, aggregated the same way."""
    return tuple(_renyi(s, q) for s in _family_sums(family, n, delta, lambda x: x**q))


def sweep(
    families,
    n_grid,
    delta: float,
    params: EntropyParams,
    control_q: float | None = None,
) -> list[StabilityRecord]:
    """Stability ratios over a grid of n for each structured family.

    families : iterable of distinct Family or of their string values ("A", "B")
    n_grid   : nonempty, strictly ascending integers (family B needs n >= 3);
               a fractional entry raises rather than being truncated, and
               so does an integer beyond the float range
    delta    : L1 budget in [0, 1]; delta = 0 gives all-zero ratios
    control_q: if given, appends Renyi negative-control rows per family,
               labelled "<family>_renyi", normalized by ln n

    Rows are ordered by (family label, n).  Everything is evaluated
    through the aggregated O(1) path, for any integer n in the float range.
    """
    fams = [Family(f) for f in families]
    if not fams:
        raise DomainError("need at least one family")
    if len(set(fams)) != len(fams):
        raise DomainError(f"repeated family in {[f.value for f in fams]}")
    grid = list(n_grid)
    try:
        integral = all(float(n).is_integer() for n in grid)
    except OverflowError:
        raise DomainError("n_grid entries must fit in a float") from None
    if not integral:
        raise DomainError(f"n_grid must hold integers, got {grid}")
    ns = [int(n) for n in grid]
    if not ns:
        raise DomainError("n_grid must be nonempty")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError(f"n_grid must be strictly ascending, got {ns}")
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    if control_q is not None:
        _check_renyi_order(control_q)

    records = []
    for fam in fams:
        for n in ns:
            s = _family_entropies(fam, n, delta, params)
            records.append(
                _record(fam.value, n, delta, params, *s, max_entropy(n, params))
            )
            if control_q is not None:
                r = _family_renyi(fam, n, delta, control_q)
                records.append(
                    _record(f"{fam.value}_renyi", n, delta, params, *r, math.log(n))
                )
    records.sort(key=lambda r: (r.family, r.n))
    return records


def _extremes(w, t: float):
    """(flattest, steepest) of the ball ||v - w||_1 <= 2t on the simplex.

    One stable argsort and its ascending prefix sum serve both.  Flattest:
    t lifts the m smallest weights to b = (t + their sum) / m, m the first
    count whose lift to the next weight costs at least t (else n), and t
    comes off the largest down to a ceiling a by the mirrored rule on a
    descending sum; b >= a means the ball holds the uniform point.
    Steepest: min(t, mass outside the top weight) drains from the smallest
    upward (ties in index order) into the top, capped at 1.0 against
    rounding.  Each other point of the ball majorizes the flattest and is
    majorized by the steepest, so a Schur-concave S peaks at the one and is
    lowest at the other.
    """
    n = len(w)
    order = np.argsort(w, kind="stable")
    s = w[order]
    up, down = np.cumsum(s), np.cumsum(s[::-1])
    counts = np.arange(1.0, n)

    def first(cost) -> int:
        hit = cost >= t
        i = int(np.argmax(hit))
        return i + 1 if hit[i] else n

    m = first(counts * s[1:] - up[:-1])
    b = (t + up[m - 1]) / m
    m = first(down[:-1] - counts * s[-2::-1])
    a = (down[m - 1] - t) / m
    flattest = np.full(n, 1.0 / n) if b >= a else np.clip(w, b, a)

    amount = min(t, up[-2])
    # the first k weights drain fully, the next one in part
    k = int(np.searchsorted(up[:-1], amount, side="right"))
    s[k] = max(s[k] - (amount - (up[k - 1] if k else 0.0)), 0.0)
    s[:k] = 0.0
    s[-1] = min(s[-1] + amount, 1.0)
    steepest = np.empty_like(s)
    steepest[order] = s
    return flattest, steepest


def random_pair_search(
    n: int,
    delta: float,
    params: EntropyParams,
    iterations: int = 10_000,
    seed: int = 0,
) -> tuple[PerturbPair, StabilityRecord]:
    """Adversarial search for a high-ratio pair inside the L1 ball.

    For each structured family that applies, its p is scored against the
    two extremes of its ball ||p' - p||_1 <= delta: the flattest point,
    where S is highest, and the steepest, where it is lowest.  S is a sum
    of one concave term per outcome, hence Schur-concave, so for a fixed p
    these two p' bound S over the whole ball (Hanson & Datta, J. Math.
    Phys. 59, 042204 (2018)), and the better of them is the worst case for
    that p.  Both extremes of a start share one sort and one prefix sum,
    O(n log n).  Family A's own p' is the flattest point of its ball.  The
    search is thus exact in p' for each start; that no other p does better
    is a conjecture.

    Each candidate is a RandomSearch PerturbPair scored by stability_ratio,
    and the first with the highest ratio is returned.  At delta = 0 no
    family applies, and the pair is a seeded random p = p'.  `iterations`
    is validated but does not change the result; `seed` matters only at
    delta = 0.
    """
    if not isinstance(n, numbers.Integral) or n < 2:
        raise DomainError(f"n must be an integer >= 2, got {n!r}")
    core._check_fits("random_pair_search", n=n)
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    if not isinstance(iterations, numbers.Integral) or iterations < 0:
        raise DomainError(f"iterations must be an integer >= 0, got {iterations!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")

    def scored(p: ProbDist, p_prime: ProbDist):
        """The certified search pair (p, p') and its record."""
        pair = PerturbPair(p, p_prime, delta, Family.RANDOM_SEARCH)
        return pair, stability_ratio(pair, params)

    if delta == 0.0:
        base = np.random.default_rng(seed).standard_exponential(n)
        base /= base.sum()
        p = make_dist(base)
        return scored(p, p)
    heads = (_family_weights(f, n, delta)[0] for f, m in _FAMILY_MIN_N.items() if n >= m)
    starts = (_head_tail(n, *head) for head in heads)
    candidates = (
        scored(p, make_dist(extreme))
        for p in starts
        for extreme in _extremes(p.weights, delta / 2.0)
    )
    # max keeps the first of equal ratios
    return max(candidates, key=lambda c: c[1].ratio)
