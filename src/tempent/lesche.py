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

Both have exact L1 distance delta.  Because each family is one head value
plus n-1 identical tail values, S(p) costs two generator calls regardless
of n, so sweeps run to n = 1e8 in constant time per row; the aggregated
path is cross-checked against explicit weight vectors in the tests.

The Renyi entropy ln(sum p_i**q)/(1-q) is included as a negative control:
for q < 1 its family-A ratio grows toward 1 with n at fixed delta.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass

import numpy as np

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

# The climb admits a move while its running L1 stays within delta plus this
# margin.  The running sum drifts from the exact L1 by rounding, so the margin
# sits well inside L1_TOL: a pair the climb admits must never be one that
# PerturbPair then rejects at L1_TOL.
_CLIMB_L1_GUARD = L1_TOL / 10

# random_pair_search recomputes its running S(w), S(w') and L1 exactly every
# this many steps.  An accepted move adds at most ~1.1e-15 of rounding to the
# running L1 (values <= 2), so 256 moves drift < 3e-13, inside the 9e-13
# between _CLIMB_L1_GUARD and L1_TOL.  A resync costs two O(n) entropies,
# spread over 256 O(1) steps.
RESYNC_STEPS = 256


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
    if n < min_n:
        raise DomainError(f"family {family.value} needs n >= {min_n}, got {n}")
    if family is Family.CERTAINTY_A:
        return (1.0, 0.0), (1.0 - delta / 2.0, delta / (2.0 * (n - 1)))
    return (0.0, 1.0 / (n - 1)), (delta / 2.0, (1.0 - delta / 2.0) / (n - 1))


def _family_pair(family: Family, n: int, delta: float) -> PerturbPair:
    """The explicit pair of a structured family, certified by PerturbPair."""
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"family {family.value} needs delta in (0, 1], got {delta!r}")
    sides = []
    for head, tail in _family_weights(family, n, delta):
        w = np.full(n, tail)
        w[0] = head
        sides.append(make_dist(w))
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


def _family_entropies(
    family: Family, n: int, delta: float, params: EntropyParams
) -> tuple[float, float]:
    """(S(p), S(p')) for a structured family via head + aggregated tail.

    Each distribution is one head weight plus n-1 equal tail weights, so
    the sum collapses to head_term + (n-1) * tail_term: O(1) in n.
    delta = 0 is allowed here and gives S(p') identical to S(p).
    """
    return tuple(
        generator(head, params) + (n - 1) * generator(tail, params)
        for head, tail in _family_weights(family, n, delta)
    )


def _family_renyi(family: Family, n: int, delta: float, q: float) -> tuple[float, float]:
    """(R(p), R(p')) for a structured family, aggregated the same way."""
    return tuple(
        _renyi(head**q + (n - 1) * tail**q, q)
        for head, tail in _family_weights(family, n, delta)
    )


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
    through the aggregated O(1) path, so n up to 1e8 is fine.
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
            for n in ns:
                r = _family_renyi(fam, n, delta, control_q)
                records.append(
                    _record(f"{fam.value}_renyi", n, delta, params, *r, math.log(n))
                )
    records.sort(key=lambda r: (r.family, r.n))
    return records


def random_pair_search(
    n: int,
    delta: float,
    params: EntropyParams,
    iterations: int = 10_000,
    seed: int = 0,
) -> tuple[PerturbPair, StabilityRecord]:
    """Adversarial search for a high-ratio pair inside the L1 ball.

    Hill climb over mass-transfer moves of size eps = delta/10, cooled by
    half after iterations//5 consecutive non-improving steps.  The
    structured family pairs are seeded as starting candidates, so the
    returned ratio is never below theirs.

    A step costs O(1) in n: a move changes two weights on one side, so
    S(w), S(w') and the L1 distance are kept as running sums updated from
    the changed generator terms, and an accepted move is applied in place.
    Every RESYNC_STEPS steps all three are recomputed exactly.  Each step
    draws one side, then one index pair, from the seeded stream, so a
    given seed always gives the same climb.  The returned pair is
    certified by PerturbPair and its entropies and ratio are evaluated
    exactly.
    """
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not (0.0 <= delta <= 1.0):
        raise DomainError(f"delta must lie in [0, 1], got {delta!r}")
    if iterations < 0:
        raise DomainError(f"iterations must be >= 0, got {iterations}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    smax = max_entropy(n, params)

    def entropies(w: np.ndarray, wp: np.ndarray) -> tuple[float, float]:
        return entropy(make_dist(w), params), entropy(make_dist(wp), params)

    # candidate starts: structured families plus a random interior pair
    starts: list[tuple[np.ndarray, np.ndarray]] = []
    if delta > 0.0:
        for fam, min_n in _FAMILY_MIN_N.items():
            if n >= min_n:
                pair = _family_pair(fam, n, delta)
                starts.append((pair.p.weights.copy(), pair.p_prime.weights.copy()))
    base = rng.standard_exponential(n)
    base /= base.sum()
    starts.append((base.copy(), base.copy()))

    cur_ratio = -math.inf
    for w, wp in starts:
        s = entropies(w, wp)
        r = abs(s[0] - s[1]) / smax
        if r > cur_ratio:
            cur_w, cur_wp, cur_s, cur_ratio = w, wp, list(s), r
    l1 = float(np.abs(cur_w - cur_wp).sum())

    # only improving moves are accepted, so the current pair is the best
    eps = delta / 10.0
    stall_limit = max(1, iterations // 5)
    stall = 0
    for step in range(1, iterations + 1):
        # move mass within one side of the pair, keeping the other fixed
        side = int(rng.integers(0, 2))
        target, other = (cur_wp, cur_w) if side else (cur_w, cur_wp)
        i, j = rng.choice(n, size=2, replace=False)
        a, b = float(target[i]), float(target[j])
        oa, ob = float(other[i]), float(other[j])
        amt = min(eps, a)
        # b + amt can round just above 1.0, which no weight may exceed
        a_new, b_new = a - amt, min(b + amt, 1.0)
        new_l1 = (
            l1 + (abs(a_new - oa) - abs(a - oa)) + (abs(b_new - ob) - abs(b - ob))
        )
        improved = False
        if new_l1 <= delta + _CLIMB_L1_GUARD:
            s_new = cur_s[side] + (
                (generator(a_new, params) - generator(a, params))
                + (generator(b_new, params) - generator(b, params))
            )
            r = abs(s_new - cur_s[1 - side]) / smax
            if r > cur_ratio:
                target[i], target[j] = a_new, b_new
                cur_s[side], cur_ratio, l1 = s_new, r, new_l1
                improved = True
        stall = 0 if improved else stall + 1
        if stall >= stall_limit:
            eps *= 0.5
            stall = 0
        if step % RESYNC_STEPS == 0:
            cur_s = list(entropies(cur_w, cur_wp))
            cur_ratio = abs(cur_s[0] - cur_s[1]) / smax
            l1 = float(np.abs(cur_w - cur_wp).sum())

    pair = PerturbPair(
        make_dist(cur_w), make_dist(cur_wp), delta, Family.RANDOM_SEARCH
    )
    return pair, stability_ratio(pair, params)
