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
import functools
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

# The climb admits a move while the exact L1 of its current pair, plus the
# two L1 terms the move changes, stays within delta plus this margin.  That
# sum carries one step's rounding (a few ulp of values <= 2), far inside
# L1_TOL: a pair the climb admits must never be one that PerturbPair then
# rejects at L1_TOL.
_CLIMB_L1_GUARD = L1_TOL / 10

# climb moves drawn per numpy call; the moves do not depend on it, and it
# caps the draw's memory (under 0.1 MB) whatever the step count
_MOVE_BLOCK = 1024


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


def _family_pair(family: Family, n: int, delta: float) -> PerturbPair:
    """The explicit pair of a structured family, certified by PerturbPair."""
    if not (0.0 < delta <= 1.0):
        raise DomainError(f"family {family.value} needs delta in (0, 1], got {delta!r}")
    # the aggregated path takes any n in the float range; a numpy vector cannot
    core._check_fits(f"family {family.value} vector", n=n)
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
                r = _family_renyi(fam, n, delta, control_q)
                records.append(
                    _record(f"{fam.value}_renyi", n, delta, params, *r, math.log(n))
                )
    records.sort(key=lambda r: (r.family, r.n))
    return records


def _climb_moves(rng: np.random.Generator, n: int, steps: int):
    """The climb's (side, i, j) for each of `steps` moves, drawn in blocks.

    Per step this is the draw of int(rng.integers(0, 2)) followed by
    rng.choice(n, 2, replace=False), in values and in the stream read.
    For two of n, choice runs Floyd's algorithm: a draw on [0, n-2], one on
    [0, n-1] (taken as n-1 if it repeats the first), and a shuffle of the
    two that swaps them when its draw on [0, 1] is 0.  Each of the four is
    one bounded-integer draw, as is the side, so one rng.integers call with
    the four bounds per row makes the same draws in the same order.
    """
    highs = np.array([2, n - 1, n, 2])
    for done in range(0, steps, _MOVE_BLOCK):
        rows = rng.integers(0, highs, size=(min(_MOVE_BLOCK, steps - done), 4))
        side, first, second, keep = rows.T
        second = np.where(second == first, n - 1, second)
        i, j = np.where(keep, first, second), np.where(keep, second, first)
        yield from zip(side.tolist(), i.tolist(), j.tolist())


def random_pair_search(
    n: int,
    delta: float,
    params: EntropyParams,
    iterations: int = 10_000,
    seed: int = 0,
) -> tuple[PerturbPair, StabilityRecord]:
    """Adversarial search for a high-ratio pair inside the L1 ball.

    Hill climb over mass-transfer moves of size eps = delta/10, cooled by
    half after iterations//5 consecutive non-improving steps.  It starts
    from the first structured family with the highest ratio, so the result
    is never below theirs.  Only where no family applies (delta = 0) does
    it start from a seeded random pair p = p'; that pair is drawn for every
    delta, so a seed's steps read the same stretch of the stream.

    The start and each accepted move are RandomSearch PerturbPairs scored
    by stability_ratio, at O(n): two make_dist and two entropy calls.  A
    move changes two weights on one side, so a step tests it in O(1) from
    the two changed generator terms and L1 terms; a rejected step costs
    only that.  Each step draws one side, then one index pair, from the
    seeded stream, so a given seed always gives the same climb.  The moves
    are drawn in blocks, with the values and stream of one draw per step
    (see _climb_moves), so memory does not grow with iterations.  The
    generator terms are memoized for the call: the state changes only on
    an accepted move, so a climb asks for few distinct arguments (29 on
    the README search line), and a cached value has the same bits.
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
    rng = np.random.default_rng(seed)
    smax = max_entropy(n, params)

    def scored(p: ProbDist, p_prime: ProbDist):
        """The certified search pair (p, p') and its record."""
        pair = PerturbPair(p, p_prime, delta, Family.RANDOM_SEARCH)
        return pair, stability_ratio(pair, params)

    families = (
        _family_pair(fam, n, delta)
        for fam, min_n in _FAMILY_MIN_N.items()
        if delta > 0.0 and n >= min_n
    )
    # max keeps the first of equal ratios, holding one family beside the best
    starts = (scored(f.p, f.p_prime) for f in families)
    best = max(starts, key=lambda start: start[1].ratio, default=None)
    base = rng.standard_exponential(n)
    if best is None:
        base /= base.sum()
        best = scored(make_dist(base), make_dist(base))
    pair, rec = best
    # writable copies for the climb; pair and rec always hold the best state
    cur = [pair.p.weights.copy(), pair.p_prime.weights.copy()]
    l1 = pair.l1_distance()

    g = functools.cache(lambda x: generator(x, params))
    eps = delta / 10.0
    stall_limit = max(1, iterations // 5)
    stall = 0
    for side, i, j in _climb_moves(rng, n, iterations):
        # move mass within one side of the pair, keeping the other fixed
        target, other = cur[side], cur[1 - side]
        a, b = float(target[i]), float(target[j])
        oa, ob = float(other[i]), float(other[j])
        amt = min(eps, a)
        # b + amt can round just above 1.0, which no weight may exceed
        a_new, b_new = a - amt, min(b + amt, 1.0)
        new_l1 = (
            l1 + (abs(a_new - oa) - abs(a - oa)) + (abs(b_new - ob) - abs(b - ob))
        )
        stall += 1
        if new_l1 <= delta + _CLIMB_L1_GUARD:
            s = rec.s_p, rec.s_p_prime
            s_new = s[side] + ((g(a_new) - g(a)) + (g(b_new) - g(b)))
            if abs(s_new - s[1 - side]) / smax > rec.ratio:
                target[i], target[j] = a_new, b_new
                pair, rec = scored(*map(make_dist, cur))
                l1 = pair.l1_distance()
                stall = 0
        if stall >= stall_limit:
            eps *= 0.5
            stall = 0

    return pair, rec
