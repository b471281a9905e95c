"""Core evaluation of the two-parameter tempered entropy.

For a discrete distribution p = (p_1, ..., p_n) and parameters
sigma in (0, 1], lam >= 0, the entropy is

    S(p) = sum_i p_i * [(lam - ln p_i)**sigma - lam**sigma]

with the convention 0 * ln 0 = 0 (zero weights contribute nothing).
Setting lam = 0 recovers the one-parameter fractional form
sum_i p_i * (-ln p_i)**sigma, and sigma = 1 collapses to the
Shannon entropy for every lam, since (lam + y) - lam = y.

Everything is built from the per-outcome generator

    f(x) = x * [(lam - ln x)**sigma - lam**sigma],   x in [0, 1]

which vanishes exactly at x = 0 and x = 1.  The bracket
(lam + y)**sigma - lam**sigma (y = -ln x >= 0) suffers catastrophic
cancellation when y << lam, so where y < lam/2, and only there, it is
evaluated as lam**sigma * expm1(sigma * log1p(y / lam)).

-ln p is computed once per distribution: a ProbDist keeps the vector
y = -ln p_i over its nonzero weights after its first entropy() call, so
evaluating S at many (sigma, lam) pairs pays for the logarithm once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class DomainError(ValueError):
    """A scalar argument is outside the domain an operation requires."""


class NegativeWeight(ValueError):
    """A probability weight is negative."""


class SumNotOne(ValueError):
    """Probability weights do not sum to one within tolerance."""


class TooFewOutcomes(ValueError):
    """A distribution needs at least one outcome (two for some operations)."""


class DimensionMismatch(ValueError):
    """Two distributions that must share a length do not."""


# Weights must sum to 1 within this absolute tolerance; no silent renormalization.
SUM_TOL = 1e-12


class _Unbounded:
    """Singleton marking a derivative that diverges to -infinity.

    Returned by :func:`generator_derivative` at x = 1 when lam = 0 and
    sigma < 1.  A sentinel, not an IEEE infinity: arithmetic with it is
    a bug, so it deliberately supports none.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()


@dataclass(frozen=True)
class EntropyParams:
    """Parameter pair (sigma, lam) defining one member of the entropy family.

    sigma : float, fractional order, 0 < sigma <= 1
    lam   : float, tempering shift, lam >= 0
    """

    sigma: float
    lam: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.sigma <= 1.0) or not math.isfinite(self.sigma):
            raise DomainError(f"sigma must lie in (0, 1], got {self.sigma!r}")
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite and >= 0, got {self.lam!r}")


def _check_rows(w: np.ndarray) -> None:
    """ProbDist's weight checks, applied to each row along the last axis.

    w is a float array whose last axis is nonempty.  Raises DomainError
    (non-finite entry or an entry above 1), NegativeWeight, or SumNotOne
    for the first offending entry or row, in that order of checks.
    """
    lo, hi = w.min(), w.max()
    # min and max propagate NaN, so this one test clears every entry; the
    # ordered checks below only name the first offender
    if not (0.0 <= lo and hi <= 1.0):
        if not np.isfinite(w).all():
            raise DomainError("weights must be finite")
        if lo < 0.0:
            bad = float(w[w < 0.0][0])
            raise NegativeWeight(f"negative weight {bad!r}")
        # the sum check alone admits 1 + 1 ulp, where -ln w < 0 and S is NaN
        bad = float(w[w > 1.0][0])
        raise DomainError(f"weight {bad!r} exceeds 1")
    total = w.sum(axis=-1)
    off = abs(total - 1.0) > SUM_TOL
    if off.any():
        bad = float(np.atleast_1d(total)[np.atleast_1d(off)][0])
        raise SumNotOne(f"weights sum to {bad!r}, not 1 within {SUM_TOL}")


@dataclass(frozen=True, eq=False)
class ProbDist:
    """A validated probability distribution over finitely many outcomes.

    Weights are stored exactly as given (read-only array); construction
    rejects rather than repairs: negative entries raise NegativeWeight,
    an entry above 1 raises DomainError, and a sum off by more than
    SUM_TOL raises SumNotOne.

    The first entropy() call caches -ln p_i over the nonzero weights:
    one float64 per nonzero outcome, plus a filtered copy of the weights
    when any weight is 0.  Every later call at any (sigma, lam) reuses it.
    """

    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise TooFewOutcomes("need a 1-d array with at least one outcome")
        _check_rows(w)
        w = w.copy()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return int(self.weights.size)

    @cached_property
    def _neg_log(self) -> tuple[np.ndarray, np.ndarray]:
        """(w, -ln w) over the nonzero weights, both read-only."""
        w = self.weights
        if not w.all():
            w = w[w > 0.0]
            w.flags.writeable = False
        y = np.log(w)
        np.negative(y, out=y)
        y.flags.writeable = False
        return w, y


def make_dist(weights) -> ProbDist:
    """Validate a weight sequence and wrap it as a ProbDist."""
    return ProbDist(np.asarray(weights, dtype=float))


def _power_gap(y, sigma: float, lam: float):
    """(lam + y)**sigma - lam**sigma for y >= 0, cancellation-safe.

    For lam > 0 and y < lam/2 the direct difference loses most of its
    significant digits; there, and only there, the identity
    lam**sigma * expm1(sigma * log1p(y/lam)) is evaluated instead, exact
    to a few ulp.  Accepts scalars or arrays, returns an ndarray
    (possibly 0-d) or a numpy scalar.
    """
    y = np.asarray(y, dtype=float)
    if lam == 0.0:
        return y**sigma
    near = y < 0.5 * lam
    if near.all():
        return _near_gap(y, sigma, lam)
    # lam + y may overflow for the huge finite x that g_func accepts
    with np.errstate(over="ignore"):
        gap = (lam + y) ** sigma - lam**sigma
    if near.any():
        gap[near] = _near_gap(y[near], sigma, lam)
    return gap


def _near_gap(y, sigma: float, lam: float):
    """The power gap as lam**sigma * expm1(sigma * log1p(y/lam)), lam > 0."""
    return lam**sigma * np.expm1(sigma * np.log1p(y / lam))


def generator(x: float, params: EntropyParams) -> float:
    """Per-outcome term f(x) = x*[(lam - ln x)**sigma - lam**sigma] on [0, 1].

    Exactly 0.0 at both endpoints (the x = 0 value is the 0*ln 0 = 0
    convention; at x = 1 the bracket vanishes identically).
    """
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"generator needs x in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return float(x * _power_gap(-math.log(x), params.sigma, params.lam))


def generator_derivative(x: float, params: EntropyParams):
    """f'(x) = (lam - ln x)**sigma - lam**sigma - sigma*(lam - ln x)**(sigma-1).

    Domain is (0, 1].  At x = 1 with lam = 0 and sigma < 1 the last term
    diverges; the sentinel UNBOUNDED is returned instead of an IEEE inf.
    For lam > 0 the derivative at x = 1 is finite: -sigma * lam**(sigma-1).
    """
    if not (0.0 < x <= 1.0):
        raise DomainError(f"generator_derivative needs x in (0, 1], got {x!r}")
    sigma, lam = params.sigma, params.lam
    if x == 1.0 and lam == 0.0 and sigma < 1.0:
        return UNBOUNDED
    y = -math.log(x)
    gap = float(_power_gap(y, sigma, lam))
    return gap - sigma * (lam + y) ** (sigma - 1.0)


def entropy(p: ProbDist, params: EntropyParams) -> float:
    """Tempered entropy S(p) = sum_i f(p_i); zero weights are skipped.

    -ln p_i is taken on p's first call and reused by every later one.
    """
    w, y = p._neg_log
    gap = _power_gap(y, params.sigma, params.lam)
    gap *= w
    return float(np.sum(gap))


def ubriaco_entropy(p: ProbDist, alpha: float) -> float:
    """One-parameter fractional entropy sum_i p_i * (-ln p_i)**alpha.

    Identical, bit for bit, to entropy(p, EntropyParams(alpha, 0.0)):
    both paths compress zeros and evaluate the same expression tree.
    """
    if not (0.0 < alpha <= 1.0) or not math.isfinite(alpha):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha!r}")
    w = p.weights
    w = w[w > 0.0]
    y = -np.log(w)
    return float(np.sum(w * y**alpha))


def shannon_entropy(p: ProbDist) -> float:
    """Shannon entropy -sum_i p_i ln p_i (natural log), zeros skipped."""
    w = p.weights
    w = w[w > 0.0]
    return float(np.sum(w * -np.log(w)))


def max_entropy(n: int, params: EntropyParams) -> float:
    """Entropy of the uniform distribution on n outcomes, evaluated in closed form.

    Equals (lam + ln n)**sigma - lam**sigma, the maximum of S over the
    n-simplex; used as the normalizer in stability ratios.  n may be an
    int of any size or an integral float; NaN, inf and fractions are
    rejected.
    """
    # a Python int never goes through float(), which overflows past 1e308
    if not (n >= 2) or not (isinstance(n, int) or float(n).is_integer()):
        raise DomainError(f"max_entropy needs an integer n >= 2, got {n!r}")
    return float(_power_gap(math.log(n), params.sigma, params.lam))


def g_func(x: float, params: EntropyParams) -> float:
    """Shifted power gap g(x) = (lam + x)**sigma - lam**sigma for x >= 0.

    The concave, subadditive envelope behind the entropy's upper bounds:
    g(0) = 0 exactly, g is increasing, and for sigma = 1 it is the
    identity regardless of lam.
    """
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"g_func needs finite x >= 0, got {x!r}")
    return float(_power_gap(x, params.sigma, params.lam))


def _entropy_rows(w: np.ndarray, params: EntropyParams) -> np.ndarray:
    """Row-wise entropy of a (m, n) matrix of weights. No validation.

    Internal fast path for sampled axiom checks; rows are assumed
    nonnegative and normalized.  Zero entries contribute exactly 0.
    """
    w = np.asarray(w, dtype=float)
    pos = w > 0.0
    y = np.where(pos, -np.log(np.where(pos, w, 1.0)), 0.0)
    terms = np.where(pos, w, 0.0) * _power_gap(y, params.sigma, params.lam)
    return terms.sum(axis=-1)
