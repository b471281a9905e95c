"""Structural checks for the tempered entropy family.

Each check measures a worst-case violation of one property and returns
an AxiomReport.  A report passes when worst_violation <= threshold; the
thresholds, one per axiom in `_THRESHOLDS`, are part of the contract, not
knobs.  Witnesses carry enough state to re-evaluate the reported violation
exactly through the public scalar API.

Checked properties:
  * nonnegativity          S(p) >= 0 on sampled simplices
  * maximality             S(p) <= S(uniform) on sampled simplices
  * expansibility          appending a zero outcome changes nothing (exact)
  * generator concavity    f''(x) <= 0 on an interior grid, by finite differences
  * entropy concavity      S(t p + (1-t) q) >= t S(p) + (1-t) S(q)
  * lambda inequality      S_{sigma,lam}(p) <= S_{sigma,0}(p)
  * power subadditivity    (x + y)**a <= x**a + y**a for a in (0, 1)
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import core
from .core import (
    DimensionMismatch,
    DomainError,
    EntropyParams,
    ProbDist,
    entropy,
    make_dist,
    max_entropy,
)


class Axiom(enum.Enum):
    NONNEGATIVITY = "nonnegativity"
    MAXIMALITY = "maximality"
    EXPANSIBILITY = "expansibility"
    GENERATOR_CONCAVITY = "generator_concavity"
    ENTROPY_CONCAVITY = "entropy_concavity"
    LAMBDA_INEQUALITY = "lambda_inequality"
    POWER_SUBADDITIVITY = "power_subadditivity"


# the pass threshold of each axiom: the largest worst_violation that passes
_THRESHOLDS: dict[Axiom, float] = {
    Axiom.NONNEGATIVITY: 1e-15,
    Axiom.MAXIMALITY: 1e-9,
    Axiom.EXPANSIBILITY: 0.0,
    Axiom.GENERATOR_CONCAVITY: 1e-6,
    Axiom.ENTROPY_CONCAVITY: 1e-10,
    Axiom.LAMBDA_INEQUALITY: 1e-12,
    Axiom.POWER_SUBADDITIVITY: 1e-12,
}


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of one axiom check.

    worst_violation is a signed margin: positive means the property was
    violated by that amount, values <= 0 mean it held with room to spare.
    """

    axiom: Axiom
    samples_checked: int
    worst_violation: float
    witness: Optional[dict] = None

    @property
    def threshold(self) -> float:
        return _THRESHOLDS[self.axiom]

    @property
    def passed(self) -> bool:
        return self.worst_violation <= self.threshold


def sample_simplex(n: int, count: int, seed: int) -> list[ProbDist]:
    """Draw `count` points uniformly from the n-simplex (flat Dirichlet)."""
    return [make_dist(row) for row in _sample_matrix(n, count, seed)]


def _sample_matrix(n: int, count: int, seed: int) -> np.ndarray:
    # normalized standard exponentials == Dirichlet(1, ..., 1)
    if not all(isinstance(k, numbers.Integral) and k >= 1 for k in (n, count)):
        raise DomainError(f"need integers n, count >= 1, got n={n!r}, count={count!r}")
    core._check_fits("the sample matrix", count=count, n=n)
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    e = rng.standard_exponential((count, n))
    w = e / e.sum(axis=1, keepdims=True)
    # the checks make_dist would apply to each row
    core._check_rows(w)
    return w


def _replay(gaps: np.ndarray, rescore: Callable[..., AxiomReport]) -> AxiomReport:
    """The report of the first largest gap, counting every gap in the batch.

    np.argmax keeps the first of equal maxima, so ties go to the earliest
    entry in row-major (draw) order.  rescore(*index) scores that case
    again through its scalar check, so the reported value replays exactly
    from its witness.
    """
    index = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    return replace(rescore(*map(int, index)), samples_checked=gaps.size)


def check_nonnegativity(
    n: int, params: EntropyParams, samples: int = 10_000, seed: int = 0
) -> AxiomReport:
    """S(p) >= 0 over sampled distributions; violation is -min S."""
    w = _sample_matrix(n, samples, seed)

    def rescore(i: int) -> AxiomReport:
        p = make_dist(w[i])
        worst = -entropy(p, params)
        return AxiomReport(Axiom.NONNEGATIVITY, 1, worst, {"p": p, "params": params})

    return _replay(-core._entropy_rows(w, params), rescore)


def check_maximality(
    n: int, params: EntropyParams, samples: int = 10_000, seed: int = 0
) -> AxiomReport:
    """S(p) <= S(uniform_n) over sampled distributions.

    Violation is max S(p) - max_entropy(n); the witness distribution
    re-evaluates to exactly the reported margin.
    """
    w = _sample_matrix(n, samples, seed)

    def rescore(i: int) -> AxiomReport:
        p = make_dist(w[i])
        worst = entropy(p, params) - max_entropy(n, params)
        return AxiomReport(Axiom.MAXIMALITY, 1, worst, {"p": p, "params": params})

    return _replay(core._entropy_rows(w, params), rescore)


def check_expansibility(p: ProbDist, params: EntropyParams) -> AxiomReport:
    """Appending a zero-probability outcome must not change S at all.

    Zero weights are compressed out before any logarithm, so the two
    evaluations share every floating-point operation; the threshold is 0.
    """
    extended = make_dist(np.append(p.weights, 0.0))
    worst = abs(entropy(extended, params) - entropy(p, params))
    return AxiomReport(Axiom.EXPANSIBILITY, 1, worst, {"p": p, "params": params})


def check_generator_concavity(params: EntropyParams) -> AxiomReport:
    """Central-difference f'' <= 0 at 199 points of [0.005, 0.995], step h = 1e-4.

    f'' has an integrable singularity at both endpoints for sigma < 1;
    the interior grid stays clear of it.  Analytically
    f''(x) = (sigma/x)(lam - ln x)**(sigma-2) * (sigma - 1 - (lam - ln x)),
    strictly negative on (0, 1), so the tolerance only absorbs
    finite-difference truncation and rounding.
    """
    h = 1e-4
    x = np.linspace(0.005, 0.995, 199)
    # a one-outcome row's entropy is f at its weight
    lo, mid, hi = (core._entropy_rows(v[:, None], params) for v in (x - h, x, x + h))
    d2 = (lo - 2.0 * mid + hi) / (h * h)

    def rescore(i: int) -> AxiomReport:
        witness = {"x": float(x[i]), "h": h, "params": params}
        return AxiomReport(Axiom.GENERATOR_CONCAVITY, 1, float(d2[i]), witness)

    return _replay(d2, rescore)


def check_entropy_concavity(
    p: ProbDist, q: ProbDist, t: float, params: EntropyParams
) -> AxiomReport:
    """S(t p + (1-t) q) >= t S(p) + (1-t) S(q) for one mixture weight t."""
    if p.n != q.n:
        raise DimensionMismatch(f"p has {p.n} outcomes, q has {q.n}")
    if not (0.0 <= t <= 1.0):
        raise DomainError(f"mixture weight t must lie in [0, 1], got {t!r}")
    mix = make_dist(t * p.weights + (1.0 - t) * q.weights)
    worst = t * entropy(p, params) + (1.0 - t) * entropy(q, params) - entropy(
        mix, params
    )
    return AxiomReport(
        Axiom.ENTROPY_CONCAVITY, 1, worst, {"p": p, "q": q, "t": t, "params": params}
    )


def check_lambda_inequality(p: ProbDist, sigma: float, lam: float) -> AxiomReport:
    """Tempering can only lower the entropy: S_{sigma,lam} <= S_{sigma,0}.

    Termwise, (lam + y)**sigma - lam**sigma is nonincreasing in lam
    (its lam-derivative is sigma*((lam+y)**(sigma-1) - lam**(sigma-1)) <= 0).
    """
    tempered = entropy(p, EntropyParams(sigma, lam))
    worst = tempered - entropy(p, EntropyParams(sigma, 0.0))
    witness = {"p": p, "sigma": sigma, "lam": lam}
    return AxiomReport(Axiom.LAMBDA_INEQUALITY, 1, worst, witness)


def check_power_subadditivity(x: float, y: float, alpha: float) -> AxiomReport:
    """(x + y)**alpha <= x**alpha + y**alpha for x, y >= 0, alpha in (0, 1)."""
    # x + y is finite only when x and y are, and (x + y)**alpha needs it
    if not math.isfinite(x + y) or x < 0.0 or y < 0.0:
        raise DomainError(f"need x, y >= 0 with a finite sum, got x={x!r}, y={y!r}")
    if not (0.0 < alpha < 1.0):
        raise DomainError(f"alpha must lie in (0, 1), got {alpha!r}")
    worst = (x + y) ** alpha - (x**alpha + y**alpha)
    return AxiomReport(
        Axiom.POWER_SUBADDITIVITY, 1, worst, {"x": x, "y": y, "alpha": alpha}
    )


def run_axiom_suite(
    n: int, params: EntropyParams, samples: int = 10_000, seed: int = 0
) -> list[AxiomReport]:
    """Run every check for one (n, params) configuration.

    Sampled checks draw `samples` points; pairwise and pointwise checks
    score fixed deterministic grids plus seeded draws in batch.  Each row
    reports the first largest violation in draw order, re-scored through
    its scalar check, and counts every case scored.
    Deterministic for a given (n, params, samples, seed).
    """
    reports = [
        check_nonnegativity(n, params, samples=samples, seed=seed),
        check_maximality(n, params, samples=samples, seed=seed + 1),
    ]

    # expansibility: exact equality on a handful of draws
    draws = sample_simplex(n, min(samples, 64), seed + 2)
    exp = [check_expansibility(p, params) for p in draws]
    gaps = np.array([r.worst_violation for r in exp])
    reports.append(_replay(gaps, exp.__getitem__))

    reports.append(check_generator_concavity(params))

    # entropy concavity: seeded pairs crossed with a fixed t-grid, scored in
    # batch one t at a time, pair-major and t-minor
    n_pairs = min(samples, 256)
    ps = _sample_matrix(n, n_pairs, seed + 3)
    qs = _sample_matrix(n, n_pairs, seed + 4)
    t_grid = (0.1, 0.25, 0.5, 0.75, 0.9)
    s_p, s_q = core._entropy_rows(ps, params), core._entropy_rows(qs, params)
    gaps = np.empty((n_pairs, len(t_grid)))
    for j, t in enumerate(t_grid):
        mix = t * ps + (1.0 - t) * qs
        core._check_rows(mix)
        gaps[:, j] = t * s_p + (1.0 - t) * s_q - core._entropy_rows(mix, params)
    reports.append(_replay(gaps, lambda i, j: check_entropy_concavity(
        make_dist(ps[i]), make_dist(qs[i]), t_grid[j], params)))

    # lambda inequality over fresh draws
    w = _sample_matrix(n, min(samples, 512), seed + 5)
    untempered = EntropyParams(params.sigma, 0.0)
    gaps = core._entropy_rows(w, params) - core._entropy_rows(w, untempered)
    reports.append(_replay(gaps, lambda i: check_lambda_inequality(
        make_dist(w[i]), params.sigma, params.lam)))

    # power subadditivity on a fixed (alpha, x, y) grid, alpha=1 excluded
    # (equality case)
    xs = np.linspace(0.0, 5.0, 21)
    alphas = np.linspace(0.05, 0.95, 19)[:, None, None]
    x, y = xs[:, None], xs[None, :]
    gaps = (x + y) ** alphas - (x**alphas + y**alphas)
    reports.append(_replay(gaps, lambda k, i, j: check_power_subadditivity(
        float(xs[i]), float(xs[j]), float(alphas[k, 0, 0]))))
    return reports
