"""Tempered fractional derivative of exponentials, two independent routes.

For u(s) = exp(-s * ln p) with 0 < p < 1, the tempered Liouville
derivative of order sigma in (0, 1) with tempering lam >= 0 is

    D u(t) = exp(-lam*t) / Gamma(1 - sigma)
             * d/dt Integral_{-inf}^{t} (t - s)**(-sigma) exp(lam*s) u(s) ds.

Substituting u = t - s reduces the inner integral to a one-sided Laplace
transform of u**(-sigma):

    I(t) = exp(t*c) * Integral_0^inf u**(-sigma) exp(-c*u) du,
    c = lam - ln p > 0,

whose exact value is exp(t*c) * Gamma(1 - sigma) * c**(sigma - 1), so

    D u(t) = exp(-t * ln p) * (lam - ln p)**sigma          (closed form).

This module evaluates the left side by quadrature plus numerical
differentiation and the right side directly; agreement of the two
routes on a grid is the verification target.  The closed-form route
never touches the quadrature code.

Quadrature of the singular integrand: split at u = 1.  On (0, 1) the
substitution u = v**(1/(1-sigma)) gives du = u/(v*(1-sigma)) dv and

    Integral_0^1 u**(-sigma) exp(-c*u) du
        = Integral_0^1 exp(-c * v**(1/(1-sigma))) / (1 - sigma) dv,

a bounded smooth integrand (the endpoint singularity is removed
exactly, not merely weakened).  On (1, inf) the integrand decays like
exp(-c*u); it is truncated at u* = -ln(tol * 1e-3) / c and the exact
tail bound Integral_{u*}^inf u**(-sigma) exp(-c*u) du <= exp(-c*u*)/c
is added to the reported error estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad

from .core import DomainError


class ToleranceNotReached(RuntimeError):
    """Quadrature could not certify the requested relative tolerance."""


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int


@dataclass(frozen=True)
class FracParams:
    """Inputs for one derivative evaluation: order, tempering, base, time."""

    sigma: float
    lam: float
    p: float
    t: float = -1.0

    def __post_init__(self):
        if not (0.0 < self.sigma < 1.0):
            raise DomainError(f"sigma must lie in (0, 1), got {self.sigma!r}")
        if not (self.lam >= 0.0) or not math.isfinite(self.lam):
            raise DomainError(f"lam must be finite and >= 0, got {self.lam!r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p!r}")
        if not math.isfinite(self.t):
            raise DomainError(f"t must be finite, got {self.t!r}")


# Lanczos coefficients, g = 7, 9 terms
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_fn(t: float) -> float:
    """Gamma function for t > 0 via the Lanczos approximation (g = 7, 9 terms).

    Relative error is below 1e-13 on (0, 10].  Arguments in (0, 0.5) go
    through the reflection formula Gamma(t) = pi / (sin(pi t) Gamma(1-t))
    to keep the series in its accurate range.
    """
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"gamma_fn needs finite t > 0, got {t!r}")
    if t < 0.5:
        return math.pi / (math.sin(math.pi * t) * gamma_fn(1.0 - t))
    t -= 1.0
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (t + k)
    z = t + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * z ** (t + 0.5) * math.exp(-z) * acc


def laplace_singular_quad(c: float, sigma: float, tol: float = 1e-10) -> QuadResult:
    """Integral_0^inf u**(-sigma) exp(-c*u) du by adaptive quadrature.

    Exact value: Gamma(1 - sigma) * c**(sigma - 1).  The integrable
    endpoint singularity is removed by substitution on (0, 1) (see the
    module docstring); the tail beyond u* = -ln(tol*1e-3)/c is replaced
    by its analytic bound, which is folded into err_estimate.  Raises
    ToleranceNotReached if the certified error exceeds tol * |value|.
    """
    if not (c > 0.0) or not math.isfinite(c):
        raise DomainError(f"need finite c > 0, got {c!r}")
    if not (0.0 < sigma < 1.0):
        raise DomainError(f"sigma must lie in (0, 1), got {sigma!r}")
    if not (tol > 0.0):
        raise DomainError(f"tol must be positive, got {tol!r}")

    # quadpack refuses epsrel below ~50*eps; clamp and let the final
    # certification against tol decide whether to raise
    epsrel = max(min(tol / 10.0, 1e-11), 1.5e-14)
    one_m = 1.0 - sigma

    def lower(v: float) -> float:
        # u = v**(1/(1-sigma)); integrand transforms to a bounded function
        return math.exp(-c * v ** (1.0 / one_m)) / one_m

    r1 = quad(lower, 0.0, 1.0, epsabs=0.0, epsrel=epsrel, limit=200, full_output=1)
    if len(r1) > 3:
        raise ToleranceNotReached(f"lower piece: {r1[3].strip()}")
    val, err = r1[0], r1[1]
    neval = r1[2]["neval"]

    u_star = -math.log(tol * 1e-3) / c
    tail_bound = math.exp(-c * u_star) / c
    if u_star > 1.0:

        def upper(u: float) -> float:
            return u ** (-sigma) * math.exp(-c * u)

        r2 = quad(
            upper, 1.0, u_star, epsabs=0.0, epsrel=epsrel, limit=200, full_output=1
        )
        if len(r2) > 3:
            raise ToleranceNotReached(f"upper piece: {r2[3].strip()}")
        val += r2[0]
        err += r2[1]
        neval += r2[2]["neval"]
    err += tail_bound
    if err > tol * abs(val):
        raise ToleranceNotReached(
            f"certified error {err:.3e} exceeds {tol:.1e} * {abs(val):.6e}"
        )
    return QuadResult(value=val, err_estimate=err, evaluations=int(neval))


def tempered_integral(params: FracParams) -> QuadResult:
    """I(t) = Integral_{-inf}^t (t-s)**(-sigma) exp(lam*s) exp(-s ln p) ds.

    Computed as exp(t*c) times the Laplace integral with c = lam - ln p.
    """
    c = params.lam - math.log(params.p)
    factor = math.exp(params.t * c)
    base = laplace_singular_quad(c, params.sigma)
    return QuadResult(
        value=factor * base.value,
        err_estimate=factor * base.err_estimate,
        evaluations=base.evaluations,
    )


def tempered_derivative_numeric(
    params: FracParams,
    h: float | None = None,
    richardson: bool = True,
) -> float:
    """D u(t) by central differencing of the quadrature route.

    The time derivative acts on the inner integral I(t) alone; the
    exp(-lam*t)/Gamma(1-sigma) prefactor is applied at the evaluation
    point afterwards.  Step defaults to h = 1e-5 * max(1, |t|); with
    richardson=True one extrapolation step (4*D(h/2) - D(h)) / 3 removes
    the leading O(h^2) truncation term.  Never consults the closed form.
    """
    if h is None:
        h = 1e-5 * max(1.0, abs(params.t))
    if not (h > 0.0):
        raise DomainError(f"step h must be positive, got {h!r}")
    prefactor = math.exp(-params.lam * params.t) / gamma_fn(1.0 - params.sigma)

    def ival(t: float) -> float:
        shifted = FracParams(sigma=params.sigma, lam=params.lam, p=params.p, t=t)
        return tempered_integral(shifted).value

    def central(step: float) -> float:
        return (ival(params.t + step) - ival(params.t - step)) / (2.0 * step)

    d1 = central(h)
    if not richardson:
        return prefactor * d1
    d2 = central(h / 2.0)
    return prefactor * (4.0 * d2 - d1) / 3.0


def closed_form_derivative(params: FracParams) -> float:
    """D u(t) = exp(-t ln p) * (lam - ln p)**sigma, the analytic route."""
    c = params.lam - math.log(params.p)
    return math.exp(-params.t * math.log(params.p)) * c**params.sigma
