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

scipy is imported on the first quadrature only, inside
laplace_singular_quad, so importing this module (and tempent) does not
load scipy; the closed form and gamma_fn never need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    scipy.integrate is imported on the first call, after the arguments
    are checked.
    """
    if not (c > 0.0) or not math.isfinite(c):
        raise DomainError(f"need finite c > 0, got {c!r}")
    if not (0.0 < sigma < 1.0):
        raise DomainError(f"sigma must lie in (0, 1), got {sigma!r}")
    # the tail cut u* = -ln(tol * 1e-3) / c needs tol * 1e-3 > 0, which
    # also rules out tol <= 0 and NaN
    if not (tol * 1e-3 > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tol must be finite with tol * 1e-3 > 0, got {tol!r}")

    from scipy.integrate import quad

    # quadpack refuses epsrel below ~50*eps; clamp and let the final
    # certification against tol decide whether to raise
    epsrel = max(min(tol / 10.0, 1e-11), 1.5e-14)
    one_m = 1.0 - sigma

    def lower(v: float) -> float:
        # u = v**(1/(1-sigma)); integrand transforms to a bounded function
        return math.exp(-c * v ** (1.0 / one_m)) / one_m

    def upper(u: float) -> float:
        return u ** (-sigma) * math.exp(-c * u)

    u_star = -math.log(tol * 1e-3) / c
    pieces = [("lower", lower, 0.0, 1.0)]
    if u_star > 1.0:
        pieces.append(("upper", upper, 1.0, u_star))
    val, err, neval = 0.0, 0.0, 0
    for name, fn, a, b in pieces:
        r = quad(fn, a, b, epsabs=0.0, epsrel=epsrel, limit=200, full_output=1)
        if len(r) > 3:
            raise ToleranceNotReached(f"{name} piece: {r[3].strip()}")
        val += r[0]
        err += r[1]
        neval += r[2]["neval"]
    err += math.exp(-c * u_star) / c  # the tail bound
    if err > tol * abs(val):
        raise ToleranceNotReached(
            f"certified error {err:.3e} exceeds {tol:.1e} * {abs(val):.6e}"
        )
    return QuadResult(value=val, err_estimate=err, evaluations=int(neval))


def _rate(params: FracParams) -> float:
    """Laplace rate c = lam - ln p > 0 of the substituted inner integral."""
    return params.lam - math.log(params.p)


def tempered_derivative_numeric(params: FracParams) -> float:
    """D u(t) by central differencing of the quadrature route.

    The time derivative acts on the inner integral I(t) alone; the
    exp(-lam*t)/Gamma(1-sigma) prefactor is applied at the evaluation
    point afterwards.  The step is the constant h = 1e-5 * max(1, |t|),
    and one Richardson step (4*D(h/2) - D(h)) / 3 always removes the
    leading O(h^2) truncation term of the central difference D(h).
    I(t) = exp(t*c) * Q with the t-independent Laplace integral Q, so Q
    is computed once and reused at every difference point.  Never
    consults the closed form.
    """
    h = 1e-5 * max(1.0, abs(params.t))
    prefactor = math.exp(-params.lam * params.t) / gamma_fn(1.0 - params.sigma)
    c = _rate(params)
    q = laplace_singular_quad(c, params.sigma).value

    def ival(t: float) -> float:
        return math.exp(t * c) * q

    def central(step: float) -> float:
        return (ival(params.t + step) - ival(params.t - step)) / (2.0 * step)

    return prefactor * (4.0 * central(h / 2.0) - central(h)) / 3.0


def closed_form_derivative(params: FracParams) -> float:
    """D u(t) = exp(-t ln p) * (lam - ln p)**sigma, the analytic route."""
    c = _rate(params)
    return math.exp(-params.t * math.log(params.p)) * c**params.sigma
