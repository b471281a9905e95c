"""Verify the derivative identity behind the entropy's per-outcome term.

For u(s) = exp(-s ln p), the tempered fractional derivative of order
sigma evaluates in closed form to exp(-t ln p) * (lam - ln p)**sigma.
At t = -1 that is p * (lam - ln p)**sigma.  No shortcut is taken here:
the left side is computed by adaptive quadrature of a singular integral
plus a central difference in t, the right side directly, and the two
are compared.

The quadrature splits at u = 1 and substitutes u = v**(1/(1-sigma)) on
the singular piece, which removes the endpoint singularity exactly; the
truncated tail is covered by an analytic bound folded into the error
estimate.

tempered_derivative_numeric always takes the step h = 1e-5 * max(1, |t|)
and one Richardson step.  The last section shows the plain central
difference D(h) that the Richardson step improves, so it builds D(h)
itself from the public laplace_singular_quad and gamma_fn.
"""

import math

from tempent import (
    FracParams,
    closed_form_derivative,
    gamma_fn,
    laplace_singular_quad,
    tempered_derivative_numeric,
)


def main():
    # --- 1. the quadrature engine against a known transform -------------
    print("integral_0^inf u**(-sigma) exp(-c u) du  vs  Gamma(1-sigma) c**(sigma-1)")
    for c, sigma in ((1.0, 0.5), (2.0, 0.5), (10.0, 0.25), (0.1, 0.75)):
        q = laplace_singular_quad(c, sigma)
        exact = gamma_fn(1.0 - sigma) * c ** (sigma - 1.0)
        print(
            f"  c={c:<5} sigma={sigma:<5} quad={q.value:.12e}"
            f"  rel_err={abs(q.value - exact) / exact:.1e}"
            f"  certified={q.err_estimate / q.value:.1e}  neval={q.evaluations}"
        )
    print()

    # --- 2. numeric route vs closed form ---------------------------------
    print("tempered derivative, numeric vs closed form (t = -1):")
    for p, sigma, lam in ((0.5, 0.5, 1.0), (0.1, 0.9, 0.0), (0.9, 0.1, 2.0)):
        fp = FracParams(sigma=sigma, lam=lam, p=p, t=-1.0)
        num = tempered_derivative_numeric(fp)
        ref = closed_form_derivative(fp)
        print(
            f"  p={p:<4} sigma={sigma:<4} lam={lam:<4}"
            f"  numeric={num:.12f}  closed={ref:.12f}  rel={abs(num - ref) / ref:.1e}"
        )
    print()

    # --- 3. the central difference really is second order ----------------
    # D(h) = prefactor * (I(t + h) - I(t - h)) / (2h), I(t) = exp(t c) * Q
    fp = FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)
    ref = closed_form_derivative(fp)
    c = fp.lam - math.log(fp.p)
    q = laplace_singular_quad(c, fp.sigma).value
    prefactor = math.exp(-fp.lam * fp.t) / gamma_fn(1.0 - fp.sigma)
    print("plain central difference error vs step (Richardson off):")
    prev = None
    for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        d = (math.exp((fp.t + h) * c) * q - math.exp((fp.t - h) * c) * q) / (2.0 * h)
        err = abs(prefactor * d - ref)
        order = "" if prev is None else f"  order~{math.log(prev / err) / math.log(2):.2f}"
        print(f"  h={h:<8} err={err:.3e}{order}")
        prev = err


if __name__ == "__main__":
    main()
