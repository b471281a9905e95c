import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from tempent import (
    DomainError,
    EntropyParams,
    FracParams,
    ToleranceNotReached,
    closed_form_derivative,
    gamma_fn,
    generator,
    laplace_singular_quad,
    tempered_derivative_numeric,
)
import tempent.fracderiv as fracderiv

# frozen reference values, mpmath at 50 significant digits
GAMMA_HALF = 1.7724538509055160      # Gamma(1/2) = sqrt(pi)
GAMMA_PRODUCT = 3.8832220774509332   # Gamma(0.3) * Gamma(0.7)
GAMMA_099 = 1.0058719796441078      # Gamma(0.99)
QUAD_C2 = 1.2533141373155003        # Gamma(1/2) * 2**(-1/2)
TI_FROZEN = 0.25055501678071339     # integral route, t=-1, p=0.5, lam=1, sigma=0.5
CF_FROZEN = 0.650604945523768923    # closed form,   t=-1, p=0.5, lam=1, sigma=0.5
CF_UNTEMPERED = 0.44793772777338946  # closed form,  t=-1, p=0.5, lam=0, sigma=0.3


def rel(a, b):
    return abs(a - b) / abs(b)


def inner_integral(fp):
    """I(t) = exp(t*c) * Q(c, sigma) with c = lam - ln p, the quadrature route."""
    c = fp.lam - math.log(fp.p)
    return math.exp(fp.t * c) * laplace_singular_quad(c, fp.sigma).value


class TestGamma:
    def test_frozen_values(self):
        assert rel(gamma_fn(0.5), GAMMA_HALF) <= 1e-13
        assert rel(gamma_fn(0.3) * gamma_fn(0.7), GAMMA_PRODUCT) <= 1e-13
        assert rel(gamma_fn(0.99), GAMMA_099) <= 1e-13
        assert rel(gamma_fn(1.0), 1.0) <= 1e-13
        assert rel(gamma_fn(5.0), 24.0) <= 1e-13

    def test_reflection_consistency(self):
        # Gamma(t) * Gamma(1-t) = pi / sin(pi t)
        for t in (0.1, 0.25, 0.4, 0.49):
            lhs = gamma_fn(t) * gamma_fn(1.0 - t)
            assert rel(lhs, math.pi / math.sin(math.pi * t)) <= 1e-13

    def test_against_libm_on_unit_decade(self):
        worst = max(
            rel(gamma_fn(k / 100.0), math.gamma(k / 100.0)) for k in range(1, 1001)
        )
        assert worst <= 1e-13

    def test_returns_plain_float(self):
        assert type(gamma_fn(0.7)) is float

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_fn(0.0)
        with pytest.raises(DomainError):
            gamma_fn(-1.5)


class TestLaplaceQuad:
    def test_frozen_values(self):
        assert rel(laplace_singular_quad(1.0, 0.5).value, GAMMA_HALF) <= 1e-9
        assert rel(laplace_singular_quad(2.0, 0.5).value, QUAD_C2) <= 1e-9
        # sigma -> 0 limit: integral tends to Gamma(1)/c = 1 at c = 1
        assert rel(laplace_singular_quad(1.0, 0.01).value, GAMMA_099) <= 1e-9

    @pytest.mark.parametrize("c", [0.1, 1.0, 2.0, 10.0, 50.0])
    @pytest.mark.parametrize("sigma", [0.05, 0.25, 0.5, 0.75, 0.95])
    def test_identity_property(self, c, sigma):
        # independent oracle: libm gamma, closed form Gamma(1-sigma) c**(sigma-1)
        q = laplace_singular_quad(c, sigma, tol=1e-10)
        exact = math.gamma(1.0 - sigma) * c ** (sigma - 1.0)
        assert rel(q.value, exact) <= 1e-8
        assert abs(q.value - exact) <= q.err_estimate
        assert q.evaluations > 0

    def test_err_estimate_within_requested_tol(self):
        q = laplace_singular_quad(1.0, 0.5, tol=1e-10)
        assert q.err_estimate <= 1e-10 * abs(q.value)

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ToleranceNotReached):
            laplace_singular_quad(1.0, 0.5, tol=1e-18)

    # with full_output=1 quadpack returns its warning message as a fourth
    # item when it could not meet the requested accuracy; the piece that
    # gets it raises, quoting the message
    @pytest.mark.parametrize("piece", ["lower", "upper"])
    def test_quadpack_warning_raises(self, monkeypatch, piece):
        import scipy.integrate

        real_quad = scipy.integrate.quad

        def quad(f, a, b, **kwargs):
            result = real_quad(f, a, b, **kwargs)
            if (a == 0.0) == (piece == "lower"):
                return (*result[:3], "  The maximum number of subdivisions has been achieved.\n")
            return result

        monkeypatch.setattr(scipy.integrate, "quad", quad)
        with pytest.raises(
            ToleranceNotReached, match=f"^{piece} piece: The maximum number of subdivisions"
        ):
            laplace_singular_quad(1.0, 0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            laplace_singular_quad(0.0, 0.5)
        with pytest.raises(DomainError):
            laplace_singular_quad(1.0, 1.0)
        with pytest.raises(DomainError):
            laplace_singular_quad(1.0, 0.5, tol=0.0)

    def test_infinite_tol_rejected(self):
        # an infinite tol would certify any error estimate, inf included
        with pytest.raises(DomainError):
            laplace_singular_quad(1.0, 0.5, tol=math.inf)

    def test_tol_underflowing_tail_cut_rejected(self):
        # 1e-322 * 1e-3 rounds to 0, so the tail cut -ln(tol * 1e-3) / c
        # has no value
        with pytest.raises(DomainError):
            laplace_singular_quad(1.0, 0.5, tol=1e-322)


class TestFracParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=1.0, lam=0.0, p=0.5),
            dict(sigma=0.0, lam=0.0, p=0.5),
            dict(sigma=0.5, lam=-0.1, p=0.5),
            dict(sigma=0.5, lam=0.0, p=1.0),
            dict(sigma=0.5, lam=0.0, p=0.0),
            dict(sigma=0.5, lam=0.0, p=0.5, t=float("nan")),
        ],
    )
    def test_rejected(self, kwargs):
        with pytest.raises(DomainError):
            FracParams(**kwargs)


class TestTemperedIntegral:
    def test_frozen_value(self):
        fp = FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)
        assert rel(inner_integral(fp), TI_FROZEN) <= 1e-8

    def test_t_zero_reduces_to_laplace(self):
        # with p = e^-1 and lam = 0, c = 1 and I(0) = Gamma(1-sigma)
        fp = FracParams(sigma=0.5, lam=0.0, p=math.exp(-1.0), t=0.0)
        assert rel(inner_integral(fp), GAMMA_HALF) <= 1e-9

    def test_exponential_shift_in_t(self):
        # I(t+1) / I(t) = exp(c), c = lam - ln p
        fp0 = FracParams(sigma=0.3, lam=0.5, p=0.4, t=-1.0)
        fp1 = FracParams(sigma=0.3, lam=0.5, p=0.4, t=0.0)
        c = 0.5 - math.log(0.4)
        ratio = inner_integral(fp1) / inner_integral(fp0)
        assert rel(ratio, math.exp(c)) <= 1e-12


class TestDerivativeClosure:
    def test_frozen_closed_form(self):
        assert rel(
            closed_form_derivative(FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)),
            CF_FROZEN,
        ) <= 1e-14
        assert rel(
            closed_form_derivative(FracParams(sigma=0.3, lam=0.0, p=0.5, t=-1.0)),
            CF_UNTEMPERED,
        ) <= 1e-14

    def test_untempered_matches_entropy_generator(self):
        # at t = -1, lam = 0 the closed form is p * (-ln p)**sigma, one
        # summand of the lam = 0 entropy
        for p in (0.1, 0.5, 0.9):
            for sigma in (0.2, 0.5, 0.8):
                cf = closed_form_derivative(FracParams(sigma=sigma, lam=0.0, p=p, t=-1.0))
                assert rel(cf, generator(p, EntropyParams(sigma, 0.0))) <= 1e-12

    @pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("sigma", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("lam", [0.0, 2.0])
    def test_numeric_route_agrees(self, p, sigma, lam):
        fp = FracParams(sigma=sigma, lam=lam, p=p, t=-1.0)
        num = tempered_derivative_numeric(fp)
        ref = closed_form_derivative(fp)
        assert abs(num - ref) <= max(1e-6 * abs(ref), 1e-9)

    def test_richardson_off_still_converges(self):
        fp = FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)
        num = tempered_derivative_numeric(fp, richardson=False)
        ref = closed_form_derivative(fp)
        assert abs(num - ref) <= max(1e-6 * abs(ref), 1e-9)

    def test_second_order_convergence(self):
        # plain central difference: error ~ h**2, slope of log-log fit ~ 2
        fp = FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)
        ref = closed_form_derivative(fp)
        hs = [1e-3, 5e-4, 2.5e-4]
        errs = [
            abs(tempered_derivative_numeric(fp, h=h, richardson=False) - ref)
            for h in hs
        ]
        slope = (math.log(errs[0]) - math.log(errs[-1])) / (
            math.log(hs[0]) - math.log(hs[-1])
        )
        assert 1.8 <= slope <= 2.2

    def test_bad_step(self):
        fp = FracParams(sigma=0.5, lam=1.0, p=0.5, t=-1.0)
        with pytest.raises(DomainError):
            tempered_derivative_numeric(fp, h=0.0)
        with pytest.raises(DomainError):
            tempered_derivative_numeric(fp, h=math.inf)

    @pytest.mark.parametrize("richardson", [True, False])
    def test_one_quadrature_per_derivative(self, monkeypatch, richardson):
        # I(t) = exp(t*c) * Q: the Laplace integral Q does not depend on t
        calls = []
        quad = fracderiv.laplace_singular_quad

        def counting(*args, **kwargs):
            calls.append(args)
            return quad(*args, **kwargs)

        monkeypatch.setattr(fracderiv, "laplace_singular_quad", counting)
        fp = FracParams(sigma=0.3, lam=0.5, p=0.2, t=-1.0)
        tempered_derivative_numeric(fp, richardson=richardson)
        assert len(calls) == 1

    def test_matches_tempered_integral_differences(self):
        # the reused Q gives bit for bit the values a fresh quadrature gives
        fp = FracParams(sigma=0.3, lam=0.5, p=0.2, t=-1.0)
        h = 1e-5

        def ival(t):
            return inner_integral(FracParams(sigma=fp.sigma, lam=fp.lam, p=fp.p, t=t))

        d = (ival(fp.t + h) - ival(fp.t - h)) / (2.0 * h)
        prefactor = math.exp(-fp.lam * fp.t) / gamma_fn(1.0 - fp.sigma)
        assert tempered_derivative_numeric(fp, h=h, richardson=False) == prefactor * d


SRC = Path(__file__).resolve().parents[1] / "src"


def run_fresh(script: str) -> str:
    """Run script in a fresh interpreter that imports tempent from src/."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), path]))}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


class TestScipyLoadedLazily:
    # a fresh interpreter: this test process may hold scipy already

    def test_non_quadrature_commands_never_import_scipy(self):
        out = run_fresh(
            """
            import contextlib, io, sys
            import tempent
            from tempent import cli

            lines = [
                ["entropy", "--sigma", "0.5", "--lambda", "0", "--dist", "0.5,0.5"],
                ["check-axioms", "--sigma", "0.5", "--lambda", "1", "--n", "2,5",
                 "--samples", "10000", "--seed", "0"],
                ["sweep", "--family", "A,B", "--sigma", "0.5", "--lambda", "1",
                 "--delta", "1e-3", "--n", "100,1000,1000000", "--control-renyi", "0.5"],
                ["search", "--sigma", "1", "--lambda", "0", "--delta", "0.1", "--n", "3",
                 "--samples", "10000", "--seed", "7"],
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes = [cli.run(argv) for argv in lines]
            print(codes, sorted(m for m in ("scipy", "scipy.integrate") if m in sys.modules))
            """
        )
        assert out == "[0, 0, 0, 0] []\n"

    def test_first_quadrature_imports_scipy(self):
        out = run_fresh(
            """
            import math, sys
            from tempent import DomainError, laplace_singular_quad

            try:
                laplace_singular_quad(1.0, 0.5, tol=math.inf)
            except DomainError:
                pass
            print("scipy.integrate" in sys.modules)
            laplace_singular_quad(1.0, 0.5)
            print("scipy.integrate" in sys.modules)
            """
        )
        assert out == "False\nTrue\n"
