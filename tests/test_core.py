import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempent import (
    DomainError,
    EntropyParams,
    NegativeWeight,
    SumNotOne,
    TooFewOutcomes,
    entropy,
    generator,
    make_dist,
    max_entropy,
    shannon_entropy,
    ubriaco_entropy,
)
import tempent.core as core

# frozen reference values, mpmath at 50 significant digits
GEN_HALF = 0.41627730557884888           # f(0.5), sigma=0.5, lam=0
ENT_HALF_HALF = 0.83255461115769776      # S(0.5, 0.5), sigma=0.5, lam=0
ENT_HALF_HALF_L1 = 0.30120989104753785   # S(0.5, 0.5), sigma=0.5, lam=1
ENT_235 = 0.54482495852924976            # S(0.2, 0.3, 0.5), sigma=0.7, lam=2
UBRIACO_QTR = 0.69662252160585741        # (0.25, 0.75), alpha=0.5
SHANNON_235 = 1.0296530140645735         # (0.2, 0.3, 0.5)
MAXENT_10 = 0.8173015965970111           # n=10, sigma=0.5, lam=1
G_ONE = 0.41421356237309505              # g(1), sigma=0.5, lam=1  (= sqrt(2)-1)
G_BRANCH = 4.9999875000624996e-5         # g(0.001), sigma=0.5, lam=100
G_BELOW = 2.2433655503705353             # g(49.9),  sigma=0.5, lam=100
G_ABOVE = 2.2515305166334218             # g(50.1),  sigma=0.5, lam=100
G_TINY = 1.096728343989986e-10           # g(1e-9),  sigma=0.25, lam=3
GEN_HALF_S1 = 0.34657359027997265        # f(0.5), sigma=1, lam=0  (= ln(2)/2)


def close(a, b, rel=5e-15):
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


@st.composite
def simplex_weights(draw, min_n=2, max_n=12, with_zero=False):
    n = draw(st.integers(min_n, max_n))
    raw = draw(
        st.lists(
            st.floats(1e-6, 1.0, allow_nan=False, allow_infinity=False),
            min_size=n,
            max_size=n,
        )
    )
    w = np.asarray(raw, dtype=float)
    if with_zero and n > 2 and draw(st.booleans()):
        w[draw(st.integers(0, n - 1))] = 0.0
    return w / w.sum()


class TestMakeDist:
    def test_valid(self):
        p = make_dist([0.2, 0.3, 0.5])
        assert p.n == 3
        assert p.weights.tolist() == [0.2, 0.3, 0.5]

    def test_weights_kept_verbatim(self):
        # no silent renormalization: stored bits equal input bits
        w = np.array([0.1, 0.9])
        p = make_dist(w)
        assert np.array_equal(p.weights, w)

    def test_negative_rejected(self):
        with pytest.raises(NegativeWeight):
            make_dist([1.1, -0.1])

    def test_bad_sum_rejected(self):
        with pytest.raises(SumNotOne):
            make_dist([0.6, 0.6])
        with pytest.raises(SumNotOne):
            make_dist([0.5, 0.5 + 3e-12])

    def test_sum_tolerance_accepts_near_one(self):
        make_dist([0.5, 0.5 + 4e-13])

    def test_empty_rejected(self):
        with pytest.raises(TooFewOutcomes):
            make_dist([])

    def test_single_outcome_allowed(self):
        assert make_dist([1.0]).n == 1

    def test_weights_read_only(self):
        p = make_dist([0.5, 0.5])
        with pytest.raises(ValueError):
            p.weights[0] = 0.7

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            make_dist([float("nan"), 1.0])

    def test_weight_above_one_rejected(self):
        # the sum is within SUM_TOL, but -ln w < 0 would make S NaN
        with pytest.raises(DomainError):
            make_dist([np.nextafter(1, 2), 0, 0])


class TestCheckFits:
    """core._check_fits: a float64 array may hold at most sys.maxsize bytes."""

    def test_limit_is_maxsize_bytes(self):
        core._check_fits("x", n=sys.maxsize // 8)
        core._check_fits("x", count=3, n=sys.maxsize // 24)
        with pytest.raises(DomainError, match=r"^x needs n <= sys.maxsize // 8, got n="):
            core._check_fits("x", n=sys.maxsize // 8 + 1)
        with pytest.raises(DomainError, match=r"^x needs count \* n <= sys.maxsize // 8"):
            core._check_fits("x", count=3, n=sys.maxsize // 24 + 1)

    def test_numpy_integers_do_not_wrap(self):
        # 8 * 2**62 wraps to 0 in int64
        with pytest.raises(DomainError, match="sys.maxsize // 8"):
            core._check_fits("x", n=np.int64(2**62))
        with pytest.raises(DomainError, match="sys.maxsize // 8"):
            core._check_fits("x", count=np.int64(4), n=np.int64(2**61))


class TestCheckRows:
    """core._check_rows: ProbDist's checks along the last axis of a matrix."""

    @pytest.mark.parametrize(
        "row,exc",
        [
            ([0.6, 0.5, -0.1], NegativeWeight),
            ([0.6, 0.6, 0.0], SumNotOne),
            ([float("nan"), 0.5, 0.5], DomainError),
            ([np.nextafter(1, 2), 0.0, 0.0], DomainError),
        ],
    )
    def test_one_bad_row(self, row, exc):
        w = np.full((4, 3), 1.0 / 3.0)
        w[2] = row
        with pytest.raises(exc) as got:
            core._check_rows(w)
        # the same class and message make_dist gives for that row alone
        with pytest.raises(exc) as want:
            make_dist(row)
        assert str(got.value) == str(want.value)

    def test_valid_rows_pass(self):
        core._check_rows(np.full((4, 3), 1.0 / 3.0))
        core._check_rows(np.array([0.5, 0.5 + 4e-13]))

    @pytest.mark.parametrize(
        "row,exc",
        [
            ([float("nan"), -1.0, 2.0], DomainError),
            ([-0.5, 1.5, 0.0], NegativeWeight),
            ([float("inf"), -float("inf"), 0.0], DomainError),
        ],
    )
    def test_mixed_faults_keep_the_check_order(self, row, exc):
        w = np.full((3, 3), 1.0 / 3.0)
        w[1] = row
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(exc) as got:
                core._check_rows(w)
            with pytest.raises(exc) as want:
                make_dist(row)
        assert str(got.value) == str(want.value)

    def test_negative_zero_accepted(self):
        core._check_rows(np.array([[-0.0, 1.0], [0.5, 0.5]]))
        assert make_dist([-0.0, 1.0]).n == 2

    def test_one_bad_row_of_each_kind(self):
        # rows in reverse order of the checks: the finite check still wins,
        # and each fault is named once every earlier kind is gone
        rows = [
            [0.6, 0.6, 0.0],
            [np.nextafter(1, 2), 0.0, 0.0],
            [0.6, 0.5, -0.1],
            [float("nan"), 0.5, 0.5],
        ]
        excs = [SumNotOne, DomainError, NegativeWeight, DomainError]
        while rows:
            w = np.vstack([np.full(3, 1.0 / 3.0)] + rows)
            with pytest.raises(excs[-1]) as got:
                core._check_rows(w)
            with pytest.raises(excs[-1]) as want:
                make_dist(rows[-1])
            assert str(got.value) == str(want.value)
            rows.pop()
            excs.pop()


class TestEntropyParams:
    @pytest.mark.parametrize("sigma", [0.0, -0.5, 1.0 + 1e-9, float("nan")])
    def test_bad_sigma(self, sigma):
        with pytest.raises(DomainError):
            EntropyParams(sigma)

    @pytest.mark.parametrize("lam", [-1e-12, -3.0, float("inf")])
    def test_bad_lam(self, lam):
        with pytest.raises(DomainError):
            EntropyParams(0.5, lam)

    def test_boundary_values_ok(self):
        EntropyParams(1.0, 0.0)
        EntropyParams(1e-12, 1e6)


class TestGenerator:
    def test_endpoints_exactly_zero(self):
        for params in (EntropyParams(0.5), EntropyParams(0.3, 2.0), EntropyParams(1.0)):
            assert generator(0.0, params) == 0.0
            assert generator(1.0, params) == 0.0

    def test_frozen_values(self):
        assert close(generator(0.5, EntropyParams(0.5)), GEN_HALF)
        assert close(generator(0.5, EntropyParams(1.0)), GEN_HALF_S1)

    def test_domain(self):
        with pytest.raises(DomainError):
            generator(-0.1, EntropyParams(0.5))
        with pytest.raises(DomainError):
            generator(1.5, EntropyParams(0.5))

    def test_positive_on_interior(self):
        params = EntropyParams(0.25, 3.0)
        for x in np.linspace(0.01, 0.99, 23):
            assert generator(float(x), params) > 0.0


class TestEntropy:
    def test_frozen_values(self):
        assert close(entropy(make_dist([0.5, 0.5]), EntropyParams(0.5)), ENT_HALF_HALF)
        assert close(
            entropy(make_dist([0.5, 0.5]), EntropyParams(0.5, 1.0)), ENT_HALF_HALF_L1
        )
        assert close(
            entropy(make_dist([0.2, 0.3, 0.5]), EntropyParams(0.7, 2.0)), ENT_235
        )

    def test_certainty_is_zero(self):
        for params in (EntropyParams(0.5), EntropyParams(0.4, 3.0)):
            assert entropy(make_dist([1.0, 0.0, 0.0]), params) == 0.0

    def test_zero_weights_dropped(self):
        params = EntropyParams(0.6, 0.5)
        a = entropy(make_dist([0.5, 0.5, 0.0]), params)
        b = entropy(make_dist([0.5, 0.5]), params)
        assert a == b

    @given(w=simplex_weights(with_zero=True))
    @settings(max_examples=150, deadline=None)
    def test_nonnegative(self, w):
        val = entropy(make_dist(w), EntropyParams(0.5, 1.0))
        assert val >= -1e-15

    @given(w=simplex_weights(), lam=st.sampled_from([0.0, 0.5, 1.0, 7.3, 10.0]))
    @settings(max_examples=150, deadline=None)
    def test_sigma_one_collapses_to_shannon(self, w, lam):
        p = make_dist(w)
        sh = shannon_entropy(p)
        assert abs(entropy(p, EntropyParams(1.0, lam)) - sh) <= 1e-12 * max(1.0, sh)

    @given(
        w=simplex_weights(),
        sigma=st.floats(0.05, 1.0),
        lams=st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)),
    )
    @settings(max_examples=150, deadline=None)
    def test_monotone_nonincreasing_in_lam(self, w, sigma, lams):
        p = make_dist(w)
        lo, hi = sorted(lams)
        assert entropy(p, EntropyParams(sigma, hi)) <= entropy(
            p, EntropyParams(sigma, lo)
        ) + 1e-12


class TestUbriaco:
    def test_frozen_value(self):
        assert close(ubriaco_entropy(make_dist([0.25, 0.75]), 0.5), UBRIACO_QTR)

    def test_alias_is_bitwise(self):
        # the lam=0 entropy path and the direct formula share every flop
        for w in ([0.25, 0.75], [0.2, 0.3, 0.5], [0.5, 0.5, 0.0], [1.0, 0.0]):
            for alpha in (0.3, 0.5, 0.99, 1.0):
                p = make_dist(w)
                assert ubriaco_entropy(p, alpha) == entropy(p, EntropyParams(alpha))

    @given(w=simplex_weights(with_zero=True), alpha=st.floats(0.01, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_alias_property(self, w, alpha):
        p = make_dist(w)
        assert ubriaco_entropy(p, alpha) == entropy(p, EntropyParams(alpha))

    def test_alpha_one_is_shannon(self):
        p = make_dist([0.2, 0.3, 0.5])
        assert abs(ubriaco_entropy(p, 1.0) - shannon_entropy(p)) <= 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            ubriaco_entropy(make_dist([0.5, 0.5]), 0.0)
        with pytest.raises(DomainError):
            ubriaco_entropy(make_dist([0.5, 0.5]), 1.2)


class TestShannon:
    def test_frozen_value(self):
        assert close(shannon_entropy(make_dist([0.2, 0.3, 0.5])), SHANNON_235)

    def test_uniform_is_log_n(self):
        assert close(shannon_entropy(make_dist([0.25] * 4)), math.log(4))

    def test_certainty_zero(self):
        assert shannon_entropy(make_dist([0.0, 1.0, 0.0])) == 0.0


class TestMaxEntropy:
    def test_frozen_value(self):
        assert close(max_entropy(10, EntropyParams(0.5, 1.0)), MAXENT_10)

    def test_shannon_case(self):
        assert close(max_entropy(2, EntropyParams(1.0)), math.log(2))

    def test_matches_uniform_entropy(self):
        for n in (2, 5, 17):
            for params in (EntropyParams(0.5), EntropyParams(0.3, 2.0)):
                direct = entropy(make_dist([1.0 / n] * n), params)
                assert close(max_entropy(n, params), direct, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            max_entropy(1, EntropyParams(0.5))

    @pytest.mark.parametrize("n", [math.nan, math.inf, 2.5, 1e3 + 0.5])
    def test_non_integral_n_rejected(self, n):
        # math.log accepts each of these, but none is an outcome count
        with pytest.raises(DomainError):
            max_entropy(n, EntropyParams(0.5, 1.0))

    def test_integral_float_and_huge_int_kept(self):
        params = EntropyParams(0.5, 1.0)
        assert max_entropy(1e3, params) == max_entropy(1000, params)
        # math.log takes a Python int beyond the float range exactly
        big = 10**400
        want = float(core._power_gap(math.log(big), 0.5, 1.0))
        assert max_entropy(big, params) == want


def g(x, params):
    """g(x) = (lam + x)**sigma - lam**sigma, the power gap as a float."""
    return float(core._power_gap(x, params.sigma, params.lam))


class TestGFunc:
    def test_zero_exact(self):
        assert g(0.0, EntropyParams(0.5, 2.0)) == 0.0
        assert g(0.0, EntropyParams(0.5, 0.0)) == 0.0

    def test_frozen_value(self):
        assert close(g(1.0, EntropyParams(0.5, 1.0)), G_ONE)

    def test_sigma_one_is_identity(self):
        for lam in (0.0, 5.0):
            assert close(g(3.0, EntropyParams(1.0, lam)), 3.0)

    def test_cancellation_branch(self):
        # y << lam: naive (lam+y)**s - lam**s loses ~half its digits here
        assert close(g(0.001, EntropyParams(0.5, 100.0)), G_BRANCH, rel=1e-13)
        assert close(g(1e-9, EntropyParams(0.25, 3.0)), G_TINY, rel=1e-13)

    def test_branch_seam_continuous(self):
        # straddle the y = lam/2 switch point
        assert close(g(49.9, EntropyParams(0.5, 100.0)), G_BELOW, rel=1e-13)
        assert close(g(50.1, EntropyParams(0.5, 100.0)), G_ABOVE, rel=1e-13)

    def test_monotone_increasing(self):
        params = EntropyParams(0.4, 1.5)
        xs = np.linspace(0.0, 20.0, 41)
        vals = [g(float(x), params) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))



def two_branch_gap(y, sigma, lam):
    """Reference power gap: both formulas on every element, np.where picks."""
    y = np.asarray(y, dtype=float)
    if lam == 0.0:
        return y**sigma
    with np.errstate(over="ignore"):
        direct = (lam + y) ** sigma - lam**sigma
        safe = lam**sigma * np.expm1(sigma * np.log1p(y / lam))
    return np.where(y < 0.5 * lam, safe, direct)


class TestPowerGap:
    @pytest.mark.parametrize("lam", [1e-300, 1.0, 100.0, 1e300])
    @pytest.mark.parametrize("sigma", [0.05, 0.5, 1.0])
    def test_bits_match_two_branch_reference(self, sigma, lam):
        rng = np.random.default_rng(8)
        seam = [0.0, 0.5 * lam, np.nextafter(0.5 * lam, 0.0)]
        near = lam * rng.uniform(0.0, 0.49, 300)
        far = np.concatenate([lam * rng.uniform(0.5, 3.0, 300), rng.exponential(5.0, 300)])
        far = far[far >= 0.5 * lam]
        mixed = rng.permutation(np.concatenate([near, far, seam]))
        assert (near < 0.5 * lam).all() and far.size and (far >= 0.5 * lam).all()
        for y in (mixed, near, far, np.empty(0)):
            got = core._power_gap(y, sigma, lam)
            want = two_branch_gap(y, sigma, lam)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        for v in (*seam, *near[:20], *far[::10]):
            want = float(two_branch_gap(v, sigma, lam)).hex()
            assert float(core._power_gap(np.array(v), sigma, lam)).hex() == want
            assert float(core._power_gap(float(v), sigma, lam)).hex() == want

    @pytest.mark.parametrize("sigma", [0.01, 0.5, 1.0])
    def test_largest_lam_finite_and_warning_free(self, sigma):
        # y = -ln p <= 745 and ln n stay far below lam/2 here, so every
        # caller takes the safe branch and lam + y is never formed
        lam = sys.float_info.max
        params = EntropyParams(sigma, lam)
        # underflow stays ignored, numpy's default: y / lam is subnormal here
        raising = np.errstate(over="raise", invalid="raise", divide="raise")
        with warnings.catch_warnings(), raising:
            warnings.simplefilter("error")
            values = [
                *core._power_gap(np.array([0.0, 1.0, 745.0, 1e6]), sigma, lam),
                generator(5e-324, params),
                generator(0.5, params),
                entropy(make_dist([5e-324, 0.25, 0.75, 0.0]), params),
                max_entropy(2, params),
                max_entropy(10**400, params),
            ]
        assert all(math.isfinite(v) and v >= 0.0 for v in values)

    @pytest.mark.parametrize("zeros", [0, 37])
    def test_entropy_alias_bitwise_above_pairwise_block(self, zeros):
        # n = 1e4 is past numpy's 128-element pairwise-summation block
        rng = np.random.default_rng(5)
        w = rng.dirichlet(np.full(10_000, 0.5))
        w = np.insert(w, rng.integers(0, w.size, zeros), 0.0)
        p = make_dist(w)
        for alpha in (0.3, 0.5, 1.0):
            assert ubriaco_entropy(p, alpha) == entropy(p, EntropyParams(alpha))

    def test_safe_branch_sees_only_near_elements(self, monkeypatch):
        seen = []
        log1p = np.log1p

        def counting_log1p(x, *args, **kwargs):
            seen.append(np.size(x))
            return log1p(x, *args, **kwargs)

        monkeypatch.setattr(np, "log1p", counting_log1p)
        params = EntropyParams(0.5, 1.0)
        entropy(make_dist(np.full(10_000, 1e-4)), params)
        assert sum(seen) == 0
        # 0.9 > e**-0.5 is the one weight with -ln p < lam/2
        w = np.full(10_000, 0.1 / 9_999)
        w[0] = 0.9
        entropy(make_dist(w), params)
        assert sum(seen) == 1


def per_call_entropy(p, params):
    # entropy's body when it took -ln p on every call: the bit reference
    w = p.weights
    if not w.all():
        w = w[w > 0.0]
    y = np.log(w)
    np.negative(y, out=y)
    gap = core._power_gap(y, params.sigma, params.lam)
    gap *= w
    return float(np.sum(gap))


class TestEntropyCache:
    """-ln p is taken once per ProbDist and reused at every (sigma, lam)."""

    PARAMS = [
        EntropyParams(sigma, lam)
        for sigma in (0.05, 0.25, 0.5, 1.0)
        for lam in (0.0, 1e-300, 1.0, 1e300)
    ]

    @pytest.mark.parametrize("n", [1, 3, 129, 10_000])
    @pytest.mark.parametrize("zeros", [0, 3])
    def test_bits_match_per_call_reference(self, n, zeros):
        rng = np.random.default_rng(n + zeros)
        w = rng.standard_exponential(n)
        w /= w.sum()
        w = np.insert(w, rng.integers(0, n + 1, zeros), 0.0)
        p = make_dist(w)
        for _ in range(3):
            for k in rng.permutation(len(self.PARAMS)):
                params = self.PARAMS[k]
                assert entropy(p, params).hex() == per_call_entropy(p, params).hex()

    def test_one_log_per_distribution(self, monkeypatch):
        calls = []
        log = np.log

        def counting_log(x, *args, **kwargs):
            calls.append(np.size(x))
            return log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting_log)
        w = np.full(1_000, 1.0 / 999)
        w[17] = 0.0
        p = make_dist(w)
        for sigma in (0.25, 0.5, 1.0):
            for lam in (0.0, 1.0):
                entropy(p, EntropyParams(sigma, lam))
        assert calls == [999]

    @pytest.mark.parametrize("w", [[0.25, 0.75], [0.5, 0.0, 0.25, 0.25]])
    def test_cache_is_read_only(self, w):
        p = make_dist(w)
        before = p.weights.tobytes()
        for params in self.PARAMS:
            entropy(p, params)
        cached_w, y = p._neg_log
        for a in (cached_w, y):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
        assert p.weights.tobytes() == before
        assert not p.weights.flags.writeable

    def test_reference_paths_do_not_fill_the_cache(self):
        p = make_dist([0.2, 0.3, 0.5])
        ubriaco_entropy(p, 0.5)
        shannon_entropy(p)
        assert "_neg_log" not in vars(p)
        entropy(p, EntropyParams(0.5))
        assert "_neg_log" in vars(p)


PUBLIC_NAMES = {
    # core
    "DimensionMismatch", "DomainError", "EntropyParams", "NegativeWeight",
    "ProbDist", "SumNotOne", "TooFewOutcomes", "entropy", "generator",
    "make_dist", "max_entropy", "shannon_entropy", "ubriaco_entropy",
    # axioms
    "Axiom", "AxiomReport", "run_axiom_suite", "sample_simplex",
    # lesche
    "Family", "PerturbPair", "StabilityRecord", "family_a_pair",
    "family_b_pair", "random_pair_search", "renyi_entropy", "stability_ratio",
    "sweep",
    # fracderiv
    "FracParams", "QuadResult", "ToleranceNotReached", "closed_form_derivative",
    "gamma_fn", "laplace_singular_quad", "tempered_derivative_numeric",
}


def test_public_surface():
    import tempent

    assert len(PUBLIC_NAMES) == 33
    assert set(tempent.__all__) == PUBLIC_NAMES | {"__version__"}
    assert len(tempent.__all__) == len(set(tempent.__all__))
    for name in tempent.__all__:
        assert getattr(tempent, name) is not None
    gone = {
        core: ("g_func", "generator_derivative", "UNBOUNDED", "_Unbounded"),
        tempent.fracderiv: ("tempered_integral",),
    }
    for module, names in gone.items():
        for name in names:
            assert not hasattr(tempent, name) and not hasattr(module, name)
