import collections
import dataclasses
import hashlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tempent import (
    Axiom,
    AxiomReport,
    DimensionMismatch,
    DomainError,
    EntropyParams,
    entropy,
    make_dist,
    max_entropy,
    run_axiom_suite,
    sample_simplex,
)
import tempent.axioms as axioms
from tempent.axioms import (
    check_entropy_concavity,
    check_expansibility,
    check_generator_concavity,
    check_lambda_inequality,
    check_maximality,
    check_nonnegativity,
    check_power_subadditivity,
)

PARAM_GRID = [
    EntropyParams(0.25, 0.0),
    EntropyParams(0.5, 1.0),
    EntropyParams(0.75, 5.0),
    EntropyParams(1.0, 0.0),
]


def analytic_f2(x: float, params: EntropyParams) -> float:
    # f''(x) = (sigma/x) * (lam - ln x)**(sigma-2) * (sigma - 1 - (lam - ln x))
    s, lam = params.sigma, params.lam
    y = lam - math.log(x)
    return (s / x) * y ** (s - 2.0) * (s - 1.0 - y)


class TestSampling:
    def test_rows_are_valid_distributions(self):
        dists = sample_simplex(6, 50, seed=3)
        assert len(dists) == 50
        for p in dists:
            assert p.n == 6
            assert np.all(p.weights >= 0.0)
            assert abs(p.weights.sum() - 1.0) <= 1e-12

    def test_deterministic(self):
        a = sample_simplex(4, 10, seed=11)
        b = sample_simplex(4, 10, seed=11)
        for p, q in zip(a, b):
            assert np.array_equal(p.weights, q.weights)

    def test_flat_over_simplex(self):
        # Dirichlet(1,..,1): per-coordinate mean 1/3, variance 1/18
        dists = sample_simplex(3, 100_000, seed=42)
        w = np.stack([p.weights for p in dists])
        se = math.sqrt((1.0 / 18.0) / 100_000)
        assert np.all(np.abs(w.mean(axis=0) - 1.0 / 3.0) < 3.0 * se)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_simplex(0, 5, seed=0)

    @pytest.mark.parametrize("n,count", [(3, 1.5), (3, 5.0), (2.5, 5), (math.nan, 5)])
    def test_non_integer_size_rejected(self, n, count):
        with pytest.raises(DomainError, match="need integers n, count >= 1"):
            sample_simplex(n, count, seed=0)

    # no numpy axis is longer than sys.maxsize
    @pytest.mark.parametrize("n,count", [(3, sys.maxsize + 1), (sys.maxsize + 1, 5)])
    def test_size_beyond_maxsize_rejected(self, n, count):
        with pytest.raises(DomainError, match="<= sys.maxsize"):
            sample_simplex(n, count, seed=0)

    # each size fits sys.maxsize, but not the matrix's 8 * n * count bytes
    @pytest.mark.parametrize(
        "n,count", [(2**62, 5), (3, 2**62), (sys.maxsize // 8 + 1, 1)]
    )
    def test_matrix_beyond_numpy_limit_rejected(self, n, count):
        with pytest.raises(DomainError, match=r"needs count \* n <= sys.maxsize // 8"):
            sample_simplex(n, count, seed=0)


class TestMaximality:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_passes_on_samples(self, params):
        rep = check_maximality(5, params, samples=5000, seed=0)
        assert rep.axiom is Axiom.MAXIMALITY
        assert rep.passed
        assert rep.worst_violation <= 1e-9

    def test_uniform_attains_bound(self):
        params = EntropyParams(0.5, 1.0)
        margin = entropy(make_dist([0.2] * 5), params) - max_entropy(5, params)
        assert abs(margin) <= 1e-15

    def test_witness_reproduces_exactly(self):
        params = EntropyParams(0.5, 1.0)
        rep = check_maximality(4, params, samples=2000, seed=9)
        w = rep.witness
        again = entropy(w["p"], w["params"]) - max_entropy(4, w["params"])
        assert abs(again - rep.worst_violation) <= 1e-15


class TestNonnegativity:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_passes_on_samples(self, params):
        rep = check_nonnegativity(5, params, samples=5000, seed=1)
        assert rep.passed

    def test_witness_reproduces_exactly(self):
        rep = check_nonnegativity(3, EntropyParams(0.3, 2.0), samples=500, seed=2)
        again = -entropy(rep.witness["p"], rep.witness["params"])
        assert abs(again - rep.worst_violation) <= 1e-15


class TestExpansibility:
    @pytest.mark.parametrize("w", [[0.5, 0.5], [1.0, 0.0], [0.2, 0.3, 0.5]])
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_exact(self, w, params):
        rep = check_expansibility(make_dist(w), params)
        assert rep.worst_violation == 0.0
        assert rep.threshold == 0.0
        assert rep.passed


class TestGeneratorConcavity:
    @pytest.mark.parametrize("params", PARAM_GRID)
    def test_passes(self, params):
        rep = check_generator_concavity(params)
        assert rep.passed
        assert rep.worst_violation < 0.0  # strictly concave inside

    def test_finite_difference_matches_analytic(self):
        params = EntropyParams(0.5, 1.0)
        h = 1e-4

        def f(x):
            return x * ((params.lam - math.log(x)) ** params.sigma - params.lam**params.sigma)

        for x in (0.1, 0.3, 0.5, 0.7, 0.9):
            fd = (f(x - h) - 2.0 * f(x) + f(x + h)) / (h * h)
            assert math.isclose(fd, analytic_f2(x, params), rel_tol=1e-4)


class TestEntropyConcavity:
    def test_endpoints_exact(self):
        p = make_dist([0.7, 0.2, 0.1])
        q = make_dist([0.1, 0.1, 0.8])
        params = EntropyParams(0.5, 1.0)
        assert check_entropy_concavity(p, q, 0.0, params).worst_violation == 0.0
        assert check_entropy_concavity(p, q, 1.0, params).worst_violation == 0.0

    def test_mix_of_extremes(self):
        # even mix of the two certainty corners is the uniform pair
        p = make_dist([1.0, 0.0])
        q = make_dist([0.0, 1.0])
        params = EntropyParams(0.5, 0.0)
        rep = check_entropy_concavity(p, q, 0.5, params)
        assert rep.passed
        # margin = 0 + 0 - S(uniform), maximally concave here
        assert math.isclose(rep.worst_violation, -0.83255461115769776, rel_tol=1e-14)

    @given(
        t=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_pairs(self, t, seed):
        p, q = sample_simplex(5, 2, seed=seed)
        rep = check_entropy_concavity(p, q, t, EntropyParams(0.5, 1.0))
        assert rep.worst_violation <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            check_entropy_concavity(
                make_dist([0.5, 0.5]),
                make_dist([0.3, 0.3, 0.4]),
                0.5,
                EntropyParams(0.5),
            )

    def test_bad_t(self):
        p = make_dist([0.5, 0.5])
        with pytest.raises(DomainError):
            check_entropy_concavity(p, p, -0.1, EntropyParams(0.5))


class TestLambdaInequality:
    def test_lam_zero_is_exact_equality(self):
        rep = check_lambda_inequality(make_dist([0.2, 0.8]), 0.5, 0.0)
        assert rep.worst_violation == 0.0

    @given(seed=st.integers(0, 2**16), lam=st.floats(1e-6, 20.0))
    @settings(max_examples=100, deadline=None)
    def test_tempering_never_raises_entropy(self, seed, lam):
        (p,) = sample_simplex(6, 1, seed=seed)
        rep = check_lambda_inequality(p, 0.5, lam)
        assert rep.worst_violation <= 1e-12


class TestPowerSubadditivity:
    def test_zero_edge_is_equality(self):
        rep = check_power_subadditivity(0.0, 2.0, 0.5)
        assert rep.worst_violation == 0.0

    def test_interior_strict(self):
        rep = check_power_subadditivity(1.0, 1.0, 0.5)
        # 2**0.5 - 2 < 0
        assert rep.worst_violation < -0.5

    @given(
        x=st.floats(0.0, 100.0),
        y=st.floats(0.0, 100.0),
        alpha=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_property(self, x, y, alpha):
        assert check_power_subadditivity(x, y, alpha).worst_violation <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            check_power_subadditivity(-1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            check_power_subadditivity(1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "x,y", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)]
    )
    def test_non_finite_rejected(self, x, y):
        with pytest.raises(DomainError, match="finite"):
            check_power_subadditivity(x, y, 0.5)

# (axiom, samples_checked, worst_violation.hex(), threshold) per suite row and
# a sha256 of the witnesses of the three aggregated rows (expansibility,
# entropy concavity, lambda inequality), recorded from the per-check loops
# that reduced each aggregate with a strict ">" (first maximum wins)
SUITE_GOLDEN = [
    ((2, 0.25, 0.0, 100, 0), [
        ("nonnegativity", 100, "-0x1.215b9342e4fd4p-3", 1e-15),
        ("maximality", 100, "-0x1.210a5a0578000p-16", 1e-09),
        ("expansibility", 64, "0x0.0p+0", 0.0),
        ("generator_concavity", 199, "-0x1.2cb71f00e3e00p+0", 1e-06),
        ("entropy_concavity", 500, "-0x1.427e7fa288000p-16", 1e-10),
        ("lambda_inequality", 100, "0x0.0p+0", 1e-12),
        ("power_subadditivity", 8379, "0x0.0p+0", 1e-12),
    ], "579330f41ea0220f4fb9077fa73d750d796b5fb9ade93a46cc8ba2d5cc4ad193"),
    ((5, 0.5, 1.0, 300, 3), [
        ("nonnegativity", 300, "-0x1.b1eaf8fe5aca6p-3", 1e-15),
        ("maximality", 300, "-0x1.51fe4f1d42400p-8", 1e-09),
        ("expansibility", 64, "0x0.0p+0", 0.0),
        ("generator_concavity", 199, "-0x1.805375aa80f8fp-1", 1e-06),
        ("entropy_concavity", 1280, "-0x1.0ec1fc49b7800p-11", 1e-10),
        ("lambda_inequality", 300, "-0x1.77d5e828fa50ap-2", 1e-12),
        ("power_subadditivity", 8379, "0x0.0p+0", 1e-12),
    ], "99dbab7be87b55e22402b3a3724aa1518a61f7e8cfc2f1663f6c9d281eb15fd8"),
    ((6, 1.0, 2.0, 2000, 11), [
        ("nonnegativity", 2000, "-0x1.d23ca754bc9f8p-2", 1e-15),
        ("maximality", 2000, "-0x1.73cc8638e1700p-7", 1e-09),
        ("expansibility", 64, "0x0.0p+0", 0.0),
        ("generator_concavity", 199, "-0x1.014953a548983p+0", 1e-06),
        ("entropy_concavity", 1280, "-0x1.5c5c9b4410b00p-8", 1e-10),
        ("lambda_inequality", 512, "0x1.0000000000000p-51", 1e-12),
        ("power_subadditivity", 8379, "0x0.0p+0", 1e-12),
    ], "4168b6ea7995dab215ab52987456ec6602cb2ac5a1bc44a6cbf6075b27444311"),
    # n above numpy's 128-element pairwise-summation block
    ((200, 0.75, 0.5, 1000, 7), [
        ("nonnegativity", 1000, "-0x1.6e112548f726ap+1", 1e-15),
        ("maximality", 1000, "-0x1.42dc320c37e70p-3", 1e-09),
        ("expansibility", 64, "0x0.0p+0", 0.0),
        ("generator_concavity", 199, "-0x1.54e34da1e8d28p+0", 1e-06),
        ("entropy_concavity", 1280, "-0x1.d17cc14d96980p-6", 1e-10),
        ("lambda_inequality", 512, "-0x1.5e92b8b225e58p-2", 1e-12),
        ("power_subadditivity", 8379, "0x0.0p+0", 1e-12),
    ], "9c76379000381bcf561db7a42c4046326f368d25ca1df34c9d2efa6c671134e6"),
]


class TestSuite:
    @pytest.mark.parametrize("case,rows,digest", SUITE_GOLDEN)
    def test_golden_rows(self, case, rows, digest):
        n, sigma, lam, samples, seed = case
        params = EntropyParams(sigma, lam)
        reps = run_axiom_suite(n, params, samples=samples, seed=seed)
        got = [
            (r.axiom.value, r.samples_checked, r.worst_violation.hex(), r.threshold)
            for r in reps
        ]
        assert got == rows
        exp, cc, li = reps[2], reps[4], reps[5]
        h = hashlib.sha256()
        for w in exp.witness["p"], cc.witness["p"], cc.witness["q"], li.witness["p"]:
            h.update(w.weights.astype("<f8").tobytes())
        h.update(cc.witness["t"].hex().encode())
        assert h.hexdigest() == digest
        # each aggregated row replays exactly through its single check
        replays = [
            check_expansibility(exp.witness["p"], params),
            check_entropy_concavity(
                cc.witness["p"], cc.witness["q"], cc.witness["t"], params
            ),
            check_lambda_inequality(
                li.witness["p"], li.witness["sigma"], li.witness["lam"]
            ),
        ]
        assert [r.worst_violation for r in replays] == [
            r.worst_violation for r in (exp, cc, li)
        ]

    @pytest.mark.parametrize(
        "n,params,seed",
        [(3, EntropyParams(0.25, 0.0), 1), (7, EntropyParams(0.5, 1.0), 2),
         (130, EntropyParams(0.9, 3.0), 3)],
    )
    def test_batched_rows_equal_the_scalar_loop(self, n, params, seed):
        # reference: every pair and draw through its single check, first
        # maximum kept, in the suite's pair-major, t-minor order
        def loop_worst(reports):
            worst = max(reports, key=lambda r: r.worst_violation)
            return worst, len(reports)

        ps = sample_simplex(n, 256, seed + 3)
        qs = sample_simplex(n, 256, seed + 4)
        cc = loop_worst([
            check_entropy_concavity(p, q, t, params)
            for p, q in zip(ps, qs)
            for t in (0.1, 0.25, 0.5, 0.75, 0.9)
        ])
        li = loop_worst([
            check_lambda_inequality(p, params.sigma, params.lam)
            for p in sample_simplex(n, 512, seed + 5)
        ])
        reps = run_axiom_suite(n, params, samples=1000, seed=seed)
        for got, (want, count) in zip((reps[4], reps[5]), (cc, li)):
            assert got.samples_checked == count
            assert got.worst_violation.hex() == want.worst_violation.hex()
            for key, value in want.witness.items():
                if hasattr(value, "weights"):
                    assert np.array_equal(got.witness[key].weights, value.weights)
                else:
                    assert got.witness[key] == value

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            run_axiom_suite(3, EntropyParams(0.5), samples=10, seed=seed)

    @pytest.mark.parametrize("n,samples", [(2.5, 10), (3.0, 10), (3, 1.5), (3, 10.0)])
    def test_non_integer_size_rejected(self, n, samples):
        with pytest.raises(DomainError, match="need integers n, count >= 1"):
            run_axiom_suite(n, EntropyParams(0.5), samples=samples)

    def test_scalar_calls_do_not_grow_with_samples(self, monkeypatch):
        # pairwise checks are scored in batch; only each witness goes
        # through the scalar entropy / make_dist path
        counts = collections.Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        for name in ("entropy", "make_dist"):
            monkeypatch.setattr(axioms, name, counted(name, getattr(axioms, name)))
        seen = []
        for samples in (300, 10_000):
            counts.clear()
            run_axiom_suite(5, EntropyParams(0.5, 1.0), samples=samples, seed=0)
            seen.append(dict(counts))
        assert seen[0] == seen[1] == {"entropy": 135, "make_dist": 134}

    @pytest.mark.parametrize(
        "n,samples",
        [
            (3, sys.maxsize + 1),
            (sys.maxsize + 1, 5),
            pytest.param(10**400, 5, id="10**400"),
        ],
    )
    def test_size_beyond_maxsize_rejected(self, n, samples):
        with pytest.raises(DomainError, match="<= sys.maxsize"):
            run_axiom_suite(n, EntropyParams(0.5), samples=samples)

    @pytest.mark.parametrize("n,samples", [(2**62, 5), (3, 2**62)])
    def test_matrix_beyond_numpy_limit_rejected(self, n, samples):
        with pytest.raises(DomainError, match="<= sys.maxsize // 8"):
            run_axiom_suite(n, EntropyParams(0.5), samples=samples)

    def test_runs_all_axioms_in_order(self):
        reps = run_axiom_suite(4, EntropyParams(0.5, 1.0), samples=500, seed=0)
        assert [r.axiom for r in reps] == list(Axiom)
        assert all(r.passed for r in reps)

    def test_deterministic(self):
        a = run_axiom_suite(3, EntropyParams(0.75, 0.5), samples=300, seed=5)
        b = run_axiom_suite(3, EntropyParams(0.75, 0.5), samples=300, seed=5)
        assert [r.worst_violation for r in a] == [r.worst_violation for r in b]

    def test_small_l1_moves_entropy_little(self):
        # continuity smoke: ||p - q||_1 <= 1e-8 keeps |dS| <= 1e-3
        params = EntropyParams(0.5, 1.0)
        for seed in range(20):
            (p,) = sample_simplex(5, 1, seed=seed)
            w = p.weights.copy()
            i, j = np.argmax(w), np.argmin(w)
            w[i] -= 5e-9
            w[j] += 5e-9
            q = make_dist(w)
            assert abs(entropy(p, params) - entropy(q, params)) <= 1e-3


class TestThresholds:
    # each axiom's pass threshold is written once, in axioms._THRESHOLDS
    def test_one_threshold_per_axiom(self):
        assert list(axioms._THRESHOLDS) == list(Axiom)
        for axiom, threshold in axioms._THRESHOLDS.items():
            assert AxiomReport(axiom, 1, threshold).passed
            assert not AxiomReport(axiom, 1, math.nextafter(threshold, 1.0)).passed

    def test_report_carries_no_threshold_of_its_own(self):
        assert "threshold" not in {f.name for f in dataclasses.fields(AxiomReport)}
        rep = AxiomReport(Axiom.MAXIMALITY, 1, 0.0)
        assert rep.threshold == axioms._THRESHOLDS[Axiom.MAXIMALITY]
