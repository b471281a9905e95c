import hashlib
import math
import sys
import time

import numpy as np
import pytest

from tempent import (
    DimensionMismatch,
    DomainError,
    EntropyParams,
    Family,
    PerturbPair,
    entropy,
    family_a_pair,
    family_b_pair,
    make_dist,
    max_entropy,
    random_pair_search,
    renyi_entropy,
    stability_ratio,
    sweep,
)
import tempent.lesche
from tempent.core import SUM_TOL
from tempent.lesche import (
    L1_TOL,
    _extremes,
    _family_entropies,
    _family_renyi,
)

# frozen reference values, mpmath at 50 significant digits
RATIO_A_N2 = 0.28639695711595613     # family A, n=2, delta=0.1, sigma=1, lam=0
S_A_N2_PRIME = 0.19851524334587256   # S(0.95, 0.05), sigma=1, lam=0
RATIO_B_N3 = 0.11775200773763952     # family B, n=3, delta=0.2, sigma=0.5, lam=0
S_B_N3 = 0.83255461115769776
S_B_N3_PRIME = 0.95597603352178604
RATIO_A_1E6 = 0.0066361860967682841  # family A, n=1e6, delta=1e-3, sigma=0.5, lam=0
RENYI_A_1E6 = 0.45616020667968221    # Renyi q=0.5 control, same protocol

DECADES = [100, 1000, 10_000, 100_000, 1_000_000]


def rel(a, b):
    return abs(a - b) / abs(b)


class TestFamilyA:
    def test_exact_weights_n2(self):
        pair = family_a_pair(2, 0.1)
        assert pair.p.weights.tolist() == [1.0, 0.0]
        assert pair.p_prime.weights.tolist() == [0.95, 0.05]

    def test_exact_weights_n3(self):
        pair = family_a_pair(3, 0.2)
        assert pair.p.weights.tolist() == [1.0, 0.0, 0.0]
        assert pair.p_prime.weights.tolist() == [0.9, 0.05, 0.05]

    def test_l1_is_delta(self):
        for n, d in ((2, 0.1), (7, 1e-3), (1000, 0.37), (5, 1.0)):
            pair = family_a_pair(n, d)
            assert abs(pair.l1_distance() - d) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            family_a_pair(1, 0.1)
        with pytest.raises(DomainError):
            family_a_pair(5, 0.0)
        with pytest.raises(DomainError):
            family_a_pair(5, 1.5)

    @pytest.mark.parametrize("n", [2.5, 3.0, math.nan])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(DomainError, match="needs integer n >= 2"):
            family_a_pair(n, 0.1)


class TestFamilyB:
    def test_exact_weights_n3(self):
        pair = family_b_pair(3, 0.2)
        assert pair.p.weights.tolist() == [0.0, 0.5, 0.5]
        assert pair.p_prime.weights.tolist() == [0.1, 0.45, 0.45]

    def test_l1_is_delta(self):
        for n, d in ((3, 0.2), (11, 1e-3), (4096, 0.5)):
            pair = family_b_pair(n, d)
            assert abs(pair.l1_distance() - d) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            family_b_pair(2, 0.1)
        with pytest.raises(DomainError):
            family_b_pair(5, -0.1)

    @pytest.mark.parametrize("n", [3.5, 4.0, math.nan])
    def test_non_integer_n_rejected(self, n):
        with pytest.raises(DomainError, match="needs integer n >= 3"):
            family_b_pair(n, 0.1)

    # an explicit vector needs an n numpy can index; 10**400 overflowed a float
    @pytest.mark.parametrize("ctor", [family_a_pair, family_b_pair])
    @pytest.mark.parametrize(
        "n", [sys.maxsize + 1, pytest.param(10**400, id="10**400")]
    )
    def test_n_beyond_maxsize_rejected(self, ctor, n):
        with pytest.raises(DomainError, match="needs n <= sys.maxsize"):
            ctor(n, 0.1)

    @pytest.mark.parametrize("ctor", [family_a_pair, family_b_pair])
    def test_vector_beyond_numpy_limit_rejected(self, ctor):
        with pytest.raises(DomainError, match=r"vector needs n <= sys.maxsize // 8"):
            ctor(2**60, 0.1)


class TestPerturbPair:
    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PerturbPair(
                make_dist([0.5, 0.5]),
                make_dist([0.3, 0.3, 0.4]),
                0.1,
                Family.RANDOM_SEARCH,
            )

    def test_budget_certified(self):
        # an L1 distance of 2 cannot hide under a declared budget of 0.5
        with pytest.raises(DomainError):
            PerturbPair(
                make_dist([1.0, 0.0]),
                make_dist([0.0, 1.0]),
                0.5,
                Family.RANDOM_SEARCH,
            )

    def test_structured_family_must_match_exactly(self):
        # search pairs may sit below budget, structured families may not
        PerturbPair(make_dist([0.5, 0.5]), make_dist([0.5, 0.5]), 0.5, Family.RANDOM_SEARCH)
        with pytest.raises(DomainError):
            PerturbPair(make_dist([0.5, 0.5]), make_dist([0.5, 0.5]), 0.5, Family.CERTAINTY_A)

    @pytest.mark.parametrize("delta", [-0.1, 2.5, math.nan])
    def test_delta_outside_range_rejected(self, delta):
        p = make_dist([0.5, 0.5])
        with pytest.raises(DomainError, match=r"delta must lie in \[0, 2\]"):
            PerturbPair(p, p, delta, Family.RANDOM_SEARCH)

    def test_delta_zero_identical_pair(self):
        p = make_dist([0.2, 0.8])
        pair = PerturbPair(p, p, 0.0, Family.RANDOM_SEARCH)
        assert pair.l1_distance() == 0.0


class TestStabilityRatio:
    def test_frozen_family_a(self):
        rec = stability_ratio(family_a_pair(2, 0.1), EntropyParams(1.0, 0.0))
        assert rec.s_p == 0.0
        assert rel(rec.s_p_prime, S_A_N2_PRIME) <= 1e-12
        assert rel(rec.ratio, RATIO_A_N2) <= 1e-12
        assert rec.family == "A" and rec.n == 2 and rec.delta == 0.1

    def test_frozen_family_b(self):
        rec = stability_ratio(family_b_pair(3, 0.2), EntropyParams(0.5, 0.0))
        assert rel(rec.s_p, S_B_N3) <= 1e-12
        assert rel(rec.s_p_prime, S_B_N3_PRIME) <= 1e-12
        assert rel(rec.ratio, RATIO_B_N3) <= 1e-12

    def test_record_is_self_consistent(self):
        params = EntropyParams(0.7, 2.0)
        rec = stability_ratio(family_b_pair(50, 0.01), params)
        again = abs(rec.s_p - rec.s_p_prime) / max_entropy(rec.n, params)
        assert abs(again - rec.ratio) <= 1e-15

    def test_identical_pair_gives_zero(self):
        p = make_dist([0.3, 0.7])
        pair = PerturbPair(p, p, 0.1, Family.RANDOM_SEARCH)
        assert stability_ratio(pair, EntropyParams(0.5, 1.0)).ratio == 0.0


class TestRenyi:
    def test_uniform_is_log_n(self):
        for q in (0.5, 2.0, 3.0):
            assert math.isclose(
                renyi_entropy(make_dist([0.25] * 4), q), math.log(4), rel_tol=1e-14
            )

    def test_certainty_zero(self):
        assert renyi_entropy(make_dist([1.0, 0.0]), 0.5) == 0.0

    def test_half_half(self):
        # sum p**0.5 = sqrt(2), so R = ln(2)
        assert math.isclose(
            renyi_entropy(make_dist([0.5, 0.5]), 0.5), math.log(2), rel_tol=1e-14
        )

    def test_domain(self):
        p = make_dist([0.5, 0.5])
        with pytest.raises(DomainError):
            renyi_entropy(p, 1.0)
        with pytest.raises(DomainError):
            renyi_entropy(p, 0.0)
        with pytest.raises(DomainError):
            renyi_entropy(p, -0.5)
        with pytest.raises(DomainError):
            renyi_entropy(p, math.inf)

    def test_underflowing_power_sum_raises(self):
        # sum_i p_i**60 underflows to 0 on the family-B vector at n = 1e6
        with pytest.raises(DomainError):
            renyi_entropy(family_b_pair(10**6, 0.1).p, 60.0)
        with pytest.raises(DomainError):
            sweep(["B"], [10**6], 0.1, EntropyParams(0.5), control_q=60.0)

    @pytest.mark.parametrize("q", [math.inf, math.nan])
    def test_sweep_rejects_nonfinite_order(self, q):
        with pytest.raises(DomainError):
            sweep(["A"], [10], 0.1, EntropyParams(0.5), control_q=q)

    def test_no_negative_zero(self):
        # ln(1) / (1 - q) is -0.0 for q > 1
        assert math.copysign(1.0, renyi_entropy(make_dist([1.0, 0.0]), 2.0)) == 1.0
        rows = sweep(["A"], [10], 0.0, EntropyParams(0.5), control_q=2.0)
        assert all(
            math.copysign(1.0, x) == 1.0 for r in rows for x in (r.s_p, r.s_p_prime)
        )


class TestAggregatedPath:
    @pytest.mark.parametrize(
        "params",
        [
            EntropyParams(0.5, 0.0),
            EntropyParams(0.25, 2.0),
            EntropyParams(1.0, 0.0),
            EntropyParams(0.75, 0.5),
        ],
    )
    @pytest.mark.parametrize("n", [10, 100, 1000, 10_000])
    def test_matches_vector_path(self, params, n):
        delta = 1e-3
        for fam, ctor in (
            (Family.CERTAINTY_A, family_a_pair),
            (Family.UNIFORM_B, family_b_pair),
        ):
            s_agg, spp_agg = _family_entropies(fam, n, delta, params)
            pair = ctor(n, delta)
            assert abs(s_agg - entropy(pair.p, params)) <= 1e-12
            assert abs(spp_agg - entropy(pair.p_prime, params)) <= 1e-12

    @pytest.mark.parametrize("q", [0.5, 2.0, 10.0])
    @pytest.mark.parametrize("n", [3, 10, 1000, 100_000])
    def test_renyi_matches_vector_path(self, n, q):
        # the control rows' aggregated Renyi values against renyi_entropy on
        # the explicit vectors, within 8 eps relative (absolute below 1); the
        # worst case measured is 5.05 eps, at n = 1000, delta = 1, q = 2, p'
        bound = 8 * sys.float_info.epsilon
        for fam, ctor in (
            (Family.CERTAINTY_A, family_a_pair),
            (Family.UNIFORM_B, family_b_pair),
        ):
            for delta in (1e-3, 0.1, 1.0):
                pair = ctor(n, delta)
                agg = _family_renyi(fam, n, delta, q)
                for got, p in zip(agg, (pair.p, pair.p_prime)):
                    ref = renyi_entropy(p, q)
                    assert abs(got - ref) <= bound * max(1.0, abs(ref))


class TestSweep:
    def test_row_order_and_count(self):
        rows = sweep(["A", "B"], [100, 1000], 1e-3, EntropyParams(0.5, 1.0))
        assert [(r.family, r.n) for r in rows] == [
            ("A", 100),
            ("A", 1000),
            ("B", 100),
            ("B", 1000),
        ]

    def test_control_rows_appended(self):
        rows = sweep(["A"], [100], 1e-3, EntropyParams(0.5, 0.0), control_q=0.5)
        assert [(r.family, r.n) for r in rows] == [("A", 100), ("A_renyi", 100)]

    def test_frozen_large_n(self):
        rows = sweep(["A"], [1_000_000], 1e-3, EntropyParams(0.5, 0.0), control_q=0.5)
        by_fam = {r.family: r for r in rows}
        assert rel(by_fam["A"].ratio, RATIO_A_1E6) <= 1e-12
        assert rel(by_fam["A_renyi"].ratio, RENYI_A_1E6) <= 1e-12

    def test_family_a_ratio_decreasing_from_ten(self):
        rows = sweep(["A"], [10] + DECADES, 1e-3, EntropyParams(0.5, 1.0))
        ratios = [r.ratio for r in rows]
        assert all(b < a for a, b in zip(ratios, ratios[1:]))

    def test_renyi_control_increasing(self):
        rows = sweep(["A"], DECADES, 1e-3, EntropyParams(0.5, 0.0), control_q=0.5)
        ctrl = [r.ratio for r in rows if r.family == "A_renyi"]
        assert all(b > a for a, b in zip(ctrl, ctrl[1:]))

    def test_delta_zero_all_ratios_zero(self):
        rows = sweep(["A", "B"], [10, 100], 0.0, EntropyParams(0.5, 1.0), control_q=0.5)
        assert all(r.ratio == 0.0 for r in rows)

    def test_huge_n_is_constant_time(self):
        t0 = time.perf_counter()
        rows = sweep(["A", "B"], [10**8], 1e-3, EntropyParams(0.25, 2.0))
        assert time.perf_counter() - t0 < 0.5
        assert all(math.isfinite(r.ratio) and r.ratio >= 0.0 for r in rows)

    def test_grid_must_ascend(self):
        with pytest.raises(DomainError):
            sweep(["A"], [100, 100], 1e-3, EntropyParams(0.5))
        with pytest.raises(DomainError):
            sweep(["A"], [1000, 100], 1e-3, EntropyParams(0.5))
        with pytest.raises(DomainError):
            sweep(["A"], [], 1e-3, EntropyParams(0.5))

    def test_fractional_n_rejected(self):
        for bad in (10.7, math.nan, math.inf):
            with pytest.raises(DomainError, match="integers"):
                sweep(["A"], [bad], 0.1, EntropyParams(0.5))
        # an integral float names the same grid as the int
        assert sweep(["A"], [1e3], 0.1, EntropyParams(0.5)) == sweep(
            ["A"], [1000], 0.1, EntropyParams(0.5)
        )

    def test_n_beyond_float_range_rejected(self):
        with pytest.raises(DomainError, match="fit in a float"):
            sweep(["A"], [10, 10**400], 0.1, EntropyParams(0.5))

    def test_repeated_family_rejected(self):
        with pytest.raises(DomainError, match="repeated family"):
            sweep(["A", "A"], [10], 0.1, EntropyParams(0.5))
        with pytest.raises(DomainError, match="repeated family"):
            sweep(["B", Family.UNIFORM_B], [10], 0.1, EntropyParams(0.5))

    def test_family_b_needs_three(self):
        with pytest.raises(DomainError):
            sweep(["B"], [2, 100], 1e-3, EntropyParams(0.5))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            sweep(["C"], [100], 1e-3, EntropyParams(0.5))

    def test_no_family_rejected(self):
        with pytest.raises(DomainError, match="need at least one family"):
            sweep([], [100], 1e-3, EntropyParams(0.5))

    @pytest.mark.parametrize("delta", [-1e-3, 1.5, math.nan])
    def test_delta_outside_unit_interval_rejected(self, delta):
        with pytest.raises(DomainError, match=r"delta must lie in \[0, 1\]"):
            sweep(["A"], [100], delta, EntropyParams(0.5))

    def test_n_beyond_maxsize_stays_aggregated(self):
        # only explicit vectors are bounded by sys.maxsize, not sweep rows
        rows = sweep(["A", "B"], [sys.maxsize + 1], 0.1, EntropyParams(0.5))
        assert [r.n for r in rows] == [sys.maxsize + 1] * 2
        assert all(0.0 < r.ratio < 1.0 for r in rows)

    def test_random_search_has_no_aggregated_form(self):
        with pytest.raises(DomainError):
            sweep([Family.RANDOM_SEARCH], [100], 1e-3, EntropyParams(0.5))


# sha256 over the float.hex of every field of every sweep record on a
# (sigma, lam) x delta x q x n grid, and over the family_a_pair /
# family_b_pair weight vectors at a few (n, delta); recorded before the
# families were folded into one head/tail table
SWEEP_GOLDEN = "8e217c71a4270af989f1f740d97d2f567043c711de7ff96ca5dbf4f12eaa3e43"
PAIRS_GOLDEN = "48506152f1401c4f754625e93703bfd8d0bd2b34342351b0882dc8bc7a60ae3b"


class TestFamilyGolden:
    def test_sweep_records(self):
        h = hashlib.sha256()
        for sigma, lam in ((0.5, 0.0), (0.25, 2.0), (1.0, 0.0), (0.75, 0.5)):
            for delta in (1e-3, 0.1, 1.0):
                for q in (None, 0.5, 2.0):
                    rows = sweep(
                        ["A", "B"], [3, 10, 1000, 10**6, 10**8], delta,
                        EntropyParams(sigma, lam), control_q=q,
                    )
                    for r in rows:
                        floats = (r.delta, r.sigma, r.lam, r.s_p, r.s_p_prime, r.ratio)
                        fields = [r.family, str(r.n)] + [float(x).hex() for x in floats]
                        h.update((",".join(fields) + "\n").encode())
        assert h.hexdigest() == SWEEP_GOLDEN

    def test_pair_weights(self):
        h = hashlib.sha256()
        for ctor in (family_a_pair, family_b_pair):
            for n, delta in ((3, 0.2), (10, 1e-3), (7, 0.37), (1000, 1.0)):
                pair = ctor(n, delta)
                h.update(pair.p.weights.astype("<f8").tobytes())
                h.update(pair.p_prime.weights.astype("<f8").tobytes())
        assert h.hexdigest() == PAIRS_GOLDEN


# float.hex of (s_p, s_p_prime, ratio) and a sha256 of both weight vectors
# of the pair the search returns at delta = 0.1: family A's p and the flattest
# point of its ball, whatever the seed and iterations
CLIMB_GOLDEN = [
    ((3, 1.0, 0.0, 7, 10_000), "0x0.0p+0", "0x1.dd8998ec26e0ap-3", "0x1.b2ac6102e49a3p-3",
     "18ffb7129be34080f8d3274d446161dacb8418f8c832fddac20e010134d9d132"),
    ((5, 0.5, 1.0, 3, 800), "0x0.0p+0", "0x1.70de2ab2d3b21p-4", "0x1.2bb5a68f84275p-3",
     "b14880a27e52c81391604c5a896cca5135d1f0778784cc5936d10b0d9730b00c"),
    ((100, 0.25, 0.0, 1, 2000), "0x0.0p+0", "0x1.11f8518a453b3p-1", "0x1.760b04813e1cep-2",
     "cc9a3b0dc0b2d75324239259d2883a7c8aed21456d5b639886e086792f69f9df"),
    ((10_000, 0.5, 1.0, 0, 500), "0x0.0p+0", "0x1.3efef974b3866p-3", "0x1.229be5976aa61p-4",
     "7a261163995861362cb6b0876e67fb65dac567c7e355ef2d044cd9e4d08c8a6b"),
]


@pytest.fixture
def lesche_calls(monkeypatch):
    """Counts of the make_dist and entropy calls made inside lesche.

    Each call must pass its arguments positionally: the benchmark's tracer
    wraps these names and reads entropy's (p, params) from its positions.
    """
    calls = {"entropy": 0, "make_dist": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            assert not kwargs, f"{name} called with keywords {sorted(kwargs)}"
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tempent.lesche, "entropy", counted("entropy", entropy))
    monkeypatch.setattr(tempent.lesche, "make_dist", counted("make_dist", make_dist))
    return calls


# the benchmark's tracer swaps these attributes of tempent.lesche for
# wrappers, so each must stay a module-level name bound to core's function
@pytest.mark.parametrize("name", ["entropy", "make_dist", "generator", "max_entropy"])
def test_traced_core_names_stay_in_lesche(name):
    assert getattr(tempent.lesche, name) is getattr(tempent.core, name)


class TestRandomPairSearch:
    @pytest.mark.parametrize("case,s_p,s_pp,ratio,digest", CLIMB_GOLDEN)
    def test_golden_trajectory(self, case, s_p, s_pp, ratio, digest):
        n, sigma, lam, seed, iterations = case
        pair, rec = random_pair_search(
            n, 0.1, EntropyParams(sigma, lam), iterations=iterations, seed=seed
        )
        assert (rec.s_p.hex(), rec.s_p_prime.hex(), rec.ratio.hex()) == (s_p, s_pp, ratio)
        h = hashlib.sha256()
        h.update(pair.p.weights.astype("<f8").tobytes())
        h.update(pair.p_prime.weights.astype("<f8").tobytes())
        assert h.hexdigest() == digest

    def test_steps_make_no_full_evaluations(self, lesche_calls):
        # the whole distributions evaluated are the starts and their ball
        # extremes, and iterations add none
        calls = lesche_calls
        params = EntropyParams(0.5, 1.0)
        random_pair_search(50, 0.1, params, iterations=0, seed=2)
        base = dict(calls)
        assert base["entropy"] > 0 and base["make_dist"] > 0
        random_pair_search(50, 0.1, params, iterations=3000, seed=2)
        assert calls == {k: 2 * v for k, v in base.items()}

    def test_start_is_the_best_family_pair(self, lesche_calls):
        # per family: its p built once (one make_dist), then scored against
        # each of its two extremes (one make_dist and two entropy calls
        # each); the best is family A's own pair.  The random pair p = p'
        # is one distribution, scored only where no family applies, and
        # iterations do not change the cost
        params = EntropyParams(0.5, 1.0)
        families = family_a_pair(50, 0.1), family_b_pair(50, 0.1)
        best = max(families, key=lambda pair: stability_ratio(pair, params).ratio)
        want = stability_ratio(best, params)
        for iterations in (0, 5000):
            lesche_calls.update(entropy=0, make_dist=0)
            pair, rec = random_pair_search(50, 0.1, params, iterations=iterations, seed=2)
            assert lesche_calls == {"entropy": 8, "make_dist": 6}
            assert (rec.s_p, rec.s_p_prime, rec.ratio) == (want.s_p, want.s_p_prime, want.ratio)
            assert np.array_equal(pair.p.weights, best.p.weights)
            assert np.array_equal(pair.p_prime.weights, best.p_prime.weights)
        lesche_calls.update(entropy=0, make_dist=0)
        _, rec = random_pair_search(50, 0.0, params, iterations=0, seed=2)
        assert lesche_calls == {"entropy": 2, "make_dist": 1}
        assert rec.ratio == 0.0

    # An L1 certificate of absolute size L1_TOL admits pairs far outside a
    # ball this small; the ball's extremes never leave it, so the search
    # returns family A's pair, whose L1 is delta up to its rounded head
    @pytest.mark.parametrize("delta", [1e-12, 1e-13, 1e-14])
    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_small_delta_returns_family_a(self, n, delta):
        for sigma, lam in ((0.5, 1.0), (1.0, 0.0), (0.25, 2.0)):
            params = EntropyParams(sigma, lam)
            pair, rec = random_pair_search(n, delta, params, iterations=10_000, seed=7)
            want = stability_ratio(family_a_pair(n, delta), params)
            assert (rec.s_p, rec.s_p_prime, rec.ratio) == (want.s_p, want.s_p_prime, want.ratio)
            assert pair.l1_distance() <= delta + L1_TOL

    def test_deterministic(self):
        a = random_pair_search(3, 0.1, EntropyParams(1.0), iterations=1500, seed=7)
        b = random_pair_search(3, 0.1, EntropyParams(1.0), iterations=1500, seed=7)
        assert a[1] == b[1]
        assert np.array_equal(a[0].p.weights, b[0].p.weights)
        assert np.array_equal(a[0].p_prime.weights, b[0].p_prime.weights)

    def test_dominates_structured_families(self):
        params = EntropyParams(1.0, 0.0)
        _, rec = random_pair_search(3, 0.1, params, iterations=1500, seed=0)
        rec_a = stability_ratio(family_a_pair(3, 0.1), params)
        rec_b = stability_ratio(family_b_pair(3, 0.1), params)
        assert rec.ratio >= rec_a.ratio
        assert rec.ratio >= rec_b.ratio

    def test_returned_pair_is_certified(self):
        pair, rec = random_pair_search(5, 0.2, EntropyParams(0.5, 1.0), iterations=800, seed=3)
        assert pair.l1_distance() <= 0.2 + 1e-12
        assert abs(pair.p.weights.sum() - 1.0) <= 1e-12
        assert abs(pair.p_prime.weights.sum() - 1.0) <= 1e-12
        assert rec.family == "RandomSearch"

    def test_delta_zero_best_is_zero(self):
        _, rec = random_pair_search(4, 0.0, EntropyParams(0.5, 0.5), iterations=200, seed=1)
        assert rec.ratio == 0.0

    def test_zero_iterations_still_returns(self):
        pair, rec = random_pair_search(3, 0.1, EntropyParams(0.5), iterations=0, seed=0)
        assert rec.ratio >= 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            random_pair_search(1, 0.1, EntropyParams(0.5))
        with pytest.raises(DomainError):
            random_pair_search(3, 1.5, EntropyParams(0.5))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            random_pair_search(3, 0.1, EntropyParams(0.5), seed=seed)

    @pytest.mark.parametrize("iterations", [1.5, 10.0, math.nan])
    def test_non_integer_iterations_rejected(self, iterations):
        with pytest.raises(DomainError, match="iterations must be an integer >= 0"):
            random_pair_search(3, 0.1, EntropyParams(0.5), iterations=iterations)

    @pytest.mark.parametrize("n", [3.0, 2.5, math.nan])
    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_non_integer_n_rejected(self, n, delta):
        with pytest.raises(DomainError, match="n must be an integer >= 2"):
            random_pair_search(n, delta, EntropyParams(0.5), iterations=5)

    @pytest.mark.parametrize("delta", [0.0, 0.1])
    def test_n_beyond_maxsize_rejected(self, delta):
        with pytest.raises(DomainError, match="<= sys.maxsize"):
            random_pair_search(sys.maxsize + 1, delta, EntropyParams(0.5), iterations=5)

    # n fits sys.maxsize, but not the 8 * n bytes of its vector; 2**60 is
    # the smallest such n
    @pytest.mark.parametrize(
        "n,delta", [(2**62, 0.0), (2**60, 0.1), (np.int64(2**62), 0.0)]
    )
    def test_vector_beyond_numpy_limit_rejected(self, n, delta):
        with pytest.raises(DomainError, match=r"needs n <= sys.maxsize // 8"):
            random_pair_search(n, delta, EntropyParams(0.5), iterations=5)



# 4 ulp at 1.0: no point of a ball may beat its extremes by more than
# the rounding of two entropy sums of a few terms each
EXTREME_TOL = 4 * 2.0**-52


def ball_points(rng, w, t, count):
    """Points of the ball ||v - w||_1 <= 2t on the simplex.

    w moves toward random simplex points (sparse Dirichlet draws) and every
    vertex, half of them all the way to the sphere and half part way.
    """
    n = len(w)
    q = np.vstack([rng.dirichlet(np.full(n, 0.3), count), np.eye(n)])
    reach = 2.0 * t / np.maximum(np.abs(q - w).sum(axis=1), 2.0 * t)
    reach[::2] *= rng.uniform(size=len(reach[::2]))
    return (1.0 - reach)[:, None] * w + reach[:, None] * q


def ball_corpus(count, seed):
    """Seeded balls (w, t): n from 2 to 1e4, t in each binade of [2**-50, 1).

    n is uniform below a random power of ten.  A quarter of the balls are
    generic; the rest hold ties (weights on four levels, zero among them),
    zeros (about half the weights) or a point mass, bare or over a tail of
    tied 1e-9 weights.  t is m * 2**-k with m uniform on [1, 2), so no
    libm rounding enters it.
    """
    rng = np.random.default_rng(seed)
    for i in range(count):
        n = int(rng.integers(2, 10 ** int(rng.integers(1, 5)) + 1))
        kind = i % 4
        if kind == 0:
            w = rng.standard_exponential(n)
        elif kind == 1:
            w = rng.integers(0, 4, n).astype(float)
        elif kind == 2:
            w = rng.standard_exponential(n) * (rng.uniform(size=n) < 0.5)
        else:
            w = np.zeros(n) if i % 8 == 3 else 1e-9 * rng.integers(0, 3, n)
            w[int(rng.integers(n))] = 1.0
        if not w.any():
            w[int(rng.integers(n))] = 1.0
        w /= w.sum()
        yield w, math.ldexp(rng.uniform(1.0, 2.0), -int(rng.integers(1, 51)))


# sha256 of the flattest then the steepest point's bytes over
# ball_corpus(2000, 27), recorded from separate flattest and steepest
# helpers that each sorted the weights on their own
EXTREMES_GOLDEN = "44aff889f642507604db9cc64276ff5cc477edb5d534949c3044c931d156d133"


class TestBallExtremes:
    """The flattest and steepest points of an L1 ball on the simplex."""

    def test_frozen_bits(self):
        h = hashlib.sha256()
        for w, t in ball_corpus(2000, 27):
            for v in _extremes(w, t):
                h.update(v.astype("<f8").tobytes())
        assert h.hexdigest() == EXTREMES_GOLDEN

    def test_no_sampled_point_beyond_the_extremes(self):
        # 300 configurations (n <= 6, about a third of the weights zero,
        # t log-uniform on [1e-6, 1], sigma on (0, 1], lam on [0, 3]),
        # 100 sampled points plus the n vertex directions each
        rng = np.random.default_rng(2026)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            w = rng.dirichlet(np.ones(n)) * (rng.uniform(size=n) > 0.3)
            if not w.any():
                w[int(rng.integers(n))] = 1.0
            w /= w.sum()
            t = 10.0 ** rng.uniform(-6.0, 0.0)
            params = EntropyParams(rng.uniform(0.05, 1.0), rng.uniform(0.0, 3.0))
            flat, steep = _extremes(w, t)
            for v in (flat, steep):
                assert np.abs(v - w).sum() <= 2.0 * t + L1_TOL
                assert abs(v.sum() - 1.0) <= SUM_TOL
            s_flat = entropy(make_dist(flat), params)
            s_steep = entropy(make_dist(steep), params)
            for v in ball_points(rng, w, t, 100):
                s = entropy(make_dist(v), params)
                assert s_steep - EXTREME_TOL <= s <= s_flat + EXTREME_TOL

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 17, 100, 1000, 10_000])
    def test_flattest_of_certainty_is_family_a(self, n):
        for delta in (1e-14, 1e-13, 1e-12, 1e-11, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 1.0):
            pair = family_a_pair(n, delta)
            flat, _ = _extremes(pair.p.weights, delta / 2.0)
            assert flat.tobytes() == pair.p_prime.weights.tobytes()

    # family B's p lies 2/n from the uniform point, so the ball holds it
    # exactly when n >= 2/delta
    @pytest.mark.parametrize("delta,n_inside,n_outside", [
        (1e-3, 2001, 1999), (0.1, 21, 19), (0.5, 5, 3), (1.0, 3, None),
    ])
    def test_flattest_is_uniform_when_the_ball_holds_it(self, delta, n_inside, n_outside):
        for n in (n_inside, 10 * n_inside):
            flat, _ = _extremes(family_b_pair(n, delta).p.weights, delta / 2.0)
            assert np.array_equal(flat, np.full(n, 1.0 / n))
        if n_outside is not None:
            w = family_b_pair(n_outside, delta).p.weights
            flat, _ = _extremes(w, delta / 2.0)
            assert len(set(flat.tolist())) == 2
            assert abs(np.abs(flat - w).sum() - delta) <= L1_TOL

    def test_steepest_caps_the_top_at_one(self):
        # draining all eight tails of 1/9 into the ninth sums to
        # 1.0000000000000002, which no weight may exceed
        w = family_b_pair(10, 0.1).p.weights
        _, steep = _extremes(w, 1.0)
        assert steep.tolist() == [0.0] * 9 + [1.0]
        make_dist(steep)

    def test_steepest_skips_zeros_and_breaks_ties_in_index_order(self):
        w = np.array([0.0, 0.3, 0.0, 0.7])
        assert _extremes(w, 0.1)[1].tolist() == [0.0, 0.3 - 0.1, 0.0, 0.7 + 0.1]
        # of equal weights the last is the top and the first drains first;
        # 30 weights, too many for a sort that is stable only when short
        w = np.tile([0.0, 0.05, 0.05], 10)
        want = w.copy()
        want[[1, 2]] = 0.0
        want[4] = 0.05 - (0.12 - 0.1)
        want[29] = 0.05 + 0.12
        assert _extremes(w, 0.12)[1].tolist() == want.tolist()
        # a point mass has nothing outside its top, so it stays put
        w = np.array([0.0, 1.0, 0.0])
        assert _extremes(w, 0.2)[1].tolist() == w.tolist()
