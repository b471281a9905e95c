import hashlib
import math
import sys
import time
import tracemalloc

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
from tempent.core import generator
from tempent.lesche import (
    L1_TOL,
    _MOVE_BLOCK,
    _climb_moves,
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


# float.hex of (s_p, s_p_prime, ratio) and a sha256 of both weight vectors,
# recorded from a climb that evaluated both entropies exactly on every step;
# the running sums must take the same accept/reject decisions
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


# With no structured start the climb begins at the random pair p = p' and
# accepts moves (236 of them in the n = 1e4 case, and 10 to 31 in the
# others).  float.hex of (s_p, s_p_prime, ratio) and a sha256 of both weight
# vectors, recorded from the climb that kept running sums of S and L1 and
# re-evaluated them exactly every 256 steps
FORCED_GOLDEN = [
    ((10_000, 0.5, 1.0, 0.1, 0, 500), "0x1.0f9d7bdc07368p+1", "0x1.10119974ecab9p+1",
     "0x1.a7216d21c7aaep-10",
     "99705c91149451c1175ab7e3815d8cfd5491d5ef63ef4b9fd1a77323c6ff6611"),
    ((5, 0.5, 0.0, 0.2, 3, 800), "0x1.1c39c0e4705dep+0", "0x1.f3ccefcbf427cp-1",
     "0x1.b0e8f60d036c4p-4",
     "af02079e737f7c64d3e7be2b3e6fa5dfe45987a3fce922fe2d4a2c7881052610"),
    ((20, 0.25, 2.0, 0.5, 7, 2000), "0x1.b7d1c26b72fc0p-3", "0x1.22b9c3cbcd6c4p-2",
     "0x1.cf1e39bbe1f33p-3",
     "fc891e6e013ec81b69208e2b0fa04cf2591b336402960b1880f2eb889a994cfc"),
    ((200, 0.75, 0.5, 0.05, 1, 1500), "0x1.74775c8bc114cp+1", "0x1.7858ba0a40b46p+1",
     "0x1.3c284dd9017dep-7",
     "ea711b2d29d04bba192ab4ec2a7ae34cda2d0dd8c6898879676144b414a75ba7"),
]


# With family B as the only structured start the climb accepts moves from
# it.  float.hex of (s_p, s_p_prime, ratio) and a sha256 of both weight
# vectors, recorded from the climb that scored its starts and accepted moves
# through its own evaluator rather than stability_ratio
B_START_GOLDEN = [
    ((5, 0.2, 0.5, 1.0, 3, 800), "0x1.14090ab3886b4p-1", "0x1.346ae5933fe02p-1",
     "0x1.a4f9b7525f1fap-4",
     "6379c821649c3aacea132f8bc1f12044e11267c24bae068ced7a93309de6fa81"),
    ((50, 0.1, 0.25, 0.0, 1, 1500), "0x1.67eac45999658p+0", "0x1.66efed5fc8a0ep+0",
     "0x1.64b8039211b2ap-9",
     "d928bae991a29f0df46391a78e643aa4efffb0f63a465d4525da197303fb87cf"),
]


@pytest.fixture
def lesche_calls(monkeypatch):
    """Counts of the make_dist and entropy calls made inside lesche."""
    calls = {"entropy": 0, "make_dist": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(tempent.lesche, "entropy", counted("entropy", entropy))
    monkeypatch.setattr(tempent.lesche, "make_dist", counted("make_dist", make_dist))
    return calls


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

    def test_steps_make_no_full_evaluations(self, monkeypatch):
        # only the starts and accepted moves evaluate whole distributions,
        # and no move is accepted from this start
        calls = {"entropy": 0, "make_dist": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(tempent.lesche, "entropy", counted("entropy", entropy))
        monkeypatch.setattr(tempent.lesche, "make_dist", counted("make_dist", make_dist))
        params = EntropyParams(0.5, 1.0)
        random_pair_search(50, 0.1, params, iterations=0, seed=2)
        base = dict(calls)
        assert base["entropy"] > 0 and base["make_dist"] > 0
        random_pair_search(50, 0.1, params, iterations=3000, seed=2)
        assert calls == {k: 2 * v for k, v in base.items()}

    @pytest.mark.parametrize(
        "case,s_p,s_pp,ratio,digest", FORCED_GOLDEN,
        ids=[f"n={case[0]}" for case, *_ in FORCED_GOLDEN],
    )
    def test_accepted_moves_golden(self, monkeypatch, case, s_p, s_pp, ratio, digest):
        monkeypatch.setattr(tempent.lesche, "_FAMILY_MIN_N", {})
        n, sigma, lam, delta, seed, iterations = case
        params = EntropyParams(sigma, lam)
        pair, rec = random_pair_search(n, delta, params, iterations=iterations, seed=seed)
        assert (rec.s_p.hex(), rec.s_p_prime.hex(), rec.ratio.hex()) == (s_p, s_pp, ratio)
        h = hashlib.sha256()
        h.update(pair.p.weights.astype("<f8").tobytes())
        h.update(pair.p_prime.weights.astype("<f8").tobytes())
        assert h.hexdigest() == digest
        # the start has ratio 0, so a positive ratio means accepted moves
        assert rec.ratio > 0.0
        assert pair.family is Family.RANDOM_SEARCH
        assert pair.l1_distance() <= delta + L1_TOL
        assert rec.s_p == entropy(pair.p, params)
        assert rec.s_p_prime == entropy(pair.p_prime, params)

    def test_start_is_the_best_family_pair(self, lesche_calls):
        # each family is built and scored once; the random pair p = p' is
        # scored only where no family applies, and 0 steps return the start
        params = EntropyParams(0.5, 1.0)
        families = family_a_pair(50, 0.1), family_b_pair(50, 0.1)
        best = max(families, key=lambda pair: stability_ratio(pair, params).ratio)
        want = stability_ratio(best, params)
        lesche_calls.update(entropy=0, make_dist=0)
        pair, rec = random_pair_search(50, 0.1, params, iterations=0, seed=2)
        assert lesche_calls == {"entropy": 4, "make_dist": 4}
        assert (rec.s_p, rec.s_p_prime, rec.ratio) == (want.s_p, want.s_p_prime, want.ratio)
        assert np.array_equal(pair.p.weights, best.p.weights)
        assert np.array_equal(pair.p_prime.weights, best.p_prime.weights)
        lesche_calls.update(entropy=0, make_dist=0)
        _, rec = random_pair_search(50, 0.0, params, iterations=0, seed=2)
        assert lesche_calls == {"entropy": 2, "make_dist": 2}
        assert rec.ratio == 0.0

    @pytest.mark.parametrize(
        "case,s_p,s_pp,ratio,digest", B_START_GOLDEN,
        ids=[f"n={case[0]}" for case, *_ in B_START_GOLDEN],
    )
    def test_accepted_moves_from_family_b(
        self, monkeypatch, case, s_p, s_pp, ratio, digest
    ):
        monkeypatch.setattr(tempent.lesche, "_FAMILY_MIN_N", {Family.UNIFORM_B: 3})
        n, delta, sigma, lam, seed, iterations = case
        params = EntropyParams(sigma, lam)
        pair, rec = random_pair_search(n, delta, params, iterations=iterations, seed=seed)
        assert (rec.s_p.hex(), rec.s_p_prime.hex(), rec.ratio.hex()) == (s_p, s_pp, ratio)
        h = hashlib.sha256()
        h.update(pair.p.weights.astype("<f8").tobytes())
        h.update(pair.p_prime.weights.astype("<f8").tobytes())
        assert h.hexdigest() == digest
        # above family B's ratio, so moves were accepted from its pair
        assert rec.ratio > stability_ratio(family_b_pair(n, delta), params).ratio

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


def moves_per_step(rng, n, steps):
    """The climb's moves drawn one numpy call at a time, the reference."""
    moves = []
    for _ in range(steps):
        side = int(rng.integers(0, 2))
        i, j = rng.choice(n, size=2, replace=False)
        moves.append((side, int(i), int(j)))
    return moves


class TestClimbMoves:
    # the block draw relies on numpy drawing choice(n, 2, replace=False) as
    # three bounded integers (Floyd's algorithm, then a two-element shuffle);
    # a numpy that draws it otherwise fails here.  For n = 2**33 neither
    # side may build a length-n array
    @pytest.mark.parametrize("n", [2, 3, 5, 10_000, 10_001, 2**33])
    @pytest.mark.parametrize(
        "steps", [0, 1, _MOVE_BLOCK - 1, _MOVE_BLOCK, _MOVE_BLOCK + 1]
    )
    def test_same_moves_and_stream_as_per_step_draws(self, n, steps):
        for seed in (0, 7, 2024):
            blocks, single = np.random.default_rng(seed), np.random.default_rng(seed)
            assert list(_climb_moves(blocks, n, steps)) == moves_per_step(single, n, steps)
            assert blocks.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("block", [1, 7])
    def test_climb_does_not_depend_on_block_size(self, monkeypatch, block):
        # a climb that accepts moves, so every step's draw matters
        monkeypatch.setattr(tempent.lesche, "_FAMILY_MIN_N", {})
        args = 5, 0.2, EntropyParams(0.5, 0.0)
        want_pair, want = random_pair_search(*args, iterations=800, seed=3)
        monkeypatch.setattr(tempent.lesche, "_MOVE_BLOCK", block)
        pair, rec = random_pair_search(*args, iterations=800, seed=3)
        assert rec == want
        assert np.array_equal(pair.p.weights, want_pair.p.weights)
        assert np.array_equal(pair.p_prime.weights, want_pair.p_prime.weights)

    def test_generator_runs_once_per_distinct_argument(self, monkeypatch):
        # the README search line: four generator terms per admitted step,
        # up to 40 000 calls unmemoized, but few distinct arguments
        args = []

        def counted(x, params):
            args.append(x)
            return generator(x, params)

        monkeypatch.setattr(tempent.lesche, "generator", counted)
        params = EntropyParams(1.0, 0.0)
        random_pair_search(3, 0.1, params, iterations=10_000, seed=7)
        assert len(args) == len(set(args)) <= 30
        # the memo lives for one call: a second call evaluates them again
        first = list(args)
        random_pair_search(3, 0.1, params, iterations=10_000, seed=7)
        assert args == first + first

    def test_memory_does_not_grow_with_iterations(self):
        # the draw of all 100 000 moves at once would hold a 3.2 MB int64
        # array, and ~6 MB with one list reference per drawn value
        bound = 1_000_000
        params = EntropyParams(1.0, 0.0)
        random_pair_search(3, 0.1, params, iterations=10, seed=7)  # warm-up
        tracemalloc.start()
        try:
            random_pair_search(3, 0.1, params, iterations=100_000, seed=7)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            np.random.default_rng(7).integers(0, np.array([2, 2, 3, 2]), size=(100_000, 4))
            _, all_at_once = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound < all_at_once
