"""Closed-form equilibria: golden values, structural identities, and
cross-validation against the best-response oracle.

The six candidates are regime-stationary by construction (their residuals
against the analytic first-order systems sit at rounding error).  Where a
candidate is also a best-response fixed point of the full game, the oracle
must reproduce it; the pb1<=pb2 and no-bundle-undercut candidates (T3, T4,
T5b) are only fixed points on part of their stated sufficient-condition
regions, which the tests surface explicitly rather than hide.
"""

import math
import types

import numpy as np
import pytest

import bundlematch.equilibria
from bundlematch import (
    MarketParams,
    PriceVector,
    ProfitPair,
    Regime,
    Scenario,
    best_response_r1,
    best_response_r2,
    eq_T1,
    eq_T2,
    eq_T3,
    eq_T4,
    eq_T5a,
    eq_T5b,
    find_fixed_point,
    find_fixed_points,
)
from bundlematch.equilibria import (
    _guard_denominator,
    _largest_magnitude,
    DegenerateParamsError,
    SharedTerms,
    THEOREMS,
    eq_T,
    shared_terms,
)
from bundlematch.market import PARAM_FIELDS, STRUCTURES, demands
from bundlematch.profits import profits_at

from conftest import (
    PROFITS_MODULE,
    SET_THEOREM,
    draw_set_params,
    draw_valid_params,
    set_scenario,
)
from exact_arithmetic import exact_params

EQ = {"T1": eq_T1, "T2": eq_T2, "T3": eq_T3, "T4": eq_T4, "T5a": eq_T5a, "T5b": eq_T5b}


def rel_sup(a: PriceVector, b: PriceVector) -> float:
    scale = max(1.0, max(abs(v) for v in a.present()))
    return a.sup_distance(b) / scale


def br_fixed_point_gap(params, scenario, prices) -> float:
    """How far the point is from reproducing itself under one best-response
    round; ~0 means it is an actual equilibrium of the full game."""
    r1 = best_response_r1(params, scenario, prices.pb2)
    r2 = best_response_r2(params, scenario, prices)
    return rel_sup(prices, PriceVector(r1[0], r1[1], r1[2], r2))


class TestGoldenValues:
    def test_t1_baseline(self, baseline):
        r = eq_T1(baseline)
        assert r.prices.p1 == pytest.approx(99.05, abs=0.01)
        assert r.prices.p2 == pytest.approx(99.05, abs=0.01)
        assert r.prices.pb1 == pytest.approx(162.05, abs=0.01)
        assert 2.0 * r.prices.pb1 == pytest.approx(324.09, abs=0.01)
        assert r.prices.pb2 == pytest.approx(135.0, abs=1e-9)
        assert r.feasible and r.regime is Regime.R1_HIGH
        assert r.foc_residual <= 1e-8

    def test_t2_baseline(self, baseline):
        r = eq_T2(baseline)
        assert r.prices.p1 == pytest.approx(94.08, abs=0.01)
        assert 2.0 * r.prices.pb1 == pytest.approx(279.53, abs=0.01)
        assert r.prices.pb2 == pytest.approx(135.0, abs=1e-9)
        assert r.feasible

    def test_t3_baseline_infeasible_by_ordering(self, baseline):
        r = eq_T3(baseline)
        assert r.prices.pb2 == pytest.approx(0.5 * (100.0 / 0.4 + 20.0))  # = 135
        assert r.prices.pb1 > r.prices.pb2  # presumed pb1 <= pb2 fails
        assert not r.feasible
        assert r.foc_residual <= 1e-8  # still exactly stationary for its regime

    def test_t4_baseline_infeasible_by_ordering(self, baseline):
        r = eq_T4(baseline)
        assert r.prices.pb2 == pytest.approx(0.5 * (200.0 / 0.8 + 20.0))  # = 135
        assert not r.feasible

    def test_t5a_baseline(self, baseline):
        r = eq_T5a(baseline)
        assert r.prices.p1 == pytest.approx(5.0 + 600.0 / 8.8, abs=1e-9)  # 73.18
        assert r.prices.pb2 == pytest.approx(135.0)
        assert r.feasible

    def test_t5b_baseline_infeasible_by_ordering(self, baseline):
        r = eq_T5b(baseline)
        assert r.prices.pb2 == pytest.approx(200.0 / 1.6 + 10.0)  # = 135
        assert r.prices.p1 + r.prices.p2 > r.prices.pb2
        assert not r.feasible

    def test_t5_item_price_gap_is_half_the_cost_gap(self):
        # equal item bases kill the asymmetry term, leaving only the costs
        params = MarketParams.baseline(a_l_i1=120.0, a_l_i2=120.0, c1=14.0, c2=6.0)
        for fn in (eq_T5a, eq_T5b):
            r = fn(params)
            assert r.prices.p1 - r.prices.p2 == pytest.approx(0.5 * (14.0 - 6.0), abs=1e-10)

    def test_homogeneous_system_prices_zero(self):
        params = MarketParams.baseline(
            a_l_i1=0.0, a_l_i2=0.0, a_l_ib=0.0, a_q_ib=0.0,
            a_l_jb=0.0, a_q_jb=0.0, a_s=0.0, c1=0.0, c2=0.0,
        )
        for tid, fn in EQ.items():
            r = fn(params)
            assert max(abs(v) for v in r.prices.present()) < 1e-12, tid


class TestStructuralIdentities:
    def test_t3_reduces_to_t2_without_strategic_share(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            params = draw_valid_params(rng).replace(alpha=0.0)
            a, b = eq_T3(params), eq_T2(params)
            assert a.prices.p1 == pytest.approx(b.prices.p1, abs=1e-10)
            assert a.prices.p2 == pytest.approx(b.prices.p2, abs=1e-10)
            assert a.prices.pb1 == pytest.approx(b.prices.pb1, abs=1e-10)

    def test_t4_equals_t3_at_full_share(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            params = draw_valid_params(rng).replace(alpha=1.0)
            a, b = eq_T4(params), eq_T3(params)
            assert a.prices.p1 == pytest.approx(b.prices.p1, abs=1e-10)
            assert a.prices.p2 == pytest.approx(b.prices.p2, abs=1e-10)
            assert a.prices.pb1 == pytest.approx(b.prices.pb1, abs=1e-10)

    def test_t5b_differs_from_t5a_only_by_strategic_terms(self):
        # with b_s negligible the two denominators coincide and the price gap
        # is exactly the strategic-base term in the numerator
        small = MarketParams.baseline(b_s=1e-9)
        a, b = eq_T5a(small), eq_T5b(small)
        den = 4.0 * small.b_l * (5.0 + small.theta_l)
        assert b.prices.p1 - a.prices.p1 == pytest.approx(2.0 * small.a_s / den, rel=1e-6)

    def test_t2_bundle_price_ignores_rival_bases(self, baseline):
        base = eq_T2(baseline)
        for field in ("a_l_jb", "a_q_jb", "a_s"):
            bumped = eq_T2(baseline.replace(**{field: 137.0}))
            assert bumped.prices.pb1 == base.prices.pb1
            assert bumped.prices.p1 == base.prices.p1

    def test_t1_rival_price_ignores_own_bases(self, baseline):
        base = eq_T1(baseline)
        for field in ("a_l_i1", "a_l_i2", "a_l_ib", "a_q_ib"):
            bumped = eq_T1(baseline.replace(**{field: 137.0}))
            assert bumped.prices.pb2 == base.prices.pb2

    def test_t1_bundle_price_monotone_in_rival_bases(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            params = draw_set_params("A", rng)
            base = eq_T1(params).prices.pb1
            for field in ("a_l_jb", "a_q_jb"):
                up = eq_T1(params.replace(**{field: getattr(params, field) + 5.0})).prices.pb1
                assert up >= base - 1e-12

    def test_t2_edge_lambda_at_bl_theta_small(self):
        params = MarketParams.baseline(lambda_l=0.4, theta_l=0.01)
        r = eq_T2(params)
        assert all(np.isfinite(v) for v in r.prices.present())
        den = (
            4.0 * params.b_l * (params.b_l * 1.01 + 0.8)
            + 4.0 * params.b_l * 1.01 * 0.4
            - 0.16
        )
        assert den > 0.0

    def test_feasible_results_respect_bundle_discount(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            params = draw_valid_params(rng)
            for tid in ("T1", "T2", "T3", "T4"):
                r = EQ[tid](params)
                if r.feasible:
                    assert r.prices.p1 + r.prices.p2 >= r.prices.pb1 - 1e-9

    def test_degenerate_denominator_guard(self):
        with pytest.raises(DegenerateParamsError):
            _guard_denominator(0.0, "test denominator")


class TestOracleCrossValidation:
    """Closed forms against independently computed best-response fixed points.

    Sets A, B, E: every set-satisfying, feasible draw must reproduce under
    the oracle (any failure here is an implementation bug).  Set E carries a
    known leak: a small fraction of set-satisfying points admits a profitable
    deviation for retailer 1 onto the price kink, refuting the claimed
    equilibrium itself; such draws are detected via the raw profit functions
    and reported, and the test bounds their frequency instead of asserting
    the impossible.
    """

    @pytest.mark.parametrize("set_id", ["A", "B"])
    def test_high_regime_sets_match_unconditionally(self, set_id):
        rng = np.random.default_rng(ord(set_id))
        scen = set_scenario(set_id)
        for _ in range(50):
            params = draw_set_params(set_id, rng, require_feasible=True)
            eq = EQ[SET_THEOREM[set_id]](params)
            out = find_fixed_point(params, scen, damping=0.7)
            assert out.converged
            assert rel_sup(eq.prices, out.prices) <= 1e-4

    def test_set_e_matches_wherever_the_equilibrium_exists(self):
        rng = np.random.default_rng(ord("E"))
        scen = Scenario.no_bundle()
        refuted = 0
        for _ in range(50):
            params = draw_set_params("E", rng, require_feasible=True)
            eq = eq_T5a(params)
            if br_fixed_point_gap(params, scen, eq.prices) > 1e-6:
                refuted += 1  # theorem counterexample: r1 gains by undercutting
                continue
            out = find_fixed_point(params, scen, damping=0.7)
            assert out.converged
            assert rel_sup(eq.prices, out.prices) <= 1e-4
        assert refuted <= 10, "set E leak grew beyond the documented rate"

    @pytest.mark.parametrize("set_id", ["C", "D", "F"])
    def test_low_regime_sets_stationary_and_match_where_stable(self, set_id):
        rng = np.random.default_rng(ord(set_id))
        scen = set_scenario(set_id)
        stable = 0
        for _ in range(50):
            params = draw_set_params(set_id, rng, require_feasible=(set_id == "F"))
            eq = EQ[SET_THEOREM[set_id]](params)
            assert eq.foc_residual <= 1e-8  # formulas solve their FOC systems
            if br_fixed_point_gap(params, scen, eq.prices) > 1e-6:
                continue  # candidate refuted by a global deviation
            stable += 1
            outs = find_fixed_points(params, scen, damping=0.7)
            assert any(
                o.converged and rel_sup(eq.prices, o.prices) <= 1e-4 for o in outs
            )
        if set_id == "F":
            assert stable >= 10
        elif set_id == "C":
            assert stable >= 4

    @pytest.mark.parametrize("tid", ["T3", "T4"])
    def test_low_regime_forms_match_on_their_feasible_domain(self, tid):
        # natural parameter points where the pb1<=pb2 candidates are feasible
        # (the printed condition sets C/D exclude their own feasible region)
        rng = np.random.default_rng(12 if tid == "T3" else 13)
        scen = Scenario.bundled(True, tid == "T3")
        matched = checked = 0
        while checked < 25:
            params = draw_valid_params(rng)
            eq = EQ[tid](params)
            if not eq.feasible:
                continue
            checked += 1
            if br_fixed_point_gap(params, scen, eq.prices) > 1e-6:
                continue
            outs = find_fixed_points(params, scen, damping=0.7)
            assert any(o.converged and rel_sup(eq.prices, o.prices) <= 1e-4 for o in outs)
            matched += 1
        assert matched >= 15

    def test_literal_sets_c_d_contradict_their_own_feasibility(self):
        """The printed sets C/D force a_l_jb <= (c1+c2) b_l, which pins one of
        retailer 2's demands nonpositive at the regime's own rival price
        (d_l_jb = (a_l_jb - (c1+c2) b_l)/2 under C; d_q_jb <= (a_l_jb -
        (c1+c2) b_l)/2 under D since a_q_jb <= a_l_jb), so full demand
        nonnegativity only holds on the boundary slice."""
        rng = np.random.default_rng(14)
        for set_id, fn, field in (("C", eq_T3, "d_l_jb"), ("D", eq_T4, "d_q_jb")):
            for _ in range(20):
                params = draw_set_params(set_id, rng, require_feasible=False)
                eq = fn(params)
                assert getattr(eq.demands, field) <= 1e-9
                assert not eq.feasible


class TestItemSwap:
    def test_swapping_the_items_swaps_item_prices_and_demands(self):
        """Items 1 and 2 enter the model symmetrically, so exchanging their
        demand bases and costs exchanges every candidate's item prices and
        item demands and leaves its bundle prices and profits unchanged."""

        def close(x, y):
            return abs(x - y) <= 1e-12 * max(1.0, abs(x), abs(y))

        rng = np.random.default_rng(19)
        for _ in range(100):
            params = draw_valid_params(rng)
            swapped = params.replace(
                a_l_i1=params.a_l_i2, a_l_i2=params.a_l_i1, c1=params.c2, c2=params.c1
            )
            for tid, theorem in EQ.items():
                a, b = theorem(params), theorem(swapped)
                pairs = [
                    (a.prices.p1, b.prices.p2),
                    (a.prices.p2, b.prices.p1),
                    (a.prices.pb2, b.prices.pb2),
                    (a.demands.d_l_i1, b.demands.d_l_i2),
                    (a.demands.d_l_i2, b.demands.d_l_i1),
                    (a.profits.pi_r1, b.profits.pi_r1),
                    (a.profits.pi_r2, b.profits.pi_r2),
                ]
                if a.prices.pb1 is not None:
                    pairs.append((a.prices.pb1, b.prices.pb1))
                assert all(close(x, y) for x, y in pairs), (tid, pairs)


class TestNanResidual:
    # Python's max keeps a NaN only in first place, so the residual takes
    # its own maximum, which keeps a NaN from any component
    def test_nan_in_any_place_is_the_largest_magnitude(self):
        assert math.isnan(_largest_magnitude((1.0, math.nan)))
        assert math.isnan(_largest_magnitude((math.nan, 1.0)))
        assert _largest_magnitude((-3.0, 2.0)) == 3.0

    def test_the_residual_is_reported_and_not_a_feasibility_check(self, baseline, monkeypatch):
        before = eq_T1(baseline)
        monkeypatch.setattr(bundlematch.equilibria, "gradient_r2_at", lambda *args: math.nan)
        monkeypatch.setattr(bundlematch.equilibria, "gradient_r1_at", lambda *args: (math.nan,) * 3)
        r = eq_T1(baseline)
        assert r == before and r.feasible
        assert math.isnan(r.foc_residual)

    @pytest.mark.parametrize(
        "pi, feasible",
        [
            ((math.nan, 1.0), False),
            ((1.0, math.nan), False),
            ((math.inf, 1.0), False),
            ((1.0, -math.inf), False),
            # each profit is checked, not their sum: this welfare overflows
            ((1e308, 1e308), True),
        ],
    )
    def test_a_candidate_is_infeasible_when_a_profit_is_not_finite(
        self, baseline, monkeypatch, pi, feasible
    ):
        assert eq_T1(baseline).feasible
        # the one evaluator, profits.evaluate, reads profits_at in its module
        monkeypatch.setattr(PROFITS_MODULE, "profits_at", lambda *args: ProfitPair(*pi))
        assert eq_T1(baseline).feasible is feasible


class TestOffOrderingCandidates:
    """eq_T rejects a candidate off its price ordering before evaluating its
    demands and profits; they are evaluated on access, and equal a direct
    evaluation at its prices under its structure."""

    @staticmethod
    def rejected(params):
        terms = shared_terms(params)
        candidates = [eq_T(terms, tid) for tid in THEOREMS]
        return [r for r in candidates if r.evaluation is None]

    @staticmethod
    def direct(r):
        s = STRUCTURES[r.theorem_id]
        eff = s.effective_prices(r.prices)
        d = demands(r.params, r.prices, eff)
        return (*d, *profits_at(r.params, s, r.prices, eff, d))

    def test_on_access_values_equal_a_direct_evaluation_to_the_bit(self, baseline):
        rng = np.random.default_rng(28)
        count = 0
        for params in (baseline, *(draw_valid_params(rng) for _ in range(300))):
            for r in self.rejected(params):
                count += 1
                assert not r.feasible
                regime = STRUCTURES[r.theorem_id].regime
                assert not regime.holds(r.prices.r1_bundle_equivalent(), r.prices.pb2)
                on_access = (*r.demands, *r.profits)
                assert list(map(float.hex, on_access)) == list(map(float.hex, self.direct(r)))
        assert count > 600

    def test_on_access_values_equal_a_direct_evaluation_in_exact_arithmetic(self, baseline):
        rng = np.random.default_rng(28)
        count = 0
        for params in (baseline, *(draw_valid_params(rng) for _ in range(20))):
            for r in self.rejected(exact_params(params)):
                count += 1
                assert (*r.demands, *r.profits) == self.direct(r)
        assert count > 40


def test_shared_terms_on_arrays_equal_the_scalar_record_to_the_bit():
    # numpy squares an array by multiplication, so a batch evaluation of the
    # record reproduces the scalar one only where the scalar path squares by
    # multiplication too; the lambda_l values are those where a float power
    # (libm pow) rounds differently from x * x, when the platform has any
    rng = np.random.default_rng(27)
    draws = rng.uniform(0.0, 1.0, 200_000).tolist()
    differing = [x for x in draws if x**2 != x * x][:20]
    lambdas = differing + draws[:20]
    points = []
    for lam in lambdas:
        p = draw_valid_params(rng)
        points.append(p.replace(lambda_l=lam, b_l=max(p.b_l, lam)))
    batch = types.SimpleNamespace(
        **{name: np.array([getattr(p, name) for p in points]) for name in PARAM_FIELDS}
    )
    batch.total_cost = MarketParams.total_cost.fget(batch)
    batch.t1 = MarketParams.t1.fget(batch)
    arrays = shared_terms(batch)
    for i, p in enumerate(points):
        scalar = shared_terms(p)
        for name in SharedTerms._fields[1:]:
            assert float(getattr(arrays, name)[i]).hex() == getattr(scalar, name).hex(), (name, i)
