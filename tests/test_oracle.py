"""Best-response oracle: regime-exact responses, fixed points, and the
non-existence signal."""

import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bundlematch.oracle
from bundlematch import (
    InvalidPriceError,
    MarketParams,
    PriceVector,
    Regime,
    Scenario,
    SingularSystemError,
    best_response_r1,
    best_response_r2,
    eq_T1,
    eq_T4,
    find_fixed_point,
    find_fixed_points,
    profits,
    solve_subgame,
    structure,
)
from bundlematch.cli import main
from bundlematch.config import load_market_config
from bundlematch.market import FEASIBILITY_TOL, PARAM_FIELDS, kink_structure, regime_structures
from bundlematch.profits import hessian_matrix_r1, linear_terms_r1, quadratic_r2
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import BASES_AND_COSTS, GOLDEN_TABLE, draw_set_params, draw_valid_params, regime_of

CM_CM = Scenario.bundled(True, True)

SCENARIOS = {s.label(): s for s in TABLE_SCENARIOS}


_rng = np.random.default_rng(0)
SCAN_POINTS = [MarketParams.baseline()] + [draw_valid_params(_rng) for _ in range(3)]
# Inputs where the scan beats retailer 1's response: open defects of the
# oracle.  At points 1 and 2 an item price's unconstrained optimum is
# negative, and the response clamps it to zero instead of re-optimizing the
# other prices with it held there.  In UNDERCUT, pricing just below pb2 earns
# the R1_LOW strategic share; that supremum is not attained (an exact tie is
# R1_HIGH), so the response misses it.
CLAMPED_POINTS = (1, 2)
UNDERCUT = {
    (0, "noCM,noCM", "eq"),
    (0, "noCM,CM", "eq"),
    (3, "noCM,noCM", "kink"),
    (3, "noCM,CM", "kink"),
}


# undamped best response cycles here in noCM,noCM and noCM,CM
CYCLING = {"theta_l": 0.8, "b_s": 0.3}
# no pure-strategy equilibrium is found here under CM,CM
BLANK = {"b_l": 0.9, "b_s": 0.1, "lambda_l": 0.1, "theta_l": 0.1}


def _full_loop(params, scenario, damping):
    """Reference search: damped alternating best response for up to
    MAX_ITERS rounds, with no cycle check."""
    responses = bundlematch.oracle.BestResponses(params, scenario)
    pb1 = params.total_cost + 1.0 if scenario.bundling == 1 else None
    x = PriceVector(params.c1 + 1.0, params.c2 + 1.0, pb1, params.total_cost + 1.0)
    max_iters = bundlematch.oracle.MAX_ITERS
    for iteration in range(max_iters):
        r1_star = responses.respond_r1(x.pb2)
        star = PriceVector(*r1_star, responses.respond_r2(x))
        if star.sup_distance(x) < bundlematch.oracle.TOL_FP:
            converged = True
            break
        x = PriceVector(
            (1.0 - damping) * x.p1 + damping * star.p1,
            (1.0 - damping) * x.p2 + damping * star.p2,
            None if pb1 is None else (1.0 - damping) * x.pb1 + damping * star.pb1,
            (1.0 - damping) * x.pb2 + damping * star.pb2,
        )
    else:
        converged, iteration = False, max_iters
    return bundlematch.oracle.OracleOutcome(converged, x, iteration)


def _bits(value):
    """A float's exact bits; every NaN reads the same."""
    return "nan" if value != value else value.hex()


def _hex(prices):
    return [float(v).hex() for v in prices.present()]


@pytest.fixture
def count_quadratics(monkeypatch):
    """Calls of the oracle's hessian_matrix_r1 and quadratic_r2, by name."""
    calls = {"hessian_matrix_r1": 0, "quadratic_r2": 0}
    for name in calls:
        original = getattr(bundlematch.oracle, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(bundlematch.oracle, name, counted)
    return calls


class TestBestResponses:
    def test_r1_reproduces_closed_form_under_set_a(self):
        rng = np.random.default_rng(15)
        for _ in range(5):
            params = draw_set_params("A", rng)
            eq = eq_T1(params)
            p1, p2, pb1 = best_response_r1(params, CM_CM, eq.prices.pb2)
            assert p1 == pytest.approx(eq.prices.p1, abs=1e-6)
            assert p2 == pytest.approx(eq.prices.p2, abs=1e-6)
            assert pb1 == pytest.approx(eq.prices.pb1, abs=1e-6)

    def test_symmetric_market_gives_symmetric_items(self, baseline):
        params = baseline.replace(lambda_l=0.05)  # own-price effects dominate
        for pb2 in (50.0, 135.0, 250.0):
            p1, p2, _ = best_response_r1(params, CM_CM, pb2)
            assert p1 == pytest.approx(p2, abs=1e-9)
        p1, p2 = best_response_r1(params, Scenario.no_bundle(), 135.0)[:2]
        assert p1 == pytest.approx(p2, abs=1e-9)

    @pytest.mark.parametrize("level", ["eq", "kink"])
    @pytest.mark.parametrize("label", list(SCENARIOS))
    @pytest.mark.parametrize("point", range(len(SCAN_POINTS)))
    def test_coordinate_scans_find_no_improvement(self, point, label, level, request):
        # profit along each coordinate near the response is a concave section;
        # a fine scan must not beat the returned maximizer beyond tolerance.
        # pb2 is the high-regime candidate's ("eq"), or on the kink of its
        # retailer-1 price ("kink")
        if point in CLAMPED_POINTS:
            request.applymarker(pytest.mark.xfail(strict=True, reason="response clamped at zero"))
        elif (point, label, level) in UNDERCUT:
            request.applymarker(pytest.mark.xfail(strict=True, reason="undercut below the kink"))
        params, scen = SCAN_POINTS[point], SCENARIOS[label]
        candidate = solve_subgame(params, scen).candidates[0].prices
        pb2 = candidate.pb2 if level == "eq" else candidate.r1_bundle_equivalent()
        response = best_response_r1(params, scen, pb2)
        prices = PriceVector(response[0], response[1], response[2], pb2)
        best = profits(params, scen, prices).pi_r1
        offsets = np.arange(-5.0, 5.0 + 1e-12, 1e-3)
        coords = range(3 if scen.bundling == 1 else 2)
        for i in coords:
            values = []
            for delta in offsets:
                trial = [response[0], response[1], response[2]]
                trial[i] = trial[i] + delta
                if scen.bundling == 1 and trial[0] + trial[1] < trial[2]:
                    continue  # bundle may not exceed the sum of its parts
                pv = PriceVector(trial[0], trial[1], trial[2], pb2)
                values.append(profits(params, scen, pv).pi_r1)
            assert max(values) <= best + 1e-6

    @pytest.mark.parametrize(
        "label,entry",
        [
            ("CM,CM", "best_response_r1"),
            ("NoBundle", "best_response_r1"),
            ("CM,CM", "fixed_point"),
            ("NoBundle", "fixed_point"),
            ("CM,CM", "respond_r1"),
            ("NoBundle", "respond_r1"),
        ],
        ids=[
            "CM,CM", "NoBundle", "CM,CM-fixed_point", "NoBundle-fixed_point",
            "CM,CM-respond_r1", "NoBundle-respond_r1",
        ],
    )
    def test_r1_reports_a_singular_system(self, baseline, label, entry, monkeypatch):
        # every plan's system is nonsingular on the parameter domain
        # (test_exact_algebra proves the Hessians negative definite), so the
        # game is given zero Hessians: every plan's KKT system is then truly
        # singular, and the gufunc raises through the error callback, with
        # no warning, whether the response sets the error state itself or a
        # search set it once; the state is restored after the error
        def zero(params, s):
            n = 3 if s.bundling == 1 else 2
            return [[0.0] * n for _ in range(n)]

        monkeypatch.setattr(bundlematch.oracle, "hessian_matrix_r1", zero)
        scen = SCENARIOS[label]
        state = np.geterr(), np.geterrcall()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="^Singular matrix$") as raised:
                if entry == "fixed_point":
                    find_fixed_point(baseline, scen)
                elif entry == "respond_r1":
                    bundlematch.oracle.BestResponses(baseline, scen).respond_r1(135.0)
                else:
                    best_response_r1(baseline, scen, 135.0)
        assert type(raised.value) is SingularSystemError
        assert (np.geterr(), np.geterrcall()) == state

    def test_r2_reproduces_golden_price(self, baseline):
        prices = PriceVector(99.05, 99.05, 162.05, 0.0)
        assert best_response_r2(baseline, CM_CM, prices) == pytest.approx(135.0, abs=1e-6)

    def test_r2_solves_low_regime_formula_at_t4_point(self):
        rng = np.random.default_rng(16)
        found = 0
        while found < 5:
            params = draw_set_params("D", rng, require_feasible=False)
            eq = eq_T4(params)
            scen = Scenario.bundled(True, False)
            pb2 = best_response_r2(params, scen, eq.prices)
            expected = 0.5 * ((params.a_l_jb + params.a_q_jb) / (2.0 * params.b_l) + params.total_cost)
            if abs(pb2 - expected) <= 1e-6:
                found += 1
            # when matching r1's low bundle price is more profitable, the
            # response sits on the kink instead of the interior optimum
            else:
                assert pb2 == pytest.approx(eq.prices.pb1, abs=1e-6)

    def test_r2_degenerate_demand_stationary_at_half_cost(self):
        params = MarketParams.baseline(
            a_l_i1=0.0, a_l_i2=0.0, a_l_ib=0.0, a_q_ib=0.0,
            a_l_jb=0.0, a_q_jb=0.0, a_s=0.0,
        )
        r1_prices = PriceVector(50.0, 50.0, 100.0, 0.0)
        pb2 = best_response_r2(params, CM_CM, r1_prices)
        assert pb2 == pytest.approx(params.total_cost / 2.0, abs=1e-9)
        zero_cost = params.replace(c1=0.0, c2=0.0)
        assert best_response_r2(zero_cost, CM_CM, r1_prices) >= 0.0

    def test_responses_clamped_nonnegative(self):
        params = MarketParams.baseline(
            a_l_i1=0.0, a_l_i2=0.0, a_l_ib=0.0, a_q_ib=0.0,
            a_l_jb=0.0, a_q_jb=0.0, a_s=0.0, c1=0.0, c2=0.0,
        )
        p1, p2, pb1 = best_response_r1(params, CM_CM, 0.0)
        assert min(p1, p2, pb1) >= 0.0

    @pytest.mark.parametrize("label", SCENARIOS)
    def test_clamp_keeps_the_sign_of_zero(self, label):
        # in the zero market the best plan's components are signed zeros,
        # which the clamp max(v, 0.0) passes through unchanged; a clamp
        # written max(0.0, v) would turn each -0.0 into 0.0
        params = MarketParams.baseline(
            a_l_i1=0.0, a_l_i2=0.0, a_l_ib=0.0, a_q_ib=0.0,
            a_l_jb=0.0, a_q_jb=0.0, a_s=0.0, c1=0.0, c2=0.0,
        )
        want = ("0x0.0p+0", "-0x0.0p+0", None) if label == "NoBundle" else ("-0x0.0p+0",) * 3
        for pb2 in (0.0, -0.0, 1.0):
            assert _hex_r1(best_response_r1(params, SCENARIOS[label], pb2)) == want


class TestFixedPoints:
    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_baseline_converges_to_golden_row(self, baseline, label):
        expected = GOLDEN_TABLE[label]
        out = find_fixed_point(baseline, SCENARIOS[label])
        assert out.converged
        assert out.prices.p1 == pytest.approx(expected[0], abs=1e-2)
        assert out.prices.p2 == pytest.approx(expected[1], abs=1e-2)
        assert out.prices.r1_bundle_equivalent() == pytest.approx(expected[2], abs=1e-2)
        assert out.prices.pb2 == pytest.approx(expected[3], abs=1e-2)
        assert regime_of(out.prices) is Regime.R1_HIGH

    @pytest.mark.parametrize("label", ["CM,CM", "NoBundle"])
    def test_fixed_point_builds_plans_once(self, baseline, label, monkeypatch):
        # the Hessians, KKT matrices and retailer 2's stationary points depend
        # only on (params, scenario), so one search builds them once
        calls = {"hessian_matrix_r1": 0, "quadratic_r2": 0}
        for name in calls:
            original = getattr(bundlematch.oracle, name)

            def counted(*args, _original=original, _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(bundlematch.oracle, name, counted)
        out = find_fixed_point(baseline, SCENARIOS[label], damping=0.5)
        assert out.iterations > 2
        assert calls == {"hessian_matrix_r1": 3, "quadratic_r2": 2}

    def test_fixed_points_build_plans_once(self, baseline, count_quadratics):
        # all four starts share one game's plans
        find_fixed_points(baseline, CM_CM)
        assert count_quadratics == {"hessian_matrix_r1": 3, "quadratic_r2": 2}

    def test_best_response_r2_builds_no_r1_plans(self, baseline, count_quadratics):
        best_response_r2(baseline, CM_CM, PriceVector(99.05, 99.05, 162.05, 0.0))
        assert count_quadratics == {"hessian_matrix_r1": 0, "quadratic_r2": 2}

    def test_nonconvergence_in_blank_region(self, baseline):
        out = find_fixed_point(baseline.replace(**BLANK), CM_CM)
        assert not out.converged
        assert out.iterations == bundlematch.oracle.MAX_ITERS == 500

    @pytest.mark.parametrize(
        "damping,max_iters",
        [(1.0, 500), (0.7, 500), (1.0, 37), (1.0, 501)],
        ids=["default", "damping=0.7", "max_iters=37", "max_iters=501"],
    )
    def test_cycle_stop_matches_the_full_loop_bit_for_bit(
        self, baseline, damping, max_iters, monkeypatch
    ):
        # the odd caps land the full loop on either phase of a 2- or 4-cycle
        monkeypatch.setattr(bundlematch.oracle, "MAX_ITERS", max_iters)
        rng = np.random.default_rng(3)
        points = [baseline, baseline.replace(**CYCLING), baseline.replace(**BLANK)]
        points += [draw_valid_params(rng) for _ in range(10)]
        capped = 0
        for params in points:
            for scen in SCENARIOS.values():
                out = find_fixed_point(params, scen, damping)
                ref = _full_loop(params, scen, damping)
                assert (out.converged, out.iterations, regime_of(out.prices)) == (
                    ref.converged, ref.iterations, regime_of(ref.prices))
                assert _hex(out.prices) == _hex(ref.prices)
                capped += not ref.converged
        if damping == 1.0:
            assert capped  # cycling searches were among those compared

    def test_cycling_search_stops_early_but_reports_the_cap(self, baseline, monkeypatch):
        calls = 0
        respond_r1 = bundlematch.oracle.BestResponses._respond_r1

        def counted(self, pb2):
            nonlocal calls
            calls += 1
            return respond_r1(self, pb2)

        monkeypatch.setattr(bundlematch.oracle.BestResponses, "_respond_r1", counted)
        out = find_fixed_point(baseline.replace(**CYCLING), SCENARIOS["noCM,noCM"])
        assert out.iterations == 500
        assert out.converged is False
        assert 0 < calls <= 50

    def test_damping_reaches_the_same_fixed_point(self, baseline):
        heavy = find_fixed_point(baseline, CM_CM, damping=0.4)
        light = find_fixed_point(baseline, CM_CM, damping=1.0)
        assert heavy.converged and light.converged
        assert heavy.prices.sup_distance(light.prices) < 1e-5

    def test_converged_point_reproduces_under_best_response(self, baseline, monkeypatch):
        monkeypatch.setattr(bundlematch.oracle, "TOL_FP", 1e-10)
        out = find_fixed_point(baseline, CM_CM)
        assert out.converged
        r1 = best_response_r1(baseline, CM_CM, out.prices.pb2)
        r2 = best_response_r2(baseline, CM_CM, out.prices)
        star = PriceVector(r1[0], r1[1], r1[2], r2)
        assert star.sup_distance(out.prices) < 1e-10

    def test_each_response_weakly_improves_profit(self, baseline):
        # the undamped path from unit costs plus 1: both retailers respond to
        # the current prices until the step is below 1e-8
        scen = SCENARIOS["noCM,CM"]
        c = baseline.total_cost
        x = PriceVector(baseline.c1 + 1.0, baseline.c2 + 1.0, c + 1.0, c + 1.0)
        for _ in range(500):
            r1 = best_response_r1(baseline, scen, x.pb2)
            improved = PriceVector(r1[0], r1[1], r1[2], x.pb2)
            assert profits(baseline, scen, improved).pi_r1 >= profits(baseline, scen, x).pi_r1 - 1e-9
            pb2 = best_response_r2(baseline, scen, x)
            after = PriceVector(x.p1, x.p2, x.pb1, pb2)
            assert profits(baseline, scen, after).pi_r2 >= profits(baseline, scen, x).pi_r2 - 1e-9
            star = PriceVector(r1[0], r1[1], r1[2], pb2)
            if star.sup_distance(x) < 1e-8:
                break
            x = star
        else:
            pytest.fail("the undamped best-response path did not converge")
        assert find_fixed_point(baseline, scen).prices == x  # the oracle walks the same path

    def test_multi_start_dedupes_to_single_equilibrium(self, baseline):
        outs = find_fixed_points(baseline, CM_CM)
        assert all(o.converged for o in outs)
        assert len(outs) == 1  # unique equilibrium at the baseline

    def test_config_validation(self, baseline):
        with pytest.raises(ValueError, match="damping must lie in"):
            find_fixed_point(baseline, CM_CM, damping=0.0)


@pytest.fixture
def count_solves(monkeypatch):
    """Calls of the gufunc every response solves with, bundlematch.oracle._gesv."""
    calls = []
    gesv = bundlematch.oracle._gesv

    def counted(*args, **kwargs):
        calls.append(args)
        return gesv(*args, **kwargs)

    monkeypatch.setattr(bundlematch.oracle, "_gesv", counted)
    return calls


def _hex_r1(response):
    return tuple(None if v is None else v.hex() for v in response)


def _hex_terms(terms):
    return [g.hex() for g in terms]


class TestResponseMemo:
    def test_zero_and_negative_zero_are_computed_separately(self, baseline, count_solves):
        responses = bundlematch.oracle.BestResponses(baseline, CM_CM)
        at_zero = responses.respond_r1(0.0)
        at_negative_zero = responses.respond_r1(-0.0)
        assert len(count_solves) == 2
        assert _hex_r1(at_zero) == _hex_r1(best_response_r1(baseline, CM_CM, 0.0))
        assert _hex_r1(at_negative_zero) == _hex_r1(best_response_r1(baseline, CM_CM, -0.0))

    @pytest.mark.parametrize("label", ["CM,CM", "NoBundle"])
    def test_repeated_pb2_makes_no_second_solve(self, baseline, label, count_solves):
        responses = bundlematch.oracle.BestResponses(baseline, SCENARIOS[label])
        first = responses.respond_r1(135.0)
        assert len(count_solves) == 1
        assert responses.respond_r1(135.0) == first
        assert len(count_solves) == 1

    def test_r1_checks_finiteness_before_the_lookup(self, baseline):
        responses = bundlematch.oracle.BestResponses(baseline, CM_CM)
        responses.respond_r1(135.0)
        for pb2 in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="pb2 must be finite"):
                responses.respond_r1(pb2)

    def test_shared_object_matches_fresh_calls_bit_for_bit(self):
        # a seeded pb2 sequence with repeats, as a search revisits prices
        rng = np.random.default_rng(13)
        for _ in range(50):
            params = draw_valid_params(rng)
            levels = params.total_cost + rng.uniform(0.0, 300.0, 4)
            sequence = [*levels.tolist(), 0.0, -0.0]
            sequence = [sequence[i] for i in rng.integers(0, len(sequence), 12)]
            for scen in SCENARIOS.values():
                shared = bundlematch.oracle.BestResponses(params, scen)
                for pb2 in sequence:
                    got = shared.respond_r1(pb2)
                    assert _hex_r1(got) == _hex_r1(best_response_r1(params, scen, pb2))
                    r1_prices = PriceVector(got[0], got[1], got[2], pb2)
                    assert shared.respond_r2(r1_prices).hex() == (
                        best_response_r2(params, scen, r1_prices).hex()
                    )


def _filtered_r2(params, scenario, r1_prices):
    """Retailer 2's response by the rule that screened each stationary point
    with Regime.holds before clamping it to its side, dropping it when it
    lay on the other side; scored by evaluate's profit in the regime each
    candidate lies in."""
    r1_eq = r1_prices.r1_bundle_equivalent()
    candidates = [r1_eq]
    for s, side in zip(regime_structures(scenario), (min, max)):
        h, g0 = quadratic_r2(params, s)
        if s.regime.holds(r1_eq, -g0 / h):
            candidates.append(side(-g0 / h, r1_eq))
    best_value, best_pb2 = -math.inf, r1_eq
    for pb2 in candidates:
        value = profits(params, scenario, r1_prices._replace(pb2=pb2)).pi_r2
        if value > best_value:
            best_value, best_pb2 = value, pb2
    return max(best_pb2, 0.0)


def _r1_prices(scenario, r1_eq):
    """Retailer 1's prices with bundle-equivalent price r1_eq, to the bit."""
    if scenario.bundling:
        return PriceVector(30.0, 40.0, r1_eq, 0.0)
    return PriceVector(r1_eq, 0.0, None, 0.0)


class TestR2ReadsOnlyTheBundleEquivalent:
    def test_equal_r1_eq_gives_equal_bits(self):
        # retailer 2's demands read retailer 1's prices only through its
        # bundle-equivalent price, so item prices that keep it to the bit
        # keep retailer 2's profit and response to the bit
        rng = np.random.default_rng(34)
        for _ in range(60):
            params = draw_valid_params(rng)
            a, b, r1_eq = rng.uniform(0.0, 300.0, 3).tolist()
            pb2 = rng.uniform(0.0, 300.0)
            for scen in SCENARIOS.values():
                if scen.bundling:
                    pairs = [((a, b, r1_eq), (b, a + 1.0, r1_eq))]
                else:
                    # a + b, b + a and (a + b) + 0.0 are one float
                    pairs = [((a, b, None), (b, a, None)), ((a, b, None), (a + b, 0.0, None))]
                for left, right in pairs:
                    x, y = PriceVector(*left, pb2), PriceVector(*right, pb2)
                    assert x.r1_bundle_equivalent() == y.r1_bundle_equivalent()
                    assert _bits(profits(params, scen, x).pi_r2) == _bits(
                        profits(params, scen, y).pi_r2
                    )
                    assert best_response_r2(params, scen, x).hex() == (
                        best_response_r2(params, scen, y).hex()
                    )

    def test_clamping_every_point_answers_as_the_filtered_rule(self):
        # at and around each stationary point, on both sides of the
        # FEASIBILITY_TOL band: a point the filter dropped clamps to r1_eq
        # itself, which scores r1_eq's bits after it and never wins
        rng = np.random.default_rng(5)
        points = [MarketParams.baseline()] + [draw_valid_params(rng) for _ in range(40)]
        offsets = (0.0, 5e-10, -5e-10, 1e-9, -1e-9, 1e-8, -1e-8, 1.0, -1.0)
        compared, dropped = 0, 0
        for params in points:
            for scen in SCENARIOS.values():
                levels = [-0.0]
                for s in regime_structures(scen):
                    h, g0 = quadratic_r2(params, s)
                    levels += [-g0 / h + d for d in offsets]
                for r1_eq in levels:
                    r1_prices = _r1_prices(scen, r1_eq)
                    want = _filtered_r2(params, scen, r1_prices)
                    assert best_response_r2(params, scen, r1_prices).hex() == want.hex()
                    compared += 1
                for s in regime_structures(scen):
                    h, g0 = quadratic_r2(params, s)
                    dropped += sum(not s.regime.holds(v, -g0 / h) for v in levels)
        assert compared == len(points) * 5 * 19
        # the filter's drops are reached
        assert dropped > compared // 4


class TestPriceErrors:
    def test_infinite_stationary_points_raise(self, baseline):
        # admissible, but retailer 2's demand bases make both of its
        # stationary points +inf, which no evaluation may accept
        params = baseline.replace(a_l_jb=1e308, a_q_jb=1e308)
        scen = SCENARIOS["noCM,noCM"]
        responses = bundlematch.oracle.BestResponses(params, scen)
        assert responses._stationary_r2 == (math.inf, math.inf)
        with pytest.raises(InvalidPriceError, match="prices must be finite, got inf"):
            responses.respond_r2(PriceVector(50.0, 50.0, 90.0, 100.0))
        with pytest.raises(InvalidPriceError, match="prices must be finite, got inf"):
            find_fixed_point(params, scen)

    @pytest.mark.parametrize("label", SCENARIOS)
    def test_nan_stationary_points_raise(self, baseline, label):
        # admissible, but at b_l = 1e308 retailer 2's curvature is -inf and
        # its slope at zero +inf, so both stationary points are nan; a
        # clamped nan stays nan and must raise as an infinite point does
        params = baseline.replace(b_l=1e308)
        scen = SCENARIOS[label]
        responses = bundlematch.oracle.BestResponses(params, scen)
        assert all(map(math.isnan, responses._stationary_r2))
        pb1 = 90.0 if scen.bundling else None
        with pytest.raises(InvalidPriceError, match="prices must be finite, got nan"):
            responses.respond_r2(PriceVector(50.0, 40.0, pb1, 100.0))
        with pytest.raises((SingularSystemError, InvalidPriceError)):
            find_fixed_point(params, scen)

    @pytest.mark.parametrize(
        "p1,p2", [(float("nan"), 30.0), (30.0, float("inf"))], ids=["nan-p1", "inf-p2"]
    )
    def test_r2_validates_every_retailer_1_price(self, baseline, p1, p2):
        # retailer 2's profit reads r1's prices only through pb1 here, so
        # p1 and p2 meet the response only in its validation
        with pytest.raises(InvalidPriceError, match="prices must be finite"):
            best_response_r2(baseline, CM_CM, PriceVector(p1, p2, 50.0, 0.0))

    def test_r2_rejects_an_infinite_r1_bundle_price(self, baseline):
        # raised before any evaluation, whose InvalidPriceError would say
        # "prices must be finite, got inf"
        with pytest.raises(ValueError, match="r1 prices must be finite") as raised:
            best_response_r2(baseline, CM_CM, PriceVector(50.0, 50.0, math.inf, 100.0))
        assert type(raised.value) is ValueError

    def test_r2_requires_a_bundle_price_under_bundling(self, baseline):
        with pytest.raises(InvalidPriceError, match="pb1 is required"):
            best_response_r2(baseline, CM_CM, PriceVector(50.0, 50.0, None, 100.0))

    @pytest.mark.parametrize("label", SCENARIOS)
    def test_r1_rejects_a_non_finite_candidate(self, baseline, label):
        # admissible, but retailer 1's bundle bases overflow its plans to
        # nan: a nan plan must raise, not be dropped by a failed comparison
        params = baseline.replace(a_l_ib=1e308, a_q_ib=1e308)
        with pytest.raises(InvalidPriceError, match="prices must be finite, got nan"):
            best_response_r1(params, SCENARIOS[label], 135.0)

    def test_r1_raises_on_a_non_finite_plan_that_a_screen_would_drop(self):
        # draw 77 of draw_valid_params (seed 4) with its bases and costs near
        # 1e307: a plan solves to item prices (-inf, inf), whose bundle-
        # equivalent is nan, and every regime and bundle test compares false
        # with it, so it must raise before them; dropped, it would let the
        # search converge on prices near the float range's end
        params = MarketParams(
            a_l_i1=2.1115152475167684e306, a_l_i2=1.6866438070981707e307,
            a_l_ib=1.416852843154416e306, a_q_ib=1.3905922054163803e307,
            a_l_jb=4.1756611791706444e306, a_q_jb=2.2455582819209862e306,
            a_s=1.578300565058151e307, b_l=0.13724148532756436, b_s=0.0809660447221123,
            theta_l=0.8366477191463713, lambda_l=0.052780861783823046,
            c1=2.0576195136893873e306, c2=2.7220088520864384e306, alpha=0.5550528312862302,
        )
        for label in ("CM,CM", "CM,noCM"):
            with pytest.raises(InvalidPriceError, match="prices must be finite, got -inf"):
                best_response_r1(params, SCENARIOS[label], params.total_cost + 1.0)
            with pytest.raises(InvalidPriceError, match="prices must be finite, got -inf"):
                find_fixed_point(params, SCENARIOS[label])

    @pytest.mark.parametrize("label", ["CM,noCM", "NoBundle"])
    @pytest.mark.parametrize(
        "overrides", [{"a_s": 1e308}, {"a_q_jb": 1.7e308, "b_l": 0.5, "b_s": 0.5}], ids=["a_s", "a_q_jb"]
    )
    def test_multi_start_raises_on_a_start_beyond_the_float_range(self, baseline, overrides, label):
        # the price box's far corner, base over slope, overflows to inf: the
        # start is validated, not passed on as a pb2 the caller never gave
        params = baseline.replace(**overrides)
        # the one default start is finite, and so is its search's outcome
        assert all(map(math.isfinite, find_fixed_point(params, SCENARIOS[label]).prices.present()))
        with pytest.raises(InvalidPriceError, match="prices must be finite, got inf"):
            find_fixed_points(params, SCENARIOS[label])

    @pytest.mark.parametrize("label", SCENARIOS)
    def test_numpy_scalar_params_search_as_floats(self, baseline, label):
        # the search's error state raises on invalid: numpy-scalar fields
        # and a numpy-scalar pb2 must not carry the model's arithmetic into
        # it (at 1e154 a profit overflows to inf - inf)
        far = baseline.replace(**{
            name: getattr(baseline, name) * 1e154
            for name in ("a_l_i1", "a_l_i2", "a_l_ib", "a_q_ib", "a_l_jb", "a_q_jb", "a_s")
        })
        as_numpy = MarketParams(**{name: np.float64(getattr(far, name)) for name in PARAM_FIELDS})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = find_fixed_point(as_numpy, SCENARIOS[label])
            response = best_response_r1(far, SCENARIOS[label], np.float64(out.prices.pb2))
            corners = find_fixed_points(as_numpy, SCENARIOS[label])
        ref = find_fixed_point(far, SCENARIOS[label])
        assert (out.converged, out.iterations) == (ref.converged, ref.iterations)
        assert _hex(out.prices) == _hex(ref.prices)
        assert [_hex(o.prices) for o in corners] == [
            _hex(o.prices) for o in find_fixed_points(far, SCENARIOS[label])
        ]
        assert _hex_r1(response) == _hex_r1(best_response_r1(far, SCENARIOS[label], ref.prices.pb2))


# draw 56 of draw_valid_params (seed 3) with its seven demand bases and two
# costs times 1e6: the plans on the bundle-discount face p1 + p2 = pb1 miss
# it by one ulp of prices near 1e8, more than FEASIBILITY_TOL
SCALED_MARKET = Path(__file__).with_name("scaled_market.cfg")


class TestScaledMarket:
    def test_config_is_the_scaled_draw(self):
        rng = np.random.default_rng(3)
        params = [draw_valid_params(rng) for _ in range(57)][56]
        scaled = params.replace(**{name: getattr(params, name) * 1e6 for name in BASES_AND_COSTS})
        assert load_market_config(SCALED_MARKET) == scaled

    def test_a_face_candidate_off_by_rounding_is_kept(self):
        # every plan off the face fails its checks at this pb2, so the
        # response is a face plan, which the tolerance alone would reject
        params = load_market_config(SCALED_MARKET)
        pb2 = float.fromhex("0x1.d37b89c6383abp+26")
        p1, p2, pb1 = best_response_r1(params, SCENARIOS["CM,noCM"], pb2)
        assert -1e-15 * pb1 < p1 + p2 - pb1 < -FEASIBILITY_TOL

    @pytest.mark.parametrize("label", SCENARIOS)
    def test_every_subgame_is_searched(self, label):
        params = load_market_config(SCALED_MARKET)
        for damping in (1.0, 0.7):
            find_fixed_point(params, SCENARIOS[label], damping)

    def test_verify_reports_the_search(self, capsys):
        assert main(["verify", "--config", str(SCALED_MARKET), "--pmg", "r1=cm", "r2=nocm"]) == 0
        assert capsys.readouterr().out == (
            "closed form: no feasible equilibrium; oracle did not converge after 500 iterations\n"
        )


class TestStackedSolve:
    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_uncached_response_makes_one_solve(self, baseline, label, count_solves):
        responses = bundlematch.oracle.BestResponses(baseline, SCENARIOS[label])
        for pb2 in (60.0, 135.0, 210.0):
            before = len(count_solves)
            responses.respond_r1(pb2)
            assert len(count_solves) == before + 1

    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_a_search_sets_the_error_state_once(self, baseline, label, count_solves, monkeypatch):
        # a search enters the solve's error state once for all its rounds'
        # solves; a response asked for on its own enters it once per call
        entered = []
        errstate = bundlematch.oracle._solve_errstate

        def counted():
            entered.append(len(count_solves))
            return errstate()

        monkeypatch.setattr(bundlematch.oracle, "_solve_errstate", counted)
        find_fixed_point(baseline, SCENARIOS[label], damping=0.7)
        assert entered == [0] and len(count_solves) > 1
        solves = len(count_solves)
        responses = bundlematch.oracle.BestResponses(baseline, SCENARIOS[label])
        for pb2 in (60.0, 135.0, 60.0):
            responses.respond_r1(pb2)
        assert entered == [0, solves, solves + 1, solves + 2]

    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_uncached_response_evaluates_only_the_matched_terms(
        self, baseline, label, monkeypatch
    ):
        # the unmatched sides' linear terms are in the per-game right-hand
        # sides, so a response evaluates only those of a matched side: the
        # R1_HIGH row when retailer 1 has a PMG
        evaluated = []
        linear_terms_r1 = bundlematch.oracle.linear_terms_r1

        def counted(params, structures, pb2):
            evaluated.append(len(structures))
            return linear_terms_r1(params, structures, pb2)

        responses = bundlematch.oracle.BestResponses(baseline, SCENARIOS[label])
        assert responses._plans_r1.matched == ((0,) if SCENARIOS[label].pmg_r1 else ())
        monkeypatch.setattr(bundlematch.oracle, "linear_terms_r1", counted)
        for pb2 in (60.0, 135.0, 210.0):
            before = sum(evaluated)
            responses.respond_r1(pb2)
            assert sum(evaluated) - before == (1 if SCENARIOS[label].pmg_r1 else 0)

    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_game_setup_evaluates_only_zero_price_profiles(self, baseline, label, monkeypatch):
        # the setup reads each unmatched side's linear terms at pb2 = 0.0,
        # one demand profile a side, every price of it 0.0
        profiles = []
        # bundlematch.profits is the package's profits function, so the
        # module is read off a function it defines
        profits_module = sys.modules[linear_terms_r1.__module__]
        demands = profits_module.demands

        def counted(params, prices, eff):
            profiles.append(prices)
            return demands(params, prices, eff)

        monkeypatch.setattr(profits_module, "demands", counted)
        plans = bundlematch.oracle.BestResponses(baseline, SCENARIOS[label])._plans_r1
        assert len(profiles) == len(plans.structures) - len(plans.matched)
        for prices in profiles:
            assert prices.present() == (0.0,) * len(prices.present())

    def test_unmatched_linear_terms_do_not_read_pb2(self):
        # the fact the per-game right-hand sides rest on: an unmatched
        # structure's linear terms at any pb2 are its terms at 0.0, to the
        # bit; a matched structure's move at every level that does not
        # round away against the costs
        rng = np.random.default_rng(24)
        levels = [-0.0, 1e-300, 135.0, 1e150, *rng.uniform(0.0, 300.0, 6).tolist()]
        moved = unmatched = 0
        for _ in range(300):
            params = draw_valid_params(rng)
            for scen in SCENARIOS.values():
                for s in (*regime_structures(scen), kink_structure(scen)):
                    at_zero = _hex_terms(linear_terms_r1(params, (s,), 0.0)[0])
                    for pb2 in levels:
                        terms = _hex_terms(linear_terms_r1(params, (s,), pb2)[0])
                        if not s.r1_matched:
                            assert terms == at_zero, (s, pb2, params)
                        elif abs(pb2) >= 1.0:
                            moved += terms != at_zero
                    unmatched += not s.r1_matched
        assert unmatched == 300 * 13
        assert moved == 300 * 2 * 8

    @pytest.mark.parametrize("label", list(SCENARIOS))
    def test_template_stack_equals_the_per_plan_kkt_matrices_bit_for_bit(self, label):
        # the stack is a copy of the bundling value's template with the
        # game's Hessians assigned in; it must equal each plan's KKT matrix
        # built on its own from hessian_matrix_r1 and _kkt_matrix and
        # padded with an identity block, to the bit (signed zeros included)
        rng = np.random.default_rng(22)
        scen = SCENARIOS[label]
        bundled = scen.bundling == 1
        kink = np.array([0.0, 0.0, 1.0] if bundled else [1.0, 1.0])
        face = np.array([1.0, 1.0, -1.0])
        for _ in range(60):
            params = draw_valid_params(rng)
            record = bundlematch.oracle.BestResponses(params, scen)._plans_r1
            structures, plans, stack = record.structures, record.plans, record.stack
            assert structures == (
                structure(scen, Regime.R1_HIGH), structure(scen, Regime.R1_LOW),
                kink_structure(scen),
            )
            assert [(side, regime) for side, regime, _ in plans] == [
                (0, Regime.R1_HIGH), (1, Regime.R1_LOW), (2, None)
            ] * (2 if bundled else 1)
            assert [on_face for *_, on_face in plans] == [False] * 3 + [True] * (3 * bundled)
            size = stack.shape[1]
            for (side, regime, on_face), got in zip(plans, stack):
                h = np.array(hessian_matrix_r1(params, structures[side]))
                constraints = ([kink] if regime is None else []) + ([face] if on_face else [])
                kkt = bundlematch.oracle._kkt_matrix(h, constraints)
                want = np.eye(size)
                want[: len(kkt), : len(kkt)] = kkt
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("label", ["CM,CM", "NoBundle"])
    def test_padded_stack_solves_as_per_size_systems_bit_for_bit(self, label):
        # each plan's system padded with an identity block to the largest
        # size must solve to the same bits as the systems stacked by their
        # own size; a LAPACK build where the padding is inexact fails here
        rng = np.random.default_rng(21)
        scen = SCENARIOS[label]
        dims = 3 if scen.bundling == 1 else 2
        compared = 0
        for _ in range(60):
            params = draw_valid_params(rng)
            record = bundlematch.oracle.BestResponses(params, scen)._plans_r1
            plans, stack = record.plans, record.stack
            k, size = stack.shape[:2]
            assert size == (5 if scen.bundling == 1 else 3)
            sizes = [dims + (regime is None) + on_face for _, regime, on_face in plans]
            rhs = rng.uniform(-300.0, 300.0, (k, size))
            for row, n in enumerate(sizes):
                rhs[row, n:] = 0.0
            padded = np.linalg.solve(stack, rhs[:, :, None])[:, :, 0]
            for n in set(sizes):
                rows = [row for row, m in enumerate(sizes) if m == n]
                own = np.linalg.solve(stack[rows, :n, :n], rhs[rows, :n, None])[:, :, 0]
                assert np.array_equal(own.view(np.int64), padded[rows, :n].view(np.int64))
                assert not padded[rows, n:].any()
                compared += own.size
        assert compared == 60 * (23 if scen.bundling == 1 else 7)


class TestSolve:
    def test_equals_numpy_linalg_solve_to_the_bit(self, monkeypatch):
        # every stack and right-hand sides a response hands the gufunc, in
        # every subgame, at pb2 levels from both zeros to the costs times 12
        gesv = bundlematch.oracle._gesv
        calls = []

        def recorded(stack, columns, **kwargs):
            got = gesv(stack, columns, **kwargs)
            calls.append((stack, columns, got))
            return got

        monkeypatch.setattr(bundlematch.oracle, "_gesv", recorded)
        rng = np.random.default_rng(32)
        points = [MarketParams.baseline(), load_market_config(SCALED_MARKET)]
        points += [draw_valid_params(rng) for _ in range(60)]
        for params in points:
            c = params.total_cost
            for scen in SCENARIOS.values():
                responses = bundlematch.oracle.BestResponses(params, scen)
                for pb2 in (0.0, -0.0, 5e-324, 1.0, c, 4.0 * c, 12.0 * c):
                    responses.respond_r1(pb2)
        assert len(calls) == len(points) * len(SCENARIOS) * 7
        for stack, columns, got in calls:
            want = np.linalg.solve(stack, columns)
            assert got.shape == want.shape and got.dtype == want.dtype == np.float64
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("bundling", [1, 0])
    def test_a_singular_stack_raises_through_the_error_callback(self, bundling):
        # the plan template's Hessian blocks are zero, so each of its
        # systems is singular; the error comes from the error callback of
        # the solve's error state, with no warning, and the state is
        # restored
        _, template = bundlematch.oracle._PLAN_TEMPLATES[bundling]
        stack = template.reshape(-1, *template.shape[-2:])
        columns = np.ones((*stack.shape[:2], 1))
        state = np.geterr(), np.geterrcall()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError, match="^Singular matrix$") as raised:
                with bundlematch.oracle._solve_errstate():
                    bundlematch.oracle._gesv(stack, columns, signature="dd->d")
        assert type(raised.value) is SingularSystemError
        assert (np.geterr(), np.geterrcall()) == state
