"""Market layer: effective-price resolution and segment demands."""

import math

import numpy as np
import pytest

from bundlematch import (
    DemandProfile,
    EffectivePrices,
    InvalidParameterError,
    InvalidPriceError,
    MarketParams,
    PriceVector,
    ProfitPair,
    Regime,
    Scenario,
    check_condition_set,
    compare_policies,
    demands,
    effective_prices,
    eq_T1,
    find_fixed_point,
    solve_subgame,
)
from bundlematch.market import largest_magnitude, structure_at
from bundlematch.sweep import GridCell

CM_CM = Scenario.bundled(True, True)
NOCM_NOCM = Scenario.bundled(False, False)
NO_BUNDLE = Scenario.no_bundle()


class TestEffectivePrices:
    def test_both_pmgs_high_regime(self, baseline):
        prices = PriceVector(99.05, 99.05, 162.05, 135.0)
        eff = effective_prices(CM_CM, prices)
        assert eff.tilde_pb1 == 135.0
        assert eff.tilde_pb2 == 135.0
        assert eff.hat_pb == 135.0
        assert structure_at(CM_CM, prices).regime is Regime.R1_HIGH

    def test_no_pmg_tie(self, baseline):
        prices = PriceVector(80.0, 80.0, 100.0, 100.0)
        eff = effective_prices(NOCM_NOCM, prices)
        assert (eff.tilde_pb1, eff.tilde_pb2, eff.hat_pb) == (100.0, 100.0, 100.0)
        assert structure_at(NOCM_NOCM, prices).regime is Regime.R1_HIGH  # ties are R1_HIGH

    def test_no_bundle_composite_price(self, baseline):
        prices = PriceVector(73.18, 73.18, None, 135.0)
        eff = effective_prices(NO_BUNDLE, prices)
        assert eff.hat_pb == 135.0
        assert structure_at(NO_BUNDLE, prices).regime is Regime.R1_HIGH  # 146.36 >= 135
        assert eff.tilde_pb1 == pytest.approx(146.36)

    def test_pmg_applies_only_when_rival_cheaper(self, baseline):
        prices = PriceVector(80.0, 80.0, 120.0, 150.0)  # r1 cheaper
        eff = effective_prices(CM_CM, prices)
        assert eff.tilde_pb1 == 120.0  # own price already lowest
        assert eff.tilde_pb2 == 120.0  # r2 matches down
        assert structure_at(CM_CM, prices).regime is Regime.R1_LOW

    def test_rejects_nonfinite(self, baseline):
        with pytest.raises(InvalidPriceError):
            effective_prices(CM_CM, PriceVector(math.nan, 80.0, 120.0, 150.0))
        with pytest.raises(InvalidPriceError):
            effective_prices(NO_BUNDLE, PriceVector(80.0, math.inf, None, 150.0))

    def test_rejects_pb1_without_bundling(self, baseline):
        with pytest.raises(InvalidPriceError):
            effective_prices(NO_BUNDLE, PriceVector(80.0, 80.0, 150.0, 150.0))

    def test_rejects_missing_pb1_with_bundling(self, baseline):
        with pytest.raises(InvalidPriceError):
            effective_prices(CM_CM, PriceVector(80.0, 80.0, None, 150.0))

    def test_pmg_never_raises_own_effective_price(self, baseline):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p1, p2, pb1, pb2 = rng.uniform(0.0, 300.0, size=4)
            prices = PriceVector(p1, p2, pb1, pb2)
            for pmg_r2 in (False, True):
                off = effective_prices(Scenario.bundled(False, pmg_r2), prices)
                on = effective_prices(Scenario.bundled(True, pmg_r2), prices)
                assert on.tilde_pb1 <= off.tilde_pb1
            for pmg_r1 in (False, True):
                off = effective_prices(Scenario.bundled(pmg_r1, False), prices)
                on = effective_prices(Scenario.bundled(pmg_r1, True), prices)
                assert on.tilde_pb2 <= off.tilde_pb2

    def test_hat_is_market_minimum(self, baseline):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            p1, p2, pb1, pb2 = rng.uniform(0.0, 400.0, size=4)
            scen = Scenario.bundled(bool(rng.integers(2)), bool(rng.integers(2)))
            eff = effective_prices(scen, PriceVector(p1, p2, pb1, pb2))
            assert eff.hat_pb == min(pb1, pb2)
            eff0 = effective_prices(NO_BUNDLE, PriceVector(p1, p2, None, pb2))
            assert eff0.hat_pb == min(p1 + p2, pb2)


class TestDemands:
    def test_golden_row_both_pmgs(self, baseline):
        prices = PriceVector(99.05, 99.05, 162.05, 135.0)
        eff = effective_prices(CM_CM, prices)
        d = demands(baseline, prices, eff)
        assert d.d_l_i1 == pytest.approx(29.75, abs=0.01)
        assert d.d_l_i2 == pytest.approx(29.75, abs=0.01)
        assert d.d_l_ib == pytest.approx(46.0, abs=0.01)
        assert d.d_q_ib == pytest.approx(64.93, abs=0.01)
        assert d.d_l_jb == pytest.approx(46.0, abs=0.01)
        assert d.d_q_jb == pytest.approx(46.0, abs=0.01)
        assert d.d_s == pytest.approx(46.0, abs=0.01)

    def test_zero_prices_recover_bases(self, baseline):
        prices = PriceVector(0.0, 0.0, 0.0, 0.0)
        eff = effective_prices(CM_CM, prices)
        d = demands(baseline, prices, eff)
        assert tuple(d) == (100.0,) * 7
        prices0 = PriceVector(0.0, 0.0, None, 0.0)
        eff0 = effective_prices(NO_BUNDLE, prices0)
        assert tuple(demands(baseline, prices0, eff0)) == (100.0,) * 7

    def test_item_demand_decouples_from_bundle_price_without_gap_term(self, baseline):
        # the d_l_i1 slope in pb1 is exactly lambda_l, so it vanishes with it
        params = baseline.replace(lambda_l=1e-9)
        for pb1 in (100.0, 150.0):
            base = PriceVector(80.0, 80.0, pb1, 200.0)
            eff = effective_prices(CM_CM, base)
            d1 = demands(params, base, eff).d_l_i1
            bumped = PriceVector(80.0, 80.0, pb1 + 10.0, 200.0)
            d2 = demands(params, bumped, effective_prices(CM_CM, bumped)).d_l_i1
            assert abs(d2 - d1) == pytest.approx(10.0 * params.lambda_l, abs=1e-12)
            assert abs(d2 - d1) < 1e-7

    def test_linear_slope_in_own_price(self, baseline):
        h = 1.0
        lo = PriceVector(80.0, 90.0, 200.0, 300.0)
        hi = PriceVector(80.0 + h, 90.0, 200.0, 300.0)
        d_lo = demands(baseline, lo, effective_prices(CM_CM, lo))
        d_hi = demands(baseline, hi, effective_prices(CM_CM, hi))
        slope = (d_hi.d_l_i1 - d_lo.d_l_i1) / h
        assert slope == pytest.approx(-(baseline.b_l + baseline.lambda_l), abs=1e-10)


class TestTypes:
    def test_no_bundle_scenario_canonicalizes_pmg_flags(self):
        scen = Scenario(bundling=0, pmg_r1=True, pmg_r2=True)
        assert scen.pmg_r1 is False and scen.pmg_r2 is False
        assert scen.label() == "NoBundle"

    def test_bundling_flag_must_be_0_or_1(self):
        with pytest.raises(InvalidParameterError, match="bundling flag must be 0 or 1"):
            Scenario(bundling=2)

    def test_scenario_labels(self):
        assert Scenario.bundled(True, False).label() == "CM,noCM"
        assert Scenario.bundled(False, True).label() == "noCM,CM"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"theta_l": 1.0},
            {"theta_l": 0.0},
            {"lambda_l": 0.0},
            {"lambda_l": 0.5, "b_l": 0.4},  # b_l < lambda_l
            {"b_l": 0.0},
            {"b_s": -0.1},
            {"a_l_i1": -1.0},
            {"alpha": 1.2},
            {"c1": -0.5},
        ],
    )
    def test_parameter_invariants_rejected(self, overrides):
        with pytest.raises(InvalidParameterError) as built:
            MarketParams.baseline(**overrides)
        with pytest.raises(InvalidParameterError) as replaced:
            MarketParams.baseline().replace(**overrides)
        assert str(replaced.value) == str(built.value)

    @pytest.mark.parametrize("name", ["c1", "c2", "a_s", "a_l_i1", "b_l", "b_s", "alpha", "theta_l"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_nonfinite_parameters_rejected(self, name, value):
        # NaN slips through every `<`/`>=` invariant, and +inf through the
        # lower bounds, so finiteness is checked on its own
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            MarketParams.baseline(**{name: value})
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            MarketParams.baseline().replace(**{name: value})

    def test_replace_is_a_validated_copy(self):
        base = MarketParams.baseline()
        copy = base.replace(c1=5.0, theta_l=0.25)
        made = MarketParams.baseline(c1=5.0, theta_l=0.25)
        assert copy == made and hash(copy) == hash(made) and repr(copy) == repr(made)
        assert base == MarketParams.baseline()
        with pytest.raises(TypeError, match="no field 'bogus'"):
            base.replace(c1=5.0, bogus=1.0)

    @pytest.mark.parametrize(
        "record",
        [
            PriceVector(10.0, 20.0, 25.0, 40.0),
            PriceVector(10.0, 20.0, None, 40.0),
            EffectivePrices(40.0, 25.0, 25.0),
            DemandProfile(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0),
            ProfitPair(1.0, 2.0),
            eq_T1(MarketParams.baseline()),
            solve_subgame(MarketParams.baseline(), CM_CM),
            compare_policies(MarketParams.baseline()),
            GridCell(0.3, 0.5, 4380.0, "CM,noCM"),
            find_fixed_point(MarketParams.baseline(), CM_CM),
            check_condition_set("A", MarketParams.baseline()).inequalities[0],
            check_condition_set("A", MarketParams.baseline()),
        ],
        ids=lambda r: type(r).__name__,
    )
    def test_records_are_immutable(self, record):
        before = tuple(record)
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            record.extra = 0.0
        assert not hasattr(record, "__dict__")
        assert tuple(record) == before

    def test_sup_distance_rejects_different_shapes(self):
        bundled = PriceVector(10.0, 20.0, 25.0, 40.0)
        unbundled = PriceVector(10.0, 20.0, None, 40.0)
        with pytest.raises(InvalidPriceError, match="different shapes"):
            bundled.sup_distance(unbundled)
        with pytest.raises(InvalidPriceError, match="different shapes"):
            unbundled.sup_distance(bundled)

    # Python's max keeps a NaN only in first place, so every distance and
    # the equilibria's residual take largest_magnitude, which keeps a NaN
    # from any place
    def test_nan_in_any_place_is_the_largest_magnitude(self):
        assert math.isnan(largest_magnitude((1.0, math.nan)))
        assert math.isnan(largest_magnitude((math.nan, 1.0)))
        assert largest_magnitude((-3.0, 2.0)) == 3.0
        assert largest_magnitude(iter((-0.0, 0.0))).hex() == "0x0.0p+0"

    @pytest.mark.parametrize("bundled", [True, False], ids=["B=1", "B=0"])
    def test_a_nan_in_any_present_place_is_the_distance(self, bundled):
        prices = PriceVector(10.0, 20.0, 25.0 if bundled else None, 40.0)
        fields = ("p1", "p2", "pb1", "pb2") if bundled else ("p1", "p2", "pb2")
        for field in fields:
            with_nan = prices._replace(**{field: math.nan})
            for a, b in ((prices, with_nan), (with_nan, prices)):
                assert math.isnan(a.sup_distance(b)), field
                assert math.isnan(a.relative_distance(b)), field

    def test_finite_distances_keep_their_bits(self):
        # the largest |difference|, as Python's max over them returns it
        rng = np.random.default_rng(34)
        for bundled in (True, False):
            for _ in range(200):
                p1, p2, pb1, pb2, q1, q2, qb1, qb2 = rng.uniform(-1e3, 1e3, 8).tolist()
                a = PriceVector(p1, p2, pb1 if bundled else None, pb2)
                b = PriceVector(q1, q2, qb1 if bundled else None, qb2)
                pairs = list(zip(a.present(), b.present()))
                want = max(abs(x - y) for x, y in pairs)
                scale = max(1.0, max(abs(v) for v in a.present()))
                assert a.sup_distance(b).hex() == want.hex()
                assert a.relative_distance(b).hex() == (want / scale).hex()
        assert PriceVector(0.0, -0.0, None, 1.0).sup_distance(
            PriceVector(-0.0, 0.0, None, 1.0)
        ).hex() == "0x0.0p+0"

    def test_bundle_equivalent_price(self):
        assert PriceVector(10.0, 20.0, 25.0, 40.0).r1_bundle_equivalent() == 25.0
        assert PriceVector(10.0, 20.0, None, 40.0).r1_bundle_equivalent() == 30.0
