"""The regime-structure table and the single evaluation path built on it."""

import ast
from pathlib import Path

import numpy as np
import pytest

import bundlematch
from bundlematch import (
    AmbiguousKinkError,
    MarketParams,
    PriceVector,
    Regime,
    Scenario,
    candidate_theorems,
    demands,
    effective_prices,
    profit_gradient_r1,
    profit_gradient_r2,
    profits,
    quadratic_r1,
    quadratic_r2,
    structure,
)
from bundlematch.equilibria import THEOREMS
from bundlematch.market import STRUCTURES

from conftest import draw_valid_params

ALL_SCENARIOS = (
    Scenario.bundled(True, True),
    Scenario.bundled(True, False),
    Scenario.bundled(False, True),
    Scenario.bundled(False, False),
    Scenario.no_bundle(),
)
REGIMES = (Regime.R1_HIGH, Regime.R1_LOW)


def test_no_module_imports_a_private_name_from_another():
    package = Path(bundlematch.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("bundlematch"):
                continue
            offenders += [f"{path.name}: {a.name}" for a in node.names if a.name.startswith("_")]
    assert offenders == []


class TestTable:
    def test_six_structures_one_per_theorem(self):
        assert sorted(STRUCTURES) == ["T1", "T2", "T3", "T4", "T5a", "T5b"]
        assert {s.condition_set for s in STRUCTURES.values()} == set("ABCDEF")
        assert {structure(sc, r) for sc in ALL_SCENARIOS for r in REGIMES} == set(
            STRUCTURES.values()
        )

    @pytest.mark.parametrize("scenario", ALL_SCENARIOS, ids=lambda s: s.label())
    def test_candidates_are_the_structures_matching_regime_and_pmgs(self, scenario):
        high, low = (STRUCTURES[tid] for tid in candidate_theorems(scenario))
        for s, regime in ((high, Regime.R1_HIGH), (low, Regime.R1_LOW)):
            assert s.regime is regime
            assert s.bundling == scenario.bundling
            assert structure(scenario, regime) is s
        # only the PMG of the retailer posting the higher price can act
        assert (high.r1_matched, high.r2_matched) == (scenario.pmg_r1, False)
        assert (low.r1_matched, low.r2_matched) == (False, scenario.pmg_r2)
        assert not high.strategic_at_r1 and low.strategic_at_r1

    def test_strategic_share_rules(self):
        shares = {tid: s.strategic_share(0.3) for tid, s in STRUCTURES.items()}
        assert shares == {"T1": 0.3, "T2": 0.0, "T3": 0.3, "T4": 1.0, "T5a": 0.0, "T5b": 1.0}

    def test_own_strategic_weights(self):
        # (retailer 1, retailer 2): only the side strategic buyers pay weighs
        weights = {tid: s.own_strategic_weights(0.3) for tid, s in STRUCTURES.items()}
        assert weights == {
            "T1": (0.0, 0.7), "T2": (0.0, 1.0), "T3": (0.3, 0.0),
            "T4": (1.0, 0.0), "T5a": (0.0, 1.0), "T5b": (1.0, 0.0),
        }


def _prices(rng, scenario, tie):
    p1, p2 = rng.uniform(1.0, 250.0, size=2)
    if scenario.bundling == 0:
        return PriceVector(p1, p2, None, p1 + p2 if tie else rng.uniform(1.0, 400.0))
    pb1 = rng.uniform(1.0, p1 + p2)
    return PriceVector(p1, p2, pb1, pb1 if tie else rng.uniform(1.0, 400.0))


class TestPresumedRegime:
    def test_none_equals_the_classified_regime(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            params = draw_valid_params(rng)
            scen = ALL_SCENARIOS[rng.integers(len(ALL_SCENARIOS))]
            prices = _prices(rng, scen, tie=False)
            regime = effective_prices(scen, prices).regime
            assert effective_prices(scen, prices, regime) == effective_prices(scen, prices)
            assert profits(params, scen, prices, regime) == profits(params, scen, prices)
            g1 = profit_gradient_r1(params, scen, prices)
            assert np.array_equal(profit_gradient_r1(params, scen, prices, regime), g1)
            g2 = profit_gradient_r2(params, scen, prices)
            assert profit_gradient_r2(params, scen, prices, regime) == g2

    @pytest.mark.parametrize("scen", ALL_SCENARIOS, ids=lambda s: s.label())
    def test_exact_ties_are_r1_high(self, scen):
        rng = np.random.default_rng(12)
        for _ in range(50):
            params = draw_valid_params(rng)
            prices = _prices(rng, scen, tie=True)
            eff = effective_prices(scen, prices)
            assert eff.regime is Regime.R1_HIGH
            assert effective_prices(scen, prices, Regime.R1_HIGH) == eff
            assert profits(params, scen, prices, Regime.R1_HIGH) == profits(params, scen, prices)
            with pytest.raises(AmbiguousKinkError):
                profit_gradient_r1(params, scen, prices)
            with pytest.raises(AmbiguousKinkError):
                profit_gradient_r2(params, scen, prices)
            # a presumed regime has a gradient on the kink too
            profit_gradient_r1(params, scen, prices, Regime.R1_LOW)


class TestOneEvaluation:
    def test_candidates_equal_the_public_functions(self):
        # a candidate reads demands, profits and both gradients off one
        # evaluation of its prices; each must equal the public function
        # evaluated afresh, bit for bit
        rng = np.random.default_rng(17)
        points = [MarketParams.baseline()] + [draw_valid_params(rng) for _ in range(50)]
        for params in points:
            for scen in ALL_SCENARIOS:
                for tid in candidate_theorems(scen):
                    r = THEOREMS[tid](params)
                    prices, regime = r.prices, r.regime
                    eff = effective_prices(scen, prices, regime)
                    assert r.demands == demands(params, prices, eff)
                    assert r.profits == profits(params, scen, prices, regime)
                    g1 = profit_gradient_r1(params, scen, prices, regime)
                    g2 = profit_gradient_r2(params, scen, prices, regime)
                    assert r.foc_residual == max(float(np.max(np.abs(g1))), abs(g2))


class TestQuadratics:
    @pytest.mark.parametrize("scen", ALL_SCENARIOS, ids=lambda s: s.label())
    @pytest.mark.parametrize("regime", REGIMES)
    def test_quadratic_reproduces_the_gradient(self, scen, regime):
        rng = np.random.default_rng(13)
        for _ in range(20):
            params = draw_valid_params(rng)
            prices = _prices(rng, scen, tie=False)
            s = structure(scen, regime)
            h, g0 = quadratic_r1(params, s, prices.pb2)
            x = np.array(prices.present()[:-1])
            expected = profit_gradient_r1(params, scen, prices, regime)
            assert h @ x + g0 == pytest.approx(expected, rel=1e-9, abs=1e-9)
            h2, g02 = quadratic_r2(params, s)
            expected2 = profit_gradient_r2(params, scen, prices, regime)
            assert h2 * prices.pb2 + g02 == pytest.approx(expected2, rel=1e-9, abs=1e-9)
