"""The regime-structure table and the single evaluation path built on it."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import bundlematch
from bundlematch import (
    MarketParams,
    PriceVector,
    Regime,
    candidate_theorems,
    demands,
    effective_prices,
    profits,
    quadratic_r2,
    structure,
)
from bundlematch.equilibria import THEOREMS
from bundlematch.market import STRUCTURES, structure_at
from bundlematch.profits import (
    gradient_r1_at,
    gradient_r2_at,
    hessian_matrix_r1,
    linear_terms_r1,
    profits_at,
)
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import draw_valid_params

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


def _dotted(node):
    """The dotted name an Attribute chain (or a Name) reads, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _module_imports(body):
    """The import statements at module level, under a module-level `if`
    (such as `if TYPE_CHECKING:`) included."""
    for stmt in body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            yield stmt
        elif isinstance(stmt, ast.If):
            yield from _module_imports(stmt.body + stmt.orelse)


def test_every_module_level_import_is_read():
    # a name a module imports is read by some Name or Attribute node, or is
    # re-exported through __all__; `import a.b` needs a read of a.b itself
    package = Path(bundlematch.__file__).parent
    offenders = []
    for path in sorted([*package.glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        tree = ast.parse(path.read_text())
        reads = {
            _dotted(node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            or (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        }
        exported = set()
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exported = set(ast.literal_eval(stmt.value))
        for stmt in _module_imports(tree.body):
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name
                if name in exported or any(
                    r == name or r.startswith(name + ".") for r in reads if r
                ):
                    continue
                offenders.append(f"{path.name}: {name}")
    assert offenders == []


class TestTable:
    def test_six_structures_one_per_theorem(self):
        assert sorted(STRUCTURES) == ["T1", "T2", "T3", "T4", "T5a", "T5b"]
        assert {s.condition_set for s in STRUCTURES.values()} == set("ABCDEF")
        assert {structure(sc, r) for sc in TABLE_SCENARIOS for r in REGIMES} == set(
            STRUCTURES.values()
        )

    @pytest.mark.parametrize("scenario", TABLE_SCENARIOS, ids=lambda s: s.label())
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


def _strictly_in(prices, regime):
    """Whether prices lie strictly on regime's side of the kink."""
    r1_eq = prices.r1_bundle_equivalent()
    return r1_eq != prices.pb2 and Regime.of(r1_eq, prices.pb2) is regime


def _tie_neighbourhood(rng, scenario):
    """(prices, regime they lie in): an exact tie, pb2 one ulp either side
    of it, and the ties of 0.0 against -0.0 either way round."""
    tie = _prices(rng, scenario, tie=True)
    r1_eq = tie.r1_bundle_equivalent()
    out = [
        (tie, Regime.R1_HIGH),
        (tie._replace(pb2=math.nextafter(r1_eq, -math.inf)), Regime.R1_HIGH),
        (tie._replace(pb2=math.nextafter(r1_eq, math.inf)), Regime.R1_LOW),
    ]
    for r1_zero, pb2 in ((0.0, -0.0), (-0.0, 0.0)):
        # under B=0 the item prices sum to a zero of their own sign
        pb1 = r1_zero if scenario.bundling == 1 else None
        out.append((PriceVector(r1_zero, r1_zero, pb1, pb2), Regime.R1_HIGH))
    return out


class TestTieRule:
    def test_prices_are_evaluated_in_the_regime_of_the_tie_rule(self):
        # Regime.of is the only tie rule: structure_at and effective_prices
        # classify with it, and profits() evaluates under that regime's
        # structure, bit for bit, at random prices and on and beside the kink
        rng = np.random.default_rng(11)
        for _ in range(100):
            params = draw_valid_params(rng)
            for scen in TABLE_SCENARIOS:
                points = [(_prices(rng, scen, tie=False), None), *_tie_neighbourhood(rng, scen)]
                for prices, expected in points:
                    regime = Regime.of(prices.r1_bundle_equivalent(), prices.pb2)
                    eff = effective_prices(scen, prices)
                    assert regime is structure_at(scen, prices).regime
                    assert expected in (None, regime)
                    s = structure(scen, regime)
                    assert structure_at(scen, prices) is s
                    assert s.effective_prices(prices) == eff
                    got = profits(params, scen, prices)
                    want = profits_at(params, s, prices, eff, demands(params, prices, eff))
                    assert (got.pi_r1.hex(), got.pi_r2.hex()) == (
                        want.pi_r1.hex(), want.pi_r2.hex())

    @pytest.mark.parametrize("scen", TABLE_SCENARIOS, ids=lambda s: s.label())
    def test_exact_ties_are_r1_high(self, scen):
        rng = np.random.default_rng(12)
        high, low = structure(scen, Regime.R1_HIGH), structure(scen, Regime.R1_LOW)
        for _ in range(50):
            params = draw_valid_params(rng)
            prices = _prices(rng, scen, tie=True)
            eff = effective_prices(scen, prices)
            assert structure_at(scen, prices) is high
            assert high.effective_prices(prices) == eff
            d = demands(params, prices, eff)
            assert profits_at(params, high, prices, eff, d) == profits(params, scen, prices)
            # a presumed regime has a gradient on the kink
            eff_low = low.effective_prices(prices)
            g1 = gradient_r1_at(params, low, prices, eff_low, demands(params, prices, eff_low))
            assert all(map(math.isfinite, g1))


class TestOneEvaluation:
    def test_candidates_equal_the_public_functions(self):
        # a candidate reads demands, profits and both gradients off one
        # evaluation of its prices in the regime it was derived in.  Strictly
        # inside that regime that evaluation must be the one profits() makes
        # afresh, bit for bit; elsewhere, the structure-level functions
        rng = np.random.default_rng(17)
        points = [MarketParams.baseline()] + [draw_valid_params(rng) for _ in range(50)]
        inside = outside = 0
        for params in points:
            for scen in TABLE_SCENARIOS:
                for tid in candidate_theorems(scen):
                    r = THEOREMS[tid](params)
                    prices, s = r.prices, structure(scen, r.regime)
                    eff = s.effective_prices(prices)
                    d = demands(params, prices, eff)
                    if _strictly_in(prices, r.regime):
                        inside += 1
                        assert structure_at(scen, prices) is s
                        assert eff == effective_prices(scen, prices)
                        assert r.profits == profits(params, scen, prices)
                    else:
                        outside += 1
                        assert r.profits == profits_at(params, s, prices, eff, d)
                    g1 = np.array(gradient_r1_at(params, s, prices, eff, d))
                    g2 = gradient_r2_at(params, s, prices.pb2)
                    assert r.demands == d
                    assert r.foc_residual == max(float(np.max(np.abs(g1))), abs(g2))
        assert inside and outside


class TestQuadratics:
    @pytest.mark.parametrize("scen", TABLE_SCENARIOS, ids=lambda s: s.label())
    @pytest.mark.parametrize("regime", REGIMES)
    def test_quadratic_reproduces_the_gradient(self, scen, regime):
        rng = np.random.default_rng(13)
        checked = 0
        while checked < 20:
            params = draw_valid_params(rng)
            prices = _prices(rng, scen, tie=False)
            if not _strictly_in(prices, regime):
                continue
            checked += 1
            s = structure(scen, regime)
            h = hessian_matrix_r1(params, s)
            g0 = np.array(linear_terms_r1(params, (s,), prices.pb2)[0])
            x = np.array(prices.present()[:-1])
            eff = s.effective_prices(prices)
            expected = gradient_r1_at(params, s, prices, eff, demands(params, prices, eff))
            assert h @ x + g0 == pytest.approx(expected, rel=1e-9, abs=1e-9)
            h2, g02 = quadratic_r2(params, s)
            expected2 = gradient_r2_at(params, s, prices.pb2)
            assert h2 * prices.pb2 + g02 == pytest.approx(expected2, rel=1e-9, abs=1e-9)
