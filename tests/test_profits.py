"""Profit evaluation, strategic-demand splitting, analytic gradients and the
per-regime curvature."""

import numpy as np
import pytest

from bundlematch import (
    InvalidPriceError,
    PriceVector,
    Regime,
    Scenario,
    demands,
    eq_T1,
    profits,
    structure,
)
from bundlematch.market import STRUCTURES, kink_structure, structure_at
from bundlematch.profits import (
    _hessian_r2,
    evaluate,
    gradient_r1_at,
    gradient_r2_at,
    hessian_matrix_r1,
    profit_r1,
    profit_r2,
    profits_at,
)
from bundlematch.sweep import TABLE_SCENARIOS

from conftest import draw_set_params, draw_valid_params

CM_CM = Scenario.bundled(True, True)


def reference_profits(params, scenario, prices):
    """Independent straight-line evaluator: recompute effective prices,
    demands, the strategic split, and the margin-times-demand sums from
    scratch, without touching the package's evaluation path."""
    p = params
    c = p.c1 + p.c2
    p1, p2, pb2 = prices.p1, prices.p2, prices.pb2
    if scenario.bundling == 1:
        pb1 = prices.pb1
        r1_eq = pb1
        t1 = pb2 if (scenario.pmg_r1 and pb1 >= pb2) else pb1
        t2 = pb1 if (scenario.pmg_r2 and pb2 > pb1) else pb2
    else:
        pb1 = None
        r1_eq = p1 + p2
        t1, t2 = r1_eq, pb2
    hat = min(r1_eq, pb2)
    if r1_eq > pb2:
        share = p.alpha if (scenario.bundling == 1 and scenario.pmg_r1) else 0.0
    elif r1_eq < pb2:
        share = p.alpha if (scenario.bundling == 1 and scenario.pmg_r2) else 1.0
    else:
        share = p.alpha if (scenario.bundling == 1 and scenario.pmg_r1) else 0.0
    if scenario.bundling == 1:
        d_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2 + p.lambda_l * (pb1 - p1 - p2)
        d_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2 + p.lambda_l * (pb1 - p1 - p2)
        d_ib = p.a_l_ib - p.b_l * pb1 + p.lambda_l * (p1 + p2 - pb1)
        d_qib = p.a_q_ib - p.b_l * t1 + p.lambda_l * (p1 + p2 - t1)
        pi1 = (
            (p1 - p.c1) * d_i1
            + (p2 - p.c2) * d_i2
            + (pb1 - c) * d_ib
            + (t1 - c) * d_qib
            + share * (hat - c) * (p.a_s - p.b_s * hat)
        )
    else:
        s = p1 + p2
        d_i1 = p.a_l_i1 - p.b_l * p1 - p.b_l * p.theta_l * p2
        d_i2 = p.a_l_i2 - p.b_l * p.theta_l * p1 - p.b_l * p2
        d_ib = p.a_l_ib - p.b_l * s
        d_qib = p.a_q_ib - p.b_l * s
        pi1 = (
            (p1 - p.c1) * d_i1
            + (p2 - p.c2) * d_i2
            + (s - c) * (d_ib + d_qib)
            + share * (hat - c) * (p.a_s - p.b_s * hat)
        )
    pi2 = (
        (pb2 - c) * (p.a_l_jb - p.b_l * pb2)
        + (t2 - c) * (p.a_q_jb - p.b_l * t2)
        + (1.0 - share) * (hat - c) * (p.a_s - p.b_s * hat)
    )
    return pi1, pi2


def gradients(params, scenario, prices):
    """Both retailers' own-price gradients in the regime the prices lie in,
    read off the one evaluation profits() makes there."""
    s = structure_at(scenario, prices)
    eff = s.effective_prices(prices)
    g1 = gradient_r1_at(params, s, prices, eff, demands(params, prices, eff))
    return np.array(g1), gradient_r2_at(params, s, prices.pb2)


def random_prices(rng, scenario):
    p1, p2 = rng.uniform(1.0, 250.0, size=2)
    pb2 = rng.uniform(1.0, 400.0)
    if scenario.bundling == 0:
        return PriceVector(p1, p2, None, pb2)
    pb1 = rng.uniform(1.0, p1 + p2)  # respect the bundle-discount constraint
    return PriceVector(p1, p2, pb1, pb2)


class TestProfits:
    def test_golden_row_profits(self, baseline):
        result = eq_T1(baseline)
        pp = profits(baseline, CM_CM, result.prices)
        assert pp.pi_r1 / 1000.0 == pytest.approx(21.95, abs=0.01)
        assert pp.pi_r2 / 1000.0 == pytest.approx(13.22, abs=0.01)
        assert pp.welfare == pp.pi_r1 + pp.pi_r2

    def test_cost_prices_zero_profit(self, baseline):
        c = baseline.total_cost
        for scen in TABLE_SCENARIOS:
            pb1 = c if scen.bundling == 1 else None
            pp = profits(baseline, scen, PriceVector(baseline.c1, baseline.c2, pb1, c))
            assert pp.pi_r1 == pytest.approx(0.0, abs=1e-9)
            assert pp.pi_r2 == pytest.approx(0.0, abs=1e-9)

    def test_matches_independent_term_by_term_evaluator(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            params = draw_valid_params(rng)
            scen = TABLE_SCENARIOS[rng.integers(len(TABLE_SCENARIOS))]
            prices = random_prices(rng, scen)
            pp = profits(params, scen, prices)
            ref1, ref2 = reference_profits(params, scen, prices)
            scale = max(1.0, abs(ref1), abs(ref2))
            assert abs(pp.pi_r1 - ref1) / scale < 1e-10
            assert abs(pp.pi_r2 - ref2) / scale < 1e-10

    def test_invalid_prices_raise(self, baseline):
        bad = [
            (CM_CM, PriceVector(80.0, float("nan"), 150.0, 135.0)),
            (CM_CM, PriceVector(80.0, 80.0, 150.0, float("inf"))),
            (CM_CM, PriceVector(80.0, 80.0, None, 135.0)),
            (Scenario.no_bundle(), PriceVector(70.0, 70.0, 130.0, 135.0)),
        ]
        for scen, prices in bad:
            with pytest.raises(InvalidPriceError):
                profits(baseline, scen, prices)


class TestGradients:
    def test_stationary_at_closed_form_under_set_a(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            params = draw_set_params("A", rng)
            result = eq_T1(params)
            assert result.prices.pb1 > result.prices.pb2  # interior of the regime
            g1, g2 = gradients(params, CM_CM, result.prices)
            assert np.max(np.abs(g1)) < 1e-8
            assert abs(g2) < 1e-8

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        checked = 0
        while checked < 100:
            params = draw_valid_params(rng)
            scen = TABLE_SCENARIOS[rng.integers(len(TABLE_SCENARIOS))]
            prices = random_prices(rng, scen)
            if abs(prices.r1_bundle_equivalent() - prices.pb2) < 1.0:
                continue  # stay clear of the kink so differences see one branch
            checked += 1
            g1, g2 = gradients(params, scen, prices)
            coords = ["p1", "p2"] + (["pb1"] if scen.bundling == 1 else [])
            for i, name in enumerate(coords):
                up = _bump(prices, name, h)
                dn = _bump(prices, name, -h)
                fd = (profits(params, scen, up).pi_r1 - profits(params, scen, dn).pi_r1) / (2 * h)
                assert g1[i] == pytest.approx(fd, rel=1e-5, abs=1e-4)
            up = _bump(prices, "pb2", h)
            dn = _bump(prices, "pb2", -h)
            fd2 = (profits(params, scen, up).pi_r2 - profits(params, scen, dn).pi_r2) / (2 * h)
            assert g2 == pytest.approx(fd2, rel=1e-5, abs=1e-4)

    @pytest.mark.parametrize(
        "scen, kink",
        [
            (CM_CM, PriceVector(80.0, 80.0, 150.0, 150.0)),
            (Scenario.no_bundle(), PriceVector(80.0, 70.0, None, 150.0)),
        ],
        ids=["CM,CM", "NoBundle"],
    )
    def test_kink_gradients_are_one_sided_derivatives(self, baseline, scen, kink):
        # on a kink each own-price step leaves into one regime; the gradient
        # of that regime's structure at the kink is the one-sided derivative
        # of its profit there, so both sides of the kink have a gradient
        h = 1e-6
        coords = ["p1", "p2"] + (["pb1"] if scen.bundling == 1 else [])
        kinked = set()
        for retailer, names in ((1, coords), (2, ["pb2"])):
            for i, name in enumerate(names):
                sides = []
                for sign in (1.0, -1.0):
                    stepped = _bump(kink, name, sign * h)
                    s = structure_at(scen, stepped)
                    eff = s.effective_prices(kink)
                    d = demands(baseline, kink, eff)
                    at_kink = profits_at(baseline, s, kink, eff, d)[retailer - 1]
                    fd = sign * (profits(baseline, scen, stepped)[retailer - 1] - at_kink) / h
                    if retailer == 1:
                        g = gradient_r1_at(baseline, s, kink, eff, d)[i]
                    else:
                        g = gradient_r2_at(baseline, s, kink.pb2)
                    assert g == pytest.approx(fd, rel=1e-5, abs=1e-4)
                    sides.append(g)
                if abs(sides[0] - sides[1]) > 1.0:
                    kinked.add(retailer)
        assert kinked == {1, 2}  # each retailer's gradient jumps across the kink

    def test_bundle_gradient_decouples_from_item_prices_without_gap_term(self, baseline):
        params = baseline.replace(lambda_l=1e-9)
        # pb1 > pb2: both points lie in R1_HIGH
        a, _ = gradients(params, CM_CM, PriceVector(50.0, 60.0, 200.0, 150.0))
        b, _ = gradients(params, CM_CM, PriceVector(90.0, 30.0, 200.0, 150.0))
        assert abs(a[2] - b[2]) < 1e-6


def _bump(prices: PriceVector, name: str, h: float) -> PriceVector:
    values = {"p1": prices.p1, "p2": prices.p2, "pb1": prices.pb1, "pb2": prices.pb2}
    values[name] = values[name] + h
    return PriceVector(values["p1"], values["p2"], values["pb1"], values["pb2"])


class TestQuadraticStructure:
    @pytest.mark.parametrize("scen", TABLE_SCENARIOS, ids=lambda s: s.label())
    @pytest.mark.parametrize("regime", [Regime.R1_HIGH, Regime.R1_LOW])
    def test_hessian_matches_second_differences(self, baseline, scen, regime):
        h = 0.5  # profit is exactly quadratic per regime, so any step works
        # retailer 1's price (120 or 122) at least 18 from pb2, on the
        # regime's side, so every step of size h keeps the ordering
        pb2 = 100.0 if regime is Regime.R1_HIGH else 140.0
        base = (
            PriceVector(80.0, 85.0, 120.0, pb2)
            if scen.bundling == 1
            else PriceVector(60.0, 62.0, None, pb2)
        )
        coords = ["p1", "p2"] + (["pb1"] if scen.bundling == 1 else [])
        s = structure(scen, regime)
        matrix = hessian_matrix_r1(baseline, s)

        def f(prices):
            return profits(baseline, scen, prices).pi_r1

        n = len(coords)
        for i in range(n):
            for j in range(n):
                if i == j:
                    num = (
                        f(_bump(base, coords[i], h))
                        - 2.0 * f(base)
                        + f(_bump(base, coords[i], -h))
                    ) / h**2
                else:
                    num = (
                        f(_bump(_bump(base, coords[i], h), coords[j], h))
                        - f(_bump(base, coords[i], h))
                        - f(_bump(base, coords[j], h))
                        + f(base)
                    ) / h**2
                assert num == pytest.approx(matrix[i][j], abs=1e-6)

        def g(prices):
            return profits(baseline, scen, prices).pi_r2

        num_r2 = (g(_bump(base, "pb2", h)) - 2.0 * g(base) + g(_bump(base, "pb2", -h))) / h**2
        assert num_r2 == pytest.approx(_hessian_r2(baseline, s), abs=1e-6)

    def test_r2_curvature_with_both_pmgs(self, baseline):
        # -4 b_l - 2 (1 - alpha) b_s in the regime where r2 is the cheap side
        value = _hessian_r2(baseline, structure(CM_CM, Regime.R1_HIGH))
        expected = -4.0 * baseline.b_l - 2.0 * (1.0 - baseline.alpha) * baseline.b_s
        assert value == pytest.approx(expected, abs=1e-12)


# the six regime structures and the three distinct kink rows
SCORED_STRUCTURES = (
    *STRUCTURES.values(),
    *dict.fromkeys(kink_structure(scenario) for scenario in TABLE_SCENARIOS),
)


def _bits(value: float) -> str:
    """A float's exact bits; every NaN reads the same."""
    return "nan" if value != value else value.hex()


def _scored_prices(rng, s):
    """Price vectors for structure s: seeded draws with negative prices,
    exact ties of retailer 1's bundle-equivalent price with pb2, signed
    zeros, and prices near 1e200, where the products overflow."""
    bundled = s.bundling == 1
    vectors = []
    for low, high in ((-50.0, 400.0), (-1e200, 1e200)):
        p1, p2, pb1, pb2 = rng.uniform(low, high, size=4).tolist()
        vectors.append((p1, p2, pb1, pb2))
        vectors.append((p1, p2, pb1, pb1 if bundled else p1 + p2))  # the tie
    vectors += [(0.0, -0.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0), (-0.0, 0.0, 0.0, -0.0)]
    return [PriceVector(p1, p2, pb1 if bundled else None, pb2) for p1, p2, pb1, pb2 in vectors]


class TestScorers:
    def test_each_scorer_equals_evaluates_profit_to_the_bit(self, baseline):
        # profit_r1 and profit_r2 copy the expressions of the effective
        # prices, the demands and profits_at; a copy whose operands are
        # reordered or whose term differs reads other bits here
        rng = np.random.default_rng(33)
        points = [baseline] + [draw_valid_params(rng) for _ in range(300)]
        compared, special = 0, set()
        for params in points:
            for s in SCORED_STRUCTURES:
                for prices in _scored_prices(rng, s):
                    _, want = evaluate(params, s, prices)
                    got = (
                        profit_r1(params, s, prices),
                        profit_r2(params, s, prices.r1_bundle_equivalent(), prices.pb2),
                    )
                    assert list(map(_bits, got)) == list(map(_bits, want)), (s, prices, params)
                    special.update(v for v in map(_bits, got) if v in ("nan", "inf", "-inf"))
                    compared += 1
        assert compared == len(points) * 9 * 7
        # the overflowing scale is reached: infinite and NaN profits occur
        assert {"nan", "-inf"} <= special
