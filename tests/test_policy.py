"""Equilibrium selection per subgame and the bundling/PMG policy comparison."""

import itertools
import math
from collections import Counter

import numpy as np
import pytest

import bundlematch.equilibria
import bundlematch.policy
from bundlematch import (
    MarketParams,
    OracleOutcome,
    PolicyComparison,
    Regime,
    Scenario,
    candidate_theorems,
    compare_policies,
    eq_T1,
    solve_subgame,
)
from bundlematch.cli import main
from bundlematch.equilibria import THEOREMS, DegenerateParamsError
from bundlematch.market import STRUCTURES, InvalidParameterError, RegimeStructure
from bundlematch.policy import _PMG_PAIR, BUNDLED_SCENARIOS
from bundlematch.sweep import TABLE_SCENARIOS, AxisSpec, SweepSpec, _cell, build_symmetric_table

from conftest import (
    BASES_AND_COSTS,
    PROFITS_MODULE,
    attaining_pairs,
    draw_valid_params,
    hex_text,
    panel_points,
    pinned_sweep_panels,
)

CM_CM = Scenario.bundled(True, True)
NOCM_CM = Scenario.bundled(False, True)


@pytest.fixture
def theorem_calls(monkeypatch) -> Counter:
    """Counts closed-form evaluations made through policy's eq_T, by theorem."""
    calls = Counter()
    eq_T = bundlematch.policy.eq_T

    def counted(terms, tid):
        calls[tid] += 1
        return eq_T(terms, tid)

    monkeypatch.setattr(bundlematch.policy, "eq_T", counted)
    return calls


class TestSolveSubgame:
    def test_baseline_nocm_cm_selects_high_regime_candidate(self, baseline):
        sol = solve_subgame(baseline, NOCM_CM)
        assert sol.chosen is not None
        assert sol.chosen.theorem_id == "T2"
        assert sol.chosen.prices.pb1 == pytest.approx(139.76, abs=0.01)
        assert sol.chosen.prices.pb2 == pytest.approx(135.0, abs=1e-9)
        low = next(r for r in sol.candidates if r.theorem_id == "T3")
        assert not low.feasible

    def test_baseline_no_bundle_selects_high_regime_candidate(self, baseline):
        sol = solve_subgame(baseline, Scenario.no_bundle())
        assert sol.chosen is not None and sol.chosen.theorem_id == "T5a"
        assert sol.chosen.prices.p1 + sol.chosen.prices.p2 == pytest.approx(146.36, abs=0.01)
        low = next(r for r in sol.candidates if r.theorem_id == "T5b")
        assert not low.feasible  # its item-price sum exceeds pb2

    def test_failed_condition_set_is_admitted_without_a_warning(self, baseline):
        # the baseline satisfies no sufficient set; the solution is admitted
        # on feasibility and stationarity, and its condition report, not a
        # warning, says which inequality fails
        sol = solve_subgame(baseline, CM_CM)
        assert sol.chosen is not None
        assert not sol.chosen.condition_report.all_satisfied
        assert sol.warnings == []

    def test_blank_region_yields_none_and_oracle_diverges(self, baseline):
        params = baseline.replace(b_l=0.9, b_s=0.1, lambda_l=0.1, theta_l=0.1)
        sol = solve_subgame(params, CM_CM, oracle_check=True)
        assert sol.chosen is None
        assert all(not r.feasible for r in sol.candidates)
        assert sol.oracle is not None and not sol.oracle.converged

    def test_oracle_check_agrees_at_baseline(self, baseline):
        sol = solve_subgame(baseline, CM_CM, oracle_check=True)
        assert sol.oracle is not None and sol.oracle.converged
        assert sol.warnings == []

    def test_oracle_that_did_not_converge_is_a_warning(self, baseline, fixed_oracle):
        fixed_oracle(converged=False)
        sol = solve_subgame(baseline, CM_CM, oracle_check=True)
        assert sol.oracle_deviation is None
        assert sol.warnings == ["oracle: best-response iteration did not converge"]

    def test_oracle_that_deviates_is_a_warning(self, baseline, fixed_oracle):
        fixed_oracle(converged=True, scale=1.1)
        sol = solve_subgame(baseline, CM_CM, oracle_check=True)
        assert sol.oracle_deviation == pytest.approx(0.1, rel=1e-12)
        assert sol.warnings == [
            "oracle: fixed point deviates from selected equilibrium (relative sup-norm 1.00e-01)"
        ]

    def test_a_nan_oracle_bundle_price_disagrees(self, baseline, monkeypatch, capsys):
        # a NaN in pb2 alone, the last place, where Python's max over the
        # differences would drop it and report agreement
        t1 = eq_T1(baseline)
        outcome = OracleOutcome(True, t1.prices._replace(pb2=math.nan), 12)
        monkeypatch.setattr(bundlematch.policy, "find_fixed_point", lambda *args: outcome)
        sol = solve_subgame(baseline, CM_CM, oracle_check=True)
        assert math.isnan(sol.oracle_deviation)
        assert not sol.oracle_agrees
        assert sol.warnings == [
            "oracle: fixed point deviates from selected equilibrium (relative sup-norm nan)"
        ]
        assert main(["verify", "--pmg", "r1=cm", "r2=cm"]) == 0
        assert capsys.readouterr().out == (
            "closed form T1 and oracle DISAGREE: max relative deviation nan (12 iterations)\n"
        )

    def test_selection_takes_profit_maximal_feasible_candidate(self):
        # a subgame where both regime candidates are feasible at once; the
        # spec's rule picks the one with the higher retailer-1 profit
        rng = np.random.default_rng(21)
        found = 0
        for _ in range(500):
            params = draw_valid_params(rng)
            for scen in (
                Scenario.bundled(True, True),
                Scenario.bundled(True, False),
                Scenario.bundled(False, True),
                Scenario.bundled(False, False),
            ):
                sol = solve_subgame(params, scen)
                feasible = [r for r in sol.candidates if r.feasible]
                if len(feasible) == 2:
                    found += 1
                    assert sol.chosen.profits.pi_r1 == max(r.profits.pi_r1 for r in feasible)
        assert found >= 1

    def test_pmg_r2_does_not_move_the_equilibrium(self, baseline):
        a = solve_subgame(baseline, Scenario.bundled(True, True)).chosen
        b = solve_subgame(baseline, Scenario.bundled(True, False)).chosen
        assert a.prices == b.prices  # bit-identical
        c = solve_subgame(baseline, Scenario.bundled(False, True)).chosen
        d = solve_subgame(baseline, Scenario.bundled(False, False)).chosen
        assert c.prices == d.prices

    def test_chosen_satisfies_admissibility(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            params = draw_valid_params(rng)
            for scen in (CM_CM, Scenario.no_bundle()):
                sol = solve_subgame(params, scen)
                if sol.chosen is None:
                    continue
                prices = sol.chosen.prices
                if prices.pb1 is not None:
                    assert prices.p1 + prices.p2 >= prices.pb1 - 1e-9
                assert min(sol.chosen.demands) >= -1e-9


class TestComparePolicies:
    def test_baseline_numbers(self, baseline):
        comp = compare_policies(baseline)
        assert comp.pi_bundle / 1000.0 == pytest.approx(21.95, abs=0.01)
        assert comp.pi_nobundle / 1000.0 == pytest.approx(17.57, abs=0.01)
        assert comp.delta_pi_B / 1000.0 == pytest.approx(4.38, abs=0.02)
        assert comp.best_pmg_regime.pmg_r1 is True
        assert all(sol.chosen is not None for sol in comp.solutions.values())

    def test_baseline_tie_between_identical_pmg_rows_goes_to_the_first_pair(self, baseline):
        comp = compare_policies(baseline)
        # T1 wins, and it solves both CM,noCM and CM,CM
        assert comp.best_bundled.theorem_id == "T1"
        assert attaining_pairs(comp) == [Scenario.bundled(True, False), CM_CM]
        # fewest PMG commitments win the tie
        assert comp.best_pmg_regime == Scenario.bundled(True, False)

    def test_regime_pattern_flips_with_price_sensitivities(self, baseline):
        # strategic customers highly price-sensitive, loyal ones insensitive:
        # retailer 1 refrains from price matching (demonstrated at a raised
        # strategic base, where this corner of the grid has equilibria at all)
        low_bl = MarketParams.baseline(a_s=200.0, b_l=0.1, b_s=0.9, lambda_l=0.05, theta_l=0.5)
        comp = compare_policies(low_bl)
        assert comp.best_pmg_regime is not None
        assert comp.best_pmg_regime.pmg_r1 is False
        # medium sensitivities on both sides: price matching pays
        assert compare_policies(baseline).best_pmg_regime.pmg_r1 is True

    def test_nonexistence_cell_reports_none(self, baseline):
        params = baseline.replace(b_l=0.9, b_s=0.1)
        comp = compare_policies(params)
        assert comp.pi_bundle is None
        assert comp.pi_nobundle is None
        assert comp.delta_pi_B is None
        assert comp.best_pmg_regime is None
        assert all(sol.chosen is None for sol in comp.solutions.values())

    def test_bundling_dominates_on_a_small_grid(self, baseline):
        # every cell of a coarse complementarity grid where both sides exist
        # shows a strictly positive bundling gain
        for lam in np.linspace(0.05, 0.4, 5):
            for theta in np.linspace(0.05, 0.95, 5):
                comp = compare_policies(baseline.replace(lambda_l=float(lam), theta_l=float(theta)))
                if comp.delta_pi_B is not None:
                    assert comp.delta_pi_B > 0.0

    def test_solutions_are_keyed_by_scenario(self, baseline):
        solutions = compare_policies(baseline).solutions
        assert list(solutions) == [*BUNDLED_SCENARIOS, Scenario.no_bundle()]
        # a no-bundling scenario drops its PMG flags, so it is the same key
        no_bundle = solutions[Scenario(0, True, True)]
        assert no_bundle is solutions[Scenario.no_bundle()]
        assert no_bundle.scenario == Scenario.no_bundle()
        assert no_bundle.chosen.theorem_id in ("T5a", "T5b")

    def test_derived_values_follow_the_candidates(self, baseline):
        # the comparison stores its candidates and the bundled winner only, so
        # replacing a candidate moves every value read off it
        assert PolicyComparison._fields == ("candidates", "best_bundled")
        comp = compare_policies(baseline)
        infeasible = {tid: comp.candidates[tid]._replace(feasible=False) for tid in ("T5a", "T5b")}
        changed = comp._replace(candidates={**comp.candidates, **infeasible})
        assert changed.pi_nobundle is None
        assert changed.delta_pi_B is None
        assert changed.solutions[Scenario.no_bundle()].chosen is None
        assert changed.pi_bundle == comp.pi_bundle
        t3 = comp._replace(best_bundled=comp.candidates["T3"])
        assert t3.best_pmg_regime == NOCM_CM
        assert t3.pi_bundle == comp.candidates["T3"].profits.pi_r1

    def test_selection_builds_no_label_a_sweep_does_not_write(self, baseline, monkeypatch):
        calls = []
        label = Scenario.label

        def counted(scenario):
            calls.append(scenario)
            return label(scenario)

        monkeypatch.setattr(Scenario, "label", counted)
        comp = compare_policies(baseline)
        assert comp.solutions and comp.delta_pi_B and comp.best_pmg_regime
        assert calls == []
        spec = SweepSpec(AxisSpec("lambda_l", 0.3, 0.4, 2), AxisSpec("theta_l", 0.5, 0.6, 2))
        cell = _cell(baseline, spec, spec.panels[0], 0.3, 0.5)
        assert calls == [Scenario.bundled(True, False)]  # best_regime, written
        assert cell.best_regime == "CM,noCM"

    def test_the_pair_is_the_first_attaining_one_on_every_pinned_sweep_cell(self):
        # each bundled candidate solves two subgames, so at least two PMG
        # pairs attain pi_bundle and the winner's table entry is the first
        winners = Counter()
        for spec, panel, _ in pinned_sweep_panels():
            for _, _, params in panel_points(spec, panel):
                if params is None:
                    continue
                comp = compare_policies(params)
                attaining = attaining_pairs(comp)
                if comp.best_bundled is None:
                    assert attaining == [] and comp.best_pmg_regime is None
                    continue
                assert len(attaining) >= 2
                assert attaining[0] == comp.best_pmg_regime != CM_CM
                winners[comp.best_bundled.theorem_id] += 1
        assert set(winners) == {"T1", "T2", "T3", "T4"}

    def test_exact_profit_ties_between_candidates_go_to_the_first_pair(self, baseline, monkeypatch):
        # distinct candidates tie exactly only off the pinned cells, so every
        # bundled candidate is given one profit here, for each subset feasible
        eq_T = bundlematch.policy.eq_T
        for feasible in itertools.product((False, True), repeat=4):
            alive = dict(zip(("T1", "T2", "T3", "T4"), feasible))

            def tied(terms, tid):
                r = eq_T(terms, tid)
                if tid not in alive:
                    return r
                tied_profits = r.profits._replace(pi_r1=1.0)
                return r._replace(evaluation=(r.demands, tied_profits), feasible=alive[tid])

            monkeypatch.setattr(bundlematch.policy, "eq_T", tied)
            comp = compare_policies(baseline)
            attaining = attaining_pairs(comp)
            assert len(attaining) >= 2 if any(feasible) else attaining == []
            assert comp.best_pmg_regime == (attaining[0] if attaining else None)

    @pytest.mark.parametrize("high, low", [(1.0, 1.0), (0.0, -0.0), (-0.0, 0.0)])
    def test_exact_profit_ties_inside_a_subgame_go_to_r1_high(
        self, baseline, monkeypatch, high, low
    ):
        # both candidates of every subgame are feasible with one profit (to
        # ==, the signed zeros included), so each subgame must choose the
        # candidate listed first, its R1_HIGH one
        eq_T = bundlematch.policy.eq_T

        def tied(terms, tid):
            r = eq_T(terms, tid)
            pi_r1 = high if STRUCTURES[tid].regime is Regime.R1_HIGH else low
            tied_profits = r.profits._replace(pi_r1=pi_r1)
            return r._replace(evaluation=(r.demands, tied_profits), feasible=True)

        monkeypatch.setattr(bundlematch.policy, "eq_T", tied)
        comp = compare_policies(baseline)
        solutions = comp.solutions
        for s in (*BUNDLED_SCENARIOS, Scenario.no_bundle()):
            r1_high = candidate_theorems(s)[0]
            assert STRUCTURES[r1_high].regime is Regime.R1_HIGH
            assert solve_subgame(baseline, s).chosen.theorem_id == r1_high
            assert solutions[s].chosen.theorem_id == r1_high
        assert comp.pi_nobundle.hex() == high.hex()  # T5a's, its sign included

    def test_pmg_pairs_are_derived_in_tie_order(self):
        # each theorem's first bundled subgame, in the order the bundled
        # winner's ties go
        assert list(_PMG_PAIR.items()) == [
            ("T2", Scenario.bundled(False, False)),
            ("T4", Scenario.bundled(False, False)),
            ("T3", Scenario.bundled(False, True)),
            ("T1", Scenario.bundled(True, False)),
        ]

    def test_each_theorem_is_evaluated_once(self, baseline, theorem_calls):
        compare_policies(baseline)
        assert theorem_calls == Counter(dict.fromkeys(bundlematch.equilibria.THEOREMS, 1))
        assert sum(theorem_calls.values()) == 6

    def test_table_takes_one_selection_pass(self, baseline, theorem_calls):
        build_symmetric_table(baseline)
        assert sum(theorem_calls.values()) == 6

    @pytest.mark.parametrize("entry", ["compare_policies", "solve_subgame"])
    def test_point_terms_are_computed_once(self, entry, monkeypatch):
        # the total cost and the item skew's terms are computed once per
        # point, in its record, and the strategic weights once per candidate,
        # in eq_T; every denominator guard still runs where each candidate
        # reads its denominator
        calls = Counter()

        def counted(owner, name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        equilibria = bundlematch.equilibria
        counted(RegimeStructure, "own_strategic_weights", RegimeStructure.own_strategic_weights)
        counted(bundlematch.policy, "shared_terms", equilibria.shared_terms)
        counted(equilibria, "_guard_denominator", equilibria._guard_denominator)
        total_cost = MarketParams.total_cost.fget
        monkeypatch.setattr(MarketParams, "total_cost", property(
            lambda p: calls.update(["total_cost"]) or total_cost(p)
        ))
        params = MarketParams.baseline(lambda_l=0.2, theta_l=0.4)
        if entry == "compare_policies":
            compare_policies(params)
            # 6 weights, one per candidate; the cost once in the record plus
            # once in the profits of each candidate in its price ordering,
            # T1, T2 and T5a here (T3, T4 and T5b lie off theirs and are not
            # evaluated): 1 + 3 = 4, not 16
            expected = {"own_strategic_weights": 6, "total_cost": 4, "_guard_denominator": 16}
        else:
            # T1 and T3; T3 lies off its ordering, so 1 + 1 costs
            solve_subgame(params, CM_CM)
            expected = {"own_strategic_weights": 2, "total_cost": 2, "_guard_denominator": 6}
        assert calls == Counter(shared_terms=1, **expected)

    @pytest.mark.parametrize(
        "entry, in_ordering",
        [("compare_policies", ("T1", "T2", "T5a")), ("solve_subgame", ("T1",))],
    )
    def test_only_candidates_in_their_price_ordering_are_evaluated(
        self, entry, in_ordering, monkeypatch
    ):
        # eq_T decides each candidate's price ordering first: a candidate off
        # it (T3, T4 and T5b here) is rejected before its demands and profits
        # are evaluated, and selection never reads them; the one evaluator,
        # profits.evaluate, reads both in its module
        demands, profits_at = PROFITS_MODULE.demands, PROFITS_MODULE.profits_at
        evaluated = []

        def counted_demands(params, prices, eff):
            evaluated.append(("demands", prices))
            return demands(params, prices, eff)

        def counted_profits_at(params, s, prices, eff, d):
            evaluated.append(("profits_at", prices))
            return profits_at(params, s, prices, eff, d)

        monkeypatch.setattr(PROFITS_MODULE, "demands", counted_demands)
        monkeypatch.setattr(PROFITS_MODULE, "profits_at", counted_profits_at)
        params = MarketParams.baseline(lambda_l=0.2, theta_l=0.4)
        if entry == "compare_policies":
            candidates = list(compare_policies(params).candidates.values())
        else:
            candidates = solve_subgame(params, CM_CM).candidates
        calls = list(evaluated)
        kept = [r for r in candidates if r.theorem_id in in_ordering]
        assert calls == [(name, r.prices) for r in kept for name in ("demands", "profits_at")]
        for r in candidates:
            regime, prices = STRUCTURES[r.theorem_id].regime, r.prices
            holds = regime.holds(prices.r1_bundle_equivalent(), prices.pb2)
            assert holds == (r.theorem_id in in_ordering) == (r.evaluation is not None)
            assert holds or not r.feasible

    def test_condition_reports_are_built_on_access(self, baseline, monkeypatch):
        built = []
        check = bundlematch.equilibria.check_condition_set

        def counted(set_id, params):
            built.append(set_id)
            return check(set_id, params)

        monkeypatch.setattr(bundlematch.equilibria, "check_condition_set", counted)
        result = eq_T1(baseline)
        assert built == []
        assert result.condition_report.set_id == "A"
        assert result.condition_report.set_id == "A"
        assert built == ["A", "A"]  # one build per access
        built.clear()
        comp = compare_policies(baseline)
        solutions = comp.solutions.values()
        assert [sol.warnings for sol in solutions] == [[]] * len(solutions)
        assert built == []  # neither the comparison nor its warnings build a report
        reports = [sol.chosen.condition_report for sol in solutions]
        assert built == [STRUCTURES[sol.chosen.theorem_id].condition_set for sol in solutions]
        assert [r.set_id for r in reports] == built

    def test_matches_per_subgame_selection(self):
        rng = np.random.default_rng(31)
        chosen_any = 0
        for _ in range(250):
            params = draw_valid_params(rng)
            comp = compare_policies(params)
            assert list(comp.solutions) == [*BUNDLED_SCENARIOS, Scenario.no_bundle()]
            for scenario in TABLE_SCENARIOS:
                shared, alone = comp.solutions[scenario], solve_subgame(params, scenario)
                assert shared.scenario == alone.scenario
                assert (shared.chosen is None) == (alone.chosen is None)
                if alone.chosen is not None:
                    chosen_any += 1
                    assert shared.chosen.theorem_id == alone.chosen.theorem_id
                    assert shared.chosen.prices == alone.chosen.prices
                assert shared.warnings == alone.warnings
                assert [(r.theorem_id, r.feasible) for r in shared.candidates] == [
                    (r.theorem_id, r.feasible) for r in alone.candidates
                ]
        assert chosen_any > 100

    def test_candidates_equal_the_single_theorem_functions_to_the_bit(self, baseline):
        def fields(r):
            return (
                hex_text(r.prices), hex_text(r.demands), hex_text(r.profits),
                r.theorem_id, r.params, r.feasible,
            )

        rng = np.random.default_rng(25)
        for params in (baseline, *(draw_valid_params(rng) for _ in range(200))):
            comp = compare_policies(params)
            for sol in comp.solutions.values():
                for r in sol.candidates:
                    assert fields(r) == fields(THEOREMS[r.theorem_id](params))

    def test_welfare_is_profit_sum(self, baseline):
        sol = solve_subgame(baseline, CM_CM)
        pp = sol.chosen.profits
        assert pp.welfare == pp.pi_r1 + pp.pi_r2


# the DegenerateParamsError each entry point raises first, recorded before
# the candidates shared their per-point terms (the 1e200 point since squares
# are products: a float power raised OverflowError there): as
# (compare_policies, then solve_subgame per subgame in SUBGAME_ORDER, None
# where it succeeds)
SUBGAME_ORDER = (*BUNDLED_SCENARIOS, Scenario.no_bundle())
BUNDLE_PRICE = "bundle-price denominator vanishes"
SKEW = "b_l (1 - theta_l) vanishes"
R2_SLOPE = "r2 demand slope vanishes"
FIRST_DEGENERATE_ERROR = {
    "tiny b_l, lambda_l": (
        {"b_l": 1e-13, "lambda_l": 1e-13},
        BUNDLE_PRICE,
        (BUNDLE_PRICE, BUNDLE_PRICE, BUNDLE_PRICE, BUNDLE_PRICE, SKEW),
    ),
    "tiny b_l, lambda_l, alpha 1": (
        {"b_l": 1e-13, "lambda_l": 1e-13, "alpha": 1.0},
        R2_SLOPE,
        (BUNDLE_PRICE, BUNDLE_PRICE, R2_SLOPE, R2_SLOPE, SKEW),
    ),
    "a_l_ib 1e308": (
        {"a_l_ib": 1e308},
        "T1 closed form is not finite",
        (*("T2 closed form is not finite",) * 2, *("T1 closed form is not finite",) * 2,
         "T5a closed form is not finite"),
    ),
    "a_s 1e308": (
        {"a_s": 1e308},
        "T4 closed form is not finite",
        ("T4 closed form is not finite", None, "T4 closed form is not finite", None,
         "T5b closed form is not finite"),
    ),
    "b_l, lambda_l 1e200": (
        {"b_l": 1e200, "lambda_l": 1e200},
        "T1 closed form is not finite",
        (*("T2 closed form is not finite",) * 2, *("T1 closed form is not finite",) * 2, None),
    ),
}


def _first_error(call) -> str | None:
    try:
        call()
    except DegenerateParamsError as exc:
        message = str(exc)
        assert message.startswith("degenerate parameters: ")
        return message.removeprefix("degenerate parameters: ")
    return None


@pytest.mark.parametrize("point", FIRST_DEGENERATE_ERROR)
class TestFirstDegenerateError:
    def test_compare_policies(self, point):
        overrides, expected, _ = FIRST_DEGENERATE_ERROR[point]
        params = MarketParams.baseline(**overrides)
        assert _first_error(lambda: compare_policies(params)) == expected

    def test_each_subgame(self, point):
        overrides, _, expected = FIRST_DEGENERATE_ERROR[point]
        params = MarketParams.baseline(**overrides)
        got = tuple(_first_error(lambda: solve_subgame(params, s)) for s in SUBGAME_ORDER)
        assert got == expected

    @pytest.mark.parametrize("bundling", ["1", "0"])
    def test_solve_command(self, point, bundling, tmp_path, capsys):
        overrides, _, by_subgame = FIRST_DEGENERATE_ERROR[point]
        path = tmp_path / "m.cfg"
        path.write_text("".join(f"{name} = {value!r}\n" for name, value in overrides.items()))
        # solve defaults to noCM,noCM; --bundling 0 is NoBundle
        expected = by_subgame[0] if bundling == "1" else by_subgame[-1]
        code = main(["solve", "--config", str(path), "--bundling", bundling])
        captured = capsys.readouterr()
        if expected is None:
            # the subgame solves, with no feasible candidate at these points
            assert code == 2 and captured.err == ""
        else:
            assert code == 1
            assert captured.err == f"error: degenerate parameters: {expected}\n"


def test_no_bundle_subgame_reads_no_bundle_price_term():
    # lambda_l = 1e200 squared overflows to inf, so the bundle prices are not
    # finite; only they square it, so the no-bundle subgame still solves
    # (with no feasible candidate)
    params = MarketParams.baseline(b_l=1e200, lambda_l=1e200)
    assert solve_subgame(params, Scenario.no_bundle()).chosen is None


class TestItemSwap:
    def test_the_selection_is_item_swap_covariant(self, baseline):
        """Exchanging the items' demand bases and costs exchanges item prices
        and leaves profits unchanged (test_equilibria.TestItemSwap), so the
        selection must not move: the theorem chosen in each subgame, which
        subgames have an equilibrium, the best PMG pair, the bundled winner,
        and the gain from bundling."""

        def selection(comparison):
            solutions = comparison.solutions
            chosen = {s: sol.chosen and sol.chosen.theorem_id for s, sol in solutions.items()}
            existence = {s: sol.chosen is not None for s, sol in solutions.items()}
            best = comparison.best_bundled
            winner = best and best.theorem_id
            return chosen, existence, comparison.best_pmg_regime, winner

        rng = np.random.default_rng(19)
        points = [baseline] + [draw_valid_params(rng) for _ in range(400)]
        winners = Counter()
        for params in points:
            swapped = params.replace(
                a_l_i1=params.a_l_i2, a_l_i2=params.a_l_i1, c1=params.c2, c2=params.c1
            )
            a, b = compare_policies(params), compare_policies(swapped)
            chosen, existence, pair, winner = selection(a)
            assert selection(b) == (chosen, existence, pair, winner)
            winners[winner] += 1
            if a.delta_pi_B is None:
                assert b.delta_pi_B is None
            else:
                assert b.delta_pi_B == pytest.approx(a.delta_pi_B, rel=1e-12)
        # every family wins somewhere, not only the baseline's T1
        assert set(winners) >= {"T1", "T2", "T3", "T4"}


class TestPriceScale:
    def test_the_selection_does_not_move_when_bases_and_costs_scale(self):
        """Scaling every demand base and cost by k scales every candidate's
        prices and margins by k and its profits by k**2, and leaves each
        feasibility margin's sign alone, so the theorem chosen in each
        subgame and the best PMG pair must not move.  An absolute tolerance
        on a quantity that grows with k breaks this; a first-order residual
        gate of 1e-8 flipped almost every cell of this grid at k = 1e6."""
        k = 1e6

        def selection(params):
            comparison = compare_policies(params)
            chosen = tuple(
                sol.chosen and sol.chosen.theorem_id for sol in comparison.solutions.values()
            )
            return chosen, comparison.best_pmg_regime

        baseline = MarketParams.baseline()
        scaled_baseline = baseline.replace(**{f: k * getattr(baseline, f) for f in BASES_AND_COSTS})
        chosen_any = 0
        for b_s in (0.2, 0.4, 0.6, 0.9):
            for lambda_l in np.linspace(0.05, 0.4, 18):
                for theta_l in np.linspace(0.05, 0.95, 18):
                    slopes = dict(b_s=b_s, lambda_l=float(lambda_l), theta_l=float(theta_l))
                    at_one = selection(baseline.replace(**slopes))
                    assert selection(scaled_baseline.replace(**slopes)) == at_one, slopes
                    chosen_any += any(at_one[0])
        # the grid exercises the selection, not only empty cells
        assert chosen_any > 1000

    @pytest.mark.parametrize("k", [1.0, 1e6])
    @pytest.mark.parametrize(
        "overrides,chosen",
        [
            ({}, ("T1", "T1", "T2", "T2", "T5a")),
            # low: every subgame but CM,CM leaves the baseline's candidate
            ({"lambda_l": 0.05, "theta_l": 0.5, "a_s": 60.0}, ("T1", "T4", "T3", "T4", "T5b")),
        ],
        ids=["baseline", "low"],
    )
    def test_each_subgame_selects_the_same_candidate_at_every_price_scale(self, overrides, chosen, k):
        """`bundlematch solve` in each subgame, in TABLE_SCENARIOS order, at
        a point with every demand base and cost times k (the baseline's a_s
        becomes 100 * 1e6 = 1e8 exactly)."""
        params = MarketParams.baseline().replace(**overrides)
        scaled = params.replace(**{f: k * getattr(params, f) for f in BASES_AND_COSTS})
        solutions = [solve_subgame(scaled, s).chosen for s in TABLE_SCENARIOS]
        assert None not in solutions
        assert tuple(r.theorem_id for r in solutions) == chosen


class TestScaleFuzz:
    @pytest.mark.parametrize(
        "seed,decades", [(0, (-8.0, 14.0)), (1, (-300.0, 300.0))], ids=["1e-8..1e14", "1e-300..1e300"]
    )
    def test_far_scaled_draws_raise_only_degenerate_params_errors(self, seed, decades):
        """Both scale symmetries, far from unit scale: every demand base and
        cost times 10**U(decades), then b_l, b_s and lambda_l times
        m = 10**U(-4, 4) and the costs divided by m.  Selection and the
        oracle may raise only DegenerateParamsError, and the oracle's prices
        are finite.  A draw the parameter check rejects is skipped."""
        bases = ("a_l_i1", "a_l_i2", "a_l_ib", "a_q_ib", "a_l_jb", "a_q_jb", "a_s")
        rng = np.random.default_rng(seed)
        solved = 0
        for _ in range(100):
            params = draw_valid_params(rng)
            k = 10.0 ** rng.uniform(*decades)
            m = 10.0 ** rng.uniform(-4.0, 4.0)
            changes = {f: k * getattr(params, f) for f in bases}
            changes.update({f: k * getattr(params, f) / m for f in ("c1", "c2")})
            changes.update({f: m * getattr(params, f) for f in ("b_l", "b_s", "lambda_l")})
            try:
                scaled = params.replace(**changes)
            except InvalidParameterError:
                continue
            try:
                compare_policies(scaled)
            except DegenerateParamsError:
                pass
            for scenario in TABLE_SCENARIOS:
                try:
                    sol = solve_subgame(scaled, scenario, oracle_check=True)
                except DegenerateParamsError:
                    continue
                assert all(math.isfinite(v) for v in sol.oracle.prices.present()), scaled
                solved += 1
        assert solved >= 250
