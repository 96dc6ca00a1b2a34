"""Equilibrium selection and strategy comparison.

A subgame (one bundling/PMG configuration) has up to two closed-form
candidates, one per price ordering.  Feasible candidates are kept and the one
maximizing retailer 1's profit is selected; when a candidate is feasible and
stationary but its sufficient condition set fails, it is admitted with a
warning, because the condition sets are not necessary.

Warnings are derived on access from the chosen candidate and the optional
oracle outcome.  The policy comparison keeps the five solved subgames and
the PMG pair with the best bundled profit, and reads profits, the gain from
bundling, existence and the tie record off those on access.  So a sweep,
which reads only the gain and the pair, builds no condition report,
existence map or tie record.

Selection needs no numpy.  The oracle, which does, is imported only when a
subgame is solved with oracle_check=True (see find_fixed_point below).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .equilibria import EquilibriumResult, THEOREMS, candidate_theorems, eq_T, shared_terms
from .market import MarketParams, Scenario

if TYPE_CHECKING:
    from .oracle import OracleOutcome

# compare_policies builds a solution per subgame by tuple.__new__ itself, its
# fields in declaration order: a NamedTuple's generated __new__ is a Python
# call around it, about 0.2 us on CPython 3.11
_tuple_new = tuple.__new__

# largest relative sup-norm deviation at which the oracle's fixed point
# agrees with a closed-form equilibrium
AGREEMENT_TOL = 1e-4

# tie-break preference: no PMG commitments first, then lexicographic on the
# (pmg_r1, pmg_r2) flags
BUNDLED_SCENARIOS = (
    Scenario.bundled(False, False),
    Scenario.bundled(False, True),
    Scenario.bundled(True, False),
    Scenario.bundled(True, True),
)


def scenario_key(scenario: Scenario) -> str:
    if scenario.bundling == 0:
        return "no_bundle"
    one = "cm" if scenario.pmg_r1 else "nocm"
    two = "cm" if scenario.pmg_r2 else "nocm"
    return f"{one}_{two}"


# (scenario, its key, its (high-regime, low-regime) candidate pair) for the
# five subgames compare_policies solves, bundled ones in BUNDLED_SCENARIOS
# order, which its tie-break relies on
_SUBGAMES = tuple(
    (s, scenario_key(s), candidate_theorems(s)) for s in (*BUNDLED_SCENARIOS, Scenario.no_bundle())
)


class SubgameSolution(NamedTuple):
    scenario: Scenario
    chosen: EquilibriumResult | None
    candidates: list[EquilibriumResult]
    oracle: OracleOutcome | None = None

    @property
    def oracle_deviation(self) -> float | None:
        """Relative sup-norm distance of the oracle's fixed point from the
        chosen equilibrium; None unless both exist and the oracle converged."""
        if self.chosen is None or self.oracle is None or not self.oracle.converged:
            return None
        return self.chosen.prices.relative_distance(self.oracle.prices)

    @property
    def oracle_agrees(self) -> bool:
        """Within AGREEMENT_TOL of the chosen equilibrium; NaN disagrees."""
        dev = self.oracle_deviation
        return dev is not None and dev <= AGREEMENT_TOL

    @property
    def warnings(self) -> list[str]:
        """A chosen candidate admitted without its condition set, then an
        oracle that did not converge or disagrees with the chosen one."""
        chosen = self.chosen
        out: list[str] = []
        if chosen is None:
            return out
        report = chosen.condition_report
        if not report.all_satisfied:
            out.append(
                f"conditions-not-verified: {chosen.theorem_id} admitted on feasibility and "
                f"stationarity alone ({report.summary()}; the sets are "
                "sufficient, not necessary)"
            )
        if self.oracle is None:
            return out
        if not self.oracle.converged:
            out.append("oracle: best-response iteration did not converge")
        elif not self.oracle_agrees:
            out.append(
                f"oracle: fixed point deviates from selected equilibrium "
                f"(relative sup-norm {self.oracle_deviation:.2e})"
            )
        return out


class PolicyComparison(NamedTuple):
    solutions: dict[str, SubgameSolution]
    best_pmg_regime: Scenario | None

    @property
    def existence(self) -> dict[str, bool]:
        return {key: sol.chosen is not None for key, sol in self.solutions.items()}

    @property
    def pi_bundle(self) -> float | None:
        best = self.best_pmg_regime
        return None if best is None else self.solutions[scenario_key(best)].chosen.profits.pi_r1

    @property
    def pi_nobundle(self) -> float | None:
        chosen = self.solutions["no_bundle"].chosen
        return None if chosen is None else chosen.profits.pi_r1

    @property
    def delta_pi_B(self) -> float | None:
        pi_bundle, pi_nobundle = self.pi_bundle, self.pi_nobundle
        if pi_bundle is None or pi_nobundle is None:
            return None
        return pi_bundle - pi_nobundle

    @property
    def tie_break(self) -> str | None:
        """The bundled PMG pairs tied at pi_bundle, when two or more are."""
        pi_bundle = self.pi_bundle
        attaining = [
            sol.scenario
            for sol in self.solutions.values()
            if sol.scenario.bundling
            and sol.chosen is not None
            and sol.chosen.profits.pi_r1 == pi_bundle
        ]
        if len(attaining) < 2:
            return None
        tied, best = ", ".join(s.label() for s in attaining), self.best_pmg_regime.label()
        return f"profit tie among {tied}; selected {best} (fewest PMGs, then lexicographic)"


def _select(candidates: list[EquilibriumResult]) -> EquilibriumResult | None:
    """The feasible candidate maximizing retailer 1's profit, ties to the
    lower theorem id, so the choice is independent of candidate order."""
    best = None
    for r in candidates:
        if r.feasible and (
            best is None or (-r.profits.pi_r1, r.theorem_id) < (-best.profits.pi_r1, best.theorem_id)
        ):
            best = r
    return best


def solve_subgame(
    params: MarketParams, scenario: Scenario, *, oracle_check: bool = False
) -> SubgameSolution:
    """Evaluate both regime candidates for a subgame and select the feasible
    one maximizing retailer 1's profit.

    An empty feasible set yields chosen=None (a non-existence point).  With
    oracle_check=True, a best-response fixed point is computed independently
    and disagreement is reported as a warning.
    """
    pair = candidate_theorems(scenario)
    terms = shared_terms(params, pair)
    candidates = [eq_T(terms, tid) for tid in pair]
    oracle = find_fixed_point(params, scenario) if oracle_check else None
    return SubgameSolution(scenario, _select(candidates), candidates, oracle)


def find_fixed_point(params: MarketParams, scenario: Scenario) -> OracleOutcome:
    """The oracle check of solve_subgame: oracle.find_fixed_point at the
    default settings, imported on the first check, so that selection alone
    never loads the oracle or numpy."""
    from . import oracle

    return oracle.find_fixed_point(params, scenario)


def compare_policies(params: MarketParams) -> PolicyComparison:
    """Solve all five subgames and compare bundling against no bundling.

    Each closed-form candidate is evaluated once and shared by the subgames
    that have it.  The best PMG pair is the first bundled subgame, in
    BUNDLED_SCENARIOS order, whose equilibrium gives retailer 1 the most
    profit: ties go to fewer PMG commitments, then lexicographically.
    """
    terms = shared_terms(params, THEOREMS)
    results = {tid: eq_T(terms, tid) for tid in THEOREMS}
    solutions = {}
    best_scenario, best_pi = None, None
    for s, key, (high, low) in _SUBGAMES:
        candidates = [results[high], results[low]]
        chosen = _select(candidates)
        solutions[key] = _tuple_new(SubgameSolution, (s, chosen, candidates, None))
        if s.bundling and chosen is not None and (best_pi is None or chosen.profits.pi_r1 > best_pi):
            best_scenario, best_pi = s, chosen.profits.pi_r1
    return PolicyComparison(solutions, best_scenario)
