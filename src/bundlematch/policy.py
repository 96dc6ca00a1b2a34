"""Equilibrium selection and strategy comparison.

A subgame (one bundling/PMG configuration) has up to two closed-form
candidates, one per price ordering.  One rule (_select) picks a subgame's
equilibrium and the bundled winner alike: the first feasible candidate with
the most retailer-1 profit, in the order the caller gives, so that order is
the tie order.  A subgame's order is (R1_HIGH, R1_LOW), the bundled
winner's the PMG pairs' (_PMG_PAIR).  When a candidate is feasible and
stationary but its sufficient condition set fails, it is admitted with a
warning, because the condition sets are not necessary.

Warnings are derived on access from the chosen candidate and the optional
oracle outcome.  The policy comparison keeps the six closed-form candidates
and the bundled winner, the feasible T1-T4 candidate with the most
retailer-1 profit, and reads the subgame solutions (keyed by Scenario),
profits, the gain from bundling and the best PMG pair off those on access.
So a sweep, which reads only the gain and the pair, builds no subgame
solution or condition report.

Selection needs no numpy.  The oracle, which does, is imported only when a
subgame is solved with oracle_check=True (see find_fixed_point below).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .equilibria import EquilibriumResult, THEOREMS, candidate_theorems, eq_T, shared_terms
from .market import MarketParams, Scenario

if TYPE_CHECKING:
    from .oracle import OracleOutcome

# largest relative sup-norm deviation at which the oracle's fixed point
# agrees with a closed-form equilibrium
AGREEMENT_TOL = 1e-4

# the order of the bundled subgames, and of the PMG pairs tied at the best
# bundled profit: no PMG commitments first, then lexicographic on the
# (pmg_r1, pmg_r2) flags
BUNDLED_SCENARIOS = (
    Scenario.bundled(False, False),
    Scenario.bundled(False, True),
    Scenario.bundled(True, False),
    Scenario.bundled(True, True),
)


# (scenario, its (high-regime, low-regime) candidate pair) for the five
# subgames of a policy comparison, bundled ones in BUNDLED_SCENARIOS order
_SUBGAMES = tuple((s, candidate_theorems(s)) for s in (*BUNDLED_SCENARIOS, Scenario.no_bundle()))

# The PMG pair reported for each bundled winner, in the order ties go.  Only
# one retailer's PMG acts in a price ordering (T1 and T2 ignore retailer 2's,
# T3 and T4 retailer 1's), so each candidate solves two subgames; its entry is
# the first of them in BUNDLED_SCENARIOS order, which makes the pair reported
# the first that attains the best bundled profit.  CM,CM never is.
_PMG_PAIR = {
    tid: next(s for s, pair in _SUBGAMES if tid in pair)
    for s, pair in _SUBGAMES
    if s.bundling
    for tid in pair
}


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
    candidates: dict[str, EquilibriumResult]  # by theorem id
    best_bundled: EquilibriumResult | None

    @property
    def solutions(self) -> dict[Scenario, SubgameSolution]:
        """Each subgame's solution by its Scenario, built on each access."""
        solutions = {}
        for s, (high, low) in _SUBGAMES:
            pair = [self.candidates[high], self.candidates[low]]
            solutions[s] = SubgameSolution(s, _select(pair), pair)
        return solutions

    @property
    def best_pmg_regime(self) -> Scenario | None:
        best = self.best_bundled
        return None if best is None else _PMG_PAIR[best.theorem_id]

    @property
    def pi_bundle(self) -> float | None:
        best = self.best_bundled
        return None if best is None else best.profits.pi_r1

    @property
    def pi_nobundle(self) -> float | None:
        chosen = _select([self.candidates["T5a"], self.candidates["T5b"]])
        return None if chosen is None else chosen.profits.pi_r1

    @property
    def delta_pi_B(self) -> float | None:
        pi_bundle, pi_nobundle = self.pi_bundle, self.pi_nobundle
        if pi_bundle is None or pi_nobundle is None:
            return None
        return pi_bundle - pi_nobundle


def _select(candidates: list[EquilibriumResult]) -> EquilibriumResult | None:
    """The first feasible candidate with the most retailer-1 profit,
    compared by >: a tie, 0.0 against -0.0 too, goes to the candidate the
    caller lists first."""
    best = None
    for r in candidates:
        if r.feasible and (best is None or r.profits.pi_r1 > best.profits.pi_r1):
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
    terms = shared_terms(params)
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
    """Evaluate the six closed-form candidates once and select the bundled
    winner among T1-T4, in _PMG_PAIR order."""
    terms = shared_terms(params)
    candidates = {tid: eq_T(terms, tid) for tid in THEOREMS}
    return PolicyComparison(candidates, _select([candidates[tid] for tid in _PMG_PAIR]))
