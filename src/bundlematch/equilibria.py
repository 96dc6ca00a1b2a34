"""Closed-form equilibrium candidates, one per subgame/regime pair.

Six candidate solutions cover the strategy space, one per regime structure
in market.STRUCTURES:

  T1  bundling, r1 offers a PMG, regime pb1 >= pb2   (r2's PMG irrelevant)
  T2  bundling, r1 without a PMG, regime pb1 >= pb2  (r2's PMG irrelevant)
  T3  bundling, r2 offers a PMG, regime pb1 <= pb2   (r1's PMG irrelevant)
  T4  bundling, r2 without a PMG, regime pb1 <= pb2  (r1's PMG irrelevant)
  T5a no bundling, regime p1 + p2 >= pb2
  T5b no bundling, regime p1 + p2 <  pb2

Each candidate is read off its structure: retailer 2's stationary price is
one formula in the segments it serves at pb2, and retailer 1's prices come
from one of three families, no bundle (T5a, T5b), a bundle matched down to
pb2 (T1), or an unmatched bundle (T2, T3, T4).

The candidates of one parameter point share one record of the terms they
have in common (SharedTerms, built by shared_terms from the parameters
alone): the total cost, t1, the item skew's numerator and denominator, and
the bundle families' k and cross.  eq_T evaluates one candidate from the
record and its structure's own strategic weights; policy.compare_policies
builds the record once for its six candidates and policy.solve_subgame once
for its two, and eq_T1 to eq_T5b (THEOREMS) build one for their own
candidate.  Every denominator is guarded where a candidate reads it, so the
first DegenerateParamsError raised for any parameters does not depend on
which candidates share the record.

Every closed form is plain IEEE arithmetic: a square is a product, x * x,
parenthesized where it stands so each product keeps its operand order.
Unlike a float power (libm pow), a product overflows to inf instead of
raising, and numpy reproduces it to the bit on arrays.

Each function returns the regime's unique stationary point and its
feasibility at market.FEASIBILITY_TOL.  The price ordering is decided
first, and only there: a candidate off its structure's ordering is no
equilibrium and is returned at once, its demands and profits evaluated only
when read.  Any other candidate's demands and profits are read off one
evaluation of its prices under its structure (profits.evaluate, the
evaluation every caller shares), which decides the rest of its feasibility.
Infeasible candidates (ordering violated, a demand or price negative, the
bundle above its parts, a profit that overflows) are returned with
feasible=False rather than raised, so the selection layer can map
non-existence regions; parameters at which a closed form has a vanishing
denominator or a price overflows raise DegenerateParamsError, whatever the
ordering.

Stationarity is not checked here.  Each closed form solves its regime's
first-order system exactly, which tests/test_exact_algebra.py proves in
rational arithmetic, so a floating-point residual would measure rounding
only (and, being absolute, would reject candidates at a large enough price
scale).  EquilibriumResult.foc_residual reports it on access.
"""

from __future__ import annotations

from math import isfinite
from typing import NamedTuple

from .conditions import ConditionReport, check_condition_set
from .market import (
    FEASIBILITY_TOL,
    STRUCTURES,
    DemandProfile,
    MarketParams,
    PriceVector,
    Regime,
    RegimeStructure,
    Scenario,
    regime_structures,
)
from .profits import ProfitPair, evaluate, gradient_r1_at, gradient_r2_at

# A NamedTuple's generated __new__ is a Python call around tuple.__new__,
# about 0.2 us on CPython 3.11, and every candidate builds its prices and
# its result: those two are built by tuple.__new__ itself, their fields in
# declaration order.
_tuple_new = tuple.__new__


class DegenerateParamsError(ValueError):
    """Parameters make a closed-form denominator vanish or a closed form
    overflow."""


class EquilibriumResult(NamedTuple):
    """One closed-form candidate at one parameter point, its feasibility
    decided when it is built (eq_T).  evaluation is the (demands, profits)
    pair eq_T evaluated, or None for a candidate off its price ordering,
    which eq_T rejects unevaluated: demands and profits then evaluate it on
    each access, with the same calls, so they read the same bits either
    way."""

    prices: PriceVector
    theorem_id: str
    params: MarketParams
    feasible: bool
    evaluation: tuple[DemandProfile, ProfitPair] | None

    @property
    def demands(self) -> DemandProfile:
        return self._pair()[0]

    @property
    def profits(self) -> ProfitPair:
        return self._pair()[1]

    def _pair(self) -> tuple[DemandProfile, ProfitPair]:
        return self.evaluation or evaluate(self.params, STRUCTURES[self.theorem_id], self.prices)

    @property
    def regime(self) -> Regime:
        return STRUCTURES[self.theorem_id].regime

    @property
    def foc_residual(self) -> float:
        """The largest |first-order derivative| of either retailer's profit
        in its own prices, under the theorem's structure at the stored
        prices and their demands (evaluated on access for a candidate off
        its price ordering): rounding error only, and NaN when any
        derivative is NaN.  Computed on each access; feasibility does not
        read it."""
        p, s, prices = self.params, STRUCTURES[self.theorem_id], self.prices
        g1 = gradient_r1_at(p, s, prices, s.effective_prices(prices), self.demands)
        return _largest_magnitude((*g1, gradient_r2_at(p, s, prices.pb2)))

    @property
    def condition_report(self) -> ConditionReport:
        """The theorem's condition set checked at params, built on each
        access: selection never reads it."""
        return check_condition_set(STRUCTURES[self.theorem_id].condition_set, self.params)


def _guard_denominator(value: float, description: str) -> float:
    if -1e-12 < value < 1e-12:  # abs(value) < 1e-12, without the call
        raise DegenerateParamsError(f"degenerate parameters: {description} vanishes")
    return value


class SharedTerms(NamedTuple):
    """The terms the candidates of one parameter point share, from its
    parameters alone and unguarded: each denominator is guarded where a
    candidate reads it."""

    params: MarketParams
    cost: float  # total_cost
    t1: float
    skew_num: float  # the item skew's numerator, 0.25 (a_l_i1 - a_l_i2)
    skew_den: float  # and its denominator, b_l (1 - theta_l)
    k: float  # b_l (1 + theta_l) + 2 lambda_l, read by the bundle families
    # b_l (1 + theta_l) lambda_l - lambda_l lambda_l, read by the unmatched one
    cross: float


def shared_terms(params: MarketParams) -> SharedTerms:
    """The terms that the candidates at params share."""
    p = params
    return SharedTerms(
        p,
        p.total_cost,
        p.t1,
        0.25 * (p.a_l_i1 - p.a_l_i2),
        p.b_l * (1.0 - p.theta_l),
        p.b_l * (1.0 + p.theta_l) + 2.0 * p.lambda_l,
        p.b_l * (1.0 + p.theta_l) * p.lambda_l - (p.lambda_l * p.lambda_l),
    )


def _item_skew(t: SharedTerms) -> float:
    """Half the gap between the two item prices, driven by the asymmetry of
    the item demand bases: (a_l_i1 - a_l_i2) / (4 b_l (1 - theta_l))."""
    return t.skew_num / _guard_denominator(t.skew_den, "b_l (1 - theta_l)")


def _r2_level(t: SharedTerms, s: RegimeStructure, w2: float) -> float:
    """A2 / B2: the bases of the segments retailer 2 serves at pb2 over
    their slope, w2 its own strategic weight; its stationary price lies
    halfway between this and cost."""
    p = t.params
    bases = p.a_l_jb + (0.0 if s.r2_matched else p.a_q_jb) + w2 * p.a_s
    slope = (1.0 if s.r2_matched else 2.0) * p.b_l + w2 * p.b_s
    return bases / _guard_denominator(slope, "r2 demand slope")


def _matched_bundle_prices(t: SharedTerms, rival_level: float, pb2: float) -> PriceVector:
    """Retailer 1's stationary prices when its price-aware segment is
    matched down to pb2: the bundle price inherits retailer 2's demand
    bases through rival_level."""
    p, c = t.params, t.cost
    den_a = _guard_denominator(
        t.t1 * p.b_l * (1.0 + p.theta_l) + 2.0 * p.b_l * p.lambda_l, "bundle-price denominator"
    )
    pb1 = 0.5 * (
        ((p.a_l_i1 + p.a_l_i2) * p.lambda_l + t.k * p.a_l_ib) / den_a
        + (rival_level - c) * (p.lambda_l * p.lambda_l) / den_a
        + c
    )
    common = -p.a_l_ib / (4.0 * p.lambda_l) + (2.0 * pb1 - c) * t.t1 / (4.0 * p.lambda_l)
    skew = _item_skew(t)
    p1 = skew + common + 0.5 * p.c1
    p2 = -skew + common + 0.5 * p.c2
    return _tuple_new(PriceVector, (p1, p2, pb1, pb2))


def _unmatched_bundle_prices(t: SharedTerms, strat_w: float, pb2: float) -> PriceVector:
    """Retailer 1's stationary prices when its price-aware segment pays pb1,
    serving a `strat_w` share of strategic demand at pb1: item prices carry
    a base-asymmetry skew, lopsided cost terms, and a level tied to pb1."""
    p, c, k = t.params, t.cost, t.k
    den = _guard_denominator(
        2.0 * (2.0 * p.b_l + strat_w * p.b_s) * k
        + 4.0 * p.b_l * (1.0 + p.theta_l) * p.lambda_l
        - (p.lambda_l * p.lambda_l),
        "bundle-price denominator",
    )
    captive = p.a_l_ib + p.a_q_ib + strat_w * p.a_s
    pb1 = 0.5 * (
        (3.0 * (p.a_l_i1 + p.a_l_i2) * p.lambda_l + 2.0 * k * captive) / den
        + c * (1.0 + t.cross / den)
    )
    slope = t.t1 + 0.5 * strat_w * p.b_s
    skew = _item_skew(t)
    level = -captive / (6.0 * p.lambda_l) + (2.0 * pb1 - c) * slope / (3.0 * p.lambda_l)
    p1 = skew + 5.0 * p.c1 / 12.0 - p.c2 / 12.0 + level
    p2 = -skew - p.c1 / 12.0 + 5.0 * p.c2 / 12.0 + level
    return _tuple_new(PriceVector, (p1, p2, pb1, pb2))


def _no_bundle_prices(t: SharedTerms, strat_w: float, pb2: float) -> PriceVector:
    """Retailer 1's stationary item prices without a bundle, serving a
    `strat_w` share of strategic demand at the item-price sum."""
    p = t.params
    skew = _item_skew(t)
    level = (
        p.a_l_i1
        + p.a_l_i2
        + 2.0 * (p.a_l_ib + p.a_q_ib)
        + 2.0 * strat_w * p.a_s
    ) / (4.0 * p.b_l * (5.0 + p.theta_l) + 8.0 * strat_w * p.b_s)
    p1 = skew + 0.5 * p.c1 + level
    p2 = -skew + 0.5 * p.c2 + level
    return _tuple_new(PriceVector, (p1, p2, None, pb2))


def _largest_magnitude(values: tuple[float, ...]) -> float:
    """The largest |value|, or NaN when any value is NaN (Python's max keeps
    a NaN only in first place), so a NaN gradient shows in the residual."""
    largest = 0.0
    for v in values:
        a = abs(v)
        if a > largest:
            largest = a
        elif a != a:
            return a
    return largest


def _feasible(prices: PriceVector, present: tuple[float, ...], d: DemandProfile) -> bool:
    """All demands and prices (the posted ones, present) are nonnegative and
    the bundle is not priced above its parts, each within FEASIBILITY_TOL.
    The price ordering is decided before, in eq_T."""
    if min(d) < -FEASIBILITY_TOL:
        return False
    if min(present) < -FEASIBILITY_TOL:
        return False
    return prices.bundle_within_parts()


def eq_T(terms: SharedTerms, theorem_id: str) -> EquilibriumResult:
    """The candidate of theorem_id, from the terms shared_terms built for
    its point and its structure's own strategic weights: the stationary
    point, with its feasibility.  Retailer 2's price comes from one
    formula, retailer 1's from the family its structure picks.  A candidate
    off its structure's price ordering is rejected before its demands and
    profits are evaluated (they are evaluated on access); any other is
    evaluated once, and is infeasible when a profit is not finite or
    _feasible fails.  No gradient is evaluated.  Raises
    DegenerateParamsError when a price overflows or is NaN, whatever the
    ordering."""
    p, s = terms.params, STRUCTURES[theorem_id]
    strat_w, rival_w = s.own_strategic_weights(p.alpha)
    rival_level = _r2_level(terms, s, rival_w)
    pb2 = 0.5 * (rival_level + terms.cost)
    if not s.bundling:
        prices = _no_bundle_prices(terms, strat_w, pb2)
    elif s.r1_matched:
        prices = _matched_bundle_prices(terms, rival_level, pb2)
    else:
        prices = _unmatched_bundle_prices(terms, strat_w, pb2)
    present = prices.present()
    if not all(map(isfinite, present)):
        raise DegenerateParamsError(
            f"degenerate parameters: {theorem_id} closed form is not finite"
        )
    if not s.regime.holds(prices.r1_bundle_equivalent(), pb2):
        return _tuple_new(EquilibriumResult, (prices, theorem_id, p, False, None))
    evaluation = evaluate(p, s, prices)
    d, pi = evaluation
    feasible = isfinite(pi.pi_r1) and isfinite(pi.pi_r2) and _feasible(prices, present, d)
    return _tuple_new(EquilibriumResult, (prices, theorem_id, p, feasible, evaluation))


def eq_T1(params: MarketParams) -> EquilibriumResult:
    """Bundling with a PMG at retailer 1, regime pb1 >= pb2.

    Retailer 2 prices against its whole captive demand plus its strategic
    share; retailer 1's bundle price inherits a dependence on retailer 2's
    demand bases through the matched effective price.
    """
    return eq_T(shared_terms(params), "T1")


def eq_T2(params: MarketParams) -> EquilibriumResult:
    """Bundling without a PMG at retailer 1, regime pb1 >= pb2.  Retailer 1
    prices on its own demand only; retailer 2 serves all strategic demand."""
    return eq_T(shared_terms(params), "T2")


def eq_T3(params: MarketParams) -> EquilibriumResult:
    """Bundling with a PMG at retailer 2, regime pb1 <= pb2.  Retailer 2's
    price-aware and strategic customers are matched down to pb1, so only
    its price-unaware loyal demand prices pb2."""
    return eq_T(shared_terms(params), "T3")


def eq_T4(params: MarketParams) -> EquilibriumResult:
    """Bundling without a PMG at retailer 2, regime pb1 <= pb2.  Retailer 1
    is strictly cheapest and captures all strategic demand."""
    return eq_T(shared_terms(params), "T4")


def eq_T5a(params: MarketParams) -> EquilibriumResult:
    """No bundling, regime p1 + p2 >= pb2: retailer 2 serves all strategic
    demand."""
    return eq_T(shared_terms(params), "T5a")


def eq_T5b(params: MarketParams) -> EquilibriumResult:
    """No bundling, regime p1 + p2 < pb2: retailer 1's item-price sum is the
    market-low bundle-equivalent price and captures all strategic demand."""
    return eq_T(shared_terms(params), "T5b")


THEOREMS = {
    "T1": eq_T1,
    "T2": eq_T2,
    "T3": eq_T3,
    "T4": eq_T4,
    "T5a": eq_T5a,
    "T5b": eq_T5b,
}


def candidate_theorems(scenario: Scenario) -> tuple[str, str]:
    """The (high-regime, low-regime) candidate pair for a subgame."""
    high, low = regime_structures(scenario)
    return high.theorem_id, low.theorem_id
